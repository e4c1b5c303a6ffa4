#!/usr/bin/env python3
"""Documentation lint: links, public docstrings and the knob table.

Three checks, all designed to fail CI loudly rather than let docs rot:

1. **Markdown links** — every relative link in every ``*.md`` file must
   point at a file (or directory) that exists in the repository.
   External links (``http(s)://``, ``mailto:``) and pure in-page
   anchors (``#...``) are not checked; a ``path#fragment`` link is
   checked for the path part only.
2. **Docstrings** — every public module, class, function, and method in
   the packages listed in :data:`DOCSTRING_PACKAGES` must carry a
   docstring. "Public" means the name (and, for methods, the owning
   class) does not start with ``_``.
3. **Knob table** — the library table of environment variables in
   :data:`KNOB_DOC` must list exactly the variables of
   ``repro.settings.SETTINGS``, each with the same default.

Usage::

    python tools/check_docs.py [repo-root]

Exits 0 when clean, 1 with one ``file:line: problem`` per finding.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: Packages whose public API must be fully docstringed.
DOCSTRING_PACKAGES = (
    "src/repro/obs",
    "src/repro/runtime",
    "src/repro/service",
    "src/repro/settings.py",
    "src/repro/video/adversarial.py",
    "src/repro/analysis/scenarios.py",
)

#: The one table of environment variables, and the heading of its part
#: that lists what the library reads (the part runs to the next
#: heading). Rows under other headings are read by benchmarks and
#: tests only, and are not checked against the settings table.
KNOB_DOC = "docs/OBSERVABILITY.md"
LIBRARY_KNOBS_HEADING = "### Read by the library"

#: A knob row: ``| `NAME` | default | meaning |``.
_KNOB_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|\s*([^|]*?)\s*\|")

#: Directories never scanned for Markdown files.
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules",
             ".hypothesis"}

#: ``[text](target)`` — good enough for the plain links these docs use
#: (no reference-style links, no angle brackets in targets).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Inline/fenced code spans, removed before link extraction so example
#: snippets like ``[0](x)`` in code blocks are not treated as links.
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_CODE = re.compile(r"`[^`]*`")


def iter_markdown(root: Path) -> Iterator[Path]:
    """Every tracked-looking Markdown file under ``root``."""
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts):
            yield path


def check_markdown_links(root: Path) -> List[str]:
    """``file:line: broken link`` findings for the whole repo."""
    problems: List[str] = []
    for md_path in iter_markdown(root):
        text = md_path.read_text(encoding="utf-8")
        stripped = _CODE.sub("", _FENCE.sub("", text))
        # Recompute line numbers against the original text: find each
        # surviving link's first occurrence instead of tracking offsets.
        for target in _LINK.findall(stripped):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:        # pure in-page anchor
                continue
            resolved = (md_path.parent / path_part).resolve()
            if resolved.exists():
                continue
            line = 1 + text[:text.find(f"({target})")].count("\n")
            problems.append(
                f"{md_path.relative_to(root)}:{line}: broken link "
                f"-> {target}")
    return problems


def _missing_docstrings(py_path: Path) -> Iterator[Tuple[int, str]]:
    """(line, description) for each public def/class without a docstring."""
    tree = ast.parse(py_path.read_text(encoding="utf-8"))
    if ast.get_docstring(tree) is None:
        yield 1, "module has no docstring"

    def walk(node: ast.AST, owner_public: bool,
             prefix: str) -> Iterator[Tuple[int, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                public = owner_public and not child.name.startswith("_")
                qualname = f"{prefix}{child.name}"
                if public and ast.get_docstring(child) is None:
                    kind = ("class" if isinstance(child, ast.ClassDef)
                            else "function")
                    yield child.lineno, f"{kind} {qualname} has no docstring"
                yield from walk(child, public, f"{qualname}.")

    yield from walk(tree, True, "")


def check_docstrings(root: Path) -> List[str]:
    """``file:line: missing docstring`` findings for DOCSTRING_PACKAGES."""
    problems: List[str] = []
    for package in DOCSTRING_PACKAGES:
        package_path = root / package
        if package_path.is_file():
            paths = [package_path]
        elif package_path.is_dir():
            paths = sorted(package_path.rglob("*.py"))
        else:
            problems.append(f"{package}: package path missing")
            continue
        for py_path in paths:
            for line, description in _missing_docstrings(py_path):
                problems.append(
                    f"{py_path.relative_to(root)}:{line}: {description}")
    return problems


def documented_default(value: object) -> str:
    """How the knob table writes a setting's default: ``unset`` for no
    value, ``1``/``0`` for a boolean, else the value's text (which the
    table puts in backticks)."""
    if value is None or value == ():
        return "unset"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def knob_table_problems(text: str, settings: Dict[str, object]
                        ) -> List[str]:
    """Findings from comparing the library knob table in ``text`` with
    ``settings`` (name -> :class:`repro.settings.Setting`)."""
    rows: Dict[str, Tuple[int, str]] = {}
    problems = []
    in_table = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            in_table = line.strip() == LIBRARY_KNOBS_HEADING
            continue
        match = _KNOB_ROW.match(line) if in_table else None
        if match:
            name, cell = match.groups()
            if name in rows:
                problems.append(f"{KNOB_DOC}:{number}: {name} has a "
                                f"second row")
            default = (cell[1:].split("`", 1)[0] if cell.startswith("`")
                       else cell.split(" ", 1)[0])
            rows[name] = (number, default)
    for name in sorted(set(settings) - set(rows)):
        problems.append(f"{KNOB_DOC}: {name} is read by the library "
                        f"but has no row under {LIBRARY_KNOBS_HEADING!r}")
    for name, (number, default) in sorted(rows.items()):
        if name not in settings:
            problems.append(f"{KNOB_DOC}:{number}: {name} has a row but "
                            f"the library does not read it")
            continue
        expected = documented_default(settings[name].default)
        if default != expected:
            problems.append(f"{KNOB_DOC}:{number}: {name} default is "
                            f"{default!r} here but {expected!r} in "
                            f"repro.settings")
    return problems


def check_knob_table(root: Path) -> List[str]:
    """Knob-table findings for the repository at ``root``."""
    sys.path.insert(0, str(root / "src"))
    from repro.settings import SETTINGS

    text = (root / KNOB_DOC).read_text(encoding="utf-8")
    return knob_table_problems(text, SETTINGS)


def main(argv: List[str]) -> int:
    """Run the three checks; print findings; exit non-zero on any."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    problems = (check_markdown_links(root) + check_docstrings(root)
                + check_knob_table(root))
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} documentation problem(s)")
        return 1
    print("docs clean: links resolve, public API is docstringed, "
          "knob table matches repro.settings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
