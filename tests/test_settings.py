"""The settings table: one resolver for every environment variable.

Every ``REPRO_*`` variable the library reads is a row of
``repro.settings.SETTINGS``. These tests pin each row's default, the
resolution order (argument, then environment, then default), the one
boolean rule, the error raised for a bad value, that no other module
reads the environment, and that ``tools/check_docs.py`` holds the
operator table to the same names and defaults.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import settings
from repro.errors import AnalysisError, ServiceError
from repro.settings import OFF_WORDS, SETTINGS, resolve

REPO = Path(__file__).resolve().parents[1]

#: name -> (default, environment string, its value, an explicit value,
#: a malformed or below-minimum environment string or None).
CASES = {
    "REPRO_NUM_WORKERS": (0, "3", 3, 1, "2.5"),
    "REPRO_TRIAL_TIMEOUT": (0.0, "2.5", 2.5, 1.0, "soon"),
    "REPRO_MAX_RETRIES": (2, "5", 5, 0, "-3"),
    "REPRO_PROGRESS": (False, "yes", True, False, None),
    "REPRO_TRACE": (None, "run.json", "run.json", "other.json", None),
    "REPRO_ARTIFACT_CACHE": (True, "off", False, True, None),
    "REPRO_READ_RETRIES": (0, "3", 3, 1, "-2"),
    "REPRO_SERVICE_REPLICAS": (2, "3", 3, 1, "0"),
    "REPRO_CHAOS_SEED": (None, "7", 7, 1, "seven"),
    "REPRO_CHAOS_DEVICE_RATE": (None, "0.25", 0.25, 0.5, "lots"),
    "REPRO_CHAOS_BURST_RATE": (None, "0.5", 0.5, 0.1, "-0.1"),
    "REPRO_CHAOS_BURST_BLOCKS": (4, "5", 5, 2, "0"),
    "REPRO_CHAOS_SHARD_STORM": (None, "shard-2", "shard-2", "shard-1",
                                None),
    "REPRO_CHAOS_SHARD_FLAKES": ((), "1,4", (1, 4), (0,), "a,b"),
    "REPRO_CHAOS_FAIL_TRIALS": ((), "1, 3", (1, 3), (2,), "one,two"),
}

#: The error class callers catch for each variable (AnalysisError
#: unless listed).
ERRORS = {"REPRO_SERVICE_REPLICAS": ServiceError}

BOOLEANS = [name for name, setting in SETTINGS.items()
            if setting.parse is settings.flag]


@pytest.fixture(autouse=True)
def unset_all(monkeypatch):
    for name in SETTINGS:
        monkeypatch.delenv(name, raising=False)


class _NoEnvironment:
    """Stands in for ``os.environ`` inside :mod:`repro.settings`; a
    read fails the test."""

    def get(self, *args):
        raise AssertionError("the environment was read")


def test_the_library_reads_fifteen_variables():
    assert set(CASES) == set(SETTINGS)
    assert len(SETTINGS) == 15


@pytest.mark.parametrize("name", sorted(CASES))
class TestEverySetting:
    def test_default_when_unset(self, name):
        assert resolve(name) == CASES[name][0]

    def test_blank_means_default(self, monkeypatch, name):
        monkeypatch.setenv(name, "  ")
        assert resolve(name) == CASES[name][0]

    def test_environment_when_no_argument(self, monkeypatch, name):
        _, raw, value, _, _ = CASES[name]
        monkeypatch.setenv(name, raw)
        assert resolve(name) == value

    def test_argument_wins_without_reading_the_environment(
            self, monkeypatch, name):
        explicit = CASES[name][3]
        monkeypatch.setattr(settings, "os",
                            SimpleNamespace(environ=_NoEnvironment()))
        assert resolve(name, explicit) == explicit


@pytest.mark.parametrize("name", [name for name, case in CASES.items()
                                  if case[4] is not None])
def test_bad_value_raises_naming_the_variable(monkeypatch, name):
    bad = CASES[name][4]
    monkeypatch.setenv(name, bad)
    with pytest.raises(ERRORS.get(name, AnalysisError),
                       match=f"{name}.*{re.escape(bad)}"):
        resolve(name)


@pytest.mark.parametrize("name", [name for name, setting in SETTINGS.items()
                                  if setting.minimum is not None])
def test_argument_below_minimum_raises(name):
    with pytest.raises(ERRORS.get(name, AnalysisError), match=name):
        resolve(name, SETTINGS[name].minimum - 1)


def test_infinite_argument_rejected():
    with pytest.raises(AnalysisError, match="REPRO_TRIAL_TIMEOUT"):
        resolve("REPRO_TRIAL_TIMEOUT", float("inf"))


def test_integer_settings_take_whole_numbers_only():
    with pytest.raises(AnalysisError, match="REPRO_NUM_WORKERS.*1.5"):
        resolve("REPRO_NUM_WORKERS", 1.5)
    workers = resolve("REPRO_NUM_WORKERS", 2.0)
    assert workers == 2 and isinstance(workers, int)


@pytest.mark.parametrize("name", BOOLEANS)
class TestOneBooleanRule:
    @pytest.mark.parametrize("word", OFF_WORDS + ("FALSE", "Off", " no "))
    def test_off_words(self, monkeypatch, name, word):
        monkeypatch.setenv(name, word)
        assert resolve(name) is False

    @pytest.mark.parametrize("word", ["1", "true", "yes", "on", "anything"])
    def test_other_words_are_on(self, monkeypatch, name, word):
        monkeypatch.setenv(name, word)
        assert resolve(name) is True


def _environment_reads(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("environ", "environb", "getenv")):
            yield node.lineno, node.attr
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "environb", "getenv"):
                    yield node.lineno, alias.name


def test_only_the_settings_module_reads_the_environment():
    package = REPO / "src" / "repro"
    readers = [f"{path.relative_to(package)}:{line}: {what}"
               for path in sorted(package.rglob("*.py"))
               if path != package / "settings.py"
               for line, what in _environment_reads(path)]
    assert readers == []
    assert list(_environment_reads(package / "settings.py"))


def _check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestKnobTableCheck:
    @pytest.fixture(scope="class")
    def tool(self):
        return _check_docs()

    @pytest.fixture(scope="class")
    def text(self, tool):
        return (REPO / tool.KNOB_DOC).read_text(encoding="utf-8")

    def test_table_matches(self, tool, text):
        assert tool.knob_table_problems(text, SETTINGS) == []

    def test_unread_row_fails(self, tool, text):
        row = "| `REPRO_NUM_WORKERS` |"
        edited = text.replace(row, "| `REPRO_NOT_READ` | `1` | x |\n" + row)
        problems = tool.knob_table_problems(edited, SETTINGS)
        assert len(problems) == 1 and "REPRO_NOT_READ" in problems[0]

    def test_missing_row_fails(self, tool, text):
        edited = "\n".join(line for line in text.splitlines()
                           if not line.startswith(
                               "| `REPRO_CHAOS_FAIL_TRIALS`"))
        assert edited != text
        problems = tool.knob_table_problems(edited, SETTINGS)
        assert len(problems) == 1 and "REPRO_CHAOS_FAIL_TRIALS" in problems[0]

    def test_changed_default_fails(self, tool, text):
        edited = text.replace("| `REPRO_MAX_RETRIES` | `2` |",
                              "| `REPRO_MAX_RETRIES` | `3` |")
        assert edited != text
        problems = tool.knob_table_problems(edited, SETTINGS)
        assert len(problems) == 1 and "REPRO_MAX_RETRIES" in problems[0]
