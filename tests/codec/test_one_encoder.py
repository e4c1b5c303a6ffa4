"""One production encoder: the per-macroblock path is a test reference.

:class:`repro.codec.encoder.Encoder` runs the batched kernels for every
caller. The scalar encoder it replaced lives on only as the oracle
:func:`repro.codec.reference.encode_scalar`, together with its motion
searches. These checks read the source of every module under
``src/repro``, so a production module that reaches for the reference
path again fails here before any digest can move.
"""

from __future__ import annotations

import ast
import pickle
from pathlib import Path

import repro
from repro.codec import Encoder, EncoderConfig
from repro.video import SceneConfig, synthesize_scene

PACKAGE = Path(repro.__file__).parent

#: The per-macroblock path's public names.
REFERENCE_ONLY = frozenset(
    {"encode_scalar", "FrameMotionSearch", "MacroblockSearch"})

#: The scalar decision functions, defined only by the reference.
SCALAR_DECISIONS = frozenset(
    {"_encode_sequence", "_encode_frame_body", "_encode_macroblock",
     "_decide_inter"})

REFERENCE = Path("codec", "reference.py")


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE), ast.parse(path.read_text(),
                                                   filename=str(path))


def _reference_names(tree: ast.AST):
    """Reference-only names a module imports or reads as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in REFERENCE_ONLY:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and node.attr in REFERENCE_ONLY:
            yield node.lineno, node.attr


def test_walks_the_whole_package():
    names = {path for path, _tree in _modules()}
    assert REFERENCE in names
    assert Path("codec", "encoder.py") in names
    assert len(names) > 50


def test_only_the_reference_imports_the_scalar_encoder():
    offenders = [f"{path}:{line} {name}"
                 for path, tree in _modules() if path != REFERENCE
                 for line, name in _reference_names(tree)]
    assert offenders == []


def test_scalar_decisions_are_defined_only_by_the_reference():
    offenders = [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in _modules() if path != REFERENCE
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in SCALAR_DECISIONS | REFERENCE_ONLY
    ]
    assert offenders == []


def test_encoder_state_is_its_configuration():
    # Stores pickle their encoder into campaign context digests, so an
    # encode must leave nothing behind and nothing else may ride along.
    encoder = Encoder(EncoderConfig(crf=26, gop_size=3, bframes=1))
    before = pickle.dumps(encoder)
    encoder.encode(synthesize_scene(SceneConfig(width=32, height=32,
                                                num_frames=3, seed=2)))
    assert sorted(vars(encoder)) == ["_model", "_pad", "config"]
    assert pickle.dumps(encoder) == before
