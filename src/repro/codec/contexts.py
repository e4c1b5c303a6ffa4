"""Context model layout for the syntax elements.

One :class:`ContextModel` instance describes the whole context table: a
named :class:`~repro.codec.entropy.ContextGroup` per syntax element. The
CABAC backend sizes its probability table from ``total_contexts``; the
CAVLC backend ignores contexts but shares the same group descriptors so
the syntax layer is backend-agnostic.

Context state lives inside the entropy backend and is reset at every
slice, matching H.264 (the paper relies on this reset: it is what stops
coding-error propagation at frame boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict

from ..errors import BitstreamError
from ..memo import Derived
from .entropy import ContextGroup


@dataclass
class ContextModel(Derived):
    """Allocates contiguous context index ranges to named groups."""

    groups: Dict[str, ContextGroup] = field(default_factory=dict)
    total_contexts: int = 0

    def add(self, name: str, variants: int = 1, tail: int = 0,
            tu_cap: int = 1, max_value: int = 1) -> ContextGroup:
        if name in self.groups:
            raise BitstreamError(f"context group {name!r} already defined")
        group = ContextGroup(
            base=self.total_contexts, variants=variants, tail=tail,
            tu_cap=tu_cap, max_value=max_value,
        )
        self.groups[name] = group
        self.total_contexts += group.size
        return group

    def __getitem__(self, name: str) -> ContextGroup:
        return self.groups[name]

    @cached_property
    def syntax_tables(self) -> Dict[str, Any]:
        """The resolved groups and block plans :mod:`repro.codec.syntax`
        derives from the layout, by name; the plans grow with what the
        process codes, so pickles leave them out."""
        return {}


def build_context_model() -> ContextModel:
    """The context model used by the codec's macroblock syntax.

    Neighbor-conditioned first-bin variants (``variants > 1``) are the
    cross-macroblock context dependencies of Figure 2(a) in the paper:
    corrupting one MB's decoded state changes the contexts — and hence
    the interpretation — of the same fields in following MBs.
    """
    model = ContextModel()
    # Macroblock layer.
    model.add("skip_flag", variants=3)            # by #skipped neighbors
    model.add("is_intra", variants=3)             # by #intra neighbors
    model.add("intra_mode", tail=3, tu_cap=3, max_value=3)
    model.add("partition_type", variants=3, tail=2, tu_cap=3, max_value=3)
    model.add("sub_type", tail=2, tu_cap=3, max_value=3)
    # B-frame reference pick: forward / backward / bidirectional.
    model.add("direction", variants=2, tail=1, tu_cap=2, max_value=2)
    model.add("mvd_x", variants=3, tail=6, tu_cap=7, max_value=256)
    model.add("mvd_y", variants=3, tail=6, tu_cap=7, max_value=256)
    model.add("dqp", variants=2, tail=4, tu_cap=5, max_value=51)
    model.add("cbp", variants=4)                  # per-quadrant coded flag
    model.add("nnz", variants=3, tail=6, tu_cap=7, max_value=16)
    model.add("sig", variants=16)                 # per zigzag position
    model.add("level", variants=3, tail=7, tu_cap=8, max_value=(1 << 15))
    return model


#: Shared immutable layout; state is per-backend, so reuse is safe.
DEFAULT_CONTEXT_MODEL = build_context_model()
