"""Every environment variable the library reads, in one table.

:data:`SETTINGS` is the library's whole environment surface: no other
module reads ``os.environ``. :func:`resolve` applies the one rule all
of them follow: an explicit argument wins, then the environment, then
the default. It checks the value once and raises the setting's error
class, naming the variable and the value, when the value does not
parse or falls below the setting's minimum. The environment is read
when :func:`resolve` is called, never at import, and not at all when an
explicit value is given.

docs/OBSERVABILITY.md documents the same table for operators, and
``tools/check_docs.py`` fails when the two disagree on a name or a
default.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .errors import AnalysisError, ServiceError

#: Values (in any case) that turn a boolean setting off. Any other
#: non-empty value turns it on; an empty one means the default.
OFF_WORDS = ("0", "false", "no", "off")


def flag(raw: str) -> bool:
    """Parse a boolean setting: off for :data:`OFF_WORDS`, else on."""
    return raw.lower() not in OFF_WORDS


def indices(raw: str) -> Tuple[int, ...]:
    """Parse a comma-separated list of integers (empty parts skipped)."""
    return tuple(int(part) for part in raw.split(",") if part.strip())


#: What a malformed value should have been, by parser.
_KINDS = {int: "an integer", float: "a number",
          indices: "a comma-separated list of integers"}


@dataclass(frozen=True)
class Setting:
    """One environment variable: its parser, default and minimum."""

    name: str
    #: Turns the stripped, non-empty environment string into a value;
    #: raises :class:`ValueError` when the string is malformed.
    parse: Callable[[str], Any]
    #: The value when neither an argument nor the environment sets one.
    default: Any
    #: Smallest accepted value; ``None`` accepts any parsed value.
    minimum: Optional[float] = None
    #: Raised for a malformed or below-minimum value.
    error: type = AnalysisError


SETTINGS: Dict[str, Setting] = {setting.name: setting for setting in (
    Setting("REPRO_NUM_WORKERS", int, 0, minimum=0),
    Setting("REPRO_TRIAL_TIMEOUT", float, 0.0, minimum=0),
    Setting("REPRO_MAX_RETRIES", int, 2, minimum=0),
    Setting("REPRO_PROGRESS", flag, False),
    Setting("REPRO_TRACE", str, None),
    Setting("REPRO_ARTIFACT_CACHE", flag, True),
    Setting("REPRO_READ_RETRIES", int, 0, minimum=0),
    Setting("REPRO_SERVICE_REPLICAS", int, 2, minimum=1,
            error=ServiceError),
    Setting("REPRO_CHAOS_SEED", int, None),
    Setting("REPRO_CHAOS_DEVICE_RATE", float, None, minimum=0),
    Setting("REPRO_CHAOS_BURST_RATE", float, None, minimum=0),
    Setting("REPRO_CHAOS_BURST_BLOCKS", int, 4, minimum=1),
    Setting("REPRO_CHAOS_SHARD_STORM", str, None),
    Setting("REPRO_CHAOS_SHARD_FLAKES", indices, ()),
    Setting("REPRO_CHAOS_FAIL_TRIALS", indices, ()),
)}


def resolve(name: str, explicit: Any = None) -> Any:
    """The value of setting ``name``.

    ``explicit`` wins unless it is ``None``; then the environment
    variable, unless it is unset or blank; then the default.
    """
    setting = SETTINGS[name]
    if explicit is None:
        raw = os.environ.get(name, "").strip()
        if raw:
            try:
                explicit = setting.parse(raw)
            except ValueError:
                raise setting.error(
                    f"{name}={raw!r} is not {_KINDS[setting.parse]}"
                ) from None
    return argument(name, explicit, setting.default, setting.minimum,
                    setting.error)


def argument(name: str, value: Any, default: Any,
             minimum: Optional[float], error: type) -> Any:
    """``value``, or ``default`` when it is ``None``, checked once.

    When ``minimum`` is given, a value below it, or not finite, raises
    ``error`` naming ``name`` and the value; so does a fractional value
    where the default is an integer, and a whole one comes back as an
    ``int``. The service's constructor arguments, which no environment
    variable backs, are checked here too, by the same rule.
    """
    if value is None:
        return default
    if minimum is None:
        return value
    whole = isinstance(default, int)
    if not (math.isfinite(value) and value >= minimum
            and (not whole or value == int(value))):
        kind = "an integer" if whole else "a finite number"
        raise error(f"{name} must be {kind} >= {minimum}, got {value!r}")
    return int(value) if whole else value
