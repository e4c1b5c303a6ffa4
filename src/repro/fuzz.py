"""Decoder no-crash fuzz harness.

The paper's whole premise is that payload bits may be stored
approximately, so the decoder will routinely be handed corrupted input.
That gives :meth:`~repro.codec.decoder.Decoder.decode` a hard contract:

* **payload damage** (bit flips, byte noise, zeroed tails — sizes
  preserved, precise headers intact): decode must return a video.
  Any exception, of any type, is a bug.
* **container damage** (truncation or byte noise over the serialized
  stream, precise headers included): ``deserialize``/``decode`` may
  reject the stream, but only ever with :class:`BitstreamError` —
  internal ``KeyError``/``ValueError`` artifacts are bugs.
* **seek-index damage** (the v1 container's index block truncated or
  scribbled over, body intact): same ``BitstreamError``-only rule for
  ``deserialize``, and any container that *does* parse must still serve
  :meth:`~repro.codec.decoder.Decoder.decode_frame_at` — a damaged
  index degrades random access to a full-decode fallback, never a
  crash.
* **concealment** (payload damage plus a randomized uncorrectable-range
  damage map, decoded with ``conceal_uncorrectable=True``): decode must
  neither raise nor drop pixels — it must return a video with exactly
  the declared frame count and frame geometry, no matter how the damage
  ranges land relative to slice boundaries.
* **either way, under a deadline**: a decode that hangs is as much a
  contract violation as one that crashes.
* **memo transparency**: one decoder (and one concealing decoder)
  serves every trial, so its frame memo sees each hostile stream after
  the ones before it; every decode that returns is repeated on a fresh
  :class:`~repro.codec.decoder.Decoder`, and any pixel that differs is
  a contract violation like a crash.

:func:`fuzz_decoder` hammers randomized corruptions through that
contract and persists every counterexample bitstream (plus a JSON
reproduction recipe) to a crash corpus directory, so a failing CI fuzz
run leaves behind exactly the artifact needed to replay the bug:

    blob = Path("fuzz-corpus/<name>.rvap").read_bytes()
    Decoder().decode(EncodedVideo.deserialize(blob))

Trials are seeded independently (one spawned ``SeedSequence`` child per
trial), so a failure reproduces from ``(seed, trial)`` alone, no matter
which strategies or trial counts surrounded it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .codec import DamageMap, Decoder, EncodedVideo
from .errors import AnalysisError, BitstreamError, TrialTimeout
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .runtime.watchdog import trial_deadline
from .storage.injection import flip_bit

#: Payload strategies: headers stay intact, payload sizes are preserved.
STRATEGY_BITFLIP = "bitflip"          #: random bit flips across payloads
STRATEGY_BYTESWAP = "byteswap"        #: random bytes overwritten
STRATEGY_ZERO_TAIL = "zero_tail"      #: tail of one payload zeroed
STRATEGY_RANDOM_PAYLOAD = "random_payload"  #: one payload fully random

#: Container strategies: the serialized stream itself is damaged, so
#: ``BitstreamError`` is an acceptable (expected) outcome.
STRATEGY_TRUNCATE = "truncate"        #: stream cut short at a random point
STRATEGY_CONTAINER = "container"      #: random bytes anywhere in the stream
STRATEGY_SEEK_INDEX = "seek_index"    #: v1 seek-index block damaged/truncated

#: Concealment strategy: payload bit flips *plus* a randomized damage
#: map, decoded with ``conceal_uncorrectable=True``. Same zero-exception
#: rule as payload strategies, with an extra geometry obligation: the
#: decode must return every declared frame at the declared resolution.
STRATEGY_CONCEAL = "conceal"

PAYLOAD_STRATEGIES = (STRATEGY_BITFLIP, STRATEGY_BYTESWAP,
                      STRATEGY_ZERO_TAIL, STRATEGY_RANDOM_PAYLOAD)
CONTAINER_STRATEGIES = (STRATEGY_TRUNCATE, STRATEGY_CONTAINER,
                        STRATEGY_SEEK_INDEX)
ALL_STRATEGIES = PAYLOAD_STRATEGIES + CONTAINER_STRATEGIES + \
    (STRATEGY_CONCEAL,)

#: Default per-trial wall-clock budget (seconds). 0 disables the
#: watchdog (and it is silently absent off the main thread / off POSIX).
DEFAULT_FUZZ_TIMEOUT = 5.0

#: Decode work scales with the *declared* frame geometry, so a corrupted
#: header that claims a gigantic resolution makes decode legitimately
#: slow, not buggy. The decoder itself rejects absurd declarations
#: outright (:data:`repro.codec.decoder.MAX_DECLARED_PIXELS` — the
#: resource guard that used to live only here); this *relative* cap
#: additionally skips containers that are merely slow rather than
#: absurd: corrupted containers declaring more than this many times the
#: clean clip's pixel volume are deserialized but not decoded, and the
#: deadline stays armed as the backstop for everything else.
GEOMETRY_CAP = 8


@dataclass(frozen=True)
class FuzzFailure:
    """One decode() contract violation."""

    trial: int
    strategy: str
    exception: str  #: exception type name; ``TrialTimeout`` for hangs
    message: str
    corpus_path: str = ""  #: persisted .rvap path ("" if no corpus dir)


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    trials: int
    elapsed_seconds: float
    by_strategy: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)
    hangs: int = 0  #: failures that were deadline breaches
    oversized: int = 0  #: corrupted containers skipped by GEOMETRY_CAP

    @property
    def ok(self) -> bool:
        return not self.failures


def _corrupt_payloads(payloads: List[bytes], strategy: str,
                      rng: np.random.Generator) -> List[bytes]:
    """Damage payload bytes only; every length is preserved."""
    buffers = [bytearray(p) for p in payloads]
    candidates = [i for i, p in enumerate(payloads) if len(p)]
    if strategy == STRATEGY_BITFLIP:
        flips = int(rng.integers(1, 129))
        for _ in range(flips):
            index = int(rng.choice(candidates))
            flip_bit(buffers[index],
                     int(rng.integers(0, 8 * len(buffers[index]))))
    elif strategy == STRATEGY_BYTESWAP:
        swaps = int(rng.integers(1, 33))
        for _ in range(swaps):
            index = int(rng.choice(candidates))
            position = int(rng.integers(0, len(buffers[index])))
            buffers[index][position] = int(rng.integers(0, 256))
    elif strategy == STRATEGY_ZERO_TAIL:
        index = int(rng.choice(candidates))
        tail = int(rng.integers(1, len(buffers[index]) + 1))
        buffers[index][-tail:] = bytes(tail)
    elif strategy == STRATEGY_RANDOM_PAYLOAD:
        index = int(rng.choice(candidates))
        buffers[index] = bytearray(
            rng.integers(0, 256, size=len(buffers[index]), dtype=np.uint8)
            .tobytes())
    else:
        raise AnalysisError(f"unknown payload strategy {strategy!r}")
    return [bytes(b) for b in buffers]


def _random_damage(payloads: List[bytes],
                   rng: np.random.Generator) -> Dict[int, List[Tuple[int, int]]]:
    """Randomized uncorrectable damage: a few bit ranges on a few frames.

    Ranges are half-open ``(bit_start, bit_end)`` within each frame's
    payload, the coordinate system
    :func:`repro.core.partition.map_stream_damage` produces. They land
    anywhere — straddling slice boundaries, overlapping each other,
    covering a whole payload — because the concealment contract must
    hold regardless.
    """
    candidates = [i for i, p in enumerate(payloads) if len(p)]
    count = int(rng.integers(1, min(3, len(candidates)) + 1))
    frames = rng.choice(len(candidates), size=count, replace=False)
    damage: Dict[int, List[Tuple[int, int]]] = {}
    for pick in frames:
        index = candidates[int(pick)]
        payload_bits = 8 * len(payloads[index])
        ranges = []
        for _ in range(int(rng.integers(1, 3))):
            start = int(rng.integers(0, payload_bits))
            end = int(rng.integers(start + 1, payload_bits + 1))
            ranges.append((start, end))
        damage[index] = ranges
    return damage


def _check_full_geometry(decoded, encoded: EncodedVideo) -> None:
    """Concealment obligation: every declared frame, at full size."""
    header = encoded.header
    if len(decoded) != header.num_frames:
        raise AnalysisError(
            f"concealing decode returned {len(decoded)} frames, header "
            f"declares {header.num_frames}")
    expected = (header.height, header.width)
    for position, frame in enumerate(decoded.frames):
        if frame.shape != expected:
            raise AnalysisError(
                f"concealing decode frame {position} has shape "
                f"{frame.shape}, expected {expected}")


def _decode_under_contract(strategy: str, victim: EncodedVideo,
                           damage: Optional[DamageMap], decoder: Decoder,
                           concealer: Decoder, display: int) -> None:
    """One trial's decode, then the same decode on a fresh
    :class:`~repro.codec.decoder.Decoder`: the long-lived decoders'
    frame memos must never change a pixel."""
    if strategy == STRATEGY_CONCEAL:
        decoded = concealer.decode(victim, damage)
        _check_full_geometry(decoded, victim)
        fresh = Decoder(conceal_uncorrectable=True).decode(victim, damage)
    elif strategy == STRATEGY_SEEK_INDEX and victim.header.num_frames:
        # A container that parses must still serve random access; a
        # dropped index means the seek falls back to a full decode.
        decoded = [decoder.decode_frame_at(victim, display)]
        fresh = [Decoder().decode_frame_at(victim, display)]
    else:
        decoded = decoder.decode(victim)
        fresh = Decoder().decode(victim)
    if len(decoded) != len(fresh) or not all(
            np.array_equal(got, want) for got, want in zip(decoded, fresh)):
        raise AnalysisError(
            "long-lived decoder's pixels differ from a fresh decoder's")


def _corrupt_blob(blob: bytes, strategy: str,
                  rng: np.random.Generator) -> bytes:
    """Damage the serialized container itself (headers included)."""
    if strategy == STRATEGY_TRUNCATE:
        return blob[:int(rng.integers(0, len(blob)))]
    if strategy == STRATEGY_CONTAINER:
        buffer = bytearray(blob)
        for _ in range(int(rng.integers(1, 17))):
            position = int(rng.integers(0, len(buffer)))
            buffer[position] = int(rng.integers(0, 256))
        return bytes(buffer)
    raise AnalysisError(f"unknown container strategy {strategy!r}")


def _corrupt_seek_index(blob_v1: bytes,
                        rng: np.random.Generator) -> bytes:
    """Damage only the v1 index framing/bytes; the v0 body stays intact.

    v1 layout: 4-byte magic, big-endian u32 index length, index block,
    body. One of three damage shapes per trial: truncate inside the
    index region, scribble over the length field (desyncing the body
    offset), or scribble inside the index block itself (which the CRC
    or the header cross-validation must catch).
    """
    index_len = int.from_bytes(blob_v1[4:8], "big")
    index_end = 8 + index_len
    choice = int(rng.integers(0, 3))
    if choice == 0:
        return blob_v1[:int(rng.integers(4, index_end))]
    buffer = bytearray(blob_v1)
    if choice == 1:
        buffer[int(rng.integers(4, 8))] = int(rng.integers(0, 256))
    else:
        for _ in range(int(rng.integers(1, 9))):
            position = int(rng.integers(8, index_end))
            buffer[position] = int(rng.integers(0, 256))
    return bytes(buffer)


def _persist_counterexample(corpus_dir: Path, blob: bytes, trial: int,
                            strategy: str, seed: int, exception: str,
                            message: str,
                            damage: Optional[DamageMap] = None) -> str:
    """Write the failing bitstream + a JSON repro recipe; return the path."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(blob).hexdigest()[:16]
    stem = f"{strategy}-{digest}"
    blob_path = corpus_dir / f"{stem}.rvap"
    blob_path.write_bytes(blob)
    recipe = {
        "trial": trial,
        "strategy": strategy,
        "seed": seed,
        "exception": exception,
        "message": message,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    if damage is not None:
        # JSON keys must be strings; replay converts them back to ints.
        recipe["damage"] = {
            str(frame): [[int(s), int(e)] for s, e in ranges]
            for frame, ranges in sorted(damage.items())}
    (corpus_dir / f"{stem}.json").write_text(
        json.dumps(recipe, indent=2, sort_keys=True) + "\n")
    return str(blob_path)


def fuzz_decoder(encoded: EncodedVideo,
                 trials: int = 500,
                 seed: int = 0,
                 timeout: float = DEFAULT_FUZZ_TIMEOUT,
                 corpus_dir: Union[str, Path, None] = None,
                 strategies: Sequence[str] = ALL_STRATEGIES,
                 decoder: Optional[Decoder] = None) -> FuzzReport:
    """Fuzz ``decode()`` with randomized corruptions under a deadline.

    Args:
        encoded: a clean encoded video to corrupt (its trace is ignored).
        trials: number of corrupted decodes to attempt.
        seed: campaign seed; a failure reproduces from (seed, trial).
        timeout: per-trial wall-clock budget in seconds; 0 disables.
        corpus_dir: where counterexample bitstreams are persisted; None
            keeps failures in the report only.
        strategies: corruption strategies, applied round-robin so even a
            short run exercises all of them.
        decoder: decoder instance (mainly a test seam).

    Returns a :class:`FuzzReport`; ``report.ok`` is the no-crash verdict.
    """
    if trials < 1:
        raise AnalysisError(f"trials must be >= 1, got {trials}")
    if not strategies:
        raise AnalysisError("no fuzz strategies selected")
    unknown = set(strategies) - set(ALL_STRATEGIES)
    if unknown:
        raise AnalysisError(f"unknown fuzz strategies {sorted(unknown)}")
    payloads = encoded.frame_payloads()
    if not any(len(p) for p in payloads):
        raise AnalysisError("nothing to fuzz: every payload is empty")
    decoder = decoder or Decoder()
    concealer = Decoder(conceal_uncorrectable=True)
    clean_blob = encoded.serialize()
    clean_blob_v1 = encoded.serialize(include_index=True)
    children = np.random.SeedSequence(seed).spawn(trials)
    report = FuzzReport(trials=trials, elapsed_seconds=0.0,
                        by_strategy={name: 0 for name in strategies})
    corpus = Path(corpus_dir) if corpus_dir is not None else None
    started = time.monotonic()
    with obs_trace.span("fuzz", trials=trials):
        for trial in range(trials):
            strategy = strategies[trial % len(strategies)]
            report.by_strategy[strategy] += 1
            rng = np.random.default_rng(children[trial])
            damage: Optional[DamageMap] = None
            if strategy == STRATEGY_CONCEAL:
                blob = None
                victim = encoded.with_payloads(
                    _corrupt_payloads(payloads, STRATEGY_BITFLIP, rng))
                damage = _random_damage(payloads, rng)
                allowed: Tuple[type, ...] = ()
            elif strategy in PAYLOAD_STRATEGIES:
                blob = None  # serialized lazily, only for the corpus
                victim = encoded.with_payloads(
                    _corrupt_payloads(payloads, strategy, rng))
                allowed = ()
            elif strategy == STRATEGY_SEEK_INDEX:
                blob = _corrupt_seek_index(clean_blob_v1, rng)
                victim = None
                allowed = (BitstreamError,)
            else:
                blob = _corrupt_blob(clean_blob, strategy, rng)
                victim = None
                allowed = (BitstreamError,)
            try:
                with obs_trace.span("fuzz.trial", trial=trial,
                                    strategy=strategy):
                    with trial_deadline(timeout, f"fuzz trial {trial}"):
                        if victim is None:
                            victim = EncodedVideo.deserialize(blob)
                            if _declared_pixels(victim) > GEOMETRY_CAP * \
                                    _declared_pixels(encoded):
                                report.oversized += 1
                                continue
                        display = 0
                        if strategy == STRATEGY_SEEK_INDEX and \
                                victim.header.num_frames:
                            display = int(
                                rng.integers(0, victim.header.num_frames))
                        _decode_under_contract(strategy, victim, damage,
                                               decoder, concealer, display)
            except allowed:
                pass  # the codec's own, documented rejection path
            except TrialTimeout as exc:
                report.hangs += 1
                _record(report, corpus, victim, blob, trial, strategy, seed,
                        exc, damage)
            except Exception as exc:  # noqa: BLE001 - the contract is "never"
                _record(report, corpus, victim, blob, trial, strategy, seed,
                        exc, damage)
    report.elapsed_seconds = time.monotonic() - started
    _publish_fuzz_metrics(report)
    return report


def _publish_fuzz_metrics(report: FuzzReport) -> None:
    """Publish one fuzz campaign's totals into the metrics registry."""
    registry = obs_metrics.get_registry()
    registry.counter("fuzz_trials_total").inc(report.trials)
    registry.counter("fuzz_failures_total").inc(len(report.failures))
    registry.counter("fuzz_hangs_total").inc(report.hangs)
    registry.counter("fuzz_oversized_total").inc(report.oversized)


def replay_corpus(corpus_dir: Union[str, Path],
                  timeout: float = DEFAULT_FUZZ_TIMEOUT,
                  decoder: Optional[Decoder] = None) -> FuzzReport:
    """Re-run every persisted counterexample through the decode contract.

    Each ``<strategy>-<digest>.rvap`` bitstream in ``corpus_dir`` (as
    written by :func:`fuzz_decoder`) is deserialized and decoded under
    the same rules as a live fuzz trial: payload-strategy
    counterexamples must decode without any exception, container ones
    may only raise :class:`BitstreamError`, concealment ones are decoded
    with ``conceal_uncorrectable=True`` and the damage map persisted in
    their recipe (and must still return full-geometry frames), and any
    of them must finish within ``timeout`` seconds. The strategy is read
    from the sidecar ``.json`` recipe; a counterexample without one is
    treated as container damage (the lenient rule), so a stale corpus
    never produces false alarms.

    Returns a :class:`FuzzReport`; ``report.ok`` means every historical
    crash is fixed.
    """
    corpus = Path(corpus_dir)
    if not corpus.is_dir():
        raise AnalysisError(f"corpus directory {corpus} does not exist")
    blob_paths = sorted(corpus.glob("*.rvap"))
    if not blob_paths:
        raise AnalysisError(f"no .rvap counterexamples in {corpus}")
    decoder = decoder or Decoder()
    concealer = Decoder(conceal_uncorrectable=True)
    report = FuzzReport(trials=len(blob_paths), elapsed_seconds=0.0)
    started = time.monotonic()
    with obs_trace.span("fuzz.replay", counterexamples=len(blob_paths)):
        for trial, blob_path in enumerate(blob_paths):
            strategy, damage = _load_recipe(blob_path)
            report.by_strategy[strategy] = (
                report.by_strategy.get(strategy, 0) + 1)
            strict = (strategy in PAYLOAD_STRATEGIES
                      or strategy == STRATEGY_CONCEAL)
            allowed: Tuple[type, ...] = (
                () if strict else (BitstreamError,))
            blob = blob_path.read_bytes()
            try:
                with obs_trace.span("fuzz.trial", strategy=strategy,
                                    replay=True):
                    with trial_deadline(timeout,
                                        f"replay {blob_path.name}"):
                        victim = EncodedVideo.deserialize(blob)
                        _decode_under_contract(strategy, victim, damage,
                                               decoder, concealer, 0)
            except allowed:
                pass
            except TrialTimeout as exc:
                report.hangs += 1
                report.failures.append(FuzzFailure(
                    trial=trial, strategy=strategy,
                    exception=type(exc).__name__, message=str(exc),
                    corpus_path=str(blob_path)))
            except Exception as exc:  # noqa: BLE001 - contract is "never"
                report.failures.append(FuzzFailure(
                    trial=trial, strategy=strategy,
                    exception=type(exc).__name__, message=str(exc),
                    corpus_path=str(blob_path)))
    report.elapsed_seconds = time.monotonic() - started
    _publish_fuzz_metrics(report)
    return report


def _load_recipe(blob_path: Path) -> Tuple[str, Optional[DamageMap]]:
    """Strategy + damage map recorded in a counterexample's recipe."""
    recipe_path = blob_path.with_suffix(".json")
    if recipe_path.exists():
        try:
            recipe = json.loads(recipe_path.read_text())
            strategy = str(recipe.get("strategy", "unknown"))
            damage = None
            if isinstance(recipe.get("damage"), dict):
                damage = {int(frame): [(int(s), int(e)) for s, e in ranges]
                          for frame, ranges in recipe["damage"].items()}
            return strategy, damage
        except ValueError:
            pass
    return "unknown", None


def _declared_pixels(encoded: EncodedVideo) -> int:
    """Pixel volume a container's header claims (decode work bound)."""
    header = encoded.header
    return header.width * header.height * max(1, header.num_frames)


def _record(report: FuzzReport, corpus: Optional[Path],
            victim: Optional[EncodedVideo], blob: Optional[bytes],
            trial: int, strategy: str, seed: int, exc: BaseException,
            damage: Optional[DamageMap] = None) -> None:
    """Append one failure, persisting its bitstream when possible."""
    if blob is None and victim is not None:
        blob = victim.serialize()
    corpus_path = ""
    if corpus is not None and blob is not None:
        corpus_path = _persist_counterexample(
            corpus, blob, trial, strategy, seed,
            type(exc).__name__, str(exc), damage)
    report.failures.append(FuzzFailure(
        trial=trial, strategy=strategy, exception=type(exc).__name__,
        message=str(exc), corpus_path=corpus_path))
