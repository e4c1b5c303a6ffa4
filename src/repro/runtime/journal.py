"""Campaign checkpoint/resume: an append-only journal of trial results.

A Monte Carlo campaign worth journaling is long enough that losing it to
a Ctrl-C, an OOM kill, or a machine reboot hurts. The journal makes a
campaign restartable:

* every completed :class:`TrialResult` is appended to a JSONL file —
  one fsynced line per trial, keyed by a *spec digest* — the moment the
  parent learns of it;
* on resume, specs whose digest already appears in the journal are
  restored instead of re-executed, so an interrupted campaign finishes
  by running only the missing trials;
* because each spec carries its own pre-spawned RNG seed, the merged
  results are bitwise identical to an uninterrupted run.

The digest covers everything that determines a trial's outcome — kind,
rate, range reference, flip coordinates, and the exact seed entropy —
so a journal can never leak results across campaigns: the file header
additionally pins a whole-campaign digest (which folds in a digest of
the shared :class:`~repro.runtime.trials.TrialContext` — the encoded
stream, bit-range tables, references, and store — so the same spec grid
pointed at a different video refuses to resume) and mismatches are
rejected.

Failures are deliberately *not* journaled: a crash or timeout may be
transient, so a resumed campaign retries them for free.

Format (one JSON object per line)::

    {"type": "header", "version": 2, "campaign": "<hex>"}
    {"type": "trial", "digest": "<hex>", "index": 3,
     "value_db": -0.25, "num_flips": 2, "forced": false}

A torn final line (the process died mid-write) is tolerated: the file
is truncated back to the last complete line and the lost trial simply
re-runs. Any *terminated* undecodable line is real corruption and is an
error.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..errors import AnalysisError
from ..obs import metrics as obs_metrics
from . import chaos
from .trials import TrialContext, TrialResult, TrialSpec

#: Journal format version (bumped on incompatible record changes).
#: Version 2 folds the trial context into the campaign digest.
#: Version 3 folds the lifetime fields (retention time, scrub interval,
#: retry depth, concealment flag) into the spec digest.
#: Version 4 folds the encode-unit fields (clip reference, unit bounds,
#: clip content, encoder config) into the digests and journals the
#: kind-specific ``aux`` payload.
JOURNAL_VERSION = 4


def spec_digest(spec: TrialSpec) -> str:
    """A stable content digest of everything that determines a trial.

    Covers the kind, all injection coordinates, and the exact RNG seed
    (entropy + spawn key), so two specs collide only when they would
    provably produce the same :class:`TrialResult`. The float rate is
    hashed via ``float.hex`` — exact, no formatting loss.
    """
    seed = spec.seed
    if seed is None:
        seed_repr = "none"
    else:
        seed_repr = (f"{seed.entropy!r}/{tuple(seed.spawn_key)!r}"
                     f"/{seed.pool_size}")
    parts = (
        spec.kind,
        float(spec.rate).hex(),
        repr(spec.ranges_ref),
        repr(bool(spec.force_at_least_one)),
        repr(spec.flip_payload),
        repr(spec.flip_bit),
        repr(spec.measure_frame),
        "none" if spec.t_days is None else float(spec.t_days).hex(),
        "none" if spec.scrub_days is None else float(spec.scrub_days).hex(),
        repr(spec.retries),
        repr(bool(spec.conceal)),
        repr(spec.clip_ref),
        repr(spec.unit_start),
        repr(spec.unit_stop),
        seed_repr,
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:32]


def context_digest(context: Optional[TrialContext]) -> str:
    """Digest of the trial-determining shared state.

    A spec is only half of a trial's identity: ``ranges_ref`` is an
    index into ``context.ranges_table``, and every measurement depends
    on the encoded stream (or store) the spec runs against. Two
    campaigns with identical spec grids but different videos, bit-range
    tables, or stores must therefore never share a journal — this
    digest makes them distinguishable. Components that are plain bytes
    are hashed directly; structured ones (sequences, stores) through
    their pickle, which is what already defines their identity on the
    wire to worker processes.
    """
    if context is None:
        return hashlib.sha256(b"no-context").hexdigest()[:32]
    digest = hashlib.sha256()
    if context.encoded_blob is not None:
        digest.update(b"|blob:")
        digest.update(hashlib.sha256(context.encoded_blob).digest())
    digest.update(b"|ranges:")
    digest.update(repr(context.ranges_table).encode())
    if context.clean_psnr is not None:
        digest.update(b"|clean_psnr:")
        digest.update(float(context.clean_psnr).hex().encode())
    for label, part in (("reference", context.reference),
                        ("clean", context.clean),
                        ("store", context.store),
                        ("stored", context.stored)):
        if part is None:
            continue
        digest.update(f"|{label}:".encode())
        try:
            digest.update(pickle.dumps(part, protocol=4))
        except Exception:  # unpicklable (serial-only context): best effort
            digest.update(repr(part).encode())
    if context.clips is not None:
        # Hash clip *content*, not transport: the digest must not change
        # between shared-memory and by-value clip shipping, or toggling
        # ``use_shared_memory`` would orphan every encode-farm journal.
        digest.update(b"|clips:")
        for index in range(len(context.clips)):
            clip = context.clips[index]
            digest.update(hashlib.sha256(clip.to_array().tobytes()).digest())
            digest.update(float(clip.fps).hex().encode())
    if context.encoder_config is not None:
        digest.update(b"|config:")
        digest.update(repr(context.encoder_config).encode())
    return digest.hexdigest()[:32]


def campaign_digest(specs: Sequence[TrialSpec],
                    context: Optional[TrialContext] = None) -> str:
    """Digest of a whole campaign: the context it runs against plus the
    ordered list of spec digests."""
    digest = hashlib.sha256()
    digest.update(context_digest(context).encode())
    digest.update(b"\n")
    for spec in specs:
        digest.update(spec_digest(spec).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:32]


class TrialJournal:
    """Append-only JSONL journal of completed trials for one campaign."""

    def __init__(self, path: Union[str, Path], campaign: str) -> None:
        self.path = Path(path)
        self.campaign = campaign
        self.torn_lines = 0
        self._completed: Dict[str, TrialResult] = {}
        self._load_existing()
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._append({"type": "header", "version": JOURNAL_VERSION,
                          "campaign": self.campaign})

    @classmethod
    def open_for(cls, path: Union[str, Path], specs: Sequence[TrialSpec],
                 context: Optional[TrialContext] = None) -> "TrialJournal":
        """Open (or create) the journal for exactly this campaign.

        ``context`` must be the :class:`TrialContext` the specs will run
        against: it is folded into the campaign digest, so one journal
        path cannot leak results between sweeps of different videos (or
        bit-range tables, or stores) that happen to share a spec grid.
        """
        return cls(path, campaign_digest(specs, context))

    # -- resume -----------------------------------------------------------

    def _load_existing(self) -> None:
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        if not raw:
            return
        # Every record is written as one ``json + "\n"`` call, so an
        # unterminated tail is a torn write from a process that died
        # mid-append. Truncate it away — otherwise the next append would
        # glue onto the torn fragment, and the resulting mid-file garbage
        # line would (rightly) read as corruption on the resume after
        # this one. If the *header* itself was torn, truncation empties
        # the file and ``__init__`` writes a fresh header.
        terminated_end = raw.rfind(b"\n") + 1
        if terminated_end < len(raw):
            self.torn_lines += 1  # torn tail write: re-run it
            obs_metrics.counter("journal_torn_tails_total").inc()
            os.truncate(self.path, terminated_end)
            raw = raw[:terminated_end]
        lines = raw.decode("utf-8").splitlines()
        records = []
        for number, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                raise AnalysisError(
                    f"journal {self.path} line {number + 1} is not JSON "
                    f"(corrupt journal; delete it to start over)"
                ) from None
        if not records:
            return
        header = records[0]
        if header.get("type") != "header":
            raise AnalysisError(
                f"journal {self.path} has no header line; not a campaign "
                f"journal")
        if header.get("version") != JOURNAL_VERSION:
            raise AnalysisError(
                f"journal {self.path} is version {header.get('version')}, "
                f"expected {JOURNAL_VERSION}")
        if header.get("campaign") != self.campaign:
            raise AnalysisError(
                f"journal {self.path} belongs to campaign "
                f"{header.get('campaign')}, not {self.campaign}; refusing "
                f"to mix results (use a fresh journal path)")
        for record in records[1:]:
            if record.get("type") != "trial":
                continue
            self._completed[record["digest"]] = TrialResult(
                index=int(record["index"]),
                value_db=float(record["value_db"]),
                num_flips=int(record["num_flips"]),
                forced=bool(record["forced"]),
                aux=record.get("aux"),
            )
        obs_metrics.counter("journal_restored_total").inc(
            len(self._completed))

    def completed(self, spec: TrialSpec) -> Optional[TrialResult]:
        """The journaled result for this spec, or None if it must run."""
        return self._completed.get(spec_digest(spec))

    def __len__(self) -> int:
        return len(self._completed)

    # -- checkpoint -------------------------------------------------------

    def record(self, spec: TrialSpec, result: TrialResult) -> None:
        """Durably append one completed trial (flush + fsync)."""
        digest = spec_digest(spec)
        record = {"type": "trial", "digest": digest,
                  "index": result.index,
                  "value_db": result.value_db,
                  "num_flips": result.num_flips,
                  "forced": result.forced}
        if result.aux is not None:
            record["aux"] = result.aux
        self._append(record)
        if chaos._ACTIVE is not None:
            # Tear the fsynced tail exactly as a mid-write crash would
            # and abort (ChaosError) like the crash kills the writer;
            # a resume re-runs the torn trial from the truncated file.
            chaos.journal_record_fault(self.path,
                                       len(json.dumps(record)) + 1)
        self._completed[digest] = result

    def _append(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        obs_metrics.counter("journal_records_total").inc()

    def close(self) -> None:
        """Close the journal file handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
