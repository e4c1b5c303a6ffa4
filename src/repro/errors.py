"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause without swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class VideoFormatError(ReproError):
    """A raw video or frame has an unusable shape, dtype, or size."""


class EncoderError(ReproError):
    """The encoder was misconfigured or hit an internal inconsistency."""


class GopStructureError(EncoderError):
    """A GOP structure cannot be split into independent work units.

    Raised by :func:`repro.codec.batch.gop_unit_bounds` when the
    configured GOP shape creates cross-boundary references (today:
    ``bframes > 0``, whose trailing B-frames reference the next GOP's
    anchor). Callers that can fall back — like the encode farm, which
    degrades to one whole-clip unit per clip — catch exactly this type
    instead of pattern-matching a generic :class:`EncoderError`.
    """


class BitstreamError(ReproError):
    """A coded bitstream is structurally unusable.

    The decoder never raises this for *corrupted payload bits* (bit flips
    are expected under approximate storage and are decoded best-effort);
    it is raised only when the precise portions of the stream (magic,
    frame headers) are missing or inconsistent.
    """


class StorageError(ReproError):
    """A storage device or ECC codec was used incorrectly."""


class CryptoError(ReproError):
    """An encryption primitive or mode was used incorrectly."""


class AnalysisError(ReproError):
    """A VideoApp analysis step received inconsistent inputs."""


class ChaosError(ReproError):
    """A fault deliberately injected by an armed chaos policy.

    Raised only from the seams instrumented by
    :mod:`repro.runtime.chaos` while a :class:`~repro.runtime.chaos.
    ChaosPolicy` is armed. Production code never raises it on its own;
    seeing one outside a chaos run means a policy leaked past
    ``disarm()``.
    """


class ServiceError(ReproError):
    """Base class for approximate-video-store service failures.

    Raised by :mod:`repro.service` for operational failures a client of
    the serving layer must handle: denied access, retired keys, a full
    ingest queue, or a read the service refuses to serve rather than
    return silently wrong data.
    """


class AccessDeniedError(ServiceError):
    """A tenant asked for an object its access policy does not grant."""


class StaleKeyError(ServiceError):
    """An operation needed a tenant key that has been retired.

    Ciphertext encrypted under a retired key stays on the shards, but
    the keyring refuses to hand the key out again — the service fails
    the operation instead of decrypting with a key the operator
    revoked.
    """


class ServiceOverloadError(ServiceError):
    """The ingest queue is full; the service sheds the request.

    The front-end fails fast rather than buffering without bound —
    callers are expected to retry with backoff or drop the clip.
    """


class TransientShardError(ServiceError):
    """A shard read failed transiently (flake, brown-out, timeout).

    Unlike device-level bit damage — which is *data* the ladder and
    concealment machinery grade — this is an *operational* fault: the
    read never produced bytes at all. Callers retry with backoff
    (:meth:`repro.service.frontend.ServiceFrontend.read_with_retry`)
    or escalate to another replica; today it is raised only from the
    chaos seam in :mod:`repro.service.shards`.
    """


class TrialTimeout(ReproError):
    """A Monte Carlo trial exceeded its wall-clock watchdog budget.

    Raised *inside* the process executing the trial (via a
    ``SIGALRM``-driven deadline, see :mod:`repro.runtime.watchdog`) so a
    corrupted bitstream that drives the arithmetic decoder into a
    pathological path cannot stall an entire campaign. The executor
    converts it into a structured ``TrialFailure`` rather than letting
    it abort the campaign.
    """
