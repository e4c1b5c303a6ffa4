"""The video decoder.

Mirrors the encoder exactly on clean streams and decodes corrupted
streams best-effort, the way the paper's methodology requires:

* precise frame headers let it locate every frame and slice payload, so
  it always resynchronizes at slice boundaries (entropy contexts reset);
* within a corrupted slice it misinterprets rather than fails — all
  syntax values are clamped to legal ranges, all compensation accesses
  are clamped into the padded reference;
* damage propagates exactly like in a real decoder: through entropy
  desynchronization and context corruption within the slice, and through
  motion-compensated references across frames.

When the storage layer *knows* a byte range is unreadable (a detected-
uncorrectable ECC block that survived the retry ladder), the decoder
can do better than decoding the garbage — but only where garbage is
actually expensive. With ``conceal_uncorrectable=True`` it accepts a
damage map and **salvages then conceals** every *I* slice the damage
touches: macroblocks decoded entirely from bits before the first
damaged bit are kept (they are provably bit-identical to the clean
decode), and the rest of the band is concealed — copied from the
nearest previously decoded frame (temporal concealment); only the very
first frame, with no temporal source at all, interpolates vertically
between the reconstructed border rows (128 mid-gray when no neighbor
exists). Damaged *P/B* slices are left to the ordinary best-effort
decode: the hardened entropy layer misinterprets locally instead of
failing, and paired measurements show that decode beating or tying
co-located temporal copy (which pays the full motion error), while
concealing I bands — whose garbage intra decode anchors a whole GOP —
wins clearly. Slices are self-contained (contexts reset, intra
prediction clamped to the slice), so concealing one never
desynchronizes its neighbors. The flag defaults to off and the damage
map to ``None``, in which case decoding is bit-identical to the
paper-faithful path.

A re-read of a stored object mostly returns the bytes the last read
did: the precise headers never change and approximate payloads flip in
a few frames at a time. Each decoder therefore keeps a small memo of
decoded frames keyed by *content* — a SHA-256 over the stream fields
that shape a frame decode, the frame header, the payload bytes and the
keys of the frame's references — so a frame whose inputs match an
earlier decode is served without decoding it again, and a frame that
differs (or references one that differs) always decodes afresh. Frames
with a damage map are never memoized, so salvage and concealment run
exactly as without the memo. Decoded frames are handed out read-only.
The memo is a :class:`~repro.memo.ByteMemo`, the byte-bounded LRU the
stream encryptors keep their keystreams in.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError
from ..memo import ByteMemo
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..video.frame import MACROBLOCK_SIZE, VideoSequence
from .cabac import CabacDecoder
from .cavlc import CavlcDecoder
from .config import EntropyCoder
from .contexts import DEFAULT_CONTEXT_MODEL
from .deblock import deblock_frame
from .encoded import EncodedFrame, EncodedVideo
from .encoder import slice_bands
from .motion import pad_reference
from .neighbors import FrameMbState
from .reconstruct import ReferenceSet, build_prediction, reconstruct_macroblock
from .syntax import finalize_macroblock, parse_macroblock, scatter_coefficients
from .transform import reconstruct_residuals_many
from .types import (
    FrameType,
    MacroblockDecision,
    PredictionDirection,
)


#: Half-open bit ranges within one frame payload marked unreadable.
DamageRanges = Sequence[Tuple[int, int]]

#: Frame position in the container -> that frame's damage ranges.
DamageMap = Dict[int, DamageRanges]

#: One parsed macroblock: (decision, mb_row, mb_col, slice's first MB
#: row, residual positions, residual levels) — the sparse pairs of
#: :func:`~repro.codec.syntax.parse_macroblock`.
_ParsedMacroblock = Tuple[MacroblockDecision, int, int, int, List[int],
                         List[int]]


class _DecodedFrames:
    """Decoded display frames, padded into references on first read.

    Only frames a later frame references (or concealment copies from)
    are ever padded; B frames are never references, so a plain decode
    never pads them. ``keys`` holds each frame's memo key, ``None`` for
    a frame that may not be memoized.
    """

    def __init__(self, pad: int) -> None:
        self.pad = pad
        self.frames: Dict[int, np.ndarray] = {}
        self.keys: Dict[int, Optional[bytes]] = {}
        self._padded: Dict[int, np.ndarray] = {}

    def padded(self, display: int) -> np.ndarray:
        reference = self._padded.get(display)
        if reference is None:
            reference = pad_reference(self.frames[display], self.pad)
            self._padded[display] = reference
        return reference


#: Byte budget of each decoder's frame memo. At perfbench seed 21 the
#: hit rate levels off from 1 MB on playback (0.86) and from 2 MB on
#: seek (0.85 at 1 MB, 0.97 at 2 MB); a frame larger than the budget is
#: not memoized.
_FRAME_MEMO_BYTES = 2 << 20

#: Stands in for the key of a reference that is absent.
_NO_REFERENCE = bytes(32)


def _frame_memo() -> ByteMemo:
    """A decoder's memo of read-only decoded frames, keyed by content."""
    return ByteMemo(_FRAME_MEMO_BYTES, lambda frame: frame.nbytes,
                    "decode_frame_memo_evictions_total")


#: Default ceiling on the pixel volume (width x height x frames) a
#: container may *declare* before decode refuses it. Decode time and
#: memory scale with the declared geometry — not with the payload bytes
#: actually present — so a corrupted or hostile header claiming a
#: gigantic resolution would otherwise drive unbounded allocation. The
#: default admits the paper's largest workload (720p x 600 frames is
#: ~5.5e8 pixels) with an order of magnitude to spare; callers decoding
#: legitimately bigger streams raise the limit per instance.
MAX_DECLARED_PIXELS = 1 << 32


class Decoder:
    """H.264-like decoder; robust against corrupted payloads.

    ``conceal_uncorrectable`` arms the error-concealment path: I slices
    touched by ``damage`` entries (see :meth:`decode`) salvage their
    clean prefix and conceal the rest of their band instead of decoding
    known garbage; damaged P/B slices still decode best-effort (see the
    module docstring for the measured rationale). Off by default — the
    default construction decodes bit-identically to the original
    decoder.

    Each instance memoizes decoded frames by content (see the module
    docstring). The memo is safe to share across threads, and it never
    travels: pickles and deep copies carry the configuration only and
    start with an empty memo.
    """

    def __init__(self, conceal_uncorrectable: bool = False,
                 max_declared_pixels: int = MAX_DECLARED_PIXELS) -> None:
        self._model = DEFAULT_CONTEXT_MODEL
        self.conceal_uncorrectable = conceal_uncorrectable
        self.max_declared_pixels = int(max_declared_pixels)
        self._memo = _frame_memo()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = _frame_memo()

    def decode(self, encoded: EncodedVideo,
               damage: Optional[DamageMap] = None, *,
               scope: str = "") -> VideoSequence:
        """Decode to a display-order raw sequence.

        Raises :class:`BitstreamError` for structurally invalid streams
        (the precise headers are inconsistent); payload damage alone
        never raises — it decodes best-effort.

        ``damage`` maps a frame's position in ``encoded.frames`` to
        half-open ``(bit_start, bit_end)`` ranges of its payload known
        to be unreadable (:func:`repro.core.partition.map_stream_damage`
        produces exactly this). It is ignored unless the decoder was
        constructed with ``conceal_uncorrectable=True``.

        ``scope`` partitions the frame memo: a frame memoized under one
        scope is never served to a decode under another (the object
        store passes the owning tenant). The returned frames are
        read-only; copy one before writing to it.
        """
        header = encoded.header
        if len(encoded.frames) != header.num_frames:
            raise BitstreamError(
                f"header promises {header.num_frames} frames, "
                f"container has {len(encoded.frames)}"
            )
        self._validate_structure(encoded)
        if not self.conceal_uncorrectable:
            damage = None
        with obs_trace.span("decode", frames=header.num_frames):
            decoded = self._decode_frames(
                encoded, range(len(encoded.frames)), damage, scope)
            frames = [decoded.frames[i] for i in range(header.num_frames)]
            return VideoSequence(frames, fps=header.fps)

    def _decode_frames(self, encoded: EncodedVideo,
                       positions: Sequence[int],
                       damage: Optional[DamageMap],
                       scope: str) -> _DecodedFrames:
        """Decode the frames at container ``positions``, in order,
        serving from the memo every frame whose inputs it holds.

        Every frame comes out as a read-only view of a read-only array,
        so no caller can write into a memoized frame.
        """
        header = encoded.header
        decoded = _DecodedFrames(header.search_range)
        stream = hashlib.sha256(repr((
            scope, header.width, header.height, header.entropy_coder.name,
            header.deblocking, header.search_range)).encode())
        hits = misses = 0
        try:
            for position in positions:
                frame = encoded.frames[position]
                display = frame.header.display_index
                frame_damage = damage.get(position) if damage else None
                key = (None if frame_damage
                       else self._frame_key(stream, frame, decoded))
                pixels = None if key is None else self._memo.get(key)
                if pixels is None:
                    misses += 1
                    # C order: VideoSequence would otherwise copy the
                    # deblocked (Fortran-order) frame into a writable one.
                    pixels = np.ascontiguousarray(self._decode_frame(
                        frame, encoded, decoded, frame_damage))
                    pixels.flags.writeable = False
                    if key is not None:
                        self._memo.put(key, pixels)
                else:
                    hits += 1
                decoded.frames[display] = pixels.view()
                decoded.keys[display] = key
        finally:
            if hits:
                obs_metrics.counter("decode_frame_memo_hits_total").inc(hits)
            if misses:
                obs_metrics.counter("decode_frame_memo_misses_total").inc(
                    misses)
        return decoded

    @staticmethod
    def _frame_key(stream, frame: EncodedFrame,
                   decoded: _DecodedFrames) -> Optional[bytes]:
        """Memo key of ``frame`` given the frames decoded so far, or
        ``None`` when a reference it would use may not be memoized.

        ``stream`` is a hash already fed the scope and the stream
        fields that shape a frame decode. A reference not decoded in
        this call enters as :data:`_NO_REFERENCE`, as an absent one.
        """
        fh = frame.header
        digest = stream.copy()
        digest.update(repr((
            fh.coded_index, fh.display_index, fh.frame_type.name,
            fh.base_qp, fh.ref_forward, fh.ref_backward,
            tuple(fh.slice_byte_lengths), len(frame.payload))).encode())
        digest.update(frame.payload)
        for ref in (fh.ref_forward, fh.ref_backward):
            if ref is None or ref not in decoded.frames:
                digest.update(_NO_REFERENCE)
                continue
            ref_key = decoded.keys[ref]
            if ref_key is None:
                return None
            digest.update(ref_key)
        return digest.digest()

    # -- random access -----------------------------------------------------

    def decode_frame_at(self, encoded: EncodedVideo, display: int,
                        damage: Optional[DamageMap] = None) -> np.ndarray:
        """Decode display frame ``display`` without decoding the clip.

        Locates the nearest preceding I frame through the container's
        seek index (rebuilt from the precise frame headers when the
        embedded one is absent or damaged), decodes only that frame's
        dependency chain — the GOP's anchors up to the target, plus the
        backward anchor for a B target — and returns the single
        reconstructed frame.

        On a clean stream the result is bitwise identical to
        ``decode(encoded)[display]``: every chain frame sees exactly
        the references the full decode would have given it. ``damage``
        is honoured the same way as in :meth:`decode` (frame positions
        -> unreadable payload bit ranges) for the chain frames actually
        decoded; under concealment the partial decode may pick a
        different (sparser) temporal concealment source than the full
        decode, which is the documented cost of not decoding frames the
        chain does not need.

        A structurally inconsistent stream — reference cycles, refs the
        closure cannot resolve, no opening I frame — falls back to one
        full :meth:`decode` rather than failing where the sequential
        decoder would have succeeded.
        """
        frames = self.decode_range(encoded, display, display + 1,
                                   damage=damage)
        return frames.frames[0]

    def decode_range(self, encoded: EncodedVideo, start: int, stop: int,
                     damage: Optional[DamageMap] = None, *,
                     scope: str = "",
                     positions: Optional[Sequence[int]] = None
                     ) -> VideoSequence:
        """Decode display frames ``[start, stop)`` via their dependency
        closure (see :meth:`decode_frame_at`).

        ``positions`` hands in that closure (container positions, coded
        order) when the caller already holds it, as the object store's
        per-GOP fetch plan does; the decoder then walks no references,
        consults no seek index and validates only what it decodes: the
        video header, and each position's range, uniqueness, slice
        count and display index, which must cover ``[start, stop)``.
        Only those frames' headers and payloads are read, so the work
        follows the closure, not the container. A closure that fails
        those checks, or that the frame decoder rejects, falls back to
        one full :meth:`decode` (which validates every frame), as a
        closure the decoder derives itself does.
        """
        header = encoded.header
        if not 0 <= start < stop <= header.num_frames:
            raise BitstreamError(
                f"display range [{start}, {stop}) outside the "
                f"container's 0..{header.num_frames - 1}")
        if len(encoded.frames) != header.num_frames:
            raise BitstreamError(
                f"header promises {header.num_frames} frames, "
                f"container has {len(encoded.frames)}"
            )
        if positions is None:
            self._validate_structure(encoded)
        else:
            self._validate_header(encoded)
        if not self.conceal_uncorrectable:
            damage = None
        targets = range(start, stop)
        with obs_trace.span("seek.decode", start=start, stop=stop):
            try:
                if positions is None:
                    positions = dependency_closure(encoded, targets)
                else:
                    self._validate_frames(encoded, positions, targets)
                obs_metrics.counter("decode_seek_requests_total").inc()
                obs_metrics.counter(
                    "decode_seek_frames_decoded_total").inc(len(positions))
                obs_metrics.counter(
                    "decode_seek_frames_skipped_total").inc(
                    len(encoded.frames) - len(positions))
                decoded = self._decode_frames(encoded, positions, damage,
                                              scope)
            except BitstreamError:
                # Index/reference structure unusable for a partial
                # decode, or a chain the frame decoder rejects (hostile
                # refs): the sequential decoder is the authority.
                obs_metrics.counter("decode_seek_fallback_total").inc()
                full = self.decode(encoded, damage, scope=scope)
                return VideoSequence([full.frames[d] for d in targets],
                                     fps=header.fps)
            return VideoSequence([decoded.frames[d] for d in targets],
                                 fps=header.fps)

    def _validate_structure(self, encoded: EncodedVideo) -> None:
        """Reject streams whose *precise* metadata is inconsistent.

        The paper stores headers precisely, so a well-formed store never
        trips these; they exist so that a damaged or hostile container
        fails with the codec's own error type instead of surfacing
        internal ``KeyError``/``ZeroDivisionError`` artifacts (the
        decoder's no-crash contract, exercised by :mod:`repro.fuzz`).
        """
        self._validate_header(encoded)
        self._validate_frames(encoded, range(len(encoded.frames)),
                              range(encoded.header.num_frames))

    @staticmethod
    def _validate_frames(encoded: EncodedVideo, positions: Sequence[int],
                         targets: Sequence[int]) -> None:
        """Reject the frames at ``positions`` unless each is in the
        container once, its slices tile the macroblock rows, and its
        display index is in range and shown once; and unless they show
        every display in ``targets``. Over every frame and display this
        is the whole container's check; over a closure, only what the
        partial decode reads."""
        header = encoded.header
        mb_rows = header.height // MACROBLOCK_SIZE
        count = len(encoded.frames)
        seen = set()
        displays = set()
        for position in positions:
            if not 0 <= position < count or position in seen:
                raise BitstreamError(
                    f"frame position {position} is outside the "
                    f"container's 0..{count - 1} or repeated")
            seen.add(position)
            fh = encoded.frames[position].header
            num_slices = len(fh.slice_byte_lengths)
            if not 1 <= num_slices <= mb_rows:
                raise BitstreamError(
                    f"frame {fh.coded_index}: {num_slices} slices cannot "
                    f"tile {mb_rows} macroblock rows")
            if (not 0 <= fh.display_index < header.num_frames
                    or fh.display_index in displays):
                raise BitstreamError(
                    f"frame display indices do not cover "
                    f"0..{header.num_frames - 1} once each: frame "
                    f"{fh.coded_index} shows {fh.display_index}")
            displays.add(fh.display_index)
        missing = [display for display in targets if display not in displays]
        if missing:
            raise BitstreamError(
                f"frame display indices do not cover display(s) {missing}")

    def _validate_header(self, encoded: EncodedVideo) -> None:
        """The video-header half of :meth:`_validate_structure`."""
        header = encoded.header
        if header.width <= 0 or header.height <= 0:
            raise BitstreamError(
                f"empty frame geometry {header.width}x{header.height}"
            )
        if header.width % MACROBLOCK_SIZE or header.height % MACROBLOCK_SIZE:
            raise BitstreamError(
                f"frame geometry {header.width}x{header.height} is not a "
                f"multiple of the macroblock size {MACROBLOCK_SIZE}"
            )
        if not np.isfinite(header.fps) or header.fps <= 0:
            raise BitstreamError(f"invalid frame rate {header.fps}")
        declared = (header.width * header.height
                    * max(1, header.num_frames))
        if declared > self.max_declared_pixels:
            # Resource guard (formerly only the fuzz harness's): decode
            # work is bounded by what the header *claims*, so absurd
            # declared geometry must be rejected before any per-frame
            # allocation happens, for every caller.
            raise BitstreamError(
                f"declared pixel volume {header.width}x{header.height}"
                f"x{header.num_frames} = {declared} exceeds the decoder "
                f"limit of {self.max_declared_pixels} (raise "
                f"max_declared_pixels to decode larger streams)")

    def _new_entropy_decoder(self, payload: bytes,
                             coder: EntropyCoder):
        if coder == EntropyCoder.CABAC:
            return CabacDecoder(payload, self._model.total_contexts)
        return CavlcDecoder(payload, self._model.total_contexts)

    def _references(self, frame: EncodedFrame,
                    decoded: _DecodedFrames) -> ReferenceSet:
        references: ReferenceSet = {}
        fh = frame.header
        if fh.ref_forward is not None and fh.ref_forward in decoded.frames:
            references[PredictionDirection.FORWARD] = decoded.padded(
                fh.ref_forward)
        if fh.ref_backward is not None and fh.ref_backward in decoded.frames:
            references[PredictionDirection.BACKWARD] = decoded.padded(
                fh.ref_backward)
        return references

    def _decode_frame(self, frame: EncodedFrame, encoded: EncodedVideo,
                      decoded: _DecodedFrames,
                      damage: Optional[DamageRanges] = None) -> np.ndarray:
        """One frame, in-loop filtered: the pixels it displays and that
        later frames reference."""
        fh = frame.header
        with obs_trace.span("decode.frame", coded_index=fh.coded_index,
                            frame_type=fh.frame_type.name):
            stages = obs_trace.stage_clock()
            recon = self._decode_frame_body(frame, encoded, decoded, stages,
                                            damage)
            if encoded.header.deblocking:
                with stages.time("decode.deblock"):
                    recon = deblock_frame(recon, fh.base_qp)
            stages.emit()
            return recon

    @staticmethod
    def _first_damaged_bit(damage: Optional[DamageRanges], offset: int,
                           length: int) -> Optional[int]:
        """Slice-local position of the earliest damaged bit, or None.

        Payload bytes ``[offset, offset + length)`` hold the slice; the
        returned position is relative to the slice's first bit, so the
        salvage loop can compare it against the entropy decoder's
        consumed-bit count directly.
        """
        bit_lo, bit_hi = 8 * offset, 8 * (offset + length)
        hits = [max(start, bit_lo) - bit_lo for start, end in damage or ()
                if start < bit_hi and end > bit_lo]
        return min(hits) if hits else None

    def _decode_frame_body(self, frame: EncodedFrame, encoded: EncodedVideo,
                           decoded: _DecodedFrames, stages,
                           damage: Optional[DamageRanges] = None
                           ) -> np.ndarray:
        header = encoded.header
        fh = frame.header
        mb_rows = header.height // MACROBLOCK_SIZE
        mb_cols = header.width // MACROBLOCK_SIZE
        if fh.frame_type != FrameType.I and not decoded.frames:
            raise BitstreamError(
                f"frame {fh.coded_index} needs references but none decoded"
            )
        # Reference padding is the other half of turning a decoded frame
        # into a reference, so it is timed with the in-loop filter.
        with stages.time("decode.deblock"):
            references = self._references(frame, decoded)
        if fh.frame_type != FrameType.I and (
                PredictionDirection.FORWARD not in references):
            raise BitstreamError(
                f"frame {fh.coded_index}: forward reference "
                f"{fh.ref_forward} unavailable"
            )
        # Pass 1: entropy-decode every macroblock decision. This pass is
        # inherently sequential (adaptive contexts and neighbor state),
        # but it needs no pixels.
        mbs: List[_ParsedMacroblock] = []
        concealed_bands: List[Tuple[int, int, int, int]] = []
        offset = 0
        with stages.time("decode.entropy"):
            state = FrameMbState(mb_rows, mb_cols)
            bands = slice_bands(mb_rows, len(fh.slice_byte_lengths))
            for (start_row, end_row), length in zip(bands,
                                                    fh.slice_byte_lengths):
                payload = frame.payload[offset:offset + length]
                first_bad = self._first_damaged_bit(damage, offset, length)
                offset += length
                if first_bad is not None and fh.frame_type == FrameType.I:
                    # Storage reported this I slice partially unreadable:
                    # salvage the macroblocks decoded entirely from bits
                    # before the damage, then conceal from the first
                    # suspect macroblock to the end of the band instead
                    # of entropy-decoding known garbage. Unfinalized
                    # macroblocks are already treated as unavailable by
                    # neighboring slices. Damaged P/B slices fall through
                    # to the ordinary best-effort decode below.
                    stop = self._salvage_slice(
                        payload, header, state, fh, start_row, end_row,
                        mb_cols, first_bad, mbs)
                    if stop is not None:
                        concealed_bands.append((start_row, end_row) + stop)
                    continue
                entropy = self._new_entropy_decoder(payload,
                                                    header.entropy_coder)
                state.start_slice(fh.base_qp)
                for mb_row in range(start_row, end_row):
                    for mb_col in range(mb_cols):
                        decision, positions, levels = parse_macroblock(
                            entropy, self._model, state, fh.frame_type,
                            mb_row, mb_col, start_row)
                        finalize_macroblock(state, decision, mb_row, mb_col,
                                            len(levels))
                        mbs.append((decision, mb_row, mb_col, start_row,
                                    positions, levels))
        # Pass 2: one batched inverse transform for every coded residual
        # in the frame, then a sequential prediction sweep (intra
        # prediction reads reconstructed neighbor pixels).
        with stages.time("decode.reconstruct"):
            recon = np.zeros((header.height, header.width), dtype=np.uint8)
            residuals = self._frame_residuals(mbs)
            pad = 0
            if references:
                reference = next(iter(references.values()))
                pad = (reference.shape[0] - recon.shape[0]) // 2
            for index, (decision, mb_row, mb_col, min_mb_row, _, _) in \
                    enumerate(mbs):
                prediction = build_prediction(decision, recon, references,
                                              pad, mb_row, mb_col,
                                              min_mb_row)
                top = mb_row * MACROBLOCK_SIZE
                left = mb_col * MACROBLOCK_SIZE
                recon[top:top + MACROBLOCK_SIZE,
                      left:left + MACROBLOCK_SIZE] = reconstruct_macroblock(
                          decision, prediction, residuals.get(index))
            if concealed_bands:
                earlier = [d for d in decoded.frames
                           if d < fh.display_index]
                source = decoded.padded(max(earlier)) if earlier else None
                self._conceal_bands(recon, concealed_bands, mb_cols, source)
        return recon

    def _salvage_slice(self, payload: bytes, header, state: FrameMbState,
                       fh, start_row: int, end_row: int, mb_cols: int,
                       first_bad: int, mbs: List[_ParsedMacroblock],
                       ) -> Optional[Tuple[int, int]]:
        """Decode a damaged slice's clean prefix; report where it ends.

        Macroblocks are kept only while the entropy decoder's consumed-
        bit count stays at or before ``first_bad`` — those provably never
        saw a damaged bit, so they decode bit-identically to the clean
        stream. The first macroblock whose decode crosses the damage is
        discarded with its residual pairs (``parse_macroblock`` never
        mutates ``state``; only ``finalize_macroblock`` does), and its
        raster position is returned as the concealment start. Returns
        ``None`` when every macroblock decoded clean — the damage sits
        entirely in the slice's padding bits and nothing needs
        concealing.
        """
        if first_bad <= 0:
            return start_row, 0
        entropy = self._new_entropy_decoder(payload, header.entropy_coder)
        state.start_slice(fh.base_qp)
        for mb_row in range(start_row, end_row):
            for mb_col in range(mb_cols):
                try:
                    decision, positions, levels = parse_macroblock(
                        entropy, self._model, state, fh.frame_type,
                        mb_row, mb_col, start_row)
                except BitstreamError:
                    return mb_row, mb_col
                if entropy.bits_consumed > first_bad:
                    return mb_row, mb_col
                finalize_macroblock(state, decision, mb_row, mb_col,
                                    len(levels))
                mbs.append((decision, mb_row, mb_col, start_row,
                            positions, levels))
        return None

    @staticmethod
    def _conceal_bands(recon: np.ndarray,
                       bands: List[Tuple[int, int, int, int]],
                       mb_cols: int,
                       source: Optional[np.ndarray] = None) -> None:
        """Fill the unreadable suffix of each damaged slice band.

        Each entry is ``(band_start_row, band_end_row, stop_row,
        stop_col)``: macroblocks from raster position ``(stop_row,
        stop_col)`` through the band's end were not salvaged and get
        concealed; macroblocks before it decoded clean and are kept.

        Concealed regions copy the co-located pixels from ``source`` —
        the nearest previously decoded display frame, padded like a
        reference (temporal concealment: a mid-stream I frame is
        content-continuous with its predecessor, so the co-located
        patch is the best zero-information guess). Only with no
        temporal source at all (the very first frame) do regions
        interpolate vertically between the reconstructed rows bordering
        the band (spatial neighbor concealment), degrading to DC
        extension of whichever border row exists and to mid-gray 128
        when neither does. Bands are filled top-down, so an
        already-filled band above counts as a neighbor; a still-
        unfilled concealed band below does not.
        """
        forward = source
        ordered = sorted(bands)
        concealed_rows = {row for _, end, stop, _ in ordered
                          for row in range(stop, end)}
        width = recon.shape[1]
        concealed_mbs = 0
        for _, end_row, stop_row, stop_col in ordered:
            bottom = end_row * MACROBLOCK_SIZE
            concealed_mbs += (end_row - stop_row) * mb_cols - stop_col
            # The concealed region: a partial first macroblock row from
            # stop_col onward, then full rows to the band's end.
            rects = []
            top = stop_row * MACROBLOCK_SIZE
            if stop_col:
                rects.append((top, top + MACROBLOCK_SIZE,
                              stop_col * MACROBLOCK_SIZE))
                top += MACROBLOCK_SIZE
            if top < bottom:
                rects.append((top, bottom, 0))
            if forward is not None:
                pad = (forward.shape[0] - recon.shape[0]) // 2
                for r_top, r_bottom, left in rects:
                    recon[r_top:r_bottom, left:] = forward[
                        pad + r_top:pad + r_bottom, pad + left:pad + width]
                continue
            top = stop_row * MACROBLOCK_SIZE
            above = recon[top - 1].astype(np.float64) if top > 0 else None
            below = None
            if bottom < recon.shape[0] and end_row not in concealed_rows:
                below = recon[bottom].astype(np.float64)
            height = bottom - top
            if above is not None and below is not None:
                weights = ((np.arange(height) + 1.0)
                           / (height + 1.0))[:, None]
                fill = (1.0 - weights) * above[None, :] \
                    + weights * below[None, :]
            elif above is not None:
                fill = np.broadcast_to(above[None, :], (height, width))
            elif below is not None:
                fill = np.broadcast_to(below[None, :], (height, width))
            else:
                fill = np.full((height, width), 128.0)
            fill = np.clip(np.rint(fill), 0, 255).astype(np.uint8)
            for r_top, r_bottom, left in rects:
                recon[r_top:r_bottom, left:] = fill[
                    r_top - top:r_bottom - top, left:]
        obs_metrics.counter("decode_concealed_slices_total").inc(len(bands))
        obs_metrics.counter("decode_concealed_mbs_total").inc(concealed_mbs)

    @staticmethod
    def _frame_residuals(mbs: List[_ParsedMacroblock]
                         ) -> Dict[int, np.ndarray]:
        """Reconstruct every nonzero residual of a frame in one batch.

        Returns macroblock index (position in ``mbs``) -> 16x16 residual
        for macroblocks with at least one nonzero coefficient; the rest
        are absent (an all-zero residual would leave the prediction
        unchanged). One scatter and one inverse zigzag build the whole
        frame's coefficient stack.
        """
        indices: List[int] = []
        qps: List[int] = []
        counts: List[int] = []
        positions: List[int] = []
        levels: List[int] = []
        for index, (decision, _, _, _, mb_positions, mb_levels) in \
                enumerate(mbs):
            if mb_levels:
                indices.append(index)
                qps.append(decision.qp)
                counts.append(len(mb_levels))
                positions.extend(mb_positions)
                levels.extend(mb_levels)
        if not indices:
            return {}
        count = len(indices)
        offsets = np.repeat(np.arange(0, 256 * count, 256), counts)
        coefficients = scatter_coefficients(offsets + positions, levels,
                                            count)
        residuals = reconstruct_residuals_many(coefficients, qps)
        return dict(zip(indices, residuals))


def dependency_closure(encoded: EncodedVideo,
                       targets: Sequence[int]) -> List[int]:
    """Container positions (coded order) a display set depends on.

    Walks ``ref_forward``/``ref_backward`` display references from
    the targets until they terminate in I frames, exactly the
    closure the sequential decode would have made available.
    Raises :class:`BitstreamError` on unresolvable references; callers
    treat that as "use the full decode". The storage layer uses the
    same closure to decide which byte ranges to fetch, so fetch plans
    and decode workloads can never disagree.
    """
    index = encoded.seek_index_or_build()
    by_display = index.display_to_coded
    needed: set = set()
    worklist = list(targets)
    while worklist:
        display = worklist.pop()
        if display in needed:
            continue
        if not 0 <= display < len(by_display):
            raise BitstreamError(
                f"reference display {display} outside the container")
        needed.add(display)
        fh = encoded.frames[by_display[display]].header
        if fh.display_index != display:
            raise BitstreamError(
                f"seek mapping for display {display} points at "
                f"display {fh.display_index}")
        for ref in (fh.ref_forward, fh.ref_backward):
            if ref is not None:
                worklist.append(ref)
        if len(needed) > len(encoded.frames):
            raise BitstreamError("reference closure does not close")
    # Every reference must be decoded before its dependent; coded
    # order guarantees that for encoder-produced streams, and the
    # per-frame decode re-checks it for hostile ones.
    return sorted(by_display[d] for d in needed)
