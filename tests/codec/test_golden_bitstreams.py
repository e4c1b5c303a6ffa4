"""Golden bitstream digests.

Encodes fixed synthetic clips at pinned settings and asserts SHA-256
digests of the serialized bitstreams and of the decoded pixels. The
digests were produced by the scalar (pre-vectorization) codec; the
vectorized kernels must keep every byte identical, so any future codec
change that alters output — intentionally or not — fails here
explicitly instead of silently shifting every experiment in the repo.

The damaged-stream table pins how the decoder *misreads* corrupted
payloads: seeded bit flips in every frame, decoded whole and by display
range, with and without a concealment damage map. A faster entropy or
reconstruction path must desynchronize, clamp and conceal exactly as the
one it replaces, so these digests move only with an intentional change
to error behaviour.

To refresh after an *intentional* format change, run this file with
``REPRO_PRINT_DIGESTS=1`` and copy the printed table.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os

import numpy as np
import pytest

from repro.codec import EncoderConfig, EntropyCoder
from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder, encode_batch_with_recon
from repro.codec.reference import encode_scalar
from repro.video import SceneConfig, synthesize_scene

#: name -> (scene, encoder config, expected stream digest, expected
#: decoded-pixel digest). Geometry stays small so the whole table
#: encodes in a few seconds.
GOLDEN = {
    "cabac_ipp": (
        SceneConfig(width=64, height=48, num_frames=6, seed=11,
                    num_objects=2),
        EncoderConfig(crf=24, gop_size=6),
        "83cdf2349d13faee48557157566280896846f5fcb6b492fcb7deefe087793eef",
        "73d1c8ec463728cce77e3d915fb5ecc025ff5a0c29c38a76537dc528c27b28d1",
    ),
    "cabac_bframes_slices": (
        SceneConfig(width=96, height=64, num_frames=9, seed=23,
                    num_objects=3),
        EncoderConfig(crf=20, gop_size=9, bframes=2, slices=2),
        "6ad6dc040e75f4ceca028debe98980562f69ebbcda60e8bebd27c32d034a7b7d",
        "8c5962b90e78aa75c67d70aacb456f8bc258829900c2fe71763c2cec5824294c",
    ),
    "cavlc_adaptive_qp": (
        SceneConfig(width=64, height=64, num_frames=6, seed=7,
                    num_objects=2),
        EncoderConfig(crf=28, gop_size=3,
                      entropy_coder=EntropyCoder.CAVLC),
        "23552d69e65875d6c32020bd611f7587c501481cd0b17432b891d59309efdd16",
        "8fa0569a55f191835ba662343e5a6090e5a14eb9ea4ef76608d6437dfde10876",
    ),
    "cabac_no_deblock_fine": (
        SceneConfig(width=64, height=48, num_frames=5, seed=42,
                    num_objects=1),
        EncoderConfig(crf=16, gop_size=5, deblocking=False,
                      adaptive_qp=False, search_range=4),
        "dd299d20f40e741f8717bd31ac6f5de57ce482765be3df1577a78b0d3b19b864",
        "92a251307799e0c5db9656e0ad6f4390006a7d923ec21f0b4d06ef9e5e403736",
    ),
}


@functools.lru_cache(maxsize=None)
def _encoded(name: str):
    scene, config, _, _ = GOLDEN[name]
    return Encoder(config).encode(synthesize_scene(scene))


def _pixel_digest(frames) -> str:
    return hashlib.sha256(np.stack(list(frames)).tobytes()).hexdigest()


def _digests(name: str) -> tuple:
    encoded = _encoded(name)
    stream = encoded.serialize()
    return (hashlib.sha256(stream).hexdigest(),
            _pixel_digest(Decoder().decode(encoded)))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    _, _, want_stream, want_pixels = GOLDEN[name]
    got_stream, got_pixels = _digests(name)
    if os.environ.get("REPRO_PRINT_DIGESTS"):
        print(f'\n    "{name}": stream "{got_stream}" pixels "{got_pixels}"')
    assert got_stream == want_stream, (
        f"{name}: bitstream changed (got {got_stream})"
    )
    assert got_pixels == want_pixels, (
        f"{name}: decoded pixels changed (got {got_pixels})"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_batched_encode_matches_golden_digest(name):
    # The batched kernels must land on the same pinned digests: the
    # golden clip rides in a two-clip stack with a same-geometry
    # partner (same scene, another seed), whose stream must equal the
    # scalar reference encoder's.
    scene, config, want_stream, want_pixels = GOLDEN[name]
    partner = synthesize_scene(dataclasses.replace(scene,
                                                   seed=scene.seed + 1))
    encodeds, recons = encode_batch_with_recon(
        [synthesize_scene(scene), partner], config)
    assert hashlib.sha256(encodeds[0].serialize()).hexdigest() == \
        want_stream, f"{name}: batched bitstream changed"
    assert _pixel_digest(recons[0]) == want_pixels, (
        f"{name}: batched reconstruction changed")
    assert encodeds[1].serialize() == \
        encode_scalar(partner, config).serialize()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reference_encoder_matches_golden_digest(name):
    # The oracle of the equivalence tests lands on the pinned streams
    # too, so a change that moved both encoders alike still fails.
    scene, config, want_stream, _ = GOLDEN[name]
    stream = encode_scalar(synthesize_scene(scene), config).serialize()
    assert hashlib.sha256(stream).hexdigest() == want_stream, (
        f"{name}: reference encoder's bitstream changed")


#: Bit flips per frame payload in the damaged-stream table.
FLIPS_PER_FRAME = 3

#: name -> digests of the damaged stream's decoded pixels: whole decode
#: and display-range decode, plain and with the flipped bits reported
#: to a concealing decoder as a damage map.
GOLDEN_DAMAGED = {
    "cabac_bframes_slices": {
        "decode":
            "c1f0cb5c0a7aad0c77466d0d61bcefbdbdb08e347a95cde223069c12cf8c3af9",
        "decode_range":
            "47d07b00c4478b18588583af7b02b655bc6eb4cc6407d95367f69f022f896534",
        "conceal_decode":
            "3637f3e2fec9f0c287f1d001ba7429fd5e17923c09744daeb746b4b39646b97f",
        "conceal_decode_range":
            "4f48b2f510133afbbf86a475ca3c4f5cc636dbfe41026e0d91a515d6e1532b08",
    },
    "cabac_ipp": {
        "decode":
            "b81dc22ef392b60a1becb99ab6fbed6bd38804d89c91df56a643f6f2e5731a72",
        "decode_range":
            "ed23c5235aa10bc6be295b50a6573749ba7952135d20d2760b0da21ee6fd43aa",
        "conceal_decode":
            "47882441cd41e996d98077515068311b05528d99549f241066c6287c8463cf8a",
        "conceal_decode_range":
            "f6e566c2a711f996a613e0bfda352adbf10f0327e494f41f11870a2b520942aa",
    },
    "cabac_no_deblock_fine": {
        "decode":
            "55aa238beef1206f77a084b1ba36a9753a2e4b1c2563e908831b8f07c6463511",
        "decode_range":
            "98cbc88a6d5b19430d3fc94d564e22ad3933234f97540c101fec7fe68b6d4cb2",
        "conceal_decode":
            "a3e9f6cf47f19163e845fde07c95ec49c2abae7b0b77774c11a6bf259cf52b79",
        "conceal_decode_range":
            "25eb7ac09d140725725919bdba6bf79df9fd336f3b61c89ab03590460eb9dca0",
    },
    "cavlc_adaptive_qp": {
        "decode":
            "8b45ec7f3aba259120ae1a229a8b8cc504b8743122d64d5913bed538d5063d15",
        "decode_range":
            "b79df0d356714c827a9b9e7e99b4f4e4c62d8dd97a2ce63c7bf0c546753d5bb2",
        "conceal_decode":
            "b6ebb46ba6b80ffa0739eb5cac7921ec4bd4a8efd877bbefdda97929e87f3945",
        "conceal_decode_range":
            "310c83f7719f910f3e5ac7d15d97e1880f4103ed64b27809c2693d77e1b2c9b3",
    },
}


def _damaged(name: str):
    """The golden stream with seeded payload bit flips, plus the damage
    map that reports exactly those bits as unreadable."""
    encoded = _encoded(name)
    rng = np.random.default_rng(2017)
    payloads = []
    damage = {}
    for position, frame in enumerate(encoded.frames):
        bits = np.unpackbits(np.frombuffer(frame.payload, dtype=np.uint8))
        flips = np.unique(rng.integers(0, bits.size, size=FLIPS_PER_FRAME))
        bits[flips] ^= 1
        payloads.append(np.packbits(bits).tobytes())
        damage[position] = [(int(bit), int(bit) + 1) for bit in flips]
    return encoded.with_payloads(payloads), damage


def _damaged_digests(name: str) -> dict:
    damaged, damage = _damaged(name)
    frames = damaged.header.num_frames
    start, stop = frames // 2, frames
    plain = Decoder()
    concealing = Decoder(conceal_uncorrectable=True)
    return {
        "decode": _pixel_digest(plain.decode(damaged)),
        "decode_range": _pixel_digest(
            plain.decode_range(damaged, start, stop)),
        "conceal_decode": _pixel_digest(
            concealing.decode(damaged, damage)),
        "conceal_decode_range": _pixel_digest(
            concealing.decode_range(damaged, start, stop, damage)),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_damaged_stream_digest(name):
    got = _damaged_digests(name)
    if os.environ.get("REPRO_PRINT_DIGESTS"):
        print(f'\n    "{name}": {got!r},')
    assert got == GOLDEN_DAMAGED[name], (
        f"{name}: decoded pixels of the damaged stream changed")
