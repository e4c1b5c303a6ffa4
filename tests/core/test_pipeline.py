"""Integration tests for the end-to-end approximate video store."""

import hashlib

import numpy as np
import pytest

from repro.codec import EncoderConfig
from repro.core import ApproximateVideoStore, UNIFORM_ASSIGNMENT
from repro.crypto import StreamEncryptor
from repro.errors import AnalysisError
from repro.metrics import video_psnr
from repro.storage import MLCCellModel, ScrubPolicy
from repro.video import SceneConfig, frames_equal, synthesize_scene

KEY = bytes(range(16))
MASTER_IV = bytes(range(16, 32))


@pytest.fixture(scope="module")
def store():
    return ApproximateVideoStore(config=EncoderConfig(crf=24, gop_size=8))


@pytest.fixture(scope="module")
def stored(store, small_video):
    return store.put(small_video)


class TestPut:
    def test_stored_artifacts(self, stored, small_video):
        assert stored.total_pixels == small_video.total_pixels
        assert not stored.encrypted
        assert stored.protected.streams.keys() == \
            stored.device_streams.keys()

    def test_density_report(self, stored):
        report = stored.density()
        assert 0 < report.cells_per_pixel < 1.0
        assert report.ecc_overhead < 0.3125  # cheaper than uniform BCH-16


class TestRead:
    def test_error_free_read_matches_reconstruct(self, store, stored):
        clean = store.reconstruct(stored)
        read = store.read(stored, inject_errors=False)
        assert frames_equal(read, clean)

    def test_read_with_errors_bounded_loss(self, store, stored,
                                           small_video):
        """At the paper's operating point storage errors are so rare on
        a small video that quality is essentially unaffected."""
        clean = store.reconstruct(stored)
        rng = np.random.default_rng(5)
        worst = min(video_psnr(clean, store.read(stored, rng=rng))
                    for _ in range(3))
        assert worst > 40.0

    def test_raw_mlc_without_ecc_is_disastrous(self, small_video):
        """Sanity check of the premise: storing everything raw at 1e-3
        visibly damages the video, which is why ECC exists at all."""
        from repro.core.assignment import ClassAssignment
        from repro.storage.ecc import NONE_SCHEME
        raw_everything = ClassAssignment(boundaries=(0,),
                                         schemes=(NONE_SCHEME,))
        store = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=8),
            assignment=raw_everything)
        stored = store.put(small_video)
        clean = store.reconstruct(stored)
        rng = np.random.default_rng(6)
        damaged = store.read(stored, rng=rng)
        assert video_psnr(clean, damaged) < 40.0


class TestEncryptedStore:
    def test_roundtrip_with_encryption(self, small_video):
        store = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=8),
            encryptor=StreamEncryptor(key=KEY, master_iv=MASTER_IV))
        stored = store.put(small_video)
        assert stored.encrypted
        clean = store.reconstruct(stored)
        read = store.read(stored, inject_errors=False)
        assert frames_equal(read, clean)

    def test_ciphertext_unreadable(self, small_video):
        plain_store = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=8))
        cipher_store = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=8),
            encryptor=StreamEncryptor(key=KEY, master_iv=MASTER_IV))
        plain = plain_store.put(small_video)
        cipher = cipher_store.put(small_video)
        for name in plain.device_streams:
            if len(plain.device_streams[name]) >= 8:
                assert plain.device_streams[name] != \
                    cipher.device_streams[name]

    def test_requirement3_same_quality_encrypted_or_not(self,
                                                        small_video):
        """Paper requirement #3, end to end: flipping stored bits hurts
        an encrypted video exactly as much as an unencrypted one. Same
        rng seed -> same device flips -> identical decoded output."""
        plain_store = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=8),
            cell_model=MLCCellModel(write_sigma=0.05))  # noisy substrate
        cipher_store = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=8),
            cell_model=MLCCellModel(write_sigma=0.05),
            encryptor=StreamEncryptor(key=KEY, master_iv=MASTER_IV))
        plain = plain_store.put(small_video)
        cipher = cipher_store.put(small_video)
        out_plain = plain_store.read(plain,
                                     rng=np.random.default_rng(7))
        out_cipher = cipher_store.read(cipher,
                                       rng=np.random.default_rng(7))
        assert frames_equal(out_plain, out_cipher)

    def test_reading_encrypted_without_key_fails(self, small_video):
        keyed = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=8),
            encryptor=StreamEncryptor(key=KEY, master_iv=MASTER_IV))
        stored = keyed.put(small_video)
        keyless = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=8))
        with pytest.raises(AnalysisError):
            keyless.read(stored, inject_errors=False)


class TestStreamingAnalysis:
    def test_streaming_put_identical(self, small_video):
        """GOP-by-GOP analysis yields the same streams and density."""
        batch = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=4))
        streaming = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=4),
            streaming_analysis=True)
        a = batch.put(small_video)
        b = streaming.put(small_video)
        assert a.protected.stream_bits == b.protected.stream_bits
        assert a.protected.streams == b.protected.streams
        assert a.density().cells == b.density().cells


class TestExactEcc:
    def test_exact_mode_end_to_end(self, small_video):
        """Real BCH encode/decode over real Monte Carlo cells: at the
        nominal substrate the protected video survives intact or nearly
        so (block failures at 1e-6 are essentially impossible here)."""
        store = ApproximateVideoStore(
            config=EncoderConfig(crf=28, gop_size=8), exact_ecc=True)
        stored = store.put(small_video)
        clean = store.reconstruct(stored)
        read = store.read(stored, rng=np.random.default_rng(12))
        # The only exposed bits are the tiny "None" stream (raw cells).
        assert video_psnr(clean, read) > 35.0


class TestUniformBaseline:
    def test_uniform_store_denser_than_slc_but_sparser_than_variable(
            self, small_video, stored):
        uniform_store = ApproximateVideoStore(
            config=EncoderConfig(crf=24, gop_size=8),
            assignment=UNIFORM_ASSIGNMENT)
        uniform = uniform_store.put(small_video)
        assert uniform.density().cells > stored.density().cells


#: The ``cabac_bframes_slices`` golden clip
#: (tests/codec/test_golden_bitstreams.py): B frames and two slices.
_GOLDEN_SCENE = SceneConfig(width=96, height=64, num_frames=9, seed=23,
                            num_objects=3)
_GOLDEN_CONFIG = EncoderConfig(crf=20, gop_size=9, bframes=2, slices=2)

#: read -> (rng seed, encrypted, ``read`` arguments, SHA-256 of the
#: decoded pixels). Frozen from the read path as it stood before its
#: merge became the window walk; only an intentional change to what a
#: read returns may move them.
_READ_DIGESTS = {
    "nominal": (
        1, False, {},
        "3841000432a36b11cf3ec69b1085ca9296459d3ee73c569f7e3448daad992680"),
    "aged_concealed": (
        2, False, {"t_days": 3650.0, "conceal": True},
        "a9f8c006dbbbc2e78480c0e43dfdfe714d76a78e93ad9375ea28e25f9292e742"),
    "ctr_aged": (
        3, True, {"t_days": 3650.0},
        "daa0ee73016a01d9fbfb33bb46ead85912a13f0eb338576e7b968ee26fe3abc0"),
    "retries_scrubbed": (
        0, False, {"t_days": 1e6, "read_retries": 2,
                   "scrub": ScrubPolicy(interval_days=9e5)},
        "336439172566143f15cee773482fa3decd5102ad75aa14ff9a642e6d93ab3575"),
    "ctr_damaged_concealed": (
        5, True, {"t_days": 1e5, "conceal": True},
        "738a80fa2ca8fb1a0135046555be05ea75c2a08f3d5ca5eb793590c9551ba563"),
}


class TestReadDigests:
    """``read`` returns the same pixels as the frozen table: device
    flips, decryption, merge, damage projection and concealment all
    stay bit-identical."""

    @pytest.fixture(scope="class")
    def clip(self):
        return synthesize_scene(_GOLDEN_SCENE)

    @pytest.mark.parametrize("name", sorted(_READ_DIGESTS))
    def test_read_pixels_are_frozen(self, clip, name):
        seed, encrypted, kwargs, want = _READ_DIGESTS[name]
        store = ApproximateVideoStore(
            config=_GOLDEN_CONFIG,
            encryptor=(StreamEncryptor(key=KEY, master_iv=MASTER_IV)
                       if encrypted else None))
        video = store.read(store.put(clip),
                           rng=np.random.default_rng(seed), **kwargs)
        digest = hashlib.sha256()
        for frame in video.frames:
            digest.update(np.ascontiguousarray(frame).tobytes())
        assert digest.hexdigest() == want
        reports = store.last_storage_reports.values()
        # Each read reaches the path it pins: flips on every read, the
        # retry ladder's re-reads, and damage for the concealer.
        assert sum(report.flipped_bits for report in reports) > 0
        if "read_retries" in kwargs:
            assert sum(report.retry_successes for report in reports) > 0
        if name == "ctr_damaged_concealed":
            assert any(report.uncorrectable for report in reports)
