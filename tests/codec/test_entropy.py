"""Tests for the entropy coding backends (CABAC and CAVLC).

The central contract: any sequence of (flag | uint | sint | bypass)
symbols encoded with either backend decodes to the identical sequence —
including the context variants, which must match between the two sides.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import EncoderConfig
from repro.codec.encoder import encode_batch_with_recon
from repro.codec.reference import encode_scalar
from repro.codec.cabac import CabacDecoder, CabacEncoder
from repro.codec.cavlc import CavlcDecoder, CavlcEncoder
from repro.codec.contexts import DEFAULT_CONTEXT_MODEL, build_context_model
from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.codec.entropy import ContextGroup
from repro.errors import BitstreamError
from repro.video import SceneConfig, synthesize_scene

MODEL = DEFAULT_CONTEXT_MODEL

BACKENDS = [
    (CabacEncoder, CabacDecoder),
    (CavlcEncoder, CavlcDecoder),
]


def _roundtrip(encoder_cls, decoder_cls, operations):
    encoder = encoder_cls(MODEL.total_contexts)
    for op in operations:
        kind, group_name, variant, value = op
        group = MODEL[group_name]
        if kind == "flag":
            encoder.encode_flag(bool(value), group, variant)
        elif kind == "uint":
            encoder.encode_uint(value, group, variant)
        elif kind == "sint":
            encoder.encode_sint(value, group, variant)
    payload = encoder.finish()
    decoder = decoder_cls(payload, MODEL.total_contexts)
    decoded = []
    for op in operations:
        kind, group_name, variant, _value = op
        group = MODEL[group_name]
        if kind == "flag":
            decoded.append(int(decoder.decode_flag(group, variant)))
        elif kind == "uint":
            decoded.append(decoder.decode_uint(group, variant))
        elif kind == "sint":
            decoded.append(decoder.decode_sint(group, variant))
    return payload, decoded


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 120))):
        kind = draw(st.sampled_from(["flag", "uint", "sint"]))
        if kind == "flag":
            group = draw(st.sampled_from(["skip_flag", "is_intra", "cbp"]))
            variant = draw(st.integers(0, MODEL[group].variants - 1))
            value = draw(st.integers(0, 1))
        elif kind == "uint":
            group = draw(st.sampled_from(["nnz", "level", "intra_mode"]))
            variant = draw(st.integers(0, MODEL[group].variants - 1))
            value = draw(st.integers(0, min(MODEL[group].max_value, 500)))
        else:
            group = draw(st.sampled_from(["mvd_x", "mvd_y", "dqp"]))
            variant = draw(st.integers(0, MODEL[group].variants - 1))
            value = draw(st.integers(-MODEL[group].max_value,
                                     MODEL[group].max_value))
        ops.append((kind, group, variant, value))
    return ops


class TestRoundTrip:
    @pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
    @given(ops=operations())
    @settings(max_examples=60, deadline=None)
    def test_symbol_sequences(self, encoder_cls, decoder_cls, ops):
        _payload, decoded = _roundtrip(encoder_cls, decoder_cls, ops)
        expected = [op[3] if op[0] != "flag" else int(bool(op[3]))
                    for op in ops]
        assert decoded == expected

    @pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
    def test_extreme_values(self, encoder_cls, decoder_cls):
        group = MODEL["level"]
        ops = [("uint", "level", 0, group.max_value),
               ("uint", "level", 2, 0),
               ("sint", "mvd_x", 1, -MODEL["mvd_x"].max_value)]
        _payload, decoded = _roundtrip(encoder_cls, decoder_cls, ops)
        assert decoded == [group.max_value, 0, -MODEL["mvd_x"].max_value]


class TestCompression:
    def test_cabac_adapts_to_skewed_flags(self):
        """A heavily skewed flag sequence must compress far below 1
        bit/flag under CABAC but stay ~1 bit/flag under CAVLC."""
        ops = [("flag", "skip_flag", 0, 1)] * 2000
        cabac_payload, _ = _roundtrip(CabacEncoder, CabacDecoder, ops)
        cavlc_payload, _ = _roundtrip(CavlcEncoder, CavlcDecoder, ops)
        assert len(cabac_payload) < len(cavlc_payload) / 4

    def test_cabac_contexts_separate_statistics(self):
        """Mixing two skewed contexts should compress nearly as well as
        each alone — contexts keep their own statistics."""
        mixed = []
        for i in range(1000):
            mixed.append(("flag", "skip_flag", 0, 1))
            mixed.append(("flag", "is_intra", 0, 0))
        payload, _ = _roundtrip(CabacEncoder, CabacDecoder, mixed)
        assert len(payload) < 2000 / 8 / 2  # far below 1 bit per flag


class TestRobustness:
    @pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
    def test_corrupted_payload_decodes_in_range(self, encoder_cls,
                                                decoder_cls):
        ops = [("uint", "nnz", 0, 5)] * 50
        payload, _ = _roundtrip(encoder_cls, decoder_cls, ops)
        corrupted = bytearray(payload)
        corrupted[0] ^= 0xFF
        decoder = decoder_cls(bytes(corrupted), MODEL.total_contexts)
        group = MODEL["nnz"]
        for _ in range(50):
            value = decoder.decode_uint(group, 0)
            assert 0 <= value <= group.max_value

    @pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
    def test_empty_payload_decodes(self, encoder_cls, decoder_cls):
        decoder = decoder_cls(b"", MODEL.total_contexts)
        group = MODEL["level"]
        for _ in range(20):
            value = decoder.decode_uint(group, 0)
            assert 0 <= value <= group.max_value

    def test_encoder_rejects_out_of_range(self):
        encoder = CabacEncoder(MODEL.total_contexts)
        group = MODEL["nnz"]
        with pytest.raises(BitstreamError):
            encoder.encode_uint(group.max_value + 1, group)
        with pytest.raises(BitstreamError):
            encoder.encode_uint(-1, group)


class TestContextModel:
    def test_groups_do_not_overlap(self):
        model = build_context_model()
        spans = sorted((g.base, g.base + g.size)
                       for g in model.groups.values())
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        assert spans[-1][1] == model.total_contexts

    def test_duplicate_group_rejected(self):
        model = build_context_model()
        with pytest.raises(BitstreamError):
            model.add("skip_flag")

    def test_variant_out_of_range(self):
        group = ContextGroup(base=0, variants=2)
        with pytest.raises(BitstreamError):
            group.first_bin_context(2)

    def test_pickles_ignore_coding_history(self):
        # Campaign journals hash pickles that embed the shared model, so
        # memo tables filled by coding must never ride along.
        def pickles():
            return (pickle.dumps(MODEL),
                    {name: pickle.dumps(group)
                     for name, group in MODEL.groups.items()})

        before = pickles()
        video = synthesize_scene(SceneConfig(width=32, height=32,
                                             num_frames=3, seed=1))
        config = EncoderConfig(crf=24, gop_size=3, bframes=1)
        encoded = Encoder(config).encode(video)
        encode_batch_with_recon([video, video], config)
        encode_scalar(video, config)
        Decoder().decode(encoded)
        assert pickles() == before
        assert before[0] == pickle.dumps(build_context_model())

    def test_bits_emitted_monotone(self):
        encoder = CabacEncoder(MODEL.total_contexts)
        positions = [encoder.bits_emitted]
        for i in range(200):
            encoder.encode_uint(i % 16, MODEL["nnz"])
            positions.append(encoder.bits_emitted)
        assert positions == sorted(positions)
        assert positions[-1] > 0
