"""Tests for ECC-block-aligned shard range reads."""

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service.shards import Shard
from repro.storage import MLCCellModel
from repro.storage.device import ApproximateDevice
from repro.storage.ecc import scheme_by_name

BLOB = bytes(range(256)) * 2  # 512 bytes = 8 BCH blocks of 64


def _shard() -> Shard:
    shard = Shard(shard_id="s0",
                  cell_model=MLCCellModel(write_sigma=1e-9))
    shard.write("k", BLOB)
    return shard


class TestReadRange:
    def test_bch_window_aligns_to_ecc_blocks(self):
        shard = _shard()
        data, report, start, end = shard.read_range(
            "k", scheme_by_name("BCH-6"), np.random.default_rng(0),
            70, 130)
        assert (start, end) == (64, 192)  # 64-byte block granularity
        assert data[:end - start] == BLOB[start:end]

    def test_raw_scheme_is_byte_granular(self):
        shard = _shard()
        data, _, start, end = shard.read_range(
            "k", scheme_by_name("None"), np.random.default_rng(0),
            70, 130)
        assert (start, end) == (70, 130)
        assert data[:60] == BLOB[70:130]

    def test_window_clamps_to_the_blob(self):
        shard = _shard()
        _, _, start, end = shard.read_range(
            "k", scheme_by_name("BCH-6"), np.random.default_rng(0),
            500, 10_000)
        assert (start, end) == (448, 512)

    def test_bad_ranges_and_missing_keys_are_rejected(self):
        shard = _shard()
        scheme = scheme_by_name("BCH-6")
        with pytest.raises(ServiceError):
            shard.read_range("k", scheme, np.random.default_rng(0), -1, 8)
        with pytest.raises(ServiceError):
            shard.read_range("k", scheme, np.random.default_rng(0), 9, 8)
        with pytest.raises(ServiceError):
            shard.read_range("gone", scheme, np.random.default_rng(0),
                             0, 8)

    def test_range_reads_count_toward_health(self):
        shard = _shard()
        before = shard.reads
        shard.read_range("k", scheme_by_name("BCH-6"),
                         np.random.default_rng(0), 0, 64)
        assert shard.reads == before + 1

    @pytest.mark.parametrize("age,retries", [(None, 1), (1e5, 1), (1e5, 0)])
    def test_whole_read_is_a_full_extent_range_read(self, age, retries):
        # The direct device read is what a whole read did before it
        # became a range read: same bytes, report, rng and health.
        scheme = scheme_by_name("BCH-6")
        whole, ranged = (Shard(shard_id="s0", t_days=age, read_retries=retries)
                         for _ in range(2))
        for shard in (whole, ranged):
            shard.write("k", BLOB)
        rngs = [np.random.default_rng(11) for _ in range(3)]
        data, report = whole.read("k", scheme, rngs[0])
        got, got_report, start, end = ranged.read_range(
            "k", scheme, rngs[1], 0, len(BLOB))
        device = ApproximateDevice(
            cell_model=whole.cell_model, rng=rngs[2],
            exact=whole.exact_ecc, scrub=whole.scrub,
            read_retries=whole.read_retries)
        want, want_report = device.store_and_read(BLOB, scheme, t_days=age)
        assert (start, end) == (0, len(BLOB))
        assert data == got == want
        assert report == got_report == want_report
        assert len({rng.random() for rng in rngs}) == 1
        for shard in (whole, ranged):
            assert shard.reads == 1
            assert shard.uncorrectable_events == want_report.failed_blocks
            assert shard.health == whole.health
        if age is not None:  # the aged reads reach the ECC ladder
            assert (want_report.retry_successes if retries
                    else want_report.failed_blocks) > 0
