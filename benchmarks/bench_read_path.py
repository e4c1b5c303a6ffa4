"""Read-path decrypt: vectorized AES-CTR keystream vs the scalar loop.

Every whole-object read decrypts each reliability stream with CTR, and
every seek decrypts an ECC-block-aligned slice by counter jump. This
bench times that keystream step two ways on the same bytes:

* vectorized — ``CTR.decrypt_range``, which builds all of a call's
  counter blocks as one array and encrypts them in one
  ``AES128.encrypt_blocks`` pass;
* scalar — the loop it replaced, one ``AES128.encrypt_block`` call per
  counter value (kept here, and in ``tests/crypto``, as the reference).

Sizes: 2048 B (a whole-object stream), 720 B (a seek slice at an
unaligned offset) and 112 B (a short slice). The seek slice is also
decrypted a third way:

* warm — ``StreamEncryptor.decrypt_at`` on an encryptor that has
  already derived the stream's keystream, so the call is one slice and
  one XOR against its keystream memo (the path every service read
  takes after a stream's first touch).

Before any timing, all paths must return the same bytes. They are
interleaved within each timing repeat so host noise lands on all; each
keeps its best repeat. Writes ``BENCH_read_path.json``;
``tools/check_perf.py`` gates it against
``benchmarks/baselines/read_path.json``:

* yardstick-normalized ``keystream_bytes_per_second`` (regression
  band), which times the memo-free kernel;
* an absolute floor on ``keystream_speedup`` at 2048 B (>= 10x);
* an absolute floor on ``memo_speedup`` (cold vector / warm) at 720 B
  (>= 5x). All paths run in one process on one host, so the ratios
  need no yardstick.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.crypto import AES128, CTR, StreamEncryptor
from repro.crypto.aes import BLOCK_SIZE

from bench_codec_throughput import yardstick_rate

OUTPUT = Path("BENCH_read_path.json")

KEY = bytes(range(16))
IV = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")

#: (label, bytes, byte offset into the stream) per timed case.
CASES = (
    ("bytes2048", 2048, 0),
    ("bytes720", 720, 1000),
    ("bytes112", 112, 333),
)

#: The case a warm ``StreamEncryptor`` also decrypts: the seek slice.
WARM_CASE = "bytes720"

#: Timing repeats (best-of) per scale.
_REPEATS = {"quick": 7, "full": 21}

#: Wall-clock seconds one timing sample aims for.
_SAMPLE_SECONDS = 0.02


def scalar_ctr(cipher, iv, data, byte_offset):
    """The scalar CTR loop: one ``encrypt_block`` per counter value."""
    skip_blocks, phase = divmod(byte_offset, BLOCK_SIZE)
    counter = int.from_bytes(iv, "big") + skip_blocks
    stream = bytearray()
    while len(stream) < phase + len(data):
        block = (counter % (1 << 128)).to_bytes(BLOCK_SIZE, "big")
        stream += cipher.encrypt_block(block)
        counter += 1
    return bytes(x ^ y for x, y in zip(data, stream[phase:]))


def _seconds_per_call(fn, calls):
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def _calls_per_sample(fn):
    """Calls that fill about ``_SAMPLE_SECONDS`` (at least one)."""
    return max(1, int(_SAMPLE_SECONDS / _seconds_per_call(fn, 1)))


def test_read_path(scale):
    del scale  # the cases are fixed; REPRO_BENCH_SCALE sets repeats
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    repeats = _REPEATS[scale_name]
    yardstick = yardstick_rate()
    cipher = AES128(KEY)
    mode = CTR(cipher, IV)
    # Stream 0's IV is its master IV XOR 0 encrypted under the key, so
    # this master IV gives the warm encryptor's stream 0 the bench's IV.
    encryptor = StreamEncryptor(key=KEY, master_iv=cipher.decrypt_block(IV))
    rng = np.random.default_rng(2017)

    paths = {}
    for label, size, offset in CASES:
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()

        def vector(data=data, offset=offset):
            return mode.decrypt_range(data, offset)

        def scalar(data=data, offset=offset):
            return scalar_ctr(cipher, IV, data, offset)

        # Correctness first: the vectorized bytes must be the scalar's.
        assert vector() == scalar(), f"{label}: vectorized CTR diverges"
        paths[label] = {
            "vector": (vector, _calls_per_sample(vector)),
            "scalar": (scalar, _calls_per_sample(scalar)),
        }
        if label == WARM_CASE:

            def warm(data=data, offset=offset):
                return encryptor.decrypt_at(0, data, offset)

            # The first call derives the stream's keystream; the rest
            # are memo hits.
            assert warm() == vector(), f"{label}: warm decrypt diverges"
            paths[label]["warm"] = (warm, _calls_per_sample(warm))

    best = {(label, path): float("inf") for label in paths for path in paths[label]}
    for _ in range(repeats):
        for label, timed in paths.items():
            for path, (fn, calls) in timed.items():
                seconds = _seconds_per_call(fn, calls)
                best[label, path] = min(best[label, path], seconds)

    records = []
    for label, size, offset in CASES:
        vector_s = best[label, "vector"]
        scalar_s = best[label, "scalar"]
        record = {
            "label": label,
            "bytes": size,
            "offset": offset,
            "blocks": -(-(offset % BLOCK_SIZE + size) // BLOCK_SIZE),
            "vector_us": vector_s * 1e6,
            "scalar_us": scalar_s * 1e6,
            "keystream_bytes_per_second": size / vector_s,
            "scalar_bytes_per_second": size / scalar_s,
            "keystream_speedup": scalar_s / vector_s,
        }
        if label == WARM_CASE:
            record["warm_us"] = best[label, "warm"] * 1e6
            record["memo_speedup"] = vector_s / best[label, "warm"]
        records.append(record)

    print()
    print(
        format_table(
            ("case", "blocks", "vector us", "scalar us", "MB/s", "speedup"),
            [
                (
                    r["label"],
                    r["blocks"],
                    f"{r['vector_us']:.0f}",
                    f"{r['scalar_us']:.0f}",
                    f"{r['keystream_bytes_per_second'] / 1e6:.2f}",
                    f"{r['keystream_speedup']:.1f}x",
                )
                for r in records
            ],
            title=f"CTR keystream decrypt (best of {repeats})",
        )
    )
    warm = next(r for r in records if r["label"] == WARM_CASE)
    print(
        f"warm StreamEncryptor.decrypt_at, {WARM_CASE}: "
        f"{warm['warm_us']:.1f} us, memo_speedup {warm['memo_speedup']:.1f}x"
    )
    print(f"yardstick: {yardstick:.1f} ops/s")

    payload = {
        "exhibit": "read_path",
        "scale": scale_name,
        "yardstick_ops_per_second": yardstick,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "clips": records,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.resolve()}")
