"""Section 4.3.1: VideoApp analysis cost relative to encoding.

The paper reports a 2-3% time overhead for the dependency analysis as an
encoder post-processing step. This bench times both phases on the probe
video: ``Encoder.encode`` (the batched kernels) and the trace-driven
importance analysis that follows it, which costs about 2% of the encode
(EXPERIMENTS.md, Section 4.3.1).
"""

from repro.analysis import format_table, run_overhead


def test_overhead_analysis(benchmark, bench_video, bench_config):
    result = benchmark.pedantic(run_overhead,
                                args=(bench_video, bench_config),
                                rounds=1, iterations=1)
    print()
    print(format_table(("phase", "seconds"), [
        ("encoding", f"{result.encode_seconds:.3f}"),
        ("VideoApp analysis", f"{result.analysis_seconds:.4f}"),
        ("ratio", f"{100 * result.ratio:.2f}% (paper: 2-3%)"),
    ], title="Section 4.3.1 — analysis time overhead"))
    assert result.ratio < 0.10
