"""Streaming per-tick timings: warm-started vs cold rebuilds.

At 200 assets, compares a warm tick (incremental rolling-correlation
update + warm-started TMFG + DBHT) with a cold tick (from-scratch
correlation recomputation + cold TMFG + DBHT) and reports whether the warm
tick meets the original 0.7x target; the target is recorded, not gated.
Cold and warm TMFG builds share one batch selector, so the warm start only
verifies the previous tick's decisions.  Both paths produce identical flat
cuts, which this module asserts per tick before timing anything.

Run standalone to print one JSON document with the per-tick timings::

    PYTHONPATH=src python benchmarks/bench_streaming.py

or under pytest-benchmark like the other ``bench_*`` scripts::

    pytest benchmarks/bench_streaming.py --benchmark-only
"""

import json

import numpy as np
import pytest

from repro.datasets.similarity import detrended_log_returns
from repro.datasets.stocks import generate_regime_switching_stream
from repro.streaming.runner import StreamingPipeline

NUM_ASSETS = 200
WINDOW = 250
HOP = 5
NUM_TICKS = 12
NUM_DAYS = WINDOW + HOP * (NUM_TICKS + 1)
NUM_CLUSTERS = 8


def _stream_returns(seed: int = 31) -> np.ndarray:
    stream = generate_regime_switching_stream(
        num_stocks=NUM_ASSETS,
        num_days=NUM_DAYS,
        num_regimes=2,
        regime_length=NUM_DAYS // 2,
        seed=seed,
    )
    return stream.returns


def _run(returns: np.ndarray, warm: bool) -> "StreamingPipeline":
    pipeline = StreamingPipeline(
        returns,
        window=WINDOW,
        hop=HOP,
        num_clusters=NUM_CLUSTERS,
        warm_start=warm,
        max_ticks=NUM_TICKS,
    )
    return pipeline.run()


def streaming_report(seed: int = 31) -> dict:
    """Warm-vs-cold per-tick timings plus the equivalence check."""
    returns = _stream_returns(seed)
    warm = _run(returns, warm=True)
    cold = _run(returns, warm=False)
    assert warm.num_ticks == cold.num_ticks == NUM_TICKS
    for warm_tick, cold_tick in zip(warm.ticks, cold.ticks):
        assert np.array_equal(warm_tick.labels, cold_tick.labels), (
            f"warm/cold cuts diverge at tick {warm_tick.tick}"
        )
    # The first tick fills the whole window and builds without hints on
    # both paths; the steady-state comparison starts at tick 1.
    warm_seconds = [t.seconds for t in warm.ticks[1:]]
    cold_seconds = [t.seconds for t in cold.ticks[1:]]
    warm_mean = float(np.mean(warm_seconds))
    cold_mean = float(np.mean(cold_seconds))
    return {
        "assets": NUM_ASSETS,
        "window": WINDOW,
        "hop": HOP,
        "ticks": NUM_TICKS,
        "clusters": NUM_CLUSTERS,
        "cuts_identical": True,
        "warm_tick_seconds": warm_seconds,
        "cold_tick_seconds": cold_seconds,
        "warm_mean_tick_seconds": warm_mean,
        "cold_mean_tick_seconds": cold_mean,
        "warm_over_cold_ratio": warm_mean / cold_mean,
        "meets_0.7x_target": warm_mean <= 0.7 * cold_mean,
        "warm_round_replay_rate": warm.warm_stats.round_replay_rate,
        "warm_full_replay_rate": warm.warm_stats.full_replay_rate,
        "warm_mean_step_seconds": warm.mean_step_seconds(),
        "cold_mean_step_seconds": cold.mean_step_seconds(),
    }


@pytest.fixture(scope="module")
def returns():
    return _stream_returns()


@pytest.mark.benchmark(group="streaming")
def test_warm_streaming(benchmark, returns):
    benchmark.pedantic(lambda: _run(returns, warm=True), rounds=1, iterations=1)


@pytest.mark.benchmark(group="streaming")
def test_cold_streaming(benchmark, returns):
    benchmark.pedantic(lambda: _run(returns, warm=False), rounds=1, iterations=1)


if __name__ == "__main__":
    import benchlib

    benchlib.write_report("streaming.json", streaming_report())
