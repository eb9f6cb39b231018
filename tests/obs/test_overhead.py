"""Disabled observability costs at most 2% of the quantification phase.

The uninstrumented code no longer exists to A/B against, and run-to-run
noise dwarfs sub-percent effects, so the bound is proven analytically:

1. time one call of every disabled primitive the hot paths invoke — the
   shared null span, ``NULL_METRICS`` counter/observe calls, the
   ``obs or NULL_OBS`` resolution;
2. count how often one analysis of the BWR study invokes each, from a
   metered run of the same analysis (the collection design emits once
   per run, per solve or per cutset, never inside an inner loop);
3. assert ``sum(cost x calls) <= 2%`` of the quantification wall time.
"""

import time

from repro.core.analyzer import AnalysisOptions, analyze
from repro.obs.core import NULL_OBS
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER

#: The promised ceiling on disabled-path overhead.
OVERHEAD_BUDGET = 0.02


def per_call_seconds(fn, n=200_000):
    """Median-of-5 per-call wall time of ``fn`` over ``n`` iterations."""
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(n):
            fn()
        timings.append((time.perf_counter() - started) / n)
    return sorted(timings)[2]


def null_span():
    with NULL_TRACER.span("x", attr=1):
        pass


def null_count():
    NULL_METRICS.count("x", 3)


def null_observe():
    NULL_METRICS.observe("x", 1.0)


def resolve():
    obs = None
    return obs if obs is not None else NULL_OBS


def test_disabled_overhead_within_budget(bwr_study):
    result = analyze(bwr_study, AnalysisOptions(collect_metrics=True))
    counters = result.metrics["counters"]
    histograms = result.metrics["histograms"]
    solves = result.cache_misses
    n_records = len(result.records)

    # Upper bounds on the calls one disabled analysis makes.  Spans: the
    # four phase spans plus one attempt per solve and per record.
    # Counters: every key that exists, plus two per record.  Observations:
    # every histogram plus series terms and early exit once per solve.
    # Resolutions: a handful per quantified cutset.
    projected = (
        (4 + solves + n_records) * per_call_seconds(null_span)
        + (len(counters) + 2 * n_records) * per_call_seconds(null_count)
        + (len(histograms) + 2 * solves) * per_call_seconds(null_observe)
        + 4 * n_records * per_call_seconds(resolve)
    )
    quantify_seconds = result.timings.quantification_seconds
    assert projected <= OVERHEAD_BUDGET * quantify_seconds, (
        f"disabled observability projected at {projected * 1e3:.3f} ms "
        f"over a {quantify_seconds:.3f} s quantification phase"
    )
