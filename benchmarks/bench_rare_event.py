"""Rare-event Monte-Carlo: crude vs importance-sampling runs-to-target.

Measures :func:`repro.ctmc.rare.estimate_failure_probability` on a
synthetic PSA-scale cutset — an AND of two slow exponential failures
with exact probability ~ 9e-8 at the 24 h horizon — and records how
many trajectories each engine needs to reach the 10 % relative-error
target.  Run as a script::

    python benchmarks/bench_rare_event.py --output BENCH_rare_event.json

Crude sampling is expected to *fail* here: at p ~ 1e-7 a 20k-run budget
observes zero failures and reports only the rule-of-three bound, while
the failure-biased importance sampler converges in a few thousand runs.
The script asserts both halves of that story (the acceptance criterion
of the rare-event issue), plus the bracketing contract: every emitted
interval must contain the exact uniformization value.

``--tiny`` shrinks the budgets and replicate count (seconds, for CI
smoke jobs); ``validate_payload`` is the schema check the CI smoke job
runs against the emitted file.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

HORIZON = 24.0

#: AND of two slow exponentials: p(24h) ~ (lam*t)^2 ~ 9e-8.
RARE_LAMBDA = 1.25e-5


def build_rare_pair():
    from repro.core.sdft import SdFaultTreeBuilder
    from repro.ctmc.builders import exponential_failure

    b = SdFaultTreeBuilder("rare-pair")
    b.dynamic_event("x", exponential_failure(RARE_LAMBDA))
    b.dynamic_event("y", exponential_failure(RARE_LAMBDA))
    b.and_("top", "x", "y")
    return b.build("top")


def exact_probability(sdft) -> float:
    from repro.ctmc.product import build_product
    from repro.ctmc.transient import reach_probability

    return float(reach_probability(build_product(sdft).chain, HORIZON))


def run_engine(sdft, exact: float, engine: str, max_runs: int, seed: int) -> dict:
    from repro.ctmc.rare import estimate_failure_probability

    started = time.perf_counter()
    result = estimate_failure_probability(
        sdft, HORIZON, engine=engine, max_runs=max_runs, seed=seed
    )
    wall = time.perf_counter() - started
    lower, upper = result.interval(sigmas=4.0)
    brackets = lower <= exact <= upper
    rel_error = result.achieved_rel_error
    print(
        f"[{engine}] seed={seed}: runs={result.n_runs} "
        f"failures={result.n_failures} estimate={result.estimate:.3e} "
        f"rel_error={rel_error if rel_error != float('inf') else float('inf'):.3g} "
        f"converged={result.converged} brackets={brackets} ({wall:.2f}s)",
        flush=True,
    )
    return {
        "engine": result.engine,
        "seed": seed,
        "max_runs": max_runs,
        "runs": result.n_runs,
        "failures": result.n_failures,
        "estimate": result.estimate,
        "standard_error": result.standard_error,
        "achieved_rel_error": rel_error if rel_error != float("inf") else None,
        "converged": result.converged,
        "interval": [lower, upper],
        "brackets_exact": brackets,
        "wall_seconds": round(wall, 4),
    }


def run(tiny: bool = False) -> dict:
    """Build the payload: crude vs IS (vs splitting) at PSA probability."""
    from repro.ctmc.rare import TARGET_REL_ERROR

    sdft = build_rare_pair()
    exact = exact_probability(sdft)
    max_runs = 4_000 if tiny else 20_000
    seeds = [7] if tiny else [7, 11, 42]

    crude_runs = [run_engine(sdft, exact, "crude", max_runs, s) for s in seeds]
    is_runs = [run_engine(sdft, exact, "is", max_runs, s) for s in seeds]
    split_runs = (
        [] if tiny else [run_engine(sdft, exact, "splitting", max_runs, 7)]
    )

    # The acceptance story: crude starves while IS converges and brackets.
    assert all(r["failures"] == 0 for r in crude_runs), (
        "crude unexpectedly observed failures at PSA probability — "
        "the case is no longer rare enough to stress the engine"
    )
    assert all(r["converged"] for r in is_runs), (
        "importance sampling missed the relative-error target"
    )
    assert all(r["brackets_exact"] for r in is_runs + split_runs), (
        "a converged interval failed to contain the exact value"
    )

    converged_runs = [r["runs"] for r in is_runs]
    return {
        "benchmark": "rare_event",
        "created_unix": int(time.time()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "tiny": tiny,
        "horizon_hours": HORIZON,
        "exact_probability": exact,
        "target_rel_error": TARGET_REL_ERROR,
        "crude": crude_runs,
        "importance_sampling": is_runs,
        "splitting": split_runs,
        "is_runs_to_target_max": max(converged_runs),
        "crude_budget_wasted": max_runs,
    }


def validate_payload(payload: dict) -> None:
    """Schema check of an emitted ``BENCH_rare_event.json`` (raises on error)."""

    def expect(condition, message):
        if not condition:
            raise ValueError(f"BENCH_rare_event.json schema: {message}")

    expect(isinstance(payload, dict), "payload must be an object")
    expect(
        payload.get("benchmark") == "rare_event",
        "benchmark must be 'rare_event'",
    )
    for key, kind in (
        ("python", str),
        ("platform", str),
        ("exact_probability", float),
        ("target_rel_error", float),
        ("crude", list),
        ("importance_sampling", list),
        ("splitting", list),
        ("is_runs_to_target_max", int),
        ("crude_budget_wasted", int),
    ):
        expect(isinstance(payload.get(key), kind), f"{key} must be {kind.__name__}")
    expect(
        0.0 < payload["exact_probability"] <= 1e-7,
        "exact probability must stay at PSA scale (<= 1e-7)",
    )
    expect(len(payload["crude"]) >= 1, "at least one crude run required")
    expect(
        len(payload["importance_sampling"]) >= 1,
        "at least one importance-sampling run required",
    )
    for run_ in payload["crude"]:
        expect(run_["failures"] == 0, "crude must starve at PSA probability")
        expect(run_["converged"] is False, "crude must not claim convergence")
    for run_ in payload["importance_sampling"] + payload["splitting"]:
        expect(run_["converged"] is True, "biased engines must converge")
        expect(run_["brackets_exact"] is True, "interval must contain exact")
        expect(
            run_["achieved_rel_error"] <= payload["target_rel_error"],
            "achieved relative error above target",
        )
    expect(
        payload["is_runs_to_target_max"] <= payload["crude_budget_wasted"],
        "IS must reach target within the budget crude wastes",
    )


def test_rare_event_payload():
    """Pytest entry point: the tiny sweep must validate end to end."""
    validate_payload(run(tiny=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="single seed and small budgets (CI smoke: a few seconds)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_rare_event.json",
        help="path of the JSON payload",
    )
    args = parser.parse_args(argv)

    payload = run(tiny=args.tiny)
    validate_payload(payload)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {args.output}: IS reached the target in "
        f"<= {payload['is_runs_to_target_max']} runs where crude wasted "
        f"{payload['crude_budget_wasted']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
