"""Station blackout: sequence-dependent behaviour no static tree can see.

The post-Fukushima concern that motivates the paper's longer analysis
horizons is the station blackout: offsite power lost, diesels failed,
batteries draining *only while the blackout lasts*.  This script builds
the SBO study in `repro.models.sbo` and shows three things:

1. the static analysis massively over-predicts core damage because it
   cannot model the grid being restored after a few hours, nor that the
   batteries only deplete during the blackout;
2. the per-cutset dynamic analysis agrees with the exact product chain
   (this model is small enough to solve exactly) and with Monte-Carlo
   simulation;
3. design questions get quantitative answers: coping time (battery
   size) and grid-recovery assumptions move the result by orders of
   magnitude, and the cut-completion analysis shows *how* the accident
   unfolds (which event tends to strike last).

Run:  python examples/station_blackout.py
"""

from repro.core.analyzer import AnalysisOptions, analyze, analyze_exact, analyze_static
from repro.core.cut_sequences import completion_distribution
from repro.ctmc.rare import estimate_failure_probability
from repro.models.sbo import SboConfig, build_sbo


def main() -> None:
    horizon = 24.0
    options = AnalysisOptions(horizon=horizon)
    sdft = build_sbo()
    print(f"model: {sdft}")
    print()

    print("=== static vs dynamic vs exact (24 h) ===")
    static_value = analyze_static(sdft, options)
    result = analyze(sdft, options)
    exact = analyze_exact(sdft, horizon)
    simulated = estimate_failure_probability(
        sdft, horizon, engine="crude", max_runs=60_000, seed=5
    )
    low, high = simulated.interval(sigmas=1.96)
    print(f"static (no timing):     {static_value:.3e}")
    print(f"per-cutset dynamic:     {result.failure_probability:.3e}")
    print(f"exact product chain:    {exact:.3e}")
    print(f"Monte-Carlo (crude):    {simulated.estimate:.3e} "
          f"(95% CI [{low:.3e}, {high:.3e}], {simulated.n_runs} runs)")
    print(f"-> static overshoots the exact value {static_value / exact:.0f}x;")
    print(f"   the dynamic decomposition is within "
          f"{100 * (result.failure_probability / exact - 1):.1f}%.")
    print()

    print("=== design sweeps ===")
    print(f"{'coping time (battery)':>24s} {'core damage':>14s}")
    for hours in (2.0, 4.0, 8.0, 16.0):
        value = analyze(
            build_sbo(SboConfig(battery_hours=hours)), options
        ).failure_probability
        print(f"{hours:21.0f} h  {value:14.3e}")
    print()
    print(f"{'mean grid recovery':>24s} {'core damage':>14s}")
    for rate, label in ((1.0, "1 h"), (0.25, "4 h"), (0.1, "10 h")):
        value = analyze(
            build_sbo(SboConfig(grid_recovery_rate=rate)), options
        ).failure_probability
        print(f"{label:>22s}   {value:14.3e}")
    print()

    print("=== how the dominant cutset unfolds ===")
    dominant = result.top_contributors(1)[0]
    completion = completion_distribution(sdft, dominant.cutset, horizon)
    print(f"cutset {{{', '.join(sorted(dominant.cutset))}}} "
          f"(p = {dominant.probability:.3e}):")
    for event, probability in sorted(
        completion.by_event.items(), key=lambda kv: -kv[1]
    ):
        share = probability / completion.total
        print(f"  completed by {event:14s} {share:6.1%} of the time")


if __name__ == "__main__":
    main()
