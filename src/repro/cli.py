"""Command-line interface: ``sdft <command>`` (or ``python -m repro``).

Commands
--------
``analyze``     Full SD analysis of a model file (static or SD).
``lint``        Static diagnostics of a model, without analysing it.
``simplify``    Shrink a model through the BDD-verified rewrite engine.
``mcs``         Generate and list minimal cutsets.
``importance``  Fussell–Vesely / Birnbaum / RAW / RRW table.
``classify``    Trigger-gate classes (predicts quantification cost).
``curve``       Failure probability over multiple horizons.
``simulate``    Monte-Carlo cross-check of an SD model.
``demo-bwr``    Build the fictive BWR study, save or analyse it.
``trace``       Summarise a JSONL trace written by ``analyze --trace``.
``chaos``       Seeded fault-injection campaign asserting runs fail
                loudly or stay bracketed (see ``docs/robustness.md``);
                ``--catalog service`` runs the deterministic service
                scenarios instead (see ``docs/service.md``).
``serve``       Long-lived stdio-JSONL analysis daemon: resumable
                sessions, incremental what-if re-analysis, deadlines,
                admission control and a crash-safe journal.

Models are JSON files in the format of :mod:`repro.models.formats`;
files ending in ``.xml``/``.mef`` are read as Open-PSA fault trees
(:mod:`repro.models.openpsa`).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.sdft import SdFaultTree, as_sdft
from repro.ft.importance import importance
from repro.ft.mocus import MocusOptions, mocus
from repro.models.formats import load_model, save_model

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as error:  # surfaced as a message, not a traceback
        print(f"error: {error}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdft",
        description="Scalable analysis of fault trees with dynamic features",
    )
    sub = parser.add_subparsers(required=True)

    analyze_cmd = sub.add_parser("analyze", help="full SD analysis of a model")
    analyze_cmd.add_argument("model", help="model JSON file")
    _add_analysis_arguments(analyze_cmd)
    analyze_cmd.add_argument(
        "--top", type=int, default=10, help="number of top cutsets to print"
    )
    analyze_cmd.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help="worker processes for quantification: a number, or 'auto' "
        "for one per CPU; unique cutset models are deduplicated and "
        "solved once on a process pool (default 1 = serial)",
    )
    analyze_cmd.add_argument(
        "--degrade",
        action="store_true",
        help="per-cutset fault isolation: retry failing cutsets down the "
        "degradation ladder (exact -> bound) "
        "instead of aborting the run; oversized chains are bounded",
    )
    analyze_cmd.add_argument(
        "--wall-seconds",
        type=float,
        default=None,
        help="wall-clock budget; on exhaustion the run returns a partial "
        "result with a conservative remainder bound",
    )
    analyze_cmd.add_argument(
        "--max-total-states",
        type=int,
        default=None,
        help="budget on total chain states solved across the run",
    )
    analyze_cmd.add_argument(
        "--budget-cutsets",
        type=int,
        default=None,
        help="soft cap on generated cutsets (truncates, never crashes)",
    )
    analyze_cmd.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="snapshot MOCUS/quantification progress to PATH periodically",
    )
    analyze_cmd.add_argument(
        "--checkpoint-interval",
        type=float,
        default=30.0,
        help="seconds between checkpoint snapshots (default 30)",
    )
    analyze_cmd.add_argument(
        "--resume",
        action="store_true",
        help="resume from the --checkpoint file if it exists",
    )
    analyze_cmd.add_argument(
        "--verify",
        choices=("off", "cheap", "full"),
        default="off",
        help="runtime self-verification: 'cheap' asserts invariants "
        "(probabilities in range, intervals ordered, worst-case "
        "dominance) at every stage boundary; 'full' additionally "
        "cross-checks a sample of results through independent code "
        "paths (default off)",
    )
    analyze_cmd.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall deadline on the process-pool farm (with "
        "--jobs > 1); an overrunning task is terminated and its "
        "cutsets recovered conservatively in the parent",
    )
    analyze_cmd.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="directory of the persistent cross-run solve cache "
        "(default: $REPRO_CACHE_DIR, else ~/.cache/repro); re-analysis "
        "of an unchanged model is served from it near-instantly",
    )
    analyze_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent solve cache for this run",
    )
    analyze_cmd.add_argument(
        "--bdd-node-budget",
        type=int,
        default=200_000,
        metavar="N",
        help="node-table cap per BDD compilation scope (default 200000); "
        "exceeding it falls back to cutset quantification cleanly",
    )
    _add_observability_arguments(analyze_cmd)
    analyze_cmd.set_defaults(handler=_cmd_analyze)

    lint_cmd = sub.add_parser(
        "lint", help="static diagnostics of a model (no analysis is run)"
    )
    lint_cmd.add_argument(
        "model", nargs="?", default=None, help="model JSON (or Open-PSA XML) file"
    )
    _add_analysis_arguments(lint_cmd)
    lint_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    lint_cmd.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="error",
        help="exit with code 1 when findings at or above this severity "
        "exist (default error)",
    )
    lint_cmd.add_argument(
        "--disable",
        default="",
        metavar="CODES",
        help="comma-separated diagnostic codes to skip (e.g. SD103,SD402)",
    )
    lint_cmd.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="CODE=LEVEL",
        help="override a rule's severity (e.g. --severity SD201=error); "
        "repeatable",
    )
    lint_cmd.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint_cmd.set_defaults(handler=_cmd_lint)

    simplify_cmd = sub.add_parser(
        "simplify",
        help="shrink a model through the BDD-verified rewrite engine",
    )
    simplify_cmd.add_argument(
        "model", help="model JSON (or Open-PSA XML) file"
    )
    simplify_cmd.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the simplified model to PATH (JSON)",
    )
    simplify_cmd.add_argument(
        "--check",
        action="store_true",
        help="gate mode: exit 1 unless every applied rewrite round was "
        "BDD-verified within the node budget (a clean no-op model "
        "passes); for CI over a model corpus",
    )
    simplify_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    simplify_cmd.add_argument(
        "--node-budget",
        type=int,
        default=200_000,
        metavar="N",
        help="node-table cap for the per-round equivalence proofs "
        "(default 200000); an overrunning round is reverted, earlier "
        "verified rounds are kept",
    )
    simplify_cmd.set_defaults(handler=_cmd_simplify)

    mcs_cmd = sub.add_parser("mcs", help="generate minimal cutsets")
    mcs_cmd.add_argument("model", help="model JSON file")
    _add_analysis_arguments(mcs_cmd)
    mcs_cmd.add_argument(
        "--limit", type=int, default=25, help="number of cutsets to print"
    )
    mcs_cmd.set_defaults(handler=_cmd_mcs)

    importance_cmd = sub.add_parser("importance", help="importance measures")
    importance_cmd.add_argument("model", help="model JSON file")
    _add_analysis_arguments(importance_cmd)
    importance_cmd.add_argument(
        "--limit", type=int, default=20, help="number of events to print"
    )
    importance_cmd.set_defaults(handler=_cmd_importance)

    classify_cmd = sub.add_parser(
        "classify", help="classify the triggering gates (predicts cost)"
    )
    classify_cmd.add_argument("model", help="SD model JSON file")
    classify_cmd.set_defaults(handler=_cmd_classify)

    curve_cmd = sub.add_parser(
        "curve", help="failure probability over multiple horizons"
    )
    curve_cmd.add_argument("model", help="model JSON file")
    curve_cmd.add_argument(
        "--horizons",
        default="24,48,72,96",
        help="comma-separated horizons in hours",
    )
    curve_cmd.add_argument("--cutoff", type=float, default=1e-15)
    curve_cmd.set_defaults(handler=_cmd_curve)

    simulate_cmd = sub.add_parser("simulate", help="Monte-Carlo estimate")
    simulate_cmd.add_argument("model", help="SD model JSON file")
    simulate_cmd.add_argument("--horizon", type=float, default=24.0)
    simulate_cmd.add_argument(
        "--runs",
        type=int,
        default=20_000,
        help="cap on simulated runs; crude simulation stops earlier once "
        "its 95%% half-width is within 10%% of the estimate",
    )
    simulate_cmd.add_argument("--seed", type=int, default=None)
    simulate_cmd.set_defaults(handler=_cmd_simulate)

    demo_cmd = sub.add_parser("demo-bwr", help="build the fictive BWR study")
    demo_cmd.add_argument("--save", help="write the model to this JSON file")
    demo_cmd.add_argument("--horizon", type=float, default=24.0)
    demo_cmd.add_argument("--cutoff", type=float, default=1e-15)
    demo_cmd.add_argument(
        "--triggers",
        default="all",
        help="comma-separated trigger stages, 'all' or 'none'",
    )
    demo_cmd.add_argument("--repair-rate", type=float, default=0.05)
    demo_cmd.add_argument("--phases", type=int, default=1)
    demo_cmd.add_argument("--jobs", default="1", metavar="N")
    _add_observability_arguments(demo_cmd)
    demo_cmd.set_defaults(handler=_cmd_demo_bwr)

    trace_cmd = sub.add_parser(
        "trace", help="summarise a JSONL trace written by analyze --trace"
    )
    trace_cmd.add_argument("trace_file", help="JSONL trace file")
    trace_cmd.set_defaults(handler=_cmd_trace)

    chaos_cmd = sub.add_parser(
        "chaos",
        help="seeded chaos campaign: prove runs fail loudly, never wrongly",
    )
    chaos_cmd.add_argument(
        "model",
        nargs="?",
        default=None,
        help="model JSON (or Open-PSA XML) file; omitted = built-in BWR demo",
    )
    chaos_cmd.add_argument(
        "--runs", type=int, default=20, help="faulted runs (default 20)"
    )
    chaos_cmd.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    chaos_cmd.add_argument("--horizon", type=float, default=24.0)
    chaos_cmd.add_argument(
        "--cutoff",
        type=float,
        default=1e-10,
        help="MCS cutoff c* (default 1e-10: fast campaign runs)",
    )
    chaos_cmd.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help="worker processes; > 1 adds process-level faults "
        "(worker kill, task hang) to the schedule (default 1)",
    )
    chaos_cmd.add_argument(
        "--verify",
        choices=("cheap", "full"),
        default="cheap",
        help="verification mode armed during faulted runs (default cheap)",
    )
    chaos_cmd.add_argument(
        "--report",
        metavar="FILE",
        default=None,
        help="write the JSON campaign report to FILE",
    )
    chaos_cmd.add_argument(
        "--catalog",
        choices=("default", "service"),
        default="default",
        help="'default' = randomized fault-injection campaign against "
        "one in-process analysis; 'service' = the deterministic "
        "service scenarios (deadline expiry, daemon SIGKILL + journal "
        "recovery, journal corruption) — ignores --runs/--seed/--jobs",
    )
    chaos_cmd.set_defaults(handler=_cmd_chaos)

    serve_cmd = sub.add_parser(
        "serve",
        help="stdio-JSONL analysis daemon (one JSON request per line on "
        "stdin, one response per line on stdout; see docs/service.md)",
    )
    _add_analysis_arguments(serve_cmd)
    serve_cmd.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help="worker processes for quantification (default 1 = serial)",
    )
    serve_cmd.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="crash-safe request journal; a daemon restarted on the same "
        "file replays completed loads/edits and aborts in-flight work",
    )
    serve_cmd.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="bounded request queue depth; further analysis requests are "
        "answered immediately with a load-shed error (default 16)",
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="request worker threads (default 1; sessions are locked, so "
        "extra workers only help across distinct sessions)",
    )
    serve_cmd.add_argument(
        "--request-trace",
        metavar="FILE",
        default=None,
        help="append one JSONL record per request/response pair to FILE",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="directory of the persistent cross-run solve cache "
        "(default: $REPRO_CACHE_DIR, else ~/.cache/repro)",
    )
    serve_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent solve cache",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)
    return parser


def _add_analysis_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument("--horizon", type=float, default=24.0, help="mission time (h)")
    command.add_argument("--cutoff", type=float, default=1e-15, help="MCS cutoff c*")


def _add_observability_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL trace of the run (phase/solve/pool-task "
        "spans plus metrics) to FILE; inspect with 'sdft trace FILE'",
    )
    command.add_argument(
        "--metrics",
        action="store_true",
        help="collect pipeline metrics and print their highlights",
    )


def _resolve_cache_dir(args: argparse.Namespace) -> "str | None":
    """The persistent cache location for a CLI run (``None`` = off).

    The CLI defaults the cache *on* (unlike the library, whose
    :class:`AnalysisOptions` default is off): repeated command-line
    analyses of the same model are the exact workload the cache exists
    for.  ``--no-cache`` opts out; ``--cache-dir`` overrides the
    ``$REPRO_CACHE_DIR`` / ``~/.cache/repro`` default.
    """
    if getattr(args, "no_cache", False):
        return None
    explicit = getattr(args, "cache_dir", None)
    if explicit:
        return explicit
    from repro.perf.cache import default_cache_dir

    return default_cache_dir()


def _load_any(path: str):
    """Load a model file: Open-PSA XML by extension, otherwise JSON."""
    if str(path).endswith((".xml", ".mef")):
        from repro.models.openpsa import load_openpsa

        return load_openpsa(path)
    return load_model(path)


def _load_sdft(path: str) -> SdFaultTree:
    return as_sdft(_load_any(path))


def _cmd_analyze(args: argparse.Namespace) -> int:
    sdft = _load_sdft(args.model)
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    options = AnalysisOptions(
        horizon=args.horizon,
        cutoff=args.cutoff,
        fault_isolation=args.degrade,
        wall_seconds=args.wall_seconds,
        max_total_states=args.max_total_states,
        budget_cutsets=args.budget_cutsets,
        checkpoint_path=args.checkpoint,
        checkpoint_interval_seconds=args.checkpoint_interval,
        resume=args.resume,
        verify=args.verify,
        jobs=args.jobs,
        pool_task_timeout_seconds=args.task_timeout,
        trace_path=args.trace,
        collect_metrics=args.metrics,
        cache_dir=_resolve_cache_dir(args),
        bdd_node_budget=args.bdd_node_budget,
    )
    result = analyze(sdft, options)
    print(result.summary())
    for event in result.health.events:
        if event.stage == "cache":
            print(event.message)
    if args.trace:
        print(f"trace written to {args.trace} (inspect with: sdft trace {args.trace})")
    print()
    print(f"top {args.top} cutsets by quantified probability:")
    for record in result.top_contributors(args.top):
        events = " ".join(sorted(record.cutset))
        tag = "dynamic" if record.is_dynamic else "static"
        print(f"  {record.probability:.3e}  [{tag}]  {events}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import LintConfig, Severity, all_rules, lint

    if args.list_rules:
        print(f"{'code':7s} {'severity':8s} {'name':28s} description")
        for registered in all_rules():
            print(
                f"{registered.code:7s} {registered.default_severity.value:8s} "
                f"{registered.name:28s} {registered.description}"
            )
        return 0
    if args.model is None:
        print("error: a model file is required (or use --list-rules)", file=sys.stderr)
        return 2

    known_codes = {registered.code for registered in all_rules()}
    disabled = frozenset(
        code.strip().upper() for code in args.disable.split(",") if code.strip()
    )
    unknown = sorted(disabled - known_codes)
    if unknown:
        print(
            f"error: --disable names unknown rule codes: {', '.join(unknown)} "
            f"(see 'sdft lint --list-rules')",
            file=sys.stderr,
        )
        return 2
    overrides: dict[str, Severity] = {}
    for item in args.severity:
        code, separator, level = item.partition("=")
        if not separator or not code.strip() or not level.strip():
            print(
                f"error: --severity expects CODE=LEVEL, got {item!r}",
                file=sys.stderr,
            )
            return 2
        try:
            overrides[code.strip().upper()] = Severity.parse(level)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    unknown = sorted(set(overrides) - known_codes)
    if unknown:
        print(
            f"error: --severity names unknown rule codes: {', '.join(unknown)} "
            f"(see 'sdft lint --list-rules')",
            file=sys.stderr,
        )
        return 2

    report = lint(
        _load_sdft(args.model),
        LintConfig(
            horizon=args.horizon,
            cutoff=args.cutoff,
            disabled=disabled,
            severity_overrides=overrides,
        ),
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    threshold = Severity.parse(args.fail_on)
    return 1 if report.at_or_above(threshold) else 0


def _cmd_simplify(args: argparse.Namespace) -> int:
    from repro.sem import simplify

    sdft = _load_sdft(args.model)
    result = simplify(sdft, node_budget=args.node_budget)
    if args.format == "json":
        import json

        payload = {
            "model": sdft.name,
            "gates_before": result.gates_before,
            "gates_after": result.gates_after,
            "events_before": result.events_before,
            "events_after": result.events_after,
            "rewrites": result.counts_by_kind(),
            "verified_scopes": result.verified_scopes,
            "rounds": result.rounds,
            "budget_hit": result.budget_hit,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{sdft.name}: {result.gates_before} -> {result.gates_after} gates, "
            f"{result.events_before} -> {result.events_after} events "
            f"({result.rounds} rounds, {result.verified_scopes} scopes "
            f"BDD-verified)"
        )
        for kind, count in sorted(result.counts_by_kind().items()):
            print(f"  {count:4d}x {kind}")
        if not result.changed:
            print("  no verified rewrites apply; the model is already tight")
        if result.budget_hit:
            print(
                "  note: the BDD node budget tripped; unverifiable rewrites "
                "were discarded (raise --node-budget to verify more)"
            )
    if args.output:
        save_model(result.model, args.output)
        print(f"simplified model written to {args.output}")
    if args.check and result.budget_hit:
        print(
            "check failed: the node budget prevented full verification",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_mcs(args: argparse.Namespace) -> int:
    model = _load_any(args.model)
    if isinstance(model, SdFaultTree):
        from repro.core.to_static import to_static

        tree = to_static(model, args.horizon).tree
    else:
        tree = model
    result = mocus(tree, MocusOptions(cutoff=args.cutoff))
    cutsets = result.cutsets
    print(f"{len(cutsets)} minimal cutsets above {args.cutoff:g}")
    print(f"rare-event sum: {cutsets.rare_event():.3e}")
    print(f"size histogram: {cutsets.size_histogram()}")
    for i in range(min(args.limit, len(cutsets))):
        print(f"  {cutsets.probability_of(i):.3e}  {' '.join(sorted(cutsets[i]))}")
    return 0


def _cmd_importance(args: argparse.Namespace) -> int:
    model = _load_any(args.model)
    if isinstance(model, SdFaultTree):
        from repro.core.to_static import to_static

        tree = to_static(model, args.horizon).tree
    else:
        tree = model
    cutsets = mocus(tree, MocusOptions(cutoff=args.cutoff)).cutsets
    measures = importance(cutsets)
    ranked = sorted(measures.values(), key=lambda m: -m.fussell_vesely)
    header = f"{'event':40s} {'FV':>10s} {'Birnbaum':>10s} {'RAW':>10s} {'RRW':>10s}"
    print(header)
    for m in ranked[: args.limit]:
        print(
            f"{m.event:40s} {m.fussell_vesely:10.3e} {m.birnbaum:10.3e} "
            f"{m.risk_achievement_worth:10.3f} {m.risk_reduction_worth:10.3f}"
        )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.core.classify import classification_report

    sdft = _load_sdft(args.model)
    report = classification_report(sdft)
    if not report.by_gate:
        print("no triggering gates in this model")
        return 0
    print(f"{'triggering gate':40s} class")
    for gate, trigger_class in sorted(report.by_gate.items()):
        print(f"{gate:40s} {trigger_class.value}")
    print()
    if report.all_efficient:
        print(
            "all triggers are static-branching or uniform static-joins: "
            "per-cutset chains stay small"
        )
    elif report.any_general:
        print(
            "warning: general-case triggers present — the per-cutset "
            "models pull in static guards and may grow; consider "
            "'sdft analyze --degrade' to bound oversized chains"
        )
    else:
        print(
            "static joins without uniform triggering present: added "
            "trigger gates fall back to the general case"
        )
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    from repro.core.analyzer import analyze_curve

    sdft = _load_sdft(args.model)
    horizons = [float(h) for h in args.horizons.split(",") if h.strip()]
    curve = analyze_curve(
        sdft, horizons, AnalysisOptions(cutoff=args.cutoff)
    )
    print(f"{'horizon (h)':>12s} {'P(failure <= t)':>16s}")
    for horizon in sorted(curve):
        print(f"{horizon:12g} {curve[horizon]:16.3e}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.ctmc.rare import estimate_failure_probability

    sdft = _load_sdft(args.model)
    result = estimate_failure_probability(
        sdft, args.horizon, engine="crude", max_runs=args.runs, seed=args.seed
    )
    low, high = result.interval(sigmas=1.96)
    print(
        f"P(failure <= {args.horizon} h) ~= {result.estimate:.3e} "
        f"(95% CI [{low:.3e}, {high:.3e}], {result.n_failures}/{result.n_runs} runs)"
    )
    return 0


def _cmd_demo_bwr(args: argparse.Namespace) -> int:
    from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

    if args.triggers == "all":
        triggers: tuple[str, ...] = TRIGGER_STAGES
    elif args.triggers == "none":
        triggers = ()
    else:
        triggers = tuple(s.strip() for s in args.triggers.split(",") if s.strip())
    sdft = build_bwr(
        BwrConfig(
            triggers=triggers,
            repair_rate=args.repair_rate,
            phases=args.phases,
        )
    )
    if args.save:
        save_model(sdft, args.save)
        print(f"saved {sdft!r} to {args.save}")
        return 0
    result = analyze(
        sdft,
        AnalysisOptions(
            horizon=args.horizon,
            cutoff=args.cutoff,
            jobs=args.jobs,
            trace_path=args.trace,
            collect_metrics=args.metrics,
        ),
    )
    print(result.summary())
    if args.trace:
        print(f"trace written to {args.trace} (inspect with: sdft trace {args.trace})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import render_trace_report

    print(render_trace_report(args.trace_file))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.robust.chaos import run_campaign

    if args.model is not None:
        sdft = _load_sdft(args.model)
    else:
        from repro.models.bwr import build_bwr

        sdft = build_bwr()
    if args.catalog == "service":
        from repro.service.chaos import run_service_campaign

        report = run_service_campaign(
            sdft,
            options=AnalysisOptions(horizon=args.horizon, cutoff=args.cutoff),
        )
        print(report.summary())
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
            print(f"campaign report written to {args.report}")
        return 0 if report.ok else 1
    report = run_campaign(
        sdft,
        runs=args.runs,
        seed=args.seed,
        options=AnalysisOptions(horizon=args.horizon, cutoff=args.cutoff),
        verify=args.verify,
        jobs=args.jobs,
    )
    print(report.summary())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"campaign report written to {args.report}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import ServiceDaemon

    options = AnalysisOptions(
        horizon=args.horizon,
        cutoff=args.cutoff,
        jobs=args.jobs,
        cache_dir=_resolve_cache_dir(args),
    )
    daemon = ServiceDaemon(
        options,
        journal_path=args.journal,
        max_queue=args.max_queue,
        workers=args.workers,
        trace_path=args.request_trace,
    )
    return daemon.serve()


if __name__ == "__main__":
    sys.exit(main())
