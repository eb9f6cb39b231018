"""The SD analyzer benchmark: closed-loop workloads with layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bwr-cold --seed 1 --seconds 35 --trace 0

``--seconds`` bounds the time spent in requests and set-ups together;
set-ups take about a third of it (``SETUP_SHARE``).  ``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps every layer's entry point (see ``bench_trace.py``),
traces every other block of four requests, writes the spans as a ``repro-trace/1``
file under ``.perfbench/traces/`` (summarise it with ``sdft trace
FILE``) and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Earlier lines give host context, sample counts and the
latency of each request part.

Every served answer is checked (see ``bench_workloads.py``); answers of
the seeds recorded in ``reference.json`` must also match the recorded
cutset family digest exactly, the recorded probability within 1e-6
relative, and the recorded counts exactly.  ``--record-reference``
adds this run's answers to that file.

``--tiny`` runs every workload on the small cooling model (the smoke
test's mode, see ``smoke.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SCHEMA = "perfbench-reference/1"

#: Share of a run's measured time given to set-up repeats.  Each repeat
#: sets up a fresh workload of the same seed between two requests, so
#: the set-up samples span the whole run like the request samples do;
#: ``setup_s`` is their median.
SETUP_SHARE = 0.3

#: Relative tolerance of a served probability against its reference.
PROBABILITY_RTOL = 1e-6

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_s.p50": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  ``*.busy_s`` is a
#: layer's self time and every count is per traced request.  The cache
#: times include the record (de)serialisation around ``get_*``/``put_*``.
PER_LAYER = {
    "to_static.busy_s": "s",
    "worst_case.busy_s": "s",
    "mocus.busy_s": "s",
    "mocus.cutsets": "count",
    "mocus.partials_expanded": "count",
    "mocus.yield": "ratio",
    "incremental.busy_s": "s",
    "incremental.retruncate": "count",
    "incremental.modular": "count",
    "incremental.full": "count",
    "cutset_model.busy_s": "s",
    "cutset_model.calls": "count",
    "quantify.busy_s": "s",
    "fingerprint.busy_s": "s",
    "dedup.unique_solves": "count",
    "dedup.ratio": "ratio",
    "product.busy_s": "s",
    "product.calls": "count",
    "product.states": "count",
    "transient.busy_s": "s",
    "transient.calls": "count",
    "pool.busy_s": "s",
    "pool.tasks": "count",
    "cache.read_s": "s",
    "cache.write_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "classify.busy_s": "s",
    "analyzer.self_s": "s",
    "analyzer.coverage": "ratio",
    "trace.overhead_s": "s",
    "warm_analysis_s.p50": "s",
    "whatif_lower_s.p50": "s",
    "whatif_raise_s.p50": "s",
}

#: Layers whose self time is reported as ``<name>.busy_s``.
BUSY_LAYERS = (
    "to_static", "worst_case", "mocus", "incremental", "cutset_model",
    "quantify", "fingerprint", "product", "transient", "pool", "classify",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="use the small cooling model (smoke test)")
    parser.add_argument("--record-reference", action="store_true",
                        help="add this run's answers to reference.json")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no analyzer sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    try:
        report = run(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def run(args, workdir: str) -> dict:
    import bench_trace
    from bench_workloads import make_workload

    print("host: " + json.dumps(host_context()))
    setups: list[float] = []

    def timed_setup():
        """Set up a fresh workload of this run's seed, timing it."""
        fresh = make_workload(args.workload, args.seed, args.tiny, workdir)
        started = time.perf_counter()
        fresh.setup()
        setups.append(time.perf_counter() - started)
        return fresh

    workload = timed_setup()
    try:
        tracer = bench_trace.LayerTracer() if args.trace else None
        requests = []
        failures: dict[int, list] = {}
        timed_total = 0.0
        wall_limit = time.perf_counter() + 2.0 * args.seconds + 20.0
        index = 0
        while index == 0 or (timed_total + sum(setups) < args.seconds
                             and time.perf_counter() < wall_limit):
            if sum(setups) < SETUP_SHARE * (timed_total + sum(setups)):
                timed_setup().close()
                continue
            # Alternate blocks of four, so that traced and untraced
            # requests see the same mix of what-if edits (one raise in 4).
            traced = tracer is not None and (index // 4) % 2 == 1
            started = time.perf_counter()
            try:
                timed = (
                    functools.partial(_traced_region, tracer, index)
                    if traced else contextlib.nullcontext
                )
                request = workload.request(index, timed)
            except Exception as error:
                traceback.print_exc()
                failures[index] = [f"{type(error).__name__}: {error}"]
                timed_total += time.perf_counter() - started
                index += 1
                continue
            request.traced = traced
            if traced:
                request.trace_counts = trace_counts(tracer, index)
            timed_total += request.latency
            requests.append(request)
            index += 1
    finally:
        workload.close()

    for request in requests:
        if request.error:
            failures.setdefault(request.index, []).append(request.error)
    for request_index, problems in check_references(args, requests).items():
        failures.setdefault(request_index, []).extend(problems)
    for request_index, problems in sorted(failures.items()):
        for problem in problems:
            print(f"FAILED request {request_index}: {problem}", file=sys.stderr)
    attempted = index
    failed = len(failures)

    print("host at end: " + json.dumps(host_context()))
    describe(args, setups, requests, attempted, failed)
    if args.trace:
        metrics = layer_metrics(tracer, requests)
        correct = not failures and export_trace(args, tracer)
        chosen = PER_LAYER
    else:
        metrics = end_to_end_metrics(setups, requests)
        correct = not failures
        chosen = END_TO_END
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in chosen.items()
        },
    }


@contextlib.contextmanager
def _traced_region(tracer, index: int):
    tracer.request = index
    with tracer.installed(), tracer.span("request"):
        yield


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-share * len(ordered) // 1))))
    return ordered[rank - 1]


def part_latencies(requests: list, part: str) -> list:
    return [value for r in requests for value in r.parts.get(part, ())]


def end_to_end_metrics(setups: list, requests: list) -> dict:
    latencies = [r.latency for r in requests]
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "latency_s.p50": statistics.median(latencies) if latencies else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def trace_counts(tracer, index: int) -> dict:
    """Exact counts one traced request produced (self-checked)."""
    counts = {"mocus.cutsets": 0, "mocus.partials_expanded": 0,
              "product.states": 0}
    for span in tracer.spans:
        if span.request != index:
            continue
        if span.name == "mocus":
            counts["mocus.cutsets"] += span.attrs["cutsets"]
            counts["mocus.partials_expanded"] += span.attrs["partials_expanded"]
        elif span.name == "product":
            counts["product.states"] += span.attrs["states"]
    return counts


def layer_metrics(tracer, requests: list) -> dict:
    import bench_trace

    traced = [r for r in requests if r.traced]
    plain = [r for r in requests if not r.traced] or requests
    n = max(1, len(traced))
    spans = tracer.spans
    selfs = bench_trace.self_times(spans)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    analyzer_wall = 0.0
    attrs_sum: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        busy[span.name] = busy.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name == "analyzer":
            analyzer_wall += span.end - span.start
        for key in ("cutsets", "partials_expanded", "minimal", "states"):
            if key in span.attrs:
                name = f"{span.name}.{key}"
                attrs_sum[name] = attrs_sum.get(name, 0) + span.attrs[key]
        if span.name == "cache.read":
            key = "cache.hits" if span.attrs["hit"] else "cache.misses"
            attrs_sum[key] = attrs_sum.get(key, 0) + 1

    metrics = {f"{layer}.busy_s": busy.get(layer, 0.0) / n for layer in BUSY_LAYERS}
    answers = [a for r in traced for a in r.answers]
    modes = [a.counts.get("mode") for a in answers]
    unique = sum(a.counts["unique_solves"] for a in answers)
    dynamic = sum(a.counts["dynamic_solves"] for a in answers)
    partials = attrs_sum.get("mocus.partials_expanded", 0)
    metrics.update({
        "mocus.cutsets": attrs_sum.get("mocus.cutsets", 0) / n,
        "mocus.partials_expanded": partials / n,
        "mocus.yield": attrs_sum.get("mocus.minimal", 0) / partials if partials else 0.0,
        "incremental.retruncate": modes.count("retruncate") / n,
        "incremental.modular": modes.count("modular") / n,
        "incremental.full": modes.count("full") / n,
        "cutset_model.calls": calls.get("cutset_model", 0) / n,
        "dedup.unique_solves": unique / n,
        "dedup.ratio": 1.0 - unique / dynamic if dynamic else 0.0,
        "product.calls": calls.get("product", 0) / n,
        "product.states": attrs_sum.get("product.states", 0) / n,
        "transient.calls": calls.get("transient", 0) / n,
        "pool.tasks": calls.get("pool.task", 0) / n,
        "cache.read_s": (busy.get("cache.read", 0.0) + busy.get("cache.decode", 0.0)) / n,
        "cache.write_s": (busy.get("cache.write", 0.0) + busy.get("cache.encode", 0.0)) / n,
        "cache.hits": attrs_sum.get("cache.hits", 0) / n,
        "cache.misses": attrs_sum.get("cache.misses", 0) / n,
        "analyzer.self_s": busy.get("analyzer", 0.0) / n,
        "analyzer.coverage": (
            1.0 - busy.get("analyzer", 0.0) / analyzer_wall
            if analyzer_wall else 0.0
        ),
        "trace.overhead_s": (
            statistics.median(r.latency for r in traced)
            - statistics.median(r.latency for r in plain)
            if traced else 0.0
        ),
    })
    for metric, part in (("warm_analysis_s.p50", "warm"),
                         ("whatif_lower_s.p50", "lower"),
                         ("whatif_raise_s.p50", "raise")):
        values = part_latencies(plain, part)
        metrics[metric] = statistics.median(values) if values else 0.0
    return metrics


def export_trace(args, tracer) -> bool:
    """Write and validate the run's ``repro-trace/1`` file."""
    import bench_trace
    from repro.obs.export import validate_trace_file

    directory = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(directory, exist_ok=True)
    suffix = "-tiny" if args.tiny else ""
    # One file per workload: a full-size trace is some 20 MB.
    path = os.path.join(directory, f"{args.workload}{suffix}.jsonl")
    bench_trace.export(
        tracer, path,
        {"workload": args.workload, "seed": args.seed, "tiny": args.tiny},
    )
    try:
        counts = validate_trace_file(path)
    except ValueError as error:
        print(f"FAILED trace {path}: {error}", file=sys.stderr)
        return False
    print(f"trace: {os.path.relpath(path, ROOT)} ({counts['spans']} spans)")
    return True


# ----------------------------------------------------------------------
# Reference answers and the exact-count self-check
# ----------------------------------------------------------------------


def _entry(request) -> dict:
    entry = {
        "answers": [
            {"digest": a.digest, "probability": a.probability,
             "counts": a.counts}
            for a in request.answers
        ]
    }
    if request.trace_counts:
        entry["trace_counts"] = request.trace_counts
    return entry


def _compare(recorded: dict, served: dict, where: str) -> list:
    problems = []
    if len(recorded["answers"]) != len(served["answers"]):
        return [f"{where}: {len(served['answers'])} answers, reference has "
                f"{len(recorded['answers'])}"]
    for number, (old, new) in enumerate(zip(recorded["answers"], served["answers"])):
        if old["digest"] != new["digest"]:
            problems.append(f"{where} answer {number}: cutset family digest "
                            f"{new['digest']} != reference {old['digest']}")
        scale = max(abs(old["probability"]), 1e-300)
        if abs(new["probability"] - old["probability"]) > PROBABILITY_RTOL * scale:
            problems.append(f"{where} answer {number}: probability "
                            f"{new['probability']!r} != reference "
                            f"{old['probability']!r}")
        problems += _count_drift(old["counts"], new["counts"], f"{where} answer {number}")
    problems += _count_drift(recorded.get("trace_counts", {}),
                             served.get("trace_counts", {}), where)
    return problems


def _count_drift(old: dict, new: dict, where: str) -> list:
    return [
        f"{where}: count {key} = {new[key]!r} does not repeat the "
        f"reference {old[key]!r}"
        for key in sorted(set(old) & set(new))
        if old[key] != new[key]
    ]


def check_references(args, requests: list) -> dict:
    """Compare answers with ``reference.json``; optionally extend it.

    Returns the problems found, by request index.
    """
    if args.tiny:
        return {}
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
    except FileNotFoundError:
        reference = {"schema": REFERENCE_SCHEMA, "runs": {}}
    if reference.get("schema") != REFERENCE_SCHEMA:
        raise ValueError(f"{REFERENCE}: unsupported schema")
    runs = reference["runs"].setdefault(args.workload, {})
    recorded = runs.setdefault(str(args.seed), [])
    problems = {}
    for request in requests:
        served = _entry(request)
        if request.index < len(recorded):
            found = _compare(recorded[request.index], served, "reference")
            if found:
                problems[request.index] = found
            elif args.record_reference:
                old = recorded[request.index]
                if "trace_counts" in served:
                    old.setdefault("trace_counts", served["trace_counts"])
                for old_answer, new_answer in zip(old["answers"], served["answers"]):
                    for key, value in new_answer["counts"].items():
                        old_answer["counts"].setdefault(key, value)
        elif args.record_reference and request.index == len(recorded) and not request.error:
            recorded.append(served)
    if args.record_reference and not problems:
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return problems


# ----------------------------------------------------------------------
# Context and human-readable report
# ----------------------------------------------------------------------


def host_context() -> dict:
    """nproc, CPU model and a fixed pure-Python calibration loop time."""
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def loop() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return time.perf_counter() - started

    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "calibration_s": statistics.median(loop() for _ in range(7)),
    }


def describe(args, setups, requests, attempted, failed) -> None:
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} "
          f"tiny={args.tiny}")
    print(f"setup_s: median of {len(setups)}: "
          + ", ".join(f"{s:.4f}" for s in setups))
    latencies = [r.latency for r in requests]
    rows = [("request", latencies)]
    for part in ("cold", "warm", "analysis", "lower", "raise"):
        values = part_latencies(requests, part)
        if values:
            rows.append((part, values))
    for name, values in rows:
        line = (f"latency {name}: n={len(values)} "
                f"p50={statistics.median(values):.4f}s")
        # A tail percentile is named only with >= 10 samples beyond it.
        for share in (0.8, 0.9):
            if len(values) * (1.0 - share) >= 10:
                line += f" p{int(share * 100)}={percentile(values, share):.4f}s"
        print(line)
    print(f"samples: setup_s={len(setups)} requests_per_s={len(latencies)} "
          f"latency_s.p50={len(latencies)} peak_rss_mb=1")
    ratio = failed / attempted if attempted else 0.0
    print(f"error_ratio: {ratio:.4f} ({failed}/{attempted})")


if __name__ == "__main__":
    sys.exit(main())
