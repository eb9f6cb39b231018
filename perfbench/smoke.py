"""Smoke test of the benchmark itself (seconds, small cooling model).

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` in ``--tiny`` mode, untraced
and traced, and checks that

* each run exits 0 and reports ``correct`` with no failed request;
* the last output line carries exactly the end-to-end (untraced) or
  per-layer (traced) metrics ``BENCHMARK.json`` declares, with the
  declared units and numeric values;
* a traced run leaves a valid ``repro-trace/1`` file behind;
* the served answers are the same with and without tracing.

It also checks that the benchmark refuses to run, without printing a
result, when the analyzer sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT = 180


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, str]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
    return completed.returncode, completed.stdout


def check_result(stdout: str, declared: list, what: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], what
    assert result["correct"] is True, f"{what}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, what
    names = [entry["name"] for entry in declared]
    assert sorted(result["metrics"]) == sorted(names), (
        f"{what}: metrics {sorted(result['metrics'])} != declared {sorted(names)}"
    )
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], f"{what}: unit of {entry['name']}"
        assert isinstance(metric["value"], (int, float)), f"{what}: {entry['name']}"
    return result


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.obs.export import validate_trace_file

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        code, out = run_bench(workload, 0)
        assert code == 0, f"{workload}: exit {code}"
        check_result(out, spec["end_to_end"], f"{workload} untraced")
        code, out = run_bench(workload, 1)
        assert code == 0, f"{workload} traced: exit {code}"
        check_result(out, spec["per_layer"], f"{workload} traced")
        trace = os.path.join(
            ROOT, ".perfbench", "traces", f"{workload}-tiny.jsonl"
        )
        counts = validate_trace_file(trace)
        assert counts["spans"] > 0, f"{workload}: empty trace"
        print(f"ok {workload}: {counts['spans']} spans in {trace}")

    # Tracing must not change a served answer: the same requests, traced
    # and untraced, give bit-identical results (compared in-process).
    sys.path.insert(0, HERE)
    import contextlib

    import bench_trace
    import bench_workloads

    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        for name in bench_workloads.WORKLOADS:
            served = []
            for traced in (False, True):
                workload = bench_workloads.make_workload(name, 7, True, workdir)
                workload.setup()
                tracer = bench_trace.LayerTracer()
                timed = tracer.installed if traced else contextlib.nullcontext
                try:
                    served.append([
                        workload.request(index, timed).answers
                        for index in range(3)
                    ])
                finally:
                    workload.close()
            assert served[0] == served[1], f"{name}: tracing changed an answer"
            print(f"ok {name}: traced answers identical")

    # Without the analyzer sources the benchmark must fail, printing nothing.
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT,
        )
        assert completed.returncode != 0 and not completed.stdout.strip()
        print("ok: refuses to run without the analyzer sources")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
