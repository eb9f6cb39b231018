"""CI service-smoke driver: a real `sdft serve` daemon under crash fire.

Exercises the full analysis-as-a-service contract end to end, out of
process, exactly as a client would see it:

1. **Healthy phase** — start the daemon, load the BWR demo model over
   stdio, run a scripted edit / re-quantify loop, and check every
   served probability bit-for-bit against an in-process cold
   ``analyze(apply_edits(...))`` reference, and that every re-analysis
   was served incrementally (``retruncate`` or ``modular``, never a
   fall-back to the cold search).
2. **Crash phase** — start a second daemon on the *same* journal with
   the ``REPRO_SERVICE_KILL_AFTER=journal_begin:reanalyze`` chaos hook
   armed, and send a re-analysis: the daemon SIGKILLs itself between
   writing the journal ``begin`` record and committing the result.
3. **Recovery phase** — restart on the same journal and assert the
   daemon replays every completed load/edit, aborts the in-flight
   request (visible in ``stats``), and re-answers the killed request
   bit-identically to the reference.

All three daemons append to one request-trace JSONL file, which the CI
job uploads as an artifact.  Exit code 0 iff every check passes.

Usage::

    python scripts/service_smoke.py --workdir /tmp/svc [--cutoff 1e-10]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO / "src"))

from repro.core.analyzer import AnalysisOptions, analyze  # noqa: E402
from repro.models.bwr import build_bwr  # noqa: E402
from repro.models.formats import sdft_from_dict, sdft_to_dict  # noqa: E402
from repro.service.edits import apply_edits, edit_from_dict  # noqa: E402

#: The scripted what-if ladder the loop drives (applied cumulatively).
_EDIT_LADDER = [
    {"kind": "scale-rates", "event": "ECC-A-PUMP-FTR", "factor": 0.5},
    {"kind": "set-probability", "event": "ECC-A-BREAKER",
     "probability": 2e-4},
    {"kind": "scale-rates", "event": "EFW-B-PUMP-FTR", "factor": 1.5},
    # Undoes the first step: the pump's chain gets its original content
    # back, which the B pump still has, so its worst case comes from the
    # map carried across edits.
    {"kind": "scale-rates", "event": "ECC-A-PUMP-FTR", "factor": 2.0},
]
_KILL_WAIT_SECONDS = 180.0


class Client:
    """A line-oriented stdio client for one daemon subprocess."""

    def __init__(self, args: list[str], env: dict) -> None:
        self.process = subprocess.Popen(
            args,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self._next_id = 0

    def call(self, request: dict) -> dict:
        """Send one request and block for the response with its id."""
        self._next_id += 1
        request = dict(request, id=self._next_id)
        assert self.process.stdin is not None
        assert self.process.stdout is not None
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        while True:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"daemon EOF awaiting response to {request['op']!r}: "
                    f"{(self.process.stderr.read() or '').strip()}"
                )
            response = json.loads(line)
            if response.get("id") == self._next_id:
                return response

    def send_only(self, request: dict) -> None:
        """Fire a request without waiting (for the kill scenario)."""
        self._next_id += 1
        assert self.process.stdin is not None
        self.process.stdin.write(
            json.dumps(dict(request, id=self._next_id)) + "\n"
        )
        self.process.stdin.flush()

    def shutdown(self) -> None:
        response = self.call({"op": "shutdown"})
        assert response["ok"], response
        self.process.wait(timeout=60.0)
        assert self.process.stdin is not None
        self.process.stdin.close()

    def wait_killed(self) -> int:
        deadline = time.monotonic() + _KILL_WAIT_SECONDS
        while time.monotonic() < deadline:
            code = self.process.poll()
            if code is not None:
                return code
            time.sleep(0.05)
        self.process.kill()
        raise RuntimeError("daemon did not die within the kill window")


def _daemon_args(workdir: Path, cutoff: float) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--cutoff",
        str(cutoff),
        "--journal",
        str(workdir / "journal.jsonl"),
        "--request-trace",
        str(workdir / "request-trace.jsonl"),
        "--cache-dir",
        str(workdir / "solve-cache"),
    ]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_REPO / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env.pop("REPRO_SERVICE_KILL_AFTER", None)
    return env


def _check(label: str, ok: bool, detail: str = "") -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    if not ok:
        raise SystemExit(f"service smoke failed at: {label} {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None,
                        help="directory for journal/trace/cache artifacts")
    parser.add_argument("--cutoff", type=float, default=1e-10)
    parser.add_argument("--horizon", type=float, default=24.0)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="service-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    options = AnalysisOptions(horizon=args.horizon, cutoff=args.cutoff)
    daemon_args = _daemon_args(workdir, args.cutoff)

    # In-process references — on the dict round-trip of the model, so
    # numbers went through exactly the serialization the daemon sees.
    model_dict = sdft_to_dict(build_bwr())
    model = sdft_from_dict(json.loads(json.dumps(model_dict)))
    references = []
    edited = model
    for step in _EDIT_LADDER:
        edited = apply_edits(edited, [edit_from_dict(step)])
        references.append(analyze(edited, options).failure_probability)

    print("phase 1: healthy edit / re-quantify loop")
    client = Client(daemon_args, _env())
    loaded = client.call({"op": "load", "model": model_dict})
    _check("load", loaded.get("ok", False), str(loaded.get("error", "")))
    session = loaded["session"]
    cold = client.call({"op": "analyze", "session": session})
    _check(
        "cold analyze bit-identical",
        cold.get("probability") == analyze(model, options).failure_probability,
        f"served {cold.get('probability')!r}",
    )
    for step, reference in zip(_EDIT_LADDER, references):
        edit = client.call({"op": "edit", "session": session, "edits": [step]})
        _check(f"edit {step['event']}", edit.get("ok", False),
               str(edit.get("error", "")))
        warm = client.call(
            {"op": "reanalyze", "session": session, "crosscheck": True}
        )
        _check(
            f"reanalyze after {step['event']} bit-identical "
            f"(mode={warm.get('mode')})",
            warm.get("probability") == reference,
            f"served {warm.get('probability')!r} want {reference!r}",
        )
        # A reanalyze served by the cold search still answers right, so
        # only its mode shows that an incremental path stopped applying.
        _check(
            f"reanalyze after {step['event']} served incrementally",
            warm.get("mode") in ("retruncate", "modular"),
            f"mode={warm.get('mode')!r}",
        )
    client.shutdown()

    print("phase 2: SIGKILL between journal begin and commit")
    kill_env = _env()
    kill_env["REPRO_SERVICE_KILL_AFTER"] = "journal_begin:reanalyze"
    client = Client(daemon_args, kill_env)
    stats = client.call({"op": "stats"})
    _check(
        "restart replays the load and every edit",
        stats["counters"]["replayed"] == 1 + len(_EDIT_LADDER),
        json.dumps(stats["counters"]),
    )
    client.send_only({"op": "reanalyze", "session": session})
    code = client.wait_killed()
    _check("daemon SIGKILLed mid-request", code == -9, f"exit {code}")

    print("phase 3: restart, recover, re-answer")
    client = Client(daemon_args, _env())
    stats = client.call({"op": "stats"})
    _check(
        "in-flight request aborted on replay",
        stats["counters"]["aborted_in_flight"] >= 1,
        json.dumps(stats["counters"]),
    )
    _check(
        "completed history replayed again",
        stats["counters"]["replayed"] == 1 + len(_EDIT_LADDER),
        json.dumps(stats["counters"]),
    )
    answer = client.call(
        {"op": "reanalyze", "session": session, "crosscheck": True}
    )
    _check(
        "post-recovery answer bit-identical to reference",
        answer.get("probability") == references[-1],
        f"served {answer.get('probability')!r} want {references[-1]!r}",
    )
    client.shutdown()

    trace = workdir / "request-trace.jsonl"
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    _check("request trace written", len(records) >= 8, f"{len(records)} records")
    print(f"service smoke passed; trace at {trace} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
