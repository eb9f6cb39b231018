"""The stdio-JSONL analysis daemon behind ``sdft serve``.

One JSON object per line in, one JSON response object per line out
(responses carry the request ``id`` and may interleave across
requests).  Operations:

``load``        install a model (inline dict or ``path``) → session id
``analyze``     full analysis of a session's current model
``edit``        apply what-if edits to a session's model
``reanalyze``   incremental re-analysis (see :mod:`repro.service.session`)
``stats``       daemon + per-session counters
``ping``        liveness probe (never queued, answers even under load)
``shutdown``    drain and exit

Robustness contract:

- **Deadlines** (``deadline_seconds`` on analyze/reanalyze) become
  cooperative budgets: an expired request returns ``ok: true`` with
  the served ``method`` and a sound probability ``interval`` (invariant
  checked under ``verify≥cheap``) — never an error.
- **Admission control**: analysis requests queue into a bounded queue;
  when it is full the daemon answers immediately with an explicit
  ``load-shed`` error response instead of accepting work it cannot
  serve.  ``ping``/``stats``/``shutdown`` bypass the queue.
- **Circuit breaker**: runs whose health reports pool breakage count
  as failures; after ``failure_threshold`` consecutive ones the daemon
  serves requests serially (``jobs=1``) for a cooldown, noting it in
  each response.
- **Journal**: state-changing requests are journalled begin/done
  (:mod:`repro.service.journal`); a restarted daemon replays completed
  loads/edits and cleanly aborts in-flight work, reporting both via
  ``stats`` and the startup banner on stderr.

``REPRO_SERVICE_KILL_AFTER=<hook>:<op>`` (hook ``journal_begin``) is a
test/chaos hook: the daemon SIGKILLs itself right after writing the
``begin`` journal record of the first matching operation — simulating
a crash between journal write and cache commit.
"""

from __future__ import annotations

import json
import math
import os
import queue
import signal
import sys
import threading
import time
from dataclasses import replace
from typing import IO

from repro.core.analyzer import AnalysisOptions
from repro.errors import ReproError, ServiceError
from repro.core.sdft import SdFaultTree
from repro.models.formats import load_model, sdft_from_dict
from repro.service.breaker import CircuitBreaker
from repro.service.edits import edit_from_dict
from repro.service.journal import Journal, replay_journal
from repro.service.store import ModelStore

__all__ = ["ServiceDaemon"]

#: Operations that mutate daemon state and therefore get journalled.
_JOURNALLED_OPS = frozenset({"load", "edit", "analyze", "reanalyze"})
#: Operations replayed from the journal on restart (deterministic,
#: content-addressed; analyses are not re-run — their values live in
#: the persistent solve cache and are recomputed on demand).
_REPLAYED_OPS = frozenset({"load", "edit"})


class ServiceDaemon:
    """One daemon process: a model store plus the request machinery."""

    def __init__(
        self,
        options: AnalysisOptions | None = None,
        journal_path: str | None = None,
        max_queue: int = 16,
        workers: int = 1,
        trace_path: str | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = ModelStore(options)
        self.journal = Journal(journal_path) if journal_path else None
        self.max_queue = max_queue
        self.workers = workers
        self.trace_path = trace_path
        self.breaker = breaker or CircuitBreaker()
        self.recovery_notes: list[str] = []
        self.counters = {
            "requests": 0,
            "served": 0,
            "shed": 0,
            "errors": 0,
            "deadline_partials": 0,
            "replayed": 0,
            "aborted_in_flight": 0,
        }
        self._trace_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._kill_hook = os.environ.get("REPRO_SERVICE_KILL_AFTER", "")
        self._kill_fired = False
        if journal_path:
            self._recover(journal_path)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def _recover(self, journal_path: str) -> None:
        """Replay the journal (raises ``JournalError`` on corruption)."""
        replay = replay_journal(journal_path)
        self.recovery_notes.extend(replay.notes)
        top_seq = 0
        for record in replay.completed:
            top_seq = max(top_seq, record.seq)
            if record.request.get("op") not in _REPLAYED_OPS:
                continue
            try:
                self._execute(dict(record.request))
                self._count("replayed")
            except ReproError as error:
                self.recovery_notes.append(
                    f"replay of seq {record.seq} failed: {error}"
                )
        for record in replay.in_flight:
            top_seq = max(top_seq, record.seq)
            self._count("aborted_in_flight")
        if self.journal is not None:
            self.journal.restore_seq(top_seq)

    # ------------------------------------------------------------------
    # Request handling (synchronous core)
    # ------------------------------------------------------------------

    def handle_request(self, request: dict) -> dict:
        """Execute one request object and build its response object.

        Journals state-changing operations around execution; converts
        :class:`ReproError` into an error response (other exceptions
        are daemon bugs and surface as ``kind: "internal"``).
        """
        self._count("requests")
        request_id = request.get("id")
        op = str(request.get("op", ""))
        seq = None
        if self.journal is not None and op in _JOURNALLED_OPS:
            seq = self.journal.next_seq()
            self.journal.begin(seq, request)
            self._maybe_kill("journal_begin", op)
        try:
            response = self._execute(request)
        except ServiceError as error:
            self._count("errors")
            response = _error("service-error", str(error))
        except ReproError as error:
            self._count("errors")
            response = _error(type(error).__name__, str(error))
        except Exception as error:  # noqa: BLE001 - daemon must not die
            self._count("errors")
            response = _error("internal", f"{type(error).__name__}: {error}")
        else:
            self._count("served")
        if request_id is not None:
            response["id"] = request_id
        if self.journal is not None and seq is not None and response.get("ok"):
            self.journal.done(seq)
        self._trace(request, response)
        return response

    def _execute(self, request: dict) -> dict:
        op = str(request.get("op", ""))
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return self._stats_response()
        if op == "load":
            return self._do_load(request)
        if op in ("analyze", "reanalyze"):
            return self._do_analysis(request, op)
        if op == "edit":
            return self._do_edit(request)
        raise ServiceError(f"unknown operation {op!r}")

    def _do_load(self, request: dict) -> dict:
        if "model" in request:
            data = request["model"]
            if isinstance(data, dict) and data.get("kind") == "fault-tree":
                from repro.models.formats import tree_from_dict

                model = tree_from_dict(data)
            else:
                model = sdft_from_dict(data)
        elif "path" in request:
            model = load_model(str(request["path"]))
        else:
            raise ServiceError("load needs 'model' (inline) or 'path'")
        if not isinstance(model, SdFaultTree):
            raise ServiceError(
                "the service analyzes SD fault trees; got a static model"
            )
        session_id, session = self.store.load(model)
        return {
            "ok": True,
            "op": "load",
            "session": session_id,
            "fingerprint": session.fingerprint,
            "model": getattr(model, "name", ""),
        }

    def _do_edit(self, request: dict) -> dict:
        session_id = str(request.get("session", ""))
        raw = request.get("edits")
        if not raw or not isinstance(raw, list):
            raise ServiceError("edit needs a non-empty 'edits' list")
        edits = [edit_from_dict(item) for item in raw]
        with self.store.guard(session_id) as session:
            report = session.edit(*edits)
        return {
            "ok": True,
            "op": "edit",
            "session": session_id,
            "applied": len(edits),
            "fingerprint_before": report.fingerprint_before,
            "fingerprint_after": report.fingerprint_after,
            "changed": report.changed,
        }

    def _do_analysis(self, request: dict, op: str) -> dict:
        session_id = str(request.get("session", ""))
        deadline = _deadline_seconds(request)
        crosscheck = bool(request.get("crosscheck", False))
        notes: list[str] = []
        pool_allowed = self.breaker.allows_pool()
        with self.store.guard(session_id) as session:
            saved_options = session.options
            if not pool_allowed:
                session.options = replace(saved_options, jobs=1)
                notes.append(
                    "circuit breaker open: request served serially "
                    "(jobs=1) while the pool cools down"
                )
            try:
                if op == "analyze":
                    result = session.analyze(deadline_seconds=deadline)
                else:
                    result = session.reanalyze(
                        deadline_seconds=deadline, crosscheck=crosscheck
                    )
            finally:
                session.options = saved_options
            mode = session.last_mode
            fingerprint = session.fingerprint
        pool_broke = any(
            event.stage == "pool" and event.kind not in ("info",)
            for event in result.health.events
        )
        if pool_allowed:
            if pool_broke:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        deadline_expired = any(
            event.kind == "budget" for event in result.health.events
        )
        if deadline_expired:
            self._count("deadline_partials")
        interval = result.failure_probability_interval()
        return {
            "ok": True,
            "op": op,
            "session": session_id,
            "fingerprint": fingerprint,
            "probability": result.failure_probability,
            "interval": [interval[0], interval[1]],
            "method": result.method,
            "mode": mode,
            "n_cutsets": len(result.records),
            "degraded": result.is_degraded,
            "deadline_expired": deadline_expired,
            "verified": result.health.is_clean or None,
            "breaker": self.breaker.state,
            "notes": notes
            + [
                f"{event.kind}@{event.stage}: {event.message}"
                for event in result.health.events
                if event.kind not in ("info",)
            ],
        }

    def _stats_response(self) -> dict:
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "ok": True,
            "op": "stats",
            "counters": counters,
            "breaker": {
                "state": self.breaker.state,
                "trips": self.breaker.trips,
            },
            "sessions": {
                session_id: self.store.get(session_id).stats()
                for session_id in self.store.ids()
            },
            "recovery_notes": list(self.recovery_notes),
        }

    # ------------------------------------------------------------------
    # The stdio serve loop
    # ------------------------------------------------------------------

    def serve(
        self, stdin: "IO[str] | None" = None, stdout: "IO[str] | None" = None
    ) -> int:
        """Serve JSONL requests until EOF or ``shutdown``."""
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        out_lock = threading.Lock()
        work: "queue.Queue[dict | None]" = queue.Queue(maxsize=self.max_queue)
        stop = threading.Event()

        def emit(response: dict) -> None:
            with out_lock:
                stdout.write(json.dumps(response) + "\n")
                stdout.flush()

        def worker() -> None:
            while True:
                item = work.get()
                try:
                    if item is None:
                        return
                    emit(self.handle_request(item))
                finally:
                    work.task_done()

        threads = [
            threading.Thread(target=worker, daemon=True, name=f"svc-{i}")
            for i in range(self.workers)
        ]
        for thread in threads:
            thread.start()

        if self.recovery_notes:
            for note in self.recovery_notes:
                print(f"sdft serve: {note}", file=sys.stderr)

        for line in stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as error:
                self._count("errors")
                emit(_error("bad-request", f"unparseable request: {error}"))
                continue
            op = request.get("op")
            if op in ("ping", "stats"):
                # Health checks must answer even when the queue is full.
                emit(self.handle_request(request))
                continue
            if op == "shutdown":
                response = {"ok": True, "op": "shutdown"}
                if request.get("id") is not None:
                    response["id"] = request["id"]
                emit(response)
                stop.set()
                break
            try:
                work.put_nowait(request)
            except queue.Full:
                self._count("shed")
                shed = _error(
                    "load-shed",
                    f"request queue full ({self.max_queue}); retry later",
                )
                if request.get("id") is not None:
                    shed["id"] = request["id"]
                emit(shed)

        work.join()
        for _ in threads:
            work.put(None)
        for thread in threads:
            thread.join(timeout=5.0)
        if self.journal is not None:
            self.journal.close()
        return 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        with self._counter_lock:
            self.counters[name] += 1

    def _trace(self, request: dict, response: dict) -> None:
        if not self.trace_path:
            return
        entry = {
            "ts": time.time(),
            "id": request.get("id"),
            "op": request.get("op"),
            "session": request.get("session") or response.get("session"),
            "ok": response.get("ok", False),
            "error": (response.get("error") or {}).get("kind"),
            "probability": response.get("probability"),
            "mode": response.get("mode"),
            "deadline_expired": response.get("deadline_expired"),
        }
        with self._trace_lock:
            with open(self.trace_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry) + "\n")

    def _maybe_kill(self, hook: str, op: str) -> None:
        """The chaos/test crash hook (see module docstring)."""
        if self._kill_fired or not self._kill_hook:
            return
        want = self._kill_hook.split(":", 1)
        want_hook = want[0]
        want_op = want[1] if len(want) > 1 else ""
        if want_hook != hook or (want_op and want_op != op):
            return
        self._kill_fired = True
        os.kill(os.getpid(), signal.SIGKILL)


def _deadline_seconds(request: dict) -> float | None:
    """The request's ``deadline_seconds``: ``None`` or a finite number >= 0.

    A bad value is the client's error, not an unbounded run: NaN would
    never expire.
    """
    raw = request.get("deadline_seconds")
    if raw is None:
        return None
    try:
        deadline = float(raw)
    except (TypeError, ValueError):
        deadline = math.nan
    if not 0.0 <= deadline < math.inf:
        raise ServiceError(
            f"deadline_seconds must be a finite number >= 0, got {raw!r}"
        )
    return deadline


def _error(kind: str, message: str) -> dict:
    return {"ok": False, "error": {"kind": kind, "message": message}}
