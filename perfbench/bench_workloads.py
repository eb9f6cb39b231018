"""The three closed-loop, single-client workloads of the benchmark.

All of them analyse the bundled BWR study (``build_bwr`` with all six
``TRIGGER_STAGES`` and repair rate 0.05) at horizon 24 h, cutoff 1e-15.
Every request gets its own model: a seeded RNG scales every static
probability and every dynamic rate by ``2**U(-1, 1)`` through
:func:`repro.service.edits.apply_edits`, so the program only ever sees
the generated models.

* ``bwr-cold`` — one phase, ``jobs=1``, persistent cache in a fresh
  directory (the CLI default).  A request is a cold ``analyze`` of a new
  variant (cache writes included) followed by a warm re-``analyze`` of
  the same variant, which the records layer serves.  Set-up analyses
  the base model with the cache off, so the requests start on an empty
  cache.
* ``bwr-erlang`` — three Erlang phases, ``jobs=2``, cache off.  A
  request is one ``analyze`` of a new variant; the unique chain solves
  run on the process pool.
* ``bwr-whatif`` — one :class:`~repro.service.session.AnalysisSession`
  on a one-phase variant, analysed in set-up.  A request is a round of
  four try/undo pairs; a pair is one ``SetProbability`` (lowering) or
  ``ScaleRates`` (raising) edit plus ``reanalyze()``, then the inverse
  edit plus ``reanalyze()``.  Three tries in each round lower and one
  raises; factors are powers of two, so the undo restores the base
  model exactly, and the stream returns to the base model after every
  pair.

With ``tiny=True`` every workload runs on the small cooling model
instead (the smoke test's mode).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import tempfile
import time

HORIZON = 24.0
CUTOFF = 1e-15

#: Share of requests whose answer is re-derived by an independent cold
#: analysis outside the timed region (what-if and Erlang workloads).
CROSSCHECK_SHARE = 1.0 / 20.0

#: Try/undo pairs per what-if request: one round of the 3-lower, 1-raise
#: mix, so that every request does the same mix of work and the request
#: median does not jump between a cheap and a dear mode with host speed.
PAIRS_PER_REQUEST = 4


@dataclasses.dataclass
class Answer:
    """One served analysis result, reduced to what the checks compare."""

    digest: str
    probability: float
    counts: dict


@dataclasses.dataclass
class Request:
    """One completed request: timed parts, answers, check outcome."""

    index: int
    latency: float
    #: Part name -> the latencies of that part within the request.
    parts: dict
    answers: list
    error: str | None = None
    traced: bool = False
    #: Exact counts the layer tracer saw for this request (traced only).
    trace_counts: dict | None = None


def answer_of(result, **counts) -> Answer:
    """Digest of the served cutset family plus the served probability."""
    family = sorted("+".join(sorted(r.cutset)) for r in result.records)
    digest = hashlib.sha256("\n".join(family).encode()).hexdigest()[:16]
    counts = dict(counts)
    counts["cutsets"] = len(result.records)
    counts["unique_solves"] = result.perf.unique_models_solved
    counts["dynamic_solves"] = result.perf.dynamic_solves
    return Answer(digest, result.failure_probability, counts)


def cooling_model():
    """The small cooling model of the examples (tiny mode)."""
    from repro.core.sdft import SdFaultTreeBuilder
    from repro.ctmc.builders import repairable, triggered_repairable

    b = SdFaultTreeBuilder("cooling-sd")
    b.static_event("a", 3e-3).static_event("c", 3e-3)
    b.static_event("e", 3e-6)
    b.dynamic_event("b", repairable(0.001, 0.05))
    b.dynamic_event("d", triggered_repairable(0.001, 0.05))
    b.or_("pump1", "a", "b").or_("pump2", "c", "d")
    b.and_("pumps", "pump1", "pump2")
    b.or_("cooling", "pumps", "e")
    b.trigger("pump1", "d")
    return b.build("cooling")


def base_model(phases: int, tiny: bool):
    if tiny:
        return cooling_model()
    from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

    return build_bwr(
        BwrConfig(phases=phases, repair_rate=0.05, triggers=TRIGGER_STAGES)
    )


def variant(base, rng: random.Random):
    """``base`` with every probability and rate scaled by ``2**U(-1,1)``."""
    from repro.service.edits import ScaleRates, SetProbability, apply_edits

    edits = [
        SetProbability(name, event.probability * 2.0 ** rng.uniform(-1, 1))
        for name, event in sorted(base.static_events.items())
    ]
    edits += [
        ScaleRates(name, 2.0 ** rng.uniform(-1, 1))
        for name in sorted(base.dynamic_events)
    ]
    return apply_edits(base, edits)


def mismatch(served, cold, what: str) -> str | None:
    """``None`` when the two results are bit-identical, else the reason."""
    from repro.errors import CrosscheckError
    from repro.service.session import assert_bit_identical

    try:
        assert_bit_identical(served, cold)
    except CrosscheckError as error:
        return f"{what}: {error}"
    return None


class Workload:
    """Common plumbing: seeded RNG streams and the option set."""

    name = ""
    phases = 1

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.base = None

    def rng(self, *key) -> random.Random:
        return random.Random("/".join(map(str, (self.name, self.seed) + key)))

    def crosschecked(self, index: int) -> bool:
        """Whether request ``index`` gets an independent cold check."""
        return index == 0 or self.rng("check", index).random() < CROSSCHECK_SHARE

    def options(self, **changes):
        from repro.core.analyzer import AnalysisOptions

        return AnalysisOptions(horizon=HORIZON, cutoff=CUTOFF, **changes)

    def setup(self) -> None:
        """Build the model and serve its first analysis (lazy set-up)."""
        raise NotImplementedError

    def request(self, index: int, timed) -> Request:
        """Serve request ``index``; ``timed()`` brackets the timed part
        (the tracer hooks in there) and checks run outside it."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class ColdWorkload(Workload):
    name = "bwr-cold"

    def setup(self) -> None:
        from repro.core.analyzer import analyze

        self.base = base_model(self.phases, self.tiny)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        self.opts = self.options(jobs=1, cache_dir=cache_dir)
        analyze(self.base, dataclasses.replace(self.opts, cache_dir=None))

    def request(self, index: int, timed) -> Request:
        # Called through the module so that a traced region's wrapper
        # of ``analyze`` is the one that runs.
        from repro.core import analyzer

        model = variant(self.base, self.rng("variant", index))
        with timed():
            started = time.perf_counter()
            cold = analyzer.analyze(model, self.opts)
            middle = time.perf_counter()
            warm = analyzer.analyze(model, self.opts)
            ended = time.perf_counter()
        request = Request(
            index,
            ended - started,
            {"cold": [middle - started], "warm": [ended - middle]},
            [answer_of(cold)],
        )
        request.error = mismatch(warm, cold, "warm re-analysis differs from cold")
        return request


class ErlangWorkload(Workload):
    name = "bwr-erlang"
    phases = 3
    jobs = 2

    def setup(self) -> None:
        from repro.core.analyzer import analyze

        self.base = base_model(self.phases, self.tiny)
        self.opts = self.options(jobs=self.jobs)
        analyze(self.base, self.opts)

    def request(self, index: int, timed) -> Request:
        from repro.core import analyzer

        model = variant(self.base, self.rng("variant", index))
        with timed():
            started = time.perf_counter()
            served = analyzer.analyze(model, self.opts)
            latency = time.perf_counter() - started
        request = Request(
            index, latency, {"analysis": [latency]}, [answer_of(served)]
        )
        if self.crosschecked(index):
            serial = analyzer.analyze(
                model, dataclasses.replace(self.opts, jobs=1)
            )
            request.error = mismatch(served, serial, "jobs=2 differs from jobs=1")
        return request

    def close(self) -> None:
        from repro.perf.pool import shutdown_warm_farm

        shutdown_warm_farm()


class WhatIfWorkload(Workload):
    name = "bwr-whatif"

    def setup(self) -> None:
        from repro.service.session import AnalysisSession

        self.base = base_model(self.phases, self.tiny)
        model = variant(self.base, self.rng("base"))
        self.session = AnalysisSession(model, self.options(jobs=1))
        self.base_result = self.session.analyze()
        static, dynamic = sorted(model.static_events), sorted(model.dynamic_events)
        # The edit order is the same for every seed: a run reaches only
        # part of the cycle, and the cost of an edit depends on its event,
        # so seeded orders made the runs' medians differ by which events
        # they reached.  The seed still sets the base model and factors.
        rng = random.Random(f"{self.name}/order")
        self.offset = rng.randrange(4)
        self.raise_order = rng.sample(dynamic, len(dynamic))
        self.lower_order = rng.sample(static, len(static))

    def _edit_pair(self, index: int):
        """(try edit, undo edit, whether the try lowers) for ``index``.

        Every fourth try raises (at a fixed offset); the others lower.
        Raises are ``ScaleRates`` of a dynamic event and lowers are
        ``SetProbability`` of a static event, each walking its events in
        a fixed cyclic order, so every run sees the same edits whatever
        the seed.  Raises scale by 2 on the first pass over the events,
        4 on the second and 8 on the third, so each one is a first-time
        module-family build; lowers scale by 1/2 or 1/4.  Lowering
        dynamic rates too would split the pairs into two latency modes
        of similar weight, and the median would sit between them.
        """
        from repro.service.edits import ScaleRates, SetProbability

        shifted = index + self.offset
        if shifted % 4 == 3:
            raised = shifted // 4
            event = self.raise_order[raised % len(self.raise_order)]
            factor = 2.0 ** (1 + (raised // len(self.raise_order)) % 3)
            return ScaleRates(event, factor), ScaleRates(event, 1.0 / factor), False
        lowered = index - (shifted + 1) // 4
        event = self.lower_order[lowered % len(self.lower_order)]
        factor = self.rng("factor", index).choice((0.5, 0.25))
        old = self.session.model.static_events[event].probability
        return SetProbability(event, old * factor), SetProbability(event, old), True

    def request(self, index: int, timed) -> Request:
        from repro.core.analyzer import analyze

        session = self.session
        numbers = range(index * PAIRS_PER_REQUEST, (index + 1) * PAIRS_PER_REQUEST)
        pairs = [self._edit_pair(number) for number in numbers]
        parts: dict = {"lower": [], "raise": []}
        runs = []
        with timed():
            started = time.perf_counter()
            for attempt, undo, lowers in pairs:
                before = time.perf_counter()
                session.edit(attempt)
                tried = session.reanalyze()
                middle = time.perf_counter()
                tried_mode, tried_model = session.last_mode, session.model
                session.edit(undo)
                undone = session.reanalyze()
                after = time.perf_counter()
                first, second = ("lower", "raise") if lowers else ("raise", "lower")
                parts[first].append(middle - before)
                parts[second].append(after - middle)
                runs.append((tried, tried_mode, tried_model, undone, session.last_mode))
            ended = time.perf_counter()
        request = Request(index, ended - started, parts, [])
        for number, run in zip(numbers, runs):
            tried, tried_mode, tried_model, undone, undone_mode = run
            request.answers += [
                answer_of(tried, mode=tried_mode),
                answer_of(undone, mode=undone_mode),
            ]
            request.error = request.error or mismatch(
                undone, self.base_result, "undo did not restore the base"
            )
            if request.error is None and self.crosschecked(number):
                cold = analyze(tried_model, session.options)
                request.error = mismatch(tried, cold, "incremental differs from cold")
        return request


WORKLOADS = {
    cls.name: cls for cls in (ColdWorkload, ErlangWorkload, WhatIfWorkload)
}


def make_workload(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, tiny, workdir)
