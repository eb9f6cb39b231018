"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError`, so a
caller can catch one type to handle any library failure.  The subclasses
distinguish the three broad phases in which things can go wrong:

* building a model (:class:`ModelError` and its children),
* running an algorithm on a structurally valid model
  (:class:`AnalysisError`), and
* numerical trouble inside a solver (:class:`NumericalError`).

Model lint findings are not exceptions: :func:`repro.lint.lint` returns
them as a report, and ``sdft lint`` exits 1 on error-level findings, so
a caller gates an analysis by composing the two.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ModelError(ReproError):
    """A model is structurally invalid or being built inconsistently."""


class DuplicateNameError(ModelError):
    """Two nodes in one model were given the same name."""


class UnknownNodeError(ModelError):
    """A node name was referenced but never defined."""


class CyclicModelError(ModelError):
    """The fault-tree DAG (or its trigger-extended graph) contains a cycle."""


class InvalidProbabilityError(ModelError):
    """A probability parameter is outside ``[0, 1]``."""


class InvalidRateError(ModelError):
    """A transition rate is negative or otherwise meaningless."""


class TriggerError(ModelError):
    """The triggering structure of an SD fault tree violates an invariant.

    Raised for untriggerable chains (a triggered event whose CTMC has no
    on/off structure), multiply-triggered events, or cyclic triggering.
    """


class AnalysisError(ReproError):
    """An analysis algorithm cannot proceed on this (valid) model."""


class CutoffError(AnalysisError):
    """The cutset search exceeded its configured work limits."""


class ChainTooLargeError(AnalysisError):
    """A product chain would exceed its ``max_states`` cap.

    Raised by :func:`repro.ctmc.product.build_product`, before
    enumeration when the initial states alone exceed the cap.  The
    degradation ladder answers it on its bound rung.
    """


class NumericalError(ReproError):
    """A numerical routine failed to reach the requested accuracy."""


class BudgetExceededError(AnalysisError):
    """A cooperative resource budget ran out mid-analysis.

    Raised by budget checks inside MOCUS, the transient solver and the
    quantification loop (:mod:`repro.robust.budget`).  ``stage`` names
    the pipeline stage that hit the limit and ``partial`` optionally
    carries the work completed so far (e.g. a truncated MOCUS result),
    so callers can convert the interruption into a partial result with a
    conservative remainder bound instead of a crash.
    """

    def __init__(self, message: str, stage: str = "", partial=None) -> None:
        super().__init__(message)
        self.stage = stage
        self.partial = partial


class CheckpointError(AnalysisError):
    """A checkpoint file is unreadable or does not match the model."""


class ServiceError(AnalysisError):
    """A request to the analysis service could not be processed.

    Covers malformed protocol requests, references to unknown sessions
    and lifecycle misuse (e.g. ``reanalyze`` before any analysis).
    Raised loudly — the daemon converts it into an error *response*,
    never a silent default.
    """


class JournalError(ServiceError):
    """The service journal is corrupted beyond safe replay.

    A torn trailing record is the expected artifact of a crash and is
    tolerated (with a recovery note); a corrupt *interior* record means
    the journal cannot be trusted and raises this instead of replaying
    a guess.
    """


class BddBudgetExceeded(AnalysisError):
    """A BDD compilation grew past its node budget.

    Raised by :class:`repro.bdd.engine.BddManager` when creating one
    more node would exceed the manager's configured ``node_budget``.
    The signal is clean by design: callers (the static quantification
    in :mod:`repro.core.analyzer`, the differential cross-check oracle)
    catch it and fall back to cutset quantification instead of letting
    an exponential-in-the-worst-case compilation eat the machine.
    """


class InvariantViolation(AnalysisError):
    """A runtime self-check of the pipeline found an impossible value.

    Raised by the stage-boundary guards of :mod:`repro.robust.verify`
    (``AnalysisOptions(verify="cheap"|"full")``) when an internal
    invariant fails: a non-finite or out-of-range probability, a
    transient distribution that lost mass, an interval whose ends are
    out of order, or a per-cutset value above its static worst-case
    bound.  Deliberately a subclass of :class:`AnalysisError`, so a
    per-cutset violation routes into the degradation ladder (the cutset
    is re-answered conservatively) instead of propagating garbage —
    while a violation at a stage boundary fails the run loudly.
    """


class CrosscheckError(InvariantViolation):
    """Two independent computations of the same quantity disagree.

    Raised by :mod:`repro.robust.crosscheck` (``verify="full"``) when a
    differential check fails: an in-process re-quantification disagrees
    with a pool result, the static MCS sum disagrees with the exact BDD
    engine, or a ladder rung's interval does not bracket the rung above
    it.  Always loud — a failed cross-check means the engine is
    internally inconsistent, not that one cutset is hard.
    """


class InjectedFaultError(ReproError):
    """Default error raised by the fault-injection hook in tests.

    Deliberately *outside* the error families the degradation ladder
    recovers from unless a specific error type is injected — tests
    choose the type via :func:`repro.robust.faults.inject`.
    """
