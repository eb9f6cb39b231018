"""Signature-based deduplication of per-cutset solves.

Identical ``FT_C`` shapes recur massively across a cutset list — the
same redundant trains appear in thousands of cutsets.  The serial
pipeline exploits that incidentally through a solve cache; for parallel
execution the grouping must happen *up front*, so the pool is handed
exactly one task per unique model instead of racing duplicate solves.

A :class:`DedupPlan` collects dynamic cutset models keyed by their
:func:`~repro.perf.fingerprint.model_signature` and exposes the unique
groups in deterministic first-seen order, plus the dedup statistics the
run report surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DedupPlan", "ModelGroup"]


@dataclass
class ModelGroup:
    """All cutsets sharing one quantification problem.

    ``representative`` is the :class:`~repro.core.cutset_model.CutsetModel`
    of the first member — its ``model`` is the one handed to a solver.
    """

    key: tuple
    representative: object
    members: list[frozenset] = field(default_factory=list)

    @property
    def n_members(self) -> int:
        """Number of cutsets answered by this group's single solve."""
        return len(self.members)


class DedupPlan:
    """Deterministic grouping of dynamic cutset models by signature."""

    def __init__(self) -> None:
        self._groups: dict[tuple, ModelGroup] = {}

    def add(self, key: tuple, cutset_model) -> ModelGroup:
        """Register one dynamic cutset model under its signature.

        The first model registered for a key becomes the group's
        representative; later members only extend the fold list.
        """
        group = self._groups.get(key)
        if group is None:
            group = ModelGroup(key, cutset_model)
            self._groups[key] = group
        group.members.append(cutset_model.cutset)
        return group

    def get(self, key: tuple) -> ModelGroup:
        """The group registered under ``key``."""
        return self._groups[key]

    @property
    def groups(self) -> list[ModelGroup]:
        """All groups, in deterministic first-seen order."""
        return list(self._groups.values())

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def n_models(self) -> int:
        """Total dynamic models registered (duplicates included)."""
        return sum(group.n_members for group in self._groups.values())

    @property
    def n_unique(self) -> int:
        """Unique quantification problems (= solver tasks needed)."""
        return len(self._groups)

    @property
    def dedup_ratio(self) -> float:
        """Fraction of dynamic solves avoided by sharing, in ``[0, 1)``."""
        total = self.n_models
        if total == 0:
            return 0.0
        return (total - self.n_unique) / total

    def __repr__(self) -> str:
        return (
            f"DedupPlan({self.n_models} models, {self.n_unique} unique, "
            f"ratio {self.dedup_ratio:.2f})"
        )
