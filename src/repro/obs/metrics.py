"""Counters and histograms for the analysis pipeline.

A :class:`MetricsRegistry` aggregates two metric kinds:

* **counters** — monotone totals (``metrics.count(name, n)``): MOCUS
  expansions and cutoff drops, dedup hits/misses, uniformization
  early exits, ladder descents, budget charges;
* **histograms** — per-observation summaries (``metrics.observe(name,
  value)``) kept as count/total/min/max: uniformization series terms,
  pool queue waits, per-task solve times.

Design rule for the hot loops: instrumented code never calls the
registry from inside an inner loop — MOCUS and the uniformization
series aggregate into local variables (they already did, for their own
stats) and emit **once per run or per solve**.  That, plus the shared
no-op :data:`NULL_METRICS` singleton, is what keeps the disabled-path
overhead under the 2% budget asserted by
``tests/obs/test_overhead.py``.

Worker processes run their own registry and ship
:meth:`MetricsRegistry.snapshot` dictionaries back with their results;
:meth:`MetricsRegistry.merge_snapshot` folds them into the parent's so
serial and parallel runs report identical totals for the deterministic
(analysis-derived) metrics.
"""

from __future__ import annotations

__all__ = ["NULL_METRICS", "MetricsRegistry", "NullMetrics"]


class NullMetrics:
    """The disabled registry: every method is a no-op."""

    enabled = False

    def count(self, name: str, n: float = 1) -> None:
        """Discard a counter increment."""
        return None

    def observe(self, name: str, value: float) -> None:
        """Discard a histogram observation."""
        return None

    def merge_snapshot(self, snapshot: dict | None) -> None:
        """Discard a shipped worker snapshot."""
        return None

    def snapshot(self) -> dict:
        """An empty snapshot."""
        return {"counters": {}, "histograms": {}}


NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """A collecting registry for one run (or one worker's share of it)."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        # name -> [count, total, min, max]
        self._histograms: dict[str, list[float]] = {}

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        value = float(value)
        entry = self._histograms.get(name)
        if entry is None:
            self._histograms[name] = [1, value, value, value]
        else:
            entry[0] += 1
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A plain-data copy: ``{"counters": ..., "histograms": ...}``.

        Histogram entries are ``{"count", "total", "min", "max"}``
        dicts.  The snapshot is JSON- and pickle-friendly, so it can be
        shipped across process boundaries and merged with
        :meth:`merge_snapshot`.
        """
        return {
            "counters": dict(self._counters),
            "histograms": {
                name: {
                    "count": int(entry[0]),
                    "total": entry[1],
                    "min": entry[2],
                    "max": entry[3],
                }
                for name, entry in self._histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: dict | None) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, entry in snapshot.get("histograms", {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = [
                    entry["count"], entry["total"], entry["min"], entry["max"],
                ]
            else:
                mine[0] += entry["count"]
                mine[1] += entry["total"]
                if entry["min"] < mine[2]:
                    mine[2] = entry["min"]
                if entry["max"] > mine[3]:
                    mine[3] = entry["max"]
