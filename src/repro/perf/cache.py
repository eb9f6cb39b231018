"""Persistent cross-run solve cache keyed by content fingerprints.

Re-analysing an unchanged (or mostly-unchanged) model should be
near-free: the expensive artefacts of an analysis — per-model chain
solves, the MOCUS cutset list, and the full record set — are pure
functions of *content* (chain fingerprints, tree structure, solver
options), so they can be reused across processes and across days.  This
module provides the on-disk store behind ``--cache-dir``:

* **solve layer** — ``(model_signature, epsilon, max_chain_states)
  -> (probability, chain_states)``, the per-unique-model
  transient solve (:mod:`repro.perf.fingerprint` keys, the same ones
  the in-memory :class:`~repro.core.quantify.QuantificationCache` and
  the solver farm's dedup use);
* **mocus layer** — ``(tree digest, cutoff, max_partials) ->`` the
  *pre-truncation* minimal cutsets by name, re-truncated by the loading
  process so boundary floats behave exactly as a fresh local run;
* **records layer** — ``(model digest, value-affecting options) ->``
  the full record list of a clean run, the short-circuit that makes a
  warm re-analysis skip translate/MOCUS/quantify entirely;
* **bdd layer** — ``(tree digest, node budget, ordering) ->`` the exact
  BDD quantification of a static tree (probability, node count,
  ordering used, module count), keyed alongside the solve-layer entries
  so a warm static re-analysis skips compilation too.

The store is a single sqlite database (WAL mode, busy-timeout) so
concurrent analyses sharing one cache directory are safe: writers
serialise per-statement, ``INSERT OR REPLACE`` keeps entries atomic,
and readers never see a torn payload.  Every operation is wrapped so a
corrupted file, a bad payload or a locked database degrades to a cache
*miss* (counted in ``errors``) — the cache can accelerate an analysis
but can never fail one.

Correctness guards:

* every payload is stamped with :data:`SCHEMA_VERSION`; a layout change
  invalidates old entries wholesale;
* solve values are validated on read (finite, within ``[0, 1]``,
  non-negative integer state count) — an invalid row is deleted and
  reported as a miss, never served;
* nothing is *written* while fault injection is armed
  (:func:`repro.robust.faults.any_armed`), so a chaos campaign can
  never persist a corrupted value into later runs;
* reads pass the ``cache_read`` / ``cache_value`` fault stages, which is
  how ``sdft chaos`` proves a corrupted entry is caught by the P1–P4
  verification guards rather than silently served.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from typing import TYPE_CHECKING

from repro.robust import faults

if TYPE_CHECKING:
    from repro.ft.tree import FaultTree

__all__ = ["SolveCache", "default_cache_dir", "tree_digest"]

#: Payload schema version; bump on any incompatible change to the key
#: composition or payload layout — old entries then simply never match.
#: v2: records payloads carry the served method/total (BDD static
#: engine), and the bdd layer exists.
#: v3: cutoff membership is canonical (sorted-order products keep
#: boundary cutsets the old search pruned), and records carry their
#: dependency sets for incremental reuse — pre-v3 mocus/records
#: entries would re-serve the old membership, so they must miss.
SCHEMA_VERSION = 3

#: Database file name inside the cache directory.
_DB_NAME = "solve-cache.sqlite"

#: Default bound on stored entries per layer; the oldest rows are
#: evicted once it is exceeded (counted in ``evictions``).
_DEFAULT_MAX_ENTRIES = 200_000

#: How long a writer waits on a locked database before degrading to a
#: no-op (concurrent analyses sharing a cache directory).
_BUSY_TIMEOUT_MS = 2_000


def default_cache_dir() -> str:
    """The default on-disk location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def tree_digest(tree: "FaultTree") -> str:
    """A stable content digest of a static fault tree.

    Covers everything MOCUS output depends on: event probabilities,
    gate structure (type, children order, ``k``) and the top gate.
    """
    payload = {
        "events": sorted(
            (name, repr(event.probability))
            for name, event in tree.events.items()
        ),
        "gates": sorted(
            (name, gate.gate_type.value, list(gate.children), gate.k)
            for name, gate in tree.gates.items()
        ),
        "top": tree.top,
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _digest(parts: tuple) -> str:
    """Key digest: SHA-256 of the canonical ``repr`` of the key parts.

    ``repr`` of nested tuples of primitives (names, ints, floats via
    ``repr``-exact formatting, fingerprint hex strings) is canonical
    and collision-free for our key shapes.
    """
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class SolveCache:
    """The persistent four-layer cache behind ``--cache-dir``.

    Read rules, per layer: solve — every run; mocus — runs with no
    budget and no checkpoint, ``verify="full"`` included, unless a
    session supplied the cutsets; records — the same runs, but outside a
    session and not under ``verify="full"``; bdd — static models without
    a records hit, budgeted and checkpointed runs included.  While a
    fault is armed only the solve layer is read.

    One instance per analysis (cheap to open — sqlite defers real work
    to the first statement).  All hit/miss/error counters are
    per-instance, so the analyzer can report exactly what *this* run
    got out of the cache.
    """

    def __init__(
        self, cache_dir: str, max_entries: int = _DEFAULT_MAX_ENTRIES
    ) -> None:
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        self.solve_hits = 0
        self.solve_misses = 0
        self.mocus_hits = 0
        self.mocus_misses = 0
        self.records_hits = 0
        self.records_misses = 0
        self.bdd_hits = 0
        self.bdd_misses = 0
        self.errors = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None
        self._broken = False

    # ------------------------------------------------------------------
    # Connection plumbing (failures always degrade, never raise)
    # ------------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection | None:
        if self._broken:
            return None
        if self._connection is not None:
            return self._connection
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            connection = sqlite3.connect(
                os.path.join(self.cache_dir, _DB_NAME),
                timeout=_BUSY_TIMEOUT_MS / 1000.0,
                check_same_thread=False,
            )
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "  key TEXT PRIMARY KEY,"
                "  kind TEXT NOT NULL,"
                "  payload TEXT NOT NULL,"
                "  created REAL NOT NULL)"
            )
            connection.execute(
                "CREATE INDEX IF NOT EXISTS entries_kind_created "
                "ON entries (kind, created)"
            )
            connection.commit()
        except (sqlite3.Error, OSError):
            self.errors += 1
            self._broken = True
            return None
        self._connection = connection
        return connection

    def close(self) -> None:
        """Release the underlying database handle (idempotent)."""
        with self._lock:
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
                self._connection = None

    def _read(self, kind: str, key: str) -> dict | None:
        """One validated payload, or ``None``; bad rows are deleted."""
        with self._lock:
            connection = self._connect()
            if connection is None:
                return None
            try:
                row = connection.execute(
                    "SELECT payload FROM entries WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error:
                self.errors += 1
                return None
            if row is None:
                return None
            try:
                payload = json.loads(row[0])
                if not isinstance(payload, dict):
                    raise ValueError("payload is not an object")
                if payload.get("schema") != SCHEMA_VERSION:
                    raise ValueError("schema version mismatch")
            except ValueError:
                # A torn or stale payload is a *miss*: drop the row so it
                # cannot keep costing a parse failure on every lookup.
                self.errors += 1
                self._delete(connection, key)
                return None
            return payload

    def _write(self, kind: str, key: str, payload: dict) -> None:
        """Persist one payload (no-op while faults are armed or on error)."""
        if faults.any_armed():
            # A chaos campaign (or a fault-injection test) is running:
            # values in flight may be deliberately corrupted, and a
            # corrupted value must never outlive the campaign.
            return
        payload = dict(payload)
        payload["schema"] = SCHEMA_VERSION
        with self._lock:
            connection = self._connect()
            if connection is None:
                return
            try:
                connection.execute(
                    "INSERT OR REPLACE INTO entries "
                    "(key, kind, payload, created) VALUES (?, ?, ?, ?)",
                    (key, kind, json.dumps(payload), time.time()),
                )
                self._evict(connection, kind)
                connection.commit()
            except sqlite3.Error:
                self.errors += 1

    def _delete(self, connection: sqlite3.Connection, key: str) -> None:
        try:
            connection.execute("DELETE FROM entries WHERE key = ?", (key,))
            connection.commit()
        except sqlite3.Error:
            self.errors += 1

    def _evict(self, connection: sqlite3.Connection, kind: str) -> None:
        """Drop the oldest rows of ``kind`` beyond :attr:`max_entries`."""
        count = connection.execute(
            "SELECT COUNT(*) FROM entries WHERE kind = ?", (kind,)
        ).fetchone()[0]
        overflow = count - self.max_entries
        if overflow <= 0:
            return
        connection.execute(
            "DELETE FROM entries WHERE key IN ("
            "  SELECT key FROM entries WHERE kind = ?"
            "  ORDER BY created ASC LIMIT ?)",
            (kind, overflow),
        )
        self.evictions += overflow

    # ------------------------------------------------------------------
    # Solve layer
    # ------------------------------------------------------------------

    @staticmethod
    def _solve_key(signature: tuple, epsilon: float, max_chain_states: int) -> str:
        return _digest(
            ("solve", SCHEMA_VERSION, signature, epsilon, max_chain_states)
        )

    def get_solve(
        self,
        signature: tuple,
        epsilon: float,
        max_chain_states: int,
    ) -> tuple[float, int] | None:
        """Cached ``(probability, chain_states)`` for one unique model."""
        payload = self._read(
            "solve", self._solve_key(signature, epsilon, max_chain_states)
        )
        if payload is not None:
            probability = payload.get("probability")
            chain_states = payload.get("chain_states")
            if (
                isinstance(probability, float)
                and 0.0 <= probability <= 1.0
                and isinstance(chain_states, int)
                and chain_states >= 0
            ):
                self.solve_hits += 1
                # The chaos hooks: prove a corrupted-after-validation
                # value is caught by the verify guards, never served
                # silently (see repro.robust.chaos).
                faults.check("cache_read", layer="solve")
                probability = faults.corrupt(
                    "cache_value", probability, layer="solve"
                )
                return (probability, chain_states)
            self.errors += 1
        self.solve_misses += 1
        return None

    def put_solve(
        self,
        signature: tuple,
        epsilon: float,
        max_chain_states: int,
        probability: float,
        chain_states: int,
    ) -> None:
        """Persist one unique-model solve."""
        if not (
            isinstance(probability, float)
            and 0.0 <= probability <= 1.0
            and chain_states >= 0
        ):
            return  # never persist an implausible value
        self._write(
            "solve",
            self._solve_key(signature, epsilon, max_chain_states),
            {"probability": probability, "chain_states": int(chain_states)},
        )

    # ------------------------------------------------------------------
    # MOCUS layer
    # ------------------------------------------------------------------

    @staticmethod
    def _mocus_key(digest: str, cutoff: float, max_partials: int) -> str:
        return _digest(("mocus", SCHEMA_VERSION, digest, cutoff, max_partials))

    def get_mocus(
        self, digest: str, cutoff: float, max_partials: int
    ) -> list[list[str]] | None:
        """The cached pre-truncation minimal cutsets (name lists)."""
        payload = self._read(
            "mocus", self._mocus_key(digest, cutoff, max_partials)
        )
        if payload is not None:
            cutsets = payload.get("cutsets")
            if isinstance(cutsets, list) and all(
                isinstance(c, list) and all(isinstance(n, str) for n in c)
                for c in cutsets
            ):
                self.mocus_hits += 1
                faults.check("cache_read", layer="mocus")
                return cutsets
            self.errors += 1
        self.mocus_misses += 1
        return None

    def put_mocus(
        self,
        digest: str,
        cutoff: float,
        max_partials: int,
        cutsets: list[list[str]],
    ) -> None:
        """Persist one complete (non-truncated) MOCUS result."""
        self._write(
            "mocus",
            self._mocus_key(digest, cutoff, max_partials),
            {"cutsets": cutsets},
        )

    # ------------------------------------------------------------------
    # Records layer (full clean-run results)
    # ------------------------------------------------------------------

    @staticmethod
    def _records_key(fingerprint: str, options_key: tuple) -> str:
        return _digest(("records", SCHEMA_VERSION, fingerprint, options_key))

    def get_records(self, fingerprint: str, options_key: tuple) -> dict | None:
        """The full stored result of a clean prior run, or ``None``."""
        payload = self._read(
            "records", self._records_key(fingerprint, options_key)
        )
        if payload is not None:
            if isinstance(payload.get("records"), list) and isinstance(
                payload.get("static_bound"), float
            ):
                self.records_hits += 1
                faults.check("cache_read", layer="records")
                return payload
            self.errors += 1
        self.records_misses += 1
        return None

    def put_records(
        self, fingerprint: str, options_key: tuple, payload: dict
    ) -> None:
        """Persist the full record set of a clean run."""
        self._write(
            "records", self._records_key(fingerprint, options_key), payload
        )

    # ------------------------------------------------------------------
    # BDD layer (exact static quantifications)
    # ------------------------------------------------------------------

    @staticmethod
    def _bdd_key(digest: str, node_budget: "int | None") -> str:
        return _digest(("bdd", SCHEMA_VERSION, digest, node_budget))

    def get_bdd(
        self, digest: str, node_budget: "int | None"
    ) -> "tuple[float, int, str, int] | None":
        """Cached ``(probability, node_count, ordering_used, n_modules)``.

        Keyed by the static tree's content digest plus the node budget
        the automatic ordering selection ran under — the quantification
        is a pure function of those.
        """
        payload = self._read("bdd", self._bdd_key(digest, node_budget))
        if payload is not None:
            probability = payload.get("probability")
            node_count = payload.get("node_count")
            used = payload.get("ordering")
            n_modules = payload.get("n_modules")
            if (
                isinstance(probability, float)
                and 0.0 <= probability <= 1.0
                and isinstance(node_count, int)
                and node_count >= 0
                and isinstance(used, str)
                and isinstance(n_modules, int)
                and n_modules >= 0
            ):
                self.bdd_hits += 1
                faults.check("cache_read", layer="bdd")
                probability = faults.corrupt(
                    "cache_value", probability, layer="bdd"
                )
                return (probability, node_count, used, n_modules)
            self.errors += 1
        self.bdd_misses += 1
        return None

    def put_bdd(
        self,
        digest: str,
        node_budget: "int | None",
        probability: float,
        node_count: int,
        ordering_used: str,
        n_modules: int,
    ) -> None:
        """Persist one exact static quantification."""
        if not (
            isinstance(probability, float)
            and 0.0 <= probability <= 1.0
            and node_count >= 0
        ):
            return  # never persist an implausible value
        self._write(
            "bdd",
            self._bdd_key(digest, node_budget),
            {
                "probability": probability,
                "node_count": int(node_count),
                "ordering": ordering_used,
                "n_modules": int(n_modules),
            },
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counter snapshot for health lines and ``cache.*`` metrics."""
        return {
            "solve_hits": self.solve_hits,
            "solve_misses": self.solve_misses,
            "mocus_hits": self.mocus_hits,
            "mocus_misses": self.mocus_misses,
            "records_hits": self.records_hits,
            "records_misses": self.records_misses,
            "bdd_hits": self.bdd_hits,
            "bdd_misses": self.bdd_misses,
            "errors": self.errors,
            "evictions": self.evictions,
        }

    def summary(self) -> str:
        """One human-readable line for the run report."""
        parts = [
            f"cache: {self.solve_hits} solve hits / "
            f"{self.solve_misses} misses",
            f"mocus {self.mocus_hits}/{self.mocus_hits + self.mocus_misses}",
            f"records {self.records_hits}/"
            f"{self.records_hits + self.records_misses}",
        ]
        if self.bdd_hits or self.bdd_misses:
            parts.append(f"bdd {self.bdd_hits}/{self.bdd_hits + self.bdd_misses}")
        if self.errors:
            parts.append(f"{self.errors} errors (served as misses)")
        if self.evictions:
            parts.append(f"{self.evictions} evictions")
        return ", ".join(parts) + f" [{self.cache_dir}]"
