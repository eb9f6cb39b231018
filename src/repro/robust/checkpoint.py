"""Checkpoint/resume for long analysis runs.

An industrial cutset list can take hours to generate and quantify; a
killed process should not throw that work away.  The analyzer
periodically snapshots its progress to a JSON file:

* during MOCUS — the frontier of partial cutsets plus the completed
  cutsets so far (phase ``"mocus"``);
* during quantification — the full cutset list plus every quantified
  record so far (phase ``"quantify"``).

A snapshot is tied to the exact analysis problem by a fingerprint of
the model structure, horizon and cutoff; resuming against a different
problem raises :class:`~repro.errors.CheckpointError` rather than
silently mixing results.  Writes are atomic (temp file + rename) so a
kill mid-write leaves the previous snapshot intact.

The quantification cache itself is *not* serialised — rebuilding it is
cheap relative to its size on disk — but every quantified record is,
which is the part that matters: on resume, already-quantified cutsets
are restored verbatim and only the remainder is solved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.quantify import McsQuantification
from repro.errors import CheckpointError
from repro.robust import faults

if TYPE_CHECKING:
    from repro.core.sdft import SdFaultTree

__all__ = [
    "CheckpointManager",
    "model_fingerprint",
    "record_from_dict",
    "record_to_dict",
]

#: Format version; bump on incompatible layout changes.
FORMAT_VERSION = 1


def model_fingerprint(sdft: SdFaultTree, horizon: float, cutoff: float) -> str:
    """A stable digest of the analysis problem a checkpoint belongs to."""
    from repro.models.formats import sdft_to_dict

    payload = {
        "model": sdft_to_dict(sdft),
        "horizon": horizon,
        "cutoff": cutoff,
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


#: Field names of a record, in declaration order (the order of the dict).
_RECORD_FIELDS = tuple(field.name for field in dataclasses.fields(McsQuantification))


def record_to_dict(record: McsQuantification) -> dict:
    """JSON-serialisable form of one quantification record.

    Built field by field: every field is an immutable scalar or a tuple
    of names, so the copy ``dataclasses.asdict`` would deep-copy through
    is not needed (it costs ten times as much per record).
    """
    data = {name: getattr(record, name) for name in _RECORD_FIELDS}
    data["cutset"] = sorted(record.cutset)
    return data


def record_from_dict(data: dict) -> McsQuantification:
    """Inverse of :func:`record_to_dict`."""
    fields = dict(data)
    fields["cutset"] = frozenset(fields["cutset"])
    # JSON turns the tuple into a list; snapshots from before the field
    # existed simply lack it (such records are never reused anyway).
    fields["dependencies"] = tuple(fields.get("dependencies", ()))
    return McsQuantification(**fields)


class CheckpointManager:
    """Throttled, atomic snapshots of one analysis run.

    ``interval_seconds`` rate-limits :meth:`maybe_save` (``0`` =
    snapshot at every opportunity, which tests use); :meth:`save`
    always writes.  The manager never *reads* implicitly — call
    :meth:`load` explicitly to resume.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: str,
        interval_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.interval_seconds = interval_seconds
        self._clock = clock
        self._last_saved: float | None = None
        self.saves = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def load(self) -> dict | None:
        """The validated snapshot payload, or ``None`` if none exists.

        Raises :class:`CheckpointError` when the file is unreadable,
        from an incompatible format version, or fingerprinted for a
        different model/horizon/cutoff.
        """
        if not self.path.exists():
            return None
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError) as error:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {error}"
            ) from error
        if data.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has format version "
                f"{data.get('version')!r}, expected {FORMAT_VERSION}"
            )
        if data.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {self.path} was written for a different "
                f"model, horizon or cutoff; refusing to resume"
            )
        return data

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def save(self, phase: str, state: dict) -> None:
        """Atomically write a snapshot for ``phase``."""
        faults.check("checkpoint", phase=phase)
        payload = {
            "version": FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "phase": phase,
            "state": state,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.path)
        self._last_saved = self._clock()
        self.saves += 1

    def maybe_save(self, phase: str, state_fn: Callable[[], dict]) -> bool:
        """Write a snapshot if the throttle interval has elapsed.

        ``state_fn`` builds the (possibly large) state lazily so
        throttled calls cost nothing.  Returns whether a write happened.
        """
        now = self._clock()
        if (
            self._last_saved is not None
            and now - self._last_saved < self.interval_seconds
        ):
            return False
        self.save(phase, state_fn())
        return True

    def clear(self) -> None:
        """Remove the snapshot (called after a successful run)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
