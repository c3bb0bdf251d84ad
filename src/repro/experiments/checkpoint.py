"""Append-only cell-result journals: the checkpoint/resume layer of the matrix runner.

A journal is a JSONL file the runner appends to as cells reach a terminal state, so a
matrix run killed at any point leaves a usable record of everything it finished. The
first line is a header binding the journal to its spec — a digest over the spec's
canonical JSON plus every expanded cell key — and each subsequent line is one cell
record carrying the full metric payload, its integrity digest, and the execution
diagnostics (pid, attempts, fault history, wall-clock duration) that stay out of the
aggregate.

``repro matrix --resume <journal>`` reloads the journal, verifies the digest matches
the spec being run (a resumed journal from a *different* spec is an error, not a
silent partial run), replays terminal cells from their journalled payloads and
executes only the rest. Because cell results are pure functions of the root seed and
the cell key, and :meth:`~repro.metrics.payload.MetricPayload.from_json_dict` exactly
inverts :meth:`~repro.metrics.payload.MetricPayload.to_json_dict`, the resumed
aggregate is byte-identical to an uninterrupted run — CI enforces exactly that.

Tolerance: a process killed mid-write leaves a truncated final line; the loader drops
it (the cell simply re-runs). ``ok`` and ``failed`` (deterministic exception) records
are terminal; ``degraded`` cells — retries exhausted on transient faults — are NOT
treated as terminal on resume, because a fresh run may well succeed where a flaky
machine gave up.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, IO, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.matrix import MatrixSpec

#: Schema tag of the journal header line.
JOURNAL_SCHEMA = "repro-matrix-journal-v1"

#: Cell statuses that a resume may replay instead of re-running. ``degraded`` is
#: deliberately absent: transient-fault exhaustion is worth another try on resume.
TERMINAL_STATUSES = ("ok", "failed")


def spec_digest(spec: MatrixSpec) -> str:
    """Content digest binding a journal to a spec.

    Hashes the spec's canonical JSON *and* the expanded cell keys, so any change that
    alters the grid — axis values, variant mode, a timeline preset edit (cell keys
    embed timeline digests) — invalidates old journals instead of half-resuming them.
    """
    canonical = json.dumps(
        {
            "spec": spec.spec_json_dict(),
            "cells": [cell.key for cell in spec.cells()],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class JournalWriter:
    """Appends cell records to a journal file, one flushed JSON line per record.

    With ``resume=False`` (a fresh run) any pre-existing file is truncated and a new
    header written; with ``resume=True`` the writer appends after the journal's
    current contents — how a resumed run keeps extending the journal it resumed from.
    """

    def __init__(
        self, path: Path, spec: MatrixSpec, total_cells: int, resume: bool = False
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        digest = spec_digest(spec)
        fresh = (
            not resume or not self.path.exists() or self.path.stat().st_size == 0
        )
        if resume and not fresh:
            _repair_truncated_tail(self.path)
        mode = "a" if resume else "w"
        self._handle: Optional[IO[str]] = open(self.path, mode, encoding="utf-8")
        if fresh:
            self._write_line(
                {
                    "schema": JOURNAL_SCHEMA,
                    "spec_digest": digest,
                    "root_seed": spec.root_seed,
                    "total_cells": total_cells,
                }
            )

    def _write_line(self, record: Dict) -> None:
        if self._handle is None:  # pragma: no cover - write-after-close is a bug
            raise ExperimentError(f"journal {self.path} is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        # Flush per record: the whole point is surviving an abrupt kill.
        self._handle.flush()

    def record_cell(
        self,
        key: str,
        seed: int,
        status: str,
        payload_json: Optional[Dict] = None,
        payload_digest: Optional[str] = None,
        error: Optional[str] = None,
        duration_s: float = 0.0,
        pid: Optional[int] = None,
        attempts: int = 1,
        faults: Optional[List[str]] = None,
    ) -> None:
        """Append one finished cell (terminal or degraded) to the journal."""
        record: Dict[str, object] = {
            "kind": "cell",
            "key": key,
            "seed": seed,
            "status": status,
            "duration_s": round(duration_s, 6),
            "pid": pid,
            "attempts": attempts,
            "faults": list(faults or ()),
        }
        if payload_json is not None:
            record["payload"] = payload_json
        if payload_digest is not None:
            record["payload_digest"] = payload_digest
        if error is not None:
            record["error"] = error
        self._write_line(record)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _repair_truncated_tail(path: Path) -> None:
    """Drop a truncated (mid-write-killed) final line before appending to a journal.

    Without this, resume-in-place would append its first record straight onto the
    half-written line, corrupting both. A missing final newline after a *complete*
    line is repaired the same way the loader reads it: the line is kept.
    """
    text = path.read_text(encoding="utf-8")
    if not text:
        return
    lines = text.splitlines()
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        lines = lines[:-1]
    repaired = "".join(line + "\n" for line in lines)
    if repaired != text:
        path.write_text(repaired, encoding="utf-8")


def load_journal(path: Path) -> Tuple[Dict[str, object], Dict[str, Dict]]:
    """Read a journal: ``(header, {cell key: last record})``.

    A truncated trailing line (the run was killed mid-write) is dropped silently; a
    malformed line anywhere *else* is an error — that's corruption, not a kill. When
    a cell appears more than once (a resumed run re-ran a degraded cell), the last
    record wins.
    """
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"journal not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ExperimentError(f"journal {path} is empty")

    records: List[Dict] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # truncated by a mid-write kill; the cell just re-runs
            raise ExperimentError(
                f"journal {path} line {index + 1} is corrupt (not trailing truncation)"
            ) from None
        if not isinstance(record, dict):
            raise ExperimentError(f"journal {path} line {index + 1} is not an object")
        records.append(record)

    if not records:
        raise ExperimentError(f"journal {path} holds no readable records")
    header = records[0]
    if header.get("schema") != JOURNAL_SCHEMA:
        raise ExperimentError(
            f"journal {path} has schema {header.get('schema')!r}; "
            f"expected {JOURNAL_SCHEMA!r}"
        )

    cells: Dict[str, Dict] = {}
    for record in records[1:]:
        if record.get("kind") != "cell" or "key" not in record:
            continue
        cells[str(record["key"])] = record
    return header, cells


def load_resumable(path: Path, spec: MatrixSpec) -> Dict[str, Dict]:
    """The journal's terminal cell records, keyed by cell key, verified against ``spec``.

    Raises when the journal was written for a different spec (digest mismatch) — the
    derived seeds would differ and a mixed aggregate would be silently wrong. Records
    with non-terminal statuses (``degraded``) are excluded so resume re-runs them.
    """
    header, cells = load_journal(path)
    expected = spec_digest(spec)
    recorded = header.get("spec_digest")
    if recorded != expected:
        raise ExperimentError(
            f"journal {path} was written for a different spec "
            f"(journal digest {recorded}, this spec {expected}); "
            "resume requires the identical matrix spec"
        )
    known_keys = {cell.key for cell in spec.cells()}
    return {
        key: record
        for key, record in cells.items()
        if key in known_keys and record.get("status") in TERMINAL_STATUSES
    }
