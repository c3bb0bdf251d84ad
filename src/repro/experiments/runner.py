"""Fault-tolerant sharded multiprocess execution of experiment matrices.

:func:`run_matrix` expands a :class:`~repro.experiments.matrix.MatrixSpec` into cells
and executes them either in-process (``workers=1``) or on a pool of *managed* worker
processes — one persistent process per worker slot, one cell per dispatch (shard
granularity 1, so workers stay load-balanced however uneven the cells are), with the
parent tracking exactly which cell every worker holds. That ownership tracking is what
makes the runner fault-tolerant where a ``multiprocessing.Pool`` would hang:

* **Failure classification.** An exception raised *inside* a cell runner is a
  deterministic failure — it would reproduce identically on every attempt — and is
  recorded as a ``failed`` cell, never retried. A worker that dies without returning
  (``crash``), exceeds its wall-clock budget (``timeout``, enforced by the parent's
  watchdog, which kills the worker) or returns a payload failing its integrity digest
  (``corruption``) is a *transient worker fault*: the cell is retried on a fresh
  worker with capped exponential backoff and seed-derived jitter
  (:class:`~repro.experiments.faults.RetryPolicy`).
* **Graceful degradation.** A cell that exhausts its retry budget becomes a
  ``degraded`` result carrying its attempt and fault history; the aggregate gains a
  ``degraded`` section (only when non-empty, so fault-free aggregates are unchanged
  byte for byte) and ``repro report --strict`` gates on it.
* **Checkpoint/resume.** With a journal path, every terminal cell is appended to a
  JSONL journal (:mod:`~repro.experiments.checkpoint`) as it completes;
  ``resume_from`` replays journalled cells instead of re-running them.
* **Chaos.** A :class:`~repro.experiments.faults.FaultPlan` injects seed-derived
  crashes, hangs and corruptions so all of the above is itself testable — CI runs a
  chaos mini-matrix and byte-compares its aggregate against the fault-free baseline.

Determinism contract: the aggregate produced by :func:`aggregate_json_bytes` is
byte-identical for the same spec regardless of worker count, retries, resume or
injected faults (as long as every cell ends ``ok``), because cell results are pure
functions of the root seed and cell key, results are re-sorted into spec order,
wall-clock times and pids are kept out of the aggregate, and the JSON is serialised
with sorted keys. CI relies on this (see ``scripts/gates.py``).
"""

from __future__ import annotations

import csv
import gc
import io
import json
import multiprocessing
import os
import sys
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.checkpoint import JournalWriter, load_resumable
from repro.experiments.faults import (
    CHAOS_EXIT_CODE,
    FAULT_CORRUPTION,
    FAULT_CRASH,
    FAULT_TIMEOUT,
    INJECT_CORRUPT,
    INJECT_CRASH,
    INJECT_HANG,
    FaultPlan,
    RetryPolicy,
    payload_digest,
)
from repro.experiments.matrix import SCENARIOS, CellSpec, MatrixSpec, cell_seed, run_cell
from repro.metrics.payload import MetricPayload

#: Schema tag written into every aggregate, so downstream tooling can detect drift.
#: v2 added the typed payload sections (per-cell ``histograms``/``series`` and the
#: per-group ``group_histograms``) plus the ``nat_profiles``/``loss_rates`` axes.
#: The fault-tolerance layer adds only the *conditional* ``degraded`` section, so
#: fault-free aggregates keep the v2 bytes exactly and the tag stays.
AGGREGATE_SCHEMA = "repro-matrix-aggregate-v2"

#: Watchdog budget for cells whose scenario kind declares no ``timeout_s`` of its own
#: (a generous multiple of the slowest known cell; ``--cell-timeout`` overrides).
DEFAULT_CELL_TIMEOUT_S = 300.0


@dataclass
class CellResult:
    """Outcome of one executed cell: a metric payload on success, a traceback string
    on failure, an attempt/fault history when the cell was degraded by worker faults.

    ``pid``, ``attempts``, ``faults`` and ``duration_s`` are execution diagnostics:
    they make failures diagnosable from the journal alone and never enter the
    aggregate's cell payloads (pids and wall clocks are nondeterministic; the
    aggregate must stay byte-identical across runs).
    """

    cell: CellSpec
    seed: int
    status: str  # "ok" | "failed" | "degraded"
    payload: MetricPayload = field(default_factory=MetricPayload)
    error: Optional[str] = None
    duration_s: float = 0.0  # wall clock; informational only, never aggregated
    pid: Optional[int] = None  # worker process that produced the terminal attempt
    attempts: int = 1  # total execution attempts (1 = first try succeeded)
    faults: Tuple[str, ...] = ()  # transient-fault kinds suffered along the way

    @property
    def metrics(self) -> Dict[str, float]:
        """The payload's scalar metrics (what the CSV and group summaries consume)."""
        return self.payload.scalars

    @property
    def key(self) -> str:
        return self.cell.key

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class MatrixRunResult:
    """Everything a matrix run produced: per-cell results plus the aggregate dict."""

    spec: MatrixSpec
    results: List[CellResult]
    workers: int
    wall_seconds: float
    retries: int = 0  # transient-fault retries performed across the whole run
    resumed: int = 0  # cells replayed from a journal instead of executed

    @property
    def failed(self) -> List[CellResult]:
        """Deterministically failed cells (the runner never retries these)."""
        return [r for r in self.results if r.status == "failed"]

    @property
    def degraded(self) -> List[CellResult]:
        """Cells that exhausted their retry budget on transient worker faults."""
        return [r for r in self.results if r.status == "degraded"]

    @property
    def aggregate(self) -> Dict:
        return build_aggregate(self.spec, self.results)


class ScenarioReuse:
    """Worker-local reuse of scenario-construction work across matrix cells.

    Cells within one group share their entire construction recipe except the derived
    cell seed, so the parts of scenario construction that are *not* functions of that
    seed — the validated protocol-config prototype for a parameter set, and pristine
    populated-scenario snapshots for build recipes that repeat exactly — are resolved
    once per worker process instead of being rebuilt for every cell.

    Reuse can never change results: config prototypes are read-only by the protocol
    contract (one prototype already serves every node of a scenario), snapshots are
    keyed by the full deterministic build recipe *including the seed* and handed out
    as :meth:`~repro.workload.Scenario.clone` copies, and everything seed-dependent
    is still built per cell. That is what keeps the 4-vs-1-worker byte-identical
    aggregate guarantee intact: a cache hit replays exactly the state a fresh build
    would have produced, no matter which worker served it.

    Snapshots are only captured once a recipe is requested a *second* time (cloning
    costs about as much as one small build, so speculatively snapshotting every cell
    would give the win back); repeat-heavy callers therefore pay one extra build
    before hits start. A branching kind's warmed prefix is the exception: its
    sibling cells all ask for it, so ``snapshot_first`` snapshots it on the first
    request. The snapshot store is a small LRU so long matrix runs cannot
    accumulate populations. ``builds`` and ``snapshot_hits`` count how many
    requests were built and how many were served as clones.
    """

    MAX_SNAPSHOTS = 4
    MAX_TRACKED_RECIPES = 256

    def __init__(self) -> None:
        self._configs: Dict[Tuple, object] = {}
        self._snapshots: "OrderedDict[Tuple, object]" = OrderedDict()
        self._requests: "OrderedDict[Tuple, int]" = OrderedDict()
        self.config_hits = 0
        self.builds = 0
        self.snapshot_hits = 0

    def pss_config(self, key: Tuple, build: Callable[[], object]):
        """The validated config prototype for ``key`` (built on first request)."""
        prototype = self._configs.get(key)
        if prototype is None:
            prototype = build()
            self._configs[key] = prototype
        else:
            self.config_hits += 1
        return prototype

    def populated_scenario(self, recipe: Tuple, build: Callable[[], object],
                           snapshot_first: bool = False):
        """A populated scenario for ``recipe`` — cloned from the cache on repeats."""
        snapshot = self._snapshots.get(recipe)
        if snapshot is not None:
            self._snapshots.move_to_end(recipe)
            self.snapshot_hits += 1
            return snapshot.clone()
        scenario = build()
        self.builds += 1
        count = self._requests.pop(recipe, 0) + 1
        self._requests[recipe] = count  # re-insert at the recent end
        while len(self._requests) > self.MAX_TRACKED_RECIPES:
            self._requests.popitem(last=False)
        if snapshot_first or count >= 2:
            self._snapshots[recipe] = scenario.clone()
            while len(self._snapshots) > self.MAX_SNAPSHOTS:
                self._snapshots.popitem(last=False)
        return scenario


#: One reuse cache per process: forked pool workers each get their own copy-on-write
#: instance, and the sequential (workers=1) path shares the main process's.
_WORKER_REUSE: Optional[ScenarioReuse] = None


def _worker_reuse() -> ScenarioReuse:
    global _WORKER_REUSE
    if _WORKER_REUSE is None:
        _WORKER_REUSE = ScenarioReuse()
    return _WORKER_REUSE


# ------------------------------------------------------------------ cell execution

#: Worker→parent record markers for simulated chaos in the in-process executor (the
#: sequential path cannot really kill or hang itself; the classification is shared).
_SIMULATED = "injected"


def _run_attempt(
    cell: CellSpec,
    attempt: int,
    root_seed: int,
    latency: str,
    reuse: ScenarioReuse,
    fault_plan: Optional[FaultPlan],
    in_process: bool,
) -> Dict[str, object]:
    """Execute one attempt of one cell and return the wire record the parent
    classifies. Chaos faults drawn for this attempt manifest for real in pool
    workers (``os._exit``, a long sleep the watchdog cuts short, a tampered payload)
    and as marker records in the in-process executor.
    """
    fault = fault_plan.draw(cell.key, attempt) if fault_plan is not None else None
    if fault == INJECT_CRASH:
        if in_process:
            return {"key": cell.key, _SIMULATED: INJECT_CRASH}
        os._exit(CHAOS_EXIT_CODE)
    if fault == INJECT_HANG:
        if in_process:
            return {"key": cell.key, _SIMULATED: INJECT_HANG}
        # The watchdog is expected to kill us mid-sleep; if it doesn't (timeouts
        # disabled), fall through and run the cell — a hang is a delay, not a wrong
        # answer, so byte-parity still holds.
        time.sleep(fault_plan.hang_s)

    seed = cell_seed(root_seed, cell)
    # A finished cell's scenario graph is cyclic (hosts <-> network <-> components),
    # so it is freed only by a generation-2 collection, and those are triggered by
    # allocation counts: without this, peak memory depends on how many container
    # objects the engine happens to allocate per packet, not on live state.
    gc.collect()
    started = time.perf_counter()
    try:
        payload = run_cell(cell, root_seed=root_seed, latency=latency, reuse=reuse)
    except Exception:
        return {
            "key": cell.key,
            "seed": seed,
            "status": "failed",
            "error": traceback.format_exc(limit=20),
            "duration_s": time.perf_counter() - started,
            "pid": os.getpid(),
        }
    payload_json = payload.to_json_dict()
    digest = payload_digest(payload_json)
    if fault == INJECT_CORRUPT:
        # Digest first, tamper second: the parent's integrity check must catch it.
        payload_json = fault_plan.corrupt_payload(payload_json)
    return {
        "key": cell.key,
        "seed": seed,
        "status": "ok",
        "payload": payload_json,
        "digest": digest,
        "duration_s": time.perf_counter() - started,
        "pid": os.getpid(),
    }


def _worker_main(conn, root_seed: int, latency: str, fault_plan: Optional[FaultPlan]):
    """Persistent worker loop: receive ``(cell, attempt)``, send back a record.

    The process lives across cells so the :class:`ScenarioReuse` cache stays warm;
    ``None`` (or a closed pipe) shuts it down.
    """
    # Under a spawn start method the registry is empty until the experiment modules
    # run their register_scenario() calls; importing the package triggers them.
    import repro.experiments  # noqa: F401

    reuse = _worker_reuse()
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message is None:
            break
        cell, attempt = message
        record = _run_attempt(
            cell, attempt, root_seed, latency, reuse, fault_plan, in_process=False
        )
        try:
            conn.send(record)
        except (BrokenPipeError, OSError):  # parent is gone; nothing left to do
            break
    conn.close()


def _pool_context():
    """Fork where available (fast, inherits in-process registrations), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _timeout_for(cell: CellSpec, override: Optional[float]) -> Optional[float]:
    """The watchdog budget of one cell: CLI override (``<= 0`` disables), else the
    scenario kind's declared ``timeout_s``, else the runner-wide default."""
    if override is not None:
        return override if override > 0 else None
    kind = SCENARIOS.get(cell.scenario)
    if kind is not None and kind.timeout_s is not None:
        return kind.timeout_s
    return DEFAULT_CELL_TIMEOUT_S


def _result_from_record(
    cell: CellSpec, record: Dict, attempts: int, faults: Tuple[str, ...]
) -> CellResult:
    """A terminal :class:`CellResult` from a worker's ``ok``/``failed`` record."""
    if record["status"] == "ok":
        return CellResult(
            cell=cell,
            seed=int(record["seed"]),
            status="ok",
            payload=MetricPayload.from_json_dict(record["payload"]),
            duration_s=float(record.get("duration_s", 0.0)),
            pid=record.get("pid"),
            attempts=attempts,
            faults=faults,
        )
    return CellResult(
        cell=cell,
        seed=int(record["seed"]),
        status="failed",
        error=str(record.get("error")),
        duration_s=float(record.get("duration_s", 0.0)),
        pid=record.get("pid"),
        attempts=attempts,
        faults=faults,
    )


def _degraded_result(cell: CellSpec, root_seed: int, attempts: int,
                     faults: Tuple[str, ...], pid: Optional[int]) -> CellResult:
    return CellResult(
        cell=cell,
        seed=cell_seed(root_seed, cell),
        status="degraded",
        error=(
            f"degraded: {attempts} attempt(s) exhausted by transient worker faults "
            f"({', '.join(faults)})"
        ),
        pid=pid,
        attempts=attempts,
        faults=faults,
    )


@dataclass
class _Task:
    """Parent-side execution state of one cell."""

    index: int
    cell: CellSpec
    timeout_s: Optional[float]
    attempts: int = 0  # attempts dispatched so far
    faults: List[str] = field(default_factory=list)
    eligible_at: float = 0.0  # monotonic time before which no retry dispatches
    last_pid: Optional[int] = None


class _Worker:
    """One managed worker process plus the duplex pipe the parent drives it over."""

    def __init__(self, context, root_seed: int, latency: str,
                 fault_plan: Optional[FaultPlan]) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, root_seed, latency, fault_plan),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None

    def dispatch(self, task: _Task, now: float) -> bool:
        """Send ``task`` to the worker; False when the worker is already dead (the
        caller classifies that as a crash of this attempt)."""
        self.task = task
        self.deadline = None if task.timeout_s is None else now + task.timeout_s
        task.last_pid = self.process.pid
        try:
            self.conn.send((task.cell, task.attempts))
            return True
        except (BrokenPipeError, OSError):
            return False

    def release(self) -> None:
        self.task = None
        self.deadline = None

    def stop(self) -> None:
        """Graceful shutdown (end of run)."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker at shutdown
            self.process.terminate()
            self.process.join(timeout=2.0)

    def kill(self) -> None:
        """Hard kill (watchdog / cleanup of a crashed worker)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - SIGTERM ignored
                self.process.kill()
                self.process.join(timeout=2.0)
        self.conn.close()


class _FaultScheduler:
    """The parent-side scheduling loop shared state: classify, retry, degrade."""

    def __init__(
        self,
        spec: MatrixSpec,
        retry: RetryPolicy,
        on_terminal: Callable[[CellResult], None],
        on_retry: Callable[[], None],
    ) -> None:
        self.spec = spec
        self.retry = retry
        self.on_terminal = on_terminal
        self.on_retry = on_retry
        self.pending: List[_Task] = []
        self.outstanding = 0

    def classify_record(self, task: _Task, record: Dict) -> None:
        """A worker returned a record for ``task``: terminal, or a corruption fault."""
        task.attempts += 1
        simulated = record.get(_SIMULATED)
        if simulated is not None:
            self.fault(
                task,
                FAULT_CRASH if simulated == INJECT_CRASH else FAULT_TIMEOUT,
                already_counted=True,
            )
            return
        if record["status"] == "ok" and (
            payload_digest(record["payload"]) != record.get("digest")
        ):
            self.fault(task, FAULT_CORRUPTION, already_counted=True)
            return
        self.outstanding -= 1
        self.on_terminal(
            _result_from_record(task.cell, record, task.attempts, tuple(task.faults))
        )

    def fault(self, task: _Task, kind: str, already_counted: bool = False) -> None:
        """A transient worker fault on ``task``: retry with backoff or degrade."""
        if not already_counted:
            task.attempts += 1
        task.faults.append(kind)
        if task.attempts >= self.retry.max_attempts:
            self.outstanding -= 1
            self.on_terminal(
                _degraded_result(
                    task.cell,
                    self.spec.root_seed,
                    task.attempts,
                    tuple(task.faults),
                    task.last_pid,
                )
            )
            return
        self.on_retry()
        task.eligible_at = time.monotonic() + self.retry.delay_s(
            self.spec.root_seed, task.cell.key, task.attempts
        )
        self.pending.append(task)


def _run_cells_pool(
    cells: List[CellSpec],
    spec: MatrixSpec,
    workers: int,
    retry: RetryPolicy,
    fault_plan: Optional[FaultPlan],
    cell_timeout_s: Optional[float],
    on_terminal: Callable[[CellResult], None],
    on_retry: Callable[[], None],
    tick: Callable[[], None],
) -> None:
    """The managed-pool executor: dispatch, collect, watchdog, retry, respawn."""
    context = _pool_context()
    scheduler = _FaultScheduler(spec, retry, on_terminal, on_retry)
    scheduler.pending = [
        _Task(index=i, cell=cell, timeout_s=_timeout_for(cell, cell_timeout_s))
        for i, cell in enumerate(cells)
    ]
    scheduler.outstanding = len(cells)

    def spawn() -> _Worker:
        return _Worker(context, spec.root_seed, spec.latency, fault_plan)

    pool: List[_Worker] = []
    try:
        while scheduler.outstanding > 0:
            now = time.monotonic()

            # Keep enough live workers for the remaining work; crashed/killed ones
            # were removed below, so this is also where replacements appear.
            needed = min(workers, scheduler.outstanding)
            while len(pool) < needed:
                pool.append(spawn())

            # Dispatch eligible pending tasks onto idle workers (spec order, retries
            # interleaved by their backoff eligibility).
            scheduler.pending.sort(key=lambda t: (t.eligible_at, t.index))
            idle = [w for w in pool if w.task is None]
            while idle and scheduler.pending and scheduler.pending[0].eligible_at <= now:
                task = scheduler.pending.pop(0)
                worker = idle.pop(0)
                if not worker.dispatch(task, now):
                    # Worker died before it could accept the cell: that's a crash of
                    # this attempt; replace the worker on the next loop turn.
                    worker.release()
                    worker.kill()
                    pool.remove(worker)
                    scheduler.fault(task, FAULT_CRASH)

            busy = [w for w in pool if w.task is not None]
            if not busy:
                if scheduler.pending:
                    wait_s = max(0.0, scheduler.pending[0].eligible_at - now)
                    time.sleep(min(wait_s, 0.25) if wait_s else 0.01)
                tick()
                continue

            # Wait for the earliest interesting moment: a result/death, a watchdog
            # deadline, a retry becoming eligible, or the heartbeat tick.
            horizon = [w.deadline - now for w in busy if w.deadline is not None]
            if scheduler.pending and len(busy) < len(pool):
                horizon.append(scheduler.pending[0].eligible_at - now)
            horizon.append(1.0)  # heartbeat granularity / safety net
            timeout = max(0.01, min(horizon))
            handles = [w.conn for w in busy] + [w.process.sentinel for w in busy]
            ready = mp_connection.wait(handles, timeout=timeout)
            now = time.monotonic()

            for worker in busy:
                task = worker.task
                if task is None:  # already handled in this sweep
                    continue
                signalled = worker.conn in ready or worker.process.sentinel in ready
                if signalled and worker.conn.poll():
                    try:
                        record = worker.conn.recv()
                    except (EOFError, OSError):
                        record = None
                    if isinstance(record, dict):
                        worker.release()
                        scheduler.classify_record(task, record)
                        continue
                    # Unreadable result: treat like a death mid-cell.
                    worker.release()
                    worker.kill()
                    pool.remove(worker)
                    scheduler.fault(task, FAULT_CRASH)
                    continue
                if signalled and not worker.process.is_alive():
                    # Died holding a cell and sent nothing back: a crash.
                    worker.release()
                    worker.kill()
                    pool.remove(worker)
                    scheduler.fault(task, FAULT_CRASH)
                    continue
                if worker.deadline is not None and now >= worker.deadline:
                    # One last poll: a result racing the deadline wins over the axe.
                    if worker.conn.poll():
                        continue  # picked up on the next sweep
                    worker.release()
                    worker.kill()
                    pool.remove(worker)
                    scheduler.fault(task, FAULT_TIMEOUT)
            tick()
    finally:
        for worker in pool:
            if worker.task is not None:
                worker.kill()
            else:
                worker.stop()


def _run_cells_sequential(
    cells: List[CellSpec],
    spec: MatrixSpec,
    retry: RetryPolicy,
    fault_plan: Optional[FaultPlan],
    on_terminal: Callable[[CellResult], None],
    on_retry: Callable[[], None],
    tick: Callable[[], None],
) -> None:
    """The in-process executor (``workers=1``): same classification machinery, with
    injected crashes/hangs simulated (a process cannot kill or watchdog itself) —
    a simulated hang is classified exactly like a watchdog timeout would be."""
    reuse = _worker_reuse()
    scheduler = _FaultScheduler(spec, retry, on_terminal, on_retry)
    scheduler.outstanding = len(cells)
    for index, cell in enumerate(cells):
        task = _Task(index=index, cell=cell, timeout_s=None)
        while True:
            record = _run_attempt(
                cell, task.attempts, spec.root_seed, spec.latency, reuse,
                fault_plan, in_process=True,
            )
            task.last_pid = os.getpid()
            before = scheduler.outstanding
            scheduler.classify_record(task, record)
            if scheduler.outstanding < before:
                break  # terminal (ok, failed or degraded)
            scheduler.pending.clear()  # retry immediately after its backoff
            time.sleep(
                min(0.1, retry.delay_s(spec.root_seed, cell.key, task.attempts))
            )
            tick()
        tick()


class _Heartbeat:
    """Periodic progress line on stderr so long runs are observably alive."""

    def __init__(self, interval_s: Optional[float], total: int, stream=None) -> None:
        self.interval_s = interval_s
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.started = time.monotonic()
        self.next_beat = (
            self.started + interval_s if interval_s and interval_s > 0 else None
        )
        self.ok = 0
        self.failed = 0
        self.degraded = 0
        self.retries = 0

    def note_terminal(self, result: CellResult) -> None:
        if result.status == "ok":
            self.ok += 1
        elif result.status == "failed":
            self.failed += 1
        else:
            self.degraded += 1

    def note_retry(self) -> None:
        self.retries += 1

    @property
    def done(self) -> int:
        return self.ok + self.failed + self.degraded

    def tick(self) -> None:
        if self.next_beat is None:
            return
        now = time.monotonic()
        if now < self.next_beat:
            return
        self.next_beat = now + self.interval_s
        elapsed = now - self.started
        remaining = self.total - self.done
        eta = (elapsed / self.done) * remaining if self.done else float("nan")
        eta_text = f"~{eta:.0f}s" if self.done else "?"
        print(
            f"[matrix] {self.done}/{self.total} cells "
            f"({self.ok} ok, {self.failed} failed, {self.degraded} degraded), "
            f"{self.retries} retries, {elapsed:.0f}s elapsed, eta {eta_text}",
            file=self.stream,
            flush=True,
        )


def run_matrix(
    spec: MatrixSpec,
    workers: int = 1,
    progress: Optional[Callable[[CellResult, int, int], None]] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    cell_timeout_s: Optional[float] = None,
    journal_path: Optional[Path] = None,
    resume_from: Optional[Path] = None,
    heartbeat_s: Optional[float] = None,
    heartbeat_stream=None,
) -> MatrixRunResult:
    """Execute every cell of ``spec`` and return results in spec order.

    Parameters
    ----------
    workers:
        1 runs sequentially in-process; N > 1 uses a managed pool of N persistent
        worker processes with one cell per dispatch. Results are identical either
        way (the parity test and CI enforce byte-identical aggregates).
    progress:
        Optional callback invoked as each cell reaches a terminal state (out of
        order under a pool) with ``(result, completed_count, total)``; resumed
        cells are reported through it too.
    retry:
        The :class:`~repro.experiments.faults.RetryPolicy` for transient worker
        faults (default: 3 attempts with capped exponential backoff). Deterministic
        cell exceptions are never retried regardless of policy.
    fault_plan:
        A :class:`~repro.experiments.faults.FaultPlan` injecting deterministic
        chaos — crashes and hangs are real under a pool and simulated in-process.
    cell_timeout_s:
        Watchdog override for every cell (``<= 0`` disables timeouts); by default
        each scenario kind's ``timeout_s`` applies, falling back to
        :data:`DEFAULT_CELL_TIMEOUT_S`. Timeouts require ``workers > 1`` (the
        in-process executor cannot interrupt itself).
    journal_path:
        Append every terminal cell to this JSONL journal as it completes (see
        :mod:`~repro.experiments.checkpoint`). A pre-existing journal is
        overwritten unless it is also ``resume_from``.
    resume_from:
        Replay terminal (``ok``/``failed``) cells recorded in this journal instead
        of executing them; ``degraded`` cells re-run. The journal must match the
        spec (digest-checked). May equal ``journal_path`` to resume in place.
    heartbeat_s:
        Emit a progress heartbeat to ``heartbeat_stream`` (default stderr) every
        this many seconds; ``None``/``0`` disables.
    """
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    retry = retry or RetryPolicy()
    retry.validate()
    if fault_plan is not None:
        fault_plan.validate()
    cells = spec.validate()
    started = time.perf_counter()

    resumed: Dict[str, CellResult] = {}
    if resume_from is not None:
        records = load_resumable(Path(resume_from), spec)
        by_key = {cell.key: cell for cell in cells}
        for key, record in records.items():
            cell = by_key[key]
            payload_json = record.get("payload")
            if record["status"] == "ok" and payload_json is not None:
                recorded_digest = record.get("payload_digest")
                if recorded_digest and payload_digest(payload_json) != recorded_digest:
                    raise ExperimentError(
                        f"journal {resume_from} payload for cell {key!r} fails its "
                        "integrity digest — the journal is corrupt; re-run without "
                        "--resume"
                    )
            resumed[key] = _result_from_journal(cell, record)

    # Cells sharing a seed are a branching kind's siblings: run them back to back,
    # so the warmed prefix they share is still in the worker's snapshot LRU.
    siblings: Dict[int, List[CellSpec]] = {}
    for cell in cells:
        if cell.key not in resumed:
            siblings.setdefault(cell_seed(spec.root_seed, cell), []).append(cell)
    to_run = [cell for group in siblings.values() for cell in group]

    writer: Optional[JournalWriter] = None
    resume_in_place = (
        journal_path is not None
        and resume_from is not None
        and Path(journal_path).resolve() == Path(resume_from).resolve()
    )
    if journal_path is not None:
        writer = JournalWriter(
            Path(journal_path), spec, total_cells=len(cells), resume=resume_in_place
        )

    heartbeat = _Heartbeat(heartbeat_s, total=len(cells), stream=heartbeat_stream)
    done: Dict[str, CellResult] = {}

    def journal(result: CellResult) -> None:
        if writer is None:
            return
        payload_json = result.payload.to_json_dict() if result.ok else None
        writer.record_cell(
            key=result.key,
            seed=result.seed,
            status=result.status,
            payload_json=payload_json,
            payload_digest=payload_digest(payload_json) if payload_json else None,
            error=result.error,
            duration_s=result.duration_s,
            pid=result.pid,
            attempts=result.attempts,
            faults=list(result.faults),
        )

    def note(result: CellResult, write_journal: bool = True) -> None:
        done[result.key] = result
        heartbeat.note_terminal(result)
        if write_journal:
            journal(result)
        if progress is not None:
            progress(result, len(done), len(cells))

    try:
        # Resumed cells first: they count as done, and a *fresh* journal gets them
        # re-recorded so it is complete on its own (an in-place resume already
        # holds them).
        for cell in cells:
            if cell.key in resumed:
                note(resumed[cell.key], write_journal=not resume_in_place)

        if to_run:
            if workers == 1 or len(to_run) <= 1:
                _run_cells_sequential(
                    to_run, spec, retry, fault_plan,
                    on_terminal=note, on_retry=heartbeat.note_retry,
                    tick=heartbeat.tick,
                )
            else:
                _run_cells_pool(
                    to_run, spec, min(workers, len(to_run)), retry, fault_plan,
                    cell_timeout_s,
                    on_terminal=note, on_retry=heartbeat.note_retry,
                    tick=heartbeat.tick,
                )
    finally:
        if writer is not None:
            writer.close()

    results = [done[cell.key] for cell in cells]
    return MatrixRunResult(
        spec=spec,
        results=results,
        workers=workers,
        wall_seconds=time.perf_counter() - started,
        retries=heartbeat.retries,
        resumed=len(resumed),
    )


def _result_from_journal(cell: CellSpec, record: Dict) -> CellResult:
    """Rebuild a terminal :class:`CellResult` from its journal record (resume)."""
    payload = (
        MetricPayload.from_json_dict(record["payload"])
        if record["status"] == "ok"
        else MetricPayload()
    )
    return CellResult(
        cell=cell,
        seed=int(record["seed"]),
        status=str(record["status"]),
        payload=payload,
        error=record.get("error"),
        duration_s=float(record.get("duration_s", 0.0)),
        pid=record.get("pid"),
        attempts=int(record.get("attempts", 1)),
        faults=tuple(record.get("faults", ())),
    )


# ------------------------------------------------------------------ aggregation


def _group_key(cell: CellSpec) -> str:
    """Cells differing only in seed index aggregate into one group.

    The axes off their defaults are spelled by :meth:`CellSpec.axis_parts`, as in
    :attr:`CellSpec.key`, so pre-axis group names are unchanged.
    """
    parts = [f"scenario={cell.scenario}"]
    parts.extend(f"{name}={value}" for name, value in cell.params)
    parts.append(f"protocol={cell.protocol}")
    parts.extend(cell.axis_parts())
    parts.append(f"size={cell.size}")
    return ";".join(parts)


def build_aggregate(spec: MatrixSpec, results: List[CellResult]) -> Dict:
    """The canonical aggregate structure (see :data:`AGGREGATE_SCHEMA`).

    Contains only deterministic values — no wall-clock times, pids, hostnames or
    dates — so that re-running the same spec reproduces the same bytes. Scalar
    metrics are summarised per group and overall; histograms are merged bin-wise per
    group into ``group_histograms`` (e.g. the combined in-degree distribution across
    seeds); series stay per-cell. Degraded cells (retries exhausted on transient
    worker faults) appear in a ``degraded`` section with their attempt and fault
    history — present only when non-empty, so fault-free aggregates keep the exact
    bytes of the pre-fault-tolerance format.
    """
    from repro.metrics.collector import (
        aggregate_group_histograms,
        aggregate_groups,
        aggregate_metrics,
    )

    cells_section = {}
    grouped: Dict[str, List[Dict[str, float]]] = {}
    grouped_histograms: Dict[str, List[Dict[str, Dict[int, int]]]] = {}
    ok_rows: List[Dict[str, float]] = []
    degraded_section: Dict[str, Dict[str, object]] = {}
    for result in results:
        entry: Dict[str, object] = {"seed": result.seed, "status": result.status}
        if result.ok:
            payload_json = result.payload.to_json_dict()
            entry["metrics"] = payload_json["scalars"]
            if payload_json["histograms"]:
                entry["histograms"] = payload_json["histograms"]
            if payload_json["series"]:
                entry["series"] = payload_json["series"]
            grouped.setdefault(_group_key(result.cell), []).append(result.metrics)
            grouped_histograms.setdefault(_group_key(result.cell), []).append(
                result.payload.histograms
            )
            ok_rows.append(result.metrics)
        else:
            entry["error"] = result.error
            if result.status == "degraded":
                degraded_section[result.key] = {
                    "attempts": result.attempts,
                    "faults": list(result.faults),
                }
        cells_section[result.key] = entry

    group_histograms = {
        group: {
            name: {str(bin_): count for bin_, count in histogram.items()}
            for name, histogram in histograms.items()
        }
        for group, histograms in aggregate_group_histograms(grouped_histograms).items()
    }

    aggregate = {
        "schema": AGGREGATE_SCHEMA,
        "spec": spec.spec_json_dict(),
        "cells": cells_section,
        "groups": aggregate_groups(grouped),
        "group_histograms": group_histograms,
        "overall": aggregate_metrics(ok_rows) if ok_rows else {},
        "failed": sorted(r.key for r in results if r.status == "failed"),
    }
    if degraded_section:
        aggregate["degraded"] = degraded_section
    return aggregate


def aggregate_json_bytes(result: MatrixRunResult) -> bytes:
    """Canonical serialisation of the aggregate — the byte-identity unit CI compares."""
    return (json.dumps(result.aggregate, indent=1, sort_keys=True) + "\n").encode("utf-8")


# ------------------------------------------------------------------ artifacts


def cells_csv_text(result: MatrixRunResult) -> str:
    """Wide CSV: one row per cell, one column per metric (union, sorted)."""
    metric_names = sorted({name for r in result.results for name in r.metrics})
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["cell_key", "scenario", "protocol", "size", "seed_index", "seed", "status"]
        + metric_names
    )
    for r in result.results:
        row = [
            r.key,
            r.cell.scenario,
            r.cell.protocol,
            r.cell.size,
            r.cell.seed_index,
            r.seed,
            r.status,
        ]
        row.extend(repr(r.metrics[name]) if name in r.metrics else "" for name in metric_names)
        writer.writerow(row)
    return buffer.getvalue()


def write_artifacts(result: MatrixRunResult, out_dir: Path) -> Dict[str, Path]:
    """Write the aggregate JSON, per-cell CSV and markdown summary under ``out_dir``."""
    from repro.experiments.report import matrix_markdown_summary

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "aggregate": out_dir / "matrix_aggregate.json",
        "cells": out_dir / "matrix_cells.csv",
        "summary": out_dir / "matrix_summary.md",
    }
    paths["aggregate"].write_bytes(aggregate_json_bytes(result))
    paths["cells"].write_text(cells_csv_text(result))
    paths["summary"].write_text(matrix_markdown_summary(result.aggregate))
    return paths
