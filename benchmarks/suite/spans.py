"""Span tracing for the benchmark's traced pass, recorded from outside ``src/``.

The tracer wraps the callables at each layer boundary (class attributes and
module attributes, see :func:`object_targets` / :func:`columnar_targets` /
:func:`matrix_targets`), records ``(name, start, end, parent)`` spans in memory and
restores the originals afterwards. A layer's *self time* is its span's duration
minus the part its child spans cover; the calibrated cost of the wrappers
themselves is subtracted so that a layer called 300 000 times is not charged for
300 000 clock reads.

End-to-end metrics never come from a traced run: a million wrapped calls slow the
object engine (``trace.overhead_frac`` says by how much).
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

#: Span names the harness itself opens (root and phases); everything else is a layer.
HARNESS_PREFIX = "harness."


@dataclass(frozen=True)
class Calibration:
    """Measured cost of one wrapped call, split at the wrapper's two clock reads."""

    #: Seconds inside the child's own ``[start, end]`` interval (charged to the child).
    inner_s: float
    #: Seconds outside it — wrapper entry/exit — which land in the *parent's* interval.
    outer_s: float


@dataclass(frozen=True)
class LayerTotals:
    calls: int
    total_s: float
    #: Duration minus child spans, minus the calibrated wrapper cost.
    self_s: float


class Tracer:
    """In-memory span recorder plus the wrapper installer.

    Spans are stored column-wise (24 bytes each) because the object-engine
    workloads produce over a million of them per run.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        #: Wrappers pass calls straight through unless a root span is open, so
        #: work done outside the run (the matrix reference run) leaves no spans.
        self.active = False
        self._installed: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------ recording

    def _intern(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = len(self.names)
            self.names.append(name)
            self._name_ids[name] = index
        return index

    def wrap(self, func, name: str):
        """A wrapper around ``func`` that records one span per call."""
        nid = self._intern(name)
        add_name, add_parent = self.name_id.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a span from harness code (the root and the phases of a unit)."""
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def root(self, name: str = HARNESS_PREFIX + "run") -> Iterator[None]:
        """The one root span of a run; wrappers record only while it is open."""
        self.active = True
        try:
            with self.span(name):
                yield
        finally:
            self.active = False

    # ------------------------------------------------------------------ wrappers

    def install(self, targets: Sequence[Tuple[object, str, str]]) -> None:
        """Replace ``owner.attr`` by a recording wrapper for each target.

        Every target must be defined on ``owner`` itself (not inherited), so that
        :meth:`uninstall` can put back exactly the object that was there.
        """
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: Sequence[Tuple[object, str, str]]) -> Iterator[None]:
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ analysis

    def durations(self, name: str) -> List[float]:
        """Durations of the spans called ``name``, in call order."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(len(self))
            if self.name_id[i] == nid
        ]

    def layer_totals(self, calibration: Calibration) -> Dict[str, LayerTotals]:
        """Per span name: calls, total time and self time."""
        count = len(self)
        child_s = [0.0] * count
        children = [0] * count
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child_s[p] += end[i] - start[i]
                children[p] += 1
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        inner, outer = calibration.inner_s, calibration.outer_s
        for i in range(count):
            nid = self.name_id[i]
            duration = end[i] - start[i]
            calls[nid] += 1
            total[nid] += duration
            self_s[nid] += duration - child_s[i] - children[i] * outer - inner
        return {
            name: LayerTotals(calls[nid], total[nid], self_s[nid])
            for nid, name in enumerate(self.names)
            if calls[nid]
        }

    def write_jsonl(self, path, calibration: Calibration) -> None:
        """One header line, then one ``{name, start, end, parent}`` line per span
        (times relative to the root's start; ``parent`` is a line index, -1 = root)."""
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "schema": "bench-trace-v1",
                "spans": len(self),
                "wrapper_inner_s": calibration.inner_s,
                "wrapper_outer_s": calibration.outer_s,
            }
            handle.write(json.dumps(header) + "\n")
            names = self.names
            for i in range(len(self)):
                handle.write(
                    '{"name": "%s", "start": %.9f, "end": %.9f, "parent": %d}\n'
                    % (
                        names[self.name_id[i]],
                        self.start[i] - origin,
                        self.end[i] - origin,
                        self.parent[i],
                    )
                )


def _noop() -> None:
    return None


def calibrate(calls: int = 50_000) -> Calibration:
    """Measure the empty-wrapper cost: ``calls`` wrapped no-ops against the same
    loop over the bare function."""
    tracer = Tracer()
    wrapped = tracer.wrap(_noop, "calibrate.noop")
    clock = time.perf_counter
    with tracer.root("calibrate.root"):
        started = clock()
        for _ in range(calls):
            _noop()
        bare_s = clock() - started
        started = clock()
        for _ in range(calls):
            wrapped()
        wrapped_s = clock() - started
    per_call = max(0.0, (wrapped_s - bare_s) / calls)
    inner = min(per_call, sum(tracer.durations("calibrate.noop")) / calls)
    return Calibration(inner_s=inner, outer_s=per_call - inner)


def harness_self_s(totals: Dict[str, LayerTotals]) -> float:
    """Time the run spent in the harness's own spans, outside every layer."""
    return sum(t.self_s for name, t in totals.items() if name.startswith(HARNESS_PREFIX))


# ---------------------------------------------------------------------- targets


def object_targets() -> List[Tuple[object, str, str]]:
    """Layer boundaries of the object engine (``obj-*`` workloads)."""
    from repro.core.croupier import Croupier
    from repro.core.estimator import RatioEstimator
    from repro.experiments import matrix
    from repro.membership.cyclon import Cyclon
    from repro.membership.gozar import Gozar
    from repro.membership.nylon import Nylon
    from repro.membership.view import PartialView
    from repro.metrics import partition
    from repro.nat.nat_box import NatBox
    from repro.simulator.component import Component
    from repro.simulator.core import Simulator
    from repro.simulator.host import Host
    from repro.simulator.network import Network
    from repro.workload.scenario import Scenario

    targets: List[Tuple[object, str, str]] = [
        (Simulator, "run", "simulator.core.run"),
        (Network, "send", "simulator.network.send"),
        (Host, "deliver", "simulator.host.deliver"),
        (NatBox, "translate_outbound", "nat.translate"),
        (NatBox, "accept_inbound", "nat.inbound"),
        (Component, "handle_packet", "membership.handle"),
        # Every node creation path (populate, add_node, churn) ends in one of
        # these two, so the call count is exactly the number of nodes created.
        (Scenario, "_add_public_node", "workload.scenario.add_node"),
        (Scenario, "_add_private_node", "workload.scenario.add_node"),
        (Scenario, "kill", "workload.scenario.kill"),
        (Scenario, "overlay_graph", "metrics.partition.cluster"),
        (partition, "largest_cluster_fraction", "metrics.partition.cluster"),
        (matrix, "measure_cell", "metrics.probes.measure"),
    ]
    for protocol in (Croupier, Cyclon, Gozar, Nylon):
        targets.append((protocol, "on_round", "membership.on_round"))
    for method in ("update_view", "random_subset", "increase_ages"):
        targets.append((PartialView, method, "membership.view"))
    for method in ("advance_round", "merge_estimates", "estimates_subset", "estimate_ratio"):
        targets.append((RatioEstimator, method, "core.estimator"))
    return targets


def columnar_targets() -> List[Tuple[object, str, str]]:
    """Layer boundaries of the columnar engine (``col-*`` workloads)."""
    from repro.columnar import engine as engine_module
    from repro.columnar import rng as crng
    from repro.columnar.engine import ColumnarEngine
    from repro.columnar.scenario import ColumnarScenario
    from repro.metrics import partition
    from repro.simulator.core import Simulator

    return [
        (Simulator, "run", "simulator.core.run"),
        (ColumnarEngine, "run_round", "columnar.engine.round"),
        (ColumnarEngine, "add_node", "columnar.engine.add_node"),
        (ColumnarEngine, "kill", "columnar.engine.kill"),
        # The names the engine module bound at import: run_round calls these.
        (engine_module, "run_shuffle_round", "columnar.shuffle.round"),
        (engine_module, "maintain_parents", "columnar.shuffle.parents"),
        (engine_module, "send_keepalives", "columnar.shuffle.keepalive"),
        (crng, "draws_np", "columnar.rng"),
        (crng, "uniforms_np", "columnar.rng"),
        (ColumnarScenario, "populate", "columnar.scenario.populate"),
        (ColumnarEngine, "estimate_stats", "columnar.scenario.stats"),
        (ColumnarEngine, "in_degree_histogram", "columnar.scenario.stats"),
        (ColumnarEngine, "fingerprint", "columnar.scenario.stats"),
        (ColumnarScenario, "overlay_graph", "metrics.partition.cluster"),
        (partition, "largest_cluster_fraction", "metrics.partition.cluster"),
    ]


def matrix_targets() -> List[Tuple[object, str, str]]:
    """Parent-side boundaries of the matrix runner (``matrix-cells``).

    The engine layers run inside forked workers, where this process cannot see
    spans; wrapping them would only slow the cells down.
    """
    from repro.experiments import report, runner
    from repro.experiments.matrix import MatrixSpec

    return [
        (MatrixSpec, "validate", "experiments.matrix.expand"),
        (runner, "run_matrix", "experiments.runner.run"),
        (runner, "aggregate_json_bytes", "experiments.runner.aggregate"),
        (runner, "write_artifacts", "experiments.runner.artifacts"),
        (report, "matrix_markdown_summary", "experiments.report.render"),
    ]
