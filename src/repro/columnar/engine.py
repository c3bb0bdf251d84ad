"""The columnar gossip kernel: whole-round batched shuffles over flat array columns.

One :class:`ColumnarEngine` holds an entire cell's protocol state — partial views,
descriptor ages, ratio-estimator windows and caches, traffic counters — as flat
``array.array`` columns (``row = node id``, fixed-width slots per row). A gossip
round is executed for *all* nodes in one call: the per-column phases (ageing,
estimator-window archiving, local-estimate recomputation) run as vectorized
operations over numpy views of the columns, and the round's shuffle exchanges
are processed as one batched pass over the initiator rows in ascending order —
no event queue, no per-node callback objects, no descriptor allocation.

Model (the documented deltas from the object backend, see docs/columnar_backend.md):

* **Round-synchronous.** A shuffle request, its handling and its response all
  happen within the same engine round; there is no per-message latency model and
  therefore no pending-shuffle timeout. Requests to dead, private (NAT-filtered)
  or partitioned-away partners are simply lost — which reproduces the object
  engine's self-healing behaviour (the initiator already dropped the partner from
  its view).
* **Estimator cache is a ring, not a keyed table.** Each node keeps the last
  :data:`CACHE_CAPACITY` received estimates as ``(value, born_round)`` pairs; entries
  older than the γ window are masked at read time. The object backend's
  freshest-per-origin dedup is approximated by recency.
* **Estimate piggybacking is truncated.** A shuffle carries the sender's own
  local estimate plus its :data:`FORWARD_ESTIMATES` most recent cached entries,
  instead of a uniform sample of up to ``max_estimates_per_message``.

Everything is deterministic, but the contract is *positional*, not sequential:
the injected ``random.Random`` is consumed exactly once, at construction, to
derive a 64-bit engine seed; every in-round random decision is then a
counter-keyed draw — a pure function of ``(seed, round, phase, row-or-slot
key)`` (see :mod:`repro.columnar.rng`). That makes the whole shuffle pass
batchable (:mod:`repro.columnar.shuffle`) and lets a scalar per-row reference
(``tests/columnar_oracle.py``) evaluate the same keyed draws one exchange at a
time and reach bit-identical state, which ``tests/test_columnar.py`` asserts
every round.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Tuple

from repro.columnar import backend
from repro.columnar.backend import as_np, grow_column, new_column, seq_sum
from repro.columnar.shuffle import maintain_parents, run_shuffle_round, send_keepalives
from repro.columnar.streaming import StreamingHistogram
from repro.errors import ConfigurationError
from repro.membership.base import NatStrategy
from repro.membership.plugin import get_plugin
from repro.simulator.core import sample

__all__ = [
    "BORN_NONE", "CACHE_CAPACITY", "ColumnarEngine", "FORWARD_ESTIMATES", "ROW_LIMIT",
]

#: Sentinel born-round for an empty estimator-ring slot (always outside any window).
BORN_NONE = -(2 ** 30)
#: Estimate-cache slots per row, and how many of the most recently received
#: entries a shuffle piggy-backs besides the sender's own estimate.
CACHE_CAPACITY = 32
FORWARD_ESTIMATES = 2

#: Exclusive bound on rows. A row is a node's id in every ``int32`` id column
#: and the last three octets of its wire IP (``10.x.y.z``). Rows are never
#: recycled, so a long churn run can reach it: ``add_node``/``reserve`` then
#: raise a named error instead of letting two rows share an IP.
ROW_LIMIT = 1 << 24

#: The columns that hold rows; :meth:`ColumnarEngine.fingerprint` hashes them
#: widened to ``int64``, in chunks of ``_HASH_CHUNK`` entries.
_ID_COLUMNS = frozenset(("pub_id", "priv_id", "est_origin", "parent_id", "learned_from"))
_HASH_CHUNK = 1 << 16


def _check_row_limit(rows: int) -> None:
    if rows > ROW_LIMIT:
        raise ConfigurationError(
            f"the columnar engine holds at most {ROW_LIMIT - 1} node rows "
            f"(ROW_LIMIT = {ROW_LIMIT}: int32 ids, 10.x.y.z wire IPs) and rows "
            f"are never recycled; this cell needs {rows - 1}"
        )


class ColumnarEngine:
    """Flat-column state + batched round execution for one simulated cell.

    The columns and phases follow the protocol's declared
    :class:`~repro.membership.base.NatStrategy`: every strategy runs one swapper
    push-pull over the primary view; ``CROUPIER`` adds the private view and the
    ratio estimator, ``RELAY`` relay parents, ``HOLE_PUNCH`` learned-from
    rendezvous ids.
    """

    def __init__(
        self,
        protocol: str,
        *,
        view_size: int,
        shuffle_size: int,
        rng,
        history_alpha: int = 25,
        history_gamma: int = 50,
        parent_count: int = 3,
        parent_keepalive_every_rounds: int = 5,
        keepalive_fanout: int = 20,
        bootstrap_seed_size: Optional[int] = None,
    ) -> None:
        backend.require_numpy()
        if view_size <= 0 or shuffle_size <= 0:
            raise ConfigurationError("view_size and shuffle_size must be positive")
        self.protocol = protocol
        self.strategy = get_plugin(protocol).nat_strategy
        self.estimating = self.strategy is NatStrategy.CROUPIER
        self.V = view_size
        self.K = min(shuffle_size, view_size)
        self.A = history_alpha
        self.G = history_gamma
        self.C = CACHE_CAPACITY
        self.FWD = FORWARD_ESTIMATES
        self.P = max(1, parent_count)
        self.parent_keepalive_every = max(1, parent_keepalive_every_rounds)
        self.keepalive_fanout = max(0, keepalive_fanout)
        self.seed_size = bootstrap_seed_size or view_size
        self.rng = rng
        #: The engine's positional-draw seed (repro.columnar.rng): consumed from
        #: the injected RNG exactly once, here, preserving seed custody.
        self.hash_seed = rng.getrandbits(64)

        self.round = 0
        self.packets_sent = 0
        self.drops: Dict[str, int] = {}
        #: Loss probabilities applied per sender class (set via configure_loss).
        self.loss_public = 0.0
        self.loss_private = 0.0
        self._partition_active = False

        self._rows = 1  # row 0 is a permanently-dead filler so node ids start at 1
        self._cap = 16
        cap = self._cap
        self.alive = new_column("b", cap)
        self.is_public = new_column("b", cap)
        self.nat_class = new_column("i", cap)
        self.rounds_exec = new_column("i", cap)
        self.joined_ms = new_column("d", cap)
        self.isolated = new_column("b", cap)
        self.tx_bytes = new_column("q", cap)
        self.rx_bytes = new_column("q", cap)
        # Every id column (view ids, estimate origins, parents, learned-from)
        # holds rows, -1 for none, at int32: rows stay below ROW_LIMIT.
        # Primary view (Croupier's public view; Cyclon's only view).
        self.pub_id = new_column("i", cap * self.V, fill=-1)
        self.pub_age = new_column("i", cap * self.V)
        if self.estimating:
            self.priv_id = new_column("i", cap * self.V, fill=-1)
            self.priv_age = new_column("i", cap * self.V)
            self.cur_cu = new_column("i", cap)
            self.cur_cv = new_column("i", cap)
            self.cu_sum = new_column("q", cap)
            self.cv_sum = new_column("q", cap)
            self.hist_cu = new_column("i", cap * self.A)
            self.hist_cv = new_column("i", cap * self.A)
            self.hist_pos = new_column("i", cap)
            self.est_val = new_column("d", cap * self.C)
            self.est_born = new_column("i", cap * self.C, fill=BORN_NONE)
            self.est_origin = new_column("i", cap * self.C, fill=-1)
            self.est_pos = new_column("i", cap)
            self.loc_est = new_column("d", cap, fill=-1.0)  # -1.0 == no local estimate
        if self.strategy is NatStrategy.RELAY:
            # Relay parents of private nodes (public rows they registered with).
            self.parent_id = new_column("i", cap * self.P, fill=-1)
        if self.strategy is NatStrategy.HOLE_PUNCH:
            # Which row each view descriptor was learned from (-1: bootstrap
            # seed) — the one-hop RVP chain used to reach private partners.
            self.learned_from = new_column("i", cap * self.V, fill=-1)
        #: Live public rows (the bootstrap registry): list + position map for O(1)
        #: removal with deterministic (swap-pop) order.
        self._pub_live: List[int] = []
        self._pub_pos: Dict[int, int] = {}

    # ------------------------------------------------------------------ growth

    @property
    def rows(self) -> int:
        """Number of allocated rows (== highest node id + 1; row 0 is filler)."""
        return self._rows

    def reserve(self, total_nodes: int) -> None:
        """Pre-size all columns for exactly ``total_nodes`` nodes (avoids growth copies)."""
        needed = total_nodes + 1
        _check_row_limit(needed)
        if needed > self._cap:
            self._grow(needed)

    def _grow(self, min_cap: int) -> None:
        # Over-allocate by an eighth, as CPython's list does: amortised O(1)
        # appends, and a churning cell never leaves half its rows idle.
        new_cap = max(min_cap, self._cap + self._cap // 8)
        extra = new_cap - self._cap
        for column in (
            self.alive, self.is_public, self.nat_class, self.rounds_exec,
            self.joined_ms, self.isolated, self.tx_bytes, self.rx_bytes,
        ):
            grow_column(column, extra)
        grow_column(self.pub_id, extra * self.V, fill=-1)
        grow_column(self.pub_age, extra * self.V)
        if self.estimating:
            grow_column(self.priv_id, extra * self.V, fill=-1)
            grow_column(self.priv_age, extra * self.V)
            for column in (self.cur_cu, self.cur_cv, self.cu_sum, self.cv_sum,
                           self.hist_pos, self.est_pos):
                grow_column(column, extra)
            grow_column(self.hist_cu, extra * self.A)
            grow_column(self.hist_cv, extra * self.A)
            grow_column(self.est_val, extra * self.C)
            grow_column(self.est_born, extra * self.C, fill=BORN_NONE)
            grow_column(self.est_origin, extra * self.C, fill=-1)
            grow_column(self.loc_est, extra, fill=-1.0)
        if self.strategy is NatStrategy.RELAY:
            grow_column(self.parent_id, extra * self.P, fill=-1)
        if self.strategy is NatStrategy.HOLE_PUNCH:
            grow_column(self.learned_from, extra * self.V, fill=-1)
        self._cap = new_cap

    # ------------------------------------------------------------------ membership

    def add_node(self, public: bool, now_ms: float = 0.0, nat_class: int = 0) -> int:
        """Create one node; seeds its view from the live public registry. Returns its row."""
        row = self._rows
        _check_row_limit(row + 1)
        if row >= self._cap:
            self._grow(row + 1)
        self._rows = row + 1
        self.alive[row] = 1
        self.is_public[row] = 1 if public else 0
        self.nat_class[row] = nat_class
        self.joined_ms[row] = now_ms
        seeds = self._pub_live
        count = min(self.seed_size, self.V, len(seeds))
        if count:
            chosen = sample(self.rng, seeds, count)
            base = row * self.V
            for slot, seed_row in enumerate(chosen):
                self.pub_id[base + slot] = seed_row
                self.pub_age[base + slot] = 0
        if public:
            self._pub_pos[row] = len(self._pub_live)
            self._pub_live.append(row)
        return row

    def kill(self, row: int) -> bool:
        """Remove a node. Its descriptors linger in other views and age out."""
        if not (0 < row < self._rows) or not self.alive[row]:
            return False
        self.alive[row] = 0
        base = row * self.V
        for slot in range(self.V):
            self.pub_id[base + slot] = -1
            self.pub_age[base + slot] = 0
        if self.estimating:
            for slot in range(self.V):
                self.priv_id[base + slot] = -1
                self.priv_age[base + slot] = 0
            self.loc_est[row] = -1.0
        if self.strategy is NatStrategy.RELAY:
            pbase = row * self.P
            for slot in range(self.P):
                self.parent_id[pbase + slot] = -1
        if self.strategy is NatStrategy.HOLE_PUNCH:
            for slot in range(self.V):
                self.learned_from[base + slot] = -1
        if self.is_public[row]:
            pos = self._pub_pos.pop(row)
            last = self._pub_live.pop()
            if last != row:
                self._pub_live[pos] = last
                self._pub_pos[last] = pos
        return True

    def live_rows(self) -> List[int]:
        """Live rows in ascending (creation) order."""
        alive = as_np(self.alive)[: self._rows]
        return backend.np.nonzero(alive)[0].tolist()  # row 0 is never alive

    def live_count(self) -> int:
        return int(as_np(self.alive)[: self._rows].sum())

    def live_public_rows(self) -> List[int]:
        """Live public rows in ascending (creation) order."""
        n = self._rows
        alive = as_np(self.alive)[:n]
        public = as_np(self.is_public)[:n]
        return backend.np.nonzero((alive != 0) & (public != 0))[0].tolist()

    def live_private_rows(self) -> List[int]:
        """Live private rows in ascending (creation) order."""
        n = self._rows
        alive = as_np(self.alive)[:n]
        public = as_np(self.is_public)[:n]
        return backend.np.nonzero((alive != 0) & (public == 0))[0].tolist()

    def public_count(self) -> int:
        return len(self._pub_live)

    # ------------------------------------------------------------------ config hooks

    def configure_loss(self, public_probability: float, private_probability: float) -> None:
        self.loss_public = public_probability
        self.loss_private = private_probability

    def set_partition(self, isolated_rows) -> None:
        """Install (or, with an empty set, heal) a two-sided partition by rows."""
        n = self._rows
        as_np(self.isolated)[:n] = 0
        for row in isolated_rows:
            if 0 < row < n:
                self.isolated[row] = 1
        self._partition_active = bool(isolated_rows)

    # ------------------------------------------------------------------ round phases

    def run_round(self) -> None:
        """Execute one synchronous gossip round for every live node."""
        self.round += 1
        self._age_views()
        if self.estimating:
            self._advance_estimators()
        else:
            self._advance_rounds_only()
        if self.strategy is NatStrategy.RELAY:
            maintain_parents(self)
        elif self.strategy is NatStrategy.HOLE_PUNCH:
            send_keepalives(self)
        run_shuffle_round(self)

    def _age_views(self) -> None:
        end = self._rows * self.V
        ids = as_np(self.pub_id)[:end]
        as_np(self.pub_age)[:end] += ids >= 0
        if self.estimating:
            ids = as_np(self.priv_id)[:end]
            as_np(self.priv_age)[:end] += ids >= 0

    def _advance_rounds_only(self) -> None:
        n = self._rows
        as_np(self.rounds_exec)[:n] += as_np(self.alive)[:n]

    def _advance_estimators(self) -> None:
        """Archive the finished round's (Cu, Cv) into the α-window ring and refresh
        every public node's local estimate Cu/(Cu+Cv) over the window."""
        n = self._rows
        A = self.A
        np = backend.np
        live = np.nonzero(as_np(self.alive)[:n])[0]
        if not live.size:
            return
        pos = as_np(self.hist_pos)[:n]
        cur_cu = as_np(self.cur_cu)[:n]
        cur_cv = as_np(self.cur_cv)[:n]
        cu_sum = as_np(self.cu_sum)[:n]
        cv_sum = as_np(self.cv_sum)[:n]
        hist_cu = as_np(self.hist_cu)
        hist_cv = as_np(self.hist_cv)
        flat = live * A + pos[live]
        cu_sum[live] += cur_cu[live].astype(np.int64) - hist_cu[flat]
        cv_sum[live] += cur_cv[live].astype(np.int64) - hist_cv[flat]
        hist_cu[flat] = cur_cu[live]
        hist_cv[flat] = cur_cv[live]
        pos[live] = (pos[live] + 1) % A
        cur_cu[live] = 0
        cur_cv[live] = 0
        as_np(self.rounds_exec)[:n][live] += 1
        den = cu_sum[live] + cv_sum[live]
        ok = (as_np(self.is_public)[:n][live] != 0) & (den > 0)
        est = np.full(live.size, -1.0)
        # int64/int64 true division == Python's int/int for these magnitudes.
        est[ok] = cu_sum[live][ok] / den[ok]
        as_np(self.loc_est)[:n][live] = est

    # ------------------------------------------------------------------ estimates

    def estimate_ratio(self, row: int) -> Optional[float]:
        """One node's current estimate: mean of fresh cached estimates plus (for
        public nodes) its own local estimate. Accumulation order: ring slots
        0..C-1, then the local estimate — here and in the batched read path
        (:meth:`measured_estimates`)."""
        if not self.estimating:
            return None
        born_min = self.round - self.G
        base = row * self.C
        total = 0.0
        count = 0
        est_val, est_born = self.est_val, self.est_born
        for slot in range(self.C):
            if est_born[base + slot] >= born_min:
                total += est_val[base + slot]
                count += 1
        local = self.loc_est[row]
        if local >= 0.0:
            total += local
            count += 1
        if count == 0:
            return None
        return total / count

    def measured_estimates(self, min_rounds: int) -> List[float]:
        """Per-node estimates of live, warmed-up nodes in ascending row order —
        without materialising per-node service objects. Bit-identical with
        per-node :meth:`estimate_ratio` calls."""
        np = backend.np
        n = self._rows
        born_min = self.round - self.G
        total = np.zeros(n)
        count = np.zeros(n, dtype=np.int64)
        est_val = as_np(self.est_val)
        est_born = as_np(self.est_born)
        for slot in range(self.C):
            born = est_born[slot :: self.C][:n]
            mask = born >= born_min
            total += np.where(mask, est_val[slot :: self.C][:n], 0.0)
            count += mask
        local = as_np(self.loc_est)[:n]
        has_local = local >= 0.0
        total += np.where(has_local, local, 0.0)
        count += has_local
        sel = (
            (as_np(self.alive)[:n] != 0)
            & (as_np(self.rounds_exec)[:n] >= min_rounds)
            & (count > 0)
        )
        return (total[sel] / count[sel]).tolist()

    def estimate_stats(
        self, true_ratio: float, min_rounds: int = 2
    ) -> Tuple[int, Optional[float], Optional[float], Optional[float]]:
        """(nodes_measured, mean estimate, avg |error|, max |error|) over live
        nodes with at least ``min_rounds`` executed rounds."""
        if not self.estimating:
            return (0, None, None, None)
        estimates = self.measured_estimates(min_rounds)
        if not estimates:
            return (0, None, None, None)
        k = len(estimates)
        mean_est = seq_sum(estimates) / k
        errors = [abs(value - true_ratio) for value in estimates]
        return (k, mean_est, seq_sum(errors) / k, max(errors))

    # ------------------------------------------------------------------ graph metrics

    def view_ids(self, row: int) -> List[int]:
        """All node ids currently in ``row``'s view(s) (may include dead nodes)."""
        ids: List[int] = []
        base = row * self.V
        for slot in range(self.V):
            nid = self.pub_id[base + slot]
            if nid >= 0:
                ids.append(nid)
        if self.estimating:
            for slot in range(self.V):
                nid = self.priv_id[base + slot]
                if nid >= 0:
                    ids.append(nid)
        return ids

    def in_degree_histogram(self) -> StreamingHistogram:
        """Histogram of live->live in-degrees, streamed (never a per-node list)."""
        histogram = StreamingHistogram()
        np = backend.np
        n = self._rows
        alive = as_np(self.alive)[:n]
        counts = np.zeros(n, dtype=np.int64)
        views = [self.pub_id] + ([self.priv_id] if self.estimating else [])
        for column in views:
            ids = as_np(column)[: n * self.V]
            targets = ids[ids >= 0]
            targets = targets[alive[targets] != 0]
            counts += np.bincount(targets, minlength=n)
        degrees = counts[np.nonzero(alive)[0]]
        if degrees.size:
            bins = np.bincount(degrees)
            histogram.add_counts(
                {deg: int(cnt) for deg, cnt in enumerate(bins) if cnt}
            )
        return histogram

    def view_age_histogram(self) -> Dict[int, int]:
        """``{age: count}`` over the occupied view slots of live rows."""
        np = backend.np
        end = self._rows * self.V
        live = np.repeat(as_np(self.alive)[: self._rows] != 0, self.V)
        views = [(self.pub_id, self.pub_age)]
        if self.estimating:
            views.append((self.priv_id, self.priv_age))
        ages = np.concatenate([
            as_np(age)[:end][(as_np(ids)[:end] >= 0) & live] for ids, age in views
        ])
        return {age: int(count) for age, count in enumerate(np.bincount(ages)) if count}

    # ------------------------------------------------------------------ determinism

    def fingerprint(self) -> str:
        """SHA-256 over the full protocol state — the engine's golden-run pin."""
        digest = hashlib.sha256()
        digest.update(
            struct.pack("<qqq", self.round, self._rows, self.packets_sent)
        )
        names = ["alive", "is_public", "rounds_exec",
                 "pub_id", "pub_age", "tx_bytes", "rx_bytes"]
        if self.estimating:
            names += [
                "priv_id", "priv_age", "cur_cu", "cur_cv",
                "cu_sum", "cv_sum", "hist_pos", "est_val",
                "est_born", "est_origin", "est_pos", "loc_est",
            ]
        if self.strategy is NatStrategy.RELAY:
            names.append("parent_id")
        if self.strategy is NatStrategy.HOLE_PUNCH:
            names.append("learned_from")
        int64 = backend.np.int64
        for name in names:
            column = getattr(self, name)
            values = as_np(column)[: self._rows * (len(column) // self._cap)]
            if name in _ID_COLUMNS:
                # By value, not storage: ids hash as int64 whatever their width.
                for lo in range(0, values.size, _HASH_CHUNK):
                    digest.update(values[lo:lo + _HASH_CHUNK].astype(int64))
            else:
                digest.update(values)
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarEngine({self.protocol}, live={self.live_count()}, "
            f"round={self.round})"
        )
