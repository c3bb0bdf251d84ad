"""Columnar engine tests: flat-array protocol state, the scalar-oracle pin, the
engine axis of the experiment matrix, and the ``scale`` scenario kind.

The load-bearing invariants:

* every round of every protocol leaves **bit-identical** state (fingerprints)
  to the scalar reference in ``tests/columnar_oracle.py``, under loss,
  partition/heal and kill/join;
* the engine axis is additive — cells at ``engine="object"`` keep their exact
  pre-axis keys, so no legacy derived seed moves;
* the columnar scenario implements the scenario contract
  (``tests/test_scenario_contract.py`` holds both engines to it), so probes,
  timelines and churn drive it unmodified;
* the engine runs every registered protocol by its declared NAT strategy, and
  refuses the one ``PssConfig`` knob it cannot honour (``selection``);
* engine-native streamed statistics equal the per-node scalar reads.
"""

import math
import random
import re
import tracemalloc
from array import array
from collections import Counter
from collections.abc import Mapping, MutableMapping
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")  # the columnar engine's one hard requirement

from columnar_oracle import _ingest_estimates, _merge_row, oracle_round
from test_scenario_contract import ScenarioContract
from repro import wire
from repro.columnar import ColumnarEngine, ColumnarScenario
from repro.columnar import engine as columnar_engine
from repro.columnar import shuffle as columnar_shuffle
from repro.columnar import rng as crng
from repro.columnar.shuffle import _batch_ingest_np, _batch_merge_np, _ranked_slots_np
from repro.errors import ConfigurationError, ExperimentError
from repro.membership.base import NatStrategy, PssConfig
from repro.membership.plugin import get_plugin, protocol_names
from repro.membership.policies import SelectionPolicy
from repro.metrics.graph import build_overlay_graph
from repro.metrics.partition import (
    connected_components,
    largest_cluster_fraction,
    partition_count,
)
from repro.workload.events import ChurnPhase, LossBurst, Partition
from repro.workload.scenario import (
    ENGINES,
    Scenario,
    ScenarioConfig,
    create_scenario,
)
from repro.workload.timeline import Timeline, get_timeline

def columnar_config(seed=7, **kwargs):
    kwargs.setdefault("protocol", "croupier")
    kwargs.setdefault("latency", "constant")
    return ScenarioConfig(seed=seed, engine="columnar", **kwargs)


def make_scenario(seed=7, n_public=20, n_private=80, **kwargs):
    scenario = ColumnarScenario(columnar_config(seed=seed, **kwargs))
    scenario.populate(n_public, n_private)
    return scenario


# --------------------------------------------------------------------- engine core


class TestColumnarEngine:
    def test_views_fill_and_age(self):
        engine = ColumnarEngine(
            "croupier", view_size=10, shuffle_size=5, rng=random.Random(1),
        )
        rows = [engine.add_node(public=True) for _ in range(30)]
        for _ in range(10):
            engine.run_round()
        # Every node's public view holds only live public peers, never itself.
        for row in rows:
            ids = engine.view_ids(row)
            assert ids, "views must fill after 10 rounds"
            assert row not in ids
            assert all(other in rows for other in ids)

    def test_estimates_converge(self):
        engine = ColumnarEngine(
            "croupier", view_size=10, shuffle_size=5, rng=random.Random(2),
        )
        for index in range(100):
            engine.add_node(public=index < 20)
        for _ in range(30):
            engine.run_round()
        measured, mean, avg_err, max_err = engine.estimate_stats(0.2)
        assert measured == 100
        # N=100 is small for the estimator: the sampling variance alone is a few
        # hundredths, so this is a convergence smoke, not a precision bound.
        assert abs(mean - 0.2) < 0.1
        assert avg_err < 0.15
        assert max_err <= 1.0

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            ColumnarEngine("newscast", view_size=10, shuffle_size=5,
                           rng=random.Random(1))

    def test_estimate_stats_equals_facade_collection(self):
        """The vectorised estimate read equals one scalar ``estimate_ratio`` per row."""
        scenario = make_scenario(seed=5)
        scenario.run_rounds(15)
        true_ratio = scenario.true_ratio()
        measured, mean, avg_err, max_err = scenario.engine.estimate_stats(true_ratio)
        engine = scenario.engine
        estimates = [
            estimate
            for row in engine.live_rows()
            if engine.rounds_exec[row] >= 2
            and (estimate := engine.estimate_ratio(row)) is not None
        ]
        assert scenario.ratio_estimates() == estimates
        assert measured == len(estimates)
        assert mean == sum(estimates) / len(estimates)
        deviations = [abs(true_ratio - e) for e in estimates]
        assert avg_err == sum(deviations) / len(deviations)
        assert max_err == max(deviations)

    def test_in_degree_histogram_counts_live_edges(self):
        scenario = make_scenario(seed=6, n_public=10, n_private=30)
        scenario.run_rounds(10)
        histogram = scenario.engine.in_degree_histogram().to_histogram()
        live = scenario.live_count()
        assert sum(histogram.values()) == live
        total_edges = sum(bin_ * count for bin_, count in histogram.items())
        graph = scenario.overlay_graph()
        assert total_edges == sum(len(view) for view in graph.values())


# ------------------------------------------------------------------ scalar oracle

_COMMON_DROPS = {"link_loss", "partitioned", "dead_host"}

#: (protocol, engine options, cull the public rows mid-run, drop reasons the run
#: must exercise — together every reason the delivery filter can produce).
ORACLE_CASES = [
    pytest.param("croupier", {}, False, _COMMON_DROPS, id="croupier"),
    pytest.param("cyclon", {}, False, _COMMON_DROPS | {"nat_filtered"}, id="cyclon"),
    pytest.param("gozar", {}, False, _COMMON_DROPS, id="gozar"),
    pytest.param("nylon", {}, False, _COMMON_DROPS | {"broken_chain"}, id="nylon"),
    # Maintenance branches the defaults never reach: a recruit pool smaller
    # than the need (and private rows left with no parent at all), keep-alives
    # off the recruiting round, and a fan-out cutoff below the view size
    # (default keepalive_fanout 20 > view_size 10 never truncates).
    pytest.param("gozar", dict(parent_count=2, parent_keepalive_every_rounds=3),
                 True, _COMMON_DROPS | {"no_relay_parent"}, id="gozar-starved"),
    pytest.param("nylon", dict(keepalive_fanout=3), False,
                 _COMMON_DROPS | {"broken_chain"}, id="nylon-fanout3"),
    pytest.param("nylon", dict(keepalive_fanout=0), False,
                 _COMMON_DROPS | {"broken_chain"}, id="nylon-fanout0"),
]


def disturb(eng, round_index, size):
    """The oracle runs' schedule over an initial population of ``size``: a
    partition of every third row at round 10 that heals at 18, and kills plus
    eight joins at rounds 5, 12 and 20."""
    if round_index == 10:
        eng.set_partition(range(3, size, 3))
    if round_index == 18:
        eng.set_partition(())
    if round_index in (5, 12, 20):
        for row in range(3 + round_index, size, 17):
            eng.kill(row)
        for index in range(8):
            eng.add_node(public=index % 4 == 0)


def run_against_oracle(protocol, options, cull_public, must_drop):
    """``run_round()`` and the per-exchange scalar loops of
    ``columnar_oracle.oracle_round`` leave the same bytes after every round,
    under loss, a partition that heals, and kills/joins mid-run."""
    pair = []
    for _ in range(2):
        engine = ColumnarEngine(
            protocol, view_size=10, shuffle_size=5, rng=random.Random(11),
            **options,
        )
        for index in range(200):
            engine.add_node(public=index % 5 == 0)
        engine.configure_loss(0.05, 0.1)
        pair.append(engine)
    engine, reference = pair
    for round_index in range(30):
        for eng in pair:
            disturb(eng, round_index, 200)
            if cull_public and round_index == 8:
                for row in eng.live_public_rows()[3:]:
                    eng.kill(row)
        engine.run_round()
        oracle_round(reference)
        assert engine.fingerprint() == reference.fingerprint(), round_index
    assert engine.packets_sent == reference.packets_sent
    assert list(engine.drops.items()) == list(reference.drops.items())
    assert must_drop <= set(engine.drops)


class TestScalarOracle:
    @pytest.mark.parametrize("protocol,options,cull_public,must_drop", ORACLE_CASES)
    def test_every_round_matches_oracle(self, protocol, options, cull_public,
                                        must_drop):
        run_against_oracle(protocol, options, cull_public, must_drop)

    @pytest.mark.parametrize("protocol,options,cull_public,must_drop", ORACLE_CASES)
    def test_every_round_matches_oracle_in_7_row_blocks(
        self, monkeypatch, protocol, options, cull_public, must_drop
    ):
        """The row-blocked phases (A–C, H) write the same bytes when the blocks
        split the 200-odd rows and their exchanges at every seventh one."""
        monkeypatch.setattr(columnar_shuffle, "_BLOCK_ROWS", 7)
        run_against_oracle(protocol, options, cull_public, must_drop)


class TestRoundMemory:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_round_transient_is_bounded_per_node(self, monkeypatch, protocol):
        """One round's traced allocation high-water above the pre-round state
        stays under 0.58 KB per node (1.25x the 0.46 KB Croupier took when the
        bound was set; with the waves laid out wave-major it takes 0.44 KB,
        the others 0.23 KB): the blocked phases scale with the block, and only
        the delivered exchanges' requests and replies, held at int32 ids,
        scale with N."""
        monkeypatch.setattr(columnar_shuffle, "_BLOCK_ROWS", 512)
        nodes = 5000
        engine = ColumnarEngine(protocol, view_size=10, shuffle_size=5,
                                rng=random.Random(3))
        for index in range(nodes):
            engine.add_node(public=index % 5 == 0)
        for _ in range(3):
            engine.run_round()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine.run_round()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / nodes <= 0.58 * 1024


def column_bytes(engine):
    return sum(len(column) * column.itemsize
               for column in vars(engine).values() if isinstance(column, array))


class TestColumnWidth:
    #: Column bytes per row at the scenario defaults (view 10, alpha window
    #: 25, estimate cache 32, 3 relay parents): ids, ages and per-round
    #: counters at int32, byte totals, window sums and estimates at 64 bits.
    BYTES_PER_ROW = {"croupier": 947, "cyclon": 115, "gozar": 127, "nylon": 155}

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_bytes_per_row_at_defaults(self, protocol):
        engine = make_scenario(protocol=protocol).engine
        # ``alive`` has one entry per allocated row.
        assert column_bytes(engine) == self.BYTES_PER_ROW[protocol] * len(engine.alive)

    def test_reserve_is_exact_and_growth_adds_an_eighth(self):
        engine = ColumnarEngine("cyclon", view_size=10, shuffle_size=5,
                                rng=random.Random(1))
        engine.reserve(100)
        for index in range(100):
            engine.add_node(public=index % 5 == 0)
        assert len(engine.alive) == engine.rows == 101
        engine.add_node(public=True)
        assert len(engine.alive) == 101 + 101 // 8
        assert column_bytes(engine) == 115 * len(engine.alive)


class TestRowLimit:
    """Rows are int32 ids and 24-bit wire IPs and are never recycled: crossing
    ``ROW_LIMIT`` is a named error, never two rows sharing an IP."""

    @staticmethod
    def engine():
        return ColumnarEngine("cyclon", view_size=4, shuffle_size=2,
                              rng=random.Random(1))

    def test_add_node_refuses_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(columnar_engine, "ROW_LIMIT", 10)
        engine = self.engine()
        assert [engine.add_node(public=True) for _ in range(9)] == list(range(1, 10))
        with pytest.raises(ConfigurationError, match="ROW_LIMIT = 10"):
            engine.add_node(public=True)
        assert engine.rows == 10 and engine.live_count() == 9

    def test_reserve_refuses_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(columnar_engine, "ROW_LIMIT", 10)
        engine = self.engine()
        engine.reserve(9)
        with pytest.raises(ConfigurationError, match="ROW_LIMIT = 10"):
            engine.reserve(10)

    def test_churn_runs_into_the_limit(self, monkeypatch):
        monkeypatch.setattr(columnar_engine, "ROW_LIMIT", 80)
        scenario = make_scenario(n_public=10, n_private=40)
        with pytest.raises(ConfigurationError, match="ROW_LIMIT = 80"):
            for _ in range(20):
                scenario.churn_step(0.2)
        assert scenario.engine.rows == 80


#: ``(fingerprint, drops)`` after 24 rounds of a 24 + 96-node cell (seed 29)
#: with 3 % churn a round from round 4, a 10 % loss burst over rounds 8-14 and
#: a 30 % partition over rounds 12-18. Recorded while the id columns were
#: int64: ``fingerprint()`` hashes values, so they hold at any storage width.
#: The hashes were re-recorded when tx/rx moved to ``repro.wire``'s sizes; the
#: same fingerprint without ``tx_bytes``/``rx_bytes``, and the drops, did not move.
PINNED_CELL_FINGERPRINTS = {
    "croupier": (
        "53199a4143ea1a10830582709849f56e7a04a28a154f3e3b16f544c8e6900bc7",
        [("dead_host", 713), ("link_loss", 104), ("partitioned", 238)],
    ),
    "cyclon": (
        "5f9e095149b9096d45d640b2b25be7ac96f5e3e070eec24447d0cbc3d89dff15",
        [("dead_host", 464), ("link_loss", 81), ("nat_filtered", 692),
         ("partitioned", 252)],
    ),
    "gozar": (
        "9d989dca7bfec4a099b1135054601e0ec12b148fcf597aefb2dd923e67f67e2d",
        [("dead_host", 506), ("link_loss", 111), ("partitioned", 284)],
    ),
    "nylon": (
        "0d82bbef3bc6fd3d83047156d2c96bb66c9e58d914f67e142ae1809d992f2860",
        [("broken_chain", 65), ("dead_host", 494), ("link_loss", 108),
         ("partitioned", 270)],
    ),
}


class TestPinnedFingerprints:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_fingerprint_unchanged(self, protocol):
        scenario = make_scenario(seed=29, n_public=24, n_private=96, protocol=protocol)
        Timeline((
            ChurnPhase(fraction_per_round=0.03, start_round=4.0),
            LossBurst(start_round=8.0, stop_round=14.0, loss_rate=0.1),
            Partition(start_round=12.0, stop_round=18.0, fraction=0.3),
        )).install(scenario, horizon_rounds=24).advance_rounds(24)
        engine = scenario.engine
        assert (engine.fingerprint(), sorted(engine.drops.items())) == (
            PINNED_CELL_FINGERPRINTS[protocol])


#: ``(fingerprint, drops)`` after 6 rounds of a static 400 + 1 600-node cell
#: (seed 11, 5 % loss) in 512-row blocks: 22-26 waves a round and four H blocks
#: of about 1 900 delivered exchanges, where the oracle's 200-row cells run a
#: handful of waves. Recorded before the exchanges were laid out wave-major,
#: while each wave fancy-indexed its rows and H ran in ascending initiator order.
PINNED_MULTIWAVE_FINGERPRINTS = {
    "croupier": (
        "6b14d5abc567525d55ba8190069fe7fc438127973d0dc5cf981d5bc0bc444896",
        [("link_loss", 1235)],
    ),
    "nylon": (
        "13a35b75a1b66fd9a554f36803ab0ef3bee0169c53f95e02f5e4f14f9422400a",
        [("link_loss", 1235)],
    ),
}


class TestPinnedMultiWave:
    @pytest.mark.parametrize("protocol", sorted(PINNED_MULTIWAVE_FINGERPRINTS))
    def test_fingerprint_unchanged(self, monkeypatch, protocol):
        monkeypatch.setattr(columnar_shuffle, "_BLOCK_ROWS", 512)
        scenario = make_scenario(seed=11, n_public=400, n_private=1600,
                                 protocol=protocol)
        scenario.set_loss_rate(0.05)
        for _ in range(6):
            scenario.engine.run_round()
        engine = scenario.engine
        assert (engine.fingerprint(), sorted(engine.drops.items())) == (
            PINNED_MULTIWAVE_FINGERPRINTS[protocol])


# ----------------------------------------------------------- kernel-level oracle

#: Ids come from a universe this small so that what 40 000-node runs almost
#: never produce is the common case here: a received id already in the view,
#: the same id received twice, a row's own id, more entries than targets.
N_IDS = 8
_entry = st.integers(-1, N_IDS - 1)
_rows = st.integers(0, 6).flatmap(  # M = 0 and M = 1 included
    lambda m: st.lists(st.integers(0, N_IDS - 1), unique=True, min_size=m, max_size=m))


def _table(draw, width, *row_kinds):
    """``N_IDS`` rows of ``width`` cells, each row drawn from one of the kinds."""
    row = st.one_of(*(st.lists(kind, min_size=width, max_size=width)
                      for kind in row_kinds))
    return draw(st.lists(row, min_size=N_IDS, max_size=N_IDS))


@st.composite
def merge_cases(draw):
    V, R = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    S = draw(st.integers(0, V))
    ids = _table(draw, V, st.just(-1), st.integers(0, N_IDS - 1), _entry)
    ages = _table(draw, V, st.integers(0, 40))
    aux = _table(draw, V, _entry) if draw(st.booleans()) else None
    rows = draw(_rows)
    received = [
        (draw(st.lists(_entry, min_size=R, max_size=R)),
         draw(st.lists(st.integers(0, 40), min_size=R, max_size=R)),
         draw(_entry))
        for _ in rows
    ]
    sent = []
    for row in rows:
        # Distinct slots, as a keyed subset returns them; -1 is the appended
        # self descriptor or padding. The id is the one at the slot (a sent
        # entry still in place) or any other (one that no longer is).
        slots = [draw(st.just(-1) | st.just(slot))
                 for slot in draw(st.permutations(range(V)))[:S]]
        sent.append((
            [draw(st.just(ids[row][slot] if slot >= 0 else row) | _entry)
             for slot in slots],
            slots,
        ))
    return V, R, S, ids, ages, aux, rows, received, sent


@st.composite
def ingest_cases(draw):
    C, B = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    born = st.integers(-5, 20)
    value = st.integers(0, 100).map(lambda percent: percent / 100)
    ring = (_table(draw, C, _entry), _table(draw, C, value), _table(draw, C, born))
    cursor = draw(st.lists(st.integers(0, C - 1), min_size=N_IDS, max_size=N_IDS))
    rows = draw(_rows)
    bundles = [
        draw(st.lists(st.tuples(st.integers(0, N_IDS - 1), value, born,
                                st.booleans()), min_size=B, max_size=B))
        for _ in rows
    ]
    return C, B, ring, cursor, rows, bundles


def _flat(table):
    return [cell for row in table for cell in row]


def _merge_inputs(case):
    """A merge case at the engine's widths: the ``(ids, ages, aux)`` columns
    (int32), then the row-aligned arguments — rows and aux values as intp row
    indices, int32 received and sent entries, int8 sent slots."""
    V, R, S, ids, ages, aux, rows, received, sent = case
    M = len(rows)

    def block(columns, index, width, dtype=np.int32):
        cells = [column[index] for column in columns]
        return np.array(cells, dtype=dtype).reshape(M, width)

    columns = (np.array(ids, dtype=np.int32), np.array(ages, dtype=np.int32),
               np.array(aux, dtype=np.int32) if aux else None)
    aligned = (np.array(rows, dtype=np.intp), block(received, 0, R),
               block(received, 1, R), np.array([r[2] for r in received], dtype=np.intp),
               block(sent, 0, S), block(sent, 1, S, np.int8))
    return columns, aligned


INGEST_COLUMNS = ("est_pos", "est_origin", "est_val", "est_born")


def _ingest_engine(case):
    C, B, (origin, value, born), cursor, rows, bundles = case
    return SimpleNamespace(
        C=C, est_pos=array("i", cursor), est_origin=array("i", _flat(origin)),
        est_val=array("d", _flat(value)), est_born=array("i", _flat(born)),
    )


def _ingest_inputs(case):
    """An ingest case's row-aligned arguments: rows, then the bundles'
    origins, values, borns and valid flags as ``(M, B)`` arrays."""
    C, B, ring, cursor, rows, bundles = case

    def block(index, dtype):
        cells = [[entry[index] for entry in bundle] for bundle in bundles]
        return np.array(cells, dtype=dtype).reshape(len(rows), B)

    return (np.array(rows, dtype=np.intp), block(0, np.int32), block(1, np.float64),
            block(2, np.int32), block(3, bool))


def _keys_as_drawn(np, base, keys):
    """Stands in for ``crng.draws_np``: each key is its own draw, so a test
    chooses the ties."""
    return keys.copy()


@st.composite
def ranking_cases(draw):
    V = draw(st.integers(1, 8))
    width = draw(st.integers(1, V))
    M = draw(st.integers(0, 6))

    def table(cell):
        return st.lists(st.lists(cell, min_size=V, max_size=V), min_size=M, max_size=M)

    want = draw(st.lists(st.integers(0, width), min_size=M, max_size=M))
    key = st.integers(0, 40) | st.sampled_from([crng.MASK64 - 1, crng.MASK64])
    return V, width, draw(table(st.booleans())), draw(table(key)), want


class _ArgsortSpy:
    """numpy, recording the ``kind`` of every ``argsort`` made through it."""

    def __init__(self):
        self.kinds = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, keys, axis=-1, kind=None):
        self.kinds.append(kind)
        return np.argsort(keys, axis=axis, kind=kind)


class TestKernelOracle:
    """``_batch_merge_np`` / ``_batch_ingest_np`` against the oracle's one-row
    loops on generated inputs — the 200-node oracle runs never receive one id
    twice with two ages, or overflow a row's targets by much — and the
    properties the wave-major layout relies on: neither kernel depends on the
    order of its rows, and ``_ranked_slots_np`` is exact under every tie."""

    @given(case=merge_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_batch_merge_equals_merge_row(self, case):
        V, R, S, ids, ages, aux, rows, received, sent = case
        vid, vage = _flat(ids), _flat(ages)
        vaux = _flat(aux) if aux else None
        (ids2d, ages2d, aux2d), aligned = _merge_inputs(case)
        _batch_merge_np(np, ids2d, ages2d, aux2d, *aligned)
        for row, (rec_ids, rec_ages, rec_aux), (sent_ids, sent_slots) in zip(
                rows, received, sent):
            _merge_row(SimpleNamespace(V=V), vid, vage, vaux, row,
                       rec_ids, rec_ages, rec_aux, sent_ids, sent_slots)
        assert ids2d.reshape(-1).tolist() == vid
        assert ages2d.reshape(-1).tolist() == vage
        if aux:
            assert aux2d.reshape(-1).tolist() == vaux

    @given(case=ingest_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_batch_ingest_equals_ingest_estimates(self, case):
        rows, bundles = case[4:]
        batched, reference = _ingest_engine(case), _ingest_engine(case)
        _batch_ingest_np(batched, np, *_ingest_inputs(case))
        for row, bundle in zip(rows, bundles):
            _ingest_estimates(reference, row,
                              [entry[:3] for entry in bundle if entry[3]])
        for column in INGEST_COLUMNS:
            assert getattr(batched, column) == getattr(reference, column), column

    # Phase H merges and ingests each block in wave-major order, not in
    # ascending initiator order: the kernels must not see the difference.

    @given(case=merge_cases(), data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_batch_merge_is_free_of_row_order(self, case, data):
        order = np.array(data.draw(st.permutations(range(len(case[6])))), dtype=np.intp)
        columns, aligned = _merge_inputs(case)
        permuted, _ = _merge_inputs(case)
        _batch_merge_np(np, *columns, *aligned)
        _batch_merge_np(np, *permuted, *(arg[order] for arg in aligned))
        for column, other in zip(columns, permuted):
            if column is not None:
                assert column.tolist() == other.tolist()

    @given(case=ingest_cases(), data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_batch_ingest_is_free_of_row_order(self, case, data):
        order = np.array(data.draw(st.permutations(range(len(case[4])))), dtype=np.intp)
        batched, permuted = _ingest_engine(case), _ingest_engine(case)
        aligned = _ingest_inputs(case)
        _batch_ingest_np(batched, np, *aligned)
        _batch_ingest_np(permuted, np, *(arg[order] for arg in aligned))
        for column in INGEST_COLUMNS:
            assert getattr(batched, column) == getattr(permuted, column), column

    @given(case=ranking_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_ranked_slots_are_in_key_slot_order(self, case):
        """The valid prefix is exactly ``sorted((key, slot))``'s, whatever the
        ties: ineligible slots all share the ``MASK64`` key, and keys drawn
        from 0-40 and the top two values tie outright, tie in all but the bits
        a slot takes over, or tie with the sentinel."""
        V, width, elig, keys, want = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crng, "draws_np", _keys_as_drawn)
            take, valid, cnt = _ranked_slots_np(
                np, np.array(elig, dtype=bool).reshape(len(want), V),
                np.array(keys, dtype=np.uint64).reshape(len(want), V),
                0, np.array(want, dtype=np.int64), width)
        assert take.shape == valid.shape == (len(want), width)
        for row, (ok, row_keys, wanted) in enumerate(zip(elig, keys, want)):
            ranked = sorted((key if eligible else crng.MASK64, slot)
                            for slot, (eligible, key) in enumerate(zip(ok, row_keys)))
            taken = min(wanted, sum(ok))
            assert cnt[row] == taken
            assert valid[row].tolist() == [j < taken for j in range(width)]
            assert take[row, :taken].tolist() == [slot for _, slot in ranked[:taken]]

    def test_ranked_slots_rerank_stably_only_on_a_taken_tie(self, monkeypatch):
        """With five slots a slot takes a key's low three bits, so 0x50 and
        0x53 tie once packed: taken together, they send the batch to the
        stable argsort, which ranks 0x50 first. Keys apart in their high bits
        (0x58) and the ``MASK64`` tail past the prefix need no rerank."""
        monkeypatch.setattr(crng, "draws_np", _keys_as_drawn)
        spy = _ArgsortSpy()
        elig = np.array([[True, True, True, False, False]])
        for keys, kinds in (([0x58, 0x90, 0x50, 7, 7], []),
                            ([0x53, 0x90, 0x50, 7, 7], ["stable"])):
            spy.kinds.clear()
            take, valid, cnt = _ranked_slots_np(
                spy, elig, np.array([keys], dtype=np.uint64), 0, np.array([2]), 3)
            assert spy.kinds == kinds
            assert take[0, :2].tolist() == [2, 0] and cnt.tolist() == [2]


class TestViewUniqueness:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_no_self_and_no_duplicate_ids(self, protocol):
        """No live row's public (for croupier also private) view ever holds its
        own id or one id twice — what makes the merge rule's "the slot whose
        snapshot id matches" one slot. Under Croupier's strategy, moreover, the
        public view names only public rows, the private view only private rows,
        and no request is ever addressed to a private row."""
        engine = ColumnarEngine(protocol, view_size=10, shuffle_size=5,
                                rng=random.Random(23))
        for index in range(300):
            engine.add_node(public=index % 5 == 0)
        engine.configure_loss(0.05, 0.1)
        V = engine.V
        views = [engine.pub_id] + ([engine.priv_id] if engine.estimating else [])
        for round_index in range(30):
            disturb(engine, round_index, 300)
            engine.run_round()
            for row in engine.live_rows():
                for column in views:
                    ids = [nid for nid in column[row * V:(row + 1) * V] if nid >= 0]
                    assert row not in ids, (round_index, row)
                    assert len(set(ids)) == len(ids), (round_index, row, ids)
                if engine.strategy is NatStrategy.CROUPIER:
                    for column, public in ((engine.pub_id, 1), (engine.priv_id, 0)):
                        ids = [nid for nid in column[row * V:(row + 1) * V] if nid >= 0]
                        assert all(engine.is_public[nid] == public for nid in ids), (
                            round_index, row, public, ids)
        if engine.strategy is NatStrategy.CROUPIER:
            assert engine.drops.get("nat_filtered", 0) == 0


# ----------------------------------------------------------------- columnar scenario


class TestColumnarKnobHonesty:
    """The columnar counterpart of the object engine's knob honesty: a
    ``PssConfig`` field is either read or refused, never silently ignored."""

    def test_unread_pss_config_fields_are_the_round_synchronous_delta(self):
        """Only the two timing knobs a round-synchronous engine has no use for
        (docs/columnar_backend.md, "time") and ``port`` (rows have no
        endpoints) go unread by ``repro.columnar``."""
        package = Path(columnar_engine.__file__).parent
        source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
        unread = {
            f.name for f in fields(PssConfig)
            if not re.search(rf'\.{f.name}\b|"{f.name}"', source)
        }
        assert unread == {"round_jitter_ms", "start_delay_max_ms", "port"}

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_selection_is_refused(self, protocol):
        """Phase A always takes the oldest slot, so ``selection=RANDOM`` is a
        named error rather than a tail-selection run under a random label."""
        config = get_plugin(protocol).default_config()
        config.selection = SelectionPolicy.RANDOM
        with pytest.raises(ConfigurationError) as excinfo:
            ColumnarScenario(columnar_config(protocol=protocol, pss_config=config))
        assert "selection='random'" in str(excinfo.value)
        assert "engine='columnar'" in str(excinfo.value)
        config.selection = SelectionPolicy.TAIL
        ColumnarScenario(columnar_config(protocol=protocol, pss_config=config))


class TestColumnarScenario(ScenarioContract):
    """The scenario contract on the columnar engine, plus what only it has."""

    engine = "columnar"

    def test_clone_keeps_the_fingerprint(self):
        scenario = make_scenario(seed=14)
        scenario.run_rounds(8)
        clone = scenario.clone()
        scenario.run_rounds(7)
        clone.run_rounds(7)
        assert scenario.engine.fingerprint() == clone.engine.fingerprint()

    def test_sample_class_counts(self):
        """The columnar engine keeps no per-node sampler; the contract's sample
        draw is refused by name."""
        scenario = self.build()
        scenario.run_rounds(4)
        with pytest.raises(ConfigurationError, match="runs only on engine='object'"):
            scenario.sample_class_counts(3)

    def test_rejects_object_only_features(self):
        with pytest.raises(ConfigurationError):
            ColumnarScenario(columnar_config(identify_nat_types=True))
        with pytest.raises(ConfigurationError):
            ColumnarScenario(ScenarioConfig(protocol="croupier", seed=1))

    def test_determinism_same_seed_same_fingerprint(self):
        runs = []
        for _ in range(2):
            scenario = make_scenario(seed=13)
            scenario.run_rounds(12)
            runs.append(scenario.engine.fingerprint())
        assert runs[0] == runs[1]

    def test_timeline_installs_and_fires(self):
        scenario = make_scenario(seed=16, n_public=12, n_private=48)
        timeline = get_timeline("paper-failure")
        installed = timeline.install(scenario, horizon_rounds=70)
        installed.advance_rounds(65)
        # Half the population dies at the t=61 boundary.
        assert scenario.live_count() == 30


# ------------------------------------------------------------------- engine axis


class TestOverlayView:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_view_equals_dict_of_sets(self, protocol):
        """``overlay_graph()`` is a read-only view over the view columns with the
        object engine's dict semantics: live rows only, ascending, no self-loops,
        no edges to dead rows — checked on a churn + loss + partition cell with
        rows dead enough to split the overlay, against a dict built the long
        way, and through every partition metric."""
        scenario = make_scenario(protocol=protocol, seed=31, loss_rate=0.1)
        engine = scenario.engine
        scenario.run_rounds(4)
        engine.set_partition(range(3, engine.rows, 3))
        scenario.churn_step(0.2)
        scenario.run_rounds(4)
        engine.set_partition(())
        scenario.kill_random_fraction(0.85)
        alive = engine.alive
        reference = {
            row: {nid for nid in engine.view_ids(row) if nid != row and alive[nid]}
            for row in range(1, engine.rows)
            if alive[row]
        }
        view = scenario.overlay_graph()
        assert isinstance(view, Mapping) and not isinstance(view, MutableMapping)
        assert list(view.items()) == list(reference.items())
        assert view == reference
        assert len(view) == len(reference) == scenario.live_count()
        dead = [row for row in range(1, engine.rows) if not alive[row]]
        assert dead
        for row in dead + [0, -1, engine.rows, engine.rows + 5, "1", 1.5]:
            assert row not in view
            with pytest.raises(KeyError):
                view[row]
        assert all(row in view for row in reference)
        assert largest_cluster_fraction(view) == largest_cluster_fraction(reference)
        assert partition_count(view) == partition_count(reference) > 1
        assert connected_components(view) == connected_components(reference)
        assert build_overlay_graph(view) == reference


class TestEngineAxis:
    def test_engines_vocabulary(self):
        assert ENGINES == ("object", "columnar")

    def test_create_scenario_dispatch(self):
        assert isinstance(
            create_scenario(ScenarioConfig(protocol="croupier", seed=1)), Scenario
        )
        assert isinstance(create_scenario(columnar_config()), ColumnarScenario)

    def test_object_scenario_rejects_columnar_config(self):
        with pytest.raises(ConfigurationError):
            Scenario(columnar_config())

    def test_default_engine_keeps_legacy_cell_keys(self):
        """The axis is additive: engine=object cells carry the exact pre-axis key."""
        from repro.experiments.matrix import CellSpec

        legacy = CellSpec(scenario="static", protocol="croupier", size=60,
                          seed_index=0, rounds=10)
        assert "engine" not in legacy.key
        columnar = CellSpec(scenario="static", protocol="croupier", size=60,
                            seed_index=0, rounds=10, engine="columnar")
        assert ";engine=columnar" in columnar.key
        assert columnar.key.replace(";engine=columnar", "") == legacy.key

    def test_columnar_cell_seed_differs_from_object(self):
        from repro.experiments.matrix import CellSpec, derive_cell_seed

        base = dict(scenario="static", protocol="croupier", size=60,
                    seed_index=0, rounds=10)
        assert derive_cell_seed(42, CellSpec(**base).key) != derive_cell_seed(
            42, CellSpec(engine="columnar", **base).key
        )

    def test_matrix_validates_columnar_protocols(self):
        from repro.experiments.matrix import MatrixSpec

        spec = MatrixSpec(scenarios=("static",), protocols=("newscast",),
                          sizes=(20,), seeds=1, rounds=5,
                          engines=("columnar",))
        with pytest.raises(ExperimentError):
            spec.validate()

    def test_matrix_runs_both_engines(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.runner import run_matrix

        spec = MatrixSpec(scenarios=("static",), protocols=("croupier",),
                          sizes=(40,), seeds=1, rounds=8, latency="constant",
                          engines=("object", "columnar"))
        result = run_matrix(spec, workers=1)
        assert not result.failed
        groups = result.aggregate["groups"]
        assert set(groups) == {
            "scenario=static;protocol=croupier;size=40",
            "scenario=static;protocol=croupier;engine=columnar;size=40",
        }
        for metrics in groups.values():
            assert 0.0 < metrics["est_mean"]["mean"] < 1.0


# -------------------------------------------------------------------- scale kind


class TestScaleKind:
    def test_scale_cell_runs_on_both_engines(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.runner import run_matrix

        spec = MatrixSpec(scenarios=("scale",), protocols=("croupier",),
                          sizes=(50,), seeds=1, rounds=12, latency="constant",
                          engines=("object", "columnar"))
        result = run_matrix(spec, workers=1)
        assert not result.failed
        for payload in (r.payload for r in result.results):
            assert "est_err_avg_final" in payload.scalars
            assert "est_nodes_measured" in payload.scalars
            assert "in_degree" in payload.histograms
            assert "est_err_avg" in payload.series
            # No graph walks at scale: the GraphProbe-only metrics are absent.
            assert "path_length" not in payload.scalars
            assert "clustering" not in payload.scalars

    def test_scale_invariance_report_section(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.report import matrix_markdown_summary
        from repro.experiments.runner import run_matrix

        spec = MatrixSpec(scenarios=("scale",), protocols=("croupier",),
                          sizes=(40, 80), seeds=1, rounds=10, latency="constant",
                          engines=("columnar",))
        summary = matrix_markdown_summary(run_matrix(spec, workers=1).aggregate)
        assert "## Scale invariance" in summary
        assert "| columnar | 40 |" in summary
        assert "| columnar | 80 |" in summary

    def test_legacy_report_has_no_scale_section(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.report import matrix_markdown_summary
        from repro.experiments.runner import run_matrix

        spec = MatrixSpec(scenarios=("static",), protocols=("croupier",),
                          sizes=(30,), seeds=1, rounds=5, latency="constant")
        summary = matrix_markdown_summary(run_matrix(spec, workers=1).aggregate)
        assert "Scale invariance" not in summary

    def test_run_scale_experiment_harness(self):
        from repro.experiments.scale import run_scale_experiment

        result = run_scale_experiment(nodes=300, rounds=20, seed=3,
                                      churn_fraction=0.02, measure_every=2)
        assert [v.label for v in result.variants] == ["static", "churn"]
        for variant in result.variants:
            assert variant.nodes_measured > 0
            assert variant.final_avg_error is not None
            assert variant.node_rounds_per_sec > 0
            assert variant.peak_rss_mb > 0
            assert variant.est_scatter
            assert all(0.0 <= value <= 1.0 for value in variant.est_scatter)
        text = result.to_text()
        assert "static" in text and "churn" in text
        assert "estimate scatter" in text

    def test_scale_cell_records_estimate_scatter(self):
        from repro.experiments.matrix import MatrixSpec
        from repro.experiments.runner import run_matrix
        from repro.experiments.scale import SCATTER_CAPACITY

        spec = MatrixSpec(scenarios=("scale",), protocols=("croupier",),
                          sizes=(50,), seeds=1, rounds=12, latency="constant",
                          engines=("object", "columnar"))
        result = run_matrix(spec, workers=1)
        assert not result.failed
        by_engine = {
            ("columnar" if "engine=columnar" in r.cell.key else "object"): r.payload
            for r in result.results
        }
        scatter = by_engine["columnar"].series["est_scatter"]
        assert 0 < len(scatter) <= SCATTER_CAPACITY
        assert all(0.0 <= value <= 1.0 for _idx, value in scatter)
        # Both engines sample the same contract read, so object cells carry one too.
        object_scatter = by_engine["object"].series["est_scatter"]
        assert 0 < len(object_scatter) <= SCATTER_CAPACITY

    def test_scatter_is_deterministic(self):
        from repro.experiments.scale import sample_estimate_scatter

        samples = []
        for _ in range(2):
            scenario = make_scenario(seed=31, n_public=40, n_private=160)
            scenario.run_rounds(12)
            samples.append(sample_estimate_scatter(scenario))
        assert samples[0] == samples[1]
        assert samples[0]


# ------------------------------------------------------- NAT protocol ports


NAT_PROTOCOLS = ("gozar", "nylon")


class TestNatProtocolPorts:
    """Gozar and Nylon on the columnar engine: strategy dispatch, cell keys."""

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    def test_capability_dispatch(self, protocol):
        """The engine takes the strategy the plugin declares and allocates that
        strategy's columns, and only those."""
        scenario = make_scenario(protocol=protocol)
        engine = scenario.engine
        expected = NatStrategy.RELAY if protocol == "gozar" else NatStrategy.HOLE_PUNCH
        assert engine.strategy is scenario.plugin.nat_strategy is expected
        assert not engine.estimating and not hasattr(engine, "priv_id")
        assert hasattr(engine, "parent_id") == (expected is NatStrategy.RELAY)
        assert hasattr(engine, "learned_from") == (expected is NatStrategy.HOLE_PUNCH)

    def test_croupier_strategy_unchanged(self):
        engine = make_scenario().engine
        assert engine.strategy is NatStrategy.CROUPIER
        assert engine.estimating and hasattr(engine, "priv_id")
        assert not hasattr(engine, "parent_id") and not hasattr(engine, "learned_from")

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    def test_in_degree_histogram_matches_graph(self, protocol):
        """The streamed in-degree histogram counts every edge of the overlay view."""
        scenario = make_scenario(protocol=protocol, seed=24, n_public=10,
                                 n_private=30)
        scenario.run_rounds(12)
        histogram = scenario.engine.in_degree_histogram().to_histogram()
        assert sum(histogram.values()) == scenario.live_count()
        total_edges = sum(bin_ * count for bin_, count in histogram.items())
        graph = scenario.overlay_graph()
        assert total_edges == sum(len(view) for view in graph.values())

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    def test_views_fill_and_private_nodes_reached(self, protocol):
        scenario = make_scenario(protocol=protocol, seed=25)
        scenario.run_rounds(20)
        graph = scenario.overlay_graph()
        assert sum(len(view) for view in graph.values()) > 0
        # NAT traversal working: some private node appears in somebody's view.
        private = set(scenario.live_private_ids())
        reached = {peer for view in graph.values() for peer in view}
        assert reached & private

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    def test_legacy_cell_keys_unchanged(self, protocol):
        from repro.experiments.matrix import CellSpec

        base = dict(scenario="static", protocol=protocol, size=60,
                    seed_index=0, rounds=10)
        legacy = CellSpec(**base)
        assert "engine" not in legacy.key
        columnar = CellSpec(engine="columnar", **base)
        assert columnar.key.replace(";engine=columnar", "") == legacy.key

    def test_matrix_validates_all_paper_protocols_on_columnar(self):
        from repro.experiments.matrix import MatrixSpec

        spec = MatrixSpec(scenarios=("static",), protocols=tuple(protocol_names()),
                          sizes=(20,), seeds=1, rounds=5, latency="constant",
                          engines=("columnar",))
        spec.validate()


# ------------------------------------------------------- NAT maintenance passes


def _nat_engine(protocol, n_public, n_private, **options):
    engine = ColumnarEngine(protocol, view_size=10, shuffle_size=5,
                            rng=random.Random(21), **options)
    for index in range(n_public + n_private):
        engine.add_node(public=index < n_public)
    return engine


class TestNatMaintenancePasses:
    """``maintain_parents`` / ``send_keepalives`` called directly, as
    ``run_round`` binds them (``repro.columnar.engine``)."""

    PASSES = {"gozar": columnar_engine.maintain_parents,
              "nylon": columnar_engine.send_keepalives}

    def test_parents_are_live_public_distinct(self):
        engine = _nat_engine("gozar", 30, 120, parent_count=3)
        P = engine.P
        for _wave in range(4):
            for _ in range(3):
                engine.run_round()
            # Kill parents out from under their children, then maintain only.
            for row in engine.live_public_rows()[::2]:
                engine.kill(row)
            columnar_engine.maintain_parents(engine)
            for row in engine.live_private_rows():
                parents = [p for p in engine.parent_id[row * P:(row + 1) * P]
                           if p >= 0]
                assert len(set(parents)) == len(parents) <= P
                assert all(engine.alive[p] and engine.is_public[p]
                           for p in parents)
        assert 0 < engine.public_count() < P  # the last wave recruits from a short pool

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    def test_traffic_balances_packets(self, protocol):
        """Every maintenance packet is sent and received once, at its kind's size:
        Nylon sends keep-alives; Gozar sends registrations and, on keep-alive
        rounds, one keep-alive per parent held after the pass (each with its ack)."""
        engine = _nat_engine(protocol, 20, 80, parent_keepalive_every_rounds=2,
                             keepalive_fanout=4)
        keepalive = wire.HEADER + wire.keepalive()
        registration = wire.HEADER + wire.registration()
        kinds = Counter()
        for _ in range(6):
            engine.run_round()
            for row in engine.live_rows()[::9]:
                engine.kill(row)
            before = (sum(engine.tx_bytes), sum(engine.rx_bytes),
                      engine.packets_sent)
            self.PASSES[protocol](engine)
            packets = engine.packets_sent - before[2]
            keepalives = packets
            if protocol == "gozar":
                keepalives = 0
                if engine.round % engine.parent_keepalive_every == 0:
                    P = engine.P
                    keepalives = 2 * sum(
                        p >= 0 for row in engine.live_private_rows()
                        for p in engine.parent_id[row * P:(row + 1) * P])
            registrations = packets - keepalives
            moved = keepalives * keepalive + registrations * registration
            assert sum(engine.tx_bytes) - before[0] == moved
            assert sum(engine.rx_bytes) - before[1] == moved
            kinds.update(keepalive=keepalives, registration=registrations)
        assert kinds["keepalive"] > 0
        assert kinds["registration"] > 0 or protocol == "nylon"

    @pytest.mark.parametrize("protocol", NAT_PROTOCOLS)
    @pytest.mark.parametrize("n_public", [0, 25])
    def test_noop_without_private_rows(self, protocol, n_public):
        """An empty engine and an all-public population: nothing to maintain."""
        engine = _nat_engine(protocol, n_public, 0)
        for _ in range(3):
            engine.run_round()
        before = engine.fingerprint()
        self.PASSES[protocol](engine)
        assert engine.fingerprint() == before


# ----------------------------------------------------------- cross-engine checks


class TestCrossEngine:
    def test_estimator_means_agree(self):
        """The CI equivalence contract, in-process: both engines' mean estimates
        converge to ω on the same population within loose tolerance."""
        results = {}
        for engine in ENGINES:
            scenario = create_scenario(
                ScenarioConfig(protocol="croupier", seed=9, latency="constant",
                               engine=engine)
            )
            scenario.populate(20, 80)
            scenario.run_rounds(40)
            estimates = scenario.ratio_estimates()
            results[engine] = sum(estimates) / len(estimates)
        assert abs(results["object"] - results["columnar"]) < 0.05
        for mean in results.values():
            assert math.isfinite(mean)
