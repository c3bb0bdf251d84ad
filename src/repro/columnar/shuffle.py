"""The batched shuffle pass: one round of gossip exchanges as columnwise phases.

A round's exchanges are decomposed into sub-phases that each touch every
exchange at once:

A. **Partner selection** — per live row, the oldest occupied primary-view slot
   (argmax over effective ages), tie-broken by a position-keyed draw; the
   selected slot is cleared.
B. **Request subsets** — per view, every slot gets a keyed draw (ineligible
   slots get the ``MASK64`` sentinel); slots sort by ``(key, slot)`` and the
   first ``min(want, eligible)`` are taken. The sender's own descriptor (age 0)
   is appended to its own-class subset.
C. **Delivery filtering** — wire sizes (:mod:`repro.wire`) and tx are
   accounted for every request, then drop masks apply in fixed precedence:
   ``link_loss`` → ``partitioned`` → ``dead_host`` → unreachable-partner (``nat_filtered``
   for croupier/cyclon; ``no_relay_parent`` for Gozar private partners with no
   live parent; ``broken_chain`` for Nylon private partners whose
   learned-from RVP is gone). Gozar relays and Nylon hole-punch control packets
   account their extra traffic here.
D. **Estimator counters** — delivered requests bump the partner's (Cu, Cv)
   current-round counters by initiator class (croupier only).
E–G. **Partner handling** — delivered exchanges, ordered by ``(partner,
   initiator)``: the reply subset is drawn from the partner's *current* view
   (keyed by ``initiator * V + slot``), the request is merged in, and the
   response estimate bundle is built from the post-ingest cache — the object
   protocol's request-handler order. The sequence executes as *waves* (one
   exchange per partner per wave, so batched rows are distinct); within a wave
   no two exchanges share a partner, so wave order equals one-exchange-at-a-time
   sequential order. The exchanges are permuted once into wave-major order, so
   a wave is a contiguous slice. Replies must not come from a pre-round
   snapshot: a popular partner would send every requester the same entries,
   which degenerates the overlay at scale.
H. **Responses** — wave-major order: size/tx accounting, response loss keyed
   by the partner's class, Gozar relay for private initiators, then batched
   merges into the (all-distinct) initiator rows. Any order writes the same
   bytes: writes go to own rows or commutative counts, draws are keyed by row.

Every random decision is a position-keyed counter draw (see
:mod:`repro.columnar.rng`), so results are independent of evaluation order —
which is what lets ``tests/columnar_oracle.py``, a scalar one-exchange-at-a-time
reference, pin this pass bit for bit.

Memory is bounded by the state, not by a round's worth of copies. A–C run
over blocks of :data:`_BLOCK_ROWS` initiator rows and H over blocks of as many
delivered exchanges; each block reads and writes only its own rows plus
commutative integer counters, so the blocking writes the same bytes for any
block size (``TestScalarOracle`` reruns with 7-row blocks). What crosses the
wave loop — the delivered requests, then their replies — is held once, at D
rows, and dropped when its last reader is done.

The merge rule: snapshot the pre-merge view; each received entry
(skipping negatives and the row's own id) first tries to *refresh* the slot
whose snapshot id matches (age becomes the min); unmatched entries are placed,
in received order, into ascending snapshot-empty slots, then over sent entries
still at their snapshot slot (in sent order); leftovers are dropped. All
refreshes land before any placement, so an eviction overwrites a refresh —
matching the object backend's sequential ``updateView``. "The slot whose id
matches" is one slot because a view never holds an id twice
(``tests/test_columnar.py::TestViewUniqueness``). :func:`_batch_merge_np`
executes the rule in three steps: an any-slot prefilter over all ``(M, R)``
received entries (its one Python loop, over the V slots); the exact slot and the
min-age refresh for the hit pairs only; then placement as two row-major
compactions — each row's first n unmatched entries, its first n targets — and
one flat scatter per column. Hits are rare at scale (about 0.3 % of received
entries at 40 000 nodes) and the common case at 10² nodes, where the oracle
runs.

Gozar and Nylon NAT maintenance (:func:`maintain_parents`,
:func:`send_keepalives`) runs every round as one batched phase over the live
private rows, pinned by the same oracle. Maintenance traffic ignores loss and
partitions (documented delta).
"""

from __future__ import annotations

from typing import Dict

from repro import wire
from repro.columnar import backend
from repro.columnar import rng as crng
from repro.columnar.backend import as_np
from repro.membership.base import NatStrategy

#: Drop-reason fold order: counts accumulate locally during the pass and fold
#: into ``engine.drops`` in this fixed order, so the dict's insertion order (and
#: therefore canonical JSON) does not depend on which reason fired first.
DROP_REASONS = (
    "link_loss",
    "partitioned",
    "dead_host",
    "nat_filtered",
    "no_relay_parent",
    "broken_chain",
)


#: Rows per block of the row-parallel phases (A–C over initiator rows, H over
#: delivered exchanges): their temporaries scale with this, not with the
#: population. Any positive value writes the same bytes.
_BLOCK_ROWS = 8192


def _fold_drops(eng, local: Dict[str, int]) -> None:
    for reason in DROP_REASONS:
        count = local[reason]
        if count:
            eng.drops[reason] = eng.drops.get(reason, 0) + count


def _ranked_slots_np(np, elig, slotkeys, stream_base, want, width):
    """Batched keyed ranking over an ``(M, V)`` slot-eligibility mask.

    Per row: sentinel keys for ineligible slots, slots in ``(key, slot)``
    order, first ``min(want, eligible)`` taken. Returns the ``(M, width)``
    ranked slots, which of them are taken, and the per-row count. Rows are
    sorted by key with the slot in its low bits: that is ``(key, slot)`` order
    on a taken prefix unless two keys adjacent in it or just past it share
    their high bits (64-bit draws almost never do); then a stable argsort
    ranks the batch instead."""
    V = slotkeys.shape[1]
    low = np.uint64((1 << max(1, (V - 1).bit_length())) - 1)  # a slot's bits
    keys = crng.draws_np(np, stream_base, slotkeys)
    keys = np.where(elig, keys, np.uint64(crng.MASK64))
    cnt = np.minimum(want, elig.sum(axis=1))
    packed = np.sort(keys & ~low | np.arange(V, dtype=np.uint64), axis=1)
    high = packed[:, :width + 1] | low
    tie = (high[:, 1:] == high[:, :-1]) & (np.arange(high.shape[1] - 1) < cnt[:, None])
    take = (np.argsort(keys, axis=1, kind="stable")[:, :width] if tie.any()
            else (packed[:, :width] & low).astype(np.intp))
    valid = np.arange(width)[None, :] < cnt[:, None]
    return take, valid, cnt


def _subsets_np(np, ids2d, ages2d, rows, slotkeys, stream_base, want,
                exclude, self_mask, width):
    """Batched keyed-subset selection over the view columns at ``rows``:
    :func:`_ranked_slots_np` over their occupied (and not excluded) slots,
    then the optional self descriptor (the row's own id) at column ``cnt``."""
    view_ids = np.take(ids2d, rows, axis=0)
    V = view_ids.shape[1]
    elig = view_ids >= 0
    if exclude is not None:
        elig &= view_ids != exclude[:, None]
    take, valid, cnt = _ranked_slots_np(np, elig, slotkeys, stream_base, want, width)
    slots = np.where(valid, take, -1)
    flat = rows[:, None] * V + take
    ids = np.where(valid, ids2d.reshape(-1)[flat], -1)
    ages = np.where(valid, ages2d.reshape(-1)[flat], 0)
    if self_mask is not None:
        own = np.nonzero(self_mask)[0]
        ids[own, cnt[own]] = rows[own]
        ages[own, cnt[own]] = 0
        cnt = cnt + self_mask
    return slots, ids, ages, cnt


def _row_runs_np(np, mask):
    """Row-major running count of an ``(M, W)`` mask's set cells, and per row
    the count before its first cell — one flat cumsum instead of M short ones."""
    run = mask.reshape(-1).cumsum(dtype=np.int32).reshape(mask.shape)
    before = np.zeros(mask.shape[0], dtype=run.dtype)
    before[1:] = run[:-1, -1]
    return run, before


def _batch_merge_np(np, ids2d, ages2d, aux2d, rows,
                    rec_ids, rec_ages, rec_aux, sent_ids, sent_slots):
    """Apply the merge rule to many *distinct* rows at once.

    ``ids2d`` / ``ages2d`` / ``aux2d`` (or None): C-contiguous ``(n, V)``
    columns, written through flat views; ``rows``: (M,) distinct row indices;
    ``rec_*``: (M, R) received entries (``rec_aux``: (M,) per-row aux value);
    ``sent_*``: (M, S)."""
    M, R = rec_ids.shape
    V = ids2d.shape[1]
    ids_flat, ages_flat = ids2d.reshape(-1), ages2d.reshape(-1)
    aux_flat = None if aux2d is None else aux2d.reshape(-1)
    snap = np.take(ids2d, rows, axis=0)  # gather == pre-merge snapshot copy
    base = rows * V
    valid = (rec_ids >= 0) & (rec_ids != rows[:, None])
    # Refresh: "anywhere in the snapshot?" for every pair, the slot and the
    # min-age write for the hit pairs only.
    hit = np.zeros((M, R), dtype=bool)
    for s in range(V):
        hit |= rec_ids == snap[:, s, None]
    hit &= valid  # a -1 entry "matches" every empty slot
    hr, hj = np.divmod(np.flatnonzero(hit), R)
    flat = base[hr] + (snap[hr] == rec_ids[hr, hj][:, None]).argmax(axis=1)
    np.minimum.at(ages_flat, flat, rec_ages[hr, hj])  # duplicates: min wins
    if aux_flat is not None:
        aux_flat[flat] = rec_aux[hr]
    # Placement: a row's targets are its snapshot-empty slots, ascending, then
    # the sent entries still at their snapshot slot (ids are unwritten so far,
    # so ``ids_flat`` reads as the snapshot). Its first n unmatched entries go
    # to its first n targets; both compactions are row-major, so they line up.
    unmatched = valid & ~hit
    held = np.where(sent_slots >= 0, sent_slots, 0)
    still = ((sent_ids >= 0) & (sent_slots >= 0)
             & (ids_flat[base[:, None] + held] == sent_ids))
    free = np.concatenate((snap < 0, still), axis=1)
    slot = np.concatenate((np.broadcast_to(np.arange(V), (M, V)), sent_slots), axis=1)
    urun, ubefore = _row_runs_np(np, unmatched)
    frun, fbefore = _row_runs_np(np, free)
    n = np.minimum(urun[:, -1] - ubefore, frun[:, -1] - fbefore)
    src = np.flatnonzero(unmatched & (urun <= (ubefore + n)[:, None]))
    dst = np.flatnonzero(free & (frun <= (fbefore + n)[:, None]))
    flat = (base[:, None] + slot).reshape(-1)[dst]
    ids_flat[flat] = rec_ids.reshape(-1)[src]
    ages_flat[flat] = rec_ages.reshape(-1)[src]
    if aux_flat is not None:
        aux_flat[flat] = np.repeat(rec_aux, n)


def _bundles_np(eng, np, rows):
    """What each of ``rows`` piggybacks on a shuffle: (origs, vals, borns,
    valid) as (M, 1+FWD) arrays — its own local estimate (origin = itself, born
    = this round) first, then its FWD most recently received ring entries with
    their original origin and born round, freshness-masked (the wire equivalent
    of the paper's 5-byte id+counts+timestamp encoding)."""
    C, G, FWD = eng.C, eng.G, eng.FWD
    M = rows.size
    B = 1 + FWD
    origs = np.full((M, B), -1, dtype=np.int32)
    vals = np.zeros((M, B))
    borns = np.zeros((M, B), dtype=np.int32)
    valid = np.zeros((M, B), dtype=bool)
    loc = as_np(eng.loc_est)[rows]
    origs[:, 0] = rows
    vals[:, 0] = loc
    borns[:, 0] = eng.round
    valid[:, 0] = loc >= 0.0
    if FWD:
        pos = as_np(eng.est_pos)[rows].astype(np.int64)
        eo = as_np(eng.est_origin)
        ev = as_np(eng.est_val)
        eb = as_np(eng.est_born)
        born_min = eng.round - G
        for b in range(1, FWD + 1):
            flat = rows * C + (pos - b) % C
            bb = eb[flat]
            origs[:, b] = eo[flat]
            vals[:, b] = ev[flat]
            borns[:, b] = bb
            valid[:, b] = bb >= born_min
    return origs, vals, borns, valid


def _batch_ingest_np(eng, np, rows, origs, vals, borns, valid):
    """Origin-keyed bundle merge into many *distinct* rows, mirroring the
    object estimator's neighbour cache: at most one cached entry per origin,
    refreshed only by a strictly larger born; unseen origins take the ring
    cursor slot (evicting whatever held it). Bundle entries are applied left to
    right so an insert is visible to the next entry of the same bundle (each
    column gathers its rows' ``(m, C)`` ring block afresh)."""
    C = eng.C
    pos_np = as_np(eng.est_pos)
    eo = as_np(eng.est_origin)
    ev = as_np(eng.est_val)
    eb = as_np(eng.est_born)
    ring = eo.reshape(-1, C)
    for b in range(valid.shape[1]):
        m = np.flatnonzero(valid[:, b])
        ri = rows[m]
        o = origs[m, b]
        v = vals[m, b]
        bo = borns[m, b]
        # First ring slot holding the origin; argmax is 0 when none does, and
        # reading the slot back tells the two apart.
        flat = ri * C + (np.take(ring, ri, axis=0) == o[:, None]).argmax(axis=1)
        found = eo[flat] == o
        fresher = found & (bo > eb[flat])
        fl = flat[fresher]
        ev[fl] = v[fresher]
        eb[fl] = bo[fresher]
        ins = ~found
        ri = ri[ins]
        p = pos_np[ri].astype(np.int64)
        flat = ri * C + p
        eo[flat] = o[ins]
        ev[flat] = v[ins]
        eb[flat] = bo[ins]
        pos_np[ri] = ((p + 1) % C).astype(pos_np.dtype)


def _shuffle_size_np(np, eng, pub, senders, ids, n_desc, valid):
    """Datagram bytes of ``senders``' shuffle messages: ``n_desc`` descriptors
    (``ids`` the primary-view ones) plus the sender's, estimate bundles ``valid``
    (or None); under ``RELAY`` each private descriptor carries ``P`` parents."""
    parents = 0
    if eng.strategy is NatStrategy.RELAY:
        private = (ids >= 0) & (pub[np.clip(ids, 0, None)] == 0)
        parents = (private.sum(axis=1) + (pub[senders] == 0)) * eng.P
    estimates = 0 if valid is None else valid.sum(axis=1)
    return wire.HEADER + wire.shuffle(n_desc + 1, parents, estimates)


def _request_block(eng, np, lo, hi, drops):
    """Phases A–C for the initiator candidates ``lo <= row < hi``.

    Every read is of the block's own rows or of columns the pass does not write
    before phase E, and every write is to the block's own rows or a commutative
    integer count, so blocks compose to the whole-range pass byte for byte.
    Returns the delivered exchanges (ascending initiator) as a dict of arrays,
    or None when the block delivers none."""
    V, K = eng.V, eng.K
    n = eng._rows
    rnd = eng.round
    seed = eng.hash_seed
    estimating = eng.estimating
    relay_strategy = eng.strategy is NatStrategy.RELAY
    punch_strategy = eng.strategy is NatStrategy.HOLE_PUNCH
    alive = as_np(eng.alive)[:n]
    pub = as_np(eng.is_public)[:n]
    ids2d = as_np(eng.pub_id)[: n * V].reshape(n, V)
    ages2d = as_np(eng.pub_age)[: n * V].reshape(n, V)
    tx = as_np(eng.tx_bytes)
    rx = as_np(eng.rx_bytes)

    # --- A: partner selection (oldest slot, keyed tie-break), slot cleared
    occ = ids2d[lo:hi] >= 0
    age_eff = np.where(occ, ages2d[lo:hi], -1)
    best = age_eff.max(axis=1)
    ties = (age_eff == best[:, None]) & occ
    tie_cnt = ties.sum(axis=1)
    base_tie = crng.stream(seed, rnd, crng.TAG_TIE)
    pick = (
        crng.draws_np(np, base_tie, np.arange(lo, hi, dtype=np.uint64))
        % np.maximum(tie_cnt, 1).astype(np.uint64)
    ).astype(np.int64)
    sel = np.argmax(ties.cumsum(axis=1) == (pick + 1)[:, None], axis=1)
    local = np.nonzero((alive[lo:hi] != 0) & (tie_cnt > 0))[0]
    if local.size == 0:
        return None
    init = local + lo
    sslot = sel[local]
    # Ids are stored at int32; as row indices they are widened once, so no
    # ``rows * V``-style product downstream runs in int32.
    partner = ids2d[init, sslot].astype(np.intp)
    if punch_strategy:
        aux2d = as_np(eng.learned_from)[: n * V].reshape(n, V)
        rvp = aux2d[init, sslot]
        aux2d[init, sslot] = -1
    ids2d[init, sslot] = -1
    ages2d[init, sslot] = 0

    M = init.size
    i_pub = pub[init] != 0

    # --- B: request subsets from the post-selection views
    slotkeys = (
        init[:, None].astype(np.uint64) * np.uint64(V)
        + np.arange(V, dtype=np.uint64)[None, :]
    )
    base_req_pub = crng.stream(seed, rnd, crng.TAG_REQ_PUB)
    if estimating:
        pids2d = as_np(eng.priv_id)[: n * V].reshape(n, V)
        pages2d = as_np(eng.priv_age)[: n * V].reshape(n, V)
        rp_slots, rp_ids, rp_ages, rp_cnt = _subsets_np(
            np, ids2d, ages2d, init, slotkeys, base_req_pub,
            np.where(i_pub, K - 1, K), None, i_pub, K)
        base_req_priv = crng.stream(seed, rnd, crng.TAG_REQ_PRIV)
        rq_slots, rq_ids, rq_ages, rq_cnt = _subsets_np(
            np, pids2d, pages2d, init, slotkeys, base_req_priv,
            np.where(i_pub, K, K - 1), None, ~i_pub, K)
        n_desc = rp_cnt + rq_cnt
    else:
        rp_slots, rp_ids, rp_ages, n_desc = _subsets_np(
            np, ids2d, ages2d, init, slotkeys, base_req_pub,
            np.full(M, K - 1, dtype=np.int64), None, np.ones(M, dtype=bool), K)

    # --- C: delivery filtering (+ request-size accounting)
    bi_valid = None
    if estimating:
        bi_origs, bi_vals, bi_borns, bi_valid = _bundles_np(eng, np, init)
    size = _shuffle_size_np(np, eng, pub, init, rp_ids, n_desc, bi_valid)
    if relay_strategy:
        P = eng.P
        par2d = as_np(eng.parent_id)[: n * P].reshape(n, P)
    eng.packets_sent += M
    tx[init] += size  # initiator rows are distinct
    remaining = np.ones(M, dtype=bool)
    if eng.loss_public > 0.0 or eng.loss_private > 0.0:
        u = crng.uniforms_np(
            np, crng.stream(seed, rnd, crng.TAG_LOSS_REQ), init.astype(np.uint64)
        )
        lost = u < np.where(i_pub, eng.loss_public, eng.loss_private)
        drops["link_loss"] += int(lost.sum())
        remaining &= ~lost
    if eng._partition_active:
        iso = as_np(eng.isolated)[:n]
        parted = remaining & (iso[init] != iso[partner])
        drops["partitioned"] += int(parted.sum())
        remaining &= ~parted
    deadp = remaining & (alive[partner] == 0)
    drops["dead_host"] += int(deadp.sum())
    remaining &= ~deadp
    priv_partner = remaining & (pub[partner] == 0)
    if relay_strategy:
        pp = np.take(par2d, partner, axis=0)
        pp_live = (pp >= 0) & (alive[np.clip(pp, 0, None)] != 0)
        pp_cnt = pp_live.sum(axis=1)
        norelay = priv_partner & (pp_cnt == 0)
        drops["no_relay_parent"] += int(norelay.sum())
        remaining &= ~norelay
        relaying = priv_partner & ~norelay
        if relaying.any():
            k = (
                crng.draws_np(np, crng.stream(seed, rnd, crng.TAG_RELAY_REQ),
                              init.astype(np.uint64))
                % np.maximum(pp_cnt, 1).astype(np.uint64)
            ).astype(np.int64)
            rslot = np.argmax(pp_live.cumsum(axis=1) == (k + 1)[:, None], axis=1)
            relay = pp[np.arange(M), rslot][relaying]
            # Both hops carry the envelope; the initiator's tx took the bare size.
            size[relaying] += wire.ENVELOPE
            tx[init[relaying]] += wire.ENVELOPE
            np.add.at(rx, relay, size[relaying])
            np.add.at(tx, relay, size[relaying])
            eng.packets_sent += int(relaying.sum())
    elif punch_strategy:
        broken = priv_partner & ((rvp < 0) | (alive[np.clip(rvp, 0, None)] == 0))
        drops["broken_chain"] += int(broken.sum())
        remaining &= ~broken
        punch = priv_partner & ~broken
        if punch.any():
            # A request to the RVP, forwarded to the partner, which pings back.
            pr = np.nonzero(punch)[0]
            ask = wire.HEADER + wire.punch_request()
            ping = wire.HEADER + wire.punch_ping()
            tx[init[pr]] += ask
            np.add.at(rx, rvp[pr], ask)
            np.add.at(tx, rvp[pr], ask)
            np.add.at(rx, partner[pr], ask)
            np.add.at(tx, partner[pr], ping)
            rx[init[pr]] += ping
            eng.packets_sent += 3 * int(punch.sum())
    else:
        drops["nat_filtered"] += int(priv_partner.sum())
        remaining &= ~priv_partner
    np.add.at(rx, partner[remaining], size[remaining])

    d = np.nonzero(remaining)[0]
    if d.size == 0:
        return None
    # What crosses the wave loop is held at its natural width: ids, ages and
    # borns int32 (from the columns), sent slots the smallest type holding V.
    slot_t = np.min_scalar_type(-V)
    part = dict(init=init, partner=partner, rp_slots=rp_slots.astype(slot_t),
                rp_ids=rp_ids, rp_ages=rp_ages)
    if estimating:
        part.update(rq_slots=rq_slots.astype(slot_t), rq_ids=rq_ids, rq_ages=rq_ages,
                    bi_origs=bi_origs, bi_vals=bi_vals, bi_borns=bi_borns, bi_valid=bi_valid)
    return {key: np.take(column, d, axis=0) for key, column in part.items()}


def _count_requests(eng, np, ex) -> None:
    """Phase D: delivered requests bump the partner's (Cu, Cv) current-round
    counters by initiator class."""
    n = eng._rows
    partner = ex["partner"]
    i_pub = as_np(eng.is_public)[:n][ex["init"]] != 0
    as_np(eng.cur_cu)[:n] += np.bincount(partner[i_pub], minlength=n).astype(np.int32)
    as_np(eng.cur_cv)[:n] += np.bincount(partner[~i_pub], minlength=n).astype(np.int32)


def _handle_requests(eng, np, ex):
    """Phases E–G over the delivered exchanges ``ex``: per-exchange partner
    handling as (partner, initiator)-ordered waves — one exchange per partner
    per wave, so rows are distinct within a wave and batched ops are safe.
    Each wave draws its reply subsets from the partner's *current* view
    (reflecting earlier waves' request merges), merges its requests, then
    builds its response bundles from the post-ingest estimate cache — the
    object protocol's request-handler order. Drawing all replies from a
    pre-round snapshot instead degenerates the overlay at scale (a popular
    partner would send every requester the same entries).

    ``ex`` is permuted in place, array by array, into wave-major order (wave,
    partner, initiator), so each wave is a slice. Returns the replies in that
    order: ``ep_ids``/``ep_ages``/``ep_cnt`` (and, estimating, ``eq_*`` and
    the response bundles ``bp_*``)."""
    V, K = eng.V, eng.K
    n = eng._rows
    rnd = eng.round
    seed = eng.hash_seed
    estimating = eng.estimating
    ids2d = as_np(eng.pub_id)[: n * V].reshape(n, V)
    ages2d = as_np(eng.pub_age)[: n * V].reshape(n, V)
    aux2d = (as_np(eng.learned_from)[: n * V].reshape(n, V)
             if eng.strategy is NatStrategy.HOLE_PUNCH else None)
    D = ex["init"].size
    order = np.lexsort((ex["init"], ex["partner"]))
    Ps = ex["partner"][order]
    rank = np.arange(D) - np.searchsorted(Ps, Ps)  # wave = place in partner's run
    order = order[np.argsort(rank, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rank))))
    del Ps, rank
    for key in ex:
        ex[key] = np.take(ex[key], order, axis=0)
    del order
    I_, P_ = ex["init"], ex["partner"]
    base_rep_pub = crng.stream(seed, rnd, crng.TAG_REPLY_PUB)
    slot_arange = np.arange(V, dtype=np.uint64)[None, :]
    out = {"ep_ids": np.empty((D, K), dtype=ids2d.dtype),
           "ep_ages": np.empty((D, K), dtype=ages2d.dtype),
           "ep_cnt": np.empty(D, dtype=np.int32)}
    if estimating:
        pids2d = as_np(eng.priv_id)[: n * V].reshape(n, V)
        pages2d = as_np(eng.priv_age)[: n * V].reshape(n, V)
        base_rep_priv = crng.stream(seed, rnd, crng.TAG_REPLY_PRIV)
        B = 1 + eng.FWD
        out.update(eq_ids=np.empty((D, K), dtype=pids2d.dtype),
                   eq_ages=np.empty((D, K), dtype=pages2d.dtype),
                   eq_cnt=np.empty(D, dtype=np.int32),
                   bp_origs=np.empty((D, B), dtype=np.int32),
                   bp_vals=np.empty((D, B)),
                   bp_borns=np.empty((D, B), dtype=np.int32),
                   bp_valid=np.empty((D, B), dtype=bool))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        w = slice(lo, hi)  # one exchange per partner: rows are distinct
        rows = P_[w]
        iw = I_[w]
        wkeys = iw[:, None].astype(np.uint64) * np.uint64(V) + slot_arange
        # Scalar K broadcasts inside _subsets_np (np.minimum); materialising a
        # per-wave rows.size vector here was pure allocator traffic.
        s_, id_, a_, c_ = _subsets_np(np, ids2d, ages2d, rows, wkeys, base_rep_pub,
                                      K, iw, None, K)
        out["ep_ids"][w] = id_
        out["ep_ages"][w] = a_
        out["ep_cnt"][w] = c_
        _batch_merge_np(np, ids2d, ages2d, aux2d, rows,
                        ex["rp_ids"][w], ex["rp_ages"][w], iw, id_, s_)
        if not estimating:
            continue
        qs_, qid_, qa_, qc_ = _subsets_np(np, pids2d, pages2d, rows, wkeys,
                                          base_rep_priv, K, iw, None, K)
        out["eq_ids"][w] = qid_
        out["eq_ages"][w] = qa_
        out["eq_cnt"][w] = qc_
        _batch_merge_np(np, pids2d, pages2d, None, rows,
                        ex["rq_ids"][w], ex["rq_ages"][w], None, qid_, qs_)
        _batch_ingest_np(eng, np, rows, ex["bi_origs"][w], ex["bi_vals"][w],
                         ex["bi_borns"][w], ex["bi_valid"][w])
        (out["bp_origs"][w], out["bp_vals"][w], out["bp_borns"][w],
         out["bp_valid"][w]) = _bundles_np(eng, np, rows)
    return out


def _response_block(eng, np, ex, drops):
    """Phase H for one block of delivered exchanges ``ex`` (requests and
    replies) in wave-major order, as good as any: initiators, so merged rows,
    are distinct, other writes are integer counts, draws keyed by initiator."""
    V = eng.V
    n = eng._rows
    rnd = eng.round
    seed = eng.hash_seed
    estimating = eng.estimating
    relay_strategy = eng.strategy is NatStrategy.RELAY
    alive = as_np(eng.alive)[:n]
    pub = as_np(eng.is_public)[:n]
    tx = as_np(eng.tx_bytes)
    rx = as_np(eng.rx_bytes)
    I_, P_ = ex["init"], ex["partner"]
    D = I_.size
    resp_cnt = ex["ep_cnt"] + ex["eq_cnt"] if estimating else ex["ep_cnt"]
    resp_size = _shuffle_size_np(np, eng, pub, P_, ex["ep_ids"], resp_cnt,
                                 ex["bp_valid"] if estimating else None)
    if relay_strategy:
        P = eng.P
        par2d = as_np(eng.parent_id)[: n * P].reshape(n, P)
    np.add.at(tx, P_, resp_size)  # partners may repeat
    eng.packets_sent += D
    ok = np.ones(D, dtype=bool)
    if eng.loss_public > 0.0 or eng.loss_private > 0.0:
        u2 = crng.uniforms_np(
            np, crng.stream(seed, rnd, crng.TAG_LOSS_RESP), I_.astype(np.uint64)
        )
        lost2 = u2 < np.where(pub[P_] != 0, eng.loss_public, eng.loss_private)
        drops["link_loss"] += int(lost2.sum())
        ok &= ~lost2
    if relay_strategy:
        priv_init = ok & (pub[I_] == 0)
        ip = np.take(par2d, I_, axis=0)
        ip_live = (ip >= 0) & (alive[np.clip(ip, 0, None)] != 0)
        ip_cnt = ip_live.sum(axis=1)
        norelay2 = priv_init & (ip_cnt == 0)
        drops["no_relay_parent"] += int(norelay2.sum())
        ok &= ~norelay2
        relaying2 = priv_init & ~norelay2
        if relaying2.any():
            k2 = (
                crng.draws_np(np, crng.stream(seed, rnd, crng.TAG_RELAY_RESP),
                              I_.astype(np.uint64))
                % np.maximum(ip_cnt, 1).astype(np.uint64)
            ).astype(np.int64)
            rslot2 = np.argmax(ip_live.cumsum(axis=1) == (k2 + 1)[:, None], axis=1)
            relay2 = ip[np.arange(D), rslot2][relaying2]
            resp_size[relaying2] += wire.ENVELOPE
            np.add.at(tx, P_[relaying2], wire.ENVELOPE)
            np.add.at(rx, relay2, resp_size[relaying2])
            np.add.at(tx, relay2, resp_size[relaying2])
            eng.packets_sent += int(relaying2.sum())
    fin = np.nonzero(ok)[0]
    if not fin.size:
        return
    rows = I_[fin]
    ex = {key: np.take(column, fin, axis=0) for key, column in ex.items()}
    rx[rows] += resp_size[fin]
    aux2d = (as_np(eng.learned_from)[: n * V].reshape(n, V)
             if eng.strategy is NatStrategy.HOLE_PUNCH else None)
    _batch_merge_np(np, as_np(eng.pub_id)[: n * V].reshape(n, V),
                    as_np(eng.pub_age)[: n * V].reshape(n, V), aux2d, rows,
                    ex["ep_ids"], ex["ep_ages"], ex["partner"],
                    ex["rp_ids"], ex["rp_slots"])
    if estimating:
        _batch_merge_np(np, as_np(eng.priv_id)[: n * V].reshape(n, V),
                        as_np(eng.priv_age)[: n * V].reshape(n, V), None, rows,
                        ex["eq_ids"], ex["eq_ages"], None,
                        ex["rq_ids"], ex["rq_slots"])
        _batch_ingest_np(eng, np, rows, ex["bp_origs"], ex["bp_vals"],
                         ex["bp_borns"], ex["bp_valid"])


def run_shuffle_round(eng) -> None:
    """Execute the current round's full shuffle pass on ``eng``.

    Phases A–C and H run over blocks of ``_BLOCK_ROWS`` rows (exchanges, for
    H), so their temporaries are bounded by the block, not by the population;
    only the delivered exchanges' requests and replies cross the wave loop,
    each held once. The wave loop leaves them in wave-major order, and H
    blocks them in that order: it needs no inverse permutation."""
    np = backend.np
    n = eng._rows
    drops = dict.fromkeys(DROP_REASONS, 0)
    parts = []
    for lo in range(0, n, _BLOCK_ROWS):
        part = _request_block(eng, np, lo, min(lo + _BLOCK_ROWS, n), drops)
        if part is not None:
            parts.append(part)
    if not parts:
        _fold_drops(eng, drops)
        return
    # One array per key; each block's piece goes as soon as its key is joined.
    ex = {key: np.concatenate([part.pop(key) for part in parts])
          for key in list(parts[0])}
    del parts
    if eng.estimating:
        _count_requests(eng, np, ex)
    replies = _handle_requests(eng, np, ex)
    for key in ("rp_ages", "rq_ages", "bi_origs", "bi_vals", "bi_borns", "bi_valid"):
        ex.pop(key, None)  # read by the waves only
    ex.update(replies)

    # --- H: responses, wave-major order (any order writes the same bytes)
    D = ex["init"].size
    for lo in range(0, D, _BLOCK_ROWS):
        block = {key: column[lo:lo + _BLOCK_ROWS] for key, column in ex.items()}
        _response_block(eng, np, block, drops)
    _fold_drops(eng, drops)


# ---------------------------------------------------------------------------
# NAT maintenance phases (batched over the live private rows)
# ---------------------------------------------------------------------------


def maintain_parents(eng) -> None:
    """Gozar parent maintenance, run each round before the shuffle pass.

    Per live private row: dead parent slots are cleared; missing parents are
    recruited from live public view entries that are not already a parent,
    ranked by a keyed draw, into the row's empty slots in slot order
    (registration costs one registration/ack exchange); every
    ``parent_keepalive_every`` rounds each live parent, same-round recruits
    included, gets a keep-alive/ack pair. No row reads what the pass writes for
    another row, so all rows go at once. Maintenance traffic ignores loss and
    partitions (documented delta), and registration is instantaneous — a
    recruit is usable the same round.
    """
    np = backend.np
    V, P = eng.V, eng.P
    n = eng._rows
    alive = as_np(eng.alive)[:n] != 0
    pub = as_np(eng.is_public)[:n] != 0
    rows = np.nonzero(alive & ~pub)[0]
    par2d = as_np(eng.parent_id)[: n * P].reshape(n, P)
    par = np.take(par2d, rows, axis=0)
    par[(par >= 0) & ~alive[np.clip(par, 0, None)]] = -1
    rec = np.nonzero((par < 0).any(axis=1))[0]  # rows short of P live parents
    rrows = rows[rec]
    view = np.take(as_np(eng.pub_id)[: n * V].reshape(n, V), rrows, axis=0)
    held = np.take(par, rec, axis=0)
    vacant = held < 0
    target = np.clip(view, 0, None)
    cand = (
        (view >= 0) & pub[target] & alive[target]
        & ~(view[:, :, None] == held[:, None, :]).any(axis=2)
    )
    slotkeys = (
        rrows[:, None].astype(np.uint64) * np.uint64(V)
        + np.arange(V, dtype=np.uint64)[None, :]
    )
    base_parent = crng.stream(eng.hash_seed, eng.round, crng.TAG_PARENT)
    # A view narrower than P ranks at most V recruits.
    take, valid, cnt = _ranked_slots_np(np, cand, slotkeys, base_parent,
                                        vacant.sum(axis=1), min(P, V))
    recruits = np.take_along_axis(view, take, axis=1)[valid]
    # Row-major on both sides: a row's recruits, in rank order, land in its
    # first ``cnt`` empty slots, in slot order.
    held[vacant & (vacant.cumsum(axis=1) <= cnt[:, None])] = recruits
    par[rec] = held
    par2d[rows] = par
    # A registration or keep-alive and its equal-sized ack: a datagram each way.
    registration = wire.HEADER + wire.registration()
    keepalive = wire.HEADER + wire.keepalive()
    row_pairs = np.zeros(rows.size, dtype=np.int64)
    row_pairs[rec] = cnt
    row_bytes = row_pairs * registration
    parent_bytes = np.bincount(recruits, minlength=n) * registration
    if eng.round % eng.parent_keepalive_every == 0:
        kept = par >= 0
        kept_cnt = kept.sum(axis=1)
        row_pairs += kept_cnt
        row_bytes += kept_cnt * keepalive
        parent_bytes += np.bincount(par[kept], minlength=n) * keepalive
    for column in (eng.tx_bytes, eng.rx_bytes):
        traffic = as_np(column)[:n]
        traffic[rows] += row_bytes
        traffic += parent_bytes
    eng.packets_sent += 2 * int(row_pairs.sum())


def send_keepalives(eng) -> None:
    """Nylon NAT-mapping keep-alives, run each round before the shuffle pass.

    Every live private row pings its first ``keepalive_fanout`` live view
    entries (slot order, no ack). Keep-alive traffic ignores loss and
    partitions (documented delta)."""
    np = backend.np
    V = eng.V
    n = eng._rows
    alive = as_np(eng.alive)[:n] != 0
    rows = np.nonzero(alive & (as_np(eng.is_public)[:n] == 0))[0]
    ids = np.take(as_np(eng.pub_id)[: n * V].reshape(n, V), rows, axis=0)
    live = (ids >= 0) & alive[np.clip(ids, 0, None)]
    take = live & (live.cumsum(axis=1) <= eng.keepalive_fanout)
    sent = take.sum(axis=1)
    keepalive = wire.HEADER + wire.keepalive()
    as_np(eng.tx_bytes)[rows] += sent * keepalive
    as_np(eng.rx_bytes)[:n] += np.bincount(ids[take], minlength=n) * keepalive
    eng.packets_sent += int(sent.sum())
