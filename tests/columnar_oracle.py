"""Scalar reference for one columnar round: plain loops over the engine's columns.

``oracle_round(engine)`` does what ``ColumnarEngine.run_round()`` does — ageing,
estimator advance, NAT maintenance, shuffle phases A-H (see
``repro.columnar.shuffle``) — one row and one exchange at a time, over the same
``array.array`` columns and the same position-keyed draws, with no numpy. Two
identically built engines, one stepped by each, must have equal
``fingerprint()`` after every round and equal ``drops`` at the end. It shares
with the engine only the storage, ``rng.stream``/``rng.draw`` and the wire model
(``repro.wire``); every pass, Gozar/Nylon maintenance included, is its own loop
here.
"""

from repro import wire
from repro.columnar import rng as crng
from repro.columnar.shuffle import DROP_REASONS

REGISTRATION = wire.HEADER + wire.registration()
KEEPALIVE = wire.HEADER + wire.keepalive()
PUNCH_REQUEST = wire.HEADER + wire.punch_request()
PUNCH_PING = wire.HEADER + wire.punch_ping()


def oracle_round(eng) -> None:
    eng.round += 1
    _age_views(eng)
    _advance(eng)
    if eng.protocol == "gozar":
        _maintain_parents(eng)
    elif eng.protocol == "nylon":
        _send_keepalives(eng)
    _shuffle(eng)


def _uniform(base: int, key: int) -> float:
    return (crng.draw(base, key) >> 11) * 2.0 ** -53


def _age_views(eng) -> None:
    views = [(eng.pub_id, eng.pub_age)]
    if eng.estimating:
        views.append((eng.priv_id, eng.priv_age))
    for ids, ages in views:
        for index in range(eng.rows * eng.V):
            if ids[index] >= 0:
                ages[index] += 1


def _advance(eng) -> None:
    """Count the round; for croupier also archive the finished round's (Cu, Cv)
    into the alpha-window ring and refresh public rows' local estimate."""
    A = eng.A
    for row in range(1, eng.rows):
        if not eng.alive[row]:
            continue
        eng.rounds_exec[row] += 1
        if not eng.estimating:
            continue
        slot = row * A + eng.hist_pos[row]
        eng.cu_sum[row] += eng.cur_cu[row] - eng.hist_cu[slot]
        eng.cv_sum[row] += eng.cur_cv[row] - eng.hist_cv[slot]
        eng.hist_cu[slot] = eng.cur_cu[row]
        eng.hist_cv[slot] = eng.cur_cv[row]
        eng.hist_pos[row] = (eng.hist_pos[row] + 1) % A
        eng.cur_cu[row] = 0
        eng.cur_cv[row] = 0
        den = eng.cu_sum[row] + eng.cv_sum[row]
        if eng.is_public[row] and den > 0:
            eng.loc_est[row] = eng.cu_sum[row] / den
        else:
            eng.loc_est[row] = -1.0


def _maintain_parents(eng) -> None:
    """Gozar parent maintenance, run each round before the shuffle pass.

    Per live private row (ascending): dead parent slots are cleared; missing
    parents are recruited from live public view entries ranked by a keyed draw
    (registration costs one registration/ack exchange); every
    ``parent_keepalive_every`` rounds each live parent gets a keep-alive/ack
    pair. Maintenance traffic ignores loss and partitions (documented delta),
    and registration is instantaneous — a recruit is usable the same round.
    """
    V, P = eng.V, eng.P
    n = eng._rows
    alive, is_public = eng.alive, eng.is_public
    parent_id, pub_id = eng.parent_id, eng.pub_id
    tx, rx = eng.tx_bytes, eng.rx_bytes
    base_parent = crng.stream(eng.hash_seed, eng.round, crng.TAG_PARENT)
    keepalive = eng.round % eng.parent_keepalive_every == 0
    for row in range(1, n):
        if not alive[row] or is_public[row]:
            continue
        pbase = row * P
        live = 0
        for s in range(P):
            pid = parent_id[pbase + s]
            if pid >= 0:
                if alive[pid]:
                    live += 1
                else:
                    parent_id[pbase + s] = -1
        needed = P - live
        if needed > 0:
            vbase = row * V
            current = {parent_id[pbase + s] for s in range(P)
                       if parent_id[pbase + s] >= 0}
            cands = []
            for s in range(V):
                nid = pub_id[vbase + s]
                if nid >= 0 and is_public[nid] and alive[nid] and nid not in current:
                    cands.append((crng.draw(base_parent, row * V + s), s))
            cands.sort()
            empties = [s for s in range(P) if parent_id[pbase + s] < 0]
            for (_key, vs), ps in zip(cands[:needed], empties):
                nid = pub_id[vbase + vs]
                parent_id[pbase + ps] = nid
                tx[row] += REGISTRATION
                rx[nid] += REGISTRATION
                tx[nid] += REGISTRATION
                rx[row] += REGISTRATION
                eng.packets_sent += 2
        if keepalive:
            for s in range(P):
                pid = parent_id[pbase + s]
                if pid >= 0:
                    tx[row] += KEEPALIVE
                    rx[pid] += KEEPALIVE
                    tx[pid] += KEEPALIVE
                    rx[row] += KEEPALIVE
                    eng.packets_sent += 2


def _send_keepalives(eng) -> None:
    """Nylon NAT-mapping keep-alives, run each round before the shuffle pass.

    Every live private row pings its first ``keepalive_fanout`` live view
    entries (slot order, no ack). Keep-alive traffic ignores loss and
    partitions (documented delta)."""
    V = eng.V
    n = eng._rows
    fan = eng.keepalive_fanout
    alive, is_public = eng.alive, eng.is_public
    pub_id = eng.pub_id
    tx, rx = eng.tx_bytes, eng.rx_bytes
    for row in range(1, n):
        if not alive[row] or is_public[row]:
            continue
        vbase = row * V
        sent = 0
        for s in range(V):
            if sent >= fan:
                break
            nid = pub_id[vbase + s]
            if nid >= 0 and alive[nid]:
                tx[row] += KEEPALIVE
                rx[nid] += KEEPALIVE
                eng.packets_sent += 1
                sent += 1


def _estimate_bundle(eng, row: int):
    """What ``row`` piggybacks: its local estimate (origin = itself, born = this
    round), then its FWD most recently received still-fresh cached entries."""
    bundle = []
    local = eng.loc_est[row]
    if local >= 0.0:
        bundle.append((row, local, eng.round))
    C = eng.C
    born_min = eng.round - eng.G
    pos = eng.est_pos[row]
    for back in range(1, eng.FWD + 1):
        slot = row * C + (pos - back) % C
        born = eng.est_born[slot]
        if born >= born_min:
            bundle.append((eng.est_origin[slot], eng.est_val[slot], born))
    return bundle


def _ingest_estimates(eng, row: int, bundle) -> None:
    """Origin-keyed merge: at most one cached entry per origin, refreshed only
    by a strictly larger born; unseen origins take the ring cursor slot."""
    C = eng.C
    base = row * C
    for origin, value, born in bundle:
        slot = -1
        for back in range(C):
            if eng.est_origin[base + back] == origin:
                slot = back
                break
        if slot >= 0:
            if born > eng.est_born[base + slot]:
                eng.est_val[base + slot] = value
                eng.est_born[base + slot] = born
        else:
            pos = eng.est_pos[row]
            eng.est_origin[base + pos] = origin
            eng.est_val[base + pos] = value
            eng.est_born[base + pos] = born
            eng.est_pos[row] = (pos + 1) % C


def _subset(eng, vid, vage, view_row, key_row, stream_base, want, exclude, add_self):
    """Keyed subset of one row's view: (slots, ids, ages) in (key, slot) order;
    ineligible slots sort last under the ``MASK64`` sentinel key."""
    V = eng.V
    base = view_row * V
    keyed = []
    eligible = 0
    for slot in range(V):
        nid = vid[base + slot]
        if nid >= 0 and nid != exclude:
            keyed.append((crng.draw(stream_base, key_row * V + slot), slot))
            eligible += 1
        else:
            keyed.append((crng.MASK64, slot))
    keyed.sort()
    slots = [keyed[j][1] for j in range(min(want, eligible))]
    ids = [vid[base + s] for s in slots]
    ages = [vage[base + s] for s in slots]
    if add_self:
        slots.append(-1)
        ids.append(view_row)
        ages.append(0)
    return slots, ids, ages


def _merge_row(eng, vid, vage, vaux, row, rec_ids, rec_ages, aux_value,
               sent_ids, sent_slots) -> None:
    """The merge rule for one row: refresh snapshot matches (min age), then
    place the rest into snapshot-empty slots, then over sent entries still at
    their snapshot slot; leftovers are dropped."""
    V = eng.V
    base = row * V
    snap = vid[base : base + V]
    matched = [False] * len(rec_ids)
    for j, nid in enumerate(rec_ids):
        if nid < 0 or nid == row:
            matched[j] = True  # skipped entries are never placed either
            continue
        for s in range(V):
            if snap[s] == nid:
                if rec_ages[j] < vage[base + s]:
                    vage[base + s] = rec_ages[j]
                if vaux is not None:
                    vaux[base + s] = aux_value
                matched[j] = True
                break
    targets = [s for s in range(V) if snap[s] < 0]
    for t, ss in enumerate(sent_slots):
        if ss >= 0 and sent_ids[t] >= 0 and snap[ss] == sent_ids[t]:
            targets.append(ss)
    ti = 0
    for j, nid in enumerate(rec_ids):
        if matched[j]:
            continue
        if ti >= len(targets):
            break
        s = targets[ti]
        ti += 1
        vid[base + s] = nid
        vage[base + s] = rec_ages[j]
        if vaux is not None:
            vaux[base + s] = aux_value


def _live_parents(eng, row: int):
    base = row * eng.P
    return [eng.parent_id[base + s] for s in range(eng.P)
            if eng.parent_id[base + s] >= 0 and eng.alive[eng.parent_id[base + s]]]


def _wire_size(eng, sender: int, pub_ids, n_desc: int, bundle) -> int:
    """The sender's descriptor rides in front of the ``n_desc`` sent ones; in
    Gozar each private one, the sender's included, carries P parents."""
    parents = 0
    if eng.protocol == "gozar":
        npriv = sum(1 for d in (sender, *pub_ids) if d >= 0 and not eng.is_public[d])
        parents = npriv * eng.P
    estimates = len(bundle) if eng.estimating else 0
    return wire.HEADER + wire.shuffle(n_desc + 1, parents, estimates)


def _shuffle(eng) -> None:
    V, K = eng.V, eng.K
    rnd, seed = eng.round, eng.hash_seed
    estimating = eng.estimating
    gozar = eng.protocol == "gozar"
    nylon = eng.protocol == "nylon"
    alive, is_public = eng.alive, eng.is_public
    pub_id, pub_age = eng.pub_id, eng.pub_age
    priv_id = eng.priv_id if estimating else None
    priv_age = eng.priv_age if estimating else None
    aux = eng.learned_from if nylon else None
    tx, rx = eng.tx_bytes, eng.rx_bytes
    loss_pub, loss_priv = eng.loss_public, eng.loss_private
    drops = dict.fromkeys(DROP_REASONS, 0)

    # --- A: partner selection (oldest slot, keyed tie-break), slot cleared
    base_tie = crng.stream(seed, rnd, crng.TAG_TIE)
    inits = []
    for i in range(1, eng.rows):
        if not alive[i]:
            continue
        base = i * V
        best = -1
        ties = []
        for slot in range(V):
            if pub_id[base + slot] < 0:
                continue
            age = pub_age[base + slot]
            if age > best:
                best = age
                ties = [slot]
            elif age == best:
                ties.append(slot)
        if not ties:
            continue  # empty view: round skipped
        slot = ties[crng.draw(base_tie, i) % len(ties)]
        partner = pub_id[base + slot]
        rvp = aux[base + slot] if nylon else -1
        pub_id[base + slot] = -1
        pub_age[base + slot] = 0
        if nylon:
            aux[base + slot] = -1
        inits.append((i, partner, rvp))

    # --- B: request subsets from the post-selection views; the sender's own
    # descriptor rides in its own-class subset
    base_req_pub = crng.stream(seed, rnd, crng.TAG_REQ_PUB)
    base_req_priv = crng.stream(seed, rnd, crng.TAG_REQ_PRIV)
    requests = []
    for i, _partner, _rvp in inits:
        own_pub = not estimating or is_public[i] != 0
        req_pub = _subset(eng, pub_id, pub_age, i, i, base_req_pub,
                          K - 1 if own_pub else K, -1, own_pub)
        req_priv = None
        if estimating:
            req_priv = _subset(eng, priv_id, priv_age, i, i, base_req_priv,
                               K if own_pub else K - 1, -1, not own_pub)
        requests.append((req_pub, req_priv))

    # --- C: delivery filtering (+ request-size accounting)
    base_loss_req = crng.stream(seed, rnd, crng.TAG_LOSS_REQ)
    base_relay_req = crng.stream(seed, rnd, crng.TAG_RELAY_REQ)
    delivered = []
    for (i, partner, rvp), (req_pub, req_priv) in zip(inits, requests):
        n_desc = len(req_pub[1]) + (len(req_priv[1]) if estimating else 0)
        bundle_i = _estimate_bundle(eng, i) if estimating else None
        size = _wire_size(eng, i, req_pub[1], n_desc, bundle_i)
        eng.packets_sent += 1
        tx[i] += size
        loss = loss_pub if is_public[i] else loss_priv
        if loss > 0.0 and _uniform(base_loss_req, i) < loss:
            drops["link_loss"] += 1
            continue
        if eng._partition_active and eng.isolated[i] != eng.isolated[partner]:
            drops["partitioned"] += 1
            continue
        if not alive[partner]:
            drops["dead_host"] += 1
            continue
        if not is_public[partner]:
            if gozar:
                live_par = _live_parents(eng, partner)
                if not live_par:
                    drops["no_relay_parent"] += 1
                    continue
                relay = live_par[crng.draw(base_relay_req, i) % len(live_par)]
                tx[i] += wire.ENVELOPE  # both hops carry the envelope
                size += wire.ENVELOPE
                rx[relay] += size
                tx[relay] += size
                eng.packets_sent += 1
            elif nylon:
                if rvp < 0 or not alive[rvp]:
                    drops["broken_chain"] += 1
                    continue
                # hole punch: i -> rvp -> partner, then partner pings i
                for sender, receiver, nbytes in ((i, rvp, PUNCH_REQUEST),
                                                 (rvp, partner, PUNCH_REQUEST),
                                                 (partner, i, PUNCH_PING)):
                    tx[sender] += nbytes
                    rx[receiver] += nbytes
                eng.packets_sent += 3
            else:
                drops["nat_filtered"] += 1
                continue
        rx[partner] += size
        delivered.append((i, partner, req_pub, req_priv, bundle_i))

    # --- D: estimator counters by initiator class
    if estimating:
        for i, partner, _rp, _rq, _b in delivered:
            if is_public[i]:
                eng.cur_cu[partner] += 1
            else:
                eng.cur_cv[partner] += 1

    # --- E+F+G: partner handling in (partner, initiator) order: reply drawn
    # from the partner's *current* view, request merged in, response bundle
    # built from the post-ingest cache
    base_rep_pub = crng.stream(seed, rnd, crng.TAG_REPLY_PUB)
    base_rep_priv = crng.stream(seed, rnd, crng.TAG_REPLY_PRIV)
    replies = [None] * len(delivered)
    bundles = [None] * len(delivered)
    for x in sorted(range(len(delivered)),
                    key=lambda x: (delivered[x][1], delivered[x][0])):
        i, partner, req_pub, req_priv, bundle_i = delivered[x]
        reply_pub = _subset(eng, pub_id, pub_age, partner, i, base_rep_pub,
                            K, i, False)
        reply_priv = None
        _merge_row(eng, pub_id, pub_age, aux, partner,
                   req_pub[1], req_pub[2], i, reply_pub[1], reply_pub[0])
        if estimating:
            reply_priv = _subset(eng, priv_id, priv_age, partner, i,
                                 base_rep_priv, K, i, False)
            _merge_row(eng, priv_id, priv_age, None, partner,
                       req_priv[1], req_priv[2], i, reply_priv[1], reply_priv[0])
            _ingest_estimates(eng, partner, bundle_i)
            bundles[x] = _estimate_bundle(eng, partner)
        replies[x] = (reply_pub, reply_priv)

    # --- H: responses, ascending initiator order
    base_loss_resp = crng.stream(seed, rnd, crng.TAG_LOSS_RESP)
    base_relay_resp = crng.stream(seed, rnd, crng.TAG_RELAY_RESP)
    for x, (i, partner, req_pub, req_priv, _b) in enumerate(delivered):
        reply_pub, reply_priv = replies[x]
        n_desc = len(reply_pub[1]) + (len(reply_priv[1]) if estimating else 0)
        size = _wire_size(eng, partner, reply_pub[1], n_desc, bundles[x])
        eng.packets_sent += 1
        tx[partner] += size
        loss = loss_pub if is_public[partner] else loss_priv
        if loss > 0.0 and _uniform(base_loss_resp, i) < loss:
            drops["link_loss"] += 1
            continue
        if gozar and not is_public[i]:
            live_par = _live_parents(eng, i)
            if not live_par:
                drops["no_relay_parent"] += 1
                continue
            relay = live_par[crng.draw(base_relay_resp, i) % len(live_par)]
            tx[partner] += wire.ENVELOPE
            size += wire.ENVELOPE
            rx[relay] += size
            tx[relay] += size
            eng.packets_sent += 1
        rx[i] += size
        _merge_row(eng, pub_id, pub_age, aux, i,
                   reply_pub[1], reply_pub[2], partner, req_pub[1], req_pub[0])
        if estimating:
            _merge_row(eng, priv_id, priv_age, None, i,
                       reply_priv[1], reply_priv[2], partner, req_priv[1], req_priv[0])
            _ingest_estimates(eng, i, bundles[x])

    for reason in DROP_REASONS:
        if drops[reason]:
            eng.drops[reason] = eng.drops.get(reason, 0) + drops[reason]
