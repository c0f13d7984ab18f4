"""Tests for the shuffle exchange planner and flow builder."""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BISECTION, Cluster, NetworkModel, membw, nic_in, nic_out, scaled_testbed
from repro.cluster.remote_pool import pool_link
from repro.fs.pfs import ParallelFileSystem
from repro.io.domains import FileDomain
from repro.io.shuffle import (
    ExchangeIndex,
    ExchangePiece,
    ExchangePieces,
    plan_exchange,
    shuffle_flows,
)
from repro.mpi import AccessRequest, SimComm
from repro.sim.flows import ChargeLedger, Flow, ResourceIds
from repro.util import Extent, ExtentList


@pytest.fixture
def comm():
    machine = scaled_testbed(4, cores_per_node=4)
    return SimComm(Cluster(machine, 8, procs_per_node=2), NetworkModel(machine))


def _domain(lo, hi, agg):
    cov = ExtentList.single(lo, hi - lo)
    return FileDomain(Extent(lo, hi - lo), cov, agg, hi - lo)


class TestPlanExchange:
    def test_pieces_match_intersections(self, comm):
        reqs = [
            AccessRequest(0, ExtentList.from_pairs([(0, 100)])),
            AccessRequest(1, ExtentList.from_pairs([(50, 100)])),
        ]
        domains = [_domain(0, 80, 0), _domain(80, 160, 2)]
        windows = [d.coverage for d in domains]
        pieces = plan_exchange(
            ExchangeIndex(reqs, domains), windows, with_extents=True
        )
        got = {(p.src_rank, p.agg_rank): p.piece.to_pairs() for p in pieces}
        assert got[(0, 0)] == [(0, 80)]
        assert got[(1, 0)] == [(50, 30)]
        assert got[(0, 2)] == [(80, 20)]
        assert got[(1, 2)] == [(80, 70)]

    def test_empty_window_skipped(self, comm):
        reqs = [AccessRequest(0, ExtentList.from_pairs([(0, 10)]))]
        domains = [_domain(0, 10, 0)]
        pieces = plan_exchange(ExchangeIndex(reqs, domains), [ExtentList.empty()])
        assert len(pieces) == 0 and list(pieces) == []

    def test_bytes_conserved(self, comm):
        reqs = [AccessRequest(r, ExtentList.single(r * 50, 50)) for r in range(4)]
        domains = [_domain(0, 100, 0), _domain(100, 200, 2)]
        windows = [d.coverage for d in domains]
        pieces = plan_exchange(ExchangeIndex(reqs, domains), windows)
        assert sum(p.nbytes for p in pieces) == 200


def charge_list(comm, pieces, kind="write", **kwargs):
    """``shuffle_flows``' charges as ``(key, bytes)`` pairs, plus its result."""
    ids = ResourceIds(comm.network.capacity_map(comm.cluster))
    out = shuffle_flows(pieces, comm, kind, ids, **kwargs)
    charges = out.charges
    pairs = [(ids.keys[k], a) for k, a in zip(charges.ids.tolist(), charges.amounts.tolist())]
    return pairs, out


class TestShuffleFlows:
    def test_intra_node_charges_membw_twice(self, comm):
        reqs = [AccessRequest(0, ExtentList.single(0, 100))]
        domains = [_domain(0, 100, 1)]  # ranks 0,1 share node 0
        pieces = plan_exchange(ExchangeIndex(reqs, domains), [domains[0].coverage])
        charges, out = charge_list(comm, pieces)
        assert out.intra == 100 and out.inter == 0
        assert charges == [(membw(0), 200.0)]

    def test_inter_node_path(self, comm):
        reqs = [AccessRequest(0, ExtentList.single(0, 100))]
        domains = [_domain(0, 100, 6)]  # rank 6 on node 3
        pieces = plan_exchange(ExchangeIndex(reqs, domains), [domains[0].coverage])
        charges, out = charge_list(comm, pieces)
        assert out.inter == 100 and out.intra == 0
        assert charges == [
            (key, 100.0)
            for key in (membw(0), nic_out(0), BISECTION, nic_in(3), membw(3))
        ]

    def test_read_reverses_direction(self, comm):
        reqs = [AccessRequest(0, ExtentList.single(0, 100))]
        domains = [_domain(0, 100, 6)]
        pieces = plan_exchange(ExchangeIndex(reqs, domains), [domains[0].coverage])
        charges, _ = charge_list(comm, pieces, "read")
        # data moves aggregator (node 3) -> requester (node 0)
        keys = [key for key, _ in charges]
        assert nic_out(3) in keys
        assert nic_in(0) in keys


# ------------------------------------------------- columnar equivalence
_SPAN = 512

_extent_sets = st.lists(
    st.tuples(st.integers(0, _SPAN - 1), st.integers(1, 96)), min_size=1, max_size=5
).map(lambda pairs: ExtentList.from_pairs((o, min(n, _SPAN - o)) for o, n in pairs))


@st.composite
def _exchange_cases(draw):
    """Overlapping requests, multi-extent coverages, and a remerge.

    Domain regions tile ``[0, _SPAN)``; each coverage is a random extent
    set inside its region. Domain ``src`` remerges onto ``taker`` after
    both consumed a prefix of their coverage, so the taker's window is a
    byte-prefix slice of the union of two remaining coverages.
    """
    requests = [
        AccessRequest(rank, draw(_extent_sets))
        for rank in range(draw(st.integers(1, 6)))
    ]
    cuts = sorted(draw(st.sets(st.integers(1, _SPAN - 1), min_size=1, max_size=3)))
    bounds = [0, *cuts, _SPAN]
    domains = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        cov = draw(_extent_sets).clip(lo, hi - lo)
        domains.append(FileDomain(Extent(lo, hi - lo), cov, 2 * i, max(cov.total, 1)))
    n = len(domains)
    src = draw(st.integers(0, n - 1))
    taker = draw(st.integers(0, n - 1).filter(lambda j: j != src))
    remaining = []
    for d in domains:
        done = draw(st.integers(0, d.coverage.total))
        remaining.append(d.coverage.slice_bytes(done, d.coverage.total))
    remaining[taker] = remaining[taker].union(remaining[src])
    remaining[src] = ExtentList.empty()
    windows = [
        rem.slice_bytes(0, draw(st.integers(1, _SPAN))) for rem in remaining
    ]
    return requests, domains, src, taker, windows


def _reference_pieces(requests, domains, remerges, windows):
    """The per-pair ``ExtentList.intersect`` exchange, remerges included.

    ``remerges`` lists ``(src, taker)`` pairs in the order they happen.
    """
    candidates = [
        [(r, r.extents.intersect(d.coverage)) for r in requests]
        for d in domains
    ]
    candidates = [[(r, p) for r, p in cands if not p.is_empty] for cands in candidates]
    for src, taker in remerges:
        candidates[taker] = candidates[taker] + candidates[src]
        candidates[src] = []
    out = []
    for d, window in enumerate(windows):
        for req, dom_piece in candidates[d]:
            piece = dom_piece.intersect(window)
            if not piece.is_empty:
                out.append(
                    (d, req.rank, domains[d].aggregator, piece.total, piece.to_pairs())
                )
    return out


def _check_exchange(requests, domains, remerges, windows):
    index = ExchangeIndex(requests, domains)
    for src, taker in remerges:
        index.remerge(src, taker)
    pieces = plan_exchange(index, windows, with_extents=True)
    got = [
        (p.domain_index, p.src_rank, p.agg_rank, p.nbytes, p.piece.to_pairs())
        for p in pieces
    ]
    assert len(pieces) == len(got)
    assert got == _reference_pieces(requests, domains, remerges, windows)
    columns = plan_exchange(index, windows)
    without = [
        (p.domain_index, p.src_rank, p.agg_rank, p.nbytes, p.piece)
        for p in columns
    ]
    assert len(columns) == len(without)
    assert without == [(*g[:4], None) for g in got]


@settings(max_examples=200, deadline=None)
@given(case=_exchange_cases())
def test_columnar_exchange_matches_per_pair_intersections(case):
    requests, domains, src, taker, windows = case
    _check_exchange(requests, domains, [(src, taker)], windows)


@st.composite
def _interleaved_cases(draw, n_domains, base, span):
    """Domains whose coverages interleave, and two chained remerges.

    The file ``[base, base + span)`` is cut into chunks dealt to domains
    at random (some to none), so a domain's coverage envelope spans other
    domains' bytes. Requests are random extent sets with ranks in random
    order. Domain ``a`` remerges onto ``b``, then ``b`` onto ``c``.
    """
    n = draw(n_domains)
    cuts = sorted(draw(st.sets(st.integers(1, span - 1), min_size=n, max_size=3 * n)))
    chunks = list(zip([0, *cuts], [*cuts, span]))
    owner = list(range(n)) + [
        draw(st.integers(-1, n - 1)) for _ in range(len(chunks) - n)
    ]
    owner = draw(st.permutations(owner))
    domains = []
    for d in range(n):
        cov = ExtentList.from_pairs(
            (base + lo, hi - lo) for (lo, hi), o in zip(chunks, owner) if o == d
        )
        env = cov.envelope()
        domains.append(FileDomain(Extent(env.offset, env.length), cov, 2 * d, cov.total))
    extent_sets = st.lists(
        st.tuples(st.integers(0, span - 1), st.integers(1, span // 4)), min_size=1, max_size=6
    ).map(lambda pairs: ExtentList.from_pairs((base + o, min(k, span - o)) for o, k in pairs))
    ranks = draw(st.permutations(range(draw(st.integers(1, 8)))))
    requests = [AccessRequest(rank, draw(extent_sets)) for rank in ranks]
    a, b, c = draw(st.permutations(range(n)))[:3]
    remerges = [(a, b), (b, c)]
    remaining = []
    for d in domains:
        done = draw(st.integers(0, d.coverage.total))
        remaining.append(d.coverage.slice_bytes(done, d.coverage.total))
    for src, taker in remerges:
        remaining[taker] = remaining[taker].union(remaining[src])
        remaining[src] = ExtentList.empty()
    windows = [rem.slice_bytes(0, draw(st.integers(1, span))) for rem in remaining]
    return requests, domains, remerges, windows


@settings(max_examples=200, deadline=None)
@given(case=_interleaved_cases(st.integers(3, 6), 0, _SPAN))
def test_exchange_with_interleaved_coverages_and_chained_remerges(case):
    _check_exchange(*case)


@settings(max_examples=20, deadline=None)
@given(
    case=st.integers(1 << 50, 1 << 62).flatmap(
        lambda base: _interleaved_cases(st.integers(100, 200), base, 1 << 14)
    )
)
def test_exchange_keys_hold_at_huge_offsets_and_many_domains(case):
    # Offsets from 2**50 to 2**62 with a hundred domains or more: a key
    # built from raw offsets (domain * file size + offset) overflows int64
    # on most of these files.
    _check_exchange(*case)


# --------------------------------------- columnar charges vs per-Flow charging
_MACHINE = scaled_testbed(4, cores_per_node=4)
_CLUSTER = Cluster(_MACHINE, 8, procs_per_node=2)
_COMM = SimComm(_CLUSTER, NetworkModel(_MACHINE))
_PFS = ParallelFileSystem(replace(_MACHINE.storage, stripe_unit=1024))
_N_LINKS = 2


def _reference_shuffle_flows(pieces, comm, kind, two_layer):
    """The per-``Flow`` shuffle that preceded columnar charging."""
    flows = []
    if two_layer:
        merged = {}
        for piece in pieces:
            if piece.nbytes:
                key = (comm.node_of(piece.src_rank), piece.agg_rank)
                merged[key] = merged.get(key, 0) + piece.nbytes
        items = [(src, comm.node_of(agg), n) for (src, agg), n in merged.items()]
    else:
        items = [
            (comm.node_of(p.src_rank), comm.node_of(p.agg_rank), p.nbytes)
            for p in pieces
            if p.nbytes
        ]
    for src_node, agg_node, nbytes in items:
        from_node, to_node = (src_node, agg_node) if kind == "write" else (agg_node, src_node)
        bus = membw(from_node)
        if from_node == to_node:
            flows.append(Flow(float(nbytes), (bus,), resource_sizes={bus: 2.0 * nbytes}))
        else:
            path = (bus, nic_out(from_node), BISECTION, nic_in(to_node), membw(to_node))
            sizes = {bus: 3.0 * nbytes} if two_layer else None
            flows.append(Flow(float(nbytes), path, resource_sizes=sizes))
    return flows


def _reference_charge(flows, round_load, run_load, run_eff, derate):
    """The per-key dict charging that preceded columnar charging."""
    for flow in flows:
        for key in flow.resources:
            charge = flow.charge_on(key)
            run_load[key] = run_load.get(key, 0.0) + charge
            round_load[key] = round_load.get(key, 0.0) + charge
            run_eff[key] = run_eff.get(key, 0.0) + charge * derate(key)


_windows = st.lists(
    st.tuples(st.integers(0, 12_000), st.integers(1, 3_000)), min_size=1, max_size=4
).map(ExtentList.from_pairs)


@st.composite
def _charge_cases(draw):
    """Rounds of pieces, windows and pool-link stages over shared aggregators."""
    n_domains = draw(st.integers(1, 5))
    aggs = [draw(st.integers(0, 7)) for _ in range(n_domains)]  # repeats share a rank
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        active = sorted(draw(st.sets(st.integers(0, n_domains - 1), min_size=1)))
        pieces = [
            ExchangePiece(draw(st.integers(0, 7)), aggs[d], d, draw(st.integers(0, 1 << 20)))
            for d in active
            for _ in range(draw(st.integers(0, 4)))
        ]
        windows = {d: draw(_windows) for d in active}
        stages = {
            d: (draw(st.integers(0, _N_LINKS - 1)), draw(st.floats(1.0, 1e7)))
            for d in draw(st.sets(st.sampled_from(active)))
        }
        rounds.append((pieces, windows, stages))
    keys = list(_capacities("write", n_domains))
    derates = {
        key: draw(st.sampled_from([1.25, 1.5, 2.0, 3.0, 7.0]))
        for key in draw(st.sets(st.sampled_from(keys), max_size=6))
    }
    return aggs, rounds, derates


def _columns(pieces):
    """A list of pieces as the columns ``plan_exchange`` returns."""
    cols = np.array([p[:4] for p in pieces], dtype=np.int64).reshape(-1, 4)
    return ExchangePieces(*cols.T)


def _capacities(kind, n_domains):
    caps = _COMM.network.capacity_map(_CLUSTER)
    caps.update(_PFS.capacity_map(kind))
    for d in range(n_domains):
        caps[_PFS.stream_key(d)] = _PFS.stream_capacity(kind)
    for link in range(_N_LINKS):
        caps[pool_link(link)] = 5e9
    return caps


@settings(max_examples=150, deadline=None)
@given(
    case=_charge_cases(),
    kind=st.sampled_from(["read", "write"]),
    two_layer=st.booleans(),
    faulted=st.booleans(),
)
def test_columnar_charges_match_per_flow_reference(case, kind, two_layer, faulted):
    aggs, rounds, derates = case
    caps = _capacities(kind, len(aggs))
    ids = ResourceIds(caps)
    ledger = ChargeLedger(ids, derated=faulted)
    derate_of = (lambda key: derates.get(key, 1.0)) if faulted else (lambda key: 1.0)
    derate = np.asarray([derate_of(key) for key in ids.keys]) if faulted else None
    eff_cap = ids.caps if derate is None else ids.caps / derate
    merge = two_layer and faulted
    ref_load: dict = {}
    ref_eff: dict = {}
    for pieces, windows, stages in rounds:
        # Reference: per-domain Flow lists, charged key by key.
        by_domain = {
            d: _reference_shuffle_flows(list(group), _COMM, kind, two_layer)
            for d, group in groupby(pieces, key=attrgetter("domain_index"))
        }
        sh_flows = (
            _reference_shuffle_flows(pieces, _COMM, kind, True)
            if merge
            else [f for flows in by_domain.values() for f in flows]
        )
        ref_sh: dict = {}
        _reference_charge(sh_flows, ref_sh, ref_load, ref_eff, derate_of)
        ref_io: dict = {}
        io_by_domain = {}
        for d, window in windows.items():
            node = _COMM.node_of(aggs[d])
            flows = _PFS.access_flow_list(node, _PFS.layout.ost_load(window), kind, stream=d)
            if d in stages:
                link, staged = stages[d]
                flows.append(Flow(staged, (pool_link(link),)))
            io_by_domain[d] = flows
            _reference_charge(flows, ref_io, ref_load, ref_eff, derate_of)

        def drain(flows, load):
            keys = dict.fromkeys(k for f in flows for k in f.resources)
            return max((load[k] / (caps[k] / derate_of(k)) for k in keys), default=0.0)

        ref_sh_cost = {d: drain(flows, ref_sh) for d, flows in by_domain.items() if flows}
        ref_io_cost = [drain(io_by_domain[d], ref_io) for d in windows]

        # Columnar: the round engine's building blocks.
        shuffle = shuffle_flows(
            _columns(pieces), _COMM, kind, ids, two_layer=two_layer, merge_across_domains=merge
        )
        round_sh, sh_by_key = ledger.charge(
            shuffle.charges if shuffle.merged is None else shuffle.merged, derate
        )
        active = np.asarray(list(windows))
        io, _ = _PFS.access_flows(
            _COMM.nodes_of([aggs[d] for d in active]), list(windows.values()), kind, ids,
            streams=active,
        )
        lenders = [k for k, d in enumerate(windows) if d in stages]
        io = io.extend_segments(
            lenders,
            ids.column(pool_link, np.asarray([stages[active[k]][0] for k in lenders], np.int64)),
            [stages[active[k]][1] for k in lenders],
        )
        round_io, io_by_key = ledger.charge(io, derate)
        sh_cost = dict(zip(
            shuffle.charges.owners.tolist(),
            shuffle.charges.drain_times(round_sh, eff_cap).tolist(),
        ))
        io_cost = io.drain_times(round_io, eff_cap).tolist()

        assert list(sh_by_key.items()) == list(ref_sh.items())
        assert list(io_by_key.items()) == list(ref_io.items())
        assert sh_cost == ref_sh_cost
        assert io_cost == ref_io_cost
        assert shuffle.messages == {
            d: len(flows) if two_layer else sum(1 for p in pieces if p.domain_index == d)
            for d, flows in by_domain.items()
        }
    assert list(ledger.totals().items()) == list(ref_load.items())
    touched = ledger.touched
    eff = [(ids.keys[k], v) for k, v in zip(touched.tolist(), ledger.derated[touched].tolist())]
    assert eff == list(ref_eff.items())
