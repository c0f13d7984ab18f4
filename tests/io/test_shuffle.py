"""Tests for the shuffle exchange planner and flow builder."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BISECTION, Cluster, NetworkModel, membw, nic_in, nic_out, scaled_testbed
from repro.io.domains import FileDomain
from repro.io.shuffle import ExchangeIndex, plan_exchange, shuffle_flows
from repro.mpi import AccessRequest, SimComm
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
        assert pieces == []

    def test_bytes_conserved(self, comm):
        reqs = [AccessRequest(r, ExtentList.single(r * 50, 50)) for r in range(4)]
        domains = [_domain(0, 100, 0), _domain(100, 200, 2)]
        windows = [d.coverage for d in domains]
        pieces = plan_exchange(ExchangeIndex(reqs, domains), windows)
        assert sum(p.nbytes for p in pieces) == 200


class TestShuffleFlows:
    def test_intra_node_charges_membw_twice(self, comm):
        reqs = [AccessRequest(0, ExtentList.single(0, 100))]
        domains = [_domain(0, 100, 1)]  # ranks 0,1 share node 0
        pieces = plan_exchange(ExchangeIndex(reqs, domains), [domains[0].coverage])
        flows, intra, inter = shuffle_flows(pieces, comm, "write")
        assert intra == 100 and inter == 0
        (flow,) = flows
        assert flow.resources == (membw(0),)
        assert flow.charge_on(membw(0)) == 200.0

    def test_inter_node_path(self, comm):
        reqs = [AccessRequest(0, ExtentList.single(0, 100))]
        domains = [_domain(0, 100, 6)]  # rank 6 on node 3
        pieces = plan_exchange(ExchangeIndex(reqs, domains), [domains[0].coverage])
        flows, intra, inter = shuffle_flows(pieces, comm, "write")
        assert inter == 100 and intra == 0
        (flow,) = flows
        assert flow.resources == (
            membw(0), nic_out(0), BISECTION, nic_in(3), membw(3)
        )

    def test_read_reverses_direction(self, comm):
        reqs = [AccessRequest(0, ExtentList.single(0, 100))]
        domains = [_domain(0, 100, 6)]
        pieces = plan_exchange(ExchangeIndex(reqs, domains), [domains[0].coverage])
        flows, _, _ = shuffle_flows(pieces, comm, "read")
        (flow,) = flows
        # data moves aggregator (node 3) -> requester (node 0)
        assert nic_out(3) in flow.resources
        assert nic_in(0) in flow.resources


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


def _reference_pieces(requests, domains, src, taker, windows):
    """The per-pair ``ExtentList.intersect`` exchange, remerge included."""
    candidates = [
        [(r, r.extents.intersect(d.coverage)) for r in requests]
        for d in domains
    ]
    candidates = [[(r, p) for r, p in cands if not p.is_empty] for cands in candidates]
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


@settings(max_examples=200, deadline=None)
@given(case=_exchange_cases())
def test_columnar_exchange_matches_per_pair_intersections(case):
    requests, domains, src, taker, windows = case
    index = ExchangeIndex(requests, domains)
    index.remerge(src, taker)
    got = [
        (p.domain_index, p.src_rank, p.agg_rank, p.nbytes, p.piece.to_pairs())
        for p in plan_exchange(index, windows, with_extents=True)
    ]
    assert got == _reference_pieces(requests, domains, src, taker, windows)
    without = [
        (p.domain_index, p.src_rank, p.agg_rank, p.nbytes, p.piece)
        for p in plan_exchange(index, windows)
    ]
    assert without == [(*g[:4], None) for g in got]
