"""Tests for the binary partition tree (build, surgery, invariants)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PartitionTree, RankStream
from repro.core.partition_tree import PartitionNode
from repro.util import Extent, ExtentList, PartitionError

from ._object_planner import build_tree, offset_at_rank


def dense(total):
    return ExtentList.single(0, total)


class TestOffsetAtRank:
    """The reference planner's median lookup."""

    def test_dense(self):
        cov = ExtentList.from_pairs([(10, 10)])
        assert offset_at_rank(cov, 0) == 10
        assert offset_at_rank(cov, 9) == 19

    def test_with_holes(self):
        cov = ExtentList.from_pairs([(0, 5), (100, 5)])
        assert offset_at_rank(cov, 4) == 4
        assert offset_at_rank(cov, 5) == 100

    def test_out_of_range(self):
        cov = dense(10)
        with pytest.raises(PartitionError):
            offset_at_rank(cov, 10)
        with pytest.raises(PartitionError):
            offset_at_rank(ExtentList.empty(), 0)


class TestBuild:
    def test_small_workload_single_leaf(self):
        tree = PartitionTree.build_indexed(dense(100), msg_ind=200)
        assert tree.n_leaves == 1
        tree.validate()

    def test_bisection_until_msg_ind(self):
        tree = PartitionTree.build_indexed(dense(1000), msg_ind=100)
        tree.validate()
        for leaf in tree.leaves():
            assert leaf.covered_bytes <= 100

    def test_leaves_partition_coverage(self):
        cov = ExtentList.from_pairs([(0, 300), (500, 300), (1000, 424)])
        tree = PartitionTree.build_indexed(cov, msg_ind=128)
        tree.validate()
        assert tree.total_coverage() == cov
        assert sum(l.covered_bytes for l in tree.leaves()) == cov.total

    def test_balanced_split_on_skewed_data(self):
        # All data in the right half of the region: the median split must
        # follow the data, not the midpoint of the region.
        cov = ExtentList.single(900, 100)
        tree = PartitionTree.build_indexed(cov, msg_ind=50, region=Extent(0, 1000))
        tree.validate()
        leaves = [l for l in tree.leaves() if l.covered_bytes > 0]
        assert all(l.covered_bytes <= 50 for l in leaves)

    def test_alignment_hook(self):
        align = lambda off: (off // 64) * 64
        tree = PartitionTree.build_indexed(dense(1024), msg_ind=256, align=align)
        tree.validate()
        # Snaps apply whenever they keep both halves non-empty; with a
        # power-of-two region every cut is alignable.
        for leaf in tree.leaves()[:-1]:
            assert leaf.hi % 64 == 0

    def test_alignment_discarded_when_it_would_empty_a_half(self):
        # Data only in [60, 70): snapping the median (65) down to 64 is
        # fine, but snapping to 0 would empty the left half and must be
        # discarded rather than crash.
        align = lambda off: (off // 1024) * 1024
        cov = ExtentList.single(60, 10)
        tree = PartitionTree.build_indexed(cov, msg_ind=5, align=align)
        tree.validate()
        assert tree.total_coverage() == cov

    def test_empty_coverage_rejected(self):
        with pytest.raises(PartitionError):
            PartitionTree.build_indexed(ExtentList.empty(), msg_ind=10)

    def test_coverage_outside_region_rejected(self):
        with pytest.raises(PartitionError):
            PartitionTree.build_indexed(dense(100), msg_ind=10, region=Extent(0, 50))


class TestRemoveLeafFigure5:
    """The two takeover cases from the paper's Figure 5."""

    def test_figure5a_sibling_is_leaf(self):
        # Region split once: A = left leaf, B = right leaf. A leaves; B
        # takes over directly and their parent becomes the merged leaf.
        tree = PartitionTree.build_indexed(dense(200), msg_ind=100)
        assert tree.n_leaves == 2
        a, b = tree.leaves()
        survivor = tree.remove_leaf(a)
        tree.validate()
        assert tree.n_leaves == 1
        assert survivor.lo == 0 and survivor.hi == 200
        assert survivor.covered_bytes == 200
        assert tree.coverage(survivor) == dense(200)

    def test_figure5b_dfs_into_left_sibling_subtree(self):
        # A is the right child of the root; sibling B is internal. The DFS
        # must walk B's *rightmost* path so the taker is adjacent to A.
        # Build by hand over dense bytes [0, 400), so byte ranks equal
        # offsets: left internal with two leaves; right a leaf.
        root = PartitionNode(0, 400, 0, 400)
        left = PartitionNode(0, 200, 0, 200)
        right = PartitionNode(200, 400, 200, 400)
        ll = PartitionNode(0, 100, 0, 100)
        lr = PartitionNode(100, 200, 100, 200)
        left.left, left.right = ll, lr
        root.left, root.right = left, right
        tree = PartitionTree(root, RankStream(dense(400)))
        tree.validate()
        # Remove `right` (A, the right sibling); B = left is internal.
        survivor = tree.remove_leaf(right)
        tree.validate()
        # DFS right-first from B finds lr, which absorbs A's region.
        assert survivor is lr
        assert survivor.lo == 100 and survivor.hi == 400
        assert survivor.covered_bytes == 300
        assert tree.coverage(survivor) == ExtentList.single(100, 300)
        # The untouched leaf keeps its region.
        assert ll.lo == 0 and ll.hi == 100

    def test_figure5b_left_removal_takes_leftmost(self):
        root = PartitionNode(0, 400, 0, 400)
        left = PartitionNode(0, 200, 0, 200)
        right = PartitionNode(200, 400, 200, 400)
        rl = PartitionNode(200, 300, 200, 300)
        rr = PartitionNode(300, 400, 300, 400)
        right.left, right.right = rl, rr
        root.left, root.right = left, right
        tree = PartitionTree(root, RankStream(dense(400)))
        survivor = tree.remove_leaf(left)
        tree.validate()
        assert survivor is rl  # leftmost leaf of the right subtree
        assert survivor.lo == 0 and survivor.hi == 300
        assert (survivor.a, survivor.b) == (0, 300)
        assert rr.lo == 300 and rr.hi == 400

    def test_cannot_remove_root(self):
        tree = PartitionTree.build_indexed(dense(10), msg_ind=100)
        with pytest.raises(PartitionError):
            tree.remove_leaf(tree.root)

    def test_remove_internal_rejected(self):
        tree = PartitionTree.build_indexed(dense(400), msg_ind=100)
        with pytest.raises(PartitionError):
            tree.remove_leaf(tree.root)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5_000), st.integers(1, 400)),
        min_size=1,
        max_size=15,
    ),
    st.integers(16, 512),
    st.lists(st.integers(0, 30), max_size=10),
)
def test_property_surgery_preserves_invariants(pairs, msg_ind, removals):
    cov = ExtentList.from_pairs(pairs)
    tree = PartitionTree.build_indexed(cov, msg_ind=msg_ind)
    tree.validate()
    assert tree.total_coverage() == cov
    for pick in removals:
        leaves = tree.leaves()
        if len(leaves) <= 1:
            break
        tree.remove_leaf(leaves[pick % len(leaves)])
        tree.validate()
        # Surgery never loses or duplicates bytes.
        assert tree.total_coverage() == cov
        assert sum(l.covered_bytes for l in tree.leaves()) == cov.total


def _shape(tree, coverages=None):
    """(lo, hi, a, b, coverage pairs or None) for every node, preorder.

    Leaf coverages come from ``coverages`` (in leaf order) when given,
    else sliced from the tree's stream."""
    leaves = tree.leaves()
    if coverages is None:
        coverages = [tree.coverage(leaf) for leaf in leaves]
    by_leaf = {id(leaf): cov for leaf, cov in zip(leaves, coverages)}
    out = []

    def walk(node):
        cov = by_leaf.get(id(node))
        out.append(
            (
                node.lo,
                node.hi,
                node.a,
                node.b,
                None
                if cov is None
                else tuple(zip(cov.starts.tolist(), cov.ends.tolist())),
            )
        )
        if not node.is_leaf:
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    return out


class TestMedianFallback:
    def test_align_snap_never_leaves_oversized_leaf(self):
        """Regression: an align hook whose snaps all land outside the
        data (here: everything snaps to 0) used to make the tree build give
        up splitting, leaving leaves far above ``msg_ind``. The raw
        covered-byte median must be tried as a fallback."""
        cov = ExtentList.single(60, 40)
        tree = PartitionTree.build_indexed(cov, msg_ind=8, align=lambda off: 0)
        tree.validate()
        assert all(l.covered_bytes <= 8 for l in tree.leaves())
        assert tree.total_coverage() == cov

    def test_snap_still_preferred_when_valid(self):
        align = lambda off: (off // 64) * 64
        tree = PartitionTree.build_indexed(dense(1024), msg_ind=256, align=align)
        for leaf in tree.leaves()[:-1]:
            assert leaf.hi % 64 == 0


class TestBuildIndexed:
    @pytest.mark.parametrize(
        "pairs,msg_ind",
        [
            ([(0, 1000)], 100),
            ([(0, 300), (500, 800), (1000, 1424)], 128),
            ([(60, 70)], 5),
            ([(900, 1000)], 50),
            ([(0, 1), (10, 11)], 1),
        ],
    )
    def test_matches_object_build(self, pairs, msg_ind):
        cov = ExtentList(
            [a for a, _ in pairs], [b for _, b in pairs]
        )
        for align in (None, lambda off: (off // 64) * 64, lambda off: 0):
            a, clipped = build_tree(cov, msg_ind=msg_ind, align=align)
            b = PartitionTree.build_indexed(cov, msg_ind=msg_ind, align=align)
            b.validate()
            assert _shape(a, clipped) == _shape(b)

    def test_matches_with_region(self):
        cov = ExtentList.single(900, 100)
        a, clipped = build_tree(cov, msg_ind=50, region=Extent(0, 1000))
        b = PartitionTree.build_indexed(cov, msg_ind=50, region=Extent(0, 1000))
        assert _shape(a, clipped) == _shape(b)

    def test_empty_coverage_rejected(self):
        with pytest.raises(PartitionError):
            PartitionTree.build_indexed(ExtentList.empty(), msg_ind=10)


@st.composite
def _forests(draw):
    """A coverage, group regions that tile a span wider than it, a
    ``msg_ind`` and an optional stripe-unit snap."""
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, 20_000), st.integers(1, 3_000)),
            min_size=1,
            max_size=20,
        )
    )
    cov = ExtentList.from_pairs(pairs)
    env = cov.envelope()
    lo = max(env.offset - draw(st.integers(0, 500)), 0)
    hi = env.end + draw(st.integers(0, 500))
    cuts = (
        draw(st.lists(st.integers(lo + 1, hi - 1), max_size=6, unique=True))
        if hi - lo >= 2
        else []
    )
    bounds = [lo, *sorted(cuts), hi]
    regions = [
        Extent(a, b - a)
        for a, b in zip(bounds, bounds[1:])
        if not cov.clip(a, b - a).is_empty
    ]
    unit = draw(st.sampled_from([None, 1, 7, 64, 4096]))
    return cov, regions, draw(st.integers(1, 4_000)), unit


@settings(deadline=None, max_examples=200)
@given(case=_forests())
def test_property_forest_matches_the_recursion(case):
    """The batched bisection grows, group by group, the tree the
    per-group recursion grows: every vertex's region and rank interval,
    and every leaf's coverage sliced from its ``[a, b)`` equals the
    recursion's clipped coverage."""
    cov, regions, msg_ind, unit = case
    align = None if unit is None else (lambda off: (off // unit) * unit)
    stream = RankStream(cov)
    forest = PartitionTree.build_forest(stream, regions, msg_ind, align=align)
    assert len(forest) == len(regions)
    base = 0
    for region, tree in zip(regions, forest):
        group_cov = cov.clip(region.offset, region.length)
        ref, clipped = build_tree(
            group_cov, msg_ind, region=region, align=align, stream=stream, base=base
        )
        base += group_cov.total
        tree.validate()
        assert _shape(tree) == _shape(ref, clipped)
    assert base == cov.total
