"""The binary partition tree of the I/O Workload Partition component.

Within one aggregation group, the group's file region is recursively
bisected — each cut placed at the *covered-byte median* so both halves
carry equal data — until every leaf holds at most ``Msg_ind`` bytes of
requested data. Leaves are the file domains; internal vertices are
regions that "no longer exist, but were split at some previous time"
(paper, Section 3.2).

Every vertex carries its file region ``[lo, hi)`` and a *byte-rank
interval* ``[a, b)`` into a :class:`RankStream` — the plan's aggregate
coverage with its bytes numbered in file order. A vertex covers exactly
the stream's bytes ranked ``a`` to ``b - 1``, so its covered bytes are
``b - a`` and its coverage is one slice of the stream, cut only when
asked for (:meth:`PartitionTree.coverage`). :meth:`PartitionTree.
build_forest` bisects every group of a plan in one level-by-level pass
of array arithmetic over the stream's prefix sum.

Remerging (Section 3.2, Figures 5a/5b) removes a leaf whose hosts lack
memory and hands its region to the neighbouring leaf:

* **Case 5a** — the departing leaf's sibling is itself a leaf: the
  sibling takes over directly and their parent becomes the merged leaf.
* **Case 5b** — the sibling is an internal vertex: a depth-first search
  descends into the sibling's subtree *toward the departing leaf*
  (left-first when the departing leaf was the left sibling, right-first
  otherwise), and the nearest leaf found takes over the region.

Leaves tile the region in order, and their rank intervals tile the
stream in the same order, so a merged leaf is still one region and one
rank interval: surgery is integer arithmetic on the bounds. The tiling
invariant (`leaves tile the root region and its rank interval exactly`)
is checked by ``validate()``, and property tests hammer it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

from ..util.errors import PartitionError
from ..util.intervals import Extent, ExtentList
from ..util.validation import check_positive

__all__ = ["PartitionNode", "PartitionTree", "RankStream"]


class RankStream:
    """A normalized coverage addressed by byte rank.

    The rank of a covered byte is its position when the extents are
    concatenated in file order. With ``cum[i]`` the bytes covered through
    extent ``i`` and ``cum0 = cum - lengths``, offsets and ranks convert
    with one ``searchsorted`` each, for whole arrays at once.
    """

    __slots__ = ("starts", "ends", "cum0", "cum", "total")

    def __init__(self, coverage: ExtentList) -> None:
        self.starts = coverage.starts
        self.ends = coverage.ends
        lengths = self.ends - self.starts
        self.cum = np.cumsum(lengths)  # bytes covered through extent i
        self.cum0 = self.cum - lengths  # bytes covered before extent i
        self.total = int(self.cum[-1]) if self.cum.size else 0

    def off_at(self, ranks: np.ndarray) -> np.ndarray:
        """File offset of each byte ranked ``ranks`` (all < ``total``)."""
        i = np.searchsorted(self.cum, ranks, side="right")
        return self.starts[i] + (ranks - self.cum0[i])

    def rank_of(self, offsets: np.ndarray) -> np.ndarray:
        """Covered bytes strictly below each file offset."""
        i = np.searchsorted(self.starts, offsets, side="right")
        j = np.maximum(i - 1, 0)
        partial = np.minimum(self.ends[j], offsets) - self.starts[j]
        return np.where(i > 0, self.cum0[j] + np.maximum(partial, 0), 0)

    def slice_runs(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bytes ranked in each run ``[a[k], b[k])``, as extents.

        Returns ``(starts, ends, first)``: run ``k``'s extents are
        ``first[k]:first[k + 1]``. Runs must be ascending and non-empty.
        A run's slice is normalized (the stream has a gap between any
        two extents), and two runs that do not touch in rank leave a gap
        in offset too.
        """
        i0 = np.searchsorted(self.cum, a, side="right")
        i1 = np.searchsorted(self.cum0, b, side="left")
        counts = i1 - i0
        first = np.zeros(counts.size + 1, np.int64)
        np.cumsum(counts, out=first[1:])
        run = np.repeat(np.arange(counts.size), counts)
        idx = np.arange(int(first[-1])) - first[run] + i0[run]
        seg_lo = self.cum0[idx]
        take_lo = np.maximum(seg_lo, a[run])
        take_hi = np.minimum(self.cum[idx], b[run])
        starts = self.starts[idx] + (take_lo - seg_lo)
        return starts, starts + (take_hi - take_lo), first

    def slice(self, a: int, b: int) -> ExtentList:
        """Coverage bytes ranked in ``[a, b)`` (a normalized set)."""
        if b <= a:
            return ExtentList.empty()
        starts, ends, _ = self.slice_runs(
            np.array([a], np.int64), np.array([b], np.int64)
        )
        return ExtentList(starts, ends, _trusted=True)


class PartitionNode:
    """One vertex of the partition tree: a file region and its bytes.

    ``[lo, hi)`` is the file region; ``[a, b)`` the byte ranks of the
    tree's stream that the region covers. Vertices keep no parent link,
    so a dropped tree holds no reference cycle and is freed at once
    (surgery finds a parent by descending from the root).
    """

    __slots__ = ("lo", "hi", "a", "b", "left", "right")

    def __init__(self, lo: int, hi: int, a: int, b: int) -> None:
        if hi <= lo:
            raise PartitionError(f"empty region [{lo}, {hi})")
        self.lo = lo
        self.hi = hi
        self.a = a
        self.b = b
        self.left: PartitionNode | None = None
        self.right: PartitionNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def region(self) -> Extent:
        return Extent(self.lo, self.hi - self.lo)

    @property
    def covered_bytes(self) -> int:
        return self.b - self.a

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return f"PartitionNode([{self.lo},{self.hi}), ranks [{self.a},{self.b}), {kind})"


class PartitionTree:
    """A group's file region, bisected into file domains over ``stream``."""

    def __init__(self, root: PartitionNode, stream: RankStream) -> None:
        self.root = root
        self.stream = stream

    # -------------------------------------------------------------- build
    @classmethod
    def build_indexed(
        cls,
        coverage: ExtentList,
        msg_ind: int,
        *,
        region: Extent | None = None,
        align: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> PartitionTree:
        """Bisect one coverage: a forest of one over its own stream."""
        if coverage.is_empty:
            raise PartitionError("cannot partition an empty access set")
        if region is None:
            region = coverage.envelope()
        (tree,) = cls.build_forest(
            RankStream(coverage), [region], msg_ind, align=align
        )
        return tree

    @classmethod
    def build_forest(
        cls,
        stream: RankStream,
        regions: Sequence[Extent],
        msg_ind: int,
        *,
        align: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> list[PartitionTree]:
        """Bisect every region until each leaf covers <= ``msg_ind`` bytes.

        ``regions`` are disjoint and ascending, each covering some of
        ``stream``'s bytes and none outside it; one tree comes back per
        region. Each cut sits at the node's covered-byte median.
        ``align`` optionally snaps split offsets (e.g. to stripe-unit
        boundaries); it maps an offset array elementwise. A snap is
        discarded when it would produce an empty half, and the raw
        median is used instead.

        All trees grow together, one level per pass: every open node's
        median, snap and accept test is one array expression over the
        stream's prefix sum, and only the node objects are made in
        Python.
        """
        check_positive("msg_ind", msg_ind)
        if not regions:
            return []
        lo = np.fromiter((r.offset for r in regions), np.int64, len(regions))
        hi = np.fromiter((r.end for r in regions), np.int64, len(regions))
        a = stream.rank_of(lo)
        b = stream.rank_of(hi)
        if np.any(b <= a):
            raise PartitionError("cannot partition an empty access set")
        if a[0] != 0 or b[-1] != stream.total or np.any(a[1:] != b[:-1]):
            raise PartitionError(f"coverage escapes regions {list(regions)}")
        nodes = [
            PartitionNode(*bounds)
            for bounds in zip(lo.tolist(), hi.tolist(), a.tolist(), b.tolist())
        ]
        trees = [cls(node, stream) for node in nodes]
        while nodes:
            total = b - a
            split = np.flatnonzero(total > msg_ind)  # so total >= 2
            if split.size == 0:
                break
            lo, hi, a, b, total = lo[split], hi[split], a[split], b[split], total[split]
            median = stream.off_at(a + total // 2)
            cut, left = median, stream.rank_of(median) - a
            ok = (lo < cut) & (cut < hi) & (left > 0) & (left < total)
            if align is not None:
                snapped = np.broadcast_to(
                    np.asarray(align(median), dtype=np.int64), median.shape
                )
                snap_left = stream.rank_of(snapped) - a
                snap_ok = (
                    (lo < snapped) & (snapped < hi)
                    & (snap_left > 0) & (snap_left < total)
                )
                cut = np.where(snap_ok, snapped, cut)
                left = np.where(snap_ok, snap_left, left)
                ok |= snap_ok
            # A node with no valid cut stays a leaf (never seen: the raw
            # median always splits a node of >= 2 bytes).
            keep = np.flatnonzero(ok)
            mid = a[keep] + left[keep]
            children: list[PartitionNode] = []
            for k, n_cut, n_mid in zip(
                split[keep].tolist(), cut[keep].tolist(), mid.tolist()
            ):
                parent = nodes[k]
                parent.left = PartitionNode(parent.lo, n_cut, parent.a, n_mid)
                parent.right = PartitionNode(n_cut, parent.hi, n_mid, parent.b)
                children.append(parent.left)
                children.append(parent.right)
            nodes = children
            lo = np.stack((lo[keep], cut[keep]), axis=1).ravel()
            hi = np.stack((cut[keep], hi[keep]), axis=1).ravel()
            a = np.stack((a[keep], mid), axis=1).ravel()
            b = np.stack((mid, b[keep]), axis=1).ravel()
        return trees

    # ------------------------------------------------------------ queries
    def coverage(self, node: PartitionNode) -> ExtentList:
        """The stream bytes ``node`` covers, as a normalized set."""
        return self.stream.slice(node.a, node.b)

    def leaves(self) -> list[PartitionNode]:
        """Leaves in file-offset order (in-order traversal)."""
        out: list[PartitionNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.left is None:  # vertices have two children or none
                out.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return out

    def __iter__(self) -> Iterator[PartitionNode]:
        return iter(self.leaves())

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    # ------------------------------------------------------------ surgery
    def remove_leaf(self, leaf: PartitionNode) -> PartitionNode:
        """Remove ``leaf``; its region and bytes pass to the neighbour leaf.

        Returns the surviving (possibly newly-merged) leaf. Implements the
        paper's two takeover cases; raises when the leaf is the root (a
        group cannot shed its only domain).
        """
        if not leaf.is_leaf:
            raise PartitionError("remove_leaf on an internal vertex")
        if leaf is self.root:
            raise PartitionError("cannot remove the only domain of a group")
        parent = self.root
        while True:
            if parent.left is None or parent.right is None:
                raise PartitionError(f"{leaf!r} is not a leaf of this tree")
            child = parent.left if leaf.lo < parent.left.hi else parent.right
            if child is leaf:
                break
            parent = child
        a_is_left = parent.left is leaf
        sibling = parent.right if a_is_left else parent.left

        if sibling.is_leaf:
            # Case 5a: sibling takes over directly; parent becomes the
            # merged leaf spanning both regions and both rank intervals.
            parent.left = None
            parent.right = None
            return parent

        # Case 5b: promote the sibling subtree into the parent, then DFS
        # toward the departed leaf to find the adjacent taker.
        parent.left = sibling.left
        parent.right = sibling.right
        # parent's region already spans A ∪ B; descend toward A's side,
        # extending each visited vertex's bounds over A's region and ranks.
        node = parent
        while not node.is_leaf:
            child = node.left if a_is_left else node.right
            assert child is not None
            if a_is_left:
                child.lo, child.a = leaf.lo, leaf.a
            else:
                child.hi, child.b = leaf.hi, leaf.b
            node = child
        return node

    # ---------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural invariants; raises :class:`PartitionError`."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.hi <= node.lo:
                raise PartitionError(f"empty region on {node!r}")
            if node.b < node.a:
                raise PartitionError(f"negative rank interval on {node!r}")
            if node.is_leaf:
                if node.b > node.a:
                    first, last = self.stream.off_at(
                        np.array([node.a, node.b - 1], np.int64)
                    ).tolist()
                    if first < node.lo or last >= node.hi:
                        raise PartitionError(
                            f"coverage [{first},{last}] escapes leaf "
                            f"[{node.lo},{node.hi})"
                        )
            else:
                if node.left is None or node.right is None:
                    raise PartitionError(f"internal {node!r} missing a child")
                if node.left.lo != node.lo or node.right.hi != node.hi:
                    raise PartitionError(f"children do not span {node!r}")
                if node.left.hi != node.right.lo:
                    raise PartitionError(f"children of {node!r} do not tile")
                if node.left.a != node.a or node.right.b != node.b:
                    raise PartitionError(f"children do not span {node!r}'s ranks")
                if node.left.b != node.right.a:
                    raise PartitionError(f"children of {node!r} do not tile its ranks")
                stack.append(node.left)
                stack.append(node.right)
        leaves = self.leaves()
        for prev, nxt in zip(leaves, leaves[1:]):
            if prev.hi != nxt.lo or prev.b != nxt.a:
                raise PartitionError(
                    f"leaf gap/overlap between {prev!r} and {nxt!r}"
                )
        if leaves[0].lo != self.root.lo or leaves[-1].hi != self.root.hi:
            raise PartitionError("leaves do not tile the root region")

    def total_coverage(self) -> ExtentList:
        """Union of all leaf coverages."""
        return ExtentList.union_all([self.coverage(leaf) for leaf in self.leaves()])
