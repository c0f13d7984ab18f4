"""The binary partition tree of the I/O Workload Partition component.

Within one aggregation group, the group's file region is recursively
bisected — each cut placed at the *covered-byte median* so both halves
carry equal data — until every leaf holds at most ``Msg_ind`` bytes of
requested data. Leaves are the file domains; internal vertices are
regions that "no longer exist, but were split at some previous time"
(paper, Section 3.2).

Remerging (Section 3.2, Figures 5a/5b) removes a leaf whose hosts lack
memory and hands its region to the neighbouring leaf:

* **Case 5a** — the departing leaf's sibling is itself a leaf: the
  sibling takes over directly and their parent becomes the merged leaf.
* **Case 5b** — the sibling is an internal vertex: a depth-first search
  descends into the sibling's subtree *toward the departing leaf*
  (left-first when the departing leaf was the left sibling, right-first
  otherwise), and the nearest leaf found takes over the region.

Coverage bookkeeping lives only on leaves; internal nodes carry just
their region, which keeps surgery local and makes the tiling invariant
(`leaves tile the root region exactly`) easy to check — ``validate()``
does, and property tests hammer it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from ..util.errors import PartitionError
from ..util.intervals import Extent, ExtentList
from ..util.validation import check_positive

__all__ = ["PartitionNode", "PartitionTree"]


class PartitionNode:
    """One vertex of the partition tree: a file region, maybe with data."""

    __slots__ = ("lo", "hi", "coverage", "left", "right", "parent")

    def __init__(
        self,
        lo: int,
        hi: int,
        coverage: ExtentList | None = None,
        parent: PartitionNode | None = None,
    ) -> None:
        if hi <= lo:
            raise PartitionError(f"empty region [{lo}, {hi})")
        self.lo = lo
        self.hi = hi
        self.coverage = coverage  # leaves only
        self.left: PartitionNode | None = None
        self.right: PartitionNode | None = None
        self.parent = parent

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def region(self) -> Extent:
        return Extent(self.lo, self.hi - self.lo)

    @property
    def covered_bytes(self) -> int:
        if self.coverage is None:
            raise PartitionError("internal vertices carry no coverage")
        return self.coverage.total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return f"PartitionNode([{self.lo},{self.hi}), {kind})"


class PartitionTree:
    """A group's file region, bisected into file domains."""

    def __init__(self, root: PartitionNode) -> None:
        self.root = root

    # -------------------------------------------------------------- build
    @classmethod
    def build_indexed(
        cls,
        coverage: ExtentList,
        msg_ind: int,
        *,
        region: Extent | None = None,
        align: Callable[[int], int] | None = None,
    ) -> PartitionTree:
        """Recursively bisect until each leaf covers <= ``msg_ind`` bytes.

        Each cut sits at the node's covered-byte median. ``align``
        optionally snaps split offsets (e.g. to stripe-unit boundaries);
        a snap is discarded when it would produce an empty half, and the
        raw median is used instead.

        No internal node's coverage is ever materialized: each stack
        entry carries the node's *byte-rank interval* ``[a, b)`` into
        the group coverage's packed stream, so medians, snap validation
        and leaf coverages all reduce to ``searchsorted`` against one
        prefix sum.
        """
        check_positive("msg_ind", msg_ind)
        if coverage.is_empty:
            raise PartitionError("cannot partition an empty access set")
        env = coverage.envelope()
        if region is None:
            region = env
        if env.offset < region.offset or env.end > region.end:
            raise PartitionError(f"coverage {env} escapes region {region}")

        starts = coverage.starts
        ends = coverage.ends
        lengths = ends - starts
        cum = np.cumsum(lengths)  # bytes covered through extent i
        cum0 = cum - lengths  # bytes covered before extent i

        def off_at(rank: int) -> int:
            """File offset of the byte ranked ``rank`` in the stream."""
            i = int(np.searchsorted(cum, rank, side="right"))
            return int(starts[i]) + (rank - int(cum0[i]))

        def rank_of(offset: int) -> int:
            """Covered bytes strictly below file offset ``offset``."""
            i = int(np.searchsorted(starts, offset, side="right"))
            if i == 0:
                return 0
            partial = min(int(ends[i - 1]), offset) - int(starts[i - 1])
            return int(cum0[i - 1]) + max(partial, 0)

        def slice_rank(a: int, b: int) -> ExtentList:
            """Coverage bytes ranked in ``[a, b)`` (a normalized set)."""
            i0 = int(np.searchsorted(cum, a, side="right"))
            i1 = int(np.searchsorted(cum0, b, side="left"))
            seg_s = starts[i0:i1]
            seg_lo = cum0[i0:i1]
            take_lo = np.maximum(seg_lo, a)
            take_hi = np.minimum(cum[i0:i1], b)
            out_s = seg_s + (take_lo - seg_lo)
            return ExtentList(out_s, out_s + (take_hi - take_lo), _trusted=True)

        root = PartitionNode(region.offset, region.end)
        tree = cls(root)
        stack: list[tuple[PartitionNode, int, int]] = [(root, 0, int(cum[-1]))]
        while stack:
            node, a, b = stack.pop()
            total = b - a
            if total <= msg_ind or total < 2:
                node.coverage = slice_rank(a, b)
                continue
            median = off_at(a + total // 2)
            candidates = [median]
            if align is not None and (snapped := align(median)) != median:
                candidates.insert(0, snapped)
            split_done = False
            for split in candidates:
                if not node.lo < split < node.hi:
                    continue
                left_bytes = rank_of(split) - a
                if not 0 < left_bytes < total:
                    continue
                node.left = PartitionNode(node.lo, split, parent=node)
                node.right = PartitionNode(split, node.hi, parent=node)
                stack.append((node.left, a, a + left_bytes))
                stack.append((node.right, a + left_bytes, b))
                split_done = True
                break
            if not split_done:  # pragma: no cover - median always valid
                node.coverage = slice_rank(a, b)
        return tree

    # ------------------------------------------------------------ queries
    def leaves(self) -> list[PartitionNode]:
        """Leaves in file-offset order (in-order traversal)."""
        out: list[PartitionNode] = []
        stack: list[PartitionNode] = []
        node: PartitionNode | None = self.root
        while node is not None or stack:
            while node is not None:
                if node.is_leaf:
                    out.append(node)
                    node = None
                else:
                    stack.append(node)
                    node = node.left
            if stack:
                node = stack.pop().right
        return out

    def __iter__(self) -> Iterator[PartitionNode]:
        return iter(self.leaves())

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    # ------------------------------------------------------------ surgery
    def remove_leaf(self, leaf: PartitionNode) -> PartitionNode:
        """Remove ``leaf``; its region/coverage pass to the neighbour leaf.

        Returns the surviving (possibly newly-merged) leaf. Implements the
        paper's two takeover cases; raises when the leaf is the root (a
        group cannot shed its only domain).
        """
        if not leaf.is_leaf:
            raise PartitionError("remove_leaf on an internal vertex")
        parent = leaf.parent
        if parent is None:
            raise PartitionError("cannot remove the only domain of a group")
        a_is_left = parent.left is leaf
        sibling = parent.right if a_is_left else parent.left
        if sibling is None:
            raise PartitionError("malformed tree: missing sibling")
        a_cov = leaf.coverage if leaf.coverage is not None else ExtentList.empty()

        if sibling.is_leaf:
            # Case 5a: sibling takes over directly; parent becomes the
            # merged leaf spanning both regions.
            s_cov = sibling.coverage if sibling.coverage is not None else ExtentList.empty()
            parent.coverage = a_cov.union(s_cov)
            parent.left = None
            parent.right = None
            return parent

        # Case 5b: promote the sibling subtree into the parent, then DFS
        # toward the departed leaf to find the adjacent taker.
        parent.left = sibling.left
        parent.right = sibling.right
        assert parent.left is not None and parent.right is not None
        parent.left.parent = parent
        parent.right.parent = parent
        # parent's region already spans A ∪ B; descend toward A's side,
        # extending each visited vertex's boundary over A's region.
        node = parent
        while not node.is_leaf:
            child = node.left if a_is_left else node.right
            assert child is not None
            if a_is_left:
                child.lo = leaf.lo
            else:
                child.hi = leaf.hi
            node = child
        taker = node
        t_cov = taker.coverage if taker.coverage is not None else ExtentList.empty()
        taker.coverage = t_cov.union(a_cov)
        return taker

    # ---------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural invariants; raises :class:`PartitionError`."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.hi <= node.lo:
                raise PartitionError(f"empty region on {node!r}")
            if node.is_leaf:
                if node.coverage is None:
                    raise PartitionError(f"leaf {node!r} without coverage")
                if not node.coverage.is_empty:
                    env = node.coverage.envelope()
                    if env.offset < node.lo or env.end > node.hi:
                        raise PartitionError(
                            f"coverage {env} escapes leaf [{node.lo},{node.hi})"
                        )
            else:
                if node.left is None or node.right is None:
                    raise PartitionError(f"internal {node!r} missing a child")
                if node.coverage is not None:
                    raise PartitionError(f"internal {node!r} carries coverage")
                if node.left.lo != node.lo or node.right.hi != node.hi:
                    raise PartitionError(f"children do not span {node!r}")
                if node.left.hi != node.right.lo:
                    raise PartitionError(f"children of {node!r} do not tile")
                if node.left.parent is not node or node.right.parent is not node:
                    raise PartitionError(f"broken parent links under {node!r}")
                stack.append(node.left)
                stack.append(node.right)
        leaves = self.leaves()
        for prev, nxt in zip(leaves, leaves[1:]):
            if prev.hi != nxt.lo:
                raise PartitionError(
                    f"leaf gap/overlap between [{prev.lo},{prev.hi}) and "
                    f"[{nxt.lo},{nxt.hi})"
                )
        if leaves[0].lo != self.root.lo or leaves[-1].hi != self.root.hi:
            raise PartitionError("leaves do not tile the root region")

    def total_coverage(self) -> ExtentList:
        """Union of all leaf coverages."""
        return ExtentList.union_all(
            [leaf.coverage for leaf in self.leaves() if leaf.coverage is not None]
        )
