"""The dynamic R-tree: Guttman INSERT, DELETE and SEARCH.

This is the paper's baseline structure (Section 3.2) and the substrate on
which PACK-built trees continue to live: "the INSERT and DELETE algorithms
given by Guttman can still be used" on a packed tree (Section 3.4).

The implementation follows Guttman 1984 faithfully:

- ``insert``: ChooseLeaf descends by least enlargement, AdjustTree
  propagates MBR growth and node splits up to the root.
- ``delete``: FindLeaf locates the record, CondenseTree removes underfull
  nodes and re-inserts their orphaned entries at the appropriate level.
- ``search``: the recursive window search of Section 3.1, with optional
  node-access accounting (the paper's A column in Table 1).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Iterator, Optional,
                    Sequence, Union)

from repro import obs
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.node import Entry, Node
from repro.rtree.split import SplitStrategy, get_split_strategy

if TYPE_CHECKING:
    from repro.rtree.search import SearchStats


class RTree:
    """A two-dimensional R-tree with configurable branching factor.

    Args:
        max_entries: ``M``, the branching factor.  The paper uses 4
            throughout; production block-sized trees use 50+.
        min_entries: ``m``, the minimum fill.  Defaults to ``M // 2``
            (the largest value Guttman permits).
        split: split strategy name (``"exhaustive"``, ``"quadratic"``,
            ``"linear"``) or a :class:`SplitStrategy` instance.
    """

    def __init__(self, max_entries: int = 4,
                 min_entries: Optional[int] = None,
                 split: Union[str, SplitStrategy] = "quadratic"):
        if max_entries < 2:
            raise ValueError("branching factor must be at least 2")
        self.max_entries = max_entries
        self.min_entries = (max_entries // 2 if min_entries is None
                            else min_entries)
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must lie in [1, M/2]; "
                f"got m={self.min_entries}, M={max_entries}")
        if isinstance(split, str):
            split = get_split_strategy(split)
        self.split_strategy = split
        self.root: Node = Node(is_leaf=True)
        self._size = 0

    # -- construction from a packed level (used by repro.rtree.packing) -------

    @classmethod
    def from_root(cls, root: Node, max_entries: int,
                  min_entries: Optional[int] = None,
                  split: Union[str, SplitStrategy] = "quadratic") -> "RTree":
        """Wrap an externally built node hierarchy in an RTree facade.

        The PACK builders construct the hierarchy bottom-up and install it
        here so the resulting tree supports the full dynamic interface.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries,
                   split=split)
        tree.root = root
        tree._size = sum(1 for _ in root.leaf_entries())
        tree._fix_parents(root)
        return tree

    @staticmethod
    def _fix_parents(node: Node) -> None:
        if node.is_leaf:
            return
        for e in node.entries:
            assert e.child is not None
            e.child.parent = node
            RTree._fix_parents(e.child)

    # -- basic properties ----------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def depth(self) -> int:
        """Edges from root to leaf level (Table 1's D column; 0 = root only)."""
        return self.root.height()

    @property
    def node_count(self) -> int:
        """Total nodes including the root (Table 1's N column)."""
        return sum(1 for _ in self.root.descend())

    def nodes(self) -> Iterator[Node]:
        """All nodes, preorder."""
        return self.root.descend()

    def leaves(self) -> Iterator[Node]:
        """All leaf nodes."""
        return (n for n in self.root.descend() if n.is_leaf)

    def leaf_entries(self) -> Iterator[Entry]:
        """All data entries."""
        return self.root.leaf_entries()

    def bounds(self) -> Optional[Rect]:
        """MBR of the whole tree, or ``None`` when empty."""
        if not self.root.entries:
            return None
        return self.root.mbr()

    def items(self) -> Iterator[tuple[Rect, Any]]:
        """Every stored ``(rect, oid)`` pair (arbitrary order)."""
        return ((e.rect, e.oid) for e in self.leaf_entries())

    def __iter__(self) -> Iterator[tuple[Rect, Any]]:
        return self.items()

    # -- INSERT ---------------------------------------------------------------

    def insert(self, rect: Rect, oid: Any) -> None:
        """Insert a data object with bounding rectangle *rect*.

        Implements Guttman's INSERT: descend by least enlargement, add to
        the chosen leaf, split on overflow and propagate upward.
        """
        if not rect.is_valid():
            raise ValueError(f"invalid rectangle {rect!r}")
        entry = Entry(rect=rect, oid=oid)
        leaf = self._choose_node(rect, level=0)
        self._insert_entry(leaf, entry)
        self._size += 1

    def _choose_node(self, rect: Rect, level: int) -> Node:
        """ChooseLeaf, generalised to stop at *level* edges above the leaves.

        ``level=0`` selects a leaf; higher levels are used by CondenseTree
        to re-insert orphaned subtrees at their original height.
        """
        node = self.root
        while node.height() > level:
            best: Optional[Entry] = None
            best_enlargement = float("inf")
            best_area = float("inf")
            for e in node.entries:
                enlargement = e.rect.enlargement(rect)
                area = e.rect.area()
                if (enlargement < best_enlargement
                        or (enlargement == best_enlargement
                            and area < best_area)):
                    best = e
                    best_enlargement = enlargement
                    best_area = area
            assert best is not None and best.child is not None
            node = best.child
        return node

    def _insert_entry(self, node: Node, entry: Entry) -> None:
        """Add *entry* to *node*; split and propagate if it overflows."""
        node.add(entry)
        split_node: Optional[Node] = None
        if len(node.entries) > self.max_entries:
            split_node = self._split(node)
        self._adjust_tree(node, split_node)

    def _split(self, node: Node) -> Node:
        """Split an overflowing node in place; return the new sibling."""
        g1, g2 = self.split_strategy.split(node.entries, self.min_entries)
        node.entries = []
        for e in g1:
            node.add(e)
        sibling = Node(is_leaf=node.is_leaf)
        for e in g2:
            sibling.add(e)
        return sibling

    def _adjust_tree(self, node: Node, sibling: Optional[Node]) -> None:
        """AdjustTree: fix MBRs upward, installing splits as they propagate."""
        while node is not self.root:
            parent = node.parent
            assert parent is not None
            parent.entry_for_child(node).rect = node.mbr()
            if sibling is not None:
                parent.add(Entry(rect=sibling.mbr(), child=sibling))
                if len(parent.entries) > self.max_entries:
                    sibling = self._split(parent)
                else:
                    sibling = None
            node = parent
        if sibling is not None:
            self._grow_root(sibling)

    def _grow_root(self, sibling: Node) -> None:
        """Create a new root over the old root and its split sibling."""
        old_root = self.root
        new_root = Node(is_leaf=False)
        new_root.add(Entry(rect=old_root.mbr(), child=old_root))
        new_root.add(Entry(rect=sibling.mbr(), child=sibling))
        self.root = new_root

    # -- DELETE ----------------------------------------------------------------

    def delete(self, rect: Rect, oid: Any) -> bool:
        """Delete the record with bounding box *rect* and identifier *oid*.

        Returns ``True`` if a record was found and removed.  Implements
        Guttman's DELETE: FindLeaf, then CondenseTree with re-insertion of
        entries from underfull nodes.
        """
        found = self._find_leaf(self.root, rect, oid)
        if found is None:
            return False
        leaf, entry = found
        leaf.remove(entry)
        self._size -= 1
        self._condense_tree(leaf)
        # Shrink the root if it has a single non-leaf child.
        if not self.root.is_leaf and len(self.root.entries) == 1:
            child = self.root.entries[0].child
            assert child is not None
            child.parent = None
            self.root = child
        return True

    def _find_leaf(self, node: Node, rect: Rect,
                   oid: Any) -> Optional[tuple[Node, Entry]]:
        if node.is_leaf:
            for e in node.entries:
                if e.oid == oid and e.rect == rect:
                    return node, e
            return None
        for e in node.entries:
            if e.rect.intersects(rect):
                assert e.child is not None
                found = self._find_leaf(e.child, rect, oid)
                if found is not None:
                    return found
        return None

    def _condense_tree(self, node: Node) -> None:
        """Remove underfull ancestors, re-inserting their orphans."""
        orphans: list[tuple[Entry, int]] = []  # (entry, level above leaves)
        level = 0
        while node is not self.root:
            parent = node.parent
            assert parent is not None
            if len(node.entries) < self.min_entries:
                parent.remove(parent.entry_for_child(node))
                for e in node.entries:
                    orphans.append((e, level))
            else:
                parent.entry_for_child(node).rect = node.mbr()
            node = parent
            level += 1
        for entry, entry_level in orphans:
            if entry.is_leaf_entry():
                target = self._choose_node(entry.rect, level=0)
            else:
                target = self._choose_node(entry.rect, level=entry_level)
            self._insert_entry(target, entry)

    # -- SEARCH ------------------------------------------------------------------

    def search(self, window: Rect,
               stats: Optional[SearchStats] = None) -> list[Any]:
        """All object identifiers whose MBR intersects *window*.

        This is the paper's SEARCH procedure with INTERSECTS used at every
        level (the common R-tree window query).  *stats*, when given,
        records every node visited — how the benchmarks count node
        accesses.
        """
        return self._search(window, Rect.intersects, stats)

    def search_within(self, window: Rect,
                      stats: Optional[SearchStats] = None) -> list[Any]:
        """Identifiers of objects entirely WITHIN *window*.

        Matches the paper's pseudo-code exactly: INTERSECTS prunes the
        descent, WITHIN filters at the leaves.
        """
        return self._search(window, Rect.contains, stats)

    def point_query(self, point: Point,
                    stats: Optional[SearchStats] = None) -> list[Any]:
        """Identifiers of objects whose MBR contains *point*.

        Table 1's search workload — "Is point (x1, y1) contained in the
        database?" — is this query: a window search over the degenerate
        rectangle, whose closed INTERSECTS test is exactly point
        containment.
        """
        return self._search(Rect.from_point(point), Rect.intersects, stats)

    def _search(self, window: Rect,
                leaf_test: Callable[[Rect, Rect], bool],
                stats: Optional[SearchStats]) -> list[Any]:
        results: list[Any] = []
        stack = [self.root]
        track = obs.ENABLED
        nodes = leaves = tests = pruned = 0
        while stack:
            node = stack.pop()
            if stats is not None:
                stats.record_visit(node.is_leaf, len(node.entries))
            if track:
                nodes += 1
                tests += len(node.entries)
            if node.is_leaf:
                if track:
                    leaves += 1
                for e in node.entries:
                    if leaf_test(window, e.rect):
                        results.append(e.oid)
            else:
                for e in node.entries:
                    if e.rect.intersects(window):
                        assert e.child is not None
                        stack.append(e.child)
                    elif track:
                        pruned += 1
        if track:
            reg = obs.active()
            reg.bump("rtree.search.queries")
            reg.bump("rtree.search.nodes_visited", nodes)
            reg.bump("rtree.search.leaves_visited", leaves)
            reg.bump("rtree.search.mbr_tests", tests)
            reg.bump("rtree.search.pruned_subtrees", pruned)
            reg.bump("rtree.search.results", len(results))
        return results

    def count_query_accesses(self, point: Point) -> int:
        """Nodes visited by a point query — one sample of Table 1's A."""
        from repro.rtree.search import SearchStats

        stats = SearchStats()
        self.point_query(point, stats=stats)
        return stats.nodes_visited

    # -- validation -----------------------------------------------------------

    def validate(self, check_fill: bool = True) -> None:
        """Check all structural invariants; raise ``AssertionError`` if broken.

        Invariants (Guttman 1984 / paper Section 3.2):

        - every node except the root holds between ``m`` and ``M`` entries
          (skipped when ``check_fill`` is False — packed trees may leave one
          under-filled node per level when the input is not a multiple of M);
        - the root holds at least 2 entries unless it is a leaf;
        - every non-leaf entry's rectangle is exactly the MBR of its child;
        - all leaves are at the same depth;
        - parent pointers are consistent;
        - the recorded size matches the number of leaf entries.
        """
        leaf_depths: set[int] = set()

        def walk(node: Node, depth: int) -> None:
            if node is not self.root:
                assert len(node.entries) <= self.max_entries, (
                    f"node fill {len(node.entries)} exceeds {self.max_entries}")
                assert node.entries, "empty non-root node"
                if check_fill:
                    assert len(node.entries) >= self.min_entries, (
                        f"node fill {len(node.entries)} below minimum "
                        f"{self.min_entries}")
            else:
                assert len(node.entries) <= self.max_entries, "root overflow"
                if not node.is_leaf:
                    assert len(node.entries) >= 2, \
                        "non-leaf root must have >= 2 children"
            if node.is_leaf:
                leaf_depths.add(depth)
                for e in node.entries:
                    assert e.child is None, "leaf entry with a child pointer"
            else:
                for e in node.entries:
                    assert e.child is not None, "non-leaf entry without child"
                    assert e.child.parent is node, "broken parent pointer"
                    assert e.rect == e.child.mbr(), (
                        f"entry rect {e.rect} is not the child MBR "
                        f"{e.child.mbr()}")
                    walk(e.child, depth + 1)

        walk(self.root, 0)
        assert len(leaf_depths) <= 1, f"leaves at multiple depths {leaf_depths}"
        assert self._size == sum(1 for _ in self.leaf_entries()), (
            "recorded size disagrees with leaf entry count")

    # -- bulk convenience -------------------------------------------------------

    def insert_all(self, items: Sequence[tuple[Rect, Any]]) -> None:
        """Insert many ``(rect, oid)`` pairs with repeated dynamic INSERTs."""
        for rect, oid in items:
            self.insert(rect, oid)

    def delete_window(self, window: Rect, within: bool = True) -> int:
        """Delete every object inside *window*; returns how many.

        With ``within=True`` (default) only objects entirely inside the
        window are removed; otherwise anything intersecting it goes.
        The pictorial use case: erase a region of the picture.
        """
        doomed: list[tuple[Rect, Any]] = []
        test = window.contains if within else window.intersects
        for e in self.root.leaf_entries():
            if test(e.rect):
                doomed.append((e.rect, e.oid))
        for rect, oid in doomed:
            removed = self.delete(rect, oid)
            assert removed, "leaf entry vanished during delete_window"
        return len(doomed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RTree(size={self._size}, M={self.max_entries}, "
                f"m={self.min_entries}, depth={self.depth}, "
                f"nodes={self.node_count})")
