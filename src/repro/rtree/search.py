"""Search procedures over R-trees with instrumentation.

The tree itself exposes raw queries; this module adds the accounting used
throughout the experiments (node/leaf access counts, pruning factors) and
a branch-and-bound k-nearest-neighbour search — a natural extension of
direct spatial search ("find the city nearest to this cursor position")
that the paper's successors formalised.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.node import Node
from repro.rtree.tree import RTree


@dataclass(slots=True)
class SearchStats:
    """Accumulated access counts across one or more searches."""

    nodes_visited: int = 0
    leaves_visited: int = 0
    entries_tested: int = 0
    results: int = 0

    def record_visit(self, is_leaf: bool, nentries: int) -> None:
        """Count one node (or disk page) visit holding *nentries*."""
        self.nodes_visited += 1
        if is_leaf:
            self.leaves_visited += 1
        self.entries_tested += nentries

    def merge(self, other: "SearchStats") -> None:
        self.nodes_visited += other.nodes_visited
        self.leaves_visited += other.leaves_visited
        self.entries_tested += other.entries_tested
        self.results += other.results


def window_search(tree: RTree, window: Rect,
                  stats: SearchStats | None = None) -> list[Any]:
    """All objects whose MBR intersects *window*, with access accounting."""
    stats = stats if stats is not None else SearchStats()
    results = tree.search(window, stats=stats)
    stats.results += len(results)
    return results


def window_search_within(tree: RTree, window: Rect,
                         stats: SearchStats | None = None) -> list[Any]:
    """Objects entirely within *window* — the paper's SEARCH procedure."""
    stats = stats if stats is not None else SearchStats()
    results = tree.search_within(window, stats=stats)
    stats.results += len(results)
    return results


def point_search(tree: RTree, point: Point,
                 stats: SearchStats | None = None) -> list[Any]:
    """Objects whose MBR contains *point* — Table 1's probe query."""
    stats = stats if stats is not None else SearchStats()
    results = tree.point_query(point, stats=stats)
    stats.results += len(results)
    return results


def pruning_factor(tree: RTree, window: Rect) -> float:
    """Fraction of nodes a window search avoids visiting.

    ``1.0`` means the search touched only the root; ``0.0`` means every
    node was visited — the degenerate situation of Figure 3.3, where the
    window intersects all root entries and "the search cannot yet be
    pruned".
    """
    total = tree.node_count
    if total == 0:
        return 1.0
    stats = SearchStats()
    window_search(tree, window, stats)
    return 1.0 - stats.nodes_visited / total


@dataclass(order=True)
class _HeapItem:
    key: float
    tiebreak: int
    node: Node | None = field(compare=False, default=None)
    oid: Any = field(compare=False, default=None)
    is_object: bool = field(compare=False, default=False)


def knn_search(tree: RTree, query: Point, k: int = 1,
               stats: SearchStats | None = None) -> list[tuple[float, Any]]:
    """The *k* objects nearest to *query*, as ``(distance, oid)`` pairs.

    Best-first branch-and-bound using the MINDIST of node MBRs as the
    lower bound (Roussopoulos, Kelley & Vincent 1995 — the follow-up work
    to this paper).  Distances are from the query point to object MBRs.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    stats = stats if stats is not None else SearchStats()
    if len(tree) == 0:
        return []

    counter = 0
    qrect = Rect.from_point(query)
    heap: list[_HeapItem] = [
        _HeapItem(key=0.0, tiebreak=counter, node=tree.root)]
    out: list[tuple[float, Any]] = []
    track = obs.ENABLED
    # SearchStats is the single source of truth for visit counts; the
    # obs counter below is fed from its delta, so the two can't drift.
    visited_before = stats.nodes_visited
    while heap and len(out) < k:
        item = heapq.heappop(heap)
        if item.is_object:
            out.append((item.key, item.oid))
            continue
        node = item.node
        assert node is not None
        stats.record_visit(node.is_leaf, len(node.entries))
        for e in node.entries:
            counter += 1
            dist = e.rect.min_distance_to(qrect)
            if node.is_leaf:
                heapq.heappush(heap, _HeapItem(
                    key=dist, tiebreak=counter, oid=e.oid, is_object=True))
            else:
                heapq.heappush(heap, _HeapItem(
                    key=dist, tiebreak=counter, node=e.child))
    stats.results += len(out)
    if track:
        reg = obs.active()
        reg.bump("rtree.knn.queries")
        reg.bump("rtree.knn.nodes_visited",
                 stats.nodes_visited - visited_before)
        reg.bump("rtree.knn.results", len(out))
    return out
