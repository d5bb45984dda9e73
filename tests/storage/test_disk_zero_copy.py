"""Zero-copy disk traversals against brute-force oracles, and meta checks.

Every window and point query runs one ``struct.iter_unpack`` kernel over
buffered page payloads; these tests pin it to a full scan of the loaded
items: same results, page-access counts derived independently from
:meth:`~repro.storage.disk_rtree.DiskRTree.entry_rects`, and kNN
distances bit-identical to :meth:`~repro.geometry.rect.Rect.min_distance_to`.
"""

import struct
from types import SimpleNamespace

import pytest

from repro.geometry import Point, Rect
from repro.rtree.search import SearchStats
from repro.storage import DiskRTree, Pager
from repro.storage.disk_rtree import (_META_FMT, _META_PAGE,
                                      TreeMetaError)
from repro.workloads import uniform_points, uniform_rects

WINDOWS = [
    Rect(0, 0, 1000, 1000),       # everything
    Rect(200, 200, 600, 600),     # partial
    Rect(401.5, 398.25, 402.5, 402.75),   # tiny
    Rect(2000, 2000, 3000, 3000),  # empty
]

POINTS = [Point(500, 500), Point(123.25, 456.75), Point(-10, -10)]


def make_items(kind, n, seed):
    if kind == "points":
        return [(Rect.from_point(p), i)
                for i, p in enumerate(uniform_points(n, seed=seed))]
    return [(r, i) for i, r in enumerate(uniform_rects(n, seed=seed,
                                                        max_side=40))]


@pytest.fixture(scope="module", params=["points", "rects"])
def loaded(request, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("zc") / f"{request.param}.db")
    items = make_items(request.param, 600,
                       31 if request.param == "points" else 32)
    t = DiskRTree(path, max_entries=16)
    t.bulk_load(items)
    yield SimpleNamespace(kind=request.param, tree=t, items=items)
    t.close()


def scan(items, keep):
    """The brute-force oracle: ids of every item whose rect passes."""
    return sorted(oid for rect, oid in items if keep(rect))


def expected_visits(tree, window):
    """``(nodes, leaves)`` a search of *window* must visit.

    Derived from the entry listing alone: each entry's rect contains
    every rect below it, so a node is visited exactly when the entry
    bounding it intersects the window (the root always is).
    """
    bounding = [(level, rect) for level, is_leaf, rect in tree.entry_rects()
                if not is_leaf]
    if not bounding:
        return 1, 1  # a lone leaf root
    leaf_level = max(level for level, _ in bounding)
    hit = [level for level, rect in bounding if rect.intersects(window)]
    return 1 + len(hit), sum(1 for level in hit if level == leaf_level)


def check_query(tree, items, query, arg, window, keep):
    """*query(arg)* returns the scan's ids, visiting the expected pages
    for *window* (the degenerate one for a point query)."""
    stats = SearchStats()
    assert sorted(query(arg, stats=stats)) == scan(items, keep)
    assert (stats.nodes_visited, stats.leaves_visited) == \
        expected_visits(tree, window)


def check_point_query(tree, items, point):
    check_query(tree, items, tree.point_query, point,
                Rect.from_point(point), lambda r: r.contains_point(point))


def assert_queries_match_scan(tree, items):
    for window in WINDOWS:
        check_query(tree, items, tree.search, window, window,
                    window.intersects)
        check_query(tree, items, tree.search_within, window, window,
                    window.contains)
    # Corners of stored rects probe the closed-interval boundaries.
    corners = [Point(x, y) for rect, _ in items[:3]
               for x, y in ((rect.x1, rect.y1), (rect.x2, rect.y2))]
    for point in POINTS + corners:
        check_point_query(tree, items, point)


def assert_knn_matches_scan(tree, items, point, k):
    got = tree.knn(point, k=k)
    qrect = Rect.from_point(point)
    dist = {oid: rect.min_distance_to(qrect) for rect, oid in items}
    assert len(got) == min(k, len(items))
    # Bit for bit: the inlined MINDIST must equal Rect.min_distance_to
    # of the degenerate query rectangle.
    assert [d for d, _ in got] == sorted(dist.values())[:k]
    assert all(dist[oid] == d for d, oid in got)


class TestEquivalence:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_search(self, loaded, window):
        check_query(loaded.tree, loaded.items, loaded.tree.search, window,
                    window, window.intersects)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_search_within(self, loaded, window):
        check_query(loaded.tree, loaded.items, loaded.tree.search_within,
                    window, window, window.contains)

    @pytest.mark.parametrize("point", POINTS)
    def test_point_query(self, loaded, point):
        check_point_query(loaded.tree, loaded.items, point)

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_knn_bit_identical(self, loaded, point, k):
        assert_knn_matches_scan(loaded.tree, loaded.items, point, k)

    def test_stats_counts_pages(self, loaded):
        # The everything-window visits every page and tests every entry.
        tree = loaded.tree
        stats = SearchStats()
        tree.search(WINDOWS[0], stats=stats)
        assert stats.nodes_visited == tree.node_count() > 1
        assert (stats.nodes_visited, stats.leaves_visited) == \
            expected_visits(tree, WINDOWS[0])
        assert stats.entries_tested == len(tree.entry_rects())

    def test_after_mutations(self, loaded, tmp_path):
        # Inserted and split nodes, and the condensed tree after
        # deletes, answer exactly like a scan of the live items.
        t = DiskRTree(str(tmp_path / "mut.db"), max_entries=8)
        items = make_items(loaded.kind, 150, 77)
        for rect, oid in items:
            t.insert(rect, oid)
        live = [item for item in items if item[1] % 7]
        for rect, oid in items:
            if oid % 7 == 0:
                assert t.delete(rect, oid)
        assert len(t) == len(live)
        assert_queries_match_scan(t, live)
        for point in POINTS:
            assert_knn_matches_scan(t, live, point, 10)
        t.close()


class TestMetaValidation:
    def _build(self, tmp_path, **kwargs):
        path = str(tmp_path / "t.db")
        t = DiskRTree(path, max_entries=8, **kwargs)
        t.bulk_load([(Rect.from_point(p), i)
                     for i, p in enumerate(uniform_points(100, seed=5))])
        t.close()
        return path

    def _rewrite_meta(self, path, root=None, size=None, max_e=None,
                      min_e=None):
        """Overwrite meta fields through the pager (valid checksum)."""
        pager = Pager(path)
        stored = struct.unpack_from(_META_FMT,
                                    pager.read_page(_META_PAGE).data)
        fields = [root, size, max_e, min_e]
        values = [s if f is None else f for s, f in zip(stored, fields)]
        pager.write_page(_META_PAGE, struct.pack(_META_FMT, *values))
        pager.sync()
        pager.close()

    def test_valid_meta_reopens(self, tmp_path):
        path = self._build(tmp_path)
        with DiskRTree(path) as t:
            assert len(t) == 100

    def test_oversized_branching_factor_rejected(self, tmp_path):
        # A branching factor that cannot fit this page size means the
        # file was built with different geometry; the next node write
        # would overflow a page.  Must fail typed, on open.
        path = self._build(tmp_path)
        self._rewrite_meta(path, max_e=10_000)
        with pytest.raises(TreeMetaError, match="branching factor"):
            DiskRTree(path)

    def test_undersized_branching_factor_rejected(self, tmp_path):
        path = self._build(tmp_path)
        self._rewrite_meta(path, max_e=1)
        with pytest.raises(TreeMetaError, match="branching factor"):
            DiskRTree(path)

    def test_inconsistent_min_entries_rejected(self, tmp_path):
        path = self._build(tmp_path)
        self._rewrite_meta(path, min_e=9)     # > max_entries of 8
        with pytest.raises(TreeMetaError, match="minimum fill"):
            DiskRTree(path)

    def test_out_of_file_root_rejected(self, tmp_path):
        path = self._build(tmp_path)
        self._rewrite_meta(path, root=10_000)
        with pytest.raises(TreeMetaError, match="root page"):
            DiskRTree(path)

    def test_meta_error_is_a_pager_error(self, tmp_path):
        from repro.storage.pager import PagerError

        path = self._build(tmp_path)
        self._rewrite_meta(path, max_e=10_000)
        with pytest.raises(PagerError):
            DiskRTree(path)
