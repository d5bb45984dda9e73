"""Span reducer: per-layer self times and ratios for one traced phase.

A span's self time is its duration minus the part of it that its
children cover: the union of its FULL children's intervals plus the
total of its AGG children (see :mod:`perfbench.tracing`).  Counter
ratios come from the difference of two ``STATS`` snapshots taken at the
start and end of the measured phase.  :data:`LAYER_METRICS` lists every
per-layer metric with the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import json
from collections import defaultdict

#: name, unit, source, should move (metric @ workloads), little/no effect on
LAYER_METRICS = [
    ("server.queue_ms", "ms", "QueryService.submit -> worker start",
     "text_p99_ms, conn2_p99_ms @ map-fresh", "map-hot"),
    ("server.encode_text_ms", "ms", "protocol.encode_result",
     "text_p50_ms, read_qps @ map-fresh, disk-window", "map-hot"),
    ("server.encode_bin_ms", "ms", "binproto.encode_result_body",
     "conn2_p50_ms, read_qps @ map-fresh, disk-window", "map-hot"),
    ("server.request_self_ms", "ms",
     "server request handler minus queue and worker (loop side)",
     "text_p50_ms, conn2_p50_ms @ map-hot", "-"),
    ("server.cache_hit_rate", "ratio", "STATS server.cache.* (router.cache.*)",
     "read_qps @ map-hot", "map-fresh (0 by design)"),
    ("e2e.unattributed_ms", "ms",
     "client latency - serving-side root spans",
     "text_p50_ms, conn2_p50_ms @ map-hot", "-"),
    ("psql.parse_ms", "ms", "parse_statement + PreparedStatement.bind",
     "text_p50_ms @ map-fresh", "map-hot"),
    ("psql.plan_ms", "ms", "plan_query", "text_p50_ms, conn2_p50_ms @ "
     "map-fresh", "map-hot"),
    ("psql.plan_cache_hit_rate", "ratio", "STATS psql.plan.cache_*",
     "text_p50_ms, conn2_p50_ms @ map-fresh", "map-hot"),
    ("psql.exec_self_ms", "ms",
     "Session.execute/execute_prepared minus child spans",
     "read_qps, *_p50_ms @ map-fresh", "map-hot"),
    ("psql.where_yield", "ratio", "STATS psql.where.rows_out / rows_in",
     "text_p99_ms, conn2_p99_ms @ map-fresh", "disk-window"),
    ("advisor.capture_ms", "ms", "QueryLog.record",
     "*_p50_ms @ map-fresh, disk-window", "map-hot"),
    ("rtree.search_ms", "ms", "RTree.search / search_within",
     "*_p50_ms @ map-fresh, cluster-churn", "disk-window"),
    ("rtree.join_ms", "ms", "spatial_join / nested_window_join",
     "*_p99_ms @ map-fresh", "disk-window"),
    ("rtree.nodes_per_search", "count",
     "STATS rtree.search.nodes_visited / queries",
     "rtree.search_ms @ map-fresh", "-"),
    ("rtree.mbr_yield", "ratio", "STATS rtree.search.results / mbr_tests",
     "rtree.search_ms @ map-fresh, disk-window", "-"),
    ("rtree.insert_ms", "ms", "RTree.insert",
     "conn2_p50_ms, conn2_p99_ms (writes) @ cluster-churn",
     "read-only workloads"),
    ("rtree.delete_ms", "ms", "RTree.delete",
     "conn2_p50_ms, conn2_p99_ms (writes) @ cluster-churn",
     "read-only workloads"),
    ("relational.row_fetch_ms", "ms", "Relation.get / PersistentRelation.get",
     "*_p50_ms @ cluster-churn, map-fresh", "-"),
    ("relational.index_lock_wait_ms", "ms",
     "DiskSpatialIndex.search* minus DiskRTree.search*",
     "text_p99_ms, conn2_p99_ms @ disk-window", "map-*"),
    ("storage.buffer_hit_rate", "ratio", "STATS storage.buffer.*",
     "*_p50_ms @ disk-window", "map-*"),
    ("storage.page_reads_per_search", "count",
     "STATS storage.buffer.misses / storage.disk_rtree.queries",
     "*_p50_ms @ disk-window", "map-*"),
    ("storage.disk_search_ms", "ms", "DiskRTree.search*",
     "*_p50_ms @ disk-window", "map-*"),
    ("storage.pager_read_ms", "ms", "Pager.read_page",
     "*_p50_ms @ disk-window", "map-*"),
    ("storage.wal_commit_ms", "ms", "Pager.commit (page images + "
     "WriteAheadLog.commit)", "conn2_p50_ms (writes) @ cluster-churn",
     "read-only workloads"),
    ("storage.wal_bytes_per_row_byte", "ratio",
     "WAL bytes appended / encoded row bytes inserted",
     "conn2_p50_ms (writes) @ cluster-churn", "read-only workloads"),
    ("storage.heap_get_ms", "ms", "HeapFile.get",
     "text_p50_ms @ cluster-churn", "map-*"),
    ("cluster.fanout", "ratio",
     "shard server.queries delta / router.queries delta",
     "text_p50_ms, read_qps @ cluster-churn", "-"),
    ("cluster.router_overhead_ms", "ms",
     "router handler span - slowest upstream round trip",
     "text_p50_ms, conn2_p50_ms @ cluster-churn", "-"),
    ("cluster.shard_insert_ms", "ms",
     "Database.insert/delete in a shard (heap + WAL + index)",
     "conn2_p50_ms (writes) @ cluster-churn", "-"),
    ("trace.overhead_pct", "%",
     "traced / untraced mean client latency - 1", "-", "-"),
    ("gen.cpu_cores", "cores",
     "generator CPU seconds / measured wall seconds", "-", "-"),
]

#: span metrics: metric -> (span names, value, normaliser)
#: value: "self" or "dur"; normaliser: "calls" or a span name whose
#: call count divides (per executed query)
SPAN_METRICS = {
    "server.queue_ms": (("server.queue",), "dur", "calls"),
    "server.encode_text_ms": (("server.encode_text",), "self", "calls"),
    "server.encode_bin_ms": (("server.encode_bin",), "self", "calls"),
    "server.request_self_ms": (("server.request",), "self", "calls"),
    "psql.parse_ms": (("psql.parse", "psql.bind"), "self", "psql.exec"),
    "psql.plan_ms": (("psql.plan",), "self", "psql.exec"),
    "psql.exec_self_ms": (("psql.exec",), "self", "calls"),
    "advisor.capture_ms": (("advisor.capture",), "self", "psql.exec"),
    "rtree.search_ms": (("rtree.search",), "self", "calls"),
    "rtree.join_ms": (("rtree.join",), "self", "calls"),
    "rtree.insert_ms": (("rtree.insert",), "self", "calls"),
    "rtree.delete_ms": (("rtree.delete",), "self", "calls"),
    "relational.row_fetch_ms": (("relational.row_fetch",), "self", "calls"),
    "relational.index_lock_wait_ms": (("relational.disk_index",), "self",
                                      "calls"),
    "storage.disk_search_ms": (("storage.disk_search",), "self", "calls"),
    "storage.pager_read_ms": (("storage.pager_read",), "self", "calls"),
    "storage.wal_commit_ms": (("storage.wal_commit",), "self", "calls"),
    "storage.heap_get_ms": (("storage.heap_get",), "self", "calls"),
    "cluster.shard_insert_ms": (("cluster.shard_write",), "dur", "calls"),
}


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanSet:
    """Spans of one traced phase, from one or more processes."""

    def __init__(self, paths: list[str], t0: float, t1: float):
        self.spans: list[tuple] = []
        self.events: list[tuple] = []
        self.missing: set[str] = set()
        for n, path in enumerate(paths):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.missing.update(doc["missing"])
            for s in doc["spans"]:
                if t0 <= s[1] < t1:
                    # span ids are per process: qualify them
                    self.spans.append((s[0], s[1], s[2], (n, s[3]),
                                       (n, s[4]), (n, s[5]), s[6], s[7],
                                       s[8]))
            self.events.extend(e for e in doc["events"] if t0 <= e[1] < t1)
        self.totals = self._reduce()

    def _reduce(self) -> dict[str, list[float]]:
        """name -> [calls, total duration, total self time]."""
        children: dict = defaultdict(list)
        for s in self.spans:
            if not s[8]:
                children[s[4]].append(s)
        totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, sid, _parent, _req, count, inner, agg \
                in self.spans:
            dur = end - start
            if agg:
                own = dur - inner
            else:
                kids = [(max(start, c[1]), min(end, c[2]))
                        for c in children.get(sid, ()) if c[2] > start]
                own = dur - _union(kids) - inner
            acc = totals[name]
            acc[0] += count
            acc[1] += dur
            acc[2] += own
        return totals

    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def span_metric(self, names, value: str, per: str) -> float:
        idx = 2 if value == "self" else 1
        total = sum(self.totals[n][idx] for n in names if n in self.totals)
        calls = (sum(self.calls(n) for n in names) if per == "calls"
                 else self.calls(per))
        return 1e3 * total / calls if calls else 0.0

    def roots(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[0] == name]

    def router_overhead_ms(self) -> float:
        upstream: dict = defaultdict(float)
        for s in self.spans:
            if s[0] == "cluster.upstream":
                upstream[s[4]] = max(upstream[s[4]], s[2] - s[1])
        routes = self.roots("cluster.route")
        if not routes:
            return 0.0
        return 1e3 * sum((s[2] - s[1]) - upstream.get(s[3], 0.0)
                         for s in routes) / len(routes)

    def serving_ms_per_request(self, requests: int) -> float:
        """Outermost serving-side span time per client request."""
        roots = self.roots("cluster.route") or self.roots("server.request")
        if not requests:
            return 0.0
        return 1e3 * sum(s[2] - s[1] for s in roots) / requests

    def event_total(self, name: str) -> float:
        return float(sum(e[2] for e in self.events if e[0] == name))


def _delta(before: dict, after: dict, key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(before: dict, after: dict) -> dict[str, float]:
    """Per-layer ratios from STATS snapshots (shard keys pre-summed)."""
    d = lambda key: _delta(before, after, key)  # noqa: E731
    hits = d("server.cache.hits") or d("router.cache.hits")
    misses = d("server.cache.misses") or d("router.cache.misses")
    shard_queries = sum(_delta(before, after, k) for k in after
                        if k.startswith("backend.")
                        and k.endswith(".server.queries"))
    return {
        "server.cache_hit_rate": _ratio(hits, hits + misses),
        "psql.plan_cache_hit_rate": _ratio(
            d("psql.plan.cache_hits"),
            d("psql.plan.cache_hits") + d("psql.plan.cache_misses")),
        "psql.where_yield": _ratio(d("psql.where.rows_out"),
                                   d("psql.where.rows_in")),
        "rtree.nodes_per_search": _ratio(d("rtree.search.nodes_visited"),
                                         d("rtree.search.queries")),
        "rtree.mbr_yield": _ratio(d("rtree.search.results"),
                                  d("rtree.search.mbr_tests")),
        "storage.buffer_hit_rate": _ratio(
            d("storage.buffer.hits"),
            d("storage.buffer.hits") + d("storage.buffer.misses")),
        "storage.page_reads_per_search": _ratio(
            d("storage.buffer.misses"), d("storage.disk_rtree.queries")),
        "cluster.fanout": _ratio(shard_queries, d("router.queries")),
    }


def layer_metrics(spans: SpanSet, before: dict, after: dict,
                  requests: int, mean_latency_ms: float) -> dict[str, float]:
    """Every span- and counter-derived per-layer metric of one phase."""
    out = {name: spans.span_metric(*spec)
           for name, spec in SPAN_METRICS.items()}
    out.update(counter_metrics(before, after))
    out["cluster.router_overhead_ms"] = spans.router_overhead_ms()
    out["storage.wal_bytes_per_row_byte"] = _ratio(
        spans.event_total("storage.wal_bytes"),
        spans.event_total("storage.row_bytes"))
    out["e2e.unattributed_ms"] = (mean_latency_ms
                                  - spans.serving_ms_per_request(requests))
    return out
