"""Span recording around each layer's public calls, installed from outside.

:func:`install` replaces the callables in :data:`TARGETS` with timing
wrappers.  Functions imported by name into other modules (``from
repro.psql.parser import parse_statement``) are rebound there too.  No
file under ``src/`` changes; the launcher installs this before it calls
the program's normal ``main``.

A span records ``(name, start, end, span_id, parent_id, request_id,
count, inner, aggregated)`` with ``time.perf_counter`` timestamps
(CLOCK_MONOTONIC, so spans from several processes share one time base).
The current span lives in a context variable, which follows asyncio
tasks (``gather``, ``to_thread``) on its own.  The server's worker pool is the
one cross-thread hop it does not follow; :class:`_TracedPool` carries
the submitting request's context into the worker and records the
``server.queue`` wait on the way.

Three kinds of span keep the volume and the cost down:

- ``FULL`` spans are recorded one by one (``count`` 1).  ``inner`` is the
  time covered by their AGG and LEAF children.
- ``AGG`` spans are per-row calls (row fetch, heap get).  They are summed
  into their nearest FULL ancestor, which emits one record per name
  with the call count, the total time and, as ``inner``, the time of
  their own children.  An AGG call outside any span is dropped.
- ``LEAF`` spans are AGG spans that call no other traced function; they
  skip the context switch, which halves their cost.

Byte counts (WAL bytes appended, encoded row bytes stored) are recorded
as time-stamped events.  Everything stays in memory until :func:`dump`.
"""

from __future__ import annotations

import asyncio
import contextvars
import importlib
import itertools
import json
import sys
import time

clock = time.perf_counter

FULL, AGG, LEAF = "full", "agg", "leaf"

#: ``(module:qualname, span name, kind)`` — the layer boundaries
TARGETS = [
    # server: request handling on the event loop, result encoding
    ("repro.server.server:PsqlServer._handle_query", "server.request", FULL),
    ("repro.server.server:PsqlServer._handle_execute", "server.request",
     FULL),
    ("repro.cluster.shardserver:ShardServer._handle_insert",
     "server.request", FULL),
    ("repro.cluster.shardserver:ShardServer._handle_delete",
     "server.request", FULL),
    ("repro.server.protocol:encode_result", "server.encode_text", FULL),
    ("repro.server.binproto:encode_result_body", "server.encode_bin", FULL),
    # psql: execution, parse, prepared bind, planning
    ("repro.psql.executor:Session.execute", "psql.exec", FULL),
    ("repro.psql.executor:Session.execute_prepared", "psql.exec", FULL),
    ("repro.psql.parser:parse_statement", "psql.parse", FULL),
    ("repro.psql.prepare:PreparedStatement.bind", "psql.bind", FULL),
    ("repro.psql.planner:plan_query", "psql.plan", FULL),
    # advisor: workload capture
    ("repro.advisor.querylog:QueryLog.record", "advisor.capture", FULL),
    # rtree: in-memory search, join and the dynamic update path
    ("repro.rtree.tree:RTree.search", "rtree.search", FULL),
    ("repro.rtree.tree:RTree.search_within", "rtree.search", FULL),
    ("repro.rtree.join:spatial_join", "rtree.join", FULL),
    ("repro.rtree.join:nested_window_join", "rtree.join", FULL),
    ("repro.rtree.tree:RTree.insert", "rtree.insert", FULL),
    ("repro.rtree.tree:RTree.delete", "rtree.delete", FULL),
    # relational: row fetch, the disk index's lock, integrated writes
    ("repro.relational.relation:Relation.get", "relational.row_fetch",
     LEAF),
    ("repro.relational.persistent:PersistentRelation.get",
     "relational.row_fetch", AGG),
    ("repro.relational.diskindex:DiskSpatialIndex.search",
     "relational.disk_index", FULL),
    ("repro.relational.diskindex:DiskSpatialIndex.search_within",
     "relational.disk_index", FULL),
    ("repro.relational.catalog:Database.insert", "cluster.shard_write",
     FULL),
    ("repro.relational.catalog:Database.delete", "cluster.shard_write",
     FULL),
    # storage: disk R-tree, pager, heap file, WAL commit
    ("repro.storage.disk_rtree:DiskRTree.search", "storage.disk_search",
     FULL),
    ("repro.storage.disk_rtree:DiskRTree.search_within",
     "storage.disk_search", FULL),
    ("repro.storage.pager:Pager.read_page", "storage.pager_read", LEAF),
    ("repro.storage.heapfile:HeapFile.get", "storage.heap_get", AGG),
    # Pager.commit appends the dirty page images and then calls
    # WriteAheadLog.commit; the span covers both.
    ("repro.storage.pager:Pager.commit", "storage.wal_commit", FULL),
    # cluster: router dispatch and its upstream round trips
    ("repro.cluster.router:Router._handle_query", "cluster.route", FULL),
    ("repro.cluster.router:Router._handle_insert", "cluster.route", FULL),
    ("repro.cluster.router:Router._handle_delete", "cluster.route", FULL),
    ("repro.cluster.router:_Backend.roundtrip", "cluster.upstream", FULL),
]

#: WAL record header: crc + length (``<II``) and lsn, kind, page (``<QBQ``)
WAL_RECORD_HEADER = 8 + 17

SPANS: list[tuple] = []
EVENTS: list[tuple] = []
MISSING: list[str] = []
_ids = itertools.count(1)
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class _Frame:
    __slots__ = ("sid", "req", "agg", "child_agg", "child_full")

    def __init__(self, sid: int, req: int):
        self.sid = sid
        self.req = req
        self.agg: dict | None = None
        self.child_agg = 0.0     # direct AGG children's time
        self.child_full = 0.0    # direct FULL children's time


def _open():
    parent = _current.get()
    sid = next(_ids)
    frame = _Frame(sid, sid if parent is None else parent.req)
    return parent, frame, _current.set(frame)


def _fold(frame: _Frame, name: str, start: float, dur: float,
          inner: float, count: int) -> None:
    if frame.agg is None:
        frame.agg = {}
    acc = frame.agg.get(name)
    if acc is None:
        frame.agg[name] = [start, dur, inner, count]
    else:
        acc[1] += dur
        acc[2] += inner
        acc[3] += count


def _close(kind: str, name: str, t0: float, t1: float, frame: _Frame,
           parent) -> None:
    if kind == FULL:
        SPANS.append((name, t0, t1, frame.sid,
                      parent.sid if parent is not None else 0, frame.req,
                      1, frame.child_agg, False))
        if frame.agg:
            for aname, (start, dur, inner, count) in frame.agg.items():
                SPANS.append((aname, start, start + dur, next(_ids),
                              frame.sid, frame.req, count, inner, True))
        if parent is not None:
            parent.child_full += t1 - t0
        return
    if parent is None:
        return
    parent.child_agg += t1 - t0
    _fold(parent, name, t0, t1 - t0, frame.child_agg + frame.child_full, 1)
    if frame.agg:
        for aname, (start, dur, inner, count) in frame.agg.items():
            _fold(parent, aname, start, dur, inner, count)


def _wrap(fn, name: str, kind: str):
    if kind == LEAF:
        def traced_leaf(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                parent = _current.get()
                if parent is not None:
                    parent.child_agg += t1 - t0
                    _fold(parent, name, t0, t1 - t0, 0.0, 1)
        traced = traced_leaf
    elif asyncio.iscoroutinefunction(fn):
        async def traced_async(*args, **kwargs):
            parent, frame, token = _open()
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = clock()
                _current.reset(token)
                _close(kind, name, t0, t1, frame, parent)
        traced = traced_async
    else:
        def traced_sync(*args, **kwargs):
            parent, frame, token = _open()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                _current.reset(token)
                _close(kind, name, t0, t1, frame, parent)
        traced = traced_sync
    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    return traced


def _worker_body(fn, t_submit: float, args, kwargs):
    """Runs in a pool thread inside the submitting request's context."""
    t_start = clock()
    request = _current.get()
    if request is not None:
        SPANS.append(("server.queue", t_submit, t_start, next(_ids),
                      request.sid, request.req, 1, 0.0, False))
    parent, frame, token = _open()
    try:
        return fn(*args, **kwargs)
    finally:
        t1 = clock()
        _current.reset(token)
        _close(FULL, "server.worker", t_start, t1, frame, parent)


class _TracedPool:
    """Executor proxy: carries the request context into the worker."""

    def __init__(self, pool):
        self._pool = pool

    def submit(self, fn, *args, **kwargs):
        ctx = contextvars.copy_context()
        return self._pool.submit(ctx.run, _worker_body, fn, clock(),
                                 args, kwargs)

    def __getattr__(self, name):
        return getattr(self._pool, name)


def _resolve(spec: str):
    module_name, _, qualname = spec.partition(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _count_bytes(fn, event: str, size):
    def counted(*args, **kwargs):
        EVENTS.append((event, clock(), size(*args, **kwargs)))
        return fn(*args, **kwargs)
    counted.__wrapped__ = fn
    return counted


def install() -> None:
    """Wrap every :data:`TARGETS` callable and the byte counters."""
    replaced: dict[int, object] = {}
    for spec, name, kind in TARGETS:
        try:
            owner, attr = _resolve(spec)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            MISSING.append(spec)
            continue
        traced = _wrap(original, name, kind)
        setattr(owner, attr, traced)
        if not isinstance(owner, type):
            replaced[id(original)] = (original, traced)

    from repro.server.service import QueryService
    from repro.storage.heapfile import HeapFile
    from repro.storage.wal import WriteAheadLog

    start = QueryService.start

    def traced_start(self) -> None:
        start(self)
        if self._pool is not None and not isinstance(self._pool,
                                                      _TracedPool):
            self._pool = _TracedPool(self._pool)
    QueryService.start = traced_start

    WriteAheadLog.append_page = _count_bytes(
        WriteAheadLog.append_page, "storage.wal_bytes",
        lambda _self, _page_no, raw: len(raw) + WAL_RECORD_HEADER)
    WriteAheadLog.commit = _count_bytes(
        WriteAheadLog.commit, "storage.wal_bytes",
        lambda _self: WAL_RECORD_HEADER)
    HeapFile.insert = _count_bytes(
        HeapFile.insert, "storage.row_bytes",
        lambda _self, data: len(data))

    # Rebind module-level functions that other modules imported by name.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def dump(path: str) -> None:
    """Write every span and event recorded so far as one JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": SPANS, "events": EVENTS, "missing": MISSING},
                  fh)
