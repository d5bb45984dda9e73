"""The four workloads: seeded request lists, oracles and response checks.

Each workload gives the runner two connection scripts.  A script owns
one client connection, a fixed request list built from the seed, and
the expected answer of every request, computed in-process before the
timed phase:

- ``map-fresh`` / ``map-hot``: expected bytes from a database built by
  the same factory and seed, rendered with ``protocol.encode_result``
  (text) or ``binproto.encode_result_body`` (binary), as
  ``repro.server.smoke`` does.
- ``disk-window``: the rows a brute-force point-in-window test finds.
- ``cluster-churn``: every seed row in the window must come back, no row
  the writer had deleted before the read was sent may, and at the end
  the hot-spot rows must equal the writer's live set.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.client import ClusterClient
from repro.cluster.demo import demo_dataset
from repro.cluster.partition import ShardMap
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.psql.executor import Session
from repro.server import binproto, protocol
from repro.server.client import Client

from perfbench import factories as fx

#: distinct requests per connection in map-hot (96 fit the 256-entry cache)
HOT_DISTINCT = 48
HOT_ZIPF_S = 1.0
#: cluster-churn: live writer rows kept before the oldest is deleted
CHURN_LIVE = 50
CHURN_GID_BASE = 10_000_000
CLIENT_TIMEOUT = 30.0


def _window(rng: random.Random, lo: float, hi: float,
            cx: Optional[float] = None,
            cy: Optional[float] = None) -> tuple[str, str]:
    """``("cx+-dx", "cy+-dy")`` parameter strings of a seeded window."""
    if cx is None:
        cx = rng.uniform(fx.UNIVERSE.x1, fx.UNIVERSE.x2)
    if cy is None:
        cy = rng.uniform(fx.UNIVERSE.y1, fx.UNIVERSE.y2)
    return (f"{cx:.1f}+-{rng.uniform(lo, hi):.1f}",
            f"{cy:.1f}+-{rng.uniform(lo, hi):.1f}")


@dataclass
class Script:
    """One connection: its request list and how to send and check one."""

    role: str                  #: "text" (first connection) or "conn2"
    label: str                 #: metric label: "text", "bin", "write"
    kind: str                  #: "read" or "write"
    requests: list = field(default_factory=list)
    binary: bool = False
    #: how many times the request list was replayed from its start
    wraps: int = 0

    def connect(self, host: str, port: int):
        client = Client(host, port, timeout=CLIENT_TIMEOUT,
                        binary=self.binary)
        if self.binary and not client.binary:
            raise RuntimeError("server did not acknowledge HELLO bin")
        return client

    def begin(self, client) -> None:
        """Per-connection set-up before the first request (untimed)."""

    def send(self, client, i: int) -> Optional[str]:
        """Send request *i*; None when correct, else why it failed."""
        raise NotImplementedError

    def request(self, i: int):
        if i >= len(self.requests):
            self.wraps = max(self.wraps, i // len(self.requests))
        return self.requests[i % len(self.requests)]


def _status_error(r) -> Optional[str]:
    if r.ok:
        return None
    return f"{r.status} {r.error_kind} {r.error_message}".strip()


# -- the demo map: map-fresh and map-hot --------------------------------------

#: (text template with {w} window / {t} threshold, prepared template)
MAP_SHAPES = [
    ("select city, population from cities on us-map "
     "at loc covered-by {{{w}}}",
     "select city, population from cities on us-map "
     "at loc covered-by {?, ?}", 25),
    ("select city, population from cities on us-map "
     "at loc covered-by {{{w}}} where population > {t}",
     "select city, population from cities on us-map "
     "at loc covered-by {?, ?} where population > ?", 20),
    ("select state, population-density from states on us-map "
     "at loc intersecting {{{w}}}",
     "select state, population-density from states on us-map "
     "at loc intersecting {?, ?}", 15),
    ("select hwy-name, hwy-section from highways on us-map "
     "at loc intersecting {{{w}}}",
     "select hwy-name, hwy-section from highways on us-map "
     "at loc intersecting {?, ?}", 15),
    ("select lake, area from lakes on lake-map "
     "at loc overlapping {{{w}}}",
     "select lake, area from lakes on lake-map "
     "at loc overlapping {?, ?}", 20),
    ("select city, zone from cities, time-zones "
     "on us-map, time-zone-map at cities.loc covered-by time-zones.loc "
     "where population > {t}",
     "select city, zone from cities, time-zones "
     "on us-map, time-zone-map at cities.loc covered-by time-zones.loc "
     "where population > ?", 5),
]


def _map_params(rng: random.Random, shape: int) -> tuple[str, ...]:
    text = MAP_SHAPES[shape][0]
    params: tuple[str, ...] = ()
    if "{w}" in text:
        params += _window(rng, 30.0, 150.0)
    if "{t}" in text:
        low = 500_000 if shape == len(MAP_SHAPES) - 1 else 100_000
        params += (str(rng.randrange(low, 2_500_000)),)
    return params


def _map_text(shape: int, params: tuple[str, ...]) -> str:
    text = MAP_SHAPES[shape][0]
    fill = {}
    rest = list(params)
    if "{w}" in text:
        fill["w"] = f"{rest.pop(0)}, {rest.pop(0)}"
    if "{t}" in text:
        fill["t"] = rest.pop(0)
    return text.format(**fill)


def _map_requests(rng: random.Random, n: int,
                  seen: set) -> list[tuple[int, tuple[str, ...]]]:
    weights = [w for _t, _p, w in MAP_SHAPES]
    out = []
    while len(out) < n:
        shape = rng.choices(range(len(MAP_SHAPES)), weights)[0]
        params = _map_params(rng, shape)
        if (shape, params) in seen:
            continue
        seen.add((shape, params))
        out.append((shape, params))
    return out


class MapText(Script):
    """Text-protocol ``QUERY`` lines with byte-exact expected payloads."""

    def __init__(self, items, session: Session):
        super().__init__("text", "text", "read")
        expected = {}
        for shape, params in set(items):
            result = session.execute(_map_text(shape, params))
            payload = "\n".join(protocol.encode_result(result)) + "\n"
            expected[(shape, params)] = payload.encode("utf-8")
        self.requests = [(_map_text(s, p), expected[(s, p)])
                         for s, p in items]

    def send(self, client, i: int) -> Optional[str]:
        text, expected = self.request(i)
        r = client.query(text)
        if not r.ok:
            return _status_error(r)
        return None if r.payload == expected else f"wrong result: {text}"


class MapBinary(Script):
    """Binary-protocol ``EXECUTE`` of prepared templates."""

    def __init__(self, items, session: Session):
        super().__init__("conn2", "bin", "read", binary=True)
        expected = {}
        for shape, params in set(items):
            result = session.execute(_map_text(shape, params))
            expected[(shape, params)] = binproto.encode_result_body(result)
        self.requests = [(s, p, expected[(s, p)]) for s, p in items]
        self._stmts: dict[int, object] = {}

    def begin(self, client) -> None:
        for shape, (_text, template, _w) in enumerate(MAP_SHAPES):
            self._stmts[shape] = client.prepare(template)

    def send(self, client, i: int) -> Optional[str]:
        shape, params, expected = self.request(i)
        r = client.execute(self._stmts[shape], params)
        if not r.ok:
            return _status_error(r)
        return None if r.payload == expected \
            else f"wrong result: {MAP_SHAPES[shape][1]} {params}"


def map_fresh_scripts(seed: int, per_conn: int) -> list[Script]:
    """Distinct windows and thresholds: the result and plan caches miss."""
    session = Session(fx.demo_database(scale=fx.MAP_SCALE, seed=seed))
    rng = random.Random(f"map-fresh:{seed}")
    seen: set = set()
    text_items = _map_requests(rng, per_conn, seen)
    bin_items = _map_requests(rng, per_conn, seen)
    return [MapText(text_items, session), MapBinary(bin_items, session)]


def _middle_out(items: list, session: Session) -> list:
    """*items* ordered median result size first, then outwards.

    The Zipf rank decides how often a request is sent, so the first few
    requests dominate the run.  Giving them the median result size, not
    whatever the seed drew first, keeps the cost of a run alike across
    seeds.
    """
    sized = sorted(items, key=lambda item: (
        len(session.execute(_map_text(*item)).rows), item))
    mid = len(sized) // 2
    order = [mid]
    for step in range(1, len(sized)):
        order.append(mid + (step + 1) // 2 if step % 2 else mid - step // 2)
    return [sized[i] for i in order if 0 <= i < len(sized)]


def _zipf(rng: random.Random, distinct: list, n: int) -> list:
    """All *distinct* items once, then *n* Zipf-distributed draws."""
    weights = [1.0 / (rank + 1) ** HOT_ZIPF_S
               for rank in range(len(distinct))]
    return list(distinct) + rng.choices(distinct, weights, k=n)


def map_hot_scripts(seed: int, per_conn: int) -> list[Script]:
    """HOT_DISTINCT requests per connection, Zipf-skewed: cache hits."""
    session = Session(fx.demo_database(scale=fx.MAP_SCALE, seed=seed))
    rng = random.Random(f"map-hot:{seed}")
    seen: set = set()
    text_items, bin_items = (
        _zipf(rng, _middle_out(_map_requests(rng, HOT_DISTINCT, seen),
                               session), per_conn)
        for _conn in range(2))
    return [MapText(text_items, session), MapBinary(bin_items, session)]


# -- disk-window --------------------------------------------------------------

DISK_SHAPES = [
    ("select id, k from pts on pts-map at loc covered-by {{{w}}}",
     "select id, k from pts on pts-map at loc covered-by {?, ?}"),
    ("select id, k from pts on pts-map at loc intersecting {{{w}}}",
     "select id, k from pts on pts-map at loc intersecting {?, ?}"),
    ("select id, k from pts on pts-map at loc covered-by {{{w}}} "
     "where k < {t}",
     "select id, k from pts on pts-map at loc covered-by {?, ?} "
     "where k < ?"),
]
#: window half-width range: about 30 rows at the density around a point
DISK_HALF = (2.5, 5.0)


class _Grid:
    """Points bucketed by cell, for the brute-force window check."""

    CELL = 25.0

    def __init__(self, points):
        self.cells: dict[tuple[int, int], list] = {}
        for pid, k, x, y in points:
            key = (int(x // self.CELL), int(y // self.CELL))
            self.cells.setdefault(key, []).append((pid, k, x, y))

    def window(self, x1, y1, x2, y2) -> list:
        out = []
        for i in range(int(x1 // self.CELL), int(x2 // self.CELL) + 1):
            for j in range(int(y1 // self.CELL), int(y2 // self.CELL) + 1):
                for p in self.cells.get((i, j), ()):
                    if x1 <= p[2] <= x2 and y1 <= p[3] <= y2:
                        out.append(p)
        return out


def _bounds(params: tuple[str, ...]) -> tuple[float, float, float, float]:
    (cx, dx), (cy, dy) = (tuple(map(float, p.split("+-")))
                          for p in params[:2])
    return cx - dx, cy - dy, cx + dx, cy + dy


def _disk_requests(rng: random.Random, points, grid: _Grid, n: int):
    """``(shape, params, expected row set)`` for *n* seeded windows."""
    out = []
    for _ in range(n):
        shape = rng.randrange(len(DISK_SHAPES))
        _pid, _k, px, py = points[rng.randrange(len(points))]
        params = _window(rng, *DISK_HALF, cx=px, cy=py)
        rows = grid.window(*_bounds(params))
        if shape == 2:
            threshold = rng.randrange(10, 90)
            params += (str(threshold),)
            rows = [p for p in rows if p[1] < threshold]
        out.append((shape, params,
                    frozenset((str(p[0]), str(p[1])) for p in rows)))
    return out


def _rows_error(r, expected: frozenset) -> Optional[str]:
    if not r.ok:
        return _status_error(r)
    got = set(r.rows)
    if len(got) != len(r.rows) or got != expected:
        return (f"wrong rows: {len(expected - got)} missing, "
                f"{len(got - expected)} extra, "
                f"{len(r.rows) - len(got)} duplicated")
    return None


class DiskText(Script):
    def __init__(self, items):
        super().__init__("text", "text", "read")
        self.requests = [(_disk_text(s, p), e) for s, p, e in items]

    def send(self, client, i: int) -> Optional[str]:
        text, expected = self.request(i)
        return _rows_error(client.query(text), expected)


class DiskBinary(Script):
    def __init__(self, items):
        super().__init__("conn2", "bin", "read", binary=True)
        self.requests = items
        self._stmts: dict[int, object] = {}

    def begin(self, client) -> None:
        for shape, (_text, template) in enumerate(DISK_SHAPES):
            self._stmts[shape] = client.prepare(template)

    def send(self, client, i: int) -> Optional[str]:
        shape, params, expected = self.request(i)
        return _rows_error(client.execute(self._stmts[shape], params),
                           expected)


def _disk_text(shape: int, params: tuple[str, ...]) -> str:
    fill = {"w": f"{params[0]}, {params[1]}"}
    if len(params) > 2:
        fill["t"] = params[2]
    return DISK_SHAPES[shape][0].format(**fill)


def disk_window_scripts(seed: int, per_conn: int) -> list[Script]:
    points = fx.disk_points(seed)
    grid = _Grid(points)
    rng = random.Random(f"disk-window:{seed}")
    return [DiskText(_disk_requests(rng, points, grid, per_conn)),
            DiskBinary(_disk_requests(rng, points, grid, per_conn))]


# -- cluster-churn ------------------------------------------------------------

#: hot-spot half-size; the writer inserts inside it, reads aim at it
HOT_HALF = 40.0
#: how far beyond the hot spot a hot-spot read window can reach
HOT_READ_REACH = 60.0
CHURN_QUERY = ("select city, gid from cities on us-map "
               "at loc covered-by {{{w}}}")


@dataclass
class ChurnState:
    """What the writer has done, shared with the reader's checks."""

    hot: tuple[float, float, float, float]
    seed_rows: dict[int, tuple[float, float]]     #: seed gid -> (x, y)
    rows: list                                    #: writer rows by index
    live: list = field(default_factory=list)      #: acked live gids
    deleted_at: dict = field(default_factory=dict)  #: gid -> ack time


def _in(bounds, x: float, y: float) -> bool:
    x1, y1, x2, y2 = bounds
    return x1 <= x <= x2 and y1 <= y <= y2


class ChurnWriter(Script):
    """INSERT into the hot spot; DELETE the oldest at CHURN_LIVE live."""

    def __init__(self, state: ChurnState):
        super().__init__("conn2", "write", "write")
        self.state = state
        self.requests = state.rows
        self._next = 0

    def connect(self, host: str, port: int):
        return ClusterClient(host, port, timeout=CLIENT_TIMEOUT)

    def send(self, client, i: int) -> Optional[str]:
        state = self.state
        if len(state.live) >= CHURN_LIVE:
            gid = state.live[0]
            r = client.delete_row("cities", gid)
            if not r.ok or r.nrows != 1:
                return _status_error(r) or f"delete of {gid} missed"
            state.deleted_at[gid] = time.perf_counter()
            state.live.pop(0)
            return None
        if self._next >= len(state.rows):
            self.wraps = 1
            return "writer row list exhausted"
        gid, row = state.rows[self._next]
        self._next += 1
        r = client.insert_row("cities", row, gid=gid)
        if not r.ok or r.nrows != gid:
            return _status_error(r) or f"insert of {gid} acked {r.nrows}"
        state.live.append(gid)
        return None


class ChurnReader(Script):
    """Text windows through the router, half of them over the hot spot."""

    def __init__(self, state: ChurnState, rng: random.Random, n: int):
        super().__init__("text", "text", "read")
        self.state = state
        self.writer_loc = {gid: (row["loc"].x, row["loc"].y)
                           for gid, row in state.rows}
        hx = (state.hot[0] + state.hot[2]) / 2
        hy = (state.hot[1] + state.hot[3]) / 2
        for j in range(n):
            if j % 2:
                params = _window(rng, 30.0, 80.0,
                                 cx=hx + rng.uniform(-20, 20),
                                 cy=hy + rng.uniform(-20, 20))
            else:
                params = _window(rng, 30.0, 80.0)
            bounds = _bounds(params)
            expected = frozenset(g for g, (x, y) in state.seed_rows.items()
                                 if _in(bounds, x, y))
            self.requests.append((CHURN_QUERY.format(
                w=f"{params[0]}, {params[1]}"), bounds, expected))

    def connect(self, host: str, port: int):
        return ClusterClient(host, port, timeout=CLIENT_TIMEOUT)

    def check(self, r, bounds, expected, sent_at: float,
              exact_live: Optional[list] = None) -> Optional[str]:
        if not r.ok:
            return _status_error(r)
        state = self.state
        gids = [int(row[1]) for row in r.rows]
        got = set(gids)
        problems = []
        if len(got) != len(gids):
            problems.append(f"{len(gids) - len(got)} duplicated")
        missing = expected - got
        if missing:
            problems.append(f"{len(missing)} seed rows missing")
        for gid in got - expected:
            if gid in state.seed_rows:
                problems.append(f"seed row {gid} outside the window")
            elif gid not in self.writer_loc \
                    or not _in(bounds, *self.writer_loc[gid]):
                problems.append(f"row {gid} is not in the window")
            elif state.deleted_at.get(gid, sent_at) < sent_at:
                problems.append(f"deleted row {gid} returned")
        if exact_live is not None:
            writer_rows = got - expected
            if writer_rows != set(exact_live):
                problems.append(
                    f"hot spot holds {len(writer_rows)} writer rows, "
                    f"the writer's live set is {len(exact_live)}")
        return "; ".join(problems) or None

    def send(self, client, i: int) -> Optional[str]:
        text, bounds, expected = self.request(i)
        sent_at = time.perf_counter()
        return self.check(client.query(text), bounds, expected, sent_at)

    def final_check(self, client) -> Optional[str]:
        """After the writer stopped: hot-spot rows == writer's live set."""
        hot = self.state.hot
        cx, cy = (hot[0] + hot[2]) / 2, (hot[1] + hot[3]) / 2
        text = CHURN_QUERY.format(w=f"{cx:.1f}+-{HOT_HALF + 0.5:.1f}, "
                                    f"{cy:.1f}+-{HOT_HALF + 0.5:.1f}")
        bounds = (cx - HOT_HALF - 0.5, cy - HOT_HALF - 0.5,
                  cx + HOT_HALF + 0.5, cy + HOT_HALF + 0.5)
        expected = frozenset(g for g, (x, y) in self.state.seed_rows.items()
                             if _in(bounds, x, y))
        return self.check(client.query(text), bounds, expected,
                          time.perf_counter(),
                          exact_live=list(self.state.live))



def cluster_churn_scripts(seed: int, per_conn: int) -> list[Script]:
    dataset = demo_dataset(scale=fx.MAP_SCALE, seed=seed)
    cities = dataset.relation("cities")
    seed_rows = {row["gid"]: (row["loc"].x, row["loc"].y)
                 for row in cities.rows}
    rng = random.Random(f"cluster-churn:{seed}")
    # Keep every hot-spot read on one shard: a hot spot straddling the
    # shard boundary would double the fan-out on some seeds only.
    shardmap = ShardMap(dataset.universe, fx.CLUSTER_SHARDS, order=5)
    reach = HOT_HALF + HOT_READ_REACH
    while True:
        hx = rng.uniform(200.0, 800.0)
        hy = rng.uniform(200.0, 800.0)
        if len(shardmap.shards_for_rect(
                Rect(hx - reach, hy - reach, hx + reach, hy + reach))) == 1:
            break
    hot = (hx - HOT_HALF, hy - HOT_HALF, hx + HOT_HALF, hy + HOT_HALF)
    rows = []
    for n in range(per_conn):
        rows.append((CHURN_GID_BASE + n, {
            "city": f"churn-{n}", "state": "Churn",
            "population": rng.randrange(1_000, 1_000_000),
            "loc": Point(round(rng.uniform(hot[0], hot[2]), 3),
                         round(rng.uniform(hot[1], hot[3]), 3))}))
    state = ChurnState(hot=hot, seed_rows=seed_rows, rows=rows)
    return [ChurnReader(state, rng, per_conn), ChurnWriter(state)]


SCRIPTS = {
    "map-fresh": map_fresh_scripts,
    "map-hot": map_hot_scripts,
    "disk-window": disk_window_scripts,
    "cluster-churn": cluster_churn_scripts,
}
