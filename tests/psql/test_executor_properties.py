"""Property-based tests: the PSQL executor vs a brute-force reference."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect, Region
from repro.psql import PsqlSemanticError, Session
from repro.psql.executor import _Execution
from repro.psql.parser import parse
from repro.psql.planner import plan_query
from repro.relational import Column, Database

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)
points = st.builds(Point, coords, coords)
populations = st.integers(min_value=0, max_value=10_000_000)

city_lists = st.lists(st.tuples(points, populations), min_size=0,
                      max_size=40)


def build_db(cities):
    db = Database()
    rel = db.create_relation("cities", [
        Column("city", "str"), Column("population", "int"),
        Column("loc", "point")])
    for i, (p, pop) in enumerate(cities):
        rel.insert({"city": f"C{i}", "population": pop, "loc": p})
    pic = db.create_picture("map", Rect(0, 0, 100, 100))
    pic.register(rel, "loc", max_entries=4)
    return db


@st.composite
def windows(draw):
    cx = draw(coords)
    cy = draw(coords)
    dx = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    dy = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    return cx, cy, dx, dy


@given(city_lists, windows())
@settings(max_examples=50, deadline=None)
def test_covered_by_window_matches_brute_force(cities, window):
    cx, cy, dx, dy = window
    db = build_db(cities)
    result = Session(db).execute(
        f"select city from cities on map "
        f"at loc covered-by {{{cx!r} ± {dx!r}, {cy!r} ± {dy!r}}}")
    rect = Rect.from_center(Point(cx, cy), dx, dy)
    expect = sorted(f"C{i}" for i, (p, _pop) in enumerate(cities)
                    if rect.contains_point(p))
    assert sorted(result.column("city")) == expect


@given(city_lists, windows())
@settings(max_examples=50, deadline=None)
def test_disjoined_window_is_complement(cities, window):
    cx, cy, dx, dy = window
    db = build_db(cities)
    session = Session(db)
    spec = f"{{{cx!r} ± {dx!r}, {cy!r} ± {dy!r}}}"
    inside = session.execute(
        f"select city from cities on map at loc intersecting {spec}")
    outside = session.execute(
        f"select city from cities on map at loc disjoined {spec}")
    assert len(inside) + len(outside) == len(cities)
    assert not set(inside.column("city")) & set(outside.column("city"))


@given(city_lists, populations)
@settings(max_examples=50, deadline=None)
def test_where_filter_matches_brute_force(cities, threshold):
    db = build_db(cities)
    result = Session(db).execute(
        f"select city from cities where population > {threshold}")
    expect = sorted(f"C{i}" for i, (_p, pop) in enumerate(cities)
                    if pop > threshold)
    assert sorted(result.column("city")) == expect


@given(city_lists, populations)
@settings(max_examples=30, deadline=None)
def test_index_path_equals_scan_path(cities, threshold):
    """The same query with and without a B-tree index agrees exactly."""
    db = build_db(cities)
    query = f"select city from cities where population >= {threshold}"
    without = sorted(Session(db).execute(query).column("city"))
    db.relation("cities").create_index("population")
    with_index = sorted(Session(db).execute(query).column("city"))
    assert without == with_index


QUADRANTS = {
    "SW": Rect(0, 0, 50, 50), "SE": Rect(50, 0, 100, 50),
    "NW": Rect(0, 50, 50, 100), "NE": Rect(50, 50, 100, 100),
}


def build_join_db(cities, quotas=(0, 0, 0, 0)):
    """Cities plus four quadrant zones, each with an integer quota."""
    db = build_db(cities)
    zones = db.create_relation("zones", [
        Column("zone", "str"), Column("quota", "int"),
        Column("loc", "region")])
    for (name, rect), quota in zip(QUADRANTS.items(), quotas):
        zones.insert({"zone": name, "quota": quota,
                      "loc": Region.from_rect(rect)})
    db.create_picture("zone-map", Rect(0, 0, 100, 100)).register(
        zones, "loc", max_entries=4)
    return db


@given(city_lists)
@settings(max_examples=30, deadline=None)
def test_juxtaposition_matches_nested_loop(cities):
    """R-tree join vs brute force over two relations."""
    db = build_join_db(cities)
    result = Session(db).execute(
        "select city, zone from cities, zones on map, zone-map "
        "at cities.loc covered-by zones.loc")
    got = sorted(result.rows)
    expect = sorted(
        (f"C{i}", name)
        for i, (p, _pop) in enumerate(cities)
        for name, rect in QUADRANTS.items()
        if rect.contains_point(p))
    assert got == expect


# -- join + where: pushed conjuncts never change rows, order or errors -------

#: select list of the oracle queries; a row is (city, population, quota,
#: zone, cities.loc)
JOIN_SELECT = "city, population, quota, zone, cities.loc"
COLUMN = {"city": 0, "population": 1, "quota": 2, "zone": 3, "loc": 4}
PY_OPS = {"=": operator.eq, "<>": operator.ne, ">": operator.gt,
          "<": operator.lt, ">=": operator.ge, "<=": operator.le}
comparison_ops = st.sampled_from(sorted(PY_OPS))


def _column(name, qualifier):
    return (lambda row: row[COLUMN[name]]), \
        (f"{qualifier}.{name}" if qualifier else name)


@st.composite
def atoms(draw):
    """One comparison as (psql text, python predicate over a row)."""
    kind = draw(st.sampled_from(
        ["cities"] * 3 + ["zones"] * 3 + ["cross", "function"]
        + ["mistyped"] * 2))
    op = draw(comparison_ops)
    if kind == "cities":
        name = draw(st.sampled_from(["population", "city"]))
        qualifier = draw(st.sampled_from([None, "cities"]))
        value = (draw(populations) if name == "population"
                 else f"C{draw(st.integers(0, 40))}")
    elif kind == "zones":
        name = draw(st.sampled_from(["quota", "zone"]))
        qualifier = draw(st.sampled_from([None, "zones"]))
        value = (draw(populations) if name == "quota"
                 else draw(st.sampled_from(sorted(QUADRANTS))))
    elif kind == "cross":
        left, left_text = _column("population",
                                  draw(st.sampled_from([None, "cities"])))
        right, right_text = _column("quota",
                                    draw(st.sampled_from([None, "zones"])))
        return (f"{left_text} {op} {right_text}",
                lambda row: PY_OPS[op](left(row), right(row)))
    elif kind == "function":
        threshold = draw(st.integers(0, 100))
        return (f"x(cities.loc) {op} {threshold}",
                lambda row: PY_OPS[op](row[COLUMN["loc"]].x, threshold))
    else:  # a str column against an int: raises unless op is = or <>
        name = draw(st.sampled_from(["city", "zone"]))
        qualifier = None
        value = draw(st.integers(0, 9))
    get, text = _column(name, qualifier)
    literal = f"'{value}'" if isinstance(value, str) else str(value)
    return (f"{text} {op} {literal}",
            lambda row: PY_OPS[op](get(row), value))


def _and(pair):
    (lt, lf), (rt, rf) = pair
    return f"{lt} and {rt}", lambda row: lf(row) and rf(row)


def _and_chain(conjuncts):
    text, fn = conjuncts[0]
    for conjunct in conjuncts[1:]:
        text, fn = _and(((text, fn), conjunct))
    return text, fn


def _or(pair):
    (lt, lf), (rt, rf) = pair
    return f"({lt} or {rt})", lambda row: lf(row) or rf(row)


def _not(child):
    text, fn = child
    return f"not ({text})", lambda row: not fn(row)


#: a top-level ``and`` chain — the shape pushdown splits — of conjuncts
#: that are themselves small and/or/not trees
conditions = st.lists(
    st.recursive(
        atoms(),
        lambda children: st.one_of(
            st.tuples(children, children).map(_and),
            st.tuples(children, children).map(_or),
            children.map(_not)),
        max_leaves=3),
    min_size=1, max_size=4).map(_and_chain)

#: (spatial operator, forced join path) — every enumerated strategy
JOIN_PATHS = [("covered-by", "lockstep"), ("covered-by", "nested-left"),
              ("covered-by", "nested-right"), ("disjoined", "lockstep")]


def _run(session, text, force):
    query = parse(text)
    plan = plan_query(session.db, query, force=force)
    return _Execution(session, query, plan=plan).run().rows


def _check_join_where(cities, quotas, path, where_text, predicate):
    op, force = path
    session = Session(build_join_db(cities, quotas))
    base_text = (f"select {JOIN_SELECT} from cities, zones on map, zone-map "
                 f"at cities.loc {op} zones.loc")
    base = _run(session, base_text, force)
    try:
        expect = [row for row in base if predicate(row)]
    except TypeError:
        with pytest.raises(PsqlSemanticError, match="cannot compare"):
            _run(session, f"{base_text} where {where_text}", force)
        return
    assert _run(session, f"{base_text} where {where_text}", force) == expect


@given(city_lists, st.lists(populations, min_size=4, max_size=4),
       st.sampled_from(JOIN_PATHS), conditions)
@settings(max_examples=200, deadline=None)
def test_join_where_equals_filtered_join(cities, quotas, path, condition):
    """A join with a where returns exactly the where-less join's rows,
    in order, that the predicate keeps — or the error the predicate
    raises first in that order."""
    where_text, predicate = condition
    _check_join_where(cities, quotas, path, where_text, predicate)


#: one city per quadrant; row = (city, population, quota, zone, loc)
QUADRANT_CITIES = [(Point(10, 10), 100), (Point(60, 10), 200),
                   (Point(10, 60), 300), (Point(60, 60), 400)]

#: where-clauses whose first error and first false conjunct sit on
#: different join sides, or behind a conjunct that cannot be pushed
INTERLEAVINGS = [
    ("zone > 3 and population > 1000",
     lambda row: row[3] > 3 and row[1] > 1000),
    ("population > 1000 and zone > 3",
     lambda row: row[1] > 1000 and row[3] > 3),
    ("cities.population > 150 and zone < 3 and population > 1000",
     lambda row: row[1] > 150 and row[3] < 3 and row[1] > 1000),
    ("(zone > 3 or zone = 'SW') and population > 1000",
     lambda row: (row[3] > 3 or row[3] == "SW") and row[1] > 1000),
    ("population > quota and city > 3 and zones.quota > 5",
     lambda row: row[1] > row[2] and row[0] > 3 and row[2] > 5),
    ("not (city > 3) and zone = 'NE'",
     lambda row: not (row[0] > 3) and row[3] == "NE"),
]


@pytest.mark.parametrize("path", JOIN_PATHS, ids=lambda p: "-".join(p))
@pytest.mark.parametrize("where_text, predicate", INTERLEAVINGS,
                         ids=[w for w, _ in INTERLEAVINGS])
def test_join_where_error_interleavings(path, where_text, predicate):
    _check_join_where(QUADRANT_CITIES, (0, 0, 0, 0), path, where_text,
                      predicate)
