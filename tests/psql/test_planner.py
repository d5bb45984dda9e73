"""Tests for the cost-based planner and plan-driven execution."""

import pytest

from repro.geometry import Rect
from repro.psql import Session
from repro.psql.executor import _Execution
from repro.psql.parser import parse
from repro.psql.planner import plan_query
from repro.relational import Column, Database
from repro.workloads import uniform_points
from repro.workloads.uniform import TABLE1_UNIVERSE


@pytest.fixture()
def session(map_database) -> Session:
    return Session(map_database)


class TestPlanShapes:
    def test_index_beats_seq_scan(self, map_database):
        map_database.relation("cities").create_index("population")
        plan = plan_query(map_database, parse(
            "select city from cities where population > 1_000_000"))
        assert plan.access.kind == "index-scan"
        assert any("seq-scan" in label for label, _ in
                   plan.access.rejected)
        assert plan.access.est_cost < dict(
            (l, c) for l, c in plan.access.rejected)[
                "seq-scan cities"]

    def test_unindexed_where_plans_seq_scan(self, map_database):
        plan = plan_query(map_database, parse(
            "select city from cities where city = 'X'"))
        assert plan.access.kind == "seq-scan"

    def test_best_sargable_conjunct_wins(self, map_database):
        """Equality (sel 0.1) must beat a range probe (sel 0.33)."""
        map_database.relation("cities").create_index("population")
        map_database.relation("cities").create_index("state")
        plan = plan_query(map_database, parse(
            "select city from cities "
            "where population > 5 and state = 'Avalon'"))
        assert plan.access.props["column"] == "state"

    def test_window_search_uses_rtree(self, map_database):
        plan = plan_query(map_database, parse(
            "select city from cities on us-map "
            "at loc covered-by {500 ± 100, 300 ± 80}"))
        assert plan.access.kind == "rtree-window"
        assert plan.access.rejected

    def test_full_universe_window_still_uses_rtree(self, map_database):
        """Reading every node still beats reading + testing every tuple."""
        plan = plan_query(map_database, parse(
            "select city from cities on us-map "
            "at loc covered-by {500 ± 500, 500 ± 500}"))
        assert plan.access.kind == "rtree-window"

    def test_disjoined_full_universe_prefers_scan(self, map_database):
        """The complement path reads the whole tree AND the whole heap."""
        plan = plan_query(map_database, parse(
            "select city from cities on us-map "
            "at loc disjoined {500 ± 500, 500 ± 500}"))
        assert plan.access.kind == "spatial-filter-scan"

    def test_join_enumerates_three_strategies(self, map_database):
        plan = plan_query(map_database, parse(
            "select city, zone from cities, time-zones "
            "on us-map, time-zone-map "
            "at cities.loc covered-by time-zones.loc"))
        assert plan.access.kind == "spatial-join"
        assert len(plan.access.rejected) == 2

    def test_nested_mapping_plans_inner_query(self, map_database):
        plan = plan_query(map_database, parse(
            "select city from cities on us-map at loc covered-by "
            "(select loc from lakes on lake-map)"))
        assert plan.access.kind == "nested-mapping"
        inner = plan.access.children[0]
        assert inner.kind == "project"

    def test_extra_relation_wraps_extend_cross(self, map_database):
        plan = plan_query(map_database, parse(
            "select city, lake from cities, lakes on us-map "
            "at cities.loc covered-by {500 ± 100, 300 ± 80}"))
        assert plan.access.kind == "extend-cross"
        assert plan.access.children[0].kind == "rtree-window"

    def test_force_selects_rejected_path(self, map_database):
        query = parse("select city from cities on us-map "
                      "at loc covered-by {500 ± 100, 300 ± 80}")
        forced = plan_query(map_database, query, force="scan")
        assert forced.access.kind == "spatial-filter-scan"
        with pytest.raises(ValueError, match="no candidate path"):
            plan_query(map_database, query, force="no-such-path")

    def test_forced_scan_matches_rtree_results(self, map_database):
        session = Session(map_database)
        for op in ("covered-by", "intersecting", "overlapping",
                   "covering", "disjoined"):
            query = parse(f"select city from cities on us-map "
                          f"at loc {op} {{500 ± 220, 400 ± 180}}")
            results = []
            for force in ("rtree", "scan"):
                plan = plan_query(map_database, query, force=force)
                r = _Execution(session, query, plan=plan).run()
                results.append(sorted(r.rows))
            assert results[0] == results[1], op


JOIN = ("select city, zone from cities, time-zones "
        "on us-map, time-zone-map at cities.loc covered-by time-zones.loc")


def _pushed(db, query):
    plan = plan_query(db, parse(query))
    join = (plan.access.children[0] if plan.access.kind == "extend-cross"
            else plan.access)
    return [(side, cond.left.column) for side, cond in
            join.props.get("pushed", [])]


class TestWherePushdown:
    """Which leading where conjuncts the planner hands to a join side."""

    @pytest.mark.parametrize("where, pushed", [
        ("population > 5", [("cities", "population")]),
        ("time-zones.hour-diff > 1 and cities.population > 5",
         [("time-zones", "hour-diff"), ("cities", "population")]),
        ("zone = 'x' and x(cities.loc) > 5 and population > 5",
         [("time-zones", "zone")]),
        ("population > hour-diff and zone = 'x'", []),
        ("loc > 3 and population > 5", []),
        ("(population > 5 or zone = 'x') and population > 5", []),
        ("not (population > 5) and population > 5", []),
        ("nosuch > 3 and population > 5", []),
        ("states.population > 3 and population > 5", []),
    ])
    def test_leading_single_side_prefix(self, map_database, where, pushed):
        assert _pushed(map_database, f"{JOIN} where {where}") == pushed

    def test_label_shows_pushed_prefix(self, map_database):
        plan = plan_query(map_database, parse(
            f"{JOIN} where population > 5 and x(cities.loc) > 1"))
        assert plan.access.label.endswith(" pushed [population > 5]")
        assert plan.filter.label == (
            "filter [population > 5 and x(cities.loc) > 1]")

    def test_column_shared_with_third_relation_stays(self, map_database):
        query = ("select city, zone, state from cities, time-zones, states "
                 "on us-map, time-zone-map "
                 "at cities.loc covered-by time-zones.loc")
        # state is also a column of cities: ambiguous, so nothing pushed
        assert _pushed(map_database,
                       f"{query} where state = 'x' and zone = 'y'") == []
        assert _pushed(map_database,
                       f"{query} where zone = 'y' and state = 'x'") == [
            ("time-zones", "zone")]

    def test_pushdown_leaves_costs_and_choice(self, map_database):
        bare = plan_query(map_database, parse(JOIN))
        plan = plan_query(map_database, parse(f"{JOIN} where population > 5"))
        assert plan.access.est_cost == bare.access.est_cost
        assert plan.access.est_rows == bare.access.est_rows
        assert plan.access.rejected == bare.access.rejected

    def test_window_paths_push_nothing(self, map_database):
        plan = plan_query(map_database, parse(
            "select city from cities on us-map "
            "at loc covered-by {500 ± 100, 300 ± 80} where population > 5"))
        assert "pushed" not in plan.access.props


class TestPlanCache:
    def test_repeated_query_reuses_plan(self, session):
        query = parse("select city from cities where city = 'X'")
        assert session.plan(query) is session.plan(query)

    def test_generation_bump_invalidates(self, session, map_database):
        query = parse("select city from cities where city = 'X'")
        before = session.plan(query)
        map_database.bump_generation()
        assert session.plan(query) is not before

    def test_cache_is_bounded(self, session):
        for i in range(session.PLAN_CACHE_SIZE + 10):
            session.plan(parse(
                f"select city from cities where population > {i}"))
        assert len(session._plans) == session.PLAN_CACHE_SIZE


class TestEmptyNestedMapping:
    def test_empty_inner_result_yields_empty_not_error(self, session):
        """Regression: an empty inner mapping used to raise instead of
        binding an empty location set."""
        r = session.execute(
            "select city from cities on us-map at loc covered-by "
            "(select loc from lakes on lake-map "
            " where area > 1_000_000_000)")
        assert r.rows == []

    def test_empty_inner_with_no_pictorial_column_still_errors(
            self, session):
        with pytest.raises(Exception, match="no pictorial column"):
            session.execute(
                "select city from cities on us-map at loc covered-by "
                "(select lake from lakes on lake-map "
                " where area > 1_000_000_000)")


# -- the Table-1 acceptance criterion ----------------------------------------


def _table1_db(n=400) -> Database:
    db = Database()
    pts = db.create_relation("pts", [
        Column("tag", "str"), Column("loc", "point")])
    for i, p in enumerate(uniform_points(n, seed=11)):
        pts.insert({"tag": f"p{i}", "loc": p})
    pts2 = db.create_relation("pts2", [
        Column("tag", "str"), Column("loc", "point")])
    for i, p in enumerate(uniform_points(n // 2, seed=23)):
        pts2.insert({"tag": f"q{i}", "loc": p})
    pic = db.create_picture("map", TABLE1_UNIVERSE)
    pic.register(db.relation("pts"), "loc")
    pic.register(db.relation("pts2"), "loc")
    return db


def _measured_accesses(db, query, force):
    """Execute the *force*d path and count its actual reads."""
    plan = plan_query(db, query, force=force)
    session = Session(db)
    _Execution(session, query, plan=plan, annotate=True).run()
    node = plan.access
    assert node.actual_rows is not None
    return (node.actual_accesses or 0) + node.actual_rows


WINDOW_QUERIES = [
    "select tag from pts on map at loc {op} {{500 ± 50, 500 ± 50}}",
    "select tag from pts on map at loc {op} {{250 ± 200, 700 ± 150}}",
    "select tag from pts on map at loc {op} {{500 ± 500, 500 ± 500}}",
]


@pytest.mark.parametrize("template", WINDOW_QUERIES)
@pytest.mark.parametrize("op", ["covered-by", "intersecting",
                                "disjoined"])
def test_chosen_window_path_within_125pct_of_best(template, op):
    """Acceptance: on the Table-1 uniform workload the planner's pick is
    never more than 1.25x the best enumerated path's measured accesses."""
    db = _table1_db()
    query = parse(template.format(op=op))
    measured = {force: _measured_accesses(db, query, force)
                for force in ("rtree", "scan")}
    chosen = plan_query(db, query).access.props["path"]
    best = min(measured.values())
    assert measured[chosen] <= 1.25 * best + 1e-9, (chosen, measured)


@pytest.mark.parametrize("op", ["intersecting", "covered-by"])
def test_chosen_join_strategy_within_125pct_of_best(op):
    db = _table1_db()
    query = parse(f"select pts.tag, pts2.tag from pts, pts2 on map "
                  f"at pts.loc {op} pts2.loc")
    measured = {force: _measured_accesses(db, query, force)
                for force in ("lockstep", "nested-left", "nested-right")}
    chosen = plan_query(db, query).access.props["path"]
    best = min(measured.values())
    assert measured[chosen] <= 1.25 * best + 1e-9, (chosen, measured)
