"""Tests for ``EXPLAIN`` / ``EXPLAIN ANALYZE`` through the session.

The golden file pins the exact plan text for the demo database; if a
deliberate cost-model change shifts it, regenerate with::

    PYTHONPATH=src python tests/psql/test_explain.py --regen
"""

from pathlib import Path

import pytest

from repro import obs
from repro.psql import Session
from repro.psql.errors import PsqlSyntaxError
from repro.psql.parser import parse, parse_statement
from repro.psql.repl import build_demo_database

GOLDEN = Path(__file__).parent / "golden" / "explain_plans.txt"

#: Queries pinned by the golden file — one plan per query, in order.
GOLDEN_QUERIES = [
    "select city from cities where population > 1_000_000",
    "select city from cities where city = 'Nowhere'",
    "select city from cities on us-map "
    "at loc covered-by {500 +- 100, 300 +- 80}",
    "select city from cities on us-map "
    "at loc disjoined {500 +- 500, 500 +- 500}",
    "select city, zone from cities, time-zones on us-map, time-zone-map "
    "at cities.loc covered-by time-zones.loc",
    "select city from cities on us-map at loc covered-by "
    "(select loc from lakes on lake-map)",
    "select city, zone from cities, time-zones on us-map, time-zone-map "
    "at cities.loc covered-by time-zones.loc "
    "where population > 1_000_000 and zone = 'Eastern' "
    "and x(cities.loc) > 500",
]


def _render_all(session: Session) -> str:
    out = []
    for q in GOLDEN_QUERIES:
        out.append("-- explain " + q)
        out.extend(row[0] for row in session.execute("explain " + q).rows)
        out.append("")
    return "\n".join(out)


@pytest.fixture(scope="module")
def demo_session() -> Session:
    return Session(build_demo_database(seed=42))


class TestExplain:
    def test_returns_plan_column(self, demo_session):
        r = demo_session.execute(
            "explain select city from cities where population > 5")
        assert r.columns == ("plan",)
        assert r.rows
        assert all(len(row) == 1 for row in r.rows)

    def test_explain_does_not_execute(self, demo_session):
        with obs.scope(enable=True) as reg:
            demo_session.execute(
                "explain select city from cities on us-map "
                "at loc covered-by {500 +- 100, 300 +- 80}")
            counters = reg.snapshot()
        assert counters.get("psql.queries", 0) == 0
        assert counters.get("psql.plan.direct_spatial_search", 0) == 0

    def test_explain_analyze_executes_and_annotates(self, demo_session):
        with obs.scope(enable=True) as reg:
            r = demo_session.execute(
                "explain analyze select city from cities on us-map "
                "at loc covered-by {500 +- 100, 300 +- 80}")
            counters = reg.snapshot()
        assert counters.get("psql.queries", 0) == 1
        text = "\n".join(row[0] for row in r.rows)
        assert "(actual rows=" in text
        # Estimated and actual accesses sit side by side on the index node.
        window_line = next(line for (line,) in r.rows
                           if "rtree-window" in line)
        assert "cost=" in window_line and "accesses=" in window_line

    def test_analyze_does_not_mutate_cached_plan(self, demo_session):
        text = ("select city from cities on us-map "
                "at loc covered-by {500 +- 100, 300 +- 80}")
        demo_session.execute("explain analyze " + text)
        plain = demo_session.execute("explain " + text)
        assert "(actual" not in "\n".join(row[0] for row in plain.rows)

    def test_parse_statement_roundtrip(self):
        stmt = parse_statement("explain analyze select city from cities")
        assert stmt.analyze
        assert stmt.query == parse("select city from cities")
        assert not parse_statement("select city from cities").__class__.\
            __name__ == "Explain"

    def test_plain_parse_rejects_explain(self):
        with pytest.raises(PsqlSyntaxError):
            parse("explain select city from cities")


class TestExplainGolden:
    def test_plans_match_golden_file(self, demo_session):
        expected = GOLDEN.read_text()
        actual = _render_all(demo_session)
        assert actual == expected, (
            "plan text drifted from tests/psql/golden/explain_plans.txt; "
            "if the cost-model change is deliberate, regenerate with "
            "'PYTHONPATH=src python tests/psql/test_explain.py --regen'")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.write_text(_render_all(Session(build_demo_database(seed=42))))
        print(f"regenerated {GOLDEN}")
    else:
        print(__doc__)
