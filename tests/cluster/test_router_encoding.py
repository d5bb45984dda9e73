"""Router replies are byte-identical to a single server's rendering.

The router renders merged rows with ``protocol.encode_result``: merged
cells are the wire strings the shards sent, and ``format_value`` passes
a string through unchanged, so escape-heavy strings (tabs, newlines,
backslash runs) must come out exactly as the single-server oracle's
rows render — fresh and replayed from the router's cache alike.
"""

import pytest

from repro.psql.executor import Session
from repro.psql.result import QueryResult
from repro.server import protocol
from repro.server.demo import demo_database
from repro.cluster.dataset import build_database, dataset_from_database
from repro.cluster.launcher import LocalCluster
from tests.server.test_cross_protocol import (ESCAPE_QUERY,
                                              escape_heavy_database)

WINDOW_QUERY = ("select city, population from cities on us-map "
                "at loc covered-by {50 +- 500, 30 +- 500}")


@pytest.fixture(scope="module")
def tricky_cluster():
    db = demo_database()
    db.attach_relation(escape_heavy_database().relation("pois"))
    dataset = dataset_from_database(db)
    with LocalCluster(dataset, nshards=2) as local:
        yield local, Session(build_database(dataset))


def oracle_payload(session: Session, text: str) -> bytes:
    """The oracle's rows, in the router's merged order, as text wire
    bytes."""
    result = session.execute(text)
    rows = sorted(tuple(protocol.format_value(v) for v in row)
                  for row in result.rows)
    lines = protocol.encode_result(QueryResult(columns=result.columns,
                                               rows=rows))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("text", [ESCAPE_QUERY, WINDOW_QUERY])
def test_router_payload_matches_oracle_rendering(tricky_cluster, text):
    local, oracle = tricky_cluster
    expected = oracle_payload(oracle, text)
    client = local.client()
    try:
        # Fresh, fresh under the learned generation token, then cached.
        replies = [client.query(text).raise_for_status() for _ in range(3)]
    finally:
        client.close()
    assert replies[-1].cached
    for reply in replies:
        assert reply.payload == expected
