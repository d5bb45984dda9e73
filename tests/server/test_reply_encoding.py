"""One rendering per reply: each result is encoded once, in the framing
of the connection that asked.

A text miss runs only ``protocol.encode_result``, a binary miss only
``binproto.encode_result_body``; the result cache keeps each framing's
body under its own key, so a text body is never replayed to a binary
connection (or the other way round) and every payload stays
byte-identical to its encoder's output.
"""

import pytest

from repro.psql.executor import Session
from repro.server import binproto, protocol
from repro.server.client import Client
from repro.server.demo import demo_database
from repro.server.server import PsqlServer, ServerConfig

QUERY = ("select city, population from cities on us-map "
         "at loc covered-by {400+-150, 300+-150}")
TEMPLATE = ("select city, population from cities on us-map "
            "at loc covered-by {?, ?}")
PARAMS = ("500+-200", "450+-200")
BOUND = ("select city, population from cities on us-map "
         "at loc covered-by {500+-200, 450+-200}")


@pytest.fixture()
def served():
    """(host, port, direct session) over a fresh demo server."""
    db = demo_database()
    server = PsqlServer(ServerConfig(port=0, workers=2), db=db)
    host, port = server.start_background()
    yield host, port, Session(db)
    server.stop_background()


@pytest.fixture()
def encoder_calls(monkeypatch):
    """Count calls of both result encoders (wrappers, same behaviour)."""
    calls = {"text": 0, "binary": 0}
    text_encoder = protocol.encode_result
    binary_encoder = binproto.encode_result_body

    def counted_text(result):
        calls["text"] += 1
        return text_encoder(result)

    def counted_binary(result):
        calls["binary"] += 1
        return binary_encoder(result)

    monkeypatch.setattr(protocol, "encode_result", counted_text)
    monkeypatch.setattr(binproto, "encode_result_body", counted_binary)
    return calls


def text_bytes(result) -> bytes:
    return ("\n".join(protocol.encode_result(result)) + "\n").encode("utf-8")


class TestOneEncoderPerRequest:
    def test_text_query_miss_encodes_text_only(self, served,
                                               encoder_calls):
        host, port, _ = served
        with Client(host, port) as c:
            r = c.query(QUERY)
        assert r.ok and not r.cached
        assert encoder_calls == {"text": 1, "binary": 0}

    def test_binary_execute_miss_encodes_binary_only(self, served,
                                                     encoder_calls):
        host, port, _ = served
        with Client(host, port, binary=True) as c:
            assert c.binary
            stmt = c.prepare(TEMPLATE)
            r = c.execute(stmt, PARAMS)
        assert r.ok and not r.cached
        assert encoder_calls == {"text": 0, "binary": 1}

    def test_cache_hits_encode_nothing(self, served, encoder_calls):
        host, port, _ = served
        with Client(host, port) as tc, \
                Client(host, port, binary=True) as bc:
            assert tc.query(QUERY).ok and bc.query(QUERY).ok
            assert encoder_calls == {"text": 1, "binary": 1}
            assert tc.query(QUERY).cached and bc.query(QUERY).cached
        assert encoder_calls == {"text": 1, "binary": 1}


class TestFramingKeyedCache:
    def test_query_alternating_framings(self, served):
        host, port, direct = served
        result = direct.execute(QUERY)
        expected = {False: text_bytes(result),
                    True: binproto.encode_result_body(result)}
        seen = {False: [], True: []}
        with Client(host, port) as tc, \
                Client(host, port, binary=True) as bc:
            assert bc.binary
            for _ in range(3):
                for binary, client in ((False, tc), (True, bc)):
                    r = client.query(QUERY)
                    assert r.ok
                    assert r.payload == expected[binary]
                    seen[binary].append(r.cached)
        assert seen == {False: [False, True, True],
                        True: [False, True, True]}

    def test_prepared_alternating_framings(self, served):
        host, port, direct = served
        result = direct.execute(BOUND)
        expected = {False: text_bytes(result),
                    True: binproto.encode_result_body(result)}
        seen = {False: [], True: []}
        with Client(host, port) as tc, \
                Client(host, port, binary=True) as bc:
            assert bc.binary
            stmts = {False: tc.prepare(TEMPLATE), True: bc.prepare(TEMPLATE)}
            for _ in range(3):
                for binary, client in ((False, tc), (True, bc)):
                    r = client.execute(stmts[binary], PARAMS)
                    assert r.ok
                    assert r.payload == expected[binary]
                    seen[binary].append(r.cached)
        assert seen == {False: [False, True, True],
                        True: [False, True, True]}
