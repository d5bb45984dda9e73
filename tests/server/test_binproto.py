"""Binary protocol framing: requests, responses, malformed bodies."""

import pytest

from repro.geometry import Point
from repro.psql.result import QueryResult
from repro.server import binproto, protocol
from repro.server.protocol import ProtocolError


def _body(framed: bytes) -> bytes:
    """Strip the length prefix, asserting it matches the body."""
    length = int.from_bytes(framed[:4], "little")
    body = framed[4:]
    assert length == len(body)
    return body


class TestRequests:
    def test_query_roundtrip(self):
        body = _body(binproto.encode_query("select 1"))
        opcode, payload = binproto.decode_request(body)
        assert opcode == binproto.OP_QUERY
        assert payload.decode("utf-8") == "select 1"

    def test_execute_roundtrip(self):
        params = ("400+-150", "", "tab\ttab", "±{}'\"")
        body = _body(binproto.encode_execute(17, params))
        opcode, payload = binproto.decode_request(body)
        assert opcode == binproto.OP_EXECUTE
        assert binproto.decode_execute(payload) == (17, params)

    def test_simple_requests(self):
        for opcode in (binproto.OP_STATS, binproto.OP_PING,
                       binproto.OP_QUIT):
            body = _body(binproto.encode_simple(opcode))
            assert binproto.decode_request(body) == (opcode, b"")

    def test_command_carries_verb_line(self):
        body = _body(binproto.encode_command("REPACK us-map cities loc"))
        opcode, payload = binproto.decode_request(body)
        assert opcode == binproto.OP_COMMAND
        assert payload.decode("utf-8") == "REPACK us-map cities loc"

    def test_empty_request_raises(self):
        with pytest.raises(ProtocolError):
            binproto.decode_request(b"")

    @pytest.mark.parametrize("payload", [
        b"",                        # missing header
        b"\x01\x00\x00\x00",        # truncated header
        b"\x01\x00\x00\x00\x01\x00",            # param promised, absent
        b"\x01\x00\x00\x00\x01\x00\xff\x00\x00\x00",  # bad str length
        b"\x01\x00\x00\x00\x00\x00extra",       # trailing bytes
    ])
    def test_malformed_execute_raises(self, payload):
        with pytest.raises(ProtocolError):
            binproto.decode_execute(payload)


class TestResultBody:
    def _result(self):
        result = QueryResult(columns=("city", "loc"))
        result.rows.append(("Boston", Point(1.5, 2.0)))
        result.rows.append(("Tab\tCity", 42))
        return result

    def test_roundtrip_matches_text_cells(self):
        result = self._result()
        body = binproto.encode_result_body(result)
        columns, rows = binproto.decode_result_body(body)
        assert columns == result.columns
        # Cell strings are the text protocol's format_value renderings —
        # only the framing differs between the two protocols.
        expected = [tuple(protocol.format_value(v) for v in row)
                    for row in result.rows]
        assert rows == expected

    def test_deterministic(self):
        result = self._result()
        assert binproto.encode_result_body(result) == \
            binproto.encode_result_body(result)

    def test_empty_result(self):
        body = binproto.encode_result_body(QueryResult(columns=("a",)))
        assert binproto.decode_result_body(body) == (("a",), [])

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:1],            # truncated ncols
        lambda b: b[:-1],           # truncated last cell
        lambda b: b + b"x",         # trailing bytes
    ])
    def test_malformed_body_raises(self, mutate):
        body = binproto.encode_result_body(self._result())
        with pytest.raises(ProtocolError):
            binproto.decode_result_body(mutate(body))


class TestResponses:
    def test_ok_with_result(self):
        result = QueryResult(columns=("city",))
        result.rows.append(("Boston",))
        rbody = binproto.encode_result_body(result)
        framed = (binproto.frame_prefix(
            binproto._OK_HEADER.size + len(rbody))
            + binproto.ok_header("fresh", 3, 1) + rbody)
        r = binproto.parse_response_body(_body(framed))
        assert r.ok and not r.cached and r.generation == 3
        assert r.nrows == 1
        assert r.columns == ("city",)
        assert r.rows == [("Boston",)]
        assert r.payload == rbody

    def test_cached_disposition(self):
        r = binproto.parse_response_body(
            _body(binproto.response_ack("cached", 7, 0)))
        assert r.cached and r.generation == 7

    def test_ack(self):
        r = binproto.parse_response_body(
            _body(binproto.response_ack("repack", 7, 1234)))
        assert r.ok and r.generation == 7 and r.nrows == 1234
        assert r.rows == []

    def test_prepared(self):
        r = binproto.parse_response_body(
            _body(binproto.response_prepared(5, 2, 3)))
        assert r.ok and r.generation == 5
        assert r.nrows == 2                       # the statement id
        assert r.stats["statement.nparams"] == 3

    def test_error(self):
        r = binproto.parse_response_body(
            _body(binproto.response_error("PsqlSyntaxError",
                                          "bad\nquery")))
        assert r.status == "error"
        assert r.error_kind == "PsqlSyntaxError"
        assert r.error_message == "bad\nquery"
        with pytest.raises(protocol.ServerError):
            r.raise_for_status()

    def test_busy_timeout_pong_bye(self):
        assert binproto.parse_response_body(
            _body(binproto.response_busy("overloaded"))).status == "busy"
        assert binproto.parse_response_body(
            _body(binproto.response_timeout("slow"))).status == "timeout"
        assert binproto.parse_response_body(
            _body(binproto.response_pong())).status == "pong"
        assert binproto.parse_response_body(
            _body(binproto.response_bye())).status == "bye"

    def test_stats_tags_preserve_types(self):
        stats = {"server.queries": 40, "server.qps": 12.5,
                 "server.generation": 9}
        r = binproto.parse_response_body(
            _body(binproto.response_stats(stats)))
        assert r.ok
        assert r.stats["server.queries"] == 40
        assert isinstance(r.stats["server.queries"], int)
        assert isinstance(r.stats["server.qps"], float)
        assert r.generation == 9

    @pytest.mark.parametrize("body", [
        b"",                                 # empty
        b"\x63",                             # unknown status
        b"\x00\x00\x00",                     # truncated OK header
        bytes([binproto.ST_OK, 99]) + b"\x00" * 12,  # bad disposition
        bytes([binproto.ST_ERR]) + b"\x02\x00\x00\x00x",  # short str
        bytes([binproto.ST_STATS]) + b"\x01\x00\x00\x00",  # stat absent
    ])
    def test_malformed_response_raises(self, body):
        with pytest.raises(ProtocolError):
            binproto.parse_response_body(body)
