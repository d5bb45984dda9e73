"""Binary wire protocol for the PSQL query server.

The text protocol (:mod:`repro.server.protocol`) stays the default —
debuggable with ``nc``, driven by the REPL — but every byte of a hot
cached read costs a Python-level escape/unescape loop.  This module is
the negotiated fast path, in the tradition of memcached's binary
protocol next to its text protocol: length-prefixed frames, struct-packed
headers, length-prefixed UTF-8 cells that decode with C-speed slicing.

Negotiation is in-band and text-first: a client that wants binary sends
the ordinary line ``HELLO bin`` as its first command; the server answers
a normal text acknowledgement (``OK hello <generation> 0`` / ``END``)
and *both* sides switch to binary framing from the next byte on.  A
server too old to know ``HELLO`` answers ``ERR`` and the connection
simply stays on the text protocol.

Framing (all integers little-endian)::

    frame    := u32 length, body[length]
    request  := u8 opcode, payload
    response := u8 status, payload

Requests:

====================  =======================================================
``OP_QUERY``          UTF-8 query text
``OP_PREPARE``        UTF-8 statement template with ``?`` placeholders
``OP_EXECUTE``        u32 statement id, u16 nparams, nparams × str
``OP_STATS``          (empty)
``OP_PING``           (empty)
``OP_QUIT``           (empty)
``OP_COMMAND``        UTF-8 command line (any text-protocol verb:
                      ``REPACK``/``ADVISE``/``HEALTH``/cluster verbs)
====================  =======================================================

where ``str`` is ``u32 length, UTF-8 bytes``.  Responses:

====================  =======================================================
``ST_OK``             u8 disposition, i64 generation, u32 nrows,
                      result body (empty for acknowledgements)
``ST_PREPARED``       i64 generation, u32 statement id, u16 nparams
``ST_ERR``            str kind, str message
``ST_BUSY``           str message
``ST_TIMEOUT``        str message
``ST_PONG``           (empty)
``ST_BYE``            (empty)
``ST_STATS``          u32 count, count × (str name, u8 tag, f64|i64 value)
====================  =======================================================

The **result body** is the binary twin of
:func:`repro.server.protocol.encode_result` and carries exactly the same
cell strings (:func:`repro.server.protocol.format_value` renderings)::

    u16 ncols, ncols × str
    u32 nrows, nrows × (ncols × str)

:func:`encode_result_body` is the single binary rendering — the server
caches its output verbatim and the smoke/equivalence tests compare a
client's ``Response.payload`` against it byte for byte, extending the
text protocol's byte-identity guarantee to binary.

A malformed frame *body* (unknown opcode, truncated struct) is answered
with an ``ST_ERR`` frame and the connection carries on — the length
prefix was consumed exactly, so framing never desynchronises.  Only an
implausible length prefix (zero, or beyond :data:`MAX_FRAME`) forces a
close, because the stream position itself can no longer be trusted.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.psql.result import QueryResult
from repro.server.protocol import ProtocolError, Response, format_value

__all__ = [
    "MAX_FRAME",
    "BinaryResponse",
    "decode_execute",
    "decode_request",
    "decode_result_body",
    "encode_command",
    "encode_execute",
    "encode_prepare",
    "encode_query",
    "encode_result_body",
    "encode_simple",
    "frame",
    "frame_prefix",
    "ok_header",
    "parse_response_body",
    "response_ack",
    "response_busy",
    "response_bye",
    "response_error",
    "response_pong",
    "response_prepared",
    "response_stats",
    "response_timeout",
]

#: Hard ceiling on one frame body; anything larger is treated as a
#: framing error (the stream is desynchronised or hostile).
MAX_FRAME = 64 * 1024 * 1024

# Request opcodes.
OP_QUERY = 1
OP_PREPARE = 2
OP_EXECUTE = 3
OP_STATS = 4
OP_PING = 5
OP_QUIT = 6
OP_COMMAND = 7

# Response status codes.
ST_OK = 0
ST_ERR = 1
ST_BUSY = 2
ST_TIMEOUT = 3
ST_PONG = 4
ST_BYE = 5
ST_STATS = 6
ST_PREPARED = 7

#: OK-header cache dispositions, numbered for the u8 field.  The names
#: match the text protocol's OK header exactly.
DISPOSITIONS = ("fresh", "cached", "repack", "insert", "delete", "replay",
                "hello", "prepare", "maintain")
_DISPOSITION_CODE = {name: i for i, name in enumerate(DISPOSITIONS)}

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_OK_HEADER = struct.Struct("<BBqI")       # status, disposition, gen, nrows
_PREPARED = struct.Struct("<BqIH")        # status, gen, stmt_id, nparams
_STAT_VALUE = struct.Struct("<d")
_STAT_IVALUE = struct.Struct("<q")


class BinaryResponse(Response):
    """A :class:`Response` whose result rows decode lazily.

    The hot cached-read path never looks at individual cells — callers
    checking ``ok``/``nrows``/``payload`` pay nothing for row
    materialisation; the first access to :attr:`columns` or :attr:`rows`
    decodes the retained result body.  A malformed body therefore
    surfaces its :class:`ProtocolError` at first access rather than at
    read time.
    """

    _lazy = False
    _columns: tuple = ()
    _rows: list = None

    def _ensure_decoded(self) -> None:
        if self._lazy:
            self._lazy = False
            self._columns, self._rows = decode_result_body(self.payload)

    @property
    def columns(self) -> tuple:
        self._ensure_decoded()
        return self._columns

    @columns.setter
    def columns(self, value: tuple) -> None:
        self._columns = value

    @property
    def rows(self) -> list:
        self._ensure_decoded()
        return self._rows

    @rows.setter
    def rows(self, value: list) -> None:
        self._rows = value


def frame(body: bytes) -> bytes:
    """Wrap *body* in a length prefix, ready to write to the socket."""
    return _U32.pack(len(body)) + body


def frame_prefix(body_length: int) -> bytes:
    """Just the length prefix — for writers that stream the body parts
    separately to avoid concatenating large cached buffers."""
    return _U32.pack(body_length)


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return _U32.pack(len(data)) + data


def _unpack_str(body: bytes, offset: int) -> tuple[str, int]:
    try:
        (length,) = _U32.unpack_from(body, offset)
    except struct.error as exc:
        raise ProtocolError("truncated string length") from exc
    offset += 4
    end = offset + length
    if end > len(body):
        raise ProtocolError("truncated string payload")
    try:
        return body[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError("string payload is not UTF-8") from exc


# -- requests -----------------------------------------------------------------


def encode_query(text: str) -> bytes:
    """An ``OP_QUERY`` frame for one PSQL query."""
    return frame(bytes([OP_QUERY]) + text.encode("utf-8"))


def encode_prepare(template: str) -> bytes:
    """An ``OP_PREPARE`` frame for a ``?``-placeholder template."""
    return frame(bytes([OP_PREPARE]) + template.encode("utf-8"))


def encode_execute(statement_id: int, params: tuple[str, ...]) -> bytes:
    """An ``OP_EXECUTE`` frame binding *params* to a prepared statement."""
    parts = [bytes([OP_EXECUTE]), _U32.pack(statement_id),
             _U16.pack(len(params))]
    parts.extend(_pack_str(p) for p in params)
    return frame(b"".join(parts))


def encode_command(line: str) -> bytes:
    """An ``OP_COMMAND`` frame carrying a full text-protocol line."""
    return frame(bytes([OP_COMMAND]) + line.encode("utf-8"))


def encode_simple(opcode: int) -> bytes:
    """A payload-less request frame (``OP_STATS``/``OP_PING``/``OP_QUIT``)."""
    return frame(bytes([opcode]))


def decode_request(body: bytes) -> tuple[int, bytes]:
    """Split a request body into ``(opcode, payload)``.

    Raises:
        ProtocolError: on an empty body.
    """
    if not body:
        raise ProtocolError("empty request frame")
    return body[0], body[1:]


def decode_execute(payload: bytes) -> tuple[int, tuple[str, ...]]:
    """Decode an ``OP_EXECUTE`` payload into ``(statement_id, params)``.

    Raises:
        ProtocolError: on truncated or trailing bytes.
    """
    try:
        (statement_id,) = _U32.unpack_from(payload, 0)
        (nparams,) = _U16.unpack_from(payload, 4)
    except struct.error as exc:
        raise ProtocolError("truncated EXECUTE header") from exc
    offset = 6
    params = []
    for _ in range(nparams):
        value, offset = _unpack_str(payload, offset)
        params.append(value)
    if offset != len(payload):
        raise ProtocolError("trailing bytes after EXECUTE params")
    return statement_id, tuple(params)


# -- the result body ----------------------------------------------------------


def encode_result_body(result: QueryResult) -> bytes:
    """The canonical binary rendering of a query result.

    Cell strings are exactly the text protocol's
    :func:`~repro.server.protocol.format_value` renderings, so text and
    binary clients decode *identical* strings — only the framing
    differs (no escaping is needed; lengths delimit the cells).
    """
    parts = [_U16.pack(len(result.columns))]
    parts.extend(_pack_str(c) for c in result.columns)
    parts.append(_U32.pack(len(result.rows)))
    for row in result.rows:
        parts.extend(_pack_str(format_value(v)) for v in row)
    return b"".join(parts)


def decode_result_body(body: bytes, offset: int = 0,
                       ) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """Decode ``(columns, rows)`` from a result body.

    Raises:
        ProtocolError: on truncated or trailing bytes.
    """
    try:
        (ncols,) = _U16.unpack_from(body, offset)
    except struct.error as exc:
        raise ProtocolError("truncated result body") from exc
    offset += 2
    columns = []
    for _ in range(ncols):
        name, offset = _unpack_str(body, offset)
        columns.append(name)
    try:
        (nrows,) = _U32.unpack_from(body, offset)
    except struct.error as exc:
        raise ProtocolError("truncated result body") from exc
    offset += 4
    rows: list[tuple[str, ...]] = []
    for _ in range(nrows):
        cells = []
        for _ in range(ncols):
            cell, offset = _unpack_str(body, offset)
            cells.append(cell)
        rows.append(tuple(cells))
    if offset != len(body):
        raise ProtocolError("trailing bytes after result body")
    return tuple(columns), rows


# -- responses ----------------------------------------------------------------


def ok_header(disposition: str, generation: int, nrows: int) -> bytes:
    """The fixed-size ``ST_OK`` header; append a result body (or nothing
    for acknowledgements) and wrap with :func:`frame`."""
    return _OK_HEADER.pack(ST_OK, _DISPOSITION_CODE[disposition],
                           generation, nrows)


def response_ack(disposition: str, generation: int, nrows: int) -> bytes:
    """A body-less ``ST_OK`` frame (REPACK/INSERT/DELETE/REPLAY acks)."""
    return frame(ok_header(disposition, generation, nrows))


def response_prepared(generation: int, statement_id: int,
                      nparams: int) -> bytes:
    return frame(_PREPARED.pack(ST_PREPARED, generation, statement_id,
                                nparams))


def response_error(kind: str, message: str) -> bytes:
    return frame(bytes([ST_ERR]) + _pack_str(kind) + _pack_str(message))


def response_busy(message: str) -> bytes:
    return frame(bytes([ST_BUSY]) + _pack_str(message))


def response_timeout(message: str) -> bytes:
    return frame(bytes([ST_TIMEOUT]) + _pack_str(message))


def response_pong() -> bytes:
    return frame(bytes([ST_PONG]))


def response_bye() -> bytes:
    return frame(bytes([ST_BYE]))


def response_stats(stats: dict[str, Union[int, float]]) -> bytes:
    """An ``ST_STATS`` frame.  Values keep their Python type: ints travel
    as tagged i64 and come back integral, everything else as f64."""
    parts = [bytes([ST_STATS]), _U32.pack(len(stats))]
    for name in sorted(stats):
        value = stats[name]
        parts.append(_pack_str(name))
        if isinstance(value, int) and not isinstance(value, bool):
            parts.append(b"\x01" + _STAT_IVALUE.pack(value))
        else:
            parts.append(b"\x00" + _STAT_VALUE.pack(float(value)))
    return b"".join([_U32.pack(sum(len(p) for p in parts))] + parts)


def parse_response_body(body: bytes) -> Response:
    """Parse one response body into the same :class:`Response` the text
    protocol's :func:`~repro.server.protocol.parse_response` produces.

    For ``ST_OK`` with a result body, ``Response.payload`` holds the raw
    result-body bytes — byte-identical to
    :func:`encode_result_body` of the producing execution, which is what
    the cross-protocol equivalence tests compare.

    Raises:
        ProtocolError: on malformed bodies.
    """
    if not body:
        raise ProtocolError("empty response frame")
    status = body[0]
    if status == ST_OK:
        try:
            _st, code, generation, nrows = _OK_HEADER.unpack_from(body, 0)
        except struct.error as exc:
            raise ProtocolError("truncated OK header") from exc
        if code >= len(DISPOSITIONS):
            raise ProtocolError(f"unknown cache disposition code {code}")
        disposition = DISPOSITIONS[code]
        response = BinaryResponse(status="ok",
                                  cached=(disposition == "cached"),
                                  generation=generation, nrows=nrows)
        payload = body[_OK_HEADER.size:]
        response.payload = payload
        response._lazy = bool(payload)
        return response
    if status == ST_PREPARED:
        try:
            _st, generation, statement_id, nparams = \
                _PREPARED.unpack_from(body, 0)
        except struct.error as exc:
            raise ProtocolError("truncated PREPARED response") from exc
        if len(body) != _PREPARED.size:
            raise ProtocolError("trailing bytes after PREPARED response")
        response = Response(status="ok", generation=generation,
                            nrows=statement_id)
        response.stats["statement.nparams"] = nparams
        return response
    if status == ST_ERR:
        kind, offset = _unpack_str(body, 1)
        message, offset = _unpack_str(body, offset)
        if offset != len(body):
            raise ProtocolError("trailing bytes after ERR response")
        return Response(status="error", error_kind=kind or "Error",
                        error_message=message)
    if status == ST_BUSY:
        message, _ = _unpack_str(body, 1)
        return Response(status="busy", error_message=message)
    if status == ST_TIMEOUT:
        message, _ = _unpack_str(body, 1)
        return Response(status="timeout", error_message=message)
    if status == ST_PONG:
        return Response(status="pong")
    if status == ST_BYE:
        return Response(status="bye")
    if status == ST_STATS:
        try:
            (count,) = _U32.unpack_from(body, 1)
        except struct.error as exc:
            raise ProtocolError("truncated STATS response") from exc
        offset = 5
        response = Response(status="ok")
        for _ in range(count):
            name, offset = _unpack_str(body, offset)
            if offset >= len(body):
                raise ProtocolError("truncated STAT entry")
            tag = body[offset]
            offset += 1
            try:
                if tag == 1:
                    (value,) = _STAT_IVALUE.unpack_from(body, offset)
                elif tag == 0:
                    (value,) = _STAT_VALUE.unpack_from(body, offset)
                else:
                    raise ProtocolError(f"unknown STAT value tag {tag}")
            except struct.error as exc:
                raise ProtocolError("truncated STAT value") from exc
            offset += 8
            response.stats[name] = value
        if offset != len(body):
            raise ProtocolError("trailing bytes after STATS response")
        generation = response.stats.get("server.generation")
        if generation is not None:
            response.generation = int(generation)
        return response
    raise ProtocolError(f"unknown response status {status}")
