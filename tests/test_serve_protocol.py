"""Tests for the serve wire protocol (repro.serve.protocol).

The contract: one JSON object per line, ``op`` defaulting to ``observe``,
strict key validation, and malformed lines rejected with a pointed
``line N: ...`` error carrying the 1-based line number — the same shape as
:class:`repro.trace.import_dumpi.DumpiParseError`.
"""

import json
import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServeService
from repro.serve.protocol import (
    MAX_HORIZON,
    OPS,
    ServeEvent,
    ServeProtocolError,
    encode_event,
    encode_response,
    parse_event_line,
)
from repro.serve.protocol import _coerce_count, _coerce_key


def generic(response: dict) -> str:
    """What ``encode_response`` must equal: the stock encoder, wire settings."""
    return json.dumps(response, sort_keys=True, separators=(",", ":"))


class TestParseEventLine:
    def test_observe_is_the_default_op(self):
        event = parse_event_line('{"receiver": 3, "sender": 1, "nbytes": 4096}')
        assert event == ServeEvent(op="observe", receiver="3", sender=1, nbytes=4096)

    def test_int_and_string_receivers_share_a_key_space(self):
        by_int = parse_event_line('{"receiver": 7, "sender": 0, "nbytes": 1}')
        by_str = parse_event_line('{"receiver": "7", "sender": 0, "nbytes": 1}')
        assert by_int.receiver == by_str.receiver == "7"

    def test_predict_with_optional_horizon(self):
        event = parse_event_line('{"op": "predict", "receiver": "cam-1", "horizon": 3}')
        assert event.op == "predict"
        assert event.receiver == "cam-1"
        assert event.horizon == 3
        assert parse_event_line('{"op": "predict", "receiver": "cam-1"}').horizon is None

    def test_all_ops_parse_with_required_keys_only(self):
        samples = {
            "observe": '{"op": "observe", "receiver": 0, "sender": 1, "nbytes": 2}',
            "predict": '{"op": "predict", "receiver": 0}',
            "expects": '{"op": "expects", "receiver": 0, "sender": 1}',
            "stats": '{"op": "stats"}',
            "flush": '{"op": "flush"}',
            "snapshot": '{"op": "snapshot", "dir": "/tmp/x"}',
            "shutdown": '{"op": "shutdown"}',
        }
        assert sorted(samples) == sorted(OPS)
        for op, line in samples.items():
            assert parse_event_line(line).op == op

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("not json at all", "invalid JSON"),
            ("[1, 2, 3]", "must be a JSON object"),
            ('{"op": "bogus"}', "unknown op 'bogus'"),
            ('{"op": []}', "unknown op []"),
            ('{"op": {"a": 1}}', "unknown op {'a': 1}"),
            ('{"op": "observe", "receiver": 0}', "requires"),
            ('{"op": "stats", "receiver": 0}', "does not take receiver"),
            ('{"op": "observe", "receiver": true, "sender": 0, "nbytes": 0}', "receiver"),
            ('{"op": "observe", "receiver": "", "sender": 0, "nbytes": 0}', "must not be empty"),
            ('{"op": "observe", "receiver": 0, "sender": -1, "nbytes": 0}', "sender must be >= 0"),
            ('{"op": "observe", "receiver": 0, "sender": 0, "nbytes": 1.5}', "nbytes"),
            ('{"op": "predict", "receiver": 0, "horizon": 0}', "horizon must be >= 1"),
            # 2**70 / 2**63: parse as Python ints but do not fit the int64 streams.
            (
                '{"receiver": 1, "sender": 2, "nbytes": 1180591620717411303424}',
                "nbytes must be <= 2**63 - 1",
            ),
            (
                '{"receiver": 1, "sender": 9223372036854775808, "nbytes": 0}',
                "sender must be <= 2**63 - 1",
            ),
            (
                '{"op": "predict", "receiver": 0, "horizon": 9223372036854775808}',
                "horizon must be <= 2**63 - 1",
            ),
            ('{"op": "predict", "receiver": 0, "horizon": 1025}', "horizon must be <= 1024, got 1025"),
            (
                '{"op": "predict", "receiver": "a", "horizon": 400000000}',
                "horizon must be <= 1024, got 400000000",
            ),
            # Valid JSON, but routing and snapshots hold keys as UTF-8.
            ('{"op": "predict", "receiver": "\\ud800"}', "receiver key must be encodable as UTF-8"),
            ('{"op": "snapshot", "dir": ""}', "dir must be a non-empty string"),
            ('{"op": "snapshot", "dir": 7}', "dir must be a non-empty string"),
            # Path.mkdir raises ValueError (not OSError) on a NUL and
            # UnicodeEncodeError on a lone surrogate: reject both up front.
            ('{"op": "snapshot", "dir": "a\\u0000b"}', "line 12: dir must not contain NUL"),
            ('{"op": "snapshot", "dir": "\\u0000"}', "dir must not contain NUL"),
            ('{"op": "snapshot", "dir": "snap\\ud800"}', "dir must be encodable as UTF-8"),
            ('{"op": "snapshot", "dir": "\\udc80/x"}', "dir must be encodable as UTF-8"),
            ("", "empty event line"),
            # The decoder recurses once per level: 5 KB of brackets exhausts
            # the interpreter's stack well inside the 64 KB line bound.
            pytest.param("[" * 5000, "line 12: invalid JSON: nested too deeply", id="deep-array"),
            pytest.param(
                '{"a":' * 3000, "line 12: invalid JSON: nested too deeply", id="deep-object"
            ),
            # 5 KB of digits is past the interpreter's integer-string limit:
            # the scanner raises a plain ValueError, not a JSONDecodeError.
            pytest.param(
                '{"receiver":1,"nbytes":1,"sender":' + "9" * 5000 + "}",
                "line 12: invalid JSON: integer too long",
                id="long-integer",
            ),
        ],
    )
    def test_malformed_lines_are_rejected(self, line, fragment):
        with pytest.raises(ServeProtocolError) as excinfo:
            parse_event_line(line, line_number=12)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"op":"flush"} x', "invalid JSON: Extra data"),
            ('{"receiver": 1} {"a": 2}', "invalid JSON: Extra data"),
            ('\ufeff{"op":"flush"}', "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ("flush", "invalid JSON: Expecting value"),
            ('{"receiver": "abc', "invalid JSON: Unterminated string starting at"),
            ('{"receiver": 1', "invalid JSON: Expecting ',' delimiter"),
            ('{"receiver": 1,}', "invalid JSON: Expecting property name enclosed in double quotes"),
            ("12", "event must be a JSON object, got int"),
            ("NaN", "event must be a JSON object, got float"),
            (
                '{"receiver": null, "sender": 0, "nbytes": 0}',
                "receiver must be an int or string, got None",
            ),
            ('{"receiver": 0, "sender": true, "nbytes": 0}', "sender must be an integer, got True"),
            ('{"receiver": 0, "sender": 1.0, "nbytes": 0}', "sender must be an integer, got 1.0"),
            ('{"receiver": 0, "sender": 0, "nbytes": -1}', "nbytes must be >= 0, got -1"),
            (
                '{"receiver": 0, "sender": 0, "nbytes": 9223372036854775808}',
                "nbytes must be <= 2**63 - 1, got 9223372036854775808",
            ),
            # An optional key spelled out as null is not an absent key.
            (
                '{"op": "predict", "receiver": 0, "horizon": null}',
                "horizon must be an integer, got None",
            ),
            (
                '{"op": "expects", "receiver": 0, "sender": 1, "nbytes": null}',
                "nbytes must be an integer, got None",
            ),
            (
                '{"op": "predict", "receiver": "\\ud800"}',
                "receiver key must be encodable as UTF-8, got '\\ud800'",
            ),
            # A missing and an unknown key on one line: the missing one is reported.
            ('{"op": "expects", "receiver": 0, "extra": 1}', "op 'expects' requires sender"),
            (
                '{"op": "stats", "zeta": 1, "alpha": 2}',
                "op 'stats' does not take alpha, zeta (allowed: (no keys))",
            ),
            (
                '{"op": "predict", "receiver": 0, "sender": 1}',
                "op 'predict' does not take sender (allowed: receiver, horizon)",
            ),
            (
                '{"op": ["x"]}',
                "unknown op ['x']; known ops: expects, flush, observe, predict, shutdown, "
                "snapshot, stats",
            ),
        ],
    )
    def test_error_texts_are_pinned(self, line, message):
        """Whole messages, captured before the parser called the scanner itself."""
        with pytest.raises(ServeProtocolError) as excinfo:
            parse_event_line(line, line_number=12)
        assert str(excinfo.value) == f"line 12: {message}"

    def test_non_ascii_key_is_accepted_and_routed_by_its_utf8_bytes(self):
        event = parse_event_line('{"op": "predict", "receiver": "caméra-\u00e9"}')
        assert event == ServeEvent(op="predict", receiver="caméra-é")
        service = ServeService(num_shards=4)
        assert service.shard_index_for(event.receiver) == zlib.crc32("caméra-é".encode()) % 4

    def test_largest_int64_count_is_accepted(self):
        event = parse_event_line('{"receiver": 1, "sender": 0, "nbytes": 9223372036854775807}')
        assert event.nbytes == 2**63 - 1

    def test_largest_horizon_is_accepted(self):
        assert MAX_HORIZON == 1024
        event = parse_event_line('{"op": "predict", "receiver": 0, "horizon": 1024}')
        assert event.horizon == MAX_HORIZON

    def test_error_carries_dumpi_style_line_number(self):
        # Mirrors DumpiParseError: "line N: ..." message plus a .line_number.
        with pytest.raises(ServeProtocolError) as excinfo:
            parse_event_line("garbage", line_number=41)
        assert str(excinfo.value).startswith("line 41: ")
        assert excinfo.value.line_number == 41
        assert isinstance(excinfo.value, ValueError)


class TestEncoding:
    def test_encode_event_round_trips(self):
        line = encode_event(receiver="cam-1", sender=2, nbytes=512)
        assert parse_event_line(line) == ServeEvent(
            op="observe", receiver="cam-1", sender=2, nbytes=512
        )

    def test_encode_event_drops_none_values(self):
        line = encode_event(op="predict", receiver=0, horizon=None)
        assert json.loads(line) == {"op": "predict", "receiver": 0}

    def test_encode_response_is_deterministic(self):
        a = encode_response({"b": 1, "a": 2})
        b = encode_response({"a": 2, "b": 1})
        assert a == b == '{"a":2,"b":1}'
        assert "\n" not in a

    def test_predict_answer_is_formatted_to_the_generic_bytes(self):
        answer = {
            "op": "predict",
            "receiver": 'cam "1"\\ \x01 é \ud800',
            "known": True,
            "predictions": [
                {"sender": 3, "nbytes": None},
                {"sender": None, "nbytes": 2**63 - 1},
                {"sender": 0, "nbytes": 0},
            ],
        }
        assert encode_response(answer) == generic(answer)
        unknown = {"op": "predict", "receiver": "r", "known": False, "predictions": []}
        assert encode_response(unknown) == generic(unknown) == (
            '{"known":false,"op":"predict","predictions":[],"receiver":"r"}'
        )

    @pytest.mark.parametrize(
        "look_alike",
        [
            {"error": "no such directory", "op": "predict"},
            {"op": "predict", "receiver": "r", "known": True, "predictions": [], "line": 3},
            {"receiver": "r", "known": True, "predictions": [], "sender": 1},
            {"op": "expects", "receiver": "r", "known": True, "predictions": []},
        ],
    )
    def test_predict_look_alikes_take_the_generic_encoder(self, look_alike):
        assert encode_response(look_alike) == generic(look_alike)


_field = st.one_of(st.none(), st.integers(min_value=0, max_value=2**63 - 1))
_predict_answers = st.builds(
    lambda receiver, predictions, known: {
        "op": "predict",
        "receiver": receiver,
        "known": known,
        "predictions": [{"sender": s, "nbytes": b} for s, b in predictions],
    },
    # Any code point, surrogates included: quotes, backslashes, control
    # characters and non-ASCII are all escaped by the encoder.
    st.text(st.characters(), min_size=1),
    st.lists(st.tuples(_field, _field), max_size=MAX_HORIZON),
    st.booleans(),
)

_json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=2**64),
    st.sampled_from([0, 1, 5, MAX_HORIZON, MAX_HORIZON + 1, 2**63 - 1]),
    st.floats(allow_nan=False),
    st.text(st.characters(), max_size=8),
    st.lists(st.integers(), max_size=2),
)
# Lines of the protocol's own vocabulary with arbitrary values, some of which
# parse; well-formed lines on a few keys, so that answers come from streams
# with history; and (below) arbitrary text, most of which is not JSON.
_event_lines = st.dictionaries(
    st.sampled_from(["op", "receiver", "sender", "nbytes", "horizon", "dir", "extra"]),
    st.one_of(_json_values, st.sampled_from(sorted(OPS))),
    max_size=5,
).map(json.dumps)
_counts = st.sampled_from([0, 1, 2, 512, 2**63 - 1])
_keys = st.sampled_from(["a", "b", 0, "é"])
_good_lines = st.one_of(
    st.builds(lambda r, s, b: encode_event(receiver=r, sender=s, nbytes=b), _keys, _counts, _counts),
    st.builds(
        lambda r, h: encode_event(op="predict", receiver=r, horizon=h),
        _keys,
        st.sampled_from([None, 1, 5, 300, MAX_HORIZON]),
    ),
    st.builds(
        lambda r, s, b: encode_event(op="expects", receiver=r, sender=s, nbytes=b),
        _keys,
        _counts,
        st.one_of(st.none(), _counts),
    ),
    st.sampled_from(['{"op":"stats"}', '{"op":"flush"}']),
)


_deep_lines = st.one_of(
    st.integers(1_000, 60_000).map("[".__mul__),
    st.integers(1_000, 12_000).map('{"a":'.__mul__),
    # Digits past the interpreter's integer-string limit (4300), inside the line bound.
    st.integers(4301, 60_000).map(lambda n: '{"receiver":1,"nbytes":1,"sender":' + "9" * n + "}"),
)

_scalar_lines = st.dictionaries(
    st.sampled_from(["op", "receiver", "sender", "nbytes", "horizon", "dir", "extra"]),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-2, max_value=2**64),
        st.sampled_from([0, 1, 5, MAX_HORIZON, MAX_HORIZON + 1, 2**63 - 1, 2**63]),
        st.floats(),
        st.text(st.characters(), max_size=8),
        st.sampled_from(sorted(OPS)),
    ),
).map(json.dumps)


def parent_parse_event_line(line: str, line_number: int = 1) -> ServeEvent:
    """The parser as it was before it called the C scanner itself, verbatim
    (``OPS`` then held only the two key tuples): the reference of
    ``test_new_parser_equals_the_parent_parser``."""
    text = line.strip()
    if not text:
        raise ServeProtocolError(line_number, "empty event line")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ServeProtocolError(line_number, f"invalid JSON: {error.msg}") from None
    except RecursionError:  # "[" * 5000: the decoder recurses once per level
        raise ServeProtocolError(line_number, "invalid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise ServeProtocolError(
            line_number, f"event must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.pop("op", "observe")
    if not isinstance(op, str) or op not in OPS:  # `in` would hash a list or object
        raise ServeProtocolError(
            line_number, f"unknown op {op!r}; known ops: {', '.join(sorted(OPS))}"
        )
    required, optional = OPS[op][:2]
    missing = [key for key in required if key not in payload]
    if missing:
        raise ServeProtocolError(line_number, f"op {op!r} requires {', '.join(missing)}")
    unknown = [key for key in payload if key not in required and key not in optional]
    if unknown:
        allowed = ", ".join((*required, *optional)) or "(no keys)"
        raise ServeProtocolError(
            line_number,
            f"op {op!r} does not take {', '.join(sorted(unknown))} (allowed: {allowed})",
        )

    fields: dict = {"op": op}
    if "receiver" in payload:
        fields["receiver"] = _coerce_key(payload["receiver"], line_number)
    if "sender" in payload:
        fields["sender"] = _coerce_count(payload["sender"], "sender", line_number)
    if "nbytes" in payload:
        fields["nbytes"] = _coerce_count(payload["nbytes"], "nbytes", line_number)
    if "horizon" in payload:
        horizon = _coerce_count(payload["horizon"], "horizon", line_number, minimum=1)
        if horizon > MAX_HORIZON:
            raise ServeProtocolError(
                line_number, f"horizon must be <= {MAX_HORIZON}, got {horizon}"
            )
        fields["horizon"] = horizon
    if "dir" in payload:
        directory = payload["dir"]
        if not isinstance(directory, str) or not directory:
            raise ServeProtocolError(
                line_number, f"dir must be a non-empty string, got {directory!r}"
            )
        if "\0" in directory:  # Path.mkdir raises ValueError, not OSError
            raise ServeProtocolError(line_number, "dir must not contain NUL")
        try:
            directory.encode("utf-8")
        except UnicodeEncodeError:
            raise ServeProtocolError(
                line_number, f"dir must be encodable as UTF-8, got {directory!r}"
            ) from None
        fields["dir"] = directory
    return ServeEvent(**fields)


def outcome(parser, line):
    try:
        return parser(line, 7)
    except ServeProtocolError as error:
        return str(error)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(answer=_predict_answers)
    def test_direct_predict_answer_equals_the_generic_encoder(self, answer):
        assert encode_response(answer) == generic(answer)

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(st.text(), _event_lines, _good_lines, _deep_lines), max_size=40
        )
    )
    def test_every_parsed_line_is_survivable(self, lines):
        """Structured error or an encodable answer — never an exception.

        ``snapshot`` and ``shutdown`` are the front end's business (file
        system, stopping) and are left out; ``snapshot``'s parser half is
        the next property.
        """
        service = ServeService(num_shards=2, max_streams=4)
        for number, line in enumerate(lines, start=1):
            try:
                event = parse_event_line(line, number)
            except ServeProtocolError as error:
                assert str(error).startswith(f"line {number}: ")
                continue
            if event.op in ("snapshot", "shutdown"):
                continue
            response = service.handle(event)
            if event.op == "observe":
                assert response is None
            else:
                assert json.loads(encode_response(response))["op"] == event.op

    @settings(max_examples=500, deadline=None)
    @given(line=st.one_of(_scalar_lines, _event_lines, _good_lines, st.text()))
    def test_new_parser_equals_the_parent_parser(self, line):
        """Equal events or equal messages, whatever the line says."""
        assert outcome(parse_event_line, line) == outcome(parent_parse_event_line, line)

    @settings(max_examples=200, deadline=None)
    @given(
        directory=st.one_of(
            st.text(st.characters()),
            st.text(st.sampled_from(["\0", "\ud800", "\udc80", "/", "a", "é"]), max_size=6),
            st.sampled_from(["", "x" * 70_000, "\0" * 70_000]),
            _json_values,
        )
    )
    def test_a_parsed_snapshot_dir_can_only_fail_with_oserror(self, directory):
        """``Path(dir).mkdir`` raises ``ValueError`` on a NUL and
        ``UnicodeEncodeError`` on a lone surrogate, neither of which
        ``LineIngest`` catches; a ``dir`` that parses is one the file system
        can only refuse with the ``OSError`` it does catch."""
        line = json.dumps({"op": "snapshot", "dir": directory})
        try:
            event = parse_event_line(line, 3)
        except ServeProtocolError as error:
            assert str(error).startswith("line 3: ")
            return
        assert event.op == "snapshot"
        assert isinstance(event.dir, str) and event.dir
        assert b"\0" not in os.fsencode(event.dir)
