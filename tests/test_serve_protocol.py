"""Tests for the serve wire protocol (repro.serve.protocol).

The contract: one JSON object per line, ``op`` defaulting to ``observe``,
strict key validation, and malformed lines rejected with a pointed
``line N: ...`` error carrying the 1-based line number — the same shape as
:class:`repro.trace.import_dumpi.DumpiParseError`.
"""

import json

import pytest

from repro.serve.protocol import (
    OPS,
    ServeEvent,
    ServeProtocolError,
    encode_event,
    encode_response,
    parse_event_line,
)


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
            ('{"op": "snapshot", "dir": ""}', "dir must be a non-empty string"),
            ("", "empty event line"),
        ],
    )
    def test_malformed_lines_are_rejected(self, line, fragment):
        with pytest.raises(ServeProtocolError) as excinfo:
            parse_event_line(line, line_number=12)
        assert fragment in str(excinfo.value)

    def test_largest_int64_count_is_accepted(self):
        event = parse_event_line('{"receiver": 1, "sender": 0, "nbytes": 9223372036854775807}')
        assert event.nbytes == 2**63 - 1

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
