"""Message framing, byte-exact phase budgets, and fragmentation accounting."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slapx import wire
from slapx.errors import ParameterError, RejectReason, SlapxError
from slapx.wire import (HEADER_LEN, MESSAGE_CATALOG, PHASE_MESSAGES, MessageType,
                        Reader, build_message, decode_message, decode_point,
                        encode_point, fragmentation_report,
                        fragmentation_sweep, message_content, pack_fields,
                        packet_count, phase_total, unpack_fields)

PHASE_TOTALS = {"pol_ap": 2456, "pol_nd": 1944,
                "spectrum_query": 3016, "service_request": 2712}


class TestBudgets:
    def test_phase_totals_exact(self):
        for phase, total in PHASE_TOTALS.items():
            assert phase_total(phase) == total

    def test_payloads_padded_to_budget(self):
        for name, (_, budget) in MESSAGE_CATALOG.items():
            msg = build_message(name, b"x" * 100)
            assert len(msg.payload) == budget
            assert message_content(msg) == b"x" * 100

    def test_content_overflow_rejected(self):
        with pytest.raises(SlapxError):
            build_message("service_response", b"y" * 1000)

    def test_framing_roundtrip(self):
        msg = build_message("pol_ap_request", b"abc")
        decoded, rest = decode_message(msg.encode() + b"tail")
        assert decoded == msg and rest == b"tail"
        assert msg.encode()[0] == msg.type
        assert int.from_bytes(msg.encode()[1:5], "big") == len(msg.payload)

    def test_header_length(self):
        assert HEADER_LEN == 5


class TestRejectFrame:
    def test_each_reason_round_trips(self):
        for i, reason in enumerate(RejectReason):
            msg = wire.encode_reject(reason)
            assert (msg.type, msg.payload) == (MessageType.REJECT, bytes([i]))
            assert wire.decode_reject(msg.payload) == reason

    @pytest.mark.parametrize("payload", [b"", bytes([len(RejectReason)]),
                                         b"\xff", b"\x00\x00"],
                             ids=["empty", "index_11", "index_255", "two_bytes"])
    def test_malformed_payload_refused(self, payload):
        with pytest.raises(SlapxError, match="reject frame"):
            wire.decode_reject(payload)

    @pytest.mark.parametrize("mtype", [0, 8, 9, 255])
    def test_unknown_frame_type_refused(self, mtype):
        with pytest.raises(SlapxError, match="unknown frame type"):
            decode_message(bytes([mtype, 0, 0, 0, 0]))


class TestFields:
    @given(st.lists(st.binary(max_size=200), min_size=0, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, fields):
        packed = pack_fields(*fields)
        assert unpack_fields(packed, len(fields)) == fields

    def test_truncated_field(self):
        with pytest.raises(SlapxError):
            unpack_fields(b"\x00\x05ab", 1)

    def test_trailing_bytes_rejected(self):
        packed = pack_fields(b"ab", b"c")
        with pytest.raises(SlapxError, match="trailing"):
            unpack_fields(packed + b"x", 2)
        with pytest.raises(SlapxError, match="trailing"):
            unpack_fields(packed, 1)


class TestReader:
    def test_bounds(self):
        r = Reader(pack_fields(b"ab") + b"c")
        assert r.field() == b"ab"
        with pytest.raises(SlapxError):
            r.end()
        assert r.uint(1) == ord("c")
        r.end()
        with pytest.raises(SlapxError):
            r.take(1)


class TestPoint:
    @given(st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
    @settings(max_examples=100, deadline=None)
    def test_millimetres_round_trip(self, x_mm, y_mm):
        data = x_mm.to_bytes(8, "big", signed=True) + y_mm.to_bytes(8, "big", signed=True)
        assert decode_point(data) == (x_mm / 1000, y_mm / 1000)
        assert encode_point(*decode_point(data)) == data

    @given(st.binary(max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_decoded_bytes_reencode_or_raise(self, data):
        try:
            point = decode_point(data)
        except SlapxError:
            return
        assert encode_point(*point) == data

    def test_rounds_to_the_millimetre(self):
        assert encode_point(12.3454, -7.5) == (
            (12345).to_bytes(8, "big", signed=True)
            + (-7500).to_bytes(8, "big", signed=True))
        with pytest.raises(SlapxError):
            decode_point((2 ** 62 + 1).to_bytes(8, "big") + bytes(8))


class TestFragmentation:
    def test_mtu_1500_exactly_requests_fragment(self):
        report = {e.message: e for e in fragmentation_report(1500, 40)}
        assert report["spectrum_request"].packets == 2
        assert report["service_request"].packets == 2
        for name, entry in report.items():
            if name not in ("spectrum_request", "service_request"):
                assert entry.packets == 1, name

    def test_mtu_9000_nothing_fragments(self):
        assert all(e.packets == 1 for e in fragmentation_report(9000, 40))

    def test_ceiling_formula_example(self):
        assert packet_count(2920, 1500, 40) == 2

    def test_ceiling_formula_full_sweep(self):
        sweep = fragmentation_sweep(576, 9000, 40, step=1)
        for mtu, entries in sweep.items():
            for e in entries:
                assert e.packets == math.ceil(e.payload_bytes / (mtu - 40))
                assert e.header_bytes == e.packets * 40
                expected_ratio = e.header_bytes / (e.header_bytes + e.payload_bytes)
                assert e.overhead_ratio == pytest.approx(expected_ratio)

    def test_overhead_decreases_with_mtu(self):
        small = {e.message: e.overhead_ratio for e in fragmentation_report(576, 40)}
        big = {e.message: e.overhead_ratio for e in fragmentation_report(9000, 40)}
        assert all(big[m] <= small[m] for m in small)

    def test_degenerate_mtu(self):
        with pytest.raises(ParameterError):
            packet_count(1000, 40, 40)
        with pytest.raises(ParameterError):
            fragmentation_sweep(30, 9000, 40)

    @given(st.integers(1, 5000), st.integers(100, 9000))
    @settings(max_examples=100, deadline=None)
    def test_packet_count_matches_ceiling(self, payload, mtu):
        assert packet_count(payload, mtu, 40) == max(
            1, math.ceil(payload / (mtu - 40)))


class TestCatalogShape:
    def test_all_phases_covered(self):
        names = {m for pair in PHASE_MESSAGES.values() for m in pair}
        assert names == set(MESSAGE_CATALOG)

    def test_requests_above_single_packet_boundary(self):
        # only the two fragmenting messages may exceed MTU 1500 - 40
        for name, (_, size) in MESSAGE_CATALOG.items():
            if name in ("spectrum_request", "service_request"):
                assert size > 1460
            else:
                assert size <= 1460
