import pytest
from hypothesis import given
from hypothesis import strategies as st

from manetsim.analyze import parse_trace_text
from manetsim.model import ParseError, TraceEvent


def test_trace_line_format_matches_field_order():
    ev = TraceEvent(event="s", time=1.5, source=3, destination=4, pkt_type="DATA",
                    pkt_size=100, flags="---", fid=1, src_addr=25, dst_addr=0,
                    seq_num=12, pkt_id=7)
    assert ev.format_line() == "s 1.500000 3 4 DATA 100 --- 1 25 0 12 7"
    assert len(ev.format_line().split()) == 12


def test_trace_line_round_trip_exact():
    line = "d 4.906400 2 1 RREP 20 --- 0 0 2 27 36"
    [ev] = parse_trace_text(line)
    assert ev.format_line() == line


@given(
    event=st.sampled_from("srdf"),
    time=st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    source=st.integers(0, 2**32 - 1),
    destination=st.integers(0, 2**32 - 1),
    pkt_type=st.sampled_from(["RREQ", "RREP", "RERR", "HELLO", "DATA"]),
    pkt_size=st.integers(0, 10**6),
    fid=st.integers(0, 10**6),
    src_addr=st.integers(0, 2**32 - 1),
    dst_addr=st.integers(0, 2**32 - 1),
    seq_num=st.integers(0, 10**9),
    pkt_id=st.integers(0, 10**9),
)
def test_trace_event_serialization_round_trips(event, time, source, destination,
                                               pkt_type, pkt_size, fid, src_addr,
                                               dst_addr, seq_num, pkt_id):
    ev = TraceEvent(event=event, time=time, source=source, destination=destination,
                    pkt_type=pkt_type, pkt_size=pkt_size, flags="---", fid=fid,
                    src_addr=src_addr, dst_addr=dst_addr, seq_num=seq_num,
                    pkt_id=pkt_id)
    line = ev.format_line()
    assert len(line.split()) == 12
    # The text carries 6 decimals; parsing quantizes the time to them.
    assert parse_trace_text(line) == [ev._replace(time=round(ev.time, 6))]


def test_parse_rejects_wrong_token_count():
    with pytest.raises(ParseError) as exc:
        parse_trace_text("\n" * 16 + "s 1.0 3 4 DATA 100 --- 1 25 0 12")
    assert "line 17" in str(exc.value)
    assert "expected 12 fields" in str(exc.value)
    assert exc.value.lineno == 17


def test_parse_rejects_unknown_event_symbol():
    with pytest.raises(ParseError):
        parse_trace_text("x 1.0 3 4 DATA 100 --- 1 25 0 12 7")


def test_parse_rejects_unknown_packet_type():
    with pytest.raises(ParseError):
        parse_trace_text("s 1.0 3 4 BOGUS 100 --- 1 25 0 12 7")


def test_parse_rejects_non_integer_field():
    with pytest.raises(ParseError) as exc:
        parse_trace_text("s 1.0 3 4 DATA 1e2 --- 1 25 0 12 7")
    assert "pkt_size" in str(exc.value)


def test_parse_rejects_bad_time():
    with pytest.raises(ParseError):
        parse_trace_text("s abc 3 4 DATA 100 --- 1 25 0 12 7")
