import math
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manetsim.analyze import (interval_series, parse_metrics_csv, parse_trace_text, read_trace,
                              victim_energy_series)
from manetsim.config import MAX_TIMER_FIRINGS, load_config, validate_config
from manetsim.engine import Simulation
from manetsim import model
from manetsim.model import READ_BYTES, PacketKind, ParseError, TraceEvent

from .conftest import CONFIG_DIR, DATA_DIR, run_traced, write_events


def test_golden_trace_parses_line_by_line():
    events = read_trace(str(DATA_DIR / "golden_3node.tr"))
    assert len(events) == 129
    assert all(len(e.format_line().split()) == 12 for e in events)


def test_simulator_output_round_trips_through_parser(tmp_path):
    cfg = validate_config({"stop": 5, "seed": 13})
    trace, _ = run_traced(cfg)
    write_events(tmp_path / "trace.tr", trace)
    assert read_trace(str(tmp_path / "trace.tr")) == trace


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_series_of_the_run_equals_series_of_its_written_trace(path, tmp_path):
    # Record times are quantized where they are made, so windows agree exactly.
    cfg = load_config(str(path))
    trace, _ = run_traced(cfg)
    write_events(tmp_path / "trace.tr", trace)
    written = read_trace(str(tmp_path / "trace.tr"))
    victim = cfg.attacker_target
    assert interval_series(written, 0.1, victim) == interval_series(trace, 0.1, victim)


def test_malformed_line_reports_its_number():
    text = ("s 0.100000 0 1 DATA 100 --- 1 0 1 0 0\n"
            "r 0.200000 1 0 DATA 100 --- 1 0 1 0\n")  # 11 tokens
    with pytest.raises(ParseError) as exc:
        parse_trace_text(text)
    assert exc.value.lineno == 2
    assert "expected 12 fields" in str(exc.value)


def test_negative_time_is_rejected_not_binned_last():
    # Negative indexing once counted this drop in the last window.
    text = ("d -0.500000 0 1 DATA 100 --- 1 0 1 0 0\n"
            "d 2.500000 0 1 DATA 100 --- 1 0 1 0 1\n")
    with pytest.raises(ParseError) as exc:
        parse_trace_text(text)
    assert exc.value.lineno == 1
    assert "time is negative" in str(exc.value)


def test_blank_lines_are_ignored():
    text = "\ns 0.100000 0 1 DATA 100 --- 1 0 1 0 0\n\n"
    assert len(parse_trace_text(text)) == 1


_REF_INT_FIELDS = ((2, "source"), (3, "destination"), (5, "pkt_size"), (7, "fid"),
                   (8, "src_addr"), (9, "dst_addr"), (10, "seq_num"), (11, "pkt_id"))


def reference_parse_line(line, lineno=1):
    """Reference trace line parser: every check in turn, then keyword construction."""
    tokens = line.split()
    if len(tokens) != 12:
        raise ParseError(lineno, f"expected 12 fields, got {len(tokens)}")
    if tokens[0] not in ("s", "r", "d", "f"):
        raise ParseError(lineno, f"unknown event symbol {tokens[0]!r}")
    if tokens[4] not in tuple(k.value for k in PacketKind):
        raise ParseError(lineno, f"unknown packet type {tokens[4]!r}")
    try:
        time = float(tokens[1])
    except ValueError:
        raise ParseError(lineno, f"time is not a number: {tokens[1]!r}") from None
    if not math.isfinite(time):
        raise ParseError(lineno, f"time is not finite: {tokens[1]!r}")
    if time < 0.0:
        raise ParseError(lineno, f"time is negative: {tokens[1]!r}")
    values = {}
    for idx, name in _REF_INT_FIELDS:
        try:
            values[name] = int(tokens[idx])
        except ValueError:
            raise ParseError(lineno, f"{name} is not an integer: {tokens[idx]!r}") from None
    return TraceEvent(event=tokens[0], time=round(time, 6), pkt_type=tokens[4],
                      flags=tokens[6], **values)


def reference_parse_text(text):
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        events.append(reference_parse_line(line, lineno))
    return events


def _outcome(parse, text):
    """The events as reprs, which tell -0.0 from 0.0 and 1 from 1.0, or the error."""
    try:
        return [repr(e) for e in parse(text)]
    except ParseError as exc:
        return exc.lineno, str(exc)


# Tokens that are valid in some columns and not in others, or only by
# Python's literal rules: signs, underscores, non-ASCII digits, exponents,
# non-finite and negative-zero times, more than 6 decimals, and an integer
# past int()'s default 4300-digit limit.
_odd_token = st.sampled_from(["+5", "1_0", "\u0663", "1e3", "nan", "-inf", "-0.0",
                              "0.9999999", "1" * 5000, "-7", "x", "RREP", "r", "---"])
_time_token = st.one_of(st.floats(0.0, 1e6).map(lambda t: f"{t:.6f}"),
                        st.floats(0.0, 1e6).map(repr), st.integers(0, 99).map(str))
_int_token = st.integers(0, 2**32).map(str)
# Mostly single spaces; the rest split tokens too (tabs, vertical tab) or also
# end the line for str.splitlines (form feed, NEL, line separator).
_separator = st.sampled_from([" "] * 8 + ["  ", "\t", " \t ", "\x0b", "\x0c", "\x85",
                                          "\u2028"])


@st.composite
def _trace_line(draw):
    tokens = [draw(st.sampled_from("srdf")), draw(_time_token), draw(_int_token),
              draw(_int_token), draw(st.sampled_from([k.value for k in PacketKind])),
              draw(_int_token), "---", draw(_int_token), draw(_int_token),
              draw(_int_token), draw(_int_token), draw(_int_token)]
    for idx in draw(st.lists(st.integers(0, 11), max_size=2)):
        tokens[idx] = draw(_odd_token)
    if draw(st.integers(0, 9)) == 0:
        del tokens[draw(st.integers(0, 11))]
    line = draw(st.sampled_from(["", " ", "\t"]))
    for token in tokens:
        line += token + draw(_separator)
    return line


_blank_line = st.sampled_from(["", " ", "\t", " \x0b ", "\x1c"])


@settings(max_examples=400)
@given(lines=st.lists(st.one_of(_trace_line(), _blank_line), max_size=6),
       newline=st.sampled_from(["\n", "\r\n", "\r"]))
@example(lines=["s 1.0 3 x DATA 1e3 --- 1 25 0 12 7"], newline="\n")
@example(lines=["s 1.0 3 4 DATA 100 --- 1 25 0 +12 1_000", "",
                "d -0.0 \u0663 4 RREQ 24 --- 0 0 2 1 2"], newline="\n")
@example(lines=["x 1.0 3 4 BOGUS 100 --- 1 25 0 12 7"], newline="\n")
@example(lines=["s nan 3 4 DATA x --- 1 25 0 12 7"], newline="\n")
@example(lines=["s -inf 3 4 DATA 100 --- 1 25 0 12 7"], newline="\n")
@example(lines=["s 0.9999999 3 4 DATA 100 --- 1 25 0 12 7"], newline="\n")
def test_parser_matches_the_reference(lines, newline):
    text = newline.join(lines)
    assert _outcome(parse_trace_text, text) == _outcome(reference_parse_text, text)
    for line in text.splitlines():
        if line.strip():
            assert _outcome(parse_trace_text, line) == _outcome(reference_parse_text, line)


# Every boundary at which str.splitlines ends a line.
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]


@settings(max_examples=300)
@given(lines=st.lists(st.tuples(st.one_of(_trace_line(), _blank_line),
                                st.sampled_from(_LINE_ENDS)), max_size=8),
       last_ended=st.booleans(), read_bytes=st.sampled_from([1, 2, 3, 5, 8, READ_BYTES]))
@example(lines=[("s 0.100000 0 1 DATA 100 --- 1 0 1 0 0", "\r"), ("s 0.2 0 1", "\r")],
         last_ended=True, read_bytes=READ_BYTES)
@example(lines=[("s 0.1 0 1 DATA 100 --- 1 0 1 0 0", "\u2028"), ("", "\r"), ("", "\n"),
                ("d 0.2 0 1 HELLO 16 --- 0 0 1 0 1", "\x85")], last_ended=False,
         read_bytes=READ_BYTES)
@example(lines=[("", "\r\n"), ("", "\r\n"), ("", "\r")], last_ended=True, read_bytes=1)
def test_reading_a_file_equals_parsing_its_text(tmp_path_factory, lines, last_ended,
                                                read_bytes):
    # Small reads cut the runs at every kind of place, a \r\n pair included.
    text = "".join(line + end for line, end in lines)
    if lines and not last_ended:
        text = text[:-len(lines[-1][1])]
    path = tmp_path_factory.getbasetemp() / "read_equals_parse.tr"
    path.write_bytes(text.encode("utf-8"))
    try:
        model.READ_BYTES = read_bytes
        outcome = _outcome(read_trace, str(path))
    finally:
        model.READ_BYTES = READ_BYTES
    assert outcome == _outcome(parse_trace_text, text)


@pytest.mark.parametrize("content,error", [
    (b"s 0.100000 0 1 DATA 100 --- 1 0 1 0\ns 0.2\xc3 0 1\n",
     "line 1: expected 12 fields, got 11"),
    (b"s 0.1 0 1\rs 0.2\xc3 0 1\n", "line 1: expected 12 fields, got 4"),
    (b"\n\x0c\r\n\xc2\x85\xff", "line 5: not UTF-8 (invalid start byte)"),
], ids=["malformed-line-1", "malformed-line-1-same-run", "blank-lines"])
def test_the_first_defect_in_file_order_is_reported(tmp_path, content, error):
    path = tmp_path / "trace.tr"
    path.write_bytes(content)
    with pytest.raises(ParseError) as exc:
        read_trace(str(path))
    assert str(exc.value) == error


@pytest.fixture(scope="module")
def saodv_trace():
    trace, _ = run_traced(load_config(str(CONFIG_DIR / "table1_saodv.cfg")))
    assert len(trace) >= 20_000
    return trace


def _read_measured(path):
    """The records ``read_trace`` returns and the bytes it held beyond them at its peak."""
    tracemalloc.start()
    try:
        events = read_trace(str(path))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return events, peak - retained


def test_a_file_of_cr_line_ends_is_read_in_runs_too(tmp_path, saodv_trace):
    path = tmp_path / "trace.tr"
    path.write_bytes("".join(e.format_line() + "\r" for e in saodv_trace).encode("utf-8"))
    events, transient = _read_measured(path)
    assert events == saodv_trace
    assert transient < path.stat().st_size / 4


def test_reading_keeps_the_records_and_no_copy_of_the_file(tmp_path, saodv_trace):
    path = tmp_path / "trace.tr"
    write_events(path, saodv_trace)
    events, transient = _read_measured(path)
    assert events == saodv_trace
    assert transient < path.stat().st_size / 4
    for field in ("pkt_type", "flags"):
        values = [getattr(e, field) for e in events]
        assert len({id(v) for v in values}) == len(set(values))


def test_empty_trace_yields_empty_series():
    assert interval_series([], 1.0, node=0) == []


def test_single_drop_counted_in_first_window():
    text = ("s 0.100000 0 1 DATA 100 --- 1 0 1 0 0\n"
            "d 0.500000 0 1 DATA 100 --- 1 5 0 0 1\n"
            "r 1.500000 0 1 DATA 100 --- 1 5 0 0 2\n")
    rows = interval_series(parse_trace_text(text), 1.0, node=0)
    drops = [row[1] for row in rows]
    assert drops == [1, 0]
    assert rows[0][2] == 100  # dropped bytes in the first window
    assert [row[3] for row in rows] == [0, 1]  # the reception lands in window 2


def test_cumulative_data_loss_is_network_wide_and_monotone():
    text = ("d 0.100000 3 1 DATA 100 --- 1 5 0 0 1\n"
            "d 1.100000 4 1 DATA 100 --- 1 5 0 0 2\n"
            "d 1.200000 4 1 RREQ 24 --- 0 5 0 0 3\n")  # control drop: not loss
    rows = interval_series(parse_trace_text(text), 1.0, node=0)
    assert [row[4] for row in rows] == [1, 2]


def test_interval_must_be_positive():
    for interval in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            interval_series([], interval, node=0)


def test_window_count_is_capped_like_a_timer():
    [last] = parse_trace_text(f"r {MAX_TIMER_FIRINGS + 1} 0 1 DATA 100 --- 1 0 1 0 0")
    with pytest.raises(ValueError, match=f"ending at {last.time!r} s"):
        interval_series([last], 1.0, node=0)


def test_metrics_csv_round_trip_helpers():
    cfg = validate_config({"stop": 4, "seed": 3})
    report = Simulation(cfg).run()
    rows = parse_metrics_csv(report.metrics_csv())
    assert len(rows) == len(report.samples)
    assert victim_energy_series(rows, [0.5, 2.0]) == [None, pytest.approx(report.samples[1][3])]


def victim_energy_at(metrics_rows, t):
    """Reference join: rescan the rows from the start for one window end, at 6 decimals."""
    best = None
    for row in metrics_rows:
        if Decimal(f"{row['t']:.6f}") <= Decimal(f"{t:.6f}"):
            best = row["victim_energy"]
        else:
            break
    return best


# Steps between sample times and offsets of window ends from them, both near
# half of the sixth decimal, so ties and near-ties at 6 decimals come up often.
_near = st.sampled_from([0.0, 5e-7, -5e-7, 4.9e-7, -4.9e-7, 5.1e-7, -5.1e-7, 1e-6, -1e-6,
                         1e-9, -1e-9, 0.25, 1.0])


@given(steps=st.lists(_near.map(abs), max_size=12),
       ends=st.lists(st.tuples(st.integers(0, 12), _near), max_size=12),
       start=st.sampled_from([0.0, 0.1, 3.0]))
def test_energy_walk_matches_a_rescan_per_window(steps, ends, start):
    # Sample times as metrics.csv stores them, at 6 decimals.
    times = [round(start + sum(steps[:i + 1]), 6) for i in range(len(steps))]
    rows = [{"t": t, "victim_energy": float(i)} for i, t in enumerate(times)]
    window_ends = sorted((times[i % len(times)] if times else start) + offset
                         for i, offset in ends)
    assert victim_energy_series(rows, window_ends) == [victim_energy_at(rows, end)
                                                       for end in window_ends]


@pytest.mark.parametrize("text,lineno,message", [
    ("t,victim_energy\n0.5,abc\n", 2, "victim_energy is not a number: 'abc'"),
    ("t,energy\n1,2\n", 1, "header lacks victim_energy"),
    ("t,victim_energy\n\n1,2,3\n", 3, "expected 2 fields, got 3"),
    ("t,victim_energy\n2,1\n1,1\n", 3, "t must be finite and non-decreasing, got 1.0"),
    ("t,victim_energy\ninf,1\n", 2, "t must be finite and non-decreasing, got inf"),
])
def test_malformed_metrics_csv_reports_its_line(text, lineno, message):
    with pytest.raises(ParseError) as exc:
        parse_metrics_csv(text)
    assert exc.value.lineno == lineno
    assert str(exc.value) == f"line {lineno}: {message}"
