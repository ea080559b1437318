import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manetsim import (TraceEvent, TraceParseError, load_config, run_scenario, validate_config,
                      write_trace)
from manetsim.analyze import (MetricsParseError, interval_series, parse_metrics_csv,
                              parse_trace_text, read_trace, victim_energy_series)
from manetsim.config import MAX_TIMER_FIRINGS

from .conftest import CONFIG_DIR, DATA_DIR


def test_golden_trace_parses_line_by_line():
    events = read_trace(str(DATA_DIR / "golden_3node.tr"))
    assert len(events) == 129
    assert all(len(e.format_line().split()) == 12 for e in events)


def test_simulator_output_round_trips_through_parser(tmp_path):
    cfg = validate_config({"stop": 5, "seed": 13})
    result = run_scenario(cfg)
    write_trace(str(tmp_path / "trace.tr"), result.trace)
    assert read_trace(str(tmp_path / "trace.tr")) == result.trace


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_series_of_the_run_equals_series_of_its_written_trace(path, tmp_path):
    # Record times are quantized where they are made, so windows agree exactly.
    cfg = load_config(str(path))
    trace = run_scenario(cfg).trace
    write_trace(str(tmp_path / "trace.tr"), trace)
    written = read_trace(str(tmp_path / "trace.tr"))
    victim = cfg.attacker.target
    assert interval_series(written, 0.1, victim) == interval_series(trace, 0.1, victim)


def test_malformed_line_reports_its_number():
    text = ("s 0.100000 0 1 DATA 100 --- 1 0 1 0 0\n"
            "r 0.200000 1 0 DATA 100 --- 1 0 1 0\n")  # 11 tokens
    with pytest.raises(TraceParseError) as exc:
        parse_trace_text(text)
    assert exc.value.lineno == 2
    assert "expected 12 fields" in str(exc.value)


def test_negative_time_is_rejected_not_binned_last():
    # Negative indexing once counted this drop in the last window.
    text = ("d -0.500000 0 1 DATA 100 --- 1 0 1 0 0\n"
            "d 2.500000 0 1 DATA 100 --- 1 0 1 0 1\n")
    with pytest.raises(TraceParseError) as exc:
        parse_trace_text(text)
    assert exc.value.lineno == 1
    assert "time is negative" in str(exc.value)


def test_blank_lines_are_ignored():
    text = "\ns 0.100000 0 1 DATA 100 --- 1 0 1 0 0\n\n"
    assert len(parse_trace_text(text)) == 1


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
    last = TraceEvent.parse_line(f"r {MAX_TIMER_FIRINGS + 1} 0 1 DATA 100 --- 1 0 1 0 0")
    with pytest.raises(ValueError, match=f"ending at {last.time!r} s"):
        interval_series([last], 1.0, node=0)


def test_metrics_csv_round_trip_helpers():
    cfg = validate_config({"stop": 4, "seed": 3})
    metrics = run_scenario(cfg).metrics
    rows = parse_metrics_csv(metrics.to_csv_text())
    assert len(rows) == len(metrics.rows)
    assert victim_energy_series(rows, [0.5, 2.0]) == [None, pytest.approx(metrics.rows[1][3])]


def victim_energy_at(metrics_rows, t):
    """Reference join: rescan the rows from the start for one window end."""
    best = None
    for row in metrics_rows:
        if row["t"] <= t + 1e-9:
            best = row["victim_energy"]
        else:
            break
    return best


# Steps between sample times and offsets of window ends from them, both near
# the 1e-9 tolerance, so ties and near-ties with it come up often.
_near = st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, 2e-9, -2e-9, 1.0000001e-9, 0.25, 1.0])


@given(steps=st.lists(_near.map(abs), max_size=12),
       ends=st.lists(st.tuples(st.integers(0, 12), _near), max_size=12),
       start=st.sampled_from([0.0, 0.1, 3.0]))
def test_energy_walk_matches_a_rescan_per_window(steps, ends, start):
    times = [start + sum(steps[:i + 1]) for i in range(len(steps))]
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
    with pytest.raises(MetricsParseError) as exc:
        parse_metrics_csv(text)
    assert exc.value.lineno == lineno
    assert str(exc.value) == f"line {lineno}: {message}"
