"""Trace analysis: strict parsing and per-interval time series (drop/receive counts)."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .model import (MAX_TIMER_FIRINGS, PacketKind, ParseError, TraceEvent, trace_line_parser,
                    utf8_lines)


def _parse_lines(lines: Iterable[str]) -> List[TraceEvent]:
    """Parse trace lines in order; the first malformed one aborts with its number.

    Blank and whitespace-only lines are skipped but counted.
    """
    parse = trace_line_parser()
    events = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if tokens:
            events.append(parse(tokens, lineno))
    return events


def parse_trace_text(text: str) -> List[TraceEvent]:
    """Parse a whole trace, split into lines at ``str.splitlines`` boundaries."""
    return _parse_lines(text.splitlines())


def read_trace(path: str) -> List[TraceEvent]:
    """Parse a trace file line by line, as ``parse_trace_text`` parses its text.

    No copy of the file is held: only the records are kept.  The first
    defect in file order is reported, a malformed line or a byte that is
    not UTF-8, as ``ParseError``.
    """
    with open(path, "rb") as fh:
        return _parse_lines(utf8_lines(fh, ParseError))


def interval_series(events: Sequence[TraceEvent], interval: float,
                    node: int) -> List[Tuple[float, int, int, int, int]]:
    """Aggregate a trace into fixed windows.

    Each row is (window_end, drops_at_node, drop_bytes_at_node,
    receives_at_node, cum_data_loss) where cum_data_loss counts DATA 'd'
    events network-wide up to the window end.  A trace that needs more than
    ``MAX_TIMER_FIRINGS`` windows raises ``ValueError``, as a timer would.
    """
    if not (interval > 0.0 and math.isfinite(interval)):
        raise ValueError(f"interval must be finite and positive, got {interval!r}")
    if not events:
        return []
    last = max(e.time for e in events)
    if last / interval > MAX_TIMER_FIRINGS:  # a float test: the quotient may be inf
        raise ValueError(f"interval {interval!r} s over a trace ending at {last!r} s "
                         f"gives more than {MAX_TIMER_FIRINGS} windows")
    n_bins = int(math.floor(last / interval)) + 1
    drops = [0] * n_bins
    drop_bytes = [0] * n_bins
    receives = [0] * n_bins
    data_loss = [0] * n_bins
    data = PacketKind.DATA.value
    for e in events:
        idx = int(e.time // interval)
        if e.event == "d" and e.pkt_type == data:
            data_loss[idx] += 1
        if e.source != node:
            continue
        if e.event == "d":
            drops[idx] += 1
            drop_bytes[idx] += e.pkt_size
        elif e.event == "r":
            receives[idx] += 1
    rows = []
    cum = 0
    for i in range(n_bins):
        cum += data_loss[i]
        rows.append(((i + 1) * interval, drops[i], drop_bytes[i], receives[i], cum))
    return rows


def parse_metrics_csv(text: str) -> List[Dict[str, float]]:
    """Read a metrics CSV back into one dict per row, keyed by header names.

    The header must name ``t`` and ``victim_energy``; each row needs one number
    per column, with finite and non-decreasing ``t``.  Blank lines are skipped.
    The first line that breaks a rule raises ``ParseError``.
    """
    header: Optional[List[str]] = None
    rows: List[Dict[str, float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        values = line.split(",")
        if header is None:
            missing = [name for name in ("t", "victim_energy") if name not in values]
            if missing:
                raise ParseError(lineno, f"header lacks {', '.join(missing)}")
            header = values
            continue
        if len(values) != len(header):
            raise ParseError(lineno, f"expected {len(header)} fields, got {len(values)}")
        row = {}
        for name, value in zip(header, values):
            try:
                row[name] = float(value)
            except ValueError:
                raise ParseError(lineno, f"{name} is not a number: {value!r}") from None
        if not math.isfinite(row["t"]) or (rows and row["t"] < rows[-1]["t"]):
            raise ParseError(lineno, f"t must be finite and non-decreasing, got {row['t']!r}")
        rows.append(row)
    return rows


def victim_energy_series(metrics_rows: List[Dict[str, float]],
                         window_ends: Sequence[float]) -> List[Optional[float]]:
    """For each window end, the latest victim energy sampled at or before it (else None).

    Both are compared at the 6 decimals that ``metrics.csv`` and ``analyze``
    print, so a sample taken at a window's end joins it.  ``window_ends`` must
    be non-decreasing, as the rows' ``t`` already is, so one forward walk over
    the rows serves every window.
    """
    energies: List[Optional[float]] = []
    latest, i = None, 0
    for end in window_ends:
        end = round(end, 6)
        while i < len(metrics_rows) and metrics_rows[i]["t"] <= end:
            latest = metrics_rows[i]["victim_energy"]
            i += 1
        energies.append(latest)
    return energies
