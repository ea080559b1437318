"""Shared domain types: ids, packet headers, drop reasons, trace records and the input errors."""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, List, NamedTuple, Optional

if TYPE_CHECKING:
    from .mobility import Kinematics

#: Link-layer broadcast sentinel: the maximum representable 32-bit id.
BROADCAST = 0xFFFFFFFF

# Packet sizes in bytes, used for transmission delay and energy accounting.
# DATA packets use their payload size directly.
HELLO_BYTES = 16
RREQ_BYTES = 24
RREP_BYTES = 20
RERR_BYTES = 20

#: Leading bytes a receiver must read before it can check a packet's tags.
#: A packet rejected at verification costs RX energy only for this prefix.
HEADER_RX_BYTES = 16

#: Flow id stamped on routing control traffic.
CONTROL_FID = 0
#: Flow id stamped on the attacker's flood packets.
ATTACK_FID = 999

#: Most times one periodic timer may fire before ``stop``: the mobility step,
#: ``hello_interval``, ``metrics_interval`` and ``1 / rate`` of each flow and of
#: an enabled attacker.  It bounds a run's events and keeps ``t + period > t``.
#: ``analyze`` caps its window count by it too.
MAX_TIMER_FIRINGS = 1_000_000

# Drop reasons: the keys of a run's ``drops by reason``, kept out of the trace format.
NO_ROUTE = "NO_ROUTE"                  # aodv: no route for a data packet
NO_REVERSE_ROUTE = "NO_REVERSE_ROUTE"  # aodv: no route back toward an RREP's originator
BUFFER_OVERFLOW = "BUFFER_OVERFLOW"    # aodv: pushed out of a full route-wait buffer
RETRY_EXHAUSTED = "RETRY_EXHAUSTED"    # aodv: still buffered when discovery gave up
DEAD_SENDER = "DEAD_SENDER"            # engine: a sender with no energy left
LET_REJECT = "LET_REJECT"              # engine: a link MLET predicts breaks too soon
DROP_RANGE = "DROP_RANGE"              # saodv: a random tag out of range
DROP_MISMATCH = "DROP_MISMATCH"        # saodv: a channel the tags do not imply


class PacketKind(Enum):
    RREQ = "RREQ"
    RREP = "RREP"
    RERR = "RERR"
    HELLO = "HELLO"
    DATA = "DATA"


class CommonHeader(NamedTuple):
    """Per-packet metadata shared by every packet kind.

    rv1/rv2 are the per-hop random tags and ``channel`` the frequency index
    the sender derived from them; receivers recompute the channel from the
    tags and drop packets whose announced channel does not match.
    ``sender_kin`` optionally carries the transmitting node's kinematics so
    receivers can predict the link's remaining lifetime.
    """

    uid: int
    kind: PacketKind
    size: int
    src: int
    dst: int
    prev_hop: int
    seq: int
    fid: int
    rv1: float = 0.0
    rv2: float = 0.0
    channel: int = 1
    hop_count: int = 0
    sender_kin: Optional["Kinematics"] = None


class RreqBody(NamedTuple):
    broadcast_id: int
    orig_seq: int
    dest: int
    dest_seq_known: Optional[int] = None


class RrepBody(NamedTuple):
    dest: int
    dest_seq: int
    hop_count: int
    orig: int


class ParseError(ValueError):
    """A line of a trace or metrics file that does not parse; ``lineno`` counts from 1."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ConfigError(ValueError):
    """Carries every violation found while validating a raw configuration."""

    def __init__(self, violations: List[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def read_utf8(path: str, error: Callable[[int, str], Exception]) -> str:
    """A file's lines as ``utf8_lines`` reads them, errors included, joined by ``\\n``."""
    with open(path, "rb") as fh:
        return "\n".join(utf8_lines(fh, error))


#: Bytes ``utf8_lines`` reads at once; it decodes them in runs of whole lines.
READ_BYTES = 16384


def utf8_lines(fh: BinaryIO, error: Callable[[int, str], Exception]) -> Iterator[str]:
    """The lines of a binary file, as ``str.splitlines`` gives them, read as they are used.

    The file is read ``READ_BYTES`` at a time and cut into runs of whole
    lines, after a ``\\n`` or a ``\\r``, and each run is decoded and split on
    its own, so no copy of the whole file is made.  A ``\\r`` that ends a read
    is no cut: it may be the first half of a ``\\r\\n``.  A byte that is not
    UTF-8 raises ``error(lineno, message)`` once the lines before its own are
    given; ``lineno`` counts lines as ``str.splitlines`` does.
    """
    given = 0
    parts: List[bytes] = []  # read since the last cut
    while True:
        block = fh.read(READ_BYTES)
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if block and not cut:
            parts.append(block)
            continue
        parts.append(block[:cut])
        run = b"".join(parts)
        if not run:
            return
        parts = [block[cut:]]
        try:
            lines = run.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            # The bad byte's line is the last; a stand-in char keeps it when empty.
            lines = (run[:exc.start].decode("utf-8") + "\ufffd").splitlines()
            yield from lines[:-1]
            raise error(given + len(lines), f"not UTF-8 ({exc.reason})") from None
        given += len(lines)
        yield from lines


_EVENT_SYMBOLS = frozenset(("s", "r", "d", "f"))
_PKT_TYPE_TOKENS = frozenset(k.value for k in PacketKind)
# (token index, field name) for the integer columns of a trace line.
_INT_FIELDS = ((2, "source"), (3, "destination"), (5, "pkt_size"), (7, "fid"),
               (8, "src_addr"), (9, "dst_addr"), (10, "seq_num"), (11, "pkt_id"))


class TraceEvent(NamedTuple):
    """One 12-field trace record, the simulator's canonical output line.

    Field order is fixed: event time source destination pkt_type pkt_size
    flags fid src_addr dst_addr seq_num pkt_id.  ``time`` is quantized to the
    6 decimals the text format carries wherever a record is made (the engine's
    ``_emit`` and ``trace_line_parser``), so a trace read back equals the one
    written.
    """

    event: str
    time: float
    source: int
    destination: int
    pkt_type: str
    pkt_size: int
    flags: str
    fid: int
    src_addr: int
    dst_addr: int
    seq_num: int
    pkt_id: int

    def format_line(self) -> str:
        return (f"{self.event} {self.time:.6f} {self.source} {self.destination} "
                f"{self.pkt_type} {self.pkt_size} {self.flags} {self.fid} "
                f"{self.src_addr} {self.dst_addr} {self.seq_num} {self.pkt_id}")


#: Most distinct tokens one memo of ``trace_line_parser`` holds at a time.
MEMO_TOKENS = 1024


class _Memo(dict):
    """``convert(token)`` of each distinct token, computed at its first lookup.

    A token that ``convert`` rejects raises its ``ValueError`` and is not stored.
    It holds at most ``MEMO_TOKENS`` tokens and starts afresh when full, so a
    trace of ever-new times and packet ids does not keep every token string.
    """

    def __init__(self, convert: Callable[[str], object]):
        super().__init__()
        self.convert = convert

    def __missing__(self, token: str):
        if len(self) >= MEMO_TOKENS:
            self.clear()
        value = self[token] = self.convert(token)
        return value


def _trace_time(token: str) -> float:
    time = float(token)
    if not 0.0 <= time < math.inf:  # NaN fails both comparisons
        raise ValueError(token)
    return round(time, 6)


def _pkt_type(token: str) -> str:
    return PacketKind(token).value  # an unknown type raises ValueError


def trace_line_parser() -> Callable[[List[str], int], TraceEvent]:
    """A parser of one trace line, given as its whitespace-split tokens and number.

    Tokens repeat heavily within a trace, so the parser memoises them: it
    converts a repeated integer or time token once, and records with equal
    packet type or flags tokens share one string.  Make one parser per read.
    Integers are Python ``int`` literals and times ``float`` literals that
    are finite and not negative, rounded to 6 decimals.  A malformed line
    raises ``ParseError``.
    """
    ints, times = _Memo(int), _Memo(_trace_time)
    pkt_types, flags_tokens = _Memo(_pkt_type), _Memo(str)
    new = tuple.__new__

    def parse(tokens: List[str], lineno: int) -> TraceEvent:
        try:
            (event, time, source, destination, pkt_type, pkt_size, flags, fid,
             src_addr, dst_addr, seq_num, pkt_id) = tokens
            if event in _EVENT_SYMBOLS:
                return new(TraceEvent, (event, times[time], ints[source], ints[destination],
                                        pkt_types[pkt_type], ints[pkt_size],
                                        flags_tokens[flags], ints[fid], ints[src_addr],
                                        ints[dst_addr], ints[seq_num], ints[pkt_id]))
        except ValueError:
            pass
        raise _diagnose(tokens, lineno)
    return parse


def _diagnose(tokens: List[str], lineno: int) -> ParseError:
    """The error of a line the parser refused: its first failed check, in a fixed order."""
    if len(tokens) != 12:
        return ParseError(lineno, f"expected 12 fields, got {len(tokens)}")
    if tokens[0] not in _EVENT_SYMBOLS:
        return ParseError(lineno, f"unknown event symbol {tokens[0]!r}")
    if tokens[4] not in _PKT_TYPE_TOKENS:
        return ParseError(lineno, f"unknown packet type {tokens[4]!r}")
    try:
        time = float(tokens[1])
    except ValueError:
        return ParseError(lineno, f"time is not a number: {tokens[1]!r}")
    if not math.isfinite(time):
        return ParseError(lineno, f"time is not finite: {tokens[1]!r}")
    if time < 0.0:
        return ParseError(lineno, f"time is negative: {tokens[1]!r}")
    for idx, name in _INT_FIELDS:
        try:
            int(tokens[idx])
        except ValueError:
            return ParseError(lineno, f"{name} is not an integer: {tokens[idx]!r}")
    raise RuntimeError(f"line {lineno}: refused, yet passes every check")
