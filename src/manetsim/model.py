"""Shared domain types: identifiers, packet headers, routes, and trace records."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Tuple

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


class PacketKind(Enum):
    RREQ = "RREQ"
    RREP = "RREP"
    RERR = "RERR"
    HELLO = "HELLO"
    DATA = "DATA"


class Vec2(NamedTuple):
    """2-D position (m) or velocity (m/s).

    Components are finite: coordinates are checked where they enter the
    program (the config, the ``let`` command), not on every arithmetic result.
    """

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def scaled(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


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


class RerrBody(NamedTuple):
    #: (destination, its bumped sequence number) per unreachable destination
    unreachable: Tuple[Tuple[int, int], ...]


@dataclass
class RouteEntry:
    dest: int
    next_hop: int
    hop_count: int
    dest_seq: int
    expiry: float
    valid: bool = True


class TraceParseError(ValueError):
    """A trace line that does not conform to the 12-field format."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def read_utf8(path: str, error: Callable[[int, str], Exception]) -> str:
    """A file's text; a byte that is not UTF-8 raises ``error(lineno, message)``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(lineno, f"not UTF-8 ({exc.reason})") from None


_EVENT_SYMBOLS = ("s", "r", "d", "f")
_PKT_TYPE_TOKENS = tuple(k.value for k in PacketKind)
# (token index, field name) for the integer columns of a trace line.
_INT_FIELDS = ((2, "source"), (3, "destination"), (5, "pkt_size"), (7, "fid"),
               (8, "src_addr"), (9, "dst_addr"), (10, "seq_num"), (11, "pkt_id"))


class TraceEvent(NamedTuple):
    """One 12-field trace record, the simulator's canonical output line.

    Field order is fixed: event time source destination pkt_type pkt_size
    flags fid src_addr dst_addr seq_num pkt_id.  ``time`` is quantized to the
    6 decimals the text format carries wherever a record is made (the engine's
    ``_emit`` and ``parse_line``), so a trace read back equals the one written.
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

    @classmethod
    def parse_line(cls, line: str, lineno: int = 1) -> "TraceEvent":
        tokens = line.split()
        if len(tokens) != 12:
            raise TraceParseError(lineno, f"expected 12 fields, got {len(tokens)}")
        if tokens[0] not in _EVENT_SYMBOLS:
            raise TraceParseError(lineno, f"unknown event symbol {tokens[0]!r}")
        if tokens[4] not in _PKT_TYPE_TOKENS:
            raise TraceParseError(lineno, f"unknown packet type {tokens[4]!r}")
        try:
            time = float(tokens[1])
        except ValueError:
            raise TraceParseError(lineno, f"time is not a number: {tokens[1]!r}") from None
        if not math.isfinite(time):
            raise TraceParseError(lineno, f"time is not finite: {tokens[1]!r}")
        if time < 0.0:
            raise TraceParseError(lineno, f"time is negative: {tokens[1]!r}")
        values = {}
        for idx, name in _INT_FIELDS:
            try:
                values[name] = int(tokens[idx])
            except ValueError:
                raise TraceParseError(lineno, f"{name} is not an integer: {tokens[idx]!r}") from None
        return cls(event=tokens[0], time=round(time, 6), pkt_type=tokens[4],
                   flags=tokens[6], **values)
