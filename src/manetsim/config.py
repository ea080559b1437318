"""Scenario configuration: flat ``key = value`` files, validation, serialization.

Each key is declared once, by the `_key` default of a `ScenarioConfig` field
below; a dotted key ``group.name`` is the field ``group_name``.
`SCHEMA` is derived from those fields and drives known-key checks, parsing,
defaults and `serialize_config`; `flows`, `nodes` and the checks that span
several keys are the only hand-written parts.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .mobility import MOBILITY_STEP, Kinematics, LetMode, WaypointState
from .model import PacketKind, read_utf8

#: Most times one periodic timer may fire before ``stop``: the mobility step,
#: ``hello_interval``, ``metrics_interval`` and ``1 / rate`` of each flow and of
#: an enabled attacker.  It bounds a run's events and keeps ``t + period > t``.
MAX_TIMER_FIRINGS = 1_000_000
#: Most honest nodes.  Every node beacons at the same instants, so a dense area
#: queues about nn * nn deliveries at once; this keeps that near a million.
MAX_NODES = 1000
#: Largest packet, payload or annex, in bytes: the IPv4 datagram limit.
MAX_PACKET_BYTES = 65_535
#: Largest channel count, retry count, buffer size and missed-beacon limit.
MAX_COUNT = 1_000_000


class Protocol(Enum):
    AODV = "AODV"
    SAODV = "SAODV"
    SAODV_MLET = "SAODV_MLET"
    AODV_MLET = "AODV_MLET"

    @property
    def verifies(self) -> bool:
        return self in (Protocol.SAODV, Protocol.SAODV_MLET)

    @property
    def uses_let(self) -> bool:
        return self in (Protocol.SAODV_MLET, Protocol.AODV_MLET)


class Sophistication(Enum):
    """How well the attacker's flood packets imitate honest tagging."""

    NAIVE_FIXED = "NAIVE_FIXED"      # constant tags, fixed (wrong) channel
    NAIVE_RANDOM = "NAIVE_RANDOM"    # uniform tags and an independent uniform channel
    INSIDER = "INSIDER"              # runs the honest tagging algorithm


# Parsers turn one raw string into a value or raise ValueError(*violations).
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "<=": operator.le}
_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse(raw: str, default, bounds: tuple, finite: bool):
    """``raw`` as the type of ``default``: int, float, bool or an enum."""
    kind = type(default)
    if kind is bool:
        if raw.lower() not in _BOOLS:
            raise ValueError(f"expected true/false, got {raw!r}")
        return _BOOLS[raw.lower()]
    if isinstance(default, Enum):
        try:
            return kind(raw.upper())
        except ValueError:
            names = "|".join(e.value for e in kind)
            raise ValueError(f"expected one of {names}, got {raw!r}") from None
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"expected {'an integer' if kind is int else 'a number'}, "
                         f"got {raw!r}") from None
    if kind is float and math.isnan(value):
        raise ValueError("must not be NaN")
    for op, limit in zip(bounds[::2], bounds[1::2]):
        if not _BOUNDS[op](value, limit):
            raise ValueError(f"must be {op} {limit}, got {value}")
    if finite and kind is float and math.isinf(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _packet_kinds(raw: str) -> Tuple[PacketKind, ...]:
    kinds, problems = [], []
    for token in filter(None, (t.strip().upper() for t in raw.split(","))):
        try:
            kind = PacketKind(token)
        except ValueError:
            problems.append(f"unknown packet kind {token!r}")
            continue
        if kind in (PacketKind.RREQ, PacketKind.RREP, PacketKind.DATA):
            kinds.append(kind)
        else:
            problems.append(f"{token} cannot carry the admission check")
    if problems:
        raise ValueError(*problems)
    return tuple(dict.fromkeys(kinds))


def _position(raw: str) -> Optional[Kinematics]:
    if raw.lower() == "none":
        return None
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {raw!r}")
    x, y = float(parts[0]), float(parts[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"coordinates must be finite, got ({x}, {y})")
    return Kinematics(x, y)


#: (name if not the field's, parser) of each `_key`, in declaration order.
_DECLARED: List[Tuple[Optional[str], Callable[[str], object]]] = []


def _key(default, *bounds, key: Optional[str] = None, finite: bool = True, parse=None):
    """Declare a config key: its default, bounds as (op, limit) pairs, and its name
    if not the field's.

    Returns the default, for the field to take; the name and the parser are kept
    for `SCHEMA`.  The parser follows the default's type unless ``parse`` is
    given.  A float key must be finite unless ``finite=False`` lets ``inf`` mean
    unlimited.
    """
    if parse is None:
        def parse(raw):
            return _parse(raw, default, bounds, finite)
    _DECLARED.append((key, parse))
    return default


class FlowSpec(NamedTuple):
    """A constant-bit-rate application flow src -> dst."""

    src: int
    dst: int
    rate: float
    size: int
    start: float


class ScenarioConfig(NamedTuple):
    """A validated scenario.  Keys are read, and reported, in field order.

    Every field but the last two is a `_key`; ``flows`` and ``nodes`` are
    parsed by hand into those two.  A ``nodes`` entry is its node's first leg,
    which travels to its target, if it has one, and then parks for good.
    """

    nn: int = _key(25, ">=", 1, "<=", MAX_NODES)
    area_x: float = _key(50.0, ">", 0.0, key="x")
    area_y: float = _key(50.0, ">", 0.0, key="y")
    stop: float = _key(50.0, ">", 0.0)
    protocol: Protocol = _key(Protocol.AODV, key="rp")
    rng_seed: int = _key(1, key="seed")
    range_r: float = _key(15.0, ">", 0.0)
    num_channels: int = _key(2, ">=", 1, "<=", MAX_COUNT, key="k")
    let_mode: LetMode = _key(LetMode.STRICT)
    let_threshold: float = _key(0.0, ">=", 0.0)  # 5 under *_MLET, see validate_config
    mlet_applies_to: Tuple[PacketKind, ...] = _key((PacketKind.RREQ,), parse=_packet_kinds)
    #: Bytes a kinematics annex adds to a packet: 4 floats plus framing.
    mlet_annex_bytes: int = _key(24, ">=", 0, "<=", MAX_PACKET_BYTES)
    bitrate: float = _key(250000.0, ">", 0.0)
    prop_delay: float = _key(0.0, ">=", 0.0)
    loss_prob: float = _key(0.0, ">=", 0.0, "<", 1.0)
    physical_channels: bool = _key(False)
    paper_range_check: bool = _key(False)
    hello_interval: float = _key(1.0, ">", 0.0)
    hello_loss_limit: int = _key(2, ">=", 1, "<=", MAX_COUNT)
    speed_min: float = _key(0.0, ">=", 0.0)
    speed_max: float = _key(5.0, ">=", 0.0)
    pause: float = _key(2.0, ">=", 0.0)
    route_lifetime: float = _key(10.0, ">", 0.0)
    retry_limit: int = _key(2, ">=", 0, "<=", MAX_COUNT)
    retry_timeout: float = _key(1.0, ">", 0.0)
    buffer_cap: int = _key(64, ">=", 1, "<=", MAX_COUNT)
    rreq_cache_ttl: float = _key(10.0, ">", 0.0)
    intermediate_rrep: bool = _key(False)
    metrics_interval: float = _key(1.0, ">", 0.0)
    energy_initial: float = _key(10.0, ">", 0.0, key="energy.initial", finite=False)
    energy_tx_per_byte: float = _key(60e-6, ">=", 0.0, key="energy.tx_per_byte")
    energy_rx_per_byte: float = _key(30e-6, ">=", 0.0, key="energy.rx_per_byte")
    energy_idle_per_sec: float = _key(1e-3, ">=", 0.0, key="energy.idle_per_sec")
    attacker_enabled: bool = _key(False, key="attacker.enabled")
    #: Attackers default to an unlimited battery; a flood at full rate would
    #: otherwise drain the attacker before the victim.
    attacker_energy: float = _key(math.inf, ">", 0.0, key="attacker.energy", finite=False)
    attacker_target: int = _key(0, ">=", 0, "<", MAX_NODES, key="attacker.target")
    attacker_start: float = _key(10.0, ">=", 0.0, key="attacker.start")
    attacker_rate: float = _key(200.0, ">", 0.0, key="attacker.rate")
    attacker_payload: int = _key(100, ">=", 1, "<=", MAX_PACKET_BYTES, key="attacker.payload")
    attacker_sophistication: Sophistication = _key(Sophistication.NAIVE_RANDOM,
                                                   key="attacker.sophistication")
    attacker_pos: Optional[Kinematics] = _key(None, key="attacker.pos", parse=_position)
    flows: Tuple[FlowSpec, ...] = ()
    node_scripts: Optional[Tuple[WaypointState, ...]] = None


#: (key, attribute, parser, default) per key, in field order.
SCHEMA = tuple((key or attr, attr, parse, ScenarioConfig._field_defaults[attr])
               for attr, (key, parse) in zip(ScenarioConfig._fields, _DECLARED))
KNOWN_KEYS = frozenset(entry[0] for entry in SCHEMA) | {"flows", "nodes"}


class ConfigError(ValueError):
    """Carries every violation found while validating a raw configuration."""

    def __init__(self, violations: List[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment anywhere."""
    raw: Dict[str, str] = {}
    problems: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
        elif key in raw:
            problems.append(f"line {lineno}: duplicate key {key!r}")
        else:
            raw[key] = value.strip()
    if problems:
        raise ConfigError(problems)
    return raw


def _inside(x: float, y: float, area_x: float, area_y: float) -> bool:
    return 0.0 <= x <= area_x and 0.0 <= y <= area_y


def _timer_problem(period: float, stop: float) -> Optional[str]:
    if stop / period > MAX_TIMER_FIRINGS:
        return (f"a timer every {period!r} s would fire more than "
                f"{MAX_TIMER_FIRINGS} times in {stop!r} s")
    return None


def _parse_flows(raw: Optional[str], nn: int, stop: float, fail) -> Tuple[FlowSpec, ...]:
    if raw is None:  # default background traffic: one CBR flow toward node 0
        default = FlowSpec(src=nn - 1, dst=0, rate=4.0, size=100, start=1.0)
        return (default,) if nn >= 2 else ()
    if raw.lower() in ("none", ""):
        return ()
    flows = []
    for i, chunk in enumerate(raw.split(";")):
        parts = [p.strip() for p in chunk.strip().split(":")]
        if len(parts) not in (4, 5):
            fail("flows", f"entry {i}: expected src:dst:rate:size[:start]")
            continue
        try:
            src, dst = int(parts[0]), int(parts[1])
            rate, size = float(parts[2]), int(parts[3])
            start = float(parts[4]) if len(parts) == 5 else 1.0
        except ValueError:
            fail("flows", f"entry {i}: non-numeric field in {chunk.strip()!r}")
            continue
        if not (0 <= src < nn and 0 <= dst < nn):
            fail("flows", f"entry {i}: endpoints must be node ids < {nn}")
        elif src == dst:
            fail("flows", f"entry {i}: src and dst must differ")
        elif rate <= 0.0 or size <= 0 or start < 0.0:
            fail("flows", f"entry {i}: rate/size must be positive, start >= 0")
        elif size > MAX_PACKET_BYTES:
            fail("flows", f"entry {i}: size must be <= {MAX_PACKET_BYTES}")
        elif not (math.isfinite(rate) and math.isfinite(start)):
            fail("flows", f"entry {i}: rate and start must be finite")
        elif problem := _timer_problem(1.0 / rate, stop):
            fail("flows", f"entry {i}: {problem}")
        else:
            flows.append(FlowSpec(src, dst, rate, size, start))
    return tuple(flows)


def _parse_nodes(raw: Optional[str], nn: int, area_x: float, area_y: float,
                 fail) -> Optional[Tuple[WaypointState, ...]]:
    if raw is None or raw.lower() == "none":
        return None
    chunks = [c for c in (chunk.strip() for chunk in raw.split(";")) if c]
    if len(chunks) != nn:
        fail("nodes", f"expected {nn} entries (one per node), got {len(chunks)}")
        return None
    legs = []
    for i, chunk in enumerate(chunks):
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) not in (2, 5):
            fail("nodes", f"entry {i}: expected 'x,y' or 'x,y,tx,ty,speed'")
            continue
        try:
            numbers = [float(p) for p in parts]
        except ValueError:
            fail("nodes", f"entry {i}: non-numeric field in {chunk!r}")
            continue
        px, py = numbers[0], numbers[1]
        tx, ty, speed = numbers[2:] if len(numbers) == 5 else (px, py, 0.0)
        # The area is finite, so infinite and NaN coordinates fall outside it.
        if not speed >= 0.0:
            fail("nodes", f"entry {i}: speed must be >= 0")
        elif not (_inside(px, py, area_x, area_y) and _inside(tx, ty, area_x, area_y)):
            fail("nodes", f"entry {i}: coordinates outside the {area_x}x{area_y} area")
        else:
            legs.append(WaypointState(Kinematics(px, py), Kinematics(tx, ty), speed,
                                      math.inf, 0.0))
    return tuple(legs)


def validate_config(raw: Mapping[str, object]) -> ScenarioConfig:
    """Build a fully-populated ScenarioConfig, reporting all violations at once."""
    data: Dict[str, str] = {}
    violations: List[str] = []
    for key, value in raw.items():
        key = str(key).strip()
        if key in KNOWN_KEYS:
            data[key] = str(value).strip()
        else:
            violations.append(f"{key}: unknown key")

    def fail(key: str, message: str):
        violations.append(f"{key}: {message}")

    # attribute -> value; a rejected value keeps its default for later checks
    v: Dict[str, object] = {}
    for key, attr, parse, default in SCHEMA:
        v[attr] = default
        if key in data:
            try:
                v[attr] = parse(data[key])
            except ValueError as exc:
                violations.extend(f"{key}: {message}" for message in exc.args)
    if "let_threshold" not in data and v["protocol"].uses_let:
        v["let_threshold"] = 5.0  # the admission filter is on by default under *_MLET

    if not math.isfinite(math.hypot(v["area_x"], v["area_y"])):  # bounds every leg's length
        fail("x", f"must leave the diagonal hypot(x, y) finite, got a "
                  f"{v['area_x']}x{v['area_y']} area")
    if not math.isfinite(max(v["area_x"], v["area_y"]) / v["range_r"]):  # bounds cell indices
        fail("range_r", f"must leave x / range_r and y / range_r finite, got {v['range_r']}")
    if v["speed_max"] < v["speed_min"]:
        fail("speed_max", f"must be >= speed_min ({v['speed_min']}), got {v['speed_max']}")
    if v["attacker_target"] >= v["nn"]:  # the victim's energy is sampled, attack or not
        fail("attacker.target", f"must name an honest node (< {v['nn']})")
    pos = v["attacker_pos"]
    if pos is not None and not _inside(pos.x, pos.y, v["area_x"], v["area_y"]):
        fail("attacker.pos", f"outside the {v['area_x']}x{v['area_y']} area")
    timers = [("stop", MOBILITY_STEP), ("hello_interval", v["hello_interval"]),
              ("metrics_interval", v["metrics_interval"]),
              ("retry_timeout", v["retry_timeout"])]
    if v["attacker_enabled"]:
        timers.append(("attacker.rate", 1.0 / v["attacker_rate"]))
    for key, period in timers:
        if problem := _timer_problem(period, v["stop"]):
            fail(key, problem)
    flows = _parse_flows(data.get("flows"), v["nn"], v["stop"], fail)
    nodes = _parse_nodes(data.get("nodes"), v["nn"], v["area_x"], v["area_y"], fail)
    if violations:
        raise ConfigError(violations)
    return ScenarioConfig(**v, flows=flows, node_scripts=nodes)


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Kinematics):  # a position, at rest; before the tuple test
        return f"{value.x!r},{value.y!r}"
    if isinstance(value, tuple):
        return ",".join(_format(item) for item in value)
    return "none" if value is None else repr(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Emit every field as a ``key = value`` line; re-validating reproduces cfg."""
    lines = [f"{key} = {_format(getattr(cfg, attr))}" for key, attr, _, _ in SCHEMA]
    flows = ";".join(f"{f.src}:{f.dst}:{f.rate!r}:{f.size}:{f.start!r}" for f in cfg.flows)
    lines.append(f"flows = {flows or 'none'}")
    nodes = "none" if cfg.node_scripts is None else "; ".join(
        _format(leg[:3]) for leg in cfg.node_scripts)  # (current, target, speed)
    lines.append(f"nodes = {nodes}")
    return "\n".join(lines) + "\n"


def check_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Give a config built in code the checks a config file gets: raise ConfigError.

    Returns the config as a config file gives it: a position given as a
    plain tuple comes back a ``Kinematics`` at rest, and a ``node_scripts``
    entry given as a ``(pos, target, speed)`` triple comes back a leg.
    """
    return validate_config(parse_config_text(serialize_config(cfg)))


def load_config(path: str) -> ScenarioConfig:
    text = read_utf8(path, lambda lineno, message: ConfigError([f"line {lineno}: {message}"]))
    return validate_config(parse_config_text(text))
