"""Deterministic discrete-event MANET simulator.

AODV reactive routing plus two optional extensions: per-packet random-value
channel tagging with receiver-side verification (SAODV), and a link-lifetime
admission filter that keeps fast-moving relays out of discovered routes.
Includes a resource-exhaustion attacker model, linear energy accounting,
12-field trace emission, and a metrics/analysis CLI.
"""

from .analyze import interval_series, parse_trace_text, read_trace
from .aodv import AodvNode
from .config import (AttackerParams, ConfigError, EnergyParams, FlowSpec, NodeScript,
                     Protocol, ScenarioConfig, Sophistication, load_config,
                     parse_config_text, serialize_config, validate_config)
from .engine import (Metrics, RunReport, RunResult, Simulation, debit, run_scenario,
                     write_metrics, write_trace)
from .medium import CellGrid, broadcast, in_range, tx_delay
from .mlet import admit_link, annotate
from .mobility import (Kinematics, LetMode, WaypointState, advance_waypoint,
                       initial_waypoint, kinematics_at, link_expiration_time,
                       parked_waypoint, scripted_waypoint)
from .model import (ATTACK_FID, BROADCAST, CONTROL_FID, CommonHeader, PacketKind,
                    RerrBody, RouteEntry, RrepBody, RreqBody, TraceEvent,
                    TraceParseError, Vec2)
from .saodv import VerifyOutcome, draw_random_values, select_channel, verify

__version__ = "0.1.0"
