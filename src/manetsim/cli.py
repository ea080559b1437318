"""Command-line interface: run scenarios, analyze traces, sweep channels, compute LET.

Exit codes: 0 success, 2 usage/config errors, 3 I/O failures, 4 malformed traces
or metrics files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional, TextIO, Tuple

from .analyze import (MetricsParseError, interval_series, parse_metrics_csv, read_trace,
                      victim_energy_series)
from .config import MAX_COUNT, ConfigError, ScenarioConfig, check_config, load_config
from .mobility import Kinematics, LetMode, link_expiration_time
from .model import TraceEvent, TraceParseError, read_utf8

if TYPE_CHECKING:
    from .engine import RunReport

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TRACE = 4

class TraceWriter:
    """A trace sink: writes each record as one line of the trace file, and counts them."""

    __slots__ = ("_write", "lines")

    def __init__(self, fh: TextIO):
        self._write = fh.write
        self.lines = 0

    def __call__(self, event: TraceEvent):
        self._write(event.format_line() + "\n")
        self.lines += 1


@contextmanager
def write_trace(path: str) -> Iterator[TraceWriter]:
    """Yield a sink that writes trace records to ``path`` as they are made.

    The lines go to ``path + ".part"``, which replaces ``path`` only when the
    block ends normally.  On any exception the part file is removed, and a
    ``path`` left by an earlier run stays as it was.
    """
    part = path + ".part"
    fh = open(part, "w", encoding="utf-8")
    try:
        with fh:
            yield TraceWriter(fh)
        os.replace(part, path)
    except BaseException:
        os.remove(part)
        raise


def write_metrics(path: str, report: RunReport):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.metrics_csv())


def cmd_run(args) -> int:
    # The simulator loads only on the paths that run it, never for analyze or let.
    from .engine import Simulation

    if not os.path.isfile(args.config):
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return EXIT_IO
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg._replace(rng_seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.tr")
    with write_trace(trace_path) as writer:  # streamed: no record is held in memory
        report = Simulation(cfg, writer).run()
    write_metrics(os.path.join(args.out, "metrics.csv"), report)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {trace_path} ({writer.lines} events) and metrics.csv "
          f"({len(report.samples)} samples)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    if not (args.interval > 0.0 and math.isfinite(args.interval)):
        print(f"error: --interval must be finite and positive, got {args.interval!r}",
              file=sys.stderr)
        return EXIT_USAGE
    events = read_trace(args.trace)
    try:
        rows = interval_series(events, args.interval, args.node)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    header = "t,drops,drop_bytes,receives,cum_data_loss"
    tails = [""] * len(rows)
    metrics_path = os.path.join(os.path.dirname(os.path.abspath(args.trace)),
                                "metrics.csv")
    if os.path.isfile(metrics_path):
        try:
            metrics_rows = parse_metrics_csv(read_utf8(metrics_path, MetricsParseError))
        except MetricsParseError as exc:
            print(f"metrics error: {metrics_path}: {exc}", file=sys.stderr)
            return EXIT_TRACE
        header += ",victim_energy"
        tails = ["," if energy is None else f",{energy:.9f}" for energy
                 in victim_energy_series(metrics_rows, [row[0] for row in rows])]
    print(header)
    for (t, drops, drop_bytes, receives, cum), tail in zip(rows, tails):
        print(f"{t:.6f},{drops},{drop_bytes},{receives},{cum}{tail}")
    return EXIT_OK


#: Most processes one sweep runs in.
MAX_JOBS = 32


def default_jobs() -> int:
    """Usable CPUs, at most ``MAX_JOBS``: the ``sweep --jobs`` default."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_JOBS)


def _run_share(cfg: ScenarioConfig, runs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """(victim malicious accepts, drops) of each (k, rep) run, in order."""
    from .engine import Simulation

    pairs = []
    for k, rep in runs:
        run_cfg = cfg._replace(num_channels=k, rng_seed=cfg.rng_seed * 1000 + rep)
        report = Simulation(run_cfg).run()
        pairs.append((report.victim_malicious_accepts, report.victim_malicious_drops))
    return pairs


def _forked_pairs(cfg: ScenarioConfig, runs: List[Tuple[int, int]],
                  n: int) -> List[Tuple[int, int]]:
    """Run ``runs[i::n]`` in process i, this process being 0; pairs in run order.

    Processes 1..n-1 are a pool forked from this one.  The split is fixed, so
    the runs made in this process do not vary between calls.  Every worker is
    reaped before this returns or raises.
    """
    if n == 1:
        return _run_share(cfg, runs)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    sys.stdout.flush()  # a worker must not inherit, and flush again, buffered output
    sys.stderr.flush()
    pairs: List[Tuple[int, int]] = [(0, 0)] * len(runs)
    callers = set(multiprocessing.active_children())
    # fork: the workers inherit this process's modules and patches, and are all
    # forked at the first submit, before the pool starts its manager thread.
    with ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            shares = [pool.submit(_run_share, cfg, runs[i::n]) for i in range(1, n)]
            pairs[0::n] = _run_share(cfg, runs[0::n])
            for i, share in enumerate(shares, 1):
                pairs[i::n] = share.result()
        except BaseException:  # a stalled worker would hold up the reaping below
            for worker in set(multiprocessing.active_children()) - callers:
                worker.kill()
            raise
    return pairs


def sweep_accept_fractions(cfg: ScenarioConfig, k_values: List[int], reps: int,
                           jobs: int = 1) -> List[tuple]:
    """(k, mean accept fraction, stddev) of the victim's malicious-accept rate.

    Repetition j of every k runs with derived seed base*1000 + j so that the
    same mobility/placement is paired across channel counts.  The runs are
    split between this process and a pool of ``jobs`` - 1 processes forked
    from it, where ``os.fork`` exists; the rows do not depend on ``jobs``.  A
    worker's exception is raised here with its own type and message, and a
    worker that dies without one gives ``BrokenProcessPool``.  With ``jobs``
    above 1, call it from a process that runs no other thread, whose locks a
    fork would copy.
    """
    import statistics  # loaded only by the sweep, like the simulator

    ks = sorted(set(k_values))
    violations: List[str] = []
    for k in ks:  # a bad k fails here, in this process, before any fork
        try:
            check_config(cfg._replace(num_channels=k))
        except ConfigError as exc:
            violations += [v for v in exc.violations if v not in violations]
    if violations:
        raise ConfigError(violations)
    runs = [(k, rep) for k in ks for rep in range(reps)]
    n = min(jobs, len(runs)) if hasattr(os, "fork") else 1
    pairs = _forked_pairs(cfg, runs, n)
    rows = []
    for index, k in enumerate(ks):
        fractions = [accepts / (accepts + drops)
                     for accepts, drops in pairs[index * reps:(index + 1) * reps]
                     if accepts + drops > 0]
        if fractions:
            mean = statistics.fmean(fractions)
            dev = statistics.stdev(fractions) if len(fractions) > 1 else 0.0
        else:
            mean, dev = math.nan, math.nan
        rows.append((k, mean, dev))
    return rows


def cmd_sweep(args) -> int:
    try:
        k_values = [int(tok) for tok in args.k.split(",") if tok.strip()]
    except ValueError:
        print(f"error: --k expects a comma-separated integer list, got {args.k!r}",
              file=sys.stderr)
        return EXIT_USAGE
    if not k_values:  # sweep_accept_fractions checks each k's bounds
        print("error: --k names no channel count", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= args.reps <= MAX_COUNT:
        print(f"error: --reps must be in 1..{MAX_COUNT}", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= args.jobs <= MAX_JOBS:
        print(f"error: --jobs must be in 1..{MAX_JOBS}", file=sys.stderr)
        return EXIT_USAGE
    if not os.path.isfile(args.config):
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return EXIT_IO
    rows = sweep_accept_fractions(load_config(args.config), k_values, args.reps, args.jobs)
    print("k,mean_accept_fraction,stddev")
    for k, mean, dev in rows:
        print(f"{k},{mean:.6f},{dev:.6f}")
    return EXIT_OK


def _fmt_let(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6f}"


def cmd_let(args) -> int:
    numbers = (args.sx, args.sy, args.svx, args.svy,
               args.rx, args.ry, args.rvx, args.rvy, args.r)
    if not all(math.isfinite(v) for v in numbers):
        print("error: all kinematics inputs must be finite", file=sys.stderr)
        return EXIT_USAGE
    if args.r <= 0.0:
        print("error: --r must be positive", file=sys.stderr)
        return EXIT_USAGE
    sender = Kinematics(args.sx, args.sy, args.svx, args.svy)
    receiver = Kinematics(args.rx, args.ry, args.rvx, args.rvy)
    if args.mode is not None:
        mode = LetMode.PAPER if args.mode == "paper" else LetMode.STRICT
        print(_fmt_let(link_expiration_time(sender, receiver, args.r, mode)))
        return EXIT_OK
    paper = link_expiration_time(sender, receiver, args.r, LetMode.PAPER)
    strict = link_expiration_time(sender, receiver, args.r, LetMode.STRICT)
    if paper == strict:
        print(_fmt_let(strict))
    else:
        print(f"paper {_fmt_let(paper)}")
        print(f"strict {_fmt_let(strict)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manetsim",
        description="Deterministic MANET simulator with security and mobility-aware "
                    "routing extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write trace.tr + metrics.csv")
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="turn a trace into per-interval CSV series")
    p_an.add_argument("--trace", required=True, help="trace file to analyze")
    p_an.add_argument("--interval", type=float, default=1.0, help="window size in seconds")
    p_an.add_argument("--node", type=int, default=0, help="node whose events are counted")
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="sweep the channel count and report accept fractions")
    p_sw.add_argument("--config", required=True, help="base scenario config file")
    p_sw.add_argument("--k", required=True, help="comma-separated channel counts, e.g. 1,2,4,8")
    p_sw.add_argument("--reps", type=int, default=10, help="repetitions per k")
    p_sw.add_argument("--jobs", type=int, default=default_jobs(),
                      help=f"processes to run in, 1..{MAX_JOBS} (default: usable CPUs)")
    p_sw.set_defaults(func=cmd_sweep)

    p_let = sub.add_parser("let", help="compute a link expiration time")
    for flag, desc in (("--sx", "sender x"), ("--sy", "sender y"),
                       ("--svx", "sender x velocity"), ("--svy", "sender y velocity"),
                       ("--rx", "receiver x"), ("--ry", "receiver y"),
                       ("--rvx", "receiver x velocity"), ("--rvy", "receiver y velocity"),
                       ("--r", "transmission range")):
        p_let.add_argument(flag, type=float, required=True, help=desc)
    p_let.add_argument("--mode", choices=("paper", "strict"), default=None,
                       help="print one mode only (default: both when they differ)")
    p_let.set_defaults(func=cmd_let)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_USAGE
    except TraceParseError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
