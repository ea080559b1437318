#!/usr/bin/env python3
"""manetsim benchmark: times the real CLI from outside and checks every output.

Run from the repository root:

    python3 bench/run.py --workload flood_saodv --seed 1 --seconds 27 --trace 0

Each workload is a closed loop with one client: one CLI subprocess runs at a
time and the next starts only after the previous one exits.  The program only
sees config files this script writes from ``--seed``.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics of untraced runs; with
``--trace 1`` untraced and traced (``bench/traced.py``) invocations alternate
and the line carries the per-layer metrics.  Lines before it, prefixed ``#``,
give sample counts and the output digests.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"

#: Hash seed of every timed invocation, so dict layouts do not vary between
#: samples.  The determinism probe runs under a different one.
TIMED_HASH_SEED = "0"
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
#: Fresh interpreters started per run to measure set-up time.
SETUP_PROBES = 5
#: Fewest timed invocations in a run, however short ``--seconds`` is.
MIN_INVOCATIONS = 3
#: Largest |accept fraction - 1/k| a sweep row may show.  A run sees about
#: 4000 flood packets per repetition, so binomial noise is below 0.01.
SWEEP_TOLERANCE = 0.05

SETUP_CODE = ("import sys\n"
              "from manetsim.config import load_config\n"
              "from manetsim.engine import Simulation\n"
              "Simulation(load_config(sys.argv[1]))\n")


# -- generated inputs ----------------------------------------------------------

def flood_config(seed: int) -> str:
    """The shipped ``table1_saodv`` scenario plus one seeded honest flow.

    Placement and mobility keep the shipped seed 8, which puts the flooder in
    range of the victim; with other seeds the flood is often rejected one hop
    earlier and the victim sees none of it.  The benchmark seed adds a
    second CBR flow between two other honest nodes.
    """
    rng = random.Random(f"flood_saodv/{seed}")
    src, dst = rng.sample(range(1, 24), 2)
    start = rng.uniform(1.0, 5.0)
    return (f"nn = 25\nx = 50\ny = 50\nstop = 50\nrp = SAODV\nseed = 8\n"
            f"range_r = 15\nk = 2\n"
            f"flows = 24:0:4:100:1; {src}:{dst}:4:100:{start!r}\n"
            "attacker.enabled = true\nattacker.target = 0\nattacker.start = 10\n"
            "attacker.rate = 200\nattacker.payload = 100\n"
            "attacker.sophistication = NAIVE_FIXED\n")


DENSE_NODES = 200
DENSE_STOP = 20
#: Seed of the one dense scenario, whatever the benchmark seed.
DENSE_SCENARIO_SEED = 1


def dense_config(seed: int) -> str:
    """200 random-waypoint nodes on 150x150 m with MLET admission and loss.

    The benchmark seed is not used.  Over scenario seeds 1-10 the trace
    length of this scenario spreads by 19% (interquartile range over median),
    mostly through how many RREQ floods a placement sets off, and even
    reseeding only the flow start times leaves 6%.  That is too much for a
    timing bound, so every run uses scenario seed 1.
    """
    rng = random.Random(f"dense_mlet/{DENSE_SCENARIO_SEED}")
    flows = []
    for _ in range(4):
        src, dst = rng.sample(range(DENSE_NODES), 2)
        flows.append(f"{src}:{dst}:4:100:{rng.uniform(1.0, 3.0)!r}")
    return (f"nn = {DENSE_NODES}\nx = 150\ny = 150\nstop = {DENSE_STOP}\n"
            f"rp = AODV_MLET\nseed = {DENSE_SCENARIO_SEED}\nrange_r = 15\n"
            "speed_min = 0\nspeed_max = 5\nloss_prob = 0.05\n"
            f"flows = {'; '.join(flows)}\n")


SWEEP_K = (1, 2, 4, 8)
SWEEP_REPS = 2
SWEEP_STOP = 50


def sweep_config(seed: int) -> str:
    """``channel_sweep_experiment.py`` settings: two static nodes, a guessing flooder."""
    return (f"nn = 2\nx = 50\ny = 50\nstop = {SWEEP_STOP}\nrp = SAODV\nseed = {seed}\n"
            "range_r = 15\nk = 2\nnodes = 10,10; 20,10\nflows = 1:0:4:100:1\n"
            "energy.initial = 1000\n"
            "attacker.enabled = true\nattacker.target = 0\nattacker.start = 10\n"
            "attacker.rate = 100\nattacker.payload = 400\n"
            "attacker.sophistication = NAIVE_RANDOM\nattacker.pos = 10,20\n")


# -- output checks ---------------------------------------------------------------

def _summary_count(stdout: str, key: str) -> Optional[int]:
    match = re.search(rf"\b{key}=(\d+)", stdout)
    return int(match.group(1)) if match else None


def check_flood(stdout: str) -> List[str]:
    accepts = _summary_count(stdout, "malicious_accepts")
    drops = _summary_count(stdout, "malicious_drops")
    problems = []
    if accepts != 0:
        problems.append(f"victim accepted {accepts} flood packets, expected 0")
    if not drops:
        problems.append(f"victim dropped {drops} flood packets, expected > 0")
    return problems


def check_dense(stdout: str) -> List[str]:
    rejects = _summary_count(stdout, "LET_REJECT")
    delivered = _summary_count(stdout, "delivered")
    problems = []
    if not rejects:
        problems.append(f"LET_REJECT drops: {rejects}, expected > 0")
    if not delivered:
        problems.append(f"honest deliveries: {delivered}, expected > 0")
    return problems


def check_sweep(stdout: str) -> List[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "k,mean_accept_fraction,stddev":
        return ["sweep output has no CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != list(SWEEP_K):
        return [f"sweep rows cover k={[row[0] for row in rows]}, expected {SWEEP_K}"]
    problems = []
    for k, mean, _ in rows:
        if not abs(float(mean) - 1.0 / int(k)) <= SWEEP_TOLERANCE:
            problems.append(f"k={k}: accept fraction {mean} is not within "
                            f"{SWEEP_TOLERANCE} of 1/k")
    return problems


def trace_facts(trace_path: Path):
    """(last event time, DATA drop lines) of a trace, read independently of manetsim."""
    last, data_drops = 0.0, 0
    with open(trace_path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            last = max(last, float(tokens[1]))
            if tokens[0] == "d" and tokens[4] == "DATA":
                data_drops += 1
    return last, data_drops


def make_analyze_check(trace_path: Path) -> Callable[[str], List[str]]:
    last, data_drops = trace_facts(trace_path)

    def check(stdout: str) -> List[str]:
        lines = stdout.splitlines()
        if not lines or lines[0] != "t,drops,drop_bytes,receives,cum_data_loss,victim_energy":
            return ["analyze output has no CSV header with victim_energy"]
        rows = [line.split(",") for line in lines[1:]]
        problems = []
        if len(rows) != math.floor(last) + 1:
            problems.append(f"{len(rows)} windows, expected {math.floor(last) + 1}")
        if not rows or int(rows[-1][4]) != data_drops:
            problems.append(f"cumulative data loss is not the trace's {data_drops} DATA drops")
        return problems
    return check


# -- workloads --------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    config: Callable[[int], str]
    #: CLI arguments after ``python3 -m manetsim``; {cfg}, {out}, {trace} are filled in.
    argv: List[str]
    #: Output files digested; "stdout" means the command's standard output.
    outputs: List[str]
    #: Semantic check of one invocation's stdout; None for the analyze one,
    #: which is built from the generated input trace.
    check: Optional[Callable[[str], List[str]]]
    #: Spans that must record calls in a traced invocation.
    spans: List[str]
    #: Simulated seconds one invocation covers; None for the analyze input's span.
    sim_seconds: Optional[float]


_RUN_SPANS = ["engine.run", "engine.setup", "medium.broadcast", "mobility.kinematics",
              "mobility.advance", "saodv.tag", "aodv.handler", "energy.debit",
              "model.trace_record", "model.format", "cli.write", "config.load"]

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("flood_saodv", flood_config,
             ["run", "--config", "{cfg}", "--out", "{out}"],
             ["trace.tr", "metrics.csv"], check_flood,
             _RUN_SPANS + ["saodv.verify"], 50.0),
    Workload("dense_mlet", dense_config,
             ["run", "--config", "{cfg}", "--out", "{out}"],
             ["trace.tr", "metrics.csv"], check_dense,
             _RUN_SPANS + ["mlet.admit", "mlet.annotate", "mobility.let"],
             float(DENSE_STOP)),
    Workload("sweep_k", sweep_config,
             ["sweep", "--config", "{cfg}", "--k", ",".join(map(str, SWEEP_K)),
              "--reps", str(SWEEP_REPS)],
             ["stdout"], check_sweep,
             ["engine.run", "engine.setup", "medium.broadcast", "mobility.kinematics",
              "saodv.verify", "saodv.tag", "aodv.handler", "energy.debit",
              "model.trace_record", "config.load"],
             float(len(SWEEP_K) * SWEEP_REPS * SWEEP_STOP)),
    # The config is the dense_mlet one that generates the input trace.
    Workload("analyze_trace", dense_config,
             ["analyze", "--trace", "{trace}", "--interval", "1.0", "--node", "0"],
             ["stdout"], None, ["analyze.read", "analyze.series"], None),
)}


# -- running the CLI ------------------------------------------------------------------

@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    outdir: Path
    trace_bytes: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def expect(self, digests: Dict[str, str], source: str):
        """Require the same output digests as another invocation of the same inputs."""
        if not self.problems and self.digests != digests:
            self.problems.append(f"digests differ from {source}")


class SetupError(RuntimeError):
    """The benchmark could not prepare a workload's inputs or set-up probe."""


def child_env(hash_seed: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    env.pop("MANETSIM_SEED", None)  # the CLI would let it override the config seed
    return env


def spawn(argv: List[str], outdir: Path, hash_seed: str) -> Invocation:
    """Run one child to completion; wall time, CPU time and peak RSS are its own."""
    outdir.mkdir(parents=True)
    with open(outdir / "stdout.txt", "wb") as out, open(outdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(hash_seed),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 reports this child's rusage alone; RUSAGE_CHILDREN would
            # carry the largest RSS of every earlier child forward.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = (outdir / "stdout.txt").read_text(encoding="utf-8", errors="replace")
    return Invocation(exit_code=proc.returncode, wall_s=wall,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0, stdout=stdout, outdir=outdir)


def cli_argv(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "manetsim"] + args


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Bench:
    """One workload at one seed: its generated inputs and the checks on every invocation."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.count = 0
        work.mkdir(parents=True)
        self.cfg = work / "scenario.cfg"
        self.cfg.write_text(workload.config(seed), encoding="utf-8")
        self.check = workload.check
        self.sim_seconds = workload.sim_seconds
        self.trace = work / "input" / "trace.tr"
        if workload.sim_seconds is None:
            self._make_analyze_input()
        pins = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        self.pinned: Optional[Dict[str, str]] = pins.get(workload.name, {}).get(str(seed))

    def _make_analyze_input(self):
        gen = spawn(cli_argv(["run", "--config", str(self.cfg), "--out", str(self.trace.parent)]),
                    self.work / "input-log", TIMED_HASH_SEED)
        if gen.exit_code != 0:
            raise SetupError(f"generating the analyze input failed: exit {gen.exit_code}")
        self.sim_seconds, _ = trace_facts(self.trace)
        self.check = make_analyze_check(self.trace)

    def args(self, outdir: Path) -> List[str]:
        return [a.format(cfg=self.cfg, out=outdir, trace=self.trace) for a in self.w.argv]

    def invoke(self, hash_seed: str = TIMED_HASH_SEED,
               traced_stats: Optional[Path] = None) -> Invocation:
        """One invocation, checked: exit code, semantic checks and output digests."""
        self.count += 1
        outdir = self.work / f"inv{self.count}"
        if traced_stats is None:
            argv = cli_argv(self.args(outdir))
        else:
            argv = [sys.executable, str(BENCH / "traced.py"), str(traced_stats)] + self.args(outdir)
        inv = spawn(argv, outdir, hash_seed)
        if inv.exit_code != 0:
            tail = (outdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            inv.problems.append(f"exit code {inv.exit_code}: {' | '.join(tail)}")
        else:
            self._check(inv)
        shutil.rmtree(outdir)
        return inv

    def _check(self, inv: Invocation):
        for name in self.w.outputs:
            path = inv.outdir / ("stdout.txt" if name == "stdout" else name)
            inv.digests[name] = sha256(path) if path.exists() else "missing"
        if self.pinned is not None and inv.digests != self.pinned:
            inv.problems.append(f"digests differ from the ones pinned for seed {self.seed}")
        if "trace.tr" in inv.digests:
            inv.trace_bytes = (inv.outdir / "trace.tr").stat().st_size
        inv.problems.extend(self.check(inv.stdout))


def setup_time(bench: Bench) -> float:
    """Median wall time of a fresh interpreter that builds the workload's Simulation."""
    times = []
    for i in range(SETUP_PROBES):
        probe = spawn([sys.executable, "-c", SETUP_CODE, str(bench.cfg)],
                      bench.work / f"setup{i}", TIMED_HASH_SEED)
        if probe.exit_code != 0:
            raise SetupError(f"set-up probe failed: exit {probe.exit_code}")
        times.append(probe.wall_s)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run -------------------------------------------------------------

def measure(bench: Bench, seconds: float, traced: bool):
    """Run the closed loop; returns (invocations attempted, invocations failed, metrics)."""
    # The probe goes first: it also compiles bytecode before anything is timed.
    hash_seed = str(1 + bench.seed % 4294967294)
    probe = bench.invoke(hash_seed=hash_seed)
    stats_path = bench.work / "stats.json"
    runs, traced_runs, stats = [], [], []
    start = time.perf_counter()
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        inv = bench.invoke()
        inv.expect(probe.digests, f"the run under PYTHONHASHSEED={hash_seed}")
        runs.append(inv)
        if traced:
            tinv = bench.invoke(traced_stats=stats_path)
            tinv.expect(inv.digests, "the untraced run")
            traced_runs.append(tinv)
            if tinv.exit_code == 0:
                stats.append(json.loads(stats_path.read_text(encoding="utf-8")))
    if traced:
        metrics = layer_metrics(bench, runs, traced_runs, stats)
    every = [probe] + runs + traced_runs
    failed = 0
    for inv in every:
        if inv.problems:
            failed += 1
            print(f"# FAILED {inv.outdir.name}: {'; '.join(inv.problems)}")
    walls = [inv.wall_s for inv in runs]
    wall = statistics.median(walls)
    print(f"# {bench.w.name} seed={bench.seed}: {len(runs)} timed invocations, wall median "
          f"{wall:.4f} s (min {min(walls):.4f}, max {max(walls):.4f}), "
          f"sim_s_per_s {bench.sim_seconds / wall:.4g} s/s")
    pinned = "pinned" if bench.pinned is not None else "held-out"
    print(f"# digests ({pinned} seed {bench.seed}): {json.dumps(probe.digests, sort_keys=True)}")
    if not traced:
        metrics = {
            "wall_s": metric(wall, "s"),
            "peak_rss_mb": metric(statistics.median(inv.rss_mb for inv in runs), "MB"),
            "setup_s": metric(setup_time(bench), "s"),
            "pass_frac": metric((len(every) - failed) / len(every), "fraction"),
        }
    return len(every), failed, metrics


NO_STATS = {"calls": {}, "total": {}, "self": {}, "counts": {}}


def layer_metrics(bench: Bench, runs: List[Invocation], traced_runs: List[Invocation],
                  stats: List[dict]) -> dict:
    """Per-layer metrics: span times are medians over traced invocations, counts exact.

    Marks every traced invocation failed when an expected span saw no calls or
    when the counts differ between traced invocations.
    """
    stats = stats or [NO_STATS]
    first = stats[0]
    problems = []
    if any(s["calls"] != first["calls"] or s["counts"] != first["counts"] for s in stats):
        problems.append("span call counts differ between traced invocations")
    silent = [name for name in bench.w.spans if not first["calls"].get(name)]
    if silent:
        problems.append(f"expected spans recorded no calls: {', '.join(silent)}")
    for inv in traced_runs:
        inv.problems.extend(problems)

    def median_of(kind, name):
        return statistics.median(s[kind].get(name, 0.0) for s in stats)

    def total(name):
        return median_of("total", name)

    def calls(name):
        return first["calls"].get(name, 0)

    def count(name):
        return first["counts"].get(name, 0)

    def frac(part, whole):
        return part / whole if whole else 0.0

    untraced = statistics.median(inv.wall_s for inv in runs)
    traced = statistics.median(inv.wall_s for inv in traced_runs)
    s, c = "s", "count"
    return {
        "engine.self_s": metric(median_of("self", "engine.run"), s),
        "engine.events": metric(count("heap.pops"), c),
        "engine.deliver_events": metric(count("heap.deliver_pops"), c),
        "engine.heap_peak": metric(count("heap.peak"), c),
        "engine.setup_s": metric(total("engine.setup"), s),
        "medium.broadcast_s": metric(total("medium.broadcast"), s),
        "medium.broadcast_calls": metric(calls("medium.broadcast"), c),
        "medium.deliveries": metric(count("medium.deliveries"), c),
        "medium.overheard_frac": metric(frac(count("heap.overheard_pushes"),
                                             count("heap.deliver_pushes")), "fraction"),
        "mobility.kinematics_s": metric(total("mobility.kinematics"), s),
        "mobility.kinematics_calls": metric(calls("mobility.kinematics"), c),
        "mobility.advance_calls": metric(calls("mobility.advance"), c),
        "mobility.let_s": metric(total("mobility.let"), s),
        "saodv.verify_s": metric(total("saodv.verify"), s),
        "saodv.verify_calls": metric(calls("saodv.verify"), c),
        "saodv.reject_frac": metric(frac(count("saodv.rejects"), calls("saodv.verify")),
                                    "fraction"),
        "saodv.tag_s": metric(total("saodv.tag"), s),
        "mlet.admit_s": metric(total("mlet.admit"), s),
        "mlet.admit_calls": metric(calls("mlet.admit"), c),
        "mlet.reject_frac": metric(frac(count("mlet.rejects"), calls("mlet.admit")),
                                   "fraction"),
        "mlet.annotate_calls": metric(calls("mlet.annotate"), c),
        "aodv.handler_s": metric(total("aodv.handler"), s),
        "aodv.handler_calls": metric(calls("aodv.handler"), c),
        "energy.debit_s": metric(total("energy.debit"), s),
        "energy.debit_calls": metric(calls("energy.debit"), c),
        "model.trace_records": metric(calls("model.trace_record"), c),
        "model.trace_record_s": metric(total("model.trace_record"), s),
        "model.format_s": metric(total("model.format"), s),
        "cli.write_s": metric(total("cli.write"), s),
        "cli.trace_bytes": metric(runs[0].trace_bytes, "bytes"),
        "config.load_s": metric(total("config.load"), s),
        "analyze.read_s": metric(total("analyze.read"), s),
        "analyze.series_s": metric(total("analyze.series"), s),
        "analyze.lines": metric(count("analyze.lines"), c),
        "proc.cpu_s": metric(statistics.median(inv.cpu_s for inv in runs), s),
        "trace.overhead_frac": metric(traced / untraced - 1.0, "fraction"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "manetsim" / "__init__.py").is_file():
        print(f"error: no manetsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        attempted, failed, metrics = measure(bench, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
