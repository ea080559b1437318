import io
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manetsim import engine, model
from manetsim.cli import MAX_JOBS, build_parser, main, sweep_accept_fractions
from manetsim.config import (ConfigError, check_config, load_config, parse_config_text,
                             validate_config)

from .conftest import CONFIG_DIR, DATA_DIR, run_traced, write_events

GOLDEN_CFG = str(DATA_DIR / "golden_3node.cfg")


def _run(tmp_path, *extra):
    out = tmp_path / "out"
    code = main(["run", "--config", GOLDEN_CFG, "--out", str(out), *extra])
    return code, out


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    code, out = _run(tmp_path)
    assert code == 0
    assert (out / "trace.tr").is_file()
    assert (out / "metrics.csv").is_file()
    stdout = capsys.readouterr().out
    assert "protocol=AODV" in stdout
    assert "honest data" in stdout


def test_run_summary_counts_originated_honest_data(tmp_path, capsys):
    # 11 packets are still buffered at stop: 196 = 51 delivered + 134 lost + 11.
    code = main(["run", "--config", str(CONFIG_DIR / "table1_aodv.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "honest data: originated=196 sent=101 delivered=51 lost=134"


def test_run_twice_is_byte_identical(tmp_path):
    _, out_a = _run(tmp_path / "a")
    _, out_b = _run(tmp_path / "b")
    assert (out_a / "trace.tr").read_bytes() == (out_b / "trace.tr").read_bytes()
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")) + [DATA_DIR / "golden_3node.cfg"],
                         ids=lambda p: p.stem)
def test_streamed_trace_equals_the_written_list(path, tmp_path):
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
    write_events(tmp_path / "list.tr", run_traced(load_config(str(path)))[0])
    assert (tmp_path / "cli" / "trace.tr").read_bytes() == (tmp_path / "list.tr").read_bytes()


def test_failed_run_keeps_the_earlier_outputs(tmp_path, monkeypatch):
    code, out = _run(tmp_path)
    assert code == 0
    before = {name: (out / name).read_bytes() for name in ("trace.tr", "metrics.csv")}
    streaming = []

    def broken_check(self):
        streaming.append((out / "trace.tr.part").is_file())
        raise RuntimeError("conservation broken")

    monkeypatch.setattr(engine.Simulation, "_check_conservation", broken_check)
    with pytest.raises(RuntimeError, match="conservation broken"):
        _run(tmp_path)
    assert streaming == [True]  # the run wrote beside the old trace, not over it
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv", "trace.tr"]
    assert {name: (out / name).read_bytes() for name in before} == before


def test_uncreatable_out_exits_3_before_the_run(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    calls = []
    monkeypatch.setattr(engine, "Simulation", lambda *args, **kwargs: calls.append(args))
    code = main(["run", "--config", GOLDEN_CFG, "--out", str(blocker / "out")])
    assert code == 3
    assert calls == []
    assert "i/o error" in capsys.readouterr().err


def _flood_config(stop):
    """Two static nodes under a 200 pkt/s flood: the trace grows about 420 lines/s."""
    return (f"nn = 2\nstop = {stop}\nrp = SAODV\nk = 2\nnodes = 10,10; 20,10\n"
            "flows = 1:0:4:100:1\nenergy.initial = inf\n"
            "attacker.enabled = true\nattacker.target = 0\nattacker.start = 0\n"
            "attacker.rate = 200\nattacker.sophistication = NAIVE_RANDOM\n"
            "attacker.pos = 10,20\n")


def _run_peak_memory(tmp_path, stop):
    """(peak bytes tracemalloc sees during one `run`, lines of its trace)."""
    cfg = tmp_path / f"flood{stop}.cfg"
    cfg.write_text(_flood_config(stop))
    out = tmp_path / f"out{stop}"
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    with open(out / "trace.tr", encoding="utf-8") as fh:
        return peak, sum(1 for _ in fh)


def test_run_memory_does_not_grow_with_the_trace(tmp_path, capsys):
    # Held as a list, the longer trace raised the peak about 3.3x.
    _run_peak_memory(tmp_path, 0.5)  # first-use imports and caches stay out of the peaks
    short_peak, short_lines = _run_peak_memory(tmp_path, 2)
    long_peak, long_lines = _run_peak_memory(tmp_path, 8)
    assert long_lines >= 3 * short_lines
    assert long_peak < 1.5 * short_peak


def test_run_missing_config_exits_3(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert not (tmp_path / "out").exists()  # no partial outputs


@pytest.mark.parametrize("command", [("run",), ("sweep", "--k", "2", "--reps", "1")],
                         ids=lambda c: c[0])
def test_a_missing_or_directory_config_is_an_io_error(tmp_path, capsys, command):
    # The config loader's OSError is the one error path: main prints it, exit 3.
    for config in (tmp_path / "nope.cfg", tmp_path):
        out = tmp_path / "out"
        argv = [command[0], "--config", str(config), *command[1:]]
        if command[0] == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ") and str(config) in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()


def test_run_invalid_config_lists_all_violations(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nn = 0\nwhatever = 1\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "nn" in err and "whatever" in err


def test_seed_flag_overrides_config(tmp_path):
    # table1_aodv places its nodes at random, so its bytes depend on the seed.
    config = str(CONFIG_DIR / "table1_aodv.cfg")
    for name, extra in (("plain", []), ("flag", ["--seed", "42"])):
        assert main(["run", "--config", config, "--out", str(tmp_path / name), *extra]) == 0
    write_events(tmp_path / "seed42.tr", run_traced(load_config(config)._replace(rng_seed=42))[0])
    flagged = (tmp_path / "flag" / "trace.tr").read_bytes()
    assert flagged == (tmp_path / "seed42.tr").read_bytes()
    assert flagged != (tmp_path / "plain" / "trace.tr").read_bytes()


def test_an_ambient_seed_variable_changes_no_byte(tmp_path, monkeypatch):
    # Only --seed overrides the config seed, in run as in sweep: a seed variable
    # named after the program is ignored.  table1_aodv places its nodes at
    # random, so another seed would change its bytes.
    config = str(CONFIG_DIR / "table1_aodv.cfg")
    assert main(["run", "--config", config, "--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv(build_parser().prog.upper() + "_SEED", "12345")
    assert main(["run", "--config", config, "--out", str(tmp_path / "ambient")]) == 0
    for name in ("trace.tr", "metrics.csv"):
        assert (tmp_path / "ambient" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


def test_analyze_closes_the_loop_on_run_output(tmp_path, capsys):
    _, out = _run(tmp_path)
    capsys.readouterr()
    code = main(["analyze", "--trace", str(out / "trace.tr"), "--node", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # metrics.csv sits next to the trace, so the energy column is included
    assert lines[0] == "t,drops,drop_bytes,receives,cum_data_loss,victim_energy"
    assert len(lines) > 1
    assert all(len(line.split(",")) == 6 for line in lines)


def test_analyze_joins_the_energy_sample_at_its_window_end(tmp_path, capsys):
    # Samples every 2/3 s: metrics.csv stores t = 0.666667, later than the
    # window end 0.6666666666666666 by more than a 1e-9 tolerance covers.
    cfg = tmp_path / "thirds.cfg"
    cfg.write_text("nn = 3\nstop = 3\nmetrics_interval = 0.6666666666666666\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--trace", str(out / "trace.tr"),
                 "--interval", "0.6666666666666666"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    def fields(csv):  # the rows under the header, split into fields
        return [line.split(",") for line in csv.splitlines()[1:]]

    windows = [(row[0], row[-1]) for row in fields(captured.out)]
    samples = [(row[0], row[3]) for row in fields((out / "metrics.csv").read_text())]
    assert [t for t, _ in samples] == ["0.666667", "1.333333", "2.000000", "2.666667"]
    # Each window ends on a sample's own t, and the last one after every sample.
    assert windows == samples + [("3.333333", samples[-1][1])]


def test_analyze_without_metrics_file(tmp_path, capsys):
    _, out = _run(tmp_path)
    (out / "metrics.csv").unlink()
    capsys.readouterr()
    code = main(["analyze", "--trace", str(out / "trace.tr")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,drops,drop_bytes,receives,cum_data_loss"


def test_analyze_malformed_trace_exits_4(tmp_path, capsys):
    trace = tmp_path / "broken.tr"
    trace.write_text("s 0.100000 0 1 DATA 100 --- 1 0 1 0 0\n"
                     "r 0.2 1 0 DATA 100 --- 1 0 1 0\n")
    code = main(["analyze", "--trace", str(trace)])
    assert code == 4
    assert "line 2" in capsys.readouterr().err


def _cli_env():
    src = str(Path(__file__).parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cli(*args, python_flags=()):
    return subprocess.run([sys.executable, *python_flags, "-m", "manetsim", *args],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)


@pytest.mark.parametrize("content,error", [
    (b"t,victim_energy\n1.000000,9.9\n2.000000,n/a\n",
     "line 3: victim_energy is not a number: 'n/a'"),
    (b"\xff\xfe", "line 1: not UTF-8 (invalid start byte)"),
    (b"t,victim_energy\n1.0,9.9\n\xff", "line 3: not UTF-8 (invalid start byte)"),
    (b"t,victim_energy\r1.0,9.9\r\xff", "line 3: not UTF-8 (invalid start byte)"),
])
def test_analyze_malformed_metrics_exits_4_without_traceback(tmp_path, content, error):
    trace = tmp_path / "trace.tr"
    trace.write_text("s 0.100000 0 1 DATA 100 --- 1 0 1 0 0\n")
    (tmp_path / "metrics.csv").write_bytes(content)
    proc = _cli("analyze", "--trace", str(trace))
    assert proc.returncode == 4
    assert proc.stderr == f"metrics error: {tmp_path / 'metrics.csv'}: {error}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("content,error", [
    (b"\xffs 0.100000 0 1 DATA 100 --- 1 0 1 0 0\n", "line 1: not UTF-8 (invalid start byte)"),
    (b"s 0.100000 0 1 DATA 100 --- 1 0 1 0 0\ns 0.2\xc3 0 1\n",
     "line 2: not UTF-8 (invalid continuation byte)"),
    (b"s 0.100000 0 1 DATA 100 --- 1 0 1 0 0\rs 0.2\xc3 0 1\r",
     "line 2: not UTF-8 (invalid continuation byte)"),
], ids=["first-byte", "line-2", "cr-line-2"])
def test_analyze_non_utf8_trace_exits_4_without_traceback(tmp_path, content, error):
    trace = tmp_path / "trace.tr"
    trace.write_bytes(content)
    proc = _cli("analyze", "--trace", str(trace))
    assert proc.returncode == 4
    assert proc.stderr == f"trace error: {error}\n"
    assert proc.stdout == ""


def test_analyze_empty_trace_is_fine(tmp_path, capsys):
    trace = tmp_path / "empty.tr"
    trace.write_text("")
    code = main(["analyze", "--trace", str(trace)])
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines()[0].startswith("t,")


def test_analyze_missing_trace_exits_3(tmp_path):
    assert main(["analyze", "--trace", str(tmp_path / "nope.tr")]) == 3


def test_analyze_rejects_non_positive_interval(tmp_path):
    trace = tmp_path / "t.tr"
    trace.write_text("")
    assert main(["analyze", "--trace", str(trace), "--interval", "0"]) == 2


@pytest.mark.parametrize("time,interval,error", [
    ("0.1", "nan", "error: --interval must be finite and positive, got nan"),
    ("0.1", "inf", "error: --interval must be finite and positive, got inf"),
    ("0.1", "-inf", "error: --interval must be finite and positive, got -inf"),
    ("0.1", "1e-300", "error: interval 1e-300 s over a trace ending at 0.1 s gives more "
                      "than 1000000 windows"),
    ("1e300", "1", "error: interval 1.0 s over a trace ending at 1e+300 s gives more "
                   "than 1000000 windows"),
], ids=["nan", "inf", "-inf", "tiny-interval", "huge-time"])
def test_analyze_unusable_window_count_exits_2_without_traceback(tmp_path, time, interval,
                                                                  error):
    trace = tmp_path / "trace.tr"
    trace.write_text(f"s {time} 0 1 DATA 100 --- 1 0 1 0 0\n")
    proc = _cli("analyze", "--trace", str(trace), f"--interval={interval}")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == error + "\n"
    assert proc.stdout == ""


def test_sweep_rejects_bad_k_list(capsys):
    cfg = str(CONFIG_DIR / "attack_demo.cfg")
    for args in (("--k", "0,2", "--reps", "2"),
                 ("--k", "abc", "--reps", "2"),
                 ("--k", "2", "--reps", "0"),
                 ("--k", "2,1000001", "--reps", "2"),
                 ("--k", "2", "--reps", "1000001"),
                 ("--k", "2", "--jobs", "0"),
                 ("--k", "2", "--jobs", "-1"),
                 ("--k", "2", "--jobs", "33"),
                 ("--k", ",", "--reps", "2")):
        assert main(["sweep", "--config", cfg, *args]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, args
    # A k out of bounds is reported by the config check.
    assert main(["sweep", "--config", cfg, "--k", "0,2"]) == 2
    assert capsys.readouterr().err == "config error: k: must be >= 1, got 0\n"
    with pytest.raises(SystemExit) as exc:  # argparse rejects it, after its usage line
        main(["sweep", "--config", cfg, "--k", "2", "--jobs", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == ("manetsim sweep: error: argument --jobs: "
                                             "invalid int value: 'x'")
    assert captured.err.count("error") == 1


def test_sweep_lists_every_bad_argument_at_once(capsys):
    # The CLI stopped at its first failed check, so --jobs went unreported.
    cfg = str(CONFIG_DIR / "attack_demo.cfg")
    assert main(["sweep", "--config", cfg, "--k", "2", "--reps", "0", "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: reps: must be an int in 1..1000000, got 0\n"
                            f"config error: jobs: must be an int in 1..{MAX_JOBS}, got 0\n")


def test_sweep_rejects_a_config_with_no_attacker(tmp_path, capsys, monkeypatch):
    # Without a flood the victim accepts and drops nothing: every row was k,nan,nan.
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text("nn = 2\nstop = 2\nnodes = 10,10; 20,10\nattacker.enabled = false\n")
    monkeypatch.setattr(engine, "Simulation", None)  # any run would raise TypeError
    assert main(["sweep", "--config", str(cfg), "--k", "1,2", "--reps", "1",
                 "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: attacker.enabled: sweep measures the victim's "
                            "accept fraction of the flood; must be true\n")
    _assert_no_child_left()


def test_sweep_rejects_a_flood_that_starts_at_or_after_stop(tmp_path, capsys, monkeypatch):
    # A flood that begins once the run is over reaches nobody: every row was k,nan,nan.
    cfg = tmp_path / "late.cfg"
    monkeypatch.setattr(engine, "Simulation", None)  # any run would raise TypeError
    for start in ("10", "2"):
        cfg.write_text("nn = 2\nstop = 2\nnodes = 10,10; 20,10\nattacker.enabled = true\n"
                       f"attacker.start = {start}\nattacker.pos = 10,20\n")
        assert main(["sweep", "--config", str(cfg), "--k", "1,2", "--reps", "1",
                     "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: attacker.start: sweep measures the victim's "
                                "accept fraction of the flood; must be < stop (2.0), "
                                f"got {float(start)!r}\n")
    _assert_no_child_left()


#: Two static nodes and a uniformly guessing flooder: every accept fraction
#: is a ratio of its own, so a run reported in the wrong place shows.
QUICK_SWEEP_CFG = (
    "nn = 2\nstop = 6\nrp = SAODV\nseed = 5\nrange_r = 15\n"
    "nodes = 10,10; 20,10\nflows = none\n"
    "attacker.enabled = true\nattacker.target = 0\nattacker.start = 1\n"
    "attacker.rate = 100\nattacker.payload = 50\n"
    "attacker.sophistication = NAIVE_RANDOM\nattacker.pos = 10,20\n")


def test_sweep_prints_sorted_table(tmp_path, capsys):
    # A short, fast sweep: the acceptance suite exercises the statistics.
    quick = tmp_path / "quick.cfg"
    quick.write_text(QUICK_SWEEP_CFG)
    code = main(["sweep", "--config", str(quick), "--k", "4,1", "--reps", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,mean_accept_fraction,stddev"
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == [1, 4]
    k1 = float(lines[1].split(",")[1])
    assert k1 == pytest.approx(1.0)  # single channel: verification is vacuous


def _sweep_to_file(path, *args):
    """``manetsim sweep`` with its stdout on a file, as a shell redirect puts it."""
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)  # keep the block buffering a file gets by default
    with open(path, "wb") as out:
        proc = subprocess.run([sys.executable, "-m", "manetsim", "sweep", *args],
                              stdout=out, stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return path.read_bytes()


@pytest.mark.parametrize("k,reps", [("1,2,4", "3"), ("8,2", "2")])
def test_sweep_bytes_do_not_depend_on_jobs(tmp_path, k, reps):
    # On a file stdout is block-buffered: a header still in the buffer at a
    # fork would be copied into each worker, to be written again if it flushed.
    quick = tmp_path / "quick.cfg"
    quick.write_text(QUICK_SWEEP_CFG)
    base = ["--config", str(quick), "--k", k, "--reps", reps]
    outputs = {jobs: _sweep_to_file(tmp_path / f"jobs{jobs}.csv", *base, "--jobs", jobs)
               for jobs in ("1", "2", "3", "4")}
    outputs["default"] = _sweep_to_file(tmp_path / "default.csv", *base)
    lines = outputs["1"].decode().splitlines()
    assert lines[0] == "k,mean_accept_fraction,stddev"
    assert len(lines) == 1 + len(k.split(","))
    assert len({line.split(",", 1)[1] for line in lines[1:]}) == len(lines) - 1
    assert all(out == outputs["1"] for out in outputs.values())


def test_sweep_rows_do_not_depend_on_jobs():
    cfg = validate_config(parse_config_text(QUICK_SWEEP_CFG))
    serial = sweep_accept_fractions(cfg, [4, 1, 2], reps=3, jobs=1)
    assert sweep_accept_fractions(cfg, [4, 1, 2], reps=3, jobs=3) == serial
    assert sweep_accept_fractions(cfg, [4, 1, 2], reps=3, jobs=32) == serial


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_worker_fails_the_sweep_and_is_reaped(monkeypatch):
    cfg = validate_config(parse_config_text(QUICK_SWEEP_CFG))
    parent, real = os.getpid(), engine.Simulation.run

    def fail_in_a_worker(sim):
        if os.getpid() != parent:
            raise ValueError("a run failed in a worker")
        return real(sim)

    # Patched before the fork, so every worker inherits it.
    monkeypatch.setattr(engine.Simulation, "run", fail_in_a_worker)
    started = time.monotonic()
    with pytest.raises(ValueError, match="^a run failed in a worker$"):
        sweep_accept_fractions(cfg, [1, 2], reps=2, jobs=2)
    assert time.monotonic() - started < 10.0
    _assert_no_child_left()


def test_a_worker_that_dies_breaks_the_sweep_and_is_reaped(monkeypatch):
    cfg = validate_config(parse_config_text(QUICK_SWEEP_CFG))
    parent, real = os.getpid(), engine.Simulation.run

    def die_in_a_worker(sim):
        if os.getpid() != parent:
            os._exit(9)  # no exception for the pool to send back
        return real(sim)

    monkeypatch.setattr(engine.Simulation, "run", die_in_a_worker)
    started = time.monotonic()
    with pytest.raises(BrokenProcessPool):
        sweep_accept_fractions(cfg, [1, 2], reps=2, jobs=2)
    assert time.monotonic() - started < 10.0
    _assert_no_child_left()


def test_a_failing_sweep_kills_and_reaps_its_workers(monkeypatch):
    cfg = validate_config(parse_config_text(QUICK_SWEEP_CFG))
    parent = os.getpid()

    def fail_here_stall_there(sim):
        if os.getpid() == parent:
            raise ValueError("a run failed in the sweep's own process")
        time.sleep(60.0)

    monkeypatch.setattr(engine.Simulation, "run", fail_here_stall_there)
    started = time.monotonic()
    with pytest.raises(ValueError, match="own process"):
        sweep_accept_fractions(cfg, [1, 2, 4], reps=2, jobs=3)
    assert time.monotonic() - started < 10.0
    _assert_no_child_left()


def test_a_failing_sweep_leaves_the_callers_own_children_alive(monkeypatch):
    cfg = validate_config(parse_config_text(QUICK_SWEEP_CFG))
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(30.0,))
    child.start()
    try:
        parent = os.getpid()

        def fail_here(sim):
            if os.getpid() == parent:
                raise ValueError("a run failed in the sweep's own process")
            time.sleep(60.0)

        monkeypatch.setattr(engine.Simulation, "run", fail_here)
        with pytest.raises(ValueError, match="own process"):
            sweep_accept_fractions(cfg, [1, 2, 4], reps=2, jobs=3)
        assert child.is_alive()
    finally:
        child.terminate()
        child.join(10.0)
    assert not child.is_alive()
    _assert_no_child_left()


def test_a_bad_k_fails_before_any_run(monkeypatch):
    cfg = validate_config(parse_config_text(QUICK_SWEEP_CFG))
    monkeypatch.setattr(engine, "Simulation", None)  # any run would raise TypeError
    with pytest.raises(ConfigError) as exc:
        sweep_accept_fractions(cfg, [2, 0, 1000001, -1], reps=2, jobs=2)
    assert exc.value.violations == ["k: must be >= 1, got -1", "k: must be >= 1, got 0",
                                    "k: must be <= 1000000, got 1000001"]
    _assert_no_child_left()


def test_the_sweep_checks_its_own_arguments(monkeypatch):
    # The pool raised ValueError on reps=0, no k or jobs=0, and jobs had no upper bound.
    cfg = validate_config(parse_config_text(QUICK_SWEEP_CFG))
    monkeypatch.setattr(engine, "Simulation", None)  # any run would raise TypeError
    with pytest.raises(ConfigError) as exc:
        sweep_accept_fractions(cfg, [], reps=0, jobs=0)
    assert exc.value.violations == ["k: names no channel count",
                                    "reps: must be an int in 1..1000000, got 0",
                                    f"jobs: must be an int in 1..{MAX_JOBS}, got 0"]
    with pytest.raises(ConfigError) as exc:  # checked here, never by forking that many
        sweep_accept_fractions(cfg, [1, 2], reps=1, jobs=MAX_JOBS + 1)
    assert exc.value.violations == [f"jobs: must be an int in 1..{MAX_JOBS}, "
                                    f"got {MAX_JOBS + 1}"]
    with pytest.raises(ConfigError) as exc:
        sweep_accept_fractions(cfg, [1], reps=1000001, jobs=2.0)
    assert exc.value.violations == ["reps: must be an int in 1..1000000, got 1000001",
                                    f"jobs: must be an int in 1..{MAX_JOBS}, got 2.0"]
    _assert_no_child_left()


#: Experiment config -> the ends of its run summary lines that carry the paper's
#: claims: the victim's battery with and without verification, and loss and
#: RERRs with and without MLET.
EXPERIMENT_SUMMARIES = {
    "attack_demo_aodv": ["final_energy=0.000000 J malicious_accepts=811 malicious_drops=0",
                         "depleted: node0@18.133"],
    "attack_demo": ["final_energy=7.343600 J malicious_accepts=0 malicious_drops=3998"],
    "fig11_aodv": ["sent=236 delivered=216 lost=20", "RERR=3"],
    "fig11_mlet": ["sent=236 delivered=236 lost=0", "RERR=0"],
}


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_run_rewrites_the_committed_metrics_of_each_config(path, tmp_path, capsys):
    repo = Path(__file__).parents[1]
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "metrics.csv").read_bytes()
            == (repo / "out" / f"{path.stem}.metrics.csv").read_bytes())
    lines = capsys.readouterr().out.splitlines()
    for fact in EXPERIMENT_SUMMARIES.get(path.stem, []):
        assert any(line.endswith(fact) for line in lines), fact


def test_channel_sweep_config_rewrites_its_csv():
    # The paper's channel-count experiment, with site-packages off sys.path.
    proc = _cli("sweep", "--config", str(CONFIG_DIR / "channel_sweep.cfg"),
                "--k", "1,2,4,8,16", "--reps", "10", python_flags=("-S",))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (Path(__file__).parents[1] / "out" / "channel_sweep.csv").read_text()


def test_sweep_insider_attacker_is_always_accepted(tmp_path, capsys):
    quick = tmp_path / "insider.cfg"
    quick.write_text(
        "nn = 2\nstop = 6\nrp = SAODV\nseed = 5\nrange_r = 15\n"
        "nodes = 10,10; 20,10\nflows = none\nenergy.initial = 100\n"
        "attacker.enabled = true\nattacker.target = 0\nattacker.start = 1\n"
        "attacker.rate = 100\nattacker.payload = 50\n"
        "attacker.sophistication = INSIDER\nattacker.pos = 10,20\n")
    code = main(["sweep", "--config", str(quick), "--k", "2,8", "--reps", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        assert float(line.split(",")[1]) == pytest.approx(1.0)


def test_let_stationary_pair_prints_inf(capsys):
    code = main(["let", "--sx", "0", "--sy", "0", "--svx", "0", "--svy", "0",
                 "--rx", "1", "--ry", "1", "--rvx", "0", "--rvy", "0", "--r", "250"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_let_radial_flight_prints_six_decimals(capsys):
    code = main(["let", "--sx", "0", "--sy", "0", "--svx", "0", "--svy", "0",
                 "--rx", "0", "--ry", "0", "--rvx", "10", "--rvy", "0", "--r", "250"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "25.000000"


def test_let_modes_printed_separately_when_they_differ(capsys):
    # Parallel tracks offset beyond the range: negative discriminant.
    code = main(["let", "--sx", "0", "--sy", "0", "--svx", "0", "--svy", "0",
                 "--rx", "0", "--ry", "30", "--rvx", "1", "--rvy", "0", "--r", "15"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("paper ") and lines[1] == "strict 0.000000"


def test_let_mode_flag_prints_single_value(capsys):
    code = main(["let", "--sx", "0", "--sy", "0", "--svx", "0", "--svy", "0",
                 "--rx", "0", "--ry", "30", "--rvx", "1", "--rvy", "0", "--r", "15",
                 "--mode", "strict"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_let_non_numeric_input_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["let", "--sx", "zero", "--sy", "0", "--svx", "0", "--svy", "0",
              "--rx", "1", "--ry", "1", "--rvx", "0", "--rvy", "0", "--r", "250"])
    assert exc.value.code == 2


def test_let_rejects_non_positive_range(capsys):
    code = main(["let", "--sx", "0", "--sy", "0", "--svx", "0", "--svy", "0",
                 "--rx", "1", "--ry", "1", "--rvx", "0", "--rvy", "0", "--r", "0"])
    assert code == 2


def test_let_overflowing_input_exits_0_without_traceback():
    proc = _cli("let", "--sx", "0", "--sy", "0", "--svx", "1", "--svy", "0",
                "--rx", "1e200", "--ry", "1e200", "--rvx", "0", "--rvy", "0", "--r", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "paper inf\nstrict 0.000000\n", "")


def test_let_prints_no_nan_for_an_overflowing_discriminant(capsys):
    # inf - inf made PAPER mode print "paper nan"; both modes now give 0.
    code = main(["let", "--sx", "0", "--sy", "0", "--svx", "0", "--svy", "0",
                 "--rx", "0", "--ry", "1e200", "--rvx", "1e200", "--rvy", "0", "--r", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert out == "0.000000\n"


@pytest.mark.parametrize("flag,value", [("--sx", "nan"), ("--rvx", "inf")])
def test_let_non_finite_input_exits_2_without_traceback(flag, value):
    # Kinematics does not check its components; this command is the only guard here.
    args = {"--sx": "0", "--sy": "0", "--svx": "0", "--svy": "0",
            "--rx": "1", "--ry": "1", "--rvx": "0", "--rvy": "0", "--r": "250"}
    args[flag] = value
    proc = _cli("let", *(token for pair in args.items() for token in pair))
    assert proc.returncode == 2
    assert proc.stderr == "error: all kinematics inputs must be finite\n"
    assert proc.stdout == ""


def test_shipped_configs_run_end_to_end(tmp_path, capsys):
    # attack_demo is the slowest shipped config the suite runs here; the
    # table1 pair is covered by the acceptance tests.
    out = tmp_path / "demo"
    code = main(["run", "--config", str(CONFIG_DIR / "attack_demo.cfg"),
                 "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "DROP_MISMATCH" in summary  # the flood is rejected at the victim
    assert main(["analyze", "--trace", str(out / "trace.tr")]) == 0


# Each of these crashed with a traceback or hung before validation required
# finite values and capped the timers; now each is a config error.
REJECTED_CONFIGS = [
    ("stop = inf", "stop: must be finite"),
    ("x = inf", "x: must be finite"),
    ("flows = 0:1:inf:100:1", "flows: entry 0: rate and start must be finite"),
    ("attacker.enabled = true\nattacker.rate = inf", "attacker.rate: must be finite"),
    ("metrics_interval = 1e-7", "metrics_interval: a timer every 1e-07 s"),
    ("hello_interval = 1e-300\nenergy.tx_per_byte = 0\nenergy.rx_per_byte = 0\n"
     "energy.idle_per_sec = 0", "hello_interval: a timer every 1e-300 s"),
    ("flows = 0:1:4:100:nan", "flows: entry 0: rate and start must be finite"),
    ("flows = 0:1:4:100:inf", "flows: entry 0: rate and start must be finite"),
    ("nodes = 10,10,20,10,nan; 20,10", "nodes: entry 0: speed must be >= 0"),
    # Integers beyond their upper bounds: an OverflowError, a KeyError for a
    # victim that is no node, and a MemoryError.
    pytest.param(f"mlet_annex_bytes = {10**400}\nrp = AODV_MLET",
                 "mlet_annex_bytes: must be <= 65535", id="huge-mlet_annex_bytes"),
    pytest.param(f"hello_loss_limit = {10**400}", "hello_loss_limit: must be <= 1000000",
                 id="huge-hello_loss_limit"),
    pytest.param(f"k = {10**400}\nrp = SAODV", "k: must be <= 1000000", id="huge-k"),
    ("flows = 0:1:4:100000", "flows: entry 0: size must be <= 65535"),
    ("attacker.target = 7", "attacker.target: must name an honest node (< 2)"),
    ("nn = 3000000\nstop = 1", "nn: must be <= 1000, got 3000000"),
    # An OverflowError where the neighbour grid turned x / range_r = inf into a cell.
    ("range_r = 1e-300\nx = 1e10\ny = 1e10",
     "range_r: must leave x / range_r and y / range_r finite, got 1e-300"),
    # A leg whose length overflowed to inf left its node standing at its start.
    ("nn = 2\nx = 1.7e308\ny = 1.7e308\nrange_r = 1e300\n"
     "nodes = 0,0,1.7e308,1.7e308,1e300; 10,10",
     "x: must leave the diagonal hypot(x, y) finite, got a 1.7e+308x1.7e+308 area"),
    # Every retry of a discovery fired at one instant, since t + 1e-300 == t:
    # 2,000,103 events and 64 s for two nodes out of range.
    ("nodes = 10,10; 40,10\nretry_timeout = 1e-300\nretry_limit = 100000\n"
     "flows = 1:0:4:100\nstop = 5\nenergy.initial = inf",
     "retry_timeout: a timer every 1e-300 s"),
    # A byte that is not UTF-8 ended in a UnicodeDecodeError traceback.
    pytest.param("\udcff = 1", "line 2: not UTF-8 (invalid start byte)", id="non-utf8"),
    # Lines are counted as the config parser counts them, at str.splitlines ends.
    pytest.param("stop = 5\r\udcff = 1", "line 3: not UTF-8 (invalid start byte)",
                 id="non-utf8-cr"),
]


@pytest.mark.parametrize("lines,violation", REJECTED_CONFIGS)
def test_unrunnable_config_exits_2_without_traceback(tmp_path, lines, violation):
    cfg = tmp_path / "bad.cfg"
    text = f"{lines}\n" if lines.startswith("nn =") else f"nn = 2\n{lines}\n"
    cfg.write_text(text, errors="surrogateescape")  # "\udcff" is the raw byte 0xff
    proc = _cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert f"config error: {violation}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_extreme_speeds_run_to_completion(tmp_path):
    # Link lifetimes of these speeds overflowed a float power: OverflowError.
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("nn = 10\nstop = 5\nrp = AODV_MLET\nspeed_min = 1e299\n"
                   "speed_max = 1e300\npause = 0\n")
    proc = _cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_leg_too_short_to_scale_runs_to_completion(tmp_path):
    # 1 / dist overflowed on this 5e-324 m leg: its start was a NaN position,
    # which the neighbour grid could not floor into a cell (ValueError).
    cfg = tmp_path / "short.cfg"
    cfg.write_text("nn = 2\nstop = 5\nnodes = 0,0,0,5e-324,1; 10,10\n")
    proc = _cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_overflowing_charge_depletes_an_infinite_battery(tmp_path):
    # inf - inf left each battery NaN: dead to the engine, yet never depleted.
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("nn = 3\nstop = 5\nenergy.initial = inf\nenergy.tx_per_byte = 1e307\n")
    proc = _cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stderr) == (0, "")
    [depleted] = [line for line in proc.stdout.splitlines() if line.startswith("depleted:")]
    assert [part.split("@")[0] for part in depleted.split()[1:]] == ["node0", "node1",
                                                                     "node2"]
    assert "nan" not in (tmp_path / "out" / "metrics.csv").read_text()


_spot = st.sampled_from(["0", "12.5", "25", "40", "50"])


@st.composite
def _positions_legs_and_deaths(draw):
    """Config text over positions, scripted legs, speeds and batteries that run out."""
    nn = draw(st.integers(2, 5))
    lines = [f"nn = {nn}", "x = 50", "y = 50", "stop = 4", "range_r = 20",
             f"seed = {draw(st.integers(0, 99))}",
             f"rp = {draw(st.sampled_from(['AODV', 'AODV_MLET', 'SAODV_MLET']))}",
             f"pause = {draw(st.sampled_from(['0', '0.5']))}",
             f"energy.initial = {draw(st.sampled_from(['0.004', '0.02', '10']))}",
             f"flows = 0:{nn - 1}:8:100:0.2"]
    low = draw(st.sampled_from(["0", "3", "30"]))
    high = draw(st.sampled_from([low, "40"]))  # speed_min = speed_max, or a range
    lines += [f"speed_min = {low}", f"speed_max = {high}"]
    if draw(st.booleans()):
        entries = []
        for _ in range(nn):
            entry = f"{draw(_spot)},{draw(_spot)}"
            if draw(st.booleans()):
                entry += f",{draw(_spot)},{draw(_spot)},{draw(st.sampled_from(['0', '2', '20']))}"
            entries.append(entry)
        lines.append(f"nodes = {'; '.join(entries)}")
    if draw(st.booleans()):
        lines += ["attacker.enabled = true", "attacker.start = 1", "attacker.rate = 20",
                  f"attacker.energy = {draw(st.sampled_from(['0.01', 'inf']))}"]
        if draw(st.booleans()):
            lines.append(f"attacker.pos = {draw(_spot)},{draw(_spot)}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=40)
@given(text=_positions_legs_and_deaths())
@example(text="nn = 4\nstop = 4\nrp = AODV_MLET\nenergy.initial = 0.02\nflows = 0:3:8:100:0.2\n"
              "nodes = 0,0,50,50,20; 10,10; 25,25,40,0,0; 50,0,0,50,2\n"
              "attacker.enabled = true\nattacker.start = 1\nattacker.pos = 12.5,40\n")
@example(text="nn = 5\nstop = 4\nrp = SAODV_MLET\nspeed_min = 30\nspeed_max = 30\n"
              "pause = 0\nenergy.initial = 0.004\nflows = 0:4:8:100:0.2\n")
def test_positions_legs_and_deaths_run_and_analyze_cleanly(text):
    """Every such config runs and analyzes with exit 0 and nothing on stderr.

    The run's own conservation check fails it if a packet is lost without
    account, and a config round-trips through its own check unchanged.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "scenario.cfg", str(Path(tmp) / "out")
        cfg.write_text(text)
        loaded = load_config(str(cfg))
        assert check_config(loaded) == loaded
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            codes = (main(["run", "--config", str(cfg), "--out", out]),
                     main(["analyze", "--trace", str(Path(out) / "trace.tr"),
                           "--interval", "0.5"]))
        assert codes == (0, 0) and stderr.getvalue() == "", stderr.getvalue()


def _modules_after(module):
    """The names in ``sys.modules`` once a fresh ``python -S`` has imported ``module``."""
    proc = subprocess.run([sys.executable, "-S", "-c",
                           f"import sys, {module}; print(*sorted(sys.modules))"],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert module in loaded
    return loaded


def test_importing_the_cli_loads_neither_dataclasses_nor_statistics():
    # No module uses dataclasses; only the sweep path loads statistics.
    assert _modules_after("manetsim.cli").isdisjoint({"dataclasses", "statistics"})


def test_importing_the_simulator_loads_no_dataclasses():
    # dataclasses would bring inspect, ast, dis and tokenize into every run.
    assert "dataclasses" not in _modules_after("manetsim.engine")


def _cli_imports(*args):
    """The modules a CLI command loads, as ``-X importtime`` lists them."""
    proc = _cli(*args, python_flags=("-X", "importtime"))
    assert proc.returncode == 0, proc.stderr
    # Each "import time:" line of -X importtime ends with the module's name.
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_analyze_loads_no_simulator_layer(tmp_path):
    trace = tmp_path / "trace.tr"
    trace.write_text("d 0.500000 0 1 DATA 100 --- 1 5 0 0 1\n")
    loaded = _cli_imports("analyze", "--trace", str(trace))
    assert "manetsim.analyze" in loaded
    assert loaded.isdisjoint({"manetsim.engine", "manetsim.aodv", "manetsim.medium",
                              "manetsim.mlet", "manetsim.saodv", "manetsim.config",
                              "manetsim.mobility"})


def test_let_loads_mobility_and_no_config_layer():
    loaded = _cli_imports("let", "--sx", "0", "--sy", "0", "--svx", "1", "--svy", "0",
                          "--rx", "5", "--ry", "0", "--rvx", "-1", "--rvy", "0", "--r", "15")
    assert "manetsim.mobility" in loaded
    assert loaded.isdisjoint({"manetsim.config", "manetsim.engine"})


def test_a_config_error_exits_2_with_every_violation_from_a_fresh_cli(tmp_path):
    """The CLI, which loads the config layer only on use, still catches its errors."""
    bad = tmp_path / "bad.cfg"
    bad.write_text("nn = 0\nwhatever = 1\nloss_prob = 2\n")
    quiet = tmp_path / "quiet.cfg"
    quiet.write_text("nn = 2\nstop = 2\nnodes = 10,10; 20,10\nattacker.enabled = false\n")
    in_file = ["whatever: unknown key", "nn: must be >= 1, got 0",
               "loss_prob: must be < 1.0, got 2.0"]
    in_sweep = ["attacker.enabled: sweep measures the victim's accept fraction of the "
                "flood; must be true", "k: must be >= 1, got 0"]
    sweep = ("--k", "0,1", "--reps", "1", "--jobs", "1")
    for args, violations in [
            (("run", "--config", str(bad), "--out", str(tmp_path / "out")), in_file),
            (("sweep", "--config", str(bad), *sweep), in_file),
            (("sweep", "--config", str(quiet), *sweep), in_sweep)]:
        proc = _cli(*args)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "".join(f"config error: {v}\n" for v in violations)
    assert not (tmp_path / "out").exists()
    with pytest.raises(model.ConfigError) as exc:
        sweep_accept_fractions(load_config(str(quiet)), [0, 1], reps=1)
    assert exc.value.violations == in_sweep
