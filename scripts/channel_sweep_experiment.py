#!/usr/bin/env python3
"""Channel-count sweep: how the flood's acceptance rate at the victim falls
with the number of frequencies.

Uses a uniformly guessing attacker (the interesting case: a tag-forging
insider is always accepted, a fixed-channel flooder is always rejected) and
writes k,mean,stddev rows to a CSV."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from manetsim.cli import default_jobs, sweep_accept_fractions
from manetsim.config import MAX_COUNT, ConfigError, Protocol, Sophistication, load_config

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=os.path.join(REPO, "configs", "attack_demo.cfg"))
    parser.add_argument("--k", default="1,2,4,8,16")
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(REPO, "out", "channel_sweep.csv"))
    args = parser.parse_args()

    try:
        k_values = [int(tok) for tok in args.k.split(",")]
    except ValueError:
        parser.error(f"--k expects a comma-separated integer list, got {args.k!r}")
    if not 1 <= args.reps <= MAX_COUNT:
        parser.error(f"--reps must be in 1..{MAX_COUNT}")
    try:
        cfg = load_config(args.config)
        # Uniform guesser with a battery large enough to survive accepted floods.
        cfg = cfg._replace(protocol=Protocol.SAODV,
                           attacker_sophistication=Sophistication.NAIVE_RANDOM,
                           energy_initial=1000.0)
        rows = sweep_accept_fractions(cfg, k_values, args.reps, default_jobs())
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("k,mean_accept_fraction,stddev\n")
        for k, mean, dev in rows:
            fh.write(f"{k},{mean:.6f},{dev:.6f}\n")
            print(f"k={k:<3d} accept fraction {mean:.4f} (+/- {dev:.4f}), 1/k = {1.0 / k:.4f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
