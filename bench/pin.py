#!/usr/bin/env python3
"""Regenerate ``bench/digests.json``: output digests of every workload per seed.

    python3 bench/pin.py --seeds 0-31

Run it only in a change that alters trace, metrics, sweep or analyze output
on purpose, and say so in CHANGES.md.  Each seed runs once per workload, and
a seed whose outputs fail a semantic check is not pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import DIGESTS, WORK, WORKLOADS, Bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    pins = {}
    status = 0
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for seed in range(first, last + 1):
            work = WORK / f"pin-{name}-{seed}-{os.getpid()}"
            try:
                bench = Bench(workload, seed, work)
                bench.pinned = None
                inv = bench.invoke()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if inv.problems:
                print(f"{name} seed {seed}: not pinned: {'; '.join(inv.problems)}")
                status = 1
                continue
            pins[name][str(seed)] = inv.digests
            print(f"{name} seed {seed}: {inv.wall_s:.2f} s", flush=True)
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
