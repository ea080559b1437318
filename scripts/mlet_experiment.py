#!/usr/bin/env python3
"""Fast-relay experiment: route maintenance cost with and without the
link-lifetime admission filter.

Writes the cumulative honest-packet-loss series of both runs to one CSV and
prints the control-traffic comparison."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from manetsim.config import Protocol, load_config
from manetsim.engine import Simulation
from manetsim.model import PacketKind

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=os.path.join(REPO, "configs", "fig11_mlet.cfg"))
    parser.add_argument("--out", default=os.path.join(REPO, "out", "mlet_loss.csv"))
    args = parser.parse_args()

    cfg = load_config(args.config)
    filtered = Simulation(cfg).run()
    baseline = Simulation(cfg._replace(protocol=Protocol.AODV)).run()

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("t,baseline_cum_loss,filtered_cum_loss\n")
        for row_b, row_f in zip(baseline.samples, filtered.samples):
            fh.write(f"{row_b[0]:.6f},{row_b[4]},{row_f[4]}\n")

    for name, report in (("baseline AODV", baseline), ("with admission filter", filtered)):
        print(f"{name}: delivered {report.honest_data_delivered}/{report.honest_data_sent},"
              f" lost {report.honest_data_lost},"
              f" RERR transmissions {report.control_tx[PacketKind.RERR]}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
