#!/usr/bin/env python3
"""Victim-battery experiment: run the attack demo with and without verification.

Writes one CSV with the victim's sampled energy and the per-interval counts of
accepted/rejected flood packets under both protocols, ready for any plotting
tool."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from manetsim.config import Protocol, load_config
from manetsim.engine import Simulation

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=os.path.join(REPO, "configs", "attack_demo.cfg"))
    parser.add_argument("--out", default=os.path.join(REPO, "out", "attack_energy.csv"))
    args = parser.parse_args()

    cfg = load_config(args.config)
    saodv = Simulation(cfg._replace(protocol=Protocol.SAODV)).run()
    aodv = Simulation(cfg._replace(protocol=Protocol.AODV)).run()

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("t,aodv_energy,saodv_energy,aodv_accepts,saodv_accepts,saodv_drops\n")
        for row_a, row_s in zip(aodv.samples, saodv.samples):
            t = row_a[0]
            fh.write(f"{t:.6f},{row_a[3]:.9f},{row_s[3]:.9f},"
                     f"{row_a[2]},{row_s[2]},{row_s[1]}\n")

    for name, report in (("AODV", aodv), ("SAODV", saodv)):
        died = report.depletion_times.get(report.victim)
        print(f"{name}: victim final energy {report.victim_final_energy:.3f} J"
              + (f", depleted at t={died:.2f}s" if died is not None else "")
              + f", flood accepted {report.victim_malicious_accepts}"
                f" / dropped {report.victim_malicious_drops}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
