#!/usr/bin/env python3
"""Run the manetsim CLI with timed spans around the calls into each layer.

    python3 bench/traced.py STATS.json run --config scenario.cfg --out out/

Arguments after STATS.json go to ``manetsim.cli.main`` unchanged, so the
outputs must match an untraced run byte for byte.  Wrappers replace names
where the caller looks them up: ``manetsim.engine`` binds ``broadcast``,
``verify`` and the rest at import time, so patching ``manetsim.medium``
would time nothing.  Event counts come from a stand-in for the ``heapq``
module inside ``manetsim.engine``.  STATS.json receives, per span name, the
number of calls, the time inside its outermost calls ("total") and that time
minus the time of nested spans ("self").
"""

from __future__ import annotations

import heapq
import json
import sys
import time
from collections import Counter


class Tracer:
    """Aggregated spans; keeps one accumulator per open span for self time."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total, self, open calls]
        self.counts = Counter()
        self._children = []  # time of finished child spans, one slot per open span

    def wrap(self, name, fn, on_result=None):
        acc = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        children = self._children
        clock = time.perf_counter

        def span(*args, **kwargs):
            acc[0] += 1
            acc[3] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[3] -= 1
                acc[2] += elapsed - children.pop()
                if not acc[3]:  # nested calls of one name are timed once
                    acc[1] += elapsed
                if children:
                    children[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result
        return span

    def patch(self, owner, attr, name, on_result=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def dump(self, path):
        spans = self.spans.items()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"calls": {name: acc[0] for name, acc in spans},
                       "total": {name: acc[1] for name, acc in spans},
                       "self": {name: acc[2] for name, acc in spans},
                       "counts": self.counts}, fh, sort_keys=True)


class HeapCounter:
    """Stands in for ``heapq`` inside ``manetsim.engine``.

    Reads the engine's event tuples, ``(time, seq, kind, payload)``, where a
    DELIVER payload is ``(receiver, frame)`` and the frame has ``link_dst``.
    """

    def __init__(self, counts, deliver, broadcast_addr):
        self.counts = counts
        self.deliver = deliver
        self.broadcast_addr = broadcast_addr

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        counts = self.counts
        if len(heap) > counts["heap.peak"]:
            counts["heap.peak"] = len(heap)
        if item[2] == self.deliver:
            counts["heap.deliver_pushes"] += 1
            receiver, frame = item[3]
            if frame.link_dst != self.broadcast_addr and frame.link_dst != receiver:
                counts["heap.overheard_pushes"] += 1

    def heappop(self, heap):
        item = heapq.heappop(heap)
        self.counts["heap.pops"] += 1
        if item[2] == self.deliver:
            self.counts["heap.deliver_pops"] += 1
        return item


def install(tracer: Tracer):
    from manetsim import aodv, cli, engine, mlet, model
    from manetsim.saodv import VerifyOutcome

    counts = tracer.counts

    def on_deliveries(result):
        counts["medium.deliveries"] += len(result)

    def on_verify(outcome):
        if outcome is not VerifyOutcome.ACCEPT:
            counts["saodv.rejects"] += 1

    def on_admit(admitted):
        if not admitted:
            counts["mlet.rejects"] += 1

    def on_read(events):
        counts["analyze.lines"] += len(events)

    engine.heapq = HeapCounter(counts, engine.DELIVER, model.BROADCAST)
    tracer.patch(engine.Simulation, "__init__", "engine.setup")
    tracer.patch(engine.Simulation, "run", "engine.run")
    tracer.patch(engine, "broadcast", "medium.broadcast", on_deliveries)
    tracer.patch(engine, "kinematics_at", "mobility.kinematics")
    tracer.patch(engine, "advance_waypoint", "mobility.advance")
    tracer.patch(mlet, "link_expiration_time", "mobility.let")
    tracer.patch(engine, "verify", "saodv.verify", on_verify)
    tracer.patch(engine, "draw_random_values", "saodv.tag")
    tracer.patch(engine, "select_channel", "saodv.tag")
    tracer.patch(engine, "admit_link", "mlet.admit", on_admit)
    tracer.patch(engine, "annotate", "mlet.annotate")
    tracer.patch(engine, "debit", "energy.debit")
    tracer.patch(engine, "TraceEvent", "model.trace_record")
    tracer.patch(model.TraceEvent, "format_line", "model.format")
    for attr in sorted(vars(aodv.AodvNode)):
        if attr.startswith(("handle_", "on_")) or attr in ("originate_data",
                                                           "ensure_discovery"):
            tracer.patch(aodv.AodvNode, attr, "aodv.handler")
    tracer.patch(cli, "load_config", "config.load")
    tracer.patch(cli, "write_trace", "cli.write")
    tracer.patch(cli, "write_metrics", "cli.write")
    tracer.patch(cli, "read_trace", "analyze.read", on_read)
    tracer.patch(cli, "interval_series", "analyze.series")


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from manetsim import cli
    code = cli.main(cli_args)
    tracer.dump(stats_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
