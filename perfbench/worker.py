"""One measured run: a fresh process that builds and runs one scenario.

Usage (``run.py`` starts it)::

    python3 perfbench/worker.py --workload crowd_restart --seed 1 \
        --spawned-at <parent's time.perf_counter()> \
        [--engine turbo] [--trace-out spans.bin]

It imports ``repro`` from the checkout's ``src/``, builds the workload's
scenario with ``api.make_scenario`` and drives it with
``harness.runner.run_scenario`` -- never the run cache, never ``jobs=``.
It prints one JSON object: host timings, simulated counts and the
simulated-result digest.  With ``--trace-out`` it wraps the layer entry
points first (see ``spans.py``), adds a ``layers`` block and writes the
spans to the given file.
"""

import argparse
import json
import os
import resource
import sys
import time

from spans import SpanRecorder, aggregate, install, uninstall
from summary import result_digest
from workloads import SCALE, WORKLOADS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def layer_metrics(recorder, result, events, completed, import_s, run_window):
    """The per-layer metrics of one traced run."""
    spans = recorder.spans()
    whole = aggregate(spans)
    timed = aggregate(spans, window=run_window)

    def calls(name, table=whole):
        return table.get(name, {}).get("calls", 0)

    def self_s(*names, table=whole):
        return sum(table.get(name, {}).get("self_s", 0.0) for name in names)

    return {
        "repro.import_s": import_s,
        "workloads.build_s": self_s("workloads.build"),
        "sim.events": events,
        "sim.events_per_call": events / completed,
        "sim.loop_self_s": self_s("sim.run_until"),
        "sim.net_sends": calls("sim.net"),
        "sim.net_s": self_s("sim.net"),
        "sim.cpu_jobs": calls("sim.cpu"),
        "sim.cpu_s": self_s("sim.cpu"),
        "sip.copies": calls("sip.copy"),
        "sip.copy_s": self_s("sip.copy"),
        "sip.parses": calls("sip.parse"),
        "sip.serializes": calls("sip.serialize"),
        # Wire-codec time is exactly 0.0 s on the turbo workloads, so it
        # is reported inside the layer total: on chain_wire the part of
        # sip.self_s beyond sip.copy_s is the codec's time.
        "sip.self_s": self_s("sip.copy", "sip.parse", "sip.serialize"),
        "sip.retransmissions": result.retransmissions,
        "servers.rejects_500": result.server_busy_500,
        "servers.proxy_receives": calls("servers.proxy_receive"),
        "servers.proxy_self_s": self_s("servers.proxy_receive"),
        "servers.location_reads": calls("servers.location_read", timed),
        "servers.location_writes": calls("servers.location_write", timed),
        "servers.location_s": self_s("servers.location_read",
                                     "servers.location_write", table=timed),
        "core.decides": calls("core.decide"),
        "core.periods": calls("core.period"),
        "core.policy_s": self_s("core.decide", "core.period"),
        "gc.pause_s": recorder.gc_pause_s,
        "gc.collections": recorder.gc_collections,
        "harness.run_s": run_window[1] - run_window[0],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--engine", help="override the workload's engine")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() when the parent started "
                             "this process (set-up is timed from it)")
    parser.add_argument("--trace-out", help="trace the run; write spans here")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    sys.path.insert(0, SRC)
    clock = time.perf_counter()
    from repro import api
    from repro.harness.runner import run_scenario
    import_s = time.perf_counter() - clock

    recorder = undo = None
    if args.trace_out:
        recorder = SpanRecorder()
        undo = install(recorder)
        recorder.watch_gc()
        build_span = recorder.open("workloads.build")
    scenario = api.make_scenario(
        spec["topology"], scale=SCALE, seed=args.seed,
        engine=args.engine or spec["engine"], **spec["params"])
    if recorder:
        recorder.close(build_span)
    setup_s = time.perf_counter() - args.spawned_at

    completed_before = sum(s.calls_completed for s in scenario.servers)
    run_start = time.perf_counter()
    if recorder:
        run_span = recorder.open("harness.run")
    result = run_scenario(scenario, duration=spec["duration"],
                          warmup=spec["warmup"])
    if recorder:
        recorder.close(run_span)
    run_end = time.perf_counter()

    completed = sum(s.calls_completed for s in scenario.servers) - completed_before
    events = scenario.loop.events_processed
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "engine": args.engine or spec["engine"],
        "setup_s": setup_s,
        "import_s": import_s,
        "run_s": run_end - run_start,
        "calls_completed": completed,
        "uac_attempted": sum(g.calls_attempted for g in scenario.generators),
        "uac_completed": sum(g.calls_completed for g in scenario.generators),
        "events": events,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": result_digest(result.to_payload(), events),
    }
    if recorder:
        recorder.unwatch_gc()
        uninstall(undo)
        if completed:
            out["layers"] = layer_metrics(recorder, result, events, completed,
                                          import_s, (run_start, run_end))
        recorder.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
