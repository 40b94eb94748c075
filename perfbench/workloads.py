"""The benchmark's workloads.

Each entry names the ``repro.api.make_scenario`` topology, its builder
arguments, the engine (always explicit, so a change of the library's
default engine never reads as a speed change), the simulated warmup and
measurement window handed to ``harness.runner.run_scenario``, the host
seconds budgeted for one repeat (``repeat_s``: 15-20% above what a
repeat, process start included, takes on a 2-vCPU Xeon VM, so a run of
``--seconds`` fixes the repeat count and ends inside it), why the
workload is in the benchmark, and which per-layer metrics are predicted
to move which end-to-end metric on it.  Everything runs at
``scale = 10``, the repo's calibrated scale: each worker process then
simulates thousands of calls.
"""

SCALE = 10.0

WORKLOADS = {
    "crowd_restart": {
        "topology": "flash_crowd",
        "params": {"rate": 7000.0, "shape": "spike", "peak_factor": 3.0,
                   "period": 3.0, "restart_node": "P2",
                   "restart_at": 3.3, "downtime": 0.5},
        "engine": "turbo",
        "warmup": 1.0,
        "duration": 5.0,
        "repeat_s": 5.0,
        "why": ("paper's two-in-series SERvartuka chain on turbo, 3x spike "
                "over 7,000 cps with P2 crashing at the peak: fast path, "
                "then retransmissions, 500s and state build-up"),
        "predicts": {
            "sim.events, sim.events_per_call": "identical for a speed-only change; drop first here if the model or scheduling changes",
            "sim.loop_self_s, sim.net_s, sim.cpu_s": "sim_calls_per_s, most here",
            "sip.copy_s": "sim_calls_per_s, most here",
            "servers.proxy_self_s": "sim_calls_per_s on every workload",
            "sip.retransmissions, servers.rejects_500": "highest here; explain sim.events and completed_share",
            "gc.pause_s, gc.collections": "sim_calls_per_s and peak_rss_mb, most here",
            "core.policy_s": "a few % of host time: small ceiling on every workload",
            "sip.parses, sip.serializes": "zero calls, no change",
        },
    },
    "churn_plain": {
        "topology": "register_churn",
        "params": {"rate": 8000.0, "subscribers": 60000,
                   "refresh_interval": 10.0, "auth": "none"},
        "engine": "turbo",
        "warmup": 1.0,
        "duration": 3.0,
        "repeat_s": 3.5,
        # auth="digest" is left out: its simulated results depend on the
        # interpreter's string-hash seed, so repeats disagree.
        "why": ("8,000 cps of calls behind 60,000 subscribers refreshing "
                "every 10 s on turbo: location-table writes beside reads"),
        "predicts": {
            "servers.location_writes, servers.location_s": "sim_calls_per_s; writes non-zero inside the timed phase here only",
            "sim.loop_self_s, sim.net_s, sim.cpu_s": "sim_calls_per_s",
        },
    },
    "chain_wire": {
        "topology": "n_series",
        "params": {"n": 2, "rate": 10000.0},
        "engine": "reference",
        "warmup": 0.5,
        "duration": 1.0,
        "repeat_s": 4.4,
        "why": ("paper's two-in-series SERvartuka chain just under T_SF on "
                "the reference engine: the only workload that runs the SIP "
                "wire codec"),
        # The reference engine is contracted bit-identical to turbo, so
        # every run also checks its digest against a turbo run.
        "oracle_engine": "turbo",
        "predicts": {
            "sip.parses, sip.serializes, sip.self_s - sip.copy_s": "sim_calls_per_s, here only",
            "sim.loop_self_s, sim.net_s, sim.cpu_s": "sim_calls_per_s, least here",
        },
    },
}
