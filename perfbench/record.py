"""Run the benchmark over many seeds and print or record the spread.

    python3 perfbench/record.py                      # every workload
    python3 perfbench/record.py --trace --write perfbench/RECORD.json

For each workload this runs ``run.py`` once per seed 1-10 (``--trace 0``,
``--seconds`` = ``run_seconds`` from ``BENCHMARK.json``),
then prints every end-to-end metric with its unit, median, quartiles and
quartile spread (as a share of the median) next to its bound in
``BENCHMARK.json``, and the simulated-result digest of every seed.
``--trace`` adds one traced run per workload and prints its per-layer
metrics.  ``--write`` saves all of it -- the host, each workload's
parameters and predictions, every run's metrics and raw repeats -- as
JSON.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

from summary import describe
from workloads import SCALE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    run = {"seed": seed, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        if line.startswith("digest "):
            run["digest"] = line.split()[-1]
        elif line.startswith("samples "):
            run["repeats"] = json.loads(line[len("samples "):])
    return run


def host_block():
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(), "commit": commit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", help="save the record as JSON here")
    args = parser.parse_args(argv)
    config = bench_config()
    seconds = config["run_seconds"]
    bounds = {m["name"]: m for m in config["end_to_end"]}
    record = {"host": host_block(), "run_seconds": seconds, "workloads": {}}

    for workload, spec in WORKLOADS.items():
        runs = [run_once(workload, seed, seconds, False) for seed in SEEDS]
        entry = {
            "parameters": {"topology": spec["topology"], "scale": SCALE,
                           "engine": spec["engine"],
                           "warmup": spec["warmup"],
                           "duration": spec["duration"],
                           "repeat_s": spec["repeat_s"], **spec["params"]},
            "why": spec["why"],
            "predicts": spec["predicts"],
            "runs": runs,
            "summary": {},
        }
        print(f"== {workload}  ({len(runs)} runs of {seconds} s)")
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            stats = describe(values)
            entry["summary"][name] = dict(stats, unit=bound["unit"],
                                          values=values)
            print(f"  {name:18s} {stats['median']:12.4f} {bound['unit']:6s}"
                  f" q1 {stats['q1']:.4f} q3 {stats['q3']:.4f}"
                  f"  spread {stats['spread']:.4f}"
                  f" (bound {bound['bound']}, third {bound['bound'] / 3:.4f})")
        for run in runs:
            result = run["result"]
            print(f"  seed {run['seed']:3d} digest {run['digest']}"
                  f"  repeats {result['attempted']}"
                  f" failed {result['failed']}"
                  f" correct {result['correct']}")
        if args.trace:
            traced = run_once(workload, SEEDS[0], seconds, True)
            entry["traced"] = traced
            same = traced["digest"] == runs[0]["digest"]
            print(f"  traced seed {SEEDS[0]}"
                  f" digest {traced['digest']}"
                  f" ({'matches' if same else 'DIFFERS FROM'} untraced)")
            for name, metric in traced["result"]["metrics"].items():
                print(f"    {name:26s} {metric['value']:14.4f}"
                      f" {metric['unit']}")
        record["workloads"][workload] = entry
        sys.stdout.flush()

    if args.write:
        with open(args.write, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
