"""Host-speed benchmark of the simulator (the command in BENCHMARK.json).

    python3 perfbench/run.py --workload crowd_restart --seed 1 \
        --seconds 40 --trace 0

Runs ``worker.py`` -- one fresh, single-threaded process per repeat,
one at a time -- on the named workload with the given seed.  The number
of repeats is fixed by ``--seconds`` and the workload's ``repeat_s``
(see ``repeat_count``), so it is the same on every commit.  It prints
as its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``:

- ``--trace 0``: the end-to-end metrics, each the median over repeats.
  ``sim_calls_per_s`` is the simulated calls placed by the UAC (warmup
  included) per host second of ``run_scenario``; ``setup_s`` is process
  start to built scenario; then ``peak_rss_mb`` and ``completed_share``
  (calls completed / calls attempted at the UAC).
- ``--trace 1``: the same untraced repeats, then one traced repeat whose
  per-layer metrics are printed instead, plus ``harness.trace_overhead``
  (traced run time / untraced median).  Spans go to
  ``.perfbench-out/spans-<workload>.bin``.

Every repeat's simulated-result digest must match the first one's (the
traced repeat's too), and a workload with an ``oracle_engine`` must give
the same digest on that engine.  A repeat that exits non-zero, completes
no call or gives another digest counts as failed.  The digest is printed
on the line before the result.  The exit code is 0 when every repeat
passed, 1 when one failed, and 2 when no repeat ran at all.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from summary import median
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
#: Whole-run ceiling in host seconds; the contract allows 180.
HARD_LIMIT_S = 165.0
MIN_REPEATS = 3

UNITS = {"sim_calls_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
         "completed_share": "ratio"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name in ("sim.events_per_call", "harness.trace_overhead"):
        return "ratio"
    return "count"


class WorkerError(Exception):
    pass


def run_worker(workload, seed, timeout, engine=None, trace_out=None):
    """Run one worker process; returns its parsed JSON sample."""
    args = ["--workload", workload, "--seed", str(seed)]
    if engine:
        args += ["--engine", engine]
    if trace_out:
        args += ["--trace-out", trace_out]
    cmd = [sys.executable, WORKER, *args, "--spawned-at",
           repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerError(f"worker printed no result: {proc.stdout[-500:]!r}")
    if sample["calls_completed"] <= 0:
        raise WorkerError("worker completed no simulated call")
    return sample


def repeat_count(seconds, repeat_s):
    """Untraced repeats in a run of ``seconds``: as many repeats of the
    workload's budgeted ``repeat_s`` host seconds as fit, at least
    ``MIN_REPEATS``.  It does not depend on how fast the host or the
    code is, so every commit's median is taken over as many repeats."""
    return max(MIN_REPEATS, int(seconds // repeat_s))


def end_to_end(samples):
    return {
        "sim_calls_per_s": samples[0]["uac_attempted"]
                           / median([s["run_s"] for s in samples]),
        "setup_s": median([s["setup_s"] for s in samples]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "completed_share": median([s["uac_completed"] / s["uac_attempted"]
                                   for s in samples]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    began = time.perf_counter()
    deadline = began + HARD_LIMIT_S

    samples, errors, walls = [], [], []
    digest = None

    def attempt(**kwargs):
        nonlocal digest
        start = time.perf_counter()
        try:
            sample = run_worker(args.workload, args.seed,
                                timeout=max(1.0, deadline - start), **kwargs)
        except WorkerError as exc:
            errors.append(str(exc))
            return None
        finally:
            walls.append(time.perf_counter() - start)
        if digest is None:
            digest = sample["digest"]
        elif sample["digest"] != digest:
            errors.append(f"digest {sample['digest']} != {digest} "
                          f"({sample['engine']})")
            return None
        return sample

    for _ in range(repeat_count(args.seconds, spec["repeat_s"])):
        if errors and not samples:
            break
        if time.perf_counter() + (median(walls) if walls else 0.0) > deadline:
            print(f"stopped after {len(samples)} repeats: the run would "
                  f"pass {HARD_LIMIT_S:.0f} s", file=sys.stderr)
            break
        sample = attempt()
        if sample is not None:
            samples.append(sample)

    if not samples:
        print("\n".join(errors) or "no repeat ran", file=sys.stderr)
        return 2

    if spec.get("oracle_engine"):
        attempt(engine=spec["oracle_engine"])

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        traced = attempt(trace_out=os.path.join(
            OUT_DIR, f"spans-{args.workload}.bin"))
        if traced is None:
            metrics = {}
        else:
            metrics = dict(traced["layers"])
            metrics["harness.trace_overhead"] = (
                traced["run_s"] / median([s["run_s"] for s in samples]))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in metrics.items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in end_to_end(samples).items()}

    for error in errors:
        print(error, file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} {digest}")
    print("samples " + json.dumps(samples))
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(walls),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
