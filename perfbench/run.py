"""The klrwcb benchmark: one command for every workload.

    python3 perfbench/run.py                       # all workloads, table + JSON
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own single-threaded process (perfbench/harness.py)
so that its peak memory is its own.  With --trace 0 the set-up time is
sampled in SETUP_PROBES extra fresh processes as well, and the median of
all samples is reported.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
HARNESS = os.path.join(HERE, "harness.py")
SETUP_PROBES = 14
WORKER_TIMEOUT = 170


class BenchError(RuntimeError):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _harness(args, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, HARNESS] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("harness %s exited with %d:\n%s"
                         % (" ".join(args), proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec, name, seed, seconds, trace):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(_harness(["--workload", name, "--setup-only"],
                                  WORKER_TIMEOUT)["setup_s"])
    raw = _harness(["--workload", name, "--seed", str(seed), "--seconds",
                    str(seconds), "--trace", str(trace)], WORKER_TIMEOUT)
    values = dict(raw["metrics"])
    if not trace:
        setup.append(raw["setup_s"])
        values["setup_s"] = statistics.median(setup)
    missing = [m for m in wanted if m not in values]
    if missing:
        raise BenchError("workload %s did not report %s" % (name, missing))
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in wanted},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-trace%d.json" % (name, trace)), "w") as fh:
        json.dump(dict(raw, result=result, setup_samples=setup), fh, indent=1)
    return result, raw


def print_table(name, result, raw):
    print("== %s: %d rounds, %d checks passed, %d attempted, %d failed%s"
          % (name, raw["rounds"], raw["checks"], result["attempted"],
             result["failed"], "" if result["correct"] else
             ", WRONG RESULTS in %s" % raw["unexpected_failures"]))
    for metric, entry in result["metrics"].items():
        print("  %-46s %14.6g %s" % (metric, entry["value"], entry["unit"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "klrwcb", "__init__.py")):
        print("run.py: no klrwcb sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print("run.py: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(names)), file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in chosen:
            result, raw = run_workload(spec, name, args.seed, seconds, args.trace)
            results[name] = result
            if args.workload == "all":
                print_table(name, result, raw)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[chosen[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
