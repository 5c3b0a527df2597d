"""Runs one workload in this process and prints its figures as one JSON line.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/harness.py --workload NAME --setup-only

A run times set-up (importing klrwcb and building the workload's program
objects), then runs whole rounds of checks until the time is up.  Inputs
come from the workload's own generator seeded with --seed; each round
draws fresh inputs from it, outside the timed part.  With --trace 1 each
round runs under the tracer and then again without it on the same inputs,
and the per-layer figures are reported per round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

from common import Tally, calibration_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "coulomb-products": "wl_coulomb",
    "klrw-relations": "wl_relations",
    "weights-and-sequences": "wl_sequences",
}


class SourceMissing(RuntimeError):
    pass


def use_checkout_source():
    """Import klrwcb from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "klrwcb", "__init__.py")):
        raise SourceMissing("no klrwcb sources under %s" % SRC)
    sys.path.insert(0, SRC)


def load_workload(name):
    import importlib
    return importlib.import_module(WORKLOADS[name])


def run_rounds(workload, state, seed, seconds, min_rounds, tracer=None):
    """Run whole rounds until `seconds` have passed and at least min_rounds
    have run.  With a tracer, each round runs traced and then again on the
    same inputs untraced, so both see the machine in the same state; the
    second tally holds the untraced rounds."""
    rng = random.Random(seed)
    tally, plain = Tally(), Tally()
    start = time.perf_counter()
    while tally.rounds < min_rounds or time.perf_counter() - start < seconds:
        before = rng.getstate()
        checks = workload.make_round(state, rng)
        gc.collect()
        if tracer is None:
            workload.run_round(state, checks, tally, None)
        else:
            tracer.install()
            workload.run_round(state, checks, tally, tracer)
            tracer.uninstall()
            replay = random.Random()
            replay.setstate(before)
            checks = workload.make_round(state, replay)
            gc.collect()
            workload.run_round(state, checks, plain, None)
            plain.rounds += 1
        tally.rounds += 1
    return tally, plain


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# calibration_seconds() on the machine this was written on when it runs
# fast; it only fixes the scale of the reported times.
NOMINAL_CALIBRATION_S = 0.00085
# Calibration samples taken before and again after set-up; set-up time is
# scaled by their median.
SETUP_CALIBRATIONS = 5


def end_to_end(workload, tally):
    """Every passed check counts at its own time, scaled by the machine's
    speed around it: nominal ÷ the mean of the calibration sample taken
    just before the check and the one taken next, after it.  The machine
    this was written on runs the same code up to 1.6x slower, in stretches
    from a fraction of a second to minutes, and the calibration loop slows
    with it."""
    cal = tally.calibration
    ms = [seconds * NOMINAL_CALIBRATION_S / statistics.fmean(cal[k:k + 2]) * 1000.0
          for seconds, k in tally.durations]
    q = statistics.quantiles(ms, n=100, method="inclusive")
    return {
        "checks_per_s": len(ms) / (sum(ms) / 1000.0),
        "check_ms_p50": q[49],
        "check_ms_tail": q[workload.TAIL_PERCENTILE - 1],
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def per_layer(names, tracer, traced, plain):
    """Per-layer figures per round, in the order BENCHMARK.json lists them."""
    totals = tracer.totals()
    rounds = traced.rounds

    def per_round(key):
        return totals.get(key, 0) / rounds

    out = {}
    for metric in names:
        if metric == "trace.overhead_s":
            out[metric] = (traced.timed - plain.timed) / rounds
        elif metric == "poly.max_terms":
            out[metric] = totals.get(metric, 0)
        elif metric == "poly.divide_exact.hit_ratio":
            calls = totals.get("poly.divide_exact.calls", 0)
            out[metric] = totals.get("poly.divide_exact.hits", 0) / calls if calls else 0.0
        elif metric == "sequences.validate.accept_ratio":
            calls = totals.get("sequences.validate.calls", 0)
            out[metric] = totals.get("sequences.validate.accepted", 0) / calls if calls else 0.0
        else:
            out[metric] = per_round(metric)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = load_workload(args.workload)
    try:
        use_checkout_source()
    except SourceMissing as exc:
        print("harness: %s" % exc, file=sys.stderr)
        return 2
    before = [calibration_seconds() for _ in range(SETUP_CALIBRATIONS)]
    t0 = time.perf_counter()
    state = workload.setup()
    setup_s = time.perf_counter() - t0
    after = [calibration_seconds() for _ in range(SETUP_CALIBRATIONS)]
    setup_s *= NOMINAL_CALIBRATION_S / statistics.median(before + after)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": setup_s, "python": sys.version.split()[0],
              "nproc": os.cpu_count()}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        traced, plain = run_rounds(workload, state, args.seed, args.seconds,
                                   workload.MIN_ROUNDS, tracer)
        tracer.write(os.path.join(OUT, "trace-%s" % args.workload))
        tally = traced
        result["metrics"] = per_layer(per_layer_names(), tracer, traced, plain)
        result["spans_total"] = tracer.spans_total
    else:
        tally, _ = run_rounds(workload, state, args.seed, args.seconds,
                              workload.MIN_ROUNDS)
        result["metrics"] = end_to_end(workload, tally)
    result.update({
        "rounds": tally.rounds,
        "checks": len(tally.durations),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected_failures": sorted(set(tally.unexpected)),
        "correct": not tally.unexpected,
        "tail_percentile": workload.TAIL_PERCENTILE,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
