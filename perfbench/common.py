"""Pieces shared by the harness and the workloads."""

from __future__ import annotations

import time
from fractions import Fraction


def calibration_seconds():
    """Time a fixed piece of pure-Python exact arithmetic (Fraction sums and
    small dict updates, the kind of work klrwcb does) that no change to
    klrwcb can touch; it tells how fast the machine runs right now."""
    t0 = time.perf_counter()
    total, counts = Fraction(0), {}
    for k in range(1, 300):
        total += Fraction(1, k % 97 + 1)
        key = (k % 13, k % 7)
        counts[key] = counts.get(key, 0) + k
    return time.perf_counter() - t0


class Check:
    """One verified instance: run() is the timed program work, verify()
    the untimed comparison with an independent computation."""

    __slots__ = ("family", "run", "verify", "expected_failure")

    def __init__(self, family, run, verify, expected_failure=False):
        self.family = family
        self.run = run
        self.verify = verify
        self.expected_failure = expected_failure


class Tally:
    """Per-check records of a set of rounds."""

    def __init__(self):
        self.durations = []        # (seconds, calibration index) of checks
                                   # that passed
        self.timed = 0.0           # seconds inside the timed parts
        self.attempted = 0
        self.failed = 0
        self.unexpected = []       # failures outside the known-failing family
        self.rounds = 0
        self.calibration = []      # seconds of calibration_seconds() samples

    def calibrate(self):
        """Take a calibration sample; returns its index."""
        self.calibration.append(calibration_seconds())
        return len(self.calibration) - 1

    def add(self, family, seconds, ok, expected_failure, calibration=None):
        """Record one check; `calibration` is the index of the sample taken
        just before it, by default the latest."""
        self.attempted += 1
        if calibration is None:
            calibration = len(self.calibration) - 1
        if ok:
            self.durations.append((seconds, calibration))
        else:
            self.failed += 1
            if not expected_failure:
                self.unexpected.append(family)


def run_checks(checks, tally, tracer):
    """The common round body: each check's run() is timed, its verify()
    is not.  A check fails when run() raises or verify() rejects."""
    clock = time.perf_counter
    for check in checks:
        if tracer is None:
            tally.calibrate()
        else:
            tracer.active = True
        t0 = clock()
        try:
            result = check.run()
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, exc
        dt = clock() - t0
        if tracer is not None:
            tracer.active = False
        tally.timed += dt
        try:
            ok = error is None and check.verify(result)
        except Exception:  # a malformed result is a rejected one
            ok = False
        tally.add(check.family, dt, ok, check.expected_failure)
