"""klrw-relations: every local relation of the flavoured KLRW calculus.

A round is one pass of relations.verify_relations over the A1, A2 and
Kronecker data (161 relation instances), on all monomials up to degree 3
plus N_RANDOM seeded random polynomials per instance.  A check is one
relation instance.  It is charged all the time since the previous instance
ended: building its Scenario, generating its test polynomials and comparing
both sides in Scenario.equal, which the benchmark wraps to see where an
instance ends.  The report must show no failure, every instance must have
compared both sides equal, and the instance counts per relation must equal
the counts that oracles.relation_counts derives from the quiver data
alone.  After each pass, outside the timed part, RECHECKED instances per
data set are checked again without the program's Polynomial equality:
both sides are applied to one random test polynomial and evaluated at a
seeded rational point in plain Fraction arithmetic.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import oracles as O

DEGREE_BOUND = 3
N_RANDOM = 4
# 161 checks a round; 7 rounds give 1127, so at least ten lie beyond the
# 99th percentile in every run.
TAIL_PERCENTILE = 99
MIN_ROUNDS = 7
# Instances per data set and pass whose sides are evaluated at a point.
RECHECKED = 4
# One prime denominator per variable (at most 4 strands and h).
PRIMES = (101, 103, 107, 109, 113, 127)


# (name, vertices, edges as (id, tail, head), v, w, flavour values)
DATASETS = [
    ("A1", ["x"], [], {"x": 2}, {"x": 2}, {"w[x]0": 0, "w[x]1": 2}),
    ("A2", ["1", "2"], [("a", "1", "2")], {"1": 1, "2": 1}, {"1": 1, "2": 0},
     {"a": 1, "w[1]0": 0}),
    ("Kronecker", ["alpha", "beta"], [("e", "beta", "alpha"), ("f", "alpha", "beta")],
     {"alpha": 2, "beta": 1}, {"alpha": 1, "beta": 1},
     {"e": 1, "f": 1, "w[alpha]0": 0, "w[beta]0": 2}),
]


def derived_counts(vertices, edges, w):
    """Relation instances per name, from the quiver data alone: every
    framing edge at i has tail i."""
    return O.relation_counts(vertices, [(t, h) for _, t, h in edges],
                             [i for i in vertices for _ in range(w[i])])


class Pass:
    """One verify_relations pass.  Each instance is charged the time since
    the previous one ended (or the pass began); untraced, a calibration
    sample is taken between instances, outside the charged time."""

    def __init__(self, tally, calibrate, recheck):
        self.tally = tally
        self.calibrate = calibrate
        self.recheck = recheck     # indices of the instances to recheck
        self.log = []              # [seconds, equal, n, test polys, calibration, agrees]
        self.kept = []             # (log index, scenario, lhs, rhs, poly)
        self.begin()

    def begin(self):
        self.calibration = self.tally.calibrate() if self.calibrate else None
        self.mark = time.perf_counter()

    def instance_done(self, scenario, lhs, rhs, polys, result):
        seconds = time.perf_counter() - self.mark
        if len(self.log) in self.recheck:
            self.kept.append((len(self.log), scenario, lhs, rhs, polys[-1]))
        self.log.append([seconds, result[0], scenario.n, len(polys),
                         self.calibration, None])
        self.begin()


def setup():
    """Import the program, build the completed quivers and Engines, and
    wrap Scenario.equal so that each Pass sees where an instance ends."""
    from klrwcb import diagrams, quiver, relations
    from klrwcb.scalars import as_scalar
    state = {"relations": relations, "pass": None}
    engines = []
    for name, vertices, edges, v, w, values in DATASETS:
        q = quiver.Quiver(vertices, [quiver.Edge(*e) for e in edges])
        completed = quiver.crawley_boevey(q, quiver.DimensionData(v, w))
        flavour = quiver.Flavour({k: as_scalar(x) for k, x in values.items()})
        engines.append((name, diagrams.Engine(completed, flavour),
                        derived_counts(vertices, edges, w)))
    state["engines"] = engines

    original = relations.Scenario.equal

    def observed_equal(self, lhs, rhs, polys):
        result = original(self, lhs, rhs, polys)
        if state["pass"] is not None:
            state["pass"].instance_done(self, lhs, rhs, polys, result)
        return result

    relations.Scenario.equal = observed_equal
    return state


def make_round(state, rng):
    return rng.randrange(2 ** 31)


def value_at(poly, point):
    """A klrwcb Polynomial's value at `point` ({variable: Fraction}),
    summed term by term in Gaussian rationals."""
    total = O.Gauss(0)
    for monomial, coeff in poly.terms.items():
        term = O.Gauss.of(coeff)
        for var, exp in monomial:
            term = term * point[var] ** exp
        total = total + term
    return total


def sides_agree(scenario, lhs, rhs, poly, rng):
    """Apply both sides of a relation instance to `poly` and compare their
    values at a seeded rational point, without Polynomial equality."""
    images = [[(coeff, scenario.apply(word, poly)[0]) for coeff, word in side]
              for side in (lhs, rhs)]
    names = sorted({var for side in images for _, p in side
                    for monomial in p.terms for var, _ in monomial})
    point = {var: Fraction(rng.randint(1, 96), prime)
             for var, prime in zip(names, PRIMES)}
    if len(point) < len(names):
        raise ValueError("more variables than primes: %s" % names)
    values = [sum((O.Gauss.of(c) * value_at(p, point) for c, p in side),
                  O.Gauss(0)) for side in images]
    return values[0] == values[1]


def report_problems(report, want):
    """Why a verify_relations report is not a clean pass over the derived
    relation list; empty when it is."""
    problems = []
    if report.get("ok") is not True:
        problems.append("report not ok")
    got = {k: v["instances"] for k, v in report.items() if isinstance(v, dict)}
    if got != want:
        problems.append("instance counts %s differ from derived %s" % (got, want))
    for name, entry in report.items():
        if isinstance(entry, dict) and entry["failures"]:
            problems.append("%s fails: %s" % (name, entry["failures"][0]))
    return problems


def instance_ok(record):
    seconds, equal, n, n_polys, calibration, agrees = record
    return equal is True and agrees is not False and \
        n_polys == O.test_polynomial_count(n, DEGREE_BOUND, N_RANDOM)


def run_round(state, seed, tally, tracer):
    verify_relations = state["relations"].verify_relations
    rng = random.Random(seed)
    for name, engine, want in state["engines"]:
        instances = sum(want.values())
        recheck = set(rng.sample(range(instances), RECHECKED))
        if tracer is not None:
            tracer.active = True
        state["pass"] = run = Pass(tally, tracer is None, recheck)
        report = verify_relations(engine, degree_bound=DEGREE_BOUND,
                                  n_random=N_RANDOM, seed=seed)
        rest = time.perf_counter() - run.mark
        state["pass"] = None
        if tracer is not None:
            tracer.active = False
        tally.timed += sum(record[0] for record in run.log) + rest
        for index, scenario, lhs, rhs, poly in run.kept:
            try:
                run.log[index][5] = sides_agree(scenario, lhs, rhs, poly, rng)
            except Exception:  # a malformed side is a rejected one
                run.log[index][5] = False
        clean = not report_problems(report, want) and len(run.log) == instances
        for record in run.log:
            tally.add(name, record[0], clean and instance_ok(record), False,
                      record[4])
        if not clean and not run.log:
            tally.add(name, 0.0, False, False)
