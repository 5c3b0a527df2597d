"""Every checker of the benchmark rejects a corrupted result.

    python3 -m pytest -q perfbench/test_checkers.py

Each test runs one check on the program, confirms the checker accepts the
true result, then corrupts the result and confirms the checker rejects it.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles as O  # noqa: E402
import wl_coulomb as WC  # noqa: E402
import wl_relations as WR  # noqa: E402
import wl_sequences as WS  # noqa: E402

COULOMB = WC.setup()
SEQ = WS.setup()
POINT2 = ((Fraction(3, 101), Fraction(7, 103)), Fraction(5, 107))
MATTER2 = [((1, 1), O.Gauss(Fraction(1, 2)), Fraction(0)),
           ((1, -1), O.Gauss(0), Fraction(1)),
           ((2, 1), O.Gauss(-1), Fraction(0))]
ELEMS = [{(1, 0): {(1, 0, 0): Fraction(2)}, (0, -1): {(0, 0, 1): Fraction(1)}},
         {(-1, 1): {(0, 0, 0): Fraction(3)}},
         {(0, 1): {(0, 1, 0): Fraction(-1)}, (1, 1): {(0, 0, 0): Fraction(1)}}]


def scaled(element, factor=2):
    return element.scale(factor)


def accepts_then_rejects(check, corrupt):
    result = check.run()
    assert check.verify(result)
    assert not check.verify(corrupt(result))


# -- oracles --------------------------------------------------------------------


def test_gauss_field_operations():
    z = O.Gauss(Fraction(1, 2), 1)
    assert z * O.Gauss(0, 1) == O.Gauss(-1, Fraction(1, 2))
    assert (z / z) == O.Gauss(1)
    assert z - z == O.Gauss(0) and not (z - z)


def test_relation_counts_total_161():
    totals = [sum(WR.derived_counts(vs, es, w).values())
              for _, vs, es, _, w, _ in WR.DATASETS]
    assert totals == [21, 56, 84]


def test_weyl_dimension_formula():
    assert O.weyl_dimension_a((2,)) == 3
    assert O.weyl_dimension_a((1, 1)) == 8
    assert O.weyl_dimension_a((2, 1)) == 15


def test_unsteady_suffix_golden_triple():
    c1, c2 = ("C", 1, None), ("C", 2, None)
    g1, g2, r = ("G", 1, "f"), ("G", 2, "e"), ("R", 0, "w[alpha]0")
    assert O.unsteady_suffix((c1, g1, r, c2, g2)) == 2
    assert O.unsteady_suffix((r, c1, c2, g1, g2)) == 4
    assert O.unsteady_suffix((c1, r, c2, g1, g2)) is None


# -- coulomb-products -------------------------------------------------------------


def test_pairing_checker():
    check = WC.pairing_check(COULOMB, MATTER2, (1, -2), POINT2)
    accepts_then_rejects(check, lambda got: (scaled(got[0]), got[1]))


def test_assoc_checker():
    check = WC.assoc_check(COULOMB, 2, MATTER2, ELEMS, POINT2)
    accepts_then_rejects(check, lambda got: (got[0], scaled(got[1]), got[2]))
    accepts_then_rejects(check, lambda got: (got[0], got[1], False))


def test_inverse_checker():
    check = WC.inverse_check(COULOMB, 2, MATTER2, (1, 1), (0, 1), POINT2)
    accepts_then_rejects(check, lambda got: (scaled(got[0]), got[1], got[2]))
    accepts_then_rejects(check, lambda got: (got[0], scaled(got[1]), got[2]))


def test_forget_and_fourier_checkers():
    check = WC.forget_check(COULOMB, 2, MATTER2, [0, 2], ELEMS[:2], POINT2)
    accepts_then_rejects(check, lambda got: (scaled(got[0]), got[1], got[2]))
    matter = [((1, 1), O.Gauss(Fraction(1, 2)), Fraction(0)),
              ((-1, 0), O.Gauss(0), Fraction(0))]
    check = WC.fourier_check(COULOMB, matter, ELEMS[1:], POINT2)
    accepts_then_rejects(check, lambda got: (got[0], scaled(got[1], -1), got[2]))


def test_elprime_checker():
    check = WC.elprime_check(COULOMB, 2, MATTER2 + [((0, 1), O.Gauss(1), Fraction(0))],
                             (1, -1), (-1, 0), (0, -1), POINT2)
    accepts_then_rejects(check, lambda holds: False)


def test_complex_shift_checker_accepts_exact_gaussian_values():
    spec, th = COULOMB["complex"][0]
    check = WC.complex_shift_check(COULOMB, spec, th)
    # the program drops the imaginary part of x1 + 1/2 + i, so its product
    # is rejected; the exact product is accepted
    assert not check.verify(check.run())

    class Coefficient:
        def evaluate(self, point):
            return O.Gauss(point["x1"] + Fraction(1, 2), 1)

    class Element:
        terms = {(0,): Coefficient()}

    assert check.verify(Element())


# -- klrw-relations ------------------------------------------------------------------


def test_relation_report_checker():
    state = WR.setup()
    name, engine, want = state["engines"][0]
    report = state["relations"].verify_relations(engine, degree_bound=1,
                                                 n_random=0, seed=0)
    assert not WR.report_problems(report, want)
    broken = dict(report)
    broken["dots-1"] = dict(report["dots-1"], instances=1)
    assert WR.report_problems(broken, want)
    broken = dict(report)
    broken["cost"] = dict(report["cost"], failures=[{"witness": "y1"}])
    assert WR.report_problems(broken, want)
    assert WR.report_problems(dict(report, ok=False), want)
    n = 2
    good = (0.001, True, n, O.test_polynomial_count(n, WR.DEGREE_BOUND, WR.N_RANDOM),
            0, None)
    assert WR.instance_ok(good)
    assert WR.instance_ok(good[:5] + (True,))
    assert not WR.instance_ok(good[:1] + (False,) + good[2:])
    assert not WR.instance_ok(good[:3] + (good[3] - 1,) + good[4:])
    assert not WR.instance_ok(good[:5] + (False,))


def test_sides_agree_checker():
    """The point evaluation accepts every instance of a pass and rejects an
    instance whose side gains a term, without Polynomial equality."""
    state = WR.setup()
    relations = state["relations"]
    rng = random.Random(5)
    for name, engine, want in state["engines"]:
        for _, sc, lhs, rhs in relations._instances(engine):
            poly = relations._test_polynomials(sc.n, 1, 1, rng)[-1]
            assert WR.sides_agree(sc, lhs, rhs, poly, rng)
            assert not WR.sides_agree(sc, lhs + [(1, [])], rhs, poly, rng)


# -- weights-and-sequences ---------------------------------------------------------


def test_regime_checker():
    row = WS.REGIME_ROWS[0]
    check = WS.regime_check(SEQ, row, Fraction(0), Fraction(5, 2))
    accepts_then_rejects(check, lambda got: (got[0] * 2, got[1]))
    accepts_then_rejects(check, lambda got: (got[0], [(True, {1: 2, 2: 1})]))


def test_tied_and_weight_checkers():
    seqs = SEQ["sequences"]
    check = WS.tied_check(SEQ, 1, Fraction(1, 2))

    def swap_ends(got):
        s = got[0]
        order = list(s.order)
        order[0], order[-1] = order[-1], order[0]
        return [seqs.FlavouredSequence(s.labels, s.longitudes, tuple(order))]

    accepts_then_rejects(check, swap_ends)
    s = SEQ["scalars"]
    gamma = {"alpha": [s.as_scalar(0), s.as_scalar(-4)], "beta": [s.as_scalar(-4)]}
    check = WS.weight_check(SEQ, SEQ["kron21"], gamma)
    accepts_then_rejects(check, lambda got: (got[0], (False, None)
                                             if got[1][0] else (True, 1)))


def test_equivalent_checker():
    rng = random.Random(3)
    comp, fl = SEQ["kron21"]
    s = SEQ["scalars"]
    gamma = {"alpha": [s.as_scalar(0), s.as_scalar(0)], "beta": [s.as_scalar(0)]}
    a = WS.random_valid_sequence(SEQ, rng, gamma, comp, fl)
    check = WS.equivalent_check(SEQ, a, a)
    accepts_then_rejects(check, lambda got: (False, None))
    accepts_then_rejects(check, lambda got: (True, {1: 1, 2: 1, 3: 3}))


def test_diagram_checker():
    s = SEQ["scalars"]
    gammas = [{"alpha": [s.as_scalar(x) for x in a], "beta": [s.as_scalar(b)]}
              for a, b in [((0, 1), 0), ((1, 2), -1), ((0, 0), 1)]]
    check = WS.diagram_check(SEQ, gammas, ((1, 1),))
    accepts_then_rejects(check, lambda got: got[:4] + (got[4] + 1,))


def test_cover_checker():
    s = SEQ["scalars"]
    orbit = {"alpha": [s.as_scalar(x) for x in (0, Fraction(1, 3), Fraction(1, 2),
                                                 Fraction(2, 3), Fraction(5, 3))],
             "beta": [s.as_scalar(x) for x in (0, Fraction(1, 6), Fraction(1, 3),
                                                Fraction(4, 3), Fraction(1, 2),
                                                Fraction(2, 3))]}
    flavour = {"e": s.as_scalar(Fraction(1, 3)), "f": s.as_scalar(0),
               "w[alpha]0": s.as_scalar(0),
               "w[alpha]1": WS._scalar(SEQ, Fraction(0), 1),
               "w[beta]0": s.as_scalar(Fraction(1, 2))}
    check = WS.cover_check(SEQ, orbit, flavour)
    result = check.run()
    assert check.verify(result)
    cover, (eta, phi_prime) = result
    first = next(iter(cover.dims.v))
    cover.dims.v[first] += 1
    assert not check.verify(result)


def test_satake_checker():
    check = WS.satake_check(SEQ, SEQ["a2_quiver"], (1, 1))

    def corrupt(got):
        res, oracle = got
        table = dict(res["table"])
        table[(1, 1)] += 1
        return dict(res, table=table), oracle

    accepts_then_rejects(check, corrupt)


def test_restrict_and_qhr_checkers():
    s = SEQ["scalars"]
    matter = [((1, 1), Fraction(1, 2)), ((-1, 1), Fraction(0))]
    gamma0 = (WS._scalar(SEQ, Fraction(1, 3), 1), s.as_scalar(0))
    check = WS.restrict_check(SEQ, matter, gamma0, (1, 0))
    accepts_then_rejects(check, lambda got: {k: 0 for k in got})
    matter = [((-1, 1), Fraction(1, 2))]
    check = WS.qhr_check(SEQ, matter, (s.as_scalar(0), s.as_scalar(Fraction(1, 2))), (1, 1))
    accepts_then_rejects(check, lambda got: ({k: v + 1 for k, v in got[0].items()},
                                             got[1]))
