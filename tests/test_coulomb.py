import dataclasses
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from klrwcb.coulomb import (BadCocharacterError, MatterNotInvariantError,
                            MatterWeight, MonopoleElement, TorusTheory,
                            UniversalWeightModule, d, elprime_identity_holds,
                            forget_matter, fourier, hamiltonian_reduce,
                            inv_monopole, kappa, mul, phi0,
                            phi0_prime, relation_coefficient, res_support,
                            rxi_closed_form, rxi_pairing,
                            transition_eigenvalues, transition_invertible,
                            xi_negative, _forms, _product, _quotient,
                            _shift_map)
from klrwcb.poly import (HBAR, ONE_POLY, Polynomial, RationalFunction,
                         _factor_key, as_poly, coefficient)
from klrwcb.scalars import ExactScalar, as_scalar
from klrwcb import suites

from reference import coulomb as ref, raised

x1 = Polynomial.variable("x1")
h = Polynomial.variable(HBAR)

TH1 = TorusTheory(1, [MatterWeight((1,))])


def test_d_function():
    assert d(2, 3) == 0
    assert d(2, -3) == 2
    assert d(0, -5) == 0
    assert d(-4, 1) == 1


def test_mul_basic_relations():
    r1, rm1 = MonopoleElement.r((1,)), MonopoleElement.r((-1,))
    r0 = MonopoleElement.r((0,))
    assert mul(rm1, r1, TH1) == MonopoleElement({(0,): RationalFunction.of(x1 - h)})
    assert mul(r1, rm1, TH1) == MonopoleElement({(0,): RationalFunction.of(x1)})
    assert mul(r0, r1, TH1) == r1
    # commutation: r_xi x = (x + <x,xi> h) r_xi
    xel = MonopoleElement({(0,): RationalFunction.of(x1)})
    assert mul(r1, xel, TH1) == MonopoleElement({(1,): RationalFunction.of(x1 + h)})


def test_rxi_pairing_examples():
    got = rxi_pairing((1,), TorusTheory(1, []))
    assert got[0] == MonopoleElement.r((0,)) and got[1] == MonopoleElement.r((0,))
    a, b = rxi_pairing((1,), TH1)
    assert a == MonopoleElement({(0,): RationalFunction.of(x1 - h)})
    assert b == MonopoleElement({(0,): RationalFunction.of(x1)})
    th2 = TorusTheory(1, [MatterWeight((1,)), MatterWeight((1,))])
    a2, b2 = rxi_pairing((1,), th2)
    assert a2 == MonopoleElement({(0,): RationalFunction.of((x1 - h) * (x1 - h))})
    assert b2 == MonopoleElement({(0,): RationalFunction.of(x1 * x1)})


def test_inv_monopole():
    assert inv_monopole((1,), (0,), TorusTheory(1, [])) == MonopoleElement.r((-1,))
    got = inv_monopole((1,), (0,), TH1)
    assert got == MonopoleElement({(-1,): RationalFunction(ONE_POLY,
                                                           [(x1 - h, 1)])})
    assert mul(MonopoleElement.r((1,)), got, TH1) == MonopoleElement.r((0,))


def test_forget_matter():
    rm1 = MonopoleElement.r((-1,))
    assert forget_matter(rm1, [], TH1) == rm1
    assert forget_matter(rm1, [0], TH1) == \
        MonopoleElement({(-1,): RationalFunction.of(x1 - h)})


def test_fourier_examples():
    r1 = MonopoleElement.r((1,))
    got = fourier(r1, [0], (1,), TH1)
    assert got == MonopoleElement({(1,): RationalFunction.of(Polynomial.constant(-1))})
    # the matter weight that pairs wrongly is named by index and gauge
    th = TorusTheory(1, [MatterWeight((1,)), MatterWeight((2,))])
    for theory, wp, text in (
            (TH1, (2,), "(2,) pairs to 2 with matter weight 0 (gauge (1,)), "
             "expected 1"),
            (th, (1,), "(1,) pairs to 2 with matter weight 1 (gauge (2,)), "
             "expected 0")):
        with pytest.raises(BadCocharacterError,
                           match="^%s$" % re.escape("cocharacter " + text)):
            fourier(r1, [0], wp, theory)
    r0 = MonopoleElement({(0,): RationalFunction.of(x1)})
    assert fourier(r0, [0], (1,), TH1) == \
        MonopoleElement({(0,): RationalFunction.of(x1 + h)})


def test_phi0_examples():
    assert phi0((0,), (0,), TH1) == ONE_POLY
    assert phi0((-1,), (0,), TH1) == x1 - 1
    # the skipped index: lam' with <x,lam'> = 1 drops the j = 1 factor
    assert phi0((-1,), (1,), TH1) == (x1 - 2)


def test_kappa_and_elprime():
    th = TorusTheory(1, [MatterWeight((-1,))])  # <mu, xi> < 0 for xi = (1,)
    k2 = kappa((-2,), (1,), th)                 # <mu, lam> = 2 > 0
    assert k2 == RationalFunction.of(-x1 - 1)
    k0 = kappa((1,), (1,), th)                  # <mu, lam> = -1 <= 0
    assert k0 == RationalFunction(ONE_POLY, [(-1 * x1, 1)])
    assert elprime_identity_holds((1,), (-1,), (1,), th)
    rng = random.Random(2)
    for _ in range(10):
        th = suites.random_theory(rng, max_rank=2, max_matter=3)
        nu = suites.random_coweight(rng, th.rank, nonzero=False)
        nup = suites.random_coweight(rng, th.rank, nonzero=False)
        xi = suites.random_coweight(rng, th.rank)
        assert elprime_identity_holds(nu, nup, xi, th)


def test_xi_negative():
    assert xi_negative((Fraction(-1, 2),), (1,), TH1)
    assert not xi_negative((3,), (1,), TH1)
    assert xi_negative((3,), (1,), TorusTheory(1, []))
    # condition (2): negative pairing with non-positive integer value
    thm = TorusTheory(1, [MatterWeight((-1,))])
    assert not xi_negative((0,), (1,), thm)
    assert xi_negative((Fraction(1, 3),), (1,), thm)


def test_transition_invertible():
    assert transition_invertible((5,), (1,), TorusTheory(1, []))
    assert not transition_invertible((1,), (1,), TH1)
    assert transition_invertible((Fraction(1, 2),), (1,), TH1)
    rng = random.Random(4)
    for _ in range(20):
        th = suites.random_theory(rng, max_rank=2)
        xi = suites.random_coweight(rng, th.rank)
        pt = tuple(as_scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])))
                   for _ in range(th.rank))
        if xi_negative(pt, xi, th):
            # samples k >= 0 of what holds for all k (suites.suite_restriction)
            for k in range(11):
                down = tuple(p - k * b for p, b in zip(pt, xi))
                assert transition_invertible(down, xi, th)


def test_module_action_examples():
    m = UniversalWeightModule(TH1, (Fraction(1, 2),), {(k,) for k in range(4)})
    assert m.action_scalar((0,), (1,)) == as_scalar(1)
    # scalars of the up-down composite match the closed-form eigenvalue
    c_down = m.action_scalar((1,), (1,))
    c_up = m.action_scalar((-1,), (0,))
    eig = rxi_closed_form((1,), TH1)[0].terms[(0,)].evaluate(
        {"x1": m.weight_of((1,))[0], HBAR: 1})
    assert c_up * c_down == eig


def test_module_action_associativity():
    # (r_xi r_nu) . b = r_xi . (r_nu . b): the relation coefficient acts on
    # the target weight after the composite lowering operator
    rng = random.Random(5)
    for _ in range(15):
        m = suites.random_module(rng)
        rank = m.theory.rank
        xi = suites.random_coweight(rng, rank)
        nu2 = suites.random_coweight(rng, rank)
        start = next(iter(sorted(m.active)))
        prod = mul(MonopoleElement.r(xi), MonopoleElement.r(nu2), m.theory)
        total = tuple(a + b for a, b in zip(xi, nu2))
        coeff = prod.terms[total]
        wt = m.weight_of(tuple(s - t for s, t in zip(start, total)))
        point = {("x%d" % (i + 1)): w for i, w in enumerate(wt)}
        point[HBAR] = as_scalar(1)
        lhs = coeff.evaluate(point) * m.action_scalar(total, start)
        rhs = m.action_scalar(nu2, start) \
            * m.action_scalar(xi, tuple(s - b for s, b in zip(start, nu2)))
        assert lhs == rhs


def test_res_support_trivial_pairing():
    th0 = TorusTheory(1, [])
    m = UniversalWeightModule(th0, (0,), {(k,) for k in range(4)})
    assert res_support(m, (1,)) == {(Fraction(0),): 1}


def test_res_support_killing():
    m = UniversalWeightModule(TH1, (0,), {(k,) for k in range(6)})
    # raising along xi = -1 passes through the vanishing eigenvalue at 0 but
    # the coset still stabilizes at dimension one further up
    support = res_support(m, (-1,))
    assert list(support.values()) == [1]


def test_res_support_box_with_vanishing_eigenvalue():
    # rank 1, matter of charge one, gamma0 = 0, active 0..5, xi = 1: the
    # up-down eigenvalue vanishes at weight 1, but the downward transitions
    # are all invertible and 0 is the xi-negative representative
    m = UniversalWeightModule(TH1, (0,), {(k,) for k in range(6)})
    assert res_support(m, (1,)) == {(Fraction(0),): 1}
    assert xi_negative((0,), (1,), TH1)
    assert all(not xi_negative((k,), (1,), TH1) for k in range(1, 6))


def test_res_support_theorem():
    out = suites.suite_restriction(seed=1, n=15)
    assert out["ok"], out["witnesses"][:3]


@pytest.mark.parametrize("seed", [41, 42, 43, 44])
def test_res_support_matches_all_starts_walk(seed):
    rng = random.Random(seed)
    tally = Counter()
    for case in range(60):
        kind = ("rational", "gaussian", "symbolic")[case % 3]
        rank = rng.randint(1, 2)
        matter = []
        for _ in range(rng.randint(1, 3)):
            shift = as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
            if kind == "gaussian" and rng.random() < 0.5:
                shift = shift + ExactScalar(0, rng.choice([1, -1]))
            if kind == "symbolic" and rng.random() < 0.5:
                shift = shift + ExactScalar(0, 0, {"irr": 1})
            matter.append(MatterWeight(tuple(rng.randint(-2, 2) for _ in range(rank)),
                                       shift))
        gamma0 = tuple(as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
                       for _ in range(rank))
        span = rng.randint(2, 4)
        box = set(itertools.product(range(span), repeat=rank))
        m = UniversalWeightModule(TorusTheory(rank, matter), gamma0, box)
        xi = tuple(rng.randint(-2, 2) for _ in range(rank))
        if not any(xi):
            xi = (1,) + xi[1:]
        got = res_support(m, xi)
        want = ref.res_support(m, xi, ref.walk_length(m, xi))
        assert got == want, (m, xi)
        tally.update(got.values())
    assert tally[0] >= 10 and tally[1] >= 10, tally


@pytest.mark.parametrize("gamma0, span, dim", [(-10, 4, 0), (-20, 4, 0),
                                               (-5, 4, 0), (-5, 11, 1)])
def test_res_support_decides_the_whole_chain(gamma0, span, dim):
    """Rank 1, one matter weight of charge 1, xi = -1: the one zero of the
    line is at nu = -gamma0.  The chain from the deepest active weight
    span - 1 meets it however far beyond the box it lies, and misses it
    only when the box already reaches past it."""
    m = UniversalWeightModule(TH1, (gamma0,), {(k,) for k in range(span)})
    assert res_support(m, (-1,)) == {(0,): dim}
    assert ref.res_support(m, (-1,), ref.walk_length(m, (-1,))) == {(0,): dim}
    assert ref.action_is_zero(m, (-1,), (-gamma0,))
    assert dim == (span - 1 > -gamma0)


def _coset_case(rng, case):
    """A module of rank 1-3 and a coweight xi, a third of them with gcd > 1;
    entries may be negative.  In odd cases the matter is xi-invariant, so
    that hamiltonian_reduce runs.  gamma0 is rational, Gaussian or symbolic
    in turn, and every third active set is a box with weights taken out, so
    that Z xi-cosets can have gaps."""
    rank = rng.randint(1, 3)
    xi = suites.random_coweight(rng, rank, bound=3 if case % 3 else 1)
    if case % 3 == 1:
        xi = tuple(2 * x for x in xi)
    norm = sum(x * x for x in xi)
    matter = []
    for _ in range(rng.randint(0, 3)):
        g = tuple(rng.randint(-2, 2) for _ in range(rank))
        if case % 2:
            p = sum(a * b for a, b in zip(g, xi))
            g = tuple(norm * a - p * b for a, b in zip(g, xi))
            g = tuple(a // (gcd(*g) or 1) for a in g)
        shift = as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
        matter.append(MatterWeight(g, shift))
    gamma0 = []
    for i in range(rank):
        g = as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])))
        if case % 3 == 1 and rng.random() < 0.5:
            g = g + ExactScalar(0, rng.choice([1, -1]))
        elif case % 3 == 2 and rng.random() < 0.5:
            g = g + ExactScalar(0, 0, {"irr%d" % i: 1})
        gamma0.append(g)
    if case % 3:
        active = set(itertools.product(range(rng.randint(2, 3)), repeat=rank))
    else:
        active = {nu for nu in itertools.product(range(5 - rank // 2), repeat=rank)
                  if rng.random() < 0.7}
    return UniversalWeightModule(TorusTheory(rank, matter), tuple(gamma0), active), xi


def _printed(keyed):
    """The keys of a result dict as the CLI prints them, with their values,
    in the dict's order."""
    return [(",".join(str(q) for q in key), v) for key, v in keyed.items()]


@pytest.mark.parametrize("seed", [61, 62])
def test_module_cosets_match_former_grouping(seed):
    """res_support and hamiltonian_reduce against the former Fraction coset
    keys and the former two-pass grouping: equal results in the same order,
    equal printed keys, and equal raises (type and message)."""
    rng = random.Random(seed)
    tally = Counter()
    for case in range(90):
        m, xi = _coset_case(rng, case)
        got = res_support(m, xi)
        want = ref.res_support(m, xi, ref.walk_length(m, xi))
        assert got == want and _printed(got) == _printed(want), (m, xi)
        tally.update("dim %d" % v for v in got.values())
        got = raised(lambda: hamiltonian_reduce(m, xi))
        want = raised(lambda: ref.hamiltonian_reduce(m, xi))
        assert got == want, (m, xi)
        if isinstance(want[0], type):
            tally[want[0].__name__] += 1
        else:
            assert [_printed(r) for r in got] == [_printed(r) for r in want]
            tally["qhr"] += 1
            tally["fractional key"] += any("/" in k for k, _ in _printed(got[0]))
        tally["rank %d" % m.theory.rank] += 1
        tally["gcd > 1"] += gcd(*xi) > 1
    assert min(tally[k] for k in ("dim 0", "dim 1", "qhr", "fractional key",
                                  "ValueError", "MatterNotInvariantError",
                                  "rank 1", "rank 2", "rank 3", "gcd > 1")) >= 5, tally


def test_hamiltonian_reduce():
    th0 = TorusTheory(1, [])
    m = UniversalWeightModule(th0, (0,), {(k,) for k in range(4)})
    f, o = hamiltonian_reduce(m, (1,))
    assert f == o == {(Fraction(0),): 1}
    with pytest.raises(MatterNotInvariantError):
        hamiltonian_reduce(UniversalWeightModule(TH1, (0,), {(0,)}), (1,))
    out = suites.suite_qhr(seed=1, n=15)
    assert out["ok"], out["witnesses"][:3]


def test_hamiltonian_reduce_empty_module():
    m = UniversalWeightModule(TorusTheory(1, []), (0,), set())
    assert hamiltonian_reduce(m, (1,)) == ({}, {})


def test_hamiltonian_reduce_two_cosets():
    # rank 2, xi = (1,1): the box has several Z xi-cosets over each line class
    th = TorusTheory(2, [MatterWeight((1, -1))])
    box = {(a, b) for a in range(2) for b in range(2)}
    m = UniversalWeightModule(th, (as_scalar(0), as_scalar(Fraction(1, 2))), box)
    f, o = hamiltonian_reduce(m, (1, 1))
    assert f == o
    assert sorted(f.values()) == [1, 1, 1]


@pytest.mark.parametrize("fn", [
    lambda xi: res_support(UniversalWeightModule(TH1, (0,), {(0,), (1,)}), xi),
    lambda xi: hamiltonian_reduce(UniversalWeightModule(TorusTheory(1, []), (0,),
                                                        {(0,), (1,)}), xi),
    lambda xi: xi_negative((0,), xi, TH1),
    lambda xi: transition_eigenvalues((Fraction(1, 2),), xi, TH1),
    lambda xi: transition_invertible((Fraction(1, 2),), xi, TH1),
], ids=["res_support", "hamiltonian_reduce", "xi_negative",
        "transition_eigenvalues", "transition_invertible"])
def test_coweight_must_be_an_integer_vector(fn):
    # a coweight entry that is not an integer is refused, naming the entry,
    # not truncated or let through as a float; one equal to an int reads so
    for bad, shown in ((Fraction(1, 2), r"Fraction\(1, 2\)"), (1.5, "1.5"),
                       (as_scalar(2), r"ExactScalar\(2\)")):
        with pytest.raises(ValueError, match=r"^coweight \(%s,\) has a non-integer "
                                             r"entry %s$" % (shown, shown)):
            fn((bad,))
    assert fn((Fraction(4, 2),)) == fn((2,))


def test_module_coweight_of_wrong_rank_is_rejected():
    m1 = UniversalWeightModule(TH1, (0,), {(k,) for k in range(3)})
    m2 = UniversalWeightModule(TorusTheory(2, [MatterWeight((1, -1))]),
                               (0, 0), {(0, 0), (1, 1)})
    for fn, module, xi in ((res_support, m1, (1, 2)), (res_support, m2, (1,)),
                           (hamiltonian_reduce, m1, (0, 1)),
                           (hamiltonian_reduce, m2, (1,))):
        with pytest.raises(ValueError, match="wrong rank: the module has rank"):
            fn(module, xi)
    # a gamma0 of the wrong length is refused when the module is made
    with pytest.raises(ValueError, match=r"gamma0 \(Fraction\(1, 2\),\) has "
                                         "wrong rank: the theory has rank 2"):
        UniversalWeightModule(m2.theory, (Fraction(1, 2),), m2.active)
    with pytest.raises(ValueError, match="torus rank -1 is negative"):
        TorusTheory(-1)


def test_theories_and_modules_are_frozen():
    """A theory and a weight module are values: no field is reassigned,
    and the matter and the active set are immutable collections."""
    th = TorusTheory(2, [MatterWeight((1, -1)), ((0, 1), Fraction(1, 2))])
    m = UniversalWeightModule(th, (Fraction(1, 2), 0), [(0, 0), (1, 1), (1, 1)])
    assert type(th.matter) is tuple and th.matter[1] == MatterWeight((0, 1), Fraction(1, 2))
    assert m.active == frozenset({(0, 0), (1, 1)})
    for obj, name, value in ((th, "rank", 3), (th, "matter", ()),
                             (th.matter[0], "gauge", (0, 0)),
                             (th.matter[0], "_form", ONE_POLY),
                             (m, "theory", TH2), (m, "gamma0", (0, 0)),
                             (m, "active", frozenset())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    assert m == UniversalWeightModule(th, (Fraction(1, 2), 0), {(0, 0), (1, 1)})
    assert hash(m) == hash(UniversalWeightModule(th, m.gamma0, m.active))


def test_integer_coordinates_are_checked_not_truncated():
    """A gauge vector, a monopole key or an active coweight with an entry
    that is not an integer raises ValueError naming the entry; an integral
    Fraction reads as its int."""
    cases = (
        ("gauge vector", MatterWeight, lambda mw: mw.gauge),
        ("gauge vector", lambda v: TorusTheory(len(v), [(v,)]),
         lambda th: th.matter[0].gauge),
        ("coweight", lambda v: MonopoleElement({v: 1}),
         lambda el: next(iter(el.terms))),
        ("coweight", MonopoleElement.r, lambda el: next(iter(el.terms))),
        ("active coweight",
         lambda v: UniversalWeightModule(TorusTheory(len(v)), (0,) * len(v), {v}),
         lambda m: next(iter(m.active))),
    )
    for what, make, read in cases:
        for bad, entry in (((Fraction(1, 2), 1), "Fraction(1, 2)"),
                           ((1.7,), "1.7"), ((0, Fraction(3, 2)), "Fraction(3, 2)")):
            with pytest.raises(ValueError, match=re.escape(
                    "%s %r has a non-integer entry %s" % (what, bad, entry))):
                make(bad)
        got = read(make((Fraction(4, 2), -1)))
        assert got == (2, -1) and [type(n) for n in got] == [int, int]


TH2 = TorusTheory(2, [MatterWeight((1, 1))])


def _rejects_wrong_rank(fn):
    """A weight point or coweight whose length is not the theory's rank."""
    for point, xi, what in (((1,), (1, 0), "weight point (1,)"),
                            ((1, 2, 3), (1, 0), "weight point (1, 2, 3)"),
                            ((1, 2), (1,), "coweight (1,)")):
        with pytest.raises(ValueError, match=r"^%s has wrong rank: the "
                           r"theory has rank 2$" % re.escape(what)):
            fn(point, xi, TH2)
    fn((1, 2), (1, 0), TH2)


def test_xi_negative_rejects_wrong_rank():
    _rejects_wrong_rank(xi_negative)


def test_transition_eigenvalues_rejects_wrong_rank():
    _rejects_wrong_rank(transition_eigenvalues)


def test_transition_invertible_rejects_wrong_rank():
    _rejects_wrong_rank(transition_invertible)


def test_monopole_suite_small():
    out = suites.suite_monopole(seed=3, n_rxi=10, n_assoc=25, n_inv=10, n_hom=10)
    assert out["ok"], out["witnesses"][:3]


# -- the one factor rule against the hand-written loops it replaced ---------


def _shifted_theory(rng):
    """A random theory whose flavour shifts are sometimes Gaussian; about a
    third of its matter weights carry an h-shift."""
    th = suites.random_theory(rng, max_rank=2, max_matter=4)
    matter = [MatterWeight(mu.gauge,
                           mu.flavour_shift + ExactScalar(0, Fraction(
                               rng.randint(-2, 2), rng.choice([1, 2])))
                           if rng.random() < 0.3 else mu.flavour_shift,
                           mu.hbar_shift)
              for mu in th.matter]
    return TorusTheory(th.rank, matter)


def test_factor_rule_matches_hand_written_loops():
    rng = random.Random(6)
    seen = Counter()
    shifts = Counter()
    for _ in range(200):
        th = _shifted_theory(rng)
        shifts["gaussian"] += any(mu.flavour_shift.imaginary for mu in th.matter)
        shifts["hbar"] += any(mu.hbar_shift for mu in th.matter)
        # coweights of norm <= 1 keep the expanded products small
        xi = suites.random_coweight(rng, th.rank, bound=1)
        nu = suites.random_coweight(rng, th.rank, bound=1, nonzero=False)
        nup = suites.random_coweight(rng, th.rank, bound=1, nonzero=False)
        a = suites.random_element(rng, th.rank, 2)
        keep = [i for i in range(len(th.matter)) if rng.random() < 0.5]
        point = tuple(as_scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
                      for _ in range(th.rank))
        for x, y in ((xi, nu), (nu, xi), (xi, tuple(-v for v in xi))):
            assert repr(relation_coefficient(th, x, y)) == \
                repr(ref.relation_coefficient(th, x, y, seen))
        assert repr(inv_monopole(xi, nu, th)) == \
            repr(ref.inv_monopole(xi, nu, th, seen))
        assert repr(forget_matter(a, keep, th)) == \
            repr(ref.forget_matter(a, keep, th))
        assert Counter(transition_eigenvalues(point, xi, th)) == \
            Counter(ref.transition_eigenvalues(point, xi, th))
        assert repr(phi0(nu, nup, th)) == repr(ref.phi0(nu, nup, th, seen))
        assert repr(kappa(nu, xi, th)) == repr(ref.kappa(nu, xi, th))
        assert repr(phi0_prime(nu, nup, xi, th)) == \
            repr(ref.phi0_prime(nu, nup, xi, th, seen))
    assert min(seen["a>0>b"], seen["a<0<b"], seen["skip"]) >= 20, seen
    assert min(shifts["gaussian"], shifts["hbar"]) >= 20, shifts


def test_forms_match_polynomial_arithmetic():
    rng = random.Random(8)
    shifts = [0, Fraction(1, 2), -1, ExactScalar(Fraction(1, 2), 1),
              ExactScalar(0, 0, {"s": 1})]
    tally = Counter()
    for _ in range(60):
        rank = rng.randint(1, 2)
        matter = [MatterWeight(tuple(rng.randint(-1, 2) for _ in range(rank)),
                               rng.choice(shifts), rng.choice([0, 1, -2]))
                  for _ in range(rng.randint(1, 3))]
        pairs = [(mu, j) for mu in matter for j in range(-3, 4)
                 if rng.random() < 0.5]
        for hbar in (None, 1, Fraction(-1, 2)):
            got, want = _forms(pairs, hbar), ref.forms(pairs, hbar)
            assert [(f.terms, _factor_key(f), repr(f)) for f in got] == \
                [(f.terms, _factor_key(f), repr(f)) for f in want]
            assert [[type(c) for c in f.terms.values()] for f in got] == \
                [[type(c) for c in f.terms.values()] for f in want]
            slot = ((HBAR, 1),) if hbar is None else ()
            for (mu, j), f in zip(pairs, got):
                tally["j<0" if j < 0 else "j>0" if j > 0 else "j=0"] += 1
                tally["hbar_shift"] += bool(mu.hbar_shift)
                tally["complex"] += bool(mu.flavour_shift.imaginary)
                tally["slot cancels"] += j != 0 and slot not in f.terms
    assert min(tally.values()) >= 20, tally


def test_matter_weight_stores_its_form():
    """The h-symbolic form is built once, when the weight is made, also by
    dual() and by TorusTheory's tuple path; it and form(hbar) are the
    former construction, term order and coefficient types included; the
    stored form is no part of ==, hash or repr."""
    rng = random.Random(34)
    shifts = [0, Fraction(1, 2), -1, ExactScalar(Fraction(1, 2), 1),
              ExactScalar(0, 0, {"s": 1})]
    for _ in range(40):
        rank = rng.randint(1, 3)
        mu = MatterWeight(tuple(rng.randint(-2, 2) for _ in range(rank)),
                          rng.choice(shifts), rng.choice([0, 1, Fraction(-1, 2)]))
        th = TorusTheory(rank, [(mu.gauge, mu.flavour_shift, mu.hbar_shift)])
        for w in (mu, mu.dual(), th.matter[0]):
            assert w.form() is w.form() is vars(w)["_form"]
            for hbar in (None, 1, Fraction(-1, 2), 0):
                got, want = w.form(hbar), ref.form(w, hbar)
                assert list(got.terms.items()) == list(want.terms.items())
                assert [type(c) for c in got.terms.values()] == \
                    [type(c) for c in want.terms.values()]
        other = MatterWeight(mu.gauge, mu.flavour_shift, mu.hbar_shift)
        object.__setattr__(other, "_form", ONE_POLY)
        assert other == mu and hash(other) == hash(mu) and repr(other) == repr(mu)
        assert "_form" not in repr(mu)


def _evaluation_case(rng, kind):
    """A module and a coweight with rational, Gaussian or symbolic weights.
    In a "cancel" case every weight shares the symbol s and the matter
    charges are (c, -c), so the symbolic parts of each value cancel."""
    if kind == "cancel":
        matter = []
        for _ in range(rng.randint(1, 3)):
            shift = as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
            if rng.random() < 0.2:
                shift = shift + ExactScalar(0, 1)
            c = rng.choice([1, -1, 2])
            matter.append(MatterWeight((c, -c), shift))
        th = TorusTheory(2, matter)
    elif kind == "gaussian":
        th = _shifted_theory(rng)
    else:
        th = suites.random_theory(rng, max_rank=2, max_matter=3)
    gamma0 = []
    for i in range(th.rank):
        g = as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])))
        if kind == "cancel":
            g = g + ExactScalar(0, 0, {"s": 1})
        elif kind == "gaussian" and rng.random() < 0.5:
            g = g + ExactScalar(0, rng.choice([1, -1]))
        elif kind == "symbolic" and rng.random() < 0.5:
            g = g + ExactScalar(0, 0, {"irr%d" % i: rng.choice([1, 2])})
        gamma0.append(g)
    box = set(itertools.product(range(3), repeat=th.rank))
    xi = rng.choice([(1, 1), (1, 0), (0, -1), (2, -1)]) if kind == "cancel" \
        else suites.random_coweight(rng, th.rank)
    return UniversalWeightModule(th, tuple(gamma0), box), xi


_KINDS = ["rational", "gaussian", "symbolic", "cancel"]


@pytest.mark.parametrize("kind", _KINDS)
def test_weight_values_match_exact_scalar_evaluators(kind):
    """transition_eigenvalues, action_factors, action_scalar, xi_negative,
    res_support and hamiltonian_reduce against the former ExactScalar
    evaluation (equal values, equal raises); new values are in
    ``coefficient``'s normal form."""
    rng = random.Random(50 + _KINDS.index(kind))
    tally = Counter()
    for _ in range(40):
        m, xi = _evaluation_case(rng, kind)
        former = ref.Module(m.theory, m.gamma0, m.active)
        support = res_support(m, xi)
        assert support == ref.res_support(former, xi, ref.walk_length(former, xi))
        tally.update("dim %d" % v for v in support.values())
        qhr = raised(lambda: hamiltonian_reduce(m, xi))
        assert qhr == raised(lambda: hamiltonian_reduce(former, xi))
        tally["qhr"] += not isinstance(qhr[0], type)
        for nu in sorted(m.active):
            point = m.weight_of(nu)
            neg = xi_negative(point, xi, m.theory)
            assert neg == ref.xi_negative(point, xi, m.theory)
            tally["xi-negative" if neg else "not xi-negative"] += 1
            eig = transition_eigenvalues(point, xi, m.theory)
            assert Counter(eig) == \
                Counter(ref.transition_eigenvalues(point, xi, m.theory))
            factors = m.action_factors(xi, nu)
            assert factors == ref.action_factors(m, xi, nu)
            for v in eig + factors:
                assert coefficient(v) is v
                tally["real" if type(v) is not ExactScalar else "value"] += 1
            got, want = raised(lambda: m.action_scalar(xi, nu)), \
                raised(lambda: ref.action_scalar(m, xi, nu))
            assert got == want
            tally[want[0].__name__ if type(want) is tuple else "scalar"] += 1
    assert min(tally[k] for k in ("dim 0", "dim 1", "xi-negative",
                                  "not xi-negative", "real")) >= 5, tally
    if kind != "rational":
        assert tally["value"] >= 100, tally
    if kind == "symbolic":
        assert tally["ValueError"] >= 10, tally
    if kind == "cancel":
        assert tally["qhr"] >= 3, tally


def test_res_support_builds_no_scalar_per_weight(monkeypatch):
    """With a symbolic gamma0, res_support builds no ExactScalar, on a 3x3
    box as on a 6x6 box: the values at gamma0 are read when the module is
    made, and each coset's test stays in ints."""
    th = TorusTheory(2, [MatterWeight((1, 0), Fraction(1, 2)),
                         MatterWeight((1, -1)),
                         MatterWeight((0, 1), ExactScalar(1, 0, {"s": 1}))])
    gamma0 = (ExactScalar(Fraction(1, 2), 0, {"s": 1}), Fraction(1, 3))
    init = ExactScalar.__init__
    built = Counter()

    def counting(self, *args, **kwargs):
        built["n"] += 1
        init(self, *args, **kwargs)

    counts = []
    for span in (3, 6):
        m = UniversalWeightModule(th, gamma0, set(itertools.product(range(span),
                                                                    repeat=2)))
        monkeypatch.setattr(ExactScalar, "__init__", counting)
        built.clear()
        support = res_support(m, (1, 1))
        monkeypatch.setattr(ExactScalar, "__init__", init)
        assert support == ref.res_support(m, (1, 1), ref.walk_length(m, (1, 1)))
        counts.append(built["n"])
    assert counts == [0, 0], counts


def test_rxi_closed_form_matches_expanded_products():
    # small theories keep the expanded products small
    rng = random.Random(8)
    factors = 0
    for _ in range(60):
        th = _shifted_theory(rng)
        xi = suites.random_coweight(rng, th.rank, bound=1)
        got, want = rxi_closed_form(xi, th), ref.rxi_closed_form(xi, th)
        assert got == want and repr(got) == repr(want)
        factors += sum(len(c.factors) for e in got for c in e.terms.values())
    assert factors >= 100, factors


# -- mul against the former one-element-per-term fold ------------------------


def _same_rf(got, want):
    assert repr(got) == repr(want)
    assert got.poly.terms == want.poly.terms
    assert list(got.factors.items()) == list(want.factors.items())


def _same_element(got, want):
    """Equal repr, keys in the same order, and per key the same poly and
    the same factors in the same order."""
    assert repr(got) == repr(want)
    assert list(got.terms) == list(want.terms)
    for nu in want.terms:
        _same_rf(got.terms[nu], want.terms[nu])


def _mul_theory(rng):
    """Random matter with gauge entries of either sign, an h-shift on about
    half the weights, a Gaussian flavour shift on about a third, and half
    the time one weight listed twice."""
    rank = rng.randint(1, 2)
    matter = []
    for _ in range(rng.randint(1, 3)):
        shift = as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
        if rng.random() < 0.3:
            shift = shift + ExactScalar(0, rng.choice([1, -1]))
        matter.append(MatterWeight(suites.random_coweight(rng, rank),
                                   shift, rng.choice([0, 0, 1, -1])))
    if rng.random() < 0.5:
        matter.append(rng.choice(matter))
    return TorusTheory(rank, matter)


def _mul_operand(rng, th):
    """A few polynomial terms on coweights of norm <= 1, plus, half the time,
    a term of inv_monopole, whose coefficient has denominator factors."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        nu = suites.random_coweight(rng, th.rank, bound=1, nonzero=False)
        c = as_poly(Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])))
        if rng.random() < 0.5:
            c = c * Polynomial.variable("x%d" % rng.randint(1, th.rank))
        if rng.random() < 0.3:
            c = c + h
        terms[nu] = c
    out = MonopoleElement(terms)
    if rng.random() < 0.5:
        out = out + inv_monopole(suites.random_coweight(rng, th.rank, bound=1),
                                 suites.random_coweight(rng, th.rank, bound=1,
                                                        nonzero=False), th)
    return out


def _cancelling_operands(rng, th):
    """a = r_xi + r_0 + r_-xi and b = g0 r_0 + g1 r_xi + g2 r_2xi with
    g1 = -g0(x + h xi): the (xi, 0) and (0, xi) terms of a b cancel on xi,
    and (-xi, 2xi) adds to xi again after terms on other coweights."""
    xi = suites.random_coweight(rng, th.rank, bound=1)
    zero = (0,) * th.rank
    one = RationalFunction.of(1)
    a = MonopoleElement({xi: one, zero: one, tuple(-x for x in xi): one})
    g0, g2 = (next(iter(_mul_operand(rng, th).terms.values()))
              for _ in range(2))
    g1 = -g0.substitute(ref.shift_map(xi))
    return xi, a, MonopoleElement({zero: g0, xi: g1,
                                   tuple(2 * x for x in xi): g2})


def test_mul_matches_the_former_fold():
    rng = random.Random(29)
    tally = Counter()
    for trial in range(60):
        th = _mul_theory(rng)
        gauges = [mu.gauge for mu in th.matter]
        tally["both signs"] += any(g > 0 for v in gauges for g in v) \
            and any(g < 0 for v in gauges for g in v)
        tally["repeated"] += len(set(th.matter)) < len(th.matter)
        tally["h-shift"] += any(mu.hbar_shift for mu in th.matter)
        tally["gaussian"] += any(mu.flavour_shift.imaginary for mu in th.matter)
        cancels = trial % 4 == 0
        if cancels:
            xi, a, b = _cancelling_operands(rng, th)
        else:
            a, b = _mul_operand(rng, th), _mul_operand(rng, th)
        tally["denominator"] += any(e < 0 for x in (a, b)
                                    for c in x.terms.values()
                                    for _, e in c.factors.values())
        ab = mul(a, b, th)
        _same_element(ab, ref.mul(a, b, th))
        _same_element(mul(b, a, th), ref.mul(b, a, th))
        if cancels:
            assert list(ab.terms)[-1] == xi
            tally["cancels"] += 1
    assert min(tally.values()) >= 10, tally


def test_mul_divides_f_times_shifted_g_first():
    """Where g(x + h xi) is divisible by a denominator factor of f, the
    product f g(x + h xi) divides it out before the relation factors merge,
    as the former two products did: the same poly and the same factors in
    the same order."""
    rng = random.Random(34)
    divided = 0
    for _ in range(60):
        th = _mul_theory(rng)
        while True:
            a = inv_monopole(suites.random_coweight(rng, th.rank),
                             suites.random_coweight(rng, th.rank, nonzero=False), th)
            (xi, f), = a.terms.items()
            den = [p for p, e in f.factors.values() if e < 0]
            if den:
                break
        back = ref.shift_map(tuple(-x for x in xi))
        g = rng.choice(den).substitute(back) * (x1 + rng.randint(-2, 2))
        b = MonopoleElement({suites.random_coweight(rng, th.rank, bound=1,
                                                    nonzero=False): g})
        _same_element(mul(a, b, th), ref.mul(a, b, th))
        shifted = RationalFunction.of(g).substitute(ref.shift_map(xi))
        divided += len((f * shifted).factors) < len(f.factors)
    assert divided >= 40, divided


def test_shift_map_matches_polynomial_arithmetic():
    for xi in ((1,), (0, -2), (3, 0, -1), (Fraction(1, 2), -1)):
        for hbar in (None, 1, Fraction(-1, 2), 0):
            got, want = _shift_map(xi, hbar), ref.shift_map(xi, hbar)
            assert list(got) == list(want)
            for v in want:
                assert list(got[v].terms.items()) == list(want[v].terms.items())
                assert [type(c) for c in got[v].terms.values()] == \
                    [type(c) for c in want[v].terms.values()]


def test_product_merges_forms_as_the_constructor_did():
    """_product against the constructor's list path, including repeated
    forms, constant forms and zero forms (a weight with no gauge part at
    j = 0), where the product is zero."""
    rng = random.Random(30)
    tally = Counter()
    for _ in range(80):
        rank = rng.randint(1, 2)
        matter = [MatterWeight(suites.random_coweight(rng, rank),
                               rng.choice([0, Fraction(1, 2), ExactScalar(0, 1)]),
                               rng.choice([0, 1]))
                  for _ in range(rng.randint(1, 3))]
        pairs = [(mu, j) for mu in matter for j in range(-2, 3)
                 if rng.random() < 0.4]
        pairs += pairs[:rng.randint(0, 2)]
        if rng.random() < 0.5:
            flat = MatterWeight((0,) * rank)
            pairs.insert(rng.randint(0, len(pairs)),
                         (flat, rng.choice([0, 0, 1, -2])))
        for hbar in (None, 1):
            got, want = _product(pairs, hbar), ref.product(pairs, hbar)
            _same_rf(got, want)
            tally["zero" if not want else "nonzero"] += 1
    assert min(tally.values()) >= 20, tally


def test_quotient_matches_the_former_two_products():
    """_quotient against num times the function of the forms alone: num
    with numerator factors of its own (as kappa passes it), with
    denominator factors too, or 1; repeated forms, forms that cancel a
    numerator factor, in any order; h symbolic and h = 1."""
    rng = random.Random(34)
    tally = Counter()
    for _ in range(80):
        rank = rng.randint(1, 2)
        matter = [MatterWeight(suites.random_coweight(rng, rank),
                               rng.choice([0, Fraction(1, 2), ExactScalar(0, 1)]),
                               rng.choice([0, 1]))
                  for _ in range(rng.randint(1, 3))]
        pairs = [(mu, j) for mu in matter for j in range(-2, 3)]
        top = [p for p in pairs if rng.random() < 0.4]
        den = [p for p in pairs if rng.random() < 0.4]
        den += den[:rng.randint(0, 2)]
        rng.shuffle(den)
        for hbar in (None, 1):
            kind = rng.choice(["one", "numerator", "both"])
            num = {"one": lambda: RationalFunction.of(1),
                   "numerator": lambda: ref.product(top, hbar),
                   "both": lambda: ref.quotient(ref.product(top, hbar) * (x1 + 1),
                                                den[:1], hbar)}[kind]()
            keys = [_factor_key(f) for f in _forms(den, hbar)]
            tally[kind] += 1
            tally["repeated"] += len(set(keys)) < len(keys)
            tally["cancels"] += any(num.factors.get(k, (0, 0))[1] > 0 for k in keys)
            _same_rf(_quotient(num, den, hbar), ref.quotient(num, den, hbar))
    assert min(tally.values()) >= 20, tally
