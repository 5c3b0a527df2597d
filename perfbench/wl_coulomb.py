"""coulomb-products: seeded identities of abelian Coulomb branch products.

Every check's program output is evaluated at a seeded rational point and
compared with the BFN product formula evaluated there in plain Fraction
(Gaussian for complex-shift) arithmetic by perfbench.oracles.

Point coordinates are a/p with distinct primes p > 100 per coordinate and
for h, so no linear form with a nonzero gauge part vanishes there: every
denominator the program or the oracle builds stays nonzero on every seed.
"""

from __future__ import annotations

from fractions import Fraction

import oracles as O
from common import Check, run_checks

# A round holds 38 checks, 35 of which pass; 29 rounds give 1015 passed
# checks, so at least ten lie beyond the 99th percentile in every run.
TAIL_PERCENTILE = 99
MIN_ROUNDS = 29

PRIMES = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157]

# Each slot pins the size of its case, so the seed changes the inputs but
# hardly the cost of a round.  Pairing slots: (rank, matter weights, lowest
# and highest expansion work), the work being the term pairs that expanding
# both products of linear forms takes.  The last two make the heavy tail.
PAIRING_SLOTS = [(1, 2, 20, 60), (1, 3, 60, 120), (2, 3, 100, 200),
                 (2, 3, 300, 500), (3, 4, 300, 500), (3, 4, 800, 1200),
                 (3, 4, 2600, 3400), (3, 4, 2600, 3400)]
# Other families pin the number of linear factors their products build.
ASSOC_SLOTS = [2, 4, 6, 6, 8, 10]
INVERSE_SLOTS = [1, 2, 2, 3, 3, 4]
FORGET_SLOTS = [1, 3, 3, 5, 7]
FOURIER_CHECKS = 4
ELPRIME_SLOTS = [2, 4, 6, 6, 8, 10]


def setup():
    """Import the program and build the fixed complex-shift theories."""
    from klrwcb import coulomb, poly, scalars
    state = {"coulomb": coulomb, "poly": poly, "scalars": scalars}
    state["complex"] = [(spec, _theory(state, spec[0], spec[1]))
                        for spec in COMPLEX_SHIFT]
    return state


# -- generated data -> program objects -------------------------------------


def _theory(state, rank, matter):
    c, s = state["coulomb"], state["scalars"]
    return c.TorusTheory(rank, [
        c.MatterWeight(g, s.ExactScalar(sh.re, sh.im), hs)
        for g, sh, hs in matter])


def _names(rank):
    return tuple("x%d" % (i + 1) for i in range(rank)) + ("h",)


def _poly(state, names, terms):
    P = state["poly"].Polynomial
    total = P.constant(0)
    for mono, coeff in terms.items():
        piece = P.constant(coeff)
        for name, e in zip(names, mono):
            if e:
                piece = piece * P.variable(name, e)
        total = total + piece
    return total


def _element(state, rank, elem):
    c = state["coulomb"]
    RF = state["poly"].RationalFunction
    names = _names(rank)
    return c.MonopoleElement({nu: RF.of(_poly(state, names, t))
                              for nu, t in elem.items()})


def _point_dict(point):
    xs, h = point
    d = {"x%d" % (i + 1): x for i, x in enumerate(xs)}
    d["h"] = h
    return d


def values_of(element, point):
    """Evaluate every coefficient of a program element at a point."""
    pd = _point_dict(point)
    out = {}
    for nu, coeff in element.terms.items():
        v = O.Gauss.of(coeff.evaluate(pd))
        if v:
            out[tuple(nu)] = v
    return out


def same_values(got, want):
    return set(got) == set(want) and all(got[k] == want[k] for k in want)


# -- seeded generators ---------------------------------------------------------


def _gauge(rng, rank):
    while True:
        g = tuple(rng.randint(-2, 2) for _ in range(rank))
        if any(g):
            return g


def _matter(rng, rank, n):
    out = []
    for _ in range(n):
        shift = Fraction(rng.randint(-2, 2), rng.choice([1, 2])) \
            if rng.random() < 0.5 else Fraction(0)
        hshift = Fraction(rng.randint(-1, 1)) if rng.random() < 0.3 else Fraction(0)
        out.append((_gauge(rng, rank), O.Gauss(shift), hshift))
    return out


def _coweight(rng, rank, bound=2, nonzero=True):
    while True:
        nu = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if any(nu) or not nonzero:
            return nu


def _point(rng, rank):
    primes = rng.sample(PRIMES, rank + 1)
    xs = tuple(Fraction(rng.randint(1, p - 1), p) for p in primes[:rank])
    return xs, Fraction(rng.randint(1, primes[rank] - 1), primes[rank])


def _random_elem(rng, rank, max_terms):
    elem = {}
    for _ in range(rng.randint(1, max_terms)):
        nu = _coweight(rng, rank, bound=1, nonzero=False)
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        terms = {}
        mono = [0] * (rank + 1)
        if rng.random() < 0.5:
            mono[rng.randrange(rank)] = 1
        terms[tuple(mono)] = c
        if rng.random() < 0.3:
            hmono = tuple([0] * rank + [1])
            terms[hmono] = terms.get(hmono, 0) + 1
        elem[nu] = {m: v for m, v in terms.items() if v}
    return elem


def _pinned(rng, draw, accept):
    """Draw cases until one is accepted."""
    while True:
        case = draw(rng)
        if accept(*case):
            return case


def _factors(matter, xi, nu):
    """Linear factors in the coefficient of r_xi r_nu."""
    n = 0
    for m in matter:
        a, b = O.pair(m[0], xi), O.pair(m[0], nu)
        if a > 0 > b or a < 0 < b:
            n += min(abs(a), abs(b))
    return n


def _product_factors(matter, xis, nus):
    return sum(_factors(matter, x, n) for x in xis for n in nus)


def _sums(xis, nus):
    return {tuple(a + b for a, b in zip(x, n)) for x in xis for n in nus}


def _expansion_work(matter, xi, limit):
    """Term pairs met while expanding r_xi r_{-xi} and r_{-xi} r_xi factor by
    factor, from the supports of the linear forms alone; counting stops once
    it passes limit."""
    rank = len(xi)
    work = 0
    for x in (xi, tuple(-v for v in xi)):
        monos = {(0,) * (rank + 1)}
        for g, shift, hshift in matter:
            a = O.pair(g, x)
            for j in list(range(-a, 0)) + list(range(0, -a)):
                support = [i for i, c in enumerate(g) if c]
                if hshift + j:
                    support.append(rank)
                work += len(monos) * (len(support) + bool(shift))
                if work > limit:
                    return work
                grown = set(monos) if shift else set()
                for m in monos:
                    for v in support:
                        grown.add(m[:v] + (m[v] + 1,) + m[v + 1:])
                monos = grown
    return work


def _assoc_size(matter, elems):
    a, b, c = (set(e) for e in elems)
    return (_product_factors(matter, a, b) + _product_factors(matter, _sums(a, b), c)
            + _product_factors(matter, b, c) + _product_factors(matter, a, _sums(b, c)))


def _inverse_size(matter, xi, nu):
    return _factors(matter, xi, tuple(n - x for n, x in zip(nu, xi)))


def _forget_size(matter, keep, elems):
    a, b = (set(e) for e in elems)
    n = 2 * _product_factors(matter, a, b)
    for nu in a | b | _sums(a, b):
        n += sum(max(0, -O.pair(matter[i][0], nu)) for i in keep)
    return n


def _elprime_size(matter, nu, nup, xi):
    n = 0
    for m in matter:
        drop = O.pair(m[0], nu) - O.pair(m[0], nup)
        a = O.pair(m[0], xi)
        if a == 0:
            n += 2 * max(0, -drop)
        elif a < 0:
            n += abs(drop) + abs(O.pair(m[0], nu)) + abs(O.pair(m[0], nup))
    return n


# -- families ------------------------------------------------------------------


def pairing_check(state, matter, xi, point):
    c = state["coulomb"]
    th = _theory(state, len(xi), matter)
    neg = tuple(-x for x in xi)
    zero = tuple(0 for _ in xi)

    def verify(got):
        first, second = got
        return same_values(values_of(first, point),
                           {zero: O.pairing_closed_form(matter, xi, point)}) \
            and same_values(values_of(second, point),
                            {zero: O.pairing_closed_form(matter, neg, point)})

    return Check("pairing", lambda: c.rxi_pairing(xi, th), verify)


def assoc_check(state, rank, matter, elems, point):
    c = state["coulomb"]
    th = _theory(state, rank, matter)
    a, b, d = (_element(state, rank, e) for e in elems)
    names = _names(rank)
    A, B, D = (("elem", names, e) for e in elems)
    want = O.evaluate(("mul", matter, ("mul", matter, A, B), D), point)

    def run():
        lhs = c.mul(c.mul(a, b, th), d, th)
        rhs = c.mul(a, c.mul(b, d, th), th)
        return lhs, rhs, lhs == rhs

    def verify(got):
        lhs, rhs, eq = got
        return eq and same_values(values_of(lhs, point), want) \
            and same_values(values_of(rhs, point), want)

    return Check("assoc", run, verify)


def inverse_check(state, rank, matter, xi, nu, point):
    c = state["coulomb"]
    th = _theory(state, rank, matter)
    want_inv = O.evaluate(("inv", matter, xi, nu), point)

    def run():
        inv = c.inv_monopole(xi, nu, th)
        prod = c.mul(c.MonopoleElement.r(xi), inv, th)
        return inv, prod, prod == c.MonopoleElement.r(nu)

    def verify(got):
        inv, prod, eq = got
        return eq and same_values(values_of(inv, point), want_inv) \
            and same_values(values_of(prod, point), {nu: O.Gauss(1)})

    return Check("inverse", run, verify)


def forget_check(state, rank, matter, keep, elems, point):
    c = state["coulomb"]
    th = _theory(state, rank, matter)
    small = th.without(keep)
    a, b = (_element(state, rank, e) for e in elems)
    names = _names(rank)
    A, B = (("elem", names, e) for e in elems)
    want = O.evaluate(("forget", matter, keep, ("mul", matter, A, B)), point)

    def run():
        lhs = c.forget_matter(c.mul(a, b, th), keep, th)
        rhs = c.mul(c.forget_matter(a, keep, th), c.forget_matter(b, keep, th),
                    small)
        return lhs, rhs, lhs == rhs

    def verify(got):
        lhs, rhs, eq = got
        return eq and same_values(values_of(lhs, point), want) \
            and same_values(values_of(rhs, point), want)

    return Check("forget", run, verify)


def fourier_check(state, matter, elems, point):
    c = state["coulomb"]
    rank = 2
    th = _theory(state, rank, matter)
    idx = [i for i, m in enumerate(matter) if m[0][-1] == 1]
    wp = (0, 1)
    dual = th.dualized(idx)
    a, b = (_element(state, rank, e) for e in elems)
    names = _names(rank)
    A, B = (("elem", names, e) for e in elems)
    want = O.evaluate(("fourier", matter, idx, wp, ("mul", matter, A, B)), point)

    def run():
        lhs = c.fourier(c.mul(a, b, th), idx, wp, th)
        rhs = c.mul(c.fourier(a, idx, wp, th), c.fourier(b, idx, wp, th), dual)
        return lhs, rhs, lhs == rhs

    def verify(got):
        lhs, rhs, eq = got
        return eq and same_values(values_of(lhs, point), want) \
            and same_values(values_of(rhs, point), want)

    return Check("fourier", run, verify)


def elprime_check(state, rank, matter, nu, nup, xi, point):
    c = state["coulomb"]
    th = _theory(state, rank, matter)
    xs = point[0]
    pd = {"x%d" % (i + 1): x for i, x in enumerate(xs)}

    def verify(holds):
        lhs, rhs = O.elprime_sides(matter, nu, nup, xi, xs)
        if not holds or lhs != rhs:
            return False
        got_pp = O.Gauss.of(c.phi0_prime(nu, nup, xi, th).evaluate(pd))
        got_k = O.Gauss.of(c.kappa(nup, xi, th).evaluate(pd))
        return got_pp == O.phi0_prime_at(matter, nu, nup, xi, xs) \
            and got_k == O.kappa_at(matter, nup, xi, xs)

    return Check("elprime", lambda: c.elprime_identity_holds(nu, nup, xi, th),
                 verify)


# The complex-shift family: fixed inputs, independent of the seed.  Each
# product's coefficient has a linear factor carrying the non-real shift.
COMPLEX_SHIFT = [
    # (rank, matter, a, b, point)
    (1, [((1,), O.Gauss(Fraction(1, 2), 1), Fraction(0))],
     {(1,): {(0, 0): Fraction(1)}}, {(-1,): {(0, 0): Fraction(1)}},
     ((Fraction(37, 101),), Fraction(29, 107))),
    (1, [((1,), O.Gauss(Fraction(1, 2), 1), Fraction(0)),
         ((-1,), O.Gauss(Fraction(1, 3)), Fraction(0))],
     {(2,): {(0, 0): Fraction(1)}}, {(-1,): {(1, 0): Fraction(2)}},
     ((Fraction(37, 101),), Fraction(29, 107))),
    (2, [((1, 1), O.Gauss(0, 1), Fraction(0)),
         ((1, -1), O.Gauss(0), Fraction(1))],
     {(1, 0): {(0, 0, 0): Fraction(1)}}, {(-1, 0): {(0, 0, 0): Fraction(1)}},
     ((Fraction(37, 101), Fraction(55, 103)), Fraction(29, 107))),
]


def complex_shift_check(state, spec, th):
    c = state["coulomb"]
    rank, matter, ea, eb, point = spec
    a, b = _element(state, rank, ea), _element(state, rank, eb)
    names = _names(rank)
    want = O.evaluate(("mul", matter, ("elem", names, ea), ("elem", names, eb)),
                      point)

    def verify(got):
        return same_values(values_of(got, point), want)

    return Check("complex-shift", lambda: c.mul(a, b, th), verify,
                 expected_failure=True)


SHAPE_SEED = 20220324
SHIFTS = [Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2)]


def make_shapes(rng):
    """The fixed case shapes of a round: ranks, gauge charges, coweights,
    which matter weights carry a flavour shift, and element supports."""
    shapes = []
    for rank, n_matter, lo, hi in PAIRING_SLOTS:
        shapes.append(("pairing",) + _pinned(
            rng, lambda r: (_matter(r, rank, n_matter), _coweight(r, rank)),
            lambda m, x: lo <= _expansion_work(m, x, hi) <= hi))
    for target in ASSOC_SLOTS:
        shapes.append(("assoc",) + _pinned(
            rng, lambda r: (_matter(r, 2, 3),
                            [_random_elem(r, 2, 2) for _ in range(3)]),
            lambda *case: _assoc_size(*case) == target))
    for target in INVERSE_SLOTS:
        shapes.append(("inverse",) + _pinned(
            rng, lambda r: (_matter(r, 2, 3), _coweight(r, 2),
                            _coweight(r, 2, nonzero=False)),
            lambda *case: _inverse_size(*case) == target))
    for target in FORGET_SLOTS:
        shapes.append(("forget",) + _pinned(
            rng, lambda r: (_matter(r, 2, 3),
                            [i for i in range(3) if r.random() < 0.5],
                            [_random_elem(r, 2, 2) for _ in range(2)]),
            lambda *case: _forget_size(*case) == target))
    for _ in range(FOURIER_CHECKS):
        matter = []
        for _ in range(rng.randint(1, 3)):
            shift = Fraction(rng.randint(-1, 1), rng.choice([1, 2])) \
                if rng.random() < 0.5 else Fraction(0)
            matter.append(((rng.randint(-2, 2), rng.choice([0, 1])),
                           O.Gauss(shift), Fraction(0)))
        if not any(m[0][1] == 1 for m in matter):
            matter.append(((1, 1), O.Gauss(0), Fraction(0)))
        shapes.append(("fourier", matter,
                       [_random_elem(rng, 2, 2) for _ in range(2)]))
    for target in ELPRIME_SLOTS:
        shapes.append(("elprime",) + _pinned(
            rng, lambda r: (_matter(r, 2, 4), _coweight(r, 2, nonzero=False),
                            _coweight(r, 2, nonzero=False), _coweight(r, 2)),
            lambda *case: _elprime_size(*case) == target))
    return shapes


def _revalue_matter(rng, matter):
    return [(g, O.Gauss(rng.choice(SHIFTS)) if shift else shift, hshift)
            for g, shift, hshift in matter]


def _revalue_elems(rng, elems):
    return [{nu: {m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for m in terms}
             for nu, terms in e.items()} for e in elems]


def make_round(state, rng):
    """One round: every fixed shape with seeded flavour shifts, element
    coefficients and evaluation point, then the complex-shift family."""
    if "shapes" not in state:
        import random
        state["shapes"] = make_shapes(random.Random(SHAPE_SEED))
    checks = []
    for shape in state["shapes"]:
        kind, matter = shape[0], _revalue_matter(rng, shape[1])
        if kind == "pairing":
            xi = shape[2]
            checks.append(pairing_check(state, matter, xi, _point(rng, len(xi))))
        elif kind == "assoc":
            checks.append(assoc_check(state, 2, matter,
                                      _revalue_elems(rng, shape[2]), _point(rng, 2)))
        elif kind == "inverse":
            checks.append(inverse_check(state, 2, matter, shape[2], shape[3],
                                        _point(rng, 2)))
        elif kind == "forget":
            checks.append(forget_check(state, 2, matter, shape[2],
                                       _revalue_elems(rng, shape[3]), _point(rng, 2)))
        elif kind == "fourier":
            checks.append(fourier_check(state, matter, _revalue_elems(rng, shape[2]),
                                        _point(rng, 2)))
        else:
            _, _, nu, nup, xi = shape
            checks.append(elprime_check(state, 2, matter, nu, nup, xi, _point(rng, 2)))
    for spec, th in state["complex"]:
        checks.append(complex_shift_check(state, spec, th))
    return checks


def run_round(state, checks, tally, tracer):
    run_checks(checks, tally, tracer)
