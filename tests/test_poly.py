import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from klrwcb.coulomb import MatterWeight, TorusTheory, mul
from klrwcb.poly import (HBAR, ONE_POLY, Polynomial, RationalFunction,
                         _factor_key)
from klrwcb.scalars import ExactScalar, as_scalar
from klrwcb.suites import random_element, random_theory

x = Polynomial.variable("x1")
y = Polynomial.variable("x2")
h = Polynomial.variable(HBAR)


def test_basic_arithmetic():
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert x - x == Polynomial({})
    assert (Fraction(1, 2) * x) + (Fraction(1, 2) * x) == x


def test_exact_division():
    assert ((x - y) * (x + y)).divide_exact(x - y) == x + y
    assert (x * x - 2 * x * y + y * y).divide_exact(x - y) == x - y
    with pytest.raises(ArithmeticError):
        (x * x + y).divide_exact(x - y)


def test_division_stress():
    rng = random.Random(0)
    vars_ = ["x1", "x2", HBAR]

    def rpoly():
        p = Polynomial({})
        for _ in range(rng.randint(1, 4)):
            m = ONE_POLY
            for _ in range(rng.randint(0, 3)):
                m = m * Polynomial.variable(rng.choice(vars_))
            p = p + Fraction(rng.randint(-4, 4)) * m
        return p

    for _ in range(150):
        a, b = rpoly(), rpoly()
        if not b:
            continue
        assert (a * b).divide_exact(b) == a


def test_substitute_swap_evaluate():
    p = x * y + h
    assert p.substitute({"x1": x + h}) == x * y + h * y + h
    assert (x * x * y).swap_vars("x1", "x2") == y * y * x
    assert p.evaluate({"x1": 2, "x2": Fraction(1, 2), HBAR: 1}) == as_scalar(2)


def test_degrees():
    assert (x * x * h).weighted_degree() == 6
    assert (x + h).is_homogeneous()
    assert not (x + x * h).is_homogeneous()
    assert Polynomial({}).weighted_degree() is None


def test_exact_scalar_coefficients():
    s = ExactScalar(Fraction(1, 2), 0, {"q": 1})
    p = Polynomial.constant(s) * x
    assert p + p == Polynomial.constant(s * 2) * x


def test_rational_function_reduction():
    r = RationalFunction(x * x - y * y, [(x - y, 1)])
    assert not r.den
    assert r.num == x + y


def test_rational_function_sum_product_equality():
    s = RationalFunction(ONE_POLY, [(x - h, 1)])
    t = RationalFunction(ONE_POLY, [(x + h, 1)])
    assert (s + t) == RationalFunction(2 * x, [(x - h, 1), (x + h, 1)])
    assert s * t == RationalFunction(ONE_POLY, [(x - h, 1), (x + h, 1)])
    assert (s - s) == RationalFunction.of(0)
    assert s.evaluate({"x1": 3, HBAR: 1}) == as_scalar(Fraction(1, 2))


def test_rational_function_substitute():
    s = RationalFunction(x, [(x - 1, 2)])
    shifted = s.substitute({"x1": x + 1})
    assert shifted == RationalFunction(x + 1, [(x, 2)])


def _ref_reduce(num, den):
    """The former fixpoint reduction: sweep the denominator factors until
    no division goes through."""
    den = dict(den)
    if not num:
        return num, {}
    changed = True
    while changed:
        changed = False
        for key, (f, e) in list(den.items()):
            while e > 0:
                try:
                    num = num.divide_exact(f)
                except ArithmeticError:
                    break
                e -= 1
                changed = True
            if e:
                den[key] = (f, e)
            else:
                del den[key]
    return num, den


def test_rational_function_reduction_matches_fixpoint():
    rng = random.Random(4)
    pool = [x - y, 2 * x - 2 * y, x + h, x - y + h, x, h, x * x - y,
            ExactScalar(0, 1) * (x - h), y + Fraction(1, 2) * h]
    for _ in range(300):
        num = rng.choice([ONE_POLY, x + 2 * y, x * y - h, Polynomial({})])
        for _ in range(rng.randint(0, 5)):
            num = num * rng.choice(pool)
        den = [(rng.choice(pool), rng.randint(0, 3))
               for _ in range(rng.randint(0, 4))]
        merged = {}
        for f, e in den:
            if e:
                key = _factor_key(f)
                merged[key] = (f, merged.get(key, (f, 0))[1] + e)
        want_num, want_den = _ref_reduce(num, merged)
        got = RationalFunction(num, den)
        assert repr(got.num) == repr(want_num)
        assert [(k, repr(f), e) for k, (f, e) in got.den.items()] == \
            [(k, repr(f), e) for k, (f, e) in want_den.items()]


# -- the coefficient normal form --------------------------------------------


def _assert_normal(p):
    # a rational coefficient is an int, or a Fraction that is not an
    # integer; only a non-real or symbolic coefficient is an ExactScalar
    for c in p.terms.values():
        assert c
        if type(c) is Fraction:
            assert c.denominator != 1
        elif type(c) is ExactScalar:
            assert c.imaginary or c.symbolic
        else:
            assert type(c) is int


_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_rational = st.one_of(st.integers(-3, 3), _q, st.builds(ExactScalar, _q))
_gaussian = st.one_of(_rational, st.builds(ExactScalar, _q, _q))
_symbolic = st.one_of(_rational, st.builds(
    lambda q, k: ExactScalar(q, 0, {"s": k}), _q, st.sampled_from([1, -1, 2])))
_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))


def _polys(coeffs):
    def build(terms):
        p = Polynomial({})
        for (a, b, c), coeff in terms:
            p = p + Polynomial.constant(coeff) * x ** a * y ** b * h ** c
        return p
    return st.lists(st.tuples(_monomials, coeffs), max_size=4).map(build)


@settings(max_examples=150)
@given(_polys(_gaussian), _polys(_gaussian), _polys(_gaussian))
def test_ring_axioms_gaussian(p, q, r):
    zero, one = Polynomial({}), ONE_POLY
    for s in (p, p + q, p * q, p - q, -p, (p + q) * r):
        _assert_normal(s)
    assert p + q == q + p and (p + q) + r == p + (q + r)
    assert p + zero == p and p - p == zero
    assert p * q == q * p and (p * q) * r == p * (q * r)
    assert p * one == p and p * zero == zero
    assert p * (q + r) == p * q + p * r
    if q and not isinstance(q.leading()[1], ExactScalar):
        assert (p * q).divide_exact(q) == p


@settings(max_examples=150)
@given(_polys(_symbolic), _polys(_rational), _polys(_rational))
def test_ring_axioms_symbolic(p, q, r):
    # a symbol times a symbol is outside the model, so only p is symbolic
    for s in (p + q, p * q, p * q - p * r):
        _assert_normal(s)
    assert p + q == q + p and (p + q) + r == p + (q + r)
    assert p - p == Polynomial({})
    assert p * q == q * p and (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_normal_form():
    p = Polynomial({(): Fraction(4, 2), (("x1", 1),): ExactScalar(Fraction(1, 2)),
                    (("x2", 1),): ExactScalar(1, 1), (("h", 1),): "3/6"})
    assert p.terms == {(): 2, (("x1", 1),): Fraction(1, 2),
                       (("x2", 1),): ExactScalar(1, 1), (("h", 1),): Fraction(1, 2)}
    _assert_normal(p)
    assert type(p.terms[()]) is int
    # half plus half is the int 1; i plus -i cancels; 1+i minus i is the int 1
    half = Polynomial.constant(Fraction(1, 2)) * x
    assert type((half + half).terms[(("x1", 1),)]) is int
    i = Polynomial.constant(ExactScalar(0, 1))
    assert i - i == Polynomial({})
    assert (i + 1) - i == ONE_POLY and type(((i + 1) - i).terms[()]) is int
    for p in (Polynomial.linear({"x1": ExactScalar(2), "x2": Fraction(3, 3)},
                                ExactScalar(0)), Polynomial.variable("x1", 0),
              Polynomial.constant(ExactScalar(Fraction(-6, 4)))):
        _assert_normal(p)
    assert Polynomial.variable("x1", 0) == ONE_POLY
    # evaluate still answers with an ExactScalar
    assert type((x + 1).evaluate({"x1": 1})) is ExactScalar


def test_equal_and_hash_across_coefficient_types():
    ps = [Polynomial.constant(c) * x + Polynomial.constant(d) * h
          for c, d in ((ExactScalar(2), ExactScalar(Fraction(1, 2))),
                       (Fraction(2), Fraction(1, 2)),
                       (2, Fraction(2, 4)))]
    for p in ps:
        assert p == ps[0]
        assert hash(p) == hash(ps[0])
        assert _factor_key(p) == _factor_key(ps[0])
    # the same factor written two ways is one denominator factor
    r = RationalFunction(ONE_POLY, [(ps[0], 1), (ps[1], 1), (ps[2], 1)])
    assert list(r.den.values()) == [(ps[0], 3)]


def test_power_rejects_negative_and_non_int_exponents():
    assert x ** 0 == ONE_POLY and x ** 3 == x * x * x
    with pytest.raises(ValueError, match="negative polynomial exponent -2"):
        x ** -2
    for n in (Fraction(2), 2.0, "2"):
        with pytest.raises(TypeError, match="is not an int"):
            x ** n


def test_equal_to_unreadable_operand_is_false():
    # as_poly cannot read None, a list or a non-literal string
    for other in (None, [x], "x1"):
        assert not x == other and x != other
    assert x not in [None, "?"]
    assert x in [None, x] and ONE_POLY == 1 and ONE_POLY == "1"


def test_repr_parenthesizes_coefficient_sums():
    sym = ExactScalar(Fraction(1, 2), 0, {"s": -1})
    p = (Polynomial.constant(sym) * x + Polynomial.constant(ExactScalar(0, -1)) * x * h
         + Polynomial.constant(ExactScalar(0, 0, {"s": 2})) * h
         + Polynomial.constant(ExactScalar(1, 0, {"s": 1})))
    # a coefficient with several parts is a sum and is parenthesized before
    # a monomial; a one-part coefficient and a constant term are not
    assert repr(p) == "-1i*h*x1+(1/2-sym:s)*x1+2*sym:s*h+1+sym:s"


def test_divide_exact_non_monic_divisor():
    y1, y2 = Polynomial.variable("y1"), Polynomial.variable("y2")
    q = (y1 * y1 - y2 * y2).divide_exact(2 * y1 - 2 * y2)
    assert q.terms == {(("y1", 1),): Fraction(1, 2), (("y2", 1),): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in q.terms.values())
    i = Polynomial.constant(ExactScalar(0, 1))
    q = (i * (y1 * y1 - y2 * y2)).divide_exact(3 * y1 - 3 * y2)
    assert q == Polynomial.constant(ExactScalar(0, Fraction(1, 3))) * (y1 + y2)
    _assert_normal(q)
    with pytest.raises(ArithmeticError):
        (y1 * y1).divide_exact(i * y1)


# -- differential test of the Coulomb product --------------------------------
#
# A reference product on the suite_monopole inputs with its own dense
# polynomials: exponent tuples over (x1..xr, h) to ExactScalar coefficients,
# and the relation coefficient written out from the BFN formula.


def _ref_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, ExactScalar(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, ExactScalar(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_from_program(poly, rank):
    names = ["x%d" % (i + 1) for i in range(rank)] + [HBAR]
    out = {}
    for mono, c in poly.terms.items():
        exps = dict(mono)
        out[tuple(exps.get(v, 0) for v in names)] = as_scalar(c)
    return out


def _ref_linear(gauge, h_coeff, const):
    rank = len(gauge)
    unit = [tuple(int(i == k) for k in range(rank + 1)) for i in range(rank + 1)]
    out = {(0,) * (rank + 1): as_scalar(const)}
    for i, g in enumerate(gauge):
        out = _ref_add(out, {unit[i]: as_scalar(g)})
    out = _ref_add(out, {unit[rank]: as_scalar(h_coeff)})
    return {m: c for m, c in out.items() if c}


def _ref_relation_coefficient(theory, xi, nu):
    # prod over <mu,xi> > 0 > <mu,nu> of prod_{j=1}^{d} (mu + (<mu,xi>-j) h),
    # over <mu,xi> < 0 < <mu,nu> of prod_{j=0}^{d-1} (mu + (<mu,xi>+j) h)
    out = {(0,) * (theory.rank + 1): ExactScalar(1)}
    for mu in theory.matter:
        a = sum(g * v for g, v in zip(mu.gauge, xi))
        b = sum(g * v for g, v in zip(mu.gauge, nu))
        if a > 0 > b:
            shifts = [a - j for j in range(1, min(a, -b) + 1)]
        elif a < 0 < b:
            shifts = [a + j for j in range(min(-a, b))]
        else:
            shifts = []
        for s in shifts:
            out = _ref_mul(out, _ref_linear(mu.gauge, mu.hbar_shift + s,
                                            mu.flavour_shift))
    return out


def _ref_shift(p, xi):
    # f(x) -> f(x + h xi)
    rank = len(xi)
    out = {}
    for m, c in p.items():
        term = {(0,) * rank + (m[rank],): c}
        for i in range(rank):
            base = _ref_linear([int(k == i) for k in range(rank)], xi[i], 0)
            for _ in range(m[i]):
                term = _ref_mul(term, base)
        out = _ref_add(out, term)
    return out


def _ref_product(a, b, theory):
    out = {}
    for xi, f in a.items():
        for nu, g in b.items():
            coeff = _ref_mul(_ref_mul(f, _ref_shift(g, xi)),
                             _ref_relation_coefficient(theory, xi, nu))
            key = tuple(p + q for p, q in zip(xi, nu))
            out[key] = _ref_add(out.get(key, {}), coeff)
    return {k: v for k, v in out.items() if v}


def _ref_element(element, rank):
    out = {}
    for nu, coeff in element.terms.items():
        assert not coeff.den
        out[tuple(nu)] = _ref_from_program(coeff.num, rank)
    return out


@pytest.mark.parametrize("imaginary", [0, 1])
def test_coulomb_mul_matches_reference_product(imaginary):
    rng = random.Random(5)
    for _ in range(40):
        th = random_theory(rng, max_rank=2, max_matter=3)
        if imaginary:
            # a non-real flavour shift puts Gaussian coefficients in play
            th = TorusTheory(th.rank, [
                MatterWeight(mu.gauge, mu.flavour_shift + ExactScalar(0, k),
                             mu.hbar_shift)
                for k, mu in enumerate(th.matter)])
        a, b, c = (random_element(rng, th.rank) for _ in range(3))
        ab = mul(a, b, th)
        for got, want in ((ab, _ref_product(_ref_element(a, th.rank),
                                            _ref_element(b, th.rank), th)),
                          (mul(ab, c, th),
                           _ref_product(_ref_product(_ref_element(a, th.rank),
                                                     _ref_element(b, th.rank), th),
                                        _ref_element(c, th.rank), th))):
            for coeff in got.terms.values():
                _assert_normal(coeff.num)
            assert _ref_element(got, th.rank) == want
