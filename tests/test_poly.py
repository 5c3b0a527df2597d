import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from klrwcb.coulomb import MatterWeight, TorusTheory, mul
from klrwcb.poly import (HBAR, ONE_POLY, Polynomial, RationalFunction, as_poly,
                         _divide_out, _factor_key, _Factors, _merge)
from klrwcb.scalars import ExactScalar, as_scalar
from klrwcb.suites import random_element, random_theory

from reference import coulomb as ref_coulomb, poly as ref, raised

x = Polynomial.variable("x1")
y = Polynomial.variable("x2")
h = Polynomial.variable(HBAR)


def _num(r):
    """The expanded numerator of a RationalFunction, as its repr prints it."""
    return r._expanded()[0]


def _den(r):
    """The expanded denominator factors of a RationalFunction."""
    return r._expanded()[1]


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
    assert Polynomial({}).weighted_degree() is None


def test_exact_scalar_coefficients():
    s = ExactScalar(Fraction(1, 2), 0, {"q": 1})
    p = Polynomial.constant(s) * x
    assert p + p == Polynomial.constant(s * 2) * x


def test_rational_function_reduction():
    r = RationalFunction(x * x - y * y, [(x - y, 1)])
    assert not _den(r)
    assert _num(r) == x + y


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
        want_num, want_den = ref.reduce_fixpoint(num, merged)
        got = RationalFunction(num, den)
        assert repr(_num(got)) == repr(want_num)
        assert [(k, repr(f), e) for k, (f, e) in _den(got).items()] == \
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
                    (("x2", 1),): ExactScalar(1, 1), (("h", 1),): Fraction(3, 6)})
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
    assert list(_den(r).values()) == [(ps[0], 3)]


def test_power_rejects_negative_and_non_int_exponents():
    assert x ** 0 == ONE_POLY and x ** 3 == x * x * x
    f = x + Polynomial.constant(ExactScalar(Fraction(1, 2), 1))
    assert f ** 1 is f and f ** 0 is ONE_POLY and (f ** 2).terms == (f * f).terms
    with pytest.raises(ValueError, match="negative polynomial exponent -2"):
        x ** -2
    for n in (Fraction(2), 2.0, "2"):
        with pytest.raises(TypeError, match="is not an int"):
            x ** n


def test_equal_to_unreadable_operand_is_false():
    # as_poly cannot read None or a list, and a comparison reads no string
    for other in (None, [x], "x1"):
        assert not x == other and x != other
    assert x not in [None, "?"]
    assert x in [None, x] and ONE_POLY == 1 and ONE_POLY != "1"


def test_equality_with_strings_agrees_with_hashing():
    """Equal values hash equally, a constant polynomial (the zero one
    included) as its coefficient; a string literal is never equal to the
    scalar, polynomial or rational function it would parse to."""
    values = [3, Fraction(3), Fraction(1, 2), ExactScalar(3), ExactScalar(0, 1),
              ExactScalar(Fraction(1, 2)), ExactScalar(0, 0, {"s": 1}), 0,
              ExactScalar(0), Polynomial.constant(3), Polynomial(),
              Polynomial.constant(ExactScalar(0, 1)), Polynomial.constant(0),
              Polynomial.constant(Fraction(1, 2)),
              Polynomial.constant(ExactScalar(0, 0, {"s": 1})), x, x - x + 3,
              "3", "1/2", "i", "sym:s", "0"]
    for a in values:
        for b in values:
            if isinstance(a, str) != isinstance(b, str):
                assert a != b and not a == b, (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len({ExactScalar(3), "3"}) == 2 and len({ExactScalar(3), 3}) == 1
    assert len({Polynomial.constant(3), 3, ExactScalar(3)}) == 1
    assert len({Polynomial(), 0}) == 1 and len({x, Polynomial.constant(1)}) == 2
    assert Polynomial.constant(3) != "3" and RationalFunction.of(3) != "3"


def test_arithmetic_reads_no_string():
    """Only scalars.Reader and parse_scalar read literals: a string is no
    operand of scalar, polynomial or rational-function arithmetic."""
    for read in (lambda: as_scalar("1/2"), lambda: Polynomial.constant("1/2"),
                 lambda: as_poly("x1"), lambda: RationalFunction.of("3"),
                 lambda: ExactScalar(3) + "1/2", lambda: "1/2" + ExactScalar(3),
                 lambda: ExactScalar(3) * "2", lambda: ExactScalar(3) - "2",
                 lambda: ExactScalar(3) / "2", lambda: x + "1", lambda: x * "2"):
        with pytest.raises(TypeError):
            read()
    assert ExactScalar(3) != "3" and not ExactScalar(3) == "3"
    assert not Polynomial.constant(3) == "3" and not RationalFunction.of(3) == "3"


def test_rational_function_equal_to_unreadable_operand_is_false():
    # RationalFunction.of cannot read None, a list or a non-literal string
    r = RationalFunction(x, [(x - h, 1)])
    for other in (None, [x], "x1"):
        assert not r == other and r != other
    assert r not in [None, "?"] and r in [None, r]
    one = RationalFunction.of(1)
    assert one == 1 and one != "1" and one == ONE_POLY and 1 == one


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


@pytest.mark.parametrize("imaginary", [0, 1])
def test_coulomb_mul_matches_reference_product(imaginary):
    """mul against the BFN product on dense polynomials, on the
    suite_monopole inputs, once and twice."""
    rng = random.Random(5)
    seen = Counter()
    for _ in range(40):
        th = random_theory(rng, max_rank=2, max_matter=3)
        if imaginary:
            # a non-real flavour shift puts Gaussian coefficients in play
            th = TorusTheory(th.rank, [
                MatterWeight(mu.gauge, mu.flavour_shift + ExactScalar(0, k),
                             mu.hbar_shift)
                for k, mu in enumerate(th.matter)])
        a, b, c = (random_element(rng, th.rank) for _ in range(3))
        da, db, dc = (ref_coulomb.dense_element(e, th.rank) for e in (a, b, c))
        ab, dab = mul(a, b, th), ref_coulomb.dense_product(da, db, th, seen)
        for got, want in ((ab, dab), (mul(ab, c, th),
                                      ref_coulomb.dense_product(dab, dc, th, seen))):
            for coeff in got.terms.values():
                _assert_normal(_num(coeff))
            assert ref_coulomb.dense_element(got, th.rank) == want
    assert min(seen["a>0>b"], seen["a<0<b"]) >= 50, seen


# -- the factored RationalFunction against the expanded one it replaced -----


_I =ExactScalar(0, 1)
_S = ExactScalar(0, 0, {"s": 1})

# Pools of factors, pairwise not associate and each with a rational leading
# coefficient, as every linear form mu + j h has, so that the expanded form
# is determined by the value and by the order in which factors first meet
# the denominator.  x1 - x2 and h - x2 become 0 under the substitutions
# below, and the constant factor cancels in every reduction.
_POOLS = {
    "int": [x - y, x + h, 2 * x + 3 * y - h, h - y, Polynomial.constant(3)],
    "fraction": [x - y, x + Fraction(1, 2) * h, Fraction(1, 3) * x - y + h,
                 h - y, Polynomial.constant(Fraction(-2, 3))],
    "gaussian": [x - y, x + _I * h, y + (2 - _I) * h + _I, h - y,
                 Polynomial.constant(2)],
    "symbolic": [x - y, x + Polynomial.constant(_S), y + 2 * h, h - y,
                 Polynomial.constant(5)],
}
# Associates, among them a pair with non-real coefficients: an associate
# pair cancels by trial division in the reference and by key match here, so
# only values and equality are compared.
_ASSOCIATES = [x - y, 2 * x - 2 * y, y - x, x + h, -x - h, h - y, x + _I * h,
               2 * x + 2 * _I * h]

_MAPS = [{"x1": y}, {"x2": x}, {"h": y}, {"x2": h}, {"x1": x + h},
         {"x2": y + 1, "h": 2 * h}, {"x1": Fraction(1, 2) * y - h}]
_POINTS = [{"x1": Fraction(3, 7), "x2": Fraction(-5, 11), HBAR: Fraction(2, 13)},
           {"x1": 1, "x2": 1, HBAR: 2}, {"x1": 2, "x2": 1, HBAR: 1}]


def _atom(rng, pool):
    """A pair (factored, reference) built from a small polynomial, up to two
    numerator factors and up to two denominator factors of pool."""
    poly = Polynomial.constant(rng.choice([1, -2, Fraction(3, 2)]))
    if rng.random() < 0.5:
        poly = poly * rng.choice([x, y, h, x + 1])
    nums = rng.sample(pool, rng.randint(0, 2))
    den = [(rng.choice(pool), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    return _pair(poly, nums, den)


def _variables(p):
    return {v for m in p.terms for v, _ in m}


def _has_associates(r):
    """Two nonconstant factors of r that differ by a scalar."""
    fs = [f for f, _ in r.factors.values() if _variables(f)]
    return any(f * Polynomial.constant(g.leading()[1])
               == g * Polynomial.constant(f.leading()[1])
               for i, f in enumerate(fs) for g in fs[:i])


def _outcome(fn):
    try:
        return fn()
    except (ZeroDivisionError, ArithmeticError, ValueError) as exc:
        return type(exc)


def _assert_same_form(got, want):
    assert repr(got) == repr(want)
    assert _num(got).terms == want.num.terms and repr(_num(got)) == repr(want.num)
    assert [(k, repr(f), e) for k, (f, e) in _den(got).items()] == \
        [(k, repr(f), e) for k, (f, e) in want.den.items()]
    assert bool(got) == bool(want)


def _run_sequences(seed, pool, same_form, n_seq=30, n_steps=10):
    """Seeded random sequences of *, +, -, substitute, == and evaluate on
    pairs (factored, reference); returns a tally of what was compared.

    With same_form, repr, num and den must agree too, unless an associate
    pair has met in the value's history (a substitution can make one): the
    reference cancels such a pair by trial division in its denominator's
    order, and the factored form by key match."""
    rng = random.Random(seed)
    tally = Counter()
    for _ in range(n_seq):
        vals = [(r, ref, same_form and not _has_associates(r))
                for r, ref in (_atom(rng, pool) for _ in range(3))]
        for _ in range(n_steps):
            (a, ra, pa), (b, rb, pb) = rng.choice(vals), rng.choice(vals)
            op = rng.choice(["*", "*", "+", "-", "sub", "==", "eval"])
            if op == "==":
                want = _outcome(lambda: ra == rb)
                if isinstance(want, type):
                    tally["raises:" + want.__name__] += 1
                    continue
                # random pairs, and pairs equal by the ring axioms, whose
                # expansion may meet a symbol times a symbol
                tally["eq"] += 1
                assert (a == b) == want and (a == 0) == (not ra)
                for same in (lambda: a * b == b * a, lambda: (a + b) - b == a,
                             lambda: a - a == 0):
                    assert _outcome(same) in (True, ValueError)
                continue
            if op == "eval":
                point = rng.choice(_POINTS)
                got, want = _outcome(lambda: a.evaluate(point)), \
                    _outcome(lambda: ra.evaluate(point))
                tally["eval:" + ("value" if type(want) is ExactScalar
                                 else want.__name__)] += 1
                assert got == want
                continue
            if op == "sub":
                m = rng.choice(_MAPS)
                got, want = _outcome(lambda: a.substitute(m)), \
                    _outcome(lambda: ra.substitute(m))
                plain = pa
            else:
                fn = {"*": lambda p, q: p * q, "+": lambda p, q: p + q,
                      "-": lambda p, q: p - q}[op]
                got, want = _outcome(lambda: fn(a, b)), _outcome(lambda: fn(ra, rb))
                plain = pa and pb
            if isinstance(want, type):
                # the reference raises; a symbol times a symbol is outside
                # the model, and the factored form may cancel it unexpanded
                tally["raises:" + want.__name__] += 1
                if want is ZeroDivisionError:
                    assert got is want
                continue
            tally[op] += 1
            tally["zero"] += not want
            assert not isinstance(got, type)
            assert got == RationalFunction(want.num, list(want.den.values()))
            assert _outcome(lambda: got.evaluate(_POINTS[0])) == \
                _outcome(lambda: want.evaluate(_POINTS[0]))
            plain = plain and not _has_associates(got)
            if plain:
                tally["same form"] += 1
                _assert_same_form(got, want)
            if len(want.num.terms) <= 24:
                # keep the operands small; their size adds no coverage
                vals = vals[-5:] + [(got, want, plain)]
    return tally


def _pair(poly, nums=(), den=()):
    expanded = poly
    for f in nums:
        expanded = expanded * f
    return (RationalFunction(poly, [(f, -1) for f in nums] + list(den)),
            ref.ExpandedRationalFunction(expanded, list(den)))


def test_factor_order_follows_the_expanded_form():
    # x1 - x2 cancels against the polynomial at once, h - x2 and x1 + h are
    # numerator factors that meet denominators: each denominator factor
    # stands where the reference, which reduces after every step, puts it
    vals = [_pair(x - y, den=[(x - y, 1), (x + h, 1)]),
            _pair(ONE_POLY, den=[(h - y, 1), (x - y, 1)]),
            _pair(y, nums=[x + h, h - y]),
            _pair(ONE_POLY, den=[(x + h, 2), (x - y, 1), (h - y, 2)])]
    for (a, ra) in vals:
        _assert_same_form(a, ra)
        for (b, rb) in vals:
            _assert_same_form(a * b, ra * rb)
            _assert_same_form(a + b, ra + rb)
            _assert_same_form((a * b) * a, (ra * rb) * ra)


def test_cancelled_factor_may_vanish():
    # x1 - x2 over its associate 2 x1 - 2 x2 is 1/2 everywhere
    r = RationalFunction(ONE_POLY, [(2 * x - 2 * y, 1), (x - y, -1)])
    assert r.substitute({"x1": y}) == Fraction(1, 2)
    assert r.evaluate({"x1": 1, "x2": 1}) == as_scalar(Fraction(1, 2))
    assert RationalFunction(x, [(x - y, -1)]).substitute({"x1": y}) == 0
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x, [(x - y, 1)]).substitute({"x1": y})
    with pytest.raises(ZeroDivisionError, match="denominator vanishes"):
        RationalFunction(x, [(x - y, 1)]).evaluate({"x1": 1, "x2": 1})


_HIT = ("*", "+", "-", "sub", "eq", "zero", "raises:ZeroDivisionError",
        "eval:value", "eval:ZeroDivisionError")


@pytest.mark.parametrize("kind", sorted(_POOLS))
def test_factored_matches_expanded_reference(kind):
    tally = _run_sequences(10 + sorted(_POOLS).index(kind), _POOLS[kind], True)
    assert min(tally[k] for k in _HIT) >= 3, tally
    assert tally["same form"] >= 150, tally


def test_factored_matches_expanded_reference_with_associates():
    tally = _run_sequences(20, _ASSOCIATES, False)
    assert min(tally[k] for k in _HIT) >= 3, tally


# -- evaluation against the former ExactScalar-only evaluators -------------


# Rational, Gaussian and symbolic points.  At the second Gaussian point and
# at both symbolic points the non-real or symbolic parts cancel in x1 - x2;
# the last point has no value for h.
_EVAL_POINTS = _POINTS + [
    {"x1": ExactScalar(1, 1), "x2": ExactScalar(Fraction(-1, 2), 2), HBAR: 1},
    {"x1": _I, "x2": ExactScalar(3, 1), HBAR: ExactScalar(0, -1)},
    {"x1": _S, "x2": _S + 1, HBAR: Fraction(1, 3)},
    {"x1": _S + Fraction(1, 2), "x2": _S, HBAR: _S},
    {"x1": 1, "x2": ExactScalar(1, 0, {"t": 2})}]


@pytest.mark.parametrize("kind", sorted(_POOLS))
def test_evaluate_matches_exact_scalar_evaluators(kind):
    rng = random.Random(30 + sorted(_POOLS).index(kind))
    tally = Counter()
    for _ in range(60):
        r, _ = _atom(rng, _POOLS[kind])
        polys = [r.poly, _num(r)] + [f for f, _ in r.factors.values()]
        for point in _EVAL_POINTS:
            for p in polys:
                got, want = raised(lambda: p.evaluate(point)), \
                    raised(lambda: ref.evaluate(p, point))
                assert got == want and type(got) is type(want)
            got, want = raised(lambda: r.evaluate(point)), \
                raised(lambda: ref.rf_evaluate(r, point))
            assert got == want and type(got) is type(want)
            tally[want[0].__name__ if type(want) is tuple
                  else "rational" if want.is_rational else "value"] += 1
    assert min(tally[k] for k in ("rational", "value", "KeyError", "ValueError",
                                  "ArithmeticError", "ZeroDivisionError")) >= 20, tally


# -- substitute against the former implementation ---------------------------


z = Polynomial.variable("x3")
_SUB_COEFFS = {
    "int": lambda rng: rng.randint(-3, 3),
    "fraction": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    "gaussian": lambda rng: ExactScalar(Fraction(rng.randint(-2, 2), 2),
                                        rng.randint(-2, 2)),
    "symbolic": lambda rng: ExactScalar(Fraction(rng.randint(-2, 2), 3), 0,
                                        {"s": rng.choice([1, -1, 2])}),
}
# Affine shifts x_i -> x_i + c h, maps that are not affine, and maps of
# variables the polynomials do not contain.  A symbol times a non-real is
# outside the model, so the Gaussian maps meet no symbolic coefficient.
_RATIONAL_MAPS = [
    {"x1": x + h}, {"x1": x - 2 * h, "x2": y + Fraction(1, 2) * h},
    {"x1": x + h, "x2": y - h, "x3": z + 3 * h},
    {"x1": y ** 2 + 1}, {"x1": 0}, {"x1": y}, {"x1": y, "x2": x},
    {"h": 2 * h - x, "x3": Fraction(1, 3)}, {"x2": x * h - y, "h": 1},
    {"x9": x + h, "y1": 3}, {},
]
_GAUSSIAN_MAPS = [{"x1": x + _I * h}, {"x1": x + h, "x2": y + (1 - _I) * h},
                  {"x3": _I * y + 1, "h": h - _I}]


def _random_poly(rng, coeff):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple((v, e) for v, e in ((v, rng.randint(0, 2)) for v in
                                         ("h", "x1", "x2", "x3")) if e)
        terms[mono] = coeff(rng)
    return Polynomial(terms)


@pytest.mark.parametrize("kind", sorted(_SUB_COEFFS))
def test_substitute_matches_former_expansion(kind):
    rng = random.Random(40 + sorted(_SUB_COEFFS).index(kind))
    maps = _RATIONAL_MAPS + (_GAUSSIAN_MAPS if kind != "symbolic" else [])
    tally = Counter()
    for _ in range(60):
        p = _random_poly(rng, _SUB_COEFFS[kind])
        for mapping in maps:
            got, want = p.substitute(mapping), ref.substitute(p, mapping)
            assert got.terms == want.terms and repr(got) == repr(want)
            _assert_normal(got)
            if not _variables(p) & set(mapping):
                assert got is p
                tally["unmapped"] += 1
            elif len(got.terms) < len(p.terms):
                tally["fewer terms"] += 1
            if any(sum(v in mapping for v, _ in m) > 1 for m in p.terms):
                tally["several mapped"] += 1
            tally["nonreal" if any(type(c) is ExactScalar
                                   for c in got.terms.values()) else "real"] += 1
    assert min(tally.values()) >= 20 and len(tally) == 5, tally


def test_substitute_multiplies_the_mapped_powers_first():
    # (i x2 + 1)(i x2 - 1) = -x2^2 - 1: the former expansion multiplied the
    # symbolic coefficient by i first, which is outside the model
    p = Polynomial({(("x1", 1), ("x3", 1)): _S})
    mapping = {"x1": _I * y + 1, "x3": _I * y - 1}
    assert p.substitute(mapping) == -Polynomial.constant(_S) * (y * y + 1)
    with pytest.raises(ValueError, match="non-real"):
        ref.substitute(p, mapping)


# -- the constant shortcut of _divide_out -------------------------------------


def test_constant_over_factors_keeps_its_form():
    # only a constant factor divides a constant; it still divides out, and a
    # constant numerator factor stays a factor
    cases = [
        (RationalFunction(1, [(2, 1)]), {(): Fraction(1, 2)}, [], "1/2"),
        (RationalFunction(3, [(x - y, 1), (2, 1), (x + h, 2),
                              (Fraction(1, 3), -1), (4, 2)]),
         {(): Fraction(3, 32)}, [(x - y, -1), (x + h, -2),
                                 (Polynomial.constant(Fraction(1, 3)), 1)],
         "(1/32)/[(-x2+x1)*(x1+h)^2]"),
        (RationalFunction(Fraction(-2, 3), [(x - y, 1), (h - y, -1)]),
         {(): Fraction(-2, 3)}, [(x - y, -1), (h - y, 1)],
         "(2/3*x2-2/3*h)/[(-x2+x1)]"),
        (RationalFunction(0, [(x - y, 1), (2, 1)]), {}, [], "0"),
        (RationalFunction(Polynomial({}), [(x + h, 1)]), {}, [], "0"),
    ]
    for r, poly, factors, text in cases:
        assert r.poly.terms == poly
        assert [(f.terms, e) for f, e in r.factors.values()] == \
            [(f.terms, e) for f, e in factors]
        assert list(r.factors) == [_factor_key(f) for f, _ in factors]
        assert repr(r) == text


# -- the shortcuts for a factor of 1 ------------------------------------------


def test_multiplying_by_one_returns_the_other_operand():
    p = Polynomial.linear({"x1": 2, HBAR: Fraction(1, 2)}, ExactScalar(0, 1))
    assert p * ONE_POLY is p
    assert ONE_POLY * p is p
    assert 1 * p is p
    assert p * Fraction(1) is p
    assert ONE_POLY * ONE_POLY is ONE_POLY


def test_products_with_other_constants_are_unchanged():
    p = Polynomial.linear({"x1": 2, HBAR: Fraction(1, 2)}, ExactScalar(0, 1))
    for c in (2, -1, Fraction(1, 3), ExactScalar(1, 1)):
        want = Polynomial({m: c * v for m, v in p.terms.items()})
        for got in (p * c, c * p, p * as_poly(c), as_poly(c) * p):
            assert got is not p and got.terms == want.terms
    for zero in (0, Polynomial({})):
        assert (p * zero).terms == {} and (zero * p).terms == {}
    assert (ONE_POLY * 0).terms == {}


def _counting_leading(monkeypatch):
    calls = Counter()
    leading = Polynomial.leading

    def counting(self):
        calls["leading"] += 1
        return leading(self)

    monkeypatch.setattr(Polynomial, "leading", counting)
    return calls


def _factors(*pairs):
    out = _Factors()
    for f, e in pairs:
        _merge(out, _factor_key(f), f, e)
    return out


def test_numerator_factors_are_not_trial_divided(monkeypatch):
    calls = _counting_leading(monkeypatch)
    for poly in (x * x - y, ONE_POLY, as_poly(Fraction(-2, 3))):
        factors = _factors((x - y, 1), (x + 1, 2), (y, 1))
        got, out = _divide_out(poly, factors)
        assert got is poly and out is factors
    r = RationalFunction(ONE_POLY, [(x - y, -1), (h + 1, -2)])
    assert calls["leading"] == 0
    assert [e for _, e in r.factors.values()] == [1, 2]


def test_mixed_factors_still_divide(monkeypatch):
    calls = _counting_leading(monkeypatch)
    poly = (x - y) * (x + 1)
    factors = _factors((x + 2, 1), (x - y, -1), (y, -1), (x + 1, -2))
    got, out = _divide_out(poly, factors)
    assert calls["leading"] > 0
    assert got == ONE_POLY
    assert [(f.terms, e) for f, e in out.values()] == \
        [((x + 2).terms, 1), (y.terms, -1), ((x + 1).terms, -1)]
    assert factors is not out and len(factors) == 4
