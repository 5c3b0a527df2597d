import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from klrwcb.poly import Polynomial
from klrwcb.scalars import (EQ, GT, LT, AmbiguousOrderError, ExactScalar,
                            SymbolTable, as_scalar, coset_rep, format_scalar,
                            is_integral, is_integral_difference, parse_scalar,
                            real_compare, real_keys, row_reduce, z_class)

from reference import scalars as ref


def test_hash_agrees_with_eq():
    # a real rational scalar equals its int or Fraction, so sets, dicts and
    # Counters treat the two as one key
    for q in (3, -1, Fraction(1, 2), Fraction(-7, 3)):
        a = ExactScalar(q)
        assert a == q and hash(a) == hash(q)
        assert len({a, q}) == 1
        assert {a: 1}[q] == 1 and {q: 1}[a] == 1
        assert Counter([a, q]) == Counter({q: 2}) == Counter([q, a])
        assert Counter([a]) == Counter([q])
    for a in (ExactScalar(1, 1), ExactScalar(0, 0, {"s": 1}),
              ExactScalar(2, 0, {"s": -1})):
        assert hash(a) == hash(ExactScalar(a.rational, a.imaginary,
                                           dict(a.symbolic)))
        assert len({a, a.rational}) == 2


def test_integral_difference_examples():
    assert is_integral_difference(Fraction(5, 2), Fraction(5, 2))
    assert is_integral_difference(parse_scalar("3+0i"), parse_scalar("1+0i"))
    assert not is_integral_difference(parse_scalar("3"), parse_scalar("3+1i"))
    t = SymbolTable()
    s = parse_scalar("sym:sqrt2~1.41421", t)
    assert not is_integral_difference(s, 0)


def test_real_compare_examples():
    t = SymbolTable()
    assert real_compare(0, 1) == LT
    assert real_compare(parse_scalar("1+7i"), parse_scalar("1-2i")) == EQ
    s = parse_scalar("sym:sqrt2~1.41421", t)
    assert real_compare(s, Fraction(3, 2), t) == LT
    assert real_compare(s, s, t) == EQ


def test_ambiguous_order():
    t = SymbolTable().declare("a", Fraction(1, 2)).declare("b", Fraction(1, 2))
    x = ExactScalar(0, 0, {"a": 1})
    y = ExactScalar(0, 0, {"b": 1})
    with pytest.raises(AmbiguousOrderError):
        real_compare(x, y, t)
    # refining a shadow resolves it
    t.declare("b", Fraction(501, 1000))
    assert real_compare(x, y, t) == LT


def test_parse_format_roundtrip():
    t = SymbolTable()
    cases = ["5/2", "3", "-1/3", "1/2+3/4i", "-2i", "sym:sqrt2~1.41421",
             "1-sym:sqrt2~1.41421", "0"]
    for lit in cases:
        a = parse_scalar(lit, t)
        b = parse_scalar(format_scalar(a), t)
        assert a == b, lit
    # a symbol coefficient other than +-1 is written q*sym:NAME
    rng = random.Random(7)

    def small():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    for _ in range(300):
        a = ExactScalar(small(), small(), {"s": small(), "u": small()})
        assert parse_scalar(format_scalar(a), t) == a, format_scalar(a)


def test_arithmetic():
    a = parse_scalar("1/2+1i")
    b = parse_scalar("1/2-1i")
    assert (a + b) == as_scalar(1)
    assert (a - a) == as_scalar(0)
    assert (a * 2).rational == 1
    assert as_scalar(3) / Fraction(3, 2) == as_scalar(2)


@pytest.mark.parametrize("s", [ExactScalar(0, 1), ExactScalar(Fraction(1, 2), -2),
                               ExactScalar(1, 0, {"t": 2}), as_scalar(3)])
def test_arithmetic_with_polynomials(s):
    # an operand as_scalar cannot read is left to the operand's reflected
    # operator, so a scalar and a polynomial combine in either order
    p = Polynomial.variable("x1") * 2 + Polynomial.variable("x2")
    assert s * p == p * s == Polynomial.constant(s) * p
    assert s + p == p + s == Polynomial.constant(s) + p
    assert s - p == -(p - s) == Polynomial.constant(s) - p
    assert isinstance(s * p, Polynomial)
    with pytest.raises(TypeError):
        s * object()


def test_integral_difference_is_equivalence():
    rng = random.Random(0)
    t = SymbolTable().declare("s", Fraction(7, 5))
    pool = []
    for _ in range(12):
        pool.append(ExactScalar(Fraction(rng.randint(-4, 4), rng.choice([1, 2])),
                                Fraction(rng.randint(-1, 1)),
                                {"s": rng.choice([0, 1])}))
    for a in pool:
        assert is_integral_difference(a, a)
        for b in pool:
            assert is_integral_difference(a, b) == is_integral_difference(b, a)
            for c in pool:
                if is_integral_difference(a, b) and is_integral_difference(b, c):
                    assert is_integral_difference(a, c)


def test_real_compare_total_preorder_on_rationals():
    rng = random.Random(1)
    pool = [as_scalar(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])))
            for _ in range(15)]
    for a in pool:
        for b in pool:
            c1 = real_compare(a, b)
            c2 = real_compare(b, a)
            assert c1 == -c2
            for c in pool:
                if c1 != GT and real_compare(b, c) != GT:
                    assert real_compare(a, c) != GT


def test_integral_difference_never_ambiguous():
    t = SymbolTable().declare("s", Fraction(3, 2))
    a = ExactScalar(Fraction(1, 3), 2, {"s": 2})
    b = a + 5
    assert is_integral_difference(a, b)
    # comparison of integrally-differing scalars needs no shadows at all
    assert real_compare(a, b, None) == LT


def test_complex_products():
    i = ExactScalar(0, 1)
    assert ExactScalar(1) * i == i
    assert i * ExactScalar(1) == i
    assert i * i == as_scalar(-1)
    assert parse_scalar("1+2i") * parse_scalar("3-1i") == parse_scalar("5+5i")
    assert 2 * parse_scalar("1/2+1i") == parse_scalar("1+2i")
    assert parse_scalar("1+1i") / 2 == parse_scalar("1/2+1/2i")


def test_symbolic_products():
    t = SymbolTable()
    s = parse_scalar("1/2+sym:sqrt2~1.41421", t)
    assert s * 2 == 2 * s == s + s
    assert ExactScalar(0, 1, {"a": 1}) * 3 == ExactScalar(0, 3, {"a": 3})
    for a, b in ((s, s), (s, ExactScalar(0, 1)), (ExactScalar(0, 1), s),
                 (ExactScalar(1, 1, {"a": 1}), ExactScalar(0, 1))):
        with pytest.raises(ValueError):
            a * b


_gauss = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=200)
@given(_gauss, _gauss, _gauss, _gauss)
def test_complex_product_matches_gaussian_formula(a, b, c, d):
    x, y = ExactScalar(a, b), ExactScalar(c, d)
    assert x * y == y * x == ExactScalar(a * c - b * d, a * d + b * c)


_small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_values = st.one_of(
    st.builds(ExactScalar, _small),
    st.builds(ExactScalar, _small, _small),
    st.builds(lambda q, im, s, t: ExactScalar(q, im, {"s": s, "t": t}),
              _small, _small, st.sampled_from([0, 1, -1]), st.sampled_from([0, 1])))
_shadows = st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(7, 5)])
_tables = st.one_of(st.none(), st.builds(
    lambda s, t: SymbolTable().declare("s", s).declare("t", t), _shadows, _shadows))


@settings(max_examples=400)
@given(st.lists(_values, max_size=6), _tables)
def test_real_keys_sort_like_real_compare(values, table):
    # differential test against sorting with the pairwise comparator:
    # same order, same AmbiguousOrderError cases, equal keys iff EQ
    def cmp(i, j):
        return real_compare(values[i], values[j], table)

    try:
        want = sorted(range(len(values)), key=cmp_to_key(cmp))
    except AmbiguousOrderError:
        with pytest.raises(AmbiguousOrderError):
            real_keys(values, table)
        return
    keys = real_keys(values, table)
    assert sorted(range(len(values)), key=keys.__getitem__) == want
    for i, j in itertools.combinations(range(len(values)), 2):
        assert (keys[i] == keys[j]) == (cmp(i, j) == EQ)


@settings(max_examples=200)
@given(st.one_of(_values, _small, st.integers(-3, 3)),
       st.one_of(_values, _small, st.integers(-3, 3)))
def test_integral_difference_matches_scalar_difference(a, b):
    # differential test against forming the difference as a scalar, read
    # off its parts; a and b share a class of C/Z iff it is an integer
    diff = as_scalar(a) - as_scalar(b)
    integral = diff.rational.denominator == 1 and not diff.imaginary \
        and not diff.symbolic
    assert is_integral_difference(a, b) == is_integral(diff) == integral
    assert (z_class(a) == z_class(b)) == integral


def test_real_keys_examples():
    t = SymbolTable().declare("s", Fraction(3, 2))
    s = ExactScalar(0, 0, {"s": 1})
    half = as_scalar(Fraction(1, 2))

    def shape(keys):
        # the keys are ints; their order and their equalities are the result
        assert all(type(k) is int for k in keys)
        return [sorted(set(keys)).index(k) for k in keys]

    assert shape(real_keys([s + 1, s, s + half])) == [2, 0, 1]   # one symbolic part
    assert shape(real_keys([s, as_scalar(1), half, s + half, ExactScalar(1, 1)],
                           t)) == [2, 1, 0, 3, 1]
    with pytest.raises(AmbiguousOrderError):
        real_keys([s, as_scalar(1)])                    # no table
    with pytest.raises(AmbiguousOrderError, match=r"^shadows tie for sym:s vs 3/2;"):
        real_keys([s, as_scalar(Fraction(3, 2))], t)    # shadow tie
    assert shape(real_keys([s, s + ExactScalar(0, 1)], t)) == [0, 0]  # same real part
    assert shape(real_keys([s * Fraction(1, 3), as_scalar(Fraction(1, 5))], t)) == [1, 0]


def test_row_reduce():
    rows, pivots = row_reduce([[2, 4, 2], [1, 2, 3], [0, 0, 0]])
    assert pivots == [0, 2]
    assert rows[:2] == [[1, 2, 0], [0, 0, 1]]
    assert row_reduce([]) == ([], [])
    # an inconsistent augmented system has a pivot in its last column
    assert row_reduce([[1, 1, 1], [1, 1, 2]])[1] == [0, 2]


# -- the scalar fast path against the former constructor --------------------


def _fields(a):
    return a.rational, a.imaginary, a.symbolic


_PARTS = [0, 3, -2, True, False, Fraction(0), Fraction(1, 2), Fraction(-7, 3),
          Fraction(4, 2)]
_COEFFS = [0, 1, -1, True, Fraction(1, 2), Fraction(-1, 2), Fraction(0)]


def _random_args(rng):
    sym = rng.choice([None, {}, "one", "two"])
    if sym == "one":
        sym = {rng.choice("st"): rng.choice(_COEFFS)}
    elif sym == "two":
        sym = {"t": rng.choice(_COEFFS), "s": rng.choice(_COEFFS)}
    return rng.choice(_PARTS), rng.choice(_PARTS + [0] * 4), sym


def _assert_normal(a):
    assert type(a.rational) is Fraction and type(a.imaginary) is Fraction
    assert type(a.symbolic) is tuple
    assert list(a.symbolic) == sorted(a.symbolic)
    assert all(type(c) is Fraction and c for _, c in a.symbolic)


def test_scalar_fast_path_matches_former_constructor():
    # differential test: constructor and operators against the former
    # constructor, which passed every part through Fraction() and built a
    # symbol dict; operands include ints, bools, Fractions, zero symbol
    # coefficients and symbols that cancel under + and -
    rng = random.Random(0)
    results = []
    for _ in range(600):
        args, other = _random_args(rng), _random_args(rng)
        a = ExactScalar(*args)
        assert _fields(a) == ref.fields(*args)
        _assert_normal(a)
        ra = _fields(a)
        cancelling = ExactScalar(other[0], other[1], {n: -c for n, c in a.symbolic})
        raw = rng.choice(_PARTS)
        for b in (ExactScalar(*other), cancelling, a, raw):
            rb = _fields(as_scalar(b))
            cases = [(a + b, ref.add(ra, rb)), (b + a, ref.add(rb, ra)),
                     (a - b, ref.add(ra, ref.neg(rb))),
                     (b - a, ref.add(rb, ref.neg(ra))),
                     (-a, ref.neg(ra)), (coset_rep(a), ref.coset_rep(ra))]
            try:
                want = ref.mul(ra, rb)
            except ValueError:
                for product in (lambda: a * b, lambda: b * a):
                    with pytest.raises(ValueError):
                        product()
            else:
                cases += [(a * b, want), (b * a, want)]
            for got, want in cases:
                assert _fields(got) == want
                _assert_normal(got)
                results.append(got)
    assert any(not r.symbolic and r.rational for r in results)
    by_value = {}
    for r in results:
        by_value.setdefault(_fields(r), set()).add(hash(r))
        if r.is_rational:
            assert hash(r) == hash(r.rational) and r == r.rational
    assert all(len(hashes) == 1 for hashes in by_value.values())


def test_integral_difference_matches_former_rule_on_a_grid():
    # differential test against the former rule, which formed the
    # difference of the rational parts
    rng = random.Random(2)
    rationals = sorted({Fraction(n, d) for n in range(-7, 8) for d in (1, 2, 3, 6)})
    grid = [ExactScalar(q, im, sym) for q in rationals for im in (0, Fraction(1, 2))
            for sym in (None, {"s": 1}, {"s": -1})]
    hits = 0
    for _ in range(20000):
        a, b = rng.choice(grid), rng.choice(grid)
        assert is_integral_difference(a, b) == ref.integral_difference(a, b)
        hits += ref.integral_difference(a, b)
    assert hits > 100
    for a in grid:
        for q in (a.rational, a.rational + 3, a.rational - 5):
            b = ExactScalar(q, a.imaginary, dict(a.symbolic))
            assert is_integral_difference(a, b) and ref.integral_difference(a, b)
