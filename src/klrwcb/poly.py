"""Sparse exact multivariate polynomials and factored rational functions.

Variables are plain strings ("y1", "x2", "h" for the loop parameter) and a
monomial is a sorted tuple of (variable, exponent) pairs.  Coefficients are
kept in one normal form (see ``coefficient``): a rational coefficient is a
plain ``int``, or a ``Fraction`` when its denominator is not 1, and only a
coefficient with an imaginary or symbolic part is an ExactScalar.  So the
arithmetic on the rational coefficients that dominate every suite is native
``int``/``Fraction`` arithmetic, mixed sums and products go through the
ExactScalar operators, and the same polynomial has the same ``terms`` (and
hash) however its coefficients were written.  Values at a point are
computed in the same normal form; ``evaluate`` returns them as ExactScalars.
``substitute`` expands only the mapped variables of each monomial, each
power once per call, and copies the unmapped part through.  Multiplying by
the polynomial 1 returns the other operand itself.

A rational function is a polynomial times polynomial factors with signed
exponents (the localization pattern: products of linear forms mu + j h).
Products add exponents, so a factor cancels by key match, and only the
polynomial part is trial-divided by the denominator factors (a function
with numerator factors only is not divided at all); sums expand
only the factors that the two operands do not share.  The expanded, reduced
form is built for printing alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .scalars import ExactScalar, as_scalar

HBAR = "h"


def coefficient(c):
    """The normal form of a polynomial coefficient: an int, a Fraction with
    denominator > 1, or an ExactScalar with an imaginary or symbolic part."""
    t = type(c)
    if t is int:
        return c
    if t is Fraction:
        return c.numerator if c.denominator == 1 else c
    if t is not ExactScalar:
        c = as_scalar(c)
    if c.imaginary or c.symbolic:
        return c
    q = c.rational
    return q.numerator if q.denominator == 1 else q


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_divides(m1, m2):
    """m1 | m2 as monomials."""
    d2 = dict(m2)
    return all(d2.get(v, 0) >= e for v, e in m1)


def _mono_div(m2, m1):
    d = dict(m2)
    for v, e in m1:
        d[v] -= e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_key(m):
    # graded lexicographic: total degree first, then the sparse exponent
    # tuple listed by descending variable name (equivalent to dense lex)
    return (sum(e for _, e in m), tuple(sorted(m, reverse=True)))


class Polynomial:
    """Immutable sparse polynomial; mapping monomial -> coefficient, every
    coefficient nonzero and in the normal form of ``coefficient``."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not int:
                    c = coefficient(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(c):
        return Polynomial({(): c})

    @staticmethod
    def variable(name, exp=1):
        return Polynomial({((name, exp),) if exp else (): 1})

    @staticmethod
    def linear(coeffs, const=0):
        """sum coeffs[v] * v + const."""
        terms = {((v, 1),): c for v, c in coeffs.items()}
        terms[()] = const
        return Polynomial(terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        try:
            other = as_poly(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {()}:  # a constant equals its coefficient
            return hash(self.terms.get((), 0))
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0])))

    def __add__(self, other):
        other = as_poly(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) + (-self)

    def __mul__(self, other):
        other = as_poly(other)
        if other.terms == _ONE_TERMS:  # polynomials are immutable
            return self
        if self.terms == _ONE_TERMS:
            return other
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("polynomial exponent %r is not an int" % (n,))
        if n < 0:
            raise ValueError("negative polynomial exponent %d" % n)
        out = self if n else ONE_POLY  # polynomials are immutable
        for _ in range(n - 1):
            out = out * self
        return out

    def leading(self):
        m = max(self.terms, key=_mono_key)
        return m, self.terms[m]

    def divide_exact(self, divisor):
        """Exact division; raises ArithmeticError when it does not divide."""
        divisor = as_poly(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        dm, dc = divisor.leading()
        if isinstance(dc, ExactScalar):
            raise ArithmeticError("leading coefficient %s is not rational" % dc)
        inv = coefficient(1 / Fraction(dc))
        rem = dict(self.terms)
        quot_terms = {}
        while rem:
            m = max(rem, key=_mono_key)
            if not _mono_divides(dm, m):
                raise ArithmeticError("%r does not divide %r" % (divisor, self))
            qm = _mono_div(m, dm)
            qc = rem[m] * inv
            quot_terms[qm] = quot_terms.get(qm, 0) + qc
            for m2, c2 in divisor.terms.items():
                mm = _mono_mul(qm, m2)
                s = rem.get(mm, 0) - qc * c2
                if s:
                    rem[mm] = s
                else:
                    del rem[mm]
        return Polynomial(quot_terms)

    def substitute(self, mapping):
        """Replace variables by polynomials; unmapped variables stay.  Each
        monomial's unmapped part is copied through and only its mapped
        variables are expanded, each power v^e once per call, and the
        coefficient multiplies their product last; self is returned when no
        variable of it is mapped."""
        terms = {}
        powers = {}
        for m, c in self.terms.items():
            rest = []
            piece = None
            for v, e in m:
                base = mapping.get(v)
                if base is None:
                    rest.append((v, e))
                    continue
                p = powers.get((v, e))
                if p is None:
                    p = powers[v, e] = as_poly(base) ** e
                piece = p if piece is None else piece * p
            if piece is None:
                terms[m] = terms.get(m, 0) + c
                continue
            rest = tuple(rest)
            for pm, pc in piece.terms.items():
                mono = _mono_mul(rest, pm)
                terms[mono] = terms.get(mono, 0) + c * pc
        if not powers:
            return self
        return Polynomial(terms)

    def divided_difference(self, a, b):
        """(f - s f) / (a - b), s swapping the variables a and b, in closed
        form: a^p b^q * rest goes to sign * (a b)^min(p, q) *
        sum_{i < |p - q|} a^i b^(|p - q| - 1 - i) * rest, with sign + for
        p > q and - for p < q; a monomial with p == q goes to 0."""
        terms = {}
        for m, c in self.terms.items():
            p = q = 0
            rest = []
            for v, e in m:
                if v == a:
                    p = e
                elif v == b:
                    q = e
                else:
                    rest.append((v, e))
            if p == q:
                continue
            if p < q:
                p, q, c = q, p, -c
            for i in range(p - q):
                mono = tuple(sorted(rest + [(v, e) for v, e in
                                            ((a, q + i), (b, p - 1 - i)) if e]))
                terms[mono] = terms.get(mono, 0) + c
        return Polynomial(terms)

    def swap_vars(self, a, b):
        def rename(m):
            return tuple(sorted((b if v == a else (a if v == b else v), e)
                                for v, e in m))
        return Polynomial({rename(m): c for m, c in self.terms.items()})

    def evaluate(self, point):
        return as_scalar(_value(self, point))

    def weighted_degree(self):
        """Max total degree, every variable of degree 2; None for zero."""
        if not self.terms:
            return None
        return max(2 * sum(e for _, e in m) for m in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[m]
            mono = "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in m)
            cs = str(c)
            if not mono:
                bits.append(cs)
            elif cs == "1":
                bits.append(mono)
            elif cs == "-1":
                bits.append("-" + mono)
            elif "+" in cs[1:] or "-" in cs[1:]:
                # a coefficient with several parts, such as 1/2+1i, is a sum
                bits.append("(%s)*%s" % (cs, mono))
            else:
                bits.append("%s*%s" % (cs, mono))
        out = bits[0]
        for b in bits[1:]:
            out += b if b.startswith("-") else "+" + b
        return out


def as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction, ExactScalar)):
        return Polynomial.constant(x)
    raise TypeError("cannot interpret %r as Polynomial" % (x,))


ONE_POLY = Polynomial.constant(1)
_ONE_TERMS = ONE_POLY.terms


def _factor_key(p):
    return tuple(sorted(p.terms.items(), key=lambda t: t[0]))


def _value(poly, point):
    """poly at a point, computed in ``coefficient``'s normal form: a sum
    whose symbolic parts cancel is rational again."""
    total = 0
    for m, c in poly.terms.items():
        for v, e in m:
            if v not in point:
                raise KeyError("no value for %r" % v)
            base = coefficient(point[v])
            for _ in range(e):
                c = c * base
        total = total + c
    return coefficient(total)


def _value_at(pairs, point):
    """prod f^e at a point over (f, e) pairs, e > 0."""
    out = 1
    for f, e in pairs:
        v = _value(f, point)
        for _ in range(e):
            out = out * v
    return out


def _divide_out(poly, factors):
    """One pass of exact trial division of a nonzero poly by the
    denominator factors, in order: a factor that does not divide poly
    divides no quotient of it.  Returns poly and the factors, copied if an
    exponent changed.  The leading monomial is found at the first
    denominator factor, so numerator factors alone cost no search.  Only a
    constant factor divides a constant poly, and that needs no leading
    monomial."""
    out = factors
    lead = None
    for key, (f, e) in factors.items():
        if e > 0:
            continue
        if lead is None:
            lead = poly.leading()[0]
        k = e
        while k < 0 and (_mono_divides(f.leading()[0], lead) if lead
                         else len(f.terms) == 1 and () in f.terms):
            try:
                poly = poly.divide_exact(f)
            except ArithmeticError:
                break
            lead = poly.leading()[0]
            k += 1
        if k != e:
            if out is factors:
                out = _Factors(factors)
            if k:
                out[key] = (f, k)
            else:
                del out[key]
    return poly, out


def _merge(factors, key, f, e):
    """Multiply factors by f^e.  A numerator factor that turns denominator
    moves last, where the expanded form puts a new denominator factor."""
    old = factors.get(key)
    if old is None:
        factors[key] = (f, e)
        return
    e += old[1]
    if e < 0 < old[1]:
        del factors[key]
        factors[key] = (f, e)
    elif e:
        factors[key] = (old[0], e)
    else:
        del factors[key]


class _Factors(dict):
    """key -> (factor, signed exponent), every exponent nonzero and no
    factor zero: the factors of an operation's result, already merged."""

    __slots__ = ()


class RationalFunction:
    """poly * prod f^e over polynomial factors f, each with a nonzero signed
    exponent e (e < 0: a denominator factor), keyed by ``_factor_key``.

    Products add exponents, so factors cancel by key match, and the
    constructor trial-divides poly alone by the denominator factors; sums
    keep the common factors and expand only the two remainders.  Associate
    factors such as x - y and 2x - 2y have different keys and are not
    merged.  ``repr`` shows the expanded form: the numerator factors
    multiplied into poly, then the same trial division.  It is built on
    first use.
    """

    __slots__ = ("poly", "factors", "_view")

    def __init__(self, num, den=None):
        """num over den; den lists (factor, exponent) pairs or maps factor
        -> exponent, and a negative exponent puts the factor in the
        numerator."""
        poly = as_poly(num)
        if type(den) is _Factors:
            factors = den
        else:
            factors = _Factors()
            for f, e in (den.items() if isinstance(den, dict) else den or ()):
                f = as_poly(f)
                if not f:
                    if e >= 0:
                        raise ZeroDivisionError("zero denominator factor")
                    poly = f
                elif e:
                    _merge(factors, _factor_key(f), f, -e)
        if not poly:
            factors = _Factors()
        elif factors:
            poly, factors = _divide_out(poly, factors)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_view", None)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    def _expanded(self):
        """(num, den): the numerator factors multiplied into poly, then the
        trial division of ``_divide_out`` by the denominator factors."""
        if self._view is None:
            num = self.poly
            den = _Factors()
            for key, (f, e) in self.factors.items():
                if e > 0:
                    num = num * f ** e
                else:
                    den[key] = (f, e)
            if den:
                num, den = _divide_out(num, den)
            object.__setattr__(self, "_view", (num, {k: (f, -e) for k, (f, e)
                                                     in den.items()}))
        return self._view

    @staticmethod
    def of(x):
        if isinstance(x, RationalFunction):
            return x
        return RationalFunction(as_poly(x))

    def __bool__(self):
        return bool(self.poly)

    def __eq__(self, other):
        try:
            other = RationalFunction.of(other)
        except TypeError:
            return NotImplemented
        p, q = self.poly, other.poly
        a, b = self.factors, other.factors
        for key in dict.fromkeys(chain(a, b)):
            f, e1 = a.get(key) or (b[key][0], 0)
            e = e1 - b.get(key, (f, 0))[1]
            if e > 0:
                p = p * f ** e
            elif e < 0:
                q = q * f ** -e
        return p == q

    def __hash__(self):
        raise TypeError("unhashable")

    def __mul__(self, other):
        other = RationalFunction.of(other)
        factors = _Factors(self.factors)
        for key, (f, e) in other.factors.items():
            _merge(factors, key, f, e)
        return RationalFunction(self.poly * other.poly, factors)

    __rmul__ = __mul__

    def __neg__(self):
        return RationalFunction(-self.poly, self.factors)

    def __add__(self, other):
        """Over the common factors, min(e1, e2) per key (the lcm of the
        denominators, the gcd of the numerator factors); each operand's
        remaining factors are expanded into its poly.  The denominator
        factors come first, self's before other's, as in the expanded
        form."""
        other = RationalFunction.of(other)
        p, q = self.poly, other.poly
        a, b = self.factors, other.factors
        common = _Factors()
        for key in dict.fromkeys(chain(
                (k for k, (_, e) in a.items() if e < 0),
                (k for k, (_, e) in b.items() if e < 0), a, b)):
            f, e1 = a.get(key) or (b[key][0], 0)
            e2 = b.get(key, (f, 0))[1]
            e = min(e1, e2)
            if e:
                common[key] = (f, e)
            if e1 > e:
                p = p * f ** (e1 - e)
            if e2 > e:
                q = q * f ** (e2 - e)
        return RationalFunction(p + q, common)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RationalFunction.of(other))

    def __rsub__(self, other):
        return RationalFunction.of(other) + (-self)

    def substitute(self, mapping):
        """Map poly and every factor; a numerator factor that becomes 0 makes
        the value 0.  Where a denominator factor becomes 0, the reduced form
        num / den of ``_expanded`` is mapped instead, and a factor of den
        that becomes 0 raises."""
        try:
            return RationalFunction(self.poly.substitute(mapping),
                                    [(f.substitute(mapping), -e)
                                     for f, e in self.factors.values()])
        except ZeroDivisionError:
            num, den = self._expanded()
            return RationalFunction(num.substitute(mapping),
                                    [(f.substitute(mapping), e)
                                     for f, e in den.values()])

    def evaluate(self, point):
        """The value at a point, factor by factor; where the denominator
        factors vanish or are not real, the value of the reduced form
        num / den of ``_expanded``."""
        factors = self.factors.values()
        try:
            return as_scalar(_value(self.poly, point) * _value_at(
                [(f, e) for f, e in factors if e > 0], point)) \
                / _value_at([(f, -e) for f, e in factors if e < 0], point)
        except ArithmeticError:
            num, den = self._expanded()
        d = _value_at(den.values(), point)
        if not d:
            raise ZeroDivisionError("denominator vanishes at %r" % (point,))
        return as_scalar(_value(num, point)) / d

    def __repr__(self):
        num, den = self._expanded()
        if not den:
            return repr(num)
        den = "*".join("(%r)^%d" % (f, e) if e > 1 else "(%r)" % (f,)
                       for f, e in den.values())
        return "(%r)/[%s]" % (num, den)
