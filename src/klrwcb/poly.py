"""Sparse exact multivariate polynomials and factored rational functions.

Variables are plain strings ("y1", "x2", "h" for the loop parameter) and a
monomial is a sorted tuple of (variable, exponent) pairs.  Coefficients are
kept in one normal form (see ``coefficient``): a rational coefficient is a
plain ``int``, or a ``Fraction`` when its denominator is not 1, and only a
coefficient with an imaginary or symbolic part is an ExactScalar.  So the
arithmetic on the rational coefficients that dominate every suite is native
``int``/``Fraction`` arithmetic, mixed sums and products go through the
ExactScalar operators, and the same polynomial has the same ``terms`` (and
hash) however its coefficients were written.  ``evaluate`` still returns an
ExactScalar.

Rational functions keep their denominators as a multiset of polynomial
factors (the localization pattern: products of linear forms), with
cancellation by exact division.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ExactScalar, as_scalar

HBAR = "h"


def coefficient(c):
    """The normal form of a polynomial coefficient: an int, a Fraction with
    denominator > 1, or an ExactScalar with an imaginary or symbolic part.
    Strings are parsed as scalar literals."""
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
        except (TypeError, ValueError):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
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
        out = Polynomial.constant(1)
        for _ in range(n):
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
        """Replace variables by polynomials; unmapped variables stay."""
        out = Polynomial({})
        for m, c in self.terms.items():
            piece = Polynomial.constant(c)
            for v, e in m:
                base = mapping.get(v)
                if base is None:
                    base = Polynomial.variable(v)
                else:
                    base = as_poly(base)
                piece = piece * base ** e
            out = out + piece
        return out

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
        total = as_scalar(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                if v not in point:
                    raise KeyError("no value for %r" % v)
                base = as_scalar(point[v])
                for _ in range(e):
                    val = val * base
            total = total + val
        return total

    def weighted_degree(self, weight=lambda v: 2):
        """Max weighted total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(weight(v) * e for v, e in m) for m in self.terms)

    def is_homogeneous(self, weight=lambda v: 2):
        degs = {sum(weight(v) * e for v, e in m) for m in self.terms}
        return len(degs) <= 1

    def variables(self):
        out = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

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
    if isinstance(x, (int, Fraction, ExactScalar, str)):
        return Polynomial.constant(x)
    raise TypeError("cannot interpret %r as Polynomial" % (x,))


ONE_POLY = Polynomial.constant(1)


def _factor_key(p):
    return tuple(sorted(p.terms.items(), key=lambda t: t[0]))


class RationalFunction:
    """numerator / product of polynomial factors, factors kept separate."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        object.__setattr__(self, "num", as_poly(num))
        factors = {}
        if den:
            for f, e in (den.items() if isinstance(den, dict) else den):
                f = as_poly(f)
                if not f:
                    raise ZeroDivisionError("zero denominator factor")
                if e:
                    key = _factor_key(f)
                    if key in factors:
                        factors[key] = (f, factors[key][1] + e)
                    else:
                        factors[key] = (f, e)
        object.__setattr__(self, "den", {k: v for k, v in factors.items() if v[1]})
        self._reduce()

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    def _reduce(self):
        num = self.num
        den = dict(self.den)
        if not num:
            object.__setattr__(self, "den", {})
            return
        # one pass: a factor that does not divide num divides no quotient of it
        for key, (f, e) in list(den.items()):
            while e > 0:
                try:
                    num = num.divide_exact(f)
                except ArithmeticError:
                    break
                e -= 1
            if e:
                den[key] = (f, e)
            else:
                del den[key]
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def of(x):
        if isinstance(x, RationalFunction):
            return x
        return RationalFunction(as_poly(x))

    def den_poly(self):
        p = ONE_POLY
        for f, e in self.den.values():
            p = p * f ** e
        return p

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = RationalFunction.of(other)
        return (self.num * other.den_poly()) == (other.num * self.den_poly())

    def __hash__(self):
        raise TypeError("unhashable")

    def __mul__(self, other):
        other = RationalFunction.of(other)
        den = [(f, e) for f, e in self.den.values()]
        den += [(f, e) for f, e in other.den.values()]
        return RationalFunction(self.num * other.num, den)

    __rmul__ = __mul__

    def __neg__(self):
        return RationalFunction(-self.num, list(self.den.values()))

    def __add__(self, other):
        other = RationalFunction.of(other)
        all_factors = {}
        for key, (f, e) in self.den.items():
            all_factors[key] = (f, max(e, other.den.get(key, (f, 0))[1]))
        for key, (f, e) in other.den.items():
            if key not in all_factors:
                all_factors[key] = (f, e)
        num1, num2 = self.num, other.num
        for key, (f, e) in all_factors.items():
            e1 = self.den.get(key, (f, 0))[1]
            e2 = other.den.get(key, (f, 0))[1]
            num1 = num1 * f ** (e - e1)
            num2 = num2 * f ** (e - e2)
        return RationalFunction(num1 + num2, list(all_factors.values()))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RationalFunction.of(other))

    def __rsub__(self, other):
        return RationalFunction.of(other) + (-self)

    def substitute(self, mapping):
        return RationalFunction(self.num.substitute(mapping),
                                [(f.substitute(mapping), e)
                                 for f, e in self.den.values()])

    def evaluate(self, point):
        d = as_scalar(1)
        for f, e in self.den.values():
            val = f.evaluate(point)
            for _ in range(e):
                d = d * val
        if not d:
            raise ZeroDivisionError("denominator vanishes at %r" % (point,))
        return self.num.evaluate(point) / d

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        den = "*".join("(%r)^%d" % (f, e) if e > 1 else "(%r)" % (f,)
                       for f, e in self.den.values())
        return "(%r)/[%s]" % (self.num, den)
