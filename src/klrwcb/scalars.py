"""Exact complex scalars with optional formal irrational symbols.

A scalar is stored as (rational real part, rational imaginary part,
formal symbol part).  Symbols stand for fixed irrational reals such as
sqrt(2); each symbol carries a rational "shadow" approximating its value,
declared in a :class:`SymbolTable`.  The two predicates the rest of the
library needs -- "is the difference an integer?" and "which real part is
smaller?" -- are decided exactly for rational data and via shadows for
symbolic data, so no floating point ever enters the core.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering, wraps

LT, EQ, GT = -1, 0, 1


class AmbiguousOrderError(ValueError):
    """Shadow substitution produced a tie between genuinely different
    symbolic scalars; the caller must refine the shadows."""


class UndeclaredSymbolError(ValueError):
    """A symbol's shadow was asked for, but the SymbolTable does not
    declare the symbol."""


class ScalarParseError(ValueError):
    pass


@dataclass
class SymbolTable:
    """Declared symbols: name -> rational shadow of an irrational real."""

    entries: dict = field(default_factory=dict)

    def declare(self, name, shadow):
        self.entries[name] = Fraction(shadow)
        return self

    def shadow(self, name):
        if name not in self.entries:
            raise UndeclaredSymbolError("undeclared symbol %r" % name)
        return self.entries[name]


def _scalar_operand(method):
    """Read the other operand with as_scalar; an operand it cannot read
    gives NotImplemented, so that Python tries the operand's own reflected
    operator (a Polynomial's, say)."""
    @wraps(method)
    def operator(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return method(self, other)
    return operator


@total_ordering
class ExactScalar:
    """An element of Q + Qi + sum_s Q*s for formal symbols s.

    Immutable; zero symbol coefficients are never stored.
    """

    __slots__ = ("rational", "imaginary", "symbolic", "_hash")

    def __init__(self, rational=0, imaginary=0, symbolic=None):
        object.__setattr__(self, "rational", Fraction(rational))
        object.__setattr__(self, "imaginary", Fraction(imaginary))
        sym = {}
        if symbolic:
            for name, coeff in symbolic.items():
                c = Fraction(coeff)
                if c:
                    sym[name] = c
        object.__setattr__(self, "symbolic", tuple(sorted(sym.items())))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("ExactScalar is immutable")

    # -- ring structure ---------------------------------------------------

    def _sym_dict(self):
        return dict(self.symbolic)

    @_scalar_operand
    def __add__(self, other):
        sym = self._sym_dict()
        for name, c in other.symbolic:
            sym[name] = sym.get(name, Fraction(0)) + c
        return ExactScalar(self.rational + other.rational,
                           self.imaginary + other.imaginary, sym)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.rational, -self.imaginary,
                           {n: -c for n, c in self.symbolic})

    @_scalar_operand
    def __sub__(self, other):
        return self + (-other)

    @_scalar_operand
    def __rsub__(self, other):
        return other + (-self)

    @_scalar_operand
    def __mul__(self, other):
        """Products in Q + Qi, and of a symbolic scalar with a rational;
        a symbol times a symbol or a non-real is outside the model."""
        if other.symbolic:
            self, other = other, self
        if other.symbolic:
            raise ValueError("cannot multiply two symbolic scalars")
        q = other.rational
        if not other.imaginary:
            return ExactScalar(self.rational * q, self.imaginary * q,
                               {n: c * q for n, c in self.symbolic})
        if self.symbolic:
            raise ValueError("cannot multiply a symbolic scalar by a non-real one")
        a, b, d = self.rational, self.imaginary, other.imaginary
        return ExactScalar(a * q - b * d, a * d + b * q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational (or rational-valued scalar)."""
        if isinstance(other, ExactScalar):
            if not other.is_rational:
                raise ArithmeticError("division by non-rational scalar %s" % other)
            other = other.rational
        q = Fraction(other)
        if not q:
            raise ZeroDivisionError("scalar division by zero")
        return self * Fraction(q.denominator, q.numerator)

    def __eq__(self, other):
        # read as a literal, "3" would equal ExactScalar(3) but hash apart
        if isinstance(other, str):
            return NotImplemented
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return (self.rational == other.rational
                and self.imaginary == other.imaginary
                and self.symbolic == other.symbolic)

    def __lt__(self, other):
        # Plain comparison is only offered for symbol-free scalars; ordering
        # with symbols must go through real_compare with a table.
        other = as_scalar(other)
        if self.symbolic or other.symbolic:
            raise TypeError("symbolic scalars need real_compare with a SymbolTable")
        return (self.rational, self.imaginary) < (other.rational, other.imaginary)

    def __hash__(self):
        # a real rational scalar equals its Fraction, so it hashes as one
        if self._hash is None:
            key = (self.rational, self.imaginary, self.symbolic)
            object.__setattr__(self, "_hash", hash(key[0] if self.is_rational else key))
        return self._hash

    def __bool__(self):
        return bool(self.rational or self.imaginary or self.symbolic)

    @property
    def is_rational(self):
        return not self.imaginary and not self.symbolic

    def shadow_value(self, table):
        """Exact rational stand-in for the real part, symbols replaced by
        their declared shadows."""
        val = self.rational
        for name, coeff in self.symbolic:
            val += coeff * table.shadow(name)
        return val

    def __repr__(self):
        return "ExactScalar(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


ZERO = ExactScalar(0)
ONE = ExactScalar(1)


def as_scalar(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError("cannot interpret %r as ExactScalar" % (x,))


def is_integral(a):
    a = as_scalar(a)
    return (not a.imaginary and not a.symbolic
            and a.rational.denominator == 1)


def is_integral_difference(a, b):
    """True iff a - b lies in Z: equal imaginary parts, equal symbol parts,
    integer rational difference."""
    a, b = as_scalar(a), as_scalar(b)
    return (a.imaginary == b.imaginary and a.symbolic == b.symbolic
            and (a.rational - b.rational).denominator == 1)


def coset_rep(a):
    """Canonical representative of a + Z: rational part reduced into [0,1),
    imaginary and symbolic parts untouched."""
    a = as_scalar(a)
    q = a.rational
    return ExactScalar(q - q.numerator // q.denominator, a.imaginary, dict(a.symbolic))


def real_compare(a, b, table=None):
    """Compare real parts exactly, returning LT/EQ/GT.

    EQ requires the rational and symbolic real coordinates to coincide
    exactly.  Otherwise shadows are substituted; a shadow tie between
    different symbolic parts raises AmbiguousOrderError.
    """
    a, b = as_scalar(a), as_scalar(b)
    if a.rational == b.rational and a.symbolic == b.symbolic:
        return EQ
    if a.symbolic == b.symbolic:
        return LT if a.rational < b.rational else GT
    if table is None:
        raise AmbiguousOrderError("symbolic comparison without a SymbolTable")
    sa, sb = a.shadow_value(table), b.shadow_value(table)
    if sa == sb:
        raise AmbiguousOrderError(
            "shadows tie for %s vs %s; refine shadow precision" % (a, b))
    return LT if sa < sb else GT


def real_keys(values, table=None):
    """Exact sort keys for the real parts of values: sorting by them gives
    the real_compare order, and two keys are equal iff real_compare is EQ.

    The key is the rational part when all values share one symbolic part,
    and the shadow value otherwise.  Raises AmbiguousOrderError exactly when
    sorting with real_compare would: the symbolic parts differ and there is
    no table, or two different real parts have tied shadows.
    """
    values = [as_scalar(v) for v in values]
    if len({v.symbolic for v in values}) <= 1:
        return [v.rational for v in values]
    if table is None:
        raise AmbiguousOrderError("symbolic comparison without a SymbolTable")
    keys = [v.shadow_value(table) for v in values]
    first = {}
    for key, v in zip(keys, values):
        u = first.setdefault(key, v)
        if u.rational != v.rational or u.symbolic != v.symbolic:
            raise AmbiguousOrderError(
                "shadows tie for %s vs %s; refine shadow precision" % (u, v))
    return keys


def row_reduce(rows):
    """Reduced row echelon form over Q of a list of equal-length rows.

    Returns (reduced rows, pivot columns): row r < len(pivots) has a 1 in
    column pivots[r] and zeros above and below it; the rank is len(pivots).
    """
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        pv = m[top][col]
        m[top] = [v / pv for v in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots


# -- literal grammar ------------------------------------------------------
#
#   scalar  ::=  term (('+'|'-') term)*
#   term    ::=  rational | rational 'i' | 'i' | 'sym:' NAME '~' SHADOW
#   rational::=  'a' | 'a/b' | decimal
#
# Examples: "5/2", "3+0i", "1/2+3/4i", "sym:sqrt2~1.41421", "1-sym:sqrt3~1.7"

_SYM_RE = re.compile(r"^sym:([A-Za-z_][A-Za-z_0-9]*)(?:~(-?[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?))?$")
_NUM_RE = re.compile(r"^(-?[0-9]+(?:\.[0-9]+)?(?:/-?[0-9]+)?)(i?)$")


def _parse_rational(text):
    if "." in text and "/" in text:
        raise ScalarParseError("mixed decimal/fraction literal %r" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarParseError("zero denominator in %r" % text) from None


def parse_scalar(text, table=None):
    """Parse a scalar literal; newly seen symbols are declared into ``table``
    (with their written shadows) when one is supplied."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar literal")
    # split into signed terms at top level
    terms = []
    sign, start = 1, 0
    if s[0] in "+-":
        sign, start = (1 if s[0] == "+" else -1), 1
    i = start
    cur = []
    while i < len(s):
        ch = s[i]
        if ch in "+-" and i > start and s[i - 1] not in "+-/~:":
            terms.append((sign, "".join(cur)))
            sign, cur = (1 if ch == "+" else -1), []
        else:
            cur.append(ch)
        i += 1
    terms.append((sign, "".join(cur)))

    total = ExactScalar(0)
    for sgn, term in terms:
        if not term:
            raise ScalarParseError("dangling sign in %r" % text)
        m = _SYM_RE.match(term)
        if m:
            name = m.group(1)
            if m.group(2) is not None:
                shadow = _parse_rational(m.group(2))
                if table is not None and name not in table.entries:
                    table.declare(name, shadow)
            total = total + ExactScalar(0, 0, {name: sgn})
            continue
        if term == "i":
            total = total + ExactScalar(0, sgn)
            continue
        m = _NUM_RE.match(term)
        if not m:
            raise ScalarParseError("bad scalar term %r in %r" % (term, text))
        value = sgn * _parse_rational(m.group(1))
        if m.group(2):
            total = total + ExactScalar(0, value)
        else:
            total = total + ExactScalar(value)
    return total


def _format_fraction(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def format_scalar(a):
    a = as_scalar(a)
    parts = []
    if a.rational or (not a.imaginary and not a.symbolic):
        parts.append(_format_fraction(a.rational))
    if a.imaginary:
        parts.append(_format_fraction(a.imaginary) + "i")
    for name, coeff in a.symbolic:
        if coeff == 1:
            parts.append("sym:" + name)
        elif coeff == -1:
            parts.append("-sym:" + name)
        else:
            parts.append(_format_fraction(coeff) + "*sym:" + name)
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out
