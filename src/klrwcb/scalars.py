"""Exact complex scalars with optional formal irrational symbols.

A scalar is stored as (rational real part, rational imaginary part,
formal symbol part).  Symbols stand for fixed irrational reals such as
sqrt(2); each symbol carries a rational "shadow" approximating its value,
declared in a :class:`SymbolTable`.  The two predicates the rest of the
library needs -- "is the difference an integer?" and "which real part is
smaller?" -- are decided exactly for rational data and via shadows for
symbolic data, so no floating point ever enters the core.

The parts of an ExactScalar are always exactly Fraction (the symbol part a
sorted tuple of (name, nonzero Fraction) pairs), and ExactScalar.__init__
is the one constructor: every operation builds its result through it.  It
keeps a part that is already a Fraction as it is and converts anything
else, and builds no symbol dict when there are no symbols, so arithmetic
on Fraction parts pays for no second conversion.  Sums and differences
skip the Fraction arithmetic of a zero part, such as the imaginary parts
of two real scalars.  Order keys are integers: real_keys puts the real
parts over one common denominator, so sorts and tie checks compare ints.
A class of C/Z has one key, z_class; is_integral, is_integral_difference
and coset_rep read it, and so does the diagram engine's strand matching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce, wraps
from itertools import repeat
from math import lcm
from operator import mul

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


_set = object.__setattr__


def _plus(p, q):
    """p + q for Fractions, with no Fraction arithmetic when one is zero
    (the imaginary parts of real scalars, say)."""
    if not q:
        return p
    return p + q if p else q


def _minus(p, q):
    """p - q for Fractions, with no Fraction arithmetic when q is zero."""
    return p - q if q else p


class ExactScalar:
    """An element of Q + Qi + sum_s Q*s for formal symbols s.

    Immutable; zero symbol coefficients are never stored.
    """

    __slots__ = ("rational", "imaginary", "symbolic", "_hash")

    def __init__(self, rational=0, imaginary=0, symbolic=None):
        _set(self, "rational",
             rational if type(rational) is Fraction else Fraction(rational))
        _set(self, "imaginary",
             imaginary if type(imaginary) is Fraction else Fraction(imaginary))
        sym = ()
        if symbolic:
            sym = []
            for name, coeff in symbolic.items():
                if type(coeff) is not Fraction:
                    coeff = Fraction(coeff)
                if coeff:
                    sym.append((name, coeff))
            sym = tuple(sorted(sym))
        _set(self, "symbolic", sym)
        _set(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("ExactScalar is immutable")

    # -- ring structure ---------------------------------------------------

    def _sym_sum(self, other, sign=1):
        """The symbol part of self + sign * other: a dict, or None when
        neither operand has symbols."""
        if not (self.symbolic or other.symbolic):
            return None
        sym = dict(self.symbolic)
        for name, c in other.symbolic:
            sym[name] = sym.get(name, 0) + sign * c
        return sym

    @_scalar_operand
    def __add__(self, other):
        return ExactScalar(_plus(self.rational, other.rational),
                           _plus(self.imaginary, other.imaginary), self._sym_sum(other))

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.rational, -self.imaginary,
                           {n: -c for n, c in self.symbolic} if self.symbolic else None)

    @_scalar_operand
    def __sub__(self, other):
        return ExactScalar(_minus(self.rational, other.rational),
                           _minus(self.imaginary, other.imaginary),
                           self._sym_sum(other, -1))

    @_scalar_operand
    def __rsub__(self, other):
        return ExactScalar(_minus(other.rational, self.rational),
                           _minus(other.imaginary, self.imaginary),
                           other._sym_sum(self, -1))

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

    @_scalar_operand
    def __truediv__(self, other):
        """Division by a nonzero rational (or rational-valued scalar)."""
        if not other.is_rational:
            raise ArithmeticError("division by non-rational scalar %s" % other)
        q = other.rational
        if not q:
            raise ZeroDivisionError("scalar division by zero")
        return self * Fraction(q.denominator, q.numerator)

    def __eq__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return (self.rational == other.rational
                and self.imaginary == other.imaginary
                and self.symbolic == other.symbolic)

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
    """x as an ExactScalar; arithmetic reads numbers only, and literals are
    read by Reader and parse_scalar."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar(x)
    raise TypeError("cannot interpret %r as ExactScalar" % (x,))


def z_class(a):
    """The class of a + Z as a hashable key: (p mod q, q) for the reduced
    rational part p/q, then the imaginary and symbolic parts.  a - b is an
    integer iff z_class(a) == z_class(b)."""
    a = as_scalar(a)
    q = a.rational
    return q.numerator % q.denominator, q.denominator, a.imaginary, a.symbolic


_INTEGERS = z_class(0)


def is_integral(a):
    return z_class(a) == _INTEGERS


def is_integral_difference(a, b):
    """True iff a - b lies in Z: equal imaginary parts, equal symbol parts,
    rational parts in one class of Q/Z."""
    return z_class(a) == z_class(b)


def coset_rep(a):
    """Canonical representative of a + Z: rational part reduced into [0,1),
    imaginary and symbolic parts untouched."""
    p, q, imaginary, symbolic = z_class(a)
    return ExactScalar(Fraction(p, q), imaginary, dict(symbolic))


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
    """Exact integer sort keys for the real parts of values: sorting by them
    gives the real_compare order, and two keys are equal iff real_compare
    is EQ.

    A key is D times the real part, over the lcm D of the denominators of
    the rational parts and symbol coefficients.  When the values have more
    than one symbolic part, symbols are replaced by their shadows (the
    shadow branch) and the keys are scaled again by the lcm of the shadow
    denominators.  Raises AmbiguousOrderError exactly when sorting with
    real_compare would: the symbolic parts differ and there is no table,
    or two different real parts have tied shadows; UndeclaredSymbolError
    when a shadow the shadow branch needs is not declared.
    """
    values = [as_scalar(v) for v in values]
    return _integer_keys(_real_coordinates(values), table, values.__getitem__)


def _real_coordinates(values):
    """The real parts of ExactScalars as integer coordinates over one
    denominator D: (D * rational part, ((name, D * coefficient), ...)).
    Two values have equal coordinates iff their real parts are equal, and
    the coordinates of a sum are the sums of the coordinates (see
    _coordinate_sum)."""
    d = 1
    ratios = []
    for v in values:
        p, q = v.rational.as_integer_ratio()
        if d % q:
            d = lcm(d, q)
        sym = v.symbolic
        if sym:
            sym = [(name, c.as_integer_ratio()) for name, c in sym]
            for _, (_, r) in sym:
                if d % r:
                    d = lcm(d, r)
        ratios.append((p, q, sym))
    return [(p * (d // q), tuple((name, c * (d // r)) for name, (c, r) in sym)
             if sym else ()) for p, q, sym in ratios]


def _coordinate_sum(a, b):
    """The coordinates of the sum of two values, from theirs."""
    (p, s), (q, t) = a, b
    if not (s and t):
        return p + q, s or t
    merged = dict(s)
    for name, c in t:
        merged[name] = merged.get(name, 0) + c
    return p + q, tuple(sorted((name, c) for name, c in merged.items() if c))


def _integer_keys(coords, table, scalar):
    """The key rule of real_keys on integer coordinates (see
    _real_coordinates).  scalar(i) is the value at index i; it is built
    only to name the two values of a shadow tie."""
    if len({sym for _, sym in coords}) <= 1:
        return [p for p, _ in coords]
    if table is None:
        raise AmbiguousOrderError("symbolic comparison without a SymbolTable")
    shadows = {}
    for _, sym in coords:
        for name, _ in sym:
            if name not in shadows:
                shadows[name] = table.shadow(name)
    d = lcm(*(q.denominator for q in shadows.values()))
    scaled = {name: q.numerator * (d // q.denominator) for name, q in shadows.items()}
    keys = [p * d + sum(c * scaled[name] for name, c in sym) for p, sym in coords]
    first = {}
    for i, (key, coord) in enumerate(zip(keys, coords)):
        j = first.setdefault(key, i)
        if coords[j] != coord:
            raise AmbiguousOrderError(
                "shadows tie for %s vs %s; refine shadow precision"
                % (scalar(j), scalar(i)))
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
#   sum     ::=  term (('+'|'-') term)*      (the sign starts the next term)
#   term    ::=  factor ('*' factor)*
#   factor  ::=  ('+'|'-')* atom ['^' natural]
#   atom    ::=  digits ['.' digits] ['/' natural] ['i'] | 'i' | '(' sum ')'
#             |  'sym:' NAME ['~' factor] | NAME
#   name    ::=  characters other than space , ; = @ ! ) ] outside brackets:
#                ( and [ open a level that must close, so "(alpha,[1/3])",
#                "e|[1/3]" and "w[a]0" are names
#   vector  ::=  [integer (',' integer)*]        integer ::= ['+'|'-'] digits
#   list    ::=  [item (sep item)*]              (sep ',' or ';'; no empty item)
#   assign  ::=  list of name '=' value          (value read by the caller)
#   sequence ::= '[' list of pair ']' 'order' '=' '[' list of token ']'
#   pair    ::=  '(' name ',' sum ')'    token ::= digits | name '@' digits | '!' name
#
# Spaces may stand between tokens, not inside one.  A NAME (letters,
# digits, '_', and an optional [..] as in r[1,0]) is read by a function the
# caller supplies; scalar literals have none.  Examples: "5/2", "1/2+3/4i",
# "2*sym:sqrt2", "0.5*x1*r[1,0] - r[-1,0]", "alpha=0,1/2;beta=2" (--gamma:
# an assign over ';' of lists of sums over ','), "1=1,2=0" (--w).  Every
# reader reads its whole argument.

_TOKEN_RE = re.compile(r"\s*(?:(?P<tok>[0-9]+(?:\.[0-9]+)?|sym:[A-Za-z_][A-Za-z_0-9]*"
                       r"|[A-Za-z_][A-Za-z_0-9]*(?:\[[^\]]*\])?|[-+*/^()~])|(?P<bad>\S))?")
_SPACES_RE = re.compile(r"\s*")


class _Misfit(ScalarParseError):
    """Text that is not of the shape its production reads."""


def _scan(text, i, stops):
    """The end of the run of text from i that stops at one of stops outside
    brackets, and the brackets left open there."""
    depth = 0
    while i < len(text) and (depth or text[i] not in stops):
        depth = max(depth + (text[i] in "([") - (text[i] in ")]"), 0)
        i += 1
    return i, depth


class Reader:
    """Recursive descent over one literal, lexed at a cursor; ``what`` names
    the kind of literal in error messages."""

    def __init__(self, text, name=None, what="scalar", table=None):
        self.text, self.name, self.what, self.table = text, name, what, table
        self.pos = 0
        self._lexed = None

    def _match(self):
        """The token match at the cursor, lexed once per cursor position."""
        m = self._lexed
        if m is None or m.pos != self.pos:
            m = self._lexed = _TOKEN_RE.match(self.text, self.pos)
        return m

    def peek(self):
        """The token at the cursor, None at the end; a character outside
        the tokens (',' say) is one of its own, which take refuses."""
        m = self._match()
        return m.group("tok") or m.group("bad")

    def take(self):
        m = self._match()
        if m.group("bad"):
            raise ScalarParseError("bad %s literal near %r"
                                   % (self.what, self.text[m.start("bad"):]))
        if not m.group("tok"):
            raise ScalarParseError("truncated %s literal" % self.what)
        self.pos = m.end()
        return m.group("tok")

    def accept(self, tok):
        """Take the next token if it is tok; whether it was."""
        if self.peek() != tok:
            return False
        self.pos = self._match().end()
        return True

    def expect(self, tok):
        if not self.accept(tok):
            raise self.misfit()

    def misfit(self):
        return _Misfit("bad %s literal %r" % (self.what, self.text))

    def skip(self):
        self.pos = _SPACES_RE.match(self.text, self.pos).end()
        return self.pos

    def at(self, chars):
        """Whether the cursor, past spaces, is at the end or at one of chars."""
        return self.skip() == len(self.text) or self.text[self.pos] in chars

    def source(self, first):
        """The text read since the cursor stood at first."""
        return self.text[first:self.pos].lstrip()

    def bad(self, term):
        return ScalarParseError("bad %s term %r in %r" % (self.what, term, self.text))

    def natural(self, kind):
        tok = self.take()
        if not tok.isdigit():
            raise ScalarParseError("%s %r in %s literal %r is not a nonnegative "
                                   "integer" % (kind, tok, self.what, self.text))
        return int(tok)

    def terms(self):
        out = []
        while not out or self.peek() in ("+", "-"):
            first, factors = self.pos, self.factor()
            while self.accept("*"):
                factors += self.factor()
            out.append((factors, self.source(first)))
        return out

    def factor(self):
        neg = False
        while self.peek() in ("+", "-"):
            neg ^= self.take() == "-"
        first, base = self.pos, self.atom()
        if self.accept("^"):
            base = self.value([(repeat(base, self.natural("exponent")), "")], first)
        return [-ONE, base] if neg else [base]

    def atom(self):
        first, tok = self.pos, self.take()
        if tok[0].isdigit():
            q = Fraction(tok)
            if self.accept("/"):
                den = self.natural("denominator")
                if not den:
                    raise ScalarParseError("zero denominator in %r" % self.source(first))
                q /= den
            return ExactScalar(0, q) if self.accept("i") else ExactScalar(q)
        if tok == "(":
            inner = self.terms()
            if self.take() != ")":
                raise ScalarParseError("unbalanced parenthesis")
            return self.value(inner, first)
        if tok == "i":
            return ExactScalar(0, 1)
        if tok.startswith("sym:"):
            if self.accept("~"):
                shadow = self.value([(self.factor(), "")], first)
                if not (isinstance(shadow, ExactScalar) and shadow.is_rational):
                    raise self.bad(self.source(first))
                if self.table is not None and tok[4:] not in self.table.entries:
                    self.table.declare(tok[4:], shadow.rational)
            return ExactScalar(0, 0, {tok[4:]: 1})
        if self.name is None or not (tok[0].isalpha() or tok[0] == "_"):
            raise self.bad(tok)
        return self.name(tok)

    def value(self, terms, first):
        """sum_terms(terms); factors that do not multiply (a NAME's value,
        say) make the text read since first a bad term."""
        try:
            return sum_terms(terms)
        except TypeError:
            raise self.bad(self.source(first)) from None

    def scalar(self):
        return sum_terms(self.terms())

    def integer(self, low=None):
        """The integer at the cursor; a misfit when there is none or it is
        below low."""
        sign = -1 if self.accept("-") else 1
        if sign > 0:
            self.accept("+")
        tok = self.peek()
        if not (tok and tok.isdigit()) or low is not None and sign * int(tok) < low:
            raise self.misfit()
        return sign * int(self.take())

    def word(self):
        """The name at the cursor; a misfit when there is none."""
        start = self.skip()
        self.pos, depth = _scan(self.text, start, ",;=@!)] \t\n\r\f\v")
        if depth or self.pos == start:
            raise self.misfit()
        return self.text[start:self.pos]

    def item(self, read, stops, misfit):
        """read() at the cursor, which must read up to one of stops or the
        end.  A misfit raises misfit(the text up to there), or passes on
        when misfit is None."""
        start = self.skip()
        try:
            value = read()
            if not self.at(stops):
                raise self.misfit()
        except _Misfit:
            if misfit is None:
                raise
            end = _scan(self.text, start, stops)[0]
            raise ScalarParseError(misfit(self.text[start:end].rstrip())) from None
        return value

    def items(self, read, sep, ends, misfit):
        """[read() for each item] of a list separated by sep, which runs up
        to one of ends or the end, [] when it starts there; see item."""
        out = []
        if self.at(ends):
            return out
        while not out or self.accept(sep):
            if self.at(sep + ends):
                raise ScalarParseError("empty entry in %r" % self.text)
            out.append(self.item(read, sep + ends, misfit))
        return out

    def vector(self, ends=""):
        """The integer vector at the cursor, '1,-2,0' say."""
        return tuple(self.items(self.integer, ",", ends,
                                lambda item: "bad integer %r in %r" % (item, self.text)))

    def assignments(self, sep, value, misfit, kind, named, keys=None):
        """{name: value()} over the list name=value,... separated by sep that
        is the whole text (see items).  A name is given once, and is one of
        keys when they are given; a wrong one is named as a kind (vertex,
        edge) in named % (its item)."""
        out = {}

        def assignment():
            start, key = self.skip(), self.word()
            self.expect("=")
            why = ("unknown" if keys is not None and key not in keys
                   else "repeated" if key in out else None)
            if why:
                item = self.text[start:_scan(self.text, start, sep)[0]].rstrip()
                raise ScalarParseError("%s %s %r in %s" % (why, kind, key, named % item))
            out[key] = value()

        self.items(assignment, sep, "", misfit)
        return out


def read_terms(text, name=None, what="scalar", table=None):
    """Read a literal of the grammar above into (factors, source) for each
    top-level term: a negative sign is a factor -1, source is the term's
    text.  ``name`` reads a NAME token into a value (or raises ValueError);
    a symbol written with a shadow is declared into ``table`` when one is
    supplied and lacks it."""
    reader = Reader(text, name, what, table)
    terms = reader.terms()
    if reader.peek() is not None:
        reader.take()  # a character outside the grammar is named as such
        raise ScalarParseError("trailing junk in %s literal" % what)
    return terms


def read_vector(text):
    """The integer vector literal text, '1,-2,0' say; '' is ()."""
    return Reader(text).vector()


def sum_terms(terms):
    """The value of read terms: the sum of the products of their factors."""
    return sum((reduce(mul, factors, ONE) for factors, _ in terms), ZERO)


def parse_scalar(text, table=None):
    """Parse a scalar literal; newly seen symbols are declared into ``table``
    (with their written shadows) when one is supplied."""
    return sum_terms(read_terms(text, table=table))


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
