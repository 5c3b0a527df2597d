"""The one literal grammar against the three readers it replaced.

``_ref_parse_scalar``, ``_ref_parse_poly`` and ``_ref_parse_monopole`` are
the former hand-written readers, kept verbatim as references.  On a seeded
family of literals the new readers give the value the reference gives
wherever the reference reads the literal; the only literals the
references read that now raise are the three listed in ``_NOW_REJECTED``,
each of which the references read only by deleting or ignoring a space.
"""

import random
import re
from fractions import Fraction

from klrwcb.cli import parse_monopole
from klrwcb.coulomb import MonopoleElement
from klrwcb.poly import HBAR, ONE_POLY, Polynomial, RationalFunction
from klrwcb.scalars import (ExactScalar, ScalarParseError, SymbolTable,
                            format_scalar, parse_scalar)

# -- reference readers ------------------------------------------------------

_SYM_RE = re.compile(r"^sym:([A-Za-z_][A-Za-z_0-9]*)(?:~(-?[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?))?$")
_NUM_RE = re.compile(r"^(-?[0-9]+(?:\.[0-9]+)?(?:/-?[0-9]+)?)(i?)$")


def _parse_rational(text):
    if "." in text and "/" in text:
        raise ScalarParseError("mixed decimal/fraction literal %r" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarParseError("zero denominator in %r" % text) from None


def _ref_parse_scalar(text, table=None):
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


def _ref_parse_poly(text, rank):
    tokens = []
    i = 0
    spec = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|[0-9]+|\^|\*|\+|\-|/|\(|\))")
    while i < len(text):
        m = spec.match(text, i)
        if not m:
            raise ValueError("bad polynomial literal near %r" % text[i:])
        tokens.append(m.group(1))
        i = m.end()
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        tok = peek()
        if tok is None:
            raise ValueError("truncated polynomial literal")
        pos[0] += 1
        return tok

    def natural(kind):
        tok = take()
        if not tok.isdigit():
            raise ValueError("%s %r in polynomial literal %r is not a "
                             "nonnegative integer" % (kind, tok, text))
        return int(tok)

    def atom():
        tok = take()
        if tok == "(":
            base = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
        elif tok.isdigit():
            den = 1
            if peek() == "/":
                take()
                den = natural("denominator")
                if not den:
                    raise ValueError("zero denominator in polynomial literal")
            base = Polynomial.constant(Fraction(int(tok), den))
        elif tok == HBAR or re.fullmatch(r"x[0-9]+", tok):
            if tok != HBAR and not (1 <= int(tok[1:]) <= rank):
                raise ValueError("variable %s out of rank %d" % (tok, rank))
            base = Polynomial.variable(tok)
        else:
            raise ValueError("unknown variable %r" % tok)
        if peek() == "^":
            take()
            base = base ** natural("exponent")
        return base

    def product():
        p = atom()
        while peek() == "*":
            take()
            p = p * atom()
        return p

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        p = Fraction(sign) * product()
        while peek() in ("+", "-"):
            sgn = -1 if take() == "-" else 1
            p = p + Fraction(sgn) * product()
        return p

    out = expr()
    if pos[0] != len(tokens):
        raise ValueError("trailing junk in polynomial literal")
    return out


_RTERM = re.compile(r"r\[([0-9,\s\-]*)\]")


def _ref_parse_monopole(text, rank):
    total = MonopoleElement({})
    depth = 0
    terms = []
    cur = []
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch in "+-" and depth == 0 and i > 0 and text[i - 1] not in "*^/([+-":
            terms.append("".join(cur))
            cur = [ch]
        else:
            cur.append(ch)
    terms.append("".join(cur))
    for term in terms:
        term = term.strip()
        if not term:
            continue
        m = _RTERM.search(term)
        if not m:
            raise ValueError("monopole term %r lacks an r[..] factor" % term)
        nu = tuple(int(v) for v in m.group(1).split(",")) if m.group(1).strip() \
            else ()
        if len(nu) != rank:
            raise ValueError("coweight %r has wrong rank" % (nu,))
        if term[m.end():].strip():
            raise ValueError("monopole term %r has text after its r[..] factor"
                             % term)
        rest = term[:m.start()].strip().strip("*").strip()
        sign = Fraction(1)
        while rest.startswith(("+", "-")):
            if rest[0] == "-":
                sign = -sign
            rest = rest[1:].strip().strip("*").strip()
        coeff = _ref_parse_poly(rest, rank) if rest else ONE_POLY
        total = total + MonopoleElement({nu: RationalFunction.of(
            Fraction(sign) * coeff)})
    return total


# -- the family ---------------------------------------------------------------

# literals of the README and the tests
_SCALARS = ["5/2", "3", "-1/3", "3+0i", "1/2+3/4i", "-2i", "0", "1+7i", "1-2i",
            "1/2+1i", "1/2-1i", "1+2i", "3-1i", "5+5i", "1+1i", "1/2+1/2i",
            "-1/3i", "1/6", "-4", "sym:sqrt2", "1+sym:sqrt2",
            "sym:sqrt2~1.41421", "1-sym:sqrt2~1.41421", "1-sym:sqrt3~1.7",
            "1/2+sym:sqrt2~1.41421", "sym:t~1", "sym:u~7/5", "1.5", "0.25i"]
_POLYS = ["2*x1^2 - 1/2*h + 3", "(x1+1)^2", "-(x1-h)^2*h", "x1", "h",
          "3*x1*x2", "x2^3-h", "1/3*(x1+x2)^2"]
_MONOPOLES = ["x1*r[1,0] - r[-1,0]", "3*x1*r[1,2]+r[-1,0]",
              "x2*r[-2,1]+h*r[1,-1]", "r[-1,0]", "1/2*r[1,0]", "r[0,0]",
              "(x1+h)^2*r[0,1] - 2*x2*r[1,1]"]

# read by the references only by deleting a space inside a token, or
# (the monopole) by taking the text left of r[..] as its coefficient
_NOW_REJECTED = [("scalar", "1 2"), ("scalar", "s ym:x"),
                 ("monopole", "x1 r[1,0]")]

_TOKEN = re.compile(r"sym:\w+|r\[[^\]]*\]|[0-9]+(?:\.[0-9]+)?|\w+|\S")


def _variants(text):
    """text, its tokens spaced apart, with a leading '+' and '--', with '+-'
    for each '-' between operands, with a negative denominator, and with
    decimals for halves and quarters."""
    yield text
    yield " ".join(_TOKEN.findall(text))
    yield "+" + text
    yield "--" + text
    yield re.sub(r"(?<=[\w\])])\s*-", "+-", text)
    yield re.sub(r"([0-9])/([0-9])", r"\1/-\2", text)
    yield re.sub(r"\b([0-9]+)/(2|4)\b",
                 lambda m: str(float(Fraction(int(m.group(1)), int(m.group(2))))),
                 text)


def _seeded_scalars(seed, count):
    """format_scalar output for scalars whose symbol coefficients are
    0 or +-1, the ones the reference reads."""
    rng = random.Random(seed)
    for _ in range(count):
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        sym = {"s": rng.choice([-1, 0, 1]), "u": rng.choice([-1, 0, 0, 1])}
        yield format_scalar(ExactScalar(q, b, sym))


def _family():
    base = [("scalar", lit) for lit in _SCALARS]
    base += [("scalar", lit) for lit in _seeded_scalars(0, 60)]
    base += [("polynomial", lit) for lit in _POLYS]
    base += [("monopole", lit) for lit in _MONOPOLES]
    seen = set()
    for kind, lit in base:
        for v in _variants(lit):
            if (kind, v) not in seen:
                seen.add((kind, v))
                yield kind, v
    yield from _NOW_REJECTED


def _read(kind, text, table, readers):
    if kind == "scalar":
        return readers[0](text, table)
    if kind == "polynomial":
        return readers[1](text, 2)
    return readers[2](text, 2)


def _parse_poly(text, rank):
    """The polynomial literal text, read as the coefficient of r[0,..,0]."""
    return parse_monopole("(%s)*r[%s]" % (text, ",".join("0" * rank)), rank)


def _ref_parse_poly_at_zero(text, rank):
    return MonopoleElement({(0,) * rank: _ref_parse_poly(text, rank)})


def test_one_grammar_reads_what_the_former_readers_read():
    new, ref = (parse_scalar, _parse_poly, parse_monopole), \
        (_ref_parse_scalar, _ref_parse_poly_at_zero, _ref_parse_monopole)
    t_new, t_ref = SymbolTable(), SymbolTable()
    compared, rejected = 0, []
    for kind, text in _family():
        try:
            want = _read(kind, text, t_ref, ref)
        except ValueError:
            continue
        try:
            got = _read(kind, text, t_new, new)
        except ValueError:
            rejected.append((kind, text))
            continue
        assert got == want, (kind, text)
        compared += 1
    assert rejected == _NOW_REJECTED
    assert t_new.entries == t_ref.entries
    # the variants reach every reader: spaced, signed and decimal forms
    assert compared > 300


def test_decimals_and_unary_signs_are_read_everywhere():
    x1 = Polynomial.variable("x1")
    assert _parse_poly("0.5*x1", 1) == _parse_poly("1/2*x1", 1) == \
        MonopoleElement({(0,): Fraction(1, 2) * x1})
    assert _parse_poly("x1+-2", 1) == _parse_poly("--x1-2", 1) == \
        MonopoleElement({(0,): x1 - 2})
    assert parse_monopole("0.5*r[1]", 1) == parse_monopole("1/2*r[1]", 1)
    assert parse_monopole("-x1*-r[1]", 1) == parse_monopole("x1*r[1]", 1)
    assert parse_scalar("2*sym:s-1/2*sym:s") == ExactScalar(0, 0, {"s": Fraction(3, 2)})
