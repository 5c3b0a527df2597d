"""The three hand-written literal readers that the one grammar replaced,
kept verbatim: parse_scalar, parse_poly and parse_monopole."""

import re
from fractions import Fraction

from klrwcb.coulomb import MonopoleElement
from klrwcb.poly import HBAR, ONE_POLY, Polynomial, RationalFunction
from klrwcb.scalars import ExactScalar, ScalarParseError


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


def parse_poly(text, rank):
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


def parse_monopole(text, rank):
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
        coeff = parse_poly(rest, rank) if rest else ONE_POLY
        total = total + MonopoleElement({nu: RationalFunction.of(
            Fraction(sign) * coeff)})
    return total


def parse_poly_at_zero(text, rank):
    return MonopoleElement({(0,) * rank: parse_poly(text, rank)})
