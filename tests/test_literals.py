"""The one literal grammar against the three readers it replaced.

The former hand-written readers are kept verbatim in reference.literals
(``parse_scalar``, ``parse_poly`` and ``parse_monopole``).  On a seeded
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
from klrwcb.poly import Polynomial
from klrwcb.scalars import ExactScalar, SymbolTable, format_scalar, parse_scalar

from reference import literals

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


def test_one_grammar_reads_what_the_former_readers_read():
    new, ref = (parse_scalar, _parse_poly, parse_monopole), \
        (literals.parse_scalar, literals.parse_poly_at_zero,
         literals.parse_monopole)
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
