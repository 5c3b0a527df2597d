"""The scalar layer as it was: ExactScalar fields built the former way,
the former integral-difference rule and the former real_keys."""

from fractions import Fraction

from klrwcb.scalars import AmbiguousOrderError, as_scalar


def fields(rational=0, imaginary=0, symbolic=None):
    """The fields the former ExactScalar.__init__ stored: every part passed
    through Fraction(), the nonzero symbol coefficients gathered in a dict
    and sorted."""
    sym = {}
    if symbolic:
        for name, coeff in symbolic.items():
            c = Fraction(coeff)
            if c:
                sym[name] = c
    return Fraction(rational), Fraction(imaginary), tuple(sorted(sym.items()))


def add(a, b):
    sym = dict(a[2])
    for name, c in b[2]:
        sym[name] = sym.get(name, Fraction(0)) + c
    return fields(a[0] + b[0], a[1] + b[1], sym)


def neg(a):
    return fields(-a[0], -a[1], {n: -c for n, c in a[2]})


def mul(a, b):
    if b[2]:
        a, b = b, a
    if b[2]:
        raise ValueError
    q = b[0]
    if not b[1]:
        return fields(a[0] * q, a[1] * q, {n: c * q for n, c in a[2]})
    if a[2]:
        raise ValueError
    return fields(a[0] * q - a[1] * b[1], a[0] * b[1] + a[1] * q)


def coset_rep(a):
    q = a[0]
    return fields(q - q.numerator // q.denominator, a[1], dict(a[2]))


def integral_difference(a, b):
    """The former rule, which formed the difference of the rational parts."""
    return (a.imaginary == b.imaginary and a.symbolic == b.symbolic
            and (a.rational - b.rational).denominator == 1)


def real_keys(values, table=None):
    """The former real_keys: Fraction keys, the rational parts or the
    shadow values."""
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
