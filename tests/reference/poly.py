"""The polynomial layer as it was: the fixpoint reduction, the expanded
RationalFunction, the ExactScalar-only evaluators and the former
substitute."""

from klrwcb.poly import ONE_POLY, Polynomial, _factor_key, as_poly
from klrwcb.scalars import as_scalar


def reduce_fixpoint(num, den):
    """The former fixpoint reduction: sweep the denominator factors until
    no division goes through."""
    den = dict(den)
    if not num:
        return num, {}
    changed = True
    while changed:
        changed = False
        for key, (f, e) in list(den.items()):
            while e > 0:
                try:
                    num = num.divide_exact(f)
                except ArithmeticError:
                    break
                e -= 1
                changed = True
            if e:
                den[key] = (f, e)
            else:
                del den[key]
    return num, den


class ExpandedRationalFunction:
    """The former RationalFunction, kept as the reference: an expanded
    numerator over a dict of denominator factors, reduced by one pass of
    exact trial division after every operation."""

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
        raise AttributeError("immutable")

    def _reduce(self):
        num = self.num
        den = dict(self.den)
        if not num:
            object.__setattr__(self, "den", {})
            return
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
        if isinstance(x, ExpandedRationalFunction):
            return x
        return ExpandedRationalFunction(as_poly(x))

    def den_poly(self):
        p = ONE_POLY
        for f, e in self.den.values():
            p = p * f ** e
        return p

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = ExpandedRationalFunction.of(other)
        return (self.num * other.den_poly()) == (other.num * self.den_poly())

    def __mul__(self, other):
        other = ExpandedRationalFunction.of(other)
        den = [(f, e) for f, e in self.den.values()]
        den += [(f, e) for f, e in other.den.values()]
        return ExpandedRationalFunction(self.num * other.num, den)

    def __neg__(self):
        return ExpandedRationalFunction(-self.num, list(self.den.values()))

    def __add__(self, other):
        other = ExpandedRationalFunction.of(other)
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
        return ExpandedRationalFunction(num1 + num2, list(all_factors.values()))

    def __sub__(self, other):
        return self + (-ExpandedRationalFunction.of(other))

    def substitute(self, mapping):
        return ExpandedRationalFunction(self.num.substitute(mapping),
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


def evaluate(p, point):
    """The former Polynomial.evaluate: every operation in ExactScalar."""
    total = as_scalar(0)
    for m, c in p.terms.items():
        val = c
        for v, e in m:
            if v not in point:
                raise KeyError("no value for %r" % v)
            base = as_scalar(point[v])
            for _ in range(e):
                val = val * base
        total = total + val
    return total


def value_at(pairs, point):
    out = as_scalar(1)
    for f, e in pairs:
        v = evaluate(f, point)
        for _ in range(e):
            out = out * v
    return out


def rf_evaluate(r, point):
    """The former RationalFunction.evaluate, on evaluate above."""
    factors = r.factors.values()
    try:
        return evaluate(r.poly, point) \
            * value_at([(f, e) for f, e in factors if e > 0], point) \
            / value_at([(f, -e) for f, e in factors if e < 0], point)
    except ArithmeticError:
        num, den = r._expanded()
    d = value_at(den.values(), point)
    if not d:
        raise ZeroDivisionError("denominator vanishes at %r" % (point,))
    return evaluate(num, point) / d


def substitute(p, mapping):
    """The former Polynomial.substitute: each monomial multiplied out as
    c * prod base^e, unmapped variables included, and summed."""
    out = Polynomial({})
    for m, c in p.terms.items():
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
