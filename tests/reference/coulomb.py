"""The Coulomb layer as it was: the factor loops (those that take
``seen`` count the branches they take), a matter weight's form built on
every call, the two-product quotient, the ExactScalar evaluators of a
weight module, the Fraction coset keys and the all-starts res_support
walk (with its zero test on those evaluators and a walk length read off
the data), the two-pass hamiltonian_reduce grouping, the one-element-per-term
mul fold; and a BFN product of its own on dense exponent dicts."""

from fractions import Fraction

from klrwcb.coulomb import (MatterNotInvariantError, MonopoleElement,
                            UniversalWeightModule, d, _forms, _nonzero_coweight,
                            _relation_factors)
from klrwcb.poly import (HBAR, ONE_POLY, Polynomial, RationalFunction, as_poly,
                         coefficient)
from klrwcb.scalars import ExactScalar, as_scalar, is_integral, row_reduce

h = Polynomial.variable(HBAR)


def relation_coefficient(theory, xi, nu, seen):
    # prod over <mu,xi> > 0 > <mu,nu> of prod_{j=1}^{d} (mu + (<mu,xi>-j) h),
    # over <mu,xi> < 0 < <mu,nu> of prod_{j=0}^{d-1} (mu + (<mu,xi>+j) h)
    out = ONE_POLY
    for mu in theory.matter:
        a, b = mu.pair(xi), mu.pair(nu)
        if a > 0 > b:
            seen["a>0>b"] += 1
            for j in range(1, d(a, b) + 1):
                out = out * (mu.form() + (a - j) * h)
        elif a < 0 < b:
            seen["a<0<b"] += 1
            for j in range(0, d(a, b)):
                out = out * (mu.form() + (a + j) * h)
    return out


def inv_monopole(xi, nu, theory, seen):
    target = tuple(n - x for n, x in zip(nu, xi))
    den = []
    for mu in theory.matter:
        a, b = mu.pair(xi), mu.pair(target)
        if a > 0 > b:
            seen["a>0>b"] += 1
            for j in range(1, d(a, b) + 1):
                den.append((mu.form() - j * h, 1))
        elif a < 0 < b:
            seen["a<0<b"] += 1
            for j in range(0, d(a, b)):
                den.append((mu.form() + j * h, 1))
    return MonopoleElement({target: RationalFunction(ONE_POLY, den)})


def forget_matter(a, indices, theory):
    out = {}
    for nu, coeff in a.terms.items():
        factor = ONE_POLY
        for i in indices:
            mu = theory.matter[i]
            p = mu.pair(nu)
            if p < 0:
                for j in range(p, 0):
                    factor = factor * (mu.form() + j * h)
        out[nu] = coeff * RationalFunction.of(factor)
    return MonopoleElement(out)


def phi0(lam, lam_prime, theory, seen, matter_indices=None):
    out = ONE_POLY
    indices = range(len(theory.matter)) if matter_indices is None else matter_indices
    for i in indices:
        mu = theory.matter[i]
        drop = mu.pair(lam) - mu.pair(lam_prime)
        skip = mu.pair(lam_prime)
        for j in range(1, -drop + 1):
            if j == skip:
                seen["skip"] += 1
                continue
            out = out * (mu.form(hbar=1) - j)
    return out


def kappa(lam, xi, theory):
    num = ONE_POLY
    den = []
    for mu in theory.matter:
        if mu.pair(xi) >= 0:
            continue
        p = mu.pair(lam)
        if p > 0:
            for j in range(1, p):
                num = num * (mu.form(hbar=1) - j)
        else:
            for j in range(0, -p):
                den.append((mu.form(hbar=1) + j, 1))
    return RationalFunction(num, den)


def phi0_prime(nu, nu_prime, xi, theory, seen):
    inv_idx = [i for i, mu in enumerate(theory.matter) if mu.pair(xi) == 0]
    base = phi0(nu, nu_prime, theory, seen, inv_idx)
    num = ONE_POLY
    den = []
    for mu in theory.matter:
        if mu.pair(xi) >= 0:
            continue
        drop = mu.pair(nu) - mu.pair(nu_prime)
        skip_num = mu.pair(nu_prime)
        for j in range(1, -drop + 1):
            if j == skip_num:
                seen["skip"] += 1
                continue
            num = num * (mu.form(hbar=1) - j)
        skip_den = -mu.pair(nu_prime)
        for j in range(0, drop):
            if j == skip_den:
                seen["skip"] += 1
                continue
            den.append((mu.form(hbar=1) + j, 1))
    return RationalFunction(base * num, den)


def rxi_closed_form(xi, theory):
    """The former rxi_closed_form: the same loops, each product expanded."""
    first = second = ONE_POLY
    for mu in theory.matter:
        a = mu.pair(xi)
        if a > 0:
            for j in range(1, a + 1):
                first = first * (mu.form() - j * h)
            for j in range(0, a):
                second = second * (mu.form() + j * h)
        elif a < 0:
            for j in range(0, -a):
                first = first * (mu.form() + j * h)
            for j in range(1, -a + 1):
                second = second * (mu.form() - j * h)
    zero = tuple(0 for _ in xi)
    return (MonopoleElement({zero: RationalFunction.of(first)}),
            MonopoleElement({zero: RationalFunction.of(second)}))


def form(mu, hbar=None):
    """The former MatterWeight.form: the linear form built from the fields
    on every call; hbar=None keeps h symbolic."""
    coeffs = {("x%d" % (i + 1)): g for i, g in enumerate(mu.gauge) if g}
    const = mu.flavour_shift
    if hbar is None:
        if mu.hbar_shift:
            coeffs[HBAR] = coeffs.get(HBAR, 0) + mu.hbar_shift
    else:
        const = coefficient(const) + mu.hbar_shift * hbar
    return Polynomial.linear(coeffs, const)


def forms(pairs, hbar=None):
    """The former _forms: form(mu, hbar) + j h through Polynomial arithmetic."""
    step = Polynomial.variable(HBAR) if hbar is None else hbar
    return [form(mu, hbar) + j * step for mu, j in pairs]


def shift_map(xi, hbar=None):
    """The former _shift_map: x_i + xi_i h through Polynomial arithmetic."""
    step = Polynomial.variable(HBAR) if hbar is None else as_poly(Fraction(hbar))
    return {("x%d" % (i + 1)): Polynomial.variable("x%d" % (i + 1)) + n * step
            for i, n in enumerate(xi) if n}


def product(pairs, hbar=None):
    """The former _product: the forms through the constructor's list path."""
    return RationalFunction(ONE_POLY, [(f, -1) for f in _forms(pairs, hbar)])


def quotient(num, pairs, hbar=None):
    """The former _quotient: num times the function of the forms alone,
    built through the constructor's list path."""
    return RationalFunction.of(num) \
        * RationalFunction(ONE_POLY, [(f, 1) for f in _forms(pairs, hbar)])


def mul(a, b, theory):
    """The former mul: one element per (xi, nu) term, added to the running
    total with MonopoleElement.__add__."""
    total = MonopoleElement({})
    for xi, f in a.terms.items():
        shift = shift_map(xi)
        for nu, g in b.terms.items():
            coeff = f * g.substitute(shift) \
                * product(_relation_factors(theory.matter, xi, nu))
            total = total + MonopoleElement({tuple(x + n for x, n in zip(xi, nu)):
                                             coeff})
    return total


# -- the weight module --------------------------------------------------------


def mu_value(mu, point):
    """The former MatterWeight.evaluate: mu at a weight point (h = 1), every
    operation in ExactScalar."""
    total = mu.flavour_shift + mu.hbar_shift
    for g, p in zip(mu.gauge, point):
        total = total + as_scalar(p) * g
    return total


def transition_eigenvalues(nu_point, xi, theory):
    vals = []
    for mu in theory.matter:
        p = mu.pair(xi)
        base = mu_value(mu, nu_point)
        if p > 0:
            vals.extend(base - j for j in range(1, p + 1))
        elif p < 0:
            vals.extend(base + j for j in range(0, -p))
    return vals


def xi_negative(lam_point, xi, theory):
    for mu in theory.matter:
        p = mu.pair(xi)
        if p:
            value = mu_value(mu, lam_point)
            if is_integral(value) and (value.rational > 0) == (p > 0):
                return False
    return True


def action_factors(module, xi, nu):
    point = module.weight_of(tuple(n - x for n, x in zip(nu, xi)))
    return [mu_value(mu, point) + j for mu in module.theory.matter
            for j in range(mu.pair(xi), 0)]


def action_scalar(module, xi, nu):
    total = as_scalar(1)
    for f in action_factors(module, xi, nu):
        total = total * f
    return total


class Module(UniversalWeightModule):
    """A module whose action factors come from the former ExactScalar loop,
    for hamiltonian_reduce."""

    def action_factors(self, xi, nu):
        return action_factors(self, xi, nu)


def action_is_zero(module, xi, nu):
    """Some ExactScalar factor of r_xi . b_nu vanishes."""
    return any(not f for f in action_factors(module, xi, nu))


def walk_length(module, xi, margin=2):
    """A res_support walk length that passes every zero: along nu - t xi a
    matter weight mu with p = <mu, xi> < 0 and an integer value V at
    gamma0 + nu has its one vanishing factor at t = (-V) // |p|.  Every
    walk of a coset ends below its deepest active weight, and the maximum
    over all active nu bounds that of the deepest ones; plus one step to
    reach the zero, plus a margin."""
    zeros = [0]
    for nu in module.active:
        point = module.weight_of(nu)
        for mu in module.theory.matter:
            p = mu.pair(xi)
            value = mu_value(mu, point)
            if p < 0 and is_integral(value):
                zeros.append(int(-value.rational) // -p + 1)
    return max(zeros) + margin


def coset_key(nu, xi):
    """Canonical representative of nu + Z xi (as a tuple of Fractions)."""
    num = sum(a * b for a, b in zip(nu, xi))
    den = sum(b * b for b in xi)
    k = num // den if den else 0
    return tuple(Fraction(a - k * b) for a, b in zip(nu, xi))


def steps_between(top, bottom, xi):
    for i, x in enumerate(xi):
        if x:
            return (top[i] - bottom[i]) // x


def line_coset_key(nu, xi):
    num = Fraction(sum(a * b for a, b in zip(nu, xi)))
    den = Fraction(sum(b * b for b in xi))
    t = num / den
    return tuple(Fraction(a) - t * b for a, b in zip(nu, xi))


def res_support(module, xi, extension):
    """The former res_support: every active weight of a coset is walked
    down to deepest - (extension - 1) xi, until one sees no zero."""
    chains = {}
    for nu in module.active:
        chains.setdefault(coset_key(nu, xi), []).append(nu)
    result = {}
    for key, nus in chains.items():
        nus.sort(key=lambda nu: sum(a * b for a, b in zip(nu, xi)), reverse=True)
        deepest = nus[-1]
        result[key] = 0
        for start in nus:
            nu = start
            for _ in range(steps_between(start, deepest, xi) + extension):
                if action_is_zero(module, xi, nu):
                    break
                nu = tuple(a - b for a, b in zip(nu, xi))
            else:
                result[key] = 1
                break
    return result


def hamiltonian_reduce(module, xi):
    """The former hamiltonian_reduce: the active weights grouped by line
    with Fraction keys, then each line regrouped by Z xi-coset."""
    xi = _nonzero_coweight(xi, module)
    for mu in module.theory.matter:
        if mu.pair(xi) != 0:
            raise MatterNotInvariantError("matter weight %r pairs to %s"
                                          % (mu, mu.pair(xi)))
    # group active weights by gamma mod C xi, i.e. nu mod Q xi
    classes = {}
    for nu in module.active:
        classes.setdefault(line_coset_key(nu, xi), []).append(nu)

    formula = {}
    oracle = {}
    for key, nus in classes.items():
        zcosets = {}
        for nu in nus:
            zcosets.setdefault(coset_key(nu, xi), []).append(nu)
        for chain in zcosets.values():
            depths = sorted(steps_between(nu, chain[0], xi) for nu in chain)
            if depths != list(range(depths[0], depths[0] + len(depths))):
                raise ValueError("active set has gaps along xi; truncate to a box")
        formula[key] = len(zcosets)
        # oracle: dim of span(b_nu) / span{(r_xi - 1) b_nu : nu, nu-xi active}
        index = {nu: i for i, nu in enumerate(sorted(nus))}
        rows = []
        active = set(nus)
        for nu in nus:
            target = tuple(a - b for a, b in zip(nu, xi))
            if target in active:
                row = [Fraction(0)] * len(index)
                c = module.action_scalar(xi, nu)
                if type(c) is ExactScalar:
                    raise ArithmeticError("non-rational transition scalar")
                row[index[target]] += c
                row[index[nu]] -= 1
                rows.append(row)
        oracle[key] = len(index) - len(row_reduce(rows)[1])
    return formula, oracle


# -- a BFN product on exponent tuples over (x1..xr, h) to ExactScalars -------


def dense_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, ExactScalar(0)) + c
    return {m: c for m, c in out.items() if c}


def dense_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, ExactScalar(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def dense(poly, rank):
    names = ["x%d" % (i + 1) for i in range(rank)] + [HBAR]
    out = {}
    for mono, c in poly.terms.items():
        exps = dict(mono)
        out[tuple(exps.get(v, 0) for v in names)] = as_scalar(c)
    return out


def dense_shift(p, xi):
    # f(x) -> f(x + h xi)
    rank = len(xi)
    out = {}
    for m, c in p.items():
        term = {(0,) * rank + (m[rank],): c}
        for i in range(rank):
            unit = tuple(int(k == i) for k in range(rank))
            base = dense_add({unit + (0,): ExactScalar(1)},
                             {(0,) * rank + (1,): as_scalar(xi[i])})
            for _ in range(m[i]):
                term = dense_mul(term, base)
        out = dense_add(out, term)
    return out


def dense_product(a, b, theory, seen):
    out = {}
    for xi, f in a.items():
        for nu, g in b.items():
            coeff = dense_mul(dense_mul(f, dense_shift(g, xi)), dense(
                relation_coefficient(theory, xi, nu, seen), theory.rank))
            key = tuple(p + q for p, q in zip(xi, nu))
            out[key] = dense_add(out.get(key, {}), coeff)
    return {k: v for k, v in out.items() if v}


def dense_element(element, rank):
    out = {}
    for nu, coeff in element.terms.items():
        num, den = coeff._expanded()
        assert not den
        out[tuple(nu)] = dense(num, rank)
    return out
