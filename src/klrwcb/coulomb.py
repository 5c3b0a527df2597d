"""The abelian Coulomb branch algebra of a torus gauge theory.

Basis elements r_nu are indexed by coweights nu in Z^r, with coefficients
that are rational functions in x_1..x_r and the loop parameter h.  The
product is fixed by the commutation rule  r_xi f(x) = f(x + h xi) r_xi
together with the explicit relation

  r_xi r_nu = prod_{<mu,xi> > 0 > <mu,nu>} prod_{j=1}^{d} (mu + (<mu,xi>-j) h)
            * prod_{<mu,xi> < 0 < <mu,nu>} prod_{j=0}^{d-1} (mu + (<mu,xi>+j) h)
            * r_{xi+nu},

where mu runs over the matter weights with multiplicity and d counts the
sign changes.  Weight modules specialize h = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .poly import HBAR, ONE_POLY, Polynomial, RationalFunction, as_poly
from .scalars import ExactScalar, as_scalar, row_reduce


class BadCocharacterError(ValueError):
    pass


class MatterNotInvariantError(ValueError):
    pass


@dataclass(frozen=True)
class MatterWeight:
    gauge: tuple                    # integer vector, length = rank
    flavour_shift: ExactScalar = None
    hbar_shift: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "gauge", tuple(int(g) for g in self.gauge))
        object.__setattr__(self, "flavour_shift",
                           as_scalar(self.flavour_shift or 0))
        object.__setattr__(self, "hbar_shift", Fraction(self.hbar_shift))

    def pair(self, nu):
        """Pairing with a gauge coweight."""
        return sum(g * n for g, n in zip(self.gauge, nu))

    def form(self, hbar=None):
        """The linear form mu as a polynomial; hbar=None keeps h symbolic,
        otherwise h is specialized."""
        coeffs = {("x%d" % (i + 1)): g for i, g in enumerate(self.gauge) if g}
        const = self.flavour_shift
        if hbar is None:
            if self.hbar_shift:
                coeffs[HBAR] = coeffs.get(HBAR, 0) + self.hbar_shift
        else:
            const = const + self.hbar_shift * Fraction(hbar)
        return Polynomial.linear(coeffs, const)

    def evaluate(self, point, hbar=1):
        """mu at a weight point (tuple of scalars), h specialized."""
        total = self.flavour_shift + self.hbar_shift * Fraction(hbar)
        for g, p in zip(self.gauge, point):
            total = total + as_scalar(p) * g
        return total

    def dual(self):
        return MatterWeight(tuple(-g for g in self.gauge), -self.flavour_shift,
                            -self.hbar_shift)


@dataclass
class TorusTheory:
    rank: int
    matter: list = field(default_factory=list)

    def __post_init__(self):
        self.matter = [m if isinstance(m, MatterWeight) else MatterWeight(*m)
                       for m in self.matter]
        for m in self.matter:
            if len(m.gauge) != self.rank:
                raise ValueError("matter weight %r has wrong rank" % (m,))

    def without(self, indices):
        keep = [m for i, m in enumerate(self.matter) if i not in set(indices)]
        return TorusTheory(self.rank, keep)

    def dualized(self, indices):
        out = [m.dual() if i in set(indices) else m
               for i, m in enumerate(self.matter)]
        return TorusTheory(self.rank, out)


def d(a, b):
    """0 when a,b share a sign (zero counts as either), else min(|a|,|b|)."""
    if a >= 0 and b >= 0:
        return 0
    if a <= 0 and b <= 0:
        return 0
    return min(abs(a), abs(b))


def relation_coefficient(theory, xi, nu):
    """The Gelfand-Tsetlin coefficient of r_{xi+nu} in r_xi r_nu."""
    out = ONE_POLY
    h = Polynomial.variable(HBAR)
    for mu in theory.matter:
        a, b = mu.pair(xi), mu.pair(nu)
        if a > 0 > b:
            for j in range(1, d(a, b) + 1):
                out = out * (mu.form() + (a - j) * h)
        elif a < 0 < b:
            for j in range(0, d(a, b)):
                out = out * (mu.form() + (a + j) * h)
    return out


class MonopoleElement:
    """Finite sum of rational-function coefficients times r_nu."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for nu, coeff in terms.items():
                coeff = RationalFunction.of(coeff)
                if coeff:
                    clean[tuple(int(n) for n in nu)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MonopoleElement is immutable")

    @staticmethod
    def r(nu, coeff=1):
        return MonopoleElement({tuple(nu): RationalFunction.of(as_poly(coeff))})

    @staticmethod
    def zero():
        return MonopoleElement({})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MonopoleElement):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[nu] == other.terms[nu] for nu in self.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for nu, c in other.terms.items():
            s = terms.get(nu)
            s = c if s is None else s + c
            if s:
                terms[nu] = s
            else:
                terms.pop(nu, None)
        return MonopoleElement(terms)

    def __neg__(self):
        return MonopoleElement({nu: -c for nu, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        coeff = RationalFunction.of(coeff)
        return MonopoleElement({nu: c * coeff for nu, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for nu in sorted(self.terms):
            bits.append("(%r)*r%s" % (self.terms[nu], list(nu)))
        return " + ".join(bits)


def _shift_map(xi, hbar=None):
    """x_i -> x_i + xi_i * h (or + xi_i when h is specialized to 1)."""
    h = Polynomial.variable(HBAR) if hbar is None else as_poly(Fraction(hbar))
    return {("x%d" % (i + 1)): Polynomial.variable("x%d" % (i + 1)) + n * h
            for i, n in enumerate(xi) if n}


def mul(a, b, theory):
    """Product in the abelian Coulomb branch algebra."""
    total = MonopoleElement.zero()
    for xi, f in a.terms.items():
        for nu, g in b.terms.items():
            coeff = f * g.substitute(_shift_map(xi)) \
                * RationalFunction.of(relation_coefficient(theory, xi, nu))
            total = total + MonopoleElement({tuple(x + n for x, n in zip(xi, nu)):
                                             coeff})
    return total


def inv_monopole(xi, nu, theory):
    """The element r_xi^{-1} r_nu of the localization."""
    xi, nu = tuple(xi), tuple(nu)
    target = tuple(n - x for n, x in zip(nu, xi))
    num = ONE_POLY
    den = []
    h = Polynomial.variable(HBAR)
    for mu in theory.matter:
        a, b = mu.pair(xi), mu.pair(target)
        if a > 0 > b:
            for j in range(1, d(a, b) + 1):
                den.append((mu.form() - j * h, 1))
        elif a < 0 < b:
            for j in range(0, d(a, b)):
                den.append((mu.form() + j * h, 1))
    return MonopoleElement({target: RationalFunction(num, den)})


def rxi_pairing(xi, theory):
    """(r_{-xi} r_xi, r_xi r_{-xi}) computed through mul."""
    xi = tuple(xi)
    neg = tuple(-x for x in xi)
    return (mul(MonopoleElement.r(neg), MonopoleElement.r(xi), theory),
            mul(MonopoleElement.r(xi), MonopoleElement.r(neg), theory))


def rxi_closed_form(xi, theory):
    """The two closed-form products for r_{-xi} r_xi and r_xi r_{-xi}."""
    xi = tuple(xi)
    h = Polynomial.variable(HBAR)
    first = ONE_POLY
    second = ONE_POLY
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


def forget_matter(a, indices, theory):
    """Image under the embedding that forgets the listed matter weights:
    r_nu picks up prod_{<mu,nu><0} prod_{j=<mu,nu>}^{-1} (mu + j h)."""
    h = Polynomial.variable(HBAR)
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


def fourier(a, indices, wp, theory):
    """Fourier transform dualizing the listed matter weights.

    wp is a coweight of the full torus acting with weight 1 on the listed
    matter and 0 on the rest: here a rational vector paired against the
    gauge charges (extending by flavour data is the caller's business)."""
    idx = set(indices)
    for i, mu in enumerate(theory.matter):
        want = 1 if i in idx else 0
        if mu.pair(wp) != want:
            raise BadCocharacterError(
                "cocharacter pairs to %s with weight %d, expected %d"
                % (mu.pair(wp), i, want))
    shift = _shift_map(wp)
    out = {}
    for nu, coeff in a.terms.items():
        delta = sum(theory.matter[i].pair(nu) for i in idx
                    if theory.matter[i].pair(nu) > 0)
        sign = -1 if delta % 2 else 1
        out[nu] = coeff.substitute(shift) * RationalFunction.of(as_poly(sign))
    return MonopoleElement(out)


# -- closed-form scalars Phi_0, kappa, Phi_0' (h specialized to 1) ----------


def phi0(lam, lam_prime, theory, matter_indices=None):
    """prod_mu prod_{j=1..-<mu,lam-lam'>, j != <mu,lam'>} (mu - j)."""
    out = ONE_POLY
    indices = range(len(theory.matter)) if matter_indices is None else matter_indices
    for i in indices:
        mu = theory.matter[i]
        drop = mu.pair(lam) - mu.pair(lam_prime)
        skip = mu.pair(lam_prime)
        for j in range(1, -drop + 1):
            if j == skip:
                continue
            out = out * (mu.form(hbar=1) - j)
    return out


def kappa(lam, xi, theory):
    """Product over matter with <mu,xi> < 0 of the climbing factors at lam."""
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


def phi0_prime(nu, nu_prime, xi, theory):
    """Phi_0 of the xi-invariant matter times the <mu,xi> < 0 correction."""
    inv_idx = [i for i, mu in enumerate(theory.matter) if mu.pair(xi) == 0]
    base = phi0(nu, nu_prime, theory, inv_idx)
    num = ONE_POLY
    den = []
    for mu in theory.matter:
        if mu.pair(xi) >= 0:
            continue
        drop = mu.pair(nu) - mu.pair(nu_prime)
        skip_num = mu.pair(nu_prime)
        for j in range(1, -drop + 1):
            if j == skip_num:
                continue
            num = num * (mu.form(hbar=1) - j)
        skip_den = -mu.pair(nu_prime)
        for j in range(0, drop):
            if j == skip_den:
                continue
            den.append((mu.form(hbar=1) + j, 1))
    return RationalFunction(base * num, den)


def elprime_identity_holds(nu, nu_prime, xi, theory):
    """The twisted-functor identity behind phi0_prime:
    Phi_0'(nu,nu') * shift_{nu-nu'}(kappa_nu) == Phi_0^{inv}(nu,nu') * kappa_{nu'}
    as rational functions (h = 1)."""
    eta = tuple(a - b for a, b in zip(nu, nu_prime))
    shift = {("x%d" % (i + 1)): Polynomial.variable("x%d" % (i + 1)) + n
             for i, n in enumerate(eta) if n}
    lhs = phi0_prime(nu, nu_prime, xi, theory) * kappa(nu, xi, theory).substitute(shift)
    inv_idx = [i for i, mu in enumerate(theory.matter) if mu.pair(xi) == 0]
    rhs = RationalFunction.of(phi0(nu, nu_prime, theory, inv_idx)) \
        * kappa(nu_prime, xi, theory)
    return lhs == rhs


# -- xi-negativity and transition eigenvalues -------------------------------


def _positive_integer(s):
    s = as_scalar(s)
    return s.is_rational and s.rational.denominator == 1 and s.rational > 0


def _nonpositive_integer(s):
    s = as_scalar(s)
    return s.is_rational and s.rational.denominator == 1 and s.rational <= 0


def xi_negative(lam_point, xi, theory, stabilizer_ok=True):
    """No positive-pairing weight hits a positive integer at lam, no
    negative-pairing weight hits a non-positive integer, and the stabilizer
    condition (trivially true in the abelian case) holds."""
    if not stabilizer_ok:
        return False
    for mu in theory.matter:
        p = mu.pair(xi)
        if p > 0 and _positive_integer(mu.evaluate(lam_point)):
            return False
        if p < 0 and _nonpositive_integer(mu.evaluate(lam_point)):
            return False
    return True


def transition_eigenvalues(nu_point, xi, theory):
    """Eigenvalues of r_{-xi} r_xi on the weight space at nu_point (h=1)."""
    vals = []
    for mu in theory.matter:
        p = mu.pair(xi)
        base = mu.evaluate(nu_point)
        if p > 0:
            vals.extend(base - j for j in range(1, p + 1))
        elif p < 0:
            vals.extend(base + j for j in range(0, -p))
    return vals


def transition_invertible(nu_point, xi, theory):
    return all(bool(v) for v in transition_eigenvalues(nu_point, xi, theory))


# -- universal weight modules ------------------------------------------------


def _lowering_factors(theory, xi):
    """The linear factors of c_xi, with r_xi acting as c_xi(x) T_xi and
    T_xi lowering weights by xi; this is the factored form of the
    matter-forgetting map into the bare torus.  Returns (mu, j) pairs
    standing for the factor mu + j h."""
    out = []
    for mu in theory.matter:
        p = mu.pair(xi)
        if p < 0:
            out.extend((mu, j) for j in range(p, 0))
    return out


@dataclass
class UniversalWeightModule:
    """One basis vector b_nu of weight gamma0 + nu per active coweight.

    The Gelfand-Tsetlin algebra acts on b_nu by evaluation at gamma0 + nu
    (h = 1), and  r_xi . b_nu = c . b_{nu - xi}  with the structure scalar
    c = c_xi(gamma0 + nu - xi); the commutation rule r_xi f = f(x + h xi) r_xi
    forces this direction and evaluation point.
    """

    theory: TorusTheory
    gamma0: tuple
    active: set

    def __post_init__(self):
        self.gamma0 = tuple(as_scalar(g) for g in self.gamma0)
        self.active = {tuple(int(x) for x in nu) for nu in self.active}

    def weight_of(self, nu):
        return tuple(g + n for g, n in zip(self.gamma0, nu))

    def action_factors(self, xi, nu):
        """The evaluated linear factors of the structure scalar of
        r_xi . b_nu = scalar * b_{nu - xi} (h = 1)."""
        xi, nu = tuple(xi), tuple(nu)
        point = self.weight_of(tuple(n - x for n, x in zip(nu, xi)))
        return [mu.evaluate(point) + j for mu, j in
                _lowering_factors(self.theory, xi)]

    def action_is_zero(self, xi, nu):
        return any(not f for f in self.action_factors(xi, nu))

    def action_scalar(self, xi, nu):
        """r_xi . b_nu = scalar * b_{nu - xi}; with symbolic weights the
        product may not be expressible as a single scalar, in which case
        multiplying the factors raises."""
        total = as_scalar(1)
        for f in self.action_factors(xi, nu):
            total = total * f
        return total


def module_action(module, xi, nu):
    """Structure scalar of r_xi on b_nu (target b_{nu - xi})."""
    if tuple(nu) not in module.active:
        raise KeyError("inactive weight %r" % (nu,))
    return module.action_scalar(xi, nu)


def _coset_key(nu, xi):
    """Canonical representative of nu + Z xi (as a tuple of Fractions)."""
    num = sum(a * b for a, b in zip(nu, xi))
    den = sum(b * b for b in xi)
    k = num // den if den else 0
    return tuple(Fraction(a - k * b) for a, b in zip(nu, xi))


def res_support(module, xi, extension=None):
    """Direct-limit dimensions of the transition system along xi.

    For each Z xi-coset of active weights the chain b_nu -> b_{nu-xi} -> ...
    is extended analytically 2*(box diameter) steps beyond the deepest
    active element; the reported dimension is the stabilized rank: 1 when
    some active weight sees only nonzero transition scalars all the way
    down, else 0.
    """
    xi = tuple(xi)
    if not any(xi):
        raise ValueError("xi must be a nonzero coweight")
    chains = {}
    for nu in module.active:
        chains.setdefault(_coset_key(nu, xi), []).append(nu)
    if extension is None:
        diam = 0
        for i in range(len(xi)):
            coords = [nu[i] for nu in module.active]
            diam = max(diam, max(coords) - min(coords)) if coords else 0
        extension = 2 * diam + 2
    result = {}
    for key, nus in chains.items():

        def depth(nu):
            return sum(a * b for a, b in zip(nu, xi))

        nus.sort(key=depth, reverse=True)
        deepest = nus[-1]
        dim = 0
        for start in nus:
            ok = True
            nu = start
            for _ in range(_steps_between(start, deepest, xi) + extension):
                if module.action_is_zero(xi, nu):
                    ok = False
                    break
                nu = tuple(a - b for a, b in zip(nu, xi))
            if ok:
                dim = 1
                break
        result[key] = dim
    return result


def _steps_between(top, bottom, xi):
    for i, x in enumerate(xi):
        if x:
            return (top[i] - bottom[i]) // x
    return 0


def hamiltonian_reduce(module, xi):
    """Weight dimensions of M/(r_xi - 1)M for xi acting trivially on matter.

    Returns (formula, oracle): both map the projected weight (a canonical
    representative of gamma mod C xi) to a dimension; the formula counts
    occupied Z xi-cosets, the oracle runs exact linear algebra on the
    truncated relation matrix.  They must agree.
    """
    xi = tuple(xi)
    for mu in module.theory.matter:
        if mu.pair(xi) != 0:
            raise MatterNotInvariantError("matter weight %r pairs to %s"
                                          % (mu, mu.pair(xi)))
    # group active weights by gamma mod C xi, i.e. nu mod Q xi
    classes = {}
    for nu in module.active:
        classes.setdefault(_line_coset_key(nu, xi), []).append(nu)

    formula = {}
    oracle = {}
    for key, nus in classes.items():
        zcosets = {}
        for nu in nus:
            zcosets.setdefault(_coset_key(nu, xi), []).append(nu)
        for chain in zcosets.values():
            depths = sorted(_steps_between(nu, chain[0], xi) for nu in chain)
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
                if not c.is_rational:
                    raise ArithmeticError("non-rational transition scalar")
                row[index[target]] += c.rational
                row[index[nu]] -= 1
                rows.append(row)
        oracle[key] = len(index) - len(row_reduce(rows)[1])
    return formula, oracle


def _line_coset_key(nu, xi):
    num = Fraction(sum(a * b for a, b in zip(nu, xi)))
    den = Fraction(sum(b * b for b in xi))
    t = num / den
    return tuple(Fraction(a) - t * b for a, b in zip(nu, xi))


def gk_dim(pieces):
    """Max rank of the lattice generator sets presenting the support."""
    best = 0
    for generators, _base in pieces:
        best = max(best, len(row_reduce(generators)[1]))
    return best
