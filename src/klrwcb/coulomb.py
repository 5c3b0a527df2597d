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

Every structure constant here is a product of linear forms mu + j h, and
one factor rule makes them all: ``_relation_factors`` (the relation above)
and ``_lowering_factors`` (the matter-forgetting map) list (mu, j) pairs,
and ``_forms`` alone turns pairs into forms, with h symbolic or specialized,
each from the term dict of mu's form, which a matter weight builds once,
when it is made.  ``mul`` builds the shift map x -> x + h xi once per xi of
its left operand, each x_i + xi_i h from a term dict.  The coefficient of
each term f r_xi times g r_nu is one RationalFunction, built from the
merged factors of f, of g(x + h xi) and of the relation coefficient; the
terms add into one dict keyed by xi + nu, so the element is built once, at
the end.  ``_product`` and ``_quotient`` merge their forms straight into a
factor dict and build one RationalFunction each.  Forms stay factors,
never expanded: coefficients multiply, cancel and compare factor by
factor, and are expanded only when printed.  ``_values`` gives the forms'
values at a weight (h = 1), without building the forms, in
``poly.coefficient``'s normal form.  Theories and weight modules are
frozen values: a module pairs its matter with gamma0 once, when it is
made.  Integer coordinates (gauge vectors, monopole keys, active
coweights, a coweight xi) are checked, not truncated.  The module side
groups the active weights into Z xi-cosets once, in ints (``_chains``),
for ``hamiltonian_reduce`` and for ``res_support``, which decides each
coset's support in closed form from its deepest active weight.
``rxi_closed_form`` writes its factors out by hand on purpose: it is the
independent oracle that the monopole suite checks ``mul`` against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import mul as _times

from .poly import (HBAR, ONE_POLY, Polynomial, RationalFunction, _divide_out,
                   _Factors, _factor_key, _merge, as_poly, coefficient)
from .scalars import ExactScalar, as_scalar, row_reduce


class BadCocharacterError(ValueError):
    pass


class MatterNotInvariantError(ValueError):
    pass


def _integer(n, what, vector):
    """n as an int: an int, or a value equal to one such as Fraction(2); a
    ValueError naming the entry otherwise."""
    try:
        i = int(n)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != n:
        raise ValueError("%s %r has a non-integer entry %r" % (what, vector, n))
    return i


def _integer_vector(vector, what):
    """vector as a tuple of ints; an entry that is not an integer raises
    ValueError instead of being truncated."""
    vector = tuple(vector)
    for n in vector:
        if type(n) is not int:
            return tuple(_integer(n, what, vector) for n in vector)
    return vector


_H = ((HBAR, 1),)  # the monomial h, a form's h slot


@dataclass(frozen=True)
class MatterWeight:
    gauge: tuple                    # integer vector, length = rank
    flavour_shift: ExactScalar = None
    hbar_shift: Fraction = Fraction(0)
    # form() with h symbolic, built once
    _form: Polynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gauge", _integer_vector(self.gauge, "gauge vector"))
        object.__setattr__(self, "flavour_shift",
                           as_scalar(self.flavour_shift or 0))
        object.__setattr__(self, "hbar_shift", Fraction(self.hbar_shift))
        coeffs = {("x%d" % (i + 1)): g for i, g in enumerate(self.gauge) if g}
        if self.hbar_shift:
            coeffs[HBAR] = self.hbar_shift
        object.__setattr__(self, "_form",
                           Polynomial.linear(coeffs, self.flavour_shift))

    def pair(self, nu):
        """Pairing with a gauge coweight."""
        return sum(map(_times, self.gauge, nu))

    def _terms(self, hbar=None):
        """The term dict of form(hbar): the stored one with h symbolic (not
        to be changed), else a copy with hbar_shift * hbar folded into the
        constant."""
        if hbar is None:
            return self._form.terms
        terms = dict(self._form.terms)
        shift = terms.pop(_H, 0)
        const = coefficient(terms.pop((), 0) + shift * hbar)
        if const:
            terms[()] = const
        return terms

    def form(self, hbar=None):
        """The linear form mu as a polynomial; hbar=None keeps h symbolic,
        otherwise h is specialized."""
        return self._form if hbar is None else Polynomial(self._terms(hbar))

    def dual(self):
        return MatterWeight(tuple(-g for g in self.gauge), -self.flavour_shift,
                            -self.hbar_shift)


@dataclass(frozen=True)
class TorusTheory:
    rank: int
    matter: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("torus rank %d is negative" % self.rank)
        object.__setattr__(self, "matter", tuple(
            m if isinstance(m, MatterWeight) else MatterWeight(*m) for m in self.matter))
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


# -- the one factor rule: (mu, j) pairs stand for the linear form mu + j h --


def _relation_factors(matter, xi, nu):
    """The (mu, j) pairs of the coefficient of r_{xi+nu} in r_xi r_nu."""
    out = []
    for mu in matter:
        a, b = mu.pair(xi), mu.pair(nu)
        if a > 0 > b:
            out.extend((mu, a - j) for j in range(1, d(a, b) + 1))
        elif a < 0 < b:
            out.extend((mu, a + j) for j in range(d(a, b)))
    return out


def _lowering_factors(matter, xi):
    """The (mu, j) pairs j = <mu,xi> .. -1 over the matter with <mu,xi> < 0:
    the factors that the matter-forgetting map puts on r_xi, and those of
    c_xi when r_xi acts on a weight module as c_xi(x) T_xi."""
    return [(mu, j) for mu in matter for j in range(mu.pair(xi), 0)]


def _forms(pairs, hbar=None):
    """The linear forms mu + j h of (mu, j) pairs, in order; hbar=None keeps
    h symbolic, otherwise h is specialized to hbar.  Each form is mu's
    stored term dict (``MatterWeight._terms``) with j h added to the h slot
    (the constant slot when h is specialized).  Every caller lists the pairs
    of one matter weight together, so a specialized dict is folded once per
    run."""
    slot, step = (_H, 1) if hbar is None else ((), hbar)
    out = []
    last = form = None
    for mu, j in pairs:
        if mu is not last:
            last, form = mu, mu._terms(hbar)
        terms = dict(form)
        terms[slot] = terms.get(slot, 0) + j * step
        out.append(Polynomial(terms))
    return out


def _values(pairs, point):
    """The forms of pairs at a weight point (a tuple of scalars), h = 1, in
    ``coefficient``'s normal form: each run of one matter weight's pairs
    pairs it with the point once, and adding an integer j keeps the form."""
    out, last = [], None
    for mu, j in pairs:
        if mu is not last:
            last, base = mu, coefficient(sum(
                (g * coefficient(p) for g, p in zip(mu.gauge, point) if g),
                coefficient(mu.flavour_shift) + mu.hbar_shift))
        out.append(base + j)
    return out


def _product(pairs, hbar=None):
    """The product of the forms of pairs, kept factored: each form is merged
    into the factor dict as the constructor would merge it.  A form is zero
    only for a weight with no gauge part, which no caller lists; the product
    is then zero, as the constructor makes it."""
    factors = _Factors()
    for f in _forms(pairs, hbar):
        if not f:
            return RationalFunction(f)
        _merge(factors, _factor_key(f), f, 1)
    return RationalFunction(ONE_POLY, factors)


def _quotient(num, pairs, hbar=None):
    """num (a RationalFunction) over the forms of pairs, kept as denominator
    factors in order, built as one RationalFunction.  The forms are merged
    among themselves first, then into a copy of num's factors, so the
    factors come in the order of num times the function of the forms alone;
    merged one at a time, a form that cancels a numerator factor and comes
    back later would land in another place."""
    den = _Factors()
    for f in _forms(pairs, hbar):
        if not f:
            raise ZeroDivisionError("zero denominator factor")
        _merge(den, _factor_key(f), f, -1)
    factors = _Factors(num.factors)
    for key, (f, e) in den.items():
        _merge(factors, key, f, e)
    return RationalFunction(num.poly, factors)


_ONE = RationalFunction(ONE_POLY)


def relation_coefficient(theory, xi, nu):
    """The Gelfand-Tsetlin coefficient of r_{xi+nu} in r_xi r_nu."""
    return _product(_relation_factors(theory.matter, xi, nu))


class MonopoleElement:
    """Finite sum of rational-function coefficients times r_nu."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for nu, coeff in terms.items():
                coeff = RationalFunction.of(coeff)
                if coeff:
                    clean[_integer_vector(nu, "coweight")] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MonopoleElement is immutable")

    @staticmethod
    def r(nu):
        return MonopoleElement({tuple(nu): _ONE})

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
    """x_i -> x_i + xi_i * h (or + xi_i * hbar when h is specialized), each
    built from its term dict."""
    slot, step = (_H, 1) if hbar is None else ((), Fraction(hbar))
    out = {}
    for i, n in enumerate(xi):
        if n:
            v = "x%d" % (i + 1)
            out[v] = Polynomial({((v, 1),): 1, slot: n * step})
    return out


def mul(a, b, theory):
    """Product in the abelian Coulomb branch algebra.  The coefficient
    f(x) g(x + h xi) c of r_{xi+nu}, c the relation coefficient of (xi, nu),
    is built as one RationalFunction:
    - f's factors, then g's factors shifted.  The shift x -> x + h xi is
      invertible: it keeps g's factors apart, and none of them divides g's
      shifted poly, as none divided g's poly.  So g(x + h xi) is not built.
    - The product of the polys is trial-divided by those factors, as the
      product f g(x + h xi) would be.
    - Then c's factors are merged in.
    Each coefficient is added into one dict keyed by xi + nu, a sum that
    cancels is dropped, and the element is built from the dict at the
    end."""
    terms = {}
    for xi, f in a.terms.items():
        shift = _shift_map(xi)
        for nu, g in b.terms.items():
            factors = _Factors(f.factors)
            for p, e in g.factors.values():
                p = p.substitute(shift)
                _merge(factors, _factor_key(p), p, e)
            poly = f.poly * g.poly.substitute(shift)
            if factors:
                poly, factors = _divide_out(poly, factors)
            c = relation_coefficient(theory, xi, nu)
            for key, (p, e) in c.factors.items():
                _merge(factors, key, p, e)
            coeff = RationalFunction(poly * c.poly, factors)
            if not coeff:
                continue
            key = tuple(x + n for x, n in zip(xi, nu))
            s = terms.get(key)
            if s is not None:
                coeff = s + coeff
                if not coeff:
                    del terms[key]
                    continue
            terms[key] = coeff
    return MonopoleElement(terms)


def inv_monopole(xi, nu, theory):
    """The element r_xi^{-1} r_nu of the localization: one over the
    coefficient of r_nu in r_xi r_{nu-xi}, shifted by x -> x - h xi."""
    xi, nu = tuple(xi), tuple(nu)
    target = tuple(n - x for n, x in zip(nu, xi))
    den = [(mu, j - mu.pair(xi))
           for mu, j in _relation_factors(theory.matter, xi, target)]
    return MonopoleElement({target: _quotient(_ONE, den)})


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
    first, second = [], []
    for mu in theory.matter:
        a = mu.pair(xi)
        if a > 0:
            for j in range(1, a + 1):
                first.append(mu.form() - j * h)
            for j in range(0, a):
                second.append(mu.form() + j * h)
        elif a < 0:
            for j in range(0, -a):
                first.append(mu.form() + j * h)
            for j in range(1, -a + 1):
                second.append(mu.form() - j * h)
    zero = tuple(0 for _ in xi)
    return tuple(MonopoleElement({zero: RationalFunction(
        ONE_POLY, [(f, -1) for f in forms])}) for forms in (first, second))


def forget_matter(a, indices, theory):
    """Image under the embedding that forgets the listed matter weights:
    r_nu picks up prod_{<mu,nu><0} prod_{j=<mu,nu>}^{-1} (mu + j h)."""
    forgotten = [theory.matter[i] for i in indices]
    return MonopoleElement({
        nu: coeff * _product(_lowering_factors(forgotten, nu))
        for nu, coeff in a.terms.items()})


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
                "cocharacter %s pairs to %s with matter weight %d (gauge %s), "
                "expected %d" % (wp, mu.pair(wp), i, mu.gauge, want))
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
    indices = range(len(theory.matter)) if matter_indices is None else matter_indices
    pairs = []
    for i in indices:
        mu = theory.matter[i]
        drop = mu.pair(lam) - mu.pair(lam_prime)
        pairs.extend((mu, -j) for j in range(1, -drop + 1)
                     if j != mu.pair(lam_prime))
    return _product(pairs, hbar=1)


def kappa(lam, xi, theory):
    """Product over matter with <mu,xi> < 0 of the climbing factors at lam:
    prod_{j=1..<mu,lam>-1} (mu - j) over prod_{j=0..-<mu,lam>-1} (mu + j)."""
    matter = [mu for mu in theory.matter if mu.pair(xi) < 0]
    num = [(mu, -j) for mu in matter for j in range(1, mu.pair(lam))]
    den = [(mu, j) for mu in matter for j in range(-mu.pair(lam))]
    return _quotient(_product(num, hbar=1), den, hbar=1)


def phi0_prime(nu, nu_prime, xi, theory):
    """Phi_0 of the matter with <mu,xi> <= 0, over the <mu,xi> < 0
    correction prod_{j=0..<mu,nu-nu'>-1, j != -<mu,nu'>} (mu + j)."""
    indices = [i for i, mu in enumerate(theory.matter) if mu.pair(xi) <= 0]
    den = [(mu, j) for mu in theory.matter if mu.pair(xi) < 0
           for j in range(mu.pair(nu) - mu.pair(nu_prime))
           if j != -mu.pair(nu_prime)]
    return _quotient(phi0(nu, nu_prime, theory, indices), den, hbar=1)


def elprime_identity_holds(nu, nu_prime, xi, theory):
    """The twisted-functor identity behind phi0_prime:
    Phi_0'(nu,nu') * shift_{nu-nu'}(kappa_nu) == Phi_0^{inv}(nu,nu') * kappa_{nu'}
    as rational functions (h = 1)."""
    eta = tuple(a - b for a, b in zip(nu, nu_prime))
    shift = _shift_map(eta, hbar=1)
    lhs = phi0_prime(nu, nu_prime, xi, theory) * kappa(nu, xi, theory).substitute(shift)
    inv_idx = [i for i, mu in enumerate(theory.matter) if mu.pair(xi) == 0]
    rhs = phi0(nu, nu_prime, theory, inv_idx) * kappa(nu_prime, xi, theory)
    return lhs == rhs


# -- xi-negativity and transition eigenvalues -------------------------------


def _of_rank(what, vector, owner, rank):
    """vector as a tuple; a ValueError when its length is not rank."""
    vector = tuple(vector)
    if len(vector) != rank:
        raise ValueError("%s %r has wrong rank: the %s has rank %d"
                         % (what, vector, owner, rank))
    return vector


def _coweight(xi, owner, rank):
    """xi as a tuple of ints of the owner's rank (a ValueError otherwise)."""
    return _integer_vector(_of_rank("coweight", xi, owner, rank), "coweight")


def _nonzero_coweight(xi, module):
    """xi as a tuple of ints of the module's rank; a ValueError if it is 0."""
    xi = _coweight(xi, "module", module.theory.rank)
    if not any(xi):
        raise ValueError("xi must be a nonzero coweight")
    return xi


def xi_negative(lam_point, xi, theory):
    """No positive-pairing weight hits a positive integer at lam, and no
    negative-pairing weight hits a non-positive integer (the stabilizer
    condition is trivially true for a torus)."""
    lam_point = _of_rank("weight point", lam_point, "theory", theory.rank)
    xi = _coweight(xi, "theory", theory.rank)
    matter = [mu for mu in theory.matter if mu.pair(xi)]
    for mu, value in zip(matter, _values([(mu, 0) for mu in matter], lam_point)):
        if type(value) is int and (value > 0) == (mu.pair(xi) > 0):
            return False
    return True


def transition_eigenvalues(nu_point, xi, theory):
    """Eigenvalues of r_{-xi} r_xi on the weight space at nu_point (h=1):
    the factors of its relation coefficient, evaluated."""
    nu_point = _of_rank("weight point", nu_point, "theory", theory.rank)
    xi = _coweight(xi, "theory", theory.rank)
    neg = tuple(-x for x in xi)
    return _values(_relation_factors(theory.matter, neg, xi), nu_point)


def transition_invertible(nu_point, xi, theory):
    return all(bool(v) for v in transition_eigenvalues(nu_point, xi, theory))


# -- universal weight modules ------------------------------------------------


@dataclass(frozen=True)
class UniversalWeightModule:
    """One basis vector b_nu of weight gamma0 + nu per active coweight.

    The Gelfand-Tsetlin algebra acts on b_nu by evaluation at gamma0 + nu
    (h = 1), and  r_xi . b_nu = c . b_{nu - xi}  with the structure scalar
    c = c_xi(gamma0 + nu - xi); the commutation rule r_xi f = f(x + h xi) r_xi
    forces this direction and evaluation point.
    """

    theory: TorusTheory
    gamma0: tuple
    active: frozenset
    # (mu, mu at gamma0) per matter weight, paired once
    _at: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gamma0 = _of_rank("gamma0", tuple(coefficient(g) for g in self.gamma0),
                          "theory", self.theory.rank)
        matter = self.theory.matter
        object.__setattr__(self, "gamma0", gamma0)
        object.__setattr__(self, "active", frozenset(
            _integer_vector(nu, "active coweight") for nu in self.active))
        object.__setattr__(self, "_at", tuple(zip(
            matter, _values([(mu, 0) for mu in matter], gamma0))))

    def weight_of(self, nu):
        return tuple(g + n for g, n in zip(self.gamma0, nu))

    def action_factors(self, xi, nu):
        """The evaluated linear factors of the structure scalar of
        r_xi . b_nu = scalar * b_{nu - xi} (h = 1): at gamma0 + nu - xi,
        mu + j is mu at gamma0 plus the integer <mu, nu - xi> + j."""
        step = tuple(n - x for n, x in zip(nu, xi))
        return [base + (mu.pair(step) + j) for mu, base in self._at
                for j in range(mu.pair(xi), 0)]

    def action_scalar(self, xi, nu):
        """r_xi . b_nu = scalar * b_{nu - xi}; with symbolic weights the
        product may not be expressible as a single scalar, in which case
        multiplying the factors raises."""
        return coefficient(prod(self.action_factors(xi, nu)))


def _coset_key(nu, xi):
    """(key, k) with nu = key + k xi, in ints, for an integer coweight
    xi != 0: k = <nu, xi> // <xi, xi>, and key is the canonical
    representative of nu + Z xi, the one with 0 <= <key, xi> < <xi, xi>."""
    k = sum(map(_times, nu, xi)) // sum(b * b for b in xi)
    return tuple(a - k * b for a, b in zip(nu, xi)), k


def _chains(module, xi):
    """The active weights grouped by Z xi-coset: {key: {k: nu}} with
    nu = key + k xi (``_coset_key``), cosets in first-seen order."""
    chains = {}
    for nu in module.active:
        key, k = _coset_key(nu, xi)
        chains.setdefault(key, {})[k] = nu
    return chains


def res_support(module, xi):
    """Direct-limit dimensions of the transition system along xi, keyed by
    the coset representatives of ``_coset_key``: per Z xi-coset of active
    weights, the stabilized rank of the chain b_nu -> b_{nu-xi} -> ...
    extended beyond the box, 1 when some active weight sees only nonzero
    transition scalars all the way down, else 0.

    Every such chain runs through the coset's deepest active weight nu
    (least k), so the rank is decided there, in closed form.  Only a matter
    weight mu with p = <mu, xi> < 0 and an integer value b at gamma0 can
    give a zero factor: in r_xi . b_{nu - t xi} its factors take the values
    V + t |p| + c, c = 0 .. |p| - 1, with V = b + <mu, nu>.  The window
    moves up by its width |p| per step, so one factor vanishes at exactly
    one t, t = (-V) // |p|, and t >= 0 exactly when V <= 0.  So the
    dimension is 1 exactly when every such mu has V > 0: the
    negative-pairing half of ``xi_negative``, read at gamma0 + nu.
    """
    xi = _nonzero_coweight(xi, module)
    falling = [(mu, b) for mu, b in module._at
               if type(b) is int and mu.pair(xi) < 0]
    return {key: int(all(b + mu.pair(chain[min(chain)]) > 0 for mu, b in falling))
            for key, chain in _chains(module, xi).items()}


def hamiltonian_reduce(module, xi):
    """Weight dimensions of M/(r_xi - 1)M for xi acting trivially on matter.

    Returns (formula, oracle): both map the projected weight, the point
    nu - (<nu, xi> / <xi, xi>) xi of the line nu + Q xi (a tuple of
    Fractions), to a dimension.  The Z xi-cosets of ``_chains`` are grouped
    by line, lines in first-seen order.  The formula counts a line's
    cosets, each of which must have no gaps; the oracle runs exact linear
    algebra on the truncated relation matrix of the line's weights.  They
    must agree.
    """
    xi = _nonzero_coweight(xi, module)
    for mu in module.theory.matter:
        if mu.pair(xi) != 0:
            raise MatterNotInvariantError("matter weight %r pairs to %s"
                                          % (mu, mu.pair(xi)))
    # a coset key with <key, xi> = r lies on the line of key - (r / d) xi
    d = sum(b * b for b in xi)
    lines = {}
    for key, chain in _chains(module, xi).items():
        r = sum(map(_times, key, xi))
        lines.setdefault(tuple(Fraction(d * a - r * b, d) for a, b in zip(key, xi)),
                         []).append(chain)
    formula, oracle = {}, {}
    for line, chains in lines.items():
        for chain in chains:
            if max(chain) - min(chain) != len(chain) - 1:
                raise ValueError("active set has gaps along xi; truncate to a box")
        formula[line] = len(chains)
        # oracle: dim of span(b_nu) / span{(r_xi - 1) b_nu : nu, nu-xi active}
        nus = [nu for chain in chains for nu in chain.values()]
        index = {nu: i for i, nu in enumerate(sorted(nus))}
        rows = []
        for nu in nus:
            target = tuple(a - b for a, b in zip(nu, xi))
            if target in index:
                row = [0] * len(index)
                c = module.action_scalar(xi, nu)
                if type(c) is ExactScalar:
                    raise ArithmeticError("non-rational transition scalar")
                row[index[target]] += c
                row[index[nu]] -= 1
                rows.append(row)
        oracle[line] = len(index) - len(row_reduce(rows)[1])
    return formula, oracle
