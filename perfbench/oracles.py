"""Computations made apart from klrwcb, used to check its outputs.

Nothing here imports klrwcb: every value is plain ``Fraction`` arithmetic
(or Gaussian rationals built on it), written from the formulas the paper
states, so a fault in the library cannot make its own check pass.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Gauss:
    """An element of Q + Qi with exact parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(x):
        if isinstance(x, Gauss):
            return x
        if isinstance(x, (int, Fraction)):
            return Gauss(x)
        # an ExactScalar-like value read through its public parts
        if getattr(x, "symbolic", ()):
            raise ValueError("symbolic value %r has no Gaussian value" % (x,))
        return Gauss(x.rational, getattr(x, "imaginary", 0))

    def __add__(self, o):
        o = Gauss.of(o)
        return Gauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = Gauss.of(o)
        return Gauss(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = Gauss.of(o)
        return Gauss(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Gauss.of(o)
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("Gaussian division by zero")
        return Gauss((self.re * o.re + self.im * o.im) / n,
                     (self.im * o.re - self.re * o.im) / n)

    def __eq__(self, o):
        o = Gauss.of(o)
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        return "Gauss(%s, %s)" % (self.re, self.im)


# -- abelian Coulomb branch: the BFN product formula at a point -------------
#
# A matter weight is (gauge, shift, hshift): mu(x, h) = <gauge, x> + shift
# + hshift * h, with shift a Gauss.  A point is (xs, h) with Fractions.


def pair(gauge, nu):
    return sum(g * n for g, n in zip(gauge, nu))


def mu_at(m, point):
    gauge, shift, hshift = m
    xs, h = point
    return Gauss.of(shift) + sum((g * x for g, x in zip(gauge, xs)),
                                 Fraction(0)) + hshift * h


def shifted(point, xi, sign=1):
    """x -> x + sign * h * xi."""
    xs, h = point
    return (tuple(x + sign * n * h for x, n in zip(xs, xi)), h)


def bfn_coefficient(matter, xi, nu, point):
    """Coefficient of r_{xi+nu} in r_xi r_nu at a point:
    prod over mu with <mu,xi> > 0 > <mu,nu> of prod_{j=1..d} (mu + (<mu,xi>-j) h)
    times prod over <mu,xi> < 0 < <mu,nu> of prod_{j=0..d-1} (mu + (<mu,xi>+j) h),
    d = min(|<mu,xi>|, |<mu,nu>|)."""
    h = point[1]
    out = Gauss(1)
    for m in matter:
        a, b = pair(m[0], xi), pair(m[0], nu)
        val = mu_at(m, point)
        if a > 0 > b:
            for j in range(1, min(a, -b) + 1):
                out = out * (val + (a - j) * h)
        elif a < 0 < b:
            for j in range(0, min(-a, b)):
                out = out * (val + (a + j) * h)
    return out


def pairing_closed_form(matter, xi, point):
    """r_{-xi} r_xi as a scalar at a point, from the closed form
    prod_{<mu,xi> > 0} prod_{j=1..<mu,xi>} (mu - j h)
    * prod_{<mu,xi> < 0} prod_{j=0..-<mu,xi>-1} (mu + j h)."""
    h = point[1]
    out = Gauss(1)
    for m in matter:
        a = pair(m[0], xi)
        val = mu_at(m, point)
        for j in range(1, a + 1):
            out = out * (val - j * h)
        for j in range(0, -a):
            out = out * (val + j * h)
    return out


def eval_poly(poly, point, names):
    """poly: {exponent tuple over names: Fraction or Gauss}."""
    values = dict(zip(names, list(point[0]) + [point[1]]))
    total = Gauss(0)
    for mono, c in poly.items():
        term = Gauss.of(c)
        for name, e in zip(names, mono):
            term = term * (values[name] ** e)
        total = total + term
    return total


def evaluate(expr, point):
    """Value of every r_nu coefficient of an element expression at a point.

    expr is one of
      ("elem", names, {nu: poly})
      ("mul", matter, A, B)
      ("forget", matter, keep, A)          matter: the theory A lives in
      ("fourier", matter, idx, wp, A)
      ("inv", matter, xi, nu)              r_xi^{-1} r_nu
    """
    kind = expr[0]
    out = {}
    if kind == "elem":
        for nu, poly in expr[2].items():
            out[nu] = eval_poly(poly, point, expr[1])
    elif kind == "mul":
        _, matter, a, b = expr
        for xi, fv in evaluate(a, point).items():
            for nu, gv in evaluate(b, shifted(point, xi)).items():
                eta = tuple(x + n for x, n in zip(xi, nu))
                out[eta] = out.get(eta, Gauss(0)) \
                    + fv * gv * bfn_coefficient(matter, xi, nu, point)
    elif kind == "forget":
        _, matter, keep, a = expr
        h = point[1]
        for nu, v in evaluate(a, point).items():
            for i in keep:
                p = pair(matter[i][0], nu)
                for j in range(p, 0):
                    v = v * (mu_at(matter[i], point) + j * h)
            out[nu] = v
    elif kind == "fourier":
        _, matter, idx, wp, a = expr
        for nu, v in evaluate(a, shifted(point, wp)).items():
            delta = sum(pair(matter[i][0], nu) for i in idx
                        if pair(matter[i][0], nu) > 0)
            out[nu] = v * (-1 if delta % 2 else 1)
    elif kind == "inv":
        _, matter, xi, nu = expr
        target = tuple(n - x for n, x in zip(nu, xi))
        out[target] = Gauss(1) / bfn_coefficient(matter, xi, target,
                                                 shifted(point, xi, -1))
    else:
        raise ValueError("unknown expression %r" % (kind,))
    return {k: v for k, v in out.items() if v}


# -- the twisted scalar identity at h = 1 -------------------------------------


def _mu1(m, xs):
    return mu_at(m, (xs, Fraction(1)))


def phi0_at(matter, lam, lamp, xs, indices):
    out = Gauss(1)
    for i in indices:
        m = matter[i]
        drop = pair(m[0], lam) - pair(m[0], lamp)
        skip = pair(m[0], lamp)
        for j in range(1, -drop + 1):
            if j != skip:
                out = out * (_mu1(m, xs) - j)
    return out


def kappa_at(matter, lam, xi, xs):
    out = Gauss(1)
    for m in matter:
        if pair(m[0], xi) >= 0:
            continue
        p = pair(m[0], lam)
        if p > 0:
            for j in range(1, p):
                out = out * (_mu1(m, xs) - j)
        else:
            for j in range(0, -p):
                out = out / (_mu1(m, xs) + j)
    return out


def phi0_prime_at(matter, nu, nup, xi, xs):
    inv = [i for i, m in enumerate(matter) if pair(m[0], xi) == 0]
    out = phi0_at(matter, nu, nup, xs, inv)
    for m in matter:
        if pair(m[0], xi) >= 0:
            continue
        drop = pair(m[0], nu) - pair(m[0], nup)
        for j in range(1, -drop + 1):
            if j != pair(m[0], nup):
                out = out * (_mu1(m, xs) - j)
        for j in range(0, drop):
            if j != -pair(m[0], nup):
                out = out / (_mu1(m, xs) + j)
    return out


def elprime_sides(matter, nu, nup, xi, xs):
    """Both sides of Phi_0'(nu,nu') shift_{nu-nu'}(kappa_nu)
    = Phi_0^inv(nu,nu') kappa_nu' at the point xs (h = 1)."""
    eta = tuple(a - b for a, b in zip(nu, nup))
    xs_shift = tuple(x + e for x, e in zip(xs, eta))
    inv = [i for i, m in enumerate(matter) if pair(m[0], xi) == 0]
    lhs = phi0_prime_at(matter, nu, nup, xi, xs) * kappa_at(matter, nu, xi, xs_shift)
    rhs = phi0_at(matter, nu, nup, xs, inv) * kappa_at(matter, nup, xi, xs)
    return lhs, rhs


# -- flavoured sequences --------------------------------------------------------
#
# Sequences are read into plain data: labels, longitudes as (rational, imag,
# {symbol: coeff}) triples, and an order of (kind, k, edge) items with kind
# in "C", "G", "R".  Flavours are {edge: triple}; tails {edge: vertex}.


def real_value(triple, shadows):
    """Exact rational stand-in for the real part (symbols -> shadows)."""
    q, _im, sym = triple
    return q + sum((c * shadows[s] for s, c in sym.items()), Fraction(0))


def same_real(t1, t2):
    return t1[0] == t2[0] and t1[2] == t2[2]


def item_longitude(item, longitudes, flavour):
    kind, k, edge = item
    if kind == "C":
        return longitudes[k - 1]
    phi = flavour[edge]
    if kind == "G":
        a = longitudes[k - 1]
        sym = dict(a[2])
        for s, c in phi[2].items():
            sym[s] = sym.get(s, 0) + c
        return (a[0] + phi[0], a[1] + phi[1], {s: c for s, c in sym.items() if c})
    return phi


def sequence_violations(labels, longitudes, order, flavour, shadows,
                        ghost_edges, red_edges):
    """Why an order is not a flavoured sequence; empty when it is one.

    ghost_edges: {vertex: [edge ids with that head]} over old edges;
    red_edges: the framing edge ids."""
    out = []
    want = {("C", k, None) for k in range(1, len(labels) + 1)}
    want |= {("G", k, e) for k, lab in enumerate(labels, 1)
             for e in ghost_edges.get(lab, [])}
    want |= {("R", 0, e) for e in red_edges}
    if set(order) != want or len(order) != len(want):
        return ["item set differs"]
    corp = [it[1] for it in order if it[0] == "C"]
    if corp != sorted(corp):
        out.append("corporeal items out of index order")
    longs = [item_longitude(it, longitudes, flavour) for it in order]
    for i in range(len(order) - 1):
        a, b = longs[i], longs[i + 1]
        if same_real(a, b):
            if order[i][0] == "C" and order[i + 1][0] != "C":
                out.append("corporeal before ghost/red at equal longitude")
        elif real_value(a, shadows) > real_value(b, shadows):
            out.append("real longitude decreases at position %d" % i)
    return out


def sigma_violations(s1, s2, sigma, tails, shadows):
    """Why sigma (corporeal index map) is not an equivalence witness.

    s1, s2: (labels, longitudes, order) triples."""
    (lab1, lon1, ord1), (lab2, lon2, ord2) = s1, s2
    n = len(lab1)
    if sorted(sigma) != list(range(1, n + 1)) or \
            sorted(sigma.values()) != list(range(1, n + 1)):
        return ["sigma is not a permutation"]
    out = ["label of %d changes" % k for k in range(1, n + 1)
           if lab1[k - 1] != lab2[sigma[k] - 1]]
    if out:
        return out
    for k, m in itertools.permutations(range(1, n + 1), 2):
        if lab1[k - 1] != lab1[m - 1]:
            continue
        r1 = real_value(lon1[k - 1], shadows) < real_value(lon1[m - 1], shadows)
        r2 = real_value(lon2[sigma[k] - 1], shadows) \
            < real_value(lon2[sigma[m] - 1], shadows)
        if r1 != r2:
            out.append("strict order of %d, %d changes" % (k, m))
    pos1 = {it: i for i, it in enumerate(ord1)}
    pos2 = {it: i for i, it in enumerate(ord2)}
    for m in range(1, n + 1):
        for it in ord1:
            if it[0] == "C" or tails[it[2]] != lab1[m - 1]:
                continue
            it2 = ("G", sigma[it[1]], it[2]) if it[0] == "G" else it
            if (pos1[("C", m, None)] < pos1[it]) != \
                    (pos2[("C", sigma[m], None)] < pos2[it2]):
                out.append("corporeal %d changes side of %r" % (m, it))
    return out


def brute_equivalent(s1, s2, tails, shadows):
    """Equivalence by trying every permutation of the corporeal indices."""
    n = len(s1[0])
    if len(s2[0]) != n:
        return False
    for perm in itertools.permutations(range(1, n + 1)):
        if not sigma_violations(s1, s2, dict(zip(range(1, n + 1), perm)),
                                tails, shadows):
            return True
    return False


def unsteady_suffix(order):
    """Smallest k such that the last k items are a nonempty set of corporeals
    with exactly all of their ghosts and nothing else; None if there is none."""
    ghosts_of = {}
    for it in order:
        if it[0] == "G":
            ghosts_of.setdefault(it[1], set()).add(it)
    for k in range(1, len(order) + 1):
        suffix = order[len(order) - k:]
        corps = {it[1] for it in suffix if it[0] == "C"}
        if not corps or any(it[0] == "R" for it in suffix):
            continue
        if any(it[0] == "G" and it[1] not in corps for it in suffix):
            continue
        if all(ghosts_of.get(c, set()) <= set(suffix) for c in corps):
            return k
    return None


# -- Kac-Moody: Weyl dimension formula for A1 and A2 ----------------------------


def weyl_dimension_a(w):
    """dim V(lambda) for sl2 (one coordinate) or sl3 (two coordinates)."""
    if len(w) == 1:
        return w[0] + 1
    a, b = w
    return (a + 1) * (b + 1) * (a + b + 2) // 2


# -- relation instance counts -----------------------------------------------------


def relation_counts(vertices, old_edges, new_edges):
    """Instances per relation name of the local relation list over quiver
    data: vertices, old_edges as (tail, head), new_edges as their tails.

    Offsets per family: two-strand families run over the ordered vertex
    pairs; ghost and red families over an aligned and a half-shifted
    offset, so exactly one of the two is relevant when the labels match."""
    c = {}

    def add(name, n=1):
        c[name] = c.get(name, 0) + n

    nv = len(vertices)
    add("dots-1", 2 * nv * nv)
    add("dots-2", 4 * nv)
    add("strand-bigon", 3 * nv * nv)
    for tail, head in old_edges:
        for k in vertices:
            for aligned in (True, False):
                rel = aligned and k == tail
                add("ghost-bigon2" if rel else "ghost-bigon1")
                add("ghost-bigon2a" if rel else "ghost-bigon1a")
    for tail in new_edges:
        for k in vertices:
            for aligned in (True, False):
                if aligned and k == tail:
                    add("cost")
                    add("cost-mirror")
                else:
                    add("cost-transparent")
    for tail, head in old_edges:
        if tail == head:
            continue
        add("triple-point1", 2)
        add("triple-point1-transparent")
        add("triple-point2")
        add("triple-point2-transparent")
    for tail in new_edges:
        for i, j in itertools.product(vertices, repeat=2):
            for aligned in (True, False):
                add("red-triple" if aligned and i == j == tail
                    else "red-triple-slide")
    for tail in new_edges:
        add("dumb-dot", nv)
    return c


def test_polynomial_count(n_strands, degree_bound, n_random):
    """All monomials in y_1..y_n, h of degree <= bound, plus the random tail."""
    from math import comb
    return comb(n_strands + 1 + degree_bound, degree_bound) + n_random
