"""Symmetric Kac-Moody data attached to a loop-free quiver.

Cartan matrix, weights in fundamental or root coordinates, Freudenthal
weight multiplicities (with Peterson root multiplicities, so affine and
wild quivers work on bounded intervals), and the decategorified Chevalley
operators e_i/f_i as ranks between weight spaces over a dimension-vector
grid.  Root multiplicities are computed once per (Cartan matrix, box): one
Peterson pass that skips every beta with (beta, beta) > 2, which no root of
a symmetric matrix has.  Multiplicities are W-invariant, so Freudenthal
runs only at dominant weights and every other weight is reflected to one;
on each sl2-string e_i is injective below the middle and surjective above
it, so a rank is the smaller of two neighbouring multiplicities.  The
Kostant and Weyl oracles need finite type, that is a positive definite A.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .quiver import INFINITY
from .scalars import row_reduce


class EdgeLoopError(ValueError):
    pass


class NotDominantError(ValueError):
    pass


class NotBelowError(ValueError):
    pass


def cartan_matrix(quiver):
    """A_ij = 2 delta_ij - #(edges between i and j, both directions)."""
    verts = [v for v in quiver.vertices if v != INFINITY]
    index = {v: k for k, v in enumerate(verts)}
    n = len(verts)
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for e in quiver.old_edges():
        if e.tail == e.head:
            raise EdgeLoopError("edge loop at %r" % (e.tail,))
        i, j = index[e.tail], index[e.head]
        A[i][j] -= 1
        A[j][i] -= 1
    return verts, A


@dataclass(frozen=True)
class KMWeight:
    """Integral weight in either fundamental or root coordinates.

    ``coords`` maps vertex id -> integer.  Conversion between the two bases
    multiplies by the Cartan matrix and is exact; root coordinates are only
    defined for weights in the root lattice shifted by the ambient lambda.
    """

    basis: str  # "fundamental" or "root"
    coords: tuple  # sorted tuple of (vertex, int)

    @staticmethod
    def make(basis, mapping):
        return KMWeight(basis, tuple(sorted(mapping.items())))

    def as_dict(self):
        return dict(self.coords)


def fundamental_from_root_diff(verts, A, lam_fund, root_coords):
    """lambda - sum v_i alpha_i expressed in fundamental coordinates:
    coefficient of varpi_j is lam_j - sum_i A_ji v_i."""
    out = {}
    for j, vj in enumerate(verts):
        out[vj] = lam_fund.get(vj, 0) - sum(A[j][i] * root_coords.get(verts[i], 0)
                                            for i in range(len(verts)))
    return out


# -- root multiplicities (Peterson) and Freudenthal ------------------------


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _bilinear(A, a, b):
    return sum(A[i][j] * a[i] * b[j] for i in range(len(a)) for j in range(len(a)))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _box(bound):
    """All integer vectors 0 <= beta <= bound, in lexicographic order."""
    return list(itertools.product(*(range(b + 1) for b in bound)))


@functools.lru_cache(maxsize=256)  # weight_multiplicity asks one box per depth
def _positive_roots(A, bound):
    """(beta, mult beta) for the positive roots 0 <= beta <= bound of the
    symmetric Kac-Moody algebra of the Cartan matrix A (a tuple of rows).

    One pass of the Peterson recursion over the box, by height:
    (beta, beta - 2 rho) c_beta = sum_{b'+b''=beta} (b', b'') c_b' c_b'',
    c_beta = sum_{n >= 1} mult(beta/n)/n, where (beta, 2 rho) = 2 ht(beta)
    for symmetric A.  Each root pushes its terms to its multiples, so c
    holds the divisor sum of every vector not yet reached.  A root of a
    symmetric A has (beta, beta) <= 2, so a wider beta has mult 0 and c_beta
    is its divisor sum alone; below that bound and above height 1 the
    factor (beta, beta) - 2 ht(beta) is negative.
    """
    c, roots = {}, []
    for beta in sorted(_box(bound)[1:], key=sum):
        norm = _bilinear(A, beta, beta)
        if norm > 2:
            continue
        m = 1  # a simple root
        if sum(beta) > 1:
            total = Fraction(0)
            for bp in _box(beta)[1:-1]:  # the nonzero proper summands
                bpp = _vec_sub(beta, bp)
                if c.get(bp) and c.get(bpp):
                    total += _bilinear(A, bp, bpp) * c[bp] * c[bpp]
            m = total / (norm - 2 * sum(beta)) - c.get(beta, 0)
            if m.denominator != 1 or m < 0:
                raise ArithmeticError("non-integral root multiplicity at %r"
                                      % (beta,))
        if m:
            m = int(m)
            roots.append((beta, m))
            for n in range(1, min(t // b for b, t in zip(beta, bound) if b) + 1):
                multiple = tuple(n * b for b in beta)
                c[multiple] = c.get(multiple, 0) + Fraction(m, n)
    return tuple(roots)


def _as_fund_vector(weight, verts):
    if weight.basis == "fundamental":
        d = weight.as_dict()
        return tuple(d.get(v, 0) for v in verts)
    raise ValueError("expected fundamental coordinates")


def weight_multiplicity(quiver, lam, mu):
    """dim V(lam)_mu by the Freudenthal recursion over {mu <= nu <= lam}.

    lam, mu are KMWeights in fundamental coordinates; lam must be dominant
    and lam - mu a nonnegative root-lattice combination.  Off finite type
    the Cartan matrix is singular and fundamental coordinates do not
    determine a weight: the free root coordinates of lam - mu are fixed at
    zero, so weights that differ by an imaginary root (lam and lam - delta
    on an affine quiver) share one answer.  ``decat_chevalley`` indexes by
    the root-coordinate depth and tells them apart.
    """
    verts, A = cartan_matrix(quiver)
    lam_vec = _as_fund_vector(lam, verts)
    mu_vec = _as_fund_vector(mu, verts)
    diff = _root_coords_of_diff(verts, A, lam_vec, mu_vec)
    mult = _multiplicities(A, lam_vec, diff or (0,) * len(verts))
    if diff is None or any(c < 0 for c in diff):
        raise NotBelowError("mu is not <= lambda in the root order")
    return mult(diff)


def _root_coords_of_diff(verts, A, lam_vec, mu_vec):
    """Solve lam - mu = sum v_i alpha_i for integer v, or None.  A singular
    Cartan matrix gives the solution with every free coordinate zero."""
    n = len(verts)
    rows, pivots = row_reduce([list(A[j]) + [lam_vec[j] - mu_vec[j]]
                               for j in range(n)])
    if n in pivots:
        return None
    sol = [0] * n
    for r, col in enumerate(pivots):
        sol[col] = rows[r][n]
    if any(s.denominator != 1 for s in sol):
        return None
    return tuple(int(s) for s in sol)


def _multiplicities(A, lam_vec, bound):
    """mult(beta) = dim V(lam)_{lam - beta} for beta <= bound in root
    coordinates, by the Freudenthal recursion; lam_vec is a dominant weight
    in fundamental coordinates and A is symmetric.

    Multiplicities are W-invariant, so a depth whose weight mu = lam - beta
    has p = <mu, alpha_i^vee> < 0 takes the answer at the shallower depth
    of s_i(mu) = lam - (beta + p e_i), and a negative coordinate gives 0.
    The recursion runs only at dominant depths, where its denominator
    (beta, lam + mu + 2 rho) is positive.

    One memo serves every query: the value at beta depends only on the
    roots <= beta and on values at smaller depths, all inside the box, so
    the roots of the box (``_positive_roots``, shared by every lam) serve
    the whole recursion; a dominant depth outside the box raises rather
    than read a truncated root list.  Inner products use
    (varpi_i, alpha_j) = delta_ij, (alpha_i, alpha_j) = A_ij.  Every term
    is an integer, so the recursion ends in one divmod.
    """
    if any(c < 0 for c in lam_vec):
        raise NotDominantError("lambda is not dominant: %r" % (lam_vec,))
    roots = _positive_roots(tuple(map(tuple, A)), tuple(bound))
    cache = {}

    def mult(beta):
        if any(b < 0 for b in beta):
            return 0
        if not any(beta):
            return 1
        if beta in cache:
            return cache[beta]
        for i, row in enumerate(A):
            p = lam_vec[i] - _dot(row, beta)  # <lam - beta, alpha_i^vee>
            if p < 0:  # s_i(lam - beta) = lam - (beta + p e_i)
                cache[beta] = mult(_shift(beta, i, p))
                return cache[beta]
        if any(b > c for b, c in zip(beta, bound)):
            raise ValueError("depth %r is outside the box %r" % (beta, bound))
        # (lam+rho, lam+rho) - (mu+rho, mu+rho) with mu = lam - beta:
        #   = 2 (lam, beta) - (beta, beta) + 2 ht(beta)
        denom = (2 * _dot(lam_vec, beta) - _bilinear(A, beta, beta)
                 + 2 * sum(beta))
        total = 0
        for alpha, am in roots:
            beta_up = _vec_sub(beta, alpha)  # beta - k alpha for k = 1, 2, ...
            while all(b >= 0 for b in beta_up):
                m_up = mult(beta_up)
                if m_up:
                    # (mu + k alpha, alpha) = (lam - beta_up, alpha)
                    val = _dot(lam_vec, alpha) - _bilinear(A, beta_up, alpha)
                    total += 2 * am * val * m_up
                beta_up = _vec_sub(beta_up, alpha)
        m, rest = divmod(total, denom)
        if rest or m < 0:
            raise ArithmeticError("Freudenthal produced %r at %r"
                                  % (Fraction(total, denom), beta))
        cache[beta] = m
        return m

    return mult


# -- finite-type oracle (Kostant/Weyl), used only by tests and suites ------


def _require_finite_type(A):
    """Raise ValueError unless A is of finite type, that is positive
    definite: every pivot of exact symmetric elimination is positive."""
    M = [list(map(Fraction, row)) for row in A]
    for k, pivot_row in enumerate(M):
        if pivot_row[k] <= 0:
            raise ValueError("Cartan matrix is not positive definite: "
                             "not of finite type")
        for row in M[k + 1:]:
            f = row[k] / pivot_row[k]
            row[:] = [x - f * y for x, y in zip(row, pivot_row)]


def finite_weyl_group(A):
    """All elements of the Weyl group as matrices acting on fundamental
    coordinates, with signs; raises ValueError off finite type."""
    _require_finite_type(A)
    n = len(A)

    def refl(i):
        # s_i in fundamental coordinates: mu |-> mu - mu_i * (A row i applied)
        M = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for r in range(n):
            M[r][i] -= A[r][i]
        return tuple(tuple(row) for row in M)

    def matmul(X, Y):
        return tuple(tuple(sum(X[r][k] * Y[k][c] for k in range(n)) for c in range(n))
                     for r in range(n))

    gens = [refl(i) for i in range(n)]
    ident = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = matmul(g, w)
                if wg not in seen:
                    seen[wg] = -seen[w]
                    nxt.append(wg)
        frontier = nxt
    return seen


def kostant_multiplicity(quiver, lam, mu):
    """Independent oracle: mult = sum_w (-1)^w P(w(lam+rho) - (mu+rho)),
    with P the Kostant partition function evaluated by enumeration.
    Finite type only."""
    verts, A = cartan_matrix(quiver)
    n = len(verts)
    lam_vec = _as_fund_vector(lam, verts)
    mu_vec = _as_fund_vector(mu, verts)
    den, inverse, weyl, count = _finite_type_data(tuple(map(tuple, A)))
    # w(lam+rho) - (mu+rho) = (lam - mu) - (lam+rho - w(lam+rho)) and the
    # last term is a nonnegative combination of simple roots: when lam - mu
    # is not an integral one, or has a negative coordinate, every term is 0
    diff = []
    for row in inverse:
        c, rest = divmod(sum(x * (a - b) for x, a, b in zip(row, lam_vec, mu_vec)),
                         den)
        if rest or c < 0:
            return 0
        diff.append(c)
    lam_rho = tuple(x + 1 for x in lam_vec)
    total = 0
    for sign, lowering in weyl:
        rc = tuple(d - sum(row[c] * lam_rho[c] for c in range(n))
                   for d, row in zip(diff, lowering))
        if any(c < 0 for c in rc):
            continue
        total += sign * count(0, rc)
    return total


@functools.lru_cache(maxsize=None)
def _finite_type_data(A):
    """Data the Kostant oracle needs for the Cartan matrix A (a tuple of
    rows), built once per matrix: A^-1 as (common denominator, integer
    matrix); for each Weyl group element w its sign and the integer matrix
    A^-1 (1 - w), which maps a weight x in fundamental coordinates to the
    root coordinates of x - w(x); and the Kostant partition function
    ``count(idx, rem)``, the ways to write rem (root coordinates) as an
    N-combination of the positive roots from idx on (by descending height),
    whose memo serves every weight of A.  Raises ValueError off finite
    type, where A is not positive definite."""
    n = len(A)
    W = finite_weyl_group(A)
    roots = sorted(_finite_positive_roots(A), key=sum, reverse=True)
    rows, _ = row_reduce([list(A[j]) + [int(j == k) for k in range(n)]
                          for j in range(n)])
    den = math.lcm(*(x.denominator for row in rows for x in row[n:]))
    inverse = tuple(tuple(int(x * den) for x in row[n:]) for row in rows)
    weyl = []
    for w, sign in W.items():
        scaled = [[row[c] - sum(row[k] * w[k][c] for k in range(n))
                   for c in range(n)] for row in inverse]  # den A^-1 (1 - w)
        if any(x % den for row in scaled for x in row):
            raise ArithmeticError("x - w(x) left the root lattice")
        weyl.append((sign, tuple(tuple(x // den for x in row) for row in scaled)))

    @functools.lru_cache(maxsize=None)
    def count(idx, rem):
        if not any(rem):
            return 1
        if idx == len(roots):
            return 0
        alpha = roots[idx]
        total, k = 0, 0
        while all(r - k * a >= 0 for r, a in zip(rem, alpha)):
            total += count(idx + 1, tuple(r - k * a for r, a in zip(rem, alpha)))
            k += 1
        return total

    return den, inverse, tuple(weyl), count


def _finite_positive_roots(A):
    """The positive roots of finite type A, as the orbit of the simple
    roots; raises ValueError off finite type."""
    _require_finite_type(A)
    n = len(A)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        nxt = set()
        for beta in frontier:
            for i in range(n):
                # s_i(beta) = beta - (beta, alpha_i) alpha_i
                pair = sum(A[i][j] * beta[j] for j in range(n))
                cand = tuple(b - (pair if j == i else 0) for j, b in enumerate(beta))
                if all(c >= 0 for c in cand) and any(cand) and cand not in roots:
                    roots.add(cand)
                    nxt.add(cand)
        frontier = nxt
    return roots


def weyl_dimension(quiver, lam):
    """dim V(lam) by the Weyl dimension formula (finite type)."""
    verts, A = cartan_matrix(quiver)
    lam_rho = tuple(x + 1 for x in _as_fund_vector(lam, verts))
    num, den = 1, 1
    for alpha in _finite_positive_roots(A):
        # (lam + rho, alpha) / (rho, alpha); (varpi_i, alpha_j)=delta => dot products
        num *= _dot(lam_rho, alpha)
        den *= sum(alpha)
    q, rest = divmod(num, den)
    if rest:
        raise ArithmeticError("Weyl dimension is not integral")
    return q


# -- decategorified Chevalley action ---------------------------------------


def decat_chevalley(quiver, dims_w, vmax):
    """Dimension table over {0 <= v <= vmax} plus e_i/f_i ranks.

    Returns {"verts", "table", "ranks"}: verts are the sorted old vertices,
    table maps v (a tuple over verts) to dim V(lam)_{lam - sum v_i alpha_i},
    and ranks maps (i, v) to {"e": rank e_i: K(v) -> K(v - e_i),
    "f": rank f_i: K(v) -> K(v + e_i)} for every v with K(v) nonzero.
    Weight spaces are indexed by their root-coordinate depth v, so the
    table is right for every loop-free quiver, affine and wild ones
    included.  On the alpha_i-strings of V(lam), e_i and f_i between two
    neighbouring weight spaces are injective below the middle and
    surjective above it, so each rank is the smaller multiplicity.
    """
    verts, A = cartan_matrix(quiver)
    lam_vec = tuple(dims_w.get(x, 0) for x in verts)
    vmax_vec = tuple(vmax.get(x, 0) for x in verts)
    # the f ranks read v + e_i
    mult = _multiplicities(A, lam_vec, tuple(b + 1 for b in vmax_vec))

    table = {v: mult(v) for v in _box(vmax_vec)}

    ranks = {}
    for idx, i in enumerate(verts):
        for v, m in table.items():
            if m:
                ranks[(i, v)] = {"e": min(m, mult(_shift(v, idx, -1))),
                                 "f": min(m, mult(_shift(v, idx, 1)))}
    return dict(zip(["verts", "table", "ranks"], (verts, table, ranks)))


def _shift(v, idx, delta):
    return tuple(x + (delta if k == idx else 0) for k, x in enumerate(v))
