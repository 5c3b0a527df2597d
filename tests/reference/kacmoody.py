"""The Kac-Moody layer as it was: the plain Peterson recursion over a
box, the Fraction Freudenthal recursion, the sl2-string walk of the ranks
and the Kostant oracle with a memo per call."""

import functools
import itertools
from fractions import Fraction

from klrwcb import kacmoody
from klrwcb.kacmoody import _multiplicities, cartan_matrix
from klrwcb.scalars import row_reduce


def _form(A, a, b):
    """The symmetric bilinear form of the Cartan matrix A."""
    return sum(A[i][j] * a[i] * b[j] for i in range(len(A)) for j in range(len(A)))


def root_multiplicities(A, bound):
    """The Peterson recursion over the whole box at once, by height, simple
    roots first, with no norm test: every beta solves its own equation."""
    n = len(A)
    box = list(itertools.product(*(range(b + 1) for b in bound)))
    c, mult = {}, {}
    for i in range(n):
        s = tuple(int(j == i) for j in range(n))
        if all(x <= b for x, b in zip(s, bound)):
            c[s], mult[s] = Fraction(1), 1
    for beta in sorted(box[1:], key=sum):
        if beta in c:
            continue
        denom = Fraction(_form(A, beta, beta) - 2 * sum(beta))
        total = Fraction(0)
        for bp in list(itertools.product(*(range(b + 1) for b in beta)))[1:-1]:
            bpp = tuple(x - y for x, y in zip(beta, bp))
            if c.get(bp) and c.get(bpp):
                total += _form(A, bp, bpp) * c[bp] * c[bpp]
        tail = sum((Fraction(mult.get(tuple(x // k for x in beta), 0), k)
                    for k in range(2, max(beta) + 1)
                    if all(x % k == 0 for x in beta)), Fraction(0))
        if denom == 0:
            c[beta], mult[beta] = tail, 0
            continue
        c[beta] = total / denom
        mult[beta] = int(c[beta] - tail)
    return mult


def box_roots(A, bound):
    """The reference roots of the box, as _positive_roots lists them."""
    return tuple((beta, m) for beta, m in
                 root_multiplicities(A, bound).items() if m)


def multiplicities(A, lam_vec, roots):
    """The former Freudenthal recursion of _multiplicities over the roots
    (beta, mult) of a box holding every depth it is asked: every term, the
    denominator and the quotient are Fractions."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    cache = {}

    def mult(beta):
        if any(b < 0 for b in beta):
            return 0
        if not any(beta):
            return 1
        if beta in cache:
            return cache[beta]
        denom = Fraction(2 * dot(lam_vec, beta) - _form(A, beta, beta) + 2 * sum(beta))
        total = Fraction(0)
        for alpha, am in roots:
            k = 1
            while True:
                beta_up = tuple(b - k * a for b, a in zip(beta, alpha))
                if any(b < 0 for b in beta_up):
                    break
                m_up = mult(beta_up)
                if m_up:
                    val = dot(lam_vec, alpha) - _form(A, beta_up, alpha)
                    total += 2 * am * Fraction(val) * m_up
                k += 1
        if denom == 0:
            cache[beta] = 0
            return 0
        m = total / denom
        if m.denominator != 1 or m < 0:
            raise ArithmeticError("Freudenthal produced %r at %r" % (m, beta))
        cache[beta] = int(m)
        return int(m)

    return mult


def string_decomposition(mults_along_line, pairings):
    """The former sl2-string peeling of decat_chevalley: mults_along_line[j]
    is the multiplicity at mu + j alpha_i, pairings[j] its pairing with
    alpha_i^vee; returns one (top_j, bottom_j) pair per string copy."""
    strings = []
    open_tops = []
    for j in range(len(mults_along_line) - 1, -1, -1):
        p = pairings[j]
        open_tops = [jt for jt in open_tops if -pairings[jt] <= p]
        n_new = mults_along_line[j] - len(open_tops)
        if n_new < 0:
            raise ArithmeticError("multiplicity profile is not a string profile")
        if n_new and p < 0:
            raise ArithmeticError("string top with negative pairing")
        open_tops.extend([j] * n_new)
        for _ in range(n_new):
            strings.append((j, j - p))
    return strings


def ranks(quiver, dims_w, vmax):
    """The former ranks of decat_chevalley: walk the alpha_i-string through
    each nonzero weight of the grid, extended past the grid until the
    multiplicity vanishes, and count the strings that continue up (e) or
    down (f)."""
    verts, A = cartan_matrix(quiver)
    lam_vec = tuple(dims_w.get(x, 0) for x in verts)
    vmax_vec = tuple(vmax.get(x, 0) for x in verts)
    # the alpha_i-string through depth v ends at most lam_i +
    # sum_{j != i} |A_ij| v_j deep in coordinate i; the walk reads one more
    n = len(verts)
    mult = _multiplicities(A, lam_vec, tuple(
        vmax_vec[i] + lam_vec[i] + 1 + sum(abs(A[i][j]) * vmax_vec[j]
                                           for j in range(n) if j != i)
        for i in range(n)))
    table = {v: mult(v) for v in itertools.product(*(range(b + 1)
                                                     for b in vmax_vec))}

    def shift(v, idx, delta):
        return tuple(x + (delta if k == idx else 0) for k, x in enumerate(v))

    ranks = {}
    for idx, i in enumerate(verts):
        for v in table:
            if table[v] == 0:
                continue
            hi_ext = vmax_vec[idx] - v[idx]
            while mult(shift(v, idx, -(hi_ext + 1))) > 0:
                hi_ext += 1
            lo_ext = -v[idx]
            while mult(shift(v, idx, -(lo_ext - 1))) > 0:
                lo_ext -= 1
            js = list(range(lo_ext, hi_ext + 1))
            depths = [shift(v, idx, -j) for j in js]
            mults = [mult(d) for d in depths]
            pair_at = [lam_vec[idx] - sum(a * d for a, d in zip(A[idx], dep))
                       for dep in depths]
            strings = string_decomposition(mults, pair_at)
            here = js.index(0)
            ranks[(i, v)] = {
                "e": sum(1 for top, bot in strings if bot <= here < top),
                "f": sum(1 for top, bot in strings if bot < here <= top)}
    return ranks


def kostant(quiver, lam, mu):
    """The former Kostant oracle: Fraction inverse of A and a partition
    memo made afresh on every call."""
    verts, A = cartan_matrix(quiver)
    n = len(verts)
    lam_vec = [lam.as_dict().get(v, 0) for v in verts]
    mu_vec = [mu.as_dict().get(v, 0) for v in verts]
    rows, _ = row_reduce([list(A[j]) + [int(j == k) for k in range(n)]
                          for j in range(n)])
    inverse = [row[n:] for row in rows]
    roots = sorted(kacmoody._finite_positive_roots(A), key=sum, reverse=True)
    diff = [sum(row[c] * (lam_vec[c] - mu_vec[c]) for c in range(n))
            for row in inverse]
    if any(c.denominator != 1 or c < 0 for c in diff):
        return 0

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

    total = 0
    for w, sign in kacmoody.finite_weyl_group(A).items():
        # lam - mu - (lam + rho - w(lam + rho)) in root coordinates
        lr = [x + 1 for x in lam_vec]
        wlr = [sum(w[r][c] * lr[c] for c in range(n)) for r in range(n)]
        rc = tuple(int(d - sum(row[c] * (lr[c] - wlr[c]) for c in range(n)))
                   for d, row in zip(diff, inverse))
        if all(c >= 0 for c in rc):
            total += sign * count(0, rc)
    return total
