import functools
import itertools
import random
from fractions import Fraction

import pytest

from klrwcb import kacmoody
from klrwcb.kacmoody import (EdgeLoopError, KMWeight, NotBelowError,
                             NotDominantError, _multiplicities,
                             _positive_roots, cartan_matrix, decat_chevalley,
                             fundamental_from_root_diff, kostant_multiplicity,
                             weight_multiplicity, weyl_dimension)
from klrwcb.quiver import (DimensionData, Edge, Quiver, crawley_boevey,
                           kronecker_quiver)
from klrwcb.scalars import row_reduce

def test_crawley_boevey_kronecker():
    q = kronecker_quiver()
    dims = DimensionData({"alpha": 2, "beta": 1}, {"alpha": 2, "beta": 1})
    comp = crawley_boevey(q, dims)
    new = comp.new_edges()
    assert [e.id for e in new] == ["w[alpha]0", "w[alpha]1", "w[beta]0"]
    assert all(e.head == "oo" for e in new)
    assert {e.id for e in comp.old_edges()} == {"e", "f"}


def test_crawley_boevey_zero_framing():
    q = kronecker_quiver()
    comp = crawley_boevey(q, DimensionData({"alpha": 0, "beta": 0},
                                           {"alpha": 0, "beta": 0}))
    assert comp.new_edges() == []
    assert "oo" in comp.vertices


def test_crawley_boevey_jordan():
    q = Quiver(["x"], [Edge("t", "x", "x")])
    comp = crawley_boevey(q, DimensionData({"x": 1}, {"x": 3}))
    assert len(comp.new_edges()) == 3


def test_cartan_examples():
    assert cartan_matrix(Quiver(["x"], []))[1] == [[2]]
    verts, A = cartan_matrix(Quiver(["1", "2"], [Edge("a", "1", "2")]))
    assert A == [[2, -1], [-1, 2]]
    verts, A = cartan_matrix(kronecker_quiver())
    assert A == [[2, -2], [-2, 2]]
    with pytest.raises(EdgeLoopError):
        cartan_matrix(Quiver(["x"], [Edge("t", "x", "x")]))


def test_mu_from_dimensions():
    # mu = sum w_i varpi_i - sum v_i alpha_i in fundamental coordinates, in
    # the form suite_satake computes it
    verts, A = cartan_matrix(Quiver(["x"], []))
    assert fundamental_from_root_diff(verts, A, {"x": 2}, {"x": 1}) == {"x": 0}
    assert fundamental_from_root_diff(verts, A, {"x": 1}, {"x": 0}) == {"x": 1}
    verts, A = cartan_matrix(Quiver(["1", "2"], [Edge("a", "1", "2")]))
    assert fundamental_from_root_diff(verts, A, {"1": 1, "2": 1},
                                      {"1": 1, "2": 1}) == {"1": 0, "2": 0}


def test_weight_multiplicity_examples():
    a1 = Quiver(["x"], [])
    lam = KMWeight.make("fundamental", {"x": 2})
    assert weight_multiplicity(a1, lam, KMWeight.make("fundamental", {"x": 0})) == 1
    assert weight_multiplicity(a1, lam, lam) == 1
    a2 = Quiver(["1", "2"], [Edge("a", "1", "2")])
    lam2 = KMWeight.make("fundamental", {"1": 1, "2": 1})
    mu0 = KMWeight.make("fundamental", {"1": 0, "2": 0})
    assert weight_multiplicity(a2, lam2, mu0) == 2
    with pytest.raises(NotDominantError):
        weight_multiplicity(a1, KMWeight.make("fundamental", {"x": -1}), lam)
    with pytest.raises(NotBelowError):
        weight_multiplicity(a1, lam, KMWeight.make("fundamental", {"x": 4}))


def _all_weights_below(quiver, lam_dict, bound):
    verts, A = cartan_matrix(quiver)
    grids = [range(bound + 1)] * len(verts)
    for v in itertools.product(*grids):
        yield v, KMWeight.make("fundamental", fundamental_from_root_diff(
            verts, A, lam_dict, dict(zip(verts, v))))


def _total_multiplicity(quiver, lam_dict, bound):
    lam = KMWeight.make("fundamental", lam_dict)
    total = 0
    for v, mu in _all_weights_below(quiver, lam_dict, bound):
        try:
            total += weight_multiplicity(quiver, lam, mu)
        except NotBelowError:
            pass
    return total


def test_sum_of_multiplicities_is_weyl_dimension():
    a1 = Quiver(["x"], [])
    assert _total_multiplicity(a1, {"x": 3}, 3) == weyl_dimension(
        a1, KMWeight.make("fundamental", {"x": 3}))
    a2 = Quiver(["1", "2"], [Edge("a", "1", "2")])
    for lam in ({"1": 1, "2": 1}, {"1": 2, "2": 0}, {"1": 2, "2": 1}):
        assert _total_multiplicity(a2, lam, 4) == weyl_dimension(
            a2, KMWeight.make("fundamental", lam))
    a3 = Quiver(["1", "2", "3"], [Edge("a", "1", "2"), Edge("b", "2", "3")])
    for lam in ({"1": 1, "2": 0, "3": 0}, {"1": 1, "2": 0, "3": 1}):
        assert _total_multiplicity(a3, lam, 3) == weyl_dimension(
            a3, KMWeight.make("fundamental", lam))


def test_multiplicity_matches_kostant_oracle():
    a2 = Quiver(["1", "2"], [Edge("a", "1", "2")])
    lam_dict = {"1": 2, "2": 1}
    lam = KMWeight.make("fundamental", lam_dict)
    for v, mu in _all_weights_below(a2, lam_dict, 3):
        try:
            m = weight_multiplicity(a2, lam, mu)
        except NotBelowError:
            continue
        assert m == kostant_multiplicity(a2, lam, mu), (v, m)


def test_weyl_invariance_of_multiplicity():
    a2 = Quiver(["1", "2"], [Edge("a", "1", "2")])
    lam = KMWeight.make("fundamental", {"1": 1, "2": 1})
    # s_1-reflections of weights: mu -> mu - mu_1 alpha_1
    pairs = [({"1": 1, "2": 1}, {"1": -1, "2": 2}),
             ({"1": -1, "2": 2}, {"1": 1, "2": 1}),
             ({"1": 2, "2": -1}, {"1": -2, "2": 1})]
    for mu, smu in pairs:
        def mult(d):
            try:
                return weight_multiplicity(a2, lam,
                                           KMWeight.make("fundamental", d))
            except NotBelowError:
                return 0
        assert mult(mu) == mult(smu)


def test_decat_chevalley_a1():
    a1 = Quiver(["x"], [])
    res = decat_chevalley(a1, {"x": 2}, {"x": 2})
    assert [res["table"][(v,)] for v in range(3)] == [1, 1, 1]
    assert res["ranks"][("x", (1,))]["e"] == 1
    assert res["ranks"][("x", (1,))]["f"] == 1


def test_decat_chevalley_a2_total():
    a2 = Quiver(["1", "2"], [Edge("a", "1", "2")])
    res = decat_chevalley(a2, {"1": 1, "2": 1}, {"1": 2, "2": 2})
    assert sum(res["table"].values()) == 8


def test_decat_rank_bookkeeping():
    a2 = Quiver(["1", "2"], [Edge("a", "1", "2")])
    _assert_rank_bookkeeping(decat_chevalley(a2, {"1": 1, "2": 1},
                                             {"1": 2, "2": 2}))


def _assert_rank_bookkeeping(res):
    # rank e_i at v is rank f_i one step down, and 0 on the grid's edge
    verts = res["verts"]
    for (i, v), r in res["ranks"].items():
        idx = verts.index(i)
        down = tuple(x - (1 if p == idx else 0) for p, x in enumerate(v))
        if all(x >= 0 for x in down) and (i, down) in res["ranks"]:
            assert r["e"] == res["ranks"][(i, down)]["f"]
        else:
            assert r["e"] == 0


def test_affine_kronecker_multiplicities():
    # basic representation of the affine algebra: level-one weight
    kq = kronecker_quiver()
    lam = KMWeight.make("fundamental", {"alpha": 1, "beta": 0})
    mu = KMWeight.make("fundamental", {"alpha": -1, "beta": 2})  # lam - alpha_1
    assert weight_multiplicity(kq, lam, mu) == 1
    mu2 = KMWeight.make("fundamental", {"alpha": 1, "beta": 0})  # lam - delta
    # lam - (alpha_1 + alpha_2) has the same fundamental coordinates as lam
    verts, A = cartan_matrix(kq)
    fund = fundamental_from_root_diff(verts, A, {"alpha": 1, "beta": 0},
                                      {"alpha": 1, "beta": 1})
    assert weight_multiplicity(kq, lam,
                               KMWeight.make("fundamental", fund)) == 1


def test_decat_chevalley_kronecker_basic_representation():
    # level-one weight of affine sl2: dim V(lam)_{lam - a alpha - b beta} is
    # the partition number p(a - (a - b)^2), 0 for a negative argument
    res = decat_chevalley(kronecker_quiver(), {"alpha": 1, "beta": 0},
                          {"alpha": 3, "beta": 3})
    assert res["verts"] == ["alpha", "beta"]
    p = [1, 1, 2, 3]
    for (a, b), m in res["table"].items():
        n = a - (a - b) ** 2
        assert m == (p[n] if n >= 0 else 0), ((a, b), m)
    assert [res["table"][(n, n)] for n in range(4)] == [1, 1, 2, 3]
    _assert_rank_bookkeeping(res)


A3 = Quiver(["1", "2", "3"], [Edge("a", "1", "2"), Edge("b", "2", "3")])


@pytest.mark.parametrize("quiver,w", [
    (Quiver(["x"], []), {"x": 1}), (Quiver(["x"], []), {"x": 2}),
    (Quiver(["x"], []), {"x": 3}), (Quiver(["x"], []), {"x": 4}),
    (Quiver(["1", "2"], [Edge("a", "1", "2")]), {"1": 1, "2": 1}),
    (Quiver(["1", "2"], [Edge("a", "1", "2")]), {"1": 2, "2": 1}),
    (Quiver(["1", "2"], [Edge("a", "1", "2")]), {"1": 2, "2": 0}),
    (A3, {"1": 1, "2": 0, "3": 1})])
def test_decat_table_matches_kostant_oracle(quiver, w):
    verts, A = cartan_matrix(quiver)
    lam = KMWeight.make("fundamental", w)
    vmax = {x: sum(w.values()) + 1 for x in verts}
    res = decat_chevalley(quiver, w, vmax)
    for v, m in res["table"].items():
        mu = KMWeight.make("fundamental", fundamental_from_root_diff(
            verts, A, w, dict(zip(verts, v))))
        assert m == kostant_multiplicity(quiver, lam, mu), (v, m)


def test_kostant_multiplicity_off_the_weights():
    # A1, lam = 2: 1 and 3 differ from lam by half a root, 4 lies above lam
    a1 = Quiver(["x"], [])
    lam = KMWeight.make("fundamental", {"x": 2})
    got = [kostant_multiplicity(a1, lam, KMWeight.make("fundamental", {"x": m}))
           for m in (1, 3, 4, 0, -2)]
    assert got == [0, 0, 0, 1, 1]


def _ref_root_multiplicities(A, bound):
    """The Peterson recursion over the whole box at once, by height, simple
    roots first, with no norm test: every beta solves its own equation."""
    n = len(A)

    def form(a, b):
        return sum(A[i][j] * a[i] * b[j] for i in range(n) for j in range(n))

    box = list(itertools.product(*(range(b + 1) for b in bound)))
    c, mult = {}, {}
    for i in range(n):
        s = tuple(int(j == i) for j in range(n))
        if all(x <= b for x, b in zip(s, bound)):
            c[s], mult[s] = Fraction(1), 1
    for beta in sorted(box[1:], key=sum):
        if beta in c:
            continue
        denom = Fraction(form(beta, beta) - 2 * sum(beta))
        total = Fraction(0)
        for bp in list(itertools.product(*(range(b + 1) for b in beta)))[1:-1]:
            bpp = tuple(x - y for x, y in zip(beta, bp))
            if c.get(bp) and c.get(bpp):
                total += form(bp, bpp) * c[bp] * c[bpp]
        tail = sum((Fraction(mult.get(tuple(x // k for x in beta), 0), k)
                    for k in range(2, max(beta) + 1)
                    if all(x % k == 0 for x in beta)), Fraction(0))
        if denom == 0:
            c[beta], mult[beta] = tail, 0
            continue
        c[beta] = total / denom
        mult[beta] = int(c[beta] - tail)
    return mult


def _quiver(n, pairs):
    """The quiver on vertices 1..n with one edge i -> j per pair."""
    verts = [str(k) for k in range(1, n + 1)]
    return Quiver(verts, [Edge("e%d" % k, str(i), str(j))
                          for k, (i, j) in enumerate(pairs)])


ROOT_QUIVERS = {
    "A2": _quiver(2, [(1, 2)]), "A3": _quiver(3, [(1, 2), (2, 3)]),
    "D4": _quiver(4, [(1, 2), (1, 3), (1, 4)]),
    "kronecker": kronecker_quiver(),
    "cycle3": _quiver(3, [(1, 2), (2, 3), (3, 1)]),  # affine A2
    "wild3": _quiver(2, [(1, 2), (1, 2), (2, 1)]),
    # the Kronecker pair joined to a third vertex: every proper part is of
    # finite or affine type, but det A = -8
    "hyperbolic": _quiver(3, [(1, 2), (2, 1), (2, 3), (3, 1)]),
}


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_positive_roots_match_reference(seed):
    """The roots of one Peterson pass with the norm test equal those of the
    plain recursion, on finite, affine, wild and hyperbolic quivers, over
    seeded boxes, each also with one coordinate zero."""
    rng = random.Random(seed)
    for name in sorted(ROOT_QUIVERS):
        A = cartan_matrix(ROOT_QUIVERS[name])[1]
        top = {2: 4, 3: 3, 4: 2}[len(A)]
        bound = [rng.randint(1, top) for _ in A]
        boxes = [tuple(bound)]
        bound[rng.randrange(len(A))] = 0
        boxes.append(tuple(bound))
        for box in boxes:
            roots = _positive_roots(tuple(map(tuple, A)), box)
            assert dict(roots) == {beta: m for beta, m in
                                   _ref_root_multiplicities(A, box).items()
                                   if m}, (name, box)
            assert len(dict(roots)) == len(roots)
            assert [sum(beta) for beta, _ in roots] == \
                sorted(sum(beta) for beta, _ in roots)
            assert all(type(m) is int and m > 0 for _, m in roots)


@pytest.mark.parametrize("A, lam, box, beta, value", [
    ([[2]], (4,), (2,), (2,), 1),
    ([[2, -2], [-2, 2]], (1, 0), (2, 2), (2, 2), 2)])
def test_depth_outside_the_box_raises(A, lam, box, beta, value):
    """A dominant depth past the box raises instead of answering from the
    roots of the smaller box; inside the box it is answered."""
    assert _multiplicities(A, lam, box)(beta) == value
    small = tuple(b - 1 for b in box)
    with pytest.raises(ValueError, match="outside the box"):
        _multiplicities(A, lam, small)(beta)


@pytest.mark.parametrize("quiver", [
    ROOT_QUIVERS["kronecker"], ROOT_QUIVERS["cycle3"], ROOT_QUIVERS["wild3"],
    Quiver(["x", "alpha", "beta"], [Edge("e", "beta", "alpha"),
                                    Edge("f", "alpha", "beta")])],
    ids=["kronecker", "cycle3", "wild3", "A1+kronecker"])
def test_off_finite_type_raises(quiver):
    """The Kostant oracle and the Weyl dimension formula reject a Cartan
    matrix that is not positive definite, before any enumeration."""
    verts = cartan_matrix(quiver)[0]
    lam = KMWeight.make("fundamental", {v: 1 for v in verts})
    with pytest.raises(ValueError, match="not positive definite"):
        kostant_multiplicity(quiver, lam, lam)
    with pytest.raises(ValueError, match="not positive definite"):
        weyl_dimension(quiver, lam)


def test_finite_types_are_positive_definite():
    for quiver in (Quiver(["x"], []), ROOT_QUIVERS["A3"], ROOT_QUIVERS["D4"],
                   Quiver(["x", "1", "2"], [Edge("a", "1", "2")])):
        lam = KMWeight.make("fundamental",
                            {v: 1 for v in cartan_matrix(quiver)[0]})
        assert kostant_multiplicity(quiver, lam, lam) == 1
        assert weyl_dimension(quiver, lam) > 1


def _ref_roots(A, bound):
    """The reference roots of the box, as _positive_roots lists them."""
    return tuple((beta, m) for beta, m in
                 _ref_root_multiplicities(A, bound).items() if m)


def _ref_multiplicities(A, lam_vec, roots):
    """The former Freudenthal recursion of _multiplicities over the roots
    (beta, mult) of a box holding every depth it is asked: every term, the
    denominator and the quotient are Fractions."""
    n = len(A)

    def form(a, b):
        return sum(A[i][j] * a[i] * b[j] for i in range(n) for j in range(n))

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
        denom = Fraction(2 * dot(lam_vec, beta) - form(beta, beta) + 2 * sum(beta))
        total = Fraction(0)
        for alpha, am in roots:
            k = 1
            while True:
                beta_up = tuple(b - k * a for b, a in zip(beta, alpha))
                if any(b < 0 for b in beta_up):
                    break
                m_up = mult(beta_up)
                if m_up:
                    val = dot(lam_vec, alpha) - form(beta_up, alpha)
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


WILD3 = Quiver(["p", "q"], [Edge("a", "p", "q"), Edge("b", "p", "q"),
                            Edge("c", "q", "p")])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "kronecker", "wild3"])
def test_integer_freudenthal_matches_fraction_recursion(name):
    """Every mult(beta) over a box, for every lam in a box, against the
    former Fraction recursion over the reference roots of the box."""
    quiver = {"A1": Quiver(["x"], []),
              "A2": Quiver(["1", "2"], [Edge("a", "1", "2")]), "A3": A3,
              "kronecker": kronecker_quiver(), "wild3": WILD3}[name]
    A = cartan_matrix(quiver)[1]
    n = len(A)
    top = {1: 6, 2: 4, 3: 3}[n]
    box = (top,) * n
    roots = _ref_roots(A, box)
    nonzero = 0
    for lam in itertools.product(range(7 if n == 1 else 3), repeat=n):
        mult = _multiplicities(A, lam, box)
        ref = _ref_multiplicities(A, lam, roots)
        for beta in itertools.product(range(top + 1), repeat=n):
            got = mult(beta)
            assert type(got) is int and got == ref(beta), (lam, beta)
            nonzero += got > 0
    assert nonzero >= 20


def _corrupt_roots(am):
    """The A2 roots with a wrong multiplicity on the root (1, 1)."""
    return ((1, 0), 1), ((0, 1), 1), ((1, 1), am)


@pytest.mark.parametrize("am, lam, beta, shown", [
    (2, (1, 1), (1, 1), "Fraction(8, 3)"),
    (-3, (1, 2), (1, 1), "Fraction(-1, 1)")])
def test_integer_freudenthal_raises_like_fraction_recursion(monkeypatch, am,
                                                            lam, beta, shown):
    """A non-integral and a negative quotient raise the former message.
    Both raise at the dominant depth (1, 1): a non-dominant depth takes the
    value of its reflection, which never reaches the corrupt root."""
    A = [[2, -1], [-1, 2]]
    monkeypatch.setattr(kacmoody, "_positive_roots",
                        lambda A, bound: _corrupt_roots(am))
    messages = []
    for mult in (_multiplicities(A, lam, (2, 2)),
                 _ref_multiplicities(A, lam, _corrupt_roots(am))):
        with pytest.raises(ArithmeticError) as info:
            for b in itertools.product(range(3), repeat=2):
                mult(b)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == \
        "Freudenthal produced %s at %r" % (shown, beta)


def _ref_string_decomposition(mults_along_line, pairings):
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


def _ref_ranks(quiver, dims_w, vmax):
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
            strings = _ref_string_decomposition(mults, pair_at)
            here = js.index(0)
            ranks[(i, v)] = {
                "e": sum(1 for top, bot in strings if bot <= here < top),
                "f": sum(1 for top, bot in strings if bot < here <= top)}
    return ranks


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "kronecker", "wild3"])
def test_ranks_match_string_walk(name):
    """e/f ranks and their dict order against the former string walk, for
    every framing in a box and a grid one step past the weight's depth."""
    quiver, top = {"A1": (Quiver(["x"], []), 6),
                   "A2": (Quiver(["1", "2"], [Edge("a", "1", "2")]), 3),
                   "A3": (A3, 2), "kronecker": (kronecker_quiver(), 2),
                   "wild3": (WILD3, 1)}[name]
    verts = cartan_matrix(quiver)[0]
    compared = 0
    for w in itertools.product(range(top + 1), repeat=len(verts)):
        dims_w = dict(zip(verts, w))
        vmax = {x: sum(w) + 1 for x in verts}
        got = decat_chevalley(quiver, dims_w, vmax)["ranks"]
        assert list(got.items()) == list(_ref_ranks(quiver, dims_w,
                                                    vmax).items()), w
        compared += len(got)
    assert compared >= 20


def _ref_kostant(quiver, lam, mu):
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


def test_kostant_shared_memo_matches_per_call_memo():
    """Kostant answers with one partition memo per Cartan matrix, queried
    round-robin across A1, A2, A1 x A1 (the same size as A2) and A3 and
    with mu in reversed order, equal the former oracle that builds its memo
    on every call."""
    kacmoody._finite_type_data.cache_clear()
    queues = []
    for quiver, lams, span in ((Quiver(["x"], []), [(3,), (4,)], range(-5, 6)),
                               (Quiver(["1", "2"], [Edge("a", "1", "2")]),
                                [(2, 1), (1, 2)], range(-3, 4)),
                               (Quiver(["1", "2"], []), [(2, 1)], range(-3, 4)),
                               (A3, [(1, 0, 1)], range(-2, 3))):
        verts = cartan_matrix(quiver)[0]
        for lam in lams:
            mus = list(itertools.product(span, repeat=len(verts)))[::-1]
            queues.append([(quiver, KMWeight.make("fundamental",
                                                  dict(zip(verts, lam))),
                            KMWeight.make("fundamental", dict(zip(verts, mu))))
                           for mu in mus])
    nonzero = 0
    for batch in itertools.zip_longest(*queues):
        for quiver, lam, mu in filter(None, batch):
            got = kostant_multiplicity(quiver, lam, mu)
            assert got == _ref_kostant(quiver, lam, mu), (lam, mu)
            nonzero += got != 0
    assert nonzero >= 40
