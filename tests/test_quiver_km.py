import itertools
import random

import pytest

from klrwcb import kacmoody
from klrwcb.kacmoody import (EdgeLoopError, KMWeight, NotBelowError,
                             NotDominantError, _multiplicities,
                             _positive_roots, cartan_matrix, decat_chevalley,
                             fundamental_from_root_diff, kostant_multiplicity,
                             weight_multiplicity, weyl_dimension)
from klrwcb.quiver import (DimensionData, Edge, Quiver, crawley_boevey,
                           kronecker_quiver)

from reference import kacmoody as ref

A1 = Quiver(["x"], [])
A2 = Quiver(["1", "2"], [Edge("a", "1", "2")])
A3 = Quiver(["1", "2", "3"], [Edge("a", "1", "2"), Edge("b", "2", "3")])


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
    assert cartan_matrix(A1)[1] == [[2]]
    verts, A = cartan_matrix(A2)
    assert A == [[2, -1], [-1, 2]]
    verts, A = cartan_matrix(kronecker_quiver())
    assert A == [[2, -2], [-2, 2]]
    with pytest.raises(EdgeLoopError):
        cartan_matrix(Quiver(["x"], [Edge("t", "x", "x")]))


def test_mu_from_dimensions():
    # mu = sum w_i varpi_i - sum v_i alpha_i in fundamental coordinates, in
    # the form suite_satake computes it
    verts, A = cartan_matrix(A1)
    assert fundamental_from_root_diff(verts, A, {"x": 2}, {"x": 1}) == {"x": 0}
    assert fundamental_from_root_diff(verts, A, {"x": 1}, {"x": 0}) == {"x": 1}
    verts, A = cartan_matrix(A2)
    assert fundamental_from_root_diff(verts, A, {"1": 1, "2": 1},
                                      {"1": 1, "2": 1}) == {"1": 0, "2": 0}


def test_weight_multiplicity_examples():
    lam = KMWeight.make("fundamental", {"x": 2})
    assert weight_multiplicity(A1, lam, KMWeight.make("fundamental", {"x": 0})) == 1
    assert weight_multiplicity(A1, lam, lam) == 1
    lam2 = KMWeight.make("fundamental", {"1": 1, "2": 1})
    mu0 = KMWeight.make("fundamental", {"1": 0, "2": 0})
    assert weight_multiplicity(A2, lam2, mu0) == 2
    with pytest.raises(NotDominantError):
        weight_multiplicity(A1, KMWeight.make("fundamental", {"x": -1}), lam)
    with pytest.raises(NotBelowError):
        weight_multiplicity(A1, lam, KMWeight.make("fundamental", {"x": 4}))


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
    assert _total_multiplicity(A1, {"x": 3}, 3) == weyl_dimension(
        A1, KMWeight.make("fundamental", {"x": 3}))
    for lam in ({"1": 1, "2": 1}, {"1": 2, "2": 0}, {"1": 2, "2": 1}):
        assert _total_multiplicity(A2, lam, 4) == weyl_dimension(
            A2, KMWeight.make("fundamental", lam))
    for lam in ({"1": 1, "2": 0, "3": 0}, {"1": 1, "2": 0, "3": 1}):
        assert _total_multiplicity(A3, lam, 3) == weyl_dimension(
            A3, KMWeight.make("fundamental", lam))


def test_multiplicity_matches_kostant_oracle():
    lam_dict = {"1": 2, "2": 1}
    lam = KMWeight.make("fundamental", lam_dict)
    for v, mu in _all_weights_below(A2, lam_dict, 3):
        try:
            m = weight_multiplicity(A2, lam, mu)
        except NotBelowError:
            continue
        assert m == kostant_multiplicity(A2, lam, mu), (v, m)


def test_weyl_invariance_of_multiplicity():
    lam = KMWeight.make("fundamental", {"1": 1, "2": 1})
    # s_1-reflections of weights: mu -> mu - mu_1 alpha_1
    pairs = [({"1": 1, "2": 1}, {"1": -1, "2": 2}),
             ({"1": -1, "2": 2}, {"1": 1, "2": 1}),
             ({"1": 2, "2": -1}, {"1": -2, "2": 1})]
    for mu, smu in pairs:
        def mult(d):
            try:
                return weight_multiplicity(A2, lam,
                                           KMWeight.make("fundamental", d))
            except NotBelowError:
                return 0
        assert mult(mu) == mult(smu)


def test_decat_chevalley_a1():
    res = decat_chevalley(A1, {"x": 2}, {"x": 2})
    assert [res["table"][(v,)] for v in range(3)] == [1, 1, 1]
    assert res["ranks"][("x", (1,))]["e"] == 1
    assert res["ranks"][("x", (1,))]["f"] == 1


def test_decat_chevalley_a2_total():
    res = decat_chevalley(A2, {"1": 1, "2": 1}, {"1": 2, "2": 2})
    assert sum(res["table"].values()) == 8


def test_decat_rank_bookkeeping():
    _assert_rank_bookkeeping(decat_chevalley(A2, {"1": 1, "2": 1},
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


@pytest.mark.parametrize("quiver,w", [
    (A1, {"x": 1}), (A1, {"x": 2}), (A1, {"x": 3}), (A1, {"x": 4}),
    (A2, {"1": 1, "2": 1}), (A2, {"1": 2, "2": 1}), (A2, {"1": 2, "2": 0}),
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
    lam = KMWeight.make("fundamental", {"x": 2})
    got = [kostant_multiplicity(A1, lam, KMWeight.make("fundamental", {"x": m}))
           for m in (1, 3, 4, 0, -2)]
    assert got == [0, 0, 0, 1, 1]


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
                                   ref.root_multiplicities(A, box).items()
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
    for quiver in (A1, ROOT_QUIVERS["A3"], ROOT_QUIVERS["D4"],
                   Quiver(["x", "1", "2"], [Edge("a", "1", "2")])):
        lam = KMWeight.make("fundamental",
                            {v: 1 for v in cartan_matrix(quiver)[0]})
        assert kostant_multiplicity(quiver, lam, lam) == 1
        assert weyl_dimension(quiver, lam) > 1


WILD3 = Quiver(["p", "q"], [Edge("a", "p", "q"), Edge("b", "p", "q"),
                            Edge("c", "q", "p")])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "kronecker", "wild3"])
def test_integer_freudenthal_matches_fraction_recursion(name):
    """Every mult(beta) over a box, for every lam in a box, against the
    former Fraction recursion over the reference roots of the box."""
    quiver = {"A1": A1,
              "A2": A2, "A3": A3,
              "kronecker": kronecker_quiver(), "wild3": WILD3}[name]
    A = cartan_matrix(quiver)[1]
    n = len(A)
    top = {1: 6, 2: 4, 3: 3}[n]
    box = (top,) * n
    roots = ref.box_roots(A, box)
    nonzero = 0
    for lam in itertools.product(range(7 if n == 1 else 3), repeat=n):
        mult = _multiplicities(A, lam, box)
        want = ref.multiplicities(A, lam, roots)
        for beta in itertools.product(range(top + 1), repeat=n):
            got = mult(beta)
            assert type(got) is int and got == want(beta), (lam, beta)
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
                 ref.multiplicities(A, lam, _corrupt_roots(am))):
        with pytest.raises(ArithmeticError) as info:
            for b in itertools.product(range(3), repeat=2):
                mult(b)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == \
        "Freudenthal produced %s at %r" % (shown, beta)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "kronecker", "wild3"])
def test_ranks_match_string_walk(name):
    """e/f ranks and their dict order against the former string walk, for
    every framing in a box and a grid one step past the weight's depth."""
    quiver, top = {"A1": (A1, 6),
                   "A2": (A2, 3),
                   "A3": (A3, 2), "kronecker": (kronecker_quiver(), 2),
                   "wild3": (WILD3, 1)}[name]
    verts = cartan_matrix(quiver)[0]
    compared = 0
    for w in itertools.product(range(top + 1), repeat=len(verts)):
        dims_w = dict(zip(verts, w))
        vmax = {x: sum(w) + 1 for x in verts}
        got = decat_chevalley(quiver, dims_w, vmax)["ranks"]
        assert list(got.items()) == list(ref.ranks(quiver, dims_w,
                                                    vmax).items()), w
        compared += len(got)
    assert compared >= 20


def test_kostant_shared_memo_matches_per_call_memo():
    """Kostant answers with one partition memo per Cartan matrix, queried
    round-robin across A1, A2, A1 x A1 (the same size as A2) and A3 and
    with mu in reversed order, equal the former oracle that builds its memo
    on every call."""
    kacmoody._finite_type_data.cache_clear()
    queues = []
    for quiver, lams, span in ((A1, [(3,), (4,)], range(-5, 6)),
                               (A2,
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
            assert got == ref.kostant(quiver, lam, mu), (lam, mu)
            nonzero += got != 0
    assert nonzero >= 40
