import itertools
import math
import random
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction

import pytest

from klrwcb.diagrams import (ComposeMismatchError, Diagram, Engine,
                             FramedComponentError, NoMatchingError, PolyVector,
                             TagMismatchError, _corporeal_position,
                             _test_polynomials, yvar)
from klrwcb.poly import ONE_POLY
from klrwcb.quiver import (DimensionData, Edge, Flavour, Quiver,
                           crawley_boevey, kronecker_quiver)
from klrwcb.render import render_diagram
from klrwcb.scalars import ExactScalar, SymbolTable, as_scalar, coset_rep, row_reduce
from klrwcb.sequences import FlavouredSequence, corporeal, from_weight, ghost, red

from reference import diagrams as ref
from reference.diagrams import a1_engine, kron2_engine
from reference.sequences import kronecker_data


def _identity(eng, s):
    """The idempotent e(s): the straight-line diagram from s to itself."""
    return eng.straight_line(s, s)


def test_identity_diagram():
    eng = a1_engine()
    s = from_weight({"x": [as_scalar(1), as_scalar(3)]}, eng.completed,
                    eng.flavour)
    e = _identity(eng, s)
    assert e.events == ()
    f = PolyVector(s, yvar(1) ** 2 * yvar(2))
    assert eng.act(e, f).poly == f.poly
    with pytest.raises(TagMismatchError):
        eng.act(e, PolyVector(from_weight({"x": [as_scalar(0), as_scalar(1)]},
                                          eng.completed, eng.flavour),
                              ONE_POLY))


def test_render_diagram_with_crossings():
    eng = kron2_engine()
    bottom = from_weight({"alpha": [as_scalar(0), as_scalar(3)],
                          "beta": [as_scalar(1)]}, eng.completed, eng.flavour)
    top = from_weight({"alpha": [as_scalar(2), as_scalar(0)],
                       "beta": [as_scalar(-1)]}, eng.completed, eng.flavour)
    d = eng.add_dots(eng.straight_line(bottom, top), [(1, Fraction(1, 3))])
    crossings = [ev for ev in d.events if ev[0] == "cross"]
    assert len(crossings) == 6
    svg = render_diagram(eng, d)
    root = ET.fromstring(svg.encode())
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(ns + "path")
    assert len(paths) == len(bottom.order)
    assert len(root.findall(ns + "circle")) == 1
    # every crossing adds two waypoints to each of its two strands
    segments = sum(p.get("d").count(" L ") for p in paths)
    assert segments == len(bottom.order) + 4 * len(crossings)
    assert render_diagram(eng, d) == svg


def test_straight_line_kron2_golden():
    # the worked Kronecker diagram: matching forced by labels and classes
    eng = kron2_engine()
    top = from_weight({"alpha": [as_scalar(-6), as_scalar(-1)],
                       "beta": [as_scalar(0)]}, eng.completed, eng.flavour)
    bottom = from_weight({"alpha": [as_scalar(-3), as_scalar(3)],
                          "beta": [as_scalar(-2)]}, eng.completed, eng.flavour)
    d = eng.straight_line(bottom, top)
    assert d.sigma() == {1: 1, 2: 3, 3: 2}
    # 9 strands in total
    assert len(bottom.order) == 9
    # degree is well-defined and the diagram acts
    f = PolyVector(bottom, yvar(1) * yvar(2))
    out = eng.act(d, f)
    assert out.seq == top


def a2_double_engine():
    """A2 with two strands at each vertex."""
    q = Quiver(["1", "2"], [Edge("a", "1", "2")])
    comp = crawley_boevey(q, DimensionData({"1": 2, "2": 2}, {"1": 1, "2": 0}))
    return Engine(comp, Flavour({"a": as_scalar(1), "w[1]0": as_scalar(0)}))


def tied_kronecker_engine():
    return Engine(*kronecker_data((3, 3), (0, 0))[2:])


@pytest.mark.parametrize("make, vertices, values", [
    (a2_double_engine, {"1": 2, "2": 2}, [-2, -1, 0, Fraction(1, 2), 1, 2]),
    (kron2_engine, {"alpha": 2, "beta": 1}, [-3, -1, 0, 1, Fraction(3, 2), 3]),
    (tied_kronecker_engine, {"alpha": 3, "beta": 3}, [0, 0, 0, Fraction(1, 2), 1, 1])],
    ids=["a2", "framed-kronecker", "tied-kronecker"])
def test_scheduler_matches_former_interpolation(make, vertices, values):
    # differential test of the index-based scheduler against the former
    # one, on seeded from_weight triples: the minimal matching of
    # straight_line and random class-preserving matchings of
    # permutation_diagram give equal Diagrams
    eng = make()
    rng = random.Random(5)
    crossings = 0
    for _ in range(40):
        gamma = {v: [rng.choice(values) for _ in range(n)] for v, n in vertices.items()}
        seqs = []
        for _ in range(3):
            seqs.append(from_weight({v: [as_scalar(a) for a in vals]
                                     for v, vals in gamma.items()},
                                    eng.completed, eng.flavour))
            gamma = {v: [a + rng.randint(-2, 2) for a in vals]
                     for v, vals in gamma.items()}
        for bottom, top in itertools.combinations(seqs, 2):
            sig = eng._minimal_matching(bottom, top)
            got = eng.straight_line(bottom, top)
            assert got == ref.interpolate(bottom, top, sig)
            crossings += len(got.events)
            classes = {}
            for k, kt in sig.items():
                key = (bottom.labels[k - 1], coset_rep(bottom.longitudes[k - 1]))
                classes.setdefault(key, []).append((k, kt))
            shuffled = {}
            for pairs in classes.values():
                targets = [kt for _, kt in pairs]
                rng.shuffle(targets)
                shuffled.update(zip((k for k, _ in pairs), targets))
            assert eng.permutation_diagram(bottom, top, shuffled) == \
                ref.interpolate(bottom, top, shuffled)
            if len(classes) > 1:
                (k1, t1), (k2, t2) = [rng.choice(pairs) for pairs in
                                      rng.sample(list(classes.values()), 2)]
                with pytest.raises(NoMatchingError):
                    eng.permutation_diagram(bottom, top, {**sig, k1: t2, k2: t1})
        shifted = {v: [as_scalar(a) for a in vals] for v, vals in gamma.items()}
        v = rng.choice(sorted(shifted))
        shifted[v][0] += Fraction(1, 3)
        with pytest.raises(NoMatchingError):
            eng.straight_line(seqs[0], from_weight(shifted, eng.completed, eng.flavour))
    assert crossings > 200


def test_minimal_matching_classes_match_coset_rep():
    # the integer class keys group strands exactly as coset_rep does: the
    # same matching, built in the same order, and the same refusals, on
    # rational, Gaussian and symbolic longitudes that differ by integers
    eng = kron2_engine()
    rng = random.Random(31)
    pool = [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3),
            as_scalar(Fraction(1, 2)) + ExactScalar(0, 1),
            ExactScalar(Fraction(-1, 2), 0, {"s": 1}),
            ExactScalar(0, Fraction(1, 2), {"s": Fraction(1, 2)})]

    def draw(labels):
        longs = [as_scalar(rng.choice(pool)) + rng.randint(-2, 2) for _ in labels]
        return FlavouredSequence(labels, longs, [corporeal(k) for k in
                                                 rng.sample(range(1, len(labels) + 1),
                                                            len(labels))])

    tally = {True: 0, False: 0}
    for _ in range(300):
        labels = rng.choice([("alpha", "alpha", "beta"), ("alpha", "beta", "alpha"),
                             ("beta", "alpha", "alpha")])
        bottom = draw(labels)
        top = draw(tuple(rng.sample(labels, len(labels))))
        if rng.random() < 0.5:
            top = FlavouredSequence(top.labels, [a + rng.randint(-2, 2) for a in
                                                 rng.sample(bottom.longitudes, 3)],
                                    top.order)
        want = ref.minimal_matching(bottom, top)
        try:
            got = list(eng._minimal_matching(bottom, top).items())
        except NoMatchingError:
            got = None
        assert got == want, (bottom.describe(), top.describe())
        tally[got is not None] += 1
    assert min(tally.values()) >= 30, tally


def test_straight_line_no_matching():
    eng = a1_engine()
    s1 = from_weight({"x": [as_scalar(0), as_scalar(1)]}, eng.completed,
                     eng.flavour)
    s2 = from_weight({"x": [as_scalar(0), as_scalar(Fraction(1, 2))]},
                     eng.completed, eng.flavour)
    with pytest.raises(NoMatchingError):
        eng.straight_line(s1, s2)


def test_degree_examples():
    eng = a1_engine()
    s = from_weight({"x": [as_scalar(0), as_scalar(1)]}, eng.completed,
                    eng.flavour)
    e = _identity(eng, s)
    assert eng.degree(eng.add_dots(e, [(1, Fraction(1, 2))])) == 2
    swap = eng.permutation_diagram(s, s, {1: 2, 2: 1})
    assert eng.degree(swap) == -2

    # corporeal past its target ghost: +1 per interacting crossing
    ek = kron2_engine()
    s2 = from_weight({"alpha": [as_scalar(0)], "beta": [as_scalar(1)]},
                     ek.completed, ek.flavour)
    s3 = from_weight({"alpha": [as_scalar(0)], "beta": [as_scalar(2)]},
                     ek.completed, ek.flavour)
    d = ek.straight_line(s2, s3)
    crossings = [ev for ev in d.events if ev[0] == "cross"]
    kinds = [ek.pair_kind(s2, ev[1], ev[2])[0] for ev in crossings]
    expected = sum(1 for k in kinds if k in ("ghost", "red")) \
        - 2 * sum(1 for k in kinds if k == "demazure")
    assert ek.degree(d) == expected
    assert sum(1 for k in kinds if k in ("ghost", "red")) >= 1


def test_act_bigons():
    eng = a1_engine()
    s = from_weight({"x": [as_scalar(0), as_scalar(1)]}, eng.completed,
                    eng.flavour)
    swap = eng.permutation_diagram(s, s, {1: 2, 2: 1})
    bigon = eng.compose(swap, swap)
    for p in (ONE_POLY, yvar(1), yvar(1) * yvar(2) ** 2):
        assert not eng.act(bigon, PolyVector(s, p)).poly


def test_red_bigon_acts_as_dot():
    # pushing a strand across its red and back multiplies by the strand dot
    ek = kron2_engine()
    s = from_weight({"alpha": [as_scalar(-3)], "beta": []},
                    ek.completed, ek.flavour)
    r_item = red("w[alpha]0")
    c_item = corporeal(1)
    i_r, i_c = s.order.index(r_item), s.order.index(c_item)
    assert i_c == i_r + 1  # red at -4, strand at -3, nothing in between
    bigon = Diagram(s, s, ((1, 1),),
                    (("cross", r_item, c_item, Fraction(1, 3)),
                     ("cross", c_item, r_item, Fraction(2, 3))))
    for p0 in (ONE_POLY, yvar(1) ** 2):
        got = ek.act(bigon, PolyVector(s, p0))
        assert got.poly == p0 * yvar(1)


def test_ghost_bigon_acts_as_difference():
    ek = kron2_engine()
    # beta strand at the longitude of the alpha strand's e-ghost
    s = from_weight({"alpha": [as_scalar(0)], "beta": [as_scalar(1)]},
                    ek.completed, ek.flavour)
    g_item, c_item = ghost(1, "e"), corporeal(2)
    i_g, i_c = s.order.index(g_item), s.order.index(c_item)
    assert i_c == i_g + 1
    sig = tuple((k, k) for k in range(1, s.n + 1))
    bigon = Diagram(s, s, sig,
                    (("cross", g_item, c_item, Fraction(1, 3)),
                     ("cross", c_item, g_item, Fraction(2, 3))))
    for p0 in (ONE_POLY, yvar(2)):
        got = ek.act(bigon, PolyVector(s, p0))
        assert got.poly == p0 * (yvar(1) - yvar(2))


def test_ghost_pair_classification():
    # a beta-strand at the longitude of the e-ghost of an alpha-strand
    # interacts with it (t(e) = beta and integral difference)
    ek = kron2_engine()
    s = from_weight({"alpha": [as_scalar(0)], "beta": [as_scalar(1)]},
                    ek.completed, ek.flavour)
    kind, c, g = ek.pair_kind(s, corporeal(2), ghost(1, "e"))
    assert kind == "ghost" and c == corporeal(2)
    # misaligned longitudes are inert
    s2 = from_weight({"alpha": [as_scalar(0)],
                      "beta": [as_scalar(Fraction(1, 2))]},
                     ek.completed, ek.flavour)
    assert ek.pair_kind(s2, corporeal(2), ghost(1, "e"))[0] == "inert"
    # the ghost of a beta-strand never interacts with beta (t(f) = alpha)
    assert ek.pair_kind(s, corporeal(2), ghost(2, "f"))[0] == "inert"


def _class_value(rng, kind):
    """A value in one of a few classes of C/Z, plus an integer, so that
    integral differences are common: halves, i and a symbol s."""
    base = rng.choice({"rational": [0, Fraction(1, 2)],
                       "gaussian": [0, Fraction(1, 2), ExactScalar(0, 1),
                                    ExactScalar(Fraction(1, 2), -1)],
                       "symbolic": [0, Fraction(1, 2), ExactScalar(0, 0, {"s": 1}),
                                    ExactScalar(Fraction(1, 2), 0, {"s": -1})]}[kind])
    return as_scalar(base) + rng.randint(-2, 2)


@pytest.mark.parametrize("kind", ["rational", "gaussian", "symbolic"])
def test_pair_kind_matches_reference(kind):
    # Engine.pair_kind against reference.diagrams.pair_kind, which decides
    # integrality on ExactScalar longitudes and their sums, over every
    # ordered pair of items of seeded from_weight sequences: framed and
    # unframed Kronecker, framed A2 and the Jordan quiver (a loop, so
    # ghosts of a strand's own label)
    rng = random.Random({"rational": 7, "gaussian": 8, "symbolic": 9}[kind])
    table = SymbolTable().declare("s", Fraction(707, 500))
    quivers = {"framed": kronecker_quiver(), "unframed": kronecker_quiver(),
               "a2": Quiver(["1", "2"], [Edge("a", "1", "2")]),
               "jordan": Quiver(["x"], [Edge("t", "x", "x")])}
    tally = Counter()
    for case in range(120):
        shape = ("framed", "unframed", "a2", "jordan")[case % 4]
        quiver = quivers[shape]
        frame = 0 if shape == "unframed" else 2
        dims = DimensionData({x: rng.randint(1, 3) for x in quiver.vertices},
                             {x: rng.randint(frame // 2, frame) for x in quiver.vertices})
        comp = crawley_boevey(quiver, dims)
        eng = Engine(comp, Flavour({e.id: _class_value(rng, kind) for e in comp.edges}),
                     table)
        gamma = {x: [_class_value(rng, kind) for _ in range(n)] for x, n in dims.v.items()}
        seq = from_weight(gamma, comp, eng.flavour, table)
        for a, b in itertools.permutations(seq.order, 2):
            got = eng.pair_kind(seq, a, b)
            assert got == ref.pair_kind(eng, seq, a, b), (seq.describe(), a, b)
            tally[shape, got[0]] += 1
    for shape in ("framed", "a2", "jordan"):
        assert min(tally[shape, k] for k in ("demazure", "ghost", "red", "inert")) >= 5, \
            tally
    assert tally["unframed", "ghost"] >= 5 and tally["unframed", "red"] == 0, tally


def test_compose_contract_and_associativity():
    eng = a1_engine()
    rng = random.Random(0)
    seqs = [from_weight({"x": [as_scalar(a), as_scalar(b)]}, eng.completed,
                        eng.flavour)
            for a, b in [(0, 0), (0, 1), (1, 2), (0, 2)]]
    for _ in range(12):
        s1, s2, s3, s4 = (rng.choice(seqs) for _ in range(4))
        d1 = eng.straight_line(s1, s2)
        d2 = eng.straight_line(s2, s3)
        d3 = eng.straight_line(s3, s4)
        d1 = eng.add_dots(d1, [(rng.randint(1, 2), Fraction(1, 3))])
        f = PolyVector(s1, rng.choice([ONE_POLY, yvar(1), yvar(2) ** 2]))
        lhs = eng.act(eng.compose(d2, d1), f)
        rhs = eng.act(d2, eng.act(d1, f))
        assert lhs.poly == rhs.poly and lhs.seq == rhs.seq
        a = eng.act(eng.compose(d3, eng.compose(d2, d1)), f)
        b = eng.act(eng.compose(eng.compose(d3, d2), d1), f)
        assert a.poly == b.poly

    with pytest.raises(ComposeMismatchError):
        eng.compose(_identity(eng, seqs[0]), _identity(eng, seqs[1]))


def test_compose_renumbers_the_dots_of_its_upper_factor():
    """d1 swaps the two strands, so strand k at the bottom of d2 is strand
    3 - k at the bottom of d1: compose carries d2's dot over to it, and
    act(compose(d2, d1)) = act(d2) act(d1)."""
    eng = a1_engine()
    s = from_weight({"x": [as_scalar(0), as_scalar(1)]}, eng.completed,
                    eng.flavour)
    d1 = eng.permutation_diagram(s, s, {1: 2, 2: 1})
    assert d1.sigma() == {1: 2, 2: 1}
    for k in (1, 2):
        d2 = eng.add_dots(_identity(eng, s), [(k, Fraction(1, 2))])
        for p in (yvar(1), yvar(1) * yvar(2) ** 2, yvar(2) ** 3):
            f = PolyVector(s, p)
            once = eng.act(d2, eng.act(d1, f)).poly
            assert once and eng.act(eng.compose(d2, d1), f).poly == once


def _homogeneous(p):
    return len({sum(e for _, e in m) for m in p.terms}) <= 1


def test_homogeneity_random():
    eng = kron2_engine()
    rng = random.Random(1)
    for _ in range(25):
        base = {"alpha": [as_scalar(rng.randint(-3, 3)) for _ in range(2)],
                "beta": [as_scalar(rng.randint(-3, 3))]}
        shift = {v: [a + rng.randint(-2, 2) for a in vals]
                 for v, vals in base.items()}
        bottom = from_weight(base, eng.completed, eng.flavour)
        top = from_weight(shift, eng.completed, eng.flavour)
        d = eng.straight_line(bottom, top)
        if rng.random() < 0.5:
            d = eng.add_dots(d, [(rng.randint(1, 3), Fraction(1, 97))])
        deg = eng.degree(d)
        f = PolyVector(bottom, rng.choice([ONE_POLY, yvar(1),
                                           yvar(2) * yvar(3), yvar(1) ** 2]))
        out = eng.act(d, f)
        if out.poly:
            assert _homogeneous(out.poly) or not _homogeneous(f.poly)
            assert out.degree(eng) == f.degree(eng) + deg


def test_isotopy_independence():
    # different admissible event orders give the same operator
    eng = kron2_engine()
    rng = random.Random(2)
    bottom = from_weight({"alpha": [as_scalar(0), as_scalar(1)],
                          "beta": [as_scalar(0)]}, eng.completed, eng.flavour)
    top = from_weight({"alpha": [as_scalar(1), as_scalar(2)],
                       "beta": [as_scalar(-2)]}, eng.completed, eng.flavour)
    d = eng.straight_line(bottom, top)
    f = PolyVector(bottom, yvar(1) * yvar(2) + yvar(3))
    reference = eng.act(d, f).poly
    for _ in range(10):
        shuffled = _shuffle_disjoint(rng, d)
        assert eng.act(shuffled, f).poly == reference


def _shuffle_disjoint(rng, diagram):
    events = sorted(diagram.events, key=lambda e: e[-1])
    for _ in range(8):
        i = rng.randrange(max(1, len(events) - 1))
        a, b = events[i], events[i + 1] if i + 1 < len(events) else (None, None)
        if b is None or b == (None, None):
            continue
        items_a = {a[1], a[2]} if a[0] == "cross" else {a[1]}
        items_b = {b[1], b[2]} if b[0] == "cross" else {b[1]}
        if items_a & items_b:
            continue
        ta, tb = a[-1], b[-1]
        events[i] = b[:-1] + (ta,)
        events[i + 1] = a[:-1] + (tb,)
    return Diagram(diagram.bottom, diagram.top, diagram.match, tuple(events))


def test_flavour_bound_is_exact_for_large_flavours():
    # (10**20 + 1)/3 truncates to 33333333333333333333; a float quotient
    # gives 33333333333333331968, and vanishing_certificate would take a
    # too-small H from it
    q = Quiver(["x"], [])
    comp = crawley_boevey(q, DimensionData({"x": 1}, {"x": 1}))
    eng = Engine(comp, Flavour({"w[x]0": as_scalar(Fraction(10 ** 20 + 1, 3))}))
    assert eng._flavour_bound() == 33333333333333333333


def test_vanishing_certificate_kronecker():
    q = kronecker_quiver()
    comp = crawley_boevey(q, DimensionData({"alpha": 2, "beta": 1},
                                           {"alpha": 0, "beta": 0}))
    eng = Engine(comp, Flavour({"e": as_scalar(1), "f": as_scalar(1)}))
    component = q.components()[0]
    rng = random.Random(6)
    for trial in range(3):
        gamma = {"alpha": [as_scalar(rng.randint(-3, 3)) for _ in range(2)],
                 "beta": [as_scalar(rng.randint(-3, 3))]}
        theta, theta_p, ok = eng.vanishing_certificate(gamma, component,
                                                       checks=4, seed=trial)
        assert ok


def test_vanishing_certificate_single_vertex():
    q = Quiver(["x"], [])
    comp = crawley_boevey(q, DimensionData({"x": 1}, {"x": 0}))
    eng = Engine(comp, Flavour({}))
    theta, theta_p, ok = eng.vanishing_certificate({"x": [as_scalar(0)]},
                                                   {"x"}, checks=3)
    assert ok


def test_vanishing_certificate_framed_component():
    q = kronecker_quiver()
    comp = crawley_boevey(q, DimensionData({"alpha": 1, "beta": 1},
                                           {"alpha": 1, "beta": 0}))
    eng = Engine(comp, Flavour({"e": as_scalar(1), "f": as_scalar(1),
                                "w[alpha]0": as_scalar(0)}))
    with pytest.raises(FramedComponentError):
        eng.vanishing_certificate({"alpha": [as_scalar(0)],
                                   "beta": [as_scalar(0)]},
                                  q.components()[0])


class MarkedEngine(Engine):
    """Every crossing that acts as nothing and has a corporeal item on its
    left multiplies by that strand's variable instead, so the loop of a
    vanishing certificate no longer acts as the identity."""

    def _crossing_operator(self, seq, order, left, right):
        op = super()._crossing_operator(seq, order, left, right)
        if op is None and left.is_corporeal():
            return "times", _corporeal_position(order, left)
        return op


@pytest.mark.parametrize("cls", [Engine, MarkedEngine])
def test_vanishing_certificate_matches_family_loop(cls):
    """The certificate cases above, acceptance 10's and two whose loop has
    crossings, decided on the family's monomials, against the loop over the
    whole family."""
    kq = kronecker_quiver()
    comp = crawley_boevey(kq, DimensionData({"alpha": 2, "beta": 1},
                                            {"alpha": 0, "beta": 0}))
    kron = cls(comp, Flavour({"e": as_scalar(1), "f": as_scalar(1)}))
    cases = []
    for rng_seed, trials, bound, checks in ((6, 3, 3, 4), (0, 10, 4, 6)):
        rng = random.Random(rng_seed)
        for trial in range(trials):
            gamma = {"alpha": [as_scalar(rng.randint(-bound, bound))
                               for _ in range(2)],
                     "beta": [as_scalar(rng.randint(-bound, bound))]}
            cases.append((kron, gamma, kq.components()[0], checks, trial))
    x = Quiver(["x"], [])
    single = cls(crawley_boevey(x, DimensionData({"x": 1}, {"x": 0})),
                 Flavour({}))
    cases.append((single, {"x": [as_scalar(0)]}, {"x"}, 3, 0))
    # two components, the framed one in the way: the loop has crossings
    xz = Quiver(["x", "z"], [])
    split = cls(crawley_boevey(xz, DimensionData({"x": 2, "z": 1},
                                                 {"x": 0, "z": 1})),
                Flavour({"w[z]0": as_scalar(1)}))
    for seed, gamma in enumerate(([0, 1, 0], [-2, 3, 1])):
        x1, x2, z = map(as_scalar, gamma)
        cases.append((split, {"x": [x1, x2], "z": [z]}, {"x"}, 5, seed))
    verdicts = []
    for eng, gamma, component, checks, seed in cases:
        theta, theta_p, ok = eng.vanishing_certificate(
            gamma, component, checks=checks, seed=seed)
        assert ok == ref.certificate_check(eng, theta, theta_p, checks,
                                            seed)
        verdicts.append(ok)
    # only the split loops have crossings for MarkedEngine to change
    assert verdicts == [True] * (len(cases) - 2) + [cls is Engine] * 2


def _two_component_engine(cls):
    """The Kronecker quiver beside a vertex z, all of it unframed."""
    q = Quiver(["alpha", "beta", "z"], [Edge("e", "beta", "alpha"),
                                       Edge("f", "alpha", "beta")])
    comp = crawley_boevey(q, DimensionData({"alpha": 2, "beta": 1, "z": 2},
                                           {"alpha": 0, "beta": 0, "z": 0}))
    return q, cls(comp, Flavour({"e": as_scalar(1), "f": as_scalar(1)}))


@pytest.mark.parametrize("shifted", [0, 1], ids=["kronecker", "z"])
def test_vanishing_certificate_crosses_other_component(shifted):
    """Shifting one component moves its strands and ghosts past the other
    component's strands, so theta and theta' have crossings and the check
    compares two different words; a MarkedEngine, whose crossings no longer
    cancel, fails the same certificates."""
    q, eng = _two_component_engine(Engine)
    _, marked = _two_component_engine(MarkedEngine)
    component = q.components()[shifted]
    rng = random.Random(3)
    for _ in range(3):
        gamma = {"alpha": [as_scalar(rng.randint(-3, 3)) for _ in range(2)],
                 "beta": [as_scalar(rng.randint(-3, 3))],
                 "z": [as_scalar(rng.randint(-3, 3)) for _ in range(2)]}
        theta, theta_p, ok = eng.vanishing_certificate(gamma, component)
        assert len(theta.events) > 0 and len(theta_p.events) > 0
        assert ok is True
        assert marked.vanishing_certificate(gamma, component)[2] is False


def test_dot_on_crossing_rejected():
    eng = a1_engine()
    s = from_weight({"x": [as_scalar(0), as_scalar(0)]}, eng.completed,
                    eng.flavour)
    swap = eng.permutation_diagram(s, s, {1: 2, 2: 1})
    cross_time = swap.events[0][-1]
    with pytest.raises(ValueError):
        eng.add_dots(swap, [(1, cross_time)])
    with pytest.raises(ValueError):
        eng.add_dots(swap, [(1, Fraction(3, 2))])


def _assert_independent(eng, s, ops, basis):
    """The actions of ops on the basis polynomials are linearly independent."""
    rows, monomials = [], {}
    for d in ops:
        row = {}
        for j, p in enumerate(basis):
            for mono, coeff in eng.act(d, PolyVector(s, p)).poly.terms.items():
                row[monomials.setdefault((j, mono), len(monomials))] = Fraction(coeff)
        rows.append(row)
    dense = [[r.get(c, Fraction(0)) for c in range(len(monomials))] for r in rows]
    assert len(row_reduce(dense)[1]) == len(ops)


def test_faithfulness_small():
    # spanning operators are linearly independent on low-degree polynomials
    q = Quiver(["x"], [])
    comp = crawley_boevey(q, DimensionData({"x": 2}, {"x": 1}))
    eng = Engine(comp, Flavour({"w[x]0": as_scalar(0)}))
    s = from_weight({"x": [as_scalar(0), as_scalar(0)]}, comp, Flavour({"w[x]0": as_scalar(0)}))
    ops = []
    for sig in ({1: 1, 2: 2}, {1: 2, 2: 1}):
        base = eng.permutation_diagram(s, s, sig)
        for dots in ([], [(1, Fraction(1, 97))], [(2, Fraction(1, 97))]):
            ops.append(eng.add_dots(base, dots))
    _assert_independent(eng, s, ops, _test_polynomials(2, 2, 0, random.Random(0)))


def test_faithfulness_three_strands():
    q = Quiver(["x"], [])
    comp = crawley_boevey(q, DimensionData({"x": 3}, {"x": 0}))
    eng = Engine(comp, Flavour({}))
    s = from_weight({"x": [as_scalar(0)] * 3}, comp, Flavour({}))
    ops = []
    for perm in itertools.permutations((1, 2, 3)):
        base = eng.permutation_diagram(s, s, dict(zip((1, 2, 3), perm)))
        for dots in ([], [(1, Fraction(1, 97))], [(2, Fraction(1, 97))],
                     [(3, Fraction(1, 97))]):
            ops.append(eng.add_dots(base, dots))
    _assert_independent(eng, s, ops, _test_polynomials(3, 3, 0, random.Random(0)))


def test_test_polynomials_match_frontier_reference():
    """The same family and the same rng calls as the reference, and a
    caller that changes its list changes no later family."""
    # a tail of 40 on a few monomials samples earlier random polynomials
    cases = [(n, d, extra) for n in range(6) for d in range(6)
             for extra in (0, 6)]
    cases += [(0, 1, 40), (1, 1, 40), (2, 2, 40), (3, 3, 40)]
    for n, d, extra in cases:
        got_rng, want_rng = random.Random(n * 10 + d), random.Random(n * 10 + d)
        got = _test_polynomials(n, d, extra, got_rng)
        want = ref.polynomial_family(n, d, extra, want_rng)
        assert [repr(p) for p in got] == [repr(p) for p in want], (n, d)
        assert len(got) == math.comb(n + 1 + d, d) + extra
        assert got_rng.random() == want_rng.random(), (n, d, extra)
        got.append(ONE_POLY)
        assert len(_test_polynomials(n, d, 0, got_rng)) == \
            math.comb(n + 1 + d, d)
