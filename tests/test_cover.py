import random
from fractions import Fraction

import pytest

from klrwcb.cover import (CoverMismatchError, EdgeLoopInCoverError,
                          InfiniteCoverError, build_cover, category_o_graph,
                          cover_vertex, coset_rep, integralize, transport,
                          untransport)
from klrwcb.quiver import (DimensionData, Edge, Flavour, Quiver,
                           crawley_boevey, kronecker_quiver)
from klrwcb.scalars import SymbolTable, as_scalar, is_integral, parse_scalar
from klrwcb.sequences import equivalent, from_weight, is_unsteady, validate


def golden_cover():
    q = kronecker_quiver()
    dims = DimensionData({"alpha": 5, "beta": 6}, {"alpha": 2, "beta": 1})
    comp = crawley_boevey(q, dims)
    t = SymbolTable()
    fl = Flavour({
        "e": as_scalar(Fraction(1, 3)), "f": as_scalar(0),
        "w[alpha]0": as_scalar(0),
        "w[alpha]1": parse_scalar("sym:sqrt2~1.41421", t),
        "w[beta]0": as_scalar(Fraction(1, 2)),
    })
    orbit = {"alpha": [as_scalar(x) for x in
                       (0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                        Fraction(2, 3))],
             "beta": [as_scalar(x) for x in
                      (0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 3),
                       Fraction(1, 2), Fraction(2, 3))]}
    return q, dims, comp, fl, orbit, t


def test_coset_rep():
    assert coset_rep(Fraction(7, 3)) == as_scalar(Fraction(1, 3))
    assert coset_rep(Fraction(-1, 2)) == as_scalar(Fraction(1, 2))
    assert coset_rep(3) == as_scalar(0)


def test_golden_cover_dimensions():
    q, dims, comp, fl, orbit, t = golden_cover()
    cov = build_cover(q, dims, comp, fl, orbit, t)
    v = {str(k): n for k, n in cov.dims.v.items()}
    assert v == {"(alpha,[0])": 1, "(alpha,[1/3])": 1, "(alpha,[1/2])": 1,
                 "(alpha,[2/3])": 2, "(beta,[0])": 1, "(beta,[1/6])": 1,
                 "(beta,[1/3])": 2, "(beta,[1/2])": 1, "(beta,[2/3])": 1}
    w = {str(k): n for k, n in cov.dims.w.items() if n}
    assert w == {"(alpha,[0])": 1, "(beta,[1/2])": 1}
    # the symbolic-flavour framing edge contributes nothing
    assert sum(cov.dims.w.values()) == 2 < sum(dims.w.values())


def test_golden_cover_structure():
    q, dims, comp, fl, orbit, t = golden_cover()
    cov = build_cover(q, dims, comp, fl, orbit, t)
    sizes = sorted(len(c) for c in cov.quiver.components())
    assert sizes == [1, 2, 6]


def test_integralize_golden():
    q, dims, comp, fl, orbit, t = golden_cover()
    cov = build_cover(q, dims, comp, fl, orbit, t)
    eta, phi_prime = integralize(cov)
    assert all(is_integral(v) for v in phi_prime.values.values())
    for cv, val in eta.items():
        assert val == cv.coset


def test_integralize_trivial(kronecker_unframed):
    q, dims, comp, fl = kronecker_unframed
    orbit = {"alpha": [as_scalar(0)], "beta": [as_scalar(3)]}
    cov = build_cover(q, dims, comp, fl, orbit)
    eta, phi_prime = integralize(cov)
    assert all(not v for v in eta.values())
    assert all(is_integral(v) for v in phi_prime.values.values())


def test_build_cover_empty_orbit():
    q = kronecker_quiver()
    dims = DimensionData({"alpha": 0, "beta": 0}, {"alpha": 0, "beta": 0})
    comp = crawley_boevey(q, dims)
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(1)})
    cov = build_cover(q, dims, comp, fl, {"alpha": [], "beta": []})
    assert cov.quiver.vertices == [] and cov.quiver.edges == []


def test_cover_dimension_sums():
    q, dims, comp, fl, orbit, t = golden_cover()
    cov = build_cover(q, dims, comp, fl, orbit, t)
    for x in q.old_vertices():
        assert sum(n for cv, n in cov.dims.v.items() if cv.base == x) == dims.v[x]
        assert sum(n for cv, n in cov.dims.w.items() if cv.base == x) <= dims.w[x]


def test_transport_identity_on_integral(kronecker_unframed):
    q, dims, comp, fl = kronecker_unframed
    orbit = {"alpha": [as_scalar(0)], "beta": [as_scalar(3)]}
    cov = build_cover(q, dims, comp, fl, orbit)
    s = from_weight({"alpha": [as_scalar(0)], "beta": [as_scalar(3)]}, comp, fl)
    ts = transport(s, cov)
    assert tuple(a.rational for a in ts.longitudes) == \
        tuple(a.rational for a in s.longitudes)
    assert [it.kind for it in ts.order] == [it.kind for it in s.order]


def test_transport_shift_rule():
    # a single corporeal at 1/2 lands at ((i,[1/2]), 0)
    q = Quiver(["i"], [])
    dims = DimensionData({"i": 1}, {"i": 0})
    comp = crawley_boevey(q, dims)
    fl = Flavour({})
    orbit = {"i": [as_scalar(Fraction(1, 2))]}
    cov = build_cover(q, dims, comp, fl, orbit)
    s = from_weight({"i": [as_scalar(Fraction(1, 2))]}, comp, fl)
    ts = transport(s, cov)
    assert str(ts.labels[0]) == "(i,[1/2])"
    assert ts.longitudes[0] == as_scalar(0)


def test_transport_mismatch():
    q = Quiver(["i"], [])
    dims = DimensionData({"i": 1}, {"i": 0})
    comp = crawley_boevey(q, dims)
    fl = Flavour({})
    cov = build_cover(q, dims, comp, fl, {"i": [as_scalar(0)]})
    s = from_weight({"i": [as_scalar(Fraction(1, 3))]}, comp, fl)
    with pytest.raises(CoverMismatchError):
        transport(s, cov)


def _saturated_random_data(rng):
    """Random Kronecker data whose cover drops nothing: all longitudes and
    all flavours live in the cosets of a fixed 1/2-lattice pool."""
    q = kronecker_quiver()
    dims = DimensionData({"alpha": rng.randint(1, 2), "beta": rng.randint(1, 2)},
                         {"alpha": 1, "beta": 1})
    comp = crawley_boevey(q, dims)
    halves = lambda: as_scalar(Fraction(rng.randint(-4, 4), 2))
    fl = Flavour({"e": as_scalar(rng.randint(-1, 1)),
                  "f": as_scalar(rng.randint(-1, 1)),
                  "w[alpha]0": halves(), "w[beta]0": halves()})
    orbit = {"alpha": [halves() for _ in range(dims.v["alpha"])],
             "beta": [halves() for _ in range(dims.v["beta"])]}
    # saturate: force every half-integer coset to appear at both vertices
    need = [as_scalar(0), as_scalar(Fraction(1, 2))]
    orbit["alpha"] = need + orbit["alpha"][:max(0, dims.v["alpha"] - 2)]
    orbit["beta"] = need + orbit["beta"][:max(0, dims.v["beta"] - 2)]
    dims = DimensionData({"alpha": len(orbit["alpha"]),
                          "beta": len(orbit["beta"])}, dims.w)
    comp = crawley_boevey(kronecker_quiver(), dims)
    return q, dims, comp, fl, orbit


def test_transport_roundtrip_saturated():
    rng = random.Random(9)
    for _ in range(8):
        q, dims, comp, fl, orbit = _saturated_random_data(rng)
        cov = build_cover(q, dims, comp, fl, orbit)
        s = from_weight(orbit, comp, fl)
        ts = transport(s, cov)
        assert validate(ts, cov.completed, integralize(cov)[1]) == []
        back = untransport(ts, cov)
        assert back == s


def _rational_random_data(rng):
    """Random Kronecker data with rational flavours and longitudes of
    denominators 1-3 and framing 0-1: most covers drop ghosts or reds."""
    q = kronecker_quiver()
    dims = DimensionData({"alpha": rng.randint(1, 3), "beta": rng.randint(1, 3)},
                         {"alpha": rng.randint(0, 1), "beta": rng.randint(0, 1)})
    comp = crawley_boevey(q, dims)
    draw = lambda: as_scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
    fl = Flavour({e.id: draw() for e in comp.edges})
    orbit = {x: [draw() for _ in range(dims.v[x])] for x in q.old_vertices()}
    return q, dims, comp, fl, orbit


def test_untransport_restores_dropped_items():
    # untransport builds the base items from the base data the cover keeps,
    # so the ghosts and reds the cover drops come back
    rng = random.Random(16)
    dropped = kept = 0
    while dropped < 200:
        q, dims, comp, fl, orbit = _rational_random_data(rng)
        cov = build_cover(q, dims, comp, fl, orbit)
        s = from_weight(orbit, comp, fl)
        ts = transport(s, cov)
        back = untransport(ts, cov)
        assert validate(back, comp, fl) == []
        assert equivalent(s, back, comp, fl)[0]
        if len(ts.order) == len(s.order):
            kept += 1
            assert back == s
        else:
            dropped += 1
    assert kept > 0


def test_transport_preserves_unsteadiness_saturated():
    rng = random.Random(10)
    for _ in range(8):
        q, dims, comp, fl, orbit = _saturated_random_data(rng)
        cov = build_cover(q, dims, comp, fl, orbit)
        s = from_weight(orbit, comp, fl)
        ts = transport(s, cov)
        assert is_unsteady(s)[0] == is_unsteady(ts)[0]


def test_category_o_graph_jordan_halfstep():
    q = Quiver(["x"], [Edge("t", "x", "x")])
    dims = DimensionData({"x": 1}, {"x": 1})
    comp = crawley_boevey(q, dims)
    fl = Flavour({"t": as_scalar(Fraction(1, 2)), "w[x]0": as_scalar(0)})
    graph, wt = category_o_graph(q, dims, comp, fl)
    assert sorted(map(str, graph.vertices)) == ["(x,[0])", "(x,[1/2])"]
    assert len(graph.edges) == 2
    assert wt == {cover_vertex("x", as_scalar(0)): 1}


def test_category_o_graph_integral(kronecker_unframed):
    q = kronecker_quiver()
    dims = DimensionData({"alpha": 1, "beta": 1}, {"alpha": 1, "beta": 0})
    comp = crawley_boevey(q, dims)
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(2), "w[alpha]0": as_scalar(0)})
    graph, wt = category_o_graph(q, dims, comp, fl)
    assert sorted(map(str, graph.vertices)) == ["(alpha,[0])", "(beta,[0])"]


def test_category_o_graph_no_framing():
    q = kronecker_quiver()
    dims = DimensionData({"alpha": 1, "beta": 1}, {"alpha": 0, "beta": 0})
    comp = crawley_boevey(q, dims)
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(1)})
    graph, wt = category_o_graph(q, dims, comp, fl)
    assert graph.vertices == []


def test_category_o_graph_edge_loop():
    q = Quiver(["x"], [Edge("t", "x", "x")])
    dims = DimensionData({"x": 1}, {"x": 1})
    comp = crawley_boevey(q, dims)
    fl = Flavour({"t": as_scalar(1), "w[x]0": as_scalar(0)})
    with pytest.raises(EdgeLoopInCoverError):
        category_o_graph(q, dims, comp, fl)


def test_category_o_graph_infinite():
    q = Quiver(["x"], [Edge("t", "x", "x")])
    dims = DimensionData({"x": 1}, {"x": 1})
    comp = crawley_boevey(q, dims)
    t = SymbolTable()
    fl = Flavour({"t": parse_scalar("sym:sqrt2~1.41421", t),
                  "w[x]0": as_scalar(0)})
    with pytest.raises(InfiniteCoverError):
        category_o_graph(q, dims, comp, fl, t, max_vertices=64)
