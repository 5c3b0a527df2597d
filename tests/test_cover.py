from fractions import Fraction

import pytest

from klrwcb.cover import (EdgeLoopInCoverError, InfiniteCoverError,
                          build_cover, category_o_graph, cover_vertex,
                          coset_rep, integralize)
from klrwcb.quiver import (DimensionData, Edge, Flavour, Quiver,
                           crawley_boevey, kronecker_quiver)
from klrwcb.scalars import SymbolTable, as_scalar, is_integral, parse_scalar


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
        category_o_graph(q, dims, comp, fl, t)
