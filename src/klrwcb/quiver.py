"""Quivers, dimension vectors, flavours and the Crawley-Boevey completion.

A quiver is a directed multigraph with loops allowed.  Framing data w is
realized by a new vertex INFINITY and w_i extra edges i -> INFINITY; the
flavour assigns an exact scalar to every edge of the completed quiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .scalars import SymbolTable, as_scalar, format_scalar, is_integral, parse_scalar

INFINITY = "oo"


class Edge(NamedTuple):
    id: str
    tail: object
    head: object


class QuiverError(ValueError):
    pass


class Quiver:
    """Vertices plus a list of edges; edge ids are unique keys."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = []
        ids = set()
        vset = set(self.vertices)
        for e in edges:
            if e.id in ids:
                raise QuiverError("duplicate edge id %r" % (e.id,))
            if e.tail not in vset or e.head not in vset:
                raise QuiverError("edge %r has endpoint outside the vertex set" % (e.id,))
            self.edges.append(e)
            ids.add(e.id)

    def old_vertices(self):
        return [v for v in self.vertices if v != INFINITY]

    def old_edges(self):
        """Edges not touching the framing vertex."""
        return [e for e in self.edges if e.head != INFINITY and e.tail != INFINITY]

    def new_edges(self):
        return [e for e in self.edges if e.head == INFINITY]

    def components(self):
        """Connected components (undirected) of the full vertex set."""
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
        seen, comps = set(), []
        for v in self.vertices:
            if v in seen:
                continue
            stack, comp = [v], set()
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(adj[u] - comp)
            seen |= comp
            comps.append(comp)
        return comps

    def __repr__(self):
        return "Quiver(%r, %d edges)" % (self.vertices, len(self.edges))


@dataclass
class DimensionData:
    """Gauge and framing dimension vectors, given on every old vertex."""

    v: dict
    w: dict

    def check_against(self, quiver):
        for x in quiver.old_vertices():
            if x not in self.v or x not in self.w:
                raise QuiverError("dimension data missing vertex %r" % (x,))
            if self.v[x] < 0 or self.w[x] < 0:
                raise QuiverError("negative dimension at %r" % (x,))


@dataclass
class Flavour:
    """Scalar per edge of the completed quiver.  The values are
    ExactScalars from construction on: each is read once with as_scalar
    into the flavour's own dict, so no reader converts them again."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = {eid: as_scalar(c) for eid, c in self.values.items()}

    def __getitem__(self, edge_id):
        return self.values[edge_id]

    def check_total(self, completed):
        missing = [e.id for e in completed.edges if e.id not in self.values]
        if missing:
            raise QuiverError("flavour missing edges %r" % (missing,))

    def is_integral(self):
        return all(is_integral(c) for c in self.values.values())


def new_edge_id(vertex, k):
    return "w[%s]%d" % (vertex, k)


def crawley_boevey(quiver, dims):
    """Adjoin the framing vertex and w_i new edges i -> INFINITY.

    Old edges and their ids are preserved; new edges get fresh ids.
    """
    if INFINITY in quiver.vertices:
        raise QuiverError("quiver already has a framing vertex")
    dims.check_against(quiver)
    vertices = list(quiver.vertices) + [INFINITY]
    edges = list(quiver.edges)
    for x in quiver.old_vertices():
        for k in range(dims.w.get(x, 0)):
            edges.append(Edge(new_edge_id(x, k), x, INFINITY))
    return Quiver(vertices, edges)


# -- quiver spec files -----------------------------------------------------
#
# JSON shape:
#   {"vertices": [...], "edges": [{"id":..,"tail":..,"head":..}],
#    "v": {...}, "w": {...}, "flavour": {"edgeid": "scalar-literal", ...}}
#
# Flavour keys may name old edges or the generated new-edge ids; new edges
# without an explicit entry default to 0.


def load_quiver_spec(data, table=None):
    """Read a quiver spec from its JSON value; returns
    (quiver, dims, completed, flavour, table)."""
    if table is None:
        table = SymbolTable()
    if not isinstance(data, dict):
        raise QuiverError("quiver spec is not a JSON object")
    for key, kind in (("vertices", list), ("edges", list), ("v", dict),
                      ("w", dict), ("flavour", dict)):
        if not isinstance(data.get(key, kind()), kind):
            raise QuiverError("quiver spec field %r is not a JSON %s"
                              % (key, "array" if kind is list else "object"))
    vertices = _field(data, "vertices", "quiver spec")
    edges = [[_field(e, key, "edge %r" % (e,)) for key in ("id", "tail", "head")]
             for e in data.get("edges", [])]
    for name in vertices + [x for ends in edges for x in ends]:
        if not isinstance(name, str):
            raise QuiverError("vertex or edge name %r is not a string" % (name,))
    quiver = Quiver(vertices, [Edge(*ends) for ends in edges])
    v, w = _counts(data, "v"), _counts(data, "w")
    for x in quiver.old_vertices():
        v.setdefault(x, 0)
        w.setdefault(x, 0)
    dims = DimensionData(v, w)
    completed = crawley_boevey(quiver, dims)
    values = {}
    for eid, lit in data.get("flavour", {}).items():
        values[eid] = parse_scalar(str(lit), table)
    for e in completed.edges:
        values.setdefault(e.id, 0)
    flavour = Flavour(values)
    flavour.check_total(completed)
    return quiver, dims, completed, flavour, table


def _counts(data, key):
    for x, n in data.get(key, {}).items():
        if type(n) is not int:      # a JSON integer: no float, bool or string
            raise QuiverError("quiver spec field %r: %r at %r is not an integer"
                              % (key, n, x))
    return dict(data.get(key, {}))


def _field(obj, key, what):
    if not isinstance(obj, dict) or key not in obj:
        raise QuiverError("%s lacks %r" % (what, key))
    return obj[key]


def dump_quiver_spec(quiver, dims, flavour=None):
    """The JSON shape load_quiver_spec reads; vertex names are written
    with str()."""
    data = {
        "vertices": [str(x) for x in quiver.vertices],
        "edges": [{"id": e.id, "tail": str(e.tail), "head": str(e.head)}
                  for e in quiver.edges],
        "v": {str(x): n for x, n in dims.v.items()},
        "w": {str(x): n for x, n in dims.w.items()},
    }
    if flavour is not None:
        data["flavour"] = {eid: format_scalar(c) for eid, c in flavour.values.items()}
    return data


def kronecker_quiver():
    """The cyclically oriented two-vertex quiver used throughout the tests:
    f: alpha -> beta and e: beta -> alpha."""
    return Quiver(["alpha", "beta"],
                  [Edge("e", "beta", "alpha"), Edge("f", "alpha", "beta")])

