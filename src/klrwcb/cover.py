"""Reduction to the integral case via the covering quiver.

The cover lives in Gamma x (C/Z).  An edge e: i -> j of the base lifts to
(i, [w + phi_e]) -> (j, [w]); this pairing is what makes a lifted ghost
interact with exactly the strands that interacted with it downstairs.  A
new edge at i attaches to the coset [phi_e].  The canonical coset
representatives form a 0-cochain eta on the cover; ``integralize``
subtracts its coboundary from the pulled-back flavour, which lands every
flavour value in the integers, as a longitude a at (i, [a]) lands in the
integers once eta is subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import (INFINITY, DimensionData, Edge, Flavour, Quiver,
                     crawley_boevey, new_edge_id)
from .scalars import ZERO, ExactScalar, coset_rep, format_scalar, is_integral


class NonTrivializableError(ValueError):
    pass


class CoverMismatchError(ValueError):
    pass


class EdgeLoopInCoverError(ValueError):
    pass


class InfiniteCoverError(ValueError):
    pass


@dataclass(frozen=True)
class CoverVertex:
    base: object
    coset: ExactScalar  # canonical representative, rational part in [0,1)

    def __str__(self):
        return "(%s,[%s])" % (self.base, format_scalar(self.coset))


def cover_vertex(base, longitude):
    return CoverVertex(base, coset_rep(longitude))


def lift_edge_id(edge_id, head_coset):
    return "%s|[%s]" % (edge_id, format_scalar(head_coset))


@dataclass
class CoverData:
    quiver: Quiver            # old part of the cover
    dims: DimensionData       # v-tilde, w-tilde on the cover
    completed: Quiver         # Crawley-Boevey completion of the cover
    flavour: Flavour          # pulled-back flavour on the completed cover
    base_edge: dict           # cover edge id -> base edge id


def build_cover(quiver, dims, completed, flavour, orbit, table=None):
    """Covering quiver of an orbit representative.

    orbit maps old vertex -> list of longitudes (length v_i).  Vertices are
    the occupied (i, [z]); an old edge lifts wherever both endpoints are
    occupied; a new edge survives iff its flavour's coset is occupied at its
    tail, giving w-tilde.
    """
    occupied = {}
    for i, coords in orbit.items():
        if len(coords) != dims.v.get(i, 0):
            raise CoverMismatchError("orbit at %r has %d coordinates, v=%d"
                                     % (i, len(coords), dims.v.get(i, 0)))
        for a in coords:
            cv = cover_vertex(i, a)
            occupied[cv] = occupied.get(cv, 0) + 1

    vertices = sorted(occupied, key=str)
    vset = set(vertices)
    edges = []
    base_edge = {}
    values = {}
    for e, lift in _lift_edges(completed.old_edges(), flavour, vertices, vset):
        edges.append(lift)
        base_edge[lift.id] = e.id
        values[lift.id] = flavour[e.id]

    wtilde = {cv: 0 for cv in vertices}
    new_lifts = {cv: [] for cv in vertices}
    for e in sorted(completed.new_edges(), key=lambda e: e.id):
        cv = cover_vertex(e.tail, flavour[e.id])
        if cv in vset:
            wtilde[cv] += 1
            new_lifts[cv].append(e)

    cover_quiver = Quiver(vertices, edges)
    cover_dims = DimensionData({cv: occupied[cv] for cv in vertices}, wtilde)
    cover_completed = crawley_boevey(cover_quiver, cover_dims)
    for cv in vertices:
        for k, e in enumerate(new_lifts[cv]):
            eid = new_edge_id(cv, k)
            values[eid] = flavour[e.id]
            base_edge[eid] = e.id
    cflavour = Flavour(values)
    cflavour.check_total(cover_completed)
    return CoverData(cover_quiver, cover_dims, cover_completed, cflavour,
                     base_edge)


def _lift_edges(old_edges, flavour, vertices, present):
    """(base edge, lift) for every lift of an old edge e: i -> j between
    present cover vertices: (i, [w + phi_e]) -> (j, [w]) for each cover
    vertex (j, [w]) in vertices."""
    for e in old_edges:
        phi = flavour[e.id]
        for cv in vertices:
            if cv.base != e.head:
                continue
            tail_cv = cover_vertex(e.tail, cv.coset + phi)
            if tail_cv in present:
                yield e, Edge(lift_edge_id(e.id, cv.coset), tail_cv, cv)


def eta_of(vertex):
    """The 0-cochain trivializing the flavour cocycle: the canonical coset
    representative at each cover vertex, zero at the framing vertex."""
    if vertex == INFINITY:
        return ZERO
    return vertex.coset


def integralize(cover):
    """Subtract the coboundary of eta from the pulled-back flavour:
    phi'_e = phi_e - (eta(tail) - eta(head)); every value must land in Z."""
    values = {}
    for e in cover.completed.edges:
        corrected = cover.flavour[e.id] - (eta_of(e.tail) - eta_of(e.head))
        if not is_integral(corrected):
            raise NonTrivializableError(
                "edge %s keeps non-integral flavour %s" % (e.id, corrected))
        values[e.id] = corrected
    eta = {cv: eta_of(cv) for cv in cover.quiver.vertices}
    return eta, Flavour(values)


def category_o_graph(quiver, dims, completed, flavour, table=None,
                     max_vertices=4096):
    """The support graph for category O: the part of Gamma x (C/Z) connected
    to a framing coset (i, [phi_e]) for some new edge e at i.

    Built by breadth-first search from those seeds along the lifted
    adjacency; raises when the reachable set keeps growing past
    ``max_vertices`` (irrational flavours on cycles give infinite covers).
    """
    seeds = []
    wt = {}
    for e in completed.new_edges():
        cv = cover_vertex(e.tail, flavour[e.id])
        seeds.append(cv)
        wt[cv] = wt.get(cv, 0) + 1
    seen = set(seeds)
    frontier = list(seen)
    old_edges = completed.old_edges()
    while frontier:
        nxt = []
        for cv in frontier:
            for e in old_edges:
                phi = flavour[e.id]
                if e.tail == e.head and cv.base == e.tail and is_integral(phi):
                    raise EdgeLoopInCoverError(
                        "edge %s lifts to a loop at %s" % (e.id, cv))
                if e.tail == cv.base:
                    nb = cover_vertex(e.head, cv.coset - phi)
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
                if e.head == cv.base:
                    nb = cover_vertex(e.tail, cv.coset + phi)
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
        if len(seen) > max_vertices:
            raise InfiniteCoverError("cover exceeded %d vertices" % max_vertices)
        frontier = nxt

    vertices = sorted(seen, key=str)
    edges = [lift for _, lift in _lift_edges(old_edges, flavour, vertices, seen)]
    return Quiver(vertices, edges), wt
