"""The diagram layer as it was: crossing scheduler, strand matching,
certificate check, test family, the pair classification and the relation
walk; and the engines that several test files share."""

import itertools
import random
from fractions import Fraction

from klrwcb.diagrams import (Diagram, Engine, NoMatchingError, PolyVector,
                             TagMismatchError, _test_polynomials, yvar)
from klrwcb.poly import ONE_POLY, Polynomial, as_poly
from klrwcb.quiver import DimensionData, Flavour, Quiver, crawley_boevey
from klrwcb.scalars import as_scalar, coset_rep, is_integral_difference
from klrwcb.sequences import CORPOREAL, RED, corporeal, is_unsteady

from .sequences import kron2_data


def a1_engine():
    q = Quiver(["x"], [])
    comp = crawley_boevey(q, DimensionData({"x": 2}, {"x": 2}))
    return Engine(comp, Flavour({"w[x]0": as_scalar(0), "w[x]1": as_scalar(2)}))


def kron2_engine():
    """The engine of the worked Kronecker data (reference.sequences)."""
    return Engine(*kron2_data()[2:])


def interpolate(bottom, top, sig):
    """The former crossing scheduler: items keyed by value, one order.index
    per pending pair at every step."""
    item_map = {it: it.renumber(sig) for it in bottom.order}
    top_pos = {it: i for i, it in enumerate(top.order)}
    start = {it: i for i, it in enumerate(bottom.order)}
    end = {it: top_pos[item_map[it]] for it in bottom.order}
    pending = []
    for u, v in itertools.combinations(bottom.order, 2):
        if (start[u] - start[v]) * (end[u] - end[v]) < 0:
            num = Fraction(start[v] - start[u])
            den = Fraction((start[v] - start[u]) - (end[v] - end[u]))
            pending.append((num / den, u, v))
    pending.sort(key=lambda tup: (tup[0], min(start[tup[1]], start[tup[2]]),
                                  max(start[tup[1]], start[tup[2]])))
    order = list(bottom.order)
    events = []
    while pending:
        for idx, (t, u, v) in enumerate(pending):
            iu, iv = order.index(u), order.index(v)
            if abs(iu - iv) == 1:
                left, right = (u, v) if iu < iv else (v, u)
                events.append(("cross", left, right, None))
                li = min(iu, iv)
                order[li], order[li + 1] = order[li + 1], order[li]
                pending.pop(idx)
                break
        else:
            raise NoMatchingError("could not schedule crossings")
    events = tuple(("cross", ev[1], ev[2], Fraction(i + 1, len(events) + 1))
                   for i, ev in enumerate(events))
    if [item_map[it] for it in order] != list(top.order):
        raise NoMatchingError("interpolation does not reach the top sequence")
    return Diagram(bottom, top, tuple(sorted(sig.items())), events)


def minimal_matching(bottom, top):
    """The former matching: strands classed by (label, coset_rep of the
    longitude), matched in order inside each class; None when the classes
    of the two sequences differ."""
    def classes(seq):
        out = {}
        for it in seq.order:
            if it.is_corporeal():
                key = (str(seq.labels[it.k - 1]), coset_rep(seq.longitudes[it.k - 1]))
                out.setdefault(key, []).append(it.k)
        return out

    cb, ct = classes(bottom), classes(top)
    if set(cb) != set(ct) or any(len(cb[k]) != len(ct[k]) for k in cb):
        return None
    return [(kb, kt) for key in cb for kb, kt in zip(cb[key], ct[key])]


def certificate_check(eng, theta, theta_p, checks, seed):
    """The former check of vanishing_certificate: act on every member of
    the test family in turn."""
    s = theta.bottom
    loop = eng.compose(theta_p, theta)
    ident = eng.straight_line(s, s)
    ok = is_unsteady(theta.top)[0]
    rng = random.Random(seed)
    for f in _test_polynomials(s.n, 4, checks, rng):
        vec = PolyVector(s, f)
        if eng.act(loop, vec).poly != eng.act(ident, vec).poly:
            ok = False
            break
    return ok


def polynomial_family(n, degree_bound, extra_random, rng):
    """The former frontier-and-dedup construction of the test family."""
    vars_ = ["y%d" % k for k in range(1, n + 1)] + ["h"]
    monos = [ONE_POLY]
    frontier = [ONE_POLY]
    for _ in range(degree_bound):
        nxt = [m * Polynomial.variable(v) for m in frontier for v in vars_]
        monos.extend(nxt)
        frontier = nxt
    seen = set()
    out = []
    for m in monos:
        key = tuple(sorted(m.terms))
        if key not in seen:
            seen.add(key)
            out.append(m)
    for _ in range(extra_random):
        p = sum((Fraction(rng.randint(-3, 3)) * m
                 for m in rng.sample(out, min(4, len(out)))), ONE_POLY * 0)
        out.append(p if p else ONE_POLY)
    return out


# -- the relation walk: act walks timed item events and apply positional
# steps, each classifying every crossing again for every polynomial through
# the former crossing-operator table in crossing.


def demazure(f, r):
    """The former operator: f - s f, then long division by y_r - y_{r+1}."""
    a, b = "y%d" % r, "y%d" % (r + 1)
    denom = Polynomial.variable(a) - Polynomial.variable(b)
    return (f - f.swap_vars(a, b)).divide_exact(denom)


def position(order, item):
    """The number of corporeal items of order up to and including item."""
    return sum(it.is_corporeal() for it in order[:order.index(item) + 1])


def pair_kind(engine, seq, a, b):
    """The former Engine.pair_kind: integrality asked of ExactScalar
    longitudes, a ghost's longitude built as the sum a_k + phi_e."""
    def longitude(it):
        if it.kind == CORPOREAL:
            return seq.longitudes[it.k - 1]
        if it.kind == RED:
            return engine.flavour.values[it.edge]
        return seq.longitudes[it.k - 1] + engine.flavour.values[it.edge]

    if a.kind == CORPOREAL and b.kind == CORPOREAL:
        if seq.labels[a.k - 1] == seq.labels[b.k - 1] and \
                is_integral_difference(longitude(a), longitude(b)):
            return "demazure", a, b
        return "inert", a, b
    if a.kind != CORPOREAL and b.kind != CORPOREAL:
        return "inert", a, b
    c, g = (a, b) if a.kind == CORPOREAL else (b, a)
    tails = {e.id: e.tail for e in engine.completed.edges}
    if tails[g.edge] != seq.labels[c.k - 1] or \
            not is_integral_difference(longitude(c), longitude(g)):
        return "inert", c, g
    return ("red" if g.kind == RED else "ghost"), c, g


def crossing(engine, seq, order, left, right, f):
    kind, c, g = pair_kind(engine, seq, left, right)
    if kind == "inert":
        if left.is_corporeal() and right.is_corporeal():
            r = position(order, left)
            return f.swap_vars("y%d" % r, "y%d" % (r + 1))
        return f
    if kind == "demazure":
        return engine._demazure(f, position(order, left))
    p = position(order, c)
    if c != left:
        return f
    if kind == "ghost":
        q = position(order, corporeal(g.k))
        return f * (yvar(q) - yvar(p))
    return f * yvar(p)


def act(engine, diagram, vector):
    if vector.seq != diagram.bottom:
        raise TagMismatchError("vector tag differs from the diagram bottom")
    order = list(diagram.bottom.order)
    poly = vector.poly
    for ev in sorted(diagram.events, key=lambda e: e[-1]):
        if ev[0] == "dot":
            poly = poly * yvar(position(order, ev[1]))
            continue
        _, left, right, _ = ev
        il, ir = order.index(left), order.index(right)
        if (il, ir) != (ir - 1, il + 1):
            raise ValueError("event %r is not adjacent" % (ev,))
        poly = crossing(engine, diagram.bottom, order, left, right, poly)
        order[il], order[ir] = order[ir], order[il]
    item_map = diagram.item_map()
    if [item_map[it] for it in order] != list(diagram.top.order):
        raise ValueError("event word does not realize the matching")
    return PolyVector(diagram.top, poly)


def apply(scenario, word, poly):
    order = list(scenario.seq.order)
    for step in word:
        if step[0] == "dot":
            poly = poly * yvar(position(order, step[1]))
            continue
        i = step[1]
        poly = crossing(scenario.engine, scenario.seq, order, order[i],
                        order[i + 1], poly)
        order[i], order[i + 1] = order[i + 1], order[i]
    return poly, order


def equal(scenario, lhs, rhs, polys):
    for f in polys:
        a, b = (sum((as_poly(c) * apply(scenario, w, f)[0] for c, w in side),
                    ONE_POLY * 0) for side in (lhs, rhs))
        if a != b:
            return False, f
    return True, None


def verify_relations(instances, degree_bound, n_random, seed):
    """The former pass: a fresh family drawn for every instance."""
    rng = random.Random(seed)
    report = {}
    for name, sc, lhs, rhs in instances:
        polys = _test_polynomials(sc.n, degree_bound, n_random, rng)
        ok, witness = sc.equal(lhs, rhs, polys)
        entry = report.setdefault(name, {"instances": 0, "test_polys": 0,
                                         "failures": []})
        entry["instances"] += 1
        entry["test_polys"] += len(polys)
        if not ok:
            entry["failures"].append({
                "labels": tuple(map(str, sc.seq.labels)),
                "longitudes": tuple(map(str, sc.seq.longitudes)),
                "witness": repr(witness),
            })
    report["ok"] = all(not v["failures"] for k, v in report.items()
                       if isinstance(v, dict))
    return report
