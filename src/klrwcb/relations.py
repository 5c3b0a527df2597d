"""The local relation suite for the diagram calculus.

Every local relation is instantiated over concrete quiver data as a pair
of crossing/dot words on an explicit arrangement of strand items.  The
instances are built once per engine, on its first verify_relations pass,
and kept on the engine; verdicts are not kept: every pass draws its test
families and decides every instance afresh.  Both sides are applied to a
family of polynomials (all monomials up to a degree bound plus seeded
random polynomials), one family per strand count and pass, shared by
every instance with that count.  A relation instance passes when the two
sides agree exactly on every test polynomial.

Every operator is linear, so a side is decided from its image table: a
mapping monomial -> the side's image of that monomial, kept as the tuple of
its (monomial, coefficient) pairs sorted by monomial with zero terms
dropped.  Such a tuple is canonical, so two sides agree on a monomial
exactly when their tuples are equal.  A side of one word with coefficient
1 reads the engine's memo of that word's images (Engine.images) itself;
any other side keeps its own table, each entry summed from its words'
images on first lookup.  Scenario.side resolves a side to such a table,
and a family lists its distinct monomials once.

By the same linearity the difference D = lhs - rhs vanishes on a test
polynomial f when it vanishes on each monomial of f, since D(f) is the sum
over f's monomials m of f's coefficient at m times D(m).  So Scenario.equal
compares the two tables on the distinct monomials of the family; the
random tail, whose members are combinations of monomials the family
already holds, then adds no work per instance.  Only when D is nonzero on
some monomial are the test polynomials tried one by one, which names the
same first failing polynomial as trying them all would.  Each report entry
counts its instances, the test polynomials they were checked on, and its
failures.

The correction signs of the two triple-point moves follow from the divided
difference convention fixed in the engine; the suite is the normative
record of the convention.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .poly import Polynomial, coefficient
from .scalars import as_scalar, is_integral
from .sequences import FlavouredSequence, corporeal, ghost, red
from .diagrams import _test_polynomials


class Scenario:
    """An arrangement of items with labels and longitudes, not required to
    be a valid flavoured sequence; words of positional crossings and strand
    dots act on polynomials through Engine.word_operators.  equal reads
    image tables built from the engine's memo of monomial images; apply
    runs the operators, so a check of equal through apply does not trust
    that memo."""

    def __init__(self, engine, labels, longitudes, arrangement):
        self.engine = engine
        self.seq = FlavouredSequence(labels, longitudes, arrangement)

    @property
    def n(self):
        return len(self.seq.labels)

    def apply(self, word, poly):
        """The word applied to poly by the operators themselves, not from
        the memo of images that equal reads, and the final item order."""
        ops, order = self.engine.word_operators(self.seq, word)
        return self.engine.run_operators(ops, poly), order

    def side(self, pairs):
        """The side given by pairs of (coeff, word), as a _Side: it
        iterates as those pairs, and its .images maps a monomial to the
        side's image of it as a canonical tuple.  A side of one word with
        coefficient 1 uses that word's Engine.images table itself."""
        side = _Side(pairs)
        tables = [(coefficient(c), self.engine.images(
            self.engine.word_operators(self.seq, w)[0])) for c, w in side]
        if len(tables) == 1 and tables[0][0] == 1:
            side.images = tables[0][1]
        else:
            side.images = _Sum(tables)
        return side

    def equal(self, lhs, rhs, polys):
        """lhs, rhs: sides as lists of (coeff, word) or from side(); returns
        (True, None) when they agree on every test poly, else (False, the
        first poly they differ on).  A side that is not a _Side, and a
        family that verify_relations did not draw, are resolved afresh.

        D = lhs - rhs is decided first on the distinct monomials of polys,
        in first-seen order: D(m) is zero exactly when the two sides' image
        tuples at m are equal.  D is linear: D(f) is the sum over f's
        monomials m of f's coefficient at m times D(m), so if D(m) is zero
        for every such m, D(f) is zero for every f in polys.  If some D(m)
        is not zero, the polys are tried in order; this names the first
        failing one, and still passes a family in which the nonzero
        monomial images cancel inside every polynomial."""
        a = (lhs if isinstance(lhs, _Side) else self.side(lhs)).images
        b = (rhs if isinstance(rhs, _Side) else self.side(rhs)).images
        if not isinstance(polys, _Family):
            polys = _Family(polys)
        for m in polys.monomials:
            if a[m] != b[m]:
                break
        else:
            return True, None
        for f in polys:
            if _differs(a, b, f):
                return False, f
        return True, None


class _Side(tuple):
    """A side's (coeff, word) pairs; Scenario.side sets .images."""


class _Sum(dict):
    """The image table of a side that is not one word with coefficient 1:
    monomial -> the canonical tuple of the sum of c * image over the
    side's (c, images) pairs, summed on first lookup and kept."""

    def __init__(self, tables):
        super().__init__()
        self.tables = tables

    def __missing__(self, monomial):
        terms = {}
        for c, images in self.tables:
            for m, v in images[monomial]:
                terms[m] = terms.get(m, 0) + c * v
        image = self[monomial] = tuple(sorted(Polynomial(terms).terms.items()))
        return image


class _Family(tuple):
    """A family of test polynomials with .monomials, its distinct
    monomials in first-seen order."""

    def __new__(cls, polys):
        family = super().__new__(cls, polys)
        family.monomials = tuple(dict.fromkeys(m for f in family
                                               for m in f.terms))
        return family


def _differs(a, b, f):
    """Whether the image tables a and b differ on f: the sum over f's
    monomials of f's coefficient times a's image minus b's is nonzero."""
    terms = {}
    for m0, k in f.terms.items():
        for scale, table in ((k, a), (-k, b)):
            for m, v in table[m0]:
                terms[m] = terms.get(m, 0) + scale * v
    return any(terms.values())


def cross(i):
    return ("cross", i)


def dot(k):
    return ("dot", corporeal(k))


def _instances(engine):
    """Yield (name, scenario, lhs, rhs) covering every local relation over
    the engine's quiver data with at most 4 corporeal strands."""
    completed = engine.completed
    old_vertices = completed.old_vertices()
    old_edges = completed.old_edges()
    new_edges = completed.new_edges()
    zero = as_scalar(0)
    one = as_scalar(1)
    half = as_scalar(Fraction(1, 2))

    # (dots-1) and same-label sliding through transparent crossings
    for i, j in itertools.product(old_vertices, repeat=2):
        offsets = [(zero, one)] if i != j else [(zero, half)]
        for a, b in offsets:
            sc = Scenario(engine, (i, j), (a, b),
                          (corporeal(1), corporeal(2)))
            for k in (1, 2):
                yield ("dots-1", sc,
                       [(1, [dot(k), cross(0)])],
                       [(1, [cross(0), dot(k)])])

    # (dots-2): both dot positions, correction on the stated side
    for i in old_vertices:
        for a, b in [(zero, zero), (zero, one)]:
            sc = Scenario(engine, (i, i), (a, b), (corporeal(1), corporeal(2)))
            yield ("dots-2", sc,
                   [(1, [dot(1), cross(0)])],
                   [(1, [cross(0), dot(1)]), (1, [])])
            yield ("dots-2", sc,
                   [(1, [dot(2), cross(0)])],
                   [(1, [cross(0), dot(2)]), (-1, [])])

    # (strand-bigon)
    for i, j in itertools.product(old_vertices, repeat=2):
        for a, b in [(zero, zero), (zero, one), (zero, half)]:
            sc = Scenario(engine, (i, j), (a, b), (corporeal(1), corporeal(2)))
            same = (i == j) and is_integral(b - a)
            if same:
                yield ("strand-bigon", sc, [(1, [cross(0), cross(0)])], [])
            else:
                yield ("strand-bigon", sc,
                       [(1, [cross(0), cross(0)])], [(1, [])])

    # ghost bigons: strand k against the ghost of edge e on strand J
    for e in old_edges:
        for k in old_vertices:
            for off in (zero, half):
                owner_long = zero
                c_long = owner_long + engine.flavour[e.id] + off
                sc = Scenario(engine, (k, e.head), (c_long, owner_long),
                              (corporeal(1), ghost(2, e.id), corporeal(2)))
                relevant = (k == e.tail) and (off == zero)
                if relevant:
                    rhs = [(1, [dot(2)]), (-1, [dot(1)])]
                    yield ("ghost-bigon2", sc,
                           [(1, [cross(0), cross(0)])], rhs)
                else:
                    yield ("ghost-bigon1", sc,
                           [(1, [cross(0), cross(0)])], [(1, [])])
                sc2 = Scenario(engine, (k, e.head), (c_long, owner_long),
                               (ghost(2, e.id), corporeal(1), corporeal(2)))
                if relevant:
                    yield ("ghost-bigon2a", sc2,
                           [(1, [cross(0), cross(0)])],
                           [(1, [dot(2)]), (-1, [dot(1)])])
                else:
                    yield ("ghost-bigon1a", sc2,
                           [(1, [cross(0), cross(0)])], [(1, [])])

    # (cost): red bigons
    for r in new_edges:
        for k in old_vertices:
            for off in (zero, half):
                c_long = engine.flavour[r.id] + off
                sc = Scenario(engine, (k,), (c_long,),
                              (corporeal(1), red(r.id)))
                relevant = (k == r.tail) and (off == zero)
                if relevant:
                    yield ("cost", sc, [(1, [cross(0), cross(0)])],
                           [(1, [dot(1)])])
                    sc2 = Scenario(engine, (k,), (c_long,),
                                   (red(r.id), corporeal(1)))
                    yield ("cost-mirror", sc2, [(1, [cross(0), cross(0)])],
                           [(1, [dot(1)])])
                else:
                    yield ("cost-transparent", sc,
                           [(1, [cross(0), cross(0)])], [(1, [])])

    # (eq:triple-point1): strand of t(e) through the crossing of two e-ghosts
    for e in old_edges:
        if e.tail == e.head:
            continue
        for off_i, off_j in [(zero, zero), (half, zero), (zero, one)]:
            b1, b2 = zero, off_j
            z = b1 + engine.flavour[e.id] + off_i
            sc = Scenario(engine, (e.tail, e.head, e.head), (z, b1, b2),
                          (ghost(2, e.id), corporeal(1), ghost(3, e.id),
                           corporeal(2), corporeal(3)))
            w1 = [cross(0), cross(3), cross(1), cross(0)]
            w2 = [cross(1), cross(3), cross(0), cross(1)]
            aligned = (off_i == zero)
            if aligned:
                # with this divided-difference convention the correction
                # appears with a plus sign on the first side
                yield ("triple-point1", sc, [(1, w1)], [(1, w2), (1, [])])
            else:
                yield ("triple-point1-transparent", sc, [(1, w1)], [(1, w2)])

    # (eq:triple-point2): crossing of two t(e)-strands through an e-ghost
    for e in old_edges:
        if e.tail == e.head:
            continue
        for off in (zero, half):
            b = zero
            z = b + engine.flavour[e.id] + off
            sc = Scenario(engine, (e.tail, e.tail, e.head), (z, z, b),
                          (corporeal(1), ghost(3, e.id), corporeal(2),
                           corporeal(3)))
            w1 = [cross(0), cross(1), cross(0)]
            w2 = [cross(1), cross(0), cross(1)]
            if off == zero:
                yield ("triple-point2", sc, [(1, w1)], [(1, w2), (-1, [])])
            else:
                yield ("triple-point2-transparent", sc, [(1, w1)], [(1, w2)])

    # red triple point, with delta only when all three labels agree
    for r in new_edges:
        for i, j in itertools.product(old_vertices, repeat=2):
            for off in (zero, half):
                phi = engine.flavour[r.id]
                sc = Scenario(engine, (j, i), (phi + off, phi + off),
                              (corporeal(1), red(r.id), corporeal(2)))
                w1 = [cross(0), cross(1), cross(0)]
                w2 = [cross(1), cross(0), cross(1)]
                delta = (i == j == r.tail) and off == zero
                if delta:
                    yield ("red-triple", sc, [(1, w1)], [(1, w2), (1, [])])
                else:
                    yield ("red-triple-slide", sc, [(1, w1)], [(1, w2)])

    # (dumb): dots slide freely over red crossings
    for r in new_edges:
        for i in old_vertices:
            sc = Scenario(engine, (i,), (engine.flavour[r.id],),
                          (corporeal(1), red(r.id)))
            yield ("dumb-dot", sc, [(1, [dot(1), cross(0)])],
                   [(1, [cross(0), dot(1)])])


def _resolved_instances(engine):
    """The list of _instances(engine) with both sides resolved
    (Scenario.side), built on the engine's first pass from its quiver data
    and flavour as they are then, and kept on the engine."""
    if engine._relations is None:
        engine._relations = [(name, sc, sc.side(lhs), sc.side(rhs))
                             for name, sc, lhs, rhs in _instances(engine)]
    return engine._relations


def verify_relations(engine, degree_bound=3, n_random=10, seed=0):
    """Run the whole relation suite; returns a report dict with per-relation
    instance counts and any failing witnesses.

    The test family is drawn once per strand count n in a pass, from the
    pass's one seeded rng, when the first instance with that n comes up;
    every instance with that n is checked on the same _Family, which lists
    its distinct monomials once.  The instances and their resolved sides
    are built on the engine's first pass and kept on it.  Which random
    polynomials an instance sees decides neither its verdict nor its
    witness: every member of the random tail is an integer combination of
    the family's monomials, which come before it, so Scenario.equal passes
    the whole family when its difference vanishes on them and otherwise
    names a monomial as the first failing member."""
    for name, value in (("degree bound", degree_bound),
                        ("random count", n_random)):
        # a negative count would shrink the test family without a word, to
        # nothing for the degree bound, and an empty family passes everything
        if value < 0:
            raise ValueError("%s must be nonnegative, got %d" % (name, value))
    rng = random.Random(seed)
    families = {}      # strand count -> its family, drawn on first use
    report = {}
    for name, sc, lhs, rhs in _resolved_instances(engine):
        polys = families.get(sc.n)
        if polys is None:
            polys = families[sc.n] = _Family(
                _test_polynomials(sc.n, degree_bound, n_random, rng))
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


def format_report(report):
    lines = []
    for name in sorted(k for k in report if k != "ok"):
        entry = report[name]
        status = "pass" if not entry["failures"] else "FAIL"
        lines.append("%-28s %4d instances %6d test polys  %s"
                     % (name, entry["instances"], entry["test_polys"], status))
        for f in entry["failures"][:3]:
            lines.append("    witness: labels=%s longitudes=%s poly=%s"
                         % (f["labels"], f["longitudes"], f["witness"]))
    lines.append("overall: %s" % ("pass" if report["ok"] else "FAIL"))
    return "\n".join(lines)
