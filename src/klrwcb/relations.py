"""The local relation suite for the diagram calculus.

Every local relation is instantiated over concrete quiver data as a pair
of crossing/dot words on an explicit arrangement of strand items.  The
instances are built once per engine, on its first verify_relations pass,
and kept while the engine lives; each word becomes its tuple of operator
descriptors once per instance, through the engine's one word walk
Engine.word_operators, so a later pass classifies no crossing.  Verdicts
are not kept: every pass draws its test families and decides every
instance afresh.  Both sides are applied to a family of polynomials (all
monomials up to a degree bound plus seeded random polynomials), one family
per strand count and pass, shared by every instance with that count.
Every operator is linear, so a side's value on a polynomial is gathered
from the engine's memo of monomial images (Engine.images): the sum of
coefficient times image over the polynomial's monomials, which is the
polynomial the operators give applied to it.  A relation instance passes
when the two sides agree exactly on every test polynomial.

By the same linearity the difference D = lhs - rhs vanishes on a test
polynomial f when it vanishes on each monomial of f, since D(f) is the sum
over f's monomials m of f's coefficient at m times D(m).  So Scenario.equal
decides D on the distinct monomials of the family first; the random tail,
whose members are combinations of monomials the family already holds,
then adds no work per instance.  An image is kept as a canonical tuple,
its terms sorted by monomial, so where each side is at most one word with
coefficient 1, D(m) is zero exactly when the two sides' image tuples are
equal, and no sum is formed; any other pair of sides has D(m) summed in a
term dict.  What does not change from pass to pass is worked out once: a
scenario resolves each side to its (coefficient, image table) pairs on
first sight, and the distinct monomials of a family are listed once per
family.  Only when D is nonzero on some monomial are the test polynomials
tried one by one, which names the same first failing polynomial as trying
them all would.  Each report entry counts its instances, the test
polynomials they were checked on, and its failures.

The correction signs of the two triple-point moves follow from the divided
difference convention fixed in the engine; the suite is the normative
record of the convention.
"""

from __future__ import annotations

import itertools
import random
import weakref
from fractions import Fraction

from .poly import coefficient
from .scalars import as_scalar, is_integral
from .sequences import FlavouredSequence, corporeal, ghost, red
from .diagrams import _test_polynomials


class Scenario:
    """An arrangement of items with labels and longitudes, not required to
    be a valid flavoured sequence; words of positional crossings and strand
    dots act on polynomials through Engine.word_operators.  equal reads the
    engine's memo of monomial images; apply runs the operators, so a check
    of equal through apply does not trust that memo."""

    def __init__(self, engine, labels, longitudes, arrangement):
        self.engine = engine
        self.seq = FlavouredSequence(labels, longitudes, arrangement)
        # tuple(word) -> its descriptor tuple over seq, for equal
        self._operators = {}
        # id(side) -> the side and its resolved pairs (see _side)
        self._sides = {}

    @property
    def n(self):
        return len(self.seq.labels)

    def apply(self, word, poly):
        """The word applied to poly by the operators themselves, not from
        the memo of images that equal reads, and the final item order."""
        ops, order = self.engine.word_operators(self.seq, word)
        return self.engine.run_operators(ops, poly), order

    def equal(self, lhs, rhs, polys):
        """lhs, rhs: lists of (coeff, word); returns (True, None) when they
        agree on every test poly, else (False, the first poly they differ
        on).  Each side is resolved to its (coefficient, image table) pairs
        once per scenario (_side), and polys to its distinct monomials once
        per family (_distinct_monomials).

        D = lhs - rhs is decided first on the distinct monomials of polys, in
        first-seen order.  When each side is at most one word with
        coefficient 1, D(m) is zero exactly when the two sides' image
        tuples are equal, since those tuples are canonical; any other pair
        of sides has D(m) gathered in a term dict from the images.  D is
        linear: D(f) is the sum over f's monomials m of f's coefficient at m
        times D(m), so if D(m) is zero for every such m, D(f) is zero for
        every f in polys.  If some D(m) is not zero, the polys are tried in
        order as before; this names the first failing one, and still
        passes a family in which the nonzero monomial images cancel inside
        every polynomial.

        A side is read once per scenario and kept by identity: a side list
        changed in place after a call is not seen again."""
        _, lhs_pairs, _, lhs_table = self._side(lhs)
        _, _, rhs_pairs, rhs_table = self._side(rhs)
        monomials = _distinct_monomials(polys)
        pairs = lhs_pairs + rhs_pairs
        if lhs_table is None or rhs_table is None:
            for m0 in monomials:
                terms = {}
                for c, images in pairs:
                    for m, v in images[m0]:
                        terms[m] = terms.get(m, 0) + c * v
                if any(terms.values()):
                    break
            else:
                return True, None
        else:
            for m0 in monomials:
                if lhs_table[m0] != rhs_table[m0]:
                    break
            else:
                return True, None
        for f in polys:
            if any(_image_sum(pairs, f).values()):
                return False, f
        return True, None

    def _side(self, side):
        """(side, its (c, images) pairs, the pairs with -c, table), kept by
        the side's identity; table is the side's image table when the side
        is one word with coefficient 1, _NOTHING when it is empty, and else
        None.  The entry holds the side, so its id is not reused while the
        entry is kept."""
        entry = self._sides.get(id(side))
        if entry is None:
            if len(self._sides) >= _KEPT:
                self._sides.clear()
            pairs = [(coefficient(c), self.engine.images(self._descriptors(w)))
                     for c, w in side]
            if not pairs:
                table = _NOTHING
            elif len(pairs) == 1 and pairs[0][0] == 1:
                table = pairs[0][1]
            else:
                table = None
            entry = self._sides[id(side)] = (
                side, pairs, [(-c, images) for c, images in pairs], table)
        return entry

    def _descriptors(self, word):
        """The descriptor tuple of word over seq, walked once per word."""
        key = tuple(word)
        ops = self._operators.get(key)
        if ops is None:
            ops = self._operators[key] = \
                self.engine.word_operators(self.seq, word)[0]
        return ops


class _Nothing(dict):
    """The image table of an empty side: every monomial goes to ()."""

    def __missing__(self, monomial):
        return ()


_NOTHING = _Nothing()

# How many sides a scenario, and how many families the module, keep at once;
# a full memo is emptied.  A relation instance pass needs a few of each.
_KEPT = 32

# id(family) -> (family, its distinct monomials in first-seen order), for
# tuple families only: a tuple cannot change, and the entry holds it, so its
# id is not reused while the entry is kept.
_MONOMIALS = {}


def _distinct_monomials(polys):
    """The distinct monomials of polys in first-seen order; worked out once
    per tuple family and afresh for any other sequence."""
    if type(polys) is not tuple:
        return dict.fromkeys(m for f in polys for m in f.terms)
    entry = _MONOMIALS.get(id(polys))
    if entry is None:
        if len(_MONOMIALS) >= _KEPT:
            _MONOMIALS.clear()
        entry = _MONOMIALS[id(polys)] = (
            polys, tuple(dict.fromkeys(m for f in polys for m in f.terms)))
    return entry[1]


def _image_sum(pairs, f):
    """The term dict of the sum of c * image(f) over the (c, images) pairs,
    by linearity from the images of f's monomials; a coefficient in it may
    be zero."""
    terms = {}
    for c, images in pairs:
        for m0, v0 in f.terms.items():
            k = c * v0
            for m, v in images[m0]:
                terms[m] = terms.get(m, 0) + k * v
    return terms


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


# engine -> the list of its _instances, built on its first pass.  The
# scenarios reach their engine through a weak proxy, so the entry does not
# keep its key alive and goes when the engine does.
_RESOLVED = weakref.WeakKeyDictionary()


def _resolved_instances(engine):
    """The list of _instances(engine), built once per engine from its
    quiver data and flavour as they are then; each scenario keeps its
    words' descriptor tuples (Scenario._descriptors)."""
    instances = _RESOLVED.get(engine)
    if instances is None:
        instances = _RESOLVED[engine] = list(_instances(weakref.proxy(engine)))
    return instances


def verify_relations(engine, degree_bound=3, n_random=10, seed=0):
    """Run the whole relation suite; returns a report dict with per-relation
    instance counts and any failing witnesses.

    The test family is drawn once per strand count n in a pass, from the
    pass's one seeded rng, when the first instance with that n comes up;
    every instance with that n is checked on the same tuple.  Which random
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
            polys = families[sc.n] = tuple(
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
