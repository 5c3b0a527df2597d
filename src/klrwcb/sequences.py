"""Flavoured sequences over C.

A flavoured sequence is a triple (labels, longitudes, total order) on the
set of corporeal, ghostly and red (CGR) items.  Corporeal item k carries
the longitude a_k, the ghost (k,e) carries a_k + phi_e, and the red item of
a new edge e carries phi_e.  Validity demands weakly increasing real
longitudes along the order, with ghost/red items preceding corporeal items
at equal real longitude.  Corporeal indices are 1-based.

This module is the one home of the item rules: ``build_cgr`` lists the
items of a label word, ``CgrItem.renumber`` carries an item along a strand
map, and ``validate`` is the one validity scan, over exact order keys.
An item is a named tuple (kind, k, edge): sets and dicts hash and compare
items in C, and hot loops test ``item.kind`` directly.
Strands are keyed by ``scalars.real_keys`` and CGR items by
``_item_keys``, one call per sequence.  The keys are integers: every real
part one call meets lies in (1/D)*Z for one D, so a key is D times the
real part, found without building a scalar per ghost.  ``is_unsteady`` is
one pass over the order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .scalars import (Reader, _coordinate_sum, _integer_keys, _real_coordinates,
                      as_scalar, format_scalar, real_keys)

CORPOREAL, GHOST, RED = "C", "G", "R"


class CgrItem(NamedTuple):
    kind: str
    k: int = 0          # owning corporeal index (1-based); 0 for red
    edge: str = None    # edge id for ghosts and reds

    def is_corporeal(self):
        return self.kind == CORPOREAL

    def is_ghost(self):
        return self.kind == GHOST

    def is_red(self):
        return self.kind == RED

    def token(self):
        if self.kind == CORPOREAL:
            return str(self.k)
        if self.kind == GHOST:
            return "%s@%d" % (self.edge, self.k)
        return "!%s" % self.edge

    def renumber(self, k_map):
        """The item carried along a strand map: a corporeal item or ghost
        gets owner k_map[k], a red item stays as it is."""
        return self if self.kind == RED else CgrItem(self.kind, k_map[self.k], self.edge)


def corporeal(k):
    return CgrItem(CORPOREAL, k)


def ghost(k, edge_id):
    return CgrItem(GHOST, k, edge_id)


def red(edge_id):
    return CgrItem(RED, 0, edge_id)


def build_cgr(labels, completed):
    """Every CGR item of a label word over the completed quiver: the
    corporeal items 1..n, then one ghost (k,e) per old edge e with head
    label i_k, then one red item per new edge."""
    items = [corporeal(k) for k in range(1, len(labels) + 1)]
    old_edges = completed.old_edges()
    for k, lab in enumerate(labels, start=1):
        items.extend(ghost(k, e.id) for e in old_edges if e.head == lab)
    items.extend(red(e.id) for e in completed.new_edges())
    return items


@dataclass(frozen=True)
class FlavouredSequence:
    labels: tuple
    longitudes: tuple       # of ExactScalar
    order: tuple            # of CgrItem, the total order left to right

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "longitudes",
                           tuple(as_scalar(a) for a in self.longitudes))
        object.__setattr__(self, "order", tuple(self.order))

    @property
    def n(self):
        return len(self.labels)

    def longitude(self, item, flavour):
        """The longitude of item (order keys do not build it)."""
        return _item_longitude(self.longitudes, item, flavour)

    def describe(self):
        return "[%s] order=[%s]" % (
            ",".join("(%s,%s)" % (lab, format_scalar(a))
                     for lab, a in zip(self.labels, self.longitudes)),
            ",".join(it.token() for it in self.order))


def _item_longitude(longitudes, item, flavour):
    """The longitude a_k, a_k + phi_e or phi_e of item as an ExactScalar."""
    if item.kind == CORPOREAL:
        return longitudes[item.k - 1]
    if item.kind == GHOST:
        return longitudes[item.k - 1] + flavour[item.edge]
    return flavour[item.edge]


def validate(seq, completed, flavour, table=None):
    """Empty list iff the order is a flavoured sequence; otherwise one
    violation string per offending pair or structural defect.  Raises
    AmbiguousOrderError when two of the real longitudes cannot be ordered
    (see real_keys), whatever their places in the order.

    The one validity scan: the items along the order map to exact integer
    keys (_item_keys), a later key is smaller iff rule (i) fails between
    the two items, and keys are equal iff their real longitudes are."""
    order = seq.order
    expect = set(build_cgr(seq.labels, completed))
    if set(order) != expect:
        return ["item set mismatch: missing %s extra %s"
                % (sorted(i.token() for i in expect - set(order)),
                   sorted(i.token() for i in set(order) - expect))]
    violations = []
    corp = [it.k for it in order if it.is_corporeal()]
    if corp != sorted(corp):
        violations.append("corporeal items out of index order: %s" % (corp,))
    keys = _item_keys(seq.longitudes, order, flavour, table)
    for i in range(len(order) - 1):
        if keys[i] > keys[i + 1]:
            a, b = order[i], order[i + 1]
            violations.append("rule (i): %s at %s precedes %s at %s"
                              % (a.token(), seq.longitude(a, flavour), b.token(),
                                 seq.longitude(b, flavour)))
    for i1, it1 in enumerate(order):
        if it1.kind != CORPOREAL:
            continue
        for i2 in range(i1 + 1, len(order)):
            if order[i2].kind != CORPOREAL and keys[i1] == keys[i2]:
                violations.append("rule (ii): corporeal %s precedes %s at equal "
                                  "real longitude" % (it1.token(), order[i2].token()))
    return violations


def _item_keys(longitudes, items, flavour, table):
    """real_keys of the longitudes of items over the strand longitudes (a
    tuple of ExactScalars), with the same errors, from integer coordinates:
    the strand longitudes and the flavour values the ghost and red items
    use are put over one denominator, and a ghost adds two of them."""
    edges = list(dict.fromkeys(it.edge for it in items if it.kind != CORPOREAL))
    coords = _real_coordinates(longitudes + tuple(flavour[e] for e in edges))
    phi = dict(zip(edges, coords[len(longitudes):]))
    keyed = []
    for it in items:
        if it.kind == CORPOREAL:
            keyed.append(coords[it.k - 1])
        elif it.kind == GHOST:
            keyed.append(_coordinate_sum(coords[it.k - 1], phi[it.edge]))
        else:
            keyed.append(phi[it.edge])
    return _integer_keys(keyed, table,
                         lambda i: _item_longitude(longitudes, items[i], flavour))


def _cgr_tie(item):
    # at equal real longitude: ghost/red items by (edge id, owner), then
    # corporeal items by index
    return (1, "", item.k) if item.is_corporeal() else (0, str(item.edge), item.k)


def from_weight(gamma, completed, flavour, table=None):
    """The flavoured sequence of a per-vertex longitude multiset, with the
    deterministic tie-breaking: at equal real longitude, ghost/red items are
    sorted by (edge id, owner index) and corporeal items by (vertex id,
    imaginary part, multiset position).
    """
    entries = [(as_scalar(a), vertex, pos) for vertex in sorted(gamma, key=str)
               for pos, a in enumerate(gamma[vertex])]
    keys = real_keys([a for a, _, _ in entries], table)
    entries = [e for _, e in sorted(zip(keys, entries), key=lambda p: (
        p[0], str(p[1][1]), p[1][0].imaginary, p[1][2]))]
    labels = tuple(vertex for _, vertex, _ in entries)
    longitudes = tuple(a for a, _, _ in entries)
    items = build_cgr(labels, completed)
    keys = _item_keys(longitudes, items, flavour, table)
    order = [it for _, it in sorted(zip(keys, items),
                                    key=lambda p: (p[0], _cgr_tie(p[1])))]
    seq = FlavouredSequence(labels, longitudes, order)
    bad = validate(seq, completed, flavour, table)
    if bad:
        raise ValueError("from_weight produced an invalid sequence: %s" % bad)
    return seq


def equivalent(s1, s2, completed, flavour, table=None):
    """Decide equivalence of two valid flavoured sequences: ``validate``
    must accept both under this same table (``cli._valid_sequence`` makes
    sure), as the blocks key all strands of a sequence in one real_keys
    call and take index order for real order.

    Returns (True, sigma) with sigma a dict on corporeal indices, or
    (False, None).  sigma must preserve labels, preserve the relative order
    of each corporeal against every ghost/red item whose edge has tail equal
    to the corporeal's label, and preserve the strict real-longitude order
    inside each label class.

    The last condition splits each label class into blocks of equal real
    longitude, matched in order, so sigma is a bijection of blocks.  No
    search is needed among those: every corporeal of a block has one real
    longitude, and so have the ghosts (k, e) of one edge over a block; at a
    tie the ghost or red item comes first (rule ii).  So each corporeal of
    a block sits on the same side of every ghost or red item, and every
    block-respecting sigma gives the same verdict.  The one tested maps
    each block in position order, labels taken in str order: the first
    bijection an exhaustive search over the blocks' permutations tries.
    """
    if len(s1.order) != len(s2.order):
        return False, None

    def blocks(seq):
        # label -> its strands in groups of equal real longitude
        keys = real_keys(seq.longitudes, table)
        out = {}
        for k in range(1, seq.n + 1):
            out.setdefault(seq.labels[k - 1], {}).setdefault(keys[k - 1], []).append(k)
        return {lab: list(groups.values()) for lab, groups in out.items()}

    b1, b2 = blocks(s1), blocks(s2)
    for lab in b1:
        if [len(g) for g in b1[lab]] != [len(g) for g in b2.get(lab, [])]:
            return False, None

    sigma = {m: k for lab in sorted(b1, key=str)
             for g1, g2 in zip(b1[lab], b2[lab]) for m, k in zip(g1, g2)}
    pos1 = {it: i for i, it in enumerate(s1.order)}
    pos2 = {it: i for i, it in enumerate(s2.order)}
    tails = {e.id: e.tail for e in completed.edges}
    for m in range(1, s1.n + 1):
        c1, c2 = pos1[corporeal(m)], pos2[corporeal(sigma[m])]
        for it in s1.order:
            if (it.kind != CORPOREAL and tails[it.edge] == s1.labels[m - 1]
                    and (c1 < pos1[it]) != (c2 < pos2[it.renumber(sigma)])):
                return False, None
    return True, sigma


def is_unsteady(seq):
    """Detect an unsteady sequence: some suffix of the order is a nonempty
    set of corporeal items together with exactly all of their ghosts, with
    no red item and no ghost of an outside corporeal.  Returns
    (True, k) with the smallest witness suffix length, else (False, None).

    The suffix may be the whole order (needed for totally unframed data,
    where every strand group can escape together).

    One pass from the right: orphans counts the suffix's ghosts whose owner
    is outside it, missing the ghosts of its corporeals still to the left;
    with neither, the suffix holds a corporeal.  A red item ends the
    search, as every longer suffix holds it.
    """
    ghosts = Counter(it.k for it in seq.order if it.kind == GHOST)
    seen = Counter()        # ghosts of each owner in the suffix
    corps = set()
    orphans = missing = 0
    for k, it in enumerate(reversed(seq.order), start=1):
        if it.kind == RED:
            break
        if it.kind == GHOST:
            seen[it.k] += 1
            if it.k in corps:
                missing -= 1
            else:
                orphans += 1
        else:
            corps.add(it.k)
            orphans -= seen[it.k]
            missing += ghosts[it.k] - seen[it.k]
        if not orphans and not missing:
            return True, k
    return False, None


def enumerate_orders(labels_multiset, gamma, completed, flavour, table=None,
                     up_to_equivalence=True):
    """All valid flavoured sequences with the per-vertex longitude
    multisets gamma (vertex -> list of longitudes): every admissible order
    of every label arrangement that weakly increases in real longitude.

    Up to equivalence they form one class, returned as the first order of
    the first arrangement: two of them have the same blocks at the same
    real longitudes, so by the argument in ``equivalent`` every corporeal
    sits on the same side of every ghost or red item in both.
    """
    entries = [(as_scalar(a), vertex)
               for vertex in sorted(gamma, key=str) for a in gamma[vertex]]
    keys = real_keys([e[0] for e in entries], table)

    def arrangements(prefix, left):
        # index tuples in lexicographic order that weakly increase in key,
        # identical entries kept in index order (other orders repeat them)
        if not left:
            yield prefix
            return
        low = min(keys[i] for i in left)
        for i in left:
            if keys[i] == low and not any(j < i and entries[j] == entries[i]
                                          for j in left):
                yield from arrangements(prefix + (i,), [j for j in left if j != i])

    def sequences(perm):
        # every admissible order over a weakly increasing arrangement is valid
        labels = tuple(entries[i][1] for i in perm)
        longitudes = tuple(entries[i][0] for i in perm)
        for order in _admissible_orders(longitudes, build_cgr(labels, completed),
                                        flavour, table):
            yield FlavouredSequence(labels, longitudes, order)

    perms = arrangements((), list(range(len(entries))))
    if up_to_equivalence:
        return [next(sequences(next(perms)))]
    return [seq for perm in perms for seq in sequences(perm)]


def _admissible_orders(longitudes, items, flavour, table):
    """All total orders of items over the strand longitudes compatible with
    rule (i) and (ii), lazily: sort into weak real-longitude classes, then
    permute ghost/red items within a class (corporeal items keep index
    order and come last in the class).  Orders come in the order of the
    product of the classes' permutations."""
    classes = []
    keys = _item_keys(longitudes, items, flavour, table)
    ranked = sorted(zip(keys, items), key=lambda p: p[0])
    for _, grp in itertools.groupby(ranked, key=lambda p: p[0]):
        cls = [it for _, it in grp]
        corp = sorted([it for it in cls if it.is_corporeal()], key=lambda it: it.k)
        classes.append(([it for it in cls if not it.is_corporeal()], tuple(corp)))

    def orders(i, prefix):
        if i == len(classes):
            yield prefix
            return
        gr, corp = classes[i]
        for p in itertools.permutations(gr):
            yield from orders(i + 1, prefix + p + corp)

    yield from orders(0, ())


# -- sequence literals ------------------------------------------------------


def parse_sequence(text, table=None):
    """The sequence literal text, as describe writes it:
    [(label,longitude),...] order=[token,...] with corporeal tokens 1..n,
    ghost tokens e@k and red tokens !e (see the grammar in scalars)."""
    r = Reader(text, what="sequence", table=table)

    def pair():
        r.expect("(")
        label = r.word()
        r.expect(",")
        longitude = r.scalar()
        r.expect(")")
        return label, longitude

    def token():
        if r.accept("!"):
            return red(r.word())
        name = r.word()
        if r.accept("@"):
            return ghost(r.integer(0), name)
        if not name.isdecimal():
            raise r.misfit()
        return corporeal(int(name))

    def sequence():
        r.expect("[")
        pairs = r.items(pair, ",", "]", lambda item: "bad sequence literal %r: pair "
                        "%r is not (label,longitude)" % (text, item))
        for tok in ("]", "order", "=", "["):
            r.expect(tok)
        order = r.items(token, ",", "]", lambda item: "bad sequence literal %r: order "
                        "token %r is not k, e@k or !e" % (text, item))
        r.expect("]")
        return FlavouredSequence(tuple(label for label, _ in pairs),
                                 tuple(a for _, a in pairs), tuple(order))

    return r.item(sequence, "", None)
