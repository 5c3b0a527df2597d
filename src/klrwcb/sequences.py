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
The keys of CGR items are integers (``_item_keys``): every real part one
call meets lies in (1/D)*Z for one D, so a key is D times the real part,
found without building a scalar per ghost.
"""

from __future__ import annotations

import itertools
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
        """The longitude of item as an ExactScalar.  Order keys do not
        build it (see _item_keys)."""
        if item.kind == CORPOREAL:
            return self.longitudes[item.k - 1]
        if item.kind == GHOST:
            return self.longitudes[item.k - 1] + flavour[item.edge]
        return flavour[item.edge]

    def describe(self):
        return "[%s] order=[%s]" % (
            ",".join("(%s,%s)" % (lab, format_scalar(a))
                     for lab, a in zip(self.labels, self.longitudes)),
            ",".join(it.token() for it in self.order))


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
    keys = _item_keys(seq, order, flavour, table)
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


def _item_keys(seq, items, flavour, table):
    """real_keys([seq.longitude(it, flavour) for it in items], table), with
    the same errors, from integer coordinates: the longitudes of seq and
    the flavour values its ghost and red items use are put over one
    denominator, and a ghost adds two of them."""
    edges = list(dict.fromkeys(it.edge for it in items if it.kind != CORPOREAL))
    coords = _real_coordinates(seq.longitudes + tuple(flavour[e] for e in edges))
    phi = dict(zip(edges, coords[len(seq.longitudes):]))
    keyed = []
    for it in items:
        if it.kind == CORPOREAL:
            keyed.append(coords[it.k - 1])
        elif it.kind == GHOST:
            keyed.append(_coordinate_sum(coords[it.k - 1], phi[it.edge]))
        else:
            keyed.append(phi[it.edge])
    return _integer_keys(keyed, table, lambda i: seq.longitude(items[i], flavour))


def real_order(objs, longitude, table=None, tie=lambda obj: ()):
    """objs sorted by the real part of longitude(obj), then by tie(obj),
    as (real key, obj) pairs; equal keys mean equal real longitudes.
    CGR items are sorted by _item_keys instead."""
    objs = list(objs)
    keys = real_keys([longitude(o) for o in objs], table)
    rank = sorted(range(len(objs)), key=lambda i: (keys[i], tie(objs[i])))
    return [(keys[i], objs[i]) for i in rank]


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
    entries = [(as_scalar(a), str(vertex), pos, vertex)
               for vertex in sorted(gamma, key=str)
               for pos, a in enumerate(gamma[vertex])]
    entries = [e for _, e in real_order(entries, lambda e: e[0], table,
                                        lambda e: (e[1], e[0].imaginary, e[2]))]
    labels = tuple(e[3] for e in entries)
    longitudes = tuple(e[0] for e in entries)
    items = build_cgr(labels, completed)
    keys = _item_keys(FlavouredSequence(labels, longitudes, ()), items, flavour, table)
    order = [it for _, it in sorted(zip(keys, items),
                                    key=lambda p: (p[0], _cgr_tie(p[1])))]
    seq = FlavouredSequence(labels, longitudes, order)
    bad = validate(seq, completed, flavour, table)
    if bad:
        raise ValueError("from_weight produced an invalid sequence: %s" % bad)
    return seq


def equivalent(s1, s2, completed, flavour, table=None):
    """Decide equivalence of two valid flavoured sequences (as
    ``validate`` accepts them; ``cli._valid_sequence`` makes sure).

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
        out = {}
        for lab in set(seq.labels):
            ks = [k for k in range(1, seq.n + 1) if seq.labels[k - 1] == lab]
            out[lab] = _classes(real_order(ks, lambda k: seq.longitudes[k - 1],
                                           table))
        return out

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
    """
    total = len(seq.order)
    all_ghosts = {}
    for it in seq.order:
        if it.is_ghost():
            all_ghosts.setdefault(it.k, set()).add(it)
    for k in range(1, total + 1):
        suffix = seq.order[total - k:]
        group = set(suffix)
        corps = {it.k for it in suffix if it.is_corporeal()}
        if not corps:
            continue
        if any(it.is_red() for it in suffix):
            continue
        ok = True
        for it in suffix:
            if it.is_ghost() and it.k not in corps:
                ok = False
                break
        if ok:
            for c in corps:
                if not all_ghosts.get(c, set()) <= group:
                    ok = False
                    break
        if ok:
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
        base = FlavouredSequence(labels, longitudes, ())
        for order in _admissible_orders(base, build_cgr(labels, completed),
                                        flavour, table):
            yield FlavouredSequence(labels, longitudes, order)

    perms = arrangements((), list(range(len(entries))))
    if up_to_equivalence:
        return [next(sequences(next(perms)))]
    return [seq for perm in perms for seq in sequences(perm)]


def _classes(ranked):
    """The objs of sorted (key, obj) pairs, grouped by equal key."""
    return [[obj for _, obj in grp]
            for _, grp in itertools.groupby(ranked, key=lambda p: p[0])]


def _admissible_orders(base, items, flavour, table):
    """All total orders compatible with rule (i) and (ii), lazily: sort into
    weak real-longitude classes, then permute ghost/red items within a class
    (corporeal items keep index order and come last in the class).  Orders
    come in the order of the product of the classes' permutations."""
    classes = []
    keys = _item_keys(base, items, flavour, table)
    for cls in _classes(sorted(zip(keys, items), key=lambda p: p[0])):
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
