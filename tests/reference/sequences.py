"""The sequence layer as it was: the permutation listings of
enumerate_orders, the pairwise validate, the eager _admissible_orders and
the exhaustive equivalent; and the worked Kronecker data."""

import itertools

from klrwcb import sequences
from klrwcb.quiver import DimensionData, Flavour, crawley_boevey, kronecker_quiver
from klrwcb.scalars import EQ, GT, as_scalar, real_compare, real_keys
from klrwcb.sequences import (FlavouredSequence, _admissible_orders, _classes,
                              build_cgr, corporeal, real_order, validate)


def kronecker_data(v, w, framing=()):
    """(quiver, dims, completed, flavour) of the Kronecker quiver with
    dimension vectors v and w on (alpha, beta), e, f -> 1 and the framing
    flavours given as (edge, value) pairs."""
    q = kronecker_quiver()
    dims = DimensionData(dict(zip(("alpha", "beta"), v)), dict(zip(("alpha", "beta"), w)))
    flavour = Flavour({k: as_scalar(c) for k, c in (("e", 1), ("f", 1)) + tuple(framing)})
    return q, dims, crawley_boevey(q, dims), flavour


def kron2_data():
    """The worked Kronecker data: v = (2,1), w = (2,1) and the flavour
    e,f -> 1, r -> -4, r' -> 0, s -> 2."""
    return kronecker_data((2, 1), (2, 1), (("w[alpha]0", -4), ("w[alpha]1", 0),
                                           ("w[beta]0", 2)))


def orders_by_permutations(gamma, completed, flavour, table=None,
                           up_to_equivalence=True):
    """The first former enumerate_orders: every permutation of the strands
    in lexicographic order, kept when its longitudes weakly increase, and
    deduplicated with the library's equivalent."""
    entries = [(as_scalar(a), vertex)
               for vertex in sorted(gamma, key=str) for a in gamma[vertex]]
    results, seen, produced = [], [], set()
    for perm in itertools.permutations(range(len(entries))):
        longs = tuple(entries[i][0] for i in perm)
        if any(real_compare(u, v, table) == GT for u, v in zip(longs, longs[1:])):
            continue
        labels = tuple(entries[i][1] for i in perm)
        base = FlavouredSequence(labels, longs, ())
        for order in _admissible_orders(base, build_cgr(labels, completed),
                                        flavour, table):
            seq = FlavouredSequence(labels, longs, order)
            if seq in produced or validate(seq, completed, flavour, table):
                continue
            produced.add(seq)
            if up_to_equivalence:
                if any(sequences.equivalent(seq, t, completed, flavour, table)[0]
                       for t in seen):
                    continue
                seen.append(seq)
            results.append(seq)
    return results


def validate_pairwise(seq, completed, flavour, table=None):
    """The former validate: rule (i) and (ii) by real_compare on pairs."""
    violations = []
    expect = set(build_cgr(seq.labels, completed))
    if set(seq.order) != expect:
        missing = expect - set(seq.order)
        extra = set(seq.order) - expect
        violations.append("item set mismatch: missing %s extra %s"
                          % (sorted(i.token() for i in missing),
                             sorted(i.token() for i in extra)))
        return violations
    corp = [it.k for it in seq.order if it.is_corporeal()]
    if corp != sorted(corp):
        violations.append("corporeal items out of index order: %s" % (corp,))
    longs = [seq.longitude(it, flavour) for it in seq.order]
    for (i1, it1), (i2, it2) in zip(enumerate(seq.order), enumerate(seq.order[1:], 1)):
        if real_compare(longs[i1], longs[i2], table) == GT:
            violations.append("rule (i): %s at %s precedes %s at %s"
                              % (it1.token(), longs[i1], it2.token(), longs[i2]))
    for i1, it1 in enumerate(seq.order):
        if not it1.is_corporeal():
            continue
        for i2 in range(i1 + 1, len(seq.order)):
            it2 = seq.order[i2]
            if it2.is_corporeal():
                continue
            if real_compare(longs[i1], longs[i2], table) == EQ:
                violations.append("rule (ii): corporeal %s precedes %s at equal "
                                  "real longitude" % (it1.token(), it2.token()))
    return violations


def admissible_orders(base, items, flavour, table):
    """The former _admissible_orders: the permutations of every class are
    listed before the first order is yielded."""
    per_class = []
    for cls in _classes(real_order(items, lambda it: base.longitude(it, flavour),
                                   table)):
        gr = [it for it in cls if not it.is_corporeal()]
        corp = sorted([it for it in cls if it.is_corporeal()], key=lambda it: it.k)
        per_class.append([list(p) + corp for p in itertools.permutations(gr)])
    for combo in itertools.product(*per_class):
        yield tuple(itertools.chain.from_iterable(combo))


def equivalent(s1, s2, completed, flavour, table=None):
    """The former equivalent: every block bijection is built, then tested
    in the order of the product of the blocks' permutations."""
    if sorted(map(str, s1.labels)) != sorted(map(str, s2.labels)):
        return False, None
    if len(s1.order) != len(s2.order):
        return False, None
    pos1 = {it: i for i, it in enumerate(s1.order)}
    pos2 = {it: i for i, it in enumerate(s2.order)}
    tails = {e.id: e.tail for e in completed.edges}

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

    def check(sigma):
        for m in range(1, s1.n + 1):
            for it in s1.order:
                if it.is_corporeal() or tails[it.edge] != s1.labels[m - 1]:
                    continue
                before1 = pos1[corporeal(m)] < pos1[it]
                before2 = pos2[corporeal(sigma[m])] < pos2[it.renumber(sigma)]
                if before1 != before2:
                    return False
        return True

    per_label_choices = []
    for lab in sorted(b1, key=str):
        choices = []
        for assignment in itertools.product(
                *[itertools.permutations(g2) for g2 in b2[lab]]):
            mapping = {}
            for g1, g2perm in zip(b1[lab], assignment):
                mapping.update(dict(zip(g1, g2perm)))
            choices.append(mapping)
        per_label_choices.append(choices)
    for combo in itertools.product(*per_label_choices):
        sigma = {}
        for mapping in combo:
            sigma.update(mapping)
        if check(sigma):
            return True, sigma
    return False, None


def enumerate_orders(gamma, completed, flavour, table, up_to_equivalence):
    """The second former enumerate_orders: every admissible order of every
    arrangement, deduplicated pairwise against the kept classes."""
    entries = [(as_scalar(a), vertex)
               for vertex in sorted(gamma, key=str) for a in gamma[vertex]]
    keys = real_keys([e[0] for e in entries], table)

    def arrangements(prefix, left):
        if not left:
            yield prefix
            return
        low = min(keys[i] for i in left)
        for i in left:
            if keys[i] == low and not any(j < i and entries[j] == entries[i]
                                          for j in left):
                yield from arrangements(prefix + (i,), [j for j in left if j != i])

    results, seen = [], []
    for perm in arrangements((), list(range(len(entries)))):
        labels = tuple(entries[i][1] for i in perm)
        longitudes = tuple(entries[i][0] for i in perm)
        base = FlavouredSequence(labels, longitudes, ())
        for order in admissible_orders(base, build_cgr(labels, completed),
                                       flavour, table):
            seq = FlavouredSequence(labels, longitudes, order)
            if up_to_equivalence:
                if any(equivalent(seq, t, completed, flavour, table)[0]
                       for t in seen):
                    continue
                seen.append(seq)
            results.append(seq)
    return results
