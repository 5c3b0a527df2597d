import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from klrwcb import sequences
from klrwcb.quiver import (DimensionData, Edge, Flavour, Quiver, crawley_boevey,
                           kronecker_quiver)
from klrwcb.scalars import (AmbiguousOrderError, ExactScalar, SymbolTable,
                            UndeclaredSymbolError, as_scalar, real_compare,
                            real_keys)
from klrwcb.sequences import (FlavouredSequence, _item_keys, build_cgr, corporeal,
                              enumerate_orders, equivalent, from_weight, ghost,
                              is_unsteady, parse_sequence, red, validate)

from reference import scalars as ref_scalars, sequences as ref


R, RP, S = "w[alpha]0", "w[alpha]1", "w[beta]0"


def test_build_cgr_kronecker(kronecker_unframed):
    q, dims, comp, fl = kronecker_unframed
    items = build_cgr(("alpha", "beta"), comp)
    assert items == [corporeal(1), corporeal(2), ghost(1, "e"), ghost(2, "f")]


def test_build_cgr_empty():
    q = kronecker_quiver()
    comp = crawley_boevey(q, DimensionData({"alpha": 0, "beta": 0},
                                           {"alpha": 0, "beta": 0}))
    assert build_cgr((), comp) == []


def test_build_cgr_kron2():
    q, dims, comp, fl = ref.kron2_data()
    items = build_cgr(("alpha", "alpha", "beta"), comp)
    assert items == [corporeal(1), corporeal(2), corporeal(3), ghost(1, "e"),
                     ghost(2, "e"), ghost(3, "f"), red(R), red(RP), red(S)]


def test_validate_kronecker_row(kronecker_unframed):
    q, dims, comp, fl = kronecker_unframed
    good = parse_sequence("[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]")
    assert validate(good, comp, fl) == []
    # corporeal before its own equal-longitude ghost breaks rule (ii):
    bad = FlavouredSequence(("alpha", "beta"), (as_scalar(-1), as_scalar(0)),
                            (corporeal(1), corporeal(2), ghost(1, "e"),
                             ghost(2, "f")))
    msgs = validate(bad, comp, fl)
    assert any("rule (ii)" in m for m in msgs)
    # ghost placed against the real-longitude order breaks rule (i):
    bad2 = parse_sequence("[(alpha,0),(beta,3)] order=[1,2,e@1,f@2]")
    msgs = validate(bad2, comp, fl)
    assert any("rule (i)" in m for m in msgs)


def test_from_weight_kron2_golden():
    # top data of the worked Kronecker example; the rule that ghost/red
    # items precede corporeals at equal real longitude puts r', e_2 before
    # the third strand
    q, dims, comp, fl = ref.kron2_data()
    s = from_weight({"alpha": [as_scalar(-6), as_scalar(-1)],
                     "beta": [as_scalar(0)]}, comp, fl)
    assert s.labels == ("alpha", "alpha", "beta")
    assert tuple(a.rational for a in s.longitudes) == (-6, -1, 0)
    assert s.order == (corporeal(1), ghost(1, "e"), red(R), corporeal(2),
                       ghost(2, "e"), red(RP), corporeal(3), ghost(3, "f"),
                       red(S))
    assert validate(s, comp, fl) == []


def test_from_weight_bottom_kron2():
    q, dims, comp, fl = ref.kron2_data()
    s = from_weight({"alpha": [as_scalar(-3), as_scalar(3)],
                     "beta": [as_scalar(-2)]}, comp, fl)
    # rule (ii) puts the e-ghost of the first strand before the -2 corporeal
    assert s.order == (red(R), corporeal(1), ghost(1, "e"), corporeal(2),
                       ghost(2, "f"), red(RP), red(S), corporeal(3),
                       ghost(3, "e"))
    assert validate(s, comp, fl) == []


def _weight(seq):
    """Per-vertex longitude multisets gamma_i of seq."""
    return {lab: [a for v, a in zip(seq.labels, seq.longitudes) if v == lab]
            for lab in seq.labels}


def test_from_weight_roundtrip_and_validity(kronecker_framed):
    q, dims, comp, fl = kronecker_framed
    rng = random.Random(3)
    for _ in range(20):
        gamma = {"alpha": [as_scalar(Fraction(rng.randint(-4, 4),
                                              rng.choice([1, 2])))],
                 "beta": [as_scalar(Fraction(rng.randint(-4, 4),
                                             rng.choice([1, 2])))]}
        s = from_weight(gamma, comp, fl)
        assert validate(s, comp, fl) == []
        got = _weight(s)
        for v in gamma:
            assert sorted(got.get(v, []), key=str) == sorted(gamma[v], key=str)


def test_from_weight_trivial_cases():
    q = kronecker_quiver()
    comp = crawley_boevey(q, DimensionData({"alpha": 0, "beta": 0},
                                           {"alpha": 1, "beta": 1}))
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(1),
                  "w[alpha]0": as_scalar(2), "w[beta]0": as_scalar(0)})
    s = from_weight({"alpha": [], "beta": []}, comp, fl)
    assert s.order == (red("w[beta]0"), red("w[alpha]0"))


def test_from_weight_repeated_zero_single_vertex():
    from klrwcb.quiver import Quiver
    q = Quiver(["i"], [])
    comp = crawley_boevey(q, DimensionData({"i": 2}, {"i": 0}))
    fl = Flavour({})
    s = from_weight({"i": [as_scalar(0), as_scalar(0)]}, comp, fl)
    assert s.labels == ("i", "i")
    assert s.longitudes == (as_scalar(0), as_scalar(0))
    assert s.order == (corporeal(1), corporeal(2))


def test_equivalent_identity(kronecker_unframed):
    q, dims, comp, fl = kronecker_unframed
    s = parse_sequence("[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]")
    ok, sigma = equivalent(s, s, comp, fl)
    assert ok and sigma == {1: 1, 2: 2}


def test_equivalent_kronecker_rows(kronecker_unframed):
    q, dims, comp, fl = kronecker_unframed
    r34a = parse_sequence("[(alpha,0),(beta,0)] order=[1,2,f@2,e@1]")
    r34b = parse_sequence("[(beta,0),(alpha,0)] order=[1,2,e@2,f@1]")
    ok, sigma = equivalent(r34a, r34b, comp, fl)
    assert ok and sigma == {1: 2, 2: 1}
    # different regimes are inequivalent: the alpha strand sits on opposite
    # sides of the f-ghost
    r1 = parse_sequence("[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]")
    r2 = parse_sequence("[(alpha,0),(beta,1/2)] order=[1,2,e@1,f@2]")
    assert not equivalent(r1, r2, comp, fl)[0]


def test_equivalent_is_equivalence_relation(kronecker_unframed):
    q, dims, comp, fl = kronecker_unframed
    seqs = enumerate_orders(None, {"alpha": [as_scalar(0)],
                                   "beta": [as_scalar(0)]}, comp, fl,
                            up_to_equivalence=False)
    assert len(seqs) >= 3
    for a in seqs:
        assert equivalent(a, a, comp, fl)[0]
        for b in seqs:
            ab = equivalent(a, b, comp, fl)[0]
            assert ab == equivalent(b, a, comp, fl)[0]
            for c in seqs:
                if ab and equivalent(b, c, comp, fl)[0]:
                    assert equivalent(a, c, comp, fl)[0]


def test_unsteady_golden_triple(kronecker_framed):
    q, dims, comp, fl = kronecker_framed
    r_id = "w[alpha]0"
    mk = lambda order: FlavouredSequence(("beta", "alpha"),
                                         (as_scalar(-4), as_scalar(0)), order)
    s1 = mk((corporeal(1), ghost(1, "f"), red(r_id), corporeal(2),
             ghost(2, "e")))
    s2 = mk((red(r_id), corporeal(1), corporeal(2), ghost(1, "f"),
             ghost(2, "e")))
    s3 = mk((corporeal(1), red(r_id), corporeal(2), ghost(1, "f"),
             ghost(2, "e")))
    assert is_unsteady(s1) == (True, 2)
    assert is_unsteady(s2) == (True, 4)
    assert is_unsteady(s3) == (False, None)


def test_unsteady_suffix_holds_no_ghost_of_an_outside_corporeal(kronecker_unframed):
    """The suffix [2, e@1, f@2] holds corporeal 2 with all of its ghosts,
    but also e@1, the ghost of corporeal 1 outside it, so the shortest
    witness is the whole order."""
    q, dims, comp, fl = kronecker_unframed
    s = parse_sequence("[(alpha,0),(beta,0)] order=[1,2,e@1,f@2]")
    assert validate(s, comp, fl) == []
    assert is_unsteady(s) == (True, 4)


def test_equivalent_needs_one_label_multiset(kronecker_unframed):
    q, dims, comp, fl = kronecker_unframed
    s = parse_sequence("[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]")
    t = parse_sequence("[(alpha,0),(alpha,2)] order=[1,e@1,2,e@2]")
    assert len(s.order) == len(t.order)
    assert validate(s, comp, fl) == validate(t, comp, fl) == []
    assert equivalent(s, t, comp, fl) == (False, None)
    assert equivalent(t, s, comp, fl) == (False, None)


def test_unsteady_whole_sequence_counts():
    # with no framing anywhere the whole order is an escaping group
    q = kronecker_quiver()
    comp = crawley_boevey(q, DimensionData({"alpha": 1, "beta": 0},
                                           {"alpha": 0, "beta": 0}))
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(1)})
    s = from_weight({"alpha": [as_scalar(0)], "beta": []}, comp, fl)
    assert is_unsteady(s)[0]


def test_unsteady_invariant_under_equivalence(kronecker_framed):
    q, dims, comp, fl = kronecker_framed
    for a, b in [(as_scalar(0), as_scalar(0)), (as_scalar(0), as_scalar(-4))]:
        seqs = enumerate_orders(None, {"alpha": [a], "beta": [b]}, comp, fl,
                                up_to_equivalence=False)
        for s1, s2 in itertools.combinations(seqs, 2):
            if equivalent(s1, s2, comp, fl)[0]:
                assert is_unsteady(s1)[0] == is_unsteady(s2)[0]


def test_enumerate_kronecker_table(kronecker_unframed):
    q, dims, comp, fl = kronecker_unframed
    def enum(a, b):
        return enumerate_orders(None, {"alpha": [as_scalar(a)],
                                       "beta": [as_scalar(b)]}, comp, fl)
    assert [s.order for s in enum(0, 2)] == \
        [(corporeal(1), ghost(1, "e"), corporeal(2), ghost(2, "f"))]
    assert [s.order for s in enum(0, Fraction(1, 2))] == \
        [(corporeal(1), corporeal(2), ghost(1, "e"), ghost(2, "f"))]
    assert len(enum(0, 0)) == 1
    assert len(enumerate_orders(None, {"alpha": [as_scalar(0)],
                                       "beta": [as_scalar(0)]}, comp, fl,
                                up_to_equivalence=False)) == 4


@pytest.mark.parametrize("alpha,beta,w_alpha", [
    ([0, 0], [0], 0), ([0, 0], [0], 1), ([0, 1], [0, 1], 0),
    ([0, 0, Fraction(1, 2)], [Fraction(1, 2)], 1), ([1, 0, 1], [], 0),
    ([0, 0], [0, 0], 0), ([0, 0, 0], [0], 0)])
@pytest.mark.parametrize("up_to_equivalence", [True, False])
def test_enumerate_orders_matches_permutation_listing(alpha, beta, w_alpha,
                                                      up_to_equivalence):
    comp = crawley_boevey(kronecker_quiver(), DimensionData(
        {"alpha": len(alpha), "beta": len(beta)}, {"alpha": w_alpha, "beta": 0}))
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(1), "w[alpha]0": as_scalar(0)})
    gamma = {"alpha": [as_scalar(a) for a in alpha],
             "beta": [as_scalar(b) for b in beta]}
    got = enumerate_orders(None, gamma, comp, fl,
                           up_to_equivalence=up_to_equivalence)
    assert got == ref.orders_by_permutations(gamma, comp, fl,
                                          up_to_equivalence=up_to_equivalence)


def test_enumerate_orders_symbolic_ties_match_permutation_listing():
    t = SymbolTable().declare("s", Fraction(7, 5))
    s = ExactScalar(0, 0, {"s": 1})
    comp = crawley_boevey(kronecker_quiver(), DimensionData(
        {"alpha": 3, "beta": 1}, {"alpha": 0, "beta": 0}))
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(1)})
    gamma = {"alpha": [s, as_scalar(1), s], "beta": [s + ExactScalar(0, 1)]}
    for up in (True, False):
        assert enumerate_orders(None, gamma, comp, fl, t, up) == \
            ref.orders_by_permutations(gamma, comp, fl, t, up)
    with pytest.raises(AmbiguousOrderError):
        enumerate_orders(None, gamma, comp, fl)


@pytest.mark.parametrize("up_to_equivalence", [True, False])
def test_enumerate_orders_are_valid(up_to_equivalence):
    # enumerate_orders does not validate: its orders are valid by construction
    t = SymbolTable().declare("s", Fraction(7, 5))
    s = ExactScalar(0, 0, {"s": 1})
    comp = crawley_boevey(kronecker_quiver(), DimensionData(
        {"alpha": 2, "beta": 2}, {"alpha": 1, "beta": 1}))
    cases = [
        # ghosts and reds tie with corporeal items
        (Flavour({"e": as_scalar(1), "f": as_scalar(1),
                  "w[alpha]0": as_scalar(0), "w[beta]0": as_scalar(1)}),
         {"alpha": [as_scalar(0), as_scalar(0)],
          "beta": [as_scalar(1), as_scalar(-1)]}),
        # symbolic ties: s against s + i, and the ghost 0 + s against both
        (Flavour({"e": s, "f": as_scalar(1), "w[alpha]0": s,
                  "w[beta]0": as_scalar(1)}),
         {"alpha": [s, as_scalar(0)], "beta": [s + ExactScalar(0, 1), as_scalar(1)]})]
    for fl, gamma in cases:
        got = enumerate_orders(None, gamma, comp, fl, t, up_to_equivalence)
        assert got
        for seq in got:
            assert validate(seq, comp, fl, t) == [], seq.describe()


def test_from_weight_shadow_tie_raises():
    t = SymbolTable().declare("s", Fraction(3, 2))
    comp = crawley_boevey(Quiver(["x"], []), DimensionData({"x": 2}, {"x": 0}))
    gamma = {"x": [ExactScalar(0, 0, {"s": 1}), as_scalar(Fraction(3, 2))]}
    with pytest.raises(AmbiguousOrderError):
        from_weight(gamma, comp, Flavour({}), t)
    t.declare("s", Fraction(141, 100))
    s = from_weight(gamma, comp, Flavour({}), t)
    assert s.longitudes == (ExactScalar(0, 0, {"s": 1}), as_scalar(Fraction(3, 2)))


def test_sequence_literal_roundtrip():
    t = SymbolTable()
    s = parse_sequence("[(alpha,0),(beta,1/2+1i)] order=[1,2,e@1,f@2,!r]", t)
    s2 = parse_sequence(s.describe(), t)
    assert s == s2
    # longitudes with any rational symbol coefficients, as q*sym:NAME
    rng = random.Random(11)
    for _ in range(100):
        longs = tuple(ExactScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                  rng.randint(-1, 1),
                                  {"s": Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
                      for _ in range(2))
        s = FlavouredSequence(("alpha", "beta"), longs, s2.order)
        assert parse_sequence(s.describe(), t) == s, s.describe()


# -- the key scan against the former pairwise scan ------------------------------


def _unorderable(values, table):
    """Some two of the values have real parts real_compare cannot order."""
    for u, v in itertools.combinations(values, 2):
        try:
            real_compare(u, v, table)
        except AmbiguousOrderError:
            return True
    return False


def _outcome(fn):
    try:
        return fn(), None
    except AmbiguousOrderError as exc:
        return None, exc


def _compare_scans(new, ref, unorderable, tally):
    """The key scan agrees with the pairwise one, except that it raises on
    an invalid order whose real parts cannot all be ordered, where the
    pairwise scan only compares some pairs and lists violations."""
    got, got_exc = _outcome(new)
    want, want_exc = _outcome(ref)
    if want_exc is not None:
        assert got_exc is not None
        tally["raised"] += 1
    elif got_exc is not None:
        assert want and unorderable()
        tally["documented"] += 1
    else:
        assert got == want
        tally["valid" if not want else "invalid"] += 1


def _draw_scalar(rng, kind):
    q = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    if kind == "gaussian" and rng.random() < 0.5:
        return ExactScalar(q, rng.choice([1, -1]))
    if kind == "symbolic" and rng.random() < 0.5:
        return ExactScalar(q, 0, {rng.choice("st"): rng.choice([1, -1])})
    return as_scalar(q)


# shadows: none; generic (no two of q + a*s + b*t tie for q in Z/2 and
# |a|, |b| <= 2); and t = 3/2, which ties t + q with rationals
_TABLES = [None,
           SymbolTable().declare("s", Fraction(707, 500)).declare("t", Fraction(433, 250)),
           SymbolTable().declare("s", Fraction(7, 5)).declare("t", Fraction(3, 2))]


def _random_kronecker(rng, kind, va, vb, wa, wb):
    comp = crawley_boevey(kronecker_quiver(), DimensionData(
        {"alpha": va, "beta": vb}, {"alpha": wa, "beta": wb}))
    fl = Flavour({e.id: _draw_scalar(rng, kind) for e in comp.edges})
    gamma = {"alpha": [_draw_scalar(rng, kind) for _ in range(va)],
             "beta": [_draw_scalar(rng, kind) for _ in range(vb)]}
    return comp, fl, gamma


def _orders(rng, seq, completed, flavour, table):
    """seq itself, valid orders of its weight, and shuffles of its items."""
    out = [seq]
    try:
        out += enumerate_orders(None, _weight(seq), completed, flavour, table,
                                up_to_equivalence=False)[:3]
    except AmbiguousOrderError:
        pass
    for _ in range(3):
        order = list(seq.order)
        rng.shuffle(order)
        out.append(FlavouredSequence(seq.labels, seq.longitudes, order))
    out.append(FlavouredSequence(seq.labels, seq.longitudes, seq.order[1:]))
    return out


def test_validate_matches_pairwise_scan():
    rng = random.Random(2024)
    tally = {"valid": 0, "invalid": 0, "raised": 0, "documented": 0}
    for case in range(240):
        kind = ("rational", "gaussian", "symbolic")[case % 3]
        comp, fl, gamma = _random_kronecker(rng, kind, rng.randint(0, 2),
                                            rng.randint(0, 2), rng.randint(0, 1),
                                            rng.randint(0, 1))
        labels = tuple(v for v in gamma for _ in gamma[v])
        longs = tuple(a for v in gamma for a in gamma[v])
        unsorted = FlavouredSequence(labels, longs, build_cgr(labels, comp))
        for table in _TABLES:
            try:
                seqs = [from_weight(gamma, comp, fl, table)]
            except AmbiguousOrderError:
                seqs = []
            for seq in seqs + [unsorted]:
                for s in _orders(rng, seq, comp, fl, table):
                    values = [s.longitude(it, fl) for it in set(s.order)]
                    _compare_scans(lambda: validate(s, comp, fl, table),
                                   lambda: ref.validate_pairwise(s, comp, fl, table),
                                   lambda: _unorderable(values, table), tally)
    assert min(tally.values()) >= 5, tally


# -- integer item keys against the scalar sums they replace -------------------


def _key_outcome(fn):
    """Each key's rank among the distinct keys fn returns (equal ranks:
    the same order and the same classes of equal keys), or the type and
    message of the order error it raises."""
    try:
        keys = fn()
    except (AmbiguousOrderError, UndeclaredSymbolError) as exc:
        return type(exc).__name__, str(exc)
    ranks = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [ranks[k] for k in keys]


def _draw_coordinate(rng, kind):
    """A longitude or flavour value over thirds and halves, with symbol
    coefficients +-1 and 1/2."""
    q = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    if kind == "gaussian" and rng.random() < 0.5:
        return ExactScalar(q, Fraction(rng.choice([1, -1]), rng.choice([1, 2])))
    if kind == "symbolic" and rng.random() < 0.6:
        return ExactScalar(q, 0, {rng.choice("st"): rng.choice([1, -1, Fraction(1, 2)])})
    return as_scalar(q)


# no table; generic shadows; shadows that tie with thirds and halves; t
# undeclared
_KEY_TABLES = [None, _TABLES[1],
               SymbolTable().declare("s", Fraction(4, 3)).declare("t", Fraction(3, 2)),
               SymbolTable().declare("s", Fraction(7, 5))]


def _random_data(rng, shape):
    """Completed A2, framed Kronecker or unframed Kronecker data with up to
    two strands per vertex."""
    if shape == "a2":
        quiver = Quiver(["1", "2"], [Edge("a", "1", "2")])
    else:
        quiver = kronecker_quiver()
    frame = 0 if shape == "unframed" else 1
    dims = DimensionData({x: rng.randint(0, 2) for x in quiver.vertices},
                         {x: rng.randint(0, frame) for x in quiver.vertices})
    return crawley_boevey(quiver, dims), dims


def test_item_keys_match_scalar_sums():
    # _item_keys against real_keys of the ExactScalar longitudes, new and
    # former: the same order, the same classes of equal keys, and the same
    # AmbiguousOrderError or UndeclaredSymbolError with the same message
    rng = random.Random(4242)
    tally = Counter()
    for case in range(180):
        kind = ("rational", "gaussian", "symbolic")[case % 3]
        shape = ("a2", "framed", "unframed")[case // 3 % 3]
        comp, dims = _random_data(rng, shape)
        fl = Flavour({e.id: _draw_coordinate(rng, kind) for e in comp.edges})
        labels = [x for x, n in dims.v.items() for _ in range(n)]
        rng.shuffle(labels)
        seq = FlavouredSequence(labels, [_draw_coordinate(rng, kind) for _ in labels], ())
        items = build_cgr(seq.labels, comp)
        shuffled = rng.sample(items, len(items))
        for its in (items, shuffled):
            values = [seq.longitude(it, fl) for it in its]
            for table in _KEY_TABLES:
                got = _key_outcome(lambda: _item_keys(seq, its, fl, table))
                assert got == _key_outcome(lambda: real_keys(values, table)), \
                    (seq.labels, values)
                assert got == _key_outcome(lambda: ref_scalars.real_keys(values, table))
                tally[got[1].split(" ")[0] if isinstance(got, tuple) else
                      "keys" if len(set(got)) == len(got) else "ties"] += 1
    # every outcome is met: distinct keys, equal keys, an undeclared symbol,
    # no table, and a shadow tie
    assert set(tally) == {"keys", "ties", "undeclared", "symbolic", "shadows"}, tally
    assert min(tally.values()) >= 10, tally


# -- one order per arrangement and the pruned search against the former code --


def _described(fn):
    """describe() of every sequence fn returns, or the order error it raises."""
    try:
        return [s.describe() for s in fn()]
    except AmbiguousOrderError as exc:
        return "AmbiguousOrderError: %s" % exc


def _draw_tied(rng, kind):
    """A longitude or flavour from a small pool, so that real parts tie."""
    q = as_scalar(rng.choice([0, 0, 1, Fraction(1, 2)]))
    if kind == "gaussian" and rng.random() < 0.5:
        return q + ExactScalar(0, rng.choice([1, -1]))
    if kind == "symbolic" and rng.random() < 0.5:
        return q + ExactScalar(0, 0, {"s": 1})
    return q


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_enumerate_orders_matches_pairwise_dedup(seed):
    rng = random.Random(seed)
    tally = {"classes": 0, "orders": 0, "raised": 0}
    for case in range(18):
        kind = ("rational", "gaussian", "symbolic")[case % 3]
        va, vb = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2), (3, 0), (0, 2)])
        comp = crawley_boevey(kronecker_quiver(), DimensionData(
            {"alpha": va, "beta": vb},
            {"alpha": rng.randint(0, 1), "beta": rng.randint(0, 1)}))
        fl = Flavour({e.id: _draw_tied(rng, kind) for e in comp.edges})
        gamma = {"alpha": [_draw_tied(rng, kind) for _ in range(va)],
                 "beta": [_draw_tied(rng, kind) for _ in range(vb)]}
        table = _TABLES[case % 2]
        for up in (True, False):
            got = _described(lambda: enumerate_orders(None, gamma, comp, fl, table, up))
            want = _described(lambda: ref.enumerate_orders(gamma, comp, fl, table, up))
            assert got == want, (gamma, up)
            if isinstance(want, str):
                tally["raised"] += 1
            else:
                tally["classes" if up else "orders"] += len(want)
    assert tally["orders"] > tally["classes"] > 0, tally


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_equivalent_matches_exhaustive_search(seed):
    # pairs of valid orders of two weights with the same labels, so that
    # many pairs are not equivalent
    rng = random.Random(seed)
    tally = {True: 0, False: 0}
    for case in range(12):
        kind = ("rational", "gaussian", "symbolic")[case % 3]
        va, vb = rng.randint(1, 3), rng.randint(0, 2)
        comp, fl, gamma = _random_kronecker(rng, kind, va, vb, rng.randint(0, 1),
                                            rng.randint(0, 1))
        other = {v: [_draw_scalar(rng, kind) for _ in vals] for v, vals in gamma.items()}
        table = _TABLES[1]
        seqs = []
        for g in (gamma, other):
            seqs += enumerate_orders(None, g, comp, fl, table, False)[:4]
            seqs.append(from_weight(g, comp, fl, table))
        for s1 in seqs:
            for s2 in seqs:
                got = equivalent(s1, s2, comp, fl, table)
                want = ref.equivalent(s1, s2, comp, fl, table)
                # the same sigma, built in the same order
                assert repr(got) == repr(want), (s1.describe(), s2.describe())
                tally[got[0]] += 1
    assert min(tally.values()) >= 20, tally


def test_enumerate_orders_tied_kronecker_five_plus_five():
    # unframed, every longitude 0: 252 arrangements, each with 10! ghost
    # orders, form one class
    comp = crawley_boevey(kronecker_quiver(), DimensionData(
        {"alpha": 5, "beta": 5}, {"alpha": 0, "beta": 0}))
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(1)})
    gamma = {"alpha": [as_scalar(0)] * 5, "beta": [as_scalar(0)] * 5}
    got = enumerate_orders(None, gamma, comp, fl)
    assert len(got) == 1
    assert equivalent(got[0], from_weight(gamma, comp, fl), comp, fl)[0]


def _no_equivalent(*args, **kwargs):
    raise AssertionError("enumerate_orders called equivalent")


@pytest.mark.parametrize("framing, e, f", [((0, 0), 0, 1), ((1, 0), 1, 2)])
def test_enumerate_orders_one_class_without_equivalent(monkeypatch, framing, e, f):
    # 3+3 strands, every longitude 0: 20 arrangements, one class, and the
    # representative is found without a search
    comp = crawley_boevey(kronecker_quiver(), DimensionData(
        {"alpha": 3, "beta": 3}, {"alpha": framing[0], "beta": framing[1]}))
    fl = Flavour({edge.id: as_scalar({"e": e, "f": f}.get(edge.id, 0))
                  for edge in comp.edges})
    gamma = {"alpha": [as_scalar(0)] * 3, "beta": [as_scalar(0)] * 3}
    want = ref.enumerate_orders(gamma, comp, fl, None, True)
    monkeypatch.setattr(sequences, "equivalent", _no_equivalent)
    got = enumerate_orders(None, gamma, comp, fl)
    assert len(want) == 1
    assert [s.describe() for s in got] == [s.describe() for s in want]


def test_enumerate_orders_five_plus_five_without_equivalent(monkeypatch):
    comp = crawley_boevey(kronecker_quiver(), DimensionData(
        {"alpha": 5, "beta": 5}, {"alpha": 0, "beta": 0}))
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(1)})
    gamma = {"alpha": [as_scalar(0)] * 5, "beta": [as_scalar(0)] * 5}
    monkeypatch.setattr(sequences, "equivalent", _no_equivalent)
    assert len(enumerate_orders(None, gamma, comp, fl)) == 1


@pytest.mark.parametrize("n", [6, 8, 12])
def test_equivalent_tied_kronecker_needs_no_search(n):
    # n tied alpha strands and one beta strand, unframed: the alpha
    # corporeals sit before the ghost of f exactly when beta lies above -1.
    # The alpha block alone has n! maps, too many to try one by one.
    comp = crawley_boevey(kronecker_quiver(), DimensionData(
        {"alpha": n, "beta": 1}, {"alpha": 0, "beta": 0}))
    fl = Flavour({"e": as_scalar(1), "f": as_scalar(1)})
    betas = [-2, -1, Fraction(-1, 2), Fraction(1, 2)]
    seqs = [enumerate_orders(None, {"alpha": [as_scalar(0)] * n,
                                    "beta": [as_scalar(b)]},
                             comp, fl)[0] for b in betas]

    def strands(seq, lab):
        return [k for k in range(1, n + 2) if seq.labels[k - 1] == lab]

    for b1, s1 in zip(betas, seqs):
        for b2, s2 in zip(betas, seqs):
            ok, sigma = equivalent(s1, s2, comp, fl)
            assert ok == ((b1 > -1) == (b2 > -1)), (b1, b2)
            if ok:
                # the in-order map, alpha block first
                assert list(sigma.items()) == [
                    pair for lab in ("alpha", "beta")
                    for pair in zip(strands(s1, lab), strands(s2, lab))]
            else:
                assert sigma is None
            if n == 6:
                assert repr((ok, sigma)) == repr(ref.equivalent(s1, s2, comp, fl))
