"""weights-and-sequences: the combinatorial front end.

Families of a round (shapes fixed, values seeded):
  regime      one Kronecker longitude pair per row of the paper's table:
              enumerate_orders must give exactly one class, equivalent to
              the row, with a witness sigma that passes our own check
  tied        enumerate_orders on tied Kronecker longitudes, 6 and 7 strands
  weight      from_weight and is_unsteady on framed Kronecker and A2 data,
              rational and symbolic (sqrt2) longitudes
  equivalent  equivalent() on two valid orders we build ourselves, against
              a brute force over all corporeal permutations
  diagram     straight_line, compose, degree and act on low-degree vectors
  cover       build_cover and integralize, rational and symbolic flavours
  satake      decat_chevalley for A1 and A2 with the Kostant oracle, totals
              against the Weyl dimension formula
  restrict    res_support with symbolic Gelfand-Tsetlin weights
  qhr         hamiltonian_reduce: formula, linear-algebra oracle, our count
"""

from __future__ import annotations

from fractions import Fraction

import oracles as O
from common import Check, run_checks

# A round holds 36 checks; 28 rounds give 1008, so at least ten lie beyond
# the 99th percentile in every run.
TAIL_PERCENTILE = 99
MIN_ROUNDS = 28

SQRT2_SHADOW = Fraction(141421, 100000)
SHADOWS = {"sqrt2": SQRT2_SHADOW}

# (row name, labels, order tokens, regime): longitudes (first, second) are
# (a, b) for rows 1-4 and (b, a) for rows 5-6.
REGIME_ROWS = [
    ("row1", ("alpha", "beta"), ("1", "e@1", "2", "f@2"), "b-a>1"),
    ("row2", ("alpha", "beta"), ("1", "2", "e@1", "f@2"), "0<b-a<1"),
    ("row5", ("beta", "alpha"), ("1", "2", "f@1", "e@2"), "0<a-b<1"),
    ("row6", ("beta", "alpha"), ("1", "f@1", "2", "e@2"), "a-b>1"),
]
TIED_SHAPES = [((0, 0, 1), (0, 1, 1)), ((0, 0, Fraction(1, 2), Fraction(1, 2)),
                                        (0, 1, 1))]
WEIGHT_CHECKS = 8
EQUIV_CHECKS = 6
DIAGRAM_CHECKS = 4
MONOMIALS = [(), ((1, 1),), ((2, 1), (3, 1)), ((1, 2),), ((1, 1), ("h", 1))]


def setup():
    """Import the program and build every quiver, completion, flavour,
    symbol table and Engine the rounds use."""
    from klrwcb import (coulomb, cover, diagrams, kacmoody, poly, quiver,
                        scalars, sequences)
    S = scalars
    Q = quiver
    st = {"sequences": sequences, "diagrams": diagrams, "cover": cover,
          "kacmoody": kacmoody, "coulomb": coulomb, "poly": poly,
          "scalars": scalars, "quiver": quiver}
    table = S.SymbolTable()
    table.declare("sqrt2", SQRT2_SHADOW)
    st["table"] = table
    kron = Q.kronecker_quiver()
    unit = {"e": S.as_scalar(1), "f": S.as_scalar(1)}

    def completed(v, w):
        return Q.crawley_boevey(kron, Q.DimensionData(
            {"alpha": v[0], "beta": v[1]}, {"alpha": w[0], "beta": w[1]}))

    st["kron11"] = (completed((1, 1), (0, 0)), Q.Flavour(dict(unit)))
    st["tied"] = [(completed((len(a), len(b)), (0, 0)), Q.Flavour(dict(unit)))
                  for a, b in TIED_SHAPES]
    framed = dict(unit)
    framed.update({"w[alpha]0": S.as_scalar(-4), "w[alpha]1": S.as_scalar(0),
                   "w[beta]0": S.as_scalar(2)})
    st["kron21"] = (completed((2, 1), (2, 1)), Q.Flavour(framed))
    a2 = Q.Quiver(["1", "2"], [Q.Edge("a", "1", "2")])
    st["a2"] = (Q.crawley_boevey(a2, Q.DimensionData({"1": 1, "2": 1},
                                                     {"1": 1, "2": 0})),
                Q.Flavour({"a": S.as_scalar(1), "w[1]0": S.as_scalar(0)}))
    diag_fl = dict(unit)
    diag_fl.update({"w[alpha]0": S.as_scalar(0), "w[beta]0": S.as_scalar(2)})
    st["engine"] = diagrams.Engine(completed((2, 1), (1, 1)), Q.Flavour(diag_fl))
    cover_dims = Q.DimensionData({"alpha": 5, "beta": 6}, {"alpha": 2, "beta": 1})
    st["cover_data"] = (kron, cover_dims, Q.crawley_boevey(kron, cover_dims))
    st["a1_quiver"] = Q.Quiver(["x"], [])
    st["a2_quiver"] = a2
    return st


# -- reading program objects into plain data -------------------------------


def triple(a):
    return (a.rational, a.imaginary, dict(a.symbolic))


def plain(seq):
    return (tuple(seq.labels), tuple(triple(a) for a in seq.longitudes),
            tuple((it.kind, it.k, it.edge) for it in seq.order))


def plain_flavour(flavour):
    return {k: triple(v) for k, v in flavour.values.items()}


def ghost_edges(completed):
    out = {}
    for e in completed.old_edges():
        out.setdefault(e.head, []).append(e.id)
    return out


def edge_tails(completed):
    return {e.id: e.tail for e in completed.edges}


def red_edges(completed):
    return [e.id for e in completed.new_edges()]


def valid(seq, completed, flavour):
    labels, longs, order = plain(seq)
    return not O.sequence_violations(labels, longs, order, plain_flavour(flavour),
                                     SHADOWS, ghost_edges(completed),
                                     red_edges(completed))


def weight_matches(seq, gamma):
    got = {}
    for lab, a in zip(seq.labels, seq.longitudes):
        got.setdefault(lab, []).append(triple(a))
    key = lambda t: (t[0], t[1], sorted(t[2].items()))  # noqa: E731
    return all(sorted(map(key, got.get(v, []))) == sorted(key(triple(a)) for a in vals)
               for v, vals in gamma.items())


def _scalar(st, q, sym=0):
    return st["scalars"].ExactScalar(q, 0, {"sqrt2": sym} if sym else None)


# -- families -------------------------------------------------------------------


def regime_check(st, row, a, b):
    seqs = st["sequences"]
    comp, fl = st["kron11"]
    name, labels, tokens, _ = row
    longs = (a, b) if labels[0] == "alpha" else (b, a)
    want = seqs.parse_sequence("[(%s,%s),(%s,%s)] order=[%s]" % (
        labels[0], longs[0], labels[1], longs[1], ",".join(tokens)))
    gamma = {"alpha": [st["scalars"].as_scalar(a)],
             "beta": [st["scalars"].as_scalar(b)]}

    want_list = [want]
    if name == "row34":
        want_list.append(seqs.parse_sequence(
            "[(beta,%s),(alpha,%s)] order=[1,2,e@2,f@1]" % (a, a)))
    tails = edge_tails(comp)

    def run():
        got = seqs.enumerate_orders(None, gamma, comp, fl)
        return got, [seqs.equivalent(got[0], w, comp, fl) for w in want_list]

    def verify(result):
        got, equivs = result
        if len(got) != 1 or not valid(got[0], comp, fl):
            return False
        for w, (ok, sigma) in zip(want_list, equivs):
            if not ok or O.sigma_violations(plain(got[0]), plain(w), sigma,
                                            tails, SHADOWS):
                return False
        return True

    return Check("regime", run, verify)


def tied_check(st, index, base):
    seqs = st["sequences"]
    comp, fl = st["tied"][index]
    ga, gb = TIED_SHAPES[index]
    gamma = {"alpha": [st["scalars"].as_scalar(base + x) for x in ga],
             "beta": [st["scalars"].as_scalar(base + x) for x in gb]}

    def verify(got):
        return bool(got) and len(set(got)) == len(got) and all(
            valid(s, comp, fl) and weight_matches(s, gamma) for s in got)

    return Check("tied", lambda: seqs.enumerate_orders(None, gamma, comp, fl),
                 verify)


def weight_check(st, data, gamma):
    seqs = st["sequences"]
    comp, fl = data
    table = st["table"]

    def run():
        s = seqs.from_weight(gamma, comp, fl, table)
        return s, seqs.is_unsteady(s)

    def verify(result):
        s, unsteady = result
        k = O.unsteady_suffix(plain(s)[2])
        return valid(s, comp, fl) and weight_matches(s, gamma) \
            and unsteady == ((True, k) if k else (False, None))

    return Check("weight", run, verify)


def random_valid_sequence(st, rng, gamma, comp, fl):
    """A valid flavoured sequence of the weight gamma with random
    tie-breaking, built without the program's sorting."""
    seqs = st["sequences"]
    entries = [(a, v) for v in sorted(gamma) for a in gamma[v]]
    entries.sort(key=lambda e: (O.real_value(triple(e[0]), SHADOWS), rng.random()))
    labels = tuple(v for _, v in entries)
    longs = tuple(a for a, _ in entries)
    flv = plain_flavour(fl)
    items = [("C", k, None) for k in range(1, len(labels) + 1)]
    items += [("G", k, e) for k, lab in enumerate(labels, 1)
              for e in ghost_edges(comp).get(lab, [])]
    items += [("R", 0, e) for e in red_edges(comp)]
    plain_longs = [triple(a) for a in longs]

    def key(it):
        real = O.real_value(O.item_longitude(it, plain_longs, flv), SHADOWS)
        return (real, it[0] == "C", it[1] if it[0] == "C" else rng.random())

    order = []
    for kind, k, e in sorted(items, key=key):
        order.append(seqs.corporeal(k) if kind == "C" else
                     seqs.ghost(k, e) if kind == "G" else seqs.red(e))
    return seqs.FlavouredSequence(labels, longs, tuple(order))


def equivalent_check(st, s1, s2):
    seqs = st["sequences"]
    comp, fl = st["kron21"]
    p1, p2 = plain(s1), plain(s2)
    tails = edge_tails(comp)
    want = O.brute_equivalent(p1, p2, tails, SHADOWS)

    def verify(result):
        ok, sigma = result
        if ok != want:
            return False
        return not ok or not O.sigma_violations(p1, p2, sigma, tails, SHADOWS)

    return Check("equivalent", lambda: seqs.equivalent(s1, s2, comp, fl), verify)


def diagram_check(st, gammas, mono):
    seqs, dg = st["sequences"], st["diagrams"]
    eng = st["engine"]
    P = st["poly"].Polynomial
    f = P.constant(1)
    for var, e in mono:
        f = f * P.variable(var if var == "h" else "y%d" % var, e)

    def run():
        s0, s1, s2 = (seqs.from_weight(g, eng.completed, eng.flavour) for g in gammas)
        d1, d2 = eng.straight_line(s0, s1), eng.straight_line(s1, s2)
        d = eng.compose(d2, d1)
        v = dg.PolyVector(s0, f)
        whole = eng.act(d, v)
        steps = eng.act(d2, eng.act(d1, v))
        return v, whole, steps, eng.degree(d), eng.degree(d1) + eng.degree(d2)

    def verify(result):
        v, whole, steps, deg, deg_sum = result
        if whole.poly != steps.poly or whole.seq != steps.seq or deg != deg_sum:
            return False
        return not whole.poly or whole.degree(eng) == v.degree(eng) + deg

    return Check("diagram", run, verify)


def coset(t):
    q = t[0]
    return (q - (q.numerator // q.denominator), t[1],
            tuple(sorted(t[2].items())))


def cover_check(st, orbit, flavour):
    cov = st["cover"]
    quiver, dims, comp = st["cover_data"]
    table = st["table"]
    infinity = st["quiver"].INFINITY
    fl = st["quiver"].Flavour(flavour)
    flv = plain_flavour(fl)
    want_v = {}
    for i, coords in orbit.items():
        for a in coords:
            key = (i, coset(triple(a)))
            want_v[key] = want_v.get(key, 0) + 1
    want_w = {}
    for e in comp.new_edges():
        key = (e.tail, coset(flv[e.id]))
        if key in want_v:
            want_w[key] = want_w.get(key, 0) + 1
    want_edges = 0
    for e in comp.old_edges():
        phi = flv[e.id]
        for (i, c), _ in want_v.items():
            if i != e.head:
                continue
            up = (c[0] + phi[0], c[1] + phi[1], dict(c[2]))
            for s, x in phi[2].items():
                up[2][s] = up[2].get(s, 0) + x
            up = (up[0], up[1], {s: x for s, x in up[2].items() if x})
            if (e.tail, coset(up)) in want_v:
                want_edges += 1

    def run():
        c = cov.build_cover(quiver, dims, comp, fl, orbit, table)
        return c, cov.integralize(c)

    def vkey(cv):
        return (cv.base, coset(triple(cv.coset)))

    def verify(result):
        c, (eta, phi_prime) = result
        got_v = {vkey(cv): n for cv, n in c.dims.v.items() if n}
        got_w = {vkey(cv): n for cv, n in c.dims.w.items() if n}
        if got_v != want_v or got_w != want_w or len(c.quiver.edges) != want_edges:
            return False
        if any(not 0 <= cv.coset.rational < 1 for cv in c.quiver.vertices):
            return False
        for e in c.completed.edges:
            phi = flv[c.base_edge[e.id]]
            ends = [(0, 0, {}) if v == infinity else triple(v.coset)
                    for v in (e.tail, e.head)]
            corr = phi[0] - (ends[0][0] - ends[1][0])
            got = triple(phi_prime[e.id])
            if got[0] != corr or got[0].denominator != 1 or got[1] or got[2]:
                return False
        return True

    return Check("cover", run, verify)


def satake_check(st, quiver, w):
    km = st["kacmoody"]
    verts = [v for v in quiver.vertices]
    dims_w = dict(zip(verts, w))
    top = sum(w)
    vmax = {v: top for v in verts}
    cartan = [[2]] if len(verts) == 1 else [[2, -1], [-1, 2]]

    def run():
        res = km.decat_chevalley(quiver, dims_w, vmax)
        lam = km.KMWeight.make("fundamental", dims_w)
        oracle = {}
        for v in res["table"]:
            mu = {verts[j]: w[j] - sum(cartan[j][i] * v[i] for i in range(len(v)))
                  for j in range(len(verts))}
            oracle[v] = km.kostant_multiplicity(quiver, lam,
                                                km.KMWeight.make("fundamental", mu))
        return res, oracle

    def verify(result):
        res, oracle = result
        table = res["table"]
        return sum(table.values()) == O.weyl_dimension_a(w) and \
            all(table[v] == max(0, oracle[v]) for v in table)

    return Check("satake", run, verify)


def _module(st, matter, gamma0, span):
    c = st["coulomb"]
    th = c.TorusTheory(2, [c.MatterWeight(g, st["scalars"].as_scalar(s))
                           for g, s in matter])
    box = {(a, b) for a in range(span) for b in range(span)}
    return c.UniversalWeightModule(th, gamma0, box)


def _mu_value(g, shift, gamma0, nu):
    """mu at gamma0 + nu (h = 1) as (rational, imag, {symbol: coeff})."""
    q = Fraction(shift)
    sym = {}
    for gi, base, n in zip(g, gamma0, nu):
        t = triple(base)
        q += gi * (t[0] + n)
        for s, x in t[2].items():
            sym[s] = sym.get(s, 0) + gi * x
    return q, {s: x for s, x in sym.items() if x}


def z_coset(nu, xi):
    num = sum(a * b for a, b in zip(nu, xi))
    den = sum(b * b for b in xi)
    k = num // den
    return tuple(Fraction(a - k * b) for a, b in zip(nu, xi))


def restrict_check(st, matter, gamma0, xi):
    c = st["coulomb"]
    m = _module(st, matter, gamma0, 3)

    def xi_negative(nu):
        for g, shift in matter:
            p = sum(a * b for a, b in zip(g, xi))
            q, sym = _mu_value(g, shift, gamma0, nu)
            integral = not sym and q.denominator == 1
            if p > 0 and integral and q > 0:
                return False
            if p < 0 and integral and q <= 0:
                return False
        return True

    def verify(support):
        if set(support.values()) - {0, 1}:
            return False
        if set(support) != {z_coset(nu, xi) for nu in m.active}:
            return False
        return all(support[z_coset(nu, xi)] == 1 for nu in m.active
                   if xi_negative(nu))

    return Check("restrict", lambda: c.res_support(m, xi), verify)


def qhr_check(st, matter, gamma0, xi):
    c = st["coulomb"]
    m = _module(st, matter, gamma0, 3)
    den = sum(b * b for b in xi)
    classes = {}
    for nu in m.active:
        t = Fraction(sum(a * b for a, b in zip(nu, xi)), den)
        key = tuple(Fraction(a) - t * b for a, b in zip(nu, xi))
        classes.setdefault(key, set()).add(z_coset(nu, xi))
    want = {k: len(v) for k, v in classes.items()}

    def verify(result):
        formula, oracle = result
        return formula == oracle == want

    return Check("qhr", lambda: c.hamiltonian_reduce(m, xi), verify)


# -- a round --------------------------------------------------------------------


def _half(rng, lo, hi):
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def make_round(st, rng):
    S = st["scalars"]
    checks = []
    deltas = [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(4, 5)]
    for row in REGIME_ROWS:
        a = _half(rng, -3, 3)
        d = rng.choice(deltas)
        regime = row[3]
        if regime == "b-a>1":
            b = a + 1 + d
        elif regime == "0<b-a<1":
            b = a + d
        elif regime == "0<a-b<1":
            b, a = a, a + d
        else:
            b, a = a, a + 1 + d
        checks.append(regime_check(st, row, a, b))
    a = _half(rng, -3, 3)
    checks.append(regime_check(st, ("row34", ("alpha", "beta"),
                                    ("1", "2", "f@2", "e@1"), "a=b"), a, a))
    checks.append(regime_check(st, ("row34", ("alpha", "beta"),
                                    ("1", "2", "f@2", "e@1"), "a=b"),
                               a + Fraction(1, 3), a + Fraction(1, 3)))
    for index in range(len(TIED_SHAPES)):
        checks.append(tied_check(st, index, _half(rng, -2, 2)))
    for n in range(WEIGHT_CHECKS):
        if n % 2:
            data = st["a2"]
            gamma = {"1": [_scalar(st, _half(rng, -3, 3))],
                     "2": [_scalar(st, _half(rng, -3, 3))]}
        else:
            data = st["kron21"]
            sym = n % 4 == 0
            pool = [_half(rng, -4, 4) for _ in range(2)]
            gamma = {"alpha": [_scalar(st, rng.choice(pool), sym and k == 0)
                               for k in range(2)],
                     "beta": [_scalar(st, rng.choice(pool))]}
        checks.append(weight_check(st, data, gamma))
    comp, fl = st["kron21"]
    for _ in range(EQUIV_CHECKS):
        pool = [S.as_scalar(_half(rng, -3, 3)) for _ in range(2)]
        gamma = {"alpha": [rng.choice(pool) for _ in range(2)],
                 "beta": [rng.choice(pool)]}
        checks.append(equivalent_check(
            st, random_valid_sequence(st, rng, gamma, comp, fl),
            random_valid_sequence(st, rng, gamma, comp, fl)))
    for _ in range(DIAGRAM_CHECKS):
        base = {"alpha": [rng.randint(-3, 3) for _ in range(2)],
                "beta": [rng.randint(-3, 3)]}
        gammas = [base]
        for _ in range(2):
            gammas.append({v: [a + rng.randint(-2, 2) for a in vals]
                           for v, vals in gammas[-1].items()})
        gammas = [{v: [S.as_scalar(a) for a in vals] for v, vals in g.items()}
                  for g in gammas]
        checks.append(diagram_check(st, gammas, rng.choice(MONOMIALS)))
    cosets_a = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    cosets_b = [Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
                Fraction(2, 3)]
    for symbolic in (False, True):
        orbit = {"alpha": [S.as_scalar(rng.choice(cosets_a) + rng.randint(-2, 2))
                           for _ in range(5)],
                 "beta": [S.as_scalar(rng.choice(cosets_b) + rng.randint(-2, 2))
                          for _ in range(6)]}
        flavour = {"e": S.as_scalar(rng.choice(cosets_a)),
                   "f": S.as_scalar(rng.choice(cosets_b)),
                   "w[alpha]0": S.as_scalar(rng.choice(cosets_a)),
                   "w[alpha]1": _scalar(st, rng.choice(cosets_a), 1) if symbolic
                   else S.as_scalar(rng.choice(cosets_a)),
                   "w[beta]0": S.as_scalar(rng.choice(cosets_b))}
        checks.append(cover_check(st, orbit, flavour))
    checks.append(satake_check(st, st["a1_quiver"], (rng.randint(2, 4),)))
    checks.append(satake_check(st, st["a2_quiver"], rng.choice([(2, 1), (1, 2)])))
    for n in range(3):
        matter = [((rng.randint(-2, 2), rng.choice([-1, 1])),
                   Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
                  for _ in range(2)]
        gamma0 = (_scalar(st, Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])),
                          1 if n != 1 else 0),
                  S.as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))))
        xi = (rng.choice([-1, 1]), rng.randint(-1, 1))
        checks.append(restrict_check(st, matter, gamma0, xi))
    for _ in range(3):
        xi = (1, rng.choice([0, 1, -1]))
        matter = [((-a * xi[1], a), Fraction(rng.randint(-1, 1), 2))
                  for a in (rng.choice([-2, -1, 1, 2]) for _ in range(2))]
        gamma0 = tuple(S.as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
                       for _ in range(2))
        checks.append(qhr_check(st, matter, gamma0, xi))
    return checks


def run_round(st, checks, tally, tracer):
    run_checks(checks, tally, tracer)
