"""Randomized property suites shared by the CLI and the acceptance tests.

All suites are deterministic for a fixed seed and return dicts with a
boolean "ok" plus counters; failures carry a witness.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .coulomb import (MatterWeight, MonopoleElement, TorusTheory,
                      UniversalWeightModule, _coset_key, elprime_identity_holds,
                      forget_matter, fourier, hamiltonian_reduce, inv_monopole,
                      mul, res_support, rxi_closed_form, rxi_pairing,
                      transition_invertible, xi_negative)
from .diagrams import Engine
from .kacmoody import (cartan_matrix, decat_chevalley, fundamental_from_root_diff,
                       kostant_multiplicity, weyl_dimension, KMWeight)
from .poly import Polynomial, RationalFunction
from .quiver import DimensionData, Edge, Quiver, crawley_boevey, Flavour, kronecker_quiver
from .relations import verify_relations
from .scalars import ExactScalar, as_scalar


def random_theory(rng, max_rank=3, max_matter=4):
    rank = rng.randint(1, max_rank)
    matter = []
    for _ in range(rng.randint(1, max_matter)):
        gauge = tuple(rng.randint(-2, 2) for _ in range(rank))
        if not any(gauge):
            gauge = tuple(1 if i == 0 else 0 for i in range(rank))
        shift = Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2])) \
            if rng.random() < 0.5 else 0
        hshift = Fraction(rng.randint(-1, 1)) if rng.random() < 0.3 else 0
        matter.append(MatterWeight(gauge, as_scalar(shift), hshift))
    return TorusTheory(rank, matter)


def random_coweight(rng, rank, bound=2, nonzero=True):
    while True:
        nu = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if any(nu) or not nonzero:
            return nu


def random_element(rng, rank, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        nu = random_coweight(rng, rank, nonzero=False)
        coeff = Polynomial.constant(Fraction(rng.randint(-3, 3)))
        if rng.random() < 0.5:
            coeff = coeff * Polynomial.variable("x%d" % rng.randint(1, rank))
        if rng.random() < 0.3:
            coeff = coeff + Polynomial.variable("h")
        if coeff:
            terms[nu] = RationalFunction.of(coeff)
    return MonopoleElement(terms) if terms else MonopoleElement.r((0,) * rank)


def suite_monopole(seed=0, n_rxi=50, n_assoc=200, n_inv=50, n_hom=100):
    rng = random.Random(seed)
    out = {"ok": True, "witnesses": []}

    for trial in range(n_rxi):
        th = random_theory(rng)
        xi = random_coweight(rng, th.rank)
        got = rxi_pairing(xi, th)
        want = rxi_closed_form(xi, th)
        if got[0] != want[0] or got[1] != want[1]:
            out["ok"] = False
            out["witnesses"].append(("rxi", trial, th, xi))
    out["rxi"] = n_rxi

    for trial in range(n_assoc):
        th = random_theory(rng, max_rank=2, max_matter=3)
        a, b, c = (random_element(rng, th.rank) for _ in range(3))
        if mul(mul(a, b, th), c, th) != mul(a, mul(b, c, th), th):
            out["ok"] = False
            out["witnesses"].append(("assoc", trial, th))
    out["assoc"] = n_assoc

    for trial in range(n_inv):
        th = random_theory(rng, max_rank=2, max_matter=3)
        xi = random_coweight(rng, th.rank)
        nu = random_coweight(rng, th.rank, nonzero=False)
        lhs = mul(MonopoleElement.r(xi), inv_monopole(xi, nu, th), th)
        if lhs != MonopoleElement.r(nu):
            out["ok"] = False
            out["witnesses"].append(("inverse", trial, th, xi, nu))
    out["inverse"] = n_inv

    for trial in range(n_hom):
        th = random_theory(rng, max_rank=2, max_matter=3)
        a, b = random_element(rng, th.rank, 2), random_element(rng, th.rank, 2)
        keep = [i for i in range(len(th.matter)) if rng.random() < 0.5]
        small = th.without(keep)
        lhs = forget_matter(mul(a, b, th), keep, th)
        rhs = mul(forget_matter(a, keep, th), forget_matter(b, keep, th), small)
        if lhs != rhs:
            out["ok"] = False
            out["witnesses"].append(("forget", trial, th, keep))
        # fourier needs a cocharacter with weight 1 on the dual block: build a
        # theory with a dedicated last coordinate carrying it
        th2 = _fourier_ready_theory(rng)
        n2 = [i for i, m in enumerate(th2.matter) if m.gauge[-1] == 1]
        wp = tuple(0 for _ in range(th2.rank - 1)) + (1,)
        a2, b2 = random_element(rng, th2.rank, 2), random_element(rng, th2.rank, 2)
        dual = th2.dualized(n2)
        lhs = fourier(mul(a2, b2, th2), n2, wp, th2)
        rhs = mul(fourier(a2, n2, wp, th2), fourier(b2, n2, wp, th2), dual)
        if lhs != rhs:
            out["ok"] = False
            out["witnesses"].append(("fourier", trial, th2, n2))
    out["hom"] = n_hom
    return out


def _fourier_ready_theory(rng):
    """Rank-2 theory whose last gauge coordinate is 1 on a matter block and
    0 elsewhere, so the last coordinate vector is a valid cocharacter."""
    matter = []
    for _ in range(rng.randint(1, 3)):
        g0 = rng.randint(-2, 2)
        last = rng.choice([0, 1])
        shift = as_scalar(Fraction(rng.randint(-1, 1), rng.choice([1, 2]))) \
            if rng.random() < 0.5 else as_scalar(0)
        matter.append(MatterWeight((g0, last), shift))
    if not any(m.gauge[-1] == 1 for m in matter):
        matter.append(MatterWeight((1, 1)))
    return TorusTheory(2, matter)


def suite_elprime(seed=0, n=20):
    rng = random.Random(seed)
    out = {"ok": True, "witnesses": [], "instances": n}
    for trial in range(n):
        th = random_theory(rng, max_rank=2, max_matter=4)
        rank = th.rank
        xi = random_coweight(rng, rank)
        nu = random_coweight(rng, rank, bound=2, nonzero=False)
        nup = random_coweight(rng, rank, bound=2, nonzero=False)
        if not elprime_identity_holds(nu, nup, xi, th):
            out["ok"] = False
            out["witnesses"].append((trial, th, nu, nup, xi))
    return out


def random_module(rng, with_symbols=False):
    th = random_theory(rng, max_rank=2, max_matter=3)
    gamma0 = []
    for i in range(th.rank):
        base = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        if with_symbols and rng.random() < 0.4:
            gamma0.append(ExactScalar(base, 0, {"irr%d" % i: 1}))
        else:
            gamma0.append(as_scalar(base))
    box = itertools.product(range(3), repeat=th.rank)
    return UniversalWeightModule(th, tuple(gamma0), set(box))


def suite_restriction(seed=0, n=50, k_range=10):
    """Each xi-negative weight gamma0 + nu of a random box module has
    support 1, and r_{-xi} r_xi is invertible at nu - k xi, k = 0..k_range.

    Both hold for all k >= 0.  With mu(nu) the value at gamma0 + nu and
    p = <mu, xi>, xi-negativity makes an integer mu(nu) >= 1 for p < 0 and
    <= 0 for p > 0; a non-integer one moves by integers, never to 0.
    Support: the coset's deepest active weight is nu - k xi for some k >= 0,
    where mu reads mu(nu) + k |p| >= 1 (the rule of ``res_support``).
    Invertibility: the factors are mu + c with c in [0, |p| - 1], read at
    mu(nu) + k |p| >= 1, for p < 0, and with c in [-p, -1], read at
    mu(nu) - k p <= 0, for p > 0.  So k = 0..k_range samples the
    implementation of a statement that holds for all k."""
    rng = random.Random(seed)
    out = {"ok": True, "witnesses": [], "instances": n}
    for trial in range(n):
        m = random_module(rng, with_symbols=(trial % 3 == 0))
        xi = random_coweight(rng, m.theory.rank)
        support = res_support(m, xi)
        for nu in m.active:
            point = m.weight_of(nu)
            if xi_negative(point, xi, m.theory):
                key, _ = _coset_key(nu, xi)
                if support.get(key) != 1:
                    out["ok"] = False
                    out["witnesses"].append(("res-weight", trial, nu, xi))
                # invertibility implication for k = 0..k_range
                for k in range(k_range + 1):
                    down = tuple(a - k * b for a, b in zip(nu, xi))
                    if not transition_invertible(m.weight_of(down), xi, m.theory):
                        out["ok"] = False
                        out["witnesses"].append(("xineg1", trial, nu, xi, k))
                        break
    return out


def suite_qhr(seed=0, n=50):
    rng = random.Random(seed)
    out = {"ok": True, "witnesses": [], "instances": n}
    for trial in range(n):
        rank = 2
        xi = (1, rng.choice([0, 1, -1]))
        matter = []
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(-2, 2)
            gauge = (-a * xi[1], a) if xi == (1, 0) else _orthogonal(rng, xi)
            matter.append(MatterWeight(gauge, as_scalar(Fraction(rng.randint(-1, 1), 2))))
        th = TorusTheory(rank, matter)
        gamma0 = tuple(as_scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
                       for _ in range(rank))
        span = rng.randint(2, 3)
        box = {(a, b) for a in range(span) for b in range(span)}
        m = UniversalWeightModule(th, gamma0, box)
        formula, oracle = hamiltonian_reduce(m, xi)
        if formula != oracle:
            out["ok"] = False
            out["witnesses"].append((trial, th, xi, formula, oracle))
    return out


def _orthogonal(rng, xi):
    # integer vector orthogonal to xi = (1, s)
    a = rng.randint(-2, 2)
    return (-a * xi[1], a)


def suite_satake():
    """Desk-scale decategorified checks for A1 (w=2) and A2 (w=(1,1))."""
    out = {"ok": True, "witnesses": []}

    a1 = Quiver(["x"], [])
    res1 = decat_chevalley(a1, {"x": 2}, {"x": 2})
    dims1 = [res1["table"][(v,)] for v in range(3)]
    lam1 = KMWeight.make("fundamental", {"x": 2})
    if dims1 != [1, 1, 1] or sum(res1["table"].values()) != weyl_dimension(a1, lam1):
        out["ok"] = False
        out["witnesses"].append(("a1-dims", dims1))
    if res1["ranks"][("x", (1,))]["e"] != 1:
        out["ok"] = False
        out["witnesses"].append(("a1-erank",))

    a2 = Quiver(["1", "2"], [Edge("a", "1", "2")])
    res2 = decat_chevalley(a2, {"1": 1, "2": 1}, {"1": 2, "2": 2})
    lam2 = KMWeight.make("fundamental", {"1": 1, "2": 1})
    total = sum(res2["table"].values())
    if total != 8 or total != weyl_dimension(a2, lam2):
        out["ok"] = False
        out["witnesses"].append(("a2-total", total))
    # oracle: every tabulated multiplicity agrees with the Weyl-character
    # (Kostant) brute force
    verts, A = cartan_matrix(a2)
    for v, m in res2["table"].items():
        mu = KMWeight.make("fundamental", fundamental_from_root_diff(
            verts, A, {"1": 1, "2": 1}, dict(zip(verts, v))))
        m_oracle = kostant_multiplicity(a2, lam2, mu)
        if m != m_oracle:
            out["ok"] = False
            out["witnesses"].append(("a2-mult", v, m, m_oracle))
    # rank bookkeeping: e at v matches f one step down, on every edge of the grid
    for quiver, w, res in ((a1, {"x": 2}, res1), (a2, {"1": 1, "2": 1}, res2)):
        verts = res["verts"]
        for (i, v), r in res["ranks"].items():
            idx = verts.index(i)
            down = tuple(x - (1 if p == idx else 0) for p, x in enumerate(v))
            r_down = res["ranks"].get((i, down))
            expect = r_down["f"] if r_down else 0
            if any(x < 0 for x in down):
                expect = 0
            if r["e"] != expect:
                out["ok"] = False
                out["witnesses"].append(("rank-mismatch", i, v, r, r_down))
    return out


def suite_relations(seed=0, degree_bound=3, n_random=10):
    out = {"ok": True, "reports": {}}
    datasets = []
    a1 = Quiver(["x"], [])
    c1 = crawley_boevey(a1, DimensionData({"x": 2}, {"x": 2}))
    datasets.append(("A1", Engine(c1, Flavour({"w[x]0": as_scalar(0),
                                               "w[x]1": as_scalar(2)}))))
    a2 = Quiver(["1", "2"], [Edge("a", "1", "2")])
    c2 = crawley_boevey(a2, DimensionData({"1": 1, "2": 1}, {"1": 1, "2": 0}))
    datasets.append(("A2", Engine(c2, Flavour({"a": as_scalar(1),
                                               "w[1]0": as_scalar(0)}))))
    kq = kronecker_quiver()
    ck = crawley_boevey(kq, DimensionData({"alpha": 2, "beta": 1},
                                          {"alpha": 1, "beta": 1}))
    datasets.append(("Kronecker", Engine(ck, Flavour({
        "e": as_scalar(1), "f": as_scalar(1),
        "w[alpha]0": as_scalar(0), "w[beta]0": as_scalar(2)}))))
    for name, eng in datasets:
        rep = verify_relations(eng, degree_bound=degree_bound,
                               n_random=n_random, seed=seed)
        out["reports"][name] = rep
        if not rep["ok"]:
            out["ok"] = False
    return out
