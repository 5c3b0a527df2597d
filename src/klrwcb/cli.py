"""Command-line surface.

Commands: enumerate-sequences, check-equivalence, is-unsteady,
reduce-integral, category-o-graph, monopole-mul, res-support, qhr,
relcheck, satake, render-diagram, suite.  All output is deterministic for
a fixed --seed.  KLRW_SHADOW_PRECISION sets the denominator used for
auto-declared shadows of sqrtN symbols.  One reader (``scalars.Reader``)
reads every literal, from ``2*sym:sqrt2`` and ``0.5*x1*r[1,0] - r[-1,0]``
to the sequence ``[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]``, the lists
``alpha=0,1/2;beta=2`` of --gamma and ``1=1,2=0`` of --w, and the vector
``1,-2,0`` of --xi, and it reads the whole argument.  Bad input (a
malformed literal, an empty entry, a repeated or unknown vertex or edge,
data the library rejects, a usage error) prints one line ``klrwcb:
error: <message>`` on stderr and exits with status 2; so does a quiver or
flavour file that cannot be read or is not JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import suites
from .coulomb import (MatterWeight, MonopoleElement, TorusTheory,
                      UniversalWeightModule, hamiltonian_reduce, mul,
                      res_support)
from .cover import build_cover, category_o_graph, integralize
from .diagrams import Engine
from .kacmoody import decat_chevalley, weyl_dimension, KMWeight
from .poly import HBAR, Polynomial, as_poly
from .quiver import Flavour, dump_quiver_spec, load_quiver_spec
from .relations import format_report, verify_relations
from .render import render_diagram
from .scalars import (ZERO, Reader, SymbolTable, format_scalar, parse_scalar,
                      read_terms, read_vector, real_keys, sum_terms)
from .sequences import (enumerate_orders, equivalent, is_unsteady,
                        parse_sequence, validate)


def _shadow_precision():
    text = os.environ.get("KLRW_SHADOW_PRECISION", "1000000")
    r = Reader(text)
    return r.item(lambda: r.integer(1), "", lambda _: "KLRW_SHADOW_PRECISION must "
                  "be a positive integer, got %r" % text)


def make_table():
    """Symbol table preloaded with shadows for sqrtN names at the precision
    from the environment."""
    table = SymbolTable()
    prec = _shadow_precision()
    for n in (2, 3, 5, 6, 7, 10):
        table.declare("sqrt%d" % n, Fraction(math.isqrt(n * prec * prec), prec))
    return table


def _longitudes(text, flag, table, quiver):
    """'alpha=0,1/2;beta=2' -> {vertex: [scalars]} over the quiver's
    vertices (the --gamma of enumerate-sequences, the --orbit of
    reduce-integral)."""
    r = Reader(text, what=flag, table=table)
    return r.assignments(";", lambda: r.items(r.scalar, ",", ";", None),
                         lambda item: "longitude chunk %r is not vertex=values" % item,
                         "vertex", "%r", quiver.old_vertices())


def _counts(text, flag, quiver):
    """'1=1,2=3' -> {vertex: count} over the quiver's old vertices (the
    --w and --vmax of satake)."""
    r = Reader(text, what=flag)
    counts = r.assignments(",", r.word,
                           lambda item: "%s entry %r is not vertex=count" % (flag, item),
                           "vertex", flag + " entry %r", quiver.old_vertices())
    for x, n in counts.items():
        if not n.isdecimal():
            raise ValueError("count %r in %s entry %r is not a nonnegative integer"
                             % (n, flag, "%s=%s" % (x, n)))
    return {x: int(n) for x, n in counts.items()}


def _variable(tok, rank):
    """The polynomial variable x1..xr or h named by tok."""
    if tok == HBAR or re.fullmatch(r"x[0-9]+", tok):
        if tok != HBAR and not (1 <= int(tok[1:]) <= rank):
            raise ValueError("variable %s out of rank %d" % (tok, rank))
        return Polynomial.variable(tok)
    raise ValueError("unknown variable %r" % tok)


def parse_monopole(text, rank):
    """Element literal: terms like '3*x1*r[1,0] - r[-1,0]', each ending in
    its r[nu] factor.  The coefficient stands left of r[..]: r_xi f =
    f(x + h xi) r_xi, so a factor on the right would be a different
    element.  A term of value zero needs no r[..] factor, so '0', the
    repr of the zero element, reads back."""
    def name(tok):
        if not (tok.startswith("r[") and tok.endswith("]")):
            return _variable(tok, rank)
        nu = read_vector(tok[2:-1])
        if len(nu) != rank:
            raise ValueError("coweight %r has wrong rank" % (nu,))
        return nu

    total = MonopoleElement({})
    for factors, source in read_terms(text, name, "monopole"):
        *coeff, nu = factors
        if tuple in map(type, coeff):
            raise ValueError("monopole term %r has text after its r[..] factor"
                             % source)
        if type(nu) is not tuple:
            if sum_terms([(factors, source)]):
                raise ValueError("monopole term %r lacks an r[..] factor" % source)
            continue
        total = total + MonopoleElement({nu: as_poly(sum_terms([(coeff, source)]))})
    return total


def _rational(r, what):
    """The rational sum at the reader's cursor; what names it in messages."""
    start = r.skip()
    value = r.scalar()
    if not value.is_rational:
        raise ValueError("%s %r is not rational" % (what, r.text[start:r.pos]))
    return value.rational


def _parse_matter(specs, rank, table):
    """A TorusTheory of --matter specs gauge[;shift[;hshift]], '1,0;1/2' say;
    an empty shift or hshift is 0."""
    matter = []
    for spec in specs:
        r = Reader(spec, what="--matter", table=table)
        gauge = r.vector(";")
        if len(gauge) != rank:
            raise ValueError("gauge charge %r has wrong rank" % (gauge,))
        shift = r.scalar() if r.accept(";") and not r.at(";") else ZERO
        hshift = _rational(r, "--matter %r hshift" % spec) \
            if r.accept(";") and not r.at("") else Fraction(0)
        if r.accept(";"):
            raise ValueError("matter spec %r has more than three ';' fields" % spec)
        if not r.at(""):
            raise ValueError("matter spec %r is not gauge;shift;hshift" % spec)
        matter.append(MatterWeight(gauge, shift, hshift))
    return TorusTheory(rank, matter)


def _json(path, flag):
    """The JSON value in the file at path, which flag named."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError("%s file %r is not JSON: %s" % (flag, path, exc)) from None


def _load(args):
    """The quiver spec of --quiver with the --flavour overrides applied,
    read against a fresh make_table()."""
    quiver, dims, completed, flavour, table = load_quiver_spec(
        _json(args.quiver, "--quiver"), make_table())
    override = getattr(args, "flavour", None)
    if override:
        if os.path.exists(override):
            values = _json(override, "--flavour")
            if not isinstance(values, dict):
                raise ValueError("flavour override file %r is not a JSON object"
                                 % override)
            values = {eid.strip(): parse_scalar(str(lit), table)
                      for eid, lit in values.items()}
        else:
            r = Reader(override, what="--flavour", table=table)
            values = r.assignments(
                ";", r.scalar, lambda item: "--flavour entry %r is not edge=value" % item,
                "edge", "--flavour entry %r")
        for eid in values:
            if eid not in flavour.values:
                raise ValueError("flavour override for unknown edge %r" % eid)
        flavour = Flavour({**flavour.values, **values})
    return quiver, dims, completed, flavour, table


def _valid_sequence(what, text, completed, flavour, table):
    """The sequence literal text, parsed; a ValueError naming what and the
    violations when it is not a valid flavoured sequence."""
    s = parse_sequence(text, table)
    bad = validate(s, completed, flavour, table)
    if bad:
        raise ValueError("%s invalid: %s" % (what, bad))
    return s


def cmd_enumerate(args):
    quiver, dims, completed, flavour, table = _load(args)
    gamma = _longitudes(args.gamma, "--gamma", table, quiver)
    seqs = enumerate_orders(None, gamma, completed, flavour, table,
                            up_to_equivalence=not args.all_orders)
    if args.format == "json":
        print(json.dumps([s.describe() for s in seqs], indent=2))
        return 0
    for s in seqs:
        line = s.describe()
        if args.table:
            longs = [s.longitude(it, flavour) for it in s.order]
            keys = real_keys(longs, table)  # equal keys: equal real parts
            line += "   regime: " + "  ".join(
                "Re(%s)%sRe(%s)" % (format_scalar(a), "=" if ka == kb else "<=",
                                    format_scalar(b))
                for a, b, ka, kb in zip(longs, longs[1:], keys, keys[1:]))
        print(line)
    return 0


def cmd_equivalence(args):
    quiver, dims, completed, flavour, table = _load(args)
    s1 = _valid_sequence("first sequence", args.first, completed, flavour, table)
    s2 = _valid_sequence("second sequence", args.second, completed, flavour, table)
    ok, sigma = equivalent(s1, s2, completed, flavour, table)
    if ok:
        print("equivalent via sigma = %s" % (sigma,))
        return 0
    print("not equivalent")
    return 1


def cmd_unsteady(args):
    quiver, dims, completed, flavour, table = _load(args)
    s = _valid_sequence("sequence", args.seq, completed, flavour, table)
    flag, k = is_unsteady(s)
    print("unsteady k=%d" % k if flag else "steady")
    return 0


def cmd_reduce_integral(args):
    quiver, dims, completed, flavour, table = _load(args)
    orbit = _longitudes(args.orbit, "--orbit", table, quiver)
    for x in quiver.old_vertices():
        orbit.setdefault(x, [])
    cover = build_cover(quiver, dims, completed, flavour, orbit, table)
    eta, phi_prime = integralize(cover)
    if args.format == "json":
        print(json.dumps(dump_quiver_spec(cover.quiver, cover.dims, phi_prime),
                         indent=2))
        return 0
    print("vertices (v-tilde / w-tilde):")
    for cv in cover.quiver.vertices:
        print("  %-24s v=%d w=%d" % (cv, cover.dims.v[cv], cover.dims.w[cv]))
    print("edges:")
    for e in cover.quiver.edges:
        print("  %-28s %s -> %s" % (e.id, e.tail, e.head))
    print("integralized flavour phi':")
    for e in cover.completed.edges:
        print("  %-28s %s" % (e.id, format_scalar(phi_prime[e.id])))
    return 0


def cmd_category_o(args):
    quiver, dims, completed, flavour, table = _load(args)
    graph, wt = category_o_graph(quiver, dims, completed, flavour, table)
    print("category-O support graph:")
    for v in graph.vertices:
        tag = "  (framing x%d)" % wt[v] if wt.get(v) else ""
        print("  %s%s" % (v, tag))
    for e in graph.edges:
        print("  %-28s %s -> %s" % (e.id, e.tail, e.head))
    return 0


def cmd_monopole_mul(args):
    table = make_table()
    theory = _parse_matter(args.matter or [], args.rank, table)
    a = parse_monopole(args.first, args.rank)
    b = parse_monopole(args.second, args.rank)
    print(repr(mul(a, b, theory)))
    return 0


def _module_from_args(args, table):
    theory = _parse_matter(args.matter or [], args.rank, table)
    if args.box <= 0:
        raise ValueError("--box %d is %s"
                         % (args.box, "negative" if args.box else "empty"))
    r = Reader(args.gamma0, table=table)
    # the one misfit of a scalar is text after it
    gamma0 = tuple(r.items(r.scalar, ",", "", lambda _: "trailing junk in scalar literal"))
    box = itertools.product(range(args.box), repeat=args.rank)
    return UniversalWeightModule(theory, gamma0, set(box))


def cmd_res_support(args):
    table = make_table()
    module = _module_from_args(args, table)
    xi = read_vector(args.xi)
    support = res_support(module, xi)
    print("coset representative -> limit dimension")
    for key in sorted(support):
        print("  %-24s %d" % (",".join(str(q) for q in key), support[key]))
    return 0


def cmd_qhr(args):
    table = make_table()
    module = _module_from_args(args, table)
    xi = read_vector(args.xi)
    formula, oracle = hamiltonian_reduce(module, xi)
    print("projected weight -> dimension (formula / linear algebra)")
    for key in sorted(formula):
        print("  %-24s %d / %d" % (",".join(str(q) for q in key),
                                   formula[key], oracle[key]))
    print("agreement:", formula == oracle)
    return 0 if formula == oracle else 1


def cmd_relcheck(args):
    quiver, dims, completed, flavour, table = _load(args)
    if not flavour.is_integral():
        raise ValueError("relcheck needs an integral flavour")
    engine = Engine(completed, flavour, table)
    report = verify_relations(engine, degree_bound=args.bound,
                              n_random=args.random, seed=args.seed)
    print(format_report(report))
    return 0 if report["ok"] else 1


def cmd_satake(args):
    quiver, dims, completed, flavour, table = _load(args)
    w = _counts(args.w, "--w", quiver)
    if args.vmax:
        vmax = _counts(args.vmax, "--vmax", quiver)
    else:
        vmax = {x: sum(w.values()) for x in quiver.old_vertices()}
    res = decat_chevalley(quiver, w, vmax)
    verts = res["verts"]
    total = 0
    print("v -> dim V(lambda)_mu(v)   [vertices %s]" % (verts,))
    for v in sorted(res["table"]):
        m = res["table"][v]
        total += m
        if m:
            print("  %-16s %d" % (v, m))
    lam = KMWeight.make("fundamental", {x: w.get(x, 0) for x in verts})
    try:
        dim = weyl_dimension(quiver, lam)
    except ValueError:  # off finite type: A is not positive definite
        print("total: %d" % total)
    else:
        print("total: %d  (dim V(lambda) = %d)" % (total, dim))
    print("decategorified e/f ranks:")
    for (i, v), r in sorted(res["ranks"].items()):
        print("  e_%s at %-12s rank e=%d f=%d" % (i, v, r["e"], r["f"]))
    return 0


def cmd_render(args):
    quiver, dims, completed, flavour, table = _load(args)
    engine = Engine(completed, flavour, table)
    bottom = _valid_sequence("bottom sequence", args.bottom, completed, flavour,
                             table)
    top = _valid_sequence("top sequence", args.top, completed, flavour, table) \
        if args.top else bottom
    diagram = engine.straight_line(bottom, top)
    if args.dot:
        dots = []
        for spec in args.dot:
            r = Reader(spec, what="--dot")

            def dot():
                k = r.integer(0)
                r.expect("@")
                return k, _rational(r, "--dot %r height" % spec)

            dots.append(r.item(dot, "", lambda _: "--dot %r is not strand@height" % spec))
        diagram = engine.add_dots(diagram, dots)
    svg = render_diagram(engine, diagram, title=args.title)
    if args.output == "-":
        print(svg)
    else:
        with open(args.output, "w") as fh:
            fh.write(svg)
        print("wrote %s" % args.output)
    return 0


def cmd_suite(args):
    name = args.name
    if name == "relations":
        result = suites.suite_relations(seed=args.seed, degree_bound=args.bound)
        for data, rep in result["reports"].items():
            print("== %s ==" % data)
            print(format_report(rep))
    elif name == "monopole":
        result = suites.suite_monopole(seed=args.seed)
        print("rxi=%d assoc=%d inverse=%d hom=%d ok=%s"
              % (result["rxi"], result["assoc"], result["inverse"],
                 result["hom"], result["ok"]))
        el = suites.suite_elprime(seed=args.seed)
        print("elprime instances=%d ok=%s" % (el["instances"], el["ok"]))
        result["ok"] = result["ok"] and el["ok"]
    elif name == "restriction":
        result = suites.suite_restriction(seed=args.seed)
        print("restriction instances=%d ok=%s" % (result["instances"], result["ok"]))
        q = suites.suite_qhr(seed=args.seed)
        print("qhr instances=%d ok=%s" % (q["instances"], q["ok"]))
        result["ok"] = result["ok"] and q["ok"]
    else:
        result = suites.suite_satake()
        print("satake ok=%s" % result["ok"])
    for w in result.get("witnesses", [])[:5]:
        print("witness:", w)
    return 0 if result["ok"] else 1


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input too: one ``klrwcb: error:`` line, exit 2."""

    def error(self, message):
        self.exit(2, "klrwcb: error: %s\n" % message)


def main(argv=None):
    parser = _Parser(
        prog="klrwcb",
        description="flavoured KLRW and abelian Coulomb branch calculators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quiver_args(p):
        p.add_argument("--quiver", required=True)
        p.add_argument("--flavour",
                       help="override flavours: 'edge=lit;...' or a JSON file")

    p = sub.add_parser("enumerate-sequences",
                       help="valid orders of a weight, up to equivalence")
    add_quiver_args(p)
    p.add_argument("--gamma", required=True,
                   help="per-vertex longitudes, e.g. 'alpha=0;beta=2'")
    p.add_argument("--table", action="store_true")
    p.add_argument("--all-orders", action="store_true",
                   help="every valid order, not the one class representative")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check-equivalence")
    add_quiver_args(p)
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("is-unsteady")
    add_quiver_args(p)
    p.add_argument("seq")
    p.set_defaults(func=cmd_unsteady)

    p = sub.add_parser("reduce-integral")
    add_quiver_args(p)
    p.add_argument("--orbit", required=True,
                   help="orbit representative, e.g. 'alpha=0,1/3;beta=1/2'")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_reduce_integral)

    p = sub.add_parser("category-o-graph")
    add_quiver_args(p)
    p.set_defaults(func=cmd_category_o)

    # argparse reads a value that starts with '-' (a negative charge) as an
    # option, so such a value has to be joined to its option with '='
    matter_help = ("gauge[;shift[;hshift]], e.g. '1,0;1/2'; a value that "
                   "starts with '-' needs the '=' form: --matter=-1,2")

    p = sub.add_parser("monopole-mul")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--matter", action="append", help=matter_help)
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_monopole_mul)

    for name, fn in (("res-support", cmd_res_support), ("qhr", cmd_qhr)):
        p = sub.add_parser(name)
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--matter", action="append", help=matter_help)
        p.add_argument("--gamma0", required=True,
                       help="',' list, e.g. '1/2,0'; a value that starts "
                            "with '-' needs the '=' form: --gamma0=-1/2")
        p.add_argument("--box", type=int, default=4)
        p.add_argument("--xi", required=True,
                       help="coweight, ',' list, e.g. '1,0'; a value that "
                            "starts with '-' needs the '=' form: --xi=-1,0")
        p.set_defaults(func=fn)

    p = sub.add_parser("relcheck")
    add_quiver_args(p)
    p.add_argument("--bound", type=int, default=3,
                   help="monomial total-degree bound (weighted degree 2x)")
    p.add_argument("--random", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_relcheck)

    p = sub.add_parser("satake")
    add_quiver_args(p)
    p.add_argument("--w", required=True, help="framing, e.g. '1=1,2=1'")
    p.add_argument("--vmax", help="grid bound, e.g. '1=2,2=2'")
    p.set_defaults(func=cmd_satake)

    p = sub.add_parser("render-diagram")
    add_quiver_args(p)
    p.add_argument("--bottom", required=True)
    p.add_argument("--top")
    p.add_argument("--dot", action="append", help="strand@height, e.g. 1@1/3")
    p.add_argument("--title")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("suite")
    p.add_argument("name", choices=["relations", "monopole", "restriction",
                                    "satake"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(func=cmd_suite)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # reader gone (`| head`): exit 1, rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print("klrwcb: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
