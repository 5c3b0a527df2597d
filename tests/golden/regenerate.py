"""Regenerate the golden CLI corpus: python3 tests/golden/regenerate.py

Each case is one klrwcb command line, run in-process through cli.main;
the corpus (corpus.json, next to this script) records its stdout, stderr
and exit code.  tests/test_golden.py runs every recorded case again and
compares all three.  A spec name such as kron.json in a command line
stands for the quiver spec file of that name in this directory.  The
default shadow precision is used (KLRW_SHADOW_PRECISION unset).

A change that alters output on purpose regenerates the corpus and lists
the difference in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

VALID = "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]"

CASES = [
    # enumerate-sequences: plain, --table, --all-orders, JSON
    ["enumerate-sequences", "--quiver", "kron.json", "--gamma", "alpha=0;beta=2"],
    ["enumerate-sequences", "--quiver", "kron.json", "--gamma", "alpha=0;beta=1/2",
     "--table"],
    ["enumerate-sequences", "--quiver", "kron.json", "--gamma", "alpha=0;beta=0",
     "--table", "--all-orders"],
    ["enumerate-sequences", "--quiver", "kron21.json", "--gamma",
     "alpha=0,1;beta=1/2", "--table"],
    ["enumerate-sequences", "--quiver", "kron21.json", "--gamma",
     "alpha=-4,0;beta=1", "--all-orders"],
    ["enumerate-sequences", "--quiver", "kron21.json", "--gamma",
     "alpha=0,0;beta=-1", "--all-orders", "--format", "json"],
    ["enumerate-sequences", "--quiver", "a2.json", "--gamma", "1=0;2=1", "--table",
     "--all-orders"],
    # Gaussian and symbolic longitudes and flavours
    ["enumerate-sequences", "--quiver", "kron.json", "--gamma",
     "alpha=1+1i;beta=1-1/2i", "--table", "--all-orders"],
    ["enumerate-sequences", "--quiver", "kron.json", "--gamma",
     "alpha=sym:sqrt2;beta=1", "--table", "--all-orders"],
    ["enumerate-sequences", "--quiver", "kron21.json", "--flavour", "e=sym:sqrt2",
     "--gamma", "alpha=0,sym:sqrt2-1;beta=1", "--table", "--all-orders"],
    # check-equivalence: one equivalent pair, one that is not
    ["check-equivalence", "--quiver", "kron.json",
     "[(alpha,0),(beta,0)] order=[1,2,f@2,e@1]",
     "[(beta,0),(alpha,0)] order=[1,2,e@2,f@1]"],
    ["check-equivalence", "--quiver", "kron.json", VALID,
     "[(alpha,0),(beta,1/2)] order=[1,2,e@1,f@2]"],
    ["check-equivalence", "--quiver", "kron21.json",
     "[(alpha,0),(alpha,0),(beta,1/2)] order=[!w[alpha]0,!w[alpha]1,1,2,3,e@1,e@2,"
     "f@3,!w[beta]0]",
     "[(alpha,0),(alpha,0),(beta,1/2)] order=[!w[alpha]0,!w[alpha]1,1,2,3,e@2,e@1,"
     "f@3,!w[beta]0]"],
    # is-unsteady
    ["is-unsteady", "--quiver", "kron.json", VALID],
    ["is-unsteady", "--quiver", "kron21.json",
     "[(alpha,-4),(alpha,0),(beta,1)] order=[!w[alpha]0,1,e@1,!w[alpha]1,2,e@2,3,"
     "f@3,!w[beta]0]"],
    ["is-unsteady", "--quiver", "kron21.json",
     "[(alpha,0),(alpha,1),(beta,1/2)] order=[!w[alpha]0,!w[alpha]1,1,3,e@1,2,"
     "f@3,e@2,!w[beta]0]"],
    # validity violations, named with their longitudes
    ["is-unsteady", "--quiver", "kron.json", "[(alpha,0),(beta,2)] order=[1,2,e@1,f@2]"],
    ["is-unsteady", "--quiver", "kron.json", "[(alpha,0),(beta,1)] order=[1,2,e@1,f@2]"],
    ["check-equivalence", "--quiver", "kron.json", VALID,
     "[(alpha,1+1i),(beta,1)] order=[1,2,f@2,e@1]"],
    # reduce-integral, category-o-graph, render-diagram
    ["reduce-integral", "--quiver", "cover.json", "--orbit",
     "alpha=0,1/3,1/2,2/3,2/3;beta=0,1/6,1/3,1/3,1/2,2/3"],
    ["reduce-integral", "--quiver", "kron21.json", "--orbit", "alpha=1/3,0;beta=4/3",
     "--format", "json"],
    ["category-o-graph", "--quiver", "jordan.json"],
    ["category-o-graph", "--quiver", "cover.json"],
    ["render-diagram", "--quiver", "kron.json", "--bottom", VALID,
     "--top", "[(beta,-1),(alpha,0)] order=[1,f@1,2,e@2]", "--dot", "1@1/3"],
    # symbolic shadow ties and undeclared symbols: exit code 2
    ["enumerate-sequences", "--quiver", "kron.json", "--gamma",
     "alpha=sym:t~1;beta=sym:u~1"],
    ["enumerate-sequences", "--quiver", "kron.json", "--gamma", "alpha=sym:t;beta=0"],
    ["is-unsteady", "--quiver", "kron.json",
     "[(alpha,sym:t~1),(beta,2)] order=[1,e@1,2,f@2]"],
    ["is-unsteady", "--quiver", "kron.json",
     "[(alpha,sym:t),(beta,2)] order=[1,e@1,2,f@2]"],
    ["enumerate-sequences", "--quiver", "kron.json", "--flavour", "e=sym:t~1",
     "--gamma", "alpha=1;beta=2"],
    ["enumerate-sequences", "--quiver", "kron.json", "--flavour", "e=sym:t",
     "--gamma", "alpha=1;beta=2"],
    # satake: finite type (A1, A2) and the affine Kronecker quiver
    ["satake", "--quiver", "a1.json", "--w", "x=3"],
    ["satake", "--quiver", "a2.json", "--w", "1=1,2=1"],
    ["satake", "--quiver", "kron.json", "--w", "alpha=1,beta=0", "--vmax",
     "alpha=2,beta=2"],
    # relcheck: default bound, a seed, and a framed Kronecker spec
    ["relcheck", "--quiver", "a1.json", "--seed", "1"],
    ["relcheck", "--quiver", "a2.json"],
    ["relcheck", "--quiver", "kron21.json", "--bound", "2", "--random", "0"],
    # monopole-mul: rational, Gaussian, h-shifted and symbolic matter; a
    # negative weight in the '=' form; symbol times symbol is refused
    ["monopole-mul", "--rank", "1", "--matter", "1;1/2", "r[1]", "r[-1]"],
    ["monopole-mul", "--rank", "1", "--matter", "1;1+1i", "r[1]", "r[-1]"],
    ["monopole-mul", "--rank", "1", "--matter", "1;0;1/2", "r[1]", "r[-1]"],
    ["monopole-mul", "--rank", "1", "--matter", "1;sym:sqrt2", "r[1]", "r[-1]"],
    ["monopole-mul", "--rank", "2", "--matter=-1,1", "r[1,0]", "r[0,1]"],
    ["monopole-mul", "--rank", "1", "--matter", "2;sym:sqrt2", "r[1]",
     "x1*r[-1]"],
    # the module side
    ["res-support", "--rank", "1", "--matter", "1", "--gamma0", "1/2", "--box",
     "4", "--xi", "1"],
    ["qhr", "--rank", "1", "--gamma0", "0", "--box", "3", "--xi", "1"],
    # the suites
    ["suite", "satake"],
    ["suite", "restriction"],
    ["suite", "monopole"],
    ["suite", "relations", "--bound", "2"],
    # the monopole suite on two more seeds; multi-term products on rank 2
    # with h-shifted, Gaussian and rational matter
    ["suite", "monopole", "--seed", "1"],
    ["suite", "monopole", "--seed", "2"],
    ["monopole-mul", "--rank", "2", "--matter", "1,1;0;1/2", "--matter=-1,2;1+1i",
     "--matter", "0,1;1/2", "x1*r[1,0] - r[0,-1]", "r[-2,1] + 2*x2*r[0,1]"],
    ["monopole-mul", "--rank", "2", "--matter", "1,-1;0;-1", "--matter",
     "2,1;1-1/2i", "--matter=-1,1;1/3", "r[1,1] + x2*r[-1,0]",
     "h*r[1,-1] - x1*r[0,2]"],
    # the module side on rank 2: xi with gcd > 1 and with negative entries,
    # negative-charge matter, symbolic and Gaussian gamma0, boxes 2 and 3;
    # qhr prints non-integer line keys, and refuses matter that xi moves
    ["res-support", "--rank", "2", "--matter", "1,0", "--matter=0,-1;1/2",
     "--gamma0", "1/3,sym:sqrt2", "--box", "3", "--xi=2,-1"],
    ["res-support", "--rank", "2", "--matter=-1,0", "--matter", "1,1", "--gamma0",
     "0,0", "--box", "3", "--xi", "1,1"],
    ["res-support", "--rank", "2", "--matter=-1,1", "--matter", "1,0;1/2",
     "--gamma0", "0,1", "--box", "3", "--xi", "2,-1"],
    ["res-support", "--rank", "2", "--matter=-1,1", "--gamma0", "0,sym:sqrt2",
     "--box", "3", "--xi", "2,0"],
    ["res-support", "--rank", "2", "--matter", "1,2;1", "--matter=-2,1",
     "--gamma0", "1,1+1i", "--box", "2", "--xi=-1,1"],
    ["qhr", "--rank", "2", "--matter=-1,1", "--gamma0", "1/2,0", "--box", "3",
     "--xi", "1,1"],
    ["qhr", "--rank", "2", "--matter", "1,2", "--gamma0", "sym:sqrt2,1/3",
     "--box", "3", "--xi=2,-1"],
    ["qhr", "--rank", "2", "--matter", "0,1", "--gamma0", "1+1i,0", "--box", "2",
     "--xi", "2,0"],
    ["qhr", "--rank", "2", "--matter", "1,1", "--gamma0", "0,0", "--box", "3",
     "--xi=-1,1"],
    ["qhr", "--rank", "2", "--matter", "1,0", "--gamma0", "0,0", "--box", "3",
     "--xi", "1,1"],
    ["qhr", "--rank", "2", "--matter", "1,1", "--gamma0", "0,0", "--box", "3",
     "--xi", "0,0"],
    # the restriction suite on two more seeds
    ["suite", "restriction", "--seed", "1"],
    ["suite", "restriction", "--seed", "2"],
    # restriction supports whose chains meet their zero far below the box:
    # the support is decided from the whole chain, whatever the box size
    ["res-support", "--rank", "1", "--matter", "1", "--xi=-1", "--gamma0=-10",
     "--box", "4"],
    ["res-support", "--rank", "1", "--matter", "1", "--xi=-1", "--gamma0=-20",
     "--box", "4"],
    ["res-support", "--rank", "1", "--matter", "1", "--xi=-1", "--gamma0=-5",
     "--box", "4"],
    ["res-support", "--rank", "1", "--matter", "1", "--xi=-1", "--gamma0=-5",
     "--box", "11"],
    # diagrams on a framed Kronecker spec: straight lines with ghost and red
    # crossings under rational, Gaussian and symbolic flavours
    ["render-diagram", "--quiver", "kron21.json", "--bottom",
     "[(alpha,0),(alpha,1),(beta,1)] order=[!w[alpha]0,!w[alpha]1,1,e@1,2,3,e@2,"
     "f@3,!w[beta]0]",
     "--top", "[(alpha,-3),(beta,-1),(alpha,3)] order=[!w[alpha]0,1,e@1,2,f@2,"
     "!w[alpha]1,!w[beta]0,3,e@3]", "--dot", "2@1/3"],
    ["render-diagram", "--quiver", "kron21.json", "--flavour",
     "e=1/2+1i;w[alpha]1=1i", "--bottom", "[(alpha,1i),(alpha,1+1i),(beta,3/2+2i)] order=[!w[alpha]0,"
     "!w[alpha]1,1,e@1,2,e@2,3,!w[beta]0,f@3]",
     "--top", "[(alpha,-3+1i),(beta,-1/2+2i),(alpha,3+1i)] order=[!w[alpha]0,1,e@1,"
     "2,!w[alpha]1,f@2,!w[beta]0,3,e@3]", "--dot", "3@1/2"],
    ["render-diagram", "--quiver", "kron21.json", "--flavour",
     "e=sym:sqrt2;w[alpha]1=sym:sqrt2-1",
     "--bottom", "[(alpha,sym:sqrt2),(alpha,1+sym:sqrt2),(beta,2*sym:sqrt2)] "
     "order=[!w[alpha]0,!w[alpha]1,1,!w[beta]0,2,e@1,3,e@2,f@3]",
     "--top", "[(alpha,-3+sym:sqrt2),(beta,-4+2*sym:sqrt2),(alpha,3+sym:sqrt2)] "
     "order=[!w[alpha]0,1,2,e@1,f@2,!w[alpha]1,!w[beta]0,3,e@3]"],
    ["relcheck", "--quiver", "kron21.json", "--bound", "2"],
    # check-equivalence under a symbolic flavour: two equivalent pairs and
    # one that is not
    ["check-equivalence", "--quiver", "kron21.json", "--flavour",
     "e=sym:sqrt2;f=1-sym:sqrt2",
     "[(alpha,0),(alpha,0),(beta,sym:sqrt2)] order=[!w[alpha]0,!w[alpha]1,1,2,f@3,"
     "e@1,e@2,3,!w[beta]0]",
     "[(alpha,0),(alpha,0),(beta,sym:sqrt2)] order=[!w[alpha]0,!w[alpha]1,1,2,f@3,"
     "e@2,e@1,3,!w[beta]0]"],
    ["check-equivalence", "--quiver", "kron21.json", "--flavour",
     "e=sym:sqrt2;f=1-sym:sqrt2",
     "[(alpha,0),(beta,-1+sym:sqrt2),(alpha,1)] order=[!w[alpha]0,f@2,!w[alpha]1,1,"
     "2,3,e@1,!w[beta]0,e@3]",
     "[(alpha,0),(beta,-1+sym:sqrt2),(alpha,1)] order=[!w[alpha]0,!w[alpha]1,f@2,1,"
     "2,3,e@1,!w[beta]0,e@3]"],
    ["check-equivalence", "--quiver", "kron21.json", "--flavour",
     "e=sym:sqrt2;f=1-sym:sqrt2",
     "[(alpha,0),(alpha,0),(beta,sym:sqrt2)] order=[!w[alpha]0,!w[alpha]1,1,2,f@3,"
     "e@1,e@2,3,!w[beta]0]",
     "[(alpha,0),(beta,-1+sym:sqrt2),(alpha,1)] order=[!w[alpha]0,f@2,!w[alpha]1,1,"
     "2,3,e@1,!w[beta]0,e@3]"],
    # is-unsteady: a red item inside the one suffix that holds a corporeal
    # and all its ghosts; a ghost of an outside corporeal that rules out the
    # shorter suffix; the whole order as the witness on unframed data
    ["is-unsteady", "--quiver", "kron21.json",
     "[(alpha,-4),(alpha,0),(beta,1)] order=[!w[alpha]0,1,e@1,!w[alpha]1,2,e@2,3,"
     "!w[beta]0,f@3]"],
    ["is-unsteady", "--quiver", "kron21.json",
     "[(alpha,0),(alpha,5/2),(beta,3)] order=[!w[alpha]0,!w[alpha]1,1,e@1,"
     "!w[beta]0,2,3,e@2,f@3]"],
    ["is-unsteady", "--quiver", "kron.json", "[(alpha,0),(beta,1/2)] order=[1,2,e@1,f@2]"],
    # check-equivalence: one label in two blocks, each of two strands of
    # equal real longitude; symbolic longitudes with Gaussian ties
    ["check-equivalence", "--quiver", "kron.json",
     "[(alpha,0),(alpha,1i),(beta,1/2),(alpha,1),(alpha,1+1i)] "
     "order=[1,2,3,e@1,e@2,4,5,f@3,e@4,e@5]",
     "[(alpha,-1i),(alpha,0),(beta,1/2+1i),(alpha,1-1i),(alpha,1)] "
     "order=[1,2,3,e@2,e@1,4,5,f@3,e@5,e@4]"],
    ["check-equivalence", "--quiver", "kron.json",
     "[(alpha,sym:sqrt2),(alpha,sym:sqrt2+1i),(beta,2*sym:sqrt2-1)] "
     "order=[1,2,3,e@1,e@2,f@3]",
     "[(alpha,sym:sqrt2-1i),(alpha,sym:sqrt2),(beta,2*sym:sqrt2-1)] "
     "order=[1,2,3,e@2,e@1,f@3]"],
]


def run(argv):
    """(stdout, stderr, exit code) of klrwcb argv, in-process, with spec
    names resolved in this directory and the default shadow precision."""
    from klrwcb.cli import main

    argv = [str(HERE / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("KLRW_SHADOW_PRECISION", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is not None:
            os.environ["KLRW_SHADOW_PRECISION"] = saved
    return out.getvalue(), err.getvalue(), code


def main():
    records = []
    for argv in CASES:
        stdout, stderr, code = run(argv)
        records.append({"argv": argv, "stdout": stdout, "stderr": stderr,
                        "exit": code})
    CORPUS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    print("wrote %d cases to %s" % (len(records), CORPUS))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    main()
