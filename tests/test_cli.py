import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, note, settings, strategies as st

import klrwcb
from klrwcb import suites
from klrwcb.cli import _longitudes, main, make_table, parse_monopole
from klrwcb.coulomb import MonopoleElement
from klrwcb.cover import build_cover, integralize
from klrwcb.poly import Polynomial, RationalFunction
from klrwcb.quiver import (DimensionData, Flavour, dump_quiver_spec,
                           kronecker_quiver, load_quiver_spec)
from klrwcb.scalars import Reader, as_scalar, format_scalar, parse_scalar
from klrwcb.sequences import parse_sequence

KRON = {
    "vertices": ["alpha", "beta"],
    "edges": [{"id": "e", "tail": "beta", "head": "alpha"},
              {"id": "f", "tail": "alpha", "head": "beta"}],
    "v": {"alpha": 1, "beta": 1}, "w": {"alpha": 0, "beta": 0},
    "flavour": {"e": "1", "f": "1"},
}

A2 = {
    "vertices": ["1", "2"],
    "edges": [{"id": "a", "tail": "1", "head": "2"}],
    "v": {"1": 1, "2": 1}, "w": {"1": 1, "2": 1},
    "flavour": {"a": "1"},
}


@pytest.fixture
def kron_file(tmp_path):
    path = tmp_path / "kron.json"
    path.write_text(json.dumps(KRON))
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2))
    return str(path)


def test_parse_poly_and_monopole():
    p = parse_monopole("(2*x1^2 - 1/2*h + 3)*r[0,0]", 2).terms[(0, 0)]
    x1 = Polynomial.variable("x1")
    h = Polynomial.variable("h")
    assert p == RationalFunction.of(
        2 * x1 * x1 - __import__("fractions").Fraction(1, 2) * h + 3)
    el = parse_monopole("x1*r[1,0] - r[-1,0]", 2)
    assert set(el.terms) == {(1, 0), (-1, 0)}
    assert el.terms[(1, 0)] == RationalFunction.of(x1)


def test_enumerate_command(kron_file, capsys):
    assert main(["enumerate-sequences", "--quiver", kron_file,
                 "--gamma", "alpha=0;beta=2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]"


def test_enumerate_table_marks_real_part_ties(kron_file, capsys):
    # equal real parts with different imaginary parts are a tie
    assert main(["enumerate-sequences", "--quiver", kron_file, "--gamma",
                 "alpha=0,sym:sqrt2;beta=1+1i,1", "--table"]) == 0
    regime = capsys.readouterr().out.split("regime: ")[1].split()
    assert regime == ["Re(0)<=Re(1)", "Re(1)=Re(1+1i)", "Re(1+1i)=Re(1)",
                      "Re(1)<=Re(sym:sqrt2)", "Re(sym:sqrt2)<=Re(2+1i)",
                      "Re(2+1i)=Re(2)", "Re(2)<=Re(1+sym:sqrt2)"]
    # ties among symbolic longitudes, ordered by their shadows
    assert main(["enumerate-sequences", "--quiver", kron_file, "--gamma",
                 "alpha=sym:sqrt2,1+sym:sqrt2;beta=sym:sqrt2+1i,1",
                 "--table"]) == 0
    regime = capsys.readouterr().out.split("regime: ")[1].split()
    assert regime == ["Re(1)<=Re(sym:sqrt2)", "Re(sym:sqrt2)=Re(1i+sym:sqrt2)",
                      "Re(1i+sym:sqrt2)<=Re(2)", "Re(2)<=Re(1+sym:sqrt2)",
                      "Re(1+sym:sqrt2)=Re(1+1i+sym:sqrt2)",
                      "Re(1+1i+sym:sqrt2)=Re(1+sym:sqrt2)",
                      "Re(1+sym:sqrt2)<=Re(2+sym:sqrt2)"]


def test_enumerate_output_reads_back(kron_file, capsys):
    # a symbol coefficient other than +-1 is printed as q*sym:NAME
    assert main(["enumerate-sequences", "--quiver", kron_file, "--gamma",
                 "alpha=sym:sqrt2+sym:sqrt2;beta=0"]) == 0
    seq = capsys.readouterr().out.strip()
    assert seq == "[(beta,0),(alpha,2*sym:sqrt2)] order=[1,f@1,2,e@2]"
    assert main(["is-unsteady", "--quiver", kron_file, seq]) == 0
    assert capsys.readouterr().out == "unsteady k=2\n"


def test_enumerate_deterministic(kron_file, capsys):
    main(["enumerate-sequences", "--quiver", kron_file, "--gamma",
          "alpha=0;beta=0", "--format", "json"])
    first = capsys.readouterr().out
    main(["enumerate-sequences", "--quiver", kron_file, "--gamma",
          "alpha=0;beta=0", "--format", "json"])
    assert capsys.readouterr().out == first


def test_flavour_override(kron_file, tmp_path, capsys):
    main(["enumerate-sequences", "--quiver", kron_file, "--flavour", "e=2;f=2",
          "--gamma", "alpha=0;beta=1"])
    out = capsys.readouterr().out.strip()
    assert out == "[(alpha,0),(beta,1)] order=[1,2,e@1,f@2]"
    assert main(["enumerate-sequences", "--quiver", kron_file,
                 "--flavour", "nope=1", "--gamma", "alpha=0;beta=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: flavour override for unknown edge 'nope'\n"
    # a JSON file whose top level is not an object ended in AttributeError
    listed = tmp_path / "flavour.json"
    listed.write_text("[1, 2]")
    assert main(["enumerate-sequences", "--quiver", kron_file,
                 "--flavour", str(listed), "--gamma", "alpha=0;beta=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("klrwcb: error: flavour override file %r is not a "
                            "JSON object\n" % str(listed))


@pytest.mark.parametrize("override", ["e", "e=2;f", "e=2; f "])
def test_flavour_override_entry_without_equals(kron_file, capsys, override):
    # an entry without '=' was unpacked into two names and failed with
    # "not enough values to unpack"
    assert main(["enumerate-sequences", "--quiver", kron_file,
                 "--flavour", override, "--gamma", "alpha=0;beta=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    entry = override.split(";")[-1].strip()
    assert captured.err == ("klrwcb: error: --flavour entry %r is not "
                            "edge=value\n" % entry)


def test_bad_polynomial_literal(capsys):
    # a bad token is reported against the whole monopole literal
    assert main(["monopole-mul", "--rank", "1", "2$x1*r[1]", "r[-1]"]) == 2
    assert capsys.readouterr().err == \
        "klrwcb: error: bad monopole literal near '$x1*r[1]'\n"


@pytest.mark.parametrize("argv, message", [
    (["monopole-mul", "--rank", "1", "1/0*r[1]", "r[0]"],
     "zero denominator in '1/0'"),
    (["monopole-mul", "--rank", "1", "--matter", "1;1/0", "r[1]", "r[0]"],
     "zero denominator in '1/0'"),
    (["monopole-mul", "--rank", "1", "--matter", "1;0;1/0", "r[1]", "r[0]"],
     "zero denominator in '1/0'"),
    (["res-support", "--rank", "1", "--gamma0", "1/0", "--xi", "1"],
     "zero denominator in '1/0'"),
    (["render-diagram", "--quiver", "KRON", "--bottom",
      "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]", "--dot", "1@1/0"],
     "zero denominator in '1/0'"),
])
def test_zero_denominator_literal(kron_file, capsys, argv, message):
    assert main([kron_file if a == "KRON" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: %s\n" % message


def test_parse_poly_power_of_parenthesis():
    x1 = Polynomial.variable("x1")
    assert parse_monopole("(x1+1)^2*r[0]", 1) == \
        MonopoleElement({(0,): x1 * x1 + 2 * x1 + 1})
    h = Polynomial.variable("h")
    assert parse_monopole("-(x1-h)^2*h*r[0]", 1) == \
        MonopoleElement({(0,): -((x1 - h) ** 2) * h})
    with pytest.raises(ValueError, match="truncated monopole literal"):
        parse_monopole("(x1+1)^", 1)


@pytest.mark.parametrize("text, message", [
    ("x1^x2", "exponent 'x2' in polynomial literal 'x1^x2'"),
    ("x1^-1", "exponent '-' in polynomial literal 'x1^-1'"),
    ("2/x1", "denominator 'x1' in polynomial literal '2/x1'"),
    ("(x1+h)^(2)", "exponent '(' in polynomial literal '(x1+h)^(2)'"),
])
def test_bad_exponent_or_denominator_token(text, message, capsys):
    # the reader names the whole monopole literal, e.g. 'x1^x2*r[1,0]'
    literal = text + "*r[1,0]"
    message = message.replace("polynomial literal %r" % text,
                              "monopole literal %r" % literal)
    with pytest.raises(ValueError, match="^%s is not a nonnegative integer$"
                       % re.escape(message)):
        parse_monopole(literal, 2)
    assert main(["monopole-mul", "--rank", "2", literal, "r[0,0]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "klrwcb: error: %s is not a nonnegative integer\n" % message


def test_monopole_coefficient_right_of_r_is_rejected(capsys):
    # r_xi f = f(x + h xi) r_xi, so 'r[1]*x1' is not 'x1*r[1]'
    with pytest.raises(ValueError, match="text after its r"):
        parse_monopole("r[1]*x1", 1)
    assert main(["monopole-mul", "--rank", "1", "r[1]*x1", "r[0]"]) == 2
    assert capsys.readouterr().err == \
        "klrwcb: error: monopole term 'r[1]*x1' has text after its r[..] factor\n"


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_shadow_precision(kron_file, capsys, monkeypatch, value):
    monkeypatch.setenv("KLRW_SHADOW_PRECISION", value)
    assert main(["enumerate-sequences", "--quiver", kron_file,
                 "--gamma", "alpha=0;beta=2"]) == 2
    assert capsys.readouterr().err == (
        "klrwcb: error: KLRW_SHADOW_PRECISION must be a positive integer, "
        "got %r\n" % value)


@pytest.mark.parametrize("gamma, message", [
    ("alpha=sym:t;beta=0", "undeclared symbol 't'"),
    ("alpha=sym:t~1;beta=sym:u~1",
     "shadows tie for sym:t vs sym:u; refine shadow precision"),
])
def test_bad_symbolic_gamma(kron_file, capsys, gamma, message):
    assert main(["enumerate-sequences", "--quiver", kron_file,
                 "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: %s\n" % message


@pytest.mark.parametrize("spec, message", [
    (None, "No such file or directory"),
    ({}, "quiver spec lacks 'vertices'"),
    ({"vertices": ["a"], "edges": [{"id": "t", "tail": "a"}]}, "lacks 'head'"),
    ({"vertices": 5}, "field 'vertices' is not a JSON array"),
    ({"vertices": ["a"], "edges": 3}, "field 'edges' is not a JSON array"),
    ({"vertices": ["a"], "v": 3}, "field 'v' is not a JSON object"),
    ({"vertices": ["a"], "v": {"a": [1]}}, "[1] at 'a' is not an integer"),
    ({"vertices": ["a"], "v": {"a": 1.5}}, "1.5 at 'a' is not an integer"),
    ({"vertices": ["a"], "w": {"a": "2"}}, "'2' at 'a' is not an integer"),
    ({"vertices": [["a"]]}, "vertex or edge name ['a'] is not a string"),
    ({"vertices": ["a"], "edges": [{"id": 1, "tail": "a", "head": "a"}]},
     "vertex or edge name 1 is not a string"),
])
def test_bad_quiver_spec(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(json.dumps(spec))
    assert main(["category-o-graph", "--quiver", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("klrwcb: error: ")
    assert message in captured.err and captured.err.count("\n") == 1


def test_quiver_spec_naming_a_file_is_refused(kron_file, tmp_path, capsys):
    """A --quiver file is read as one JSON value: a string in it is not a
    path to another spec."""
    path = tmp_path / "indirect.json"
    path.write_text(json.dumps(kron_file))
    assert main(["category-o-graph", "--quiver", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: quiver spec is not a JSON object\n"


@pytest.mark.parametrize("gamma, message", [
    ("b=0", "unknown vertex 'b' in 'b=0'"),
    ("a=0;b", "longitude chunk 'b' is not vertex=values"),
])
def test_bad_gamma_vertex(tmp_path, capsys, gamma, message):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"vertices": ["a"]}))
    assert main(["enumerate-sequences", "--quiver", str(path),
                 "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: %s\n" % message


@pytest.mark.parametrize("argv, message", [
    # text between pairs was dropped: each of these exited 0
    (["is-unsteady", "[(alpha,0) junk (beta,2)] order=[1,e@1,2,f@2]"],
     "bad sequence literal '[(alpha,0) junk (beta,2)] order=[1,e@1,2,f@2]': "
     "pair '(alpha,0) junk (beta,2)' is not (label,longitude)"),
    (["is-unsteady", "[(alpha,0)(beta,2)] order=[1,e@1,2,f@2]"],
     "bad sequence literal '[(alpha,0)(beta,2)] order=[1,e@1,2,f@2]': "
     "pair '(alpha,0)(beta,2)' is not (label,longitude)"),
    # empty entries were skipped
    (["is-unsteady", "[(alpha,0),,(beta,2)] order=[1,e@1,2,f@2]"],
     "empty entry in '[(alpha,0),,(beta,2)] order=[1,e@1,2,f@2]'"),
    (["is-unsteady", "[(alpha,0),(beta,2)] order=[1,,e@1,2,f@2]"],
     "empty entry in '[(alpha,0),(beta,2)] order=[1,,e@1,2,f@2]'"),
    (["is-unsteady", "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2,]"],
     "empty entry in '[(alpha,0),(beta,2)] order=[1,e@1,2,f@2,]'"),
    (["enumerate-sequences", "--gamma", "alpha=0,,1;beta=2"],
     "empty entry in 'alpha=0,,1;beta=2'"),
    (["enumerate-sequences", "--gamma", "alpha=0;;beta=2"],
     "empty entry in 'alpha=0;;beta=2'"),
])
def test_malformed_literal_is_named(kron_file, capsys, argv, message):
    assert main(argv[:1] + ["--quiver", kron_file] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: %s\n" % message


def test_parenthesised_longitude_is_a_scalar(kron_file, capsys):
    assert main(["is-unsteady", "--quiver", kron_file,
                 "[(alpha,(0)),(beta,2)] order=[1,e@1,2,f@2]"]) == 0
    assert capsys.readouterr().out == "unsteady k=2\n"


@pytest.mark.parametrize("argv, message", [
    # the last value was kept
    (["enumerate-sequences", "--quiver", "KRON", "--gamma", "alpha=0;alpha=1;beta=2"],
     "repeated vertex 'alpha' in 'alpha=1'"),
    (["reduce-integral", "--quiver", "KRON", "--orbit", "alpha=1/3;alpha=0;beta=0"],
     "repeated vertex 'alpha' in 'alpha=0'"),
    (["satake", "--quiver", "A2", "--w", "1=1,1=2"],
     "repeated vertex '1' in --w entry '1=2'"),
    (["satake", "--quiver", "A2", "--w", "1=1", "--vmax", "1=2,2=2,1=1"],
     "repeated vertex '1' in --vmax entry '1=1'"),
    (["enumerate-sequences", "--quiver", "KRON", "--flavour", "e=1;e=2",
      "--gamma", "alpha=0;beta=2"], "repeated edge 'e' in --flavour entry 'e=2'"),
])
def test_repeated_key_is_an_error(kron_file, a2_file, capsys, argv, message):
    files = {"KRON": kron_file, "A2": a2_file}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: %s\n" % message


def test_cover_sequence_reads_back(tmp_path, capsys):
    """Cover vertex names (v,[c]), lifted edge ids e|[c] and new-edge ids
    w[v]k are names: the sequences enumerate-sequences prints on a cover
    read back (they failed with a bad scalar literal)."""
    spec = dict(KRON, w={"alpha": 1, "beta": 0},
                flavour={"e": "1", "f": "1", "w[alpha]0": "1/3"})
    path, cover = tmp_path / "kronw.json", tmp_path / "cover.json"
    path.write_text(json.dumps(spec))
    assert main(["reduce-integral", "--quiver", str(path), "--orbit",
                 "alpha=1/3;beta=4/3", "--format", "json"]) == 0
    cover.write_text(capsys.readouterr().out)
    assert main(["enumerate-sequences", "--quiver", str(cover), "--gamma",
                 "(alpha,[1/3])=1/3;(beta,[1/3])=4/3"]) == 0
    seq = capsys.readouterr().out.strip()
    assert seq == ("[((alpha,[1/3]),1/3),((beta,[1/3]),4/3)] "
                   "order=[!w[(alpha,[1/3])]0,1,e|[1/3]@1,2,f|[1/3]@2]")
    assert main(["is-unsteady", "--quiver", str(cover), seq]) == 0
    assert capsys.readouterr().out == "unsteady k=2\n"
    assert main(["check-equivalence", "--quiver", str(cover), seq, seq]) == 0
    assert capsys.readouterr().out == "equivalent via sigma = {1: 1, 2: 2}\n"


@pytest.mark.parametrize("flag", ["--quiver", "--flavour"])
def test_file_that_is_not_json(kron_file, tmp_path, capsys, flag):
    # the message was json's alone: "Expecting value: line 1 column 1 (char 0)"
    path = str(tmp_path / "notes.txt")
    with open(path, "w") as fh:
        fh.write("e=1;f=1\n")
    args = dict({"--quiver": kron_file, "--flavour": "e=1"}, **{flag: path})
    assert main(["enumerate-sequences", "--gamma", "alpha=0;beta=2"]
                + [a for pair in args.items() for a in pair]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("klrwcb: error: %s file %r is not JSON: Expecting value: "
                            "line 1 column 1 (char 0)\n" % (flag, path))


def test_equivalence_command(kron_file, capsys):
    rc = main(["check-equivalence", "--quiver", kron_file,
               "[(alpha,0),(beta,0)] order=[1,2,f@2,e@1]",
               "[(beta,0),(alpha,0)] order=[1,2,e@2,f@1]"])
    assert rc == 0
    rc = main(["check-equivalence", "--quiver", kron_file,
               "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]",
               "[(alpha,0),(beta,1/2)] order=[1,2,e@1,f@2]"])
    assert rc == 1


_TIED_HALF = ("[(beta,-1/2)%s] order=[1,2,3,4,5,6,7,8,9,f@1,%s]"
              % (",(alpha,0)" * 8, ",".join("e@%d" % k for k in range(2, 10))))
_TIED_ONE = ("[(beta,-1)%s] order=[1,f@1,2,3,4,5,6,7,8,9,%s]"
             % (",(alpha,0)" * 8, ",".join("e@%d" % k for k in range(2, 10))))
_IN_ORDER = "equivalent via sigma = {%s, 1: 1}\n" % ", ".join(
    "%d: %d" % (k, k) for k in range(2, 10))


@pytest.mark.parametrize("first, second, out, code", [
    (_TIED_HALF, _TIED_ONE, "not equivalent\n", 1),
    (_TIED_HALF, _TIED_HALF, _IN_ORDER, 0),
    (_TIED_ONE, _TIED_ONE, _IN_ORDER, 0),
])
def test_equivalence_command_on_eight_tied_strands(tmp_path, capsys, first, second,
                                                   out, code):
    # 8 alpha strands at 0 and one beta strand, unframed: the alpha block
    # alone has 8! maps, too many to try one by one
    spec = dump_quiver_spec(
        kronecker_quiver(),
        DimensionData({"alpha": 8, "beta": 1}, {"alpha": 0, "beta": 0}),
        Flavour({"e": as_scalar(1), "f": as_scalar(1)}))
    path = tmp_path / "kron81.json"
    path.write_text(json.dumps(spec))
    assert main(["check-equivalence", "--quiver", str(path), first, second]) == code
    assert capsys.readouterr().out == out


def test_unsteady_command(kron_file, capsys):
    main(["is-unsteady", "--quiver", kron_file,
          "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]"])
    assert "unsteady k=2" in capsys.readouterr().out


_VALID = "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]"
_INVALID = "[(alpha,0),(beta,2)] order=[1,2,e@1,f@2]"
_VIOLATIONS = "['rule (i): 2 at 2 precedes e@1 at 1']"


@pytest.mark.parametrize("argv, what", [
    (["check-equivalence", _INVALID, _VALID], "first sequence"),
    (["check-equivalence", _VALID, _INVALID], "second sequence"),
    (["is-unsteady", _INVALID], "sequence"),
    (["render-diagram", "--bottom", _INVALID], "bottom sequence"),
    (["render-diagram", "--bottom", _VALID, "--top", _INVALID], "top sequence"),
    (["is-unsteady", "[(alpha,0),(beta)] order=[1]"],
     "bad sequence literal '[(alpha,0),(beta)] order=[1]': pair '(beta)' is "
     "not (label,longitude)"),
    (["is-unsteady", "[(alpha,0)] order=[a]"],
     "bad sequence literal '[(alpha,0)] order=[a]': order token 'a' is not "
     "k, e@k or !e"),
    (["check-equivalence", _VALID, "[(alpha,0)] order=[1,e@1@2]"],
     "bad sequence literal '[(alpha,0)] order=[1,e@1@2]': order token "
     "'e@1@2' is not k, e@k or !e"),
])
def test_invalid_sequence_is_an_error(kron_file, capsys, argv, what):
    """A sequence that fails validation is named with its violations; a
    malformed literal is named with its bad pair or order token."""
    assert main(argv[:1] + ["--quiver", kron_file] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if not what.startswith("bad sequence literal"):
        what = "%s invalid: %s" % (what, _VIOLATIONS)
    assert captured.err == "klrwcb: error: %s\n" % what


def test_monopole_mul_command(capsys):
    main(["monopole-mul", "--rank", "1", "--matter", "1",
          "r[-1]", "r[1]"])
    assert capsys.readouterr().out.strip() == "(x1-h)*r[0]"
    # a decimal coefficient reads as in every other literal
    assert main(["monopole-mul", "--rank", "1", "0.5*r[1]", "r[0]"]) == 0
    assert capsys.readouterr().out == "(1/2)*r[1]\n"
    # the zero element prints as 0, which reads back; only a term of value
    # zero may lack its r[..] factor
    assert main(["monopole-mul", "--rank", "1", "0*r[1]", "r[0]"]) == 0
    zero = capsys.readouterr().out.strip()
    assert zero == "0"
    assert main(["monopole-mul", "--rank", "1", zero, "r[0]"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["monopole-mul", "--rank", "1", "0*x1 + x1*r[1]", "r[0]"]) == 0
    assert capsys.readouterr().out == "(x1)*r[1]\n"
    assert main(["monopole-mul", "--rank", "1", "x1", "r[0]"]) == 2
    assert capsys.readouterr().err == \
        "klrwcb: error: monopole term 'x1' lacks an r[..] factor\n"


def test_reduce_integral_command(tmp_path, capsys):
    spec = {
        "vertices": ["alpha", "beta"],
        "edges": [{"id": "e", "tail": "beta", "head": "alpha"},
                  {"id": "f", "tail": "alpha", "head": "beta"}],
        "v": {"alpha": 5, "beta": 6}, "w": {"alpha": 2, "beta": 1},
        "flavour": {"e": "1/3", "f": "0", "w[alpha]0": "0",
                    "w[alpha]1": "sym:sqrt2~1.41421", "w[beta]0": "1/2"},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    rc = main(["reduce-integral", "--quiver", str(path), "--orbit",
               "alpha=0,1/3,1/2,2/3,2/3;beta=0,1/6,1/3,1/3,1/2,2/3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(alpha,[2/3])            v=2" in out
    assert "sqrt2" not in out.split("integralized")[1]

    orbit = "alpha=0,1/3,1/2,2/3,2/3;beta=0,1/6,1/3,1/3,1/2,2/3"
    assert main(["reduce-integral", "--quiver", str(path), "--orbit", orbit,
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    # reference: the spec written field by field with str() names
    table = make_table()
    quiver, dims, completed, flavour, table = load_quiver_spec(
        json.loads(path.read_text()), table)
    cover = build_cover(quiver, dims, completed, flavour,
                        _longitudes(orbit, "--orbit", table, quiver), table)
    _, phi_prime = integralize(cover)
    ref = {
        "vertices": [str(v) for v in cover.quiver.vertices],
        "edges": [{"id": e.id, "tail": str(e.tail), "head": str(e.head)}
                  for e in cover.quiver.edges],
        "v": {str(k): v for k, v in cover.dims.v.items()},
        "w": {str(k): v for k, v in cover.dims.w.items()},
        "flavour": {eid: format_scalar(c) for eid, c in phi_prime.values.items()},
    }
    assert out == json.dumps(ref, indent=2) + "\n"
    assert load_quiver_spec(json.loads(out))[0].vertices == ref["vertices"]


def test_category_o_command(tmp_path, capsys):
    spec = {"vertices": ["x"], "edges": [{"id": "t", "tail": "x", "head": "x"}],
            "v": {"x": 1}, "w": {"x": 1},
            "flavour": {"t": "1/2", "w[x]0": "0"}}
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(spec))
    assert main(["category-o-graph", "--quiver", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(x,[0])" in out and "(x,[1/2])" in out


def test_relcheck_command(a2_file, capsys):
    rc = main(["relcheck", "--quiver", a2_file, "--bound", "2",
               "--random", "2"])
    assert rc == 0
    assert "overall: pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["relcheck", "--quiver", "A2", "--bound", "-1", "--random", "-1"],
     "degree bound must be nonnegative, got -1"),
    (["relcheck", "--quiver", "A2", "--bound", "2", "--random", "-1"],
     "random count must be nonnegative, got -1"),
    (["suite", "relations", "--bound", "-2"],
     "degree bound must be nonnegative, got -2"),
    # a non-integral flavour printed its message on stdout
    (["relcheck", "--quiver", "A2", "--flavour", "a=1/2"],
     "relcheck needs an integral flavour"),
])
def test_negative_relation_family_is_rejected(a2_file, capsys, argv, message):
    # an empty test family would pass every relation
    assert main([a2_file if a == "A2" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: %s\n" % message


_MODULE = ["--matter", "1", "--gamma0", "0", "--box", "3"]


@pytest.mark.parametrize("argv, message", [
    # a coweight longer than the rank raised IndexError or, for qhr, gave
    # weights and "agreement: True"; a shorter one was cut by zip
    (["res-support", "--rank", "1"] + _MODULE + ["--xi", "1,2"],
     "coweight (1, 2) has wrong rank: the module has rank 1"),
    (["qhr", "--rank", "1", "--matter", "0", "--gamma0", "0", "--box", "3",
      "--xi", "1,2"],
     "coweight (1, 2) has wrong rank: the module has rank 1"),
    (["res-support", "--rank", "2", "--matter", "1,0", "--gamma0", "0,0",
      "--xi", "1"],
     "coweight (1,) has wrong rank: the module has rank 2"),
    (["qhr", "--rank", "2", "--matter", "1,-1", "--gamma0", "0,0",
      "--xi", "1"],
     "coweight (1,) has wrong rank: the module has rank 2"),
    # a negative box is an empty module, so every check passed vacuously
    (["res-support", "--rank", "1", "--matter", "1", "--gamma0", "0",
      "--box", "-1", "--xi", "1"], "--box -1 is negative"),
    (["qhr", "--rank", "1", "--matter", "0", "--gamma0", "0", "--box", "-3",
      "--xi", "1"], "--box -3 is negative"),
    (["monopole-mul", "--rank", "-1", "r[]", "r[]"], "torus rank -1 is negative"),
    (["res-support", "--rank", "-1", "--gamma0", "0", "--xi", "1"],
     "torus rank -1 is negative"),
    (["qhr", "--rank", "-2", "--gamma0", "0", "--xi", "1"],
     "torus rank -2 is negative"),
    # a box of size 0 passed vacuously too (empty table, "agreement: True")
    (["qhr", "--rank", "1", "--matter", "0", "--gamma0", "0", "--box", "0",
      "--xi", "1"], "--box 0 is empty"),
    # a fourth field was dropped without a word
    (["monopole-mul", "--rank", "1", "--matter", "1;0;0;junk", "r[1]", "r[-1]"],
     "matter spec '1;0;0;junk' has more than three ';' fields"),
    # a zero coweight ended in ZeroDivisionError for qhr
    (["qhr", "--rank", "1", "--matter=-1;1/2+1i;0", "--gamma0=1/3", "--box", "3",
      "--xi=0"], "xi must be a nonzero coweight"),
    (["res-support", "--rank", "1", "--matter=-1;1/2+1i;0", "--gamma0=1/3",
      "--box", "3", "--xi=0"], "xi must be a nonzero coweight"),
    # a space inside a number was deleted: '1 2' read as 12
    (["res-support", "--rank", "1", "--gamma0", "1 2", "--box", "2", "--xi", "1"],
     "trailing junk in scalar literal"),
    # the module refuses a gamma0 of the wrong length when it is made
    (["res-support", "--rank", "2", "--matter", "1,0", "--gamma0", "1/2",
      "--xi", "1,0"], "gamma0 (Fraction(1, 2),) has wrong rank: the theory has rank 2"),
])
def test_bad_module_command_input(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: %s\n" % message


def test_satake_command(a2_file, capsys):
    rc = main(["satake", "--quiver", a2_file, "--w", "1=1,2=1",
               "--vmax", "1=2,2=2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total: 8  (dim V(lambda) = 8)" in out


@pytest.mark.parametrize("flags, message", [
    (["--w", "1=1,7=3"], "unknown vertex '7' in --w entry '7=3'"),
    (["--w", "1=1", "--vmax", "9=1"], "unknown vertex '9' in --vmax entry '9=1'"),
    (["--w", "1=1,2"], "--w entry '2' is not vertex=count"),
    (["--w", "1=x"], "count 'x' in --w entry '1=x' is not a nonnegative integer"),
    (["--w", "1=1", "--vmax", "1=2,2=-1"],
     "count '-1' in --vmax entry '2=-1' is not a nonnegative integer"),
])
def test_bad_satake_input(a2_file, capsys, flags, message):
    assert main(["satake", "--quiver", a2_file] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: %s\n" % message


def test_bad_intvec_entry(capsys):
    assert main(["res-support", "--rank", "2", "--gamma0", "0,0",
                 "--xi", "1,a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: bad integer 'a' in '1,a'\n"


@pytest.mark.parametrize("argv, literal", [
    (["res-support", "--rank", "2", "--gamma0", "0,0", "--xi", "1,,"], "1,,"),
    (["res-support", "--rank", "2", "--gamma0", "0,0", "--xi", ",1,0"], ",1,0"),
    (["monopole-mul", "--rank", "2", "r[1,,0]", "r[0,0]"], "1,,0"),
    (["monopole-mul", "--rank", "2", "r[0,0]", "r[1, ,0]"], "1, ,0"),
])
def test_empty_intvec_entry(capsys, argv, literal):
    # empty entries were skipped: r[1,,0] read as r[1,0] and exited 0
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: empty entry in %r\n" % literal


def test_monopole_mul_complex_shift(capsys):
    assert main(["monopole-mul", "--rank", "1", "--matter", "1;1/2+1i",
                 "r[1]", "r[-1]"]) == 0
    assert capsys.readouterr().out.strip() == "(x1+1/2+1i)*r[0]"


def test_monopole_mul_parenthesizes_complex_coefficients(capsys):
    assert main(["monopole-mul", "--rank", "2", "--matter", "1,0;1/2+1i",
                 "--matter", "0,1;-1/3i", "--matter", "1,-1;2",
                 "3*x1*r[1,2]+r[-1,0]", "x2*r[-2,1]+h*r[1,-1]"]) == 0
    assert capsys.readouterr().out.strip() == (
        "(x2)*r[-3, 1] + (3*x1^2*x2+6*h*x1^2+(3/2+3i)*x1*x2+(3+6i)*h*x1)*r[-1, 3]"
        " + (-h*x1*x2+h^2*x2+h*x1^2-2*h^2*x1+h^3+(-1/2-1i)*h*x2+(5/2+1i)*h*x1"
        "+(-5/2-1i)*h^2+(1+2i)*h)*r[0, -1] + (-3*h*x1*x2^2+3*h*x1^2*x2"
        "-6*h^2*x1*x2+3*h^2*x1^2-3*h^3*x1+(6+1i)*h*x1*x2-1i*h*x1^2"
        "+(6+1i)*h^2*x1-2i*h*x1)*r[2, 1]")


def test_satake_off_finite_type(kron_file, capsys):
    # the Kronecker quiver is affine: no Weyl dimension, but a table; the
    # second box reaches past lam - delta, where weights differ by
    # imaginary roots
    for vmax, total in (("alpha=1,beta=0", 2), ("alpha=3,beta=3", 13)):
        rc = main(["satake", "--quiver", kron_file, "--w", "alpha=1,beta=0",
                   "--vmax", vmax])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("total:")] == \
            ["total: %d" % total]


def test_res_support_and_qhr_commands(capsys):
    assert main(["res-support", "--rank", "1", "--matter", "1",
                 "--gamma0", "1/2", "--box", "4", "--xi", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("1")
    assert main(["qhr", "--rank", "1", "--gamma0", "0", "--box", "3",
                 "--xi", "1"]) == 0
    assert "agreement: True" in capsys.readouterr().out


_NEGATIVE_VALUES = [
    (["monopole-mul", "--rank", "2", "--matter", "1,1", "--matter", "-1,2",
      "r[1,0]", "r[0,1]"], "--matter", "(2*x2-x1-h)*r[1, 1]\n"),
    (["res-support", "--rank", "1", "--matter", "1", "--gamma0", "-1/2",
      "--box", "4", "--xi", "1"], "--gamma0",
     "coset representative -> limit dimension\n  0                        1\n"),
    (["res-support", "--rank", "2", "--matter", "1,0", "--matter", "0,1",
      "--gamma0", "1/2,1/3", "--box", "2", "--xi", "-1,0"], "--xi",
     "coset representative -> limit dimension\n"
     "  0,0                      1\n  0,1                      1\n"),
]


def _joined(argv, option):
    """argv with every value of option that starts with '-' joined to it
    by '='."""
    out = []
    for arg in argv:
        if out and out[-1] == option and arg.startswith("-"):
            out[-1] = "%s=%s" % (option, arg)
        else:
            out.append(arg)
    return out


@pytest.mark.parametrize("argv,option,printed", _NEGATIVE_VALUES,
                         ids=[case[1] for case in _NEGATIVE_VALUES])
def test_value_with_a_leading_minus_needs_the_equals_form(argv, option,
                                                          printed):
    """argparse reads a separate '-1,2' as an option: the spaced form is a
    usage error (one line, exit 2, no traceback), and the '=' form the
    README and --help name prints the product or the support."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(klrwcb.__file__)))
    spaced = subprocess.run([sys.executable, "-m", "klrwcb.cli"] + argv,
                            capture_output=True, text=True, env=env,
                            timeout=60)
    assert spaced.returncode == 2 and spaced.stdout == ""
    assert spaced.stderr == \
        "klrwcb: error: argument %s: expected one argument\n" % option
    joined = _joined(argv, option)
    assert joined != argv
    joined_run = subprocess.run([sys.executable, "-m", "klrwcb.cli"] + joined,
                                capture_output=True, text=True, env=env,
                                timeout=60)
    assert (joined_run.returncode, joined_run.stdout, joined_run.stderr) == \
        (0, printed, "")


def test_help_names_the_equals_form(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")     # one help line per option
    for command, options in (("monopole-mul", ["--matter"]),
                             ("res-support", ["--matter", "--gamma0", "--xi"]),
                             ("qhr", ["--matter", "--gamma0", "--xi"])):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for option in options:
            assert "needs the '=' form: %s=-" % option in text, (command,
                                                                 option)


def test_render_command(kron_file, tmp_path, capsys):
    out_file = tmp_path / "d.svg"
    rc = main(["render-diagram", "--quiver", kron_file,
               "--bottom", "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]",
               "--dot", "1@1/3", "-o", str(out_file)])
    assert rc == 0
    svg = out_file.read_text()
    assert svg.startswith("<?xml")
    assert "stroke-dasharray" in svg     # a ghost strand
    assert "circle" in svg               # the dot
    # byte stability
    rc = main(["render-diagram", "--quiver", kron_file,
               "--bottom", "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]",
               "--dot", "1@1/3", "-o", str(tmp_path / "d2.svg")])
    assert (tmp_path / "d2.svg").read_text() == svg


def test_render_strand_count(tmp_path, capsys):
    spec = {
        "vertices": ["alpha", "beta"],
        "edges": [{"id": "e", "tail": "beta", "head": "alpha"},
                  {"id": "f", "tail": "alpha", "head": "beta"}],
        "v": {"alpha": 2, "beta": 1}, "w": {"alpha": 2, "beta": 1},
        "flavour": {"e": "1", "f": "1", "w[alpha]0": "-4", "w[alpha]1": "0",
                    "w[beta]0": "2"},
    }
    path = tmp_path / "kron2.json"
    path.write_text(json.dumps(spec))
    rc = main(["render-diagram", "--quiver", str(path),
               "--bottom",
               "[(alpha,-6),(alpha,-1),(beta,0)] "
               "order=[1,e@1,!w[alpha]0,2,!w[alpha]1,e@2,3,f@3,!w[beta]0]",
               "--dot", "2@1/2", "-o", str(tmp_path / "k.svg")])
    assert rc == 0
    svg = (tmp_path / "k.svg").read_text()
    assert svg.count("<path") == 9       # n + |G| + |R| strands
    assert svg.count("<circle") == 1


@pytest.mark.parametrize("dot, message", [
    ("3@1/2", "no strand 3: the diagram has strands 1..1"),
    ("0@1/2", "no strand 0: the diagram has strands 1..1"),
    ("x", "--dot 'x' is not strand@height"),
    ("1@1/2@3", "--dot '1@1/2@3' is not strand@height"),
    ("1@abc", "bad --dot term 'abc' in '1@abc'"),
])
def test_render_rejects_a_bad_dot(tmp_path, capsys, dot, message):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({"vertices": ["x"], "edges": [],
                                "v": {"x": 1}, "w": {"x": 0}, "flavour": {}}))
    assert main(["render-diagram", "--quiver", str(path), "--bottom",
                 "[(x,0)] order=[1]", "--dot", dot]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "klrwcb: error: %s\n" % message


def test_suite_command(capsys):
    assert main(["suite", "satake"]) == 0
    assert "ok=True" in capsys.readouterr().out


@pytest.mark.parametrize("name, out", [
    ("monopole", "rxi=50 assoc=200 inverse=50 hom=100 ok=True\n"
                 "elprime instances=20 ok=True\n"),
    ("restriction", "restriction instances=50 ok=True\nqhr instances=50 ok=True\n"),
])
def test_suite_counts(capsys, name, out):
    assert main(["suite", name]) == 0
    assert capsys.readouterr().out == out


def test_failing_suite_prints_witnesses(capsys, monkeypatch):
    """A failing suite prints its first five witnesses and exits 1."""
    monkeypatch.setattr(suites, "transition_invertible", lambda *args: False)
    assert main(["suite", "restriction"]) == 1
    assert capsys.readouterr().out == (
        "restriction instances=50 ok=False\nqhr instances=50 ok=True\n"
        + "".join("witness: ('xineg1', 0, %s, (-1, 0), 0)\n" % (nu,)
                  for nu in ((0, 1), (1, 2), (2, 1), (0, 0), (1, 1))))


@pytest.mark.parametrize("w, dim", [("1=1,2=1", 8), ("1=2", 6)])
def test_satake_vmax_defaults_to_the_total_framing(a2_file, capsys, w, dim):
    """Without --vmax every vertex is bounded by the sum of the --w counts,
    here 2."""
    assert main(["satake", "--quiver", a2_file, "--w", w]) == 0
    out = capsys.readouterr().out
    assert main(["satake", "--quiver", a2_file, "--w", w, "--vmax", "1=2,2=2"]) == 0
    assert capsys.readouterr().out == out
    assert "(dim V(lambda) = %d)" % dim in out and "  (2, 2)" in out


def test_render_title_is_escaped(kron_file, capsys):
    assert main(["render-diagram", "--quiver", kron_file, "--bottom", _SEQ,
                 "--title", 'a<b & "c">d']) == 0
    svg = capsys.readouterr().out
    assert '<text x="40" y="16" font-size="12" font-family="serif">' \
        'a&lt;b &amp; &quot;c&quot;&gt;d</text>' in svg
    assert svg.count("a&lt;b") == 1 and "a<b" not in svg


@pytest.mark.parametrize("unbuffered", ["1", ""],
                         ids=["unbuffered", "buffered"])
def test_closed_pipe_is_a_quiet_exit(a2_file, unbuffered):
    """A reader that closes stdout after one line (``| head -1``) ends the
    command with exit 1 and nothing on stderr.  The output (about 115 kB)
    outgrows a pipe's buffer, so a write meets the closed pipe whether
    stdout is buffered or not."""
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.path.dirname(os.path.dirname(klrwcb.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "klrwcb.cli", "satake", "--quiver", a2_file,
         "--w", "1=20,2=20"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"v -> dim V(lambda)") and err == b""


# -- fuzzing: one argument of a valid invocation at a time -------------------

_SEQ = "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2]"

# The README's invocation of every subcommand, kept cheap: a large --box,
# --w or --bound is valid input that costs exponential time.
_FUZZ_BASES = [
    ["enumerate-sequences", "--quiver", "KRON", "--flavour", "e=1;f=1",
     "--gamma", "alpha=0;beta=2", "--table"],
    ["check-equivalence", "--quiver", "KRON", _SEQ, _SEQ],
    ["is-unsteady", "--quiver", "KRON", _SEQ],
    ["reduce-integral", "--quiver", "KRON", "--orbit", "alpha=0;beta=1/2"],
    ["category-o-graph", "--quiver", "KRON"],
    ["monopole-mul", "--rank", "1", "--matter", "1;1/2;0", "r[-1]", "r[1]"],
    ["res-support", "--rank", "1", "--matter", "1", "--gamma0", "1/2",
     "--box", "4", "--xi", "1"],
    ["qhr", "--rank", "1", "--gamma0", "0", "--box", "3", "--xi", "1"],
    ["relcheck", "--quiver", "A2", "--bound", "1", "--random", "1", "--seed", "0"],
    ["satake", "--quiver", "A2", "--w", "1=1,2=1", "--vmax", "1=2,2=2"],
    ["render-diagram", "--quiver", "KRON", "--bottom", _SEQ, "--dot", "1@1/3"],
    ["suite", "relations", "--bound", "0"],
]

_FUZZ_VALUES = [
    # zero and negative numbers, wrong-length vectors, zero coweights
    "0", "-1", "-7", "1,2,3", "0,0", "r[0]", "r[1,1]", "r[]", "1=0,2=0",
    # malformed literals
    "1 2", "0. 5", "+", "-", "1+", "*", "2*", "*2", "(1", "1)", "sym:",
    "sym:~1", "1/0", "x1^", "2^-1", "r[", "r[a]", "1@", "@1", "1@1@1", "e@",
    "alpha=", "alpha=0;beta", "=1", "1=", "1;x", "1;0;i",
    "[(alpha,x)] order=[1]", "[(alpha,0),(beta,2)] order=[1,e@9,2,f@2]",
    # empty lists
    "", ",", ";", "[] order=[]",
    # text that was dropped, empty entries, repeated keys
    "[(alpha,0) junk (beta,2)] order=[1,e@1,2,f@2]",
    "[(alpha,0)(beta,2)] order=[1,e@1,2,f@2]",
    "[(alpha,0),,(beta,2)] order=[1,e@1,2,f@2]",
    "[(alpha,(0)),(beta,2)] order=[1,e@1,2,f@2]",
    "[(alpha,0),(beta,2)] order=[1,,e@1,2,f@2]",
    "[(alpha,0),(beta,2)] order=[1,e@1,2,f@2,]",
    "alpha=0,,1;beta=2", "alpha=0;;beta=2", "alpha=0;alpha=1;beta=2", "1=1,1=2",
    "e=1;e=2",
]

# JSON of the wrong type, given where a quiver or flavour file goes
_FUZZ_FILES = {
    "list": [1, 2], "string": "x", "null": None,
    "vertices": {"vertices": "ab"},
    "edges": {"vertices": ["alpha"], "edges": [5]},
    "flavour": {"vertices": ["alpha", "beta"], "flavour": [1]},
    "value": {"vertices": ["a"], "v": {"a": 1}, "w": {"a": 1},
              "flavour": {"w[a]0": [1]}},
    "counts": {"vertices": ["a"], "v": {"a": -1}, "w": {"a": -2}},
    "override": {"e": [1], "f": None},
}


def _fuzz_edits(value):
    """Mutations of one argument: a space inside a number, a stray sign,
    '*' without an operand, unbalanced parentheses, a nameless symbol, a
    longer vector, every 1 made 0."""
    return [value + " 1", value + "+", value + "*", "(" + value, value + ")",
            value + "+sym:", value + ",0", value.replace("1", "0")]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, data in dict(_FUZZ_FILES, KRON=KRON, A2=A2).items():
        paths[name] = str(root / ("%s.json" % name))
        with open(paths[name], "w") as fh:
            json.dump(data, fh)
    return paths


@settings(max_examples=400)
@given(data=st.data())
def test_mutated_invocation_is_a_result_or_one_error_line(fuzz_paths, data):
    """Every subcommand, with one argument replaced, exits 0, 1 or 2
    without an uncaught exception; exit 2 prints exactly one
    ``klrwcb: error:`` line and nothing on stdout."""
    argv = [fuzz_paths.get(a, a) for a in data.draw(st.sampled_from(_FUZZ_BASES))]
    k = data.draw(st.sampled_from([i for i, a in enumerate(argv)
                                   if i and not a.startswith("--")]))
    files = [p for name, p in fuzz_paths.items() if name not in ("KRON", "A2")]
    argv[k] = data.draw(st.sampled_from(_FUZZ_VALUES + files
                                        + _fuzz_edits(argv[k])))
    note(repr(argv))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("klrwcb: error: ")
        assert err.getvalue().count("\n") == 1


# -- no silent drop: what a reader accepts is all of it, and reads back --------

_COVER_SEQ = ("[((alpha,[1/3]),1/3),((beta,[1/3]),4/3)] "
              "order=[!w[(alpha,[1/3])]0,1,e|[1/3]@1,2,f|[1/3]@2]")

# each literal reader with the writer of its values
_ROUND_TRIPS = {
    "sequence": (parse_sequence, lambda s: s.describe()),
    "scalar": (parse_scalar, format_scalar),
    "rank-1 monopole": (lambda text, table: parse_monopole(text, 1), repr),
    "rank-2 monopole": (lambda text, table: parse_monopole(text, 2), repr),
}


@contextlib.contextmanager
def _reading():
    """The list of the Readers made inside the block; each keeps in
    ``covered`` the places of its text that the lexemes it took span."""
    made, saved = [], {n: getattr(Reader, n) for n in ("__init__", "take", "accept", "word")}

    def init(self, *args, **kwargs):
        saved["__init__"](self, *args, **kwargs)
        self.covered = set()
        made.append(self)

    def lexeme(name):
        def read(self, *args):
            start = self.pos
            out = saved[name](self, *args)
            self.covered.update(range(start, self.pos))
            return out
        return read

    Reader.__init__ = init
    for name in ("take", "accept", "word"):
        setattr(Reader, name, lexeme(name))
    try:
        yield made
    finally:
        for name, method in saved.items():
            setattr(Reader, name, method)


def test_accepted_literal_is_read_whole_and_reads_back():
    """Every argument of the fuzz test's invocations and every mutation it
    makes of one, given to every literal reader: when a reader accepts it,
    a lexeme it took covers each character of it but spaces, and the value
    written out reads back as the same value."""
    bases = {a for argv in _FUZZ_BASES for a in argv[1:] if not a.startswith("-")}
    bases.add(_COVER_SEQ)
    texts = set(_FUZZ_VALUES).union(bases, *map(_fuzz_edits, bases))
    table = make_table()
    accepted = dict.fromkeys(_ROUND_TRIPS, 0)
    for text in sorted(texts):
        for kind, (read, write) in _ROUND_TRIPS.items():
            with _reading() as made:
                try:
                    value = read(text, table)
                except ValueError:
                    continue
            assert made and all(i in r.covered or c.isspace()
                                for r in made for i, c in enumerate(r.text)), (kind, text)
            assert read(write(value), table) == value, (kind, text)
            accepted[kind] += 1
    assert all(accepted.values()), accepted
    # the zero element is written 0, which reads back
    for kind in ("rank-1 monopole", "rank-2 monopole"):
        read, write = _ROUND_TRIPS[kind]
        assert read(write(MonopoleElement({})), table) == MonopoleElement({})
