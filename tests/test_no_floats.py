"""No floats in the core: the exact modules hold no float literal and call
no float().  render.py (SVG coordinates) and suites.py (sampling
probabilities) are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "klrwcb"
CORE = ["scalars", "poly", "coulomb", "diagrams", "relations", "sequences",
        "cover", "kacmoody", "quiver", "cli"]


def _float_uses(source):
    """(line, text) of every float or complex literal and float() call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append((node.lineno, "float(...)"))
    return found


def test_float_check_sees_floats():
    assert _float_uses("a = 1.5\nb = float(2)\nc = 2j\nd = 3 // 2\n") == \
        [(1, "1.5"), (2, "float(...)"), (3, "2j")]


@pytest.mark.parametrize("module", CORE)
def test_no_floats_in_core(module):
    assert _float_uses((SRC / (module + ".py")).read_text()) == []
