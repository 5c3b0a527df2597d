"""No floats in the core: every module of the package holds no float
literal and calls no float().  render.py (SVG coordinates), suites.py
(sampling probabilities) and __init__.py are exempt; a new module is
checked without being listed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "klrwcb"
EXEMPT = {"render", "suites", "__init__"}
CORE = sorted(path.stem for path in SRC.glob("*.py") if path.stem not in EXEMPT)


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
