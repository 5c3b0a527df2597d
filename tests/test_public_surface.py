"""Every public name of the library has a caller.

A public module-level function or class of ``src/klrwcb``, or a public
method of one of its classes, must be named somewhere outside its own
definition: in the library, in ``tests/test_acceptance.py`` or in
``perfbench/*.py``.  A function or a class counts as named where it is
loaded as a variable, read as an attribute, imported, or where a string
constant is that name or a dotted path through it: the benchmark tracer
names the functions it wraps by strings such as ``"Scenario.apply"`` and
``"real_compare"``.  A method counts as named only through an attribute
read, an import or such a string, never through a variable or a
parameter of the same spelling, and an assignment is no reading.  A
docstring or a message is not a caller, even when it names a function.
The methods of a private class are not public surface (argparse calls
``cli._Parser.error``).  Names are matched by spelling alone, so a method
is named by any attribute read of the same name.  The unit tests are not
places: a name only they reach has no caller.  The perfbench files are
parsed, never imported.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "klrwcb").glob("*.py"))
CALLERS = LIBRARY + [ROOT / "tests" / "test_acceptance.py"] \
    + sorted((ROOT / "perfbench").glob("*.py"))

EXEMPT = {
    # the diagram tests build every same-class crossing with it (bigons,
    # the degree -2 swap); straight_line cannot prescribe the matching
    "diagrams.Engine.permutation_diagram",
}

_PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _names(node, variables=True):
    """The names node reads, one per reading: loaded variables (unless
    variables is False), attribute reads, imports and the parts of string
    constants that are a name or a dotted path."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and variables and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and _PATH.fullmatch(sub.value):
            out.extend(sub.value.split("."))
    return out


def _public_definitions(path, tree):
    """(qualified name, definition node, is a method) of every public
    module-level function or class and every public method of a public
    module-level class."""
    module = path.stem
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield "%s.%s" % (module, node.name), node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield "%s.%s.%s" % (module, node.name, member.name), member, True


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    named = {method: Counter(name for tree in trees.values()
                             for name in _names(tree, not method))
             for method in (False, True)}
    unnamed = [qualified for path in LIBRARY
               for qualified, node, method in _public_definitions(path, trees[path])
               if named[method][node.name] == _names(node, not method).count(node.name)]
    # an exempt name that gains a caller leaves the list
    assert sorted(unnamed) == sorted(EXEMPT)
