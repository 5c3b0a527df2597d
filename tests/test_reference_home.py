"""No test file defines a top-level ``_ref_*``, ``_former_*`` or ``_Ref*``
name, and every module-level function or class of tests/reference/ is
used by a test, directly or through other definitions there: a name
imported from the package or read on one of its modules, or inside a
module a name it defines."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS / "reference"
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _uses(node, tree, module=None):
    """The (module, name) pairs of the package that node reads, with the
    imports of tree, the module it is part of."""
    aliases, names = {}, {}
    for imp in ast.walk(tree):
        if isinstance(imp, ast.ImportFrom):
            target = imp.module if not imp.level else \
                "reference" + ("." + imp.module if imp.module else "")
            for a in imp.names:
                bound = a.asname or a.name
                if target == "reference" and a.name in MODULES:
                    aliases[bound] = a.name
                elif target.startswith("reference"):
                    names[bound] = (target.partition(".")[2] or "__init__", a.name)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield names.get(sub.id, (module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and sub.value.id in aliases:
            yield aliases[sub.value.id], sub.attr


def test_no_test_file_defines_a_reference():
    defined = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            names = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            defined += [(path.name, name) for name in names
                        if re.match(r"_ref_|_former_|_Ref", name)]
    assert defined == []


def test_every_reference_is_used_by_a_test():
    definitions = {(module, node.name): (node, tree)
                   for module, tree in MODULES.items() for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = [use for path in TESTS.glob("test_*.py")
            for tree in [ast.parse(path.read_text())] for use in _uses(tree, tree)]
    used = set()
    while todo:
        key = todo.pop()
        if key in definitions and key not in used:
            used.add(key)
            todo.extend(_uses(*definitions[key], key[0]))
    assert sorted(set(definitions) - used) == []
