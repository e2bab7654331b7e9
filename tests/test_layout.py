"""`src/` holds only what a pipeline runs or perfbench reaches: every function,
class and method defined in `src/qkinopt` is referenced, outside its own
definition, by a name, attribute, import or string constant in `src/` or
`perfbench/`. String constants count because perfbench's tracer wraps
functions by `getattr` on their names; dunder methods count as used, since
Python calls them."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# kept for the encoding round trip that criterion 8 checks
ALLOWED = {"encode"}


def references(tree):
    """How often each name is referenced in an AST."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def test_every_src_definition_is_referenced():
    trees = {path: ast.parse(path.read_text()) for path in sorted(
        [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")])}
    total = sum((references(tree) for tree in trees.values()), collections.Counter())
    unused = sorted(
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items() if ROOT / "src" in path.parents
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in ALLOWED
        and total[node.name] <= references(node)[node.name])
    assert not unused, "defined in src/ but referenced nowhere: " + ", ".join(unused)
