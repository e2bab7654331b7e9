"""`src/` holds only what a pipeline runs or perfbench reaches: every function,
class and method defined in `src/qkinopt` is reachable from a root by the
names that reached code uses. The roots are `cli.main`, the module-level code
of `src/` (function bodies aside, as they run only when called), every name
that `perfbench/` uses, and `encode`. A reached function uses every name in its
body; a reached class uses the names in its own code and in its dunder
methods, which Python calls; a name reaches every definition of that name.
A name counts where code names it as a variable or an attribute, or as a
string constant, because perfbench's tracer wraps functions by `getattr` on
their names. An import alone uses nothing."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# kept for the encoding round trip that criterion 8 checks
ALLOWED = {"encode"}


def names_used(node, bodies=True):
    """The names that the code under `node` uses; with `bodies` False, the code
    that runs when `node` itself runs, so no function body."""
    names, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        if not bodies and isinstance(node, FUNCTIONS):
            stack.extend([*node.decorator_list, node.args])
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names


def is_dunder(node):
    return node.name.startswith("__") and node.name.endswith("__")


def unreachable(src, perfbench):
    """The definitions in the `src` trees that no root reaches, as (path, node) pairs."""
    definitions = {}
    for path, tree in src.items():
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                definitions.setdefault(node.name, []).append((path, node))
    todo = {"main", *ALLOWED, *(n for tree in perfbench.values() for n in names_used(tree))}
    todo.update(n for tree in src.values() for n in names_used(tree, bodies=False))
    seen, reached = set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, node in definitions.get(name, ()):
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts += [m for m in node.body if isinstance(m, DEFINITIONS) and is_dunder(m)]
            for part in parts:
                reached.add(part)
                todo |= names_used(part, bodies=not isinstance(part, ast.ClassDef)) - seen
    return [(path, node) for found in definitions.values() for path, node in found
            if node not in reached]


def parse(directory):
    return {path: ast.parse(path.read_text()) for path in sorted((ROOT / directory).rglob("*.py"))}


def test_every_src_definition_is_referenced():
    unused = sorted(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
                    for path, node in unreachable(parse("src"), parse("perfbench")))
    assert not unused, "defined in src/ but reached from no root: " + ", ".join(unused)


def test_a_helper_kept_only_by_an_unreached_caller_is_unreachable():
    src = {"m.py": ast.parse("def main():\n    used()\n\n"
                             "def used():\n    pass\n\n"
                             "def helper():\n    pass\n\n"
                             "def caller():\n    helper()\n\n"
                             "class Box:\n    def __init__(self):\n        helper()\n")}
    assert sorted(node.name for _, node in unreachable(src, {})) == [
        "Box", "__init__", "caller", "helper"]
    perfbench = {"p.py": ast.parse("getattr(module, 'caller')")}
    assert sorted(node.name for _, node in unreachable(src, perfbench)) == ["Box", "__init__"]
