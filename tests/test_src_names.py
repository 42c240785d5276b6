"""Helpers that nothing calls are deleted (aim 2 of ROADMAP.md).

Every module-level function, class and constant in `src/orthopet` and every
method of its classes must be named by src code: as a name or an attribute
that is read, or as a whole string constant (a `getattr` field such as a
site kind's width).  A use in tests or in the benchmark does not count.
Exempt are dunder names, which Python calls itself, the span tracer's
targets in `perfbench/tracer.py`, and `cli.main`, the console script.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orthopet"
EXEMPT = {"cli.main"}


def _tracer_targets() -> set:
    """`<layer>.<attribute>` of every tracer target, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    return {f"{t.elts[0].value.rsplit('.', 1)[-1]}.{t.elts[1].value}" for t in targets.elts}


def _definitions(module: str, tree: ast.Module):
    """(`<module>.<qualname>`, bare name) of each definition the guard covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id


def _named(tree: ast.Module):
    """Every name, attribute and string constant that the code reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_src_definition_is_named_by_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = {name for tree in trees.values() for name in _named(tree)}
    exempt = EXEMPT | _tracer_targets()
    unnamed = [
        key for module, tree in trees.items() for key, name in _definitions(module, tree)
        if name not in named and key not in exempt and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unnamed == []


def test_guard_flags_what_nothing_names():
    tree = ast.parse("LIMIT = 3\nSCALE = 2\n\ndef helper():\n    return SCALE\n\n"
                     "def caller():\n    return helper()\n\n"
                     "class Box:\n    def method(self):\n        return 0\n")
    named = set(_named(tree))
    keys = [key for key, name in _definitions("m", tree) if name not in named]
    assert keys == ["m.LIMIT", "m.caller", "m.Box", "m.Box.method"]
