"""Every public definition of the library has a caller in the program.

A public top-level function or class of ``src/mmwsync`` must be referenced,
by name or as an attribute, somewhere in ``src/`` or ``bench/`` outside its
own body, and not only from definitions that are themselves uncalled.  Code
only the tests call belongs in the tests (``tests/closed_forms.py``), and
code nothing calls is deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "mmwsync").glob("*.py"))
PROGRAM = LIBRARY + sorted((ROOT / "bench").rglob("*.py"))


def _references(node: ast.AST, skip=()) -> set[str]:
    """Names and attribute names used under ``node``, leaving out the nodes in ``skip``."""
    skipped = {id(s) for s in skip}
    found: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_definitions() -> list[str]:
    """``module.name (line n)`` of each public definition no live code refers to.

    Live code is everything in ``bench/`` and everything in ``src/`` outside
    the public top-level definitions, plus the bodies of the definitions it
    reaches, to a fixed point.
    """
    definitions = {}  # (module, name, line) -> names its body refers to
    live_refs: set[str] = set()
    for path in PROGRAM:
        tree = ast.parse(path.read_text(), str(path))
        public = []
        if path in LIBRARY:
            public = [node for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                      and not node.name.startswith("_")]
        for node in public:
            definitions[(path.stem, node.name, node.lineno)] = _references(node) - {node.name}
        live_refs |= _references(tree, skip=public)
    dead = dict(definitions)
    while True:
        reached = [key for key in dead if key[1] in live_refs]
        if not reached:
            break
        for key in reached:
            live_refs |= dead.pop(key)
    return [f"{module}.{name} (line {line})" for module, name, line in sorted(dead)]


def test_every_public_definition_has_a_program_caller():
    offenders = unreferenced_definitions()
    assert not offenders, "no caller in src/ or bench/: " + ", ".join(offenders)
