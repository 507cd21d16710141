"""The library holds no public name that only its own unit tests call."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "znsynth"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _references(tree: ast.AST) -> Counter:
    """Names read or imported in tree, and attributes taken of a package module."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            found[node.attr] += 1
    return found


def test_every_public_name_is_reached():
    # A public module-level function or class must be named in bench/, in
    # the gates, or in src/ outside its own definition and outside the
    # definitions of names that are themselves unreached.
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    outside = "\n".join(path.read_text() for path in [
        *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"])
    public = {
        node.name: node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not re.search(rf"\b{node.name}\b", outside)
    }
    in_src = sum((_references(tree) for tree in trees), Counter())
    unreached: list[str] = []
    while dead := [name for name, node in public.items() if name not in unreached
                   and in_src[name] == _references(node)[name]]:
        for name in dead:
            in_src -= _references(public[name])
        unreached += dead
    assert not unreached, f"no command, gate or bench reaches {sorted(unreached)}"
