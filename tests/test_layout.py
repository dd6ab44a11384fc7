"""Module boundaries of the vvlab package, and a guard against unused public code."""

import ast
from pathlib import Path

import vvlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vvlab"

# Public definitions that nothing runs yet but that an open ROADMAP item will
# wire in: item 2 extends check_apriori to split runs for the run diagnostics.
UNUSED_ALLOWED = {"check_apriori"}


def private_imports(path: Path):
    """``from <vvlab module> import _name`` statements in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "vvlab":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"


def test_no_module_imports_private_names_of_another():
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "transport.py" in paths
    assert [line for path in paths for line in private_imports(path)] == []


def referenced_names(tree, skip=frozenset()):
    """Names read as ``name`` or ``obj.name`` in ``tree``, outside the nodes in ``skip``."""
    out = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def parsed(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_exports_are_used_by_the_package_or_scripts():
    trees = parsed(sorted(SRC.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py")))
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    assert [name for name in vvlab.__all__ if name not in used] == []


def test_every_public_definition_is_used():
    src = sorted(SRC.rglob("*.py"))
    users = src + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = parsed(users + [ROOT / "tests" / "test_acceptance.py"])
    refs = {path: referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for path in src:
        elsewhere = set().union(*(r for other, r in refs.items() if other != path))
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in UNUSED_ALLOWED or node.name in elsewhere:
                continue
            own = frozenset(id(n) for n in ast.walk(node))
            if node.name not in referenced_names(trees[path], own):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
