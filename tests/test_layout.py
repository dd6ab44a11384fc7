"""Module boundaries of the vvlab package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vvlab"


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
