"""Library modules report through logging.getLogger("specret") and never
call print; only the command-line driver, cli.py, writes to stdout."""
import ast
from pathlib import Path

import pytest

import specret

LIBRARY = sorted(p for p in Path(specret.__file__).parent.glob("*.py") if p.name != "cli.py")


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_module_never_prints(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert not lines, f"{path.name} calls print on lines {lines}"
