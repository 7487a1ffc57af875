"""A frozen dataclass is kept only where its __post_init__ validates or
normalizes its fields: each one costs about 1.5 ms on every fresh import,
and a record that checks nothing is a NamedTuple instead.  The package's
set of frozen dataclasses is pinned, so a new one is a deliberate edit
here; lattices and masks travel as bare arrays beside the grid."""
import ast
from pathlib import Path

import pytest

import specret

MODULES = sorted(Path(specret.__file__).parent.glob("*.py"))
ALLOWED = {"Grid", "Signal", "RetrievalConfig", "WindowFamily", "MixtureSpec"}


def is_frozen_dataclass(decorator) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "dataclass" and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords)


def frozen_dataclasses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(map(is_frozen_dataclass, node.decorator_list))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_frozen_dataclass_has_post_init(path):
    bare = [node.name for node in frozen_dataclasses(path)
            if not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                       for item in node.body)]
    assert not bare, f"{path.name}: frozen dataclasses without __post_init__: {bare}"


def test_the_set_of_frozen_dataclasses_is_pinned():
    found = {node.name for path in MODULES for node in frozen_dataclasses(path)}
    assert found == ALLOWED
