"""A frozen dataclass is kept only where its __post_init__ validates or
normalizes its fields: each one costs about 1.5 ms on every fresh import,
and a record that checks nothing is a NamedTuple instead."""
import ast
from pathlib import Path

import pytest

import specret

MODULES = sorted(Path(specret.__file__).parent.glob("*.py"))


def is_frozen_dataclass(decorator) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "dataclass" and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_frozen_dataclass_has_post_init(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bare = [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(map(is_frozen_dataclass, node.decorator_list))
            and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                        for item in node.body)]
    assert not bare, f"{path.name}: frozen dataclasses without __post_init__: {bare}"
