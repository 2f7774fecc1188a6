import ast
from pathlib import Path

import fwm


def test_every_exported_name_resolves():
    """A name left in ``fwm.__all__`` after its object is gone breaks
    ``from fwm import *``."""
    assert [name for name in fwm.__all__ if not hasattr(fwm, name)] == []


def test_no_unused_module_imports():
    """Every name a module imports at module level is read somewhere in
    that module (``__init__.py`` re-exports, so it is not checked)."""
    unused = []
    for path in sorted(Path(fwm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
