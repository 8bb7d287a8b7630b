"""The package's only client is its command line (`fronttrack run`, `sweep`
and `verify`): the root module re-exports nothing, and every public name of
the package is used by the package itself.  A helper that only the tests
call belongs in `tests/oracles.py` or `tests/wave_oracles.py`."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fronttrack"


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _uses(tree):
    """How often each name is loaded and each attribute read in ``tree``."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def test_package_root_exports_nothing():
    tree = _trees()["__init__.py"]
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    assert len(body) == 1 and isinstance(body[0], ast.Assign)
    assert [ast.unparse(target) for target in body[0].targets] == ["__version__"]


def test_every_public_definition_is_used_by_the_package():
    trees = _trees()
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _uses(tree)
        names += n
        attrs += a
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # a use inside the definition itself (recursion) does not count
            if not node.name.startswith("_") and names[node.name] == _uses(node)[0][node.name]:
                unused.append(f"{module}:{node.name}")
            for method in node.body if isinstance(node, ast.ClassDef) else []:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                if attrs[method.name] == _uses(method)[1][method.name]:
                    unused.append(f"{module}:{node.name}.{method.name}")
    assert unused == []
