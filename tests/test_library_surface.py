"""The package's only client is its command line (`fronttrack run`, `sweep`
and `verify`): the root module re-exports nothing, and every public name of
the package is used by the package itself, every name a module imports is
used there, and every parameter with a default is passed by some call in
the package.  A helper, or an option, that only the tests use belongs in
`tests/oracles.py` or `tests/wave_oracles.py`."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fronttrack"


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


# public method names that are also another definition's name, each checked
# used by hand: `p.values()` (Profile.values)
SHARED = {"values"}


def _uses(tree, skip):
    """How often each name is loaded and each attribute read in ``tree``,
    outside the definitions in ``skip``."""
    names, attrs = Counter(), Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def _definitions(trees):
    """(label, node, is_method) of each public module-level function or class
    and each public method."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}:{node.name}", node, False
            for method in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{module}:{node.name}.{method.name}", method, True


def _data_attributes(trees):
    """Names stored as ``self.X`` or declared as class-body fields."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                out.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                out.update(item.target.id for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name))
    return out


def test_package_root_exports_nothing():
    tree = _trees()["__init__.py"]
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    assert len(body) == 1 and isinstance(body[0], ast.Assign)
    assert [ast.unparse(target) for target in body[0].targets] == ["__version__"]


def test_every_public_definition_is_used_by_the_package():
    trees = _trees()
    definitions = list(_definitions(trees))
    # a use inside the definition itself (recursion) or inside an unused
    # definition does not count; drop unused definitions until none is left
    unused = {}
    while True:
        skip = set(unused.values())
        names, attrs = Counter(), Counter()
        for tree in trees.values():
            n, a = _uses(tree, skip)
            names += n
            attrs += a
        found = {}
        for label, node, is_method in definitions:
            if node in skip:
                continue
            own = _uses(node, skip)[is_method][node.name]
            if (attrs if is_method else names)[node.name] == own:
                found[label] = node
        if not found:
            break
        unused.update(found)

    # an attribute read names a method only when no other definition shares it
    methods = Counter(node.name for _, node, is_method in definitions if is_method)
    data = _data_attributes(trees)
    shared = [
        f"{label} (shared name)" for label, node, is_method in definitions
        if is_method and label not in unused and node.name not in SHARED
        and (methods[node.name] > 1 or node.name in data)
    ]
    assert sorted(unused) + shared == []


def test_every_imported_name_is_used():
    unused = []
    for module, tree in _trees().items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.append(f"{module}:{name}")
    assert unused == []


# the hull and slope caches, keyed on the run's own flux object; any other
# memo would be process-global state that one run leaves to the next
CACHED = {"envelope.py:_convex_by_index", "envelope.py:_concave_by_index",
          "potential.py:_cell_slopes"}


def test_no_other_function_is_cached():
    cached = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    called = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = ast.unparse(called).removeprefix("functools.")
                    if name in ("lru_cache", "cache"):
                        cached.add(f"{module}:{node.name}")
    assert sorted(cached - CACHED) == []


# parameters that only callers outside the package pass: the console script
# calls `main()`, and the benchmark worker passes `argv`
PASSED_FROM_OUTSIDE = {"cli.py:main(argv)"}


def _defaulted_parameters(trees):
    """(label, called name, position, name) of each parameter with a default
    of each function.  Its position counts the arguments a call passes (a
    method's self is not one), and a class's ``__init__`` is called by the
    class's name; position None marks a keyword-only parameter."""
    for module, tree in trees.items():
        stack = [(tree, None)]
        while stack:
            node, owner = stack.pop()
            for child in ast.iter_child_nodes(node):
                stack.append((child, node if isinstance(node, ast.ClassDef) else None))
            if not isinstance(node, ast.FunctionDef):
                continue
            called = owner.name if owner and node.name == "__init__" else node.name
            shift = 1 if owner else 0  # the package has no static methods
            args = node.args.posonlyargs + node.args.args
            first = len(args) - len(node.args.defaults)
            defaulted = [(i - shift, a) for i, a in enumerate(args) if i >= first]
            defaulted += [(None, a) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                          if d is not None]
            for position, arg in defaulted:
                yield f"{module}:{node.name}({arg.arg})", called, position, arg.arg


def _passes(call, position, name) -> bool:
    """Whether ``call`` passes the parameter at ``position`` (None: keyword
    only) or named ``name``; a starred argument may pass any of them."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(arg, ast.Starred) for arg in call.args[: position + 1]))


def test_every_defaulted_parameter_is_passed_by_the_package():
    trees = _trees()
    calls = {}  # called name -> its ast.Call nodes
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    never = [
        label for label, called, position, name in _defaulted_parameters(trees)
        if label not in PASSED_FROM_OUTSIDE
        and not any(_passes(call, position, name) for call in calls.get(called, []))
    ]
    assert never == []
