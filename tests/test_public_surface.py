"""Every public top-level function and class in the package is used by the package,
every name a module imports is read in that module, every dataclass field
is read by the package, every config key is read by some subcommand, and
every parameter with a default is passed by some call in the package.

A public name or a parameter that only tests use is a second API to keep
in step with the one the program runs.  The CLI is the package's front
end, so ``__init__.py`` re-exports nothing: it holds the version alone.
"""

import ast
from collections import Counter
from pathlib import Path

import fhn_spectral

SRC = Path(fhn_spectral.__file__).resolve().parent


def _modules() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def _uses(tree: ast.AST) -> Counter:
    """How often each name is read, or taken as an attribute, in ``tree``."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def test_every_public_definition_is_used_in_src():
    modules = _modules()
    total = sum((_uses(tree) for tree in modules.values()), Counter())
    unused = [
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        # uses inside the definition itself do not count
        and total[node.name] - _uses(node)[node.name] == 0
    ]
    assert not unused, f"public definitions no code in src/ uses: {unused}"


def test_init_holds_only_the_version():
    # a re-export would be a second API beside the CLI
    tree = _modules()["__init__.py"]
    body = tree.body[1:] if ast.get_docstring(tree) else tree.body
    assert len(body) == 1 and isinstance(body[0], ast.Assign), [ast.unparse(n) for n in body]
    assert [t.id for t in body[0].targets] == ["__version__"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def test_every_dataclass_field_is_read_in_src():
    # a field no code reads is a value computed and stored for nothing;
    # cli writes InvariantMomentReport whole through __dict__
    modules = _modules()
    read = {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{name}:{cls.name}.{field.target.id}"
        for name, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls) and cls.name != "InvariantMomentReport"
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]
    assert not unread, f"dataclass fields no code in src/ reads: {unread}"


def _imported(tree: ast.Module) -> list[str]:
    """Names an ``import`` binds anywhere in ``tree``, ``from __future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_every_import_in_src_is_read():
    unread = [
        f"{name}:{imported}"
        for name, tree in _modules().items()
        for imported in _imported(tree)
        if not any(
            isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == imported
            for node in ast.walk(tree)
        )
    ]
    assert not unread, f"imports no code in their module reads: {unread}"


def test_every_schema_key_is_in_some_read_set():
    # a key that no subcommand reads could only ever be refused
    from fhn_spectral.cli import COMMANDS
    from fhn_spectral.config import SCHEMA

    unread = [
        name
        for block, keys in SCHEMA.items()
        for key in keys
        for name in [f"{block}.{key}" if block else key]
        if not any({block, name} & reads for _, reads in COMMANDS.values())
    ]
    assert not unread, f"config keys no subcommand reads: {unread}"


def _bound_first(fn: ast.FunctionDef, owner: ast.AST) -> bool:
    """Whether calls bind ``fn``'s first parameter implicitly: a method or classmethod."""
    return isinstance(owner, ast.ClassDef) and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    )


def test_every_defaulted_parameter_is_passed_in_src():
    # a default no call overrides is a constant dressed as a parameter; a
    # call that splats ``*`` or ``**`` counts as passing every parameter
    # of its kind.  cli.main's argv is exempt: its default is the command
    # line, which only the console script supplies.
    modules = _modules()
    defaulted = []
    for name, tree in modules.items():
        for owner in ast.walk(tree):
            for fn in ast.iter_child_nodes(owner):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                args = fn.args
                positional = [*args.posonlyargs, *args.args]
                skip = int(_bound_first(fn, owner))
                first = len(positional) - len(args.defaults)
                defaulted += [
                    (name, fn.name, arg.arg, i - skip)
                    for i, arg in enumerate(positional) if i >= first
                ]
                defaulted += [
                    (name, fn.name, arg.arg, None)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
                ]
    calls = [
        node
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]

    def passes(call: ast.Call, fn_name: str, param: str, index: int | None) -> bool:
        func = call.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called != fn_name:
            return False
        if any(kw.arg is None or kw.arg == param for kw in call.keywords):
            return True
        return index is not None and (
            len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
        )

    unpassed = [
        f"{module}:{fn_name}.{param}"
        for module, fn_name, param, index in defaulted
        if (module, fn_name, param) != ("cli.py", "main", "argv")
        and not any(passes(call, fn_name, param, index) for call in calls)
    ]
    assert not unpassed, f"defaulted parameters no call in src/ passes: {unpassed}"
