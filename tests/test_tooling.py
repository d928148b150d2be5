"""Repository checks that need no interpreter of their own."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    # pyproject.toml accepts Python 3.10, so no file may use grammar added
    # later, such as except*. ast.parse knows the later grammar only in part
    # (it lets *args: *Ts through), so this catches much, not all.
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def package_imports(module):
    """{sibling module: the names imported from it} for one module of the
    package, read from its source. The package imports itself only by
    relative imports; an absolute one would escape the map, so it fails."""
    tree = ast.parse((ROOT / "src" / "submultisets" / f"{module}.py").read_text(encoding="utf-8"))
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imports.setdefault(node.module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("submultisets"), (module, node.module)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("submultisets") for alias in node.names), module
    return imports


def test_modules_are_layered():
    # core computes every count and kernel and builds the rank tables,
    # enumeration walks those tables, and oracles only checks and picks
    # methods. Neither takes any of core's kernels: enumeration takes the
    # tables and their cell count, oracles the public counters, and both
    # the input gate.
    assert package_imports("core") == {}
    enumeration = package_imports("enumeration")
    assert set(enumeration) == {"core"}
    oracles = package_imports("oracles")
    assert set(oracles) == {"core", "enumeration"}
    kernels = {"_window_fold", "_multiply_bounded", "_by_recurrence", "_recurrence_pays", "_normalized",
               "_signed_weights"}
    for module, names in [("enumeration", enumeration["core"]), ("oracles", oracles["core"])]:
        assert names.isdisjoint(kernels), (module, names & kernels)


PACKAGE_MODULES = {"core", "enumeration", "oracles", "cli"}


def module_bindings(tree):
    """{name: what it is bound to} for each name a test file binds to the
    package ("submultisets"), one of its modules ("core", ...) or the hooks
    module ("hooks"), aliases included."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top in ("submultisets", "hooks"):
                    bound[alias.asname or top] = rest if alias.asname and rest else top
        elif isinstance(node, ast.ImportFrom) and node.module in ("submultisets", "hooks"):
            bound.update((alias.asname or alias.name, alias.name) for alias in node.names
                         if alias.name in PACKAGE_MODULES)
    return bound


def patched_module(target, bound):
    """The package, or the module of it, that a setattr target names (a
    name, an attribute chain or a dotted string), or None for any other
    object."""
    if isinstance(target, ast.Name):
        return bound.get(target.id)
    if isinstance(target, ast.Attribute):
        owner = patched_module(target.value, bound)
        return target.attr if owner in ("submultisets", "hooks") and target.attr in PACKAGE_MODULES else None
    if isinstance(target, ast.Constant) and isinstance(target.value, str):
        parts = target.value.split(".")
        if parts[0] == "submultisets":
            return parts[1] if len(parts) > 2 and parts[1] in PACKAGE_MODULES else "submultisets"
    return None


def test_only_hooks_reach_into_the_package():
    # tests/hooks.py holds every patch of the package and every read of what
    # it patches, so an internal move edits that one test file. A test may
    # still patch cli, to force an error branch. The names hooks.py sets
    # (the kept-table store, its cap, the tail split, the cost gate) are
    # read from it, so a new hook is covered as it is written.
    hook_tree = ast.parse((ROOT / "tests" / "hooks.py").read_text(encoding="utf-8"))
    private = {node.args[1].value for node in ast.walk(hook_tree)
               if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setattr")
               and isinstance(node.args[1], ast.Constant)}
    assert len(private) > 4, private
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.Constant: "value", ast.alias: "name"}
    paths = sorted(set((ROOT / "tests").glob("test_*.py")) - {Path(__file__).resolve()})
    assert len(paths) > 5
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = module_bindings(tree)
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(("setattr", "delattr")):
                assert patched_module(node.args[0], bound) in (None, "cli", "hooks"), where
            field = fields.get(type(node))
            assert field is None or getattr(node, field) not in private, where
