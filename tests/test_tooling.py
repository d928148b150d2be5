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
    kernels = {"_window_fold", "_multiply_bounded", "_by_recurrence", "_recurrence_pays", "_normalized"}
    for module, names in [("enumeration", enumeration["core"]), ("oracles", oracles["core"])]:
        assert names.isdisjoint(kernels), (module, names & kernels)
