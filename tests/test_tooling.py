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
