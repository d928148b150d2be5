"""The README's library examples run, and say what they return."""
import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    """The first python block under the README's ## Library heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def literal_comments(source):
    """{line number: value} for each trailing comment that is a Python
    literal; prose comments are left out."""
    found = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            try:
                found[token.start[0]] = ast.literal_eval(token.string[1:].strip())
            except (ValueError, SyntaxError):
                pass
    return found


def test_library_examples_return_their_comments():
    source = library_block()
    expected = literal_comments(source)
    namespace = {}
    checked = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr) and statement.lineno in expected:
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            assert value == expected[statement.lineno], ast.get_source_segment(source, statement)
            checked.append(statement.lineno)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    # Every literal comment sits on an expression that was checked.
    assert sorted(checked) == sorted(expected)
    assert len(checked) >= 8
