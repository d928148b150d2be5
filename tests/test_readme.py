"""The README's library and CLI examples run, and say what they return."""
import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from submultisets.cli import main

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


def cli_examples():
    """One pytest.param(argv, head, expected stdout) for each
    `$ submultisets ...` line of the example block under the README's ## CLI
    heading; head is N for a trailing `| head -N`, else None."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):text.index("\n## Library\n")]
    block = next(b for b in re.findall(r"```\n(.*?)```", section, re.DOTALL) if b.startswith("$ "))
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            command, _, head = line[2:].partition(" | head -")
            examples.append((command, shlex.split(command), int(head) if head else None, []))
        else:
            examples[-1][3].append(line + "\n")
    return [pytest.param(argv, head, "".join(out), id=command)
            for command, argv, head, out in examples]


CLI_EXAMPLES = cli_examples()


def test_cli_block_has_examples():
    assert len(CLI_EXAMPLES) >= 5


@pytest.mark.parametrize("argv,head,expected", CLI_EXAMPLES)
def test_cli_examples_print_what_they_show(capsys, argv, head, expected):
    assert argv[0] == "submultisets"
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out
    if head is not None:
        out = "".join(out.splitlines(keepends=True)[:head])
    assert out == expected
