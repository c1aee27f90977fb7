"""Count code lines per module: lines that hold a token of code, with
docstrings, comments and blank lines left out.

A line counts once however many tokens it holds, and a token that spans
lines (a multi-line string or expression) counts every line it covers.
Docstrings are the string statements that open a module, class or
function body, found with ``ast``.

Usage: python tools/code_lines.py [PATH ...]   (default: src/cvk)
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path("src/cvk")]
    files = sorted(
        file for path in paths for file in ([path] if path.is_file() else path.rglob("*.py"))
    )
    total = 0
    for file in files:
        count = code_lines(file)
        total += count
        print(f"{count:6}  {file}")
    print(f"{total:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
