"""Print the code lines of each module, counted on its syntax tree.

Run from the repository root:

    python tests/code_lines.py [files]

(default: src/zonalg/*.py).  A code line is a line that holds a token of a
statement: blank lines, comment lines and docstrings (the string that opens
a module, class or function) do not count, and a statement spread over
several lines counts each line that holds a token of it.  One line per
module gives its code lines and its `wc -l` line count, then a total line.
A report, not a gate.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        owner = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if owner and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in docs)
    return len(lines)


def main(paths: list[str]) -> None:
    total_code = total_wc = 0
    for path in paths:
        source = Path(path).read_text()
        code, wc = code_lines(source), source.count("\n")
        total_code, total_wc = total_code + code, total_wc + wc
        print(f"{code:6d} code {wc:6d} wc -l  {path}")
    print(f"{total_code:6d} code {total_wc:6d} wc -l  total")


if __name__ == "__main__":
    main(sys.argv[1:] or sorted(str(p) for p in Path("src/zonalg").glob("*.py")))
