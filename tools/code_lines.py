"""Code lines of Python modules: lines that hold a token of code, leaving out
docstrings, comments and blank lines.

    python3 tools/code_lines.py src/bicov/*.py

prints one "count path" line per module, as ``wc -l`` does, then the total.
A docstring is the string that opens a module, class or function body; every
line it spans is left out.  A line holding only a comment or a line
continuation is left out too.
"""

import ast
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _NOT_CODE]
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = {n for t in tokens for n in range(t.start[0], t.end[0] + 1)}
    return len(lines - docstrings)


if __name__ == "__main__":
    counts = [(code_lines(path), path) for path in sys.argv[1:]]
    for count, path in counts:
        print(f"{count:7d} {path}")
    print(f"{sum(c for c, _ in counts):7d} total")
