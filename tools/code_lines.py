"""Print the code lines of each module of ``src/jetexp`` and their total.

    python3 tools/code_lines.py

A code line is a source line that holds at least one token other than a
comment, and that is not part of a docstring (the string that opens a
module, class or function body).  Blank lines, comment lines and
docstring lines are not counted.  It reads the files under ``src``
next to this file and imports nothing from them.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "jetexp",
                                              "*.py"))):
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        total += count
        print("%6d  %s" % (count, os.path.basename(path)))
    print("%6d  total" % total)


if __name__ == "__main__":
    main()
