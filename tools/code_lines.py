"""Count the code lines of each module of ``src/rrseries`` and their total.

A code line holds at least one token that is neither a comment nor part of
a docstring (the string that opens a module, class or function body), so
blank lines, comment lines and docstring lines do not count.  A string
token that spans several lines counts on each of them.

    python3 tools/code_lines.py [directory]

prints one ``<lines>  <file>`` row per ``.py`` file, sorted by name, then
the total.  Stdlib only.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python text ``source``."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    directory = argv[0] if argv else os.path.join(ROOT, "src", "rrseries")
    total = 0
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
