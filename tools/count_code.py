"""Count the lines of each module of a Python package by kind.

Every line is exactly one of:

    docstring  inside a module, class or function docstring, blank lines
               within it included
    code       holds a token of a statement (a string that is not a
               docstring, a bracket, a name, ...)
    comment    holds a comment and nothing else
    blank      holds nothing but whitespace

Usage: python3 tools/count_code.py [PACKAGE_DIR]   (default: src/avloc)

Prints one row per module, in name order, and a total row.  Uses the
standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# Tokens that mark no line as code by themselves.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the docstrings of the module, its classes and
    its functions."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """{kind: lines} of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, len(source.splitlines()) + 1):
        if number in docs:
            kind = "docstring"
        elif number in code:
            kind = "code"
        elif number in comments:
            kind = "comment"
        else:
            kind = "blank"
        counts[kind] += 1
    return counts


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/avloc")
    paths = sorted(root.glob("*.py"))
    if not paths:
        print("no Python modules under %s" % root, file=sys.stderr)
        return 1
    total = dict.fromkeys(KINDS, 0)
    row = "%-16s" + " %9s" * (len(KINDS) + 1)
    print(row % (("module",) + KINDS + ("total",)))
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(row % ((path.name,) + tuple(counts[k] for k in KINDS)
                     + (sum(counts.values()),)))
    print(row % (("total",) + tuple(total[k] for k in KINDS)
                 + (sum(total.values()),)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
