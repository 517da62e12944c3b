"""Count the lines of each module of ``src/multirater`` by kind, and in total.

Usage::

    python tools/src_lines.py

Each line has one kind, the first of these that applies:

- code: the line holds a token outside docstrings and comments, so every
  line of a multi-line string that is not a docstring is code;
- docstring: the line holds part of a module, class or function docstring;
- comment: the line holds a comment and nothing else;
- blank: the line holds nothing but whitespace.

The output is one row per module, sorted by file name, then the total row.
Standard library only: ``ast`` finds the docstrings, ``tokenize`` the tokens.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multirater"
KINDS = ("code", "docstring", "comment", "blank")
CODE, DOCSTRING, COMMENT, BLANK = range(len(KINDS))
# Tokens that only delimit lines and blocks; they make no line code.
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) token positions of every module, class and function docstring in ``source``."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def count(source: str) -> dict[str, int]:
    """``lines``, then the number of lines of each kind in ``KINDS`` order; the kinds sum to ``lines``."""
    spans = _docstring_spans(source)
    kind_of = {}  # line number -> index in KINDS of the first kind that applies
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            kind = COMMENT
        elif any(start <= tok.start and tok.end <= end for start, end in spans):
            kind = DOCSTRING
        else:
            kind = CODE
        for line in range(tok.start[0], tok.end[0] + 1):
            kind_of[line] = min(kind, kind_of.get(line, BLANK))
    lines = len(source.splitlines())
    counts = [0] * len(KINDS)
    for line in range(1, lines + 1):
        counts[kind_of.get(line, BLANK)] += 1
    return {"lines": lines, **dict(zip(KINDS, counts))}


def main() -> None:
    columns = ("lines", *KINDS)
    rows = [(path.name, count(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", {key: sum(counts[key] for _, counts in rows) for key in columns}))
    print(f"{'module':<14}" + "".join(f"{key:>11}" for key in columns))
    for name, counts in rows:
        print(f"{name:<14}" + "".join(f"{value:>11,}" for value in counts.values()))


if __name__ == "__main__":
    main()
