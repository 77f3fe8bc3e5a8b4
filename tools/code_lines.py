"""Code lines per Python module.

    python3 tools/code_lines.py PATH [PATH ...]

A code line is a line that holds a token other than a comment or a
newline; the tokens of docstrings (strings that stand alone as an
expression statement) are left out, so a line that holds only docstring
text, a comment or nothing is not a code line.  A PATH is a module or a
directory, whose *.py files are read, not recursing.  Prints one
"<lines>  <module>" row per module and, for more than one module, a total
row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    docs = [(node.lineno, node.end_lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        first, last = tok.start[0], tok.end[0]
        if tok.type in _NOT_CODE or tok.type == tokenize.STRING and any(
                a <= first and last <= b for a, b in docs):
            continue
        lines.update(range(first, last + 1))
    return len(lines)


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    modules = [m for p in paths for m in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    counts = {m: code_lines(m.read_text(encoding="utf-8")) for m in modules}
    for module, n in counts.items():
        print(f"{n:6d}  {module}")
    if len(counts) > 1:
        print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
