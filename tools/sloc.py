"""Print the code lines of each module of src/, and their total.

A code line holds at least one token that is not a comment and lies
outside every docstring (the first statement of a module, class or
function, when it is a string).  Blank lines, comment lines and
docstrings do not count; a line with code and a trailing comment does.
The "all" column counts every line of the file.

    python tools/sloc.py            # the package under src/
    python tools/sloc.py PATH...    # these files or directories instead
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or [ROOT / "src"]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    code = total = 0
    print(f"{'code':>6} {'all':>6}  module")
    for f in files:
        source = f.read_text(encoding="utf-8")
        n, m = code_lines(source), len(source.splitlines())
        code, total = code + n, total + m
        name = f.relative_to(ROOT) if f.is_relative_to(ROOT) else f
        print(f"{n:6d} {m:6d}  {name}")
    print(f"{code:6d} {total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
