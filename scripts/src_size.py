#!/usr/bin/env python3
"""Count the lines of each ``src/chirploc`` module and of the package.

Prints, per module and in total, the physical lines and the code lines:
lines that hold a token of code, so neither blank lines, comments nor
docstrings (the string statement that opens a module, class or function).
The code count is the one that tracks the package's size; physical lines
also move with comments and wrapping.

Usage:
    python scripts/src_size.py [package_dir]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chirploc"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(physical, code)`` line counts of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(package: Path) -> int:
    total_physical = total_code = 0
    print(f"{'module':16s} {'physical':>8s} {'code':>6s}")
    for path in sorted(package.glob("*.py")):
        physical, code = count(path.read_text())
        total_physical += physical
        total_code += code
        print(f"{path.name:16s} {physical:8d} {code:6d}")
    print(f"{'total':16s} {total_physical:8d} {total_code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE))
