"""Line counts of the package source: all lines, and code lines only.

A code line holds a token that is neither a comment nor part of a
docstring (the string that opens a module, class or function body);
blank lines do not count.  Prints one row per file and a total row, each
as ``lines code path``, where ``lines`` is what ``wc -l`` counts.

    python3 tools/src_lines.py [DIR ...]    # default: src/qpopf
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qpopf"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def counts(paths) -> list[tuple[int, int, str]]:
    """(lines, code lines, path) of each ``.py`` file under ``paths``, sorted."""
    files = sorted(f for p in map(Path, paths) for f in ([p] if p.is_file() else p.rglob("*.py")))
    rows = []
    for f in files:
        text = f.read_text()
        rows.append((text.count("\n"), code_lines(text), str(f)))
    return rows


def main(argv: list[str]) -> None:
    rows = counts(argv or [PACKAGE])
    for lines, code, path in rows:
        print(f"{lines:6d} {code:6d} {path}")
    print(f"{sum(r[0] for r in rows):6d} {sum(r[1] for r in rows):6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
