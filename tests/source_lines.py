"""Non-blank code lines of each `aucasimir` module, and their total.

A line counts when it holds a token of code: blank lines, comments and
docstrings (the first string statement of a module, class or function) do
not.  The package counted is the one Python imports, so

    PYTHONPATH=src python tests/source_lines.py

counts this checkout's `src/aucasimir`, and another tree's `src` on the
path counts that tree.
"""

import ast
import io
import tokenize
from pathlib import Path

import aucasimir

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    root = Path(aucasimir.__file__).parent
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<16} {n:5d}")
    print(f"{'total':<16} {total:5d}")


if __name__ == "__main__":
    main()
