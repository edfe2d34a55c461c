"""Count the code lines of the lieq package: non-blank lines outside
comments and docstrings, per module and in total.

    python tools/code_lines.py [PATH]

PATH is a package directory, whose *.py modules are counted, or a single
.py file; it defaults to src/lieq next to this script's directory.  A path
that holds no .py file is an error (exit 2), so a mistyped path cannot pass
for an empty count.  A line counts when it holds a token other than a
comment, a line break or an indent, and is not part of a module, class or
function docstring.  Uses only the standard library (ast and tokenize).
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, filename=str(path))))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "lieq"
    paths = [root] if root.is_file() and root.suffix == ".py" else sorted(root.glob("*.py"))
    if not paths:
        print(f"code_lines: no .py file at {root}", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
