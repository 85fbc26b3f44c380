"""Line counts of the package source, for before/after simplicity claims.

    python3 demos/src_lines.py [FILE ...]

With no arguments it counts ``src/prunecast/*.py`` under the repository
root. For each file and in total it prints the ``wc -l`` count (every
line) and the code-only count: lines that are not blank, not only a
comment and not part of a docstring or other bare string statement.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside bare strings."""
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            skip.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(a) for a in argv] or sorted((root / "src" / "prunecast").glob("*.py"))
    total_wc = total_code = 0
    for path in paths:
        text = path.read_text(encoding="utf-8")
        wc, code = text.count("\n"), code_lines(text)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{wc:7d} {code:7d}  {path.name}")
    print(f"{total_wc:7d} {total_code:7d}  total (wc -l, code only)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
