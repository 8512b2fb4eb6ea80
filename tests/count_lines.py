"""Line count of the package source, by kind.

    python tests/count_lines.py [FILE_OR_DIR ...]

With no argument it counts src/tripod_sta/*.py of this checkout.  Per module
it prints `wc -l` (physical lines) and their split into code, docstring,
comment and blank lines, then the totals:
- blank: a line that is empty or whitespace, also within a docstring;
- docstring: any other line inside the docstring of a module, class or
  function, as ast finds it;
- comment: any other line whose first non-blank character is '#';
- code: every other line.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) covered by the docstrings of tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent / "src" / "tripod_sta"]
    files = sorted(f for root in roots for f in (root.glob("*.py") if root.is_dir() else [root]))
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}{'wc -l':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in files:
        counts = count(path)
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name:<16}{sum(counts.values()):>7}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    print(f"{'total':<16}{sum(totals.values()):>7}" + "".join(f"{totals[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
