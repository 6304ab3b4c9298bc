#!/usr/bin/env python3
"""Count the lines of each module of src/ndnkit.

    python3 tools/loc.py

Prints, per module and in total, the raw lines and the code lines. A code
line holds at least one token of a statement that is not only string
literals, so comments, docstrings and blank lines do not count, while every
line of a statement that spans several lines does. The count comes from the
stdlib tokenize module, so formatting inside a statement cannot fool it.
To compare two versions, run it in each checkout.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ndnkit"
_SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    """The lines of source that carry code, as the module docstring defines."""
    lines: set[int] = set()
    statement: list[int] = []  # the lines of the statement read so far
    only_strings = True
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED:
            continue
        if tok.type == tokenize.NEWLINE:
            # a statement of string literals alone is a docstring
            if not only_strings:
                lines.update(statement)
            statement, only_strings = [], True
            continue
        statement.extend(range(tok.start[0], tok.end[0] + 1))
        only_strings = only_strings and tok.type == tokenize.STRING
    return len(lines)


def count(package: Path) -> list[tuple[str, int, int]]:
    """(module path, raw lines, code lines) for each module under package."""
    rows = []
    for path in sorted(package.rglob("*.py")):
        source = path.read_text()
        rows.append((str(path.relative_to(package)), len(source.splitlines()), code_lines(source)))
    return rows


def main() -> int:
    rows = count(PACKAGE)
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'raw':>6}  {'code':>6}")
    for name, raw, code in rows:
        print(f"{name:<{width}}  {raw:>6}  {code:>6}")
    raw_total = sum(raw for _, raw, _ in rows)
    code_total = sum(code for _, _, code in rows)
    print(f"{'total':<{width}}  {raw_total:>6}  {code_total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
