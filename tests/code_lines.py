"""Count the code lines of each src/greedybandit module.

A code line holds at least one token that is not a comment and not part of
a docstring (the string that opens a module, class or function body); blank
lines, comment lines and docstring lines do not count.

    python tests/code_lines.py          # the working tree
    python tests/code_lines.py REF      # also REF's counts and the difference

Tier-1 does not collect this file: it is a tool, not a test.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/greedybandit"


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def working_tree() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def at_ref(ref: str) -> dict[str, str]:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout
    names = git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {name: git("show", f"{ref}:{PACKAGE}/{name}")
            for name in sorted(names) if name.endswith(".py")}


def counts(sources: dict[str, str]) -> dict[str, int]:
    return {name: code_lines(src) for name, src in sources.items()}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    now = counts(working_tree())
    if not argv:
        for name, n in now.items():
            print(f"{name:16s} {n:5d}")
        print(f"{'total':16s} {sum(now.values()):5d}")
        return 0
    ref = argv[0]
    then = counts(at_ref(ref))
    print(f"{'module':16s} {ref[:10]:>10s} {'now':>6s} {'diff':>6s}")
    for name in sorted(then.keys() | now.keys()):
        a, b = then.get(name, 0), now.get(name, 0)
        print(f"{name:16s} {a:10d} {b:6d} {b - a:+6d}")
    a, b = sum(then.values()), sum(now.values())
    print(f"{'total':16s} {a:10d} {b:6d} {b - a:+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
