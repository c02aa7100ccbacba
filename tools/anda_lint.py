#!/usr/bin/env python3
"""Repo-convention linter (registered as the `anda_lint` ctest and run
by the lint CI job).

Rules enforced:

  include-root   Quoted #include paths must be src/-rooted: every
                 `#include "X"` in the repo must resolve to src/X.
                 Keeps one canonical spelling per header (no "../"
                 hops, no same-directory shortcuts) so moves are a
                 one-line fix and the include graph greps cleanly.
                 A header sitting next to the including file (test
                 utilities like tests/serve_test_util.h) is allowed,
                 and the smoke tools under tools/ (which have tests/
                 on their include path) may name those utilities the
                 same way.

  no-assert      No bare `assert(...)` under src/. Asserts vanish from
                 every Release build including the sanitizer CI lanes;
                 contracts belong to ANDA_CHECK / ANDA_DCHECK
                 (src/common/check.h), which are exercised there.
                 (static_assert is fine and remains allowed.)

  no-naked-new   No `new` / `delete` expressions under src/. Ownership
                 goes through containers and smart pointers;
                 `= delete` member suppression is of course allowed.

Usage: tools/anda_lint.py [repo-root]   (defaults to the script's
parent directory). Exits 1 with file:line diagnostics on violations.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC_EXTS = {".cpp", ".h"}
# Directories whose quoted includes must resolve under src/.
INCLUDE_DIRS = ("src", "tests", "tools", "bench", "examples")
# Directories where the assert / new / delete bans apply.
CONTRACT_DIRS = ("src",)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")
CASSERT_RE = re.compile(r"^\s*#\s*include\s*[<\"](cassert|assert\.h)[>\"]")
NEW_DELETE_RE = re.compile(r"(?<![\w_])(?:new|delete)(?![\w_])")
DELETED_FN_RE = re.compile(r"=\s*delete\b")


def strip_code(text: str) -> str:
    """Blanks comments, string literals, and char literals, preserving
    line structure so reported line numbers stay accurate."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # Unterminated (never valid); resync.
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def lint_file(path: Path, root: Path, errors: list[str]) -> None:
    rel = path.relative_to(root)
    raw = path.read_text(encoding="utf-8")
    code = strip_code(raw)
    in_src = rel.parts[0] in CONTRACT_DIRS

    # Raw lines for the include check (strip_code blanks the paths).
    for lineno, line in enumerate(raw.splitlines(), start=1):
        m = INCLUDE_RE.match(line)
        if m and not (
            (root / "src" / m.group(1)).is_file()
            or (path.parent / m.group(1)).is_file()
            or (
                rel.parts[0] == "tools"
                and (root / "tests" / m.group(1)).is_file()
            )
        ):
            errors.append(
                f"{rel}:{lineno}: include-root: \"{m.group(1)}\" does "
                f"not resolve under src/ (includes are src/-rooted)"
            )

    if not in_src:
        return
    for lineno, line in enumerate(code.splitlines(), start=1):
        if CASSERT_RE.match(line) or ASSERT_RE.search(line):
            errors.append(
                f"{rel}:{lineno}: no-assert: use ANDA_CHECK / "
                f"ANDA_DCHECK from common/check.h instead of assert"
            )
        if NEW_DELETE_RE.search(DELETED_FN_RE.sub("", line)):
            errors.append(
                f"{rel}:{lineno}: no-naked-new: raw new/delete; use "
                f"containers or smart pointers"
            )


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    root = root.resolve()
    files = []
    for d in INCLUDE_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(
                p for p in sorted(base.rglob("*")) if p.suffix in SRC_EXTS
            )
    errors: list[str] = []
    for path in files:
        lint_file(path, root, errors)
    for e in errors:
        print(e)
    print(
        f"anda_lint: {len(files)} files checked, {len(errors)} violation(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
