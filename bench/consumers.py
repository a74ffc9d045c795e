#!/usr/bin/env python3
"""List public items under crates/*/src that nothing outside their tests names.

An item is a `pub` fn (free or method), const, static, struct, enum,
trait, type alias or union defined in a `.rs` file under `crates/*/src`.
It is listed when its name occurs nowhere in `crates/`, `src/`,
`examples/` or `kopbench/src` apart from its own definition, counting
none of these:

* `use` lines (a multi-line `use` up to its `;`) and comments;
* `#[cfg(test)] mod` blocks and `tests.rs` files;
* `tests/` directories (the root one and every crate's).

This is a report, not a gate. It matches whole words, so a dead item
with a common name (`new`, `len`) is missed whenever any other item of
that name is used, and it cannot tell a test-observation hook (an
accessor only tests read, kept on purpose) from dead code.

    python3 bench/consumers.py               # the working tree
    python3 bench/consumers.py --rev HEAD~1  # a revision instead

The last line of the output is the number of items.

A revision is read with `git ls-tree` and `git show` only; nothing in
the checkout changes. The working tree is every `.rs` file git tracks or
would track (`git ls-files --cached --others --exclude-standard`).
"""

import argparse
import collections
import os
import re
import subprocess
import sys

TREES = ["crates/", "src/", "examples/", "kopbench/src/"]

DEF = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|const|static|struct|enum|trait|type|union)\s+(?:mut\s+)?([A-Za-z_]\w*)"
)
WORD = re.compile(r"[A-Za-z_]\w*")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
MOD = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+\w+\s*\{")
USE = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?use\s")


def git(root, *args):
    return subprocess.run(
        ["git", "-C", root, *args], check=True, capture_output=True, text=True
    ).stdout


def counted(path):
    """Whether a file is part of the corpus at all."""
    if not path.endswith(".rs") or not any(path.startswith(t) for t in TREES):
        return False
    parts = path.split("/")
    return "tests" not in parts[:-1] and parts[-1] != "tests.rs"


def code_lines(text):
    """Yield `(line number, code)` for every line that counts.

    Drops comments, `use` statements and `#[cfg(test)] mod` blocks.
    Block comments and braces inside string literals are not parsed:
    the workspace writes neither in a way that matters here.
    """
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if CFG_TEST.match(line) and i + 1 < len(lines) and MOD.match(lines[i + 1]):
            depth = 0
            i += 1
            while i < len(lines):
                depth += lines[i].count("{") - lines[i].count("}")
                i += 1
                if depth <= 0:
                    break
            continue
        if USE.match(line):
            while i < len(lines) and ";" not in lines[i]:
                i += 1
            i += 1
            continue
        code = line.split("//", 1)[0]
        if code.strip():
            yield i + 1, code
        i += 1


def audit(files):
    """`files` maps path -> text. Returns the unconsumed definitions."""
    defs = []
    uses = collections.Counter()
    for path, text in files.items():
        in_crate_src = re.match(r"crates/[^/]+/src/", path) is not None
        for lineno, code in code_lines(text):
            uses.update(WORD.findall(code))
            m = DEF.match(code) if in_crate_src else None
            if m:
                defs.append((path, lineno, m.group(1), m.group(2)))
    per_name = collections.Counter(name for _, _, _, name in defs)
    return sorted(d for d in defs if uses[d[3]] <= per_name[d[3]])


def worktree(root):
    paths = git(root, "ls-files", "--cached", "--others", "--exclude-standard", "--", *TREES)
    files = {}
    for path in paths.splitlines():
        full = os.path.join(root, path)
        if counted(path) and os.path.exists(full):
            with open(full, encoding="utf-8", errors="replace") as f:
                files[path] = f.read()
    return files


def revision(root, rev):
    paths = git(root, "ls-tree", "-r", "--name-only", rev, "--", *TREES)
    return {p: git(root, "show", f"{rev}:{p}") for p in paths.splitlines() if counted(p)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="audit this revision instead of the working tree")
    args = parser.parse_args()
    root = git(os.getcwd(), "rev-parse", "--show-toplevel").strip()
    files = revision(root, args.rev) if args.rev else worktree(root)
    items = audit(files)
    for path, lineno, kind, name in items:
        print(f"{path}:{lineno}: {kind} {name}")
    print(f"{len(items)} item(s) named only by their own definition")
    return 0


if __name__ == "__main__":
    sys.exit(main())
