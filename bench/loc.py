#!/usr/bin/env python3
"""Count Rust lines per tree of the repository.

A counted line is a non-blank line of a `.rs` file that does not start
with `//` once leading whitespace is stripped (so `///` and `//!` doc
comments are not counted either). Trees: crates/, tests/, shims/,
examples/ and kopbench/src.

    python3 bench/loc.py              # the working tree
    python3 bench/loc.py --rev HEAD~1 # the working tree, that revision,
                                      # and the difference

A revision is read with `git ls-tree` and `git show` only; nothing in
the checkout changes. The working tree is every `.rs` file git tracks or
would track (`git ls-files --cached --others --exclude-standard`).
"""

import argparse
import os
import subprocess
import sys

TREES = ["crates/", "tests/", "shims/", "examples/", "kopbench/src/"]


def count(text):
    return sum(
        1
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("//")
    )


def git(root, *args):
    return subprocess.run(
        ["git", "-C", root, *args], check=True, capture_output=True, text=True
    ).stdout


def tally(paths, read):
    totals = {t: 0 for t in TREES}
    for path in paths:
        if not path.endswith(".rs"):
            continue
        tree = next((t for t in TREES if path.startswith(t)), None)
        if tree is not None:
            totals[tree] += count(read(path))
    return totals


def worktree(root):
    paths = git(root, "ls-files", "--cached", "--others", "--exclude-standard", "--", *TREES)

    def read(path):
        full = os.path.join(root, path)
        if not os.path.exists(full):
            return ""
        with open(full, encoding="utf-8", errors="replace") as f:
            return f.read()

    return tally(paths.splitlines(), read)


def revision(root, rev):
    paths = git(root, "ls-tree", "-r", "--name-only", rev, "--", *TREES)
    return tally(paths.splitlines(), lambda path: git(root, "show", f"{rev}:{path}"))


def row(label, totals, signed=False):
    fmt = "{:>+14,}" if signed else "{:>14,}"
    return f"{label:<16}" + "".join(fmt.format(totals[t]) for t in TREES)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="also count this revision and print the difference")
    args = parser.parse_args()
    root = git(os.getcwd(), "rev-parse", "--show-toplevel").strip()
    print(f"{'':<16}" + "".join(f"{t.rstrip('/'):>14}" for t in TREES))
    now = worktree(root)
    print(row("working tree", now))
    if args.rev:
        then = revision(root, args.rev)
        print(row(args.rev[:16], then))
        print(row("difference", {t: now[t] - then[t] for t in TREES}, signed=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
