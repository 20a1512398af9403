#!/usr/bin/env python3
"""Print the non-test line count of a source tree.

Usage: python3 .github/loc.py <dir>

Counts every `.rs` file under <dir> outside `perfbench/`, `target/`,
`.git/` and `.bench_build/`. Each file is cut at its first top-level
`#[cfg(test)]` line; blank lines and `//` comment lines (doc comments
included) are not counted. Prints the total on one line.
"""

import os
import sys

SKIP = {"perfbench", "target", ".git", ".bench_build"}


def non_test_lines(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.rstrip("\n") == "#[cfg(test)]":
                break
            s = line.strip()
            if s and not s.startswith("//"):
                n += 1
    return n


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: loc.py <dir>")
    root = sys.argv[1]
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        if dirpath == root:
            dirnames[:] = [d for d in dirnames if d not in SKIP]
        total += sum(
            non_test_lines(os.path.join(dirpath, f)) for f in filenames if f.endswith(".rs")
        )
    print(total)


if __name__ == "__main__":
    main()
