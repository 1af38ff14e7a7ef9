#!/usr/bin/env python3
"""Count the source lines of the package, as the ROADMAP measures them.

A line counts when it is not blank and is not a `#` comment; docstrings
count.  Prints the count of each module of src/latquant (or of the package
directory given) and the total.

Usage:
    python scripts/src_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import argparse
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "latquant"


def count_lines(path: Path) -> int:
    """The lines of path that are neither blank nor a `#` comment."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = ap.parse_args(argv)
    counts = {p.name: count_lines(p) for p in sorted(args.package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:<16} {count:>6}")
    print(f"{'total':<16} {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
