#!/usr/bin/env python3
"""Fail when src/ holds a header that no production path reaches.

Usage:
    check_src_reach.py [REPO_ROOT]

The production paths are the noisewin CLI and daemon (tools/), the bench/
experiment binaries and the perfbench/ pipeline benchmark
(perfbench/src/). Starting from every C++ file there, the script follows
`#include "..."` edges into src/. A reached header also brings in the
source file beside it (src/a/b.hpp -> src/a/b.cpp), whose includes are
followed in turn. Tests and examples are not roots: code only they use
belongs under tests/.

Exits 1 and names every src/**/*.hpp left unreached; exits 0 otherwise.
"""
import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
ROOT_DIRS = ("tools", "bench", "perfbench/src")
CXX_SUFFIXES = (".cpp", ".hpp")


def resolve(repo: Path, including: Path, name: str):
    """The file an `#include "name"` in `including` refers to, or None."""
    for base in (including.parent, repo / "src", repo):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def reached_files(repo: Path):
    pending = [p.resolve() for d in ROOT_DIRS for p in sorted((repo / d).rglob("*"))
               if p.suffix in CXX_SUFFIXES]
    if not pending:
        sys.exit(f"check_src_reach: no C++ sources under {', '.join(ROOT_DIRS)} in {repo}")
    seen = set()
    while pending:
        path = pending.pop()
        if path in seen:
            continue
        seen.add(path)
        if path.suffix == ".hpp":
            source = path.with_suffix(".cpp")
            if source.is_file():
                pending.append(source)
        for name in INCLUDE.findall(path.read_text(encoding="utf-8", errors="replace")):
            target = resolve(repo, path, name)
            if target is not None:
                pending.append(target)
    return seen


def main() -> int:
    repo = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    reached = reached_files(repo)
    headers = sorted(p.resolve() for p in (repo / "src").rglob("*.hpp"))
    orphans = [h for h in headers if h not in reached]
    for h in orphans:
        print(f"check_src_reach: {h.relative_to(repo)} is reached by no production path "
              f"({', '.join(ROOT_DIRS)}); move it under tests/ or delete it")
    if orphans:
        return 1
    print(f"check_src_reach: all {len(headers)} headers under src/ reached from "
          f"{', '.join(ROOT_DIRS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
