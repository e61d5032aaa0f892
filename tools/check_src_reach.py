#!/usr/bin/env python3
"""Fail when src/ holds a header, or a function, that no production path reaches.

Usage:
    check_src_reach.py [REPO_ROOT]
    check_src_reach.py --symbols BUILD_DIR PERFBENCH_BUILD_DIR [REPO_ROOT]

The production paths are the noisewin CLI and daemon (tools/), the bench/
experiment binaries and the perfbench/ pipeline benchmark
(perfbench/src/). Tests and examples are not roots: code only they use
belongs under tests/.

Header mode (the default): starting from every C++ file under those roots,
the script follows `#include "..."` edges into src/. A reached header also
brings in the source file beside it (src/a/b.hpp -> src/a/b.cpp), whose
includes are followed in turn. Exits 1 and names every src/**/*.hpp left
unreached.

Symbol mode: BUILD_DIR is a build of the root project and
PERFBENCH_BUILD_DIR one of perfbench/, both configured with
`-O0 -fno-inline -ffunction-sections` and linked with `-Wl,--gc-sections`,
so every function sits in its own section and the linker drops each one no
caller reaches. The production binaries are the executables built in
BUILD_DIR/tools, BUILD_DIR/bench and PERFBENCH_BUILD_DIR. Every nw::
function that an object built from src/ defines (nm type T or W) must be
defined in one of them; the script exits 1 naming each that is not and is
not listed in tools/src_symbols_allow.txt. An allowlist entry that names a
function which is linked, or which src/ no longer defines, fails too.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
ROOT_DIRS = ("tools", "bench", "perfbench/src")
CXX_SUFFIXES = (".cpp", ".hpp")
ALLOWLIST = Path("tools/src_symbols_allow.txt")
# Itanium-mangled names declared inside namespace nw: nested names
# (member and namespace functions, operators) and entities local to them.
NW_MANGLED = re.compile(r"^_ZZ?N[rVK]*[RO]?2nw")
SYMBOL_FLAGS = ("-O0", "-fno-inline", "-ffunction-sections", "--gc-sections")


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


def check_headers(repo: Path) -> int:
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


def nm_defined(path: Path):
    """(type, mangled name) of every symbol `path` defines."""
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3:
            yield parts[1], parts[2]


def demangle(names):
    """Demangled `names`, in order. nm -C spells some standard types
    differently, so both sides of the comparison go through c++filt."""
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def require_symbol_flags(build: Path):
    """Exit unless `build` compiles and links with SYMBOL_FLAGS."""
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        sys.exit(f"check_src_reach: {build} is not a CMake build directory")
    entries = dict(re.findall(r"^(\w+):\w+=(.*)$", cache.read_text(), re.MULTILINE))
    kind = entries.get("CMAKE_BUILD_TYPE", "").upper()
    words = " ".join(entries.get(key + suffix, "")
                     for key in ("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS")
                     for suffix in ("", "_" + kind)).split()
    missing = [f for f in SYMBOL_FLAGS if not any(f in word for word in words)]
    if missing:
        sys.exit(f"check_src_reach: {build} was not configured with {' '.join(missing)}; "
                 "dead functions would stay linked")


def executables(directory: Path):
    found = []
    for p in sorted(directory.iterdir()):
        if p.is_file() and os.access(p, os.X_OK):
            with p.open("rb") as f:
                if f.read(4) == b"\x7fELF":
                    found.append(p)
    if not found:
        sys.exit(f"check_src_reach: no executables in {directory}; build the production "
                 "targets first")
    return found


def read_allowlist(repo: Path):
    """{demangled name: reason} from the committed allowlist."""
    allowed = {}
    path = repo / ALLOWLIST
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" # ")
        if not sep or not reason.strip():
            sys.exit(f"check_src_reach: {ALLOWLIST}:{n}: an entry is '<function> # <reason>'")
        allowed[name.strip()] = reason.strip()
    return allowed


def check_symbols(repo: Path, build: Path, perfbench_build: Path) -> int:
    for b in (build, perfbench_build):
        require_symbol_flags(b)
    binary_dirs = {"tools": build / "tools", "bench": build / "bench",
                   "perfbench/src": perfbench_build}
    assert set(binary_dirs) == set(ROOT_DIRS)
    linked = set()
    binaries = [exe for d in binary_dirs.values() for exe in executables(d)]
    for exe in binaries:
        linked.update(demangle(name for _, name in nm_defined(exe)))

    objects = sorted((build / "src").rglob("*.o"))
    if not objects:
        sys.exit(f"check_src_reach: no objects under {build / 'src'}")
    defined = {}  # demangled name -> first object defining it
    for obj in objects:
        mangled = [name for kind, name in nm_defined(obj)
                   if kind in "TW" and NW_MANGLED.match(name)]
        for name in demangle(mangled):
            defined.setdefault(name, obj)

    allowed = read_allowlist(repo)
    unlinked = sorted((name for name in defined if name not in linked),
                      key=lambda name: (str(defined[name]), name))
    failures = 0
    for name in unlinked:
        if name in allowed:
            continue
        source = re.sub(r"CMakeFiles/[^/]+\.dir/", "",
                        defined[name].relative_to(build).as_posix().removesuffix(".o"))
        print(f"check_src_reach: {name} ({source}) is linked by no production binary")
        failures += 1
    for name in sorted(allowed):
        if name not in defined:
            print(f"check_src_reach: {ALLOWLIST}: {name} is not defined under src/; "
                  "drop its entry")
            failures += 1
        elif name in linked:
            print(f"check_src_reach: {ALLOWLIST}: {name} is linked by a production binary; "
                  "drop its entry")
            failures += 1
    if failures:
        print(f"check_src_reach: {failures} problem(s); delete each unlinked function, "
              f"move it under tests/, or list it with its reason in {ALLOWLIST}")
        return 1
    print(f"check_src_reach: {len(defined) - len(allowed)} nw:: functions built from src/ "
          f"are linked by the {len(binaries)} production binaries, {len(allowed)} more "
          f"allowlisted in {ALLOWLIST}")
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] == "--symbols":
        if len(args) not in (3, 4):
            sys.exit(__doc__)
        repo = Path(args[3] if len(args) == 4 else Path(__file__).parent.parent).resolve()
        return check_symbols(repo, Path(args[1]).resolve(), Path(args[2]).resolve())
    if len(args) > 1:
        sys.exit(__doc__)
    repo = Path(args[0] if args else Path(__file__).parent.parent).resolve()
    return check_headers(repo)


if __name__ == "__main__":
    sys.exit(main())
