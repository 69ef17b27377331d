#!/usr/bin/env python3
"""Check that the knob table in REPRODUCING.md lists exactly the knobs read.

A knob is a `WLAN_*` environment variable. The code reads one where a file
under src/, bench/ or examples/ holds its name as a whole string literal
("WLAN_THREADS"), or where bench/run_all.sh expands it (${WLAN_BENCH_JOBS}).
The documented set is the first column of the "Effort knobs" table in
docs/REPRODUCING.md. CMake options and wlanbench/ are out of scope.

Usage: python3 docs/check_knobs.py
Prints each name that is read but not documented, or documented but read
nowhere, then the knob count, and exits 1 if there is such a name.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LITERAL = re.compile(r'"(WLAN_[A-Z0-9_]+)"')
EXPANSION = re.compile(r"\$\{(WLAN_[A-Z0-9_]+)")
ROW = re.compile(r"\|\s*`(WLAN_[A-Z0-9_]+)`\s*\|")


def read_knobs():
    """Name -> first file that reads it."""
    found = {}
    for top in ("src", "bench", "examples"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                for name in LITERAL.findall(path.read_text(errors="replace")):
                    found.setdefault(name, path.relative_to(ROOT))
    script = ROOT / "bench/run_all.sh"
    for name in EXPANSION.findall(script.read_text()):
        found.setdefault(name, script.relative_to(ROOT))
    return found


def documented_knobs():
    lines = (ROOT / "docs/REPRODUCING.md").read_text().splitlines()
    start = lines.index("## Effort knobs") + 1
    names, in_table = set(), False
    for line in lines[start:]:
        if line.startswith("|"):
            in_table = True
            m = ROW.match(line)
            if m:
                names.add(m.group(1))
        elif in_table or line.startswith("#"):
            break
    return names


def main():
    read = read_knobs()
    documented = documented_knobs()
    for name in sorted(read.keys() - documented):
        print(f"{name}: read in {read[name]}, missing from the knob table")
    for name in sorted(documented - read.keys()):
        print(f"{name}: in the knob table, read nowhere")
    mismatched = len(read.keys() ^ documented)
    print(f"REPRODUCING.md: {len(documented)} runtime knobs documented, "
          f"{len(read)} read, {mismatched} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
