#!/usr/bin/env python3
"""Check the [[file:line]] anchors in the architecture notes.

Every anchor must name a file that exists and, when it gives a line, a line
inside that file. An anchor that follows a backticked name, as in

    `Medium` [[src/phy/medium.hpp:67]]
    `build_peer_index` in [[src/phy/medium.cpp:206]]

must also point at a line holding the name's last identifier (`run_until`
for `Simulator::run_until`); without a line number, the file must hold it.

Usage: python3 docs/check_anchors.py [markdown file ...]
(default: docs/ARCHITECTURE.md). Paths in anchors are relative to the
repository root. Prints each broken anchor and exits 1 if there is one.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ANCHOR = re.compile(r"\[\[([^\]:]+)(?::(\d+))?\]\]")
# A backticked name, at most one plain word (`MediumClient` interface), an
# optional opening parenthesis, then the anchor.
NAMED = re.compile(r"`([^`]+)`(?:\s+\w+)?\s*\(?\s*$")
IDENT = re.compile(r"[A-Za-z_]\w*")


def check(doc):
    text = doc.read_text()
    errors, named = [], 0
    for m in ANCHOR.finditer(text):
        path, line = m.group(1), m.group(2)
        where = f"{doc.name}:{text.count(chr(10), 0, m.start()) + 1}"
        if path == "file":  # the notation itself, in the preamble
            continue
        target = ROOT / path
        if not target.is_file():
            errors.append(f"{where}: [[{path}]] names no file")
            continue
        lines = target.read_text().splitlines()
        if line is not None and not 1 <= int(line) <= len(lines):
            errors.append(f"{where}: {path} has no line {line}")
            continue
        name = NAMED.search(text, max(0, m.start() - 200), m.start())
        if name is None:
            continue
        named += 1
        ident = IDENT.findall(name.group(1))[-1]
        word = re.compile(rf"\b{ident}\b")
        if line is None:
            if not any(word.search(l) for l in lines):
                errors.append(f"{where}: `{ident}` is not in {path}")
        elif not word.search(lines[int(line) - 1]):
            errors.append(f"{where}: `{ident}` is not on {path}:{line}")
    return errors, named


def main(argv):
    docs = [pathlib.Path(a) for a in argv] or [ROOT / "docs/ARCHITECTURE.md"]
    failed = False
    for doc in docs:
        errors, named = check(doc)
        for e in errors:
            print(e)
        print(f"{doc.name}: {named} named anchors, {len(errors)} broken")
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
