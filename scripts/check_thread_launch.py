#!/usr/bin/env python3
"""Fail if a std::thread is constructed in include/, bench/ or tests/
anywhere other than run_workers (include/pcq/util/in_flight.hpp).

    python3 scripts/check_thread_launch.py        # from the repo root

Every thread the library, the benches and the tests start is a
run_workers worker, so how threads start (and, later, where they are
placed) is decided in one place. std::thread::hardware_concurrency,
std::thread::id and std::this_thread are allowed anywhere; comments are
skipped. Prints each offending file:line and exits 1; exits 0 otherwise.
Standard library only.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("include", "bench", "tests")
LAUNCHER = Path("include/pcq/util/in_flight.hpp")

# std::thread or std::jthread as a type, not followed by "::" (which
# names a static member or nested type such as hardware_concurrency).
THREAD = re.compile(r"\bstd::j?thread\b(?!\s*::)")
COMMENT = re.compile(r"//.*?$|/\*.*?\*/", re.S | re.M)


def code_lines(text):
    """The file's lines with comments blanked, line numbers kept."""
    return COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), text).split("\n")


def launcher_body(lines):
    """Line indices of run_workers' definition, from its signature to the
    closing brace in column 0."""
    start = next(i for i, l in enumerate(lines) if "void run_workers(" in l)
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("}"))
    return range(start, end + 1)


def main():
    offences = []
    for top in DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".h") or not path.is_file():
                continue
            rel = path.relative_to(ROOT)
            lines = code_lines(path.read_text())
            allowed = launcher_body(lines) if rel == LAUNCHER else range(0)
            for i, line in enumerate(lines):
                if THREAD.search(line) and i not in allowed:
                    offences.append(f"{rel}:{i + 1}: {line.strip()}")
    if offences:
        print("std::thread constructed outside run_workers:")
        print("\n".join(offences))
        return 1
    print("OK: every thread in include/, bench/ and tests/ starts in run_workers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
