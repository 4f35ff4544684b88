#!/usr/bin/env python3
"""Fail when the tuner's decision path calls libm.

    python3 .github/libm_lint.py DIR...

Scans every .ml file under each DIR, outside comments, strings and
character literals, for `**`, `Float.pow` and the transcendental functions
(exp, log, cos, ...), bare or qualified by Float or Stdlib. Their results
may differ in the last bit between C libraries, and a split or a ranking
that reads one can move a fixed-seed winner. `sqrt` is allowed: IEEE 754
rounds it correctly everywhere. Prints each use as FILE:LINE and exits 1
when there is any.
"""

import os
import re
import sys

FUNCTIONS = (
    "pow exp exp2 expm1 log log10 log1p log2 cos sin tan acos asin atan atan2 "
    "cosh sinh tanh acosh asinh atanh hypot cbrt erf erfc"
).split()
USE = re.compile(
    r"\*\*|(?<![\w'.~?])(?:(?:Float|Stdlib)\.)?(?:" + "|".join(FUNCTIONS) + r")(?![\w'])"
)
QUOTED = re.compile(r"\{([a-z_]*)\|")


def code_only(text):
    """The text with comments, strings and char literals blanked, newlines kept."""
    out = list(text)
    i, n, depth = 0, len(text), 0

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def skip_string(i):
        j = i + 1
        while j < n and text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1

    while i < n:
        if text.startswith("(*", i):
            depth += 1
            blank(i, i + 2)
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            blank(i, i + 2)
            i += 2
        elif text[i] == '"':
            j = skip_string(i)
            blank(i, j)
            i = j
        elif QUOTED.match(text, i):
            m = QUOTED.match(text, i)
            end = text.find("|" + m.group(1) + "}", m.end())
            j = n if end < 0 else end + len(m.group(1)) + 2
            blank(i, j)
            i = j
        elif text[i] == "'" and re.match(r"'(\\.[^']*|[^\\'])'", text[i:]):
            j = i + re.match(r"'(\\.[^']*|[^\\'])'", text[i:]).end()
            blank(i, j)
            i = j
        else:
            if depth:
                blank(i, i + 1)
            i += 1
    return "".join(out)


def main(dirs):
    found = []
    for d in dirs:
        for root, _, files in os.walk(d):
            for f in sorted(files):
                if not f.endswith(".ml"):
                    continue
                path = os.path.join(root, f)
                with open(path, encoding="utf-8") as fh:
                    code = code_only(fh.read())
                for lineno, line in enumerate(code.split("\n"), 1):
                    for m in USE.finditer(line):
                        found.append(f"{path}:{lineno}: {m.group(0)}")
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} libm call(s) on the tuner's decision path", file=sys.stderr)
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
