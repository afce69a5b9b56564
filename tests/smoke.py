"""CLI smoke run without pytest, for interpreters that have only ckgeo.

Runs twenty-four commands through ``ckgeo.cli.main`` and checks each exit code
and the SHA-256 of its stdout.  From the root of a checkout::

    PYTHONPATH=src python -X dev -W error tests/smoke.py

Exits 0 when every command matches, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from ckgeo import cli

# (argv, exit code, SHA-256 of stdout).  The audit digest is the r = 12 one
# that tests/test_cli.py pins; the orbit and first check-theorem2 digests were
# recorded with it.  The render digest is that of tests/golden/std_m4_2_4.svg;
# the next case has more geodesics than the default cap and prints nothing.
# The next two run the rank-2 controls, klein and z2.  The JSON
# check-theorem2 digest, recorded with the string move engine, pins every
# edge's site and order; an unreduced orbit word exits 2 and prints nothing.
# The std digest, recorded with the per-letter formatter, is that of
# "a^10000000"; ``--out`` without ``--export`` exits 2 and prints nothing.
# The last three print nothing either: a budget below the identity's one
# state exits 3, an unmatched parenthesis exits 2, and the orbit of (ab)^300,
# whose element has a 178-digit geodesic count, exits 3 before any walk.
# The ck negative control exits 5 with the digest tests/test_cli.py pins, and
# a 2001 x 2001 render grid is over the drawing budget: exit 3, no output.
# The z2 negative control exits 5; its digest was recorded before the
# language suite evaluated words from their prefixes.  The million-letter
# --young render is refused from its run boxes: exit 3, no output.  The last
# std prints a ten-billion-letter word from its runs, without building it.
# The second JSON check-theorem2, recorded before the edges were grouped by
# source, pins a detour element's 16 detowering edges and 10 reflections.
# A radius-1000 ball is over the state budget, which is decided in closed
# form before any search: exit 3, no output.  The last JSON check-theorem2,
# recorded before the enumeration met in the middle, pins all 1,050
# geodesics of a length-15 element, whose words split 7 + 8.  The radius-24
# audit, recorded before the closed-form checks read the local Δ table, pins
# the benchmark's own audit byte for byte.  The last check-theorem2 is past
# the ball budget, but its one geodesic is the whole orbit, so it is decided
# by counting with no ball: exit 0, "element=(0,0,300) length=300
# geodesics=1 orbit=1 connected=true".
CASES = [
    (
        ["audit", "--radius", "12"],
        0,
        "461dde03a3bb23868306b8b9cb3196f0816b1f1ae9353f9debdaab408fd730d4",
    ),
    (
        ["check-theorem2", "(2,1,3)"],
        0,
        "41276b9f438241ee0d99df91b5e275385d075450c7e9410610f3961f41356eca",
    ),
    (
        ["orbit", "aabab"],
        0,
        "ace3e6864b2fb213bd09ef8a46970bb09a10abe39e825df922cbe8cb81a1b123",
    ),
    (
        ["render", "b^-2 a b^-4 a^3", "--cells", "--young"],
        0,
        "05e6b545671e4675c6b14d0b9b37f717fbd01daddc5d923e991a61dba6993575",
    ),
    (
        ["check-theorem2", "(1000000,1000000,1000000)"],
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["ball", "10", "--model", "klein"],
        0,
        "d3f5eb3eb8efefa5494e00eb5522bdf651aafae759f59ff1f05db93841cc65bd",
    ),
    (
        ["audit", "--model", "z2", "--radius", "8"],
        0,
        "1e66d9ba85825ad597e7969db5ddc6534687c00c33133d6d33f44f16d578457a",
    ),
    (
        ["check-theorem2", "(-1,3,4)", "--json"],
        0,
        "61cde931b424fed7dd4b8fd24428ca207e53253deac2f14c93998242cb0ce3ab",
    ),
    (
        ["orbit", "bBaa"],
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["std", "(0,0,10000000)"],
        0,
        "1733d7da6ae9ddca38ebc91fc6f39703f7ec55dc0ea0c43c73173facd71cb8b6",
    ),
    (
        ["ball", "2", "--out", os.path.join(tempfile.gettempdir(), "ckgeo-smoke-ball.csv")],
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["ball", "0", "--max-states", "0"],
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["len", "(1,2,3"],
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["orbit", "ab" * 300],
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["audit", "--model", "ck", "--radius", "8", "--negative-control"],
        5,
        "14d28c497615f80389ca938cba97b3e52fbc6056c8ef21062a3fb6ac85f7df92",
    ),
    (
        ["render", "a^2000 b^2000", "--cells"],
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["audit", "--model", "z2", "--radius", "8", "--negative-control"],
        5,
        "4aeb94edd48d265eb6829f88ebe184788dfce70f8d361d0cb69848220790a0a7",
    ),
    (
        ["render", "a^1000000 b^1000000", "--young"],
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["std", "(3,-7,10000000000)"],
        0,
        "4dc7722516524da15bf929a2d660e4049bf3ce112ae9063a61ddb1d5c13171f4",
    ),
    (
        ["check-theorem2", "(2,2,0)", "--json"],
        0,
        "d596986b6159593d89cd55cae40ce0a1a2386f9aaebf0f1a391f5af36b38b097",
    ),
    (
        ["ball", "1000"],
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["check-theorem2", "(-4,2,9)", "--json"],
        0,
        "98eab69c526e0527bf49da171895d3037eae0936a15008a697de3a8af33a48fc",
    ),
    (
        ["audit", "--radius", "24"],
        0,
        "046812c6a0fc3c610d09a3529687d069cf3e43ff4f9d9ddbeb0a2ae4897a0194",
    ),
    (
        ["check-theorem2", "(0,0,300)"],
        0,
        "4588c7d795f47cca24acdbc9eddf53ef00587ca698c44760351b60f0c2f869bd",
    ),
]


def main() -> int:
    failures = 0
    for argv, code, digest in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        ok = rc == code and got == digest
        failures += not ok
        print(f"{'ok' if ok else 'FAIL'} ckgeo {' '.join(argv)}: exit {rc}, sha256 {got}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
