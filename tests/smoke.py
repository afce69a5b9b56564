"""CLI smoke run without pytest, for interpreters that have only ckgeo.

Runs three commands through ``ckgeo.cli.main`` and checks each exit code
and the SHA-256 of its stdout.  From the root of a checkout::

    PYTHONPATH=src python tests/smoke.py

Exits 0 when every command matches, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from ckgeo import cli

# (argv, exit code, SHA-256 of stdout).  The audit digest is the r = 12 one
# that tests/test_cli.py pins; the other two were recorded with it.
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
