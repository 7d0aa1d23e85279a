#!/usr/bin/env python3
"""Print one digest line per geoflow command line: the SHA-256 of the
canonical report that ``--out`` writes, the exit code and the command.

Usage: python scripts/report_digest.py [FILE ...]

Reads command lines, one per line, from the files or from standard input;
a leading ``geoflow`` is optional, and blank lines and lines starting with
``#`` are skipped.  Each command runs in this process through ``cli.main``
with ``--out`` pointing into a temporary directory.  Two builds give the
same reports exactly when their digest files do not ``diff``.  A command
that writes no report (an input error) gets ``-`` as its digest.
"""

import contextlib
import fileinput
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

from geoflow import cli


def digest(argv):
    """(sha256 of the canonical report or "-", exit code) of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "report"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main([*argv, "--out", str(prefix)])
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        report = prefix.with_suffix(".json")
        return (hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else "-"), code


def main(files):
    for line in fileinput.input(files):
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["geoflow"]:
            argv = argv[1:]
        if argv:
            sha, code = digest(argv)
            print(f"{sha}  {code}  {shlex.join(argv)}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
