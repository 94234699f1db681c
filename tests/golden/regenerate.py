"""Rewrite ``records.json``, the golden run records of the mostinf commands.

Each command of ``CORPUS`` runs in-process through ``mostinf.cli.main``, in
order, in one working directory that holds the fixture tables.  Its entry
keeps the argv, the exit code, the stdout bytes with the ``wall_time_ms``
field taken out, and, for a command with ``--checkpoint``, the checkpoint
file's bytes after the run (the second of two equal slice commands resumes
the first).  Stderr is not kept.  The numpy and scipy versions are stored
beside the records, since float results can depend on the build.

``tests/test_golden.py`` runs the corpus again and compares.  A change that
moves a record on purpose runs this script and names each moved record::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

RECORDS = Path(__file__).with_name("records.json")

FIXTURES = {"table.tt": "n=3 conv=zero_one\n01101001\n",
            "multi.tt": "n=2 k=2\n0 1 2 3\n"}

_SLICE = ["boolean", "verify", "--n", "5", "--alpha", "0.3", "--chunk",
          "1024", "--max-chunks", "2", "--checkpoint", "scan.json"]

CORPUS = [
    # The README's examples.
    ["boolean", "verify", "--n", "4", "--alpha", "0.1"],
    ["boolean", "mi", "--tt", "table.tt", "--alpha", "0.2"],
    ["boolean", "family", "--kind", "and_k", "--n", "4", "--k", "2",
     "--alpha", "0.2"],
    ["boolean", "perfect-code", "--alpha", "0.1"],
    ["boolean", "lex-failure", "--k", "10", "--n", "1000", "--alpha", "0.49"],
    ["boolean", "taylor", "--n", "8", "--trials", "200", "--seed", "1"],
    ["sphere", "polarize-check", "--grid", "64", "--rho", "0.7", "--psi",
     "neg-entropy", "--trials", "100", "--seed", "7"],
    ["sphere", "rearrange", "--grid", "64", "--rho", "0.7", "--steps", "500",
     "--format", "csv"],
    ["sphere", "mc", "--dim", "4", "--points", "2000", "--seed", "3"],
    ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.6", "--seed",
     "4"],
    ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5", "--spec",
     "[[-0.6745, 0.6745]]"],
    ["gauss", "kernel-limit", "--n", "2", "--rho", "0.5", "--bigN",
     "50,200,1000", "--format", "csv"],
    ["gauss", "factor-check", "--bigN", "9", "--n", "2", "--seed", "3"],
    # Scans: every n <= 4 in json and csv, and an n = 5 slice resumed.
    *[["boolean", "verify", "--n", str(n), "--alpha", alpha, *fmt]
      for n in (2, 3, 4) for alpha in ("0.1", "0.3")
      for fmt in ([], ["--format", "csv"])],
    _SLICE,
    _SLICE,
    [*_SLICE[:-4], "--max-chunks", "0", "--checkpoint", "scan.json"],
    ["boolean", "verify", "--n", "7", "--alpha", "0.1"],
    # The other boolean commands and every family kind.
    ["boolean", "mi", "--tt", "table.tt", "--alpha", "0.45", "--format",
     "csv"],
    ["boolean", "mi", "--tt", "multi.tt", "--alpha", "0.2", "--multi", "2"],
    ["boolean", "family", "--kind", "dictator", "--n", "5", "--i", "2",
     "--alpha", "0.3"],
    ["boolean", "family", "--kind", "and_k", "--n", "6", "--k", "3",
     "--alpha", "0.1"],
    ["boolean", "family", "--kind", "lex", "--n", "5", "--count", "7",
     "--alpha", "0.2"],
    ["boolean", "family", "--kind", "hamming_ball", "--n", "4", "--ones",
     "5", "--alpha", "0.2"],
    ["boolean", "family", "--kind", "majority", "--n", "5", "--alpha", "0.1"],
    ["boolean", "perfect-code", "--alpha", "0.3"],
    ["boolean", "lex-failure", "--k", "3", "--n", "40", "--alpha", "0.1"],
    ["boolean", "lex-failure", "--k", "8", "--n", "10", "--alpha", "0.3"],
    ["boolean", "lex-failure", "--k", "3", "--n", "3", "--alpha", "0"],
    ["boolean", "lex-failure", "--k", "1", "--n", "1", "--alpha", "0.2"],
    ["boolean", "taylor", "--n", "4", "--trials", "20", "--seed", "2"],
    # Sphere: every psi on several grids, rearrangements, samples.
    *[["sphere", "polarize-check", "--grid", grid, "--rho", rho, "--psi",
       psi, "--trials", "3", "--seed", "5"]
      for grid in ("8", "16", "64") for rho in ("0.3", "0.7")
      for psi in ("neg-entropy", "square", "abs:1.5")],
    ["sphere", "polarize-check", "--grid", "256", "--rho", "0.5", "--psi",
     "square", "--trials", "1", "--seed", "2"],
    ["sphere", "polarize-check", "--grid", "5794", "--rho", "0.3",
     "--trials", "1"],
    *[["sphere", "rearrange", "--grid", grid, "--rho", rho, "--steps",
       "60", "--seed", "4", *fmt]
      for grid, rho in (("16", "0.5"), ("128", "0.3"))
      for fmt in ([], ["--format", "csv"])],
    ["sphere", "rearrange", "--grid", "8", "--rho", "0.4", "--steps", "5"],
    ["sphere", "rearrange", "--grid", "8", "--rho", "0.9"],
    *[["sphere", "mc", "--dim", str(dim), "--points", "300", "--rho", rho,
       "--seed", "1"]
      for dim in range(3, 8) for rho in ("0.3", "0.95")],
    ["sphere", "mc", "--dim", "7", "--points", "600", "--rho", "0.95",
     "--seed", "7"],
    ["sphere", "mc", "--dim", "300", "--points", "2"],
    ["sphere", "mc", "--dim", "800", "--points", "2"],
    # Gaussian space.
    ["gauss", "halfspace-vs", "--measure", "0.3", "--rho", "0.8", "--pieces",
     "5", "--seed", "2"],
    ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5", "--spec",
     "[[-2.0, -1.0], [0.5, 1.5]]"],
    ["gauss", "halfspace-vs", "--measure", "nan", "--rho", "0.5", "--spec",
     "[[-0.6745, 0.6745]]"],
    ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5", "--spec",
     "[[true, 2]]"],
    ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5", "--spec",
     "null"],
    ["gauss", "kernel-limit", "--n", "3", "--rho", "0.3", "--bigN",
     "100,400"],
    ["gauss", "kernel-limit", "--n", "2", "--rho", "0.5", "--bigN",
     "1000,200,50"],
    ["gauss", "factor-check", "--bigN", "20", "--n", "3", "--trials", "5",
     "--samples", "500", "--seed", "1"],
    ["gauss", "factor-check", "--bigN", "20", "--n", "12"],
]


def environment() -> dict:
    """The versions that the record bytes may depend on."""
    return {"numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy")}


def run_corpus(workdir: Path) -> list:
    """Run every command of CORPUS in ``workdir``; one entry for each."""
    from mostinf import cli

    for name, text in FIXTURES.items():
        (workdir / name).write_text(text)
    entries = []
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in CORPUS:
            out = io.TextIOWrapper(io.BytesIO())
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            record = re.sub(rb',"wall_time_ms":\d+', b"",
                            out.buffer.getvalue())
            entry = {"argv": argv, "exit": code, "record": record.decode()}
            if "--checkpoint" in argv:
                path = Path(argv[argv.index("--checkpoint") + 1])
                entry["checkpoint"] = path.read_text()
            entries.append(entry)
    finally:
        os.chdir(home)
    return entries


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        entries = run_corpus(Path(tmp))
    RECORDS.write_text(json.dumps(
        {"environment": environment(), "records": entries}, indent=1) + "\n")
    codes = sorted({e["exit"] for e in entries})
    print(f"wrote {len(entries)} records (exit codes {codes}) to {RECORDS}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
