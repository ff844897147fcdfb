"""Rerun the golden solve traces and report how far they move.

Usage, from the repository root::

    python3 tools/golden_diff.py            # report every golden file
    python3 tools/golden_diff.py --write    # also replace the ones that fail

Each ``tests/golden/<fixture>_eps<eps>.csv`` is the ``trace.csv`` of
``htsolve solve fixtures/<fixture>.ini --eps <eps>``, and each
``st_<fixture>_eps<eps>.csv`` the ``st_trace.csv`` of ``htsolve st-solve``.
The command runs as a child ``python -m htsolve.cli`` process (BLAS on the
CLI's default single thread, as the golden tests run it) writing into a
temporary directory.  For every file the report gives the row counts, each
integer cell that differs, and the largest relative move per float column
with the row where it occurs and both values.
A file fails where ``tests/test_golden.py`` would fail it: a different
header or row count, any integer cell, or a float moved by more than 1e-12
relative.  Integer columns are those whose golden cells all parse as
integers.
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ROOT / "fixtures"
FLOAT_RTOL = 1e-12


def command(name: str) -> tuple[list[str], str]:
    """CLI arguments and trace file name for one golden file name."""
    stem = name[:-len(".csv")]
    fixture, eps = stem.rsplit("_eps", 1)
    if fixture.startswith("st_"):
        return ["st-solve", str(FIXTURES / f"{fixture[3:]}.ini"), "--eps", eps], \
            "st_trace.csv"
    return ["solve", str(FIXTURES / f"{fixture}.ini"), "--eps", eps], "trace.csv"


def read(path: Path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def compare(got_path: Path, want_path: Path) -> tuple[bool, list[str]]:
    """Whether the trace passes against its golden file, and report lines."""
    header, got = read(got_path)
    golden_header, want = read(want_path)
    lines = [f"  rows: {len(got)} (golden {len(want)})"]
    if header != golden_header:
        return False, lines + [f"  header {header} != golden {golden_header}"]
    int_cols = [c for c in header if all(is_int(r[c]) for r in want)]
    float_cols = [c for c in header if c not in int_cols]
    ok = len(got) == len(want)
    for row, (g, w) in enumerate(zip(got, want)):
        for col in int_cols:
            if int(g[col]) != int(w[col]):
                ok = False
                key = ", ".join(f"{c}={w[c]}" for c in int_cols[:2])
                lines.append(f"  row {row} ({key}): {col} {w[col]} -> {g[col]}")
    for col in float_cols:
        worst, where = 0.0, None
        for row, (g, w) in enumerate(zip(got, want)):
            a, b = float(g[col]), float(w[col])
            move = abs(a - b) / abs(b) if b != 0.0 else (0.0 if a == 0.0 else float("inf"))
            if move > worst:
                worst, where = move, row
        ok = ok and worst <= FLOAT_RTOL
        at = "" if where is None else (
            f" (row {where}: {want[where][col]} -> {got[where][col]})")
        lines.append(f"  {col}: largest relative move {worst:.3g}{at}")
    return ok, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", action="store_true",
                   help="replace each failing golden file with the new trace")
    args = p.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    failed = []
    for want_path in sorted(GOLDEN.glob("*.csv")):
        cli_args, trace = command(want_path.name)
        with tempfile.TemporaryDirectory() as tmp:
            run = subprocess.run([sys.executable, "-m", "htsolve.cli", *cli_args,
                                  "--out", tmp], capture_output=True, text=True,
                                 env=env)
            if run.returncode != 0:
                print(f"{want_path.name}: exit {run.returncode}\n{run.stderr}")
                failed.append(want_path.name)
                continue
            ok, lines = compare(Path(tmp) / trace, want_path)
            print(f"{want_path.name}: {'ok' if ok else 'FAILS'}")
            print("\n".join(lines))
            if not ok:
                failed.append(want_path.name)
                if args.write:
                    shutil.copyfile(Path(tmp) / trace, want_path)
                    print(f"  rewrote {want_path.relative_to(ROOT)}")
    print(f"{len(failed)} failing: {', '.join(failed) or '-'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
