"""Solve traces against traces committed from an earlier version.

``tests/golden/<fixture>_eps<eps>.csv`` is the ``trace.csv`` that
``htsolve solve fixtures/<fixture>.ini --eps <eps>`` wrote before.  Integer
columns must match exactly and float columns to 1e-12 relative, so a change
that moves the solver's iterates fails here; such a change regenerates the
files and says why.  The d = 2 traces cover leaves and root only; the d = 3
ones also reach interior transfer nodes (square-root spectral sweep,
interior projection, interior ``apply_cp`` step), and ``diffusion_d3_ml3``
pins a multilevel exp-sum run.  ``tests/golden/st_<fixture>_eps<eps>.csv`` is
likewise the ``st_trace.csv`` of ``htsolve st-solve``; that run builds 19
exp-sum tables of up to 11 terms (from the tabulated near-best sums).

Each run is a child ``python -m htsolve.cli`` process, so BLAS is pinned to
the CLI's default single thread as in the run that wrote the golden file.
In this process numpy may already run BLAS on several threads, which moves
the ``diffusion_d3_ml3`` trace by about 1e-12 relative.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import htsolve

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
INT_COLUMNS = ("k", "j", "max_rank", "total_support")
FLOAT_COLUMNS = ("eta", "res_lo", "res_hi")


def read_trace(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def assert_matches_golden(got_path, golden_name, int_columns, float_columns):
    header, got = read_trace(got_path)
    golden_header, want = read_trace(HERE / "golden" / golden_name)
    assert header == golden_header
    assert sorted(header) == sorted(int_columns + float_columns)
    assert len(got) == len(want)
    for row, (g, w) in enumerate(zip(got, want)):
        for col in int_columns:
            assert int(g[col]) == int(w[col]), (row, col)
        for col in float_columns:
            assert math.isclose(float(g[col]), float(w[col]),
                                rel_tol=1e-12, abs_tol=0.0), (row, col)


def run_cli(*args):
    """Exit code of ``python -m htsolve.cli *args`` run on this package."""
    src = str(Path(htsolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "htsolve.cli", *args],
                          capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}).returncode


def assert_trace_matches_golden(fixture, eps, tmp_path):
    assert run_cli("solve", str(FIXTURES / f"{fixture}.ini"), "--eps", eps,
                   "--out", str(tmp_path)) == 0
    assert_matches_golden(tmp_path / "trace.csv", f"{fixture}_eps{eps}.csv",
                          INT_COLUMNS, FLOAT_COLUMNS)


@pytest.mark.parametrize("fixture", ["diffusion_d2_sine", "parametric_d2"])
def test_trace_matches_golden(fixture, tmp_path):
    assert_trace_matches_golden(fixture, "1e-4", tmp_path)


@pytest.mark.parametrize("fixture,eps", [("parametric_d3", "1e-4"),
                                         ("diffusion_d3_sine", "1e-3"),
                                         ("diffusion_d3_ml3", "1e-2")])
def test_d3_trace_matches_golden(fixture, eps, tmp_path):
    assert_trace_matches_golden(fixture, eps, tmp_path)


def test_st_trace_matches_golden(tmp_path):
    assert run_cli("st-solve", str(FIXTURES / "diffusion_d2_sine.ini"),
                   "--eps", "1e-5", "--out", str(tmp_path)) == 0
    assert_matches_golden(tmp_path / "st_trace.csv",
                          "st_diffusion_d2_sine_eps1e-5.csv",
                          ("n", "max_rank", "halved"), ("alpha", "res_lo", "res_hi"))
