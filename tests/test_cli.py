"""Command-line interface: spec'd examples, artifacts, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htsolve.cli import RunSpec, _build_parser, _pin_threads, main
from htsolve.hsvd import add, norm, random_htensor, scale, to_dense
from htsolve.htree import build_balanced_tree
from htsolve.tensorfile import load_htensor, save_htensor

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DIFFUSION_D3 = str(FIXTURES / "diffusion_d3_sine.ini")
DIFFUSION_D2 = str(FIXTURES / "diffusion_d2_sine.ini")
PARAMETRIC_D2 = str(FIXTURES / "parametric_d2.ini")
PARAMETRIC_D4 = str(FIXTURES / "parametric_d4.ini")
# [problem] keys, without the section header
DIFFUSION_SPEC = ("scenario = diffusion\nd = 2\nbasis = eigensine\nmodes = 5\n"
                  "diffusion_matrix =\n  1.0 0.25\n  0.25 1.0\n")
PARAMETRIC_SPEC = ("scenario = parametric\nintervals = 16\nd = 2\n"
                   "theta = 0.15\ndegree = 5\n")


class TestRunSpec:
    def test_valid_solve_spec(self):
        spec = RunSpec(command="solve", problem="p.ini", eps=1e-3)
        assert spec.threads == 1
        assert not spec.oracle

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError, match="unknown command"):
            RunSpec(command="fit", problem="p.ini", eps=1e-3)

    @pytest.mark.parametrize("eps", [None, 0.0, -1e-3])
    def test_solve_needs_positive_eps(self, eps):
        with pytest.raises(ValueError, match="positive --eps"):
            RunSpec(command="solve", problem="p.ini", eps=eps)
        with pytest.raises(ValueError, match="positive --eps"):
            RunSpec(command="st-solve", problem="p.ini", eps=eps)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        for command in ("solve", "st-solve"):
            with pytest.raises(ValueError, match="positive --eps"):
                RunSpec(command=command, problem="p.ini", eps=eps)
        with pytest.raises(ValueError, match="nonnegative"):
            RunSpec(command="compress", problem="t.ht", eps=eps)

    def test_compress_accepts_zero_eps(self):
        RunSpec(command="compress", problem="t.ht", eps=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            RunSpec(command="compress", problem="t.ht", eps=-0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            RunSpec(command="compress", problem="t.ht", eps=None)

    def test_info_needs_no_eps(self):
        RunSpec(command="info", problem="p.ini")

    def test_threads_validated(self):
        with pytest.raises(ValueError, match="--threads"):
            RunSpec(command="info", problem="p.ini", threads=0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_validated(self, max_iter, tmp_path):
        with pytest.raises(ValueError, match="--max-iter"):
            RunSpec(command="st-solve", problem="p.ini", eps=1e-3,
                    max_iter=max_iter)
        # invalid input (exit 2), not a contraction violation (exit 4)
        code = main(["st-solve", DIFFUSION_D2, "--eps", "1e-3", "--max-iter",
                     str(max_iter), "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown config overrides"):
            RunSpec(command="solve", problem="p.ini", eps=1e-3,
                    overrides={"gamma": 0.1})


class TestPinThreads:
    def test_flag_value_exported(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        _pin_threads(["solve", "p.ini", "--threads", "3"])
        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert os.environ["MKL_NUM_THREADS"] == "3"

    def test_equals_form_and_default(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        _pin_threads(["solve", "p.ini", "--threads=2"])
        assert os.environ["OMP_NUM_THREADS"] == "2"
        _pin_threads(["solve", "p.ini"])  # default pins to 1
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_malformed_value_left_to_parser(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        _pin_threads(["solve", "--threads", "many"])
        assert os.environ["OMP_NUM_THREADS"] == "7"


class TestSolveCommand:
    def test_certificate_meets_requested_eps(self, tmp_path):
        # the worked example: diffusion d=3, eps = 1e-3, certified on exit
        code = main(["solve", DIFFUSION_D3, "--eps", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        lo, hi = report["residual_interval"]
        assert 0.0 <= lo <= hi <= 1e-3
        assert report["final_error_bound"] <= 1e-3
        assert report["eps"] == 1e-3

    def test_outer_iteration_count_matches_schedule(self, tmp_path):
        code = main(["solve", DIFFUSION_D3, "--eps", "1e-2",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        expected = math.ceil(math.log2(report["eps0"] / report["eps"]))
        assert report["outer_iterations"] == expected

    def test_traces_byte_identical_across_runs(self, tmp_path):
        args = ["solve", DIFFUSION_D3, "--eps", "1e-2"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "trace.csv").read_bytes()
        second = (tmp_path / "b" / "trace.csv").read_bytes()
        assert first == second

    def test_trace_has_no_timing_column(self, tmp_path):
        assert main(["solve", PARAMETRIC_D2, "--eps", "1e-2",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "trace.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["k", "j", "eta", "res_lo", "res_hi",
                          "max_rank", "total_support"]

    def test_oracle_cross_check_within_certificate(self, tmp_path, capsys):
        code = main(["solve", PARAMETRIC_D2, "--eps", "1e-2", "--oracle",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "oracle" in l)
        dense_error = float(line.split("=")[1])
        report = json.loads((tmp_path / "report.json").read_text())
        assert dense_error <= report["residual_interval"][1] * (1 + 1e-9)

    def test_tight_tolerance_exit_zero_only_with_true_bound(self, tmp_path):
        # a residual norm taken as sqrt(inner(r, r)) once certified 1.99e-10
        # here against a dense error of 6.71e-10, with exit code 0
        code, dense_error, bound = oracle_solve(PARAMETRIC_D2, "1e-8", tmp_path)
        assert code != 0 or dense_error <= bound

    def test_config_overrides_take_effect(self, tmp_path):
        code = main(["solve", PARAMETRIC_D2, "--eps", "1e-2",
                     "--omega", "0.9", "--beta2", "0.005",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["omega"] == 0.9
        assert report["config"]["beta2"] == 0.005


class TestStSolveCommand:
    def test_artifacts_and_certified_residual(self, tmp_path):
        code = main(["st-solve", DIFFUSION_D2, "--eps", "1e-4",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "st_report.json").read_text())
        assert report["iterations"] == len(report["trace"]) > 0
        lo, hi = report["residual_interval"]
        assert 0.0 <= lo <= hi
        # thresholds only ever shrink
        alphas = [t["alpha"] for t in report["trace"]]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(alphas, alphas[1:]))
        with open(tmp_path / "st_trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "alpha", "max_rank", "res_lo", "res_hi",
                           "halved"]
        assert len(rows) == 1 + report["iterations"]

    def test_step_overrides_reach_the_iteration(self, tmp_path):
        # omega and rho come from solve's configuration, flags applied
        assert main(["st-solve", PARAMETRIC_D2, "--eps", "1e-2",
                     "--out", str(tmp_path / "a")]) == 0
        derived = json.loads((tmp_path / "a" / "st_report.json").read_text())
        rho = 0.5 * (1.0 + derived["xi"])  # a looser contraction bound
        assert main(["st-solve", PARAMETRIC_D2, "--eps", "1e-2",
                     "--omega", repr(derived["omega"]), "--rho", repr(rho),
                     "--out", str(tmp_path / "b")]) == 0
        report = json.loads((tmp_path / "b" / "st_report.json").read_text())
        assert (report["omega"], report["xi"]) == (derived["omega"], rho)


class TestCompressCommand:
    @pytest.fixture()
    def stored(self, tmp_path):
        rng = np.random.default_rng(11)
        h = random_htensor(build_balanced_tree(3), (5, 6, 7), 3, rng)
        path = tmp_path / "input.ht"
        save_htensor(h, path)
        return h, str(path)

    def test_certified_error_holds(self, stored, tmp_path):
        h, path = stored
        code = main(["compress", path, "--eps", "1e-2",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        g = load_htensor(tmp_path / "out" / "compressed.ht")
        payload = json.loads((tmp_path / "out" / "compress.json").read_text())
        true_error = norm(add(h, scale(-1.0, g)))
        assert true_error <= 1e-2
        assert true_error <= payload["certificate"] + 1e-7 * norm(h)
        assert payload["certificate"] <= 1e-2

    def test_dense_npy_input(self, tmp_path):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((4, 5, 6))
        path = tmp_path / "dense.npy"
        np.save(path, data)
        code = main(["compress", str(path), "--eps", "0.3",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        g = load_htensor(tmp_path / "out" / "compressed.ht")
        assert np.linalg.norm(to_dense(g) - data) <= 0.3

    def test_tolerance_above_norm_yields_zero_tensor(self, stored, tmp_path):
        # the worked example: eta >= the stored norm compresses to zero and
        # the certificate reports exactly that norm
        h, path = stored
        eta = 2.0 * norm(h)
        code = main(["compress", path, f"--eps={eta}",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        g = load_htensor(tmp_path / "out" / "compressed.ht")
        assert set(g.ranks) == {0}
        assert norm(g) == 0.0
        payload = json.loads((tmp_path / "out" / "compress.json").read_text())
        assert payload["certificate"] == norm(h)
        assert payload["output_ranks"] == [0, 0, 0]

    def test_wrong_mode_count_rejected(self, stored, tmp_path):
        # a 3-mode file whose header lists two mode sizes
        _, path = stored
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw.replace(b"dims 5 6 7", b"dims 5 6", 1))
        code = main(["compress", path, "--eps", "1e-2",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out" / "compress.json").exists()


    def test_false_orthogonal_flag_not_trusted(self, tmp_path):
        # a non-orthogonal tensor saved with the flag set once got a
        # certificate (0.614) below its true truncation error (0.719); the
        # flag is never trusted, so the sweep orthogonalizes it first
        rng = np.random.default_rng(3)
        h = random_htensor(build_balanced_tree(3), (5, 6, 7), 4, rng)
        path = tmp_path / "lie.ht"
        save_htensor(h, path)
        raw = path.read_bytes()
        assert b"orthogonal 0\n" in raw
        path.write_bytes(raw.replace(b"orthogonal 0\n", b"orthogonal 1\n", 1))
        eta = 0.7110708013164879
        code = main(["compress", str(path), "--eps", str(eta),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        g = load_htensor(tmp_path / "out" / "compressed.ht")
        payload = json.loads((tmp_path / "out" / "compress.json").read_text())
        dense_error = np.linalg.norm(to_dense(g) - to_dense(h))
        assert dense_error <= payload["certificate"] <= eta

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 0, 4)])
    def test_empty_mode_npy_rejected(self, tmp_path, shape, capsys):
        # a size-0 mode once compressed to "certified error <= 0" and wrote a
        # compressed.ht that load_htensor rejected
        path = tmp_path / "empty.npy"
        np.save(path, np.zeros(shape))
        code = main(["compress", str(path), "--eps", "0.1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "mode sizes must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out" / "compressed.ht").exists()
        assert not (tmp_path / "out" / "compress.json").exists()

    def test_non_finite_payload_rejected(self, tmp_path, capsys):
        # before, NaN or inf data reached LAPACK ("array must not contain
        # infs or NaNs") instead of being reported as bad input
        rng = np.random.default_rng(4)
        h = random_htensor(build_balanced_tree(3), (5, 6, 7), 3, rng)
        root = h.root_transfer.copy()
        root[0, 0], root[-1, -1] = np.nan, np.inf
        path = tmp_path / "nonfinite.ht"
        save_htensor(dataclasses.replace(h, root_transfer=root), path)
        code = main(["compress", str(path), "--eps", "0.1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "nonfinite.ht: root transfer holds non-finite values" in err
        assert not (tmp_path / "out" / "compress.json").exists()


class TestBenchCommand:
    def test_sweep_table_and_fits(self, tmp_path, capsys):
        code = main(["bench", PARAMETRIC_D2, "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "bench.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["eps", "abs_ln_eps", "outer_iterations",
                               "max_rank"]
        assert len(rows) == 6  # header + five tolerances
        eps_col = [float(r[0]) for r in rows[1:]]
        assert eps_col == [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
        ranks = [int(r[3]) for r in rows[1:]]
        assert ranks == sorted(ranks)  # rank grows with |ln eps|
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert set(payload["fits"]) == {"rank_vs_log_eps_exponent",
                                        "support_vs_inv_eps_exponent"}
        out = capsys.readouterr().out
        assert "max_rank" in out and "fitted rank exponent" in out


class TestInfoCommand:
    def test_reports_term_count(self, capsys):
        # the worked example: the d=4 parametric family carries d + 1 terms
        assert main(["info", PARAMETRIC_D4]) == 0
        out = capsys.readouterr().out
        assert "terms      = 5" in out
        assert "order      = 5" in out
        assert "bounds     = [0.9, 1.1]\n" in out

    def test_reports_expsum_scaling(self, capsys):
        # the ideal diagonal's range: levels 0..5 give row sums 2 .. 2 * 4**5
        assert main(["info", str(FIXTURES / "diffusion_d2_ml5.ini")]) == 0
        out = capsys.readouterr().out
        assert "scaling L  = exp-sum (normalized range [1, 1024])\n" in out


# the flags each subcommand reads; every other flag is rejected
_OVERRIDES = ("--omega", "--rho", "--kappa1", "--kappa2", "--kappa3",
              "--beta1", "--beta2")
FLAGS_READ = {
    "solve": ("--eps", "--alpha", *_OVERRIDES, "--threads", "--oracle",
              "--out", "--seed"),
    "st-solve": ("--eps", "--omega", "--rho", "--threads", "--oracle", "--out",
                 "--seed", "--max-iter"),
    "compress": ("--eps", "--threads", "--out"),
    "bench": ("--alpha", *_OVERRIDES, "--threads", "--out", "--seed"),
    "info": ("--threads", "--seed"),
}
ALL_FLAGS = sorted({f for flags in FLAGS_READ.values() for f in flags})
FLAG_VALUES = {"--oracle": [], "--out": ["somewhere"], "--seed": ["3"],
               "--threads": ["2"], "--max-iter": ["7"]}


def _flag_args(flag):
    return [flag] + FLAG_VALUES.get(flag, ["0.5"])


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("command,flag", [
        (c, f) for c in FLAGS_READ for f in ALL_FLAGS if f not in FLAGS_READ[c]])
    def test_foreign_flag_is_invalid_input(self, command, flag, capsys):
        assert main([command, DIFFUSION_D2, *_flag_args(flag)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        (c, f) for c in FLAGS_READ for f in FLAGS_READ[c]])
    def test_flag_read_is_accepted(self, command, flag):
        args = _flag_args(flag)
        ns = _build_parser().parse_args([command, "p.ini", *args])
        value = getattr(ns, flag[2:].replace("-", "_"))
        assert str(value) == (args[1] if len(args) > 1 else "True")


class TestExitCodes:
    def test_missing_problem_file_is_invalid_input(self, capsys):
        assert main(["solve", "no_such_file.ini", "--eps", "1e-3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_eps_is_invalid_input(self, capsys):
        assert main(["solve", DIFFUSION_D3, "--eps", "-1"]) == 2
        assert "positive --eps" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_is_invalid_input(self, eps, capsys):
        assert main(["solve", DIFFUSION_D2, "--eps", eps]) == 2
        assert "positive --eps" in capsys.readouterr().err
        assert main(["st-solve", DIFFUSION_D2, "--eps", eps]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_bad_alpha_is_invalid_input(self, alpha, capsys):
        # kappa_defaults is the only check of --alpha
        assert main(["solve", DIFFUSION_D2, "--eps", "1e-2",
                     "--alpha", alpha]) == 2
        assert "alpha must be positive" in capsys.readouterr().err

    def test_unknown_flag_is_invalid_input(self, capsys):
        assert main(["solve", DIFFUSION_D3, "--eps", "1e-3", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_is_invalid_input(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_divergent_step_size_is_contraction_violation(self, tmp_path,
                                                          capsys):
        code = main(["solve", DIFFUSION_D3, "--eps", "1e-3", "--omega", "2.0",
                     "--out", str(tmp_path)])
        assert code == 4
        assert "contraction" in capsys.readouterr().err

    def test_unreachable_scaling_tolerance_is_infeasible(self, tmp_path,
                                                         capsys):
        # eps 1e-12 asks for exp-sum tables below the floating-point floor
        code = main(["solve", DIFFUSION_D2, "--eps", "1e-12",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,key", [
        (DIFFUSION_SPEC, "scaling_tol = 0.1"),  # a table tolerance, now unread
        (DIFFUSION_SPEC, "max_level = 3"),  # the other basis's size
        (PARAMETRIC_SPEC, "modes = 8"),
    ])
    def test_unread_problem_key_is_invalid_input(self, problem, key,
                                                  tmp_path, capsys):
        spec = tmp_path / "stale.ini"
        spec.write_text(f"[problem]\n{key}\n{problem}")
        assert main(["info", str(spec)]) == 2
        assert key.split(" =")[0] in capsys.readouterr().err


    @pytest.mark.parametrize("problem,extra,named", [
        (DIFFUSION_SPEC, "[rsh]\nflavor = rank1\n", "[rsh]"),  # misspelled
        (PARAMETRIC_SPEC, "[rhs]\nflavor = y-independent\nrank = 5\n", "rank"),
        (DIFFUSION_SPEC, "[inclusions]\ni0 = 0.0 1.0 0.25\n", "[inclusions]"),
    ])
    def test_unread_section_or_rhs_key_is_invalid_input(self, problem, extra,
                                                        named, tmp_path,
                                                        capsys):
        spec = tmp_path / "stale.ini"
        spec.write_text(f"[problem]\n{problem}{extra}")
        assert main(["info", str(spec)]) == 2
        assert named in capsys.readouterr().err


def oracle_solve(problem, eps, out):
    """``solve --oracle``: exit code, printed dense error (NaN without exit
    0) and the certified upper bound (``min`` of the interval's upper end
    and the final bound)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["solve", problem, "--eps", eps, "--oracle",
                     "--out", str(out)])
    if code != 0:
        return code, math.nan, math.nan
    line = next(l for l in buf.getvalue().splitlines() if "oracle" in l)
    report = json.loads((Path(out) / "report.json").read_text())
    bound = min(report["residual_interval"][1], report["final_error_bound"])
    return code, float(line.split("=")[1]), bound


@settings(max_examples=8, derandomize=True, deadline=None)
@given(problem=st.sampled_from([PARAMETRIC_D2, DIFFUSION_D2]),
       log_eps=st.floats(min_value=-12.0, max_value=-2.0))
def test_exit_zero_only_with_true_bound(problem, log_eps):
    with tempfile.TemporaryDirectory() as out:
        code, dense_error, bound = oracle_solve(problem, repr(10.0 ** log_eps),
                                                out)
    assert code != 0 or dense_error <= bound


def test_module_entry_point(tmp_path):
    # the child imports the same package as this process, installed or not
    import htsolve

    src = str(Path(htsolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "htsolve.cli", "info", PARAMETRIC_D2],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0
    assert "terms" in proc.stdout
