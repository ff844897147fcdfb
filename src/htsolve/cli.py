"""Command-line front end: run solvers on problem files, emit certified reports.

Subcommands
-----------
solve     adaptive Richardson iteration; writes ``report.json`` + ``trace.csv``
st-solve  soft-thresholded Richardson iteration; writes ``st_report.json`` +
          ``st_trace.csv``
compress  recompress a stored tensor (hierarchical ``.ht`` or dense ``.npy``)
          at a tolerance; writes the compressed tensor and its certificate
bench     sweep eps over {1e-1 .. 1e-5} and tabulate rank/support/time scaling
info      print operator structure, scaling ranges and bounds of a problem file

Every error figure the tool prints or writes is a certificate (an interval
endpoint computed from the low-rank representation), never a dense reference
value; pass ``--oracle`` to ``solve`` or ``st-solve`` to add dense
cross-checks on desk-scale problems.

Each subcommand takes only the flags it reads (``_FLAGS`` lists them); any
other flag is invalid input.

The ``--threads`` flag (default 1, for determinism) pins the BLAS thread
count via environment variables; the pin happens before numpy is imported,
which is why this module defers all heavy imports into the command handlers
and why the package exposes its API lazily.

Exit codes: 0 success, 2 invalid input, 3 tolerance infeasible,
4 contraction violation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunSpec", "run", "main"]

_COMMANDS = ("solve", "st-solve", "compress", "bench", "info")
_BENCH_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# SolveConfig fields a flag may override
_OVERRIDE_FIELDS = ("omega", "rho", "kappa1", "kappa2", "kappa3",
                    "beta1", "beta2")


def _pin_threads(argv: list[str]) -> None:
    """Pin BLAS thread-count environment variables before numpy loads.

    Parses ``--threads`` by hand because the full parser (and everything it
    triggers) must only run after the environment is set.
    """
    n = 1
    for i, tok in enumerate(argv):
        if tok == "--threads" and i + 1 < len(argv):
            raw = argv[i + 1]
        elif tok.startswith("--threads="):
            raw = tok.split("=", 1)[1]
        else:
            continue
        try:
            n = int(raw)
        except ValueError:
            return  # argparse will report the malformed value
    if n >= 1:
        for var in _THREAD_ENV:
            os.environ[var] = str(n)


@dataclass(frozen=True)
class RunSpec:
    """One command-line run: command, inputs, tolerances, overrides."""

    command: str
    problem: str
    eps: float | None = None
    overrides: dict = field(default_factory=dict)
    alpha: float | None = None
    out: str = "."
    seed: int | None = None
    threads: int = 1
    oracle: bool = False
    max_iter: int = 10000

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.command in ("solve", "st-solve"):
            if self.eps is None or not math.isfinite(self.eps) or self.eps <= 0:
                raise ValueError(
                    f"{self.command} needs a finite positive --eps, got {self.eps}"
                )
        if self.command == "compress":
            if self.eps is None or not math.isfinite(self.eps) or self.eps < 0:
                raise ValueError(
                    f"compress needs a finite nonnegative --eps tolerance, got {self.eps}"
                )
        if self.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {self.threads}")
        if self.max_iter < 1:
            raise ValueError(f"--max-iter must be at least 1, got {self.max_iter}")
        unknown = set(self.overrides) - set(_OVERRIDE_FIELDS)
        if unknown:
            raise ValueError(f"unknown config overrides: {sorted(unknown)}")


# every flag, the subcommands that read it, and its argparse settings; a
# subcommand that does not read a flag rejects it (exit 2)
_SOLVERS = ("solve", "bench")  # the commands that run ``solve``
_FLAGS = (
    ("--eps", ("solve", "st-solve", "compress"),
     dict(type=float, default=None,
          help="target tolerance (compress: truncation tolerance)")),
    ("--alpha", _SOLVERS,
     dict(type=float, default=None,
          help="free parameter behind the reduction constants")),
    ("--omega", _SOLVERS + ("st-solve",),
     dict(type=float, default=None, help="override the Richardson step size")),
    ("--rho", _SOLVERS + ("st-solve",),
     dict(type=float, default=None, help="override the contraction factor")),
    ("--kappa1", _SOLVERS, dict(type=float, default=None)),
    ("--kappa2", _SOLVERS, dict(type=float, default=None)),
    ("--kappa3", _SOLVERS, dict(type=float, default=None)),
    ("--beta1", _SOLVERS,
     dict(type=float, default=None,
          help="inner recompression multiplier (default 0.25; 0 leaves "
               "the inner step untruncated)")),
    ("--beta2", _SOLVERS,
     dict(type=float, default=None, help="inner coarsening multiplier")),
    ("--threads", _COMMANDS,
     dict(type=int, default=1,
          help="BLAS thread count (default 1, deterministic)")),
    ("--oracle", ("solve", "st-solve"),
     dict(action="store_true", help="add dense cross-checks (desk-scale only)")),
    ("--out", ("solve", "st-solve", "compress", "bench"),
     dict(default=".", help="output directory")),
    ("--seed", ("solve", "st-solve", "bench", "info"),
     dict(type=int, default=None, help="seed for randomized fixtures (data only)")),
    ("--max-iter", ("st-solve",),
     dict(type=int, default=10000, help="iteration cap")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htsolve",
        description="accuracy-controlled low-rank solvers for operator equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, blurb in (
        ("solve", "adaptive Richardson iteration with certified error control"),
        ("st-solve", "soft-thresholded Richardson iteration"),
        ("compress", "recompress a stored tensor at a tolerance"),
        ("bench", "sweep eps and tabulate rank/support/time scaling"),
        ("info", "print operator structure, scaling ranges and bounds"),
    ):
        subparsers[name] = sub.add_parser(name, help=blurb)
    for flag, commands, settings in _FLAGS:
        for name in commands:
            subparsers[name].add_argument(flag, **settings)
    for p in subparsers.values():
        p.add_argument("problem",
                       help="problem spec file (compress: stored tensor file)")
    return parser


def _spec_from_namespace(ns: argparse.Namespace) -> RunSpec:
    given = vars(ns)
    overrides = {
        name: given[name]
        for name in _OVERRIDE_FIELDS
        if given.get(name) is not None
    }
    # a flag the subcommand does not take keeps the RunSpec default
    read = {name: given[name]
            for name in ("eps", "alpha", "out", "seed", "threads", "oracle", "max_iter")
            if name in given}
    return RunSpec(command=ns.command, problem=ns.problem, overrides=overrides,
                   **read)


# ---------------------------------------------------------------------------
# command handlers (heavy imports deferred)
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _load(spec: RunSpec):
    from htsolve.problems import load_problem

    return load_problem(spec.problem, rhs_seed=spec.seed)


def _solver_config(problem, spec: RunSpec, eps: float):
    from dataclasses import replace

    from htsolve.solver import default_config

    alpha = 1.0 if spec.alpha is None else spec.alpha
    cfg = default_config(problem.operator, problem.rhs, eps=eps, alpha=alpha)
    if spec.overrides:
        cfg = replace(cfg, **spec.overrides)
    return cfg


def _oracle_error(problem, u) -> float:
    import numpy as np

    from htsolve.hsvd import to_dense
    from htsolve.problems import dense_solve

    return float(np.linalg.norm(to_dense(u) - dense_solve(problem)))


def _cmd_solve(spec: RunSpec) -> int:
    from htsolve.solver import solve

    problem = _load(spec)
    cfg = _solver_config(problem, spec, spec.eps)
    u, report = solve(problem.operator, problem.rhs, cfg)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report.to_json_dict())
    _write_csv(out / "trace.csv", report.csv_rows())
    lo, hi = report.residual_interval
    print(f"solve: eps={cfg.eps:g} outer_iterations={report.outer_iterations} "
          f"inner_per_outer={report.inner_per_outer} "
          f"inner_steps={len(report.steps)}")
    print(f"certified error interval = [{lo:.6g}, {hi:.6g}]")
    print(f"final certified bound    = {report.final_error_bound:.6g}")
    if spec.oracle:
        print(f"oracle dense error       = {_oracle_error(problem, u):.6g}")
    print(f"wrote {out / 'report.json'} and {out / 'trace.csv'}")
    return 0


def _cmd_st_solve(spec: RunSpec) -> int:
    from htsolve.softthresh import st_solve

    problem = _load(spec)
    # the step size and contraction factor of solve, --omega/--rho applied
    cfg = _solver_config(problem, spec, spec.eps)
    omega, xi = cfg.omega, cfg.rho
    u, trace = st_solve(problem.operator, problem.rhs, omega, xi, eps=spec.eps,
                        max_iter=spec.max_iter)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    clean = [
        {"n": int(t["n"]), "alpha": float(t["alpha"]),
         "max_rank": int(t["max_rank"]), "res_lo": float(t["res_lo"]),
         "res_hi": float(t["res_hi"]), "halved": bool(t["halved"])}
        for t in trace
    ]
    payload = {
        "eps": spec.eps,
        "omega": float(omega),
        "xi": float(xi),
        "iterations": len(clean),
        "final_alpha": clean[-1]["alpha"] if clean else None,
        "residual_interval": (
            [clean[-1]["res_lo"], clean[-1]["res_hi"]] if clean else [0.0, 0.0]
        ),
        "trace": clean,
    }
    _write_json(out / "st_report.json", payload)
    rows = [["n", "alpha", "max_rank", "res_lo", "res_hi", "halved"]]
    for t in clean:
        rows.append([str(t["n"]), repr(t["alpha"]), str(t["max_rank"]),
                     repr(t["res_lo"]), repr(t["res_hi"]),
                     str(int(t["halved"]))])
    _write_csv(out / "st_trace.csv", rows)
    print(f"st-solve: eps={spec.eps:g} iterations={len(trace)}")
    if trace:
        print(f"certified residual interval = [{trace[-1]['res_lo']:.6g}, "
              f"{trace[-1]['res_hi']:.6g}]")
    if spec.oracle:
        print(f"oracle dense error          = {_oracle_error(problem, u):.6g}")
    print(f"wrote {out / 'st_report.json'} and {out / 'st_trace.csv'}")
    return 0


def _load_tensor_any(path):
    """Stored hierarchical tensor, or a dense .npy array (converted exactly
    on a balanced tree). Formats are told apart by their magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(7)
    if magic.startswith(b"\x93NUMPY"):
        import numpy as np

        from htsolve.hsvd import from_dense
        from htsolve.htree import build_balanced_tree

        data = np.load(path)
        if data.ndim < 2:
            raise ValueError(
                f"{path}: dense input needs at least 2 modes, got {data.ndim}"
            )
        return from_dense(np.asarray(data, dtype=np.float64),
                          build_balanced_tree(data.ndim))
    from htsolve.tensorfile import load_htensor

    return load_htensor(path)


def _cmd_compress(spec: RunSpec) -> int:
    from htsolve.hsvd import _truncate, norm
    from htsolve.tensorfile import save_htensor

    h = _load_tensor_any(spec.problem)
    eta = float(spec.eps)
    g, bound = _truncate(h, eta)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    save_htensor(g, out / "compressed.ht")
    payload = {
        "input": str(spec.problem),
        "eta": eta,
        "certificate": bound,
        "input_norm": float(norm(h)),
        "input_ranks": [int(r) for r in h.ranks],
        "output_ranks": [int(r) for r in g.ranks],
    }
    _write_json(out / "compress.json", payload)
    print(f"compress: eta={eta:g} certified error <= {bound:.6g}")
    print(f"ranks {tuple(h.ranks)} -> {tuple(g.ranks)}")
    print(f"wrote {out / 'compressed.ht'} and {out / 'compress.json'}")
    return 0


def _fit_slope(x, y) -> float:
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = (x > 0) & (y > 0)
    if np.count_nonzero(keep) < 3:
        return float("nan")
    lx = np.log(x[keep])
    if np.ptp(lx) == 0.0:
        return float("nan")
    return float(np.polyfit(lx, np.log(y[keep]), 1)[0])


def _cmd_bench(spec: RunSpec) -> int:
    from htsolve.hsvd import contractions
    from htsolve.solver import solve

    problem = _load(spec)
    rows = []
    for eps in _BENCH_EPS:
        cfg = _solver_config(problem, spec, eps)
        u, report = solve(problem.operator, problem.rhs, cfg)
        supports = contractions(u).supports
        rows.append({
            "eps": eps,
            "abs_ln_eps": abs(math.log(eps)),
            "outer_iterations": report.outer_iterations,
            "max_rank": max(u.ranks, default=0),
            "total_support": sum(supports),
            "certified_bound": report.final_error_bound,
            "wall": report.total_time,
        })
    fits = {
        # max rank ~ |ln eps|^t: slope of ln(rank) vs ln|ln eps|
        "rank_vs_log_eps_exponent": _fit_slope(
            [r["abs_ln_eps"] for r in rows], [r["max_rank"] for r in rows]),
        # total support ~ eps^(-1/s): slope of ln(support) vs ln(1/eps)
        "support_vs_inv_eps_exponent": _fit_slope(
            [1.0 / r["eps"] for r in rows], [r["total_support"] for r in rows]),
    }
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["eps", "abs_ln_eps", "outer_iterations", "max_rank",
              "total_support", "certified_bound", "wall"]
    csv_rows = [header] + [
        [repr(float(r["eps"])), repr(float(r["abs_ln_eps"])),
         str(r["outer_iterations"]), str(r["max_rank"]),
         str(r["total_support"]), repr(float(r["certified_bound"])),
         repr(float(r["wall"]))]
        for r in rows
    ]
    _write_csv(out / "bench.csv", csv_rows)
    _write_json(out / "bench.json", {
        "problem": str(spec.problem),
        "rows": rows,
        "fits": {k: (v if math.isfinite(v) else None) for k, v in fits.items()},
    })
    print("  ".join(f"{h:>16s}" for h in header))
    for r in rows:
        print(f"{r['eps']:>16.1e}  {r['abs_ln_eps']:>16.4f}  "
              f"{r['outer_iterations']:>16d}  {r['max_rank']:>16d}  "
              f"{r['total_support']:>16d}  {r['certified_bound']:>16.4e}  "
              f"{r['wall']:>16.3f}")
    print(f"fitted rank exponent   = {fits['rank_vs_log_eps_exponent']:.3f}")
    print(f"fitted support exponent= {fits['support_vs_inv_eps_exponent']:.3f}")
    print(f"wrote {out / 'bench.csv'} and {out / 'bench.json'}")
    return 0


def _scaling_line(s) -> str:
    # problem files build no scaling or an exp-sum one
    if s is None:
        return "none"
    return f"exp-sum (normalized range [1, {s.row_sum_range[1]:.6g}])"


def _cmd_info(spec: RunSpec) -> int:
    from htsolve.hsvd import norm

    problem = _load(spec)
    a = problem.operator
    print(f"problem    = {spec.problem}")
    print(f"kind       = {type(problem).__name__}")
    print(f"dims       = {a.dims}")
    print(f"order      = {a.d}")
    print(f"terms      = {a.num_terms}")
    print(f"scaling L  = {_scaling_line(a.scaling_left)}")
    print(f"scaling R  = {_scaling_line(a.scaling_right)}")
    print(f"bounds     = [{a.bounds.lower:.6g}, {a.bounds.upper:.6g}]")
    print(f"rhs norm   = {norm(problem.rhs):.6g}")
    print(f"rhs ranks  = {tuple(problem.rhs.ranks)}")
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "st-solve": _cmd_st_solve,
    "compress": _cmd_compress,
    "bench": _cmd_bench,
    "info": _cmd_info,
}


def run(spec: RunSpec) -> int:
    """Execute one run; returns the process exit code (0 on success)."""
    return _HANDLERS[spec.command](spec)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_threads(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    from htsolve.errors import ContractionViolationError, ToleranceInfeasibleError

    try:
        spec = _spec_from_namespace(ns)
        return run(spec)
    except ToleranceInfeasibleError as exc:
        print(f"error: tolerance infeasible: {exc}", file=sys.stderr)
        return 3
    except ContractionViolationError as exc:
        print(f"error: contraction violated: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError, KeyError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
