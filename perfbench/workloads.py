"""Workload definitions, seeded inputs, set-up and one solve per call.

Each workload is a shipped fixture's operator with a rank-2 random
right-hand side (the ``[rhs] flavor = random`` of ``diffusion_d3_ml3.ini``)
whose seeds come from the benchmark's ``--seed``.  The program receives only
the generated problem file.  Why each workload exists is recorded next to its
name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from htsolve import problems, softthresh, solver

RHS_RANK = 2


@dataclass(frozen=True)
class Workload:
    fixture: str
    eps: float
    method: str  # "solve" or "st_solve"
    inputs: int  # distinct right-hand sides per run


# sine_d3's 64-unknown iterates always reach full rank, so its results do not
# depend on the right-hand side; the ranks and certificates of the other two
# do, and their runs report medians over several right-hand sides
WORKLOADS = {
    "sine_d3": Workload("diffusion_d3_sine", 1e-2, "solve", 1),
    "param_d4": Workload("parametric_d4", 1e-4, "solve", 8),
    "st_sine_d2": Workload("diffusion_d2_sine", 1e-6, "st_solve", 8),
}


def rhs_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def write_inputs(root: Path, wl: Workload, seed: int, out: Path) -> list[Path]:
    """One problem file per right-hand side: the fixture with its ``[rhs]``
    section replaced by a seeded rank-2 random one."""
    fixture = root / "fixtures" / f"{wl.fixture}.ini"
    paths = []
    for k, rhs_seed in enumerate(rhs_seeds(seed, wl.inputs)):
        cfg = configparser.ConfigParser()
        if not cfg.read(fixture):
            raise FileNotFoundError(f"cannot read fixture {fixture}")
        cfg["rhs"] = {"flavor": "random", "rank": str(RHS_RANK),
                      "seed": str(rhs_seed)}
        path = out / f"{wl.fixture}-seed{seed}-{k}.ini"
        with open(path, "w") as fh:
            cfg.write(fh)
        paths.append(path)
    return paths


def setup(wl: Workload, path: Path):
    """What a CLI run does before iterating: load the problem, then derive
    the configuration (``solve``) or the step and contraction (``st-solve``,
    as ``htsolve st-solve`` derives them)."""
    problem = problems.load_problem(path)
    a = problem.operator
    if wl.method == "solve":
        return problem, solver.default_config(a, problem.rhs, eps=wl.eps)
    lower, upper = float(a.bounds.lower), float(a.bounds.upper)
    return problem, (2.0 / (upper + lower), (upper - lower) / (upper + lower))


@dataclass
class Outcome:
    u: object
    rows: list  # deterministic trace rows; repeated solves must match
    cert_lo: float  # certified lower bound on the error
    cert_hi: float  # certified upper bound on the error (cert_over_eps)
    bound: float  # the bound the solver reports as final (<= eps)
    counts: dict


def run(wl: Workload, problem, cfg) -> Outcome:
    """One solve, looked up through the module attribute so that a traced
    run sees the wrapped function."""
    a, f = problem.operator, problem.rhs
    if wl.method == "solve":
        u, report = solver.solve(a, f, cfg)
        lo, hi = report.residual_interval
        return Outcome(u, report.csv_rows(), lo, hi, report.final_error_bound,
                       {"outer_iterations": report.outer_iterations,
                        "inner_steps": len(report.steps)})
    omega, xi = cfg
    u, trace = softthresh.st_solve(a, f, omega, xi, eps=wl.eps, max_iter=10000)
    last = trace[-1]
    hi = last["res_hi"] * omega / (1.0 - xi)
    rows = [(t["n"], repr(t["alpha"]), t["max_rank"], repr(t["res_lo"]),
             repr(t["res_hi"]), t["halved"]) for t in trace]
    return Outcome(u, rows, last["res_lo"] / float(a.bounds.upper), hi, hi,
                   {"iterations": len(trace),
                    "halvings": sum(bool(t["halved"]) for t in trace)})


def stored_params(u) -> int:
    """Floats the iterate stores: frames, transfer tensors and root."""
    return (sum(x.size for x in u.frames.values())
            + sum(x.size for x in u.transfer.values()) + u.root_transfer.size)


def final_max_rank(u) -> int:
    return max(u.ranks, default=0)


def bound_ok(wl: Workload, out: Outcome) -> bool:
    """The reported bound is finite and meets the requested tolerance."""
    return (math.isfinite(out.cert_hi) and math.isfinite(out.bound)
            and out.bound <= wl.eps * (1.0 + 1e-9))
