"""Write a ``BENCH_<n>.json`` from the unmodified benchmark of a checkout.

Usage, from the repository root::

    python3 tools/bench_file.py --out BENCH_16.json
    python3 tools/bench_file.py --out BENCH_16.json --parent ../parent

For every workload in ``BENCHMARK.json`` the script runs the checkout's own
``perfbench/run.py`` as a child process, with seed 1 and the benchmark's own
``run_seconds``: ``--trace 0`` three times, keeping the run with the smallest
median ``solve_s``, then ``--trace 1`` once for the per-layer figures.  With ``--parent DIR`` it does the same for a second
checkout (for example a ``git clone`` of the parent commit), alternating the
two run by run, so the file holds parent and change side by side.

The ``extra`` section times one solve each of two larger instances that no
fixture file describes, built as ``ROADMAP.md`` describes them, and one
dense conversion:

* ``param_d8``: ``build_parametric_II(16, 8, ("disjoint", 8), 0.1, 6)`` at
  eps 1e-4;
* ``eig_d5``: ``build_diffusion_I(5, ("eigensine", 8), M)`` at eps 1e-2,
  with M tridiagonal (1 on the diagonal, 0.2 beside it).

The two solves record the wall time of ``default_config`` plus ``solve``,
the final rank, the peak inner rank and the certified bound.  The peak
inner rank is the largest rank of an iterate entering an inner step
(``steps[*]["ranks"]`` of the report), which every checkout records, so
parent and change measure the same thing.

* ``from_dense_d2``: ``from_dense`` of a seeded Gaussian 1000 x 1000 array
  on a balanced tree, then ``_truncate(h, 1e-8 |x|)``, the truncation
  ``htsolve compress`` runs.  It records the best wall time of 5 runs, the
  tracemalloc peak of a sixth over the data's bytes, the ranks and the
  certified bound.

Everything runs with BLAS pinned to one thread.  The file also records the ``src/`` line counts, the
numpy and scipy versions, the CPU model and the git HEAD of each checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
SEED = 1
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# one timed solve of an extra instance; prints one JSON line
EXTRA_SOLVE = r"""
import json, sys, time
import numpy as np
from htsolve.problems import build_diffusion_I, build_parametric_II
from htsolve.solver import default_config, solve

name = sys.argv[1]
if name == "param_d8":
    problem, eps = build_parametric_II(16, 8, ("disjoint", 8), 0.1, 6), 1e-4
else:
    m = np.eye(5) + 0.2 * (np.eye(5, k=1) + np.eye(5, k=-1))
    problem, eps = build_diffusion_I(5, ("eigensine", 8), m), 1e-2
a, f = problem.operator, problem.rhs
t0 = time.perf_counter()
u, report = solve(a, f, default_config(a, f, eps=eps))
wall = time.perf_counter() - t0
steps = report.steps
print(json.dumps({
    "eps": eps,
    "wall_s": wall,
    "final_max_rank": max(u.ranks, default=0),
    "peak_inner_rank": max(max(s["ranks"], default=0) for s in steps),
    "max_pre_rank": getattr(report, "max_pre_rank", None),
    "inner_steps": len(steps),
    "outer_iterations": report.outer_iterations,
    "final_error_bound": report.final_error_bound,
    "residual_interval": list(report.residual_interval),
}))
"""

# from_dense plus the truncation compress runs, on one Gaussian matrix
FROM_DENSE = r"""
import json, time, tracemalloc
import numpy as np
from htsolve.hsvd import _truncate, from_dense
from htsolve.htree import build_balanced_tree

data = np.random.default_rng(0).standard_normal((1000, 1000))
tree, eta = build_balanced_tree(2), 1e-8 * float(np.linalg.norm(data))


def run():
    return _truncate(from_dense(data, tree), eta)


walls = []
for _ in range(5):
    t0 = time.perf_counter()
    h, bound = run()
    walls.append(time.perf_counter() - t0)
tracemalloc.start()
run()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({
    "wall_s": min(walls),
    "wall_s_runs": walls,
    "peak_over_data": peak / data.nbytes,
    "ranks": list(h.ranks),
    "bound": bound,
}))
"""
EXTRAS = {"param_d8": EXTRA_SOLVE, "eig_d5": EXTRA_SOLVE,
          "from_dense_d2": FROM_DENSE}


def child_env(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    env.update({var: "1" for var in THREAD_ENV})
    return env


def last_json(cmd, cwd: Path, env: dict) -> dict:
    """Run ``cmd`` and parse the last line of its standard output."""
    run = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {run.returncode}:\n{run.stderr}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def perfbench(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    return last_json([sys.executable, "perfbench/run.py", "--workload", workload,
                      "--seed", str(SEED), "--seconds", str(seconds),
                      "--trace", str(trace)], checkout, child_env(checkout))


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def git(checkout: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def describe(checkout: Path) -> dict:
    src = checkout / "src" / "htsolve"
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))}
    return {"head": git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(git(checkout, "status", "--porcelain", "--", "src")),
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def machine() -> dict:
    import numpy
    import scipy

    models = [line.split(":", 1)[1].strip()
              for line in Path("/proc/cpuinfo").read_text().splitlines()
              if line.startswith("model name")]
    return {"cpu_model": models[0] if models else platform.processor(),
            "cpus": len(models), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": 1}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    p.add_argument("--parent", type=Path, help="a checkout to run side by side")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()

    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = {side: [] for side in sides}
        for rep in range(REPEATS):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(perfbench(sides[side], name, seconds, 0))
                print(f"{name} {side} trace 0: solve_s "
                      f"{values(runs[side][-1])['solve_s']:.4g}", flush=True)
        workloads[name] = {}
        for side, checkout in sides.items():
            best = min(runs[side], key=lambda r: values(r)["solve_s"])
            traced = perfbench(checkout, name, seconds, 1)
            workloads[name][side] = {
                "end_to_end": values(best),
                "solve_s_runs": [values(r)["solve_s"] for r in runs[side]],
                "correct": all(r["correct"] for r in runs[side]) and traced["correct"],
                "attempted": sum(r["attempted"] for r in runs[side]),
                "failed": sum(r["failed"] for r in runs[side]),
                "per_layer": values(traced),
            }

    extra = {}
    for name, script in EXTRAS.items():
        extra[name] = {}
        for side, checkout in sides.items():
            extra[name][side] = last_json([sys.executable, "-c", script, name],
                                          checkout, child_env(checkout))
            print(f"{name} {side}: {extra[name][side]['wall_s']:.3g} s", flush=True)

    out = {
        "benchmark": {"command": spec["command"], "seed": SEED,
                      "seconds": seconds, "trace0_repeats": REPEATS,
                      "kept": "the trace-0 run with the smallest solve_s"},
        "machine": machine(),
        "checkouts": {side: describe(checkout) for side, checkout in sides.items()},
        "workloads": workloads,
        "extra": extra,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
