"""Time-to-certified-solution benchmark for htsolve.

Usage, from the repository root::

    python3 perfbench/run.py --workload sine_d3 --seed 1 --seconds 40 --trace 0

``--trace 0`` times fresh set-ups and solves for ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` alternates untraced solves and solves
with every layer wrapped (see ``layers.py``) and prints the per-layer
metrics.  Both check every result (see ``oracle.py``) outside the timed
region.  Metric names, units and workloads are listed in ``BENCHMARK.json``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run records and span files are
written under ``.perfbench_out/``.

Everything runs in this one process with BLAS pinned to one thread before
numpy loads, as ``htsolve --threads 1`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up takes milliseconds: time it this often after every solve, so that
# its samples spread over the run like the solves do, and at least
# SETUP_SAMPLES times in all
SETUPS_PER_SOLVE = 10
SETUP_SAMPLES = 40
MIN_SOLVES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "htsolve"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": {p.name: len(p.read_text().splitlines())
                      for p in sorted(src.glob("*.py"))},
    }


def _median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def _check(problem, out) -> list[str]:
    import oracle

    try:
        return oracle.check(problem, out)
    except Exception as exc:  # an oracle that cannot run is a failed check
        return [f"oracle raised {type(exc).__name__}: {exc}"]


def _another_fits(seconds, started, samples, count, minimum):
    """Whether another solve of typical length still fits in the run."""
    elapsed = time.perf_counter() - started
    return count < minimum or elapsed + _median(samples) <= seconds


# -- end-to-end ---------------------------------------------------------------


def measure(wl, inputs, seconds):
    """Fresh set-up plus solve per sample, cycling through the inputs, until
    the next solve would overrun ``seconds`` (and every input ran once)."""
    import oracle
    import workloads

    first = {}  # input index -> (problem, outcome) of its first solve
    status = []  # (input index, failure or None) per attempted solve
    solves, setups = [], []

    def time_setups(count):
        for _ in range(count):
            t0 = time.perf_counter()
            workloads.setup(wl, inputs[len(setups) % len(inputs)])
            setups.append(time.perf_counter() - t0)

    started = time.perf_counter()
    while _another_fits(seconds, started, solves, len(status),
                        max(len(inputs), MIN_SOLVES)):
        k = len(status) % len(inputs)
        try:
            problem, cfg = workloads.setup(wl, inputs[k])
            t0 = time.perf_counter()
            out = workloads.run(wl, problem, cfg)
            t1 = time.perf_counter()
        except Exception as exc:  # a failed solve is counted, not fatal
            status.append((k, f"{type(exc).__name__}: {exc}"))
            continue
        solves.append(t1 - t0)
        failure = None
        if not workloads.bound_ok(wl, out):
            failure = f"bound {out.bound!r} not finite or above eps"
        elif k not in first:
            first[k] = (problem, out)
        elif out.rows != first[k][1].rows or not oracle.same_tensor(out.u, first[k][1].u):
            failure = "repeated solve differs from the first solve of its input"
        status.append((k, failure))
        time_setups(SETUPS_PER_SOLVE)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    time_setups(SETUP_SAMPLES - len(setups))

    bad_inputs = {k: _check(problem, out) for k, (problem, out) in first.items()}
    status = [(k, f or "; ".join(bad_inputs.get(k, [])) or None) for k, f in status]
    outs = [out for _, out in first.values()]
    if not outs:
        raise RuntimeError(f"no solve succeeded: {status}")
    metrics = {
        "solve_s": _median(solves),
        "setup_s": _median(setups),
        "peak_mem_mb": peak_mb,
    }
    # deterministic per input; the median over the run's inputs is steadier
    # across seeds than any single input
    samples = {"solve_s": solves, "setup_s": setups,
               "cert_over_eps": [o.cert_hi / wl.eps for o in outs],
               "final_max_rank": [workloads.final_max_rank(o.u) for o in outs],
               "final_params": [workloads.stored_params(o.u) for o in outs]}
    for name in ("cert_over_eps", "final_max_rank", "final_params"):
        metrics[name] = statistics.median(samples[name])
    return metrics, samples, status


# -- per layer ----------------------------------------------------------------


def layer_metrics(funcs, out, wall) -> dict:
    """Per-layer figures of one traced solve from its per-function summary.

    What each should move: ``ops.apply_certified_*``, ``ops.recompress_*``,
    ``ops.pre_rank_max`` and ``ops.rank_kept_ratio`` move ``solve_s`` on
    sine_d3 and st_sine_d2 and stay flat on param_d4, where the apply is
    exact; ``ops.build_scaling_*`` moves ``solve_s`` on st_sine_d2 and
    sine_d3 (or ``setup_s``, if tables are built earlier); ``solver.*``,
    ``ops.rhs_truncate_*`` and ``hsvd.lapack_mflop``/``hsvd.qr_*`` move
    ``solve_s`` on param_d4; ``hsvd.*`` call overheads, ``hsvd.einsum_s``
    and ``htree.traversal_*`` move it on sine_d3 and param_d4;
    ``softthresh.*`` on st_sine_d2 only.  Iteration counts also move
    ``cert_over_eps`` and the final ranks.
    """
    import layers

    m = {"trace.wall_s": wall}
    by_layer: dict[str, float] = {}
    for name, f in funcs.items():
        layer = layers.layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + f["self_s"]
    for layer in ("solver", "ops", "hsvd", "softthresh", "htree", "numpy"):
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    m["trace.self_sum_over_wall"] = sum(by_layer.values()) / wall

    def group(prefix, names):
        for key, suffix in (("calls", "_calls"), ("total_s", "_s"), ("self_s", "_self_s")):
            m[prefix + suffix] = sum(funcs[n][key] for n in names if n in funcs)

    group("solver.error_certificate", ["solver.error_certificate"])
    group("ops.apply_certified", ["ops.apply_certified"])
    group("ops.rhs_truncate", ["ops.rhs_truncate"])
    group("ops.build_scaling", ["ops.build_scaling"])
    group("softthresh.soft_threshold", ["softthresh.soft_threshold"])
    for kernel in layers.HSVD_KERNELS:
        group(f"hsvd.{kernel}", [f"hsvd.{kernel}"])
    for call, names in (("qr", ["numpy.qr"]), ("svd", ["numpy.svd"]),
                        ("eigh", ["numpy.eigh", "numpy.eigvalsh"]),
                        ("einsum", ["numpy.einsum"])):
        group(f"hsvd.{call}", names)
    traversal = [f"htree.DimensionTree.{t}" for t in layers.TREE_MEMBERS]
    group("htree.traversal", traversal + ["htree.effective_edges"])

    rec = [(info, dur) for parent, info, dur in
           funcs.get("hsvd.recompress", {"info": []})["info"] if parent == "ops"]
    m["ops.recompress_calls"] = len(rec)
    m["ops.recompress_s"] = sum(dur for _, dur in rec)
    m["ops.pre_rank_max"] = max((i["rank_in_max"] for i, _ in rec), default=0)
    rank_in = sum(i["rank_in"] for i, _ in rec)
    m["ops.rank_kept_ratio"] = sum(i["rank_out"] for i, _ in rec) / rank_in if rank_in else 0.0
    tables = funcs.get("ops.build_scaling", {"info": []})["info"]
    m["ops.table_m_max"] = max((i["m"] for _, i, _ in tables), default=0)
    lapack = [i for n in ("numpy.qr", "numpy.svd", "numpy.eigh", "numpy.eigvalsh")
              for _, i, _ in funcs.get(n, {"info": []})["info"]]
    m["hsvd.lapack_mflop"] = sum(i["flops"] for i in lapack) / 1e6
    m["hsvd.max_qr_rows"] = max((i.get("rows", 0) for i in lapack), default=0)
    for key in ("outer_iterations", "inner_steps"):
        m[f"solver.{key}"] = out.counts.get(key, 0)
    for key in ("iterations", "halvings"):
        m[f"softthresh.{key}"] = out.counts.get(key, 0)
    return m


def traced(wl, inputs, seconds, span_path):
    """Pairs of one untraced and one traced solve of the first input, while
    another pair fits in ``seconds``; every solve must repeat the first."""
    import layers
    import oracle
    import workloads

    path = inputs[0]
    tracer = layers.Tracer()
    ref, ref_problem = None, None
    plain, walls, outs, status = [], [], [], []
    started = time.perf_counter()
    while _another_fits(seconds - _median(plain), started, walls, len(walls), 1):
        tracer.rep = len(walls)
        try:
            for timed in (plain, walls):
                if timed is walls:
                    tracer.install()
                try:
                    problem, cfg = workloads.setup(wl, path)
                    t0 = time.perf_counter()
                    out = workloads.run(wl, problem, cfg)
                    timed.append(time.perf_counter() - t0)
                finally:
                    tracer.uninstall()
                if ref is None:
                    ref, ref_problem = out, problem
                same = out.rows == ref.rows and oracle.same_tensor(out.u, ref.u)
                status.append(None if same else "solve differs from the first one")
                if timed is walls:
                    outs.append(out)
        except Exception as exc:  # a failed solve is counted, not fatal
            status.append(f"{type(exc).__name__}: {exc}")
            break
    if not outs:
        raise RuntimeError(f"no traced solve succeeded: {status}")
    tracer.write_csv(span_path, rep=0)

    bad = _check(ref_problem, ref)
    if not workloads.bound_ok(wl, ref):
        bad.append(f"bound {ref.bound!r} not finite or above eps")
    status = [s or "; ".join(bad) or None for s in status]

    spans = tracer.spans
    roots = [i for i, s in enumerate(spans)
             if s.parent == -1 and s.name in ("solver.solve", "softthresh.st_solve")]
    per_rep = [layer_metrics(layers.summarize(spans, i), out, wall)
               for i, out, wall in zip(roots, outs, walls)]
    metrics = {key: statistics.median(r[key] for r in per_rep)
               for key in per_rep[0]}
    metrics["trace.untraced_wall_s"] = _median(plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    loads = [s.end - s.start for s in spans if s.name == "problems.load_problem"]
    metrics["problems.load_problem_s"] = _median(loads)
    counts = [{k: v for k, v in r.items()
               if not k.endswith("_s") and not k.startswith("trace.")} for r in per_rep]
    print(f"  counts repeat across {len(counts)} traced solves: "
          f"{all(c == counts[0] for c in counts)}")
    print("  hsvd.lapack_mflop is computed from argument shapes, not counted")
    samples = {"trace.wall_s": walls, "trace.untraced_wall_s": plain,
               "problems.load_problem_s": loads}
    return metrics, samples, [(0, s) for s in status]


# -- entry point --------------------------------------------------------------


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import htsolve
        import workloads
    except ImportError as exc:
        print(f"error: cannot import htsolve from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(htsolve.__file__).resolve().parent != src / "htsolve":
        print(f"error: htsolve imported from {htsolve.__file__}, not {src}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        inputs = workloads.write_inputs(ROOT, wl, args.seed, out_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print(f"workload {args.workload}: {wl.fixture} eps={wl.eps:g} {wl.method}, "
          f"seed {args.seed} -> rhs seeds {workloads.rhs_seeds(args.seed, wl.inputs)}")
    print("environment: " + json.dumps(env))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, samples, status = traced(wl, inputs, args.seconds,
                                          out_dir / f"{tag}-spans.csv.gz")
        listed = spec["per_layer"]
    else:
        metrics, samples, status = measure(wl, inputs, args.seconds)
        listed = spec["end_to_end"]

    failures = [(k, f) for k, f in status if f]
    for name in sorted(metrics):
        print(f"  {name:36s} {_format(metrics[name])}")
    for name, values in samples.items():
        print(f"  samples {name}: n={len(values)} "
              + " ".join(f"{v:.4g}" for v in values))
    print(f"  fail_rate = {len(failures)}/{len(status)} = "
          f"{len(failures) / len(status):g}")
    for k, f in failures:
        print(f"  FAILED (input {k}): {f}")
    (out_dir / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": env, "metrics": metrics, "samples": samples,
         "failures": failures}, indent=1))

    result = {
        "correct": not failures,
        "attempted": len(status),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
