"""Desk-scale acceptance suite.

Each test validates one headline guarantee of the package against
independent dense oracles and prints a single PASS line with the measured
figures; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import configparser
import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

import htsolve.hsvd as H
from htsolve.cli import main as cli_main
from htsolve.htree import build_balanced_tree
from htsolve.ops import build_scaling
from htsolve.problems import (
    _assemble_sparse,
    build_diffusion_I,
    build_parametric_II,
    dense_solve,
    load_problem,
    multilevel_coupling,
)
from htsolve.softthresh import soft_threshold, st_solve
import htsolve.solver as solver_module
from htsolve.solver import default_config, inner_repetitions, solve

from oracles import (
    approx_dense_diag,
    best_support_error,
    best_tucker_error,
    bh_exponential_sum,
    check_inner_passes,
    dense_contractions,
    random_lowish_rank,
    spatial_parametric_singular_values,
    truncate_to_ranks,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.ini"))

_problems: dict = {}
_dense: dict = {}


def _problem(name: str):
    if name not in _problems:
        _problems[name] = load_problem(str(FIXTURES / f"{name}.ini"))
    return _problems[name]


def _dense_solution(name: str) -> np.ndarray:
    if name not in _dense:
        _dense[name] = dense_solve(_problem(name))
    return _dense[name]


def _decaying_random(tree, dims, rng, rank=2, noise=0.05, decay=1.5):
    data = random_lowish_rank(tree, dims, rank, rng, noise=noise)
    for i, n in enumerate(dims):
        w = np.exp(-decay * np.arange(n))
        data = data * w.reshape([-1 if j == i else 1 for j in range(len(dims))])
    return data


def test_01_fixed_rank_truncation_quasi_optimal():
    # hard truncation at given edge ranks lands within sqrt(2d-3) of the
    # best approximation at those ranks, measured against an ALS reference
    rng = np.random.default_rng(101)
    tree = build_balanced_tree(3)
    factor = math.sqrt(2 * 3 - 3) * 1.001
    worst = 0.0
    start = time.perf_counter()
    for trial in range(100):
        dims = tuple(int(n) for n in rng.integers(4, 7, size=3))
        data = rng.standard_normal(dims)
        h = H.from_dense(data, tree)
        r01, r0, r1 = h.ranks
        target = (int(rng.integers(1, r01 + 1)), int(rng.integers(1, r0 + 1)),
                  int(rng.integers(1, r1 + 1)))
        target = (min(target[0], target[1] * target[2]),) + target[1:]
        ht = truncate_to_ranks(h, target)
        err = float(np.linalg.norm(H.to_dense(ht) - data))
        best = best_tucker_error(data, (target[1], target[2], target[0]))
        assert err <= factor * best + 1e-12, (trial, target, err, best)
        if best > 0:
            worst = max(worst, err / best)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 01 PASS — fixed-rank truncation within sqrt(3) of the "
          f"ALS optimum on 100/100 d=3 instances "
          f"(worst ratio {worst:.4f} <= {factor:.4f}, {elapsed:.1f}s)")


def test_02_recompression_certificates_hold():
    # recompress(h, eta) = _truncate(h, eta)[0]: true error <= eta and <=
    # the tail certificate _truncate returns with it
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_gap = -np.inf
    for trial in range(500):
        d = 2 + trial % 3
        tree = build_balanced_tree(d)
        dims = tuple(int(n) for n in rng.integers(2, 7, size=d))
        data = random_lowish_rank(tree, dims, int(rng.integers(1, 5)), rng,
                                  noise=float(rng.uniform(0.0, 0.5)))
        h = H.from_dense(data, tree)
        eta = float(rng.uniform(0.02, 1.2)) * H.norm(h)
        hr, tail = H._truncate(h, eta)
        err = float(np.linalg.norm(H.to_dense(hr) - data))
        assert err <= eta, (trial, err, eta)
        assert err <= tail + 1e-12, (trial, err, tail)
        worst_gap = max(worst_gap, err - tail)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 02 PASS — recompression error within tolerance and "
          f"certificate on 500/500 pairs (worst err - tail "
          f"{worst_gap:.2e} <= 1e-12, {elapsed:.1f}s)")


def test_03_contraction_vectors_match_dense():
    # mode contractions computed from the orthogonalized representation
    # agree with the dense slice norms
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(100):
        d = 2 + trial % 3
        tree = build_balanced_tree(d)
        dims = tuple(int(n) for n in rng.integers(2, 7, size=d))
        data = random_lowish_rank(tree, dims, 3, rng, noise=0.3)
        h = H.from_dense(data, tree)
        nrm = H.norm(h)
        for pi, ref in zip(H.contractions(h).pis, dense_contractions(data)):
            rel = float(np.abs(pi - ref).max()) / nrm
            assert rel <= 1e-10, (trial, rel)
            worst = max(worst, rel)
    print(f"criterion 03 PASS — contraction vectors match the dense "
          f"definition on 100/100 instances, d in {{2,3,4}} "
          f"(worst relative deviation {worst:.2e} <= 1e-10)")


def test_04_coarsening_certificate_and_quasi_optimality():
    # the discarded-mass certificate equals its dense recomputation (the
    # merged contraction tail at the kept count) to 1e-12; the realized
    # error never exceeds it; and on exhaustively searchable d=2 instances
    # the error is within sqrt(d) of the best same-cardinality product set
    rng = np.random.default_rng(404)
    worst_eq = 0.0
    worst_ratio = 0.0
    n_exhaustive = 0
    for trial in range(60):
        d = 2 + trial % 3
        tree = build_balanced_tree(d)
        dims = tuple(int(n) for n in rng.integers(3, 7, size=d))
        data = _decaying_random(tree, dims, rng)
        h = H.from_dense(data, tree)
        eta = float(rng.uniform(0.05, 0.8)) * H.norm(h)
        sets, n_keep, disc = H.select_support(H.contractions(h).pis, eta)
        err = float(np.linalg.norm(H.to_dense(H.coarsen(h, eta)) - data))
        merged = np.sort(np.concatenate(dense_contractions(data)))[::-1]
        s_n = float(np.sqrt((merged[n_keep:] ** 2).sum()))
        assert abs(disc - s_n) <= 1e-12, (trial, disc, s_n)
        assert err <= eta and err <= disc + 1e-12, (trial, err, eta, disc)
        worst_eq = max(worst_eq, abs(disc - s_n))
        if d == 2:
            best = best_support_error(data, n_keep)
            assert err <= math.sqrt(d) * best + 1e-12, (trial, err, best)
            if best > 0:
                worst_ratio = max(worst_ratio, err / best)
            n_exhaustive += 1
    print(f"criterion 04 PASS — coarsening certificate equals the dense "
          f"discarded mass to {worst_eq:.2e} on 60/60 instances; error "
          f"within sqrt(2) of the exhaustive optimum on {n_exhaustive} "
          f"d=2 instances (worst ratio {worst_ratio:.4f})")


def test_05_soft_thresholding_non_expansive():
    # ||S_eta(a) - S_eta(b)|| <= ||a - b|| for all thresholds
    rng = np.random.default_rng(505)
    checks = 0
    worst = -np.inf
    for trial in range(100):
        d = 2 + trial % 2
        tree = build_balanced_tree(d)
        dims = tuple(int(n) for n in rng.integers(3, 7, size=d))
        da = random_lowish_rank(tree, dims, 3, rng, noise=0.4)
        db = random_lowish_rank(tree, dims, 3, rng, noise=0.4)
        ha, hb = H.from_dense(da, tree), H.from_dense(db, tree)
        gap = float(np.linalg.norm(da - db))
        tol = 1e-10 * (H.norm(ha) + H.norm(hb))
        scale_eta = 0.5 * (H.norm(ha) + H.norm(hb))
        for frac in (1e-3, 1e-2, 1e-1, 0.5, 1.0):
            eta = frac * scale_eta
            out = float(np.linalg.norm(H.to_dense(soft_threshold(ha, eta))
                                       - H.to_dense(soft_threshold(hb, eta))))
            assert out <= gap + tol, (trial, frac, out, gap)
            worst = max(worst, out - gap)
            checks += 1
    assert checks == 500
    print(f"criterion 05 PASS — soft thresholding non-expansive on "
          f"{checks}/{checks} (pair, threshold) checks "
          f"(worst expansion {worst:.2e})")


def test_06_reciprocal_exponential_sums_converge():
    # r-term tables for 1/x on [1, 1e8]: certified sup errors honest on an
    # independent grid, strictly decreasing, root-exponential in r
    rs = (4, 16, 64)
    errs = []
    x = np.exp(np.linspace(0.0, math.log(1e8), 20011) + 1.7e-4)
    x = np.clip(x, 1.0, 1e8)
    for r in rs:
        es = bh_exponential_sum(r)
        measured = float(np.abs(es(x) - 1.0 / x).max())
        assert measured <= es.cert_error * 1.02 + 1e-15
        errs.append(es.cert_error)
    assert errs[0] > errs[1] > errs[2]
    slope = float(np.polyfit(np.sqrt(rs), np.log(errs), 1)[0])
    assert slope <= -2.5
    print(f"criterion 06 PASS — reciprocal sum errors "
          f"{errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}, "
          f"log-error slope vs sqrt(r) = {slope:.3f} <= -2.5")


def test_07_inverse_sqrt_scaling_certified_on_active_set():
    # half-tolerance tables are within a factor 1/2 of the ideal inverse
    # square root on every row (exhaustive), and the term count
    # grows at most linearly in the maximum level
    details = []
    for name in ("diffusion_d3_ml3", "diffusion_d3_ml4", "diffusion_d2_ml5"):
        cfg = configparser.ConfigParser()
        cfg.read(FIXTURES / f"{name}.ini")
        d = cfg.getint("problem", "d")
        level = cfg.getint("problem", "max_level")
        m_matrix = np.array(
            [[float(x) for x in row.split()] for row in
             cfg.get("problem", "diffusion_matrix").strip().splitlines()])
        p = build_diffusion_I(d, ("multilevel", level), m_matrix)
        s = p.operator.scaling_left
        table = build_scaling(s.level_weights, 0.5)
        ideal = s.ideal_dense_diag()
        assert ideal.size <= 10**5  # exhaustive check is feasible
        rel = float(np.abs(1.0 - approx_dense_diag(s.level_weights, table)
                           / ideal).max())
        assert rel <= 0.5, (name, rel)
        details.append(f"L={level}: m={table.m}, max rel {rel:.3f}")
    # term growth across levels at a tolerance where tables actually grow
    ms = []
    for level in (3, 4, 5):
        growth = 4.0 ** multilevel_coupling(level)[1].astype(np.float64)
        ms.append(build_scaling([growth] * 3, 1e-6).m)
    inc1, inc2 = ms[1] - ms[0], ms[2] - ms[1]
    assert 0 <= inc2 <= inc1 + 1, ms
    print(f"criterion 07 PASS — half-tolerance scalings exhaustively "
          f"certified ({'; '.join(details)}); term counts {ms} grow "
          f"linearly in the level (increments {inc1}, {inc2})")


def test_08_residual_error_sandwich_on_all_fixtures():
    # lower * error <= ||residual|| <= upper * error for dense perturbations
    rng = np.random.default_rng(808)
    assert len(ALL_FIXTURES) == 8
    violations = 0
    for path in ALL_FIXTURES:
        p = _problem(path.stem)
        u = _dense_solution(path.stem).ravel()
        mat = _assemble_sparse(p.operator)
        f = H.to_dense(p.rhs).ravel()
        lo, hi = p.operator.bounds.lower, p.operator.bounds.upper
        for trial in range(50):
            g = rng.standard_normal(u.size)
            g *= 10.0 ** rng.uniform(-6, -1) * np.linalg.norm(u) / np.linalg.norm(g)
            err = float(np.linalg.norm(g))
            res = float(np.linalg.norm(f - mat @ (u + g)))
            if not (lo * err <= res * (1 + 1e-10)
                    and res <= hi * err * (1 + 1e-10)):
                violations += 1
    assert violations == 0
    print(f"criterion 08 PASS — residual sandwich holds densely on "
          f"{len(ALL_FIXTURES)} fixtures x 50 perturbations "
          f"(0 violations)")


def test_09_end_to_end_certified_solves():
    # the full iteration on both scenario fixtures: dense error within eps,
    # certificate above the measured error, scheduled outer count exact
    start = time.perf_counter()
    lines = []
    for name in ("diffusion_d3_sine", "parametric_d3"):
        p = _problem(name)
        ref = _dense_solution(name)
        for eps in (1e-2, 1e-3, 1e-4):
            cfg = default_config(p.operator, p.rhs, eps=eps)
            u, report = solve(p.operator, p.rhs, cfg)
            err = float(np.linalg.norm(H.to_dense(u) - ref))
            assert err <= eps, (name, eps, err)
            assert err <= report.final_error_bound, (name, eps, err)
            eps0 = H.norm(p.rhs) / p.operator.bounds.lower
            expected = math.ceil(math.log2(eps0 / eps))
            assert report.outer_iterations == expected, (name, eps)
            lines.append(f"{name}@{eps:.0e}: err {err:.2e} <= "
                         f"bound {report.final_error_bound:.2e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 09 PASS — end-to-end solves certified at all six "
          f"(fixture, eps) pairs with exact outer schedules, "
          f"{elapsed:.0f}s < 300s ({'; '.join(lines)})")


def test_10_parametric_solutions_have_finite_rank():
    # piecewise-constant parametric problems: the spatial/parametric split
    # of the solution has rank at most 2d-1, densely and for the solver
    details = []
    for name, d in (("parametric_d2", 2), ("parametric_d3", 3),
                    ("parametric_d4", 4)):
        p = _problem(name)
        bound = 2 * d - 1
        sv = spatial_parametric_singular_values(p, _dense_solution(name))
        assert np.all(sv[bound:] <= 1e-8 * sv[0]), (name, sv[:bound + 2])
        cfg = default_config(p.operator, p.rhs, eps=1e-6)
        u, _ = solve(p.operator, p.rhs, cfg)
        u_dense = H.to_dense(u)
        sv_sol = spatial_parametric_singular_values(p, u_dense)
        numrank = int(np.count_nonzero(
            sv_sol > 1e-6 * np.linalg.norm(u_dense)))
        assert numrank <= bound, (name, numrank)
        details.append(f"d={d}: numerical rank {numrank} <= {bound}")
    print(f"criterion 10 PASS — parametric split ranks obey the 2d-1 law "
          f"densely and for solved iterates ({'; '.join(details)})")


def test_11_bench_sweep_rank_support_scaling(tmp_path):
    # the bench command emits the rank/support scaling table; ranks grow
    # monotonically with |ln eps|; fitted exponents are recorded
    import csv
    import json

    code = cli_main(["bench", str(FIXTURES / "parametric_d2.ini"),
                     "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "bench.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6 and rows[0][0] == "eps"
    ranks = [int(r[3]) for r in rows[1:]]
    supports = [int(r[4]) for r in rows[1:]]
    assert ranks == sorted(ranks)
    fits = json.loads((tmp_path / "bench.json").read_text())["fits"]
    print(f"criterion 11 PASS — bench table generated (ranks {ranks}, "
          f"supports {supports}); fitted rank exponent "
          f"{fits['rank_vs_log_eps_exponent']:.3f}, support exponent "
          f"{fits['support_vs_inv_eps_exponent']:.3f} (recorded, "
          f"not asserted)")


def test_12_soft_threshold_solver_certified():
    # soft-thresholded iteration on the d=2 SPD fixture: certified 1e-6,
    # nonincreasing thresholds, and the fixed-point sandwich versus the
    # dense solution at the final threshold
    eps = 1e-6
    p = _problem("diffusion_d2_sine")
    lo = float(p.operator.bounds.lower)
    hi = float(p.operator.bounds.upper)
    omega = 2.0 / (hi + lo)
    xi = (hi - lo) / (hi + lo)
    u, trace = st_solve(p.operator, p.rhs, omega, xi, eps=eps)
    certified = trace[-1]["res_hi"] * omega / (1.0 - xi)
    assert certified <= eps
    alphas = [t["alpha"] for t in trace]
    assert all(b <= a for a, b in zip(alphas, alphas[1:]))
    ref = _dense_solution("diffusion_d2_sine")
    err = float(np.linalg.norm(H.to_dense(u) - ref))
    assert err <= eps
    # dense residual inside the certified interval and the error sandwich
    mat = _assemble_sparse(p.operator)
    res = float(np.linalg.norm(H.to_dense(p.rhs).ravel()
                               - mat @ H.to_dense(u).ravel()))
    assert trace[-1]["res_lo"] <= res * (1 + 1e-9)
    assert res <= trace[-1]["res_hi"] * (1 + 1e-9)
    assert lo * err <= res * (1 + 1e-9) and res <= hi * err * (1 + 1e-9)
    # fixed point of the thresholded map: u* within alpha-dependent distance
    ref_ht = H.from_dense(ref, build_balanced_tree(2))
    gap = H.norm(H.add(soft_threshold(ref_ht, alphas[-1]),
                       H.scale(-1.0, ref_ht)))
    slack = eps + 1e-12
    assert gap / (1 + xi) - slack <= err <= gap / (1 - xi) + slack
    print(f"criterion 12 PASS — soft-threshold solver certified at "
          f"{certified:.2e} <= 1e-6 in {len(trace)} iterations, "
          f"thresholds nonincreasing, dense error {err:.2e} inside the "
          f"fixed-point sandwich")


def _random_instance(rng, trial):
    """A seeded eigen-sine diffusion or parametric problem with 2 to 4
    modes and a random low-rank right-hand side."""
    d = 2 + trial % 3
    rhs = ("random", int(rng.integers(1, 4)), int(rng.integers(2**31)))
    if trial % 2 == 0:
        g = rng.standard_normal((d, d))
        m_matrix = np.eye(d) + 0.3 * (g @ g.T) / d
        n = int(rng.integers(4, 7 if d < 4 else 5))
        return build_diffusion_I(d, ("eigensine", n), m_matrix, rhs)
    return build_parametric_II(int(rng.integers(6, 11)), d - 1,
                               ("disjoint", d - 1), float(rng.uniform(0.1, 0.5)),
                               int(rng.integers(2, 5)), rhs)


def test_13_default_inner_recompression_certified():
    # the default inner step truncates at beta1 eta: the certified interval
    # still brackets the dense error, every outer pass keeps the inner-step
    # pattern of solve's early exit, and the inner ranks peak no higher than
    # untruncated.  The
    # two runs follow different iterates, so neither run's peak bounds the
    # other's on one instance: each instance may exceed its beta1 = 0 peak by
    # one rank (a direction kept near the truncation threshold), and the sum
    # of the peaks over all instances must fall
    rng = np.random.default_rng(1313)
    start = time.perf_counter()
    lowest = np.inf
    peaks, plain_peaks = np.zeros((2, 12), dtype=int), np.zeros((2, 12), dtype=int)
    for trial in range(12):
        p = _random_instance(rng, trial)
        ref = dense_solve(p)
        eps = float(10.0 ** rng.uniform(-4, -2))
        cfg = default_config(p.operator, p.rhs, eps=eps)
        assert cfg.beta1 > 0.0
        u, report = solve(p.operator, p.rhs, cfg)
        err = float(np.linalg.norm(H.to_dense(u) - ref))
        lo, hi = report.residual_interval
        assert lo <= err <= hi, (trial, lo, err, hi)
        assert err <= report.final_error_bound <= eps, (trial, err, eps)
        assert report.inner_per_outer == inner_repetitions(p.operator, p.rhs, cfg)
        check_inner_passes(report, cfg, float(p.operator.bounds.lower))
        _, plain = solve(p.operator, p.rhs, dataclasses.replace(cfg, beta1=0.0))
        peaks[:, trial] = (max(s["kept_rank"] for s in report.steps),
                           report.max_pre_rank)
        plain_peaks[:, trial] = (max(s["kept_rank"] for s in plain.steps),
                                 plain.max_pre_rank)
        assert np.all(peaks[:, trial] <= plain_peaks[:, trial] + 1), trial
        if err > 0:
            lowest = min(lowest, report.final_error_bound / err)
    assert np.all(peaks.sum(axis=1) < plain_peaks.sum(axis=1))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 13 PASS — default inner recompression certified on "
          f"12/12 random d<=4 instances, summed peak kept/pre ranks "
          f"{peaks.sum(axis=1).tolist()} against {plain_peaks.sum(axis=1).tolist()} "
          f"with beta1 = 0 (smallest bound/error {lowest:.2f}, {elapsed:.1f}s)")


def test_14_inner_early_exit_certified(monkeypatch):
    # an outer pass may end before its scheduled inner count, on the bound
    # rho res_hi / lower + drift eta of the step's new iterate.  The iterate
    # handed to each outer reduction (captured at solve's recompress calls:
    # one per inner step, then the outer one) must have dense error within
    # its recorded exit bound, which is at most kappa1 level / 2, and the
    # final interval must bracket the dense error
    calls = []
    plain = solver_module.recompress

    def recording(h, eta):
        calls.append((h, eta))
        return plain(h, eta)

    monkeypatch.setattr(solver_module, "recompress", recording)
    rng = np.random.default_rng(1414)
    start = time.perf_counter()
    early = passes = 0
    worst = 0.0
    for trial in range(9):
        p = _random_instance(rng, trial)
        ref = dense_solve(p)
        eps = float(10.0 ** rng.uniform(-4, -2))
        cfg = default_config(p.operator, p.rhs, eps=eps)
        calls.clear()
        u, report = solve(p.operator, p.rhs, cfg)
        counts = check_inner_passes(report, cfg, float(p.operator.bounds.lower))
        assert len(calls) == sum(counts) + len(counts)
        at = 0
        for k, (count, outer) in enumerate(zip(counts, report.outer_steps)):
            w, eta = calls[at + count]
            at += count + 1
            level = 2.0 ** (-k) * report.eps0
            assert eta == cfg.kappa2 * level / 2.0
            err = float(np.linalg.norm(H.to_dense(w) - ref))
            assert err <= outer["inner_exit_bound"], (trial, k, err, outer)
            assert outer["inner_exit_bound"] <= cfg.kappa1 * level / 2.0 * (1 + 1e-12)
            worst = max(worst, err / outer["inner_exit_bound"])
            early += count < report.inner_per_outer
            passes += 1
        err = float(np.linalg.norm(H.to_dense(u) - ref))
        lo, hi = report.residual_interval
        assert lo <= err <= hi, (trial, lo, err, hi)
        assert err <= report.final_error_bound <= eps, (trial, err, eps)
    assert early > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 14 PASS — {early} of {passes} outer passes on 9 random "
          f"d<=4 instances ended early; every pass's iterate within its exit "
          f"bound (largest error/bound {worst:.3f}), final intervals bracket "
          f"the dense error ({elapsed:.1f}s)")
