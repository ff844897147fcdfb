"""Adaptive Richardson solver: schedules, certificates, quasi-optimality."""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htsolve.solver as solver_module
from htsolve.errors import ContractionViolationError
from htsolve.htree import build_balanced_tree
from htsolve.hsvd import (
    add,
    from_dense,
    norm,
    random_htensor,
    scale,
    to_dense,
    zero_htensor,
)
from htsolve.ops import LowRankOperator, OperatorBounds, apply_certified
from htsolve.problems import dense_solve, load_problem
from htsolve.solver import (
    SolveConfig,
    SolveReport,
    default_config,
    error_certificate,
    inner_repetitions,
    kappa_defaults,
    solve,
)
from htsolve.softthresh import st_solve

from oracles import (
    check_inner_passes,
    identity_operator,
    reduction_quasi_optimality_check,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def uniform_rank_one(dims):
    """Unit-norm rank-1 tensor with equal entries (coarsening never trims it
    at the tolerances the solver schedules for it)."""
    tree = build_balanced_tree(len(dims))
    vecs = [np.ones(n) / np.sqrt(n) for n in dims]
    dense = vecs[0]
    for v in vecs[1:]:
        dense = np.multiply.outer(dense, v)
    return from_dense(dense, tree)


@pytest.fixture(scope="module")
def diffusion_d3():
    problem = load_problem(FIXTURES / "diffusion_d3_sine.ini")
    return problem, dense_solve(problem)


@pytest.fixture(scope="module")
def diffusion_d2():
    problem = load_problem(FIXTURES / "diffusion_d2_sine.ini")
    return problem, dense_solve(problem)


@pytest.fixture(scope="module")
def parametric_d2():
    problem = load_problem(FIXTURES / "parametric_d2.ini")
    return problem, dense_solve(problem)


@pytest.fixture(scope="module")
def parametric_d3():
    return load_problem(FIXTURES / "parametric_d3.ini")


class TestKappaDefaults:
    def test_pinned_d3(self):
        k1, k2, k3 = kappa_defaults(3)
        assert k1 == pytest.approx(1.0 / (7.0 + 4.0 * math.sqrt(3.0)), rel=1e-14)
        assert k2 == pytest.approx(math.sqrt(3.0) * 2.0 * k1, rel=1e-14)
        assert k3 == pytest.approx(math.sqrt(3.0) * (math.sqrt(3.0) + 1.0) * 2.0 * k1,
                                   rel=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_sum_to_one(self, d, alpha):
        k1, k2, k3 = kappa_defaults(d)
        assert k1 + k2 + k3 == pytest.approx(1.0, abs=1e-12)
        # weighting the truncation and coarsening shares by (1+alpha)/2
        # against kappa1 gives the split kappa_defaults once took an alpha
        # for; it is now reachable only through kappa overrides, still sums
        # to one, passes SolveConfig, and is the default split at alpha = 1
        w = (1.0 + alpha) / 2.0
        total = k1 + w * (k2 + k3)
        split = (k1 / total, w * k2 / total, w * k3 / total)
        assert sum(split) == pytest.approx(1.0, abs=1e-12)
        SolveConfig(kappa1=split[0], kappa2=split[1], kappa3=split[2])
        if alpha == 1.0:
            assert split == pytest.approx((k1, k2, k3), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            kappa_defaults(1)


# solve derives these from the operator bounds; no config takes them
DERIVED = ("omega", "rho", "eps0")


class TestSolveConfig:
    def valid(self, **overrides):
        k1, k2, k3 = kappa_defaults(2)
        fields = dict(kappa1=k1, kappa2=k2, kappa3=k3,
                      beta1=0.0, beta2=0.01, eps=1e-4)
        fields.update(overrides)
        return SolveConfig(**fields)

    def test_accepts_defaults(self):
        cfg = self.valid()
        assert cfg.beta2 == 0.01
        assert cfg.kappa1 + cfg.kappa2 + cfg.kappa3 <= 1.0 + 1e-12

    def test_fields_are_the_settable_constants(self):
        cfg = self.valid()
        names = [f.name for f in dataclasses.fields(SolveConfig)]
        assert names == ["kappa1", "kappa2", "kappa3", "beta1", "beta2", "eps"]
        for name in DERIVED:
            with pytest.raises(TypeError, match=name):
                dataclasses.replace(cfg, **{name: 0.25})

    def test_accepts_rho_zero(self):
        # equal bounds prove the contraction factor 0: solve runs with it
        f = uniform_rank_one((4, 4))
        _, report = solve(identity_operator((4, 4)), f, self.valid(eps=0.1))
        assert report.rho == 0.0

    @pytest.mark.parametrize("field,value,match", [
        ("omega", 0.0, "omega"),
        ("omega", -1.0, "omega"),
        ("rho", 1.0, "rho"),
        ("rho", -0.1, "rho"),
        ("eps0", -1.0, "eps0"),
        ("kappa1", 0.0, "kappa1"),
        ("kappa2", 1.0, "kappa2"),
        ("kappa3", -0.2, "kappa3"),
        ("beta1", -1e-3, "beta1"),
        ("beta2", 0.0, "beta2"),
        ("eps", 0.0, "eps"),
    ])
    def test_range_validation(self, field, value, match):
        # a derived constant is refused at any value, a settable one out of
        # its range
        error = TypeError if field in DERIVED else ValueError
        with pytest.raises(error, match=match):
            self.valid(**{field: value})

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            self.valid(eps=eps)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["omega", "eps0", "beta1", "beta2"])
    def test_rejects_non_finite_fields(self, field, value):
        if field in DERIVED:
            error, match = TypeError, field
        else:
            error, match = ValueError, f"{field} must be finite"
        with pytest.raises(error, match=match):
            self.valid(**{field: value})

    def test_kappa_budget(self):
        with pytest.raises(ValueError, match="at most 1"):
            self.valid(kappa1=0.5, kappa2=0.4, kappa3=0.2)


class TestDefaultConfig:
    def test_identity(self):
        f = uniform_rank_one((8, 8))
        a = identity_operator((8, 8))
        cfg = default_config(a, f, eps=0.1)
        _, report = solve(a, f, cfg)
        assert report.omega == 1.0
        assert report.rho == 0.0
        assert report.eps0 == pytest.approx(norm(f), rel=1e-14)
        assert cfg.beta1 == 0.25
        assert cfg.beta2 == pytest.approx(cfg.kappa1 / 4.0, rel=1e-14)
        assert cfg.eps == 0.1

    def test_optimal_richardson_formulas(self):
        a = LowRankOperator((4, 4), [(None, None)],
                            bounds=OperatorBounds(2.0, 8.0))
        omega, rho, eps0 = solver_module._richardson_constants(
            a, uniform_rank_one((4, 4)))
        assert omega == pytest.approx(0.2, rel=1e-14)
        assert rho == pytest.approx(0.6, rel=1e-14)
        assert eps0 == pytest.approx(0.5, rel=1e-14)  # norm(f) / lower

    def test_kappas_match_order(self):
        f = uniform_rank_one((4, 4, 4))
        cfg = default_config(identity_operator((4, 4, 4)), f, eps=0.1)
        k1, k2, k3 = kappa_defaults(3)
        assert (cfg.kappa1, cfg.kappa2, cfg.kappa3) == (k1, k2, k3)

    def test_rejects_nonpositive_lower(self):
        a = LowRankOperator((4, 4), [(None, None)],
                            bounds=OperatorBounds(0.0, 1.0))
        with pytest.raises(ValueError, match="lower"):
            default_config(a, uniform_rank_one((4, 4)), eps=0.1)


class TestInnerRepetitions:
    def test_identity_needs_one_step(self):
        f = uniform_rank_one((8, 8))
        a = identity_operator((8, 8))
        cfg = default_config(a, f, eps=0.1)
        assert inner_repetitions(a, f, cfg) == 1

    def test_hand_computed_case(self):
        # bounds (1/2, 3/2) give omega=1, rho=1/2; drift=1.1, target
        # kappa1/2=0.25:
        # j=4: 2^-4 * 5.4 = 0.3375 > 0.25; j=5: 2^-5 * 6.5 = 0.203 <= 0.25
        a = LowRankOperator((4, 4), [(None, None)],
                            bounds=OperatorBounds(0.5, 1.5))
        cfg = SolveConfig(kappa1=0.5, kappa2=0.2, kappa3=0.2,
                          beta1=0.0, beta2=0.1, eps=0.1)
        assert inner_repetitions(a, uniform_rank_one((4, 4)), cfg) == 5

    def test_monotone_in_rho(self):
        def reps(rho):
            # omega = 0.5 and this rho: lower + upper = 4, upper - lower = 4 rho
            a = LowRankOperator((4, 4), [(None, None)],
                                bounds=OperatorBounds(2.0 - 2.0 * rho,
                                                      2.0 + 2.0 * rho))
            k1, k2, k3 = kappa_defaults(2)
            cfg = SolveConfig(kappa1=k1, kappa2=k2, kappa3=k3,
                              beta2=k1 / 4.0, eps=0.1)
            return inner_repetitions(a, uniform_rank_one((4, 4)), cfg)

        assert reps(0.3) < reps(0.9)


class TestSolveIdentity:
    def test_single_outer_pass_exact(self):
        f = uniform_rank_one((8, 8))
        a = identity_operator((8, 8))
        cfg = default_config(a, f, eps=0.6 * norm(f))
        u, report = solve(a, f, cfg)
        assert report.outer_iterations == 1
        assert report.inner_per_outer == 1
        assert np.abs(to_dense(u) - to_dense(f)).max() <= 1e-14

    @pytest.mark.parametrize("eps_factor", [0.6, 1e-1, 1e-3])
    def test_exact_at_any_tolerance(self, eps_factor):
        f = uniform_rank_one((8, 8))
        a = identity_operator((8, 8))
        cfg = default_config(a, f, eps=eps_factor * norm(f))
        u, report = solve(a, f, cfg)
        assert report.outer_iterations == math.ceil(math.log2(1.0 / eps_factor))
        assert norm(add(u, scale(-1.0, f))) <= 1e-13

    def test_loose_tolerance_returns_zero(self):
        f = uniform_rank_one((8, 8))
        a = identity_operator((8, 8))
        cfg = default_config(a, f, eps=1.5 * norm(f))
        u, report = solve(a, f, cfg)
        assert report.outer_iterations == 0
        assert norm(u) == 0.0
        assert report.final_error_bound <= cfg.eps

    @pytest.mark.parametrize("bad", [(math.nan, math.nan), (0.0, math.inf)])
    def test_non_finite_certificate_rejected(self, monkeypatch, bad):
        # the schedule bound must not stand in for a non-finite certificate
        monkeypatch.setattr(solver_module, "error_certificate",
                            lambda *args: bad)
        f = uniform_rank_one((8, 8))
        a = identity_operator((8, 8))
        cfg = default_config(a, f, eps=0.1 * norm(f))
        with pytest.raises(ValueError, match="not finite"):
            solve(a, f, cfg)

    def test_zero_rhs(self):
        tree = build_balanced_tree(2)
        f = zero_htensor(tree, (8, 8))
        a = identity_operator((8, 8))
        cfg = default_config(a, f, eps=1e-3)
        u, report = solve(a, f, cfg)
        assert report.outer_iterations == 0
        assert norm(u) == 0.0


class TestSolveDiffusion:
    def test_dense_oracle_at_1e4(self, diffusion_d3):
        problem, u_dense = diffusion_d3
        cfg = default_config(problem.operator, problem.rhs, eps=1e-4)
        u, report = solve(problem.operator, problem.rhs, cfg)
        err = np.linalg.norm(to_dense(u) - u_dense)
        assert err <= 1e-4
        assert err <= report.final_error_bound
        assert report.final_error_bound <= 1e-4
        assert report.residual_interval[0] <= err <= report.residual_interval[1]

    def test_exact_outer_iteration_count(self, diffusion_d3):
        problem, _ = diffusion_d3
        eps0 = norm(problem.rhs) / problem.operator.bounds.lower
        for eps in (1e-1, 1e-2):
            cfg = default_config(problem.operator, problem.rhs, eps=eps)
            _, report = solve(problem.operator, problem.rhs, cfg)
            assert report.outer_iterations == math.ceil(math.log2(eps0 / eps))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_monotone_certified_progress(self, diffusion_d3, k):
        # running to eps just above eps0 * 2^-k stops after exactly k outer
        # passes and returns the outer iterate u_k (the schedule does not
        # depend on eps); its measured error must respect the certified
        # bound 2^-k eps0
        problem, u_dense = diffusion_d3
        eps0 = norm(problem.rhs) / problem.operator.bounds.lower
        eps_k = eps0 * 2.0 ** (-k) * 1.001
        cfg = default_config(problem.operator, problem.rhs, eps=eps_k)
        u, report = solve(problem.operator, problem.rhs, cfg)
        assert report.outer_iterations == k
        assert np.linalg.norm(to_dense(u) - u_dense) <= eps0 * 2.0 ** (-k)

    def test_eta_schedule_and_trace_shape(self, diffusion_d2):
        problem, u_dense = diffusion_d2
        cfg = default_config(problem.operator, problem.rhs, eps=1e-2)
        u, report = solve(problem.operator, problem.rhs, cfg)
        assert cfg.beta1 == 0.25
        lower = float(problem.operator.bounds.lower)
        assert len(check_inner_passes(report, cfg, lower)) == report.outer_iterations
        for s in report.steps:
            want = report.rho ** (s["j"] + 1) * (2.0 ** (-s["k"]) * report.eps0)
            assert s["eta"] == pytest.approx(want, rel=1e-13)
            assert s["res_lo"] <= s["res_hi"]
            assert len(s["ranks"]) == len(problem.operator.dims) * 2 - 3
            assert len(s["supports"]) == len(problem.operator.dims)
        # the outer reduction keeps ranks at or below the inner-loop peak
        peak = max(max(s["ranks"]) for s in report.steps)
        assert max(report.outer_steps[-1]["ranks"]) <= peak
        assert np.linalg.norm(to_dense(u) - u_dense) <= 1e-2


_tight: dict = {}


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
@pytest.mark.parametrize("name", ["parametric_d2", "parametric_d3"])
def test_dense_oracle_inside_tight_certificate(name, eps):
    # residual norms from sqrt(inner(r, r)) and Gram spectra stopped three of
    # these with a contraction violation and certified the fourth falsely
    if name not in _tight:
        problem = load_problem(FIXTURES / f"{name}.ini")
        _tight[name] = problem, dense_solve(problem)
    problem, u_dense = _tight[name]
    cfg = default_config(problem.operator, problem.rhs, eps=eps)
    u, report = solve(problem.operator, problem.rhs, cfg)
    err = np.linalg.norm(to_dense(u) - u_dense)
    lo, hi = report.residual_interval
    assert lo <= err <= hi
    assert err <= report.final_error_bound <= eps


class TestSolveValidation:
    def test_dimension_mismatch(self):
        a = identity_operator((8, 8))
        f = uniform_rank_one((8, 4))
        cfg = SolveConfig(kappa1=0.1, kappa2=0.2, kappa3=0.6, eps=0.5)
        with pytest.raises(ValueError, match="do not match"):
            solve(a, f, cfg)

    def test_missing_bounds(self):
        a = LowRankOperator((8, 8), [(None, None)])
        f = uniform_rank_one((8, 8))
        cfg = SolveConfig(kappa1=0.1, kappa2=0.2, kappa3=0.6, eps=0.5)
        with pytest.raises(ValueError, match="bounds"):
            solve(a, f, cfg)

    @pytest.mark.parametrize("bounds,rhs_scale", [
        ((1e-17, 1.0), 1.0),  # rho rounds to 1: no inner step count
        ((0.5, 1.0), 1e308),  # eps0 = norm(f)/lower overflows
    ], ids=["rho-one", "eps0-overflow"])
    def test_unusable_derived_constants_rejected(self, bounds, rhs_scale,
                                                 monkeypatch):
        a = identity_operator((4, 4))
        a.bounds = OperatorBounds(*bounds)
        f = scale(rhs_scale, uniform_rank_one((4, 4)))
        cfg = default_config(a, f, eps=1e-3)

        def refuse(*args):
            raise AssertionError("a step ran before the constants were checked")

        monkeypatch.setattr(solver_module, "_certified_residual", refuse)
        with pytest.raises(ValueError, match="operator bounds"):
            solve(a, f, cfg)
        with pytest.raises(ValueError, match="operator bounds"):
            inner_repetitions(a, f, cfg)

    def test_contraction_violation_diagnosed(self):
        # conspicuously wrong bounds: the operator is 2I but claims
        # spectrum [0.5, 0.6], so the scheduled contraction cannot hold
        a = LowRankOperator((6, 6), [(2.0 * np.eye(6), None)],
                            bounds=OperatorBounds(0.5, 0.6))
        f = uniform_rank_one((6, 6))
        cfg = default_config(a, f, eps=1e-3)
        with pytest.raises(ContractionViolationError, match="outer step 0"):
            solve(a, f, cfg)


@pytest.mark.parametrize("call", ["apply_certified", "solve", "error_certificate",
                                  "default_config", "st_solve"])
def test_operator_without_bounds_rejected(call, monkeypatch):
    # bounds come only from the problem builders; nothing estimates missing ones
    test_unproven_bounds_rejected_before_any_sweep(call, None, monkeypatch)


@pytest.mark.parametrize("bounds", [
    OperatorBounds(math.nan, 1.0),
    OperatorBounds(0.5, math.nan),  # apply_certified once took beta = 0.5
    OperatorBounds(0.0, 1.0),
    OperatorBounds(1.0, math.inf),
    OperatorBounds(2.0, 1.0),  # error_certificate once returned lo > hi
], ids=["nan-lower", "nan-upper", "zero-lower", "inf-upper", "inverted"])
@pytest.mark.parametrize("call", ["apply_certified", "solve", "error_certificate",
                                  "default_config", "st_solve"])
def test_unproven_bounds_rejected_before_any_sweep(call, bounds, monkeypatch):
    # every reader of the bounds goes through one check, which holds only
    # for 0 < lower <= upper < inf (test_operator_without_bounds_rejected
    # runs this with no bounds at all)
    import htsolve.hsvd as hsvd_module
    from test_ops import ideal_scaled_operator

    rng = np.random.default_rng(41)
    dims = (4, 5)
    a = ideal_scaled_operator(dims, rng)
    a.bounds = bounds
    f = random_htensor(build_balanced_tree(2), dims, 2, rng)
    cfg = SolveConfig(kappa1=0.1, kappa2=0.2, kappa3=0.6, eps=0.5)
    calls = {
        "apply_certified": lambda: apply_certified(a, f, 1e-8),
        "solve": lambda: solve(a, f, cfg),
        "error_certificate": lambda: error_certificate(a, f, f, 0.1),
        "default_config": lambda: default_config(a, f, eps=0.1),
        "st_solve": lambda: st_solve(a, f, omega=1.0, xi=0.5),
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep ran before the bounds were checked")

    monkeypatch.setattr(hsvd_module, "_sweep", refuse)
    with pytest.raises(ValueError, match="bounds"):
        calls[call]()


class TestSolveReport:
    def test_derived_constants_match_bound_formulas(self, diffusion_d2):
        problem, _ = diffusion_d2
        cfg = default_config(problem.operator, problem.rhs, eps=1e-1)
        _, report = solve(problem.operator, problem.rhs, cfg)
        lower = float(problem.operator.bounds.lower)
        upper = float(problem.operator.bounds.upper)
        assert report.omega == 2.0 / (upper + lower)
        assert report.rho == (upper - lower) / (upper + lower)
        assert report.eps0 == norm(problem.rhs) / lower
        payload = report.to_json_dict()
        assert (payload["omega"], payload["rho"], payload["eps0"]) == (
            report.omega, report.rho, report.eps0)
        assert payload["config"] == dataclasses.asdict(cfg)

    def test_csv_rows_deterministic(self, diffusion_d2):
        problem, _ = diffusion_d2
        cfg = default_config(problem.operator, problem.rhs, eps=1e-1)
        _, r1 = solve(problem.operator, problem.rhs, cfg)
        _, r2 = solve(problem.operator, problem.rhs, cfg)
        rows = r1.csv_rows()
        assert rows[0] == ["k", "j", "eta", "res_lo", "res_hi",
                           "max_rank", "total_support"]
        assert len(rows) == len(r1.steps) + 1
        assert rows == r2.csv_rows()

    def test_json_dict_strictly_serializable(self, diffusion_d2):
        problem, _ = diffusion_d2
        cfg = default_config(problem.operator, problem.rhs, eps=1e-1)
        _, report = solve(problem.operator, problem.rhs, cfg)
        payload = report.to_json_dict()
        text = json.dumps(payload, allow_nan=False)
        back = json.loads(text)
        assert back["outer_iterations"] == report.outer_iterations
        assert back["config"]["eps"] == cfg.eps
        assert len(back["steps"]) == len(report.steps)
        assert "sigma_decay" in back["diagnostics"]

    def test_final_bound_invariant_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            SolveReport(omega=1.0, rho=0.0, eps0=1.0, eps=1e-3,
                        inner_per_outer=1, outer_iterations=1, config={},
                        final_error_bound=2e-3)
        with pytest.raises(ValueError, match="not finite"):
            SolveReport(omega=1.0, rho=0.0, eps0=1.0, eps=1e-3, inner_per_outer=1,
                        outer_iterations=1, config={},
                        final_error_bound=math.nan)


class TestErrorCertificate:
    def test_dense_solution_interval_near_zero(self, diffusion_d2):
        # scaled down by 1e-3, so res_eta = 1e-10 is about 1e-7 of the data:
        # far above the roundoff of norms read from the orthogonal form
        problem, u_dense = diffusion_d2
        s = 1e-3
        f = scale(s, problem.rhs)
        v = from_dense(s * u_dense, problem.rhs.tree)
        lo, hi = error_certificate(problem.operator, v, f, res_eta=1e-10)
        lower = problem.operator.bounds.lower
        assert lo == 0.0
        assert hi <= 4.2e-10 / lower

    def test_zero_candidate_brackets_solution_norm(self, diffusion_d2):
        problem, u_dense = diffusion_d2
        v = zero_htensor(problem.rhs.tree, problem.rhs.dims)
        res_eta = 1e-6
        lo, hi = error_certificate(problem.operator, v, problem.rhs, res_eta)
        bounds = problem.operator.bounds
        true_err = np.linalg.norm(u_dense)
        assert lo <= true_err <= hi
        assert hi >= (norm(problem.rhs) - 2.0 * res_eta) / bounds.lower

    @pytest.mark.parametrize("fixture_name", ["diffusion_d2", "parametric_d2"])
    def test_contains_measured_error(self, fixture_name, request):
        problem, u_dense = request.getfixturevalue(fixture_name)
        rng = np.random.default_rng(hash(fixture_name) % 2**32)
        tree = problem.rhs.tree
        for trial in range(50):
            scale_exp = rng.uniform(-6.0, 0.0)
            delta = rng.standard_normal(u_dense.shape)
            delta *= 10.0**scale_exp / np.linalg.norm(delta)
            v = from_dense(u_dense + delta, tree)
            lo, hi = error_certificate(problem.operator, v, problem.rhs,
                                       res_eta=1e-5)
            err = np.linalg.norm(delta)
            assert lo <= err * (1.0 + 1e-9) + 1e-12
            assert hi >= err * (1.0 - 1e-9)

    def test_validation(self, diffusion_d2):
        problem, _ = diffusion_d2
        v = zero_htensor(problem.rhs.tree, problem.rhs.dims)
        with pytest.raises(ValueError, match="res_eta"):
            error_certificate(problem.operator, v, problem.rhs, res_eta=0.0)
        bare = LowRankOperator(problem.operator.dims,
                               [(None,) * len(problem.operator.dims)])
        with pytest.raises(ValueError, match="bounds"):
            error_certificate(bare, v, problem.rhs, res_eta=1e-6)


class TestReductionQuasiOptimality:
    def test_identical_pair_passes(self):
        rng = np.random.default_rng(7)
        tree = build_balanced_tree(2)
        u_ref = random_htensor(tree, (6, 6), 3, rng)
        for eta in (0.0, 0.3):
            report = reduction_quasi_optimality_check(u_ref, u_ref, eta)
            assert report["passed"]
            # a self-gap is representation noise, ~1e-8 of the norm
            assert report["gap"] <= 1e-7 * norm(u_ref)

    def test_known_spectrum_d2(self):
        # u_ref has singular values (1, 0.6, 0.3, 0.1); at alpha*eta = 0.2
        # its minimal rank is 3 (tail beyond rank 2 is ~0.316), so the
        # perturbed tensor truncated at (1+alpha)*eta = 0.4 must need <= 3
        tree = build_balanced_tree(2)
        sigma = np.array([1.0, 0.6, 0.3, 0.1])
        u_ref = from_dense(np.diag(np.concatenate([sigma, [0.0]])), tree)
        rng = np.random.default_rng(3)
        e = rng.standard_normal((5, 5))
        e *= 0.15 / np.linalg.norm(e)
        v = from_dense(np.diag(np.concatenate([sigma, [0.0]])) + e, tree)
        report = reduction_quasi_optimality_check(u_ref, v, eta=0.2, alpha=1.0)
        assert report["rank"]["reference_ranks"] == (3,)
        assert report["rank"]["target_ranks"][0] <= 3
        assert report["rank"]["error_bound"] == pytest.approx(0.6, rel=1e-12)
        assert report["passed"]

    def test_randomized_d3_no_violations(self):
        rng = np.random.default_rng(11)
        tree = build_balanced_tree(3)
        dims = (5, 6, 7)
        violations = 0
        for trial in range(200):
            u_ref = random_htensor(tree, dims, int(rng.integers(2, 5)), rng)
            bump = random_htensor(tree, dims, int(rng.integers(1, 3)), rng)
            gap_target = norm(u_ref) * 10.0 ** rng.uniform(-4.0, -0.5)
            v = add(u_ref, scale(gap_target / norm(bump), bump))
            eta = norm(add(u_ref, scale(-1.0, v))) * rng.uniform(1.0, 5.0)
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            report = reduction_quasi_optimality_check(u_ref, v, eta, alpha)
            if not report["passed"]:
                violations += 1
        assert violations == 0

    def test_precondition_enforced(self):
        rng = np.random.default_rng(5)
        tree = build_balanced_tree(2)
        u_ref = random_htensor(tree, (6, 6), 2, rng)
        bump = random_htensor(tree, (6, 6), 2, rng)
        v = add(u_ref, scale(0.5 / norm(bump), bump))
        with pytest.raises(ValueError, match="precondition"):
            reduction_quasi_optimality_check(u_ref, v, eta=0.1)

    def test_validation(self):
        rng = np.random.default_rng(5)
        tree = build_balanced_tree(2)
        u_ref = random_htensor(tree, (6, 6), 2, rng)
        with pytest.raises(ValueError, match="eta"):
            reduction_quasi_optimality_check(u_ref, u_ref, eta=-1.0)
        with pytest.raises(ValueError, match="alpha"):
            reduction_quasi_optimality_check(u_ref, u_ref, eta=0.1, alpha=0.0)
        other = random_htensor(tree, (6, 5), 2, rng)
        with pytest.raises(ValueError, match="dims"):
            reduction_quasi_optimality_check(u_ref, other, eta=10.0)


def test_solve_orthogonalizes_rhs_once(monkeypatch):
    # every inner step reduces f; its orthogonal form and spectrum are
    # computed in the first and read afterwards
    import htsolve.hsvd as hsvd_module

    problem = load_problem(FIXTURES / "diffusion_d3_sine.ini")
    f = problem.rhs
    assert not f.orthogonal
    seen = []
    compute = hsvd_module._orthogonal_form

    def counting(h):
        seen.append(h)
        return compute(h)

    monkeypatch.setattr(hsvd_module, "_orthogonal_form", counting)
    cfg = default_config(problem.operator, f, eps=1e-2)
    _, report = solve(problem.operator, f, cfg)
    assert len(report.steps) > 1
    assert sum(h is f for h in seen) == 1


def test_step_wall_covers_inner_reductions(monkeypatch):
    # a step's wall time ends after the step's recompress/coarsen reduction
    reduce = solver_module.coarsen

    def slow(*args, **kwargs):
        time.sleep(0.005)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(solver_module, "coarsen", slow)
    f = uniform_rank_one((8, 8))
    a = identity_operator((8, 8))
    cfg = default_config(a, f, eps=1e-3 * norm(f))
    _, report = solve(a, f, cfg)
    assert len(report.steps) > 1
    assert all(s["wall"] >= 0.005 for s in report.steps)


class TestInnerRecompression:
    def test_records_ranks_around_the_inner_reduction(self, diffusion_d2):
        problem, _ = diffusion_d2
        cfg = default_config(problem.operator, problem.rhs, eps=1e-2)
        _, report = solve(problem.operator, problem.rhs, cfg)
        for s, nxt in zip(report.steps, report.steps[1:]):
            assert s["kept_rank"] <= s["pre_rank"]
            if nxt["j"] > 0:  # the next step starts from this step's result
                assert max(nxt["ranks"]) == s["kept_rank"]
        assert report.max_pre_rank == max(s["pre_rank"] for s in report.steps)
        assert report.to_json_dict()["max_pre_rank"] == report.max_pre_rank

    def test_default_bounds_inner_ranks_on_parametric_d3(self):
        # the untruncated inner step grows w - omega r to rank 29 here; a
        # quarter of eta spent on recompression keeps it at about half that
        problem = load_problem(FIXTURES / "parametric_d3.ini")
        cfg = default_config(problem.operator, problem.rhs, eps=1e-4)
        _, truncated = solve(problem.operator, problem.rhs, cfg)
        _, untruncated = solve(problem.operator, problem.rhs,
                               dataclasses.replace(cfg, beta1=0.0))
        assert truncated.max_pre_rank < untruncated.max_pre_rank
        assert len(truncated.steps) == len(untruncated.steps)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(beta1=st.floats(min_value=0.0, max_value=2.0))
def test_any_beta1_certifies_parametric_d2(parametric_d2, beta1):
    problem, u_dense = parametric_d2
    cfg = dataclasses.replace(
        default_config(problem.operator, problem.rhs, eps=1e-4), beta1=beta1)
    u, report = solve(problem.operator, problem.rhs, cfg)
    err = np.linalg.norm(to_dense(u) - u_dense)
    assert report.inner_per_outer == inner_repetitions(problem.operator,
                                                       problem.rhs, cfg)
    check_inner_passes(report, cfg, float(problem.operator.bounds.lower))
    assert report.final_error_bound <= cfg.eps
    assert report.residual_interval[0] <= err <= report.final_error_bound


class TestInnerExit:
    def test_passes_end_early_on_parametric_d3(self, parametric_d3):
        # rho = 0.1 here: the certified residual proves the outer target
        # after 2 of the 3 scheduled steps in every pass but the last
        problem = parametric_d3
        cfg = default_config(problem.operator, problem.rhs, eps=1e-4)
        _, report = solve(problem.operator, problem.rhs, cfg)
        counts = check_inner_passes(report, cfg, float(problem.operator.bounds.lower))
        reps = inner_repetitions(problem.operator, problem.rhs, cfg)
        assert reps == 3 and counts == [2] * (len(counts) - 1) + [3]
        target = [cfg.kappa1 * o["bound"] for o in report.outer_steps]
        assert all(o["inner_exit_bound"] <= t * (1.0 + 1e-12)
                   for o, t in zip(report.outer_steps, target))

    def test_report_records_each_pass(self, diffusion_d2):
        problem, _ = diffusion_d2
        cfg = default_config(problem.operator, problem.rhs, eps=1e-2)
        _, report = solve(problem.operator, problem.rhs, cfg)
        payload = report.to_json_dict()
        for got, want in zip(payload["outer_steps"], report.outer_steps):
            assert got["inner_steps"] == want["inner_steps"]
            assert got["inner_exit_bound"] == want["inner_exit_bound"]
        assert report.csv_rows()[0] == ["k", "j", "eta", "res_lo", "res_hi",
                                        "max_rank", "total_support"]
        assert len(report.csv_rows()) == len(report.steps) + 1

    def test_single_pass_runs_every_step(self, parametric_d3):
        # the last pass keeps its scheduled length: a one-pass solve never
        # exits early, whatever its residuals prove
        problem = parametric_d3
        eps0 = norm(problem.rhs) / problem.operator.bounds.lower
        cfg = default_config(problem.operator, problem.rhs, eps=0.6 * eps0)
        _, report = solve(problem.operator, problem.rhs, cfg)
        assert report.outer_iterations == 1
        assert report.outer_steps[0]["inner_steps"] == inner_repetitions(
            problem.operator, problem.rhs, cfg)
