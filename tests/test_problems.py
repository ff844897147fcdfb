"""Problem builders: Galerkin oracles, ellipticity, rank law, dense solve."""

import configparser
from pathlib import Path

import numpy as np
import pytest

import htsolve.ops as ops_module
from htsolve.hsvd import to_dense
from htsolve.problems import (
    _assemble_sparse,
    build_diffusion_I,
    build_parametric_II,
    dense_solve,
    legendre_coupling,
    load_problem,
    multilevel_coupling,
    sine_first_derivative,
)

from oracles import spatial_parametric_singular_values

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestSineFirstDerivative:
    def test_pinned_entries(self):
        c = sine_first_derivative(3)
        # integral of phi_2' phi_1 = 2*2*1*2/(1-4) = -8/3
        assert c[0, 1] == pytest.approx(-8.0 / 3.0)
        assert c[1, 0] == pytest.approx(8.0 / 3.0)
        assert c[2, 1] == pytest.approx(2 * 2 * 3 * 2 / (9 - 4))
        assert np.all(np.diag(c) == 0.0)

    def test_antisymmetric(self):
        c = sine_first_derivative(7)
        assert np.abs(c + c.T).max() == 0.0

    def test_quadrature_oracle(self):
        n = 4
        x, w = np.polynomial.legendre.leggauss(200)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        k = np.arange(1, n + 1)
        phi = np.sqrt(2) * np.sin(np.pi * np.outer(k, x))
        dphi = np.sqrt(2) * np.pi * k[:, None] * np.cos(np.pi * np.outer(k, x))
        want = np.einsum("kx,lx,x->lk", dphi, phi, w)
        assert np.abs(sine_first_derivative(n) - want).max() <= 1e-12


class TestMultilevelCoupling:
    def test_pinned_small_case(self):
        g, levels = multilevel_coupling(1, rho=0.15)
        assert list(levels) == [0, 1, 1]
        want = np.array([[1.0, 0.15, 0.15], [0.15, 1.0, 0.0], [0.15, 0.0, 1.0]])
        assert np.abs(g - want).max() == 0.0

    def test_diagonally_dominant(self):
        for max_level in (3, 4, 5):
            g, _ = multilevel_coupling(max_level)
            off = np.abs(g).sum(axis=1) - 1.0
            assert off.max() < 1.0
            assert np.abs(g - g.T).max() == 0.0

    def test_only_nested_pairs_couple(self):
        g, levels = multilevel_coupling(2)
        # rows (1, t=0) -> index 1 and (2, t=2) -> index 5 are not nested
        assert g[1, 5] == 0.0
        assert g[1, 3] == 0.15  # (1,0) contains (2,0)


class TestBuildDiffusionI:
    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            build_diffusion_I(2, ("eigensine", 4), [[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            build_diffusion_I(2, ("eigensine", 4), [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="diagonal"):
            build_diffusion_I(2, ("multilevel", 2), [[1.0, 0.3], [0.3, 1.0]])
        with pytest.raises(ValueError, match="basis"):
            build_diffusion_I(2, ("fourier", 4), np.eye(2))
        with pytest.raises(ValueError, match="d >= 2"):
            build_diffusion_I(1, ("eigensine", 4), np.eye(1))
        with pytest.raises(ValueError, match="shape"):
            build_diffusion_I(3, ("eigensine", 4), np.eye(2))

    def test_identity_coefficient_condition(self):
        p = build_diffusion_I(2, ("eigensine", 4), np.eye(2))
        a = _assemble_sparse(p.operator).toarray()
        ev = np.linalg.eigvalsh(0.5 * (a + a.T))
        assert ev[-1] / ev[0] <= 4.0

    def test_kronecker_sum_term_count(self):
        p = build_diffusion_I(3, ("eigensine", 4), np.eye(3))
        assert p.operator.num_terms == 3

    def test_rank_one_rhs(self):
        p = build_diffusion_I(3, ("eigensine", 5), np.eye(3))
        assert p.rhs.ranks == (1,) * len(p.rhs.ranks)

    def test_galerkin_quadrature_oracle(self):
        # brute-force Gauss quadrature of the full bilinear form, d=2
        n = 3
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        p = build_diffusion_I(2, ("eigensine", n), m)
        unscaled = sum(
            np.kron(np.eye(n) if t[0] is None else t[0].toarray(),
                    np.eye(n) if t[1] is None else t[1].toarray())
            for t in p.operator.terms)

        x, w = np.polynomial.legendre.leggauss(200)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        k = np.arange(1, n + 1)
        phi = np.sqrt(2) * np.sin(np.pi * np.outer(k, x))
        dphi = np.sqrt(2) * np.pi * k[:, None] * np.cos(np.pi * np.outer(k, x))
        s1 = np.einsum("kx,lx,x->kl", dphi, dphi, w)
        i1 = np.einsum("kx,lx,x->kl", phi, phi, w)
        c1 = np.einsum("kx,lx,x->lk", dphi, phi, w)
        want = np.zeros((n * n, n * n))
        for l1 in range(n):
            for l2 in range(n):
                for k1 in range(n):
                    for k2 in range(n):
                        want[l1 * n + l2, k1 * n + k2] = (
                            m[0, 0] * s1[l1, k1] * i1[l2, k2]
                            + m[1, 1] * i1[l1, k1] * s1[l2, k2]
                            + m[0, 1] * c1[l1, k1] * c1[k2, l2]
                            + m[1, 0] * c1[k1, l1] * c1[l2, k2])
        assert np.abs(unscaled - want).max() <= 1e-9

    @pytest.mark.parametrize("spec,m", [
        (("eigensine", 6), [[1.0, 0.3], [0.3, 1.0]]),
        (("eigensine", 4), [[1.0, 0.2, 0.0], [0.2, 1.0, 0.2], [0.0, 0.2, 1.0]]),
        (("multilevel", 3), np.diag([1.0, 1.5, 2.0])),
        (("multilevel", 2), np.diag([2.0, 1.0])),
    ])
    def test_spd_and_certified_bounds_densely(self, spec, m):
        p = build_diffusion_I(len(np.atleast_2d(m)), spec, m)
        a = _assemble_sparse(p.operator).toarray()
        assert np.abs(a - a.T).max() <= 1e-10 * np.abs(a).max()
        ev = np.linalg.eigvalsh(0.5 * (a + a.T))
        assert ev[0] > 0.0
        b = p.operator.bounds
        assert b.lower - 1e-10 <= ev[0] and ev[-1] <= b.upper + 1e-10
        assert ev[-1] / ev[0] <= 10.0

    def test_multilevel_structure(self):
        p = build_diffusion_I(2, ("multilevel", 3), np.eye(2))
        n = 2**4 - 1
        assert p.dims == (n, n)
        stiff = p.operator.terms[0][0].toarray()
        _, levels = multilevel_coupling(3)
        assert np.allclose(np.diag(stiff), 4.0**levels)
        weights = p.operator.scaling_left.level_weights
        assert len(weights) == 2
        assert np.allclose(weights[0], 4.0**levels)

    def test_cross_terms_present_only_when_needed(self):
        p = build_diffusion_I(3, ("eigensine", 4),
                              [[1.0, 0.2, 0.0], [0.2, 1.0, 0.2],
                               [0.0, 0.2, 1.0]])
        assert p.operator.num_terms == 3 + 2


class TestBuildParametricII:
    def test_legendre_coupling_pinned(self):
        m = legendre_coupling(3)
        assert m[0, 1] == pytest.approx(1.0 / np.sqrt(3.0))
        assert m[1, 2] == pytest.approx(2.0 / np.sqrt(3.0 * 5.0))
        assert m[2, 3] == pytest.approx(3.0 / np.sqrt(5.0 * 7.0))

    def test_coupling_matrices_structure(self):
        p = build_parametric_II(16, 3, ("disjoint", 3), 0.2, 5)
        for j, term in enumerate(p.operator.terms[1:], start=1):
            mj = term[j].toarray()
            assert np.abs(mj - mj.T).max() == 0.0
            assert np.all(np.diag(mj) == 0.0)
            off_band = mj - np.diag(np.diag(mj, 1), 1) - np.diag(np.diag(mj, -1), -1)
            assert np.abs(off_band).max() == 0.0

    def test_partition_layout(self):
        p = build_parametric_II(32, 3, ("disjoint", 3), 0.15, 4)
        total = np.sum(np.abs(p.fields), axis=0)
        assert np.allclose(total, 0.15)
        lo_all = [lo for lo, _, _ in p.inclusions]
        hi_all = [hi for _, hi, _ in p.inclusions]
        assert lo_all[0] == 0 and hi_all[-1] == 32
        assert lo_all[1:] == hi_all[:-1]

    def test_zero_amplitude_reduces_to_identity(self):
        p = build_parametric_II(8, 1, ("explicit", [(0.0, 1.0, 0.0)]), 0.5, 3)
        a = _assemble_sparse(p.operator).toarray()
        assert np.abs(a - np.eye(a.shape[0])).max() <= 1e-12

    def test_equal_overlapping_inclusions(self):
        d, theta = 3, 0.9
        spec = ("explicit", [(0.0, 1.0, theta / d)] * d)
        p = build_parametric_II(8, d, spec, theta, 3)
        assert np.allclose(np.sum(np.abs(p.fields), axis=0), theta)
        with pytest.raises(ValueError, match="ellipticity"):
            build_parametric_II(8, d, ("explicit",
                                       [(0.0, 1.0, theta / d * 1.01)] * d),
                                theta, 3)

    def test_spectrum_inside_theta_bracket(self):
        theta = 0.3
        p = build_parametric_II(16, 2, ("disjoint", 2), theta, 4)
        a = _assemble_sparse(p.operator).toarray()
        ev = np.linalg.eigvalsh(0.5 * (a + a.T))
        assert ev[0] >= 1.0 - theta - 1e-10
        assert ev[-1] <= 1.0 + theta + 1e-10
        b = p.operator.bounds
        assert b.lower - 1e-10 <= ev[0] and ev[-1] <= b.upper + 1e-10

    def test_y_independent_rhs_is_rank_one(self):
        p = build_parametric_II(16, 3, ("disjoint", 3), 0.1, 4)
        assert p.rhs.ranks == (1,) * len(p.rhs.ranks)
        dense = to_dense(p.rhs)
        assert np.abs(dense[:, 1:, :, :]).max() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="theta"):
            build_parametric_II(16, 2, ("disjoint", 2), 1.0, 4)
        with pytest.raises(ValueError, match="degree"):
            build_parametric_II(16, 2, ("disjoint", 2), 0.5, 0)
        with pytest.raises(ValueError, match="coarse"):
            build_parametric_II(3, 2, ("disjoint", 2), 0.5, 4)
        with pytest.raises(ValueError, match="one inclusion per"):
            build_parametric_II(16, 2, ("disjoint", 3), 0.5, 4)
        with pytest.raises(ValueError, match="fit"):
            build_parametric_II(16, 1, ("explicit", [(0.5, 1.5, 0.1)]), 0.5, 4)
        with pytest.raises(ValueError, match="y-independent"):
            build_diffusion_I(2, ("eigensine", 4), np.eye(2),
                              rhs_spec=("y-independent",))


class TestDenseSolve:
    def test_identity_operator_returns_rhs(self):
        p = build_parametric_II(8, 1, ("explicit", [(0.0, 1.0, 0.0)]), 0.5, 3)
        u = dense_solve(p)
        assert np.abs(u - to_dense(p.rhs)).max() <= 1e-12

    def test_residual_contract(self):
        for p in (build_diffusion_I(2, ("eigensine", 6),
                                    [[1.0, 0.3], [0.3, 1.0]]),
                  build_parametric_II(16, 2, ("disjoint", 2), 0.1, 5)):
            u = dense_solve(p)
            mat = _assemble_sparse(p.operator)
            f = to_dense(p.rhs).ravel()
            assert np.linalg.norm(mat @ u.ravel() - f) <= 1e-10 * np.linalg.norm(f)

    def test_sparse_path_matches_dense_path(self):
        # 10633 unknowns takes the sparse factorization branch
        p = build_parametric_II(32, 3, ("disjoint", 3), 0.1, 6)
        u = dense_solve(p)
        mat = _assemble_sparse(p.operator).toarray()
        want = np.linalg.solve(mat, to_dense(p.rhs).ravel())
        assert np.linalg.norm(u.ravel() - want) <= 1e-9 * np.linalg.norm(want)

    def test_size_guard(self):
        p = build_parametric_II(16, 2, ("disjoint", 2), 0.1, 5)
        with pytest.raises(ValueError, match="guard|unknowns"):
            dense_solve(p, guard=100)


class TestSpatialParametricRankLaw:
    def test_rank_one_for_y_independent_solution(self):
        p = build_parametric_II(8, 1, ("explicit", [(0.0, 1.0, 0.0)]), 0.5, 3)
        sv = spatial_parametric_singular_values(p, dense_solve(p))
        assert sv[1] <= 1e-12 * sv[0]

    def test_finite_rank_law_d3(self):
        p = build_parametric_II(32, 3, ("disjoint", 3), 0.1, 6)
        sv = spatial_parametric_singular_values(p, dense_solve(p))
        assert np.all(sv[5:] <= 1e-10 * sv[0])

    def test_numerical_rank_d2(self):
        p = build_parametric_II(16, 2, ("disjoint", 2), 0.1, 7)
        sv = spatial_parametric_singular_values(p, dense_solve(p))
        assert np.count_nonzero(sv > 1e-10 * sv[0]) <= 3

    def test_shape_validation(self):
        p = build_parametric_II(16, 2, ("disjoint", 2), 0.1, 4)
        with pytest.raises(ValueError, match="shape"):
            spatial_parametric_singular_values(p, np.zeros((3, 3)))


class TestResidualSandwich:
    @pytest.mark.parametrize("maker", [
        lambda: build_diffusion_I(2, ("eigensine", 6),
                                  [[1.0, 0.3], [0.3, 1.0]]),
        lambda: build_diffusion_I(3, ("multilevel", 2), np.diag([1.0, 1.5, 2.0]),
                                  rhs_spec=("random", 2, 7)),
        lambda: build_parametric_II(16, 2, ("disjoint", 2), 0.2, 5),
    ])
    def test_error_residual_equivalence(self, maker):
        p = maker()
        u = dense_solve(p).ravel()
        mat = _assemble_sparse(p.operator)
        f = to_dense(p.rhs).ravel()
        lo, hi = p.operator.bounds.lower, p.operator.bounds.upper
        rng = np.random.default_rng(42)
        for trial in range(50):
            g = rng.standard_normal(u.size)
            g *= 10.0 ** rng.uniform(-6, -1) * np.linalg.norm(u) / np.linalg.norm(g)
            w = u + g
            err = np.linalg.norm(g)
            res = np.linalg.norm(f - mat @ w)
            assert lo * err <= res * (1 + 1e-10)
            assert res <= hi * err * (1 + 1e-10)


class TestProblemSpecFiles:
    def test_shipped_fixtures_build(self):
        paths = sorted(FIXTURES.glob("*.ini"))
        assert len(paths) >= 8
        for path in paths:
            p = load_problem(path)
            assert p.operator.bounds is not None
            assert 0.0 < p.operator.bounds.lower <= p.operator.bounds.upper

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in FIXTURES.glob("diffusion_*.ini")))
    def test_loading_builds_no_expsum_table(self, name, monkeypatch):
        # tables are built only where an application asks for one; every
        # table build, under any name, runs the sup check refused here
        def refuse(*args, **kwargs):
            raise AssertionError("an exp-sum table was built")

        monkeypatch.setattr(ops_module, "build_scaling", refuse)
        monkeypatch.setattr(ops_module, "_scalar_expsum_relerr", refuse)
        p = load_problem(FIXTURES / f"{name}.ini")
        assert p.operator.scaling_left is p.operator.scaling_right

    def test_diffusion_roundtrip(self, tmp_path):
        spec = tmp_path / "p.ini"
        spec.write_text(
            "[problem]\nscenario = diffusion\nd = 2\nbasis = eigensine\n"
            "modes = 5\ndiffusion_matrix =\n"
            "  1.0 0.25\n  0.25 1.0\n[rhs]\nflavor = rank1\n")
        p = load_problem(spec)
        assert p.d == 2 and p.basis == "eigensine" and p.dims == (5, 5)
        assert p.diffusion[0, 1] == 0.25

    def test_parametric_roundtrip(self, tmp_path):
        spec = tmp_path / "p.ini"
        spec.write_text(
            "[problem]\nscenario = parametric\nintervals = 16\nd = 2\n"
            "theta = 0.15\ndegree = 5\n[rhs]\nflavor = y-independent\n")
        p = load_problem(spec)
        assert p.n == 16 and p.d == 2 and p.degree == 5
        assert p.theta == 0.15 and p.dims == (15, 6, 6)

    def test_explicit_inclusions(self, tmp_path):
        spec = tmp_path / "p.ini"
        spec.write_text(
            "[problem]\nscenario = parametric\nintervals = 8\nd = 1\n"
            "theta = 0.5\ndegree = 3\n[inclusions]\ni0 = 0.0 1.0 0.25\n"
            "[rhs]\nflavor = y-independent\n")
        p = load_problem(spec)
        assert p.inclusions == ((0, 8, 0.25),)

    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.ini")))
    def test_random_rhs_files_load(self, name, tmp_path):
        # the fixture with a seeded random right-hand side, as the benchmark
        # writes its inputs
        cfg = configparser.ConfigParser()
        cfg.read(FIXTURES / f"{name}.ini")
        cfg["rhs"] = {"flavor": "random", "rank": "2", "seed": "7"}
        spec = tmp_path / "p.ini"
        with open(spec, "w") as fh:
            cfg.write(fh)
        assert max(load_problem(spec).rhs.ranks) == 2

    def test_bad_files(self, tmp_path):
        missing = tmp_path / "nope.ini"
        with pytest.raises(FileNotFoundError):
            load_problem(missing)
        bad = tmp_path / "bad.ini"
        bad.write_text("[other]\nx = 1\n")
        with pytest.raises(ValueError, match="problem"):
            load_problem(bad)
        wrong = tmp_path / "wrong.ini"
        wrong.write_text("[problem]\nscenario = heat\n")
        with pytest.raises(ValueError, match="scenario"):
            load_problem(wrong)
