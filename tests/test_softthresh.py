"""Soft thresholding: pinned values, dense shrinkage oracles, the iteration."""

from pathlib import Path

import numpy as np
import pytest

import htsolve.hsvd as hsvd_module
from htsolve.errors import ContractionViolationError
from htsolve.htree import build_balanced_tree, build_linear_tree
from htsolve.hsvd import (
    HTensor,
    _project,
    _projection_data,
    add,
    edge_spectra,
    from_dense,
    norm,
    orthogonalize,
    random_htensor,
    scale,
    to_dense,
)
from htsolve.ops import LowRankOperator, OperatorBounds
from htsolve.problems import _assemble_sparse, dense_solve, load_problem
from htsolve.softthresh import (
    soft_scalar,
    soft_threshold,
    soft_threshold_edge,
    st_solve,
)

from oracles import (
    ORTHONORMAL_TOL,
    SUM_CASES,
    identity_operator,
    random_lowish_rank,
    random_sum,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def all_nodes_soft_threshold_edge(h, edge, eta):
    """Reference edge shrinkage that projects every node onto its full
    truncation basis from ``_projection_data`` (square, so the projection is
    the identity up to roundoff) and only the thresholded edge's is cut and
    scaled."""
    ho = orthogonalize(h)
    spectrum, vectors = _projection_data(ho)
    sig = spectrum.sigmas[edge]
    shrunk = soft_scalar(sig, eta)
    k = int(np.count_nonzero(shrunk > 0.0))
    node = ho.edge_list.edges[edge]
    scaled = dict(vectors)
    scaled[node] = vectors[node][:, :k] * np.sqrt(shrunk[:k] / sig[:k])
    left, right = ho.tree.child_pair(ho.tree.root)
    if node == left:
        scaled[right] = vectors[right][:, :k]
    return _project(ho, scaled, {n: v.shape[1] for n, v in scaled.items()})


class TestSoftScalar:
    def test_pinned_values(self):
        assert soft_scalar(3, 1) == 2.0
        assert soft_scalar(-0.5, 1) == 0.0
        assert soft_scalar(-3, 1) == -2.0

    def test_array(self):
        x = np.array([3.0, -0.5, -3.0, 0.0, 1.0])
        assert np.allclose(soft_scalar(x, 1.0), [2.0, 0.0, -2.0, 0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            soft_scalar(1.0, -0.1)
        with pytest.raises(ValueError):
            soft_scalar([1.0, 2.0], np.nan)
        assert np.array_equal(soft_scalar([1.0, -2.0], np.inf), [0.0, 0.0])


def matrix_with_singular_values(sv, shape, rng):
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], len(sv))))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], len(sv))))
    return u @ np.diag(sv) @ v.T


class TestSoftThresholdEdge:
    def test_pinned_two_dimensional_case(self):
        rng = np.random.default_rng(1)
        m = matrix_with_singular_values([3.0, 2.0, 1.0], (6, 5), rng)
        h = from_dense(m, build_balanced_tree(2))
        out = soft_threshold_edge(h, 0, 1.5)
        sv = np.linalg.svd(to_dense(out), compute_uv=False)
        assert out.ranks == (2,)
        assert np.allclose(sv[:2], [1.5, 0.5], atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(2)
        tree = build_balanced_tree(3)
        h = random_lowish_rank(tree, (5, 4, 6), 2, rng)
        ht = from_dense(h, tree)
        for i in range(len(ht.edge_list.edges)):
            out = soft_threshold_edge(ht, i, 0.0)
            assert np.linalg.norm(to_dense(out) - h) <= 1e-12 * np.linalg.norm(h)

    def test_above_top_singular_value_gives_zero(self):
        rng = np.random.default_rng(3)
        tree = build_balanced_tree(2)
        h = from_dense(rng.standard_normal((5, 5)), tree)
        s1 = edge_spectra(h).sigmas[0][0]
        out = soft_threshold_edge(h, 0, s1 + 1e-9)
        assert norm(out) == 0.0

    @pytest.mark.parametrize("tree,dims", [
        (build_balanced_tree(2), (6, 7)),
        (build_balanced_tree(3), (5, 4, 6)),
        (build_linear_tree(4), (4, 3, 4, 3)),
        (build_balanced_tree(4), (3, 4, 3, 4)),
    ])
    def test_edge_spectrum_identity(self, tree, dims):
        # the output's edge-i singular values are s_eta of the input's
        rng = np.random.default_rng(len(dims))
        h = from_dense(rng.standard_normal(dims), tree)
        spec_in = edge_spectra(h)
        for i in range(len(h.edge_list.edges)):
            sig = spec_in.sigmas[i]
            eta = 0.4 * sig[0]
            out = soft_threshold_edge(h, i, eta)
            want = np.maximum(sig - eta, 0.0)
            want = want[want > 0]
            got = edge_spectra(out).sigmas[i][: len(want)]
            assert np.abs(got - want).max() <= 1e-10 * sig[0]

    @pytest.mark.parametrize("tree,seed", SUM_CASES)
    def test_result_is_orthogonal(self, tree, seed):
        h = random_sum(tree, seed)
        spectrum = edge_spectra(h)
        for i in range(len(h.edge_list.edges)):
            out = soft_threshold_edge(h, i, 0.3 * spectrum.sigmas[i][0])
            assert out.orthogonal
            mats = list(out.frames.values()) + [b.reshape(-1, b.shape[2])
                                                for b in out.transfer.values()]
            for q in mats:
                dev = np.abs(q.T @ q - np.eye(q.shape[1])).max(initial=0.0)
                assert dev <= ORTHONORMAL_TOL

    @pytest.mark.parametrize("tree,dims", [
        (build_balanced_tree(3), (4, 5, 3)),
        (build_linear_tree(3), (3, 4, 5)),
        (build_balanced_tree(4), (3, 4, 3, 4)),
        (build_linear_tree(4), (4, 3, 3, 4)),
    ])
    def test_one_spectral_svd_per_edge(self, tree, dims, monkeypatch):
        # equals projecting every node onto its full (square) basis.  Away
        # from the root edge each call runs one spectral SVD of the edge's
        # node and the root-core SVD of its sweep; at the root edge none,
        # since its spectrum is the orthogonal root's diagonal and the cut a
        # slice of the root children
        rng = np.random.default_rng(sum(dims) + tree.d)
        h = orthogonalize(random_htensor(tree, dims, 4, rng))
        eta = 0.3 * min(s[0] for s in edge_spectra(h).sigmas)
        root_edge = tree.child_pair(tree.root)[0]
        for i in range(len(h.edge_list.edges)):
            want = to_dense(all_nodes_soft_threshold_edge(h, i, eta))
            fresh = HTensor._trusted(h.tree, h.dims, h.frames, h.transfer,
                                     h.root_transfer, orthogonal=True)
            shapes = []
            svd = hsvd_module._svd
            monkeypatch.setattr(hsvd_module, "_svd",
                                lambda a: shapes.append(a.shape) or svd(a))
            got = to_dense(soft_threshold_edge(fresh, i, eta))
            monkeypatch.undo()
            assert len(shapes) == (0 if h.edge_list.edges[i] == root_edge else 2), shapes
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_edge_index_validation(self):
        h = random_htensor(build_balanced_tree(2), (3, 3), 1, np.random.default_rng(0))
        with pytest.raises(IndexError):
            soft_threshold_edge(h, 1, 0.1)
        with pytest.raises(IndexError):
            soft_threshold_edge(h, -1, 0.1)
        with pytest.raises(ValueError):
            soft_threshold_edge(h, 0, -0.5)
        with pytest.raises(ValueError):
            soft_threshold_edge(h, 0, np.nan)
        assert soft_threshold_edge(h, 0, np.inf).ranks == (0,)


class TestSoftThreshold:
    def test_matches_dense_shrinkage_d2(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((9, 8))
        h = from_dense(m, build_balanced_tree(2))
        sv = np.linalg.svd(m, compute_uv=False)
        for eta in (0.2 * sv[0], 0.6 * sv[0]):
            out = soft_threshold(h, eta)
            want = np.maximum(sv - eta, 0.0)
            got = np.linalg.svd(to_dense(out), compute_uv=False)
            k = np.count_nonzero(want)
            assert np.abs(got[:k] - want[:k]).max() <= 1e-10 * sv[0]

    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(8)
        tree = build_balanced_tree(3)
        data = random_lowish_rank(tree, (5, 5, 5), 2, rng, noise=0.01)
        h = from_dense(data, tree)
        out = soft_threshold(h, 0.0)
        assert np.linalg.norm(to_dense(out) - data) <= 1e-12 * np.linalg.norm(data)

    def test_large_threshold_zero(self):
        rng = np.random.default_rng(9)
        h = random_htensor(build_balanced_tree(3), (4, 4, 4), 2, rng)
        assert norm(soft_threshold(h, 2.0 * norm(h))) == 0.0
        assert soft_threshold(h, np.inf).ranks == (0, 0, 0)

    def test_nan_threshold_rejected(self):
        # NaN passes an ``eta < 0`` check and would shrink everything away
        h = random_htensor(build_balanced_tree(3), (4, 4, 4), 2,
                           np.random.default_rng(9))
        with pytest.raises(ValueError):
            soft_threshold(h, np.nan)

    def test_non_expansive(self):
        rng = np.random.default_rng(10)
        trees = [(build_balanced_tree(2), (6, 6)),
                 (build_balanced_tree(3), (5, 4, 5)),
                 (build_linear_tree(4), (3, 4, 3, 3))]
        for trial in range(200):
            tree, dims = trees[trial % len(trees)]
            a = random_htensor(tree, dims, int(rng.integers(1, 4)), rng)
            b = random_htensor(tree, dims, int(rng.integers(1, 4)), rng)
            eta = float(rng.random()) * 1.5
            lhs = norm(add(soft_threshold(a, eta), scale(-1.0, soft_threshold(b, eta))))
            rhs = norm(add(a, scale(-1.0, b)))
            assert lhs <= rhs + 1e-10 * (norm(a) + norm(b))


def kron_sum_operator(mat, d):
    n = mat.shape[0]
    terms = []
    for i in range(d):
        term = [None] * d
        term[i] = mat
        terms.append(tuple(term))
    return LowRankOperator((n,) * d, terms)


def with_bounds(a, lower, upper):
    """``a`` carrying the bounds ``(lower, upper)``; st_solve reads the upper."""
    a.bounds = OperatorBounds(lower, upper)
    return a


class TestStSolve:
    def test_identity_fixed_point(self):
        # for A = I, omega = 1: every iterate is S_alpha(f) exactly
        rng = np.random.default_rng(20)
        tree = build_balanced_tree(2)
        f = random_htensor(tree, (8, 8), 3, rng)
        a = with_bounds(identity_operator((8, 8)), 1.0, 1.5)
        u, trace = st_solve(a, f, omega=1.0, xi=0.5, eps=1e-6)
        alpha_last = trace[-1]["alpha"]
        want = soft_threshold(f, alpha_last)
        assert np.linalg.norm(to_dense(u) - to_dense(want)) <= 1e-10 * norm(f)
        assert np.linalg.norm(to_dense(u) - to_dense(f)) <= 1e-6

    def test_kronecker_sum_reaches_tolerance(self):
        rng = np.random.default_rng(21)
        n = 8
        lap = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) + 2.0 * np.eye(n)
        a = kron_sum_operator(lap, 2)
        dense = _assemble_sparse(a).toarray()
        ev = np.linalg.eigvalsh(dense)
        with_bounds(a, ev[0], 1.05 * ev[-1])
        omega = 2.0 / (ev[0] + ev[-1])
        xi = (ev[-1] - ev[0]) / (ev[-1] + ev[0])
        f = random_htensor(build_balanced_tree(2), (n, n), 3, rng)
        u_dense = np.linalg.solve(dense, to_dense(f).ravel())
        eps = 1e-6
        u, trace = st_solve(a, f, omega=omega, xi=xi, eps=eps, max_iter=3000)
        err = np.linalg.norm(to_dense(u).ravel() - u_dense)
        assert err <= eps

        # threshold trace: nonincreasing, each step keeps or halves
        alphas = [t["alpha"] for t in trace]
        for x, y in zip(alphas, alphas[1:]):
            assert y == x or y == pytest.approx(x / 2)

        # fixed-point sandwich at the final threshold, rho = xi
        u_dense_ht = from_dense(u_dense.reshape(n, n), build_balanced_tree(2))
        gap = norm(add(soft_threshold(u_dense_ht, alphas[-1]),
                       scale(-1.0, u_dense_ht)))
        slack = eps + 1e-12
        assert gap / (1 + xi) - slack <= err <= gap / (1 - xi) + slack

    def test_certified_residual_path_with_scaled_operator(self):
        # ideally scaled Kronecker sum: the operator acts as the identity, so
        # the iteration converges to f; residual intervals are genuine
        from test_ops import ideal_scaled_operator

        rng = np.random.default_rng(22)
        dims = (5, 4, 6)
        a = with_bounds(ideal_scaled_operator(dims, rng), 1.0, 1.6)
        f = random_htensor(build_balanced_tree(3), dims, 2, rng)
        u, trace = st_solve(a, f, omega=1.0, xi=0.6, eps=1e-5, max_iter=2000)
        err = np.linalg.norm(to_dense(u) - to_dense(f))
        assert err <= 1e-5
        assert all(t["res_lo"] <= t["res_hi"] for t in trace)

    def test_divergence_detected(self):
        rng = np.random.default_rng(23)
        n = 8
        lap = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        a = kron_sum_operator(lap, 2)
        ev = np.linalg.eigvalsh(_assemble_sparse(a).toarray())
        with_bounds(a, ev[0], 1.05 * ev[-1])
        f = random_htensor(build_balanced_tree(2), (n, n), 2, rng)
        with pytest.raises(ContractionViolationError):
            st_solve(a, f, omega=3.0 / ev[0], xi=0.9, eps=1e-6, max_iter=200)

    def test_iteration_cap(self):
        rng = np.random.default_rng(24)
        n = 6
        lap = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        a = kron_sum_operator(lap, 2)
        ev = np.linalg.eigvalsh(_assemble_sparse(a).toarray())
        with_bounds(a, ev[0], 1.05 * ev[-1])
        omega = 2.0 / (ev[0] + ev[-1])
        xi = (ev[-1] - ev[0]) / (ev[-1] + ev[0])
        f = random_htensor(build_balanced_tree(2), (n, n), 2, rng)
        with pytest.raises(ContractionViolationError, match="iterations"):
            st_solve(a, f, omega=omega, xi=xi, eps=1e-10, max_iter=3)

    def test_zero_rhs(self):
        from htsolve.hsvd import zero_htensor

        f = zero_htensor(build_balanced_tree(2), (4, 4))
        a = with_bounds(identity_operator((4, 4)), 1.0, 2.0)
        u, trace = st_solve(a, f, omega=1.0, xi=0.5, eps=1e-6)
        assert norm(u) == 0.0 and trace == []

    def test_validation(self):
        rng = np.random.default_rng(25)
        f = random_htensor(build_balanced_tree(2), (4, 4), 1, rng)
        a = with_bounds(identity_operator((4, 4)), 1.0, 2.0)
        with pytest.raises(ValueError):
            st_solve(a, f, omega=1.0, xi=1.0, eps=1e-6)
        with pytest.raises(ValueError):
            st_solve(a, f, omega=-1.0, xi=0.5, eps=1e-6)
        with pytest.raises(ValueError):
            st_solve(a, f, omega=1.0, xi=0.5, eps=0.0)
        for eps in (np.nan, np.inf):
            with pytest.raises(ValueError, match="eps"):
                st_solve(a, f, omega=1.0, xi=0.5, eps=eps)
        with pytest.raises(ValueError, match="max_iter"):
            st_solve(a, f, omega=1.0, xi=0.5, eps=1e-6, max_iter=0)
        g = random_htensor(build_balanced_tree(2), (5, 5), 1, rng)
        with pytest.raises(ValueError):
            st_solve(a, g, omega=1.0, xi=0.5, eps=1e-6)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["omega", "upper"])
    def test_rejects_non_finite_step_and_bound(self, name, value):
        rng = np.random.default_rng(26)
        f = random_htensor(build_balanced_tree(2), (4, 4), 1, rng)
        kwargs = dict(omega=1.0, upper=2.0)
        kwargs[name] = value
        a = with_bounds(identity_operator((4, 4)), 1.0, kwargs["upper"])
        with pytest.raises(ValueError, match=name):
            st_solve(a, f, omega=kwargs["omega"], xi=0.5, eps=1e-6)

    @pytest.mark.parametrize("name,eps", [("diffusion_d2_sine", 1e-8),
                                          ("parametric_d2", 1e-10)])
    def test_fixture_error_within_tight_eps(self, name, eps):
        # an exact residual trim planned from a Gram spectrum once dropped
        # real residual mass: these runs stopped at dense errors of 2.3e-8
        # and 9.5e-9
        problem = load_problem(FIXTURES / f"{name}.ini")
        a = problem.operator
        lower, upper = a.bounds.lower, a.bounds.upper
        u, _ = st_solve(a, problem.rhs, omega=2.0 / (upper + lower),
                        xi=(upper - lower) / (upper + lower), eps=eps)
        assert np.linalg.norm(to_dense(u) - dense_solve(problem)) <= eps
