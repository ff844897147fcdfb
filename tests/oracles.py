"""Reference computations the test suite checks the package against.

The dense references work on full numpy arrays with no shared code paths
with the package internals (matricizations are re-derived from scratch), so
agreement is meaningful.  The literal operator sums (:func:`apply_exact`,
:func:`apply_scaling`) map leaf frames term by term and reuse only
:func:`htsolve.hsvd.add` to stack the terms; they are the references for
the one-sweep :func:`htsolve.hsvd.apply_cp`.  :func:`bh_exponential_sum` is a
sinc quadrature for ``1/x`` built from scratch.
:func:`reduction_quasi_optimality_check` runs the package's reductions on
purpose: it checks their ranks and supports against the best approximations
of a nearby reference, truncating at fixed ranks with
:func:`truncate_to_ranks`, which runs hsvd's own projection onto the
leading edge singular vectors.
:func:`inner`, :func:`identity_operator`, :func:`diagonally_scaled_terms`,
:func:`approx_dense_diag` and :func:`spatial_parametric_singular_values` are
small references that no solve needs.  :func:`check_inner_passes`
re-derives, from a solve report's recorded residuals, where each outer pass
had to end.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from htsolve.htree import (
    DimensionTree,
    build_balanced_tree,
    build_linear_tree,
    effective_edges,
)
from htsolve.hsvd import (
    ZERO_CUTOFF,
    HTensor,
    _node_rank_map,
    _project,
    _projection_data,
    _stored_ranks,
    add,
    contractions,
    edge_spectra,
    norm,
    orthogonalize,
    random_htensor,
    restrict_support,
    scale,
    select_support,
)
from htsolve.ops import LowRankOperator, OperatorBounds


#: Largest entry of ``|Q^T Q - I|`` accepted for a frame or matricized
#: transfer tensor that claims orthonormal columns.
ORTHONORMAL_TOL = 1e-10


def matricize(data: np.ndarray, modes) -> np.ndarray:
    """Rows indexed by ``modes`` (in the given order), columns by the rest."""
    modes = tuple(modes)
    rest = tuple(i for i in range(data.ndim) if i not in modes)
    moved = np.transpose(data, modes + rest)
    n_in = int(np.prod([data.shape[i] for i in modes], initial=1))
    return moved.reshape(n_in, -1)


def inner(a: HTensor, b: HTensor) -> float:
    """Euclidean inner product via a single bottom-up tree contraction."""
    if a.tree != b.tree or a.dims != b.dims:
        raise ValueError("tensors live in different spaces")
    tree = a.tree
    w = {}
    for node in tree.bottom_up():
        if node == tree.root:
            continue
        if tree.is_leaf(node):
            w[node] = a.frames[node[0]].T @ b.frames[node[0]]
        else:
            left, right = tree.child_pair(node)
            ta, tb = a.transfer[node], b.transfer[node]
            (r1, r2, k), (s1, s2, l) = ta.shape, tb.shape
            # sum_cd w_left[a, c] w_right[b, d] tb[c, d, l], then over a, b
            t = (w[left] @ tb.reshape(s1, s2 * l)).reshape(r1, s2, l)
            t = np.matmul(w[right], t)
            w[node] = ta.reshape(r1 * r2, k).T @ t.reshape(r1 * r2, l)
    left, right = tree.child_pair(tree.root)
    return float(np.vdot(a.root_transfer,
                         w[left] @ b.root_transfer @ w[right].T))


def spatial_parametric_singular_values(problem, u_dense: np.ndarray) -> np.ndarray:
    """Singular values of the spatial-vs-parametric matricization of a dense
    parametric solution in the problem's preconditioned coordinates (as
    :func:`htsolve.problems.dense_solve` returns it), where the Euclidean
    spatial inner product is the mean-field energy product."""
    u_dense = np.asarray(u_dense, dtype=np.float64)
    if u_dense.shape != problem.dims:
        raise ValueError(f"solution has shape {u_dense.shape}, expected "
                         f"{problem.dims}")
    return np.linalg.svd(u_dense.reshape(problem.dims[0], -1), compute_uv=False)


def dense_edge_singular_values(data: np.ndarray, tree: DimensionTree):
    """Per effective edge: singular values of the dense matricization."""
    out = []
    for node in effective_edges(tree):
        out.append(np.linalg.svd(matricize(data, node), compute_uv=False))
    return out


def dense_numerical_ranks(data: np.ndarray, tree: DimensionTree) -> tuple[int, ...]:
    """Per effective edge: the number of singular values of the dense
    matricization above ``ZERO_CUTOFF`` times the largest (0 for a zero
    array), the rule :class:`htsolve.hsvd.EdgeSpectrum` counts by."""
    return tuple(int(np.count_nonzero(s > ZERO_CUTOFF * s[0]))
                 for s in dense_edge_singular_values(data, tree))


def dense_contractions(data: np.ndarray):
    """Per mode: slice norms of the dense tensor."""
    return [np.sqrt((matricize(data, (i,)) ** 2).sum(axis=1))
            for i in range(data.ndim)]


def dense_truncation_tail(data: np.ndarray, tree: DimensionTree, ranks) -> float:
    """sqrt(sum of squared singular-value tails) at the given edge ranks."""
    total = 0.0
    for sig, r in zip(dense_edge_singular_values(data, tree), ranks):
        total += float((sig[r:] ** 2).sum())
    return float(np.sqrt(total))


def best_tucker_error(data: np.ndarray, ranks3, n_iter=80, n_restarts=4, seed=1234):
    """Best-approximation error at Tucker ranks (r0, r1, r2) for an order-3
    array, via HOOI with an HOSVD warm start plus random restarts.

    For the balanced order-3 dimension tree this is exactly the best
    hierarchical-format error at edge ranks (r2, r0, r1) (the {0,1} edge
    shares its rank with the mode-2 leaf).  The returned value is achievable,
    hence an upper bound on the true best error.
    """
    rng = np.random.default_rng(seed)
    dims = data.shape
    ranks3 = [min(int(r), int(np.prod(dims) // dims[i]), dims[i])
              for i, r in enumerate(ranks3)]
    nrm2 = float((data**2).sum())

    def hosvd_init():
        return [np.linalg.svd(matricize(data, (i,)))[0][:, :ranks3[i]]
                for i in range(3)]

    def random_init():
        us = []
        for i in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((dims[i], ranks3[i])))
            us.append(q)
        return us

    best = np.inf
    for restart in range(n_restarts):
        us = hosvd_init() if restart == 0 else random_init()
        for _ in range(n_iter):
            for i in range(3):
                y = data
                for j in range(3):
                    if j != i:
                        y = np.tensordot(y, us[j], axes=([j], [0]))
                        y = np.moveaxis(y, -1, j)
                u, _, _ = np.linalg.svd(matricize(y, (i,)), full_matrices=False)
                us[i] = u[:, :ranks3[i]]
        core = data
        for j in range(3):
            core = np.tensordot(core, us[j], axes=([0], [0]))
        err2 = max(nrm2 - float((core**2).sum()), 0.0)
        best = min(best, np.sqrt(err2))
    return float(best)


def best_support_error(data: np.ndarray, n_keep: int) -> float:
    """Best restriction error among all per-mode supports of total size
    ``n_keep``, by exhaustive search (order 2 only)."""
    assert data.ndim == 2
    n0, n1 = data.shape
    nrm2 = float((data**2).sum())
    best = np.inf
    for k0 in range(max(0, n_keep - n1), min(n0, n_keep) + 1):
        k1 = n_keep - k0
        for s0 in itertools.combinations(range(n0), k0):
            sub0 = data[list(s0), :] if s0 else np.zeros((0, n1))
            for s1 in itertools.combinations(range(n1), k1):
                kept2 = float((sub0[:, list(s1)] ** 2).sum()) if s1 else 0.0
                best = min(best, nrm2 - kept2)
    return float(np.sqrt(max(best, 0.0)))


#: (tree, seed) cases of :func:`random_sum`: both tree shapes at d = 2..5
SUM_CASES = [(build(d), seed) for build in (build_balanced_tree, build_linear_tree)
             for d in (2, 3, 4, 5) for seed in (0, 1, 2)]


def random_sum(tree: DimensionTree, seed: int) -> HTensor:
    """Sum of two random tensors of ranks 3 and 2 on mode sizes 2..5: not
    orthogonal, with stored ranks that may exceed the matricization caps."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(n) for n in rng.integers(2, 6, size=tree.d))
    return add(random_htensor(tree, dims, 3, rng),
               random_htensor(tree, dims, 2, rng))


def random_lowish_rank(tree: DimensionTree, dims, rank, rng, noise=0.0):
    """Dense array with approximately low hierarchical ranks: a sum of `rank`
    separable terms plus optional dense noise."""
    d = len(dims)
    data = np.zeros(dims)
    for _ in range(rank):
        term = np.ones(()) if d == 0 else None
        vecs = [rng.standard_normal(n) / np.sqrt(n) for n in dims]
        term = vecs[0]
        for v in vecs[1:]:
            term = np.multiply.outer(term, v)
        data = data + term
    if noise:
        data = data + noise * rng.standard_normal(dims)
    return data


def reference_check_set(level_weights):
    """``(c, X, x)``: the smallest row sum ``c``, the normalized range ``X``
    and the normalized sums ``x`` (in ``[1, X]``) that an exp-sum table is
    verified on, built as first written: every row sum when there are at
    most 100k rows, otherwise the extreme level combinations plus 1000 seeded
    random rows, and a 4097-point log grid."""
    qs = [np.asarray(q, dtype=np.float64) for q in level_weights]
    c = float(sum(q.min() for q in qs))
    big_x = float(sum(q.max() for q in qs)) / c

    total = int(np.prod([len(q) for q in qs]))
    if total <= 100_000:
        x = qs[0]
        for q in qs[1:]:
            x = np.add.outer(x, q).ravel()
        check_x = np.unique(x)
    else:
        rng = np.random.default_rng(0x5CA1E)
        extremes = [(float(q.min()), float(q.max())) for q in qs]
        grids = np.meshgrid(*extremes, indexing="ij")
        idx = np.stack([rng.integers(0, len(q), size=1000) for q in qs])
        check_x = np.unique(np.concatenate([
            np.stack([g.ravel() for g in grids]).sum(axis=0),
            np.stack([q[i] for q, i in zip(qs, idx)]).sum(axis=0),
        ]))
    grid_x = np.exp(np.linspace(0.0, np.log(big_x), 4097)) * c
    return c, big_x, np.unique(np.concatenate([check_x, grid_x])) / c


def sup_error(w, t, x):
    """sup over ``x`` of ``|1 - sqrt(x) sum_j w_j exp(-t_j x)|``."""
    worst = 0.0
    for lo in range(0, len(x), 8192):
        xc = x[lo:lo + 8192]
        approx = np.exp(-np.outer(xc, t)) @ w
        worst = max(worst, float(np.abs(1.0 - np.sqrt(xc) * approx).max()))
    return worst


def reference_scaling_table(level_weights, tol):
    """The sinc exponential-sum table search as first written, with no
    screening and no tabulated sums.

    Doubling from ``m = 2`` then bisection; every candidate is fully checked
    on :func:`reference_check_set`, and the chosen size is checked once more
    at the end.  Returns ``(m, weights, exponents, certified)``; raises
    :class:`ToleranceInfeasibleError` with the same message as
    :func:`htsolve.ops.build_scaling` when no table of at most 4096 terms
    verifies.  Inputs are assumed valid and finite.
    """
    from htsolve.errors import ToleranceInfeasibleError

    delta = min(tol, 0.5)
    c, big_x, check_x = reference_check_set(level_weights)

    def candidate(m):
        d4 = delta / 4.0
        s_max = math.log(math.log(4.0 / d4) + 2.0)
        s_min = 2.0 * math.log(d4 * math.sqrt(math.pi) / 8.0) - math.log(big_x)
        s = np.linspace(s_min, s_max, m)
        h = s[1] - s[0] if m > 1 else 1.0
        return h * np.exp(s / 2.0) / math.sqrt(math.pi * c), np.exp(s) / c

    def verified(m):
        w, t = candidate(m)
        err = sup_error(w * math.sqrt(c), t * c, check_x)
        return (err <= 0.995 * delta), err, w, t

    m, best_err = 2, np.inf
    while m <= 4096:
        ok, err, w, t = verified(m)
        best_err = min(best_err, err)
        if ok:
            break
        m *= 2
    else:
        raise ToleranceInfeasibleError(
            f"no exponential-sum table with <= 4096 terms reaches "
            f"relative tolerance {delta:g} (best achieved: {best_err:.3g}; "
            f"normalized range [1, {big_x:.3g}])"
        )
    lo, hi = m // 2 + 1, m
    while lo < hi:
        mid = (lo + hi) // 2
        if verified(mid)[0]:
            hi = mid
        else:
            lo = mid + 1
    ok, err, w, t = verified(hi)
    if not ok:
        hi, (ok, err, w, t) = m, verified(m)
    return hi, w, t, err


# ---------------------------------------------------------------------------
# literal operator sums
# ---------------------------------------------------------------------------


def _apply_kron_term(term, v: HTensor) -> HTensor:
    frames = {}
    for i in range(v.d):
        m = term[i]
        frames[i] = v.frames[i] if m is None else m @ v.frames[i]
    return HTensor(tree=v.tree, dims=v.dims, frames=frames, transfer=v.transfer,
                   root_transfer=v.root_transfer)


def diagonally_scaled_terms(terms, left, right) -> list[tuple]:
    """The terms of ``diag(l) (sum_r M_r1 x ... x M_rd) diag(r)`` for the
    separable diagonals ``diag(l) = diag(l_1) x ... x diag(l_d)`` and
    ``diag(r)``, given by their per-mode vectors: each diagonal is a one-term
    CP, so the product multiplies it into every term, mode by mode, as the
    dense factor ``diag(l_i) M_ri diag(r_i)``.  An identity factor becomes
    ``diag(l_i r_i)``, one object per mode, so terms that shared the
    identity at a mode still share a factor there."""
    shared = [np.diag(lv * rv) for lv, rv in zip(left, right)]
    return [tuple(shared[i] if m is None
                  else left[i][:, None] * np.asarray(m) * right[i][None, :]
                  for i, m in enumerate(term))
            for term in terms]


def identity_operator(dims) -> LowRankOperator:
    """The identity on ``dims``, carrying its exact bounds ``(1, 1)``."""
    return LowRankOperator(dims, [(None,) * len(tuple(dims))],
                           bounds=OperatorBounds(1.0, 1.0))


def mode_factors(level_weights, table, i: int) -> np.ndarray:
    """(n_i, m) array of a table's per-index exponential factors in mode i."""
    return np.exp(-np.outer(level_weights[i], table.exponents))


def approx_dense_diag(level_weights, table) -> np.ndarray:
    """The diagonal an :class:`~htsolve.ops.ExpSumTable` stores for these
    level weights, over every index (row-major)."""
    x = np.asarray(level_weights[0], dtype=np.float64)
    for q in level_weights[1:]:
        x = np.add.outer(x, q)
    return np.exp(-np.outer(x.ravel(), table.exponents)) @ table.weights


def _scaled_term(table, j: int, v: HTensor, factors) -> HTensor:
    frames = {i: factors[i][:, j][:, None] * v.frames[i] for i in range(v.d)}
    out = HTensor(tree=v.tree, dims=v.dims, frames=frames, transfer=v.transfer,
                  root_transfer=float(table.weights[j]) * v.root_transfer)
    return out


def apply_scaling(level_weights, table, v: HTensor,
                  max_entries: float = 2e8) -> HTensor:
    """Exact application of the ``m``-term diagonal a table stores for these
    level weights (not the ideal one): every edge rank is multiplied by
    exactly ``m``.

    This literal form is a reference;
    :func:`htsolve.ops.apply_certified` applies the same diagonal in one
    orthogonalizing sweep (:func:`~htsolve.hsvd.apply_cp`) whose ranks are
    capped by the QR block sizes.  The size guard protects against
    accidental huge allocations.
    """
    dims = tuple(len(q) for q in level_weights)
    if dims != v.dims:
        raise ValueError(f"scaling dims {dims} do not match tensor dims {v.dims}")
    m = table.m
    biggest = max(
        (m**3 * b.shape[0] * b.shape[1] * b.shape[2] for b in v.transfer.values()),
        default=m**2 * v.root_transfer.size,
    )
    if biggest > max_entries:
        raise ValueError(
            f"exact scaling application would allocate {biggest:.3g} transfer "
            f"entries; use apply_certified instead"
        )
    factors = [mode_factors(level_weights, table, i) for i in range(v.d)]
    out = None
    for j in range(m):
        term = _scaled_term(table, j, v, factors)
        out = term if out is None else add(out, term)
    return out


def apply_exact(a: LowRankOperator, v: HTensor) -> HTensor:
    """Apply an unscaled operator: exact, with every edge rank multiplied by
    exactly the number of Kronecker terms."""
    if a.dims != v.dims:
        raise ValueError(f"operator dims {a.dims} do not match tensor dims {v.dims}")
    if a.has_expsum:
        raise ValueError(
            "operator carries an exponential-sum scaling; exact application "
            "is not defined (use apply_certified)"
        )
    out = None
    for term in a.terms:
        w = _apply_kron_term(term, v)
        out = w if out is None else add(out, w)
    return out


# ---------------------------------------------------------------------------
# exponential sums for 1/x
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpSumInverse:
    """Sinc-quadrature exponential sum for 1/x with a measured certificate.

    ``sup_{x in [1, 1e8]} |S_r(x) - 1/x| <= cert_error``, with the calibration
    constant ``c_cal = cert_error * exp(pi * sqrt(r))`` stored for reference.
    """

    r: int
    step: float
    offset: float
    nodes: np.ndarray
    weights: np.ndarray
    cert_error: float
    c_cal: float

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-np.multiply.outer(x, self.nodes)) @ self.weights


_BH_GRID = None


def _bh_grid() -> np.ndarray:
    global _BH_GRID
    if _BH_GRID is None:
        _BH_GRID = np.exp(np.linspace(0.0, math.log(1e8), 20001))
    return _BH_GRID


def _bh_sup_error(nodes, weights) -> float:
    grid = _bh_grid()
    worst = 0.0
    for lo in range(0, len(grid), 4096):
        g = grid[lo:lo + 4096]
        approx = np.exp(-np.outer(g, nodes)) @ weights
        worst = max(worst, float(np.abs(approx - 1.0 / g).max()))
    return worst


def bh_exponential_sum(r: int) -> ExpSumInverse:
    """r-term exponential sum for 1/x from sinc quadrature of the Laplace
    integral: step ``h = pi / sqrt(r)``, nodes ``exp(k h - a)`` and weights
    ``h exp(k h - a)`` for ``k = -(r-1)/2, ..., (r-1)/2``.

    The recentering offset ``a`` is calibrated per ``r`` to minimize the
    measured sup error on a dense logarithmic grid in ``[1, 1e8]`` (a centered
    window wastes half its nodes on the super-exponentially damped right tail
    and decays only like ``exp(-pi sqrt(r)/2)``).  The stored certificate is
    that measured sup error; it decays like ``exp(-pi sqrt(r))``.
    """
    if not 1 <= int(r) <= 256:
        raise ValueError(f"term count must be in [1, 256], got {r}")
    r = int(r)
    h = math.pi / math.sqrt(r)
    k = np.arange(r, dtype=np.float64) - (r - 1) / 2.0

    def table(a: float):
        nodes = np.exp(k * h - a)
        return nodes, h * nodes

    best = (np.inf, 0.0)
    half_window = (r - 1) * h / 2.0
    for a in np.linspace(0.0, half_window + 2.0, 192):
        err = _bh_sup_error(*table(a))
        if err < best[0]:
            best = (err, float(a))
    err, a = best
    nodes, weights = table(a)
    return ExpSumInverse(r=r, step=h, offset=a, nodes=nodes, weights=weights,
                         cert_error=err, c_cal=err * math.exp(math.pi * math.sqrt(r)))


# ---------------------------------------------------------------------------
# inner passes of solve
# ---------------------------------------------------------------------------


def check_inner_passes(report, cfg, lower: float) -> list[int]:
    """Check the inner-step pattern of a :func:`htsolve.solver.solve` report
    and return the step count of each pass.

    Every pass runs from 1 to ``J = report.inner_per_outer`` steps and the
    last pass exactly ``J``.  A pass other than the last ends after the
    first step whose new iterate has the certified error bound
    ``rho res_hi / lower + drift eta`` (``drift = omega + beta1 + beta2``,
    from the step's recorded residual interval and tolerance) at most
    ``kappa1 level / 2``, with ``level = 2^-k eps0``, and runs all ``J``
    steps when no step before the last one reaches it.  Each pass records
    its step count and exit bound: that early-exit bound or the scheduled
    ``rho^J (1 + drift J) level``.
    """
    reps = report.inner_per_outer
    drift = cfg.omega + cfg.beta1 + cfg.beta2

    def exit_bound(step):
        return cfg.rho * step["res_hi"] / lower + drift * step["eta"]

    counts = [o["inner_steps"] for o in report.outer_steps]
    assert sum(counts) == len(report.steps)
    assert all(1 <= c <= reps for c in counts), counts
    assert not counts or counts[-1] == reps, counts
    start = 0
    for k, (outer, count) in enumerate(zip(report.outer_steps, counts)):
        steps = report.steps[start:start + count]
        start += count
        assert [(s["k"], s["j"]) for s in steps] == [(k, j) for j in range(count)]
        target = cfg.kappa1 * 2.0 ** (-k) * cfg.eps0 / 2.0
        last = k == len(counts) - 1
        exits = [not last and exit_bound(s) <= target
                 for s in steps[:reps - 1]]
        assert not any(exits[:count - 1]), (k, exits)
        if count < reps:
            assert exits[count - 1], (k, count)
            assert outer["inner_exit_bound"] == exit_bound(steps[-1])
        else:
            assert math.isclose(
                outer["inner_exit_bound"],
                cfg.rho**reps * (1.0 + drift * reps) * 2.0 ** (-k) * cfg.eps0,
                rel_tol=1e-12)
    return counts


# ---------------------------------------------------------------------------
# reduction quasi-optimality
# ---------------------------------------------------------------------------


def total_tail(spectrum, ranks) -> float:
    """Certified error of truncating every edge ``e`` of an
    :class:`~htsolve.hsvd.EdgeSpectrum` to ``ranks[e]``."""
    return float(np.sqrt(sum(spectrum.tail(e, r) ** 2
                             for e, r in enumerate(ranks))))


def truncate_to_ranks(h: HTensor, ranks) -> HTensor:
    """Hard truncation to a fixed edge-rank vector.

    The error is at most the total singular-value tail at ``ranks`` (see
    :func:`total_tail`).  The target vector must be entrywise at
    most ``h.ranks`` and respect the child-product bound.  The result is
    orthogonalized.
    """
    edges = h.edge_list
    ranks = [int(r) for r in ranks]
    if len(ranks) != len(edges):
        raise ValueError(f"expected {len(edges)} edge ranks, got {len(ranks)}")
    stored = h.ranks
    for e, (r, s) in enumerate(zip(ranks, stored)):
        if not 0 <= r <= s:
            raise ValueError(
                f"target rank {r} at edge {e} outside [0, {s}]"
            )
    if _stored_ranks(h.tree, ranks) != tuple(ranks):
        raise ValueError(f"target ranks {tuple(ranks)} exceed a child product "
                         "r_left * r_right")
    ho = orthogonalize(h)
    vectors = _projection_data(ho)[1]
    return _project(ho, vectors, _node_rank_map(h.tree, ranks))


def _prefix_ranks(spectrum, budget: float) -> list[int]:
    """Per-edge minimal ranks whose cleaned singular-value tail (see
    :class:`~htsolve.hsvd.EdgeSpectrum`) is within ``budget``."""
    allowance = (budget * (1.0 + 1e-12)) ** 2
    return [int(np.argmax(t <= allowance)) for t in spectrum.tails2]


def _prefix_supports(pis, budget: float):
    """Per-mode minimal kept index sets with dropped mass within ``budget``:
    :func:`~htsolve.hsvd.select_support` applied to each mode alone."""
    picks = [select_support([p], budget * (1.0 + 1e-12)) for p in pis]
    return [sets[0] for sets, _, _ in picks], [n for _, n, _ in picks]


def _repair_child_products(h: HTensor, spectrum, ranks: list[int]) -> list[int]:
    """Raise child ranks until every interior rank is at most the product of
    its children's ranks (a representability requirement).  Raising a rank
    only shrinks a tail, so certified budgets are preserved.  The child with
    the larger next singular value is raised first."""
    tree = h.tree
    index = {node: e for e, node in enumerate(h.edge_list)}
    numerical = spectrum.numerical_ranks
    ranks = list(ranks)
    left_root, _ = tree.child_pair(tree.root)

    def rank_of(node):
        return ranks[index.get(node, index[left_root])]

    for _ in range(10000):
        bumped = False
        for node in tree.interior_nodes():
            if node == tree.root:
                continue
            cl, cr = tree.child_pair(node)
            while rank_of(node) > rank_of(cl) * rank_of(cr):
                grow = [
                    c for c in (cl, cr) if ranks[index[c]] < numerical[index[c]]
                ]
                if not grow:
                    return ranks
                best = max(
                    grow,
                    key=lambda c: spectrum.sigmas[index[c]][ranks[index[c]]],
                )
                ranks[index[best]] += 1
                bumped = True
        if not bumped:
            return ranks
    return ranks


def reduction_quasi_optimality_check(u_ref: HTensor, v: HTensor, eta: float,
                                     alpha: float = 1.0) -> dict:
    """Verify quasi-optimality of tolerance-based rank/support reduction.

    Given a reference ``u_ref`` and any ``v`` with
    ``norm(u_ref - v) <= eta``, truncating ``v`` edge by edge at tail budget
    ``(1+alpha) eta`` — aggregate certified error at most
    ``sqrt(2d-3) (1+alpha) eta`` — must stay within
    ``(1 + sqrt(2d-3)(1+alpha)) eta`` of the reference while needing at most
    the per-edge ranks that truncating ``u_ref`` itself at ``alpha eta``
    needs.  The analogous statement for contraction supports carries
    ``sqrt(d)`` in place of ``sqrt(2d-3)``.  Both are checked against exact
    spectra and exact norms; the returned report carries per-edge and
    per-mode pass flags, the measured errors and their bounds, and an
    overall ``passed`` flag.  A violated precondition raises ``ValueError``.

    Measured gaps and errors are representation norms of differences, which
    in double precision are reliable down to about ``1e-8`` of the data
    norm; every comparison carries a matching allowance.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if u_ref.dims != v.dims:
        raise ValueError(
            f"reference dims {u_ref.dims} do not match candidate dims {v.dims}"
        )
    ref_norm = norm(u_ref)
    floor = 1e-7 * ref_norm
    gap = norm(add(u_ref, scale(-1.0, v)))
    if gap > eta * (1.0 + 1e-9) + floor:
        raise ValueError(
            f"precondition norm(u_ref - v) <= eta violated: gap {gap:.6g} "
            f"exceeds eta {eta:.6g}"
        )
    d = u_ref.d
    kappa_edge = math.sqrt(2 * d - 3)
    kappa_mode = math.sqrt(d)

    def within(err: float, bound: float) -> bool:
        return err <= bound * (1.0 + 1e-9) + floor

    spectrum_v = edge_spectra(v)
    spectrum_u = edge_spectra(u_ref)
    target_ranks = _repair_child_products(
        v, spectrum_v, _prefix_ranks(spectrum_v, (1.0 + alpha) * eta))
    reference_ranks = _repair_child_products(
        u_ref, spectrum_u, _prefix_ranks(spectrum_u, alpha * eta))
    truncated = truncate_to_ranks(v, target_ranks)
    rank_error = norm(add(u_ref, scale(-1.0, truncated)))
    rank_bound = (1.0 + kappa_edge * (1.0 + alpha)) * eta

    sets, target_sizes = _prefix_supports(
        contractions(v).pis, (1.0 + alpha) * eta)
    _, reference_sizes = _prefix_supports(
        contractions(u_ref).pis, alpha * eta)
    restricted = restrict_support(v, sets)
    support_error = norm(add(u_ref, scale(-1.0, restricted)))
    support_bound = (1.0 + kappa_mode * (1.0 + alpha)) * eta

    rank_report = {
        "target_ranks": tuple(target_ranks),
        "reference_ranks": tuple(reference_ranks),
        "per_edge_pass": tuple(
            t <= r for t, r in zip(target_ranks, reference_ranks)
        ),
        "error": rank_error,
        "error_bound": rank_bound,
        "error_pass": within(rank_error, rank_bound),
    }
    support_report = {
        "target_sizes": tuple(target_sizes),
        "reference_sizes": tuple(reference_sizes),
        "per_mode_pass": tuple(
            t <= r for t, r in zip(target_sizes, reference_sizes)
        ),
        "error": support_error,
        "error_bound": support_bound,
        "error_pass": within(support_error, support_bound),
    }
    return {
        "eta": float(eta),
        "alpha": float(alpha),
        "gap": gap,
        "rank": rank_report,
        "support": support_report,
        "passed": bool(
            all(rank_report["per_edge_pass"])
            and rank_report["error_pass"]
            and all(support_report["per_mode_pass"])
            and support_report["error_pass"]
        ),
    }
