"""Dense reference computations the test suite checks the package against.

Everything here works on full numpy arrays with no shared code paths with the
package internals (matricizations are re-derived from scratch), so agreement
is meaningful.
"""

import itertools

import numpy as np

from htsolve.htree import DimensionTree, effective_edges


def matricize(data: np.ndarray, modes) -> np.ndarray:
    """Rows indexed by ``modes`` (in the given order), columns by the rest."""
    modes = tuple(modes)
    rest = tuple(i for i in range(data.ndim) if i not in modes)
    moved = np.transpose(data, modes + rest)
    n_in = int(np.prod([data.shape[i] for i in modes], initial=1))
    return moved.reshape(n_in, -1)


def dense_edge_singular_values(data: np.ndarray, tree: DimensionTree):
    """Per effective edge: singular values of the dense matricization."""
    out = []
    for node in effective_edges(tree):
        out.append(np.linalg.svd(matricize(data, node), compute_uv=False))
    return out


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


def reference_scaling_table(level_weights, tol, active=None):
    """The exponential-sum table search as first written, with no screening.

    Doubling from ``m = 2`` then bisection; every candidate is fully checked
    on the verification sums plus a 4097-point log grid, and the chosen size
    is checked once more at the end.  Returns ``(m, weights, exponents,
    certified)``; raises :class:`ToleranceInfeasibleError` with the same
    message as :func:`htsolve.ops.build_scaling` when no table of at most
    4096 terms verifies.  Inputs are assumed valid and finite.
    """
    import math

    from htsolve.errors import ToleranceInfeasibleError

    delta = min(tol, 0.5)
    qs_all = [np.asarray(q, dtype=np.float64) for q in level_weights]
    if active is None:
        active = [tuple(range(len(q))) for q in qs_all]
    active = [tuple(sorted(int(k) for k in a)) for a in active]
    qs = [q[list(a)] for q, a in zip(qs_all, active)]
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
    check_x = np.unique(np.concatenate([check_x, grid_x]))

    def candidate(m):
        d4 = delta / 4.0
        s_max = math.log(math.log(4.0 / d4) + 2.0)
        s_min = 2.0 * math.log(d4 * math.sqrt(math.pi) / 8.0) - math.log(big_x)
        s = np.linspace(s_min, s_max, m)
        h = s[1] - s[0] if m > 1 else 1.0
        return h * np.exp(s / 2.0) / math.sqrt(math.pi * c), np.exp(s) / c

    def sup_error(w, t, x):
        worst = 0.0
        for lo in range(0, len(x), 8192):
            xc = x[lo:lo + 8192]
            approx = np.exp(-np.outer(xc, t)) @ w
            worst = max(worst, float(np.abs(1.0 - np.sqrt(xc) * approx).max()))
        return worst

    def verified(m):
        w, t = candidate(m)
        err = sup_error(w * math.sqrt(c), t * c, check_x / c)
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
