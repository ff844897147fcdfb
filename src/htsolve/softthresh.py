"""Soft thresholding of hierarchical singular values and the thresholded
Richardson iteration.

Soft thresholding shrinks every singular value of an edge matricization by
``eta`` (removing the ones that hit zero) instead of cutting the spectrum at a
rank.  Composed over all effective edges it is a non-expansive map, which makes
it safe to apply inside a fixed-point iteration at any threshold: the
iteration stays convergent and the iterates inherit quasi-optimal ranks, with
the threshold steering the rank/accuracy trade-off.
"""

from __future__ import annotations

import math

import numpy as np

from htsolve.errors import ContractionViolationError
from htsolve.hsvd import (
    HTensor,
    _cut_root_edge,
    _edge_decomposition,
    _project,
    add,
    norm,
    orthogonalize,
    recompress,
    scale,
    zero_htensor,
)
from htsolve.ops import LowRankOperator, apply_certified

__all__ = [
    "soft_scalar",
    "soft_threshold_edge",
    "soft_threshold",
    "st_solve",
]


def soft_scalar(x, eta: float):
    """sgn(x) * max(|x| - eta, 0), elementwise on arrays."""
    if not eta >= 0:
        raise ValueError(f"threshold must be >= 0, got {eta}")
    x = np.asarray(x, dtype=np.float64)
    out = np.sign(x) * np.maximum(np.abs(x) - eta, 0.0)
    return float(out) if out.ndim == 0 else out


def soft_threshold_edge(h: HTensor, edge: int, eta: float) -> HTensor:
    """Shrink the singular values of one edge matricization by ``eta``.

    ``edge`` indexes the effective edge list.  Values shrunk to zero are
    removed, so the edge rank drops accordingly; the remaining singular
    directions are kept and rescaled by ``s_eta(sigma)/sigma``, which realizes
    the proximal map of the nuclear norm at this edge exactly.  The result is
    in orthogonal form.
    """
    if not eta >= 0:
        raise ValueError(f"threshold must be >= 0, got {eta}")
    edges = h.edge_list
    if not 0 <= edge < len(edges.edges):
        raise IndexError(f"edge index {edge} out of range (0..{len(edges.edges) - 1})")
    node = edges.edges[edge]
    ho = orthogonalize(h)
    if edge == 0:  # the root edge: its spectrum is the orthogonal root
        shrunk = soft_scalar(np.diag(ho.root_transfer), eta)
        return _cut_root_edge(ho, shrunk[:np.count_nonzero(shrunk > 0.0)])
    vectors, sig = _edge_decomposition(ho, node)
    shrunk = soft_scalar(sig, eta)
    k = int(np.count_nonzero(shrunk > 0.0))
    if k == 0:
        return zero_htensor(h.tree, h.dims)
    # sigma is nonincreasing, so the survivors are a prefix.  The kept
    # directions V enter the projection V V^T twice: in the edge's node and
    # in its parent.  Scaling V by sqrt(f) thus rescales the edge by
    # f = s_eta(sigma)/sigma.  Every other node has no basis here, which the
    # projection takes as the identity.
    scaled = vectors[node][:, :k] * np.sqrt(shrunk[:k] / sig[:k])
    return _project(ho, {node: scaled}, {node: k})


def soft_threshold(h: HTensor, eta: float) -> HTensor:
    """Apply the edge shrinkage sequentially over all effective edges, in the
    fixed enumeration order.  Non-expansive for every ``eta >= 0``."""
    if not eta >= 0:
        raise ValueError(f"threshold must be >= 0, got {eta}")
    for i in range(len(h.edge_list.edges)):
        h = soft_threshold_edge(h, i, eta)
        if h.root_transfer.size == 0 or norm(h) == 0.0:
            return zero_htensor(h.tree, h.dims)
    return h


def st_solve(a: LowRankOperator, f: HTensor, omega: float, xi: float,
             eps: float = 1e-6, max_iter: int = 500):
    """Soft-thresholded Richardson iteration ``u <- S_alpha(u - omega (A u - f))``.

    The caller certifies ``|I - omega A| <= xi < 1``; ``|A|`` is bounded by
    the operator's proved ``bounds.upper``.  The threshold
    starts at ``omega |f| / (d - 1)`` and is halved whenever
    ``|u_new - u| <= (1 - xi) / (xi upper) |A u_new - f|``, evaluated on the
    pessimistic side of the certified residual interval, and never grows.
    The iteration stops when the certified residual bound implies
    ``|u - u*| <= eps`` (coercivity ``lambda_min >= (1 - xi) / omega``).
    Returns ``(u, trace)`` with one record per step: threshold, max rank,
    residual interval, halving flag.

    Raises :class:`ContractionViolationError` when the certified residual
    grows past twice the best value seen in the current threshold period, or
    when ``max_iter`` is exhausted.

    The residual ``A u - f`` is trimmed exactly (``recompress(., 0)``) and
    its norm read from the orthogonal root, with rounding error of order
    ``1e-16 (|A u| + |f|)``; dense oracles confirm ``eps = 1e-10`` at d = 2.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must be in (0, 1), got {xi}")
    if not math.isfinite(omega) or omega <= 0.0:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if a.bounds is None:
        raise ValueError("st_solve needs operator bounds, and the operator "
                         "carries none")
    upper = float(a.bounds.upper)
    if not math.isfinite(upper) or upper <= 0.0:
        raise ValueError(f"the upper operator bound must be positive and "
                         f"finite, got {upper}")
    if a.dims != f.dims:
        raise ValueError(f"operator dims {a.dims} do not match {f.dims}")

    nf = norm(f)
    if nf == 0.0:
        return zero_htensor(f.tree, f.dims), []
    d = f.d
    res_target = eps * (1.0 - xi) / omega  # certified stop: ||r|| below this
    u = zero_htensor(f.tree, f.dims)
    alpha = omega * nf / max(d - 1, 1)
    trigger = (1.0 - xi) / (xi * upper)
    trace: list[dict] = []
    # residual of u^0 = 0 is exactly -f
    r, res_lo, res_hi = scale(-1.0, f), nf, nf
    r_est = nf
    period_best_hi = np.inf
    period_len = 0
    for n in range(1, max_iter + 1):
        if res_hi * omega / (1.0 - xi) <= eps:
            return u, trace
        u_new = soft_threshold(add(u, scale(-omega, r)), alpha)
        step = norm(add(u_new, scale(-1.0, u)))
        # fresh certified residual at the new iterate, accurate to a tenth of
        # the last residual norm
        tol = 0.1 * max(r_est, res_target / 2.0)
        if not a.has_expsum:
            tol = 0.0
        w = apply_certified(a, u_new, tol)
        r = recompress(add(w, scale(-1.0, f)), 0.0)
        rn = norm(r)
        res_lo, res_hi = max(rn - tol, 0.0), rn + tol
        r_est = max(rn, res_target / 2.0)
        halved = step <= trigger * res_lo
        u = u_new
        trace.append({"n": n, "alpha": alpha,
                      "max_rank": max(u_new.ranks) if u_new.ranks else 0,
                      "res_lo": res_lo, "res_hi": res_hi, "halved": halved})
        period_len += 1
        period_best_hi = min(period_best_hi, res_hi)
        if period_len >= 3 and res_lo > 2.0 * period_best_hi:
            raise ContractionViolationError(
                f"residual grew from {period_best_hi:.3g} to at least "
                f"{res_lo:.3g} within one threshold period (iteration {n}); "
                f"the configuration is not a certified contraction "
                f"(check omega, xi={xi}, upper={upper})"
            )
        if halved:
            alpha /= 2.0
            period_best_hi = np.inf
            period_len = 0
    raise ContractionViolationError(
        f"certified residual bound {res_hi:.3g} did not reach the stopping "
        f"level {res_target:.3g} within {max_iter} iterations "
        f"(last threshold {alpha:.3g}); the iteration may be "
        f"non-contractive or max_iter too small"
    )