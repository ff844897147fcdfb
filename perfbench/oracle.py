"""Correctness checks, run outside the timed region.

Up to ``DENSE_LIMIT`` unknowns the dense error against
``problems.dense_solve`` must lie inside the certified interval.  Above it
(``parametric_d4`` has 36,015 unknowns, and its dense oracle takes minutes
and over a gigabyte) the certified residual interval is checked against an
exact residual that this module computes with mode products from the
operator's terms and its ideal scaling diagonals.
"""

from __future__ import annotations

import numpy as np

from htsolve import hsvd, ops, problems

DENSE_LIMIT = 5000
REL, ABS = 1e-9, 1e-12  # roundoff allowance on each comparison


def same_tensor(u, v) -> bool:
    """Bitwise equality of two representations."""
    return (u.dims == v.dims and u.frames.keys() == v.frames.keys()
            and u.transfer.keys() == v.transfer.keys()
            and all(np.array_equal(u.frames[i], v.frames[i]) for i in u.frames)
            and all(np.array_equal(u.transfer[n], v.transfer[n]) for n in u.transfer)
            and np.array_equal(u.root_transfer, v.root_transfer))


def _mode_product(x: np.ndarray, m, axis: int) -> np.ndarray:
    moved = np.moveaxis(x, axis, 0)
    y = m @ moved.reshape(moved.shape[0], -1)
    return np.moveaxis(np.asarray(y).reshape(moved.shape), 0, axis)


def _diag(s, dims) -> np.ndarray:
    if isinstance(s, ops.DiagonalScaling):
        return s.dense_diag().reshape(dims)
    return s.ideal_dense_diag().reshape(dims)


def apply_dense(a, x: np.ndarray) -> np.ndarray:
    """``A x`` on a dense array, term by term, without assembling ``A``."""
    if a.scaling_right is not None:
        x = _diag(a.scaling_right, a.dims) * x
    y = np.zeros_like(x)
    for term in a.terms:
        t = x
        for axis, m in enumerate(term):
            if m is not None:
                t = _mode_product(t, m, axis)
        y += t
    if a.scaling_left is not None:
        y = _diag(a.scaling_left, a.dims) * y
    return y


def _above(x: float, limit: float) -> bool:
    return x > limit * (1.0 + REL) + ABS


def check(problem, out) -> list[str]:
    """Violations of the outcome's certificates; empty when it is correct."""
    a = problem.operator
    lo, hi, bound = out.cert_lo, out.cert_hi, out.bound
    if int(np.prod(a.dims)) <= DENSE_LIMIT:
        err = float(np.linalg.norm(hsvd.to_dense(out.u) - problems.dense_solve(problem)))
        bad = []
        if _above(err, bound):
            bad.append(f"dense error {err:.6g} above the certified bound {bound:.6g}")
        if _above(lo, err):
            bad.append(f"certified lower bound {lo:.6g} above the dense error {err:.6g}")
        return bad
    r = apply_dense(a, hsvd.to_dense(out.u)) - hsvd.to_dense(problem.rhs)
    rn = float(np.linalg.norm(r))
    lower, upper = float(a.bounds.lower), float(a.bounds.upper)
    # the true error lies in [rn/upper, rn/lower]; the certified interval,
    # built from a residual within 2 res_eta of r, must contain that range
    bad = []
    if _above(rn / lower, hi):
        bad.append(f"exact residual bound {rn / lower:.6g} above the certified "
                   f"upper end {hi:.6g}")
    if _above(lo, rn / upper):
        bad.append(f"certified lower end {lo:.6g} above the exact residual "
                   f"bound {rn / upper:.6g}")
    if _above(rn / upper, bound):
        bad.append(f"exact lower error bound {rn / upper:.6g} above the final "
                   f"bound {bound:.6g}")
    return bad
