"""Low-rank Kronecker operators, inverse-square-root scalings, certified apply.

Operators have the form ``A = S_L (sum_r  M_{r,1} x ... x M_{r,d}) S_R`` with
per-mode square matrices ``M_{r,i}`` (``None`` marks an identity factor) and
optional diagonal scalings on either side.  A scaling is an
:class:`ExpSumScaling` or ``None``: the *ideal* inverse-square-root diagonal
``omega(lam) = (sum_i q_i[lam_i])^(-1/2)`` given by per-mode level weights
``q_i >= 0``, applied through certified exponential-sum tables
(:class:`ExpSumTable`).  The operator *means* the ideal diagonal; tables at
any accuracy are built on demand, and every application carries a
certificate relative to the ideal operator.  :func:`build_scaling` takes its
tables only from the committed near-best exponential sums
(``expsum_tables.npz``, normalized ranges up to ``2^32``) and certifies each
by a sampled check.  An exact separable diagonal needs no scaling: it is one
more factor in every term.

The separable structure is what keeps ranks predictable: the Kronecker
middle and an ``m``-term scaling are sums of CP terms, each applied exactly
in one orthogonalizing sweep (as :func:`~htsolve.hsvd.apply_cp` applies one)
whose ranks are capped by the QR block sizes.  A node's block has one column
block per distinct term restricted to the node's modes: a Kronecker term is
the identity away from its own modes, so terms that coincide on a subtree
are factored once there.  What a sweep needs of its terms besides the tensor
(the term groups and one stacked leaf map per mode) is built once per tree
and kept on the operator, or next to the table on the scaling.

:func:`apply_certified` is the one way to apply an operator: given a
tolerance ``eta`` it sizes the scaling tables from the operator's certified
upper bound so that their accuracy costs at most ``eta/4``, applies the
right scaling, the Kronecker middle and the left scaling exactly (one sweep
each, no intermediate truncation, and one root SVD in all), and spends
``eta/2`` on a single final recompression.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from htsolve.errors import ToleranceInfeasibleError
from htsolve.hsvd import (
    HTensor,
    _apply_stages,
    _cp_plan,
    coarsen,
    norm,
    recompress,
    zero_htensor,
)

__all__ = [
    "OperatorBounds",
    "ExpSumScaling",
    "ExpSumTable",
    "LowRankOperator",
    "build_scaling",
    "apply_certified",
    "rhs_truncate",
]


class OperatorBounds(NamedTuple):
    """Proved spectral bounds ``lower <= A <= upper`` (SPD sense), attached
    by the problem builders from a structural argument."""

    lower: float
    upper: float


# ---------------------------------------------------------------------------
# scalings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExpSumScaling:
    """The ideal diagonal ``(sum_i q_i[lam_i])^(-1/2)`` over every index.

    The level weights ``q_i`` must be nonempty 1-d, finite and nonnegative,
    with a positive smallest row sum.  What depends on them alone is computed
    once and kept here: the normalized check set :func:`build_scaling`
    certifies on, the full-check sup of each tabulated entry it has checked
    (keyed by ``(R, index)``), and the tables :func:`apply_certified` builds
    with their CP terms and, per tree, those terms' apply plan (keyed by
    quantized tolerance).  Scalings compare and hash by identity, since each
    carries its own memo.
    """

    level_weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        qs = tuple(np.asarray(q, dtype=np.float64) for q in self.level_weights)
        if any(q.ndim != 1 or len(q) == 0 for q in qs):
            raise ValueError("level weights must be nonempty 1-d arrays")
        if any(not np.isfinite(q).all() for q in qs):
            raise ValueError("level weights must be finite")
        if any((q < 0).any() for q in qs):
            raise ValueError("level weights must be nonnegative")
        if sum(q.min() for q in qs) <= 0.0:
            raise ValueError("the smallest row sum must be positive")
        object.__setattr__(self, "level_weights", qs)
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_sups", {})

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(q) for q in self.level_weights)

    @property
    def row_sum_range(self) -> tuple[float, float]:
        """Smallest row sum ``c`` and normalized range ``X`` (largest / c)."""
        c = float(sum(q.min() for q in self.level_weights))
        return c, float(sum(q.max() for q in self.level_weights)) / c

    @functools.cached_property
    def _check_x(self) -> np.ndarray:
        """Verification row sums plus a 4097-point log grid, normalized."""
        c, big_x = self.row_sum_range
        check_x = _verification_sums(self.level_weights,
                                     np.random.default_rng(0x5CA1E))
        grid_x = np.exp(np.linspace(0.0, np.log(big_x), 4097)) * c
        return np.unique(np.concatenate([check_x, grid_x])) / c

    def ideal_dense_diag(self) -> np.ndarray:
        x = self.level_weights[0]
        for q in self.level_weights[1:]:
            x = np.add.outer(x, q)
        return x.ravel() ** -0.5


@dataclass(frozen=True, eq=False)
class ExpSumTable:
    """``omega~(lam) = sum_j w_j prod_i exp(-t_j q_i[lam_i])``, ``m``
    separable diagonals approximating an :class:`ExpSumScaling`;
    ``certified`` is the sup of ``|1 - omega~/omega|`` over the verification
    set (a bound for every row when all rows were verified)."""

    weights: np.ndarray
    exponents: np.ndarray
    certified: float

    @property
    def m(self) -> int:
        return len(self.weights)


def _scalar_expsum_relerr(weights, exponents, x: np.ndarray) -> float:
    """sup over x of |1 - sqrt(x) * S(x)| for S(x) = sum w exp(-t x).

    Evaluated in chunks of 8192 points, with the exponentials formed in place
    (``exp(x * -t)`` has the same bits as ``exp(-(x t))``).  A NaN anywhere
    makes the sup NaN, so a check ``sup <= bound`` fails on it.
    """
    sups = []
    for lo in range(0, len(x), 8192):
        xc = x[lo:lo + 8192]
        e = np.multiply.outer(xc, -exponents)
        np.exp(e, out=e)
        sups.append(np.abs(1.0 - np.sqrt(xc) * (e @ weights)).max())
    return float(np.max(sups))


def _verification_sums(qs, rng) -> np.ndarray:
    """Row sums to verify a scaling on: exhaustive when feasible, otherwise
    all extreme level combinations plus 1000 random rows."""
    total = int(np.prod([len(q) for q in qs]))
    if total <= 100_000:
        x = qs[0]
        for q in qs[1:]:
            x = np.add.outer(x, q).ravel()
        return np.unique(x)
    sums = []
    # extreme level combinations: min/max of each mode's weights
    extremes = [(float(q.min()), float(q.max())) for q in qs]
    grids = np.meshgrid(*extremes, indexing="ij")
    sums.append(np.stack([g.ravel() for g in grids]).sum(axis=0))
    # random rows
    idx = np.stack([rng.integers(0, len(q), size=1000) for q in qs])
    sums.append(np.stack([q[i] for q, i in zip(qs, idx)]).sum(axis=0))
    return np.unique(np.concatenate(sums))


@functools.cache
def _near_best_tables() -> dict[float, list]:
    """The committed near-best tables by range ``R``: ``(sup, weights,
    exponents)`` for increasing ``m``, in normalized coordinates (they
    approximate ``x^(-1/2)`` on ``[1, R]``).  Read once per process."""
    source = resources.files("htsolve").joinpath("expsum_tables.npz")
    with source.open("rb") as fh, np.load(fh) as data:
        ranges, sizes, sups = data["R"], data["m"], data["sup"]
        weights, exponents = data["weights"], data["exponents"]
    tables: dict[float, list] = {}
    ends = np.cumsum(sizes)
    for big_r, m, sup, end in zip(ranges, sizes, sups, ends):
        tables.setdefault(float(big_r), []).append(
            (float(sup), weights[end - m:end], exponents[end - m:end]))
    return tables


def build_scaling(level_weights, tol: float) -> ExpSumTable:
    """Smallest certified exponential-sum table for the inverse square root
    of ``sum_i q_i[lam_i]`` over every index.

    The requested relative tolerance must be below 1 and is clamped to 1/2.
    ``level_weights`` is an :class:`ExpSumScaling`, whose check set and
    full-check sups are then reused across calls, or raw weights, checked as
    :class:`ExpSumScaling` checks them (a fresh scaling, so nothing is
    reused).  A candidate passes when its sup error against the ideal
    diagonal is at most ``0.995 delta`` on all extreme level combinations,
    1000 seeded random rows (every row when there are at most 100k), and a
    4097-point log grid in the scalar sum (the relative error depends on the
    row only through the sum, so the grid check dominates both).  The check
    is sampled: it proves nothing between its points.

    The candidates are the committed near-best tables
    (``expsum_tables.npz``, written by ``tools/expsum_tables.py``: ranges
    ``R = 2^1 .. 2^32``, sampled sups down to about 5e-16 for ``R <= 2^16``
    and to 4.4e-16 .. 1.8e-15 above; read once per process).  The ranges ``R`` at
    least the normalized range ``X`` are walked from the smallest up, and
    within each the sizes whose stored sup is at most ``0.995 delta`` from
    the smallest up; the first that passes the full check is returned, which
    is usually the first one.  When none of them passes, the table with the
    smallest stored sup for ``R >= X`` is returned if its full check passes:
    its stored sup, taken over all of ``[1, R]``, may exceed the threshold
    while its sup on the checked ``[1, X]`` does not.  The check set is
    built once per scaling and each entry fully checked at most once, so
    tables and their ``certified`` sups are bitwise those of a fresh
    scaling.  Raises :class:`ToleranceInfeasibleError` when that table fails
    too, naming its full-check sup, or when ``X`` exceeds every tabulated
    range.
    """
    if math.isnan(tol):
        raise ValueError("relative tolerance must be a number, got nan")
    if tol >= 1.0:
        raise ValueError(f"relative tolerance must be < 1, got {tol}")
    if tol <= 0.0:
        raise ValueError(f"relative tolerance must be positive, got {tol}")
    delta = min(tol, 0.5)
    scaling = (level_weights if isinstance(level_weights, ExpSumScaling)
               else ExpSumScaling(level_weights))
    c, big_x = scaling.row_sum_range
    tables = _near_best_tables()
    widest = max(tables)
    if big_x > widest:
        raise ToleranceInfeasibleError(
            f"normalized range [1, {big_x:.3g}] exceeds the widest tabulated "
            f"exponential-sum range [1, {widest:.3g}]"
        )

    def full_check(big_r, k):  # once per entry: the returned table, renormalized
        if (big_r, k) not in scaling._sups:
            _, w, t = tables[big_r][k]
            scaling._sups[big_r, k] = _scalar_expsum_relerr(
                w / math.sqrt(c) * math.sqrt(c), t / c * c, scaling._check_x)
        return scaling._sups[big_r, k]

    def table(big_r, k, err):
        _, w, t = tables[big_r][k]
        return ExpSumTable(weights=w / math.sqrt(c), exponents=t / c, certified=err)

    # small headroom: between grid points the error can exceed the sampled
    # sup by a sliver (exhaustive row sets are exact already)
    threshold = 0.995 * delta
    for big_r in sorted(r for r in tables if r >= big_x):
        for k, (sup, _, _) in enumerate(tables[big_r]):
            if sup > threshold:
                continue
            err = full_check(big_r, k)
            if err <= threshold:
                return table(big_r, k, err)

    # a stored sup covers all of [1, R], the check only [1, X]: the most
    # accurate entry may pass though its stored sup does not
    best = min(((r, k) for r, entries in tables.items() if r >= big_x
                for k in range(len(entries))),
               key=lambda rk: tables[rk[0]][rk[1]][0])
    err = full_check(*best)
    if err <= threshold:
        return table(*best, err)
    raise ToleranceInfeasibleError(
        f"no tabulated exponential sum reaches relative tolerance {delta:g} "
        f"(best achieved: {err:.3g}; "
        f"normalized range [1, {big_x:.3g}], tabulated up to {widest:.3g})"
    )


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _as_term_matrix(m, n: int):
    if m is None:
        return None
    if sp.issparse(m):
        m = sp.csr_array(m)
    else:
        m = sp.csr_array(np.asarray(m, dtype=np.float64))
    if m.shape != (n, n):
        raise ValueError(f"term matrix has shape {m.shape}, expected ({n}, {n})")
    return m


class LowRankOperator:
    """Sum of Kronecker products of per-mode matrices, optionally scaled.

    Parameters
    ----------
    dims : mode sizes.
    terms : iterable of per-mode factor tuples; ``None`` marks an identity.
    scaling_left, scaling_right : optional :class:`ExpSumScaling`; the
        operator then means its *ideal* diagonal.
    bounds : optional proved :class:`OperatorBounds`; the solvers read them
        as the spectral bounds of an SPD operator.

    :func:`apply_certified` keeps the Kronecker middle's apply plan here,
    one per tree, so it lives as long as the operator.
    """

    def __init__(self, dims, terms, scaling_left=None, scaling_right=None,
                 bounds=None):
        self.dims = tuple(int(n) for n in dims)
        if any(n < 1 for n in self.dims):
            raise ValueError(f"mode sizes must be positive: {self.dims}")
        # a factor shared between terms stays one object, so that apply_cp
        # factors it once; holding the source keeps its id from being reused
        converted = {}
        parsed = []
        for term in terms:
            term = tuple(term)
            if len(term) != len(self.dims):
                raise ValueError(
                    f"term has {len(term)} factors, expected {len(self.dims)}"
                )
            for m, n in zip(term, self.dims):
                if (id(m), n) not in converted:
                    converted[id(m), n] = (m, _as_term_matrix(m, n))
            parsed.append(tuple(converted[id(m), n][1]
                                for m, n in zip(term, self.dims)))
        if not parsed:
            raise ValueError("an operator needs at least one term")
        self.terms = tuple(parsed)
        for s in (scaling_left, scaling_right):
            if s is not None and not isinstance(s, ExpSumScaling):
                raise TypeError(f"a scaling is an ExpSumScaling or None, got {s!r}")
            if s is not None and s.dims != self.dims:
                raise ValueError(f"scaling dims {s.dims} do not match {self.dims}")
        self.scaling_left = scaling_left
        self.scaling_right = scaling_right
        self.bounds = bounds
        self._plans = {}  # tree: the Kronecker middle's CP plan

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def has_expsum(self) -> bool:
        return self.scaling_left is not None or self.scaling_right is not None


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _check_dims(a: LowRankOperator, v: HTensor):
    if a.dims != v.dims:
        raise ValueError(f"operator dims {a.dims} do not match tensor dims {v.dims}")


def _expsum_stage(s: ExpSumScaling, beta: float, tree) -> tuple:
    """The table for ``s`` at accuracy ``beta`` and its CP plan on ``tree``
    (see :func:`~htsolve.hsvd._cp_plan`), built on first use and cached on
    ``s`` next to the table; tolerances are quantized down to powers of two
    so that nearby requests share a table."""
    quant = 2.0 ** math.floor(math.log2(beta))
    if quant not in s._tables:
        table = build_scaling(s, quant)
        # term j takes exp(-t_j q_i) in every mode i
        terms = list(zip(*(np.exp(-np.outer(q, table.exponents)).T
                           for q in s.level_weights)))
        s._tables[quant] = table, terms, {}
    table, terms, plans = s._tables[quant]
    if tree not in plans:
        plans[tree] = _cp_plan(tree, s.dims, terms)
    return table, plans[tree]


def apply_certified(a: LowRankOperator, v: HTensor, eta: float,
                    return_info: bool = False):
    """Apply ``A`` within certified error ``eta``.

    The right scaling, the Kronecker middle and the left scaling are each
    applied exactly by one sweep of :func:`~htsolve.hsvd._apply_stages`, with
    no intermediate truncation, from apply plans built once per tree (on the
    operator, and on the scaling next to each table).  A stage hands its
    frames, transfers and root core to the next without the root SVD; only
    the last stage takes it and builds the tensor.  The only errors are the
    exponential-sum table accuracy and one final recompression.  The tables
    are built at a relative accuracy ``beta`` sized from the operator's
    certified upper bound so that they contribute at most
    ``beta (2 + beta) upper ||v|| <= eta/4``; the final recompression spends
    ``eta/2``.  The total is thus at most ``3 eta/4``.  Without scalings the
    application is error-free before the recompression (``eta = 0`` then
    trims numerically-zero ranks only).  With ``return_info`` the
    returned dict records the table sizes, the pre-recompression ranks, and
    the certified error split.

    The accounting is exact in exact arithmetic.  In floating point, spectra
    and norms come from QR and SVD sweeps, with errors of order ``u sigma_1``
    for unit roundoff ``u``; no allowance is added for them.  Dense oracles
    confirm solve certificates down to ``eps = 1e-12`` on the parametric
    fixtures and down to 1e-10 on the exp-sum fixtures, whose tables are
    infeasible at 1e-12.
    """
    _check_dims(a, v)
    if not math.isfinite(eta) or eta < 0:
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    info = {"m_left": 0, "m_right": 0, "beta": 0.0, "scaling_error": 0.0,
            "pre_ranks": None, "recompress_error": 0.0}
    nv = norm(v)
    if nv == 0.0:
        out = zero_htensor(v.tree, v.dims)
        info["pre_ranks"] = out.ranks
        return (out, info) if return_info else out

    beta = 0.0
    if a.has_expsum:
        if eta == 0.0:
            raise ToleranceInfeasibleError(
                "eta = 0 requires exact application, but the operator carries an "
                "exponential-sum scaling"
            )
        if a.bounds is None:
            raise ValueError(
                "certified application with exponential-sum scalings needs "
                "operator bounds, and the operator carries none"
            )
        upper = float(a.bounds.upper)
        # table error [beta_L + beta_R (1 + beta_L)] * upper * ||v||
        # <= beta (2 + beta) * upper * ||v|| <= 2.5 beta upper ||v|| <= eta/4
        beta = min(0.5, (eta / 4.0) / (2.5 * upper * nv))
        if beta == 0.0:
            raise ToleranceInfeasibleError(
                f"eta = {eta:g} underflows the table accuracy to 0")
        info["beta"] = beta
        info["scaling_error"] = beta * (2.0 + beta) * upper * nv

    def scaling_stage(s, key):
        table, plan = _expsum_stage(s, beta, v.tree)
        info[key] = table.m
        return plan, table.weights

    if v.tree not in a._plans:
        a._plans[v.tree] = _cp_plan(v.tree, a.dims, a.terms)
    stages = [(a._plans[v.tree], np.ones(a.num_terms))]
    if a.scaling_right is not None:
        stages.insert(0, scaling_stage(a.scaling_right, "m_right"))
    if a.scaling_left is not None:
        stages.append(scaling_stage(a.scaling_left, "m_left"))
    w = _apply_stages(v, stages)
    info["pre_ranks"] = w.ranks
    info["recompress_error"] = eta / 2.0
    w = recompress(w, eta / 2.0)
    return (w, info) if return_info else w


def rhs_truncate(f: HTensor, eta: float) -> HTensor:
    """Right-hand-side reduction: recompress at ``eta/2`` then coarsen at
    ``eta/2``; total error at most ``eta``."""
    if not eta >= 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta > 0 and eta >= norm(f):
        return zero_htensor(f.tree, f.dims)
    g = recompress(f, eta / 2.0)
    return coarsen(g, eta / 2.0)
