"""Low-rank Kronecker operators, inverse-square-root scalings, certified apply.

Operators have the form ``A = S_L (sum_r  M_{r,1} x ... x M_{r,d}) S_R`` with
per-mode square matrices ``M_{r,i}`` (``None`` marks an identity factor) and
optional diagonal scalings on either side.  A scaling is either

* :class:`DiagonalScaling` - an explicit separable diagonal, applied exactly;
* :class:`ExpSumScaling` - a certified exponential-sum approximation of the
  *ideal* inverse-square-root diagonal ``omega(lam) = (sum_i q_i[lam_i])^(-1/2)``
  built from per-mode level weights ``q_i >= 0``.  The operator *means* the
  ideal diagonal; tables at any accuracy can be rebuilt on demand, and every
  application carries a certificate relative to the ideal operator.

The separable structure is what keeps ranks predictable: a Kronecker term maps
leaf frames only, so the literal sum of ``R`` terms multiplies every edge rank
by exactly ``R``, and an ``m``-term scaling by exactly ``m``
(:func:`apply_exact`, :func:`apply_scaling`).  The same sums have CP
structure, so :func:`~htsolve.hsvd.apply_cp` applies each of them exactly in
one orthogonalizing sweep whose ranks are capped by the QR block sizes.

``apply_certified`` is the workhorse: given a tolerance ``eta`` it sizes the
scaling tables from the operator's certified upper bound so that their
accuracy costs at most ``eta/4``, applies the right scaling, the Kronecker
middle and the left scaling exactly (one sweep each, no intermediate
truncation), and spends ``eta/2`` on a single final recompression.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from htsolve.errors import (
    CertificateViolationError,
    ToleranceInfeasibleError,
)
from htsolve.hsvd import (
    HTensor,
    add,
    apply_cp,
    coarsen,
    contractions,
    norm,
    recompress,
    restrict_support,
    scale,
    zero_htensor,
)

__all__ = [
    "OperatorBounds",
    "DiagonalScaling",
    "ExpSumScaling",
    "ExpSumInverse",
    "LowRankOperator",
    "identity_operator",
    "bh_exponential_sum",
    "build_scaling",
    "apply_scaling",
    "apply_exact",
    "apply_certified",
    "apply_compressed",
    "CompressionTable",
    "build_compression_table",
    "rhs_truncate",
    "estimate_operator_bounds",
    "save_operator_spec",
    "load_operator_spec",
]

SCALING_TERM_CAP = 4096
_EPS = float(np.finfo(np.float64).eps)


class OperatorBounds(NamedTuple):
    """Two-sided spectral bounds ``lower <= A <= upper`` (SPD sense).

    ``certified`` records whether the bounds come with a proof (dense
    eigensolve, structural argument) or from a non-certified estimator.
    """

    lower: float
    upper: float
    certified: bool = False


# ---------------------------------------------------------------------------
# scalings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalScaling:
    """Exact separable diagonal ``diag(v_1) x ... x diag(v_d)``."""

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=np.float64) for v in self.vectors)
        if any(v.ndim != 1 for v in vecs):
            raise ValueError("diagonal scaling vectors must be 1-d")
        object.__setattr__(self, "vectors", vecs)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.vectors)

    def row_value(self, lam) -> float:
        return float(np.prod([v[k] for v, k in zip(self.vectors, lam)]))

    def dense_diag(self) -> np.ndarray:
        out = self.vectors[0]
        for v in self.vectors[1:]:
            out = np.multiply.outer(out, v)
        return out.ravel()


@dataclass(frozen=True)
class ExpSumScaling:
    """Certified exponential-sum approximation of an inverse-square-root
    diagonal.

    The approximated (ideal) diagonal is ``(sum_i q_i[lam_i])^(-1/2)`` over
    the active index set; the stored form is
    ``omega~(lam) = sum_j w_j prod_i exp(-t_j q_i[lam_i])``,
    which acts on a tensor as ``m`` separable diagonals.  ``certified`` is the
    measured sup of ``|1 - omega~/omega|`` over the verification set (a bound
    for the full active set when the set was verified exhaustively).
    """

    weights: np.ndarray
    exponents: np.ndarray
    level_weights: tuple[np.ndarray, ...]
    active: tuple[tuple[int, ...], ...]
    tol: float
    certified: float

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "exponents", np.asarray(self.exponents, dtype=np.float64))
        object.__setattr__(self, "level_weights",
                           tuple(np.asarray(q, dtype=np.float64) for q in self.level_weights))
        object.__setattr__(self, "active",
                           tuple(tuple(int(k) for k in a) for a in self.active))

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(q) for q in self.level_weights)

    def row_value(self, lam) -> float:
        x = float(sum(q[k] for q, k in zip(self.level_weights, lam)))
        return float(np.dot(self.weights, np.exp(-self.exponents * x)))

    def ideal_row(self, lam) -> float:
        x = float(sum(q[k] for q, k in zip(self.level_weights, lam)))
        return x ** -0.5

    def mode_factors(self, i: int) -> np.ndarray:
        """(n_i, m) array of per-index exponential factors for mode i."""
        return np.exp(-np.outer(self.level_weights[i], self.exponents))

    def ideal_dense_diag(self) -> np.ndarray:
        x = self.level_weights[0]
        for q in self.level_weights[1:]:
            x = np.add.outer(x, q)
        return x.ravel() ** -0.5

    def approx_dense_diag(self) -> np.ndarray:
        x = self.level_weights[0]
        for q in self.level_weights[1:]:
            x = np.add.outer(x, q)
        x = x.ravel()
        return np.exp(-np.outer(x, self.exponents)) @ self.weights


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


def _verification_sums(level_weights, active, rng) -> np.ndarray:
    """Row sums to verify a scaling on: exhaustive when feasible, otherwise
    all extreme level combinations plus 1000 random active rows."""
    qs = [np.asarray(q, dtype=np.float64)[list(a)] for q, a in zip(level_weights, active)]
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


def build_scaling(level_weights, tol: float, active=None) -> ExpSumScaling:
    """Smallest certified exponential-sum table for the inverse square root
    of ``sum_i q_i[lam_i]`` over the active set.

    The requested relative tolerance must be below 1 and is clamped to 1/2;
    level weights must be finite.  The table size is found by doubling plus
    bisection.  A candidate passes when its sup error against the ideal
    diagonal is at most ``0.995 delta`` on all extreme level combinations,
    1000 seeded random rows (every row when there are at most 100k), and a
    4097-point log grid in the scalar sum (the relative error depends on the
    row only through the sum, so the grid check dominates both).

    Each candidate is first screened on every 16th of those points.  The sup
    over a subset bounds the full sup from below, so a screen above the
    threshold (plus an allowance for the dot product's summation order)
    proves the candidate fails without the full check.  A candidate that
    survives gets the full check, and each size is fully checked at most once
    per build.  Screening only skips checks whose outcome is already known,
    so the chosen size, its weights, exponents and ``certified`` sup are
    those of the unscreened search.  Raises :class:`ToleranceInfeasibleError`
    when no table within the hard cap of 4096 terms verifies; the best sup
    it reports is fully evaluated.
    """
    if math.isnan(tol):
        raise ValueError("relative tolerance must be a number, got nan")
    if tol >= 1.0:
        raise ValueError(f"relative tolerance must be < 1, got {tol}")
    if tol <= 0.0:
        raise ValueError(f"relative tolerance must be positive, got {tol}")
    delta = min(tol, 0.5)
    level_weights = tuple(np.asarray(q, dtype=np.float64) for q in level_weights)
    if any(q.ndim != 1 or len(q) == 0 for q in level_weights):
        raise ValueError("level weights must be nonempty 1-d arrays")
    if any(not np.isfinite(q).all() for q in level_weights):
        raise ValueError("level weights must be finite")
    if any((q < 0).any() for q in level_weights):
        raise ValueError("level weights must be nonnegative")
    if active is None:
        active = tuple(tuple(range(len(q))) for q in level_weights)
    else:
        active = tuple(tuple(sorted(int(k) for k in a)) for a in active)
        for a, q in zip(active, level_weights):
            if len(a) == 0:
                raise ValueError("active sets must be nonempty")
            if a[0] < 0 or a[-1] >= len(q):
                raise IndexError("active set outside the level-weight range")

    qs = [q[list(a)] for q, a in zip(level_weights, active)]
    c = float(sum(q.min() for q in qs))
    if c <= 0.0:
        raise ValueError("the smallest active row sum must be positive")
    big_x = float(sum(q.max() for q in qs)) / c

    rng = np.random.default_rng(0x5CA1E)
    check_x = _verification_sums(level_weights, active, rng)
    grid_x = np.exp(np.linspace(0.0, np.log(big_x), 4097)) * c
    check_x = np.unique(np.concatenate([check_x, grid_x])) / c  # normalized
    screen_x = check_x[::16]
    # small headroom: between grid points the error can exceed the sampled
    # sup by a sliver (exhaustive row sets are exact already)
    threshold = 0.995 * delta

    @functools.cache
    def candidate(m: int):
        # sinc-type quadrature for x^(-1/2) = pi^(-1/2) int e^(s/2) e^(-x e^s) ds
        # on normalized x in [1, X]; truncation points sized for delta/4 tails
        d4 = delta / 4.0
        s_max = math.log(math.log(4.0 / d4) + 2.0)
        s_min = 2.0 * math.log(d4 * math.sqrt(math.pi) / 8.0) - math.log(big_x)
        s = np.linspace(s_min, s_max, m)
        h = s[1] - s[0] if m > 1 else 1.0
        weights = h * np.exp(s / 2.0) / math.sqrt(math.pi * c)
        exponents = np.exp(s) / c
        return weights, exponents

    def sup_error(m: int, x: np.ndarray) -> float:
        w, t = candidate(m)
        return _scalar_expsum_relerr(w * math.sqrt(c), t * c, x)

    @functools.cache
    def full_sup(m: int) -> float:
        return sup_error(m, check_x)

    def passes(m: int) -> bool:
        low = sup_error(m, screen_x)
        # a full check sums each row's m terms in another order: allow for
        # the rounding of that dot product and of its exponentials
        if low > threshold + 8.0 * (m + 1) * _EPS * (1.0 + low):
            return False
        return full_sup(m) <= threshold

    m = 2
    while m <= SCALING_TERM_CAP and not passes(m):
        m *= 2
    if m > SCALING_TERM_CAP:
        best_err = np.inf
        for k in range(1, SCALING_TERM_CAP.bit_length()):
            best_err = min(best_err, full_sup(2**k))
        raise ToleranceInfeasibleError(
            f"no exponential-sum table with <= {SCALING_TERM_CAP} terms reaches "
            f"relative tolerance {delta:g} (best achieved: {best_err:.3g}; "
            f"normalized range [1, {big_x:.3g}])"
        )
    lo, hi = m // 2 + 1, m
    while lo < hi:  # hi always holds a size that passed
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    w, t = candidate(hi)
    return ExpSumScaling(weights=w, exponents=t, level_weights=level_weights,
                         active=active, tol=tol, certified=full_sup(hi))


# ---------------------------------------------------------------------------
# reciprocal exponential sums (used by tests and diagnostics)
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
    scaling_left, scaling_right : optional :class:`DiagonalScaling` (exact) or
        :class:`ExpSumScaling` (the operator then means the *ideal* diagonal
        the table approximates).
    symmetric : declared symmetry of the (scaled) operator.
    bounds : optional :class:`OperatorBounds`.
    compression : optional :class:`CompressionTable` for level-truncated
        application.
    """

    def __init__(self, dims, terms, scaling_left=None, scaling_right=None,
                 symmetric=False, bounds=None, compression=None):
        self.dims = tuple(int(n) for n in dims)
        if any(n < 1 for n in self.dims):
            raise ValueError(f"mode sizes must be positive: {self.dims}")
        parsed = []
        for term in terms:
            term = tuple(term)
            if len(term) != len(self.dims):
                raise ValueError(
                    f"term has {len(term)} factors, expected {len(self.dims)}"
                )
            parsed.append(tuple(_as_term_matrix(m, n) for m, n in zip(term, self.dims)))
        if not parsed:
            raise ValueError("an operator needs at least one term")
        self.terms = tuple(parsed)
        for s in (scaling_left, scaling_right):
            if s is not None and s.dims != self.dims:
                raise ValueError(f"scaling dims {s.dims} do not match {self.dims}")
        self.scaling_left = scaling_left
        self.scaling_right = scaling_right
        self.symmetric = bool(symmetric)
        self.bounds = bounds
        self.compression = compression
        self._table_cache: dict = {}

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def has_expsum(self) -> bool:
        return isinstance(self.scaling_left, ExpSumScaling) or isinstance(
            self.scaling_right, ExpSumScaling)

    def assemble_dense(self, max_entries: float = 1e8) -> np.ndarray:
        """Dense matrix of the operator, with exp-sum scalings replaced by the
        ideal diagonals they approximate.  Reference/oracle use only."""
        n = float(np.prod(self.dims)) ** 2
        if n > max_entries:
            raise ValueError(
                f"dense operator would have {n:.3g} entries (> {max_entries:.3g})"
            )
        total = None
        for term in self.terms:
            mat = None
            for m, sz in zip(term, self.dims):
                factor = np.eye(sz) if m is None else m.toarray()
                mat = factor if mat is None else np.kron(mat, factor)
            total = mat if total is None else total + mat
        for s, side in ((self.scaling_left, "left"), (self.scaling_right, "right")):
            if s is None:
                continue
            diag = s.dense_diag() if isinstance(s, DiagonalScaling) else s.ideal_dense_diag()
            total = diag[:, None] * total if side == "left" else total * diag[None, :]
        return total


def identity_operator(dims, certified=True) -> LowRankOperator:
    return LowRankOperator(dims, [(None,) * len(tuple(dims))], symmetric=True,
                           bounds=OperatorBounds(1.0, 1.0, certified))


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _check_dims(a: LowRankOperator, v: HTensor):
    if a.dims != v.dims:
        raise ValueError(f"operator dims {a.dims} do not match tensor dims {v.dims}")


def _apply_kron_term(term, v: HTensor) -> HTensor:
    frames = {}
    for i in range(v.d):
        m = term[i]
        frames[i] = v.frames[i] if m is None else m @ v.frames[i]
    return HTensor(tree=v.tree, dims=v.dims, frames=frames, transfer=v.transfer,
                   root_transfer=v.root_transfer)


def _apply_diagonal(s: DiagonalScaling, v: HTensor) -> HTensor:
    frames = {i: s.vectors[i][:, None] * v.frames[i] for i in range(v.d)}
    return HTensor(tree=v.tree, dims=v.dims, frames=frames, transfer=v.transfer,
                   root_transfer=v.root_transfer)


def _check_support(s: ExpSumScaling, v: HTensor):
    for i, a in enumerate(s.active):
        if a == tuple(range(v.dims[i])):
            continue  # every index is active
        inactive = np.setdiff1d(np.arange(v.dims[i]), np.asarray(a))
        if inactive.size and np.any(v.frames[i][inactive, :] != 0.0):
            raise CertificateViolationError(
                f"tensor has mass outside the scaling's active set in mode {i}; "
                "the scaling certificate does not cover these rows"
            )


def _scaled_term(s: ExpSumScaling, j: int, v: HTensor, factors) -> HTensor:
    frames = {i: factors[i][:, j][:, None] * v.frames[i] for i in range(v.d)}
    out = HTensor(tree=v.tree, dims=v.dims, frames=frames, transfer=v.transfer,
                  root_transfer=float(s.weights[j]) * v.root_transfer)
    return out


def apply_scaling(s: ExpSumScaling, v: HTensor, max_entries: float = 2e8) -> HTensor:
    """Exact application of the stored ``m``-term diagonal (not the ideal one):
    every edge rank is multiplied by exactly ``m``.

    Tensors with mass outside the scaling's active set are rejected with a
    :class:`CertificateViolationError`.  This literal form is a reference;
    :func:`apply_certified` applies the same diagonal in one orthogonalizing
    sweep (:func:`~htsolve.hsvd.apply_cp`) whose ranks are capped by the QR
    block sizes.  The size guard protects against accidental huge
    allocations.
    """
    if s.dims != v.dims:
        raise ValueError(f"scaling dims {s.dims} do not match tensor dims {v.dims}")
    _check_support(s, v)
    m = s.m
    biggest = max(
        (m**3 * b.shape[0] * b.shape[1] * b.shape[2] for b in v.transfer.values()),
        default=m**2 * v.root_transfer.size,
    )
    if biggest > max_entries:
        raise ValueError(
            f"exact scaling application would allocate {biggest:.3g} transfer "
            f"entries; use apply_certified instead"
        )
    factors = [s.mode_factors(i) for i in range(v.d)]
    out = None
    for j in range(m):
        term = _scaled_term(s, j, v, factors)
        out = term if out is None else add(out, term)
    return out


def apply_exact(a: LowRankOperator, v: HTensor) -> HTensor:
    """Apply an operator with no exponential-sum scalings: exact, with every
    edge rank multiplied by exactly the number of Kronecker terms."""
    _check_dims(a, v)
    if a.has_expsum:
        raise ValueError(
            "operator carries an exponential-sum scaling; exact application "
            "is not defined (use apply_certified)"
        )
    if isinstance(a.scaling_right, DiagonalScaling):
        v = _apply_diagonal(a.scaling_right, v)
    out = None
    for term in a.terms:
        w = _apply_kron_term(term, v)
        out = w if out is None else add(out, w)
    if isinstance(a.scaling_left, DiagonalScaling):
        out = _apply_diagonal(a.scaling_left, out)
    return out


def _expsum_table(a: LowRankOperator, s: ExpSumScaling, beta: float) -> ExpSumScaling:
    """Rebuild (and cache) a table for the same ideal diagonal at accuracy
    ``beta``; tolerances are quantized to powers of two for cache reuse."""
    if beta >= s.certified and s.certified <= min(s.tol, 0.5):
        return s
    quant = 2.0 ** math.floor(math.log2(beta))
    key = (id(s), quant)
    if key not in a._table_cache:
        a._table_cache[key] = build_scaling(s.level_weights, quant, active=s.active)
    return a._table_cache[key]


def _apply_side(a: LowRankOperator, s, v: HTensor, beta: float) -> tuple[HTensor, int]:
    """Apply one scaling as a CP sum in a single sweep; returns the result and
    the number of exp-sum terms used (0 for an exact diagonal)."""
    if isinstance(s, DiagonalScaling):
        return apply_cp(v, [s.vectors]), 0
    table = _expsum_table(a, s, beta)
    _check_support(table, v)
    # term j takes column j of every mode's factor matrix
    terms = list(zip(*(table.mode_factors(i).T for i in range(v.d))))
    return apply_cp(v, terms, table.weights), table.m


def apply_certified(a: LowRankOperator, v: HTensor, eta: float,
                    return_info: bool = False):
    """Apply ``A`` within certified error ``eta``.

    The right scaling, the Kronecker middle and the left scaling are each
    applied exactly by one :func:`~htsolve.hsvd.apply_cp` sweep, with no
    intermediate truncation.  The only errors are the exponential-sum table
    accuracy and one final recompression.  The tables are rebuilt at a
    relative accuracy ``beta`` sized from the operator's certified upper
    bound so that they contribute at most
    ``beta (2 + beta) upper ||v|| <= eta/4``; the final recompression spends
    ``eta/2``.  The total is thus at most ``3 eta/4``.  With exact scalings
    only, the application is error-free before the recompression (``eta = 0``
    then trims numerically-zero ranks only).  With ``return_info`` the
    returned dict records the table sizes, the pre-recompression ranks, and
    the certified error split.

    The accounting is exact in exact arithmetic.  In floating point, Gram-based
    singular values carry absolute noise of order ``eps * sigma_1``, so
    certificates are reliable down to roughly ``1e-8`` relative to the
    intermediate norms; tolerances far below that cannot be certified in
    double precision.
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
                "operator bounds (see estimate_operator_bounds)"
            )
        upper = float(a.bounds.upper)
        # table error [beta_L + beta_R (1 + beta_L)] * upper * ||v||
        # <= beta (2 + beta) * upper * ||v|| <= 2.5 beta upper ||v|| <= eta/4
        beta = min(0.5, (eta / 4.0) / (2.5 * upper * nv))
        info["beta"] = beta
        info["scaling_error"] = beta * (2.0 + beta) * upper * nv

    w = v
    if a.scaling_right is not None:
        w, info["m_right"] = _apply_side(a, a.scaling_right, w, beta)
    w = apply_cp(w, a.terms)
    if a.scaling_left is not None:
        w, info["m_left"] = _apply_side(a, a.scaling_left, w, beta)
    info["pre_ranks"] = w.ranks
    info["recompress_error"] = eta / 2.0
    w = recompress(w, eta / 2.0)
    return (w, info) if return_info else w


def rhs_truncate(f: HTensor, eta: float) -> HTensor:
    """Right-hand-side reduction: recompress at ``eta/2`` then coarsen at
    ``eta/2``; total error at most ``eta``."""
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta > 0 and eta >= norm(f):
        return zero_htensor(f.tree, f.dims)
    g = recompress(f, eta / 2.0)
    return coarsen(g, eta / 2.0)


# ---------------------------------------------------------------------------
# level-truncated (compressed) application
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressionTable:
    """Certified norms of level-band operator truncations.

    ``levels[i][k]`` is the dyadic level of index ``k`` in mode ``i``; the
    truncated operator ``A_J`` keeps per-mode matrix entries with
    ``|level(row) - level(col)| <= J``.  ``norms[J]`` certifies
    ``|A - A_J| <= norms[J]`` (spectral norm; triangle inequality over modes
    with the scaling absorbed structurally).
    """

    levels: tuple[np.ndarray, ...]
    norms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "levels",
                           tuple(np.asarray(l, dtype=int) for l in self.levels))
        object.__setattr__(self, "norms", np.asarray(self.norms, dtype=np.float64))

    @property
    def j_max(self) -> int:
        return len(self.norms) - 1


def _band_truncate(m, levels_i, j: int):
    if m is None:
        return None  # identities are level-diagonal
    dense = m.toarray()
    li = np.asarray(levels_i)
    mask = np.abs(li[:, None] - li[None, :]) <= j
    return dense * mask


def _truncated_operator(a: LowRankOperator, table: CompressionTable, j: int) -> LowRankOperator:
    terms = []
    for term in a.terms:
        terms.append(tuple(_band_truncate(m, table.levels[i], j)
                           for i, m in enumerate(term)))
    return LowRankOperator(a.dims, terms, scaling_left=a.scaling_left,
                           scaling_right=a.scaling_right, symmetric=a.symmetric,
                           bounds=a.bounds)


def build_compression_table(a: LowRankOperator, levels, j_max: int | None = None) -> CompressionTable:
    """Dense-certified truncation norms for the level-band hierarchy.

    For an unscaled (or exact-diagonally scaled) operator the bound is
    ``|A - A_J| <= sum_terms prod-norm of the per-mode defects``; for
    ideally scaled operators with per-mode level weights ``q_i`` the defects
    are measured in the ``q``-weighted norm, which the ideal scaling absorbs.
    Per-mode matrices are handled densely (desk scale).
    """
    levels = tuple(np.asarray(l, dtype=int) for l in levels)
    if len(levels) != a.d:
        raise ValueError(f"expected {a.d} level vectors, got {len(levels)}")
    for l, n in zip(levels, a.dims):
        if len(l) != n:
            raise ValueError("level vector length must match the mode size")
    if j_max is None:
        j_max = int(max((l.max() - l.min()) for l in levels))
    left_exp = isinstance(a.scaling_left, ExpSumScaling)
    right_exp = isinstance(a.scaling_right, ExpSumScaling)
    weights = None
    outer_factor = 1.0
    if left_exp or right_exp:
        if not (left_exp and right_exp
                and a.scaling_left.level_weights == a.scaling_right.level_weights
                and a.scaling_left.active == a.scaling_right.active):
            raise ValueError(
                "compression tables support exponential-sum scalings only when "
                "both sides carry the same ideal diagonal"
            )
        weights = a.scaling_left.level_weights
    else:
        for s in (a.scaling_left, a.scaling_right):
            if isinstance(s, DiagonalScaling):
                outer_factor *= float(np.prod([np.abs(v).max() for v in s.vectors]))
    norms = []
    for j in range(j_max + 1):
        bound = 0.0
        for term in a.terms:
            for i, m in enumerate(term):
                if m is None:
                    continue
                defect = m.toarray() - _band_truncate(m, levels[i], j)
                if weights is not None:
                    # two-sided ideal scaling absorbs one q_i-weight per side:
                    # the q-weighted defect norm bounds the full operator defect
                    wi = np.sqrt(np.asarray(weights[i], dtype=np.float64))
                    defect = defect / wi[:, None] / wi[None, :]
                bound += float(np.linalg.norm(defect, 2))
        norms.append(outer_factor * bound)
    return CompressionTable(levels=levels, norms=np.array(norms))


def apply_compressed(a: LowRankOperator, v: HTensor, j, eta: float = 0.0,
                     return_info: bool = False):
    """Apply a level-truncated operator with a triangle-inequality certificate.

    ``j`` is a truncation level (int), ``None`` for no truncation (then the
    result equals :func:`apply_exact` / :func:`apply_certified` and the
    truncation certificate is 0), or a sequence of levels for the dyadic
    contraction-mass bins of ``v`` (finest truncation on the heaviest bin).
    Returns ``(w, certificate)`` with
    ``norm(A v - w) <= certificate`` relative to the (ideal) operator;
    ``eta`` is the extra budget used when exponential-sum scalings force the
    per-bin applications through :func:`apply_certified`.
    """
    _check_dims(a, v)

    def apply_one(op, u):
        if op.has_expsum:
            if eta <= 0:
                raise ToleranceInfeasibleError(
                    "compressed application of an exponential-sum-scaled "
                    "operator needs a positive eta"
                )
            return apply_certified(op, u, eta / max(n_applications, 1))
        return apply_exact(op, u)

    if j is None:
        n_applications = 1
        w = apply_one(a, v)
        extra = eta if a.has_expsum else 0.0
        return ((w, extra, {"bins": 1}) if return_info else (w, extra))
    if a.compression is None:
        raise ValueError("operator has no compression table")
    table = a.compression
    if np.isscalar(j):
        if int(j) < 0:
            raise ValueError(f"truncation level must be >= 0, got {j}")
        n_applications = 1
        jj = min(int(j), table.j_max)
        w = apply_one(_truncated_operator(a, table, jj), v)
        cert = table.norms[jj] * norm(v) + (eta if a.has_expsum else 0.0)
        return ((w, cert, {"bins": 1}) if return_info else (w, cert))

    if any(int(x) < 0 for x in j):
        raise ValueError(f"truncation levels must be >= 0, got {list(j)}")
    js = [min(int(x), table.j_max) for x in j]
    n_applications = len(js)
    # telescopic dyadic bins by contraction mass
    cs = contractions(v)
    peak = max((float(p.max()) for p in cs.pis if p.size), default=0.0)
    if peak == 0.0:
        w = zero_htensor(v.tree, v.dims)
        return ((w, 0.0, {"bins": 0}) if return_info else (w, 0.0))
    pieces = []
    prev = zero_htensor(v.tree, v.dims)
    for p in range(len(js)):
        if p < len(js) - 1:
            sets = tuple(tuple(np.nonzero(cs.pis[i] > peak * 2.0 ** -(p + 1))[0])
                         for i in range(v.d))
            upto = restrict_support(v, sets)
        else:
            upto = v  # last bin absorbs the remainder
        pieces.append(recompress(add(upto, scale(-1.0, prev)), 0.0))
        prev = upto
    w = None
    cert = 0.0
    for piece, jj in zip(pieces, js):
        wp = apply_one(_truncated_operator(a, table, jj), piece)
        cert += table.norms[jj] * norm(piece)
        w = wp if w is None else recompress(add(w, wp), 0.0)
    if a.has_expsum:
        cert += eta
    return ((w, cert, {"bins": len(js)}) if return_info else (w, cert))


# ---------------------------------------------------------------------------
# spectral bounds
# ---------------------------------------------------------------------------


def estimate_operator_bounds(a: LowRankOperator, dense_cutoff: int = 4000,
                             seed: int = 0) -> OperatorBounds:
    """Two-sided spectral bounds for a symmetric operator.

    Below ``dense_cutoff`` unknowns the operator is assembled densely and the
    extreme eigenvalues are certified by a full symmetric eigensolve; above,
    a Lanczos estimate (non-certified) is returned with a 10% safety margin.
    """
    if not a.symmetric:
        raise ValueError("spectral bounds are defined for symmetric operators")
    n = int(np.prod(a.dims))
    if n <= dense_cutoff:
        mat = a.assemble_dense(max_entries=max(float(n) ** 2, 1.0))
        ev = np.linalg.eigvalsh((mat + mat.T) / 2.0)
        return OperatorBounds(float(ev[0]), float(ev[-1]), True)
    from scipy.sparse.linalg import LinearOperator, eigsh

    diag_l = diag_r = None
    if a.scaling_left is not None:
        s = a.scaling_left
        diag_l = s.dense_diag() if isinstance(s, DiagonalScaling) else s.ideal_dense_diag()
    if a.scaling_right is not None:
        s = a.scaling_right
        diag_r = s.dense_diag() if isinstance(s, DiagonalScaling) else s.ideal_dense_diag()

    def matvec(x):
        if diag_r is not None:
            x = diag_r * x
        t = x.reshape(a.dims)
        out = np.zeros_like(t)
        for term in a.terms:
            y = t
            for i, m in enumerate(term):
                if m is None:
                    continue
                y = np.tensordot(m.toarray(), y, axes=([1], [i]))
                y = np.moveaxis(y, 0, i)
            out = out + y
        y = out.ravel()
        if diag_l is not None:
            y = diag_l * y
        return y

    lin = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    hi = float(eigsh(lin, k=1, which="LA", v0=v0, maxiter=5000,
                     return_eigenvectors=False)[0])
    lo = float(eigsh(lin, k=1, which="SA", v0=v0, maxiter=5000,
                     return_eigenvectors=False)[0])
    return OperatorBounds(0.9 * lo, 1.1 * hi, False)


# ---------------------------------------------------------------------------
# operator spec files
# ---------------------------------------------------------------------------


def _format_matrix(m: np.ndarray) -> str:
    rows = [" ".join(repr(float(x)) for x in row) for row in np.atleast_2d(m)]
    return "\n" + "\n".join(rows)


def _parse_matrix(text: str) -> np.ndarray:
    rows = [[float(x) for x in line.split()] for line in text.strip().splitlines()]
    return np.array(rows, dtype=np.float64)


def _format_vector(v) -> str:
    return " ".join(repr(float(x)) for x in np.asarray(v).ravel())


def save_operator_spec(a: LowRankOperator, path) -> None:
    """Write an operator to a self-describing INI spec file."""
    import configparser

    cp = configparser.ConfigParser()
    cp["operator"] = {
        "format_version": "1",
        "dims": " ".join(str(n) for n in a.dims),
        "symmetric": str(int(a.symmetric)),
        "num_terms": str(a.num_terms),
    }
    if a.bounds is not None:
        cp["bounds"] = {
            "lower": repr(float(a.bounds.lower)),
            "upper": repr(float(a.bounds.upper)),
            "certified": str(int(a.bounds.certified)),
        }
    for r, term in enumerate(a.terms, start=1):
        sec = f"term {r}"
        cp[sec] = {}
        for i, m in enumerate(term, start=1):
            if m is None:
                cp[sec][f"mode {i}"] = "identity"
            else:
                cp[sec][f"mode {i}"] = _format_matrix(m.toarray())
    for s, side in ((a.scaling_left, "left"), (a.scaling_right, "right")):
        if s is None:
            continue
        sec = f"scaling {side}"
        if isinstance(s, DiagonalScaling):
            cp[sec] = {"kind": "diagonal"}
            for i, v in enumerate(s.vectors, start=1):
                cp[sec][f"mode {i}"] = _format_vector(v)
        else:
            cp[sec] = {"kind": "expsum", "tol": repr(float(s.tol))}
            for i, q in enumerate(s.level_weights, start=1):
                cp[sec][f"mode {i}"] = _format_vector(q)
            for i, act in enumerate(s.active, start=1):
                if tuple(act) != tuple(range(len(s.level_weights[i - 1]))):
                    cp[sec][f"active {i}"] = " ".join(str(k) for k in act)
    with open(path, "w") as f:
        cp.write(f)


def load_operator_spec(path) -> LowRankOperator:
    """Read an operator spec file; exponential-sum tables are rebuilt
    deterministically at the stored tolerance."""
    import configparser

    cp = configparser.ConfigParser()
    with open(path) as f:
        cp.read_file(f)
    if "operator" not in cp:
        raise ValueError(f"{path}: missing [operator] section")
    op = cp["operator"]
    if int(op.get("format_version", "1")) != 1:
        raise ValueError(f"{path}: unsupported operator format version")
    dims = tuple(int(x) for x in op["dims"].split())
    d = len(dims)
    num_terms = int(op["num_terms"])
    terms = []
    for r in range(1, num_terms + 1):
        sec = cp[f"term {r}"]
        term = []
        for i in range(1, d + 1):
            raw = sec[f"mode {i}"]
            term.append(None if raw.strip() == "identity" else _parse_matrix(raw))
        terms.append(tuple(term))
    scalings = {"left": None, "right": None}
    for side in ("left", "right"):
        name = f"scaling {side}"
        if name not in cp:
            continue
        sec = cp[name]
        if sec["kind"] == "diagonal":
            vecs = tuple(np.array([float(x) for x in sec[f"mode {i}"].split()])
                         for i in range(1, d + 1))
            scalings[side] = DiagonalScaling(vectors=vecs)
        elif sec["kind"] == "expsum":
            qs = tuple(np.array([float(x) for x in sec[f"mode {i}"].split()])
                       for i in range(1, d + 1))
            active = tuple(
                tuple(int(k) for k in sec[f"active {i}"].split())
                if f"active {i}" in sec else tuple(range(len(qs[i - 1])))
                for i in range(1, d + 1)
            )
            scalings[side] = build_scaling(qs, float(sec["tol"]), active=active)
        else:
            raise ValueError(f"{path}: unknown scaling kind {sec['kind']!r}")
    bounds = None
    if "bounds" in cp:
        sec = cp["bounds"]
        bounds = OperatorBounds(float(sec["lower"]), float(sec["upper"]),
                                bool(int(sec["certified"])))
    return LowRankOperator(dims, terms, scaling_left=scalings["left"],
                           scaling_right=scalings["right"],
                           symmetric=bool(int(op["symmetric"])), bounds=bounds)
