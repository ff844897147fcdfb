"""Accuracy-controlled adaptive Richardson iteration in hierarchical format.

The driver :func:`solve` runs a damped Richardson iteration whose every
ingredient — operator application, right-hand-side reduction, rank
truncation, support coarsening — carries an explicit error budget on a
geometric schedule.  The outer loop halves a certified error bound
``2^{-k} * eps0`` until it falls below the target; each outer pass runs at
most :func:`inner_repetitions` inner steps whose tolerances shrink with the
contraction factor, leaving early once a step's certified residual proves
what the outer reduction needs, followed by a rank/support reduction sized
so the halved bound still holds.  The returned report traces every
tolerance, rank, support size and certified residual interval, and the
final iterate comes with a two-sided a posteriori error certificate.

:func:`default_config` derives the step size, contraction factor and
reduction constants from certified operator bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractionViolationError
from .hsvd import (
    ZERO_CUTOFF,
    HTensor,
    add,
    as_quasinorm,
    coarsen,
    contractions,
    edge_spectra,
    norm,
    recompress,
    scale,
    zero_htensor,
)
from .ops import LowRankOperator, apply_certified, rhs_truncate

__all__ = [
    "SolveConfig",
    "SolveReport",
    "kappa_defaults",
    "default_config",
    "inner_repetitions",
    "solve",
    "error_certificate",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def kappa_defaults(d: int, alpha: float = 1.0) -> tuple[float, float, float]:
    """Reduction constants ``(kappa1, kappa2, kappa3)`` for order ``d``.

    kappa1 = 1 / (1 + (1+alpha) (sqrt(2d-3) + sqrt(d) + sqrt((2d-3) d)))
    kappa2 = sqrt(2d-3) (1+alpha) kappa1
    kappa3 = sqrt(d) (sqrt(2d-3) + 1) (1+alpha) kappa1

    The three sum to 1 exactly: kappa1 absorbs the inner-loop contraction
    slack, kappa2 pays for the rank truncation (quasi-optimality factor
    ``sqrt(2d-3)``), kappa3 for the support coarsening (factor ``sqrt(d)``
    applied after the truncation).
    """
    if d < 2:
        raise ValueError(f"order must be at least 2, got d={d}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    edge = math.sqrt(2 * d - 3)
    mode = math.sqrt(d)
    kappa1 = 1.0 / (1.0 + (1.0 + alpha) * (edge + mode + edge * mode))
    kappa2 = edge * (1.0 + alpha) * kappa1
    kappa3 = mode * (edge + 1.0) * (1.0 + alpha) * kappa1
    return kappa1, kappa2, kappa3


@dataclass(frozen=True)
class SolveConfig:
    """Parameters of the adaptive Richardson iteration.

    omega   step size, with ``norm(I - omega A) <= rho`` on the energy space.
    rho     contraction factor in [0, 1).
    eps0    initial certified error bound, at least ``norm(A^{-1}) norm(f)``.
    kappa1..kappa3
            outer reduction constants, each in (0, 1), summing to at most 1.
    beta1, beta2
            inner recompression / coarsening multipliers: each inner step
            ends with ``coarsen(recompress(w - omega r, beta1 eta),
            beta2 eta)``, and both enter the drift ``omega + beta1 + beta2``
            of :func:`inner_repetitions` and of :func:`solve`'s early
            exit.  beta1 may be 0 (the step then trims only numerical
            zeros); beta2 must be positive.
    eps     target error bound.
    """

    omega: float
    rho: float
    eps0: float
    kappa1: float
    kappa2: float
    kappa3: float
    beta1: float = 0.0
    beta2: float = 0.01
    eps: float = 1e-6

    def __post_init__(self):
        for name in ("omega", "eps0", "beta1", "beta2"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.eps0 < 0:
            raise ValueError(f"eps0 must be nonnegative, got {self.eps0}")
        for name in ("kappa1", "kappa2", "kappa3"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {val}")
        total = self.kappa1 + self.kappa2 + self.kappa3
        if total > 1.0 + 1e-12:
            raise ValueError(
                f"kappa1 + kappa2 + kappa3 must be at most 1, got {total}"
            )
        if self.beta1 < 0:
            raise ValueError(f"beta1 must be nonnegative, got {self.beta1}")
        if self.beta2 <= 0:
            raise ValueError(f"beta2 must be positive, got {self.beta2}")
        if not math.isfinite(self.eps) or self.eps <= 0:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


def default_config(a: LowRankOperator, f: HTensor, eps: float,
                   alpha: float = 1.0) -> SolveConfig:
    """Configuration derived from the operator's proved bounds.

    Uses the optimal Richardson parameters for a symmetric spectrum in
    ``[lower, upper]``: ``omega = 2/(upper+lower)`` and
    ``rho = (upper-lower)/(upper+lower)``, and ``eps0 = norm(f)/lower``
    (the representation norm is exact).  The kappa
    constants follow :func:`kappa_defaults` for the operator's order.

    The inner step is ``w <- coarsen(recompress(w - omega r, beta1 eta),
    beta2 eta)`` with ``beta1 = 1/4`` and ``beta2 = kappa1/4``: a quarter of
    each step's tolerance goes to a rank truncation, so inner iterates stay
    near the ranks the accuracy needs instead of growing by the residual's
    rank every step.  The guarantee is kept because
    :func:`inner_repetitions` and the :class:`ContractionViolationError`
    check in :func:`solve` both count the drift ``omega + beta1 + beta2``:
    the scheduled bound ``rho^j (1 + drift j) level`` still holds, and the
    a posteriori :func:`error_certificate` of the final iterate is the same
    kind of bound as before.  ``beta1 = 0`` restores the untruncated inner
    step.  Raises ``ValueError`` when the operator carries no bounds.
    """
    if a.bounds is None:
        raise ValueError("default_config needs operator bounds, and the "
                         "operator carries none")
    lower, upper = float(a.bounds.lower), float(a.bounds.upper)
    if lower <= 0:
        raise ValueError(
            f"the lower operator bound must be positive, got {lower}"
        )
    kappa1, kappa2, kappa3 = kappa_defaults(a.d, alpha)
    return SolveConfig(
        omega=2.0 / (upper + lower),
        rho=(upper - lower) / (upper + lower),
        eps0=norm(f) / lower,
        kappa1=kappa1,
        kappa2=kappa2,
        kappa3=kappa3,
        beta1=0.25,
        beta2=kappa1 / 4.0,
        eps=eps,
    )


def inner_repetitions(cfg: SolveConfig) -> int:
    """Largest number of inner Richardson steps per outer pass.

    The smallest ``j`` with ``rho^j (1 + (omega+beta1+beta2) j) <= kappa1/2``:
    after that many perturbed steps the inner error has contracted to a
    ``kappa1/2`` fraction of the incoming outer bound, leaving the remaining
    kappa budget for the outer rank and support reduction.  Always at least 1
    since the target is below 1.  :func:`solve` runs at most this many steps
    per pass, and exactly this many in its last pass.
    """
    target = cfg.kappa1 / 2.0
    drift = cfg.omega + cfg.beta1 + cfg.beta2
    j = 0
    while cfg.rho**j * (1.0 + drift * j) > target:
        j += 1
        if j > 10**6:
            raise ValueError(
                f"no finite inner step count reaches kappa1/2 = {target}; "
                f"the configuration (omega={cfg.omega}, rho={cfg.rho}) does "
                "not contract"
            )
    return j


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


_CSV_FIELDS = ("k", "j", "eta", "res_lo", "res_hi", "max_rank", "total_support")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else None
    return obj


@dataclass
class SolveReport:
    """Trace and certificates of one :func:`solve` run.

    ``steps`` holds one record per inner step (outer index ``k``, inner index
    ``j``, tolerance ``eta``, the incoming iterate's edge ranks and per-mode
    support sizes, the certified residual interval, the largest edge rank
    of ``w - omega r`` before the inner ``recompress`` (``pre_rank``) and
    after the ``coarsen`` (``kept_rank``), and the wall time of the whole
    step, its recompress/coarsen reduction included); ``max_pre_rank`` is
    the largest ``pre_rank`` of the run; ``outer_steps``
    one record per completed outer reduction, with the number of inner
    steps its pass ran (``inner_steps``, at most ``inner_per_outer``) and the
    certified bound on the pass's last iterate that allowed the reduction
    (``inner_exit_bound``: the early-exit bound of :func:`solve`, or the
    scheduled ``rho^J (1 + drift J) 2^{-k} eps0`` after a full pass).
    ``schedule_bound`` is the guaranteed error bound ``2^{-K} eps0`` at
    exit, ``residual_interval`` the a posteriori two-sided error
    certificate, and ``final_error_bound`` the smaller of the two upper
    bounds — never above the requested ``eps``.
    """

    eps0: float
    eps: float
    inner_per_outer: int
    outer_iterations: int
    config: dict
    steps: list = field(default_factory=list)
    outer_steps: list = field(default_factory=list)
    schedule_bound: float = 0.0
    residual_interval: tuple = (0.0, 0.0)
    final_error_bound: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    total_time: float = 0.0
    max_pre_rank: int = 0

    def __post_init__(self):
        if (not math.isfinite(self.final_error_bound)
                or self.final_error_bound > self.eps * (1.0 + 1e-9)):
            raise ValueError(
                f"final certified bound {self.final_error_bound} is not finite "
                f"or exceeds the requested tolerance {self.eps}"
            )

    def csv_rows(self) -> list[list[str]]:
        """Per-inner-step trace as string rows, header first.

        Contains only deterministic quantities (no wall times), so repeated
        single-threaded runs produce identical output.
        """
        rows = [list(_CSV_FIELDS)]
        for s in self.steps:
            rows.append([
                str(s["k"]),
                str(s["j"]),
                repr(float(s["eta"])),
                repr(float(s["res_lo"])),
                repr(float(s["res_hi"])),
                str(max(s["ranks"], default=0)),
                str(sum(s["supports"])),
            ])
        return rows

    def to_json_dict(self) -> dict:
        """Full report as a JSON-serializable dict (NaN mapped to null)."""
        return _jsonify(asdict(self))


def _fit_decay_rate(s: np.ndarray) -> float:
    """Exponent ``gamma`` of ``sigma_i ~ C exp(-gamma i)`` over the
    numerically nonzero singular values ``s``, or NaN."""
    if s.size < 3:
        return float("nan")
    slope = np.polyfit(np.arange(s.size), np.log(s), 1)[0]
    return float(-slope)


def _contraction_class(pi: np.ndarray) -> tuple[float, float]:
    """Fitted algebraic tail exponent ``s`` of a contraction sequence and its
    quasi-norm ``sup_N (N+1)^s tail_N``; NaN when the sequence is too short
    or does not decay."""
    p = np.asarray(pi, dtype=np.float64)
    p = np.sort(p[p > 0.0])[::-1]
    if p.size < 4:
        return float("nan"), float("nan")
    suffix2 = np.concatenate([np.cumsum(p[::-1] ** 2)[::-1], [0.0]])
    kept = np.arange(1, p.size)
    tails = np.sqrt(suffix2[1:p.size])
    mask = tails > ZERO_CUTOFF * p[0]
    if np.count_nonzero(mask) < 3:
        return float("nan"), float("nan")
    slope = np.polyfit(np.log(kept[mask]), np.log(tails[mask]), 1)[0]
    s = float(-slope)
    if not math.isfinite(s) or s <= 1e-3:
        return float("nan"), float("nan")
    return s, float(as_quasinorm(p, s))


def _diagnostics(u: HTensor) -> dict:
    spectrum = edge_spectra(u)
    per_edge = [_fit_decay_rate(s[:nr]) for s, nr
                in zip(spectrum.sigmas, spectrum.numerical_ranks)]
    finite = [g for g in per_edge if math.isfinite(g)]
    classes = []
    for i, pi in enumerate(contractions(u).pis):
        s, q = _contraction_class(pi)
        classes.append({"mode": i, "s": s, "quasinorm": q})
    return {
        "sigma_decay": {
            "per_edge": per_edge,
            "fitted_exponent": float(np.median(finite)) if finite else float("nan"),
        },
        "contraction_classes": classes,
    }


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------


def solve(a: LowRankOperator, f: HTensor, cfg: SolveConfig) -> tuple[HTensor, SolveReport]:
    """Adaptive Richardson iteration with certified error control.

    Starting from zero, as long as the certified bound ``2^{-k} eps0``
    exceeds the target ``eps``, one outer pass runs at most
    ``J = inner_repetitions(cfg)`` perturbed Richardson steps

        eta = rho^{j+1} 2^{-k} eps0
        r   = apply_certified(a, w; eta/2) - rhs_truncate(f; eta/2)
        w   <- coarsen(recompress(w - omega r; beta1 eta); beta2 eta)

    and then reduces the iterate with ``recompress`` at
    ``kappa2 2^{-(k+1)} eps0`` followed by ``coarsen`` at
    ``kappa3 2^{-(k+1)} eps0``, which halves the certified bound.  The loop
    runs exactly ``ceil(log2(eps0/eps))`` outer passes (none when
    ``eps >= eps0``, returning the zero tensor).

    The outer reduction's kappa analysis needs only
    ``norm(w - u) <= kappa1 2^{-k} eps0 / 2`` for the pass's last iterate
    ``w``.  After ``J`` steps the scheduled bound
    ``rho^J (1 + drift J) 2^{-k} eps0`` with ``drift = omega + beta1 + beta2``
    gives it.  A pass may also end earlier, with the iterate ``w_{j+1}`` of
    step ``j``, on a certified bound:

    * the step's residual interval has upper end ``res_hi``, and
      ``A >= lower``, so ``norm(w_j - u) <= res_hi / lower``;
    * the step's perturbations are at most ``omega eta`` (the residual),
      ``beta1 eta`` (the recompression) and ``beta2 eta`` (the coarsening);
    * so, with ``norm(I - omega A) <= rho`` as for the schedule,
      ``norm(w_{j+1} - u) <= rho res_hi / lower + drift eta``.

    The pass ends after step ``j`` when that bound is at most
    ``kappa1 2^{-k} eps0 / 2``.  Then the schedule ``2^{-k} eps0``, the
    :class:`ContractionViolationError` check and the final certificate keep
    their kind.  The last pass (``2^{-(k+1)} eps0 <= eps``) always runs all
    ``J`` steps, since the returned certificate is read from its iterate.

    Every inner residual carries a certified interval; if its lower end
    contradicts the scheduled bound — which can only happen when the assumed
    contraction ``norm(I - omega A) <= rho`` does not hold — the iteration
    aborts with :class:`ContractionViolationError` naming the offending step.
    The final iterate is certified a posteriori via
    :func:`error_certificate`; the reported bound is the smaller of the
    schedule bound and the certificate, and never exceeds ``eps``.
    """
    if a.dims != f.dims:
        raise ValueError(
            f"operator dims {a.dims} do not match right-hand side dims {f.dims}"
        )
    if a.bounds is None:
        raise ValueError("solve needs operator bounds, and the operator "
                         "carries none")
    lower, upper = float(a.bounds.lower), float(a.bounds.upper)
    started = time.perf_counter()
    reps = inner_repetitions(cfg)
    drift = cfg.omega + cfg.beta1 + cfg.beta2

    u = zero_htensor(f.tree, f.dims)
    steps: list[dict] = []
    outer_steps: list[dict] = []
    k = 0
    while 2.0 ** (-k) * cfg.eps0 > cfg.eps:
        level = 2.0 ** (-k) * cfg.eps0
        # the last pass keeps all its steps: the certificate is read from it
        may_exit = 2.0 ** (-(k + 1)) * cfg.eps0 > cfg.eps
        exit_bound = cfg.rho**reps * (1.0 + drift * reps) * level
        w = u
        for j in range(reps):
            tick = time.perf_counter()
            eta = cfg.rho ** (j + 1) * level
            r, res_lo, res_hi = _certified_residual(a, w, f, eta)
            # the scheduled bound on ||w_{k,j} - u|| after j perturbed steps
            bound = cfg.rho**j * (1.0 + drift * j) * level
            if res_lo / upper > bound * (1.0 + 1e-9) + 1e-12 * cfg.eps0:
                raise ContractionViolationError(
                    f"certified error at outer step {k}, inner step {j} is at "
                    f"least {res_lo / upper:.6g}, above the scheduled bound "
                    f"{bound:.6g}; the assumed contraction (omega="
                    f"{cfg.omega:.6g}, rho={cfg.rho:.6g}) does not hold"
                )
            steps.append({
                "k": k,
                "j": j,
                "eta": float(eta),
                "ranks": tuple(int(x) for x in w.ranks),
                "supports": contractions(w).supports,
                "res_lo": float(res_lo),
                "res_hi": float(res_hi),
            })
            w = add(w, scale(-cfg.omega, r))
            steps[-1]["pre_rank"] = max(w.ranks, default=0)
            w = coarsen(recompress(w, cfg.beta1 * eta), cfg.beta2 * eta)
            steps[-1]["kept_rank"] = max(w.ranks, default=0)
            steps[-1]["wall"] = time.perf_counter() - tick
            # certified bound on the new iterate's error (see the docstring)
            step_bound = cfg.rho * res_hi / lower + drift * eta
            if (may_exit and j + 1 < reps
                    and step_bound <= cfg.kappa1 * level / 2.0):
                exit_bound = step_bound
                break
        tick = time.perf_counter()
        u = coarsen(
            recompress(w, cfg.kappa2 * level / 2.0),
            cfg.kappa3 * level / 2.0,
        )
        k += 1
        outer_steps.append({
            "k": k,
            "bound": 2.0 ** (-k) * cfg.eps0,
            "ranks": tuple(int(x) for x in u.ranks),
            "supports": contractions(u).supports,
            "inner_steps": j + 1,
            "inner_exit_bound": float(exit_bound),
            "wall": time.perf_counter() - tick,
        })

    schedule_bound = 2.0 ** (-k) * cfg.eps0
    res_eta = cfg.kappa1 * cfg.eps / 8.0
    err_lo, err_hi = error_certificate(a, u, f, res_eta)
    if err_lo > schedule_bound * (1.0 + 1e-9) + 1e-12 * cfg.eps0:
        raise ContractionViolationError(
            f"final certified error is at least {err_lo:.6g}, above the "
            f"scheduled bound {schedule_bound:.6g}; operator bounds or the "
            "contraction assumption are inconsistent"
        )
    report = SolveReport(
        eps0=cfg.eps0,
        eps=cfg.eps,
        inner_per_outer=reps,
        outer_iterations=k,
        config=asdict(cfg),
        steps=steps,
        outer_steps=outer_steps,
        schedule_bound=schedule_bound,
        residual_interval=(err_lo, err_hi),
        # a non-finite certificate must reach the report's invariant
        final_error_bound=(min(schedule_bound, err_hi) if math.isfinite(err_hi)
                           else err_hi),
        diagnostics=_diagnostics(u),
        total_time=time.perf_counter() - started,
        max_pre_rank=max((s["pre_rank"] for s in steps), default=0),
    )
    return u, report


# ---------------------------------------------------------------------------
# a posteriori certificates
# ---------------------------------------------------------------------------


def error_certificate(a: LowRankOperator, v: HTensor, f: HTensor,
                      res_eta: float) -> tuple[float, float]:
    """Two-sided certified bound on ``norm(v - u)`` where ``A u = f``.

    Computes a residual within ``2 res_eta`` of ``A v - f`` (operator
    application and right-hand-side reduction each within ``res_eta``) and
    converts its norm through the operator bounds:

        lower_err = max(norm(r) - 2 res_eta, 0) / upper_bound
        upper_err =    (norm(r) + 2 res_eta) / lower_bound

    The true error always lies in ``[lower_err, upper_err]``.
    """
    if res_eta <= 0:
        raise ValueError(f"res_eta must be positive, got {res_eta}")
    if a.dims != v.dims or a.dims != f.dims:
        raise ValueError(
            f"operator dims {a.dims} do not match tensor dims "
            f"{v.dims} / {f.dims}"
        )
    if a.bounds is None:
        raise ValueError("error certificates need operator bounds, and the "
                         "operator carries none")
    lower, upper = float(a.bounds.lower), float(a.bounds.upper)
    if lower <= 0:
        raise ValueError(
            f"the lower operator bound must be positive, got {lower}"
        )
    _, res_lo, res_hi = _certified_residual(a, v, f, 2.0 * res_eta)
    return res_lo / upper, res_hi / lower


def _certified_residual(a: LowRankOperator, v: HTensor, f: HTensor,
                        eta: float) -> tuple[HTensor, float, float]:
    """``r`` within ``eta`` of ``A v - f``, and an interval on ``norm(A v - f)``."""
    half = eta / 2.0
    r = add(apply_certified(a, v, half), scale(-1.0, rhs_truncate(f, half)))
    rn = norm(r)
    return r, max(rn - eta, 0.0), rn + eta
