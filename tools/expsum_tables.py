"""Near-best exponential sums for x^(-1/2): writes ``src/htsolve/expsum_tables.npz``.

Usage, from the repository root::

    python3 tools/expsum_tables.py            # refit every table, rewrite the file
    python3 tools/expsum_tables.py --check    # refit R = 16, 2^17 (m <= 6), compare

For each range ``R = 2^k`` (``k = 1 .. 32``) and ``m = 1, 2, ...`` terms the
generator fits ``S(x) = sum_j w_j exp(-t_j x)`` with free weights and
exponents so that the relative error ``|1 - sqrt(x) S(x)|`` is close to its
smallest possible sup over ``[1, R]`` (Braess & Hackbusch, "Approximation of
1/x by exponential sums in [1, inf)", IMA J. Numer. Anal. 2005; "On the
efficient computation of high-dimensional integrals and the approximation
by exponential sums", 2009).  ``m`` grows until the sampled sup stops
improving (near 5e-16, the rounding floor of the evaluation) or reaches
``MAX_TERMS`` (``MAX_WIDE_TERMS`` above ``2^16``).

Two passes cover the ranges.  The downward pass fits ``R = 2^16`` from
scratch, then each ``R = 2^15 .. 2`` continuing from the fits at ``2R``.
The upward pass fits each ``R = 2^17 .. 2^32`` continuing from the fits at
``R/2``, starting from the ``2^16`` tables as stored; from scratch, fits on
ranges this wide gain too little per term at small ``m`` and stop early.

Each fit works on ``p = (log t, log w)``:

1. an initial guess by continuation, from the fits at ``(R, m-1)`` and
   ``(R, m-2)`` (each exponent and weight, counted from the smallest
   exponent, moves on as it moved from ``m-2`` to ``m-1``; one term is added
   above the largest exponent) and from the fit at ``(2R, m)`` going
   downward or ``(R/2, m)`` going upward;
2. a Levenberg-Marquardt least-squares fit on 1000 log-spaced points, whose
   error already changes sign about ``2m`` times;
3. a Remez exchange on a 20001-point log grid: damped Newton steps make the
   error equioscillate on ``2m + 1`` reference points, which then move to
   the extrema of the new error.

The first start whose exchange converges, or whose sup is at most
``GOOD_GAIN`` times that of ``m - 1`` terms (``MIN_GAIN`` going upward,
where the best sup shrinks by less than ``GOOD_GAIN`` per term), is taken,
else the best one; going downward, the fit at ``(2R, m)``, which is also a
fit on ``[1, R]``, replaces it where its sup on ``[1, R]`` is smaller.  A
term is added while it shrinks the sup by at least the factor ``MIN_GAIN``;
going upward, a size the range ``R/2`` has is added while it shrinks the sup
at all.  The stored sup is ``htsolve.ops._scalar_expsum_relerr`` (the
function that certifies tables at run time) over ``SAMPLES`` log-spaced
points of ``[1, R]``.  It is a sampled figure, not a proof:
``ops.build_scaling`` certifies every table it returns on its own check set.

The file holds, per entry (sorted by ``R``, then ``m``), ``R``, ``m`` and
``sup``; ``weights`` and ``exponents`` hold every entry's ``m`` values one
after another, with exponents increasing within an entry.  On one core of a
2-core x86 machine (Python 3.11, numpy 2.4, scipy 1.17) the downward pass
took 668 s (449 tables, up to 48 terms).  The upward pass (1113 tables, up
to 88 terms, sups down to 4.4e-16 .. 1.8e-15) took 21 minutes with its
ranges pipelined over both cores, each range in its own process fed the
``(R/2, m)`` fits as they were written (``write`` runs it in one process);
``--check`` takes a few seconds.  Rerun on another machine, the fits agree
with the file to about 1e-3 in the sup (the ``--check`` criterion), not bit
for bit: least squares and ``lstsq`` round differently with other LAPACK
kernels.  Run as a script it pins BLAS to one thread before numpy loads:
on the machine above, one thread reproduced the stored ``R = 2^14 .. 2^16``
fits bit for bit up to ``m = 26 .. 31`` (sups equal to 4 digits beyond),
while with two threads ``R = 2^16`` stopped at 47 terms instead of 48.
At ``R = 2`` no fit with more than 4 terms improved on 6e-9; below that a
request for ``X <= 2`` is served from ``R = 4``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # BLAS reads its thread count once, when numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"

import numpy as np  # noqa: E402
from scipy.optimize import least_squares  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from htsolve.ops import _scalar_expsum_relerr  # noqa: E402

OUT = ROOT / "src" / "htsolve" / "expsum_tables.npz"
RANGES = [2.0**k for k in range(1, 17)]
WIDE_RANGES = [2.0**k for k in range(17, 33)]
MAX_TERMS = 64
MAX_WIDE_TERMS = 100
SAMPLES = 16385
FIT_POINTS = 1000
REMEZ_GRID = 20001
# a new term must shrink the sup by at least this factor to be kept; a fit
# that shrinks it by GOOD_GAIN ends the search over starting guesses
MIN_GAIN = 0.9
GOOD_GAIN = 0.6


def _split(p):
    m = len(p) // 2
    return np.exp(p[:m]), np.exp(p[m:])


def _terms(p, x):
    m = len(p) // 2
    t = np.exp(p[:m])
    return np.exp(p[m:][None, :] - np.outer(x, t)), t


def _error(p, x):
    """sqrt(x) S(x) - 1 (the negative of the certified relative error)."""
    e, _ = _terms(p, x)
    return np.sqrt(x) * e.sum(axis=1) - 1.0


def _jacobian(p, x):
    e, t = _terms(p, x)
    sx = np.sqrt(x)
    return np.hstack([-(sx * x)[:, None] * e * t[None, :], sx[:, None] * e])


def _least_squares(p, big_r):
    x = np.geomspace(1.0, big_r, FIT_POINTS)
    fit = least_squares(lambda q: _error(q, x), p, jac=lambda q: _jacobian(q, x),
                        method="lm", x_scale="jac", xtol=1e-15, ftol=1e-15,
                        gtol=1e-15, max_nfev=3000)
    return fit.x


def _equioscillate(p, xref, signs, level):
    """Damped Newton steps on ``error(x_i) = signs_i * E``, ``2m + 1`` equations
    in ``(p, E)``; stops when a step no longer reduces the residual."""
    q = np.append(p, level)

    def residual(q):
        return _error(q[:-1], xref) - signs * q[-1]

    f = residual(q)
    nf = np.linalg.norm(f)
    for _ in range(30):
        jac = np.hstack([_jacobian(q[:-1], xref), -signs[:, None]])
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        dq = np.linalg.lstsq(jac / scale, -f, rcond=None)[0] / scale
        lam = 1.0
        while lam > 1e-4:
            qn = q + lam * dq
            fn = residual(qn)
            nfn = np.linalg.norm(fn)
            if np.isfinite(nfn) and nfn < nf:
                break
            lam /= 2.0
        else:
            break
        q, f, nf = qn, fn, nfn
        if lam == 1.0 and np.abs(dq).max() < 1e-13:
            break
    return q[:-1]


def _remez(p, big_r, iterations=30):
    """Remez exchange from ``p``; returns the parameters of the smallest grid
    sup seen, that sup, and whether the exchange converged (the sup within
    1e-3 of the smallest reference error)."""
    m = len(p) // 2
    grid = np.geomspace(1.0, big_r, REMEZ_GRID)
    best, best_sup = p, np.abs(_error(p, grid)).max()
    if not np.isfinite(best_sup):
        best_sup = np.inf
    for _ in range(iterations):
        e = _error(p, grid)
        if not np.isfinite(e).all():
            break
        cuts = np.flatnonzero(np.sign(e[1:]) != np.sign(e[:-1])) + 1
        idx = np.array([seg[np.argmax(np.abs(e[seg]))]
                        for seg in np.split(np.arange(len(grid)), cuts)])
        if len(idx) < 2 * m + 1:
            break
        while len(idx) > 2 * m + 1:  # drop the smaller end extremum
            idx = idx[1:] if abs(e[idx[0]]) < abs(e[idx[-1]]) else idx[:-1]
        sup = np.abs(e).max()
        if sup < best_sup:
            best, best_sup = p, sup
        if sup - np.abs(e[idx]).min() <= 1e-3 * sup:
            return best, best_sup, True
        p = _equioscillate(p, grid[idx], np.sign(e[idx]),
                           np.abs(e[idx]).mean())
    return best, best_sup, False


def _sorted(p):
    m = len(p) // 2
    order = np.argsort(p[:m])
    return p[:m][order], p[m:][order]


def _grow(p1, p2):
    """Initial guess for ``m`` terms from the fits with ``m - 1`` (``p1``) and
    ``m - 2`` (``p2``, may be None) terms."""
    a1, b1 = _sorted(p1)
    if len(a1) == 1:
        return np.array([a1[0] - 0.5, a1[0] + 0.5, b1[0] - 0.7, b1[0] - 0.7])
    if p2 is None or len(a1) < 3:
        # spread the m - 1 terms over m positions, half a step beyond each end
        u, v = np.arange(len(a1)), np.arange(len(a1) + 1) - 0.5
        an, bn = np.interp(v, u, a1), np.interp(v, u, b1)
        an[0], an[-1] = a1[0] - (a1[1] - a1[0]) / 2, a1[-1] + (a1[-1] - a1[-2]) / 2
        bn[0], bn[-1] = b1[0] - (b1[1] - b1[0]) / 2, b1[-1] + (b1[-1] - b1[-2]) / 2
        return np.concatenate([an, bn])
    a2, b2 = _sorted(p2)
    k = len(a2)
    da, db = a1[:k] - a2, b1[:k] - b2
    da = np.append(da, 2 * da[-1] - da[-2])
    db = np.append(db, 2 * db[-1] - db[-2])
    an, bn = a1 + da, b1 + db
    g1, g2 = a1[-1] - a1[-2], a2[-1] - a2[-2]
    an = np.append(an, an[-1] + max(2 * g1 - g2, 0.3 * g1))
    bn = np.append(bn, 2 * b1[-1] - b2[-1])
    return np.concatenate([an, bn])


def _first_term(big_r):
    """One term: the best of a few starting exponents."""
    starts = [np.array([a, -0.2]) for a in np.linspace(-np.log(big_r) - 1, 1, 5)]
    return _fit(starts, big_r)


def _fit(starts, big_r, good=0.0):
    """The first fit from ``starts`` that converged or reached a grid sup of
    at most ``good``, else the one with the smallest grid sup (None if every
    start failed)."""
    best, best_sup = None, np.inf
    for p0 in starts:
        try:
            p, sup, converged = _remez(_least_squares(p0, big_r), big_r)
        except (np.linalg.LinAlgError, ValueError):
            continue
        if converged or sup <= good:
            return p, sup
        if sup < best_sup:
            best, best_sup = p, sup
    return best, best_sup


def _table(p):
    """``(weights, exponents)`` of ``p``, by increasing exponent."""
    t, w = _split(p)
    order = np.argsort(t)
    return w[order], t[order]


def sampled_sup(weights, exponents, big_r) -> float:
    """The stored figure: the run-time check's sup over SAMPLES points."""
    return _scalar_expsum_relerr(weights, exponents,
                                 np.geomspace(1.0, big_r, SAMPLES))


def fit_range(big_r, max_terms=MAX_TERMS, wider=None, narrower=None,
              log=print):
    """Fits for ``m = 1, 2, ...`` on ``[1, big_r]``; ``wider`` maps m to the
    fit on ``[1, 2 big_r]``, ``narrower`` to the fit on ``[1, big_r / 2]``.
    Returns ``{m: (p, sup)}``."""
    fits, prev = {}, [None, None]
    for m in range(1, max_terms + 1):
        if m == 1:
            p, _ = _first_term(big_r)
        else:
            starts = [_grow(prev[-1], prev[-2])]
            if wider and m in wider:
                starts.append(wider[m][0])
            if narrower and m in narrower:
                starts.append(narrower[m][0])
            if m >= 3:
                starts.append(_grow(prev[-1], None))
            # on the wide ranges fitted upward the sup shrinks by less than
            # GOOD_GAIN per term: take the first start that gains MIN_GAIN
            good = MIN_GAIN if narrower else GOOD_GAIN
            p, _ = _fit(starts, big_r, good=good * fits[m - 1][1])
        # a fit on [1, 2R] is also one on [1, R]: keep whichever is better
        if wider and m in wider:
            candidates = [q for q in (p, wider[m][0]) if q is not None]
        else:
            candidates = [] if p is None else [p]
        if not candidates:
            break
        sups = [sampled_sup(*_table(q), big_r) for q in candidates]
        p, sup = candidates[int(np.argmin(sups))], min(sups)
        # a size the narrower range has is kept while the sup shrinks at all:
        # on a wide range the first terms each gain little
        gain = 1.0 if narrower and m in narrower else MIN_GAIN
        if m > 1 and not sup < gain * fits[m - 1][1]:
            break
        order = np.argsort(p[:m])
        fits[m] = (p[np.r_[order, order + m]], sup)
        prev = [prev[-1], fits[m][0]]
        log(f"R = {big_r:g}, m = {m}: sup {sup:.3e}")
    return fits


def _as_fits(rows):
    """``{m: (p, sup)}`` of the stored ``(weights, exponents, sup)`` rows."""
    return {len(w): (np.concatenate([np.log(t), np.log(w)]), sup)
            for w, t, sup in rows}


def stored_fits(path, big_r):
    """The fits of range ``big_r`` as stored in ``path``."""
    with np.load(path) as data:
        w, t, ends = data["weights"], data["exponents"], np.cumsum(data["m"])
        return _as_fits((w[end - m:end], t[end - m:end], s) for r, m, s, end
                        in zip(data["R"], data["m"], data["sup"], ends)
                        if r == big_r)


def write(path=OUT):
    start = time.perf_counter()
    rows, wider = [], None
    for big_r in reversed(RANGES):
        wider = fit_range(big_r, wider=wider)
        rows.extend((big_r, m, p, sup) for m, (p, sup) in wider.items())
    # the upward pass starts from the R = 2^16 tables as they are stored
    narrower = _as_fits((*_table(p), sup) for big_r, _, p, sup in rows
                        if big_r == RANGES[-1])
    for big_r in WIDE_RANGES:
        narrower = fit_range(big_r, MAX_WIDE_TERMS, narrower=narrower)
        rows.extend((big_r, m, p, sup) for m, (p, sup) in narrower.items())
    rows.sort(key=lambda r: (r[0], r[1]))
    weights, exps = zip(*(_table(p) for _, _, p, _ in rows))
    np.savez(path,
             R=np.array([r[0] for r in rows]),
             m=np.array([r[1] for r in rows], dtype=np.int64),
             sup=np.array([r[3] for r in rows]),
             weights=np.concatenate(weights),
             exponents=np.concatenate(exps))
    print(f"wrote {len(rows)} tables to {path} in "
          f"{time.perf_counter() - start:.0f} s")


def _compare(fits, stored, big_r) -> int:
    """Print each refit sup against the stored one (1e-3 relative); returns
    the number of mismatches."""
    bad = 0
    for m, (_, sup) in fits.items():
        ok = m in stored and abs(sup - stored[m][1]) <= 1e-3 * stored[m][1]
        bad += not ok
        want = stored[m][1] if m in stored else float("nan")
        print(f"R = {big_r:g}, m = {m}: refit {sup:.6e}, stored "
              f"{want:.6e} {'ok' if ok else 'MISMATCH'}")
    return bad


def check(path=OUT, max_terms=6) -> int:
    """Refit ``[1, 16]`` from scratch and ``[1, 2^17]`` upward from the stored
    ``2^16`` fits, each up to ``max_terms`` terms; every sup must match the
    stored one to 1e-3 relative.  Returns the exit code."""
    quiet = lambda s: None  # noqa: E731
    bad = _compare(fit_range(16.0, max_terms, log=quiet),
                   stored_fits(path, 16.0), 16.0)
    wide = WIDE_RANGES[0]
    bad += _compare(fit_range(wide, max_terms, narrower=stored_fits(path, RANGES[-1]),
                              log=quiet), stored_fits(path, wide), wide)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="refit R = 16 and R = 2^17, m <= 6, and compare with "
                         "the stored sups")
    args = ap.parse_args(argv)
    if args.check:
        return check()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
