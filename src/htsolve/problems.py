"""Model problem builders and a dense reference oracle.

Two scenarios are supported, both producing a :class:`LowRankOperator`
together with a right-hand side in hierarchical format:

* high-dimensional diffusion with a constant symmetric positive definite
  coefficient matrix, discretized either in the eigen-sine basis (where the
  Laplacian part is diagonal) or in a synthetic multilevel basis with
  prescribed ``4**level`` spectral growth, scaled on both sides by the
  inverse square root of the Kronecker-sum diagonal (applied through
  exponential-sum tables);
* 1D parametric diffusion with piecewise-constant inclusion fields and
  normalized Legendre chaos in each parameter, spatially preconditioned so
  the mean-field block is the identity.

``dense_solve`` factorizes the assembled matrix at desk scale and is the
reference oracle for every accuracy statement about the iterative solvers.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from htsolve.htree import build_balanced_tree, build_linear_tree
from htsolve.hsvd import HTensor, norm, random_htensor, scale, to_dense
from htsolve.ops import ExpSumScaling, LowRankOperator, OperatorBounds

__all__ = [
    "DiffusionProblemI",
    "ParametricProblemII",
    "sine_first_derivative",
    "multilevel_coupling",
    "build_diffusion_I",
    "build_parametric_II",
    "dense_solve",
    "load_problem",
]

DENSE_SOLVE_GUARD = 10**7


# ---------------------------------------------------------------------------
# one-dimensional building blocks
# ---------------------------------------------------------------------------


def sine_first_derivative(n: int) -> np.ndarray:
    """Galerkin matrix of d/dx in the L2-normalized sine basis on (0, 1).

    Entry (l, k) is the integral of phi_k' phi_l with phi_k = sqrt(2) sin(pi k x),
    which vanishes for k + l even and equals 2 k l ((1 - (-1)^(k+l)) / (l^2 - k^2)
    otherwise; the matrix is antisymmetric.
    """
    k = np.arange(1, n + 1, dtype=np.float64)
    num = 2.0 * np.outer(k, k) * (1.0 - (-1.0) ** (k[:, None] + k[None, :]))
    den = k[:, None] ** 2 - k[None, :] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(den != 0.0, num / np.where(den == 0.0, 1.0, den), 0.0)
    return c


def multilevel_coupling(max_level: int, rho: float = 0.15):
    """Synthetic multilevel coupling pattern on dyadic index pairs.

    Rows are indexed level-major by (level, position) with ``2**level``
    positions per level; two rows couple with weight ``rho**|level gap|``
    when their dyadic support intervals are nested, so the matrix mimics the
    level-decaying overlap pattern of a wavelet stiffness matrix.  For
    ``rho < 0.25`` the off-diagonal row sums stay below 1 uniformly in the
    depth, making the matrix strictly diagonally dominant.

    Returns ``(g, levels)`` where ``levels[i]`` is the level of row ``i``.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    idx = [(lev, t) for lev in range(max_level + 1) for t in range(2**lev)]
    n = len(idx)
    levels = np.array([lev for lev, _ in idx], dtype=np.int64)
    g = np.eye(n)
    for a, (la, ta) in enumerate(idx):
        for b in range(a + 1, n):
            lb, tb = idx[b]
            if tb >> (lb - la) == ta:  # nested dyadic supports (la <= lb)
                g[a, b] = g[b, a] = rho ** (lb - la)
    return g, levels


def _rank_one(tree, dims, vectors) -> HTensor:
    frames = {i: np.asarray(v, dtype=np.float64).reshape(-1, 1)
              for i, v in enumerate(vectors)}
    transfer = {node: np.ones((1, 1, 1))
                for node in tree.interior_nodes() if node != tree.root}
    return HTensor(tree=tree, dims=tuple(dims), frames=frames,
                   transfer=transfer, root_transfer=np.ones((1, 1)))


def _build_rhs(spec, tree, dims, spatial_vector=None) -> HTensor:
    """Realize one of the shipped right-hand-side flavors."""
    flavor = spec[0]
    if flavor == "rank1":
        vectors = spec[1] if len(spec) > 1 and spec[1] is not None else None
        if vectors is None:
            vectors = [1.0 / (1.0 + np.arange(n)) ** 2 for n in dims]
        if len(vectors) != len(dims):
            raise ValueError(f"rank1 rhs needs {len(dims)} vectors")
        h = _rank_one(tree, dims, vectors)
    elif flavor == "random":
        rank, seed = int(spec[1]), int(spec[2])
        h = random_htensor(tree, dims, rank, np.random.default_rng(seed))
    elif flavor == "y-independent":
        if spatial_vector is None:
            raise ValueError("y-independent right-hand sides apply to the "
                             "parametric scenario only")
        vecs = [spatial_vector]
        for n in dims[1:]:
            e0 = np.zeros(n)
            e0[0] = 1.0
            vecs.append(e0)
        h = _rank_one(tree, dims, vecs)
    else:
        raise ValueError(f"unknown rhs flavor {flavor!r}")
    nh = norm(h)
    if nh == 0.0:
        raise ValueError("right-hand side is zero")
    return scale(1.0 / nh, h)


# ---------------------------------------------------------------------------
# scenario (I): high-dimensional diffusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiffusionProblemI:
    """Preconditioned high-dimensional diffusion problem.

    ``operator`` is the Galerkin matrix of the form
    ``integral of M grad(u) . grad(v)``, scaled on both sides by the inverse
    square root of its diagonal; ``rhs`` lives in the scaled coordinates.
    """

    d: int
    basis: str
    size: int
    diffusion: np.ndarray
    operator: LowRankOperator
    rhs: HTensor

    @property
    def dims(self):
        return self.operator.dims


def build_diffusion_I(d, basis_spec, m_matrix,
                      rhs_spec=("rank1", None)) -> DiffusionProblemI:
    """Assemble the scaled diffusion operator and a right-hand side.

    ``basis_spec`` is ``("eigensine", n)`` for n sine modes per direction or
    ``("multilevel", L)`` for the synthetic multilevel family with levels
    0..L (``2**(L+1) - 1`` indices per direction, diagonal growth
    ``4**level``).  ``m_matrix`` is the d x d symmetric positive definite
    diffusion matrix; for the multilevel basis it must be diagonal, since
    the first-derivative coupling is defined in the sine basis only.

    The operator carries the same ideal inverse-square-root scaling on both
    sides, given by the level weights ``M_ii * (pi^2 k^2)`` resp.
    ``M_ii * 4**level``; no exponential-sum table is built here, since each
    application builds the ones its accuracy needs.  It also carries
    certified spectral bounds derived from the coefficient extremes:
    the diagonally scaled operator satisfies
    ``gamma/Gamma <= A <= Gamma/gamma`` (eigen-sine, any SPD M) and
    ``1 - s <= A <= 1 + s`` with the coupling dominance gap ``s`` for the
    multilevel family.
    """
    d = int(d)
    if d < 2:
        raise ValueError(f"need d >= 2 modes, got {d}")
    m_matrix = np.asarray(m_matrix, dtype=np.float64)
    if m_matrix.shape != (d, d):
        raise ValueError(f"diffusion matrix has shape {m_matrix.shape}, "
                         f"expected ({d}, {d})")
    if not np.allclose(m_matrix, m_matrix.T, atol=1e-12):
        raise ValueError("diffusion matrix must be symmetric")
    ev = np.linalg.eigvalsh(m_matrix)
    gamma, big_gamma = float(ev[0]), float(ev[-1])
    if gamma <= 0.0:
        raise ValueError("diffusion matrix must be positive definite")

    kind, size = basis_spec[0], int(basis_spec[1])
    if kind == "eigensine":
        if size < 1:
            raise ValueError(f"need at least one sine mode, got {size}")
        n = size
        k = np.arange(1, n + 1, dtype=np.float64)
        growth = np.pi**2 * k**2
        stiff = np.diag(growth)
        deriv = sine_first_derivative(n)
        lo, hi = gamma / big_gamma, big_gamma / gamma
    elif kind == "multilevel":
        g, levels = multilevel_coupling(size)
        n = g.shape[0]
        growth = 4.0 ** levels.astype(np.float64)
        w = np.sqrt(growth)
        stiff = w[:, None] * g * w[None, :]
        deriv = None
        off = np.abs(g).sum(axis=1) - 1.0
        s = float(off.max())
        lo, hi = 1.0 - s, 1.0 + s
        if np.any(m_matrix - np.diag(np.diag(m_matrix)) != 0.0):
            raise ValueError("the multilevel basis supports diagonal "
                             "diffusion matrices only")
    else:
        raise ValueError(f"unknown basis {kind!r}")

    terms = []
    for i in range(d):
        term = [None] * d
        term[i] = m_matrix[i, i] * stiff
        terms.append(tuple(term))
    for i in range(d):
        for j in range(i + 1, d):
            if m_matrix[i, j] != 0.0:
                term = [None] * d
                term[i] = -2.0 * m_matrix[i, j] * deriv
                term[j] = deriv
                terms.append(tuple(term))

    scaling = ExpSumScaling([m_matrix[i, i] * growth for i in range(d)])
    op = LowRankOperator((n,) * d, terms, scaling_left=scaling,
                         scaling_right=scaling, bounds=OperatorBounds(lo, hi))
    tree = build_balanced_tree(d)
    rhs = _build_rhs(rhs_spec, tree, (n,) * d)
    return DiffusionProblemI(d=d, basis=kind, size=size, diffusion=m_matrix,
                             operator=op, rhs=rhs)


# ---------------------------------------------------------------------------
# scenario (II): parametric diffusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ParametricProblemII:
    """Spatially preconditioned parametric diffusion problem.

    The coefficient is ``a(x, y) = abar(x) + sum_j y_j psi_j(x)`` with
    piecewise-constant fields on a uniform grid of ``n`` intervals and
    parameters ``y_j`` uniform on (-1, 1), expanded in normalized Legendre
    polynomials up to degree ``p``.  The operator acts on coordinates in
    which the mean-field stiffness block is the identity (spatial
    coefficients transformed by the inverse square root of the mean-field
    stiffness matrix), so their Euclidean norm is the mean-field energy norm.
    """

    n: int
    d: int
    theta: float
    degree: int
    inclusions: tuple
    fields: tuple
    operator: LowRankOperator
    rhs: HTensor

    @property
    def dims(self):
        return self.operator.dims


def _stiffness_1d(coeff: np.ndarray, h: float) -> np.ndarray:
    """P1 stiffness matrix for a piecewise-constant coefficient, exact."""
    n = coeff.size
    main = (coeff[:-1] + coeff[1:]) / h
    off = -coeff[1:-1] / h
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def legendre_coupling(p: int) -> np.ndarray:
    """Jacobi matrix of y on normalized Legendre polynomials, degrees 0..p."""
    k = np.arange(1, p + 1, dtype=np.float64)
    off = k / np.sqrt((2.0 * k - 1.0) * (2.0 * k + 1.0))
    m = np.zeros((p + 1, p + 1))
    m[np.arange(p), np.arange(1, p + 1)] = off
    m[np.arange(1, p + 1), np.arange(p)] = off
    return m


def _resolve_inclusions(n: int, d: int, inclusion_spec, theta: float):
    """Snap inclusion intervals to the grid and return (lo, hi, amp) triples."""
    if inclusion_spec[0] == "disjoint":
        count = int(inclusion_spec[1])
        if count != d:
            raise ValueError(f"disjoint layout needs one inclusion per "
                             f"parameter: {count} != {d}")
        if n < 2 * d:
            raise ValueError(f"grid with {n} intervals is too coarse for "
                             f"{d} disjoint inclusions (need n >= {2 * d})")
        # the subdomains tile (0, 1): the finite-rank structure of the
        # solution map needs a partition, not merely disjoint supports
        cuts = [round(j * n / d) for j in range(d + 1)]
        triples = [(cuts[j], cuts[j + 1], theta) for j in range(d)]
    elif inclusion_spec[0] == "explicit":
        triples = []
        for lo, hi, amp in inclusion_spec[1]:
            lo_i, hi_i = round(float(lo) * n), round(float(hi) * n)
            triples.append((lo_i, hi_i, float(amp)))
        if len(triples) != d:
            raise ValueError(f"need exactly {d} inclusions, got {len(triples)}")
    else:
        raise ValueError(f"unknown inclusion layout {inclusion_spec[0]!r}")
    for lo, hi, _ in triples:
        if not 0 <= lo < hi <= n:
            raise ValueError(f"inclusion [{lo}, {hi}) does not fit the grid")
    return tuple(triples)


def build_parametric_II(n, d, inclusion_spec, theta, p,
                        rhs_spec=("y-independent",)) -> ParametricProblemII:
    """Assemble the parametric diffusion operator in preconditioned form.

    ``n`` is the number of grid intervals on (0, 1) (``n - 1`` interior
    nodes), ``d`` the parameter count, ``p`` the Legendre degree cap.
    ``inclusion_spec`` is ``("disjoint", d)`` for the default layout of equal
    disjoint inclusions (each occupying the middle half of its block of the
    domain, snapped to grid points) or ``("explicit", [(lo, hi, amp), ...])``
    with relative interval bounds.  The builder enforces the uniform
    ellipticity condition: the summed inclusion magnitudes must stay below
    ``theta`` times the mean field pointwise.

    The operator is ``I + sum_j (S A_j S) x M_j`` on ``d + 1`` modes (mode 0
    spatial) with ``S`` the inverse square root of the mean-field stiffness,
    ``M_j`` the bidiagonal Legendre coupling in parameter slot ``j``; its
    spectral bounds are certified by the ``2**d`` extreme-coefficient
    eigenproblems, which bracket every Gauss-node evaluation by linearity.
    """
    n, d, p = int(n), int(d), int(p)
    if n < 2:
        raise ValueError(f"need at least 2 grid intervals, got {n}")
    if d < 1:
        raise ValueError(f"need at least one parameter, got {d}")
    if p < 1:
        raise ValueError(f"Legendre degree cap must be >= 1, got {p}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    theta = float(theta)

    h = 1.0 / n
    mean_field = np.ones(n)
    triples = _resolve_inclusions(n, d, inclusion_spec, theta)
    fields = []
    for lo, hi, amp in triples:
        psi = np.zeros(n)
        psi[lo:hi] = amp
        fields.append(psi)
    total = np.sum(np.abs(fields), axis=0)
    if np.any(total > theta * mean_field + 1e-12):
        raise ValueError("ellipticity violated: summed inclusion magnitudes "
                         "exceed theta times the mean field")

    a0 = _stiffness_1d(mean_field, h)
    lam, vec = np.linalg.eigh(a0)
    if lam[0] <= 0.0:
        raise ValueError("mean-field stiffness is not positive definite")
    s_half = vec @ np.diag(lam**-0.5) @ vec.T
    a_tilde = []
    for psi in fields:
        m = s_half @ _stiffness_1d(psi, h) @ s_half
        a_tilde.append(0.5 * (m + m.T))

    coupling = legendre_coupling(p)
    dims = (n - 1,) + (p + 1,) * d
    terms = [tuple([None] * (d + 1))]
    for j in range(d):
        term = [None] * (d + 1)
        term[0] = a_tilde[j]
        term[j + 1] = coupling
        terms.append(tuple(term))

    lo_b, hi_b = np.inf, -np.inf
    for bits in range(2**d):
        signs = [1.0 if bits >> j & 1 else -1.0 for j in range(d)]
        corner = np.eye(n - 1) + sum(s * m for s, m in zip(signs, a_tilde))
        evc = np.linalg.eigvalsh(corner)
        lo_b, hi_b = min(lo_b, float(evc[0])), max(hi_b, float(evc[-1]))
    if lo_b <= 0.0:
        raise ValueError("ellipticity violated: an extreme coefficient "
                         "combination loses positivity")

    op = LowRankOperator(dims, terms, bounds=OperatorBounds(lo_b, hi_b))
    tree = build_linear_tree(d + 1)
    load = s_half @ np.full(n - 1, h)
    rhs = _build_rhs(rhs_spec, tree, dims, spatial_vector=load)
    return ParametricProblemII(n=n, d=d, theta=theta, degree=p,
                               inclusions=triples, fields=tuple(fields),
                               operator=op, rhs=rhs)


# ---------------------------------------------------------------------------
# dense reference oracle
# ---------------------------------------------------------------------------


def _assemble_sparse(a: LowRankOperator) -> sp.csr_array:
    total = int(np.prod(a.dims))
    out = None
    for term in a.terms:
        acc = sp.csr_array(sp.eye(1))
        for i, m in enumerate(term):
            factor = sp.eye(a.dims[i], format="csr") if m is None else m
            acc = sp.csr_array(sp.kron(acc, factor, format="csr"))
        out = acc if out is None else out + acc
    for s, side in ((a.scaling_left, "left"), (a.scaling_right, "right")):
        if s is None:
            continue
        diag = s.ideal_dense_diag()
        dm = sp.dia_array((diag[None, :], [0]), shape=(total, total))
        out = sp.csr_array(dm @ out if side == "left" else out @ dm)
    return out


def dense_solve(problem, guard: int = DENSE_SOLVE_GUARD) -> np.ndarray:
    """Direct solution of the assembled matrix equation, shaped like dims.

    Uses a dense factorization below 2000 unknowns and above it a sparse LU
    ordered for SPD matrices, which both builders' operators are; asserts the
    returned solution's residual is at most ``1e-10 |f|``.  Exponential-sum
    scalings enter with their ideal diagonal, matching the
    certified-application semantics of the iterative solvers.
    """
    a = problem.operator
    total = int(np.prod(a.dims))
    if total > guard:
        raise ValueError(f"dense oracle limited to {guard} unknowns, "
                         f"problem has {total}")
    f = to_dense(problem.rhs, max_entries=guard).ravel()
    mat = _assemble_sparse(a)
    if total <= 2000:
        u = np.linalg.solve(mat.toarray(), f)
    else:
        # a minimum-degree ordering of A^T + A keeps the LU fill (and with
        # it the peak memory) a fraction of the default column ordering's on
        # these tensor-product sparsity patterns
        u = spla.splu(sp.csc_matrix(mat), permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True)).solve(f)
    resid = np.linalg.norm(mat @ u - f)
    nf = np.linalg.norm(f)
    if resid > 1e-10 * nf:
        raise ArithmeticError(f"direct solver residual {resid:.3g} exceeds "
                              f"1e-10 * |f| = {1e-10 * nf:.3g}")
    return u.reshape(a.dims)


# ---------------------------------------------------------------------------
# problem spec files
# ---------------------------------------------------------------------------


def _parse_matrix(text: str) -> np.ndarray:
    rows = [[float(x) for x in line.split()]
            for line in text.strip().splitlines() if line.strip()]
    return np.array(rows, dtype=np.float64)


def _reject_unread(path, cfg, section: str, read, reader: str) -> None:
    unread = sorted(set(cfg.options(section)) - set(read))
    if unread:
        raise ValueError(f"{path}: [{section}] key(s) {', '.join(unread)} not "
                         f"read by {reader}")


def _parse_rhs(path, cfg) -> tuple:
    if not cfg.has_section("rhs"):
        return ("rank1", None)
    flavor = cfg.get("rhs", "flavor")
    if flavor not in ("rank1", "random", "y-independent"):
        raise ValueError(f"unknown rhs flavor {flavor!r}")
    keys = ("flavor", "rank", "seed") if flavor == "random" else ("flavor",)
    _reject_unread(path, cfg, "rhs", keys, f"the {flavor} flavor")
    if flavor == "random":
        return ("random", cfg.getint("rhs", "rank"), cfg.getint("rhs", "seed"))
    return ("rank1", None) if flavor == "rank1" else ("y-independent",)


def load_problem(path, rhs_seed=None):
    """Build a problem from a structured text spec file.

    The file names the scenario plus its parameters; see the shipped files
    under ``fixtures/`` for the two formats.  Anything the scenario does not
    read raises ``ValueError`` naming it: a section other than
    ``[problem]``, ``[rhs]`` and (parametric only) ``[inclusions]``, a
    ``[problem]`` key of another scenario or basis, and an ``[rhs]`` key the
    flavor does not read (``rank`` and ``seed`` belong to ``random``).
    ``rhs_seed`` overrides the seed of a randomized right-hand side and has
    no effect on any other flavor — seeds control fixture randomization
    only, never solver behavior.
    """
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise FileNotFoundError(f"cannot read problem spec {path}")
    if not cfg.has_section("problem"):
        raise ValueError(f"{path}: missing [problem] section")
    scenario = cfg.get("problem", "scenario")
    if scenario not in ("diffusion", "parametric"):
        raise ValueError(f"{path}: unknown scenario {scenario!r}")
    sections = {"problem", "rhs"} | ({"inclusions"} if scenario == "parametric"
                                     else set())
    unread = sorted(set(cfg.sections()) - sections)
    if unread:
        raise ValueError(f"{path}: section(s) "
                         f"{', '.join(f'[{x}]' for x in unread)} not read by "
                         f"the {scenario} scenario")
    rhs_spec = _parse_rhs(path, cfg)
    if rhs_seed is not None and rhs_spec[0] == "random":
        rhs_spec = ("random", rhs_spec[1], int(rhs_seed))
    if scenario == "diffusion":
        basis = cfg.get("problem", "basis")
        size_key = {"eigensine": "modes", "multilevel": "max_level"}.get(basis)
        if size_key is None:
            raise ValueError(f"{path}: unknown basis {basis!r}")
        _reject_unread(path, cfg, "problem", ("scenario", "d", "basis",
                                              size_key, "diffusion_matrix"),
                       f"the {scenario} scenario")
        basis_spec = (basis, cfg.getint("problem", size_key))
        m_matrix = _parse_matrix(cfg.get("problem", "diffusion_matrix"))
        return build_diffusion_I(cfg.getint("problem", "d"), basis_spec,
                                 m_matrix, rhs_spec)
    _reject_unread(path, cfg, "problem", ("scenario", "intervals", "d",
                                          "theta", "degree"),
                   f"the {scenario} scenario")
    n = cfg.getint("problem", "intervals")
    d = cfg.getint("problem", "d")
    theta = cfg.getfloat("problem", "theta")
    p = cfg.getint("problem", "degree")
    if cfg.has_section("inclusions"):
        rows = []
        for key in sorted(cfg.options("inclusions")):
            lo, hi, amp = (float(x) for x in
                           cfg.get("inclusions", key).split())
            rows.append((lo, hi, amp))
        inclusion_spec = ("explicit", rows)
    else:
        inclusion_spec = ("disjoint", d)
    return build_parametric_II(n, d, inclusion_spec, theta, p, rhs_spec)
