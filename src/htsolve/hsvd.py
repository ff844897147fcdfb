"""Hierarchical tensor format with certified truncation and coarsening.

A tensor of order ``d`` is stored on a dimension tree: one *frame* per leaf
(``n_i x r_i``, columns spanning the mode-``i`` matricization), one *transfer
tensor* per interior non-root node (``r_left x r_right x r_node``), and a
single square *root transfer* matrix coupling the two root children.  Stored
ranks are per effective edge (see :mod:`htsolve.htree`).

The format supports exact arithmetic (addition concatenates ranks, scalar
multiplication touches the root transfer only) and two accuracy-controlled
reductions, one function each, whose certificate comes from the same data
that chose the result:

* :func:`recompress` - hard rank truncation based on the hierarchical SVD.
  Truncating edge ``e`` to rank ``r_e`` changes the tensor by at most
  ``sqrt(sum_e tail_e(r_e)^2)`` (tails of the :class:`EdgeSpectrum`),
  quasi-optimally among all tensors of the same ranks up to
  ``sqrt(2d - 3)``.
* :func:`coarsen` - support reduction based on mode-frame contractions
  (:func:`select_support`).  Dropping index slices whose combined
  contraction mass is ``s_N`` changes the tensor by at most ``s_N``,
  quasi-optimally up to ``sqrt(d)``.

Everything is float64 and all reductions are deterministic, including
tie-breaking.  The tree sweeps contract with fixed reshapes and matrix
products (``@``, batched ``np.matmul``) on blocks that are mostly a few dozen
rows, where per-call overhead outweighs the flops; ``np.einsum`` is left to
the dense conversions.  For the same reason every QR and SVD goes through
:func:`_qr` and :func:`_svd`, which call ``scipy.linalg.lapack`` directly and
return bitwise what ``np.linalg.qr`` and ``np.linalg.svd`` would, and a sweep
factors only what it changes: a block with no more rows than columns keeps
the identity basis, and a cut of the root edge alone slices the root
children.  Instances
are immutable: arrays are stored read-only and the fields cannot be
reassigned.  Public construction copies and validates its input; the results
this module computes itself are built trusted (see :meth:`HTensor._trusted`).
Each instance memoizes what is derived from it (its orthogonal form, that
form's spectrum, truncation bases and contractions) the first time it is
asked for; since the data cannot change, a memo never goes stale, and reading
it returns bitwise what computing again would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import lapack

from htsolve.htree import DimensionTree, EdgeList, Node, effective_edges

__all__ = [
    "HTensor",
    "EdgeSpectrum",
    "ContractionSet",
    "zero_htensor",
    "random_htensor",
    "max_ranks",
    "from_dense",
    "to_dense",
    "add",
    "scale",
    "norm",
    "orthogonalize",
    "apply_cp",
    "edge_spectra",
    "recompress",
    "contractions",
    "coarsen",
    "select_support",
    "restrict_support",
    "as_quasinorm",
]

#: Relative cutoff below which singular values count as numerically zero.
ZERO_CUTOFF = 1e-14


def _ro(a: np.ndarray) -> np.ndarray:
    """Own a C-contiguous float64 copy and mark it read-only."""
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, marked read-only, if it is C-contiguous float64 (the
    caller keeps no writable alias); otherwise a read-only copy."""
    if a.dtype != np.float64 or not a.flags.c_contiguous:
        return _ro(a)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=1024)
def _qr_layout(m: int, n: int):
    """Optimal dgeqrf and dorgqr workspaces of an ``m x n`` QR with
    ``min(m, n) > 0``, and the read-only mask of R's strict lower triangle."""
    k = min(m, n)
    geqrf = int(lapack.dgeqrf_lwork(m, n)[0])
    orgqr = int(lapack.dorgqr(np.zeros((m, k)), np.zeros(k), lwork=-1)[1][0])
    below = np.tri(k, n, -1, dtype=bool)
    below.setflags(write=False)
    return geqrf, orgqr, below


@lru_cache(maxsize=1024)
def _gesdd_lwork(m: int, n: int) -> int:
    """Optimal dgesdd workspace of an ``m x n`` thin SVD, ``min(m, n) > 0``."""
    return int(lapack.dgesdd_lwork(m, n, compute_uv=1, full_matrices=0)[0])


def _qr(a: np.ndarray, mode: str = "reduced"):
    """``np.linalg.qr(a, mode)`` for a 2-d float64 ``a`` and ``mode`` in
    ``("reduced", "r")``: ``(Q, R)``, or ``R`` alone for ``"r"``, which runs
    dgeqrf only.  Q is ``m x k`` and R is ``k x n`` for ``k = min(m, n)``.

    This and :func:`_svd` are the only way this module factors a matrix.
    They make the LAPACK calls numpy makes, on the same Fortran-ordered copy
    of the input, but skip numpy's per-call wrapper, which costs more than
    LAPACK on the few-dozen-row blocks of the tree sweeps.  The results are
    bitwise numpy's when both BLAS libraries run one thread, as
    ``htsolve --threads 1`` pins them (with more threads, numpy's and scipy's
    OpenBLAS builds may split blocks over 128 rows differently).  Two details
    keep the bits:

    * Q and R (U and V^T in :func:`_svd`) are returned as new C-contiguous
      arrays, as numpy returns them.  LAPACK hands back Fortran order, and a
      later ``@`` or ``np.matmul`` on a Fortran operand takes another GEMM
      path whose result differs in the last bits.
    * The workspace is LAPACK's optimal one, as numpy's is.  numpy queries it
      on every call; it depends on the shape only, so it is queried once per
      shape here.  With a smaller workspace, blocks with ``min(m, n) > 128``
      take the unblocked path and round differently.

    Raises ``np.linalg.LinAlgError`` if LAPACK reports an illegal argument.
    """
    m, n = a.shape
    k = min(m, n)
    if k == 0:
        r = np.zeros((0, n))
        return r if mode == "r" else (np.zeros((m, 0)), r)
    geqrf, orgqr, below = _qr_layout(m, n)
    qr, tau, _, info = lapack.dgeqrf(a, lwork=geqrf)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info = {info}")
    # always a copy: dorgqr overwrites qr in place, even where qr[:k] is
    # already contiguous (one row, or one column)
    r = np.array(qr[:k], order="C")
    r[below] = 0.0
    if mode == "r":
        return r
    q, _, info = lapack.dorgqr(qr[:, :k], tau, lwork=orgqr, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dorgqr failed with info = {info}")
    return np.ascontiguousarray(q), r


def _svd(a: np.ndarray):
    """``np.linalg.svd(a, full_matrices=False)`` for a 2-d float64 ``a``:
    ``(U, s, V^T)`` from divide and conquer (dgesdd), with U and V^T
    C-contiguous; bitwise numpy's under the conditions of :func:`_qr`.

    ``info`` is checked.  dgesdd reports a NaN entry by ``info = -4`` and an
    all-zero spectrum; taken at face value, that would certify a NaN tensor.
    On any ``info != 0`` (that, or no convergence) the SVD falls back to QR
    iteration (``gesvd``), which raises ``ValueError`` on non-finite input,
    so a failed dgesdd never returns a spectrum.
    """
    m, n = a.shape
    if min(m, n) == 0:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((0, n))
    u, s, vt, info = lapack.dgesdd(a, compute_uv=1, full_matrices=0,
                                   lwork=_gesdd_lwork(m, n))
    if info != 0:
        u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt)


@dataclass(frozen=True, eq=False)
class HTensor:
    """Immutable hierarchical-format tensor on a dimension tree.

    Attributes
    ----------
    tree : DimensionTree
    dims : tuple[int, ...]
        Mode sizes ``n_0, ..., n_{d-1}``.
    frames : dict[int, ndarray]
        Leaf frames, ``frames[i]`` of shape ``(n_i, r_{i})``.
    transfer : dict[Node, ndarray]
        Transfer tensors for interior non-root nodes, shape
        ``(r_left, r_right, r_node)``.
    root_transfer : ndarray
        Square coupling matrix between the two root children.
    orthogonal : bool
        Set only by :meth:`_trusted`, on the QR sweep's output, a root-edge
        cut of an orthogonal form (:func:`_cut_root_edge`), the form
        :func:`from_dense` writes when one SVD gives it, and the zero
        tensor: all leaf frames and matricized transfer tensors have
        orthonormal columns, and the root transfer is ``diag(sigma)`` with
        the root-edge singular values nonnegative and nonincreasing, which
        the spectrum reads.

    Stored ranks satisfy ``r_node <= r_left * r_right`` at interior nodes and
    the two root children share the root edge rank.  Orthogonalized reduction
    outputs additionally satisfy the matricization cap
    ``r_node <= min(prod dims(node), prod dims(complement))``; stored ranks of
    intermediate arithmetic results (sums, operator applications) may exceed
    that cap.

    Derived data (the orthogonal form, its spectral data and contractions)
    is memoized per instance in ``_memo`` (not shown): the arrays are
    read-only and the fields frozen, so the memo can never go stale, and
    ``dataclasses.replace`` starts a fresh one.  Instances compare and hash
    by identity, as every array-holding class of the package does.

    Public construction (``HTensor(...)``, ``dataclasses.replace``) copies
    every array, validates the whole layout and never sets ``orthogonal``
    (:func:`orthogonalize` gives the orthogonal form).  Results this module
    builds itself from valid operands (sums, scalings, orthogonal forms,
    support restrictions, the zero tensor) come from :meth:`_trusted`, which
    freezes the arrays in place and skips the validation walk.
    """

    tree: DimensionTree
    dims: tuple[int, ...]
    frames: dict[int, np.ndarray]
    transfer: dict[Node, np.ndarray]
    root_transfer: np.ndarray
    orthogonal: bool = field(default=False, init=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        tree = self.tree
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if len(self.dims) != tree.d:
            raise ValueError(f"got {len(self.dims)} mode sizes for order {tree.d}")
        if any(n < 1 for n in self.dims):
            raise ValueError(f"mode sizes must be positive: {self.dims}")
        frames = {int(i): _ro(u) for i, u in self.frames.items()}
        transfer = {tuple(k): _ro(b) for k, b in self.transfer.items()}
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "transfer", transfer)
        object.__setattr__(self, "root_transfer", _ro(self.root_transfer))
        if sorted(frames) != list(range(tree.d)):
            raise ValueError("frames must be keyed by every mode exactly once")
        for i in range(tree.d):
            if frames[i].ndim != 2 or frames[i].shape[0] != self.dims[i]:
                raise ValueError(
                    f"frame {i} has shape {frames[i].shape}, expected ({self.dims[i]}, r)"
                )
        interior = [n for n in tree.interior_nodes() if n != tree.root]
        if sorted(transfer) != sorted(interior):
            raise ValueError("transfer must be keyed by the interior non-root nodes")
        for node in interior:
            left, right = tree.child_pair(node)
            b = transfer[node]
            want = (self._stored_rank(left), self._stored_rank(right))
            if b.ndim != 3 or b.shape[:2] != want:
                raise ValueError(
                    f"transfer at {node} has shape {b.shape}, expected {want} + (r,)"
                )
            if b.shape[2] > b.shape[0] * b.shape[1]:
                raise ValueError(
                    f"rank {b.shape[2]} at {node} exceeds the child product "
                    f"{b.shape[0]}*{b.shape[1]}"
                )
        left, right = tree.child_pair(tree.root)
        want = (self._stored_rank(left), self._stored_rank(right))
        if self.root_transfer.ndim != 2 or self.root_transfer.shape != want:
            raise ValueError(
                f"root transfer has shape {self.root_transfer.shape}, expected {want}"
            )
        if want[0] != want[1]:
            raise ValueError(f"root ranks must be equal, got {want}")

    @classmethod
    def _trusted(cls, tree: DimensionTree, dims: tuple[int, ...], frames,
                 transfer, root_transfer: np.ndarray,
                 orthogonal: bool = False) -> HTensor:
        """An instance of data that already satisfies every condition
        ``__post_init__`` checks, with ``dims`` a tuple of ints.  Its arrays
        are read-only, C-contiguous float64 as always, but frozen in place
        (see :func:`_frozen`) instead of copied, and nothing is validated.
        Only :func:`_qr_sweep`, :func:`_cut_root_edge`, :func:`from_dense`
        and :func:`zero_htensor` pass ``orthogonal``, each with a root
        ``diag(sigma)``, ``sigma`` nonnegative and nonincreasing."""
        h = object.__new__(cls)
        for name, value in (
                ("tree", tree), ("dims", dims),
                ("frames", {i: _frozen(u) for i, u in frames.items()}),
                ("transfer", {n: _frozen(b) for n, b in transfer.items()}),
                ("root_transfer", _frozen(root_transfer)),
                ("orthogonal", orthogonal), ("_memo", {})):
            object.__setattr__(h, name, value)
        return h

    def _stored_rank(self, node: Node) -> int:
        if len(node) == 1:
            return self.frames[node[0]].shape[1]
        return self.transfer[node].shape[2]

    # -- ranks -------------------------------------------------------------

    @property
    def d(self) -> int:
        return self.tree.d

    @property
    def edge_list(self) -> EdgeList:
        return effective_edges(self.tree)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Stored rank per effective edge, in edge enumeration order."""
        return tuple(self._stored_rank(n) for n in self.edge_list)


def _node_rank_map(tree: DimensionTree, edge_ranks) -> dict[Node, int]:
    """Per-node ranks from a per-edge rank vector (root children share)."""
    edges = effective_edges(tree)
    if len(edge_ranks) != len(edges):
        raise ValueError(f"expected {len(edges)} edge ranks, got {len(edge_ranks)}")
    out = {node: int(edge_ranks[i]) for i, node in enumerate(edges.edges)}
    left, right = tree.child_pair(tree.root)
    out[right] = out[left]
    return out


def max_ranks(tree: DimensionTree, dims) -> tuple[int, ...]:
    """Matricization rank caps ``min(prod dims(node), prod dims(rest))``
    per effective edge."""
    dims = tuple(int(n) for n in dims)
    total = int(np.prod(dims))

    def cap(node: Node) -> int:
        inside = int(np.prod([dims[i] for i in node]))
        return min(inside, total // inside)

    return tuple(cap(node) for node in effective_edges(tree))


def zero_htensor(tree: DimensionTree, dims) -> HTensor:
    """The canonical zero tensor: every stored rank is 0."""
    dims = tuple(int(n) for n in dims)
    frames = {i: np.zeros((dims[i], 0)) for i in range(tree.d)}
    transfer = {
        n: np.zeros((0, 0, 0)) for n in tree.interior_nodes() if n != tree.root
    }
    return HTensor._trusted(tree, dims, frames, transfer, np.zeros((0, 0)),
                            orthogonal=True)


def random_htensor(tree: DimensionTree, dims, rank, rng) -> HTensor:
    """Random tensor with edge ranks ``min(rank_e, matricization cap)``.

    ``rank`` is an int or a per-edge sequence.  Entries are scaled so the
    result has norm of order one.
    """
    dims = tuple(int(n) for n in dims)
    edges = effective_edges(tree)
    caps = max_ranks(tree, dims)
    if np.isscalar(rank):
        want = [int(rank)] * len(edges)
    else:
        want = [int(r) for r in rank]
    r = _node_rank_map(tree, _stored_ranks(
        tree, [min(w, c) for w, c in zip(want, caps)]))
    r_root = r[tree.child_pair(tree.root)[0]]
    frames = {i: rng.standard_normal((dims[i], r[(i,)])) / np.sqrt(dims[i])
              for i in range(tree.d)}
    transfer = {}
    for node in tree.interior_nodes():
        if node == tree.root:
            continue
        lft, rgt = tree.child_pair(node)
        b = rng.standard_normal((r[lft], r[rgt], r[node]))
        transfer[node] = b / np.sqrt(max(r[lft] * r[rgt], 1))
    root = rng.standard_normal((r_root, r_root))
    return HTensor(tree=tree, dims=dims, frames=frames, transfer=transfer,
                   root_transfer=root)


# -- dense conversion --------------------------------------------------------


def from_dense(data, tree: DimensionTree) -> HTensor:
    """Hierarchical SVD of a dense array: ``recompress(h, 0.0)`` of ``data``
    written on the tree as ``h``, which reproduces ``data`` to roundoff.

    ``h`` rests on one SVD ``U S V^T`` of the root children's
    matricization, cut to the singular values above its roundoff: the
    smaller root child's basis is ``V``.  The nodes larger than their
    complement form a chain down from the other root child.  When the chain
    is that root child alone (every order-2 input, for one), its basis is
    ``U`` and the root transfer ``S``, so ``h`` is already an orthogonal
    form and the recompression runs no QR sweep and no second root SVD.
    Otherwise the root transfer is the identity, each chain node has its
    matricization's columns as basis (times ``V`` at the root child), and
    the transfer tensors above the chain's end select columns.  Every node
    off the chain has the identity basis, so no rank exceeds the smaller
    side of a matricization.  A wrong order, a size-0 mode or a non-finite
    entry raises ``ValueError``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != tree.d:
        raise ValueError(f"data has order {data.ndim}, tree has order {tree.d}")
    if data.size == 0:
        raise ValueError(f"mode sizes must be positive: {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError("data contains non-finite entries")
    dims, total = data.shape, data.size
    size = {node: math.prod(dims[i] for i in node) for node in tree.nodes}
    top, small = sorted(tree.child_pair(tree.root), key=lambda n: -size[n])
    chain, last = {top: tree.axis_order(small)}, top  # node: its column modes
    while not tree.is_leaf(last):
        child, other = sorted(tree.child_pair(last), key=lambda n: -size[n])
        if size[child] ** 2 <= total:
            break
        chain[child] = tree.axis_order(other) + chain[last]
        last = child
    u, s, vt = _svd(np.transpose(data, tree.axis_order(top) + chain[top])
                    .reshape(size[top], size[small]))
    # only what lies below the SVD's own roundoff; recompress applies the cutoff
    rank = max(int(np.count_nonzero(s > np.finfo(np.float64).eps * s[0])), 1)
    frames, transfer = {}, {}
    for node in tree.nodes[1:]:
        if node == small:
            basis = vt[:rank].T
        elif node == last == top:
            basis = u[:, :rank]
        elif node == last:
            basis = np.transpose(data, tree.axis_order(node) + chain[node])
        elif node not in chain:
            basis = np.eye(size[node])
        else:  # the chain child's columns run over the other child, then ours
            lft, rgt = tree.child_pair(node)
            other = rgt if lft in chain else lft
            cols = vt[:rank].T if node == top else np.eye(total // size[node])
            sel = np.kron(np.eye(size[other]), cols)
            sel = sel.reshape(-1, size[other], cols.shape[1])
            transfer[node] = sel if other == rgt else sel.transpose(1, 0, 2)
            continue
        if tree.is_leaf(node):
            frames[node[0]] = basis.reshape(size[node], -1)
        else:
            lft, rgt = tree.child_pair(node)
            transfer[node] = basis.reshape(size[lft], size[rgt], -1)
    if last == top:
        h = HTensor._trusted(tree, dims, frames, transfer, np.diag(s[:rank]),
                             orthogonal=True)
    else:
        h = HTensor(tree=tree, dims=dims, frames=frames, transfer=transfer,
                    root_transfer=np.eye(rank))
    return recompress(h, 0.0)


def to_dense(h: HTensor, max_entries: float = 1e8) -> np.ndarray:
    """Materialize the full array; guarded against accidental blowups."""
    total = float(np.prod(h.dims))
    if total > max_entries:
        raise ValueError(
            f"dense tensor would have {total:.3g} entries (> {max_entries:.3g}); "
            "raise max_entries to override"
        )
    tree = h.tree

    def expand(node: Node) -> np.ndarray:
        if tree.is_leaf(node):
            return h.frames[node[0]]
        left, right = tree.child_pair(node)
        a, b = expand(left), expand(right)
        t = np.einsum("ia,jb,abk->ijk", a, b, h.transfer[node], optimize=True)
        return t.reshape(a.shape[0] * b.shape[0], -1)

    left, right = tree.child_pair(tree.root)
    mat = expand(left) @ h.root_transfer @ expand(right).T
    order = tree.axis_order(left) + tree.axis_order(right)
    shaped = mat.reshape([h.dims[i] for i in order])
    return np.transpose(shaped, np.argsort(order))


# -- exact arithmetic --------------------------------------------------------


def _check_same_space(a: HTensor, b: HTensor):
    if a.tree != b.tree:
        raise ValueError("tensors live on different dimension trees")
    if a.dims != b.dims:
        raise ValueError(f"mode sizes differ: {a.dims} vs {b.dims}")


def add(a: HTensor, b: HTensor) -> HTensor:
    """Exact sum; every stored edge rank is the sum of the operands' ranks."""
    _check_same_space(a, b)
    tree = a.tree
    frames = {i: np.hstack([a.frames[i], b.frames[i]]) for i in range(tree.d)}
    transfer = {}
    for node in tree.interior_nodes():
        if node == tree.root:
            continue
        ta, tb = a.transfer[node], b.transfer[node]
        out = np.zeros((ta.shape[0] + tb.shape[0], ta.shape[1] + tb.shape[1],
                        ta.shape[2] + tb.shape[2]))
        out[:ta.shape[0], :ta.shape[1], :ta.shape[2]] = ta
        out[ta.shape[0]:, ta.shape[1]:, ta.shape[2]:] = tb
        transfer[node] = out
    ra, rb = a.root_transfer, b.root_transfer
    root = np.zeros((ra.shape[0] + rb.shape[0], ra.shape[1] + rb.shape[1]))
    root[:ra.shape[0], :ra.shape[1]] = ra
    root[ra.shape[0]:, ra.shape[1]:] = rb
    return HTensor._trusted(tree, a.dims, frames, transfer, root)


def scale(c: float, h: HTensor) -> HTensor:
    """Scalar multiple, never flagged orthogonal; only the root changes."""
    return HTensor._trusted(h.tree, h.dims, h.frames, h.transfer,
                            float(c) * h.root_transfer)


def _memoized(h: HTensor, key, compute):
    """``compute()``, evaluated once per tensor ``h`` and ``key``."""
    if key not in h._memo:
        h._memo[key] = compute()
    return h._memo[key]


def norm(h: HTensor) -> float:
    """Euclidean norm: the Frobenius norm of the orthogonal form's root
    transfer, accurate to roundoff relative to the norm (no squared data)."""
    return float(np.linalg.norm(orthogonalize(h).root_transfer))


# -- orthogonalization -------------------------------------------------------


def orthogonalize(h: HTensor) -> HTensor:
    """Equivalent representation with orthonormal frames and transfers.

    One :func:`_qr_sweep` absorbs all triangular factors towards the root
    and leaves the root transfer diagonal with the root-edge singular values
    on it.  Entrywise the tensor is unchanged up to roundoff.  A zero root
    rank (which any zero stored rank forces, by the child-product bound)
    yields the canonical zero tensor.  The form is computed once per
    instance (an orthogonal ``h`` is its own).
    """
    if h.orthogonal:
        return h
    return _memoized(h, "orthogonal_form", lambda: _orthogonal_form(h))


def _orthogonal_form(h: HTensor) -> HTensor:
    """The :func:`_qr_sweep` of :func:`orthogonalize`, uncached."""
    return _qr_sweep(h.tree, h.dims, h.frames, h.transfer, h.root_transfer)


def _qr_sweep(tree: DimensionTree, dims, leaves, transfer, root: np.ndarray,
              weights=None, groups=None) -> HTensor:
    """Orthogonal form of ``sum_j w_j T_j`` for ``m`` tensors ``T_j`` that
    share their transfer tensors and root transfer ``root``: the
    :func:`_sweep` towards the root, then the SVD of its root core.

    ``leaves[i]`` is the stacked leaf frame ``[U_i1 ... U_im]`` of shape
    ``(n_i, m r_i)``; ``weights`` (an array) defaults to one block of weight
    one, and ``groups`` is :func:`_sweep`'s.  The SVD ``U S V^T`` of the root
    core is absorbed into the root children (a root child with the identity
    basis takes ``U`` or ``V`` itself), which makes the root ranks equal and
    leaves the root transfer ``diag(S)`` with the root-edge singular values
    on it.  Nothing is truncated, so the result equals the sum up to
    roundoff; its ranks are the sweep's, the root rank the smaller root
    child rank (see :func:`_stored_ranks`).  A zero root rank yields the
    canonical zero tensor.
    """
    frames, out, core, eye = _sweep(tree, leaves, transfer, root, weights, groups)
    if 0 in core.shape:
        return zero_htensor(tree, dims)
    u, s, vt = _svd(core)
    left, right = tree.child_pair(tree.root)
    _set_root_basis(tree, frames, out, left, u, left in eye)
    _set_root_basis(tree, frames, out, right, vt.T, right in eye)
    return HTensor._trusted(tree, dims, frames, out, np.diag(s), orthogonal=True)


def _sweep(tree: DimensionTree, leaves, transfer, root: np.ndarray,
           weights=None, groups=None):
    """:func:`_qr_sweep` up to its root core: ``(frames, transfer, core,
    eye)``.

    The sum's transfer tensors are block-diagonal in ``j`` and never formed:
    the sweep factors each stacked leaf frame, and at each interior node the
    children's R factors contracted with the shared transfer, block by block
    (:func:`_stacked_block`), so every triangular factor is absorbed towards
    the root.  Only a tall block (more rows than columns) is factored by
    :func:`_qr`.  A block with ``rows <= cols`` keeps the identity as its
    frame or transfer and is its own R factor: its QR would give a square
    basis of the whole space, so the rank is ``rows = min(rows, cols)``
    either way.  The root core is ``sum_j w_j R_L[:, j] B R_R[:, j]^T``.

    ``eye`` is the set of root children with the identity basis.  Their
    entry in ``frames`` or ``transfer`` is not built: the root SVD's factor
    becomes it (:func:`_set_root_basis`).  Every other entry is stored.

    ``groups`` (from :func:`_term_groups`, ``None`` when no terms coincide)
    maps each non-root node to its terms' group labels and one
    representative term per group.  Terms of one group are the same tensor
    below the node, so a node factors one block per group: ``leaves[i]``
    then stacks the representatives only, an interior node takes each
    child's R block of its representatives, and the root core gives every
    term its group's block (``R[:, labels]``).  With ``g`` the number of
    groups at a node (``m`` without grouping), a leaf rank is
    ``min(n_i, g r_i)`` and an interior rank ``min(q_left q_right, g r_node)``
    for the children's new ranks ``q``.
    """
    m = 1 if weights is None else len(weights)
    top = tree.child_pair(tree.root)
    frames: dict[int, np.ndarray] = {}
    out: dict[Node, np.ndarray] = {}
    eye: set[Node] = set()
    rfac: dict[Node, np.ndarray] = {}  # (q, g, r): R factor, one block per group
    for node in tree.bottom_up():
        if node == tree.root:
            continue
        if tree.is_leaf(node):
            block = leaves[node[0]]
        else:
            left, right = tree.child_pair(node)
            rl, rr = rfac[left], rfac[right]
            if groups is not None:
                reps = groups[node][1]
                rl = rl[:, groups[left][0][reps]]
                rr = rr[:, groups[right][0][reps]]
            block = _stacked_block(rl, rr, transfer[node])
        q, r = None, block
        if block.shape[0] > block.shape[1]:
            q, r = _qr(block)
        elif node not in top:
            q = np.eye(block.shape[0])
        if q is None:
            eye.add(node)
        elif tree.is_leaf(node):
            frames[node[0]] = q
        else:
            out[node] = q.reshape(rl.shape[0], rr.shape[0], q.shape[1])
        g = m if groups is None else len(groups[node][1])
        rfac[node] = r.reshape(r.shape[0], g, r.shape[1] // g)

    rl, rr = (rfac[n] for n in top)
    if rl.shape[0] == 0 or rr.shape[0] == 0:
        return frames, out, np.zeros((rl.shape[0], rr.shape[0])), eye
    if groups is not None:
        rl, rr = rl[:, groups[top[0]][0]], rr[:, groups[top[1]][0]]
    # core = sum_j w_j R_L[:, j] B R_R[:, j]^T as one matrix product
    lb = (rl.reshape(-1, rl.shape[2]) @ root).reshape(rl.shape[0], m, -1)
    if weights is not None:
        lb = lb * weights[None, :, None]
    core = lb.reshape(rl.shape[0], -1) @ rr.reshape(rr.shape[0], -1).T
    return frames, out, core, eye


def _set_root_basis(tree: DimensionTree, frames, out, node: Node,
                    basis: np.ndarray, identity: bool):
    """Store root child ``node``'s frame or transfer times ``basis`` in
    ``frames`` or ``out``; with the ``identity`` basis, ``basis`` itself."""
    if tree.is_leaf(node):
        frames[node[0]] = basis if identity else frames[node[0]] @ basis
    elif identity:
        lft, rgt = (frames[c[0]].shape[1] if tree.is_leaf(c) else out[c].shape[2]
                    for c in tree.child_pair(node))
        out[node] = basis.reshape(lft, rgt, basis.shape[1])
    else:
        out[node] = _last_axis_product(out[node], basis)


def _last_axis_product(b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``t[a, b, l] = sum_k b[a, b, k] m[k, l]`` as one GEMM."""
    r1, r2, k = b.shape
    return (b.reshape(r1 * r2, k) @ m).reshape(r1, r2, m.shape[1])


def _stacked_block(rl: np.ndarray, rr: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix ``C[(x, y), (j, c)] = sum_ab rl[x, j, a] rr[y, j, b]
    b[a, b, c]`` that :func:`_qr_sweep` factors at an interior node, for the
    children's per-term R factors ``rl`` ``(q1, m, r1)`` and ``rr``
    ``(q2, m, r2)`` and the shared transfer ``b`` ``(r1, r2, k)``: one GEMM
    of ``rr`` with ``b``, then one matrix product per term, batched."""
    q1, m, r1 = rl.shape
    q2, r2, k = rr.shape[0], rr.shape[2], b.shape[2]
    # s[y, j, a, c] = sum_b rr[y, j, b] b[a, b, c]
    s = rr.reshape(q2 * m, r2) @ b.transpose(1, 0, 2).reshape(r2, r1 * k)
    s = s.reshape(q2, m, r1, k).transpose(1, 2, 0, 3).reshape(m, r1, q2 * k)
    c = np.matmul(rl.transpose(1, 0, 2), s)  # (j, x, (y, c))
    return c.reshape(m, q1, q2, k).transpose(1, 2, 0, 3).reshape(q1 * q2, m * k)


def _term_groups(tree: DimensionTree, terms):
    """The terms grouped by their factors on each non-root node's modes, for
    :func:`_qr_sweep`; ``None`` when every leaf's factors are pairwise
    distinct (then so is every node's, and nothing groups).

    Two terms share a group at a node when, mode by mode, their factors
    there are the same object (every ``None`` is the same identity); a
    parent's group is thus a pair of child groups.  ``groups[node]`` is
    ``(labels, reps)``: term ``j``'s group ``labels[j]``, groups numbered by
    first occurrence, and ``reps[k]`` the first term of group ``k``.
    """
    m = len(terms)
    if all(len(set(map(id, factors))) == m for factors in zip(*terms)):
        return None
    labels: dict[Node, list[int]] = {}
    groups = {}
    for node in tree.bottom_up():
        if node == tree.root:
            continue
        if tree.is_leaf(node):
            keys = [id(t[node[0]]) for t in terms]
        else:
            left, right = tree.child_pair(node)
            keys = list(zip(labels[left], labels[right]))
        index: dict = {}
        reps = []
        for j, key in enumerate(keys):
            if key not in index:
                index[key] = len(reps)
                reps.append(j)
        labels[node] = [index[key] for key in keys]
        groups[node] = (np.array(labels[node], dtype=np.intp),
                        np.array(reps, dtype=np.intp))
    return groups


class _CPPlan(NamedTuple):
    """What applying ``m`` CP terms on a tree needs besides the tensor, built
    once by :func:`_cp_plan`: the terms' :func:`_term_groups` and one leaf
    map per mode (:func:`_leaf_map`)."""

    groups: dict | None
    maps: tuple


def _cp_plan(tree: DimensionTree, dims, terms) -> _CPPlan:
    """The plan of ``terms`` (per-mode factor tuples, see :func:`apply_cp`)
    on ``tree`` for mode sizes ``dims``."""
    groups = _term_groups(tree, terms)
    maps = []
    for i, n in enumerate(dims):
        picked = terms if groups is None else [terms[j] for j in groups[(i,)][1]]
        maps.append(_leaf_map([t[i] for t in picked], n))
    return _CPPlan(groups, tuple(maps))


def _leaf_map(factors, n: int):
    """One mode's distinct factors as one operand for :func:`_mapped_leaf`:
    ``None`` for the identity alone, the ``(n, g)`` matrix of the diagonals
    when every factor is one (exp-sum terms), and
    otherwise the ``vstack`` of the factors as CSR matrices (``None`` the
    identity, a 1-d array a diagonal, anything else a dense or scipy-sparse
    matrix)."""
    if len(factors) == 1 and factors[0] is None:
        return None
    if all(isinstance(f, np.ndarray) and f.ndim == 1 for f in factors):
        return np.array(factors).T

    def csr(f):
        if f is None:
            f = np.ones(n)
        if isinstance(f, np.ndarray) and f.ndim == 1:
            return scipy.sparse.csr_array((f, np.arange(n), np.arange(n + 1)),
                                          shape=(n, n))
        return scipy.sparse.csr_array(f)

    return scipy.sparse.vstack([csr(f) for f in factors], format="csr")


def _mapped_leaf(leaf_map, u: np.ndarray) -> np.ndarray:
    """The stacked leaf frame ``[M_1 U ... M_g U]`` of a :func:`_leaf_map`.
    Both products are bitwise the factors' own (``d[:, None] * U`` for a
    diagonal ``d``, ``M @ U`` for a CSR ``M``): a broadcast product, or one
    CSR product whose rows are each factor's rows."""
    if leaf_map is None:
        return u
    n, r = u.shape
    if isinstance(leaf_map, np.ndarray):
        return (leaf_map[:, :, None] * u[:, None, :]).reshape(n, -1)
    g = leaf_map.shape[0] // n
    return (leaf_map @ u).reshape(g, n, r).transpose(1, 0, 2).reshape(n, g * r)


def _apply_stages(h: HTensor, stages) -> HTensor:
    """Exact ``P_k ... P_1 h`` in orthogonal form, for stages ``(plan,
    weights)`` that each apply a weighted CP sum of a :func:`_cp_plan`
    (``weights`` one per term, or ``None`` for a single term of weight one).
    Each stage is one :func:`_sweep`.  Only the last takes the root SVD
    (:func:`_qr_sweep`): an earlier one hands its frames, transfers and root
    core to the next as they are, the core possibly rectangular and an
    identity root child's basis built as such.  The result has the ranks of
    the last stage's sweep."""
    tree = h.tree
    frames, transfer, root = h.frames, h.transfer, h.root_transfer
    for k, (plan, weights) in enumerate(stages, 1):
        leaves = {i: _mapped_leaf(plan.maps[i], frames[i]) for i in range(tree.d)}
        if k == len(stages):
            return _qr_sweep(tree, h.dims, leaves, transfer, root, weights,
                             plan.groups)
        frames, transfer, root, eye = _sweep(tree, leaves, transfer, root,
                                             weights, plan.groups)
        for node, rows in zip(tree.child_pair(tree.root), root.shape):
            if node in eye:
                _set_root_basis(tree, frames, transfer, node, np.eye(rows), True)


def apply_cp(h: HTensor, terms, weights=None) -> HTensor:
    """Exact ``sum_j w_j (M_j1 x ... x M_jd) h`` in orthogonal form.

    ``terms`` is a sequence of ``m`` per-mode factor tuples (``None`` for an
    identity, a 1-d array for a diagonal, or a dense or scipy-sparse square
    matrix); ``weights`` defaults to all ones.  The stacked leaf frames
    ``[M_1i U_i ... M_mi U_i]`` and the unchanged transfer tensors go
    through one :func:`_qr_sweep`, which never forms the sum's
    block-diagonal transfers and truncates nothing, so the result equals the
    sum up to roundoff.  The terms' :func:`_cp_plan` is built per call;
    :func:`~htsolve.ops.apply_certified` keeps its plans and applies them
    through :func:`_apply_stages`.

    Terms whose factors on a node's modes are the same objects (``None``
    being the identity) are the same tensor below that node, so the sweep
    factors them once there (:func:`_term_groups`): a leaf stacks only its
    distinct factors, and an interior node one block per distinct
    restricted term.  With ``g`` distinct restricted terms at a node
    (``g = m`` where all differ), its rank is at most
    ``min(q_left q_right, g r_node)`` for the children's new ranks ``q``
    (``min(n_i, g r_i)`` at a leaf).  The ranks are within each node's own
    matricization size but, below the root children, may exceed the size of
    its complement (like any exact sum, see :class:`HTensor`); a
    recompression removes such excess.
    """
    m = len(terms)
    if m == 0:
        raise ValueError("apply_cp needs at least one term")
    if any(len(t) != h.d for t in terms):
        raise ValueError(f"every term needs {h.d} factors")
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {w.shape}")
    return _apply_stages(h, [(_cp_plan(h.tree, h.dims, terms), w)])


# -- spectra and hard truncation ----------------------------------------------


@dataclass(frozen=True, eq=False)
class EdgeSpectrum:
    """Singular values of every effective matricization, with tail sums.

    ``sigmas[e]`` is the nonincreasing spectrum of edge ``e``.  Values at or
    below ``ZERO_CUTOFF * sigmas[e][0]`` count as numerically zero: they are
    left out of the tails, so floating-point noise cannot pollute a
    certificate, and ``numerical_ranks[e]`` counts the values above the
    cutoff.  ``tails2[e][r] = sum_{k > r} sigma_k^2`` over the cleaned
    values, and ``tail(e, r)`` is its square root: the certified error of
    truncating edge ``e`` alone to rank ``r``.
    """

    edges: EdgeList
    sigmas: tuple[np.ndarray, ...]
    tails2: tuple[np.ndarray, ...] = field(init=False, repr=False)
    numerical_ranks: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        # the SVD's fresh spectra are frozen in place, not copied
        sig = tuple(_frozen(np.asarray(s, dtype=np.float64)) for s in self.sigmas)
        tails2, ranks = [], []
        for s in sig:
            t = np.zeros(s.size + 1)
            rank = 0
            if s.size:
                sc = np.where(s > ZERO_CUTOFF * s[0], s, 0.0)
                # ascending accumulation, written back to front
                np.cumsum(np.square(sc[::-1]), out=t[-2::-1])
                rank = int(np.count_nonzero(sc))
            t.setflags(write=False)
            tails2.append(t)
            ranks.append(rank)
        object.__setattr__(self, "sigmas", sig)
        object.__setattr__(self, "tails2", tuple(tails2))
        object.__setattr__(self, "numerical_ranks", tuple(ranks))

    def __len__(self):
        return len(self.sigmas)

    def tail(self, e: int, r: int) -> float:
        t = self.tails2[e]
        return float(np.sqrt(t[min(int(r), len(t) - 1)]))


def edge_spectra(h: HTensor) -> EdgeSpectrum:
    """Exact edge singular values, computed without densification.

    This is the spectrum every truncation chooses its ranks from (see
    :func:`_projection_data`), so ranks chosen from it are the ranks the
    truncation realizes.
    """
    return _projection_data(orthogonalize(h))[0]


def _projection_data(ho: HTensor):
    """Per-edge spectra plus the truncation bases for every non-root node,
    one :func:`_edge_decomposition` per edge.  Computed once per instance."""
    return _memoized(ho, "projection", lambda: _spectral_decomposition(ho))


def _square_root_factors(ho: HTensor) -> dict[Node, np.ndarray]:
    """Per non-root node, a factor ``F`` such that the node's matricization
    has the singular values of ``F`` (``F F^T`` is the Gram matrix of the
    node's coefficient environment).  One root-to-leaves sweep, computed once
    per instance: the root children start from the root transfer ``B`` (``B``
    resp. ``B^T``), and a child's factor is its parent's transfer tensor
    contracted with the parent's factor.  A factor wider than square is
    replaced by ``R^T`` from ``F^T = Q R`` (the same Gram matrix)."""
    return _memoized(ho, "factors", lambda: _factor_sweep(ho))


def _factor_sweep(ho: HTensor) -> dict[Node, np.ndarray]:
    tree = ho.tree
    left, right = tree.child_pair(tree.root)
    factors = {left: ho.root_transfer, right: ho.root_transfer.T}
    for node in tree.nodes[1:]:  # preorder after the root: parents come first
        f = factors[node]
        if f.shape[1] > f.shape[0]:
            f = factors[node] = _qr(f.T, mode="r").T
        if tree.is_leaf(node):
            continue
        t = _last_axis_product(ho.transfer[node], f)
        lft, rgt = tree.child_pair(node)
        r1, r2, c = t.shape
        factors[lft] = t.reshape(r1, r2 * c)
        factors[rgt] = t.transpose(1, 0, 2).reshape(r2, r1 * c)
    return factors


def _spectral_decomposition(ho: HTensor):
    edges = ho.edge_list
    vectors: dict[Node, np.ndarray] = {}
    sigmas = []
    for node in edges:
        bases, sigma = _edge_decomposition(ho, node)
        vectors.update(bases)
        sigmas.append(sigma)
    return EdgeSpectrum(edges=edges, sigmas=tuple(sigmas)), vectors


def _edge_decomposition(ho: HTensor, node: Node):
    """Truncation bases and spectrum ``S`` of the effective edge at ``node``
    of an orthogonal form ``ho``, the bases keyed by node.

    At the root edge (``node`` the left root child) ``S`` is the root
    transfer's diagonal, the root-edge singular values, and both root
    children get the identity basis.  Every other node takes the thin SVD
    ``U S W^T`` of its :func:`_square_root_factors` entry, accurate to order
    ``u sigma_1`` for unit roundoff ``u`` since no data is squared; a tall
    factor's missing directions have sigma 0, which the tails ignore.
    """
    left, right = ho.tree.child_pair(ho.tree.root)
    if node == left:
        eye = np.eye(ho.root_transfer.shape[0])
        return {left: eye, right: eye}, np.diag(ho.root_transfer)
    u, s, _ = _svd(_square_root_factors(ho)[node])
    return {node: u}, s


def _project(ho: HTensor, vectors: dict[Node, np.ndarray], node_ranks: dict[Node, int]) -> HTensor:
    """Apply the per-edge rank-``r`` truncation projections in one pass and
    return the result's :func:`_qr_sweep`.

    A node without an entry in ``vectors`` keeps its frame or transfer axis
    (its projection is the identity).  ``node_ranks`` may exceed a child
    product (the certified error bound does not need it); the sweep's QR
    caps every rank at its child product, which changes nothing entrywise
    (see :func:`_stored_ranks`).
    """
    tree = ho.tree

    def basis(node: Node) -> np.ndarray | None:
        v = vectors.get(node)
        return None if v is None else v[:, :min(node_ranks[node], v.shape[1])]

    frames = {}
    for i in range(tree.d):
        v = basis((i,))
        frames[i] = ho.frames[i] if v is None else ho.frames[i] @ v
    transfer = {}
    for node, b in ho.transfer.items():
        left, right = tree.child_pair(node)
        transfer[node] = _project_transfer(b, basis(left), basis(right),
                                           basis(node))
    left, right = tree.child_pair(tree.root)
    root = ho.root_transfer
    if (v := basis(left)) is not None:
        root = v.T @ root
    if (v := basis(right)) is not None:
        root = root @ v
    return _qr_sweep(tree, ho.dims, frames, transfer, root)


def _cut_root_edge(ho: HTensor, sigma: np.ndarray) -> HTensor:
    """The orthogonal form ``ho`` with its root edge cut to ``k = len(sigma)``
    and root transfer ``diag(sigma)``, for ``sigma`` nonnegative and
    nonincreasing: both root children keep the first ``k`` columns of their
    basis, so no sweep runs.  With ``sigma`` the root transfer's leading
    diagonal this is the rank-``k`` truncation of the root edge; a shrunk
    diagonal gives the root edge's soft threshold.  ``k = 0`` gives the
    canonical zero tensor."""
    tree = ho.tree
    k = len(sigma)
    if k == 0:
        return zero_htensor(tree, ho.dims)
    frames, transfer = dict(ho.frames), dict(ho.transfer)
    for node in tree.child_pair(tree.root):
        if tree.is_leaf(node):
            frames[node[0]] = frames[node[0]][:, :k]
        else:
            transfer[node] = transfer[node][:, :, :k]
    return HTensor._trusted(tree, ho.dims, frames, transfer, np.diag(sigma),
                            orthogonal=True)


def _project_transfer(b: np.ndarray, vl, vr, vk) -> np.ndarray:
    """``sum_abk b[a, b, k] vl[a, A] vr[b, B] vk[k, K]``, one axis at a time
    (last, first, middle); a basis of ``None`` leaves its axis alone."""
    if vk is not None:
        b = _last_axis_product(b, vk)
    if vl is not None:
        r1, r2, k = b.shape
        b = (vl.T @ b.reshape(r1, r2 * k)).reshape(vl.shape[1], r2, k)
    if vr is not None:
        b = np.matmul(vr.T, b)
    return b


def _choose_ranks(spectrum: EdgeSpectrum, eta: float) -> tuple[list[int], float]:
    """Rank vector for a certified total tail <= eta.

    Among feasible vectors the maximal rank is minimal; ties are broken by an
    even per-edge split of the budget, repaired upward where needed, then a
    deterministic greedy trim minimizing the total stored parameters, and
    finally groups of equal singular values are never split when the cap
    permits keeping them together.
    """
    tails2, num_ranks = spectrum.tails2, spectrum.numerical_ranks
    E = len(tails2)
    if eta == 0.0:
        return list(num_ranks), 0.0  # the cleaned tails vanish there
    eta2 = (eta * (1.0 - 1e-12)) ** 2

    def total2(ranks) -> float:
        return float(sum(t[min(r, nr)] for t, nr, r in zip(tails2, num_ranks, ranks)))

    # minimal feasible maximal rank
    m_star = 0
    while total2([m_star] * E) > eta2:
        m_star += 1
    caps = [min(m_star, nr) for nr in num_ranks]

    # even split of the budget, capped
    per_edge = eta2 / E
    ranks = [min(int(np.argmax(t <= per_edge)), cap) for t, cap in zip(tails2, caps)]
    # repair upward until certified
    cur = total2(ranks)
    while cur > eta2:
        best, best_tail = -1, -1.0
        for e in range(E):
            if ranks[e] < caps[e]:
                t = tails2[e][ranks[e]]
                if t > best_tail:
                    best, best_tail = e, t
        cur += tails2[best][ranks[best] + 1] - tails2[best][ranks[best]]
        ranks[best] += 1
    # greedy trim: drop ranks while the certificate still holds; one pass,
    # since a drop only raises cur and so re-enables no earlier edge's drop
    for e in range(E):
        t = tails2[e]
        while ranks[e] > 0 and cur - t[ranks[e]] + t[ranks[e] - 1] <= eta2:
            cur += t[ranks[e] - 1] - t[ranks[e]]
            ranks[e] -= 1
    # never split a group of equal singular values when the cap permits
    for e in range(E):
        s = spectrum.sigmas[e]
        while 0 < ranks[e] < caps[e] and s[ranks[e]] >= s[ranks[e] - 1] * (1.0 - 1e-12):
            cur += tails2[e][ranks[e] + 1] - tails2[e][ranks[e]]
            ranks[e] += 1
    return ranks, float(np.sqrt(max(cur, 0.0)))


def _stored_ranks(tree: DimensionTree, edge_ranks) -> tuple[int, ...]:
    """Edge ranks that :func:`_project` stores for requested ``edge_ranks``.

    A requested rank above the child product is reduced to it (the QR sweep
    does this exactly, so the certified bound is unaffected), and the two
    root children end up sharing the smaller of their ranks.
    """
    node_ranks = _node_rank_map(tree, edge_ranks)
    for node in tree.bottom_up():
        if node == tree.root or tree.is_leaf(node):
            continue
        left, right = tree.child_pair(node)
        node_ranks[node] = min(node_ranks[node],
                               node_ranks[left] * node_ranks[right])
    left, right = tree.child_pair(tree.root)
    node_ranks[left] = min(node_ranks[left], node_ranks[right])
    return tuple(node_ranks[n] for n in effective_edges(tree))


def _truncate(h: HTensor, eta: float) -> tuple[HTensor, float]:
    """:func:`recompress`'s result and its certified error bound.

    Ranks come from :func:`_choose_ranks` on the edge spectrum and the bound
    is their total tail; the truncation bases come from the same
    :func:`_projection_data`, so the bound belongs to the spectrum that chose
    the ranks.  The result's stored ranks are :func:`_stored_ranks` of the
    chosen ones.  When no rank is cut the orthogonal form itself is returned.
    ``eta >= norm(h)`` yields the canonical zero tensor with bound
    ``norm(h)``, its true error.  A negative or NaN ``eta`` raises
    ``ValueError``; ``eta = inf`` is valid.
    """
    if not eta >= 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    nh = norm(h)
    if nh == 0.0 or (eta > 0 and eta >= nh):
        return zero_htensor(h.tree, h.dims), nh
    ho = orthogonalize(h)
    spectrum, vectors = _projection_data(ho)
    ranks, bound = _choose_ranks(spectrum, eta)
    if tuple(ranks) == ho.ranks:
        return ho, bound
    if tuple(ranks[1:]) == ho.ranks[1:]:  # the root edge alone is cut
        return _cut_root_edge(ho, spectrum.sigmas[0][:ranks[0]]), bound
    return _project(ho, vectors, _node_rank_map(ho.tree, ranks)), bound


def recompress(h: HTensor, eta: float) -> HTensor:
    """Certified hard truncation: ``norm(h - recompress(h, eta)) <= eta``.

    The result is orthogonalized (see :func:`_truncate`).  ``eta >= norm(h)``
    yields the canonical zero tensor (its true error is exactly
    ``norm(h)``); ``eta = 0`` trims exactly the numerically-zero singular
    values, changing the tensor only at roundoff level.
    """
    return _truncate(h, eta)[0]


# -- contractions and coarsening ----------------------------------------------


@dataclass(frozen=True, eq=False)
class ContractionSet:
    """Per-mode contraction values ``pi^(i)``.

    ``pis[i][k]`` is the norm of the slice of the tensor at mode-``i`` index
    ``k``; in particular ``norm(pis[i]) = norm(h)`` for every mode, and
    zeroing a set of slices changes the tensor by exactly the combined mass
    of the removed values of any single mode (and at most the combined mass
    across modes when several modes are restricted at once).
    """

    pis: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "pis",
                           tuple(_ro(np.asarray(p, dtype=np.float64)) for p in self.pis))

    def __len__(self):
        return len(self.pis)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.pis[i]

    @property
    def supports(self) -> tuple[int, ...]:
        """Per mode, the number of slices of numerically nonzero mass.

        As for singular values in :class:`EdgeSpectrum`, a value at or below
        ``ZERO_CUTOFF`` times the largest scale counts as zero; here that
        scale is ``norm(pis[i])``, the tensor's norm for every mode.
        """
        return tuple(int(np.count_nonzero(p > ZERO_CUTOFF * np.linalg.norm(p)))
                     for p in self.pis)


def contractions(h: HTensor) -> ContractionSet:
    """Mode-frame contraction values, computed without densification, once
    per orthogonal form."""
    ho = orthogonalize(h)
    return _memoized(ho, "contractions", lambda: _contraction_set(ho))


def _contraction_set(ho: HTensor) -> ContractionSet:
    """Row norms of each leaf frame times its square-root factor."""
    factors = _square_root_factors(ho)
    return ContractionSet(pis=tuple(
        np.linalg.norm(ho.frames[i] @ factors[(i,)], axis=1)
        for i in range(ho.d)))


def select_support(pis, eta: float):
    """Support selection rule on raw contraction values.

    Keeps the ``N`` largest values across all modes (ties broken by mode then
    index), with ``N`` minimal such that the combined discarded mass ``s_N``
    is at most ``eta``.  Returns ``(sets, N, s_N)``.
    """
    if not eta >= 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    pis = [np.asarray(p, dtype=np.float64) for p in pis]
    entries = [(p[k], i, k) for i, p in enumerate(pis) for k in range(len(p))]
    entries.sort(key=lambda t: (-t[0], t[1], t[2]))
    vals = np.array([t[0] for t in entries])
    suffix2 = np.concatenate([np.cumsum(vals[::-1] ** 2)[::-1], [0.0]])
    n_keep = int(np.argmax(suffix2 <= eta * eta))
    kept = entries[:n_keep]
    sets = tuple(tuple(sorted(k for _, i, k in kept if i == mode))
                 for mode in range(len(pis)))
    return sets, n_keep, float(np.sqrt(suffix2[n_keep]))


def coarsen(h: HTensor, eta: float) -> HTensor:
    """Certified support reduction: ``norm(h - coarsen(h, eta)) <= eta``.

    Keeps the support :func:`select_support` picks from the tensor's
    contraction values; the discarded mass it returns is the certificate.
    ``eta >= norm(h)`` or an empty support yields the canonical zero tensor
    (the true error of dropping everything is ``norm(h)``), and a support
    that drops nothing returns ``h`` itself.  With ``eta = 0`` only index
    slices of exactly zero contraction mass are removed, so the tensor is
    unchanged.  A negative or NaN ``eta`` raises ``ValueError`` (from
    :func:`select_support`).
    """
    if eta > 0 and eta >= norm(h):
        return zero_htensor(h.tree, h.dims)
    sets, n_keep, _ = select_support(contractions(h).pis, eta)
    if n_keep == 0:
        return zero_htensor(h.tree, h.dims)
    if all(len(s) == n for s, n in zip(sets, h.dims)):
        return h
    return restrict_support(h, sets)


def restrict_support(h: HTensor, sets) -> HTensor:
    """Zero all frame rows outside the given per-mode index sets (exact)."""
    if len(sets) != h.d:
        raise ValueError(f"expected {h.d} index sets, got {len(sets)}")
    frames = {}
    for i in range(h.d):
        keep = np.zeros(h.dims[i], dtype=bool)
        idx = np.asarray(sorted(int(k) for k in sets[i]), dtype=int)
        if idx.size:
            if idx[0] < 0 or idx[-1] >= h.dims[i]:
                raise IndexError(f"support set for mode {i} out of range")
            keep[idx] = True
        frames[i] = np.where(keep[:, None], h.frames[i], 0.0)
    return HTensor._trusted(h.tree, h.dims, frames, h.transfer, h.root_transfer)


# -- approximation-class diagnostics -----------------------------------------


def as_quasinorm(seq, s: float) -> float:
    """Quasi-norm ``sup_N (N+1)^s * tail_N`` of a nonnegative sequence,
    where ``tail_N`` is the l2 mass beyond the ``N`` largest entries."""
    if s <= 0:
        raise ValueError(f"decay exponent must be positive, got s={s}")
    a = np.sort(np.abs(np.asarray(seq, dtype=np.float64).ravel()))[::-1]
    tails = np.sqrt(np.concatenate([np.cumsum(a[::-1] ** 2)[::-1], [0.0]]))
    n = np.arange(len(tails), dtype=np.float64) + 1.0
    return float(np.max(n**s * tails))
