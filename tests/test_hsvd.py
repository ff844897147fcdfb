import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import htsolve.hsvd as H
from htsolve.htree import build_balanced_tree, build_linear_tree, effective_edges
from htsolve.problems import load_problem
from htsolve.solver import default_config, solve
from htsolve.softthresh import soft_threshold, soft_threshold_edge
from htsolve.tensorfile import load_htensor, save_htensor

from oracles import (
    ORTHONORMAL_TOL,
    SUM_CASES,
    best_tucker_error,
    dense_contractions,
    dense_edge_singular_values,
    dense_numerical_ranks,
    dense_truncation_tail,
    inner,
    matricize,
    random_lowish_rank,
    random_sum,
    total_tail,
    truncate_to_ranks,
)

TREES = [build_balanced_tree(2), build_balanced_tree(3), build_linear_tree(3),
         build_balanced_tree(4), build_linear_tree(5)]


def rand_dims(tree, rng, lo=2, hi=6):
    return tuple(int(n) for n in rng.integers(lo, hi, size=tree.d))


# -- dense round trips -------------------------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_from_dense_exact_round_trip(tree):
    rng = np.random.default_rng(7 + tree.d)
    data = rng.standard_normal(rand_dims(tree, rng))
    h = H.from_dense(data, tree)
    assert h.orthogonal
    assert np.linalg.norm(H.to_dense(h) - data) <= 1e-12 * np.linalg.norm(data)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_from_dense_exact_ranks(tree):
    rng = np.random.default_rng(17 + tree.d)
    dims = rand_dims(tree, rng, 3, 6)
    data = random_lowish_rank(tree, dims, 2, rng)  # separable rank 2
    h = H.from_dense(data, tree)
    for node, rank in zip(effective_edges(tree), h.ranks):
        true_rank = np.linalg.matrix_rank(matricize(data, node), tol=1e-10)
        assert rank == true_rank
    # ranks never exceed the matricization caps
    assert all(r <= c for r, c in zip(h.ranks, H.max_ranks(tree, dims)))


# besides random dims, dims that make the larger root child a right leaf, a
# left leaf, a right or a left interior node, and dims whose nodes larger than
# their complement run from it down to a left or a right leaf
FROM_DENSE_DIMS = {2: [(3, 5)], 3: [(2, 2, 7), (7, 2, 2)],
                   4: [(2, 2, 3, 4), (2, 2, 2, 30)],
                   5: [(2, 2, 2, 3, 3), (17, 2, 2, 2, 2), (2, 2, 2, 2, 40)]}


@pytest.mark.parametrize("tree,dims", [
    (tree, dims) for tree in TREES
    for dims in [None] + FROM_DENSE_DIMS[tree.d]],
    ids=lambda v: f"d{v.d}" if hasattr(v, "d") else str(v))
@pytest.mark.parametrize("kind", ["gaussian", "low_rank", "zero"])
def test_from_dense_against_dense_oracle(tree, dims, kind):
    rng = np.random.default_rng(23 + tree.d)
    dims = dims or rand_dims(tree, rng, 2, 6)
    data = {"gaussian": lambda: rng.standard_normal(dims),
            "low_rank": lambda: random_lowish_rank(tree, dims, 2, rng),
            "zero": lambda: np.zeros(dims)}[kind]()
    h = H.from_dense(data, tree)
    assert h.ranks == dense_numerical_ranks(data, tree)
    assert H.orthogonalize(h) is h
    assert np.linalg.norm(H.to_dense(h) - data) <= 1e-12 * np.linalg.norm(data)


@pytest.mark.parametrize("tree,dims,kind", [
    (build_balanced_tree(3), (4000, 2, 2), "gaussian"),
    (build_balanced_tree(3), (2, 2, 4000), "gaussian"),
    (build_balanced_tree(3), (2, 4000, 2), "gaussian"),
    (build_balanced_tree(5), (300, 2, 2, 2, 2), "gaussian"),
    (build_linear_tree(4), (2, 2, 2, 500), "gaussian"),
    (build_linear_tree(4), (500, 2, 2, 2), "gaussian"),
    (build_balanced_tree(2), (200, 200), "smooth"),
    (build_balanced_tree(4), (16, 16, 16, 16), "smooth"),
    (build_linear_tree(4), (32, 32, 32, 32), "smooth")],
    ids=lambda v: f"d{v.d}" if hasattr(v, "d") else str(v))
def test_from_dense_allocates_little(tree, dims, kind):
    # per-node SVDs of the matricizations peak below 8 times the data's bytes
    # on these inputs.  An identity basis on a node larger than its complement
    # would take the square of its size (128 MB for a mode of 4000), and one
    # on each root child of low-rank data twice the data's size.
    if kind == "gaussian":
        x = np.random.default_rng(5).standard_normal(dims)
    else:
        x = 1.0 / (1.0 + sum(np.meshgrid(*[np.linspace(0, 1, n) for n in dims],
                                          indexing="ij", sparse=True)))
    tracemalloc.start()
    try:
        h = H.from_dense(x, tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * x.nbytes
    assert h.ranks == dense_numerical_ranks(x, tree)
    assert np.linalg.norm(H.to_dense(h) - x) <= 1e-12 * np.linalg.norm(x)


def test_from_dense_with_tolerance():
    rng = np.random.default_rng(3)
    tree = build_balanced_tree(3)
    data = random_lowish_rank(tree, (5, 4, 5), 2, rng, noise=0.05)
    tol = 0.3 * np.linalg.norm(data)
    h = H.recompress(H.from_dense(data, tree), tol)
    assert h.orthogonal
    assert np.linalg.norm(H.to_dense(h) - data) <= tol
    assert max(h.ranks) < max(H.from_dense(data, tree).ranks)
    with pytest.raises(ValueError):
        H.recompress(H.from_dense(data, tree), -1.0)


def test_from_dense_zero_input():
    tree = build_balanced_tree(3)
    h = H.from_dense(np.zeros((3, 3, 3)), tree)
    assert h.ranks == (0, 0, 0)
    assert H.norm(h) == 0.0


@pytest.mark.parametrize("shape, rank", [
    ((40, 40), 40), ((60, 7), 7), ((7, 60), 7), ((30, 25), 3)],
    ids=["square", "tall", "wide", "rank_deficient"])
def test_from_dense_order_two_takes_one_svd(shape, rank, monkeypatch):
    # the root SVD's U, S and V already form the orthogonal form, so the
    # recompression runs no QR sweep and no second root SVD
    rng = np.random.default_rng(31)
    data = (rng.standard_normal((shape[0], rank))
            @ rng.standard_normal((rank, shape[1])))
    calls = counting(monkeypatch, "_qr", "_svd")
    h = H.from_dense(data, build_balanced_tree(2))
    assert calls == {"_qr": 0, "_svd": 1}
    assert h.orthogonal and h.ranks == (rank,)
    for u in h.frames.values():
        assert np.abs(u.T @ u - np.eye(rank)).max() <= ORTHONORMAL_TOL
    sigma = np.diag(h.root_transfer)
    assert np.array_equal(h.root_transfer, np.diag(sigma))
    assert (sigma > 0).all() and (np.diff(sigma) <= 0).all()
    assert np.linalg.norm(H.to_dense(h) - data) <= 1e-13 * np.linalg.norm(data)


def test_to_dense_guard():
    tree = build_balanced_tree(3)
    h = H.zero_htensor(tree, (100, 100, 100))
    with pytest.raises(ValueError, match="entries"):
        H.to_dense(h, max_entries=1e5)
    H.to_dense(h, max_entries=1e6)  # override works


# -- exact arithmetic ---------------------------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_add_scale_inner_against_dense(tree):
    rng = np.random.default_rng(100 + tree.d)
    dims = rand_dims(tree, rng)
    xa = rng.standard_normal(dims)
    xb = rng.standard_normal(dims)
    ha, hb = H.from_dense(xa, tree), H.from_dense(xb, tree)
    scale_ref = np.linalg.norm(xa) + np.linalg.norm(xb)
    assert np.linalg.norm(H.to_dense(H.add(ha, hb)) - (xa + xb)) <= 1e-12 * scale_ref
    difference = H.add(ha, H.scale(-1.0, hb))
    assert np.linalg.norm(H.to_dense(difference) - (xa - xb)) <= 1e-12 * scale_ref
    assert np.linalg.norm(H.to_dense(H.scale(-2.5, ha)) + 2.5 * xa) <= 1e-12 * scale_ref
    assert inner(ha, hb) == pytest.approx(float((xa * xb).sum()), abs=1e-12 * scale_ref**2)
    assert H.norm(ha) == pytest.approx(np.linalg.norm(xa), abs=1e-12 * scale_ref)


def test_add_rank_bookkeeping():
    rng = np.random.default_rng(5)
    tree = build_balanced_tree(4)
    a = H.random_htensor(tree, (4, 5, 3, 4), 3, rng)
    b = H.random_htensor(tree, (4, 5, 3, 4), 2, rng)
    s = H.add(a, b)
    assert s.ranks == tuple(x + y for x, y in zip(a.ranks, b.ranks))


def test_add_with_zero_operand():
    rng = np.random.default_rng(6)
    tree = build_linear_tree(3)
    a = H.random_htensor(tree, (3, 4, 3), 2, rng)
    z = H.zero_htensor(tree, (3, 4, 3))
    s = H.add(a, z)
    assert s.ranks == a.ranks
    assert np.linalg.norm(H.to_dense(s) - H.to_dense(a)) <= 1e-12 * H.norm(a)


def test_scale_touches_root_only():
    rng = np.random.default_rng(8)
    tree = build_balanced_tree(3)
    h = H.orthogonalize(H.random_htensor(tree, (4, 4, 4), 3, rng))
    g = H.scale(3.0, h)
    assert not g.orthogonal  # frames untouched, but the flag is the sweep's
    for i in range(3):
        assert np.array_equal(g.frames[i], h.frames[i])
    for node in h.transfer:
        assert np.array_equal(g.transfer[node], h.transfer[node])
    assert np.array_equal(g.root_transfer, 3.0 * h.root_transfer)


def test_mismatched_spaces_rejected():
    rng = np.random.default_rng(9)
    a = H.random_htensor(build_balanced_tree(3), (3, 3, 3), 2, rng)
    b = H.random_htensor(build_linear_tree(3), (3, 3, 3), 2, rng)
    c = H.random_htensor(build_balanced_tree(3), (3, 3, 4), 2, rng)
    with pytest.raises(ValueError):
        H.add(a, b)
    with pytest.raises(ValueError):
        inner(a, c)


def test_immutability():
    rng = np.random.default_rng(10)
    h = H.random_htensor(build_balanced_tree(3), (3, 3, 3), 2, rng)
    with pytest.raises(ValueError):
        h.frames[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        h.root_transfer[0, 0] = 1.0


# -- orthogonalization --------------------------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_orthogonalize(tree):
    rng = np.random.default_rng(40 + tree.d)
    dims = rand_dims(tree, rng)
    h = H.random_htensor(tree, dims, 3, rng)
    ho = H.orthogonalize(h)
    assert ho.orthogonal
    assert np.linalg.norm(H.to_dense(ho) - H.to_dense(h)) <= 1e-12 * max(H.norm(h), 1)
    # orthonormality of every frame and matricized transfer
    for i in range(tree.d):
        u = ho.frames[i]
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-12
    for node, b in ho.transfer.items():
        m = b.reshape(-1, b.shape[2])
        assert np.abs(m.T @ m - np.eye(m.shape[1])).max() <= 1e-12
    # fast path: an orthogonal tensor is returned as-is
    assert H.orthogonalize(ho) is ho


def test_orthogonalize_rank_deficient_root():
    # overcomplete random components force the root squaring path
    rng = np.random.default_rng(44)
    tree = build_balanced_tree(2)
    frames = {0: rng.standard_normal((3, 5)), 1: rng.standard_normal((6, 5))}
    h = H.HTensor(tree=tree, dims=(3, 6), frames=frames, transfer={},
                  root_transfer=rng.standard_normal((5, 5)))
    ho = H.orthogonalize(h)
    r = ho.root_transfer.shape
    assert r[0] == r[1] <= 3
    assert np.linalg.norm(H.to_dense(ho) - H.to_dense(h)) <= 1e-12 * H.norm(h)


@pytest.mark.parametrize("tree,seed", SUM_CASES)
def test_orthogonalize_is_identity_apply_cp(tree, seed):
    # both run the one QR sweep, on the same bits
    h = random_sum(tree, seed)
    assert_bitwise_equal(H.orthogonalize(h), H.apply_cp(h, [(None,) * tree.d]))


# -- spectra ------------------------------------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_edge_spectra_against_dense(tree):
    rng = np.random.default_rng(60 + tree.d)
    dims = rand_dims(tree, rng, 2, 7)
    data = random_lowish_rank(tree, dims, 3, rng, noise=0.1)
    h = H.from_dense(data, tree)
    spec = H.edge_spectra(h)
    dense = dense_edge_singular_values(data, tree)
    for sm, sd in zip(spec.sigmas, dense):
        k = min(len(sm), len(sd))
        assert np.abs(sm[:k] - sd[:k]).max() <= 1e-10 * max(sd[0], 1)
        if len(sd) > k:
            assert np.abs(sd[k:]).max() <= 1e-10 * max(sd[0], 1)


def test_edge_spectra_of_a_tall_factor():
    # a node whose rank exceeds its complement's size has a tall square-root
    # factor, whose thin SVD leaves out directions of singular value zero
    tree, dims = build_balanced_tree(3), (12, 2, 2)
    rng = np.random.default_rng(0)
    h = H.add(H.random_htensor(tree, dims, 4, rng), H.random_htensor(tree, dims, 4, rng))
    f = H._square_root_factors(H.orthogonalize(h))[(0,)]
    assert f.shape[0] > f.shape[1], f.shape
    data = H.to_dense(h)
    spec = H.edge_spectra(h)
    for sm, sd in zip(spec.sigmas, dense_edge_singular_values(data, tree)):
        k = min(len(sm), len(sd))
        assert np.abs(sm[:k] - sd[:k]).max() <= 1e-13 * sd[0]
        assert np.abs(sm[k:]).max(initial=0.0) <= 1e-13 * sd[0]
        assert np.abs(sd[k:]).max(initial=0.0) <= 1e-13 * sd[0]
    assert spec.numerical_ranks == dense_numerical_ranks(data, tree)
    g = H.recompress(h, 0.0)
    assert g.ranks == spec.numerical_ranks
    assert np.linalg.norm(H.to_dense(g) - data) <= 1e-13 * np.linalg.norm(data)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_hilbert_schmidt_identity(tree):
    rng = np.random.default_rng(80 + tree.d)
    h = H.random_htensor(tree, rand_dims(tree, rng), 4, rng)
    nrm = H.norm(h)
    spec = H.edge_spectra(h)
    for s in spec.sigmas:
        assert abs(np.linalg.norm(s) - nrm) <= 1e-10 * max(nrm, 1)


GRADED_SIGMAS = np.array([1.0, 1e-3, 1e-6, 1e-9, 1e-12])


def graded_orthogonal_cp(d, n=7, seed=0):
    """``sum_k s_k a_k^(1) x ... x a_k^(d)`` with orthonormal factor columns,
    so every matricization has exactly the singular values ``s``."""
    rng = np.random.default_rng(seed)
    factors = [np.linalg.qr(rng.standard_normal((n, len(GRADED_SIGMAS))))[0]
               for _ in range(d)]
    letters = "abcdefgh"[:d]
    spec = ",".join(f"{c}k" for c in letters) + f",k->{letters}"
    return np.einsum(spec, *factors, GRADED_SIGMAS)


# sigma_5 / sigma_1 = 1e-12 sits far below what squared data (Gram matrices,
# sqrt(inner(h, h))) can resolve, but well above the 1e-14 zero cutoff
@pytest.mark.parametrize("tree", [build_balanced_tree(3), build_linear_tree(4),
                                  build_balanced_tree(4)],
                         ids=["balanced3", "linear4", "balanced4"])
@pytest.mark.parametrize("form", ["from_dense", "sum"])
def test_graded_spectrum_recovered(tree, form):
    data = graded_orthogonal_cp(tree.d)
    h = H.from_dense(data, tree)
    if form == "sum":
        h = H.add(H.scale(0.5, h), H.scale(0.5, h))
        assert not h.orthogonal
    spec = H.edge_spectra(h)
    for sig in spec.sigmas:
        k = len(GRADED_SIGMAS)
        assert np.abs(sig[:k] - GRADED_SIGMAS).max() <= 1e-14
        assert np.abs(sig[k:]).max(initial=0.0) <= 1e-14
    assert spec.numerical_ranks == (5,) * len(spec)
    exact = H.recompress(h, 0.0)
    assert exact.ranks == (5,) * len(spec)
    assert np.linalg.norm(H.to_dense(exact) - data) <= 1e-14
    assert abs(H.norm(h) - np.linalg.norm(GRADED_SIGMAS)) <= 1e-14


def test_spectra_tail_accessors():
    sig = H.EdgeSpectrum.__new__  # keep pylint quiet; constructed below
    spec = H.EdgeSpectrum(edges=effective_edges(build_balanced_tree(2)),
                          sigmas=(np.array([3.0, 2.0, 1.0]),))
    assert spec.tail(0, 0) == pytest.approx(np.sqrt(14.0))
    assert spec.tail(0, 2) == pytest.approx(1.0)
    assert spec.tail(0, 3) == 0.0
    assert spec.tail(0, 99) == 0.0
    assert total_tail(spec, [1]) == pytest.approx(np.sqrt(5.0))
    # 1e-15 and 1e-16 sit below ZERO_CUTOFF * sigma_1 and leave the tails
    spec = H.EdgeSpectrum(edges=effective_edges(build_balanced_tree(2)),
                          sigmas=(np.array([1.0, 1e-3, 1e-15, 1e-16]),))
    assert spec.numerical_ranks == (2,)
    assert spec.tail(0, 1) == 1e-3
    assert spec.tail(0, 2) == 0.0
    assert list(spec.tails2[0]) == [1.0 + 1e-6, 1e-6, 0.0, 0.0, 0.0]


def spectrum_formula(s):
    """Cleaned squared tails and numerical rank, as first written."""
    cutoff = H.ZERO_CUTOFF * s[0] if s.size else 0.0
    sc = np.where(s > cutoff, s, 0.0)
    sq = np.cumsum(sc[::-1] ** 2)[::-1]
    return np.concatenate([sq, [0.0]]), int(np.count_nonzero(sc))


def _random_spectrum(seed):
    rng = np.random.default_rng(seed)
    s = np.sort(10.0 ** rng.uniform(-18, 2, size=rng.integers(1, 40)))[::-1]
    return s.copy()


@pytest.mark.parametrize("sigma", [_random_spectrum(k) for k in range(6)] + [
    np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1e-15, 1e-15]),  # ties, also below cutoff
    np.array([5.0]),
    np.zeros(4),
    np.zeros(0),
], ids=[f"random{k}" for k in range(6)] + ["tied", "single", "zero", "empty"])
def test_edge_spectrum_matches_formula_and_freezes_in_place(sigma):
    want_tails, want_rank = spectrum_formula(sigma.copy())
    spec = H.EdgeSpectrum(edges=effective_edges(build_balanced_tree(2)),
                          sigmas=(sigma,))
    assert spec.tails2[0].tobytes() == want_tails.tobytes()
    assert spec.numerical_ranks == (want_rank,)
    assert spec.sigmas[0] is sigma  # frozen, not copied
    assert not sigma.flags.writeable and not spec.tails2[0].flags.writeable


# -- zero root rank ------------------------------------------------------------


def zero_sum():
    """An unflagged tensor whose stored ranks are all 0."""
    z = H.zero_htensor(build_balanced_tree(3), (4, 5, 6))
    return H.add(z, z)


def zero_truncation():
    rng = np.random.default_rng(23)
    h = H.random_htensor(build_balanced_tree(3), (4, 5, 6), 2, rng)
    return truncate_to_ranks(h, (0, 0, 0))


@pytest.mark.parametrize("reduce", [
    lambda: H.orthogonalize(zero_sum()),
    lambda: H.coarsen(zero_sum(), 0.0),
    lambda: H.contractions(zero_sum()),
    lambda: H.edge_spectra(zero_sum()),
    lambda: H.contractions(zero_truncation()),
], ids=["orthogonalize", "coarsen", "contractions", "edge_spectra",
        "contractions_of_truncation"])
def test_zero_root_rank_reductions(reduce):
    assert not zero_sum().orthogonal
    out = reduce()
    if isinstance(out, H.HTensor):
        assert out.ranks == (0, 0, 0) and H.norm(out) == 0.0
    elif isinstance(out, H.ContractionSet):
        assert [len(p) for p in out.pis] == [4, 5, 6]
        assert not any(p.any() for p in out.pis)
    else:
        assert out.numerical_ranks == (0, 0, 0)
        assert total_tail(out, (0, 0, 0)) == 0.0


# -- recompression ------------------------------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_plan_execute_realizes_plan(tree):
    rng = np.random.default_rng(210 + tree.d)
    dims = rand_dims(tree, rng, 2, 6)
    h = H.add(H.random_htensor(tree, dims, 3, rng),
              H.scale(0.1, H.random_htensor(tree, dims, 2, rng)))
    dense = H.to_dense(h)
    for frac in (0.0, 0.05, 0.3, 1.0):
        eta = frac * H.norm(h)
        out, bound = H._truncate(h, eta)
        assert out.orthogonal
        if eta < H.norm(h):
            # the result stores the ranks the spectrum chose, and the bound
            # is their tail
            chosen, tail = H._choose_ranks(H.edge_spectra(h), eta)
            assert out.ranks == H._stored_ranks(tree, chosen)
            assert bound == tail
        err = np.linalg.norm(H.to_dense(out) - dense)
        assert err <= bound + 1e-12 * np.linalg.norm(dense)
        assert bound <= eta + 1e-12
        again = H.recompress(h, eta)
        assert again.ranks == out.ranks
        assert np.array_equal(again.root_transfer, out.root_transfer)
    assert out.ranks == (0,) * len(out.ranks)
    assert bound == H.norm(h)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_recompress_certified(tree):
    rng = np.random.default_rng(200 + tree.d)
    for trial in range(25):
        dims = rand_dims(tree, rng, 2, 7)
        data = random_lowish_rank(tree, dims, 3, rng, noise=0.3)
        h = H.from_dense(data, tree)
        eta = float(rng.uniform(0.01, 0.99)) * H.norm(h)
        hr, bound = H._truncate(h, eta)
        ranks = hr.ranks
        err = np.linalg.norm(H.to_dense(hr) - data)
        assert err <= eta
        assert err <= bound + 1e-12
        assert bound <= eta
        # the certificate also matches the tails recomputed densely
        assert err <= dense_truncation_tail(data, tree, ranks) + 1e-12


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_recompress_max_rank_minimal(tree):
    rng = np.random.default_rng(300 + tree.d)
    dims = rand_dims(tree, rng, 3, 7)
    data = random_lowish_rank(tree, dims, 4, rng, noise=0.5)
    h = H.from_dense(data, tree)
    spec = H.edge_spectra(h)
    eta = 0.4 * H.norm(h)
    ranks = H.recompress(h, eta).ranks
    m = max(ranks)
    if m > 0:
        # no vector with smaller maximal rank can be certified
        smaller = [min(m - 1, len(s)) for s in spec.sigmas]
        assert total_tail(spec, smaller) > eta * (1 - 1e-9)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_lossless_reductions_return_their_input(tree):
    # the memo of a tensor is reused only if these are the same objects: a
    # recompression that cuts no rank returns the orthogonal form itself,
    # and a coarsening that drops no slice returns its input
    rng = np.random.default_rng(230 + tree.d)
    h = H.random_htensor(tree, rand_dims(tree, rng, 3, 6), 2, rng)
    assert H.recompress(h, 0.0) is H.orthogonalize(h)
    assert H.coarsen(h, 0.0) is h
    ho = H.orthogonalize(h)
    assert H.coarsen(ho, 0.0) is ho


def test_recompress_known_spectrum():
    # single edge with sigma = (1, 0.5, 0.1), eta = 0.12 -> rank 2, error 0.1
    u = np.diag([1.0, 0.5, 0.1])
    tree = build_balanced_tree(2)
    h = H.from_dense(u, tree)
    hr = H.recompress(h, 0.12)
    assert hr.ranks == (2,)
    assert np.linalg.norm(H.to_dense(hr) - u) == pytest.approx(0.1, abs=1e-12)


def test_recompress_trivial_cases():
    rng = np.random.default_rng(12)
    tree = build_balanced_tree(3)
    data = rng.standard_normal((4, 4, 4))
    h = H.from_dense(data, tree)
    z = H.recompress(h, H.norm(h) * 1.0)
    assert z.ranks == (0, 0, 0) and H.norm(z) == 0.0
    same = H.recompress(h, 0.0)
    assert np.linalg.norm(H.to_dense(same) - data) <= 1e-12 * np.linalg.norm(data)
    with pytest.raises(ValueError):
        H.recompress(h, -0.1)


def test_recompress_quasi_optimality_d3():
    # hard truncation is within sqrt(2d-3) of the best approximation at the
    # same ranks; the reference optimum comes from an independent ALS
    rng = np.random.default_rng(13)
    tree = build_balanced_tree(3)
    factor = np.sqrt(2 * 3 - 3) * 1.001
    for trial in range(5):
        dims = tuple(int(n) for n in rng.integers(3, 6, size=3))
        data = rng.standard_normal(dims)
        h = H.from_dense(data, tree)
        eta = float(rng.uniform(0.2, 0.6)) * H.norm(h)
        hr = H.recompress(h, eta)
        err = np.linalg.norm(H.to_dense(hr) - data)
        r01, r0, r1 = hr.ranks
        best = best_tucker_error(data, (r0, r1, r01))
        assert err <= factor * best + 1e-12


def test_recompress_deterministic():
    rng = np.random.default_rng(14)
    tree = build_linear_tree(4)
    h = H.random_htensor(tree, (4, 3, 5, 4), 4, rng)
    a = H.recompress(h, 0.3 * H.norm(h))
    b = H.recompress(h, 0.3 * H.norm(h))
    assert all(np.array_equal(a.frames[i], b.frames[i]) for i in range(4))
    assert np.array_equal(a.root_transfer, b.root_transfer)


# -- fixed-rank truncation ----------------------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_truncate_to_ranks_certified(tree):
    rng = np.random.default_rng(400 + tree.d)
    dims = rand_dims(tree, rng, 3, 7)
    data = random_lowish_rank(tree, dims, 4, rng, noise=0.4)
    h = H.from_dense(data, tree)
    spec = H.edge_spectra(h)
    for trial in range(10):
        target = []
        ranks = h.ranks
        caps = H.max_ranks(tree, dims)
        node_caps = {}
        for e, node in enumerate(effective_edges(tree)):
            target.append(int(rng.integers(1, ranks[e] + 1)))
        # make the vector admissible wrt the child-product bound
        nmap = H._node_rank_map(tree, target)
        for node in tree.bottom_up():
            if node == tree.root or tree.is_leaf(node):
                continue
            left, right = tree.child_pair(node)
            nmap[node] = min(nmap[node], nmap[left] * nmap[right])
        lft, rgt = tree.child_pair(tree.root)
        nmap[lft] = nmap[rgt] = min(nmap[lft], nmap[rgt])
        target = [nmap[node] for node in effective_edges(tree)]
        ht = truncate_to_ranks(h, target)
        err = np.linalg.norm(H.to_dense(ht) - data)
        assert err <= total_tail(spec, target) + 1e-12


def test_truncate_to_ranks_orthogonal_result():
    rng = np.random.default_rng(24)
    tree = build_linear_tree(4)
    h = H.random_htensor(tree, (3, 4, 3, 4), 3, rng)
    ht = truncate_to_ranks(h, (2, 2, 2, 2, 2))
    assert ht.orthogonal and ht.ranks == (2, 2, 2, 2, 2)


def test_truncate_to_ranks_rejects_bad_vectors():
    rng = np.random.default_rng(15)
    tree = build_balanced_tree(4)
    h = H.from_dense(rng.standard_normal((3, 3, 3, 3)), tree)
    with pytest.raises(ValueError):
        truncate_to_ranks(h, [r + 1 for r in h.ranks])  # above stored ranks
    with pytest.raises(ValueError):
        truncate_to_ranks(h, h.ranks[:-1])  # wrong length
    bad = list(h.ranks)
    bad[1] = bad[2] = 1  # children of the {0,1} edge
    bad[0] = 2           # parent exceeds product 1*1
    with pytest.raises(ValueError, match="child product"):
        truncate_to_ranks(h, bad)


# -- contractions and coarsening ----------------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_contractions_against_dense(tree):
    rng = np.random.default_rng(500 + tree.d)
    dims = rand_dims(tree, rng, 2, 7)
    data = random_lowish_rank(tree, dims, 3, rng, noise=0.2)
    h = H.from_dense(data, tree)
    cs = H.contractions(h)
    nrm = H.norm(h)
    for pi, ref in zip(cs.pis, dense_contractions(data)):
        assert np.abs(pi - ref).max() <= 1e-10 * max(nrm, 1)
        assert abs(np.linalg.norm(pi) - nrm) <= 1e-10 * max(nrm, 1)


def test_select_support_hand_case():
    sets, n_keep, disc = H.select_support([(1.0, 0.2), (0.9, 0.1)], 0.25)
    assert n_keep == 2
    assert sets == ((0,), (0,))
    assert disc == pytest.approx(np.sqrt(0.2**2 + 0.1**2), abs=1e-15)
    # minimality: one fewer entry is not certifiable
    _, n2, _ = H.select_support([(1.0, 0.2), (0.9, 0.1)], 0.95)
    assert n2 == 1


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_coarsen_certified(tree):
    rng = np.random.default_rng(600 + tree.d)
    for trial in range(10):
        dims = rand_dims(tree, rng, 3, 7)
        # decaying slice masses so coarsening has something to do
        data = random_lowish_rank(tree, dims, 2, rng, noise=0.05)
        for i, n in enumerate(dims):
            w = np.exp(-1.5 * np.arange(n))
            data = data * w.reshape([-1 if j == i else 1 for j in range(tree.d)])
        h = H.from_dense(data, tree)
        eta = float(rng.uniform(0.05, 0.8)) * H.norm(h)
        sets, n_keep, disc = H.select_support(H.contractions(h).pis, eta)
        hc = H.coarsen(h, eta)
        err = np.linalg.norm(H.to_dense(hc) - data)
        assert err <= eta
        assert err <= disc + 1e-12
        assert n_keep == sum(len(s) for s in sets)
        # certificate equals the discarded mass recomputed densely
        pis = dense_contractions(data)
        kept2 = sum(float((pis[i][list(s)] ** 2).sum()) for i, s in enumerate(sets))
        total2 = sum(float((p**2).sum()) for p in pis)
        assert disc == pytest.approx(np.sqrt(max(total2 - kept2, 0.0)), abs=1e-12)


def test_coarsen_trivial_cases():
    rng = np.random.default_rng(16)
    tree = build_balanced_tree(3)
    data = rng.standard_normal((4, 3, 4))
    data[:, 1, :] = 0.0
    # from_dense leaves roundoff on the zero slice; zeroing its frame row
    # makes the slice exactly zero
    h = H.restrict_support(H.from_dense(data, tree), [range(4), (0, 2), range(4)])
    z = H.coarsen(h, H.norm(h))
    assert H.norm(z) == 0.0 and z.ranks == (0, 0, 0)
    kept = H.coarsen(h, 0.0)
    assert np.linalg.norm(H.to_dense(kept) - data) <= 1e-12 * np.linalg.norm(data)
    sets, _, disc = H.select_support(H.contractions(h).pis, 0.0)
    assert disc == 0.0
    assert sets[1] == (0, 2)  # the zero slice may be dropped at eta = 0


@pytest.mark.parametrize("build", [build_balanced_tree, build_linear_tree])
@pytest.mark.parametrize("seed", range(4))
def test_from_dense_zero_slice_outside_support(build, seed):
    # from_dense need not leave exact zeros, but the roundoff it leaves on a
    # zero slice stays below the cutoff that supports counts by
    x = np.random.default_rng(seed).standard_normal((3, 4, 5, 2))
    x[:, :, 1] = 0.0
    h = H.from_dense(x, build(4))
    c = H.contractions(h)
    assert c.pis[2][1] <= H.ZERO_CUTOFF * H.norm(h)
    assert c.supports == (3, 4, 4, 2)


@pytest.mark.parametrize("reduce", [
    H.recompress,
    lambda h, eta: H._truncate(h, eta)[0],
    H.coarsen,
    lambda h, eta: H.select_support(H.contractions(h).pis, eta),
], ids=["recompress", "_truncate", "coarsen", "select_support"])
def test_reductions_reject_nan_tolerance(reduce):
    # NaN passes an ``eta < 0`` check, and the rank or support choice then
    # keeps nothing: a zero tensor with a bogus bound.  inf stays valid
    rng = np.random.default_rng(17)
    h = H.from_dense(rng.standard_normal((4, 4, 4)), build_balanced_tree(3))
    with pytest.raises(ValueError, match="nan"):
        reduce(h, float("nan"))
    reduce(h, float("inf"))
    zero, bound = H._truncate(h, float("inf"))
    assert H.norm(zero) == 0.0 and bound == pytest.approx(H.norm(h))
    assert H.norm(H.coarsen(h, float("inf"))) == 0.0


def test_restrict_support_exact():
    rng = np.random.default_rng(18)
    tree = build_linear_tree(3)
    data = rng.standard_normal((4, 5, 3))
    h = H.from_dense(data, tree)
    sets = [(0, 2), (1, 2, 4), (0, 1, 2)]
    ref = data.copy()
    ref[[1, 3], :, :] = 0.0
    ref[:, [0, 3], :] = 0.0
    hr = H.restrict_support(h, sets)
    assert np.linalg.norm(H.to_dense(hr) - ref) <= 1e-14 * np.linalg.norm(data)
    with pytest.raises(IndexError):
        H.restrict_support(h, [(0, 9), (0,), (0,)])


# -- quasi-norms ---------------------------------------------------------------


def test_as_quasinorm_example():
    assert H.as_quasinorm((1.0, 0.0, 0.0), 1.0) == pytest.approx(1.0)


def test_as_quasinorm_validation_and_decay():
    with pytest.raises(ValueError):
        H.as_quasinorm((1.0, 0.5), 0.0)
    with pytest.raises(ValueError):
        H.as_quasinorm((1.0, 0.5), -2.0)
    # geometric sequences have finite quasi-norms that grow with s
    seq = 2.0 ** -np.arange(30)
    assert H.as_quasinorm(seq, 1.0) < H.as_quasinorm(seq, 2.0)


# -- round trips on native representations ------------------------------------


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_native_round_trip(tree):
    rng = np.random.default_rng(700 + tree.d)
    dims = rand_dims(tree, rng, 2, 6)
    h = H.random_htensor(tree, dims, 3, rng)
    dense = H.to_dense(h)
    back = H.from_dense(dense, tree)
    assert np.linalg.norm(H.to_dense(back) - dense) <= 1e-10 * max(H.norm(h), 1)


# -- from_dense orthogonality and per-instance memo --------------------------


def noisy_low_rank(seed):
    """Random rank-1..3 tensor of 3-4 modes plus entrywise noise of 3e-15 to
    1e-14 relative: singular values land just above ``ZERO_CUTOFF``."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 5))
    tree = (build_balanced_tree if seed % 2 else build_linear_tree)(d)
    dims = rand_dims(tree, rng)
    x = H.to_dense(H.random_htensor(tree, dims, int(rng.integers(1, 4)), rng))
    noise = 10 ** rng.uniform(np.log10(3e-15), -14)
    return x + noise * np.abs(x).max() * rng.standard_normal(x.shape), tree


# seed 0 once raised (a node rank above its children's product); the others
# once came out flagged orthogonal with |Q^T Q - I| from 0.12 up to 0.93
@pytest.mark.parametrize("seed", [0, 4, 9, 12, 20, 22, 23, 37])
def test_from_dense_orthogonal_on_noisy_input(seed, tmp_path):
    x, tree = noisy_low_rank(seed)
    h = H.from_dense(x, tree)
    assert h.orthogonal
    mats = list(h.frames.values()) + [b.reshape(-1, b.shape[2])
                                      for b in h.transfer.values()]
    for q in mats:
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max(initial=0.0) <= ORTHONORMAL_TOL
    assert np.linalg.norm(H.to_dense(h) - x) <= 1e-12 * np.linalg.norm(x)
    save_htensor(h, tmp_path / "h.ht")
    back = load_htensor(tmp_path / "h.ht")
    assert H.orthogonalize(back).ranks == h.ranks


def test_only_the_sweep_flags_orthogonal():
    rng = np.random.default_rng(41)
    h = H.orthogonalize(H.random_htensor(build_balanced_tree(3), (3, 4, 5), 2, rng))
    assert h.orthogonal
    layout = dict(tree=h.tree, dims=h.dims, frames=h.frames,
                  transfer=h.transfer, root_transfer=h.root_transfer)
    assert not H.HTensor(**layout).orthogonal
    assert not dataclasses.replace(h).orthogonal
    with pytest.raises(TypeError):
        H.HTensor(**layout, orthogonal=True)
    with pytest.raises(ValueError):
        dataclasses.replace(h, orthogonal=True)


def orthogonal_form_cases(tree, tmp_path):
    """One tensor of each kind the library builds, on ``tree``."""
    rng = np.random.default_rng(70 + tree.d)
    dims = rand_dims(tree, rng)
    h = H.random_htensor(tree, dims, 3, rng)
    total = H.add(h, H.random_htensor(tree, dims, 2, rng))
    terms = [tuple(rng.standard_normal(n) for n in dims), (None,) * tree.d]
    cut = H.recompress(total, 0.3 * H.norm(total))
    assert sum(cut.ranks) < sum(H.orthogonalize(total).ranks)  # eta cuts
    save_htensor(total, tmp_path / "sum.ht")
    return {"random": h, "sum": total,
            "apply_cp": H.apply_cp(h, terms, weights=[1.0, -2.0]),
            "recompress": cut,
            "soft_threshold": soft_threshold(total, 0.1 * H.norm(total)),
            "loaded": load_htensor(tmp_path / "sum.ht"),
            "zero": H.zero_htensor(tree, dims)}


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_orthogonal_root_is_the_root_edge_spectrum(tree, tmp_path):
    # an orthogonal form's root transfer is diag(sigma), sigma >= 0
    # nonincreasing, and the root edge's spectrum is read off it; a scaling
    # keeps no flag, since it may break that invariant
    for kind, h in orthogonal_form_cases(tree, tmp_path).items():
        ho = H.orthogonalize(h)
        sigma = np.diag(ho.root_transfer)
        assert np.array_equal(ho.root_transfer, np.diag(sigma)), kind
        assert np.all(sigma >= 0) and np.all(np.diff(sigma) <= 0), kind
        assert np.array_equal(H.edge_spectra(h).sigmas[0], sigma), kind
        for c in (2.0, 0.0, -1.0):
            assert not H.scale(c, ho).orthogonal, kind
        flipped = H.orthogonalize(H.scale(-2.0, ho))
        fs = np.diag(flipped.root_transfer)
        assert np.array_equal(flipped.root_transfer, np.diag(fs)), kind
        assert np.all(fs >= 0), kind
        assert abs(H.norm(flipped) - 2.0 * H.norm(ho)) <= 1e-14 * H.norm(ho), kind


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("build", [build_balanced_tree, build_linear_tree])
def test_norm_of_orthogonal_tensor_reads_root(build, d):
    rng = np.random.default_rng(40 + d)
    tree = build(d)
    h = H.orthogonalize(H.random_htensor(tree, rand_dims(tree, rng), 3, rng))
    assert h.orthogonal
    ref = np.sqrt(inner(h, h))
    assert abs(H.norm(h) - ref) <= 1e-13 * ref


def test_orthogonal_form_computed_once():
    rng = np.random.default_rng(3)
    h = H.random_htensor(build_balanced_tree(4), (3, 4, 5, 3), 3, rng)
    ho = H.orthogonalize(h)
    assert H.orthogonalize(h) is ho
    assert H.orthogonalize(ho) is ho
    assert H.contractions(h) is H.contractions(ho)
    assert H.edge_spectra(h) is H.edge_spectra(ho)
    # a copy with other fields starts with an empty memo
    assert dataclasses.replace(h, root_transfer=2 * h.root_transfer)._memo == {}


def copy_of(h):
    """Same data, nothing memoized."""
    return H.HTensor(tree=h.tree, dims=h.dims, frames=h.frames,
                     transfer=h.transfer, root_transfer=h.root_transfer)


def assert_bitwise_equal(a, b):
    assert a.ranks == b.ranks and a.orthogonal == b.orthogonal
    for i in a.frames:
        assert np.array_equal(a.frames[i], b.frames[i])
    for node in a.transfer:
        assert np.array_equal(a.transfer[node], b.transfer[node])
    assert np.array_equal(a.root_transfer, b.root_transfer)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_repeated_plans_execute_bitwise_equal(tree):
    rng = np.random.default_rng(11 + tree.d)
    h = H.random_htensor(tree, rand_dims(tree, rng, 3, 6), 4, rng)
    nh = H.norm(h)
    etas = [0.3 * nh, 0.05 * nh, 0.3 * nh, 0.0, 0.05 * nh]
    for eta in etas:
        got = H.recompress(h, eta)
        assert_bitwise_equal(got, H.recompress(h, eta))
        assert_bitwise_equal(got, H.recompress(copy_of(h), eta))


# -- fixed GEMM contractions against einsum ----------------------------------


def assert_rel_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("q1,q2,m,r1,r2,k", [
    (3, 4, 1, 2, 3, 5), (4, 3, 1, 6, 1, 2),  # one term
    (3, 4, 3, 2, 3, 5), (5, 2, 7, 3, 4, 6), (1, 1, 2, 1, 1, 1),  # several
    (0, 4, 2, 2, 3, 5), (3, 0, 1, 2, 3, 5), (3, 4, 2, 0, 3, 5),  # zero ranks
    (3, 4, 2, 2, 0, 5), (3, 4, 2, 2, 3, 0), (3, 4, 1, 2, 3, 0),
])
def test_stacked_block_matches_einsum(q1, q2, m, r1, r2, k):
    rng = np.random.default_rng([q1, q2, m, r1, r2, k])
    rl = rng.standard_normal((q1, m, r1))
    rr = rng.standard_normal((q2, m, r2))
    b = rng.standard_normal((r1, r2, k))
    want = np.einsum("xja,yjb,abc->xyjc", rl, rr, b, optimize=True)
    assert_rel_close(H._stacked_block(rl, rr, b), want.reshape(q1 * q2, m * k))


@pytest.mark.parametrize("shape,cols", [((3, 4, 5), 2), ((2, 3, 4), 7),
                                        ((0, 3, 2), 3), ((2, 3, 0), 4),
                                        ((2, 3, 4), 0)])
def test_last_axis_product_matches_einsum(shape, cols):
    rng = np.random.default_rng([*shape, cols])
    b = rng.standard_normal(shape)
    m = rng.standard_normal((shape[2], cols))
    want = np.einsum("abk,kl->abl", b, m, optimize=True)
    assert_rel_close(H._last_axis_product(b, m), want)


@pytest.mark.parametrize("present", [(1, 1, 1), (1, 0, 1), (0, 1, 0),
                                     (0, 0, 1), (0, 0, 0)])
@pytest.mark.parametrize("shape,cut", [((3, 4, 5), (2, 3, 4)),
                                       ((4, 2, 6), (0, 2, 3)),
                                       ((3, 3, 0), (2, 1, 0)),
                                       ((0, 2, 3), (0, 2, 1))])
def test_project_transfer_matches_einsum(shape, cut, present):
    """Bases are orthonormal columns, as in a truncation; ``None`` stands
    for the identity."""
    rng = np.random.default_rng([*shape, *cut, *present])
    b = rng.standard_normal(shape)
    bases = [np.linalg.qr(rng.standard_normal((n, n)))[0][:, :c] if keep
             else np.eye(n)
             for n, c, keep in zip(shape, cut, present)]
    want = np.einsum("abk,aA,bB,kK->ABK", b, *bases, optimize=True)
    args = [v if keep else None for v, keep in zip(bases, present)]
    assert_rel_close(H._project_transfer(b, *args), want)


def einsum_inner(a, b):
    """The tree contraction of ``inner`` written with ``np.einsum``."""
    tree, w = a.tree, {}
    for node in tree.bottom_up():
        if node == tree.root:
            continue
        if tree.is_leaf(node):
            w[node] = a.frames[node[0]].T @ b.frames[node[0]]
        else:
            left, right = tree.child_pair(node)
            w[node] = np.einsum("abk,ac,bd,cdl->kl", a.transfer[node], w[left],
                                w[right], b.transfer[node], optimize=True)
    left, right = tree.child_pair(tree.root)
    return float(np.einsum("kl,kK,lL,KL->", a.root_transfer, w[left], w[right],
                           b.root_transfer, optimize=True))


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_inner_matches_einsum(tree):
    rng = np.random.default_rng(60 + tree.d)
    dims = rand_dims(tree, rng)
    a = H.random_htensor(tree, dims, 4, rng)
    b = H.random_htensor(tree, dims, [1, 3, 2, 4, 3, 2, 1][:len(a.ranks)], rng)
    zero = H.zero_htensor(tree, dims)
    for x, y in ((a, b), (b, a), (a, a), (a, zero), (zero, zero)):
        want = einsum_inner(x, y)
        assert abs(inner(x, y) - want) <= 1e-13 * abs(want)


# -- trusted internal construction --------------------------------------------


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 5), linear=st.booleans(), rank=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_internal_results_frozen_and_valid(d, linear, rank, seed):
    """Every result hsvd builds itself has read-only, C-contiguous float64
    arrays and passes the validating public constructor."""
    tree = (build_linear_tree if linear else build_balanced_tree)(d)
    rng = np.random.default_rng(seed)
    dims = rand_dims(tree, rng, 2, 5)
    h = H.random_htensor(tree, dims, rank, rng)
    g = H.random_htensor(tree, dims, 2, rng)
    terms = [tuple(rng.random(n) + 0.5 for n in dims),
             tuple(None if i % 2 else rng.standard_normal((n, n))
                   for i, n in enumerate(dims))]
    eta = 0.1 * H.norm(h)
    results = {
        "add": H.add(h, g),
        "scale": H.scale(-0.5, h),
        "apply_cp": H.apply_cp(h, terms, weights=[1.0, -2.0]),
        "orthogonalize": H.orthogonalize(h),
        "recompress": H.recompress(h, eta),
        "coarsen": H.coarsen(h, eta),
        "soft_threshold": soft_threshold(h, eta),
    }
    for name, r in results.items():
        for a in (*r.frames.values(), *r.transfer.values(), r.root_transfer):
            assert not a.flags.writeable, name
            assert a.flags.c_contiguous and a.dtype == np.float64, name
        H.HTensor(tree=r.tree, dims=r.dims, frames=r.frames,
                  transfer=r.transfer, root_transfer=r.root_transfer)


# -- LAPACK kernels -----------------------------------------------------------

KERNEL_SHAPES = [(5, 9), (9, 5), (6, 6), (1, 1), (1, 4), (4, 1), (0, 3), (3, 0),
                 (0, 0)]

# Blocks with min(m, n) > 128 take LAPACK's blocked paths only when the
# workspace is large enough.  numpy's and scipy's OpenBLAS builds agree there
# bit for bit on one BLAS thread, so the check runs in a child process pinned
# to one thread, as the CLI pins itself.
LARGE_KERNEL_CHECK = """
import numpy as np
from test_hsvd import assert_kernels_match_numpy
rng = np.random.default_rng(7)
for shape in [(300, 300), (900, 160), (160, 700)]:
    a = rng.standard_normal(shape)
    assert_kernels_match_numpy(a)
    assert_kernels_match_numpy(np.asfortranarray(a))
"""


def assert_kernels_match_numpy(a):
    got = (*H._qr(a), H._qr(a, mode="r"), *H._svd(a))
    want = (*np.linalg.qr(a), np.linalg.qr(a, mode="r"),
            *np.linalg.svd(a, full_matrices=False))
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert g.dtype == np.float64 and g.flags.c_contiguous
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
@pytest.mark.parametrize("order", ["C", "F", "transposed"])
def test_kernels_bitwise_equal_numpy(shape, order):
    rng = np.random.default_rng(sum(shape))
    if order == "transposed":  # the ``f.T`` of ``_factor_sweep``
        a = rng.standard_normal(shape[::-1]).T
    else:
        a = np.array(rng.standard_normal(shape), order=order)
    before = a.copy()
    assert_kernels_match_numpy(a)
    assert np.array_equal(a, before)
    q, r = H._qr(a)
    assert not np.shares_memory(q, r)


def test_kernels_bitwise_equal_numpy_on_blocked_paths():
    src = str(Path(H.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", LARGE_KERNEL_CHECK],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""  # LAPACK prints illegal workspaces to stderr


def test_svd_of_nan_block_raises():
    a = np.random.default_rng(8).standard_normal((4, 6))
    a[1, 2] = np.nan
    # dgesdd reports the NaN by info = -4 and an all-zero spectrum; the
    # gesvd fallback refuses non-finite input
    with pytest.raises(ValueError, match="infs or NaNs"):
        H._svd(a)


def test_svd_falls_back_to_gesvd_when_dgesdd_fails(monkeypatch):
    a = np.random.default_rng(9).standard_normal((7, 4))
    dgesdd = H.lapack.dgesdd

    def failing_dgesdd(*args, **kwargs):
        u, s, vt, _ = dgesdd(*args, **kwargs)
        return u, s, vt, 1  # as on no convergence

    monkeypatch.setattr(H.lapack, "dgesdd", failing_dgesdd)
    u, s, vt = H._svd(a)
    want = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
    for g, w in zip((u, s, vt), want, strict=True):
        assert g.flags.c_contiguous and np.array_equal(g, w)
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-14)
    assert np.allclose(vt @ vt.T, np.eye(4), atol=1e-14)
    assert np.allclose((u * s) @ vt, a, rtol=0, atol=1e-13)


def test_solve_reaches_lapack_only_through_the_kernels(monkeypatch):
    problem = load_problem(Path(__file__).resolve().parent.parent
                           / "fixtures" / "parametric_d2.ini")
    calls = {"_qr": 0, "_svd": 0}

    def counted(name):
        kernel = getattr(H, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return call

    def forbidden(*args, **kwargs):
        raise AssertionError("hsvd called numpy's LAPACK wrapper")

    for name in calls:
        monkeypatch.setattr(H, name, counted(name))
    monkeypatch.setattr(H.np.linalg, "qr", forbidden)
    monkeypatch.setattr(H.np.linalg, "svd", forbidden)
    cfg = default_config(problem.operator, problem.rhs, eps=1e-4)
    solve(problem.operator, problem.rhs, cfg)
    assert calls["_qr"] > 0 and calls["_svd"] > 0


# -- sweeps that factor only tall blocks ---------------------------------------


def counting(monkeypatch, *names):
    """Count the calls of the named hsvd kernels from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        kernel = getattr(H, name)

        def call(*args, _kernel=kernel, _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(H, name, call)
    return calls


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
@pytest.mark.parametrize("kind", ["wide", "square", "tall", "mixed", "zero"])
def test_qr_sweep_factors_tall_blocks_only(tree, kind, monkeypatch):
    # input ranks chosen bottom-up so that each block the sweep meets
    # (rows: the mode size or the children's new ranks' product) is wider
    # than, as wide as or narrower than tall; "zero" gives one leaf rank 0
    rng = np.random.default_rng(11 * tree.d + len(kind))
    dims = rand_dims(tree, rng, 2, 5)
    shift = {"wide": 1, "square": 0, "tall": -1}
    left, right = tree.child_pair(tree.root)
    cols, rows, new = {}, {}, {}
    for node in tree.bottom_up():
        if node == tree.root:
            continue
        if tree.is_leaf(node):
            rows[node] = dims[node[0]]
            child_product = np.inf
        else:
            lft, rgt = tree.child_pair(node)
            rows[node] = new[lft] * new[rgt]
            child_product = cols[lft] * cols[rgt]
        pick = kind if kind in shift else str(rng.choice(list(shift)))
        cols[node] = int(min(max(rows[node] + shift[pick], 1), child_product))
        if kind == "zero" and node == (0,):
            cols[node] = 0
        new[node] = min(rows[node], cols[node])
    # the root children share one input rank
    cols[left] = cols[right] = min(cols[left], cols[right])
    for node in (left, right):
        new[node] = min(rows[node], cols[node])
    h = H.HTensor(
        tree=tree, dims=dims,
        frames={i: rng.standard_normal((n, cols[(i,)])) for i, n in enumerate(dims)},
        transfer={n: rng.standard_normal((cols[tree.child_pair(n)[0]],
                                          cols[tree.child_pair(n)[1]], cols[n]))
                  for n in tree.interior_nodes() if n != tree.root},
        root_transfer=rng.standard_normal((cols[left], cols[left])))
    calls = counting(monkeypatch, "_qr")
    ho = H.orthogonalize(h)
    monkeypatch.undo()
    assert calls["_qr"] == sum(rows[n] > cols[n] for n in rows)
    if kind == "zero":
        assert ho.ranks == (0,) * len(ho.ranks)
        return
    for u in ho.frames.values():
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-14
    for b in ho.transfer.values():
        mat = b.reshape(-1, b.shape[2])
        assert np.abs(mat.T @ mat - np.eye(mat.shape[1])).max() <= 1e-14
    sigma = np.diag(ho.root_transfer)
    assert np.array_equal(ho.root_transfer, np.diag(sigma))
    assert (sigma >= 0).all() and (np.diff(sigma) <= 0).all()
    want = H.to_dense(h)
    assert np.linalg.norm(H.to_dense(ho) - want) <= 1e-13 * np.linalg.norm(want)
    new[left] = new[right] = min(new[left], new[right])
    assert ho.ranks == tuple(new[n] for n in ho.edge_list)


def root_edge_case(tree, seed):
    """An orthogonal form whose last root-edge singular value is 1e-6 of
    the first, far below every other edge's spectrum."""
    rng = np.random.default_rng(seed)
    ho = H.orthogonalize(H.random_htensor(tree, rand_dims(tree, rng, 3, 6), 3, rng))
    sigma = np.diag(ho.root_transfer).copy()
    sigma[-1] = 1e-6 * sigma[0]
    return H.HTensor._trusted(tree, ho.dims, ho.frames, ho.transfer,
                              np.diag(sigma), orthogonal=True), sigma


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_root_edge_cut_is_a_slice(tree, monkeypatch):
    h, sigma = root_edge_case(tree, 70 + tree.d)
    spectrum, vectors = H._projection_data(h)
    eta = 1.5e-6 * sigma[0]
    ranks, _ = H._choose_ranks(spectrum, eta)
    assert ranks[0] == h.ranks[0] - 1 and tuple(ranks[1:]) == h.ranks[1:]
    want = H._project(h, vectors, H._node_rank_map(tree, ranks))
    calls = counting(monkeypatch, "_qr", "_svd", "_project")
    got = H.recompress(h, eta)
    assert calls == {"_qr": 0, "_svd": 0, "_project": 0}
    assert got.orthogonal and got.ranks == want.ranks
    assert np.array_equal(got.root_transfer, np.diag(sigma[:-1]))
    dense = H.to_dense(want)
    assert np.linalg.norm(H.to_dense(got) - dense) <= 1e-13 * np.linalg.norm(dense)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.d}")
def test_root_edge_soft_threshold_is_a_slice(tree, monkeypatch):
    h, sigma = root_edge_case(tree, 80 + tree.d)
    eta = 0.5 * (sigma[0] + sigma[1]) if len(sigma) > 2 else 0.5 * sigma[1]
    shrunk = np.maximum(sigma - eta, 0.0)
    k = int(np.count_nonzero(shrunk))
    eye = np.eye(len(sigma))
    left, right = tree.child_pair(tree.root)
    want = H._project(h, {left: eye[:, :k] * np.sqrt(shrunk[:k] / sigma[:k]),
                          right: eye[:, :k]}, {left: k, right: k})
    calls = counting(monkeypatch, "_qr", "_svd")
    got = soft_threshold_edge(h, 0, eta)
    assert calls == {"_qr": 0, "_svd": 0}
    assert got.orthogonal and got.ranks == want.ranks
    assert np.array_equal(got.root_transfer, np.diag(shrunk[:k]))
    dense = H.to_dense(want)
    assert np.linalg.norm(H.to_dense(got) - dense) <= 1e-13 * np.linalg.norm(dense)
