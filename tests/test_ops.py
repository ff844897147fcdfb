"""Operator representations, scalings, and certified application vs dense oracles."""

import dataclasses
import gc
import hashlib
import importlib.resources
import importlib.util
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import htsolve.hsvd as hsvd_module
import htsolve.ops as ops_module

from htsolve.errors import ToleranceInfeasibleError
from htsolve.htree import build_balanced_tree, build_linear_tree, effective_edges
from htsolve.hsvd import (
    ContractionSet,
    EdgeSpectrum,
    HTensor,
    add,
    apply_cp,
    coarsen,
    max_ranks,
    norm,
    random_htensor,
    recompress,
    to_dense,
    zero_htensor,
)
from htsolve.ops import (
    ExpSumScaling,
    ExpSumTable,
    LowRankOperator,
    OperatorBounds,
    apply_certified,
    build_scaling,
    rhs_truncate,
)
from htsolve.problems import (
    DiffusionProblemI,
    ParametricProblemII,
    _assemble_sparse,
    build_diffusion_I,
    load_problem,
)
from htsolve.softthresh import st_solve

from oracles import (
    apply_exact,
    apply_scaling,
    approx_dense_diag,
    bh_exponential_sum,
    diagonally_scaled_terms,
    identity_operator,
    mode_factors,
    reference_check_set,
    reference_scaling_table,
    sup_error,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def dense_vec(h):
    return to_dense(h).ravel()


def random_operator(dims, num_terms, rng, density=1.0):
    terms = []
    for _ in range(num_terms):
        term = []
        for n in dims:
            if rng.random() < 0.3:
                term.append(None)
                continue
            m = rng.standard_normal((n, n))
            if density < 1.0:
                m *= rng.random((n, n)) < density
            term.append(m)
        terms.append(tuple(term))
    return LowRankOperator(dims, terms)


# ---------------------------------------------------------------------------
# reciprocal exponential sums
# ---------------------------------------------------------------------------


class TestReciprocalExpSum:
    def test_certificate_is_honest(self):
        # independent grid, offset from the builder's own sample points
        es = bh_exponential_sum(16)
        x = np.exp(np.linspace(0.0, math.log(1e8), 9973) + 2.3e-4)
        x = np.clip(x, 1.0, 1e8)
        err = np.abs(es(x) - 1.0 / x).max()
        assert err <= es.cert_error * 1.02 + 1e-15

    def test_structure(self):
        es = bh_exponential_sum(7)
        assert es.r == 7 and len(es.nodes) == 7 and len(es.weights) == 7
        assert es.step == pytest.approx(math.pi / math.sqrt(7))
        ratios = es.nodes[1:] / es.nodes[:-1]
        assert np.allclose(ratios, math.exp(es.step), rtol=1e-12)
        assert np.allclose(es.weights, es.step * es.nodes, rtol=1e-12)

    def test_decay(self):
        errs = [bh_exponential_sum(r).cert_error for r in (4, 16, 64)]
        assert errs[0] > errs[1] > errs[2]
        sq = np.sqrt([4.0, 16.0, 64.0])
        slope = np.polyfit(sq, np.log(errs), 1)[0]
        assert slope <= -2.5

    @pytest.mark.parametrize("r", [0, -3, 257])
    def test_term_count_validation(self, r):
        with pytest.raises(ValueError):
            bh_exponential_sum(r)


# ---------------------------------------------------------------------------
# inverse-square-root scalings
# ---------------------------------------------------------------------------


class TestBuildScaling:
    def test_single_mode(self):
        q = np.pi**2 * np.arange(1, 30, dtype=float) ** 2
        s = build_scaling([q], 1e-6)
        ideal = q**-0.5
        approx = approx_dense_diag([q], s)
        assert np.abs(1.0 - approx / ideal).max() <= 1e-6

    def test_exhaustive_small_sets(self):
        rng = np.random.default_rng(11)
        for tol in (0.5, 1e-2, 1e-7):
            qs = [np.sort(rng.random(7)) * 40 + 0.5, np.sort(rng.random(5)) * 9 + 1.0]
            s = build_scaling(qs, tol)
            ideal = ExpSumScaling(qs).ideal_dense_diag()
            rel = np.abs(1.0 - approx_dense_diag(qs, s) / ideal)
            assert rel.max() <= tol
            assert s.certified <= tol
            assert rel.max() <= s.certified + 1e-15

    def test_half_tolerance_riesz_property(self):
        # tolerances are clamped to 1/2 so 1/2 <= approx/ideal <= 3/2 holds
        qs = [np.pi**2 * np.arange(1, 9, dtype=float) ** 2] * 3
        s = build_scaling(qs, 0.5)
        ratio = approx_dense_diag(qs, s) / ExpSumScaling(qs).ideal_dense_diag()
        assert ratio.min() >= 0.5 and ratio.max() <= 1.5

    def test_size_grows_with_accuracy_and_range(self):
        q1 = [np.array([1.0, 2.0, 4.0, 9.0])] * 2
        m_loose = build_scaling(q1, 0.3).m
        m_tight = build_scaling(q1, 1e-8).m
        assert m_tight > m_loose
        wide = [np.array([1.0, 1e5])] * 2
        assert build_scaling(wide, 1e-8).m > m_tight

    def test_validation(self):
        q = [np.array([1.0, 2.0])]
        with pytest.raises(ValueError):
            build_scaling(q, 1.0)
        with pytest.raises(ValueError):
            build_scaling(q, 0.0)
        with pytest.raises(ValueError):
            build_scaling(q, -0.1)
        with pytest.raises(ValueError):
            build_scaling([np.array([0.0, 1.0])], 0.25)  # zero row sum
        with pytest.raises(ValueError):
            build_scaling([np.array([-1.0, 1.0])], 0.25)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_level_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            build_scaling([np.array([1.0, bad, 3.0])], 0.1)
        with pytest.raises(ValueError, match="finite"):
            build_scaling([np.array([1.0, 2.0]), np.array([bad, 1.0])], 0.1)

    def test_rejects_nan_tolerance(self):
        with pytest.raises(ValueError, match="nan"):
            build_scaling([np.array([1.0, 2.0, 3.0])], np.nan)

    def test_nan_sup_is_not_dropped(self):
        # one NaN point in the first chunk of 8192 must survive later chunks
        x = np.linspace(1.0, 2.0, 9000)
        x[5] = np.nan
        w, t = np.array([0.5, 0.5]), np.array([0.1, 1.0])
        assert math.isnan(ops_module._scalar_expsum_relerr(w, t, x))
        assert math.isnan(ops_module._scalar_expsum_relerr(
            np.array([np.nan, 0.5]), t, x[6:]))

    def test_infeasible_tolerance(self):
        # below the floating-point evaluation floor no table verifies; the
        # best sup reported is the full-check sup of the table with the
        # smallest stored sup for R >= X
        ml5 = load_problem(FIXTURES / "diffusion_d2_ml5.ini")
        for qs, tol in (([np.array([1.0, 2.0, 3.0])], 1e-16),
                        (ml5.operator.scaling_left.level_weights, 4e-16)):
            with pytest.raises(ToleranceInfeasibleError,
                               match="best achieved") as got:
                build_scaling(qs, tol)
            c, big_x, check_x = reference_check_set(qs)
            tables = ops_module._near_best_tables()
            _, w, t = min((e for r, entries in tables.items() if r >= big_x
                           for e in entries), key=lambda e: e[0])
            best = float(re.search(r"best achieved: ([^;]+);",
                                   str(got.value))[1])
            assert best == pytest.approx(sup_error(w, t, check_x), rel=1e-2)
            assert best < 1e-15

    def test_range_beyond_the_file_raises_at_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ops_module, "_scalar_expsum_relerr",
                            lambda *args: calls.append(args))
        with pytest.raises(ToleranceInfeasibleError, match="exceeds") as got:
            build_scaling([np.array([1.0, 2.0**33])], 0.1)
        assert f"[1, {2.0**32:.3g}]" in str(got.value)  # the widest range
        assert calls == []

    @pytest.mark.parametrize("tol", [1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
    def test_narrow_range_below_the_r2_floor(self, tol):
        # X <= 2: the R = 2 entries stop at 6e-9, the walk goes on to R = 4
        qs = [np.array([1.0, 1.3, 1.7]), np.array([0.5, 0.6, 0.8])]
        assert ExpSumScaling(qs).row_sum_range[1] <= 2.0
        s = build_scaling(qs, tol)
        c, _, check_x = reference_check_set(qs)
        assert s.certified <= 0.995 * tol
        assert sup_error(s.weights * math.sqrt(c), s.exponents * c,
                         check_x) <= 0.995 * tol
        rel = np.abs(1.0 - approx_dense_diag(qs, s)
                     / ExpSumScaling(qs).ideal_dense_diag())
        assert rel.max() <= s.certified + 1e-15
        assert s.m <= reference_scaling_table(qs, tol)[0]


SCALING_CASES = [
    # (seed, mode sizes, keep a random half of each mode's levels?) -- at
    # most 100k rows are checked exhaustively, above that on extremes plus
    # 1000 sampled rows
    (0, (17,), False),
    (1, (9, 23), False),
    (2, (12, 7, 15), False),
    (3, (30, 25), True),
    (4, (11, 13, 9), True),
    (5, (400, 300), False),
    (6, (60, 60, 60), False),
    (7, (120, 100, 80), True),
]
SCALING_TOLS = (0.5, 1e-2, 1e-4, 1e-7, 1e-10)
EXPSUM_FIXTURES = ("diffusion_d2_sine", "diffusion_d3_sine", "diffusion_d2_ml5",
                   "diffusion_d3_ml3", "diffusion_d3_ml4")


def scaling_case(seed, sizes, subsets):
    rng = np.random.default_rng(seed)
    qs = [np.sort(rng.random(n)) * 10.0 ** rng.uniform(0, 4) + rng.uniform(0.05, 2)
          for n in sizes]
    if subsets:
        qs = [q[np.sort(rng.choice(n, size=max(1, n // 2), replace=False))]
              for q, n in zip(qs, sizes)]
    return qs


# sha256 over R, m, sup, weights, exponents (in that order) of the entries
# with R <= 2^16 as first committed: kept bit for bit, so every request with
# X <= 2^16 that those entries served gets the same table
NARROW_TABLES_SHA256 = (
    "688efe69e7f87ba5392aa6b6ae021f25eb223499faa3826bc76a3b12a8c35554")


class TestNearBestTables:
    """The committed table file and the tables ``build_scaling`` takes from
    it."""

    def test_file_is_package_data(self):
        root = Path(__file__).resolve().parent.parent
        source = importlib.resources.files("htsolve").joinpath("expsum_tables.npz")
        assert source.is_file()
        # a non-editable install copies the file only if it is package data
        config = (root / "pyproject.toml").read_text()
        assert ('[tool.setuptools.package-data]\nhtsolve = ["expsum_tables.npz"]'
                in config)

    def test_entries_reproduce_stored_sups(self):
        source = importlib.resources.files("htsolve").joinpath("expsum_tables.npz")
        with source.open("rb") as fh, np.load(fh) as npz:
            data = {k: npz[k] for k in npz.files}
        ranges, sizes, sups = data["R"], data["m"], data["sup"]
        assert set(ranges) == {2.0**k for k in range(1, 33)}
        assert len(data["weights"]) == len(data["exponents"]) == sizes.sum()
        assert (np.diff(ranges) >= 0).all()
        narrow = ranges <= 2.0**16
        digest = hashlib.sha256()
        for key in ("R", "m", "sup"):
            digest.update(np.ascontiguousarray(data[key][narrow]).tobytes())
        for key in ("weights", "exponents"):
            digest.update(data[key][:sizes[narrow].sum()].tobytes())
        assert digest.hexdigest() == NARROW_TABLES_SHA256
        ends = np.cumsum(sizes)
        for big_r, m, sup, end in zip(ranges, sizes, sups, ends):
            w, t = data["weights"][end - m:end], data["exponents"][end - m:end]
            assert (w > 0).all() and (np.diff(t) > 0).all() and t[0] > 0
            x = np.geomspace(1.0, big_r, 16385)
            got = ops_module._scalar_expsum_relerr(w, t, x)
            assert got == pytest.approx(sup, rel=1e-9, abs=1e-17), (big_r, m)
        for big_r in set(ranges):
            row = ranges == big_r
            assert list(sizes[row]) == list(range(1, row.sum() + 1))
            assert (np.diff(sups[row]) < 0).all()

    def test_generator_check_mode_matches_file(self):
        path = Path(__file__).resolve().parent.parent / "tools" / "expsum_tables.py"
        spec = importlib.util.spec_from_file_location("expsum_tables", path)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        assert generator.check() == 0

    @pytest.mark.parametrize(
        "name,qs", [(f"case{c[0]}", scaling_case(*c)) for c in SCALING_CASES]
        + [(name, load_problem(FIXTURES / f"{name}.ini")
            .operator.scaling_left.level_weights) for name in EXPSUM_FIXTURES]
        # the largest level of each mode grows 1e6-fold: ranges past 2^16
        + [(f"wide{c[0]}", [np.append(q[:-1], q[-1] * 1e6)
                            for q in scaling_case(*c)]) for c in SCALING_CASES])
    def test_certified_and_no_larger_than_sinc(self, name, qs):
        c, big_x, check_x = reference_check_set(qs)
        exhaustive = int(np.prod([len(q) for q in qs])) <= 100_000
        ideal = ExpSumScaling(qs).ideal_dense_diag() if exhaustive else None
        for tol in SCALING_TOLS:
            s = build_scaling(qs, tol)
            assert sup_error(s.weights * math.sqrt(c), s.exponents * c,
                             check_x) <= 0.995 * min(tol, 0.5), tol
            assert s.m <= reference_scaling_table(qs, tol)[0], tol
            if exhaustive:
                rel = np.abs(1.0 - approx_dense_diag(qs, s) / ideal)
                assert rel.max() <= s.certified + 1e-15, tol

    def test_one_full_check_when_tabulated(self, monkeypatch):
        seen = []
        real = ops_module._scalar_expsum_relerr

        def counting(weights, exponents, x):
            seen.append(len(weights))
            return real(weights, exponents, x)

        monkeypatch.setattr(ops_module, "_scalar_expsum_relerr", counting)
        qs = [np.pi**2 * np.arange(1, 9, dtype=float) ** 2] * 2
        s = build_scaling(qs, 2.0**-20)
        assert seen == [s.m]

    # 2^-52 .. 2^-54 lie below every fixture's floor (2^-51 only
    # diffusion_d3_sine reaches), so the sweep also meets infeasible requests
    SWEEP_TOLS = [2.0**-int(k) for k in
                  np.random.default_rng(21).permutation(np.arange(1, 55))]

    def test_most_accurate_entry_passes_on_the_checked_range(self):
        # diffusion_d3_sine at 2^-51: every stored sup for R >= X, taken over
        # [1, R], exceeds 0.995 * 2^-51 = 4.42e-16, but the most accurate
        # entry's sup on the checked [1, X] is 3.33e-16
        s = load_problem(FIXTURES / "diffusion_d3_sine.ini").operator.scaling_left
        tol = 2.0**-51
        _, big_x = s.row_sum_range
        tables = ops_module._near_best_tables()
        assert all(sup > 0.995 * tol for r in tables if r >= big_x
                   for sup, _, _ in tables[r])
        t = build_scaling(s, tol)
        assert t.m == 17
        assert t.certified <= 0.995 * tol
        c, _, check_x = reference_check_set(s.level_weights)
        assert t.certified == sup_error(t.weights * math.sqrt(c),
                                        t.exponents * c, check_x)

    @staticmethod
    def outcome(level_weights, tol):
        try:
            t = build_scaling(level_weights, tol)
        except ToleranceInfeasibleError as exc:
            return str(exc)
        return t.weights.tobytes(), t.exponents.tobytes(), t.certified

    @pytest.mark.parametrize("name", EXPSUM_FIXTURES)
    def test_one_scaling_serves_every_tolerance(self, name):
        # a scaling's memo changes no bit of any table or error message
        s = load_problem(FIXTURES / f"{name}.ini").operator.scaling_left
        shared = [self.outcome(s, tol) for tol in self.SWEEP_TOLS]
        fresh = [self.outcome(s.level_weights, tol) for tol in self.SWEEP_TOLS]
        assert shared == fresh
        assert any(isinstance(o, str) for o in shared)
        assert sum(isinstance(o, tuple) for o in shared) >= 50
        # each certified sup is, bit for bit, the returned table mapped back
        # to normalized coordinates on the check set as first written
        c, _, check_x = reference_check_set(s.level_weights)
        for tol, o in zip(self.SWEEP_TOLS, shared):
            if isinstance(o, tuple):
                w, t = np.frombuffer(o[0]), np.frombuffer(o[1])
                assert o[2] == sup_error(w * math.sqrt(c), t * c, check_x), tol

    @pytest.mark.parametrize("name", EXPSUM_FIXTURES)
    def test_each_entry_checked_once_per_scaling(self, name, monkeypatch):
        check_sets, checked = [], []
        real_sums, real_relerr = (ops_module._verification_sums,
                                  ops_module._scalar_expsum_relerr)

        def counting_sums(qs, rng):
            check_sets.append(len(qs))
            return real_sums(qs, rng)

        def counting_relerr(weights, exponents, x):
            checked.append(weights.tobytes() + exponents.tobytes())
            return real_relerr(weights, exponents, x)

        monkeypatch.setattr(ops_module, "_verification_sums", counting_sums)
        monkeypatch.setattr(ops_module, "_scalar_expsum_relerr",
                            counting_relerr)
        s = load_problem(FIXTURES / f"{name}.ini").operator.scaling_left
        for tol in self.SWEEP_TOLS:
            self.outcome(s, tol)
        assert len(check_sets) == 1
        assert len(checked) == len(set(checked)) > 0

    def test_refuted_table_raises(self, monkeypatch):
        # a stored sup that the full check refutes: no entry passes, and the
        # error names the refuted table's full-check sup
        bogus = {64.0: [(1e-30, np.array([1.0]), np.array([1.0]))]}
        monkeypatch.setattr(ops_module, "_near_best_tables", lambda: bogus)
        qs = [np.pi**2 * np.arange(1, 9, dtype=float) ** 2] * 2
        c, _, check_x = reference_check_set(qs)
        want = sup_error(np.array([1.0]), np.array([1.0]), check_x)
        with pytest.raises(ToleranceInfeasibleError,
                           match=re.escape(f"best achieved: {want:.3g};")):
            build_scaling(qs, 1e-6)


# ---------------------------------------------------------------------------
# operators and exact application
# ---------------------------------------------------------------------------


class TestLowRankOperator:
    def test_validation(self):
        with pytest.raises(ValueError):
            LowRankOperator((3, 3), [])
        with pytest.raises(ValueError):
            LowRankOperator((3, 3), [(None,)])  # wrong factor count
        with pytest.raises(ValueError):
            LowRankOperator((3, 3), [(np.eye(2), None)])  # wrong shape
        with pytest.raises(ValueError):
            LowRankOperator((3, 0), [(None, None)])
        q = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="scaling dims"):
            LowRankOperator((3, 3), [(None, None)], scaling_left=ExpSumScaling([q]))
        # a scaling is an ExpSumScaling or None; an exact diagonal is a factor
        with pytest.raises(TypeError, match="ExpSumScaling or None"):
            LowRankOperator((3, 3), [(None, None)], scaling_right=(q, q))

    def test_identity(self):
        a = identity_operator((3, 2, 4))
        assert np.allclose(_assemble_sparse(a).toarray(), np.eye(24))
        assert a.bounds == OperatorBounds(1.0, 1.0)

    def test_apply_exact_matches_dense(self):
        rng = np.random.default_rng(42)
        cases = [
            (build_balanced_tree(2), (6, 5)),
            (build_balanced_tree(3), (4, 5, 3)),
            (build_linear_tree(4), (3, 4, 3, 2)),
        ]
        for tree, dims in cases:
            for _ in range(5):
                a = random_operator(dims, rng.integers(1, 4), rng, density=0.6)
                v = random_htensor(tree, dims, 2, rng)
                w = apply_exact(a, v)
                want = _assemble_sparse(a).toarray() @ dense_vec(v)
                assert np.linalg.norm(dense_vec(w) - want) <= 1e-10 * max(
                    1.0, np.linalg.norm(want)
                )

    def test_rank_bookkeeping(self):
        rng = np.random.default_rng(3)
        tree, dims = build_balanced_tree(3), (5, 5, 5)
        a = random_operator(dims, 3, rng)
        v = random_htensor(tree, dims, 2, rng)
        w = apply_exact(a, v)
        assert w.ranks == tuple(3 * r for r in v.ranks)

    def test_diagonal_scaling_exact(self):
        # an exact separable diagonal on each side, as one-term CPs
        # multiplied into the terms, against the dense S_L (M x I x I) S_R
        rng = np.random.default_rng(9)
        dims = (4, 3, 5)
        tree = build_balanced_tree(3)
        diag = tuple(rng.random(n) + 0.5 for n in dims)
        m = rng.standard_normal((4, 4))
        a = LowRankOperator(dims, diagonally_scaled_terms([(m, None, None)],
                                                          diag, diag))
        v = random_htensor(tree, dims, 2, rng)
        w = apply_exact(a, v)
        s = np.einsum("i,j,k->ijk", *diag).ravel()
        want = s * (np.kron(m, np.eye(15)) @ (s * dense_vec(v)))
        assert np.linalg.norm(dense_vec(w) - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("make", [
        lambda: ExpSumScaling([np.array([1.0, 2.0, 3.0]), np.array([0.5, 4.0])]),
        lambda: build_scaling([np.array([1.0, 2.0, 3.0])] * 2, 1e-3),
        lambda: random_htensor(build_balanced_tree(3), (3, 4, 2), 2,
                               np.random.default_rng(0)),
        lambda: EdgeSpectrum(effective_edges(build_balanced_tree(2)),
                             (np.array([2.0, 1.0]),)),
        lambda: ContractionSet((np.array([1.0, 2.0]), np.array([3.0]))),
        lambda: load_problem(FIXTURES / "diffusion_d2_sine.ini"),
        lambda: load_problem(FIXTURES / "parametric_d2.ini"),
    ], ids=["expsum", "expsum_table", "htensor", "edge_spectrum",
            "contraction_set", "diffusion_problem", "parametric_problem"])
    def test_scalings_compare_by_identity(self, make):
        # the generated __eq__ compared ndarray fields and raised, and
        # __hash__ raised TypeError: on two equal values built apart, and on
        # a tensor and its dataclasses.replace copy
        s, t = make(), make()
        assert type(s) in (ExpSumScaling, ExpSumTable, HTensor, EdgeSpectrum,
                           ContractionSet, DiffusionProblemI, ParametricProblemII)
        if isinstance(s, HTensor):
            t = dataclasses.replace(s)
        assert hash(s) == hash(s)
        assert s == s
        assert s != t and not s == t
        assert len({s, t}) == 2

    def test_apply_exact_rejects_expsum(self):
        dims = (3, 3)
        s = ExpSumScaling([np.array([1.0, 2.0, 3.0])] * 2)
        a = LowRankOperator(dims, [(None, None)], scaling_left=s)
        v = random_htensor(build_balanced_tree(2), dims, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="apply_certified"):
            apply_exact(a, v)

    def test_dims_mismatch(self):
        a = identity_operator((3, 3))
        v = random_htensor(build_balanced_tree(2), (3, 4), 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            apply_exact(a, v)


class TestApplyScaling:
    def setup_method(self):
        self.rng = np.random.default_rng(100)
        self.dims = (5, 4, 6)
        self.tree = build_balanced_tree(3)
        self.qs = [np.pi**2 * np.arange(1, n + 1, dtype=float) ** 2 for n in self.dims]

    def test_exact_application(self):
        s = build_scaling(self.qs, 0.3)
        v = random_htensor(self.tree, self.dims, 2, self.rng)
        w = apply_scaling(self.qs, s, v)
        want = approx_dense_diag(self.qs, s) * dense_vec(v)
        assert np.linalg.norm(dense_vec(w) - want) <= 1e-12 * np.linalg.norm(want)
        assert all(rw == s.m * rv for rw, rv in zip(w.ranks, v.ranks))

    def test_size_guard(self):
        s = build_scaling(self.qs, 1e-10)
        v = random_htensor(self.tree, self.dims, 3, self.rng)
        with pytest.raises(ValueError, match="apply_certified"):
            apply_scaling(self.qs, s, v, max_entries=1e4)


# ---------------------------------------------------------------------------
# one-sweep CP application
# ---------------------------------------------------------------------------


def dense_factor(f, n):
    if f is None:
        return np.eye(n)
    if sp.issparse(f):
        return f.toarray()
    f = np.asarray(f)
    return np.diag(f) if f.ndim == 1 else f


def dense_cp(terms, weights, dims):
    total = 0.0
    for j, term in enumerate(terms):
        mat = np.ones((1, 1))
        for f, n in zip(term, dims):
            mat = np.kron(mat, dense_factor(f, n))
        total = total + (1.0 if weights is None else weights[j]) * mat
    return total


def mixed_terms(dims, m, rng):
    """CP terms whose factors cycle through identity, dense, sparse and
    diagonal, so every term mixes kinds."""
    terms = []
    for j in range(m):
        term = []
        for i, n in enumerate(dims):
            kind = (i + j) % 4
            if kind == 0:
                term.append(None)
            elif kind == 1:
                term.append(rng.standard_normal((n, n)))
            elif kind == 2:
                term.append(sp.csr_array(rng.standard_normal((n, n))
                                         * (rng.random((n, n)) < 0.5)))
            else:
                term.append(rng.random(n) + 0.5)
        terms.append(tuple(term))
    return terms


def assert_orthonormal(h):
    assert h.orthogonal
    for u in h.frames.values():
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-12
    for b in h.transfer.values():
        mat = b.reshape(-1, b.shape[2])
        assert np.abs(mat.T @ mat - np.eye(mat.shape[1])).max() <= 1e-12


def dense_apply(terms, weights, x):
    """``sum_j w_j (M_j1 x ... x M_jd) x`` on a dense array, one mode
    product at a time."""
    total = np.zeros_like(x)
    for w, term in zip(weights, terms):
        y = x
        for i, f in enumerate(term):
            f = dense_factor(f, x.shape[i])
            y = np.moveaxis(np.tensordot(f, y, axes=(1, i)), 0, i)
        total += w * y
    return total


CP_TREES = [build_balanced_tree(2), build_balanced_tree(3), build_balanced_tree(4),
            build_linear_tree(2), build_linear_tree(3), build_linear_tree(4)]
GROUPING_TREES = [build_balanced_tree(d) for d in (3, 4, 5)] + [
    build_linear_tree(d) for d in (3, 4, 5)]


class TestApplyCP:
    @pytest.mark.parametrize("tree", CP_TREES,
                             ids=lambda t: f"d{t.d}-{len(t.children[t.root][0])}")
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_dense(self, tree, weighted):
        rng = np.random.default_rng(7 * tree.d + weighted)
        for m in (1, 3, 5):
            dims = tuple(int(n) for n in rng.integers(3, 6, size=tree.d))
            v = random_htensor(tree, dims, 2, rng)
            terms = mixed_terms(dims, m, rng)
            weights = rng.standard_normal(m) if weighted else None
            w = apply_cp(v, terms, weights)
            want = dense_cp(terms, weights, dims) @ dense_vec(v)
            assert np.linalg.norm(dense_vec(w) - want) <= 1e-12 * np.linalg.norm(want)
            assert_orthonormal(w)
            assert all(r <= c for r, c in zip(w.ranks, max_ranks(tree, dims)))

    def test_qr_caps_ranks(self):
        # m * r = 12 > n_i = 4: the leaf QR caps every rank at the mode size
        rng = np.random.default_rng(11)
        tree, dims = build_balanced_tree(3), (4, 4, 4)
        v = random_htensor(tree, dims, 3, rng)
        terms = mixed_terms(dims, 4, rng)
        w = apply_cp(v, terms)
        assert w.ranks == max_ranks(tree, dims)
        want = dense_cp(terms, None, dims) @ dense_vec(v)
        assert np.linalg.norm(dense_vec(w) - want) <= 1e-12 * np.linalg.norm(want)
        assert_orthonormal(w)

    def test_weights_default_to_one_and_scale(self):
        rng = np.random.default_rng(12)
        tree, dims = build_linear_tree(3), (3, 4, 5)
        v = random_htensor(tree, dims, 2, rng)
        terms = mixed_terms(dims, 2, rng)
        plain = dense_vec(apply_cp(v, terms))
        ones = dense_vec(apply_cp(v, terms, np.ones(2)))
        doubled = dense_vec(apply_cp(v, terms, [2.0, 2.0]))
        assert np.linalg.norm(plain - ones) <= 1e-12 * np.linalg.norm(plain)
        assert np.linalg.norm(doubled - 2.0 * plain) <= 1e-12 * np.linalg.norm(plain)

    def test_matches_literal_references(self):
        rng = np.random.default_rng(13)
        tree, dims = build_balanced_tree(3), (5, 4, 6)
        v = random_htensor(tree, dims, 2, rng)
        qs = [np.pi**2 * np.arange(1, n + 1, dtype=float) ** 2 for n in dims]
        s = build_scaling(qs, 0.3)
        factors = [mode_factors(qs, s, i) for i in range(3)]
        terms = [tuple(f[:, j] for f in factors) for j in range(s.m)]
        want = dense_vec(apply_scaling(qs, s, v))
        got = dense_vec(apply_cp(v, terms, s.weights))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        a = random_operator(dims, 3, rng, density=0.6)
        want = dense_vec(apply_exact(a, v))
        got = dense_vec(apply_cp(v, a.terms))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_diagonal_leaf_stack_is_bitwise_per_term_stack(self):
        # all-diagonal modes take one broadcast product; it must equal the
        # per-term stacking of d[:, None] * U bit for bit, alone and inside
        # apply_cp
        rng = np.random.default_rng(15)
        tree, dims = build_balanced_tree(3), (6, 5, 7)
        v = random_htensor(tree, dims, 3, rng)
        qs = [np.pi**2 * np.arange(1, n + 1, dtype=float) ** 2 for n in dims]
        s = build_scaling(qs, 1e-4)
        terms = list(zip(*(mode_factors(qs, s, i).T for i in range(3))))
        leaves = {}
        for i in range(3):
            factors = [t[i] for t in terms]
            leaves[i] = np.hstack([f[:, None] * v.frames[i] for f in factors])
            leaf_map = hsvd_module._leaf_map(factors, dims[i])
            assert np.array_equal(hsvd_module._mapped_leaf(leaf_map, v.frames[i]),
                                  leaves[i])
        got = apply_cp(v, terms, s.weights)
        want = hsvd_module._qr_sweep(tree, dims, leaves, v.transfer,
                                     v.root_transfer, s.weights)
        assert all(np.array_equal(got.frames[i], want.frames[i]) for i in range(3))
        assert all(np.array_equal(got.transfer[n], want.transfer[n])
                   for n in want.transfer)
        assert np.array_equal(got.root_transfer, want.root_transfer)

    @pytest.mark.parametrize("tree", GROUPING_TREES,
                             ids=lambda t: f"d{t.d}-{len(t.children[t.root][0])}")
    def test_shared_factors_factored_once(self, tree):
        # mode i draws from {None, a matrix A_i, a diagonal D_i}: terms that
        # coincide below a node are one block there, so its rank is at most
        # g_node * r_node
        rng = np.random.default_rng(40 + tree.d)
        dims = tuple(int(n) for n in rng.integers(5, 7, size=tree.d))
        v = random_htensor(tree, dims, 2, rng)
        pool = [(None, rng.standard_normal((n, n)), rng.random(n) + 0.5)
                for n in dims]
        terms = [tuple(pool[i][int(k)] for i, k in
                       enumerate(rng.integers(0, 3, size=tree.d)))
                 for _ in range(6)]
        weights = rng.standard_normal(6)
        w = apply_cp(v, terms, weights)
        want = dense_apply(terms, weights, to_dense(v))
        assert np.linalg.norm(to_dense(w) - want) <= 1e-12 * np.linalg.norm(want)
        assert_orthonormal(w)
        for node, r_out, r_in in zip(v.edge_list, w.ranks, v.ranks):
            g = len({tuple(id(t[i]) for i in node) for t in terms})
            assert r_out <= g * r_in, node

    def test_repeated_term_is_one_term_with_summed_weight(self):
        rng = np.random.default_rng(41)
        tree, dims = build_linear_tree(4), (4, 5, 3, 4)
        v = random_htensor(tree, dims, 2, rng)
        t = mixed_terms(dims, 1, rng)[0]
        twice = apply_cp(v, [t, t], [0.3, 1.1])
        once = apply_cp(v, [t], [1.4])
        assert twice.ranks == once.ranks
        want = to_dense(once)
        assert np.linalg.norm(to_dense(twice) - want) <= 1e-12 * np.linalg.norm(want)

    def test_parametric_blocks_have_one_column_block_per_distinct_term(
            self, monkeypatch):
        # parametric d = 4 on the linear tree (0, (1, (2, (3, 4)))): the
        # identity term and the terms of parameters 1, 2 agree on modes 3, 4,
        # and those of parameters 0, 1 on modes 2, 3, 4
        problem = load_problem(FIXTURES / "parametric_d4.ini")
        tree = problem.rhs.tree
        k = 3
        v = random_htensor(tree, problem.dims, k, np.random.default_rng(42))
        shapes = []
        stacked = hsvd_module._stacked_block

        def recording_block(*args):
            block = stacked(*args)
            shapes.append(block.shape)
            return block

        monkeypatch.setattr(hsvd_module, "_stacked_block", recording_block)
        apply_cp(v, problem.operator.terms)
        # the sweep forms one block per interior non-root node, bottom-up
        nodes = [n for n in tree.bottom_up()
                 if n != tree.root and not tree.is_leaf(n)]
        assert len(shapes) == len(nodes)
        block = dict(zip(nodes, shapes))
        assert len(problem.operator.terms) == 5
        assert block[(3, 4)][1] <= 3 * k
        assert block[(2, 3, 4)][1] <= 4 * k

    def test_diffusion_shared_derivative_is_one_group(self):
        # couplings (0, 2) and (1, 2) share the derivative factor at mode 2:
        # the stiffness term of mode 2, the identity and that derivative make
        # 3 groups there
        m_matrix = np.eye(3)
        m_matrix[0, 2] = m_matrix[2, 0] = m_matrix[1, 2] = m_matrix[2, 1] = 0.2
        problem = build_diffusion_I(3, ("eigensine", 4), m_matrix)
        terms = problem.operator.terms
        groups = hsvd_module._term_groups(problem.rhs.tree, terms)
        assert len(groups[(2,)][1]) == 3
        v = random_htensor(problem.rhs.tree, problem.rhs.dims, 2,
                           np.random.default_rng(43))
        w = apply_cp(v, terms)
        want = dense_apply(terms, np.ones(len(terms)), to_dense(v))
        assert np.linalg.norm(to_dense(w) - want) <= 1e-12 * np.linalg.norm(want)

    def test_zero_tensor(self):
        tree, dims = build_balanced_tree(3), (3, 4, 3)
        w = apply_cp(zero_htensor(tree, dims), [(np.ones(3), None, None)])
        assert norm(w) == 0.0 and w.ranks == (0, 0, 0)

    def test_validation(self):
        rng = np.random.default_rng(14)
        v = random_htensor(build_balanced_tree(2), (3, 3), 1, rng)
        with pytest.raises(ValueError):
            apply_cp(v, [])
        with pytest.raises(ValueError):
            apply_cp(v, [(None,)])
        with pytest.raises(ValueError):
            apply_cp(v, [(None, None)], weights=[1.0, 2.0])


# ---------------------------------------------------------------------------
# certified application
# ---------------------------------------------------------------------------


def ideal_scaled_operator(dims, rng):
    """Kronecker sum of per-mode positive diagonals, ideally scaled on both
    sides: the scaled operator is exactly the identity, so bounds are (1, 1)."""
    qs = [np.pi**2 * np.arange(1, n + 1, dtype=float) ** 2 for n in dims]
    s = ExpSumScaling(qs)
    terms = []
    for i, q in enumerate(qs):
        term = [None] * len(dims)
        term[i] = np.diag(q)
        terms.append(tuple(term))
    return LowRankOperator(dims, terms, scaling_left=s, scaling_right=s,
                           bounds=OperatorBounds(1.0, 1.0))


@pytest.mark.parametrize("tree", [build_balanced_tree(4), build_linear_tree(4)],
                         ids=["balanced", "linear"])
def test_solve_path_calls_no_einsum(tree, monkeypatch):
    """Application, recompression and coarsening contract with fixed matrix
    products only: ``np.einsum``, as hsvd reaches it, raises here."""
    rng = np.random.default_rng(31)
    dims = (4, 3, 5, 4)
    a = ideal_scaled_operator(dims, rng)
    v = add(random_htensor(tree, dims, 3, rng), random_htensor(tree, dims, 2, rng))

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(hsvd_module.np, "einsum", refuse)
    w = apply_certified(a, v, 1e-3 * norm(v))
    w = recompress(w, 1e-2 * norm(w))
    coarsen(w, 1e-2 * norm(w))


class TestApplyCertified:
    def setup_method(self):
        self.rng = np.random.default_rng(2024)
        self.dims = (5, 4, 6)
        self.tree = build_balanced_tree(3)

    def test_certified_error_bound(self):
        a = ideal_scaled_operator(self.dims, self.rng)
        dense = _assemble_sparse(a).toarray()
        for eta_rel in (1e-1, 1e-3, 1e-6, 1e-9):
            v = random_htensor(self.tree, self.dims, 2, self.rng)
            eta = eta_rel * norm(v)
            w = apply_certified(a, v, eta)
            err = np.linalg.norm(dense_vec(w) - dense @ dense_vec(v))
            assert err <= eta

    def test_no_expsum_error_zero_before_recompress(self):
        # an exact diagonal on each side, multiplied into the terms
        rng = self.rng
        diag = tuple(rng.random(n) + 0.5 for n in self.dims)
        terms = [(np.diag(rng.random(5) + 1), None, None),
                 (None, np.diag(rng.random(4) + 1), None)]
        a = LowRankOperator(self.dims, diagonally_scaled_terms(terms, diag, diag))
        v = random_htensor(self.tree, self.dims, 2, rng)
        exact = apply_exact(a, v)
        w, info = apply_certified(a, v, 0.0, return_info=True)
        assert info["scaling_error"] == 0.0
        # edges (0, 1), (0,), (1,) of the rank-2 input: both terms are the
        # identity on mode 2, so the root edge keeps rank 2 where the
        # per-term sum has 4; modes 0 and 1 each see two distinct factors
        assert exact.ranks == (4, 4, 4)
        assert info["pre_ranks"] == (2, 4, 4)
        err = np.linalg.norm(dense_vec(w) - dense_vec(exact))
        assert err <= 1e-12 * norm(exact)
        # positive budget: final error within eta/2
        eta = 0.1 * norm(exact)
        w2 = apply_certified(a, v, eta)
        err2 = np.linalg.norm(dense_vec(w2) - dense_vec(exact))
        assert err2 <= eta / 2

    def test_zero_input(self):
        a = ideal_scaled_operator(self.dims, self.rng)
        z = zero_htensor(self.tree, self.dims)
        w = apply_certified(a, z, 0.5)
        assert norm(w) == 0.0

    def test_expsum_needs_positive_eta(self):
        a = ideal_scaled_operator(self.dims, self.rng)
        v = random_htensor(self.tree, self.dims, 1, self.rng)
        with pytest.raises(ToleranceInfeasibleError):
            apply_certified(a, v, 0.0)

    @pytest.mark.parametrize("eta", [5e-324, 1e-300])
    def test_tiny_eta_is_infeasible(self, eta):
        # at 5e-324 the table accuracy underflows to 0 before its log2
        p = load_problem(FIXTURES / "diffusion_d3_sine.ini")
        with pytest.raises(ToleranceInfeasibleError):
            apply_certified(p.operator, p.rhs, eta)

    def test_expsum_needs_bounds(self):
        a = ideal_scaled_operator(self.dims, self.rng)
        a.bounds = None
        v = random_htensor(self.tree, self.dims, 1, self.rng)
        with pytest.raises(ValueError, match="bounds"):
            apply_certified(a, v, 0.1)

    def test_one_recompression_per_application(self, monkeypatch):
        calls = []
        real = ops_module.recompress

        def counting(h, eta):
            calls.append(eta)
            return real(h, eta)

        monkeypatch.setattr(ops_module, "recompress", counting)
        a = ideal_scaled_operator(self.dims, self.rng)
        v = random_htensor(self.tree, self.dims, 2, self.rng)
        eta = 1e-6 * norm(v)
        _, info = apply_certified(a, v, eta, return_info=True)
        assert info["m_left"] > 1 and info["m_right"] > 1
        assert calls == [eta / 2.0]

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -1.0])
    def test_rejects_bad_eta(self, eta):
        a = ideal_scaled_operator(self.dims, self.rng)
        v = random_htensor(self.tree, self.dims, 1, self.rng)
        with pytest.raises(ValueError, match="eta"):
            apply_certified(a, v, eta)

    def test_one_table_shared_by_both_sides(self, monkeypatch):
        built = []
        real = ops_module.build_scaling

        def counting(level_weights, tol):
            built.append(real(level_weights, tol))
            return built[-1]

        monkeypatch.setattr(ops_module, "build_scaling", counting)
        p = load_problem(FIXTURES / "diffusion_d3_sine.ini")
        assert built == []
        _, info = apply_certified(p.operator, p.rhs, 1e-3, return_info=True)
        assert len(built) == 1
        assert info["m_left"] == info["m_right"] == built[0].m
        # a second application at the same accuracy reuses the cached table
        apply_certified(p.operator, p.rhs, 1e-3)
        assert len(built) == 1

    def test_table_sizes_respond_to_eta(self):
        a = ideal_scaled_operator(self.dims, self.rng)
        v = random_htensor(self.tree, self.dims, 2, self.rng)
        _, loose = apply_certified(a, v, 1e-1 * norm(v), return_info=True)
        _, tight = apply_certified(a, v, 1e-8 * norm(v), return_info=True)
        assert tight["m_left"] > loose["m_left"]
        assert tight["beta"] < loose["beta"]

    def test_one_root_svd_per_application(self, monkeypatch):
        # right scaling, middle and left scaling are three sweeps; only the
        # last takes the SVD of its root core
        monkeypatch.setattr(ops_module, "recompress", lambda h, eta: h)
        a = ideal_scaled_operator(self.dims, self.rng)
        v = hsvd_module.orthogonalize(random_htensor(self.tree, self.dims, 2,
                                                     self.rng))
        apply_certified(a, v, 1e-6 * norm(v))  # builds the table and plans
        svds = []
        svd = hsvd_module._svd
        monkeypatch.setattr(hsvd_module, "_svd",
                            lambda m: svds.append(m.shape) or svd(m))
        w, info = apply_certified(a, v, 1e-6 * norm(v), return_info=True)
        assert info["m_left"] > 1 and info["m_right"] > 1
        assert len(svds) == 1 and w.orthogonal

    def test_plans_built_once(self, monkeypatch):
        p = load_problem(FIXTURES / "diffusion_d3_sine.ini")
        apply_certified(p.operator, p.rhs, 1e-3)
        built = []
        groups = hsvd_module._term_groups
        monkeypatch.setattr(hsvd_module, "_term_groups",
                            lambda *args: built.append(args) or groups(*args))
        apply_certified(p.operator, p.rhs, 1e-3)
        assert built == []
        # a new table accuracy builds that table's plan only
        apply_certified(p.operator, p.rhs, 1e-6)
        assert len(built) == 1

    @pytest.mark.parametrize("name", ["parametric_d4", "diffusion_d3_ml3"])
    def test_stored_plan_is_bitwise_fresh_plan_and_per_factor_products(self, name):
        p = load_problem(FIXTURES / f"{name}.ini")
        a, tree = p.operator, p.rhs.tree
        v = random_htensor(tree, a.dims, 3, np.random.default_rng(9))
        apply_certified(a, v, 1e-3)
        stored = a._plans[tree]
        apply_certified(a, v, 1e-3)
        # the operator keeps one plan per tree, its Kronecker middle's
        assert a._plans == {tree: stored} and a._plans[tree] is stored
        assert isinstance(stored, hsvd_module._CPPlan)
        ones = np.ones(a.num_terms)
        got = hsvd_module._apply_stages(v, [(stored, ones)])
        fresh = apply_cp(v, a.terms)
        groups = hsvd_module._term_groups(tree, a.terms)
        assert groups is not None
        leaves = {}
        for i, u in v.frames.items():
            factors = [a.terms[j][i] for j in groups[(i,)][1]]
            leaves[i] = np.hstack([u if f is None else f @ u for f in factors])
        per_factor = hsvd_module._qr_sweep(tree, a.dims, leaves, v.transfer,
                                           v.root_transfer, ones, groups)
        for want in (fresh, per_factor):
            assert all(np.array_equal(got.frames[i], want.frames[i])
                       for i in range(a.d))
            assert all(np.array_equal(got.transfer[n], want.transfer[n])
                       for n in want.transfer)
            assert np.array_equal(got.root_transfer, want.root_transfer)

    def test_plans_die_with_the_operator(self):
        # plans live on the operator and its scaling, not in a module cache
        # that would keep every loaded problem alive
        p = load_problem(FIXTURES / "diffusion_d2_sine.ini")
        refs = [weakref.ref(p.operator), weakref.ref(p.operator.scaling_left)]
        lower, upper = float(p.operator.bounds.lower), float(p.operator.bounds.upper)
        st_solve(p.operator, p.rhs, 2.0 / (upper + lower),
                 (upper - lower) / (upper + lower), eps=1e-3)
        assert p.operator._plans and p.operator.scaling_left._tables
        del p
        gc.collect()
        assert [r() for r in refs] == [None, None]


class TestRhsTruncate:
    def test_error_within_budget(self):
        rng = np.random.default_rng(5)
        tree, dims = build_balanced_tree(3), (6, 5, 6)
        f = random_htensor(tree, dims, 3, rng)
        for eta_rel in (0.3, 0.05, 1e-3):
            eta = eta_rel * norm(f)
            g = rhs_truncate(f, eta)
            assert np.linalg.norm(dense_vec(f) - dense_vec(g)) <= eta

    def test_trivial_cases(self):
        rng = np.random.default_rng(6)
        tree, dims = build_balanced_tree(2), (5, 5)
        f = random_htensor(tree, dims, 2, rng)
        assert norm(rhs_truncate(f, 2.0 * norm(f))) == 0.0
        g = rhs_truncate(f, 0.0)
        assert np.linalg.norm(dense_vec(f) - dense_vec(g)) <= 1e-12 * norm(f)
        with pytest.raises(ValueError):
            rhs_truncate(f, -1.0)

    def test_rejects_nan_tolerance(self):
        rng = np.random.default_rng(7)
        f = random_htensor(build_balanced_tree(2), (5, 5), 2, rng)
        with pytest.raises(ValueError, match="nan"):
            rhs_truncate(f, math.nan)
        assert norm(rhs_truncate(f, math.inf)) == 0.0
