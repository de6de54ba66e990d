"""Typicality test, subset search, genie LS, CRLB, bound terms, OMP."""

import math
import tracemalloc
import warnings
from itertools import combinations, product
from types import SimpleNamespace

import frozen_gram
import frozen_kron
import frozen_omp
import frozen_svd
import numpy as np
from frozen_svd import assert_oracle_contract, gram_tolerance, literal_search, search_triples
import pytest

from ris_crlb import cli
from ris_crlb import estimator as est
from ris_crlb import harness as hn
from ris_crlb import numerics as nm
from ris_crlb import sensing as sn
from ris_crlb.errors import RankDeficientError


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def default_scale_model(k=20, seed=0, noise_var=None):
    pilots = sn.gen_pilots(n_d=5, k=k, seed=seed)
    return sn.measurement_model(pilots, 5, noise_var=noise_var)


def energies(y):
    """||y_t||^2 of each row of a stack, as the block core hands them to est.jt_search."""
    return np.array([np.vdot(v, v).real for v in y])


def table_screen(outer, reps, corr, yy, noise_var, subsets, m):
    """The search's (R, b) statistics of every (problem, subset) pair of ``outer`` (R, p, p)
    and ``subsets`` (b, l), composed as :func:`estimator.jt_search` composes them from the
    block tables, at reps = 1 those of the subsets themselves."""
    total, comb, sets, starts, _, _ = est._layout(outer.shape[1], reps, subsets.shape[1])
    term = est._tables(outer, reps, corr, sets or [subsets])
    tidx = est._gather(comb, starts, subsets, reps)
    return est._statistics(term, np.arange(len(outer)), tidx, yy, noise_var, m)


class TestTypicalityStatistic:
    def test_in_span_noiseless(self):
        model = default_scale_model()
        sub = model.upsilon_mat[:, [7]]
        v = np.array([1.3 - 0.4j])
        sigma2 = 0.4
        stat = est.typicality_statistic(sub @ v, sub, sigma2, 1)
        m = 100
        assert abs(stat - (m - 1) / m * sigma2) < 1e-12

    def test_zero_observation(self):
        model = default_scale_model()
        sub = model.upsilon_mat[:, [3]]
        sigma2 = 0.9
        stat = est.typicality_statistic(np.zeros(100, dtype=complex), sub, sigma2, 1)
        assert abs(stat - 99 / 100 * sigma2) < 1e-12

    def test_centering_monte_carlo(self):
        # raw projected energy concentrates at (m - L)/m * sigma^2
        sigma2 = 0.25
        model = default_scale_model(seed=1, noise_var=sigma2)
        truth = np.zeros(25, dtype=complex)
        truth[4] = 2.0
        sub = model.upsilon_mat[:, [4]]
        rng = np.random.default_rng(2)
        m = 100
        draws = 10_000
        total = 0.0
        for _ in range(draws):
            y = sn.observe(model, truth, rng)
            centered = est.typicality_statistic(y, sub, 0.0, 1)
            total += centered  # with sigma^2 = 0 the statistic is the raw energy
        assert abs(total / draws / ((m - 1) / m * sigma2) - 1.0) < 0.02

    def test_rank_deficient(self):
        sub = np.ones((10, 2), dtype=complex)
        with pytest.raises(RankDeficientError):
            est.typicality_statistic(np.ones(10, dtype=complex), sub, 0.1, 2)


class TestTypicalityConfig:
    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            est.TypicalityConfig(delta=delta, sparsity=1)

    @pytest.mark.parametrize("kns, l", [(100, 1), (5, 5), (3, 4)])
    def test_threshold_returns_the_override_unchanged(self, kns, l):
        # also where kns <= l, where the crlb table prints it
        cfg = est.TypicalityConfig(delta=0.05, sparsity=1)
        assert cfg.threshold(0.5, kns, l) == 0.05
        assert cfg.threshold(np.array([0.1, 0.5]), kns, l) == 0.05

    def test_threshold_default_is_bitwise_default_delta(self):
        cfg = est.TypicalityConfig(delta=None, sparsity=1)
        noise = np.random.default_rng(3).uniform(1e-6, 10.0, 50)
        for kns, l in ((100, 1), (6, 5), (40, 3)):
            want = est.default_delta(noise, kns, l)
            assert cfg.threshold(noise, kns, l).tobytes() == want.tobytes()
            for v in noise.tolist():
                assert cfg.threshold(v, kns, l).hex() == est.default_delta(v, kns, l).hex()

    @pytest.mark.parametrize("kns, l", [(5, 5), (3, 4)])
    def test_threshold_default_is_nan_at_or_below_the_support(self, kns, l):
        cfg = est.TypicalityConfig(delta=None, sparsity=1)
        assert math.isnan(cfg.threshold(0.5, kns, l))
        assert np.all(np.isnan(cfg.threshold(np.array([0.1, 0.5]), kns, l)))


class TestJtEstimate:
    @pytest.mark.parametrize(
        "shape, delta, match",
        [
            # m = 5 <= L = 5: the default delta is undefined
            ((5, 8), None, "default delta"),
            # L = 5 > 4 columns: there is no candidate support
            ((12, 4), 0.1, "exceeds"),
        ],
    )
    def test_rejects_a_search_it_cannot_run(self, shape, delta, match):
        mat = crandn(np.random.default_rng(5), *shape)
        cfg = est.TypicalityConfig(delta=delta, sparsity=5)
        with pytest.raises(ValueError, match=match):
            est.jt_estimate(mat[:, 0], mat, cfg, 0.1)

    def test_noiseless_recovery_default_scale(self):
        rng = np.random.default_rng(3)
        model = default_scale_model(seed=4)
        truth = np.zeros(25, dtype=complex)
        truth[13] = np.exp(1j * 0.8)
        y = model.upsilon_mat @ truth
        sigma2 = 1e-4
        cfg = est.TypicalityConfig(delta=2 * 99 / 100 * sigma2, sparsity=1)
        res = est.jt_estimate(y, model.upsilon_mat, cfg, sigma2)
        assert not res.failed
        assert res.support == (13,)
        assert est.squared_errors(res.upsilon_hat, truth) < 1e-18

    def test_tight_threshold_fails(self):
        rng = np.random.default_rng(5)
        model = default_scale_model(seed=6, noise_var=0.1)
        truth = np.zeros(25, dtype=complex)
        truth[0] = 1.0
        y = sn.observe(model, truth, rng)
        cfg = est.TypicalityConfig(delta=1e-15, sparsity=1)
        res = est.jt_estimate(y, model.upsilon_mat, cfg, 0.1)
        assert res.failed
        assert res.support == ()
        assert np.all(res.upsilon_hat == 0)
        assert math.isinf(res.statistic)

    def test_subset_budget_l1(self):
        model = default_scale_model(seed=7, noise_var=0.1)
        truth = np.zeros(25, dtype=complex)
        truth[2] = 1.0
        y = sn.observe(model, truth, np.random.default_rng(8))
        cfg = est.TypicalityConfig(delta=None, sparsity=1)
        res = est.jt_estimate(y, model.upsilon_mat, cfg, 0.1)
        assert res.subsets_examined <= 25

    def test_budget_cap_raises(self):
        model = default_scale_model(seed=9, noise_var=0.1)
        cfg = est.TypicalityConfig(delta=1.0, sparsity=3, max_subsets=100)
        with pytest.raises(ValueError, match="max_subsets"):
            est.jt_estimate(np.ones(100, dtype=complex), model.upsilon_mat, cfg, 0.1)

    def test_best_statistic_matches_brute_force_oracle(self):
        # noiseless small instances: returned support must equal the truth
        # and the exhaustive minimum-residual subset
        rng = np.random.default_rng(10)
        for trial in range(30):
            n_d, n_s = (3, 4) if trial % 2 == 0 else (2, 5)
            l = 1 + trial % 2
            k = 8
            pilots = sn.gen_pilots(n_d=n_d, k=k, seed=100 + trial)
            mat = sn.measurement_matrix(pilots, n_s)
            dim = n_d * n_s
            truth = np.zeros(dim, dtype=complex)
            support = tuple(sorted(rng.choice(dim, size=l, replace=False)))
            truth[list(support)] = np.exp(2j * np.pi * rng.random(l))
            y = mat @ truth

            cfg = est.TypicalityConfig(
                delta=1e-9, sparsity=l, search_order=est.BEST_STATISTIC
            )
            res = est.jt_estimate(y, mat, cfg, 0.0)

            # independent oracle: residual of direct LS per subset
            best_resid, best_set = None, None
            for cand in combinations(range(dim), l):
                sol, _, _, _ = np.linalg.lstsq(mat[:, cand], y, rcond=None)
                resid = float(np.sum(np.abs(y - mat[:, cand] @ sol) ** 2))
                if best_resid is None or resid < best_resid:
                    best_resid, best_set = resid, cand
            assert res.support == support == best_set

    def test_lexicographic_first_returns_earliest(self):
        # construct duplicated-column data so two supports are typical and
        # the scan must return the lexicographically first one
        rng = np.random.default_rng(11)
        base = crandn(rng, 12, 1)
        mat = np.concatenate([crandn(rng, 12, 2), base, base], axis=1)
        y = base[:, 0] * 2.0
        cfg = est.TypicalityConfig(delta=1e-9, sparsity=1)
        res = est.jt_estimate(y, mat, cfg, 0.0)
        assert res.support == (2,)


class TestSearchEquivalence:
    """The batched Gram-domain search decides as the SVD statistic loop, but for subsets
    within the rounding tolerance of delta, of cond(G_J) >= GRAM_COND or in a tie."""

    @pytest.mark.parametrize("m, l", [(5, 1), (8, 3), (40, 4), (100, 2)])
    def test_oracle_statistics_are_the_single_svd_statistics(self, m, l):
        # the oracle's stacked SVD statistic of each subset has the bits of the one-subset
        # typicality_statistic, and is nan where that raises
        rng = np.random.default_rng(m + l)
        mat = crandn(rng, m, 6)
        mat[:, 5] = mat[:, 0]  # subsets with columns 0 and 5 are rank deficient
        y = crandn(rng, m)
        subsets = np.array(list(combinations(range(6), l)))
        stacked = frozen_svd.subset_statistics(y, mat, 0.3, subsets)
        for cand, stat in zip(subsets, stacked.tolist()):
            try:
                want = frozen_svd.typicality_statistic(y, mat[:, cand], 0.3, l)
            except RankDeficientError:
                want = math.nan
            assert stat == want or math.isnan(stat) and math.isnan(want), cand

    @pytest.mark.parametrize("order", [est.LEXICOGRAPHIC_FIRST, est.BEST_STATISTIC])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_literal_svd_loop(self, l, order):
        rng = np.random.default_rng(900 + 10 * l + (order == est.BEST_STATISTIC))
        shapes = [(3, 4), (2, 5), (3, 3), (5, 2)]
        same = 0
        for trial in range(40):
            n_d, n_s = shapes[trial % len(shapes)]
            pilots = sn.gen_pilots(n_d=n_d, k=8, seed=90_000 + trial)
            mat = sn.measurement_matrix(pilots, n_s)
            dim = mat.shape[1]
            support = [int(i) for i in rng.choice(dim, size=l, replace=False)]
            others = [i for i in range(dim) if i not in support]
            # 0: as drawn; 1: a support column duplicated; 2: a zero column;
            # 3: a column near a support column, itself in the support when
            # L > 1 (an ill-conditioned but full-rank true support)
            if trial % 4 == 1:
                mat[:, others[0]] = mat[:, support[0]]
            elif trial % 4 == 2:
                mat[:, others[0]] = 0.0
            elif trial % 4 == 3:
                near = support[-1] if l > 1 else others[0]
                gap = 1e-4 if trial % 8 == 3 else 1e-7
                mat[:, near] = mat[:, support[0]] + gap * crandn(rng, mat.shape[0])
            truth = np.zeros(dim, dtype=complex)
            truth[support] = np.exp(2j * np.pi * rng.random(l))
            noise_var = 0.05 if trial % 2 else 0.0
            y = mat @ truth + math.sqrt(noise_var / 2) * crandn(rng, mat.shape[0])

            # 0: delta exactly on a candidate's (positive) statistic; 1: the
            # default or, noiseless, a tight explicit one; 2: log-uniform in
            # [1e-10, 1]
            delta = 1e-9
            if trial % 3 == 0:
                cand = tuple(sorted(int(i) for i in rng.choice(dim, size=l, replace=False)))
                try:
                    delta = frozen_svd.typicality_statistic(y, mat[:, cand], noise_var, l) or delta
                except RankDeficientError:
                    pass
            elif trial % 3 == 1 and noise_var:
                delta = None
            elif trial % 3 == 2:
                delta = 10.0 ** rng.uniform(-10, 0)
            cfg = est.TypicalityConfig(delta=delta, sparsity=l, search_order=order)

            res = est.jt_estimate(y, mat, cfg, noise_var)
            got = (res.support, res.statistic, res.subsets_examined)
            same += assert_oracle_contract(got, y, mat, cfg, noise_var)
        # a disagreement needs a subset at delta, an ill-conditioned one or a tie
        assert same >= 35

    @pytest.mark.parametrize("order", [est.LEXICOGRAPHIC_FIRST, est.BEST_STATISTIC])
    def test_winner_beyond_first_block(self, order):
        # 40 columns, L = 3: 9,880 subsets, so several blocks; every subset
        # led by column 10 lies past position 5,820
        pilots = sn.gen_pilots(n_d=8, k=10, seed=77)
        mat = sn.measurement_matrix(pilots, 5)
        support = (10, 21, 33)
        assert math.comb(mat.shape[1], 3) > 2 * est._SCAN_BLOCK
        truth = np.zeros(mat.shape[1], dtype=complex)
        truth[list(support)] = [1.0, -0.5j, 0.75]
        y = mat @ truth
        cfg = est.TypicalityConfig(delta=1e-9, sparsity=3, search_order=order)

        res = est.jt_estimate(y, mat, cfg, 0.0)
        ref = literal_search(y, mat, cfg, 0.0)
        assert ref[0] == support
        assert (res.support, res.subsets_examined) == (ref[0], ref[2])
        assert abs(res.statistic - ref[1]) <= gram_tolerance(y, mat[:, support], 0.0)
        if order == est.LEXICOGRAPHIC_FIRST:
            assert res.subsets_examined > est._SCAN_BLOCK


class TestJtSearchStack:
    """A stack of problems searched at once decides as each problem alone."""

    @pytest.mark.parametrize("order", [est.LEXICOGRAPHIC_FIRST, est.BEST_STATISTIC])
    @pytest.mark.parametrize("delta", [None, 0.05])
    def test_matches_one_problem_search(self, order, delta):
        rng = np.random.default_rng(950 + (order == est.BEST_STATISTIC) + 2 * (delta is None))
        n_d, n_s, k, l, t_count = 3, 4, 8, 2, 12
        pilots = np.stack(
            [sn.gen_pilots(n_d=n_d, k=k, seed=95_000 + t) for t in range(t_count)]
        )
        noise_var = rng.uniform(0.001, 0.1, t_count)
        y = np.empty((t_count, k * n_s), dtype=complex)
        for t in range(t_count):
            truth = np.zeros(n_d * n_s, dtype=complex)
            # magnitudes from faint to strong: some problems have many
            # typical subsets, some one, some none
            truth[rng.choice(n_d * n_s, size=l, replace=False)] = rng.uniform(0.05, 1.5, l)
            mat = sn.measurement_matrix(pilots[t], n_s)
            y[t] = mat @ truth + math.sqrt(noise_var[t] / 2) * crandn(rng, k * n_s)
        cfg = est.TypicalityConfig(delta=delta, sparsity=l, search_order=order)

        outer, corr = sn.kron_normal(pilots, n_s, y)
        stacked = est.jt_search(energies(y), k * n_s, outer, n_s, corr, noise_var, cfg, l)
        got = search_triples(*stacked)
        for t in range(t_count):
            one = slice(t, t + 1)
            alone = est.jt_search(
                energies(y[one]), k * n_s, outer[one], n_s, corr[one], noise_var[one], cfg, l
            )
            assert all(v[t:t + 1].tobytes() == w.tobytes() for v, w in zip(stacked, alone))
            mat = sn.measurement_matrix(pilots[t], n_s)
            assert assert_oracle_contract(got[t], y[t], mat, cfg, noise_var[t]), t
        assert len({g[2] for g in got}) > 1 or order == est.BEST_STATISTIC
        assert len({g[0] for g in got}) > 1

    @pytest.mark.parametrize("order", [est.LEXICOGRAPHIC_FIRST, est.BEST_STATISTIC])
    def test_singular_only_typical_subset_fails_the_search(self, order):
        # column 1 is column 0 to 1e-4, so G_{0,1} has lambda_max / lambda_min ~ 4e8 >=
        # GRAM_COND; y = e0 + e1 lies in their span and ~1 from those of (0, 2) and (1, 2),
        # so (0, 1) is the one subset below delta, by its finite statistic, and the rank
        # rule rejects it: no subset is taken
        mat = np.zeros((6, 3), dtype=complex)
        mat[0, 0] = mat[0, 1] = mat[2, 2] = 1.0
        mat[1, 1] = 1e-4
        y = np.array([1.0, 1.0, 0, 0, 0, 0], dtype=complex)
        herm = mat.conj().T
        outer, corr = (herm @ mat)[None], (herm @ y)[None]
        noise_var = np.array([1e-3])
        stat = table_screen(outer, 1, corr, np.array([2.0]), noise_var,
                            np.array([[0, 1], [0, 2], [1, 2]]), 6)
        assert stat[0, 0] < 0.01 < stat[0, 1:].min()
        assert not nm.full_rank(np.linalg.eigvalsh(outer[0][:2, :2]))
        cfg = est.TypicalityConfig(0.01, 2, order)
        (support,), (best,), (examined,) = est.jt_search(
            energies(y[None]), 6, outer, 1, corr, noise_var, cfg, 2
        )
        assert support.tolist() == [-1, -1] and best == math.inf and examined == 3

    @pytest.mark.parametrize("order", [est.LEXICOGRAPHIC_FIRST, est.BEST_STATISTIC])
    def test_one_eigvalsh_per_pass_of_its_typical_pairs(self, order, monkeypatch):
        # column 5 is column 0 to 1e-6: y = 2 column 0 lies in the span of every subset
        # with column 0, and within about 1e-12 of every one with column 5, so all of them
        # are typical; (0, 5), whose G_J is singular to about 1e-12, is not full rank.  In
        # passes of 4 subsets, each pass's typical pairs take one stacked eigvalsh
        rng = np.random.default_rng(961)
        mat = crandn(rng, 12, 6)
        mat[:, 5] = mat[:, 0] + 1e-6 * crandn(rng, 12)
        y = 2.0 * mat[:, 0]
        herm = mat.conj().T
        outer, corr = (herm @ mat)[None], (herm @ y)[None]
        eig, inner = [], np.linalg.eigvalsh

        def spy(a):
            eig.append(a.copy())
            return inner(a)

        def banned(*args, **kwargs):
            raise AssertionError("an SVD in the search")

        def typical_grams(outer, reps, corr, y, noise_var, delta, subsets):
            # the G_J of each pair below delta, in the search's (problem, subset) order
            stat = table_screen(outer, reps, corr, np.sum(np.abs(y) ** 2, axis=-1),
                                noise_var, subsets, y.shape[-1])
            ri, ci = np.nonzero(stat < delta)
            return nm.kron_gram(outer[ri], reps, subsets[ci])

        subsets = np.array(list(combinations(range(6), 2)))
        want = [typical_grams(outer, 1, corr, y[None], np.zeros(1), 1e-9, subsets[p:p + 4])
                for p in range(0, len(subsets), 4)]
        assert [len(w) for w in want] == [4, 1, 2, 2]
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        monkeypatch.setattr(np.linalg, "svd", banned)
        cfg = est.TypicalityConfig(1e-9, 2, order)
        with monkeypatch.context() as patch:
            patch.setattr(est, "_SCAN_BLOCK", 4)
            (support,), (stat,), _ = est.jt_search(
                energies(y[None]), 12, outer, 1, corr, [0.0], cfg, 2
            )
        # lexicographic_first stops after the first pass, which holds a full-rank pair
        want = want[:1] if order == est.LEXICOGRAPHIC_FIRST else want
        assert len(eig) == len(want) and all(np.array_equal(a, w) for a, w in zip(eig, want))
        assert stat < 1e-9
        assert 0 in support.tolist() or 5 in support.tolist()
        assert support.tolist() != [0, 5]
        # default scale, L = 1: one pass, whose typical pairs take one eigvalsh
        eig.clear()
        t_count, n_s, k = 12, 5, 20
        pilots = np.stack([sn.gen_pilots(n_d=5, k=k, seed=96_000 + t) for t in range(t_count)])
        truth = np.zeros((t_count, 25), dtype=complex)
        truth[np.arange(t_count), rng.choice(25, t_count)] = 1.0
        y = sn.kron_forward(pilots, n_s, truth) + 0.1 / math.sqrt(2) * crandn(rng, t_count, k * n_s)
        outer, corr = sn.kron_normal(pilots, n_s, y)
        noise_var, cfg = np.full(t_count, 0.01), est.TypicalityConfig(None, 1, order)
        found = est.jt_search(energies(y), k * n_s, outer, n_s, corr, noise_var, cfg, 1)
        got = search_triples(*found)
        assert [g[0] for g in got] == [(int(np.flatnonzero(v)[0]),) for v in truth]
        delta = cfg.threshold(noise_var, k * n_s, 1)[:, None]
        want = typical_grams(outer, n_s, corr, y, noise_var, delta, np.arange(25)[:, None])
        assert len(eig) == 1 and len(want) >= t_count and np.array_equal(eig[0], want)


class TestGramScreen:
    """The table screen of jt_search against the frozen LDL^H screen, eigh and the SVD
    statistic."""

    GEOMETRIES = [(5, 5), (6, 4), (4, 6), (10, 1), (8, 5)]

    @staticmethod
    def _frozen_cases(n_d, n_s, l):
        """(subsets, k, outer, corr, y, noise_var, frozen LDL^H statistics and proofs) at
        K = 1, 2, n_d and 3 n_d, near-collinear pilot rows 0 and 1 making ill-conditioned
        G_J, the statistics from ||y||^2 = sum |y|^2.  At K = 1 and 2 a block's later pivots
        are often exactly 0, after which that LDL^H puts nan in every later column of
        another block."""
        rng = np.random.default_rng(1400 + 10 * n_d + n_s + 100 * l)
        n, t_count = n_d * n_s, 6
        subsets = np.array(list(combinations(range(n), l)))
        if len(subsets) > 3000:  # a sample of them, in lexicographic order
            subsets = subsets[np.sort(rng.choice(len(subsets), 3000, replace=False))]
        for k in (1, 2, n_d, 3 * n_d):
            pilots = crandn(rng, t_count, n_d, k) / math.sqrt(2)
            gap = 10.0 ** rng.uniform(-8, 0, (t_count, 1))
            pilots[:, 1] = pilots[:, 0] + gap * crandn(rng, t_count, k)
            y = crandn(rng, t_count, k * n_s)
            outer, corr = sn.kron_normal(pilots, n_s, y)
            yy, noise_var = np.sum(np.abs(y) ** 2, axis=-1), rng.uniform(0.01, 1.0, t_count)
            frozen = frozen_gram._gram_statistics(outer, n_s, corr, yy, noise_var, subsets, k * n_s)
            yield subsets, k, outer, corr, y, noise_var, *frozen

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_d, n_s", GEOMETRIES)
    def test_same_bits_as_frozen_ldl(self, n_d, n_s, l):
        # the tables' statistics against the LDL^H of each whole G_J, bit for bit, wherever
        # that is finite; where it is nan, after an exactly zero pivot, G_J is singular and
        # the search's rank rule rejects it, whatever the tables' statistic
        nans = 0
        for subsets, k, outer, corr, y, noise_var, want, _ in self._frozen_cases(n_d, n_s, l):
            yy = np.sum(np.abs(y) ** 2, axis=-1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = table_screen(outer, n_s, corr, yy, noise_var, subsets, k * n_s)
            nan = np.isnan(want)
            assert got[~nan].tobytes() == want[~nan].tobytes(), k
            ri, ci = np.nonzero(nan)
            lam = np.linalg.eigvalsh(nm.kron_gram(outer[ri], n_s, subsets[ci]))
            assert not nm.full_rank(lam).any(), k
            nans += ri.size
        # exact zero pivots, and so nan statistics, occur from L = 2 on
        assert (nans > 0) == (l > 1), nans

    @pytest.mark.parametrize(
        "n_d, n_s, l",
        [(*g, l) for g in GEOMETRIES for l in (1, 2, 3, 4) if math.comb(g[0] * g[1], l) <= 3000],
    )
    def test_search_is_the_frozen_statistic_and_the_rank_rule(self, n_d, n_s, l):
        # jt_search over every subset of each case, against the frozen LDL^H statistic of
        # each G_J below delta and full rank by eigvalsh: a pair with a nan frozen
        # statistic is never taken, whatever the tables make of it
        for subsets, k, outer, corr, y, noise_var, *_ in self._frozen_cases(n_d, n_s, l):
            m, yy = k * n_s, np.array([np.vdot(v, v).real for v in y])  # as jt_search takes it
            frozen, _ = frozen_gram._gram_statistics(outer, n_s, corr, yy, noise_var, subsets, m)
            full = nm.full_rank(np.linalg.eigvalsh(nm.kron_gram(outer, n_s, subsets[None])))
            for q, order in product((0.05, 0.5), (est.LEXICOGRAPHIC_FIRST, est.BEST_STATISTIC)):
                # delta just above the q-quantile of the statistics, which are 0 at m = l
                delta = float(np.nextafter(np.nanquantile(frozen, q), math.inf))
                cfg = est.TypicalityConfig(delta, l, order)
                typical = (frozen < cfg.delta) & full
                stat = np.where(typical, frozen, math.inf)
                first = order == est.LEXICOGRAPHIC_FIRST
                pos = np.argmax(typical, axis=1) if first else np.argmin(stat, axis=1)
                hit = typical.any(axis=1)
                want = (
                    np.where(hit[:, None], subsets[pos], -1),
                    np.where(hit, stat[np.arange(len(pos)), pos], math.inf),
                    np.where(hit & first, pos + 1, len(subsets)),
                )
                got = est.jt_search(yy, m, outer, n_s, corr, noise_var, cfg, l)
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (k, q, order)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_d, n_s", GEOMETRIES)
    def test_eigvalsh_full_rank_wherever_the_frozen_proof_held(self, n_d, n_s, l):
        # the search's rank rule accepts every G_J whose full rank the former pivot bound
        # tr(G_J)^l / det < GRAM_COND proved, so deciding rank by eigvalsh alone moves no
        # decision the proof made; the bound exceeds lambda_max / lambda_min by at least 2
        # at l >= 2, far beyond eigvalsh's rounding
        proofs = 0
        for subsets, _, outer, *_, proven in self._frozen_cases(n_d, n_s, l):
            full = nm.full_rank(np.linalg.eigvalsh(nm.kron_gram(outer, n_s, subsets[None])))
            assert np.all(full[proven]), np.argwhere(proven & ~full)[:5]
            proofs += np.count_nonzero(proven)
        assert proofs > 0

    @pytest.mark.parametrize(
        "gram",
        [
            [[2.0, 2.0], [2.0, 2.0]],  # duplicate column: second pivot 0
            [[0.0, 0.0], [0.0, 3.0]],  # zero column: first pivot 0
            [[4.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]],  # third pivot 0
            [[1.0, 2.0], [2.0, 1.0]],  # pivots 1, -3: a negative product
            [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]],  # 1, -3, -1: positive
            [[-1.0, 0.0], [0.0, -2.0]],  # -1, -2: positive product
        ],
        ids=["duplicate", "zero", "third-zero", "one-negative", "two-negative", "all-negative"],
    )
    def test_singular_or_indefinite_gram_is_never_full_rank(self, gram):
        # the search's rank rule on the eigenvalues of G_J
        outer = np.array(gram, dtype=complex)[None]
        subsets = np.arange(outer.shape[1])[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not nm.full_rank(np.linalg.eigvalsh(nm.kron_gram(outer, 1, subsets)))[0]

    def test_statistic_within_tolerance_of_svd_statistic(self):
        rng = np.random.default_rng(1300)
        checked = 0
        for batch in range(30):
            t_count, n_d, n_s, k = 100, 3 + batch % 3, 2 + batch % 2, 4 + batch % 5
            l = 1 + batch % 3
            pilots = crandn(rng, t_count, n_d, k) / math.sqrt(2)
            # near-collinear pilot rows make some G_J ill-conditioned
            gap = 10.0 ** rng.uniform(-4, 0, (t_count, 1))
            pilots[:, 1] = pilots[:, 0] + gap * crandn(rng, t_count, k)
            dim = n_d * n_s
            truth = np.zeros((t_count, dim), dtype=complex)
            for t in range(t_count):
                truth[t, rng.choice(dim, size=l, replace=False)] = crandn(rng, l)
            noise_var = 10.0 ** rng.uniform(-6, 0, t_count)
            y = np.stack([sn.measurement_matrix(pilots[t], n_s) @ truth[t] for t in range(t_count)])
            y += np.sqrt(noise_var / 2)[:, None] * crandn(rng, t_count, k * n_s)
            subsets = np.array(
                [sorted(rng.choice(dim, size=l, replace=False)) for _ in range(2)]
            )
            outer, corr = sn.kron_normal(pilots, n_s, y)
            yy = np.sum(np.abs(y) ** 2, axis=-1)
            stat = table_screen(outer, n_s, corr, yy, noise_var, subsets, k * n_s)
            # the pairs that the former pivot bound proved well-conditioned
            _, proven = frozen_gram._gram_statistics(
                outer, n_s, corr, yy, noise_var, subsets, k * n_s
            )
            for t, b in zip(*np.nonzero(proven)):
                cols = frozen_kron.kron_columns(pilots[t], n_s, subsets[b])
                ref = frozen_svd.typicality_statistic(y[t], cols, noise_var[t], l)
                tol = gram_tolerance(y[t], cols, noise_var[t])
                assert abs(stat[t, b] - ref) <= tol, (batch, t, b)
                checked += 1
        assert checked >= 3000


class TestGenieLs:
    def test_noiseless_exact(self):
        model = default_scale_model(seed=12)
        truth = np.zeros(25, dtype=complex)
        truth[[3, 17]] = [1.0, -2.0j]
        estimate = est.genie_ls(model.upsilon_mat @ truth, model.upsilon_mat, (3, 17))
        assert est.squared_errors(estimate, truth) < 1e-18

    def test_singleton_is_scalar_ls(self):
        model = default_scale_model(seed=13)
        rng = np.random.default_rng(14)
        y = crandn(rng, 100)
        col = model.upsilon_mat[:, 9]
        estimate = est.genie_ls(y, model.upsilon_mat, (9,))
        expected = np.vdot(col, y) / np.vdot(col, col)
        assert abs(estimate[9] - expected) < 1e-10
        assert np.all(estimate[np.arange(25) != 9] == 0)

    def test_pure_noise_energy_matches_crlb_quantity(self):
        sigma2 = 0.6
        model = default_scale_model(seed=15, noise_var=sigma2)
        support = (2, 11, 23)
        bound = est.crlb(model.upsilon_mat, support, sigma2)
        truth = np.zeros(25, dtype=complex)
        rng = np.random.default_rng(16)
        draws = 10_000
        total = 0.0
        for _ in range(draws):
            y = sn.observe(model, truth, rng)
            total += est.squared_errors(
                est.genie_ls(y, model.upsilon_mat, support), truth
            )
        assert abs(total / draws / bound - 1.0) < 0.03


class TestCrlb:
    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(crandn(np.random.default_rng(17), 30, 4))
        assert abs(est.crlb(q, (0, 1, 2, 3), 0.5) - 4 * 0.5) < 1e-12

    def test_scalar_inverse(self):
        col = np.full((10, 1), 2.0, dtype=complex)  # norm^2 = 40
        assert abs(est.crlb(col, (0,), 1.0) - 1.0 / 40.0) < 1e-12

    def test_inverse_moment_oracle(self):
        # E[sigma^2 / ||x||^2] = sigma^2/(K-1) for a K-dim CN(0,1) row
        k = 20
        total = 0.0
        draws = 3000
        for draw in range(draws):
            model = default_scale_model(k=k, seed=20_000 + draw)
            total += est.crlb(model.upsilon_mat, (0,), 1.0)
        assert abs(total / draws / (1.0 / (k - 1)) - 1.0) < 0.05

    def test_rank_deficient(self):
        mat = np.ones((10, 3), dtype=complex)
        with pytest.raises(RankDeficientError):
            est.crlb(mat, (0, 1), 1.0)


class TestOneProblemIsTheGramCore:
    """The one-problem functions are the single-problem case of the sweep's Gram core:
    one rank rule (``numerics.full_rank``), one solver (``numerics.gram_solve``)."""

    @staticmethod
    def _ill_conditioned():
        # columns a and a + 1e-4 n: cond(A) ~ 2.0e4, so lambda_max / lambda_min of A^H A
        # ~ 4e8 >= GRAM_COND, though the SVD's own cutoff counts A as of full rank
        rng = np.random.default_rng(0)
        a, n = crandn(rng, 40), crandn(rng, 40)
        return np.stack([a, a + 1e-4 * n], axis=1), crandn(rng, 40)

    def test_ill_conditioned_support_fails_where_a_sweep_trial_fails(self):
        mat, y = self._ill_conditioned()
        assert 1.9e4 < np.linalg.cond(mat) < 2.1e4
        _, (full,), _ = nm.gram_solve((mat.conj().T @ mat)[None])
        assert not full
        calls = [
            lambda: est.crlb(mat, (0, 1), 0.1),
            lambda: est.genie_ls(y, mat, (0, 1)),
            lambda: nm.least_squares(mat, y),
            lambda: est.typicality_statistic(y, mat, 0.1, 2),
            lambda: nm.projector_complement(mat),
        ]
        for call in calls:
            with pytest.raises(RankDeficientError):
                call()

    def test_crlb_is_the_gram_trace(self):
        rng = np.random.default_rng(31)
        for draw in range(200):
            model = default_scale_model(seed=31_000 + draw)
            support = sorted(rng.choice(25, size=1 + draw % 3, replace=False).tolist())
            sub = model.upsilon_mat[:, support]
            noise_var = 10.0 ** rng.uniform(-3, 0)
            (trace,), (full,), _ = nm.gram_solve((sub.conj().T @ sub)[None])
            assert full and est.crlb(model.upsilon_mat, support, noise_var) == noise_var * trace

    @pytest.mark.parametrize("order", [est.LEXICOGRAPHIC_FIRST, est.BEST_STATISTIC])
    def test_statistic_is_the_search_statistic(self, order):
        # the statistic of the support jt_estimate takes, from that support's columns
        # alone, within rounding of the whole matrix's Gram products
        rng = np.random.default_rng(32 + (order == est.BEST_STATISTIC))
        eps, found = np.finfo(np.float64).eps, 0
        for draw in range(500):
            pilots = sn.gen_pilots(n_d=3, k=8, seed=32_000 + draw)
            mat = sn.measurement_matrix(pilots, 4)
            truth = np.zeros(12, dtype=complex)
            truth[rng.choice(12, size=2, replace=False)] = crandn(rng, 2)
            noise_var = 10.0 ** rng.uniform(-4, -1)
            y = mat @ truth + math.sqrt(noise_var / 2) * crandn(rng, 32)
            res = est.jt_estimate(y, mat, est.TypicalityConfig(None, 2, order), noise_var)
            if res.failed:
                continue
            stat = est.typicality_statistic(y, mat[:, res.support], noise_var, 2)
            unit = 64 * eps * (np.vdot(y, y).real / len(y) + noise_var)
            assert abs(stat - res.statistic) <= unit, draw
            found += 1
        assert found >= 400

    def test_no_one_problem_function_runs_an_svd(self, monkeypatch, capsys):
        def banned(*args, **kwargs):
            raise AssertionError("an SVD or an lstsq fit")

        monkeypatch.setattr(np.linalg, "svd", banned)
        monkeypatch.setattr(np.linalg, "lstsq", banned)
        model = default_scale_model(seed=33, noise_var=0.01)
        truth = np.zeros(25, dtype=complex)
        truth[[4, 11]] = [1.0, -0.5j]
        y = sn.observe(model, truth, np.random.default_rng(34))
        mat, sub = model.upsilon_mat, model.upsilon_mat[:, [4, 11]]
        res = est.jt_estimate(y, mat, est.TypicalityConfig(None, 2), 0.01)
        assert res.support == (4, 11)
        est.typicality_statistic(y, sub, 0.01, 2)
        est.genie_ls(y, mat, (4, 11))
        est.crlb(mat, (4, 11), 0.01)
        nm.least_squares(sub, y)
        nm.projector_complement(sub)
        assert cli.main(["selftest"]) == 0
        assert cli.main(["crlb"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestMissedDetectionTerm:
    def test_zero_truth_energy(self):
        assert est.missed_detection_term(0.0, 0.5, 0.1, 100, 1) == 0.0

    def test_delta_to_zero_limit(self):
        val = est.missed_detection_term(3.0, 0.5, 1e-12, 100, 1)
        assert abs(val - 6.0) < 1e-6

    def test_decreasing_in_kns(self):
        vals = [
            est.missed_detection_term(1.0, 0.2, 0.05, kns, 2)
            for kns in (50, 100, 200, 400, 800)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_formula(self):
        energy, sigma2, delta, kns, l = 2.0, 0.3, 0.07, 120, 2
        expected = 2 * energy * math.exp(
            -(delta**2 / (4 * sigma2**2)) * kns**2 / (kns - l + 2 * delta / sigma2 * kns)
        )
        assert abs(est.missed_detection_term(energy, sigma2, delta, kns, l) - expected) < 1e-15


class TestWrongSupportTerm:
    def _literal(self, truth, support, sigma2, delta, kns, l):
        # direct enumeration over every wrong subset, the oracle the closed
        # form over overlap sizes must reproduce
        n = truth.shape[0]
        delta_p = delta * kns / (kns - l)
        total = 0.0
        for cand in combinations(range(n), l):
            if cand == tuple(support):
                continue
            missed = set(support) - set(cand)
            e_miss = float(sum(abs(truth[i]) ** 2 for i in missed))
            ratio = (e_miss - delta_p) / (e_miss + sigma2)
            total += math.exp((l - kns) / 4 * ratio**2)
        return (l * sigma2 + float(np.sum(np.abs(truth) ** 2))) * total

    def _equal_share_literal(self, energy, n, sigma2, delta, kns, l):
        truth = np.zeros(n, dtype=complex)
        truth[:l] = math.sqrt(energy / l)
        return self._literal(truth, tuple(range(l)), sigma2, delta, kns, l)

    def test_single_term_count(self):
        val = est.wrong_support_term(1.0, 2, 0.5, 0.1, 50, 1)
        lit = self._equal_share_literal(1.0, 2, 0.5, 0.1, 50, 1)
        assert abs(val - lit) < 1e-15 * max(abs(lit), 1.0)

    def test_symmetric_l1_closed_form(self):
        n, sigma2, delta, kns = 25, 0.4, 0.02, 100
        delta_p = delta * kns / (kns - 1)
        e = 1.5**2
        expected = (sigma2 + e) * (n - 1) * math.exp(
            (1 - kns) / 4 * ((e - delta_p) / (e + sigma2)) ** 2
        )
        assert abs(est.wrong_support_term(e, n, sigma2, delta, kns, 1) - expected) < 1e-12

    def test_grouped_equals_literal_enumeration(self):
        rng = np.random.default_rng(18)
        for n, l in [(2, 1), (8, 1), (8, 2), (10, 3), (12, 6), (16, 8)]:
            # per-entry shares on both sides of delta', so ratios of both signs
            for energy in l * rng.uniform(0.01, 2.0, size=3):
                sigma2, delta, kns = 0.3, 0.05, 60
                got = est.wrong_support_term(energy, n, sigma2, delta, kns, l)
                want = self._equal_share_literal(energy, n, sigma2, delta, kns, l)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, l, energy)

    def test_decreasing_in_kns(self):
        vals = [est.wrong_support_term(1.3, 25, 0.1, 0.01, kns, 2) for kns in (100, 200, 400, 800)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_no_array_of_the_entry_count(self):
        # only the l shares enter the term: at n = 10^6 entries it traces at most 4 KiB
        est.wrong_support_term(3.0, 10**6, 0.1, 0.01, 100, 3)  # first-use caches
        tracemalloc.start()
        try:
            est.wrong_support_term(3.0, 10**6, 0.1, 0.01, 100, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4096, peak


class TestBoundTermsAtExtremeScales:
    """Where the plain exponent overflows or divides by zero, the terms keep
    their scale-free value; where it is finite, they keep its bits."""

    def test_finite_case_is_the_plain_expression(self):
        energy, sigma2, delta, kns, l = 2.0, 0.3, 0.07, 120, 2
        exponent = -(delta**2 / (4.0 * sigma2**2)) * kns**2 / (
            kns - l + (2.0 * delta / sigma2) * kns
        )
        want = 2.0 * energy * math.exp(exponent)
        assert est.missed_detection_term(energy, sigma2, delta, kns, l) == want

    # 1e-160: sigma^4 and delta^2 are subnormal, so the plain exponent lost digits
    @pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-200, 1e160, 1e-160])
    def test_missed_term_is_scale_free(self, scale):
        # energy, sigma^2 and delta all scale together: the exponent does not move
        energy, sigma2, delta, kns, l = 2.0, 0.3, 0.07, 120, 2
        want = est.missed_detection_term(energy, sigma2, delta, kns, l)
        got = est.missed_detection_term(energy * scale, sigma2 * scale, delta * scale, kns, l)
        assert got / scale == pytest.approx(want, rel=1e-12)

    def test_missed_term_limits(self):
        # delta / sigma^2 -> inf: never missed; -> 0 (underflows here): 2 ||upsilon||^2
        assert est.missed_detection_term(3.0, 1e-300, 1e300, 40, 1) == 0.0
        assert est.missed_detection_term(3.0, 1e200, 1e-200, 40, 1) == 6.0

    def test_wrong_support_term_overflowing_ratio_is_zero(self):
        # ((E_miss - delta') / (E_miss + sigma^2))**2 overflows: every term is exp(-inf)
        assert est.wrong_support_term(1.0, 25, 0.002, 1e300, 40, 1) == 0.0
        assert est.wrong_support_term(1.0, 25, 0.002, 1e150, 40, 1) == 0.0

    def test_wrong_support_counts_past_float_range_are_kept(self):
        # C(800, t) C(800, 800 - t) passes 2^1024 for most t at n = 1600, L = 800
        energy, n, sigma2, delta, l = 800.0, 1600, 0.2, 0.014, 800
        for kns, finite in [(6000, True), (1600, False)]:
            delta_p = delta * kns / (kns - l)
            log_terms = [
                math.log(math.comb(l, t) * math.comb(n - l, l - t))
                + (l - kns) / 4 * (((l - t) - delta_p) / ((l - t) + sigma2)) ** 2
                for t in range(l)
            ]
            got = est.wrong_support_term(energy, n, sigma2, delta, kns, l)
            if finite:  # about 1e-81, though most counts are past the float range
                want = (l * sigma2 + energy) * sum(math.exp(x) for x in log_terms)
                assert got == pytest.approx(want, rel=1e-9)
            else:  # the true term is about 1e396
                assert max(log_terms) > 709.8 and got == math.inf


def bound_report(model, sigma2, delta=None):
    """CRLB at support (5,) plus harness.bound_terms for one unit-energy entry
    at kns = 100; snr_db = 10 log10(0.2 / sigma2) sets noise variance sigma2."""
    cfg = hn.default_config(typicality=est.TypicalityConfig(delta=delta, sparsity=1))
    noise_var, _, missed, wrong = hn.bound_terms(cfg, 20, 10 * math.log10(0.2 / sigma2), 1.0, 1)
    crlb = est.crlb(model.upsilon_mat, (5,), noise_var)
    return SimpleNamespace(
        crlb=crlb, missed_term=missed, wrong_support_term=wrong,
        upper_bound=crlb + missed + wrong,
    )


class TestMseUpperBound:
    def test_terms_nonnegative_and_dominate_crlb(self):
        model = default_scale_model(seed=21)
        report = bound_report(model, 0.01, delta=0.004)
        assert report.missed_term >= 0
        assert report.wrong_support_term >= 0
        assert report.upper_bound >= report.crlb

    def test_noise_scaling_with_delta_proportional_to_sigma(self):
        # with delta proportional to sigma^2 both exponential terms are
        # scale-invariant, so along sigma^2 -> 0 the bound decreases
        # monotonically onto that constant penalty floor while its
        # sigma-dependent part (the CRLB) vanishes linearly
        # (the default delta is 4 sigma^2 sqrt(99) / 100 at kns = 100, L = 1)
        model = default_scale_model(seed=22)
        reports = [bound_report(model, sigma2) for sigma2 in (1e-2, 1e-3, 1e-4, 1e-5)]
        bounds = [r.upper_bound for r in reports]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        floor = reports[-1].missed_term + reports[-1].wrong_support_term
        assert abs(reports[0].missed_term - reports[-1].missed_term) < 1e-9
        assert reports[-1].upper_bound - floor == pytest.approx(reports[-1].crlb)
        assert reports[-1].crlb < 1e-6

    def test_vanishes_as_observation_count_grows(self):
        # the full bound does go to zero, but in the kns -> infinity limit
        model = default_scale_model(seed=22)
        sigma2 = 1e-3
        delta = 0.05  # fixed threshold, not scaled with kns
        vals = [
            est.missed_detection_term(1.0, sigma2, delta, kns, 1)
            + est.wrong_support_term(1.0, 25, sigma2, delta, kns, 1)
            for kns in (100, 200, 400, 800)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12


def omp_matrices(mats, y, l):
    """OMP on a (T, m, n) stack of matrices U: reps = 1, outer = U^H U, corr = U^H y."""
    herm = mats.conj().swapaxes(-1, -2)
    return est.omp_estimate(herm @ mats, 1, (herm @ y[..., None])[..., 0], l)


def omp_pilots(pilots, n_s, y, l):
    """OMP on the pilot model of a (T, n_d, k) pilot stack: reps = n_s."""
    outer, corr = sn.kron_normal(pilots, n_s, y)
    return est.omp_estimate(outer, n_s, corr, l)


def omp_support(taken, count):
    """The sorted columns a row of :func:`est.omp_estimate` took."""
    return tuple(sorted(taken[:count].tolist()))


class TestOmpEstimate:
    def test_noiseless_single_column(self):
        model = default_scale_model(seed=23)
        truth = np.zeros(25, dtype=complex)
        truth[19] = 2.0 - 1.0j
        y = model.upsilon_mat @ truth
        (taken,), (hat,), (count,) = omp_pilots(model.pilots[None], 5, y[None], 1)
        assert omp_support(taken, count) == (19,)
        assert est.squared_errors(hat, truth) < 1e-18
        assert count == 1  # not degenerate

    def test_zero_observation_lowest_index_tiebreak(self):
        model = default_scale_model(seed=24)
        (taken,), (hat,), (count,) = omp_pilots(
            model.pilots[None], 5, np.zeros((1, 100), dtype=complex), 2
        )
        assert omp_support(taken, count) == (0, 1)
        assert np.all(hat == 0)

    def test_full_support_is_global_ls(self):
        model = default_scale_model(seed=25)
        rng = np.random.default_rng(26)
        y = crandn(rng, 100)
        _, (hat,), _ = omp_pilots(model.pilots[None], 5, y[None], 25)
        full_ls, _, _, _ = np.linalg.lstsq(model.upsilon_mat, y, rcond=None)
        np.testing.assert_allclose(hat, full_ls, atol=1e-8)

    def test_degenerate_duplicate_columns(self):
        rng = np.random.default_rng(27)
        col = crandn(rng, 10, 1)
        mat = np.concatenate([col, col], axis=1)
        (taken,), _, (count,) = omp_matrices(mat[None], col[None, :, 0] * 3.0, 2)
        assert count < 2  # degenerate
        assert len(omp_support(taken, count)) == 1

    @pytest.mark.parametrize("model", ["matrices", "pilots-k1"])
    def test_rows_of_a_stack_equal_their_single_runs(self, model):
        # degenerate problems in one stack with live ones: a rank-2 matrix and one of
        # duplicated columns (rank 4) among full-rank ones, L = 5; and K = 1, L = 6, where
        # the rank stops at n_s = 5 and the n_d columns of an identity position tie
        rng = np.random.default_rng(28)
        if model == "matrices":
            mats = crandn(rng, 6, 12, 8)
            mats[1] = crandn(rng, 12, 2) @ crandn(rng, 2, 8)
            mats[4, :, 4:] = mats[4, :, :4]
            y = crandn(rng, 6, 12)
            run, want = (lambda r: omp_matrices(mats[r], y[r], 5)), [5, 2, 5, 5, 4, 5]
        else:
            pilots = np.stack([sn.gen_pilots(n_d=5, k=1, seed=280 + t) for t in range(6)])
            y = crandn(rng, 6, 5)
            run, want = (lambda r: omp_pilots(pilots[r], 5, y[r], 6)), [5] * 6
        stacked = run(np.arange(6))
        assert stacked[2].tolist() == want
        for t in range(6):
            single = run(np.array([t]))
            for got, alone in zip(stacked, single):
                assert got[t].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("l", [1, 3, 6])
    def test_matches_the_frozen_per_trial_omp(self, l):
        # random reps = 1 problems, sparse truths in noise; one of rank 2 stops at L = 3, 6
        rng = np.random.default_rng(29 + l)
        mats = crandn(rng, 10, 30, 12)
        mats[3] = crandn(rng, 30, 2) @ crandn(rng, 2, 12)
        truth = np.zeros((10, 12), dtype=complex)
        for t in range(10):
            truth[t, rng.choice(12, l, replace=False)] = crandn(rng, l)
        y = (mats @ truth[..., None])[..., 0] + 0.1 * crandn(rng, 10, 30)
        taken, hat, count = omp_matrices(mats, y, l)
        for t in range(10):
            ref = frozen_omp.omp_estimate(y[t], mats[t], l)
            assert omp_support(taken[t], count[t]) == ref.support
            assert (count[t] == ref.subsets_examined, count[t] < l) == (True, ref.degenerate)
            np.testing.assert_allclose(hat[t], ref.upsilon_hat, rtol=1e-10)
        assert (count < l).tolist() == [l > 2 and t == 3 for t in range(10)]


class TestSquaredError:
    def test_exact_match(self):
        v = np.array([1.0 + 1j, 2.0])
        assert est.squared_errors(v, v) == 0.0

    def test_unit_basis_vector(self):
        truth = np.zeros(4, dtype=complex)
        e2 = np.zeros(4, dtype=complex)
        e2[2] = 1.0
        assert est.squared_errors(e2, truth) == 1.0

    def test_zero_output_penalty_is_truth_energy(self):
        rng = np.random.default_rng(28)
        truth = crandn(rng, 9)
        zero = np.zeros(9, dtype=complex)
        assert abs(
            est.squared_errors(zero, truth) - float(np.sum(np.abs(truth) ** 2))
        ) < 1e-12


class TestDefaultDelta:
    def test_four_sigma_formula(self):
        assert abs(est.default_delta(0.5, 100, 1) - 4 * 0.5 * math.sqrt(99) / 100) < 1e-15

    def test_requires_kns_above_sparsity(self):
        with pytest.raises(ValueError):
            est.default_delta(0.5, 3, 3)
