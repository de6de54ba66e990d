"""Typicality test, subset search, genie LS, CRLB, bound terms, OMP."""

import math
import warnings
from itertools import combinations
from types import SimpleNamespace

import frozen_omp
import numpy as np
import pytest

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


def assert_search_matches(got, want, scale):
    """(support, statistic, subsets_examined) triples equal, the statistics to 1e-13 * ``scale``
    (||y||^2 / m + sigma^2 of the problem): a Gram-domain accept reports the Gram-domain
    statistic, which is within the recheck margin of the SVD one."""
    assert (got[0], got[2]) == (want[0], want[2])
    assert got[1] == want[1] or abs(got[1] - want[1]) <= 1e-13 * scale


def search_triples(support, stat, examined):
    """jt_search's arrays as one (support, statistic, subsets_examined) triple per problem,
    as :func:`literal_search` gives them: support () where its row is -1."""
    return [
        (tuple(s) if s[0] >= 0 else (), v, e)
        for s, v, e in zip(support.tolist(), stat.tolist(), examined.tolist())
    ]


def literal_search(y, mat, cfg, noise_var):
    """Reference search: the SVD statistic of every subset, in lexicographic order.

    Returns (support, statistic, subsets_examined) as jt_estimate reports them.
    """
    l = cfg.sparsity
    delta = cfg.delta if cfg.delta is not None else est.default_delta(noise_var, len(y), l)
    best, examined = None, 0
    for cand in combinations(range(mat.shape[1]), l):
        examined += 1
        try:
            stat = est.typicality_statistic(y, mat[:, cand], noise_var, l)
        except RankDeficientError:
            continue
        if stat >= delta:
            continue
        if cfg.search_order == est.LEXICOGRAPHIC_FIRST:
            return cand, stat, examined
        if best is None or stat < best[0]:
            best = (stat, cand)
    return (best[1], best[0], examined) if best else ((), math.inf, examined)


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
    """The batched Gram-domain search decides exactly as the SVD statistic loop."""

    @pytest.mark.parametrize("order", [est.LEXICOGRAPHIC_FIRST, est.BEST_STATISTIC])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_literal_svd_loop(self, l, order):
        rng = np.random.default_rng(900 + 10 * l + (order == est.BEST_STATISTIC))
        shapes = [(3, 4), (2, 5), (3, 3), (5, 2)]
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
                    delta = est.typicality_statistic(y, mat[:, cand], noise_var, l) or delta
                except RankDeficientError:
                    pass
            elif trial % 3 == 1 and noise_var:
                delta = None
            elif trial % 3 == 2:
                delta = 10.0 ** rng.uniform(-10, 0)
            cfg = est.TypicalityConfig(delta=delta, sparsity=l, search_order=order)

            res = est.jt_estimate(y, mat, cfg, noise_var)
            want = literal_search(y, mat, cfg, noise_var)
            got = (res.support, res.statistic, res.subsets_examined)
            if order == est.BEST_STATISTIC:  # every statistic it reports is an SVD one
                assert got == want, trial
            assert_search_matches(got, want, np.vdot(y, y).real / len(y) + noise_var)

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
        assert (res.support, res.statistic, res.subsets_examined) == ref
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
        got = search_triples(*est.jt_search(
            y, outer, n_s, corr, noise_var, cfg, l,
            lambda rows, subsets: sn.kron_columns(pilots[rows], n_s, subsets),
        ))
        want = [
            literal_search(y[t], sn.measurement_matrix(pilots[t], n_s), cfg, noise_var[t])
            for t in range(t_count)
        ]
        if order == est.BEST_STATISTIC:
            assert got == want
        for t in range(t_count):
            scale = np.vdot(y[t], y[t]).real / len(y[t]) + noise_var[t]
            assert_search_matches(got[t], want[t], scale)
        assert len({w[2] for w in want}) > 1 or order == est.BEST_STATISTIC
        assert len({w[0] for w in want}) > 1


    @pytest.mark.parametrize("order", [est.LEXICOGRAPHIC_FIRST, est.BEST_STATISTIC])
    def test_svd_runs_only_where_the_margin_cannot_decide(self, order, monkeypatch):
        # default scale, L = 1: the true column is typical and every other one atypical by
        # far more than the margin, so lexicographic_first accepts without an SVD, while
        # best_statistic ranks by SVD statistics and rechecks every pair it keeps
        rng = np.random.default_rng(960)
        t_count, n_s, k = 12, 5, 20
        pilots = np.stack([sn.gen_pilots(n_d=5, k=k, seed=96_000 + t) for t in range(t_count)])
        truth = np.zeros((t_count, 25), dtype=complex)
        truth[np.arange(t_count), rng.choice(25, t_count)] = 1.0
        noise_var = np.full(t_count, 0.01)
        y = sn.kron_forward(pilots, n_s, truth) + 0.1 / math.sqrt(2) * crandn(rng, t_count, k * n_s)
        checked, inner = [], est._svd_statistics

        def spy(y, subs, yy, noise_var, l):
            checked.append(len(subs))
            return inner(y, subs, yy, noise_var, l)

        monkeypatch.setattr(est, "_svd_statistics", spy)
        outer, corr = sn.kron_normal(pilots, n_s, y)
        got = search_triples(*est.jt_search(
            y, outer, n_s, corr, noise_var, est.TypicalityConfig(None, 1, order), 1,
            lambda rows, subsets: sn.kron_columns(pilots[rows], n_s, subsets),
        ))
        assert [g[0] for g in got] == [(int(np.flatnonzero(v)[0]),) for v in truth]
        assert sum(checked) == (0 if order == est.LEXICOGRAPHIC_FIRST else t_count)


class TestGramScreen:
    """The LDL^H screen of _gram_statistics against eigh and the SVD statistic."""

    @staticmethod
    def _cond_bound(outer, reps, subsets):
        # ||y||^2 = 1 and sigma^2 = 0 make the margin 2^-42 times the bound exactly
        r, p = outer.shape[:2]
        corr = np.ones((r, p * reps), dtype=complex)
        _, margin = est._gram_statistics(
            outer, reps, corr, np.ones(r), np.zeros(r), subsets, 100
        )
        return margin / (est._RECHECK_ULPS * np.finfo(np.float64).eps)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_bound_dominates_eigenvalue_ratio(self, l):
        rng = np.random.default_rng(1200 + l)
        r, p, reps = 40, 6, 2
        basis, _ = np.linalg.qr(crandn(rng, r, p, p))
        # eigenvalues spread over up to six decades per problem: cond(outer),
        # and so cond(G_J) of every masked principal block, is at most 1e6
        w = 10.0 ** (rng.uniform(0, 6, (r, 1)) * np.linspace(0, 1, p))
        outer = (basis * w[:, None, :]) @ basis.conj().swapaxes(-1, -2)
        subsets = np.array(list(combinations(range(p * reps), l)))
        bound = self._cond_bound(outer, reps, subsets)

        j, i = np.divmod(subsets, reps)
        gram = np.where(
            i[:, :, None] == i[:, None, :], outer[:, j[:, :, None], j[:, None, :]], 0.0
        )
        eig = np.linalg.eigvalsh(gram)
        ratio = eig[..., -1] / eig[..., 0]
        finite = np.isfinite(bound)
        assert np.all(bound[finite] >= ratio[finite])
        if l == 1:
            assert np.all(bound == 1.0)
        else:
            assert finite.mean() > 0.3 and ratio[finite].max() > 1e3

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
    def test_singular_or_indefinite_gram_is_always_rechecked(self, gram):
        outer = np.array(gram, dtype=complex)[None]
        subsets = np.arange(outer.shape[1])[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._cond_bound(outer, 1, subsets)[0, 0] == math.inf

    def test_statistic_within_margin_of_svd_statistic(self):
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
            stat, margin = est._gram_statistics(
                outer, n_s, corr, yy, noise_var, subsets, k * n_s
            )
            for t, b in zip(*np.nonzero(np.isfinite(margin))):
                cols = sn.kron_columns(pilots[t], n_s, subsets[b])
                ref = est.typicality_statistic(y[t], cols, noise_var[t], l)
                assert abs(stat[t, b] - ref) <= margin[t, b], (batch, t, b)
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


def omp_run(y, outer, reps, corr, l, columns):
    """``est.omp_estimate`` with the block core's fit: ``nm.gram_solve`` of G_S and c_S,
    the columns ``columns(rows, cols)`` and y in its rank band."""

    def fit(r, cols):
        return nm.gram_solve(
            nm.kron_gram(outer[r], reps, cols), lambda b: columns(r[b], cols[b]),
            corr[r[:, None], cols], y[r],
        )

    return est.omp_estimate(outer, reps, corr, l, fit)


def omp_matrices(mats, y, l):
    """OMP on a (T, m, n) stack of matrices U: reps = 1, outer = U^H U, corr = U^H y."""
    herm = mats.conj().swapaxes(-1, -2)
    return omp_run(
        y, herm @ mats, 1, (herm @ y[..., None])[..., 0], l,
        lambda rows, cols: np.take_along_axis(mats[rows], cols[:, None, :], axis=2),
    )


def omp_pilots(pilots, n_s, y, l):
    """OMP on the pilot model of a (T, n_d, k) pilot stack: reps = n_s."""
    outer, corr = sn.kron_normal(pilots, n_s, y)
    return omp_run(
        y, outer, n_s, corr, l, lambda rows, cols: sn.kron_columns(pilots[rows], n_s, cols)
    )


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
