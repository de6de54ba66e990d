"""Sweep orchestration, seeding, exports, config parsing, and the CLI."""

import contextlib
import functools
import json
import math
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import astuple, replace

import frozen_channel as fc
import frozen_draws
import frozen_omp
import frozen_svd
import numpy as np
import pytest

from ris_crlb import channel as ch
from ris_crlb import cli
from ris_crlb import estimator as est
from ris_crlb import harness as hn
from ris_crlb import numerics as nm
from ris_crlb import sensing as sn
from ris_crlb.errors import ConfigError, DimensionMismatchError, RisCrlbError


def left_mean(values):
    """The mean of ``values`` summed left to right, whatever the Python version's ``sum``."""
    return functools.reduce(lambda a, b: a + b, values, 0.0) / len(values)


def small_config(**overrides):
    base = dict(k_values=(8, 20), snr_db_values=(20.0, 30.0), trials=25)
    base.update(overrides)
    return hn.default_config(**base)


class TestExperimentConfig:
    def test_warns_when_k_not_above_n_d(self):
        with pytest.warns(UserWarning):
            hn.default_config(k_values=(4,))

    def test_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning, match="full-rank") as record:
            cfg = hn.default_config(k_values=(4,))
            replace(cfg, k_values=(4,))
        assert [w.filename for w in record] == [__file__, __file__]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            hn.default_config(mode="diagonal")

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ConfigError, match="estimator"):
            hn.default_config(estimator="oracle")

    @pytest.mark.parametrize(
        "overrides, sizes",
        [
            (dict(typicality=est.TypicalityConfig(None, 3)), (3,)),
            (dict(mode="physical_on_grid"), (1,)),
            (dict(mode="physical_on_grid", hop_bs_ris=hn.HopSpec(2), hop_ris_ms=hn.HopSpec(2)),
             (1, 2, 4)),
            # 3 BS-side paths hit at most n_s = 2 distinct bins, 3 MS-side paths up to 3
            (dict(
                mode="physical_off_grid", geometry=ch.Geometry(n_s=2, n_d=5, n_r_h=2, n_r_w=5),
                hop_bs_ris=hn.HopSpec(3), hop_ris_ms=hn.HopSpec(3),
            ), (1, 2, 3, 4, 6)),
        ],
    )
    def test_support_sizes(self, overrides, sizes):
        cfg = hn.default_config(**overrides)
        assert cfg.support_sizes == sizes
        staged = hn._stage_truths(cfg, cfg.k_values[0], 20.0, range(200))
        assert set(np.count_nonzero(staged.supports, axis=1).tolist()) <= set(sizes)

    def test_rejects_empty_sweep_axes(self):
        with pytest.raises(ConfigError, match="k_values"):
            hn.default_config(k_values=())
        with pytest.raises(ConfigError, match="snr_db_values"):
            hn.default_config(snr_db_values=())


def reference_trial(cfg, k, snr_db, trial_index):
    """One trial composed from the public functions, one call per step.

    It is the per-trial loop the sweep ran before trials were computed in
    blocks, with the CRLB from the SVD of Upsilon_I and every fit from lstsq
    (``frozen_svd``), JT's search the SVD loop ``frozen_svd.literal_search``,
    and OMP from its frozen per-trial copy (``frozen_omp``).  Returns the
    trial's fields, a dict keyed by the ``harness.Trials`` names, and its JT
    search: the problem (y, Upsilon, its TypicalityConfig, sigma^2), the
    literal loop's result and the SVD statistics it read, None where no search
    runs.  The block core must reproduce the record to :data:`RTOL`
    (:func:`assert_records_match`).
    """
    seed = int(hn.trial_seeds(cfg.master_seed, k, snr_db, [trial_index])[0, 0])
    g = cfg.geometry
    rng = np.random.default_rng(hn._mix64(seed ^ 1))
    if cfg.mode == "synthetic":
        real = ch.realize_synthetic(g, cfg.typicality.sparsity, rng, cfg.magnitude)
        truth, support = real.sparse_vec, tuple(np.flatnonzero(real.support).tolist())
    else:
        # the frozen per-path synthesis, independent of the stacked code
        real = fc.draw_physical(
            g, (cfg.hop_bs_ris.n_paths, cfg.hop_bs_ris.path_loss),
            (cfg.hop_ris_ms.n_paths, cfg.hop_ris_ms.path_loss),
            rng, cfg.mode == "physical_on_grid",
        )
        truth, support = real.upsilon, real.support
    energy = float(np.sum(np.abs(truth) ** 2))
    record = dict(
        k=k, snr_db=snr_db, trial_index=trial_index, seed=seed, squared_error=energy,
        crlb_value=math.nan, failed=True, subsets_examined=0, truth_energy=energy,
        sparsity=len(support),
    )
    if not support or energy == 0.0:
        return {**record, "squared_error": 0.0}, None
    pilots = sn.gen_pilots(g.n_d, k, hn._mix64(seed ^ 2))
    model = sn.measurement_model(pilots, g.n_s)
    model.noise_var = sn.snr_to_noise_var(snr_db, energy, g.n_s)
    y = sn.observe(model, truth, np.random.default_rng(hn._mix64(seed ^ 3)))
    mat, search = model.upsilon_mat, None
    try:
        crlb = frozen_svd.crlb(mat, support, model.noise_var)
        if cfg.estimator == "jt":
            problem = (y, mat, replace(cfg.typicality, sparsity=len(support)), model.noise_var)
            stats = []
            search = problem, frozen_svd.literal_search(*problem, stats), stats
            found, _stat, examined = search[1]
            estimate, failed = np.zeros(mat.shape[1], dtype=np.complex128), not found
            if found:
                estimate = frozen_svd.genie_ls(y, mat, found)
        elif cfg.estimator == "genie":
            estimate = frozen_svd.genie_ls(y, mat, support)
            failed, examined = False, 0
        else:
            res = frozen_omp.omp_estimate(y, mat, len(support))
            estimate, failed, examined = res.upsilon_hat, res.degenerate, res.subsets_examined
        sq_err = float(est.squared_errors(estimate, truth))
    except RisCrlbError:
        return record, None
    return {
        **record, "squared_error": sq_err, "crlb_value": crlb, "failed": failed,
        "subsets_examined": examined,
    }, search


def row_bits(rows):
    """Sweep rows as tuples with every float as its hex form: nan and -0.0 compare exactly."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in astuple(r)) for r in rows
    ]


def join(tables):
    """One ``harness.Trials`` table of the rows of ``tables`` in turn."""
    return hn.Trials(*map(np.concatenate, zip(*tables)))


def trial_bits(trials):
    """The dtype and bytes of each column of a ``harness.Trials`` table."""
    return [(column.dtype.str, column.tobytes()) for column in trials]


# the block core takes the CRLB and the fit from the Gram matrix G_I (nm.gram_solve),
# the reference from the SVD and lstsq of Upsilon_I: the largest relative differences
# over BLOCK_CASES are 1.3e-15 (CRLB) and 2.7e-12 (squared error)
RTOL = {"squared_error": 1e-10, "crlb_value": 1e-13}


def assert_records_match(got, want):
    """Each column of the table ``got`` equal to its field in the records ``want``, the
    floats of RTOL to their tolerance and nan where the other is."""
    for name, column in got._asdict().items():
        values = [record[name] for record in want]
        if name in RTOL:
            np.testing.assert_allclose(column, values, rtol=RTOL[name], err_msg=name)
        else:
            assert column.tolist() == values, name


# (name, config overrides); each case runs 2 K x 2 SNR x 7 trials
BLOCK_CASES = {
    "jt-l1": dict(),
    "jt-l1-best": dict(typicality=est.TypicalityConfig(None, 1, est.BEST_STATISTIC)),
    "jt-l2": dict(typicality=est.TypicalityConfig(None, 2)),
    "jt-l2-best": dict(typicality=est.TypicalityConfig(None, 2, est.BEST_STATISTIC)),
    "jt-l3": dict(typicality=est.TypicalityConfig(None, 3), k_values=(8,)),
    "jt-l3-best": dict(
        typicality=est.TypicalityConfig(None, 3, est.BEST_STATISTIC), k_values=(8,)
    ),
    # loose delta: several typical subsets per trial
    "jt-l2-best-loose": dict(
        typicality=est.TypicalityConfig(0.05, 2, est.BEST_STATISTIC), k_values=(6, 8),
    ),
    "jt-l2-loose": dict(typicality=est.TypicalityConfig(0.05, 2), k_values=(6, 8)),
    "genie-l2": dict(estimator="genie", typicality=est.TypicalityConfig(None, 2)),
    "omp-l2": dict(estimator="omp", typicality=est.TypicalityConfig(None, 2)),
    "jt-on-grid": dict(mode="physical_on_grid"),
    "jt-off-grid": dict(mode="physical_off_grid"),
    # 2 x 2 paths: support sizes differ between trials of one block
    "genie-off-grid-2x2": dict(
        mode="physical_off_grid", estimator="genie",
        hop_bs_ris=hn.HopSpec(2), hop_ris_ms=hn.HopSpec(2),
    ),
    "omp-on-grid-2x1": dict(mode="physical_on_grid", estimator="omp", hop_bs_ris=hn.HopSpec(2)),
    "jt-on-grid-2x2": dict(
        mode="physical_on_grid", hop_bs_ris=hn.HopSpec(2), hop_ris_ms=hn.HopSpec(2)
    ),
    # k = 1, 2 <= n_d: true supports sharing a BS bin are rank deficient
    "jt-rank-deficient": dict(typicality=est.TypicalityConfig(None, 2), k_values=(1, 2)),
    "genie-rank-deficient": dict(
        estimator="genie", typicality=est.TypicalityConfig(None, 2), k_values=(1, 2)
    ),
    # n_s != n_d, a 3 x 2 panel, a wider spacing and set path losses
    "genie-on-grid-uneven": dict(
        mode="physical_on_grid", estimator="genie",
        geometry=ch.Geometry(n_s=4, n_d=6, n_r_h=3, n_r_w=2, spacing_ratio=0.7),
        hop_bs_ris=hn.HopSpec(2, 7.5), hop_ris_ms=hn.HopSpec(3, 3.0),
    ),
}


def block_case(name):
    base = dict(k_values=(8, 20), snr_db_values=(20.0, 40.0), trials=7, master_seed=11)
    base.update(BLOCK_CASES[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k <= n_d
        return hn.default_config(**base)


@functools.cache
def block_reference(name):
    """The config of BLOCK_CASES ``name``, and its trials' :func:`reference_trial` records
    and JT searches in grid and trial-index order, computed once per case."""
    cfg = block_case(name)
    refs = [
        reference_trial(cfg, k, s, t)
        for k in cfg.k_values for s in cfg.snr_db_values for t in range(cfg.trials)
    ]
    return cfg, [record for record, _ in refs], [search for _, search in refs]


class TestBlockCore:
    """The block core reproduces the per-trial reference record for record."""

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_matches_per_trial_reference(self, name, monkeypatch):
        cfg, want, _ = block_reference(name)
        cells = [(k, s) for k in cfg.k_values for s in cfg.snr_db_values]
        # blocks of 1 and 2 trials, and a whole cell per block: the same bits
        bits = []
        for size in (1, 2, cfg.trials):
            got = join(
                hn._run_block(cfg, k, s, range(start, min(start + size, cfg.trials)))
                for k, s in cells
                for start in range(0, cfg.trials, size)
            )
            assert_records_match(got, want)
            bits.append(trial_bits(got))
            assert bits[-1] == bits[0], size
        # every cell of one K in one block, with one SNR per trial
        snrs = np.repeat(cfg.snr_db_values, cfg.trials)
        indices = list(range(cfg.trials)) * len(cfg.snr_db_values)
        got = join(hn._run_block(cfg, k, snrs, indices) for k in cfg.k_values)
        assert trial_bits(got) == bits[0]
        # the sweep with a byte budget of 3 trials per block at the largest k:
        # 7 trials per cell, so some of its blocks span two SNR cells
        k_max = max(cfg.k_values)
        monkeypatch.setattr(hn, "_BLOCK_BYTES", 3 * hn._sub_block_bytes(cfg, k_max))
        blocks, inner = [], hn._run_block

        def spy(cfg, k, snr_db, indices, staged=None):
            blocks.append((k, set(np.atleast_1d(snr_db).tolist())))
            return inner(cfg, k, snr_db, indices, staged)

        monkeypatch.setattr(hn, "_run_block", spy)
        res = hn.run_sweep(cfg)
        assert trial_bits(res.trials) == bits[0]
        assert (k_max, set(cfg.snr_db_values)) in blocks

    @pytest.mark.parametrize(
        "name", sorted(n for n in BLOCK_CASES if block_case(n).estimator == "jt")
    )
    def test_searches_meet_the_oracle_contract(self, name, monkeypatch):
        # each trial's search in the block core, one trial per block, against the SVD
        # statistic of every subset of its reference problem (frozen_svd's contract)
        cfg, _, searches = block_reference(name)
        triples, search = [], est.jt_search

        def search_spy(*args):
            found = search(*args)
            triples.extend(frozen_svd.search_triples(*found))
            return found

        monkeypatch.setattr(est, "jt_search", search_spy)
        for k in cfg.k_values:
            for s in cfg.snr_db_values:
                for t in range(cfg.trials):
                    count = len(triples)
                    hn._run_block(cfg, k, s, [t])
                    if len(triples) == count:
                        triples.append(None)  # no search: a zero truth or a failed CRLB
        assert [t is None for t in triples] == [s is None for s in searches]
        searched = [(t, s) for t, s in zip(triples, searches) if s is not None]
        assert searched
        literal = [
            frozen_svd.assert_oracle_contract(t, *problem, want=want, stats=stats)
            for t, (problem, want, stats) in searched
        ]
        # every search takes the literal loop's support and count: no subset of these
        # cases lies within rounding of delta or of GRAM_COND
        assert all(literal)

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_chunks_and_sub_blocks_split_cells(self, name, monkeypatch):
        cfg, want, _ = block_reference(name)
        bits = trial_bits(hn.run_sweep(cfg).trials)
        # sub-blocks of 3 trials at the largest k and truth chunks of at most 6 trials:
        # with 7 trials per cell, both fall across cell boundaries, and at k = 1, 2 a
        # chunk spans both Ks; sized by the observation alone, in proportion to k (an
        # L >= 2 search's figure does not shrink with k)
        k_max, g = max(cfg.k_values), cfg.geometry
        monkeypatch.setattr(hn, "_sub_block_bytes", lambda cfg, k: 40 * k * (g.n_d + g.n_s))
        monkeypatch.setattr(hn, "_BLOCK_BYTES", 3 * hn._sub_block_bytes(cfg, k_max))
        monkeypatch.setattr(hn, "_truth_bytes", lambda cfg: hn._BLOCK_BYTES // 6)
        chunks, blocks = [], []
        stage, estimate = hn._stage_truths, hn._run_block

        def stage_spy(cfg, k, snr_db, indices):
            chunks.append((tuple(sorted(set(k))), len(indices), len(set(snr_db))))
            return stage(cfg, k, snr_db, indices)

        def estimate_spy(cfg, k, snr_db, indices, staged=None):
            assert staged is not None and len(staged.truths) == len(indices)
            blocks.append((k, len(indices)))
            return estimate(cfg, k, snr_db, indices, staged)

        monkeypatch.setattr(hn, "_stage_truths", stage_spy)
        monkeypatch.setattr(hn, "_run_block", estimate_spy)
        res = hn.run_sweep(cfg)
        assert_records_match(res.trials, want)
        assert trial_bits(res.trials) == bits
        # (Ks, trials, SNRs) of each chunk: whole sub-blocks of 3 trials at k_max and of
        # 7 at k = 8 < 20, 4 at k = 6 < 8 and 6 at k = 1 < 2
        tail = [((k_max,), 6, 1), ((k_max,), 6, 2), ((k_max,), 2, 1)]
        assert chunks == {
            (8, 20): [((8,), 7, 1), ((8,), 7, 1)] + tail,
            (8,): tail,
            (6, 8): [((6,), 4, 1), ((6,), 4, 2), ((6,), 6, 1)] + tail,
            (1, 2): [((1,), 6, 1), ((1,), 6, 2), ((1, 2), 5, 2), ((2,), 6, 2), ((2,), 5, 1)],
        }[cfg.k_values]
        assert [n for k, n in blocks if k == k_max] == [3, 3, 3, 3, 2]

    @pytest.mark.parametrize("name", ["jt-rank-deficient", "genie-rank-deficient", "jt-l2-loose"])
    def test_failure_cases_are_exercised(self, name, monkeypatch):
        cfg = block_case(name)
        short, blocks = [], []  # per sub-block: [true supports, found supports, solved rows]
        inner, run_block, search = nm.gram_solve, hn._run_block, est.jt_search

        def spy(g, c=None):  # records the rows solved and those not of full rank
            blocks[-1][2].append(len(g))
            trace, full, x = inner(g, c)
            short.append(np.count_nonzero(~full))
            return trace, full, x

        def block_spy(cfg, k, snr_db, indices, staged=None):
            blocks.append([[tuple(np.flatnonzero(m).tolist()) for m in staged.supports], [], []])
            return run_block(cfg, k, snr_db, indices, staged)

        def search_spy(*args):
            found = search(*args)
            blocks[-1][1].extend(map(tuple, found[0].tolist()))
            return found

        monkeypatch.setattr(nm, "gram_solve", spy)
        monkeypatch.setattr(hn, "_run_block", block_spy)
        monkeypatch.setattr(est, "jt_search", search_spy)
        trials = hn.run_sweep(cfg).trials
        if name == "jt-l2-loose":
            # the search accepts wrong supports in some sub-blocks (TestBlockCore pins
            # their records): only those take a second gram_solve, on just those trials
            assert all(len(found) == len(true) for true, found, _ in blocks)
            wrong = [
                sum(f != t and -1 not in f for f, t in zip(found, true))
                for true, found, _ in blocks
            ]
            assert any(wrong) and not all(wrong)
            assert [solved for *_, solved in blocks] == [
                [len(true)] + [w] * (w > 0) for (true, _, _), w in zip(blocks, wrong)
            ]
            return
        errored = trials.failed & np.isnan(trials.crlb_value)
        assert errored.any()
        assert np.array_equal(trials.squared_error[errored], trials.truth_energy[errored])
        # the rank-deficient true supports are not full rank by the Gram cutoff
        # (TestBlockCore pins the failed records to the reference's)
        assert np.count_nonzero(errored) < errored.size
        assert sum(short) == np.count_nonzero(errored)

    def test_block_size_follows_byte_budget(self, monkeypatch):
        # a worker cuts the trials of its cells of each K into blocks by the
        # budget; of 2 workers, this process runs (8, 30), (80, 20), (80, 40)
        cfg = hn.default_config(k_values=(8, 80), trials=25)
        sizes = []
        inner = hn._run_block

        def spy(cfg, k, snr_db, indices, staged=None):
            sizes.append((k, len(indices)))
            return inner(cfg, k, snr_db, indices, staged)

        def cut(k, cells):
            n, size = cells * cfg.trials, hn._BLOCK_BYTES // hn._sub_block_bytes(cfg, k)
            return [(k, size)] * (n // size) + [(k, n % size)] * (n % size > 0)

        monkeypatch.setattr(hn, "_run_block", spy)
        hn.run_sweep(cfg, threads=1)
        assert sizes == cut(8, 3) + cut(80, 3)
        if hasattr(os, "fork"):
            sizes.clear()
            hn.run_sweep(cfg, threads=2)
            assert sizes == cut(8, 1) + cut(80, 2)


class TestTruthStage:
    @pytest.mark.parametrize("mode", hn.MODES)
    @pytest.mark.parametrize(
        # at n_d = n_s = 40 the cascade and its angular image outgrow the draws
        "geometry",
        [ch.Geometry(5, 5, 2, 5), ch.Geometry(4, 6, 3, 2, spacing_ratio=0.7),
         ch.Geometry(40, 40, 2, 5)],
    )
    def test_peak_per_trial_is_the_stated_footprint(self, geometry, mode):
        # two paths per hop, so a physical stage holds several paths per trial
        cfg = hn.default_config(
            geometry=geometry, mode=mode, hop_bs_ris=hn.HopSpec(2), hop_ris_ms=hn.HopSpec(2),
            typicality=est.TypicalityConfig(None, 2), k_values=(80,),
        )
        trials = 200
        hn._stage_truths(cfg, 20, 20.0, range(trials))  # first-use imports and caches
        tracemalloc.start()
        try:
            hn._stage_truths(cfg, 20, 20.0, range(trials))
            peak = tracemalloc.get_traced_memory()[1] / trials
        finally:
            tracemalloc.stop()
        assert 0.5 <= peak / hn._truth_bytes(cfg) <= 2.0, peak

    @pytest.mark.parametrize(
        # K = 4000 and n_d = n_s = 20 sub-blocks hold one trial each, so a
        # per-block (K n_s, n_d n_s) Upsilon would show in the peak; n_d != n_s:
        # the pilots grow with n_d K and the observations with n_s K
        "k, n_d, n_s", [pytest.param(k, 5, 5, id=str(k)) for k in (8, 20, 80, 4000)]
        + [pytest.param(1000, 20, 20, id="1000-20x20")]
        + [pytest.param(k, n_d, n_s, id=f"{k}-{n_d}x{n_s}")
           for k, n_d, n_s in ((200, 40, 1), (400, 200, 1), (100, 1, 40))],
    )
    @pytest.mark.parametrize(
        "estimator, mode",
        [("jt", "synthetic"), ("genie", "synthetic"), ("genie", "physical_off_grid"),
         ("omp", "synthetic")],
    )
    def test_sub_block_peak_per_trial_is_the_stated_footprint(
        self, estimator, mode, k, n_d, n_s
    ):
        # one sub-block at the sweep's size, its truths staged beforehand
        cfg = hn.default_config(
            estimator=estimator, mode=mode, k_values=(k,), geometry=ch.Geometry(n_s, n_d, 2, 5)
        )
        trials = max(hn._BLOCK_BYTES // hn._sub_block_bytes(cfg, k), 1)
        staged = hn._stage_truths(cfg, k, 20.0, range(trials))
        hn._run_block(cfg, k, 20.0, range(trials), staged)  # first-use imports and caches
        tracemalloc.start()
        try:
            hn._run_block(cfg, k, 20.0, range(trials), staged)
            peak = tracemalloc.get_traced_memory()[1] / trials
        finally:
            tracemalloc.stop()
        assert 0.5 <= peak / hn._sub_block_bytes(cfg, k) <= 2.0, peak

    @pytest.mark.parametrize(
        "overrides, k",
        [
            pytest.param(overrides, k, id=f"{name}-{k}")
            for name, overrides in [
                ("jt", {}), ("genie-off-grid", {"mode": "physical_off_grid", "estimator": "genie"}),
                ("omp", {"estimator": "omp"}),
                ("jt-l2", {"typicality": est.TypicalityConfig(None, 2)}),
            ]
            for k in hn.default_config().k_values
        ],
    )
    def test_sub_block_peak_is_within_the_budget(self, overrides, k):
        # the budget is a ceiling, not only a scale: one sub-block of the sweep's size at
        # each default K, its truths staged beforehand, traces at most _BLOCK_BYTES; the
        # L = 2 search's tables do not shrink with K, and size its sub-blocks below K = 20
        cfg = hn.default_config(k_values=(k,), **overrides)
        trials = hn._BLOCK_BYTES // hn._sub_block_bytes(cfg, k)
        staged = hn._stage_truths(cfg, k, 20.0, range(trials))
        hn._run_block(cfg, k, 20.0, range(trials), staged)  # first-use imports and caches
        tracemalloc.start()
        try:
            hn._run_block(cfg, k, 20.0, range(trials), staged)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= hn._BLOCK_BYTES, peak / hn._BLOCK_BYTES

    @pytest.mark.parametrize(
        # the L >= 2 search: block tables (5 x 5, 8 x 5) or, at n_s = 1, per-pass tables
        "n_d, n_s, l, k", [(5, 5, 2, 20), (8, 5, 3, 20), (40, 1, 3, 60)],
        ids=["5x5-L2", "8x5-L3", "40x1-L3"],
    )
    def test_search_sub_block_peak_per_trial_is_the_stated_footprint(self, n_d, n_s, l, k):
        # the footprint that _sub_block_bytes states for the L >= 2 search: the larger of
        # its two phases, the observation and the search; at n_s = 1 each pass builds its
        # own tables, a cost per block that the per-trial figure leaves out
        cfg = hn.default_config(
            k_values=(k,), geometry=ch.Geometry(n_s, n_d, 2, 5),
            typicality=est.TypicalityConfig(None, l),
        )
        trials = max(hn._BLOCK_BYTES // hn._sub_block_bytes(cfg, k), 1)
        staged = hn._stage_truths(cfg, k, 20.0, range(trials))
        hn._run_block(cfg, k, 20.0, range(trials), staged)  # first-use imports and caches
        tracemalloc.start()
        try:
            hn._run_block(cfg, k, 20.0, range(trials), staged)
            peak = tracemalloc.get_traced_memory()[1] / trials
        finally:
            tracemalloc.stop()
        stated = hn._sub_block_bytes(cfg, k)
        if n_s == 1:
            stated = max(stated, est._SCAN_BLOCK * 32 * l * (l + 2) / trials)
        assert 0.5 <= peak / stated <= 2.0, (peak, stated)

    @pytest.mark.parametrize(
        # the benchmark's sweeps: 25 trials per cell, 3 SNR cells per K
        "overrides", [{}, {"mode": "physical_off_grid", "estimator": "genie"}]
    )
    def test_default_sweeps_stage_few_chunks(self, monkeypatch, overrides):
        # jt-default stages its 600 trials in one chunk; genie-offgrid, of 143 trials at
        # most, in chunks of whole sub-blocks across K (sub-block sizes as below: the 75
        # trials of each K up to 20 are one sub-block, so one chunk each up to K = 16)
        cfg = hn.default_config(trials=25, **overrides)
        chunks, stage = [], hn._stage_truths

        def spy(cfg, k, snr_db, indices):
            chunks.append((tuple(sorted(set(k))), len(indices)))
            return stage(cfg, k, snr_db, indices)

        monkeypatch.setattr(hn, "_stage_truths", spy)
        hn.run_sweep(cfg)
        if cfg.mode == "synthetic":
            assert chunks == [(cfg.k_values, 600)]
            return
        assert hn._BLOCK_BYTES // hn._truth_bytes(cfg) == 143
        assert chunks == [
            ((8,), 75), ((12,), 75), ((16,), 75), ((20, 28), 133), ((28, 40, 60), 119),
            ((60, 80), 123),
        ]

    def test_chunk_across_k_equals_per_k_stages(self):
        # one chunk of trials of several Ks and SNRs holds each K's own truth stage
        for overrides in ({}, {"typicality": est.TypicalityConfig(None, 3)},
                          {"mode": "physical_on_grid", "hop_bs_ris": hn.HopSpec(3),
                           "hop_ris_ms": hn.HopSpec(2)}):
            cfg = hn.default_config(**overrides)
            ks = [k for k in cfg.k_values for _t in range(30)]
            snrs = [cfg.snr_db_values[t % 3] for t in range(len(ks))]
            indices = [t * 7 % 30 for t in range(len(ks))]
            staged = hn._stage_truths(cfg, ks, snrs, indices)
            for c, k in enumerate(cfg.k_values):
                at = slice(30 * c, 30 * c + 30)
                alone = hn._stage_truths(cfg, k, snrs[at], indices[at])
                assert all(a.tobytes() == b[at].tobytes() for a, b in zip(alone, staged)), k

    def test_sweep_peak_grows_only_by_the_trial_columns(self):
        # the one state that grows with the trial count: the trial columns (73 B a
        # trial), the share's layout and time shares (32 B) and the copies that join
        # them, 155 B a trial measured; the per-trial records these replaced read 410 B
        def peak(trials):
            cfg = hn.default_config(
                k_values=(8,), snr_db_values=(20.0,), trials=trials, estimator="genie"
            )
            tracemalloc.start()
            try:
                hn.run_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1_000)  # first-use imports and caches
        growth = (peak(10_000) - peak(1_000)) / 9_000
        assert growth <= 200, growth

    def test_default_sub_blocks_keep_their_sizes(self):
        # the trials per sub-block at each default K under the stated 40 K (n_d + n_s) B a
        # trial; the benchmark's sweeps, 3 SNR cells of 25 (jt-default, genie-offgrid) or
        # 4 (jt-sparse2) trials per K, run 15 and 8 sub-blocks
        cfg = hn.default_config()
        sizes = [hn._BLOCK_BYTES // hn._sub_block_bytes(cfg, k) for k in cfg.k_values]
        assert sizes == [204, 136, 102, 81, 58, 40, 27, 20]
        assert [sum(math.ceil(3 * n / size) for size in sizes) for n in (25, 4)] == [15, 8]


class TestBlockFailurePath:
    """The block core's column stacks, and which errors become failed records."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"estimator": "omp"},
            {
                "typicality": est.TypicalityConfig(None, 2, est.BEST_STATISTIC),
                "k_values": (1, 2, 3),
            },
            *(
                {
                    "mode": "physical_on_grid", "hop_bs_ris": hn.HopSpec(2),
                    "hop_ris_ms": hn.HopSpec(2), "k_values": (1, 2, 3), "estimator": name,
                }
                for name in hn.ESTIMATORS
            ),
        ],
        ids=["default", "omp", "l2-best-k123", "on-grid-2x2-k123-jt", "on-grid-2x2-k123-genie",
             "on-grid-2x2-k123-omp"],
    )
    def test_no_sweep_runs_an_svd(self, monkeypatch, overrides):
        # the CRLB, the search, OMP and every fit and rank come from the Gram matrix, also
        # where K <= n_d makes supports rank deficient or ill-conditioned
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k <= n_d
            cfg = hn.default_config(**{"trials": 40, **overrides})

        def banned(*args, **kwargs):
            raise AssertionError("an SVD or an lstsq fit in a sweep")

        monkeypatch.setattr(np.linalg, "svd", banned)
        monkeypatch.setattr(np.linalg, "lstsq", banned)
        res = hn.run_sweep(cfg)
        assert len(res.trials.k) == cfg.trials * len(cfg.k_values) * len(cfg.snr_db_values)

    def test_default_sweep_solves_each_true_support_once(self, monkeypatch):
        # the CRLB and the fit of the true support come from one gram_solve per sparsity
        # group of each sub-block; JT fits only the other supports it finds, none here
        groups, solves, run_block, inner = [], [], hn._run_block, nm.gram_solve

        def block_spy(cfg, k, snr_db, indices, staged=None):
            groups.append(len(set(np.count_nonzero(staged.supports, axis=1).tolist())))
            return run_block(cfg, k, snr_db, indices, staged)

        monkeypatch.setattr(hn, "_run_block", block_spy)
        monkeypatch.setattr(nm, "gram_solve", lambda *args: solves.append(1) or inner(*args))
        hn.run_sweep(hn.default_config(trials=100))
        assert len(solves) == sum(groups) == len(groups) > 0

    def test_overflowed_statistic_is_not_typical(self):
        # ||y||^2 overflows to inf, so every statistic is nan: no subset is typical
        cfg = hn.default_config(k_values=(8,), trials=3, magnitude=1e154)
        with np.errstate(all="ignore"):
            res = hn.run_sweep(cfg)
        assert res.trials.failed.tolist() == [True] * 9
        assert res.trials.subsets_examined.tolist() == [25] * 9
        assert [row.fail_rate for row in res.rows] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "mode, losses, size, energy",
        [
            # both path losses underflow every truth to zero; its support mask keeps one bin
            ("physical_on_grid", (1e300, 1e300), 1, 0.0),
            ("physical_off_grid", (1e300, 1e300), 1, 0.0),
        ],
        ids=["zero-on-grid", "zero-off-grid"],
    )
    def test_truth_without_energy_or_support_is_a_failed_record(self, mode, losses, size, energy):
        cfg = hn.default_config(
            mode=mode, k_values=(8,), snr_db_values=(20.0,), trials=3,
            hop_bs_ris=hn.HopSpec(1, losses[0]), hop_ris_ms=hn.HopSpec(1, losses[1]),
        )
        with np.errstate(all="ignore"):
            staged = hn._stage_truths(cfg, 8, 20.0, range(3))
            trials = hn.run_sweep(cfg).trials
        assert np.count_nonzero(staged.supports, axis=1).tolist() == [size] * 3
        np.testing.assert_array_equal(staged.energies, [energy] * 3)
        # not estimated: the failed record, whose squared error is ||upsilon||^2
        assert trials.failed.all() and np.isnan(trials.crlb_value).all()
        assert trials.sparsity.tolist() == [size] * 3
        assert trials.subsets_examined.tolist() == [0] * 3
        np.testing.assert_array_equal(trials.squared_error, [energy] * 3)

    @pytest.mark.parametrize(
        "mode, losses",
        [
            # 5e-324 overflows the hop's scale sqrt(N N / path_loss): the truth would be nan
            ("physical_on_grid", (5e-324, None)),
            ("physical_off_grid", (5e-324, None)),
            # each scale is finite, their product squared is not: the energy would be inf
            ("physical_off_grid", (1e-300, 1e-300)),
            ("physical_on_grid", (1e-150, 1e-160)),
        ],
        ids=["nan-on-grid", "nan-off-grid", "inf-off-grid", "inf-on-grid"],
    )
    def test_truth_energy_overflow_is_rejected(self, mode, losses):
        with pytest.raises(ConfigError, match="the bound on a truth's energy overflows"):
            hn.default_config(
                mode=mode, hop_bs_ris=hn.HopSpec(1, losses[0]), hop_ris_ms=hn.HopSpec(1, losses[1])
            )

    def test_estimator_error_is_not_a_failed_trial(self, monkeypatch):
        def broken(*args):
            raise DimensionMismatchError("broken search")

        monkeypatch.setattr(est, "jt_search", broken)
        with pytest.raises(DimensionMismatchError, match="broken search"):
            hn._run_block(hn.default_config(), 20, 20.0, range(5))


class TestRuleHomes:
    """The block core builds no TypicalityConfig, and one method chooses every delta."""

    def test_sweep_builds_no_typicality_config(self, monkeypatch):
        cfg = small_config(trials=50, typicality=est.TypicalityConfig(None, 2))
        calls = []
        inner = est.TypicalityConfig.__post_init__
        monkeypatch.setattr(
            est.TypicalityConfig, "__post_init__", lambda self: calls.append(self) or inner(self)
        )
        hn.run_sweep(cfg)
        assert calls == []

    def test_search_and_bound_take_delta_from_threshold(self, monkeypatch):
        callers = []
        inner = est.TypicalityConfig.threshold

        def spy(self, noise_var, kns, l):
            callers.append(sys._getframe(1).f_code.co_name)
            return inner(self, noise_var, kns, l)

        monkeypatch.setattr(est.TypicalityConfig, "threshold", spy)
        hn.run_sweep(small_config(trials=5))
        assert set(callers) == {"jt_search", "bound_terms"}


class TestTrialSeed:
    def test_deterministic(self):
        assert np.array_equal(hn.trial_seeds(1, 8, 20.0, [3]), hn.trial_seeds(1, 8, 20.0, [3]))

    def test_distinct_across_grid(self):
        seeds = {
            seed
            for k in (8, 12)
            for snr in (20.0, 30.0)
            for seed in hn.trial_seeds(7, k, snr, range(50))[0].tolist()
        }
        assert len(seeds) == 2 * 2 * 50

    def test_sensitive_to_master_seed(self):
        assert hn.trial_seeds(1, 8, 20.0, [0])[0, 0] != hn.trial_seeds(2, 8, 20.0, [0])[0, 0]

    @pytest.mark.parametrize("master", [0, 1, -1, 2**64 - 1, 2**64 + 5])
    def test_block_derivation_matches_scalar_mixing(self, master):
        # the per-trial Python-int mixing the block's uint64 pass replaced
        def reference(k, snr_db, t):
            s = hn._mix64(master & hn._MASK)
            for word in (k, struct.unpack("<Q", struct.pack("<d", snr_db))[0], t):
                s = hn._mix64(s ^ word)
            return s

        indices = [*range(2001), 2**40]
        for k in (1, 8, 80):
            for snr_db in (-0.0, 20.0, 1e-300):
                stack = hn.trial_seeds(master, k, snr_db, indices)
                assert stack.shape == (4, len(indices)) and stack.dtype == np.uint64
                seeds, *streams = stack.tolist()
                assert seeds == [reference(k, snr_db, t) for t in indices]
                for i, stream in enumerate(streams, start=1):
                    assert stream == [hn._mix64(seed ^ i) for seed in seeds]
            # one SNR per trial
            snrs = [(-0.0, 20.0, 1e-300, -7.5)[t % 4] for t in range(len(indices))]
            seeds = hn.trial_seeds(master, k, snrs, indices)[0].tolist()
            assert seeds == [reference(k, s, t) for s, t in zip(snrs, indices)]


class TestSeedWords:
    # edge seeds: zero, one-word entropies, the first two-word seed, the top
    EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    def seeds(self):
        drawn = np.random.default_rng(15).integers(0, 2**64, size=10_000, dtype=np.uint64)
        return self.EDGES + drawn.tolist()

    def test_words_match_seed_sequence(self):
        seeds = self.seeds()
        words = hn.seed_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for seed, row in zip(seeds, words):
            want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.tolist() == want.tolist(), seed

    def test_generators_match_default_rng(self):
        seeds = self.seeds()
        for seed, rng in zip(seeds, hn.generators(hn.seed_words(np.array(seeds, dtype=np.uint64)))):
            want = np.random.default_rng(seed)
            assert rng.bit_generator.state == want.bit_generator.state, seed
            assert rng.standard_normal() == want.standard_normal()
            assert rng.random() == want.random()
            assert rng.choice(25, size=3, replace=False).tolist() == want.choice(
                25, size=3, replace=False
            ).tolist()

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy.random takes ~17 ms to import; a sweep imports it on its first
        # generator, so set-up does not pay for it
        import ris_crlb

        src = os.path.dirname(os.path.dirname(ris_crlb.__file__))
        code = "import sys, ris_crlb.cli; print('numpy.random' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestSyntheticDraws:
    """The raw-word PCG64 emulation reproduces numpy's Generator draws bit for bit."""

    MASK128 = (1 << 128) - 1
    MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 multiplier
    INC = 0x5851F42D4C957F2D14057B7EF767814F  # any odd increment

    def test_state_and_words_match_pcg64(self):
        seeds = TestSeedWords().seeds()
        state = ch.pcg64_seat(hn.seed_words(np.array(seeds, dtype=np.uint64)))
        assert state.shape == (4, len(seeds)) and state.dtype == np.uint64
        hi, lo, inc_hi, inc_lo = state.tolist()
        words = ch.pcg64_words(state, np.arange(3)).tolist()
        for t, seed in enumerate(seeds):
            bits = np.random.default_rng(seed).bit_generator
            own = {"state": hi[t] << 64 | lo[t], "inc": inc_hi[t] << 64 | inc_lo[t]}
            assert bits.state["state"] == own, seed
            assert words[t] == bits.random_raw(3).tolist(), seed

    def test_words_past_the_block_match_random_raw(self):
        # a lane that redraws reads past its block, one jump per word: word offsets up to
        # 300, the same offsets on every lane and one offset per lane
        seeds = TestSeedWords().seeds()[:300]
        state = ch.pcg64_seat(hn.seed_words(np.array(seeds, dtype=np.uint64)))
        at = np.array([0, 1, 2, 63, 64, 127, 128, 200, 255, 256, 299, 300])
        own = np.arange(len(seeds))[:, None] + 1
        got, alone = ch.pcg64_words(state, at), ch.pcg64_words(state, own)
        for t, seed in enumerate(seeds):
            raw = np.random.default_rng(seed).bit_generator.random_raw(301)
            assert got[t].tolist() == raw[at].tolist(), seed
            assert alone[t].tolist() == raw[own[t]].tolist(), seed

    @pytest.mark.parametrize(
        "dim, l",
        [(7, 1), (7, 2), (7, 3), (25, 1), (25, 2), (25, 3), (25, 25), (100, 1), (100, 2),
         (100, 3), (100, 25)],
    )
    def test_matches_choice_then_random(self, dim, l):
        seeds = TestSeedWords().seeds()
        self.check(seeds, dim, l)

    # 10201 // 50 = 204: Floyd's selection at l = 204, the tail shuffle at 205
    @pytest.mark.parametrize("l", [204, 205])
    def test_matches_both_branches_of_a_large_choice(self, l):
        self.check(TestSeedWords().seeds()[:200], 10201, l)

    def check(self, seeds, dim, l):
        state = ch.pcg64_seat(hn.seed_words(np.array(seeds, dtype=np.uint64)))
        (picks,), phases = ch.raw_draws(state, [(dim, l, l)])
        assert picks.shape == phases.shape == (len(seeds), l)
        assert picks.dtype == np.int64 and phases.dtype == np.float64
        for seed, got, phase in zip(seeds, picks, phases):
            rng = np.random.default_rng(seed)
            assert got.tolist() == rng.choice(dim, size=l, replace=False).tolist(), seed
            assert phase.tobytes() == rng.random(l).tobytes(), seed

    @classmethod
    def crafted(cls, word, steps):
        """A PCG64 state whose ``steps``-th output is ``word``: the state after that
        step has a rotation of 0 and halves whose XOR is ``word``."""
        high = 0x0123456789ABCDEF >> 6  # top 6 bits 0: no rotation
        state, back = high << 64 | (high ^ word), pow(cls.MULT, -1, 1 << 128)
        for _ in range(steps):
            state = (state - cls.INC) * back & cls.MASK128
        return state

    @classmethod
    def pcg64_at(cls, state):
        """A PCG64 at ``state`` with the test's increment and no buffered half."""
        bits = np.random.PCG64()
        bits.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": cls.INC},
            "has_uint32": 0, "uinteger": 0,
        }
        return bits

    @classmethod
    def seat(cls, state):
        """The (4, 1) limbs of a PCG64 at ``state`` with the test's increment, as
        ``raw_draws`` takes them."""
        limbs = [state >> 64, state & hn._MASK, cls.INC >> 64, cls.INC & hn._MASK]
        return np.array(limbs, dtype=np.uint64)[:, None]

    @classmethod
    def spy_bounded(cls, monkeypatch, state):
        """(j, halves read) of every bounded draw, as they are made by the frozen per-lane
        draws (``frozen_draws``) from the PCG64 at ``state``, for the steps of each
        ``raw_draws`` call, whose output they must equal."""
        draws, inner, bounded = [], ch.raw_draws, frozen_draws.bounded

        def spy(halves, j):
            taken = []
            v = bounded((taken.append(h) or h for h in halves), j)
            draws.append((j, len(taken)))
            return v

        def raw_spy(lanes, steps):
            want, got = frozen_draws.raw_draws([cls.pcg64_at(state)], steps), inner(lanes, steps)
            assert all(a.tobytes() == b.tobytes() for a, b in zip([*want[0], want[1]],
                                                                  [*got[0], got[1]]))
            return got

        monkeypatch.setattr(frozen_draws, "bounded", spy)
        monkeypatch.setattr(ch, "raw_draws", raw_spy)
        return draws

    @pytest.mark.parametrize(
        # (dim, l, output holding the zero half, its high half?, bound j of the redraw)
        "dim, l, steps, high, bound",
        [
            (25, 1, 1, False, 24), (7, 2, 1, False, 5), (100, 3, 1, False, 97),
            # l = 3: the 4th half draws the shuffle's [0, 2]
            (25, 3, 2, True, 2), (100, 3, 2, True, 2),
        ],
    )
    def test_lemire_rejection(self, monkeypatch, dim, l, steps, high, bound):
        # a zero half gives a zero leftover, which is below 2^32 mod (j + 1) unless
        # j + 1 is a power of two, so the draw is made again from the next half
        word = 0x9E3779B9 << 32 if not high else 0x7F4A7C15
        state = self.crafted(word, steps)
        draws = self.spy_bounded(monkeypatch, state)
        (picks,), phases = ch.raw_draws(self.seat(state), [(dim, l, l)])
        picks, phases = picks[0].tolist(), phases[0]
        assert (bound, 2) in draws
        rng = np.random.Generator(self.pcg64_at(state))
        assert picks == rng.choice(dim, size=l, replace=False).tolist()
        assert phases.tobytes() == rng.random(l).tobytes()

    def test_redraws_past_the_words_read_up_front(self, monkeypatch):
        # a zero first word rejects both its halves: the third half comes from the
        # second word, so the double is a word beyond the two read in one call
        state = self.crafted(0, 1)
        draws = self.spy_bounded(monkeypatch, state)
        (picks,), phases = ch.raw_draws(self.seat(state), [(25, 1, 1)])
        assert draws == [(24, 3)]
        rng = np.random.Generator(self.pcg64_at(state))
        assert picks.tolist() == [rng.choice(25, size=1, replace=False).tolist()]
        assert phases.tobytes() == rng.random(1).tobytes()

    @pytest.mark.parametrize("dim, l", [(25, 1), (7, 2), (25, 3), (100, 3)])
    def test_rejecting_lanes_redraw_alone(self, dim, l):
        # the crafted rejecting states of the cases above between seeded lanes, in one
        # stack: each lane's draws are its own generator's
        crafted = [self.crafted(0, 1)] + [
            self.crafted(word, steps)
            for word in (0x9E3779B9 << 32, 0x7F4A7C15) for steps in (1, 2)
        ]
        seeds = TestSeedWords().seeds()[:40]
        seated = ch.pcg64_seat(hn.seed_words(np.array(seeds, dtype=np.uint64)))
        state = np.concatenate([seated[:, :20]] + [self.seat(s) for s in crafted]
                               + [seated[:, 20:]], axis=1)
        rngs = [np.random.default_rng(s) for s in seeds[:20]]
        rngs += [np.random.Generator(self.pcg64_at(s)) for s in crafted]
        rngs += [np.random.default_rng(s) for s in seeds[20:]]
        steps = [(dim, l, l), (dim, l, 2)]
        picks, phases = ch.raw_draws(state, steps)
        for t, rng in enumerate(rngs):
            for step, (d, n, m) in enumerate(steps):
                assert picks[step][t].tolist() == rng.choice(d, size=n, replace=False).tolist()
                start = sum(v for *_, v in steps[:step])
                assert phases[t, start:start + m].tobytes() == rng.random(m).tobytes(), t


class TestPhysicalDraws:
    """An on-grid truth drawn from raw words equals the frozen per-path draw of a Generator."""

    @pytest.mark.parametrize(
        # (paths per hop, output holding the zero half, its high half?, bound j of the redraw)
        "paths, steps, high, bound",
        [
            # the first bin draw, choice(5, 3)'s [0, 2], from the first half
            ((3, 4), 1, False, 2),
            # its shuffle's [0, 2] is the 4th half: the high half of the second word
            ((3, 4), 2, True, 2),
            # the second hop's choice(5, 2) draws [0, 3] from the high half that the
            # first hop's choice(5, 1) left, across its 3 doubles, then [0, 4] from
            # the low half of the 5th word
            ((1, 2), 5, False, 4),
        ],
    )
    def test_lemire_rejection_in_bin_draws(self, monkeypatch, paths, steps, high, bound):
        cfg = hn.default_config(
            mode="physical_on_grid", hop_bs_ris=hn.HopSpec(paths[0]),
            hop_ris_ms=hn.HopSpec(paths[1]),
        )
        word = 0x9E3779B9 << 32 if not high else 0x7F4A7C15
        state = TestSyntheticDraws.crafted(word, steps)
        draws = TestSyntheticDraws.spy_bounded(monkeypatch, state)
        real = hn.physical_stack(cfg, TestSyntheticDraws.seat(state))
        assert (bound, 2) in draws
        rng = np.random.Generator(TestSyntheticDraws.pcg64_at(state))
        ref = fc.draw_physical(cfg.geometry, (paths[0], None), (paths[1], None), rng, True)
        assert real.sparse_vec[0].tobytes() == ref.upsilon.tobytes()
        assert tuple(np.flatnonzero(real.support[0]).tolist()) == ref.support
        assert tuple(np.flatnonzero(real.predicted_support[0]).tolist()) == ref.predicted


class TestRunTrial:
    def test_one_trial_table(self):
        # ten columns of one entry each, 73 B a trial
        rec = hn.run_trial(small_config(), 20, 30.0, 5)
        assert [c.shape for c in rec] == [(1,)] * 10
        assert [c.dtype.str for c in rec] == ["<i8", "<f8", "<i8", "<u8", "<f8", "<f8", "|b1",
                                              "<i8", "<f8", "<i8"]
        assert sum(c.nbytes for c in rec) == 73

    def test_repeatable(self):
        cfg = small_config()
        a = hn.run_trial(cfg, 20, 30.0, 5)
        b = hn.run_trial(cfg, 20, 30.0, 5)
        assert trial_bits(a) == trial_bits(b)

    def test_genie_never_fails(self):
        cfg = small_config(estimator="genie")
        for t in range(50):
            rec = hn.run_trial(cfg, 8, 20.0, t)
            assert not rec.failed[0]
            assert rec.squared_error[0] >= 0
            assert rec.crlb_value[0] > 0

    def test_jt_near_noiseless_recovery(self):
        # at 60 dB the search should find the true support essentially always
        cfg = hn.default_config(k_values=(20,), snr_db_values=(60.0,))
        good = 0
        trials = 1000
        for t in range(trials):
            rec = hn.run_trial(cfg, 20, 60.0, t)
            if not rec.failed[0] and rec.squared_error[0] < 1e-4:
                good += 1
        assert good >= 0.99 * trials

    def test_physical_on_grid_mode(self):
        cfg = small_config(mode="physical_on_grid", trials=5)
        rec = hn.run_trial(cfg, 20, 30.0, 0)
        assert rec.squared_error[0] >= 0
        assert rec.crlb_value[0] > 0

    def test_physical_off_grid_mode(self):
        cfg = small_config(mode="physical_off_grid", trials=5)
        rec = hn.run_trial(cfg, 20, 30.0, 0)
        assert rec.squared_error[0] >= 0


class TestRunSweep:
    def test_single_point_single_trial(self):
        cfg = hn.default_config(k_values=(12,), snr_db_values=(25.0,), trials=1)
        res = hn.run_sweep(cfg)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert (row.k, row.snr_db, row.trials) == (12, 25.0, 1)

    def test_mean_crlb_inverse_moment(self):
        # sigma^2 = 1 via snr 0 dB and ||upsilon||^2 = n_s, so the mean
        # per-trial CRLB estimates 1/(K-1)
        cfg = hn.default_config(
            k_values=(20,), snr_db_values=(0.0,), trials=1000,
            estimator="genie", magnitude=math.sqrt(5.0),
        )
        res = hn.run_sweep(cfg, threads=4)
        assert abs(res.rows[0].crlb / (1.0 / 19.0) - 1.0) < 0.05

    def test_genie_attains_crlb(self):
        cfg = hn.default_config(k_values=(20,), snr_db_values=(20.0,), trials=1000,
                                estimator="genie")
        res = hn.run_sweep(cfg, threads=4)
        row = res.rows[0]
        assert abs(row.mse / row.crlb - 1.0) < 0.1

    def test_threaded_sweep_leaves_warning_filters_alone(self):
        # k = 4 <= n_d: the config warns once; the trials must neither warn
        # again nor touch the process-wide filter list from the workers
        with pytest.warns(UserWarning, match="k=4"):
            cfg = small_config(k_values=(4, 8), trials=40)
        before = list(warnings.filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hn.run_sweep(cfg, threads=4)
        hn.run_sweep(cfg, threads=4)
        assert warnings.filters == before

    def test_thread_count_does_not_change_rows(self):
        cfg = small_config()
        lines1 = hn.sweep_csv_lines(hn.run_sweep(cfg, threads=1))
        lines8 = hn.sweep_csv_lines(hn.run_sweep(cfg, threads=8))
        assert lines1 == lines8

    def test_aggregates_recomputable_from_trial_records(self):
        cfg = small_config()
        res = hn.run_sweep(cfg)
        trials = res.trials
        for row in res.rows:
            at = (trials.k == row.k) & (trials.snr_db == row.snr_db)
            assert np.count_nonzero(at) == row.trials
            assert left_mean(trials.squared_error[at].tolist()) == row.mse
            assert left_mean(trials.crlb_value[at].tolist()) == row.crlb
            assert np.count_nonzero(trials.failed[at]) / row.trials == row.fail_rate

    def test_cell_means_fold_left_to_right(self, monkeypatch):
        # the left fold of [1e16, 1, 1, 1] is 1e16, its mean 2.5e15; Python 3.12's sum
        # compensates, as math.fsum does here, to 1e16 + 4 and a mean of 2500000000000001
        monkeypatch.setattr(hn, "sum", math.fsum, raising=False)
        errors, n = np.array([1e16, 1.0, 1.0, 1.0]), 4
        recs = hn.Trials(
            np.full(n, 8), np.full(n, 20.0), np.arange(n), np.zeros(n, np.uint64), errors, errors,
            np.zeros(n, bool), np.ones(n, np.int64), errors, np.ones(n, np.int64),
        )
        row = hn._aggregate(small_config(), 8, 20.0, recs, 0.0)
        assert row.mse == row.crlb == 2.5e15
        # a physical cell's bound takes the mean truth energy
        energies = []
        monkeypatch.setattr(hn, "bound_terms", lambda *args: energies.append(args[3]) or (0.0,) * 4)
        hn._aggregate(small_config(mode="physical_on_grid"), 8, 20.0, recs, 0.0)
        assert energies == [2.5e15]


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the test if the block runs longer than ``seconds``."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes need os.fork")
class TestWorkerProcesses:
    """Forked workers give the in-process results and leave no child behind."""

    @staticmethod
    def two_cells(monkeypatch, fail=None):
        """A 2-cell config; ``fail(in_parent)`` runs before each share.

        The child's cell is K = 8; the columns of its 1000 trials, 73 B each,
        pickle to more than a pipe buffer (64 KiB), so it blocks writing until
        the parent reads or closes the pipe.
        """
        cfg = small_config(k_values=(8, 20), snr_db_values=(20.0,), trials=1000)
        if fail is not None:
            parent, inner = os.getpid(), hn._run_share

            def run_share(*args):
                fail(os.getpid() == parent)
                return inner(*args)

            monkeypatch.setattr(hn, "_run_share", run_share)
        return cfg

    @pytest.mark.parametrize(
        "name", ["jt-l1", "jt-l2", "genie-off-grid-2x2", "omp-l2", "jt-on-grid-2x2"]
    )
    def test_any_worker_count_gives_the_same_rows_and_records(self, name):
        # 2 K x 2 SNR: 3 workers share the 4 cells unevenly, 8 are cut to 4
        cfg = block_case(name)

        def bits(result):  # wall_time, the last row field, is a timing
            return [r[:-1] for r in row_bits(result.rows)], trial_bits(result.trials)

        with deadline(120):
            want = bits(hn.run_sweep(cfg, threads=1))
            for threads in (2, 3, 8):
                assert bits(hn.run_sweep(cfg, threads=threads)) == want
        assert_no_child_left()

    def test_forks_once_per_extra_worker(self, monkeypatch):
        cfg = self.two_cells(monkeypatch)
        forks, fork = [], os.fork

        def counting_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        with deadline(60):
            hn.run_sweep(cfg, threads=1)
            assert forks == []
            hn.run_sweep(cfg, threads=8)
        assert len(forks) == 1

    def test_workers_inherit_the_words_type(self, monkeypatch):
        # the parent imports numpy.random and makes the Words type before its first fork,
        # so no forked worker imports it again (~11 ms alone, 30-45 ms as two workers do)
        cfg, fork, cached = self.two_cells(monkeypatch), os.fork, []

        def checking_fork():
            cached.append(hn._words_type.cache_info().currsize)
            return fork()

        hn._words_type.cache_clear()
        monkeypatch.setattr(os, "fork", checking_fork)
        with deadline(60):
            hn.run_sweep(cfg, threads=2)
        assert cached == [1]
        assert issubclass(hn._words_type(), np.random.bit_generator.ISeedSequence)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_error_in_a_share_reraises_in_the_parent(self, monkeypatch, where):
        def fail(in_parent):
            if in_parent == (where == "parent"):
                raise ValueError(f"cell failed in the {where}")

        cfg = self.two_cells(monkeypatch, fail)
        with deadline(60), pytest.raises(ValueError, match=f"in the {where}"):
            hn.run_sweep(cfg, threads=2)
        assert_no_child_left()

    def test_child_exit_without_results_names_its_status(self, monkeypatch):
        def fail(in_parent):
            if not in_parent:
                os._exit(3)

        cfg = self.two_cells(monkeypatch, fail)
        with deadline(60), pytest.raises(RuntimeError, match="status 3"):
            hn.run_sweep(cfg, threads=2)
        assert_no_child_left()


class TestConvergenceCurveShape:
    def test_curves(self, default_sweep):
        """Monotone-in-K and ordered-in-SNR curve shape.

        Means here exclude the rare no-typical-set fallbacks: a single
        zero-output event adds ||upsilon||^2/trials ~ 1e-3 to a ~1e-6 cell
        mean and would scramble the comparison; the fallback rate itself is
        asserted to stay negligible.
        """
        cfg, res = default_sweep
        cond, trials = {}, res.trials
        for row in res.rows:
            at = (trials.k == row.k) & (trials.snr_db == row.snr_db) & ~trials.failed
            assert row.fail_rate <= 0.005
            errors = trials.squared_error[at].tolist()
            cond[(row.k, row.snr_db)] = sum(errors) / len(errors)
        ks = cfg.k_values
        for snr in cfg.snr_db_values:
            assert cond[(max(ks), snr)] < cond[(min(ks), snr)]
        for k in ks:
            assert cond[(k, 40.0)] < cond[(k, 30.0)] < cond[(k, 20.0)]


class TestAngularMapExport:
    def test_rejects_synthetic(self):
        with pytest.raises(ConfigError):
            hn.export_angular_map(small_config(), seed=0)

    def test_single_path_one_dominant_cell(self):
        cfg = small_config(mode="physical_on_grid")
        magnitudes, cells = hn.export_angular_map(cfg, seed=3)
        peak = np.max(magnitudes)
        assert int(np.sum(magnitudes > 0.01 * peak)) == 1
        assert len(cells) == 1

    def test_off_grid_argmax_is_predicted_cell(self):
        cfg = small_config(mode="physical_off_grid")
        for seed in range(5):
            magnitudes, cells = hn.export_angular_map(cfg, seed=seed)
            flat = int(np.argmax(magnitudes))
            cell = (flat // magnitudes.shape[1], flat % magnitudes.shape[1])
            assert cell in cells


    @pytest.mark.parametrize("mode", ["physical_on_grid", "physical_off_grid"])
    def test_map_matches_per_path_reference(self, mode):
        cfg = small_config(mode=mode, hop_bs_ris=hn.HopSpec(2), hop_ris_ms=hn.HopSpec(2))
        for seed in range(20):
            magnitudes, cells = hn.export_angular_map(cfg, seed)
            ref = fc.draw_physical(
                cfg.geometry, (2, None), (2, None),
                np.random.default_rng(hn._mix64(seed)), mode == "physical_on_grid",
            )
            assert magnitudes.tobytes() == np.abs(ref.h_tilde_herm.conj().T).tobytes()
            assert cells == tuple(divmod(i, cfg.geometry.n_s) for i in ref.predicted)

class TestConfigParsing:
    def test_defaults_from_empty(self):
        cfg = hn.parse_config_text("")
        assert cfg == hn.default_config()

    def test_full_roundtrip(self):
        text = """
        # experiment
        n_s = 4
        n_d = 3
        n_r_h = 2
        n_r_w = 3
        spacing_ratio = 0.7
        mode = physical_on_grid
        k_values = 6, 10
        snr_db_values = 15 25
        trials = 7
        master_seed = 99
        estimator = omp
        sparsity = 2
        search_order = best_statistic
        max_subsets = 500
        magnitude = 2.0
        paths_bs_ris = 2
        paths_ris_ms = 2
        path_loss_bs_ris = 7.5
        path_loss_ris_ms = 3.0
        """
        cfg = hn.parse_config_text(text)
        assert cfg.geometry == ch.Geometry(4, 3, 2, 3, spacing_ratio=0.7)
        assert cfg.mode == "physical_on_grid"
        assert cfg.k_values == (6, 10)
        assert cfg.snr_db_values == (15.0, 25.0)
        assert cfg.trials == 7
        assert cfg.master_seed == 99
        assert cfg.estimator == "omp"
        assert cfg.typicality == est.TypicalityConfig(
            delta=None, sparsity=2, search_order="best_statistic", max_subsets=500
        )
        assert cfg.magnitude == 2.0
        assert cfg.hop_bs_ris == hn.HopSpec(2, 7.5)
        assert cfg.hop_ris_ms == hn.HopSpec(2, 3.0)

    def test_synthetic_roundtrip_keeps_delta(self):
        # a fixed delta is a synthetic-mode key (physical modes reject it)
        cfg = hn.parse_config_text("delta = 0.125\nsparsity = 2\n")
        assert cfg.mode == "synthetic"
        assert cfg.typicality == est.TypicalityConfig(delta=0.125, sparsity=2)

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="bogus_field"):
            hn.parse_config_text("bogus_field = 3")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="trials"):
            hn.parse_config_text("trials = many")

    def test_duplicate_field_named_with_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate field 'trials'.*line 1"):
            hn.parse_config_text("trials = 2\nk_values = 8\ntrials = 3\n")

    def test_bad_mode_named(self):
        with pytest.raises(ConfigError, match="mode"):
            hn.parse_config_text("mode = sideways")

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError, match="no/such/file.cfg"):
            hn.load_config("no/such/file.cfg")


class TestWriters:
    def test_csv_header_and_float_format(self, tmp_path):
        cfg = hn.default_config(k_values=(8,), snr_db_values=(20.0,), trials=3)
        res = hn.run_sweep(cfg)
        out = tmp_path / "rows.csv"
        hn.write_sweep_csv(res, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,snr_db,mse,crlb,upper_bound,fail_rate,trials"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "8"
        # 17 significant digits round-trip the float exactly
        assert float(fields[2]) == res.rows[0].mse

    def test_json_mirror(self, tmp_path):
        cfg = hn.default_config(k_values=(8,), snr_db_values=(20.0,), trials=3)
        res = hn.run_sweep(cfg)
        out = tmp_path / "rows.json"
        hn.write_sweep_json(res, cfg, out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["master_seed"] == cfg.master_seed
        assert payload["config"]["trials"] == 3
        assert payload["rows"][0]["k"] == 8
        assert "snr_definition" in payload

    @pytest.mark.parametrize("text", [
        # zero-energy truths: every trial failed, crlb and upper_bound nan
        "mode = physical_off_grid\npath_loss_bs_ris = 1e300\npath_loss_ris_ms = 1e300\n"
        "k_values = 8\nsnr_db_values = 20\ntrials = 3\n",
        # k * n_s <= L: no analytic bound
        "estimator = genie\nsparsity = 10\nk_values = 2\nsnr_db_values = 20\ntrials = 3\n",
    ], ids=["zero-truth", "short-k"])
    def test_json_mirror_is_strict_json(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = hn.parse_config_text(text)
        res = hn.run_sweep(cfg)
        assert any(math.isnan(v) for v in (res.rows[0].crlb, res.rows[0].upper_bound))
        out = tmp_path / "rows.json"
        hn.write_sweep_json(res, cfg, out)

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        row = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)["rows"][0]
        for key in ("mse", "crlb", "upper_bound"):
            value = getattr(res.rows[0], key)
            assert row[key] == (value if math.isfinite(value) else None)


# values crossed with every config key and sweep flag in the boundary table
_EXTREMES = ("0", "-0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300")
# int keys that size an array or a loop are never probed at 10**30
_SIZE_KEYS = ("n_s", "n_d", "n_r_h", "n_r_w", "paths_bs_ris", "paths_ris_ms", "trials", "sparsity")
_BOUNDARY_KEYS = (
    [(key, value) for key in hn._CONFIG_KEYS for value in _EXTREMES]
    + [
        (key, str(10**30)) for key, (_field, _member, parse) in hn._CONFIG_KEYS.items()
        if parse is int and key not in _SIZE_KEYS
    ]
    # L = n_d * n_s: no wrong support J exists, so the wrong-support sum is empty
    + [("sparsity", "25")]
)
_BOUNDARY_FLAGS = [
    (flag, value) for flag in ("--delta", "--trials", "--seed", "--threads") for value in _EXTREMES
] + [(flag, str(10**30)) for flag in ("--delta", "--seed", "--threads")]


# configs whose JT search would enumerate more than max_subsets supports of a
# size their truths can have; C(25, l) is 25 at l = 1 and 12,650 at l = 4
_OVER_BUDGET = [
    {"max_subsets": 10},
    {"mode": "physical_on_grid", "max_subsets": 10},
    # 2 x 2 paths: supports of 1, 2 or 4 bins
    {"mode": "physical_on_grid", "paths_bs_ris": 2, "paths_ris_ms": 2, "max_subsets": 5000},
    {"mode": "physical_off_grid", "paths_bs_ris": 2, "paths_ris_ms": 2, "max_subsets": 1000},
]
_OVER_BUDGET_IDS = ["synthetic", "on-grid-1x1", "on-grid-2x2", "off-grid-2x2"]


class TestCli:
    def _write_cfg(self, tmp_path, **kv):
        base = {"k_values": "8", "snr_db_values": "20", "trials": "5"}
        base.update({k: str(v) for k, v in kv.items()})
        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
        return str(path)

    def test_sweep_happy_path(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("mode", ["physical_on_grid", "physical_off_grid"])
    def test_physical_delta_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys, mode):
        # a fixed delta is absolute, but a physical truth's energy and sigma^2 vary per
        # trial: on-grid 2 x 2 at delta = 0.05 once ran with fail_rate 0.33
        cfg = self._write_cfg(
            tmp_path, mode=mode, paths_bs_ris=2, paths_ris_ms=2, k_values="200, 800",
            trials=30, delta=0.05,
        )
        monkeypatch.setattr(hn, "_stage_truths", lambda *args: pytest.fail("a trial ran"))
        out = tmp_path / "res.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "delta = 0.05" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "res.json").exists()
        with pytest.raises(ConfigError, match="only the default delta"):
            hn.default_config(mode=mode, typicality=est.TypicalityConfig(0.05, 1))

    def test_sweep_per_trial(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out), "--per-trial"])
        assert rc == 0
        trials = (tmp_path / "res_trials.csv").read_text().splitlines()
        assert trials[0] == hn.TRIALS_CSV_HEADER
        assert len(trials) == 1 + 5
        # --per-trial only adds that file: the aggregate CSV and JSON rows are the same
        bare = tmp_path / "bare.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(bare)]) == 0
        assert bare.read_bytes() == out.read_bytes()
        rows = [json.loads(path.with_suffix(".json").read_text())["rows"] for path in (out, bare)]
        assert rows[0] == rows[1]
        assert not (tmp_path / "bare_trials.csv").exists()

    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = cli.main(
            ["sweep", "--config", "/nope/missing.cfg", "--out", str(tmp_path / "x.csv")]
        )
        assert rc != 0
        assert "/nope/missing.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "crlb"])
    def test_undecodable_config_rejected_before_any_trial(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe k_values = 8\n")
        out = tmp_path / "res.csv"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "crlb"])
    def test_config_line_without_equals_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_text("k_values 8\n")
        out = tmp_path / "res.csv"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 1: expected 'key = value'")
        assert captured.out == "" and not out.exists() and not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("mode", ["physical_on_grid", "physical_off_grid"])
    def test_crlb_in_a_physical_mode_rejected(self, tmp_path, capsys, mode):
        cfg = self._write_cfg(tmp_path, mode=mode)
        out = tmp_path / "res.csv"
        assert cli.main(["crlb", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the crlb table is defined for synthetic mode\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "crlb"])
    def test_k_over_physical_memory_rejected_before_any_trial(self, tmp_path, capsys, command):
        # one trial's pilot block alone would take 72.8 TiB
        cfg = self._write_cfg(tmp_path, k_values=10**12, trials=1)
        out = tmp_path / "res.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: k_values") and "physical memory" in err
        assert not out.exists() and not (tmp_path / "res.json").exists()

    @pytest.mark.skipif(
        "SC_PHYS_PAGES" not in getattr(os, "sysconf_names", ()), reason="no physical memory size"
    )
    def test_search_over_physical_memory_rejected(self):
        # at n_s = 2 a trial's L = 2 search holds about 156 n_d^2 B (_sub_block_bytes), its
        # observation at K = n_d + 1 about 40 n_d^2 B: past memory, and well within it
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        n = math.isqrt(memory // 100)
        cfg = dict(geometry=ch.Geometry(2, n, 2, 5), k_values=(n + 1,))
        hn.default_config(**cfg)
        with pytest.raises(ConfigError, match=f"k_values {n + 1}: .* physical memory"):
            hn.default_config(typicality=est.TypicalityConfig(None, 2), **cfg)

    @pytest.mark.skipif(
        "SC_PHYS_PAGES" not in getattr(os, "sysconf_names", ()), reason="no physical memory size"
    )
    @pytest.mark.parametrize("command", ["sweep", "angular-map"])
    def test_truth_over_physical_memory_rejected_before_any_trial(self, tmp_path, capsys, command):
        # an n x n off-grid truth stage holds 80 B an entry (_truth_bytes): one entry past
        # physical memory is rejected, a quarter of it accepted; each config is only built
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        n = math.isqrt(memory // 80) + 1
        cfg = dict(mode="physical_off_grid", estimator="genie")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k <= n_d
            hn.default_config(geometry=ch.Geometry(n // 2, n // 2, 2, 5), **cfg)
            with pytest.raises(ConfigError, match=f"n_d \\* n_s = {n * n}: .* physical memory"):
                hn.default_config(geometry=ch.Geometry(n, n, 2, 5), **cfg)
        out = tmp_path / "res.csv"
        path = self._write_cfg(tmp_path, n_d=n, n_s=n, **cfg)
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: n_d * n_s = {n * n}:")
        assert not out.exists() and not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("command", ["sweep", "angular-map"])
    @pytest.mark.parametrize("mode", ["physical_on_grid", "physical_off_grid"])
    def test_truth_energy_overflow_rejected_before_any_trial(
        self, tmp_path, capsys, monkeypatch, command, mode
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(hn, "_run_block", no_trial)
        cfg = self._write_cfg(tmp_path, mode=mode, path_loss_bs_ris="5e-324", trials=3)
        out = tmp_path / "res.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: path_loss_bs_ris = 5e-324") and "overflows" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    @pytest.mark.parametrize("command", ["sweep", "crlb", "angular-map"])
    @pytest.mark.parametrize("target", ["missing/res.csv", "dir.csv", ""])
    def test_unusable_out_rejected_before_any_trial(
        self, tmp_path, capsys, monkeypatch, command, target
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(hn, "_run_block", no_trial)
        cfg = self._write_cfg(tmp_path, mode="physical_on_grid")
        (tmp_path / "dir.csv").mkdir()
        out = str(tmp_path / target) if target else target
        assert cli.main([command, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out!r}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.csv", "exp.cfg"]

    @pytest.mark.parametrize("per_trial", [[], ["--per-trial"]])
    def test_out_named_like_its_json_mirror_rejected(
        self, tmp_path, capsys, monkeypatch, per_trial
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(hn, "_stage_truths", no_trial)
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "res.json")
        assert cli.main(["sweep", "--config", cfg, "--out", out, *per_trial]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out!r}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_other_commands_may_write_json_names(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert cli.main(["crlb", "--out", str(out)]) == 0
        assert out.read_text().startswith("k,snr_db,")

    def test_bad_field_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("estimator = psychic\n")
        rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc != 0
        assert "psychic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, cfg_delta",
        [(["--delta", "nan"], None), (["--delta", "-1"], None), ([], "nan")],
    )
    def test_bad_delta_rejected_before_any_trial(self, tmp_path, capsys, flags, cfg_delta):
        kv = {} if cfg_delta is None else {"delta": cfg_delta}
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out), *flags])
        assert rc == 2
        assert "delta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kv, field",
        [
            ({"k_values": "8, 0"}, "k_values"),
            ({"snr_db_values": "nan"}, "snr_db_values"),
            ({"mode": "physical_on_grid", "paths_bs_ris": 6}, "paths_bs_ris"),
            ({"mode": "physical_on_grid", "spacing_ratio": 0.3}, "spacing_ratio"),
            ({"n_s": 0}, "n_s"),
            # a repeated value would rerun a cell on the same seeds; -0 and 0 are one SNR
            ({"k_values": "8, 8", "snr_db_values": "20, 20"}, "k_values"),
            ({"snr_db_values": "-0, 0"}, "snr_db_values"),
        ],
    )
    def test_bad_grid_rejected_before_any_trial(self, tmp_path, capsys, kv, field):
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kv, field",
        [
            ({"magnitude": "nan"}, "magnitude"),
            ({"magnitude": "inf"}, "magnitude"),
            ({"mode": "physical_off_grid", "spacing_ratio": "nan"}, "spacing_ratio"),
            ({"mode": "physical_off_grid", "path_loss_bs_ris": -1}, "path_loss"),
            ({"mode": "physical_off_grid", "path_loss_ris_ms": "nan"}, "path_loss"),
            ({"max_subsets": 0}, "max_subsets"),
        ],
    )
    def test_bad_number_rejected_before_any_trial(self, tmp_path, capsys, kv, field):
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kv, field",
        [
            # sparsity * magnitude**2 overflows to inf, then y is non-finite
            ({"magnitude": 1e200}, "magnitude"),
            # sparsity * magnitude**2 underflows to 0: no SNR can be defined
            ({"magnitude": 1e-200}, "magnitude"),
            # 10**400 overflows the noise variance
            ({"snr_db_values": -4000}, "snr_db"),
            # magnitude**2 underflows to 0, though (sparsity * magnitude) * magnitude
            # does not: the check reads the energy the bound reads
            ({"sparsity": 25, "magnitude": 1e-162}, "magnitude"),
        ],
    )
    def test_overflowing_noise_variance_rejected_before_any_trial(
        self, tmp_path, capsys, kv, field
    ):
        cfg = self._write_cfg(tmp_path, trials=3, **kv)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kv",
        [
            # noise variance 0: the noiseless regime
            {"snr_db_values": 4000},
            # a physical truth's energy is drawn; magnitude does not enter it
            {"mode": "physical_off_grid", "magnitude": 1e200},
        ],
    )
    def test_extreme_but_finite_noise_variance_still_runs(self, tmp_path, kv):
        cfg = self._write_cfg(tmp_path, trials=3, **kv)
        out = tmp_path / "res.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("flag, env", [("0", None), (None, "0")])
    def test_zero_threads_rejected(self, tmp_path, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("RIS_CRLB_THREADS", env)
        out = tmp_path / "res.csv"
        argv = ["sweep", "--config", self._write_cfg(tmp_path), "--out", str(out)]
        rc = cli.main(argv + (["--threads", flag] if flag is not None else []))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: threads must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize(
        "kv, field",
        [
            # 26 nonzero entries cannot fit in a 5 x 5 synthetic truth
            ({"sparsity": 26}, "sparsity"),
            # the default delta needs k * n_s > sparsity: 1 * 5 <= 5
            ({"k_values": "1, 8", "sparsity": 5, "trials": 60}, "k_values"),
            # a support drawn from over 2^32 entries: numpy's 32-bit bounded draw
            # (in ch.raw_draws) could never accept one
            (
                {"n_s": 65537, "n_d": 65537, "k_values": 65538, "trials": 1, "estimator": "genie"},
                "n_d * n_s",
            ),
        ],
    )
    def test_impossible_synthetic_config_rejected_before_any_trial(
        self, tmp_path, capsys, kv, field
    ):
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        with deadline(20):
            rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kv",
        [
            # 5 x 1 on-grid paths fill up to 5 bins: 1 * 5 <= 5
            {"mode": "physical_on_grid", "paths_bs_ris": 5, "k_values": 1},
            # 5 x 2 off-grid paths predict up to 10 bins: 2 * 5 <= 10
            {"mode": "physical_off_grid", "paths_bs_ris": 5, "paths_ris_ms": 2, "k_values": 2},
            # 3 x 3 off-grid paths hit at most n_s = 2 BS-side bins, so up to 6 bins: 3 * 2 <= 6
            {
                "mode": "physical_off_grid", "n_s": 2, "paths_bs_ris": 3, "paths_ris_ms": 3,
                "k_values": 3,
            },
        ],
    )
    def test_physical_jt_default_delta_rejected_before_any_trial(self, tmp_path, capsys, kv):
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: k_values") and "largest support" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kv",
        [
            # 2 x 2 on-grid paths fill at most 4 bins, below k * n_s = 5 at k = 1
            {"mode": "physical_on_grid", "paths_bs_ris": 2, "paths_ris_ms": 2, "k_values": 1},
            # 3 x 3 off-grid paths on n_s = 2 fill at most 2 * 3 = 6 bins, below k * n_s = 8
            {
                "mode": "physical_off_grid", "n_s": 2, "paths_bs_ris": 3, "paths_ris_ms": 3,
                "k_values": 4,
            },
        ],
        ids=lambda kv: kv["mode"],
    )
    def test_physical_jt_below_kns_bound_still_runs(self, tmp_path, kv):
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k <= n_d
            assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith(f"{kv['k_values']},20,")

    def test_crlb_table_nan_terms_below_kns_bound(self, tmp_path, capsys):
        # k * n_s = 5 <= sparsity = 5: no default delta and no penalty terms
        # for that row; the CRLB itself is defined (5 x 5 full rank)
        cfg = self._write_cfg(
            tmp_path, k_values="1 8", snr_db_values="20", sparsity=5, estimator="omp"
        )
        assert cli.main(["crlb", "--config", cfg]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["1", "8"]
        k1, k8 = rows
        assert k1[3] == k1[5] == k1[6] == k1[7] == "nan"
        assert math.isfinite(float(k1[4]))
        assert all(math.isfinite(float(v)) for v in k8[1:])

    def test_crlb_table_rank_deficient_support_is_nan(self, tmp_path, capsys):
        # at k = 1 the 5 x 6 support submatrix has rank 5 < 6: its CRLB is nan, as in a sweep
        cfg = self._write_cfg(
            tmp_path, k_values="1 8", snr_db_values="20", sparsity=6, estimator="omp"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k <= n_d
            assert cli.main(["crlb", "--config", cfg]) == 0
        k1, k8 = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert k1[0] == "1" and k1[3:] == ["nan"] * 5
        assert k8[0] == "8" and all(math.isfinite(float(v)) for v in k8[1:])

    def test_full_width_sparsity_has_no_wrong_support_term(self, tmp_path, capsys):
        # L = n_d * n_s = 25: no wrong support exists
        cfg = self._write_cfg(tmp_path, sparsity=25, trials=2)
        out = tmp_path / "res.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _k, _snr, _mse, crlb, upper, _fail, trials = out.read_text().splitlines()[1].split(",")
        assert trials == "2" and math.isfinite(float(crlb)) and math.isfinite(float(upper))
        capsys.readouterr()
        assert cli.main(["crlb", "--config", cfg]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[6] == "0"
        assert float(row[7]) == float(row[4]) + float(row[5])

    def test_large_sparsity_wrong_support_term_is_finite(self, tmp_path, capsys):
        # L = 25 of n = 50 entries: 2^25 - 1 overlap subsets, summed over 25 overlap sizes
        cfg = self._write_cfg(
            tmp_path, n_d=10, k_values=12, sparsity=25, estimator="genie", trials=2
        )
        out = tmp_path / "res.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _k, _snr, mse, crlb, upper, fail, _n = out.read_text().splitlines()[1].split(",")
        assert fail == "0"
        assert all(math.isfinite(float(v)) for v in (mse, crlb, upper))
        capsys.readouterr()
        assert cli.main(["crlb", "--config", cfg]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert all(math.isfinite(float(v)) for v in row)
        assert float(row[7]) == float(row[4]) + float(row[5]) + float(row[6])

    def _assert_exit_0_or_2(self, tmp_path, capsys, kv, flags):
        # exit 0 with a complete CSV, or exit 2 with an error line and no output
        cfg = self._write_cfg(tmp_path, **{"trials": 1, **kv})
        out = tmp_path / "res.csv"
        try:
            rc = cli.main(["sweep", "--config", cfg, "--out", str(out), *flags])
        except SystemExit as exc:  # argparse rejects a flag value it cannot convert
            rc = exc.code
        err = capsys.readouterr().err
        if rc == 0:
            header, row = out.read_text().splitlines()
            assert header == hn.CSV_HEADER and len(row.split(",")) == 7
        else:
            assert rc == 2 and "error:" in err, (rc, err)
            assert not out.exists() and not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("key, value", _BOUNDARY_KEYS)
    def test_boundary_config_value_exits_0_or_2(self, tmp_path, capsys, key, value):
        self._assert_exit_0_or_2(tmp_path, capsys, {key: value}, [])

    @pytest.mark.parametrize(
        "kv",
        [
            {"mode": "physical_off_grid"},
            {"mode": "physical_on_grid", "estimator": "genie"},
        ],
        ids=lambda kv: kv["mode"],
    )
    def test_zero_energy_cell_has_nan_bound(self, tmp_path, kv):
        # both path losses underflow every truth to zero: no trial is observed
        # and no SNR is defined, so the bound's noise variance and terms are nan
        cfg = self._write_cfg(
            tmp_path, trials=3, path_loss_bs_ris=1e300, path_loss_ris_ms=1e300, **kv
        )
        out = tmp_path / "res.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "8,20,0,nan,nan,1,3"

    @pytest.mark.parametrize("flag, value", _BOUNDARY_FLAGS)
    def test_boundary_flag_value_exits_0_or_2(self, tmp_path, capsys, flag, value):
        self._assert_exit_0_or_2(tmp_path, capsys, {}, [f"{flag}={value}"])

    def test_flags_replace_file_keys_before_the_one_check(self, tmp_path):
        # 3 x 2 on-grid paths fill up to 6 bins, so only JT's default delta rejects
        # k = 1; --estimator omp replaces the file's estimator before that check
        cfg = self._write_cfg(
            tmp_path, mode="physical_on_grid", paths_bs_ris=3, paths_ris_ms=2, k_values="1, 8"
        )
        out = tmp_path / "res.csv"
        argv = ["sweep", "--config", cfg, "--estimator", "omp", "--trials", "3", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k <= n_d
            assert cli.main(argv) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["1", "8"]

    def test_flags_build_the_config_once(self, tmp_path):
        # k = 4 <= n_d warns once, however many flags replace file keys
        cfg = self._write_cfg(tmp_path, k_values=4)
        argv = ["sweep", "--config", cfg, "--trials", "3", "--estimator", "genie", "--seed", "3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv + ["--out", str(tmp_path / "w.csv")]) == 0
        assert [w.category for w in caught] == [UserWarning]

    def test_bad_delta_flag_without_config_names_delta(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert cli.main(["sweep", "--delta", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "delta" in err
        assert not out.exists()

    @pytest.mark.parametrize("kv", _OVER_BUDGET, ids=_OVER_BUDGET_IDS)
    def test_search_over_budget_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch, kv):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(hn, "_run_block", no_trial)
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_subsets" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    @pytest.mark.parametrize("estimator", ["genie", "omp"])
    @pytest.mark.parametrize("kv", _OVER_BUDGET, ids=_OVER_BUDGET_IDS)
    def test_search_budget_binds_only_jt(self, tmp_path, kv, estimator):
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        argv = ["sweep", "--config", cfg, "--estimator", estimator, "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_cli_import_pins_blas_unless_set(self, preset):
        import ris_crlb

        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ris_crlb.__file__))
        if preset is not None:
            env.update(dict.fromkeys(names, preset))
        code = "import os, ris_crlb.cli; print([os.environ[v] for v in %r])" % (names,)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == str([preset or "1"] * 3)

    def test_seed_determinism(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out1), "--seed", "42"]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "42"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIS_CRLB_THREADS", "2")
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "env.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0

    def test_angular_map_subcommand(self, tmp_path):
        cfg = self._write_cfg(tmp_path, mode="physical_on_grid")
        out = tmp_path / "map.csv"
        rc = cli.main(["angular-map", "--config", cfg, "--out", str(out), "--seed", "1"])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("ms_bin,")
        assert len(lines) == 1 + 5  # header plus one row per MS bin

    def test_angular_map_rejects_synthetic(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)  # synthetic by default
        rc = cli.main(["angular-map", "--config", cfg, "--out", str(tmp_path / "m.csv")])
        assert rc != 0

    def test_crlb_table(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, k_values="8 20", snr_db_values="20 30")
        rc = cli.main(["crlb", "--config", cfg])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("k,snr_db,")
        assert len(lines) == 1 + 4

    # at (3, 0.3) the equal shares sum to 0.2700000000000001, not
    # l * magnitude**2 = 0.27; both consumers use the latter
    @pytest.mark.parametrize("l, magnitude", [(2, 1.0), (3, 0.3)])
    def test_crlb_table_terms_match_sweep_bound(self, tmp_path, capsys, l, magnitude):
        # the sweep's upper_bound is its mean CRLB plus the same two penalty
        # terms the table prints for that (k, snr_db) cell, bit for bit
        cfg = self._write_cfg(
            tmp_path, k_values="8 20", snr_db_values="20 40", sparsity=l,
            magnitude=magnitude, trials=3,
        )
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["crlb", "--config", cfg]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0] == (
            "k,snr_db,noise_var,delta,crlb,missed_term,wrong_support_term,upper_bound"
        )
        sweep = out.read_text().splitlines()[1:]
        assert len(sweep) == len(table) - 1 == 4
        n_s, energy = 5, l * magnitude**2
        for srow, trow in zip(sweep, table[1:]):
            k, snr_db, _mse, crlb, upper, _fail, _n = srow.split(",")
            tk, tsnr, noise_var, delta, _crlb, missed, wrong, _upper = trow.split(",")
            assert (k, snr_db) == (tk, tsnr)
            k, snr_db = int(k), float(snr_db)
            kns = k * n_s
            assert float(noise_var) == (energy / n_s) * 10.0 ** (-snr_db / 10.0)
            assert float(delta) == 4.0 * float(noise_var) * math.sqrt(kns - l) / kns
            assert float(upper) == float(crlb) + float(missed) + float(wrong)

    def test_selftest(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_selftest_genie_check_catches_a_broken_fit(self, capsys, monkeypatch):
        inner = nm.gram_solve

        def scaled(g, c=None):
            trace, full, coef = inner(g, c)
            return trace, full, None if coef is None else 1.5 * coef

        monkeypatch.setattr(nm, "gram_solve", scaled)
        assert cli.main(["selftest"]) == 1
        out = capsys.readouterr().out
        # the noiseless jt check fits its supports through the same call
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  noiseless jt recovery", "FAIL  genie attains crlb"]

    def test_selftest_jt_check_catches_a_broken_kronecker_normal(self, capsys, monkeypatch):
        inner = sn.kron_normal

        def conjugated(pilots, n_s, y):
            outer, corr = inner(pilots, n_s, y)
            return outer, corr.conj()

        monkeypatch.setattr(sn, "kron_normal", conjugated)
        assert cli.main(["selftest"]) == 1
        out = capsys.readouterr().out
        # the genie fits G_I^-1 c_I from the same correlations
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  noiseless jt recovery", "FAIL  genie attains crlb"]

    @pytest.mark.parametrize(
        "kv",
        [
            {"magnitude": 1e150},
            {"magnitude": 1e-150},
            {"magnitude": 1e-160},
            # the bound itself leaves the float range: upper_bound may be inf
            {"magnitude": 1e154},
            {"snr_db_values": 3000},
            {"snr_db_values": -3000},
            {"delta": 1e300},
            # truths of energy up to 1.25e304, under the bound that rejects larger ones
            {"mode": "physical_off_grid", "path_loss_bs_ris": 1e-300},
            {"mode": "physical_on_grid", "path_loss_bs_ris": 1e-200},
            {"mode": "physical_off_grid", "path_loss_ris_ms": 1e-200},
            {"mode": "physical_off_grid", "path_loss_bs_ris": 1e300},
        ],
    )
    def test_extreme_scale_bound_completes(self, tmp_path, kv):
        # the plain bound expressions overflow or divide by zero here, after every trial
        cfg = self._write_cfg(tmp_path, trials=3, **kv)
        out = tmp_path / "res.csv"
        with np.errstate(all="ignore"):
            assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        k, _snr, _mse, _crlb, upper, _fail, trials = row.split(",")
        assert header == hn.CSV_HEADER and (k, trials) == ("8", "3")
        assert not math.isnan(float(upper))
        assert math.isfinite(float(upper)) or kv == {"magnitude": 1e154}
