"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines immediately).  The convergence and bound criteria
share one full default-configuration sweep through the session fixture.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from ris_crlb import channel as ch
from ris_crlb import cli
from ris_crlb import estimator as est
from ris_crlb import harness as hn
from ris_crlb import sensing as sn
from ris_crlb.numerics import (
    dft_matrix,
    kron,
    numeric_rank,
    projector_complement,
    vec,
)


def report(num, name):
    print(f"[acceptance] criterion {num:02d} ({name}): PASS")


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_01_structural_units():
    # DFT unitarity
    for n in range(1, 65):
        u = dft_matrix(n)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10
    # vectorization identity vec(M X) = (X^T kron I) vec(M)
    rng = np.random.default_rng(101)
    for p, q, r in [(3, 2, 4), (5, 4, 6), (2, 7, 3)]:
        m = crandn(rng, p, q)
        x = crandn(rng, q, r)
        dev = np.max(np.abs(vec(m @ x) - kron(x.T, np.eye(p)) @ vec(m)))
        assert dev < 1e-10
    # Kronecker rank product on random low-rank factors
    for ra, rb in [(1, 3), (2, 2), (3, 1)]:
        a = crandn(rng, 6, ra) @ crandn(rng, ra, 5)
        b = crandn(rng, 4, rb) @ crandn(rng, rb, 6)
        assert numeric_rank(kron(a, b)) == ra * rb
    # projector idempotence and annihilation
    for cols in (1, 3, 5):
        a = crandn(rng, 20, cols)
        proj = projector_complement(a)
        assert np.max(np.abs(proj @ proj - proj)) < 1e-9
        assert np.max(np.abs(proj @ a)) < 1e-9
    report(1, "structural unit suite")


def test_criterion_02_measurement_full_rank():
    rng = np.random.default_rng(202)
    draws = 1000
    for draw in range(draws):
        pilots = sn.gen_pilots(n_d=5, k=20, seed=50_000 + draw)
        mat = sn.measurement_matrix(pilots, 5)
        assert numeric_rank(mat) == 25
        for _ in range(100):
            l = int(rng.integers(1, 4))
            cols = rng.choice(25, size=l, replace=False)
            assert numeric_rank(mat[:, cols]) == l
    report(2, "empirical full rank over 1000 pilot draws")


def test_criterion_03_crlb_inverse_moment_oracle():
    # closed form: E[1/||x||^2] = 1/(K-1) for a K-dim unit-variance complex
    # Gaussian vector, so the mean CRLB at L=1, sigma^2=1 is 1/(K-1)
    k = 20
    draws = 10_000
    total = 0.0
    for draw in range(draws):
        pilots = sn.gen_pilots(n_d=5, k=k, seed=90_000 + draw)
        mat = sn.measurement_matrix(pilots, 5)
        total += est.crlb(mat, (0,), 1.0)
    mean = total / draws
    expected = 1.0 / (k - 1)
    assert abs(mean / expected - 1.0) < 0.05
    report(3, f"CRLB oracle: mean {mean:.5f} vs 1/(K-1) = {expected:.5f}")


def test_criterion_04_genie_efficiency():
    rng = np.random.default_rng(404)
    geom = ch.Geometry(5, 5, 2, 5)
    real = ch.realize_synthetic(geom, 1, rng)
    pilots = sn.gen_pilots(n_d=5, k=20, seed=4040)
    model = sn.measurement_model(pilots, 5)
    model.noise_var = sn.snr_to_noise_var(
        20.0, float(np.sum(np.abs(real.sparse_vec) ** 2)), model.n_s
    )
    bound = est.crlb(model.upsilon_mat, real.support, model.noise_var)
    draws = 10_000
    total = 0.0
    for _ in range(draws):
        y = sn.observe(model, real.sparse_vec, rng)
        estimate = est.genie_ls(y, model.upsilon_mat, real.support)
        total += est.squared_errors(estimate, real.sparse_vec)
    ratio = total / draws / bound
    assert abs(ratio - 1.0) < 0.03
    report(4, f"genie MSE/CRLB = {ratio:.4f} over 1e4 draws")


def test_criterion_05_typicality_centering():
    rng = np.random.default_rng(505)
    geom = ch.Geometry(5, 5, 2, 5)
    real = ch.realize_synthetic(geom, 1, rng)
    pilots = sn.gen_pilots(n_d=5, k=20, seed=5050)
    model = sn.measurement_model(pilots, 5)
    sigma2 = sn.snr_to_noise_var(20.0, float(np.sum(np.abs(real.sparse_vec) ** 2)), model.n_s)
    model.noise_var = sigma2
    proj = projector_complement(model.upsilon_mat[:, list(real.support)])
    m = model.k * model.n_s
    draws = 10_000
    total = 0.0
    for _ in range(draws):
        y = sn.observe(model, real.sparse_vec, rng)
        total += float(np.sum(np.abs(proj @ y) ** 2)) / m
    expected = (m - 1) / m * sigma2
    assert abs(total / draws / expected - 1.0) < 0.02
    report(5, "projected residual energy centered on noise level")


def test_criterion_06_convergence_to_crlb(default_sweep):
    cfg, res = default_sweep
    rows = {(r.k, r.snr_db): r for r in res.rows}
    low, high = min(cfg.k_values), max(cfg.k_values)
    r_high = rows[(high, 30.0)]
    r_low = rows[(low, 30.0)]
    assert r_high.fail_rate < 0.01
    ratio_high = r_high.mse / r_high.crlb
    ratio_low = r_low.mse / r_low.crlb
    assert 0.9 <= ratio_high <= 1.2
    assert ratio_high < ratio_low
    report(
        6,
        f"convergence: ratio K={high} is {ratio_high:.4f}, K={low} is {ratio_low:.4f}",
    )


def test_criterion_07_bound_sandwich(default_sweep):
    cfg, res = default_sweep
    checked = 0
    for row in res.rows:
        if row.snr_db < 30.0 or row.k < 20:
            continue
        assert row.mse <= row.upper_bound, (row.k, row.snr_db)
        assert row.mse >= 0.9 * row.crlb, (row.k, row.snr_db)
        checked += 1
    assert checked == 10  # K in {20,28,40,60,80} x SNR in {30,40}
    report(7, f"MSE within [0.9 CRLB, analytic bound] at {checked} grid points")


def test_criterion_08_brute_force_equivalence():
    rng = np.random.default_rng(808)
    shapes = [(3, 4), (2, 5), (2, 6), (3, 3)]
    for trial in range(100):
        n_d, n_s = shapes[trial % len(shapes)]
        l = 1 + trial % 2
        dim = n_d * n_s
        pilots = sn.gen_pilots(n_d=n_d, k=8, seed=80_000 + trial)
        mat = sn.measurement_matrix(pilots, n_s)
        truth = np.zeros(dim, dtype=complex)
        support = tuple(sorted(int(i) for i in rng.choice(dim, size=l, replace=False)))
        truth[list(support)] = np.exp(2j * np.pi * rng.random(l))
        y = mat @ truth

        cfg = est.TypicalityConfig(delta=1e-9, sparsity=l, search_order=est.BEST_STATISTIC)
        res = est.jt_estimate(y, mat, cfg, 0.0)

        best_resid, best_set = math.inf, None
        for cand in combinations(range(dim), l):
            sol, _, _, _ = np.linalg.lstsq(mat[:, cand], y, rcond=None)
            resid = float(np.sum(np.abs(y - mat[:, cand] @ sol) ** 2))
            if resid < best_resid:
                best_resid, best_set = resid, cand
        assert res.support == support == best_set, trial
    report(8, "noiseless best-statistic support = truth = min-residual oracle, 100/100")


def test_criterion_09_angular_sparsity_large_arrays():
    geom = ch.Geometry(n_s=50, n_d=50, n_r_h=5, n_r_w=8)
    cfg = hn.default_config(
        geometry=geom,
        hop_bs_ris=hn.HopSpec(2),
        hop_ris_ms=hn.HopSpec(2),
        mode="physical_on_grid",
        k_values=(60,),
    )
    for seed in range(5):
        magnitudes, _cells = hn.export_angular_map(cfg, seed=seed)
        peak = np.max(magnitudes)
        assert int(np.sum(magnitudes > 0.01 * peak)) <= 4

    # off grid, two paths per hop: the strongest cell is a predicted cell
    cfg_off = hn.default_config(
        geometry=geom,
        hop_bs_ris=hn.HopSpec(2),
        hop_ris_ms=hn.HopSpec(2),
        mode="physical_off_grid",
        k_values=(60,),
    )
    for seed in range(5):
        magnitudes, cells = hn.export_angular_map(cfg_off, seed=seed)
        flat = int(np.argmax(magnitudes))
        cell = (flat // geom.n_s, flat % geom.n_s)
        assert cell in cells

    # off grid, one path per hop: argmax row/column equal the dominant bins
    cfg_one = hn.default_config(
        geometry=geom, mode="physical_off_grid", k_values=(60,)
    )
    for seed in range(5):
        magnitudes, ((row, col),) = hn.export_angular_map(cfg_one, seed=seed)
        energy = magnitudes**2
        assert int(np.argmax(energy.sum(axis=1))) == row
        assert int(np.argmax(energy.sum(axis=0))) == col
    report(9, "angular sparsity: <= 4 dominant cells on-grid, argmax matches bins off-grid")


def test_criterion_10_cli_determinism_across_threads(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "k_values = 8 20\nsnr_db_values = 20 30\ntrials = 40\nmaster_seed = 7\n"
    )
    outputs = []
    for run, threads in [(0, "1"), (1, "8"), (2, "1"), (3, "8")]:
        out = tmp_path / f"res{run}.csv"
        rc = cli.main(
            ["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", threads]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert all(o == outputs[0] for o in outputs)
    report(10, "byte-identical sweep CSV across repeated runs and 1 vs 8 threads")


@pytest.mark.parametrize(
    "num, ks, trials, overrides",
    [
        pytest.param(11, (20, 40, 100, 200), 300, {}, id="11"),
        # criterion 12: the paper's large-K regime, where the CRLB falls as 1/K
        pytest.param(12, (800, 2000, 4000), 200, {}, id="12"),
        # criterion 13: beyond L = 1, and physical on-grid truths (two paths per hop,
        # so L <= 4) under the default delta, whose energy is drawn: there only the
        # MSE is checked, as a fixed delta is meaningful only at unit synthetic energy
        pytest.param(
            13, (200, 800, 2000), 100,
            {"typicality": est.TypicalityConfig(delta=0.05, sparsity=2)}, id="13-l2",
        ),
        pytest.param(
            13, (200, 800, 2000), 100,
            {"typicality": est.TypicalityConfig(delta=0.05, sparsity=3)}, id="13-l3",
        ),
        pytest.param(
            13, (200, 800, 2000), 60,
            {
                "mode": "physical_on_grid", "hop_bs_ris": hn.HopSpec(2),
                "hop_ris_ms": hn.HopSpec(2), "typicality": est.TypicalityConfig(None, 1),
            },
            id="13-on-grid-2x2",
        ),
    ],
)
def test_criterion_11_fixed_delta_attains_crlb(num, ks, trials, overrides):
    # under a fixed delta both penalty terms vanish as K grows, so the
    # analytic bound meets the CRLB and the JT search attains it (the
    # default delta shrinks with K and keeps a missed-detection floor)
    cfg = hn.default_config(**{
        "k_values": ks, "snr_db_values": (20.0, 30.0), "trials": trials,
        "typicality": est.TypicalityConfig(delta=0.05, sparsity=1), **overrides,
    })
    res = hn.run_sweep(cfg, threads=2, keep_trials=True)  # the same records as one worker's
    for snr_db in cfg.snr_db_values:
        rows = [r for r in res.rows if r.snr_db == snr_db]
        assert [r.k for r in rows] == list(ks)
        if cfg.mode == "synthetic":
            bound_ratio = [r.upper_bound / r.crlb for r in rows]
            assert all(a >= b >= 1.0 for a, b in zip(bound_ratio, bound_ratio[1:]))
            assert bound_ratio[-1] - 1.0 < 1e-6
        for row in rows:
            assert row.fail_rate == 0.0
            recs = [t for t in res.trial_records if (t.k, t.snr_db) == (row.k, snr_db)]
            gap = np.array([t.squared_error - t.crlb_value for t in recs])
            # E[squared error - CRLB] = 0 per trial on the true support: allow
            # four Monte Carlo standard errors of the mean gap
            tol = 4.0 * gap.std(ddof=1) / math.sqrt(len(gap)) / row.crlb
            assert abs(row.mse / row.crlb - 1.0) <= tol, (row.k, snr_db)
    bound = "upper_bound/crlb -> 1, " if cfg.mode == "synthetic" else ""
    delta = cfg.typicality.delta or "default"
    report(num, f"{delta} delta: {bound}MSE within 4 SE of CRLB at K={ks}")
