"""Pilot generation, measurement matrix structure, and noise calibration."""

import frozen_kron
import numpy as np
import pytest
from frozen_svd import numeric_rank

from ris_crlb import sensing as sn
from ris_crlb.errors import DimensionMismatchError
from ris_crlb.numerics import kron


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestGenPilots:
    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(sn.gen_pilots(5, 20, 123), sn.gen_pilots(5, 20, 123))

    def test_mean_entry_power(self):
        x = sn.gen_pilots(n_d=100, k=1000, seed=1)
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.02

    def test_long_columns_nearly_orthogonal(self):
        # law-of-large-numbers decay of cross-correlation between pilot rows
        x = sn.gen_pilots(n_d=2, k=10_000, seed=2)
        assert abs(np.vdot(x[0], x[1])) / x.shape[1] < 0.05


class TestMeasurementMatrix:
    def test_scalar_pilot_identity(self):
        np.testing.assert_allclose(
            sn.measurement_matrix(np.array([[1.0 + 0j]]), 2), np.eye(2)
        )

    def test_ns_one_is_transpose(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        np.testing.assert_allclose(sn.measurement_matrix(x, 1), x.T)

    def test_default_scale_full_rank(self):
        pilots = sn.gen_pilots(n_d=5, k=20, seed=4)
        mat = sn.measurement_matrix(pilots, 5)
        assert mat.shape == (100, 25)
        assert numeric_rank(mat) == 25

    def test_column_structure(self):
        pilots = sn.gen_pilots(n_d=3, k=7, seed=5)
        n_s = 4
        mat = sn.measurement_matrix(pilots, n_s)
        # column j*n_s + i is pilot row j placed at identity position i
        for j in range(3):
            for i in range(n_s):
                col = mat[:, j * n_s + i]
                assert np.count_nonzero(col) == 7
                np.testing.assert_allclose(col[i::n_s], pilots[j])

    def test_same_pilot_row_columns_orthogonal(self):
        pilots = sn.gen_pilots(n_d=3, k=7, seed=6)
        mat = sn.measurement_matrix(pilots, 4)
        # disjoint supports for equal pilot row, distinct identity index
        assert np.vdot(mat[:, 0], mat[:, 1]) == 0
        assert np.vdot(mat[:, 4], mat[:, 7]) == 0

    def test_random_submatrices_full_rank(self):
        # reduced-size version of the full-rank sweep in the acceptance suite
        rng = np.random.default_rng(7)
        for draw in range(100):
            pilots = sn.gen_pilots(n_d=5, k=20, seed=1000 + draw)
            mat = sn.measurement_matrix(pilots, 5)
            assert numeric_rank(mat) == 25
            for _ in range(10):
                l = int(rng.integers(1, 4))
                cols = rng.choice(25, size=l, replace=False)
                assert numeric_rank(mat[:, cols]) == l


class TestKronColumns:
    """The frozen column oracle of the tests, and the normal equations without Upsilon."""

    SHAPES = [(5, 5, 20), (3, 4, 7), (2, 1, 3), (1, 3, 2)]  # (n_d, n_s, k)

    def test_bits_match_measurement_matrix(self):
        # signs of zero included: tobytes compares the raw entries
        rng = np.random.default_rng(21)
        for n_d, n_s, k in self.SHAPES:
            pilots = crandn(rng, 4, n_d, k) / np.sqrt(2)
            mats = [sn.measurement_matrix(x, n_s) for x in pilots]
            full = frozen_kron.kron_columns(pilots[0], n_s, np.arange(n_d * n_s))
            assert full.flags.c_contiguous
            assert full.tobytes() == mats[0].tobytes()
            cols = rng.integers(0, n_d * n_s, (4, 3))
            stack = frozen_kron.kron_columns(pilots, n_s, cols)
            assert stack.shape == (4, k * n_s, 3)
            for t in range(4):
                assert stack[t].tobytes() == mats[t][:, cols[t]].tobytes()

    def test_normal_equations_without_the_matrix(self):
        rng = np.random.default_rng(22)
        for n_d, n_s, k in self.SHAPES:
            pilots = crandn(rng, 3, n_d, k)
            y = crandn(rng, 3, k * n_s)
            outer, corr = sn.kron_normal(pilots, n_s, y)
            for t in range(3):
                mat = sn.measurement_matrix(pilots[t], n_s)
                np.testing.assert_allclose(
                    np.kron(outer[t], np.eye(n_s)), mat.conj().T @ mat, rtol=0, atol=1e-12
                )
                np.testing.assert_allclose(corr[t], mat.conj().T @ y[t], rtol=0, atol=1e-12)


class TestObserveBlock:
    def test_each_trial_matches_gen_pilots_and_observe(self):
        rng = np.random.default_rng(23)
        n_d, n_s, k = 5, 5, 12
        truths = crandn(rng, 4, n_d * n_s)
        truths[0, 1:] = 0.0  # sparse rows: many zero products in the sum
        noise_var = np.array([0.5, 0.01, 2.0, 1e-6])
        seeds, noise_seeds = [101, 102, 103, 104], [201, 202, 203, 204]
        pilots, y = sn.observe_block(
            [np.random.default_rng(s) for s in seeds], k, n_s, truths, noise_var,
            [np.random.default_rng(s) for s in noise_seeds],
        )
        for t in range(4):
            x = sn.gen_pilots(n_d, k, seeds[t])
            assert pilots[t].tobytes() == x.tobytes()
            model = sn.measurement_model(x, n_s, noise_var=noise_var[t])
            received = sn.observe(model, truths[t], np.random.default_rng(noise_seeds[t]))
            assert y[t].tobytes() == received.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 80])
    @pytest.mark.parametrize("n_d, n_s", [(5, 5), (3, 4), (6, 2)])
    def test_reused_matrix_matches_observe_bit_for_bit(self, k, n_d, n_s):
        # the block and the one trial form y through the same product
        # (sensing.kron_forward); 1-sparse truths under zero noise leave whole
        # rows of zero products, so y.tobytes() pins the signs of zero as well
        rng = np.random.default_rng(23 + k)
        truths = crandn(rng, 6, n_d * n_s)
        truths[[0, 3, 4], :] = 0.0
        truths[0, 1] = 0.3 - 1.2j
        truths[3, -1] = -2.0 + 0.5j
        truths[4, 0] = -1.0 - 1.0j
        noise_var = np.array([0.5, 0.01, 0.0, 0.0, 1e-6, 2.0])
        seeds, noise_seeds = [101, 102, 103, 104, 105, 106], [201, 202, 203, 204, 205, 206]
        pilots, y = sn.observe_block(
            [np.random.default_rng(s) for s in seeds], k, n_s, truths, noise_var,
            [np.random.default_rng(s) for s in noise_seeds],
        )
        for t in range(len(seeds)):
            x = sn.gen_pilots(n_d, k, seeds[t])
            assert pilots[t].tobytes() == x.tobytes()
            model = sn.measurement_model(x, n_s, noise_var=noise_var[t])
            received = sn.observe(model, truths[t], np.random.default_rng(noise_seeds[t]))
            assert y[t].tobytes() == received.tobytes(), t


def two_draw_pilots(n_d, k, seed):
    """The pilot draw as two separate normal draws and scalar arithmetic."""
    rng = np.random.default_rng(seed)
    shape = (n_d, k)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def two_draw_noise(m, noise_var, rng):
    """n drawn as two normal vectors and a scalar scale."""
    scale = np.sqrt(noise_var / 2.0)
    return scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))


def two_draw_received(pilots, n_s, truth, noise_var, rng):
    """y = Upsilon truth + n with the signal formed as X^T V, V = truth.reshape(n_d, n_s)."""
    signal = (pilots.T @ truth.reshape(pilots.shape[0], n_s)).reshape(-1)
    return signal + two_draw_noise(signal.size, noise_var, rng)


class TestBlockDrawsMatchTwoDrawReference:
    """The (T, 2, ...) normal buffers and block arithmetic keep the bits of
    drawing real and imaginary parts separately, one trial at a time; the
    signal agrees with the materialised Upsilon truth to rounding."""

    @pytest.mark.parametrize("k, n_d, n_s", [(1, 5, 5), (8, 5, 5), (7, 3, 4), (80, 6, 2)])
    def test_observe_block(self, k, n_d, n_s):
        rng = np.random.default_rng(31 + k)
        truths = crandn(rng, 6, n_d * n_s)
        truths[[1, 4], 1:] = 0.0
        noise_var = np.array([0.5, 0.0, 1e-6, 2.0, 0.0, 3e-300])
        seeds = [7, 2**64 - 1, 0, 11, 12, 13]
        pilots, y = sn.observe_block(
            [np.random.default_rng(s) for s in seeds], k, n_s, truths, noise_var,
            [np.random.default_rng(300 + s % 97) for s in seeds],
        )
        for t, seed in enumerate(seeds):
            x = two_draw_pilots(n_d, k, seed)
            assert pilots[t].tobytes() == x.tobytes() == sn.gen_pilots(n_d, k, seed).tobytes()
            nv, noise_seed = float(noise_var[t]), 300 + seed % 97
            received = two_draw_received(x, n_s, truths[t], nv, np.random.default_rng(noise_seed))
            assert y[t].tobytes() == received.tobytes(), t
            noise = two_draw_noise(k * n_s, nv, np.random.default_rng(noise_seed))
            np.testing.assert_allclose(
                y[t], sn.measurement_matrix(x, n_s) @ truths[t] + noise, rtol=1e-12
            )

    @pytest.mark.parametrize("noise_var", [0.0, 1e-6, 0.5, 7.0])
    def test_observe(self, noise_var):
        model = sn.measurement_model(sn.gen_pilots(5, 12, 21), 5, noise_var=noise_var)
        truth = crandn(np.random.default_rng(22), 25)
        got = sn.observe(model, truth, np.random.default_rng(23))
        want = two_draw_received(model.pilots, 5, truth, noise_var, np.random.default_rng(23))
        assert got.tobytes() == want.tobytes()
        noise = two_draw_noise(60, noise_var, np.random.default_rng(23))
        np.testing.assert_allclose(got, model.upsilon_mat @ truth + noise, rtol=1e-12)


class TestObserve:
    def _model(self, noise_var, seed=8):
        pilots = sn.gen_pilots(n_d=5, k=12, seed=seed)
        return sn.measurement_model(pilots, 5, noise_var=noise_var)

    def test_noiseless_limit(self):
        model = self._model(0.0)
        truth = np.zeros(25, dtype=complex)
        truth[3] = 1.0 + 2.0j
        y = sn.observe(model, truth, np.random.default_rng(9))
        np.testing.assert_allclose(y, model.upsilon_mat @ truth)

    def test_deterministic_given_seed(self):
        model = self._model(0.5)
        truth = np.ones(25, dtype=complex)
        y1 = sn.observe(model, truth, np.random.default_rng(10))
        y2 = sn.observe(model, truth, np.random.default_rng(10))
        np.testing.assert_array_equal(y1, y2)

    def test_noise_only_energy(self):
        sigma2 = 0.7
        model = self._model(sigma2)
        truth = np.zeros(25, dtype=complex)
        rng = np.random.default_rng(11)
        draws = 10_000
        total = 0.0
        for _ in range(draws):
            total += float(np.sum(np.abs(sn.observe(model, truth, rng)) ** 2))
        expected = model.k * model.n_s * sigma2
        assert abs(total / draws / expected - 1.0) < 0.02

    def test_noise_calibration_per_entry(self):
        sigma2 = 0.3
        model = self._model(sigma2)
        rng = np.random.default_rng(12)
        truth = (rng.standard_normal(25) + 1j * rng.standard_normal(25)) / 4
        samples = []
        for _ in range(200):
            y = sn.observe(model, truth, rng)
            samples.append(y - model.upsilon_mat @ truth)
        per_entry = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert abs(per_entry / sigma2 - 1.0) < 0.02

    def test_dimension_mismatch(self):
        model = self._model(0.1)
        with pytest.raises(DimensionMismatchError):
            sn.observe(model, np.ones(7, dtype=complex), np.random.default_rng(0))


class TestSnrToNoiseVar:
    def test_unit_ratio(self):
        model = sn.measurement_model(
            sn.gen_pilots(n_d=5, k=12, seed=13), 5
        )
        truth = np.zeros(25, dtype=complex)
        truth[:5] = 1.0  # ||truth||^2 = n_s
        noise_var = sn.snr_to_noise_var(0.0, float(np.sum(np.abs(truth) ** 2)), model.n_s)
        assert abs(noise_var - 1.0) < 1e-12

    def test_db_scaling(self):
        model = sn.measurement_model(
            sn.gen_pilots(n_d=5, k=12, seed=14), 5
        )
        truth = np.ones(25, dtype=complex)
        v0 = sn.snr_to_noise_var(0.0, float(np.sum(np.abs(truth) ** 2)), model.n_s)
        v20 = sn.snr_to_noise_var(20.0, float(np.sum(np.abs(truth) ** 2)), model.n_s)
        assert abs(v0 / v20 - 100.0) < 1e-9

    def test_rejects_zero_truth(self):
        model = sn.measurement_model(
            sn.gen_pilots(n_d=5, k=12, seed=15), 5
        )
        with pytest.raises(ValueError):
            sn.snr_to_noise_var(10.0, 0.0, model.n_s)

    def test_array_of_energies_matches_each_scalar(self):
        energies = np.array([1e-3, 0.7, 25.0, 3e5])
        got = sn.snr_to_noise_var(17.0, energies, 5)
        want = [sn.snr_to_noise_var(17.0, float(e), 5) for e in energies]
        assert got.tobytes() == np.array(want).tobytes()
        with pytest.raises(ValueError):
            sn.snr_to_noise_var(17.0, np.array([1.0, 0.0]), 5)

    def test_array_of_snrs_matches_each_scalar_formula(self):
        # numpy's array power can round 10^x differently from Python's float power
        rng = np.random.default_rng(17)
        snrs = np.concatenate([rng.uniform(-60.0, 120.0, 10_000), [20.0, 30.0, 40.0, -0.0, 4000.0]])
        energies = rng.uniform(1e-3, 1e3, snrs.size)
        got = sn.snr_to_noise_var(snrs, energies, 5)
        want = [(e / 5) * 10.0 ** (-s / 10.0) for s, e in zip(snrs.tolist(), energies.tolist())]
        assert got.tobytes() == np.array(want).tobytes()
        assert got[-1] == 0.0

    def test_snr_definition_monte_carlo(self):
        # mean ||Upsilon upsilon||^2 / (K n_s sigma^2) should hit 10^(snr/10)
        rng = np.random.default_rng(16)
        truth = (rng.standard_normal(25) + 1j * rng.standard_normal(25)) / 3
        snr_db = 13.0
        ratios = []
        for draw in range(1000):
            pilots = sn.gen_pilots(n_d=5, k=20, seed=5000 + draw)
            model = sn.measurement_model(pilots, 5)
            sigma2 = sn.snr_to_noise_var(snr_db, float(np.sum(np.abs(truth) ** 2)), model.n_s)
            signal = float(np.sum(np.abs(model.upsilon_mat @ truth) ** 2))
            ratios.append(signal / (model.k * model.n_s * sigma2))
        assert abs(np.mean(ratios) / 10 ** (snr_db / 10) - 1.0) < 0.05
