"""Channel synthesis, angular transform, and sparse ground-truth tests."""

import copy

import numpy as np
import pytest

import frozen_channel as fc
from frozen_svd import numeric_rank
from ris_crlb import channel as ch
from ris_crlb import harness as hn
from ris_crlb.numerics import dft_matrix, vec


GEOM = ch.Geometry(n_s=5, n_d=5, n_r_h=2, n_r_w=5)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def indices(mask):
    """The True positions of a support mask, as the frozen reference's sorted tuple."""
    return tuple(np.flatnonzero(mask).tolist())


class TestArrayResponses:
    def test_ula_broadside_all_ones(self):
        np.testing.assert_allclose(ch.ula_response(4, 0.0, 0.3), np.ones(4))

    def test_ula_single_element(self):
        np.testing.assert_allclose(ch.ula_response(1, 1.0, -2.0), [1.0])

    def test_ula_half_wavelength_endfire(self):
        # u = 2*pi*0.5*sin(pi/2)*cos(0) = pi, so the ramp is [1, -1]
        resp = ch.ula_response(2, np.pi / 2, 0.0, 0.5)
        np.testing.assert_allclose(resp, [1.0, -1.0], atol=1e-12)

    def test_ula_unit_modulus(self):
        resp = ch.ula_response(16, 0.7, 1.1)
        np.testing.assert_allclose(np.abs(resp), 1.0)

    def test_upa_single_element(self):
        np.testing.assert_allclose(ch.upa_response(1, 1, 0.4, 0.2), [1.0])

    def test_upa_flat_ramps(self):
        # elev=pi/2 kills the height ramp, azim=pi/2 kills the width ramp
        resp = ch.upa_response(3, 4, np.pi / 2, np.pi / 2)
        np.testing.assert_allclose(resp, np.ones(12), atol=1e-12)

    def test_upa_matches_kron_of_ramps(self):
        elev, azim, s = np.pi / 3, 0.0, 0.5
        u_h = 2 * np.pi * s * np.cos(elev)
        u_w = 2 * np.pi * s * np.sin(elev) * np.cos(azim)
        expected = np.kron(
            np.exp(1j * u_h * np.arange(2)), np.exp(1j * u_w * np.arange(2))
        )
        np.testing.assert_allclose(ch.upa_response(2, 2, elev, azim, s), expected)

    def test_upa_bits_match_kron_of_ramps(self):
        rng = np.random.default_rng(31)
        for n_h, n_w in [(1, 1), (2, 5), (5, 2), (3, 7), (8, 8)]:
            for _ in range(40):
                elev, azim = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
                u_h = 2 * np.pi * 0.5 * np.cos(elev)
                u_w = 2 * np.pi * 0.5 * np.sin(elev) * np.cos(azim)
                expected = np.kron(
                    np.exp(1j * u_h * np.arange(n_h)), np.exp(1j * u_w * np.arange(n_w))
                )
                assert ch.upa_response(n_h, n_w, elev, azim).tobytes() == expected.tobytes()


class TestBuildHop:
    def test_single_path_scaling_cancels(self):
        angles, gains = np.array([[0.5, 0.2, 1.0, -0.4]]), np.array([1.0 + 0j])
        g = ch.hop_matrix(GEOM, ch.BS_TO_RIS, angles, gains, float(GEOM.n_s * GEOM.n_r))
        a_r = ch.upa_response(2, 5, 1.0, -0.4)
        a_s = ch.ula_response(5, 0.5, 0.2)
        np.testing.assert_allclose(g, np.outer(a_r, a_s.conj()), atol=1e-12)

    def test_single_path_rank_one(self):
        rng = np.random.default_rng(0)
        hop = ch.draw_hop(GEOM, 1, ch.BS_TO_RIS, rng, on_grid=False)
        assert numeric_rank(ch.hop_matrix(GEOM, ch.BS_TO_RIS, *hop)) == 1

    def test_two_distinct_on_grid_paths_rank_two(self):
        rng = np.random.default_rng(1)
        hop = ch.draw_hop(GEOM, 2, ch.BS_TO_RIS, rng, on_grid=True)
        assert numeric_rank(ch.hop_matrix(GEOM, ch.BS_TO_RIS, *hop)) == 2

    def test_ris_to_ms_shape(self):
        rng = np.random.default_rng(2)
        hop = ch.draw_hop(GEOM, 1, ch.RIS_TO_MS, rng, on_grid=False)
        assert ch.hop_matrix(GEOM, ch.RIS_TO_MS, *hop).shape == (GEOM.n_d, GEOM.n_r)


class TestComposeCascade:
    def test_zero_phases_is_plain_product(self):
        rng = np.random.default_rng(3)
        g1 = crandn(rng, 10, 5)
        g2 = crandn(rng, 5, 10)
        h = ch.compose_cascade(g1, np.zeros(10), g2)
        np.testing.assert_allclose(h, g2 @ g1)

    def test_scalar_chain(self):
        h = ch.compose_cascade(
            np.array([[2.0 + 0j]]), np.array([0.7]), np.array([[3.0 + 0j]])
        )
        np.testing.assert_allclose(h, [[6.0 * np.exp(1j * 0.7)]])

    def test_global_phase_leaves_energy(self):
        rng = np.random.default_rng(4)
        g1 = crandn(rng, 10, 5)
        g2 = crandn(rng, 5, 10)
        phases = rng.uniform(0, 2 * np.pi, 10)
        base = np.linalg.norm(ch.compose_cascade(g1, phases, g2))
        shifted = np.linalg.norm(ch.compose_cascade(g1, phases + 1.234, g2))
        assert abs(base - shifted) < 1e-10 * base


class TestAngularTransform:
    def test_zero_channel(self):
        _, upsilon = ch.angular_transform(np.zeros((5, 5)), GEOM)
        np.testing.assert_array_equal(upsilon, np.zeros(25))

    def test_dft_column_selectivity(self):
        u_s = dft_matrix(GEOM.n_s)
        u_d = dft_matrix(GEOM.n_d)
        n, m = 3, 1
        h = np.outer(u_d[:, n], u_s[:, m].conj())
        _, upsilon = ch.angular_transform(h, GEOM)
        expected = np.zeros(25, dtype=complex)
        expected[n * GEOM.n_s + m] = 1.0
        np.testing.assert_allclose(upsilon, expected, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        h = crandn(rng, 5, 5)
        _, upsilon = ch.angular_transform(h, GEOM)
        np.testing.assert_allclose(
            ch.inverse_angular_transform(upsilon, GEOM), h, atol=1e-10
        )

    def test_energy_invariance(self):
        rng = np.random.default_rng(6)
        h = crandn(rng, 5, 5)
        h_tilde_herm, upsilon = ch.angular_transform(h, GEOM)
        assert abs(np.linalg.norm(h) - np.linalg.norm(upsilon)) < 1e-10
        assert abs(np.linalg.norm(h) - np.linalg.norm(h_tilde_herm)) < 1e-10

    def test_vec_is_of_hermitian_transpose(self):
        rng = np.random.default_rng(7)
        h = crandn(rng, 5, 5)
        h_tilde_herm, upsilon = ch.angular_transform(h, GEOM)
        np.testing.assert_array_equal(upsilon, vec(h_tilde_herm))


class TestDominantBin:
    def test_zero_on_grid(self):
        assert ch.dominant_bin(0.0, 8) == 0

    def test_exact_grid_point(self):
        assert ch.dominant_bin(2 * np.pi * 3 / 8, 8) == 3

    def test_nearest_wrapped(self):
        assert ch.dominant_bin(2 * np.pi * 3.4 / 8, 8) == 3
        assert ch.dominant_bin(2 * np.pi * 3.6 / 8, 8) == 4

    def test_wraparound(self):
        # just below 2*pi is nearest to bin 0
        assert ch.dominant_bin(2 * np.pi * 7.9 / 8, 8) == 0

    def test_negative_parameter(self):
        assert ch.dominant_bin(-2 * np.pi / 8, 8) == 7


class TestSnapAngles:
    def test_round_trip_every_bin(self):
        for n in (5, 8, 50):
            for g in range(n):
                elev, azim = ch.snap_angles(g, n)
                u = ch.directional_param(elev, azim)
                assert ch.dominant_bin(u, n) == g
                assert abs(np.angle(np.exp(1j * (u - 2 * np.pi * g / n)))) < 1e-9

    def test_unreachable_at_narrow_spacing(self):
        with pytest.raises(ValueError):
            ch.snap_angles(4, 8, spacing_ratio=0.2)


class TestSynthSparseSignal:
    @staticmethod
    def draw(dim, sparsity, rng, magnitude=1.0):
        """ch.realize_synthetic on a geometry of n_d * n_s = dim entries: the vector and the
        indices of its support mask."""
        real = ch.realize_synthetic(ch.Geometry(dim, 1, 1, 1), sparsity, rng, magnitude)
        return real.sparse_vec, indices(real.support)

    def test_full_support(self):
        rng = np.random.default_rng(8)
        _, support = self.draw(6, 6, rng)
        assert support == tuple(range(6))

    def test_deterministic_given_seed(self):
        v1, s1 = self.draw(25, 1, np.random.default_rng(42))
        v2, s2 = self.draw(25, 1, np.random.default_rng(42))
        np.testing.assert_array_equal(v1, v2)
        assert s1 == s2

    def test_energy_is_sparsity_times_magnitude_squared(self):
        rng = np.random.default_rng(9)
        v, _ = self.draw(30, 4, rng, magnitude=2.5)
        assert abs(np.sum(np.abs(v) ** 2) - 4 * 2.5**2) < 1e-12

    def test_off_support_exactly_zero(self):
        rng = np.random.default_rng(10)
        v, support = self.draw(30, 3, rng)
        off = np.setdiff1d(np.arange(30), support)
        assert np.all(v[off] == 0)

    def test_rejects_oversparse(self):
        with pytest.raises(ValueError):
            self.draw(4, 5, np.random.default_rng(0))


class TestRealizations:
    def test_on_grid_support_matches_prediction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            hop1 = ch.draw_hop(GEOM, 1, ch.BS_TO_RIS, rng, on_grid=True)
            hop2 = ch.draw_hop(GEOM, 1, ch.RIS_TO_MS, rng, on_grid=True)
            real = ch.realize_physical(GEOM, hop1, hop2, rng, on_grid=True)
            np.testing.assert_array_equal(real.support, real.predicted_support)
            peak = np.max(np.abs(real.sparse_vec))
            strong = np.flatnonzero(np.abs(real.sparse_vec) > 1e-8 * peak)
            assert len(strong) <= 1  # L' * L'' with one path per hop

    def test_on_grid_two_paths_at_most_four_bins(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            hop1 = ch.draw_hop(GEOM, 2, ch.BS_TO_RIS, rng, on_grid=True)
            hop2 = ch.draw_hop(GEOM, 2, ch.RIS_TO_MS, rng, on_grid=True)
            real = ch.realize_physical(GEOM, hop1, hop2, rng, on_grid=True)
            peak = np.max(np.abs(real.sparse_vec))
            strong = np.flatnonzero(np.abs(real.sparse_vec) > 1e-8 * peak)
            assert len(strong) <= 4
            assert set(strong).issubset(np.flatnonzero(real.predicted_support))

    def test_off_grid_argmax_matches_dominant_bins(self):
        # single path per hop: row/column energy peaks exactly at the
        # wrap-nearest grid bins of the directional parameters
        rng = np.random.default_rng(13)
        for _ in range(50):
            hop1 = ch.draw_hop(GEOM, 1, ch.BS_TO_RIS, rng, on_grid=False)
            hop2 = ch.draw_hop(GEOM, 1, ch.RIS_TO_MS, rng, on_grid=False)
            real = ch.realize_physical(GEOM, hop1, hop2, rng, on_grid=False)
            (idx,) = np.flatnonzero(real.predicted_support)
            mags = np.abs(real.angular)  # (n_d, n_s)
            row_energy = (mags**2).sum(axis=1)
            col_energy = (mags**2).sum(axis=0)
            assert int(np.argmax(row_energy)) == idx // GEOM.n_s
            assert int(np.argmax(col_energy)) == idx % GEOM.n_s

    def test_physical_cascade_consistency(self):
        rng = np.random.default_rng(14)
        hop1 = ch.draw_hop(GEOM, 1, ch.BS_TO_RIS, rng, on_grid=False)
        hop2 = ch.draw_hop(GEOM, 1, ch.RIS_TO_MS, rng, on_grid=False)
        # the draw realize_physical makes
        phases = copy.deepcopy(rng).uniform(0, 2 * np.pi, GEOM.n_r)
        real = ch.realize_physical(GEOM, hop1, hop2, rng, on_grid=False)
        recomposed = ch.compose_cascade(
            ch.hop_matrix(GEOM, ch.BS_TO_RIS, *hop1), phases,
            ch.hop_matrix(GEOM, ch.RIS_TO_MS, *hop2),
        )
        assert np.max(np.abs(recomposed - real.cascade)) < 1e-10

    def test_cascade_energy_equals_sparse_energy(self):
        rng = np.random.default_rng(15)
        hop1 = ch.draw_hop(GEOM, 2, ch.BS_TO_RIS, rng, on_grid=False)
        hop2 = ch.draw_hop(GEOM, 2, ch.RIS_TO_MS, rng, on_grid=False)
        real = ch.realize_physical(GEOM, hop1, hop2, rng, on_grid=False)
        h_norm = np.linalg.norm(real.cascade)
        assert abs(h_norm - np.linalg.norm(real.sparse_vec)) < 1e-10 * h_norm
        assert abs(h_norm - np.linalg.norm(real.angular)) < 1e-10 * h_norm

    def test_synthetic_realization_round_trip(self):
        real = ch.realize_synthetic(GEOM, 2, np.random.default_rng(16))
        assert np.count_nonzero(real.support) == 2
        _, upsilon = ch.angular_transform(real.cascade, GEOM)
        np.testing.assert_allclose(upsilon, real.sparse_vec, atol=1e-12)


class TestStackedSynthesis:
    """The stacked synthesis reproduces the frozen per-path reference bit for bit."""

    ODD = ch.Geometry(n_s=4, n_d=6, n_r_h=3, n_r_w=2, spacing_ratio=0.7)

    @staticmethod
    def _config(geometry, mode, paths, losses):
        return hn.default_config(
            geometry=geometry, mode=mode, k_values=(60,),
            hop_bs_ris=hn.HopSpec(paths[0], losses[0]),
            hop_ris_ms=hn.HopSpec(paths[1], losses[1]),
        )

    @pytest.mark.parametrize("mode", ["physical_on_grid", "physical_off_grid"])
    @pytest.mark.parametrize("paths", [(1, 1), (2, 3), (3, 4)])
    def test_stack_matches_per_path_reference(self, mode, paths):
        # the sweep's draw from raw words against a Generator's: 1000 seeds on the
        # default geometry with the default path losses, 1000 on an uneven one with
        # set path losses; 12,000 distinct seeds over the 6 cases.  On grid, the
        # first hop's choice reads an odd number of halves at each path count, so
        # the second hop's bin draw starts on the half it left buffered
        case = 2 * [(1, 1), (2, 3), (3, 4)].index(paths) + (mode == "physical_on_grid")
        drawn = np.random.default_rng(case).integers(0, 2**64, size=2000, dtype=np.uint64)
        for geometry, losses, seeds in (
            (GEOM, (None, None), drawn[:1000]), (self.ODD, (7.5, 3.0), drawn[1000:])
        ):
            cfg = self._config(geometry, mode, paths, losses)
            real = hn.physical_stack(cfg, ch.pcg64_seat(hn.seed_words(seeds)))
            for t, seed in enumerate(seeds.tolist()):
                ref = fc.draw_physical(
                    geometry, (paths[0], losses[0]), (paths[1], losses[1]),
                    np.random.default_rng(seed), mode == "physical_on_grid",
                )
                assert real.sparse_vec[t].tobytes() == ref.upsilon.tobytes(), seed
                assert real.angular[t].tobytes() == ref.h_tilde_herm.conj().T.tobytes(), seed
                assert real.cascade[t].tobytes() == ref.cascade.tobytes(), seed
                assert indices(real.support[t]) == ref.support, seed
                assert indices(real.predicted_support[t]) == ref.predicted, seed

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_one_realization_case_matches_reference(self, on_grid):
        for seed in range(200):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            sides = (ch.BS_TO_RIS, ch.RIS_TO_MS)
            hops = [ch.draw_hop(GEOM, 2, side, rng, on_grid) for side in sides]
            ref_hops = [fc.draw_hop(GEOM, 2, side, ref_rng, on_grid) for side in sides]
            for (angles, gains, _loss), ref_hop in zip(hops, ref_hops):
                assert angles.tobytes() == np.array([q[:4] for q in ref_hop.paths]).tobytes()
                assert gains.tobytes() == np.array([q.gain for q in ref_hop.paths]).tobytes()
            real = ch.realize_physical(GEOM, *hops, rng, on_grid=on_grid)
            ref = fc.realize_physical(GEOM, *ref_hops, ref_rng, on_grid)
            assert real.sparse_vec.tobytes() == ref.upsilon.tobytes()
            assert indices(real.support) == ref.support
            assert indices(real.predicted_support) == ref.predicted
