"""Unit tests for the complex linear algebra kernel."""

import numpy as np
import pytest

from ris_crlb.errors import DimensionMismatchError, RankDeficientError
from ris_crlb.numerics import (
    GRAM_COND,
    dft_matrix,
    gram_solve,
    kron,
    kron_gram,
    least_squares,
    numeric_rank,
    projector_complement,
    svd_rank,
    unvec,
    vec,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDftMatrix:
    def test_single_point(self):
        np.testing.assert_allclose(dft_matrix(1), [[1.0]])

    def test_two_point_is_scaled_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(dft_matrix(2), expected, atol=1e-15)

    def test_unitary_n5(self):
        u = dft_matrix(5)
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-12

    def test_unitary_1_to_64(self):
        for n in range(1, 65):
            u = dft_matrix(n)
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10


class TestKron:
    def test_identity_kron_identity(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_scalar_factor(self):
        rng = np.random.default_rng(0)
        b = crandn(rng, 3, 4)
        np.testing.assert_allclose(kron(np.array([[2.0]]), b), 2.0 * b)

    def test_vectorization_identity(self):
        # vec(A M B) = (B^T kron A) vec(M), checked as vec(M X) with A = I
        rng = np.random.default_rng(1)
        for p, q, r in [(3, 2, 4), (4, 3, 6), (5, 5, 2)]:
            m = crandn(rng, p, q)
            x = crandn(rng, q, r)
            lhs = vec(m @ x)
            rhs = kron(x.T, np.eye(p)) @ vec(m)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_rank_product_property(self):
        rng = np.random.default_rng(2)
        for ra, rb in [(1, 2), (2, 2), (3, 1)]:
            a = crandn(rng, 5, ra) @ crandn(rng, ra, 4)
            b = crandn(rng, 6, rb) @ crandn(rng, rb, 3)
            assert numeric_rank(kron(a, b)) == ra * rb

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            kron(np.zeros((0, 2)), np.eye(2))


class TestVec:
    def test_column_stacking_order(self):
        m = np.array([[1, 3], [2, 4]])
        np.testing.assert_array_equal(vec(m), [1, 2, 3, 4])

    def test_unvec_roundtrip(self):
        rng = np.random.default_rng(3)
        m = crandn(rng, 4, 7)
        np.testing.assert_array_equal(unvec(vec(m), 4, 7), m)

    def test_unvec_bad_length(self):
        with pytest.raises(DimensionMismatchError):
            unvec(np.zeros(5), 2, 3)


class TestLeastSquares:
    def test_identity_design(self):
        rng = np.random.default_rng(4)
        y = crandn(rng, 3)
        np.testing.assert_allclose(least_squares(np.eye(3), y), y)

    def test_orthonormal_columns_consistent(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(crandn(rng, 8, 3))
        v = crandn(rng, 3)
        np.testing.assert_allclose(least_squares(q, q @ v), v, atol=1e-10)

    def test_noiseless_consistency(self):
        rng = np.random.default_rng(6)
        a = crandn(rng, 20, 3)
        v = crandn(rng, 3)
        sol = least_squares(a, a @ v)
        assert np.linalg.norm(sol - v) / np.linalg.norm(v) < 1e-9

    def test_rank_deficient_raises(self):
        a = np.ones((4, 2), dtype=complex)  # duplicated column
        with pytest.raises(RankDeficientError):
            least_squares(a, np.ones(4, dtype=complex))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            least_squares(np.eye(3), np.ones(4))


class TestProjectorComplement:
    def test_axis_projector(self):
        a = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(
            projector_complement(a), [[0, 0], [0, 1]], atol=1e-14
        )

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        p = projector_complement(crandn(rng, 25, 1))
        assert abs(np.trace(p).real - 24) < 1e-9

    def test_idempotent_hermitian_annihilating(self):
        rng = np.random.default_rng(8)
        a = crandn(rng, 30, 4)
        p = projector_complement(a)
        assert np.max(np.abs(p @ p - p)) < 1e-9
        assert np.max(np.abs(p - p.conj().T)) < 1e-9
        assert np.max(np.abs(p @ a)) < 1e-10

    def test_rank_deficient_raises(self):
        a = np.zeros((5, 2), dtype=complex)
        a[:, 0] = 1.0
        a[:, 1] = 2.0
        with pytest.raises(RankDeficientError):
            projector_complement(a)


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(4)) == 4

    def test_outer_product(self):
        rng = np.random.default_rng(9)
        u = crandn(rng, 6)
        v = crandn(rng, 5)
        assert numeric_rank(np.outer(u, v.conj())) == 1

    def test_pilot_kron_full_rank(self):
        # X^T kron I_5 for a 5 x 20 complex Gaussian pilot block
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = crandn(rng, 5, 20) / np.sqrt(2)
            assert numeric_rank(kron(x.T, np.eye(5))) == 25

    def test_svd_rank_of_a_stack(self):
        rng = np.random.default_rng(11)
        stack = crandn(rng, 6, 7, 3)
        stack[1, :, 2] = stack[1, :, 0]  # rank 2
        stack[2] = 0.0  # rank 0
        stack[3, :, 1:] = 1e-17 * stack[3, :, 1:]  # below the cutoff: rank 1
        stack[4] = 1e-20 * stack[4]  # the cutoff scales with each matrix: rank 3
        s = np.linalg.svd(stack, compute_uv=False)
        ranks = svd_rank(s, stack.shape)
        assert ranks.tolist() == [numeric_rank(a) for a in stack] == [3, 2, 0, 1, 3, 3]
        assert svd_rank(s[0], stack.shape[1:]) == 3


class TestKronGram:
    def test_blocks_of_the_materialised_kronecker_gram(self):
        rng = np.random.default_rng(12)
        outer = crandn(rng, 4, 3, 3)
        subsets = np.array([[0, 1], [2, 5], [4, 7], [3, 8]])
        shared = kron_gram(outer, 3, subsets[None])  # every subset for every matrix
        own = kron_gram(outer, 3, subsets)  # one subset per matrix
        assert shared.shape == (4, 4, 2, 2) and own.shape == (4, 2, 2)
        for r in range(4):
            full = np.kron(outer[r], np.eye(3))
            for b, cols in enumerate(subsets):
                block = full[np.ix_(cols, cols)]
                assert np.array_equal(shared[r, b], block)
                if b == r:
                    assert np.array_equal(own[r], block)


class TestGramSolve:
    """The Gram matrix decides rank, trace and fit only outside the band that the SVD decides."""

    @staticmethod
    def _problem(ratio, m=12, seed=13):
        # A (m, 2) with singular values 1 and sqrt(ratio), so lambda_min / lambda_max = ratio
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(crandn(rng, m, 2))
        v, _ = np.linalg.qr(crandn(rng, 2, 2))
        a = (u * np.sqrt([1.0, ratio])) @ v.conj().T
        return a, crandn(rng, m)

    # just outside and just inside the band; far inside, but of full SVD rank; rank 1
    CASES = [1.01 / GRAM_COND, 0.99 / GRAM_COND, 1e-20, 0.0]

    @pytest.mark.parametrize("ratio", CASES)
    def test_svd_decides_the_band(self, ratio):
        a, y = self._problem(ratio)
        g, c = a.conj().T @ a, a.conj().T @ y
        calls = []

        def columns(rows):
            calls.append(rows.tolist())
            return a[None][rows]

        trace, rank, x = gram_solve(g[None], columns, c[None], y[None])
        lam = np.linalg.eigvalsh(g)
        assert (lam[0] * GRAM_COND > lam[-1]) == (ratio > 1 / GRAM_COND)
        assert calls == ([] if ratio > 1 / GRAM_COND else [[0]])
        s = np.linalg.svd(a, compute_uv=False)
        assert rank[0] == svd_rank(s, a.shape) == (2 if ratio else 1)
        if ratio >= 0.99 / GRAM_COND:
            np.testing.assert_allclose(trace[0], np.sum(1.0 / s**2), rtol=1e-8)
            np.testing.assert_allclose(x[0], np.linalg.lstsq(a, y, rcond=None)[0], rtol=1e-8)
        if ratio == 1e-20:  # rounding swamps lambda_min in the Gram, not s_min in the SVD
            assert abs(lam[0] - ratio) > 1e3 * ratio
            np.testing.assert_allclose(trace[0], np.sum(1.0 / s**2), rtol=1e-12)

    def test_rows_of_a_stack_are_solved_alone(self):
        problems = [self._problem(ratio, seed=20 + i) for i, ratio in enumerate(self.CASES)]
        a = np.stack([p[0] for p in problems])
        y = np.stack([p[1] for p in problems])
        g, c = a.conj().swapaxes(-1, -2) @ a, (a.conj().swapaxes(-1, -2) @ y[..., None])[..., 0]
        with np.errstate(all="ignore"):
            stack = gram_solve(g, lambda rows: a[rows], c, y)
            for t in range(len(a)):
                one = slice(t, t + 1)
                alone = gram_solve(g[one], lambda rows: a[one][rows], c[one], y[one])
                assert all(v[t:t + 1].tobytes() == w.tobytes() for v, w in zip(stack, alone))

    def test_fewer_rows_than_columns_is_rank_deficient(self):
        a = crandn(np.random.default_rng(14), 2, 3)
        trace, rank, x = gram_solve((a.conj().T @ a)[None], lambda rows: a[None][rows])
        assert rank.tolist() == [2] and x is None
