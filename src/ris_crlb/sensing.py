"""Pilot blocks, the Kronecker measurement matrix, and noisy reception.

The MS transmits a K-slot pilot block X with i.i.d. unit-variance
circularly-symmetric complex Gaussian entries.  Stacking the received block
column-wise turns the angular-domain channel into the linear model

    y = (X^T kron I_ns) upsilon + n,    n ~ CN(0, sigma^2 I),

so the measurement matrix is (K*n_s) x (n_d*n_s) and column j*n_s + i pairs
pilot row j with identity position i (exactly K nonzeros per column).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .numerics import as_vector, kron


@dataclass
class MeasurementModel:
    """Pilot block, its Kronecker measurement matrix, and the noise level.

    ``noise_var`` is the variance per complex entry; it may be filled in
    after construction once an SNR target fixes it (see
    :func:`snr_to_noise_var`).
    """

    pilots: np.ndarray        # (n_d, k)
    upsilon_mat: np.ndarray   # (k*n_s, n_d*n_s)
    noise_var: float | None = None

    @property
    def k(self):
        return self.pilots.shape[1]

    @property
    def n_d(self):
        return self.pilots.shape[0]

    @property
    def n_s(self):
        return self.upsilon_mat.shape[0] // self.k


def gen_pilots(n_d, k, seed):
    """i.i.d. CN(0, 1) pilot block of shape (n_d, k), deterministic in the seed."""
    return _pilot_entries(np.random.default_rng(seed).standard_normal((2, n_d, k)))


def _pilot_entries(normals):
    """(re + 1j im)/sqrt(2) of the real and imaginary parts stacked on axis -3."""
    return (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0)


def _noise(normals, noise_var):
    """sqrt(sigma^2/2) (re + 1j im) of the parts on axis -2, one sigma^2 per vector."""
    return np.sqrt(noise_var / 2.0)[..., None] * (normals[..., 0, :] + 1j * normals[..., 1, :])


def measurement_matrix(pilots, n_s):
    """kron(X^T, I_ns) for a pilot block X."""
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    pilots = np.asarray(pilots, dtype=np.complex128)
    return kron(pilots.T, np.eye(n_s, dtype=np.complex128))


def kron_columns(pilots, n_s, cols):
    """Columns ``cols`` of kron(X^T, I_ns), for one pilot block or a stack.

    ``pilots`` (n_d, k) with ``cols`` (l,), or a stack (T, n_d, k) with one
    column set per block, ``cols`` (T, l); the result is the C-ordered
    (k*n_s, l) or (T, k*n_s, l) array of those columns.  Column j*n_s + i
    holds the products X[j, :] * I[:, i] that :func:`measurement_matrix`
    forms, so its entries carry the same bits, signs of zero included (LAPACK
    and BLAS results can depend on those signs).
    """
    cols = np.asarray(cols, dtype=np.intp)
    j, i = np.divmod(cols, n_s)
    # pilot rows j of each block: one index array per axis, cheaper than take_along_axis
    rows = pilots[j] if j.ndim == 1 else pilots[np.arange(len(j))[:, None], j]
    # the products written straight into the (..., k, n_s, l) output
    x = rows.swapaxes(-1, -2)[..., :, None, :]
    ident = np.eye(n_s, dtype=np.complex128)[i].swapaxes(-1, -2)[..., None, :, :]
    out = np.multiply(x, ident, order="C")
    return out.reshape(out.shape[:-3] + (-1, cols.shape[-1]))


def kron_normal(pilots, n_s, y):
    """Gram factor and Upsilon^H y of each pilot block of a stack.

    With Upsilon = kron(X^T, I_ns), Upsilon^H Upsilon = kron(conj(X) X^T,
    I_ns) and Upsilon^H y = vec(conj(X) Y) with Y = y.reshape(k, n_s), so
    neither needs Upsilon.  ``pilots`` is (T, n_d, k) and ``y`` (T, k*n_s);
    returns the (T, n_d, n_d) stack of conj(X) X^T and the (T, n_d*n_s)
    correlation stack.
    """
    t, n_d, k = pilots.shape
    conj = pilots.conj()
    outer = np.matmul(conj, pilots.swapaxes(-1, -2))
    corr = np.matmul(conj, y.reshape(t, k, n_s)).reshape(t, n_d * n_s)
    return outer, corr


def observe_block(pilot_rngs, k, n_s, truths, noise_var, noise_rngs):
    """Pilots and received vectors of a stack of independent trials.

    Trial t draws its (n_d, k) pilot block from ``pilot_rngs[t]`` as
    :func:`gen_pilots` does from ``default_rng(seed)``, and its noise from
    ``noise_rngs[t]`` as :func:`observe` does, and receives Upsilon_t
    truths[t] with one matrix-vector product; the pilot entries and the
    noise are formed and added once per block.  Returns the (T, n_d, k)
    pilot stack and the (T, k*n_s) observation stack.

    One zero-filled Upsilon serves the whole block: each trial overwrites
    its nonzero entries, the n_s-strided diagonals X[i, j] at row j*n_s + a,
    column i*n_s + a.  Its zeros are +0 where kron(X^T, I_ns) has signed
    zeros; a product with a zero factor never changes a nonzero sum, and
    the tests pin these bits against :func:`observe`.
    """
    t_count, n_cols = truths.shape
    n_d = n_cols // n_s
    pilot_normals = np.empty((t_count, 2, n_d, k))
    noise_normals = np.empty((t_count, 2, k * n_s))
    for t, (pilot_rng, noise_rng) in enumerate(zip(pilot_rngs, noise_rngs)):
        pilot_rng.standard_normal(out=pilot_normals[t])
        noise_rng.standard_normal(out=noise_normals[t])
    pilots = _pilot_entries(pilot_normals)
    y = np.empty((t_count, k * n_s), dtype=np.complex128)
    mat = np.zeros((k * n_s, n_cols), dtype=np.complex128)
    row, item = mat.strides
    # diagonals[j, i, a] is entry (j*n_s + a, i*n_s + a) of mat
    diagonals = np.lib.stride_tricks.as_strided(
        mat, (k, n_d, n_s), (n_s * row, n_s * item, row + item)
    )
    for t in range(t_count):
        diagonals[...] = pilots[t].T[:, :, None]
        np.matmul(mat, truths[t], out=y[t])
    y += _noise(noise_normals, noise_var)
    return pilots, y


def measurement_model(pilots, n_s, noise_var=None):
    """Bundle a pilot block with its measurement matrix."""
    return MeasurementModel(
        pilots=np.asarray(pilots, dtype=np.complex128),
        upsilon_mat=measurement_matrix(pilots, n_s),
        noise_var=noise_var,
    )


def observe(model, truth, rng):
    """Received y = Upsilon truth + n with per-entry complex noise variance sigma^2."""
    truth = as_vector(truth, "truth")
    mat = model.upsilon_mat
    if truth.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(
            f"truth has length {truth.shape[0]}, expected {mat.shape[1]}"
        )
    if model.noise_var is None or model.noise_var < 0:
        raise ValueError("model.noise_var must be set and >= 0 before observing")
    return mat @ truth + _noise(rng.standard_normal((2, mat.shape[0])), model.noise_var)


def snr_to_noise_var(snr_db, energy, n_s):
    """Noise variance that hits an SNR target for a truth of energy ||upsilon||^2.

    SNR is defined as average received signal energy per observation entry
    over the noise variance: with unit-variance pilot entries
    E||Upsilon upsilon||^2 = K ||upsilon||^2, so

        sigma^2 = (||upsilon||^2 / n_s) * 10^(-snr_db/10).

    This is the only place the formula is evaluated: per entry of an array of
    energies, and with ``snr_db`` a float or one SNR per entry.  The factor
    10^(-snr_db/10) is a Python float power per SNR, never numpy's array
    ``power``, whose SIMD loop can round differently.
    """
    if not np.all(energy):
        raise ValueError("truth must be nonzero to define an SNR")
    if np.ndim(snr_db) == 0:
        return (energy / n_s) * 10.0 ** (-float(snr_db) / 10.0)
    factors = [10.0 ** (-s / 10.0) for s in np.asarray(snr_db, dtype=np.float64).tolist()]
    return (energy / n_s) * np.array(factors)
