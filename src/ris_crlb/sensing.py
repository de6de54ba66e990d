"""Pilot blocks, the Kronecker measurement matrix, and noisy reception.

The MS transmits a K-slot pilot block X with i.i.d. unit-variance
circularly-symmetric complex Gaussian entries.  Stacking the received block
column-wise turns the angular-domain channel into the linear model

    y = (X^T kron I_ns) upsilon + n,    n ~ CN(0, sigma^2 I),

so the measurement matrix is (K*n_s) x (n_d*n_s) and column j*n_s + i pairs
pilot row j with identity position i (exactly K nonzeros per column).  Reception
and the normal equations use its Kronecker identities and never form it whole.
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
    def n_s(self):
        return self.upsilon_mat.shape[0] // self.k


def gen_pilots(n_d, k, seed):
    """i.i.d. CN(0, 1) pilot block of shape (n_d, k), deterministic in the seed."""
    return _pilot_entries(np.random.default_rng(seed).standard_normal((2, n_d, k)))


def _pilot_entries(normals):
    """(re + 1j im)/sqrt(2) of the parts on axis -3, by that expression's ufuncs, in place."""
    p = np.multiply(normals[..., 1, :, :], 1j)
    return np.divide(np.add(normals[..., 0, :, :], p, out=p), np.sqrt(2.0), out=p)


def _noise(normals, noise_var):
    """sqrt(sigma^2/2) (re + 1j im) of the parts on axis -2, one sigma^2 a vector, in place."""
    scale, z = np.sqrt(noise_var / 2.0)[..., None], np.multiply(normals[..., 1, :], 1j)
    return np.multiply(scale, np.add(normals[..., 0, :], z, out=z), out=z)


def measurement_matrix(pilots, n_s):
    """kron(X^T, I_ns) for a pilot block X."""
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    pilots = np.asarray(pilots, dtype=np.complex128)
    return kron(pilots.T, np.eye(n_s, dtype=np.complex128))


def kron_forward(pilots, n_s, v):
    """Upsilon v = vec(X^T V), V = v.reshape(n_d, n_s), for one pilot block or a stack.

    ``pilots`` (n_d, k) with ``v`` (n_d*n_s,), or (T, n_d, k) with (T, n_d*n_s).  A
    stack makes the BLAS call of one block per block, so each row has its one-block bits.
    """
    *lead, n_d, k = pilots.shape
    prod = np.matmul(pilots.swapaxes(-1, -2), v.reshape(*lead, n_d, n_s))
    return prod.reshape(*lead, k * n_s)


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
    ``noise_rngs[t]`` as :func:`observe` does; the pilot entries, the
    signals (one stacked :func:`kron_forward`) and the noise are formed once
    per block, each stack of normals dropped once its entries are built.
    Returns the (T, n_d, k) pilot stack and the (T, k*n_s) observation stack.
    """
    t_count, n_d = len(truths), truths.shape[1] // n_s
    pilot_normals = np.empty((t_count, 2, n_d, k))
    noise_normals = np.empty((t_count, 2, k * n_s))
    for t, (pilot_rng, noise_rng) in enumerate(zip(pilot_rngs, noise_rngs)):
        pilot_rng.standard_normal(out=pilot_normals[t])
        noise_rng.standard_normal(out=noise_normals[t])
    pilots = _pilot_entries(pilot_normals)
    del pilot_normals
    noise = _noise(noise_normals, noise_var)
    del noise_normals
    y = kron_forward(pilots, n_s, truths)
    y += noise
    return pilots, y


def measurement_model(pilots, n_s, noise_var=None):
    """Bundle a pilot block with its measurement matrix."""
    return MeasurementModel(
        pilots=np.asarray(pilots, dtype=np.complex128),
        upsilon_mat=measurement_matrix(pilots, n_s),
        noise_var=noise_var,
    )


def observe(model, truth, rng):
    """Received y = Upsilon truth + n (:func:`kron_forward`), noise variance sigma^2 per entry."""
    truth = as_vector(truth, "truth")
    rows, cols = model.upsilon_mat.shape
    if truth.shape[0] != cols:
        raise DimensionMismatchError(f"truth has length {truth.shape[0]}, expected {cols}")
    if model.noise_var is None or model.noise_var < 0:
        raise ValueError("model.noise_var must be set and >= 0 before observing")
    noise = _noise(rng.standard_normal((2, rows)), model.noise_var)
    return kron_forward(model.pilots, model.n_s, truth) + noise


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
