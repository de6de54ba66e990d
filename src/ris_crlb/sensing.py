"""Pilot blocks, the Kronecker measurement matrix, and noisy reception.

The MS transmits a K-slot pilot block X with i.i.d. unit-variance
circularly-symmetric complex Gaussian entries.  Stacking the received block
column-wise turns the angular-domain channel into the linear model

    y = (X^T kron I_ns) upsilon + n,    n ~ CN(0, sigma^2 I),

so the measurement matrix is (K*n_s) x (n_d*n_s) and column j*n_s + i pairs
pilot row j with identity position i (exactly K nonzeros per column).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .numerics import as_vector, kron


@dataclass(frozen=True)
class PilotConfig:
    """Pilot block shape and seed.

    The full-rank guarantee for the measurement matrix needs k > n_d; below
    that the config is usable but warns.  ``p_ms`` is the per-slot transmit
    power implied by unit-variance entries, kept only as a derived quantity.
    """

    n_d: int
    k: int
    seed: int

    def __post_init__(self):
        if self.n_d < 1:
            raise ValueError("n_d must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k <= self.n_d:
            warnings.warn(
                f"k={self.k} <= n_d={self.n_d}: measurement matrix cannot be full rank",
                stacklevel=2,
            )

    @property
    def p_ms(self):
        return float(self.n_d)


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


@dataclass
class Observation:
    """Received vector together with the ground truth that generated it."""

    y: np.ndarray
    truth: np.ndarray
    support: tuple
    noise_var: float


def gen_pilots(cfg):
    """i.i.d. CN(0, 1) pilot block of shape (n_d, k), deterministic in the seed."""
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.n_d, cfg.k)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def measurement_matrix(pilots, n_s):
    """kron(X^T, I_ns) for a pilot block X."""
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    pilots = np.asarray(pilots, dtype=np.complex128)
    return kron(pilots.T, np.eye(n_s, dtype=np.complex128))


def measurement_model(pilots, n_s, noise_var=None):
    """Bundle a pilot block with its measurement matrix."""
    return MeasurementModel(
        pilots=np.asarray(pilots, dtype=np.complex128),
        upsilon_mat=measurement_matrix(pilots, n_s),
        noise_var=noise_var,
    )


def observe(model, truth, rng, support=()):
    """Simulate y = Upsilon truth + n with per-entry complex noise variance sigma^2."""
    truth = as_vector(truth, "truth")
    mat = model.upsilon_mat
    if truth.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(
            f"truth has length {truth.shape[0]}, expected {mat.shape[1]}"
        )
    if model.noise_var is None or model.noise_var < 0:
        raise ValueError("model.noise_var must be set and >= 0 before observing")
    m = mat.shape[0]
    scale = np.sqrt(model.noise_var / 2.0)
    noise = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return Observation(
        y=mat @ truth + noise,
        truth=truth,
        support=tuple(support),
        noise_var=model.noise_var,
    )


def snr_to_noise_var(snr_db, energy, n_s):
    """Noise variance that hits an SNR target for a truth of energy ||upsilon||^2.

    SNR is defined as average received signal energy per observation entry
    over the noise variance: with unit-variance pilot entries
    E||Upsilon upsilon||^2 = K ||upsilon||^2, so

        sigma^2 = (||upsilon||^2 / n_s) * 10^(-snr_db/10).

    This is the only place the formula is evaluated.
    """
    if energy == 0.0:
        raise ValueError("truth must be nonzero to define an SNR")
    return (energy / n_s) * 10.0 ** (-snr_db / 10.0)
