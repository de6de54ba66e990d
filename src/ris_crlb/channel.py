"""Two-hop physical channel synthesis and its angular-domain representation.

The link is BS -> RIS -> MS.  The BS and MS carry uniform linear arrays, the
RIS is a uniform planar panel whose reflection is a unit-modulus phase per
element.  A path is parameterized by departure/arrival (elevation, azimuth)
pairs and a complex gain; the scalar that actually enters the array phase
ramp is the directional parameter u = 2*pi*(d/lambda)*sin(elev)*cos(azim).

Ground truth for recovery experiments comes in three flavours:

* synthetic        exactly sparse vector drawn directly in the angular domain
* physical on-grid paths snapped so every directional parameter is a DFT
                   grid value, giving exact sparsity with channel structure
* physical off-grid unconstrained angles, used for leakage visualization
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import dft_matrix, unvec, vec

BS_TO_RIS = "bs_to_ris"
RIS_TO_MS = "ris_to_ms"

# magnitudes below this fraction of the peak do not count as support
SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class Geometry:
    """Array sizes and element spacing of the BS / RIS / MS triplet."""

    n_s: int
    n_d: int
    n_r_h: int
    n_r_w: int
    spacing_ratio: float = 0.5

    def __post_init__(self):
        for name in ("n_s", "n_d", "n_r_h", "n_r_w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.spacing_ratio) and self.spacing_ratio > 0):
            raise ValueError(f"spacing_ratio must be finite and > 0, got {self.spacing_ratio!r}")

    @property
    def n_r(self):
        return self.n_r_h * self.n_r_w


@dataclass
class ChannelRealization:
    """One draw of the cascade channel and its sparse angular image.

    ``sparse_vec`` is vec of the conjugate-transposed angular matrix, the
    column-stacked length n_d*n_s vector the sensing model observes.  A
    stack of draws (:func:`realize_stack`) carries leading axes on every
    array and holds its supports as lists of tuples.
    """

    cascade: np.ndarray           # (n_d, n_s)
    angular: np.ndarray           # (n_d, n_s)
    sparse_vec: np.ndarray        # (n_d*n_s,)
    support: tuple
    predicted_support: tuple = ()


# Every synthesis step below takes stacks: array arguments may carry leading
# axes, one entry per realization.  Each stacked product is the elementwise or
# per-matrix product the one-realization case forms, so a realization's bits
# do not depend on the stack it was computed in.


def directional_param(elev, azim, spacing_ratio=0.5):
    """Phase increment u = 2*pi*(d/lambda)*sin(elev)*cos(azim)."""
    return 2.0 * np.pi * spacing_ratio * np.sin(elev) * np.cos(azim)


def _ramp(u, n):
    """Phase ramps [1, e^{ju}, ..., e^{j(n-1)u}] along a new last axis."""
    return np.exp(1j * np.asarray(u)[..., None] * np.arange(n))


def ula_response(n, elev, azim, spacing_ratio=0.5):
    """Uniform linear array phase ramp [1, e^{ju}, ..., e^{j(n-1)u}]."""
    return _ramp(directional_param(elev, azim, spacing_ratio), n)


def upa_response(n_h, n_w, elev, azim, spacing_ratio=0.5):
    """Uniform planar array response, Kronecker of the two axis ramps.

    The height axis sees u_h = 2*pi*(d/lambda)*cos(elev) and the width axis
    u_w = 2*pi*(d/lambda)*sin(elev)*cos(azim); result has length n_h*n_w.
    """
    ramp_h = _ramp(2.0 * np.pi * spacing_ratio * np.cos(elev), n_h)
    ramp_w = _ramp(directional_param(elev, azim, spacing_ratio), n_w)
    # the products np.kron(ramp_h, ramp_w) forms, without its overhead
    return (ramp_h[..., :, None] * ramp_w[..., None, :]).reshape(ramp_h.shape[:-1] + (-1,))


def hop_matrix(geometry, side, angles, gains, path_loss=None):
    """Sum-of-paths hop matrix of each path set of a stack.

    ``angles`` (..., P, 4) holds each path's (aod_elev, aod_azim, aoa_elev,
    aoa_azim) in radians and ``gains`` (..., P) its complex gain.  For
    ``bs_to_ris`` returns the (..., n_r, n_s) stack sqrt(n_s*n_r/path_loss)
    * sum_i gain_i * a_ris(aoa_i) a_bs(aod_i)^H, for ``ris_to_ms`` the
    (..., n_d, n_r) analogue with the MS array on the left and the RIS array
    on the right.  The default path loss, None, cancels the leading scale.
    """
    g, s = geometry, geometry.spacing_ratio
    aod_elev, aod_azim, aoa_elev, aoa_azim = np.moveaxis(angles, -1, 0)
    if side == BS_TO_RIS:
        left = upa_response(g.n_r_h, g.n_r_w, aoa_elev, aoa_azim, s)
        right = ula_response(g.n_s, aod_elev, aod_azim, s)
    else:
        left = ula_response(g.n_d, aoa_elev, aoa_azim, s)
        right = upa_response(g.n_r_h, g.n_r_w, aod_elev, aod_azim, s)
    path_loss = _default_loss(g, side) if path_loss is None else path_loss
    scale = np.sqrt(left.shape[-1] * right.shape[-1] / path_loss)
    out = np.zeros(left.shape[:-2] + (left.shape[-1], right.shape[-1]), dtype=np.complex128)
    for i in range(gains.shape[-1]):
        # path by path, each term the products np.outer forms
        out += gains[..., i, None, None] * (left[..., i, :, None] * right[..., i, None, :].conj())
    return scale * out


def compose_cascade(g_bs_ris, ris_phases, g_ris_ms):
    """Cascade H = G_ris_ms diag(e^{j phases}) G_bs_ris.

    Reflection amplitudes are fixed at one; only the phases vary.
    """
    return g_ris_ms @ (np.exp(1j * ris_phases)[..., :, None] * g_bs_ris)


def angular_transform(h, geometry):
    """Angular-domain image of the cascade channel.

    Returns ``(h_tilde_herm, upsilon)`` where ``h_tilde_herm`` is the
    (n_s, n_d) matrix U_s^H H^H U_d and ``upsilon = vec(h_tilde_herm)`` is
    the column-stacked sparse vector of length n_d*n_s.  Vec index
    n*n_s + m (0-based) corresponds to MS bin n and BS bin m.
    """
    u_s = dft_matrix(geometry.n_s)
    u_d = dft_matrix(geometry.n_d)
    h_tilde_herm = u_s.conj().T @ h.conj().swapaxes(-1, -2) @ u_d
    return h_tilde_herm, vec(h_tilde_herm)


def inverse_angular_transform(upsilon, geometry):
    """Rebuild the (n_d, n_s) cascade matrix from the sparse vector."""
    h_tilde_herm = unvec(upsilon, geometry.n_s, geometry.n_d)
    u_s = dft_matrix(geometry.n_s)
    u_d = dft_matrix(geometry.n_d)
    return u_d @ h_tilde_herm.conj().T @ u_s.conj().T


def dominant_bin(u, n):
    """0-based DFT grid index wrap-nearest to the directional parameter u.

    Ties at an exact midpoint break toward the lower index.
    """
    grid = 2.0 * np.pi * np.arange(n) / n
    dist = np.abs(np.angle(np.exp(1j * (np.asarray(u)[..., None] - grid))))
    return np.argmin(dist, axis=-1)


def snap_angles(bin_index, n, spacing_ratio=0.5):
    """Elevation/azimuth pair whose directional parameter hits grid point ``bin_index``.

    Azimuth is fixed to 0 for nonnegative wrapped grid values and pi for
    negative ones (cos(azim) = +-1), then elevation = arcsin(|u|/(2 pi d/lambda)).
    Requires spacing_ratio >= 1/2 so the whole grid is reachable.
    """
    u = float(np.angle(np.exp(2j * np.pi * bin_index / n)))  # wrapped to (-pi, pi]
    amp = 2.0 * np.pi * spacing_ratio
    x = abs(u) / amp
    if x > 1.0:
        raise ValueError(
            f"grid point {bin_index}/{n} unreachable at spacing_ratio={spacing_ratio}"
        )
    azim = 0.0 if u >= 0 else np.pi
    return float(np.arcsin(x)), azim


def sparse_stack(dim, idx, phases, magnitude=1.0):
    """The (T, dim) stack with ``magnitude * exp(2j pi phases)`` at the (T, L) positions
    ``idx`` and zeros elsewhere, and the list of its sorted support tuples."""
    v = np.zeros((len(idx), dim), dtype=np.complex128)
    np.put_along_axis(v, idx, magnitude * np.exp(2j * np.pi * phases), axis=1)
    return v, [tuple(s) for s in np.sort(idx, axis=1).tolist()]


def _grid_size(geometry, side, n_paths=1):
    """DFT grid size of the endpoint (BS or MS) array of a hop.

    Raises ValueError unless ``n_paths`` distinct on-grid paths fit in it.
    """
    n_grid = geometry.n_s if side == BS_TO_RIS else geometry.n_d
    if n_paths > n_grid:
        raise ValueError(f"cannot place {n_paths} distinct on-grid paths in {n_grid} bins")
    return n_grid


def _default_loss(geometry, side):
    """Path loss that cancels a hop's sqrt(N*N/loss) leading scale."""
    return float(_grid_size(geometry, side) * geometry.n_r)


def check_on_grid(geometry, n_paths, side):
    """Raise ValueError unless on-grid :func:`draw_hop` succeeds whatever bins
    it draws: the paths fit in distinct bins and :func:`snap_angles` reaches
    every bin at the geometry's spacing."""
    n_grid = _grid_size(geometry, side, n_paths)
    for b in range(n_grid):
        snap_angles(b, n_grid, geometry.spacing_ratio)


def _angle_pairs(d):
    """(elevation, azimuth) pairs from pairs of ``rng.random`` doubles, with the bits
    ``rng.uniform(0, pi)`` and ``rng.uniform(-pi, pi)`` give them: low + (high - low) * d."""
    low = np.array([0.0, -np.pi])
    return low + (np.pi - low) * d


def hop_paths(geometry, side, bins, draws, on_grid):
    """Path angles and gains of a stack of hops from their :func:`draw_hop` draws.

    ``bins`` and ``draws`` carry the same leading axes.  Returns ``angles``
    (..., P, 4) in :func:`hop_matrix` order and ``gains`` (..., P).
    On-grid endpoint angles are snapped to the drawn DFT bins; the RIS-side
    angles are always unconstrained since they never affect angular-domain
    sparsity.  Gains have unit magnitude and uniform phase.
    """
    if on_grid:
        n_grid = _grid_size(geometry, side)
        snapped = [snap_angles(b, n_grid, geometry.spacing_ratio) for b in range(n_grid)]
        end = np.array(snapped)[bins]
    else:
        end = _angle_pairs(draws[..., :2])
    ris = _angle_pairs(draws[..., -3:-1])
    # the endpoint's AoD at the BS, or its AoA at the MS, fixes the angular bin
    pairs = (end, ris) if side == BS_TO_RIS else (ris, end)
    return np.concatenate(pairs, axis=-1), np.exp(2j * np.pi * draws[..., -1])


def draw_hop(geometry, n_paths, side, rng, on_grid):
    """Random hop with the endpoint-side departure/arrival angles drawn per mode.

    Draws the distinct on-grid endpoint bins (none off-grid), then per path
    ``rng.random`` doubles: the endpoint angle pair (off-grid only), the RIS
    angle pair and the gain phase, which :func:`hop_paths` maps to angles.  A
    sweep reads the same draws from raw words (``harness.physical_stack``).
    Returns ``(angles, gains, None)`` as :func:`hop_matrix` takes them; the
    None path loss is the default one, which cancels the sqrt(N*N/loss)
    leading scale.
    """
    bins = None
    if on_grid:
        bins = rng.choice(_grid_size(geometry, side, n_paths), n_paths, replace=False)
    draws = rng.random(n_paths * (3 if on_grid else 5)).reshape(n_paths, -1)
    return hop_paths(geometry, side, bins, draws, on_grid) + (None,)


def _indices(mask):
    """True positions along the last axis: a tuple, or nested lists of them for a stack."""
    if mask.ndim == 1:
        return tuple(np.flatnonzero(mask).tolist())
    return [_indices(m) for m in mask]


def realize_stack(geometry, paths_bs_ris, paths_ris_ms, ris_phases, on_grid):
    """Compose the cascades of a stack of realizations and transform them.

    ``paths_*`` are ``(angles, gains, path_loss)`` as :func:`hop_matrix`
    takes them and ``ris_phases`` is (..., n_r).  The recorded support is
    the set of entries above SUPPORT_TOL of the peak magnitude when
    ``on_grid`` (exact sparsity holds there), otherwise the dominant-bin
    prediction (off-grid leakage makes thresholding meaningless): one bin
    pair per (BS path, MS path) combination, collisions collapsing.
    """
    g = geometry
    g1 = hop_matrix(g, BS_TO_RIS, *paths_bs_ris)
    g2 = hop_matrix(g, RIS_TO_MS, *paths_ris_ms)
    h = compose_cascade(g1, ris_phases, g2)
    h_tilde_herm, upsilon = angular_transform(h, g)
    aod, aoa = paths_bs_ris[0][..., 0:2], paths_ris_ms[0][..., 2:4]
    bins_s = dominant_bin(directional_param(aod[..., 0], aod[..., 1], g.spacing_ratio), g.n_s)
    bins_d = dominant_bin(directional_param(aoa[..., 0], aoa[..., 1], g.spacing_ratio), g.n_d)
    cells = bins_d[..., :, None] * g.n_s + bins_s[..., None, :]
    mask = np.zeros(upsilon.shape, dtype=bool)
    np.put_along_axis(mask, cells.reshape(cells.shape[:-2] + (-1,)), True, axis=-1)
    predicted = _indices(mask)
    if on_grid:
        mags = np.abs(upsilon)
        support = _indices(mags > SUPPORT_TOL * np.max(mags, axis=-1, keepdims=True))
    else:
        support = predicted
    return ChannelRealization(
        cascade=h,
        angular=h_tilde_herm.conj().swapaxes(-1, -2),
        sparse_vec=upsilon,
        support=support,
        predicted_support=predicted,
    )


def realize_physical(geometry, hop_bs_ris, hop_ris_ms, rng, on_grid=True):
    """Draw RIS phases, uniform in [0, 2 pi), compose the cascade, and transform to
    the angular domain.

    The one-realization case of :func:`realize_stack`, with the hops as
    :func:`draw_hop` returns them.
    """
    phases = rng.uniform(0.0, 2.0 * np.pi, geometry.n_r)
    return realize_stack(geometry, hop_bs_ris, hop_ris_ms, phases, on_grid)


def realize_synthetic(geometry, sparsity, rng, magnitude=1.0):
    """Exactly sparse ground truth drawn directly in the angular domain.

    A support of ``sparsity`` distinct uniform-random entries, then their
    uniform phases; every nonzero entry has the given magnitude and everything
    off the support is exactly zero.
    """
    dim = geometry.n_d * geometry.n_s
    idx = rng.choice(dim, size=sparsity, replace=False)
    (upsilon,), (support,) = sparse_stack(dim, idx[None], rng.random(sparsity)[None], magnitude)
    h_tilde_herm = unvec(upsilon, geometry.n_s, geometry.n_d)
    return ChannelRealization(
        cascade=inverse_angular_transform(upsilon, geometry),
        angular=h_tilde_herm.conj().T,
        sparse_vec=upsilon,
        support=support,
        predicted_support=support,
    )
