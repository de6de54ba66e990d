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
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
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
        if self.spacing_ratio <= 0:
            raise ValueError("spacing_ratio must be positive")

    @property
    def n_r(self):
        return self.n_r_h * self.n_r_w


@dataclass(frozen=True)
class PathParams:
    """Angles (radians) and complex gain of one propagation path."""

    aod_elev: float
    aod_azim: float
    aoa_elev: float
    aoa_azim: float
    gain: complex

    def __post_init__(self):
        angles = (self.aod_elev, self.aod_azim, self.aoa_elev, self.aoa_azim)
        if not all(math.isfinite(a) for a in angles):
            raise ValueError("path angles must be finite")
        for elev in (self.aod_elev, self.aoa_elev):
            if not 0.0 <= elev <= math.pi:
                raise ValueError(f"elevation {elev} outside [0, pi]")
        for azim in (self.aod_azim, self.aoa_azim):
            if not -math.pi <= azim <= math.pi:
                raise ValueError(f"azimuth {azim} outside [-pi, pi]")


@dataclass(frozen=True)
class HopModel:
    """Path list plus average path loss of one hop."""

    paths: tuple
    path_loss: float

    def __post_init__(self):
        if len(self.paths) == 0:
            raise ValueError("a hop needs at least one path")
        if self.path_loss <= 0:
            raise ValueError("path_loss must be positive")


@dataclass
class ChannelRealization:
    """One draw of the cascade channel and its sparse angular image.

    ``sparse_vec`` is vec of the conjugate-transposed angular matrix, the
    column-stacked length n_d*n_s vector the sensing model observes.  In
    synthetic mode the hop matrices and RIS phases are None.
    """

    mode: str
    cascade: np.ndarray           # (n_d, n_s)
    angular: np.ndarray           # (n_d, n_s)
    sparse_vec: np.ndarray        # (n_d*n_s,)
    support: tuple
    g_bs_ris: np.ndarray | None = None   # (n_r, n_s)
    g_ris_ms: np.ndarray | None = None   # (n_d, n_r)
    ris_phases: np.ndarray | None = None  # (n_r,) radians
    predicted_support: tuple = field(default=())


def directional_param(elev, azim, spacing_ratio=0.5):
    """Scalar phase increment u = 2*pi*(d/lambda)*sin(elev)*cos(azim)."""
    return 2.0 * np.pi * spacing_ratio * np.sin(elev) * np.cos(azim)


def ula_response(n, elev, azim, spacing_ratio=0.5):
    """Uniform linear array phase ramp [1, e^{ju}, ..., e^{j(n-1)u}]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u = directional_param(elev, azim, spacing_ratio)
    return np.exp(1j * u * np.arange(n))


def upa_response(n_h, n_w, elev, azim, spacing_ratio=0.5):
    """Uniform planar array response, Kronecker of the two axis ramps.

    The height axis sees u_h = 2*pi*(d/lambda)*cos(elev) and the width axis
    u_w = 2*pi*(d/lambda)*sin(elev)*cos(azim); result has length n_h*n_w.
    """
    if n_h < 1 or n_w < 1:
        raise ValueError("n_h and n_w must be >= 1")
    u_h = 2.0 * np.pi * spacing_ratio * np.cos(elev)
    u_w = 2.0 * np.pi * spacing_ratio * np.sin(elev) * np.cos(azim)
    ramp_h = np.exp(1j * u_h * np.arange(n_h))
    ramp_w = np.exp(1j * u_w * np.arange(n_w))
    # the products np.kron(ramp_h, ramp_w) forms, without its overhead
    return np.outer(ramp_h, ramp_w).ravel()


def build_hop(geometry, hop, side):
    """Sum-of-paths hop matrix.

    For ``bs_to_ris`` returns the (n_r, n_s) matrix
    sqrt(n_s*n_r/path_loss) * sum_i gain_i * a_ris(aoa_i) a_bs(aod_i)^H,
    for ``ris_to_ms`` the (n_d, n_r) analogue with the MS array on the
    left and the RIS array on the right.
    """
    g = geometry
    if side == BS_TO_RIS:
        rows, cols = g.n_r, g.n_s
        scale = np.sqrt(g.n_s * g.n_r / hop.path_loss)
    elif side == RIS_TO_MS:
        rows, cols = g.n_d, g.n_r
        scale = np.sqrt(g.n_r * g.n_d / hop.path_loss)
    else:
        raise ValueError(f"unknown hop side {side!r}")

    out = np.zeros((rows, cols), dtype=np.complex128)
    for p in hop.paths:
        if side == BS_TO_RIS:
            left = upa_response(g.n_r_h, g.n_r_w, p.aoa_elev, p.aoa_azim, g.spacing_ratio)
            right = ula_response(g.n_s, p.aod_elev, p.aod_azim, g.spacing_ratio)
        else:
            left = ula_response(g.n_d, p.aoa_elev, p.aoa_azim, g.spacing_ratio)
            right = upa_response(g.n_r_h, g.n_r_w, p.aod_elev, p.aod_azim, g.spacing_ratio)
        if left.shape[0] != rows or right.shape[0] != cols:
            raise DimensionMismatchError("path arrays disagree with geometry")
        out += p.gain * np.outer(left, right.conj())
    return scale * out


def compose_cascade(g_bs_ris, ris_phases, g_ris_ms):
    """Cascade H = G_ris_ms diag(e^{j phases}) G_bs_ris.

    Reflection amplitudes are fixed at one; only the phases vary.
    """
    g1 = np.asarray(g_bs_ris, dtype=np.complex128)
    g2 = np.asarray(g_ris_ms, dtype=np.complex128)
    phases = np.asarray(ris_phases, dtype=np.float64)
    n_r = g1.shape[0]
    if phases.shape != (n_r,) or g2.shape[1] != n_r:
        raise DimensionMismatchError(
            f"cascade dims do not chain: {g2.shape} x diag({phases.shape}) x {g1.shape}"
        )
    return g2 @ (np.exp(1j * phases)[:, None] * g1)


def angular_transform(h, geometry):
    """Angular-domain image of the cascade channel.

    Returns ``(h_tilde_herm, upsilon)`` where ``h_tilde_herm`` is the
    (n_s, n_d) matrix U_s^H H^H U_d and ``upsilon = vec(h_tilde_herm)`` is
    the column-stacked sparse vector of length n_d*n_s.  Vec index
    n*n_s + m (0-based) corresponds to MS bin n and BS bin m.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (geometry.n_d, geometry.n_s):
        raise DimensionMismatchError(
            f"h has shape {h.shape}, expected {(geometry.n_d, geometry.n_s)}"
        )
    u_s = dft_matrix(geometry.n_s)
    u_d = dft_matrix(geometry.n_d)
    h_tilde_herm = u_s.conj().T @ h.conj().T @ u_d
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
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = 2.0 * np.pi * np.arange(n) / n
    dist = np.abs(np.angle(np.exp(1j * (u - grid))))
    return int(np.argmin(dist))


def grid_parameter(bin_index, n):
    """Directional parameter of grid point ``bin_index``, wrapped to (-pi, pi]."""
    return float(np.angle(np.exp(2j * np.pi * bin_index / n)))


def snap_angles(bin_index, n, spacing_ratio=0.5):
    """Elevation/azimuth pair whose directional parameter hits grid point ``bin_index``.

    Azimuth is fixed to 0 for nonnegative wrapped grid values and pi for
    negative ones (cos(azim) = +-1), then elevation = arcsin(|u|/(2 pi d/lambda)).
    Requires spacing_ratio >= 1/2 so the whole grid is reachable.
    """
    u = grid_parameter(bin_index, n)
    amp = 2.0 * np.pi * spacing_ratio
    x = abs(u) / amp
    if x > 1.0:
        raise ValueError(
            f"grid point {bin_index}/{n} unreachable at spacing_ratio={spacing_ratio}"
        )
    azim = 0.0 if u >= 0 else np.pi
    return float(np.arcsin(x)), azim


def synth_sparse_signal(dim, sparsity, rng, magnitude=1.0):
    """Exactly sparse complex vector with uniform-random support and phases.

    Every nonzero entry has the given magnitude and an independent uniform
    phase; everything off the support is exactly zero.  Returns the vector
    and the sorted support tuple.
    """
    if not 1 <= sparsity <= dim:
        raise ValueError(f"sparsity must be in [1, {dim}], got {sparsity}")
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    idx = rng.choice(dim, size=sparsity, replace=False)
    v = np.zeros(dim, dtype=np.complex128)
    v[idx] = magnitude * np.exp(2j * np.pi * rng.random(sparsity))
    return v, tuple(sorted(int(i) for i in idx))


def _grid_size(geometry, side, n_paths=1):
    """DFT grid size of the endpoint (BS or MS) array of a hop.

    Raises ValueError unless ``n_paths`` distinct on-grid paths fit in it.
    """
    if side == BS_TO_RIS:
        n_grid = geometry.n_s
    elif side == RIS_TO_MS:
        n_grid = geometry.n_d
    else:
        raise ValueError(f"unknown hop side {side!r}")
    if n_paths > n_grid:
        raise ValueError(f"cannot place {n_paths} distinct on-grid paths in {n_grid} bins")
    return n_grid


def check_on_grid(geometry, n_paths, side):
    """Raise ValueError unless on-grid :func:`draw_hop` succeeds whatever bins
    it draws: the paths fit in distinct bins and :func:`snap_angles` reaches
    every bin at the geometry's spacing."""
    n_grid = _grid_size(geometry, side, n_paths)
    for b in range(n_grid):
        snap_angles(b, n_grid, geometry.spacing_ratio)


def draw_hop(geometry, n_paths, side, rng, on_grid, path_loss=None):
    """Random hop with the endpoint-side departure/arrival angles drawn per mode.

    In on-grid mode the BS-side (or MS-side) directional parameters are
    snapped to distinct DFT grid points; the RIS-side angles are always
    unconstrained since they never affect angular-domain sparsity.  Gains
    have unit magnitude and uniform phase.  Default path loss cancels the
    sqrt(N*N/loss) leading scale.
    """
    g = geometry
    n_grid = _grid_size(g, side, n_paths if on_grid else 1)
    default_loss = float(n_grid * g.n_r)

    def rand_pair():
        return float(rng.uniform(0.0, np.pi)), float(rng.uniform(-np.pi, np.pi))

    paths = []
    bins = rng.choice(n_grid, size=n_paths, replace=False) if on_grid else None
    for i in range(n_paths):
        if on_grid:
            end_elev, end_azim = snap_angles(int(bins[i]), n_grid, g.spacing_ratio)
        else:
            end_elev, end_azim = rand_pair()
        ris_elev, ris_azim = rand_pair()
        gain = np.exp(2j * np.pi * rng.random())
        if side == BS_TO_RIS:
            # AoD at the BS fixes the angular bin, AoA at the RIS is free
            paths.append(PathParams(end_elev, end_azim, ris_elev, ris_azim, gain))
        else:
            # AoD at the RIS is free, AoA at the MS fixes the angular bin
            paths.append(PathParams(ris_elev, ris_azim, end_elev, end_azim, gain))
    return HopModel(tuple(paths), default_loss if path_loss is None else path_loss)


def predicted_support(geometry, hop_bs_ris, hop_ris_ms):
    """Vec indices of the angular bins the path geometry should occupy.

    One bin pair per (BS path, MS path) combination; collisions collapse.
    """
    g = geometry
    bins_s = {
        dominant_bin(directional_param(p.aod_elev, p.aod_azim, g.spacing_ratio), g.n_s)
        for p in hop_bs_ris.paths
    }
    bins_d = {
        dominant_bin(directional_param(p.aoa_elev, p.aoa_azim, g.spacing_ratio), g.n_d)
        for p in hop_ris_ms.paths
    }
    return tuple(sorted(n * g.n_s + m for n in bins_d for m in bins_s))


def realize_physical(geometry, hop_bs_ris, hop_ris_ms, rng, ris_phases=None, on_grid=True):
    """Draw RIS phases, compose the cascade, and transform to the angular domain.

    The recorded support is the set of entries above SUPPORT_TOL of the peak
    magnitude when ``on_grid`` (exact sparsity holds there), otherwise the
    dominant-bin prediction (off-grid leakage makes thresholding meaningless).
    """
    g1 = build_hop(geometry, hop_bs_ris, BS_TO_RIS)
    g2 = build_hop(geometry, hop_ris_ms, RIS_TO_MS)
    if ris_phases is None:
        ris_phases = rng.uniform(0.0, 2.0 * np.pi, geometry.n_r)
    h = compose_cascade(g1, ris_phases, g2)
    h_tilde_herm, upsilon = angular_transform(h, geometry)
    predicted = predicted_support(geometry, hop_bs_ris, hop_ris_ms)
    if on_grid:
        peak = np.max(np.abs(upsilon))
        support = tuple(int(i) for i in np.flatnonzero(np.abs(upsilon) > SUPPORT_TOL * peak))
        mode = "physical_on_grid"
    else:
        support = predicted
        mode = "physical_off_grid"
    return ChannelRealization(
        mode=mode,
        cascade=h,
        angular=h_tilde_herm.conj().T,
        sparse_vec=upsilon,
        support=support,
        g_bs_ris=g1,
        g_ris_ms=g2,
        ris_phases=np.asarray(ris_phases, dtype=np.float64),
        predicted_support=predicted,
    )


def realize_synthetic(geometry, sparsity, rng, magnitude=1.0):
    """Exactly sparse ground truth drawn directly in the angular domain."""
    dim = geometry.n_d * geometry.n_s
    upsilon, support = synth_sparse_signal(dim, sparsity, rng, magnitude)
    h_tilde_herm = unvec(upsilon, geometry.n_s, geometry.n_d)
    return ChannelRealization(
        mode="synthetic",
        cascade=inverse_angular_transform(upsilon, geometry),
        angular=h_tilde_herm.conj().T,
        sparse_vec=upsilon,
        support=support,
        predicted_support=support,
    )
