"""Frozen per-path reference for physical channel synthesis.

A literal copy of the scalar, one-path-at-a-time synthesis that the stacked
code in ``ris_crlb.channel`` replaced: the array responses, the hop sum, the
cascade, the angular transform, the support rules and the hop draw.  It
shares no code with the package, so the bit-equality tests that use it do not
depend on the code they check.
"""

from collections import namedtuple

import numpy as np

BS_TO_RIS = "bs_to_ris"
RIS_TO_MS = "ris_to_ms"
SUPPORT_TOL = 1e-8

Path = namedtuple("Path", "aod_elev aod_azim aoa_elev aoa_azim gain")
Hop = namedtuple("Hop", "paths path_loss")
Realization = namedtuple(
    "Realization", "cascade h_tilde_herm upsilon support predicted g_bs_ris g_ris_ms phases"
)


def dft_matrix(n):
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def directional_param(elev, azim, spacing_ratio=0.5):
    return 2.0 * np.pi * spacing_ratio * np.sin(elev) * np.cos(azim)


def ula_response(n, elev, azim, spacing_ratio=0.5):
    u = directional_param(elev, azim, spacing_ratio)
    return np.exp(1j * u * np.arange(n))


def upa_response(n_h, n_w, elev, azim, spacing_ratio=0.5):
    u_h = 2.0 * np.pi * spacing_ratio * np.cos(elev)
    u_w = 2.0 * np.pi * spacing_ratio * np.sin(elev) * np.cos(azim)
    ramp_h = np.exp(1j * u_h * np.arange(n_h))
    ramp_w = np.exp(1j * u_w * np.arange(n_w))
    return np.outer(ramp_h, ramp_w).ravel()


def build_hop(geometry, hop, side):
    g = geometry
    if side == BS_TO_RIS:
        rows, cols = g.n_r, g.n_s
        scale = np.sqrt(g.n_s * g.n_r / hop.path_loss)
    else:
        rows, cols = g.n_d, g.n_r
        scale = np.sqrt(g.n_r * g.n_d / hop.path_loss)
    out = np.zeros((rows, cols), dtype=np.complex128)
    for p in hop.paths:
        if side == BS_TO_RIS:
            left = upa_response(g.n_r_h, g.n_r_w, p.aoa_elev, p.aoa_azim, g.spacing_ratio)
            right = ula_response(g.n_s, p.aod_elev, p.aod_azim, g.spacing_ratio)
        else:
            left = ula_response(g.n_d, p.aoa_elev, p.aoa_azim, g.spacing_ratio)
            right = upa_response(g.n_r_h, g.n_r_w, p.aod_elev, p.aod_azim, g.spacing_ratio)
        out += p.gain * np.outer(left, right.conj())
    return scale * out


def compose_cascade(g_bs_ris, ris_phases, g_ris_ms):
    g1 = np.asarray(g_bs_ris, dtype=np.complex128)
    g2 = np.asarray(g_ris_ms, dtype=np.complex128)
    phases = np.asarray(ris_phases, dtype=np.float64)
    return g2 @ (np.exp(1j * phases)[:, None] * g1)


def angular_transform(h, geometry):
    h = np.asarray(h, dtype=np.complex128)
    u_s = dft_matrix(geometry.n_s)
    u_d = dft_matrix(geometry.n_d)
    h_tilde_herm = u_s.conj().T @ h.conj().T @ u_d
    return h_tilde_herm, h_tilde_herm.ravel(order="F")


def dominant_bin(u, n):
    grid = 2.0 * np.pi * np.arange(n) / n
    dist = np.abs(np.angle(np.exp(1j * (u - grid))))
    return int(np.argmin(dist))


def snap_angles(bin_index, n, spacing_ratio=0.5):
    u = float(np.angle(np.exp(2j * np.pi * bin_index / n)))
    x = abs(u) / (2.0 * np.pi * spacing_ratio)
    azim = 0.0 if u >= 0 else np.pi
    return float(np.arcsin(x)), azim


def draw_hop(geometry, n_paths, side, rng, on_grid, path_loss=None):
    g = geometry
    n_grid = g.n_s if side == BS_TO_RIS else g.n_d
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
            paths.append(Path(end_elev, end_azim, ris_elev, ris_azim, gain))
        else:
            paths.append(Path(ris_elev, ris_azim, end_elev, end_azim, gain))
    return Hop(tuple(paths), default_loss if path_loss is None else path_loss)


def predicted_support(geometry, hop_bs_ris, hop_ris_ms):
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


def realize_physical(geometry, hop_bs_ris, hop_ris_ms, rng, on_grid):
    g1 = build_hop(geometry, hop_bs_ris, BS_TO_RIS)
    g2 = build_hop(geometry, hop_ris_ms, RIS_TO_MS)
    phases = rng.uniform(0.0, 2.0 * np.pi, geometry.n_r)
    h = compose_cascade(g1, phases, g2)
    h_tilde_herm, upsilon = angular_transform(h, geometry)
    predicted = predicted_support(geometry, hop_bs_ris, hop_ris_ms)
    if on_grid:
        peak = np.max(np.abs(upsilon))
        support = tuple(int(i) for i in np.flatnonzero(np.abs(upsilon) > SUPPORT_TOL * peak))
    else:
        support = predicted
    return Realization(h, h_tilde_herm, upsilon, support, predicted, g1, g2, phases)


def draw_physical(geometry, hop_bs_ris, hop_ris_ms, rng, on_grid):
    """One trial's physical truth: two hop draws, then the realization, from one generator.

    ``hop_*`` are ``(n_paths, path_loss)`` pairs, ``path_loss`` None for the default.
    """
    hop1 = draw_hop(geometry, hop_bs_ris[0], BS_TO_RIS, rng, on_grid, hop_bs_ris[1])
    hop2 = draw_hop(geometry, hop_ris_ms[0], RIS_TO_MS, rng, on_grid, hop_ris_ms[1])
    return realize_physical(geometry, hop1, hop2, rng, on_grid)

