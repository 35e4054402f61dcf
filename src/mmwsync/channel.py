"""Steering vectors, multipath delay-tap beam-space channels, and cell geometry.

Angles are radians measured from array boresight.  The delay-tap channel is
H[l] = A_rx @ diag(g[:, l]) @ A_tx^H with g[r, l] = beta_r * p(l - tau_r),
where p is the pulse shape sampled at symbol spacing and tau is expressed in
samples.  Propagation realizes the circular-convolution burst model: the sync
symbol occupies ``n`` consecutive samples of an otherwise noise-only window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear or planar array with half-wavelength element spacing."""

    kind: str  # "ula" | "upa"
    n_elements: int
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in ("ula", "upa"):
            raise ValueError(f"unknown array kind {self.kind!r}")
        if self.n_elements < 1:
            raise ValueError("array needs at least one element")
        if self.kind == "upa":
            if self.shape is None or self.shape[0] * self.shape[1] != self.n_elements:
                raise ValueError(f"UPA shape {self.shape} inconsistent with {self.n_elements} elements")


def steering_vector(geom: ArrayGeometry, azimuth: float, elevation: float = 0.0) -> np.ndarray:
    """Unit-modulus array response; boresight (0, 0) gives the all-ones vector.

    ULA elements ride the azimuth phase ramp exp(-j*pi*m*sin(az)) of
    half-wavelength spacing.  A UPA is the Kronecker product of the two axis
    ramps with direction cosines u = cos(el)*sin(az) and v = sin(el).
    """
    if geom.kind == "ula":
        m = np.arange(geom.n_elements)
        return np.exp(-1j * np.pi * m * math.sin(azimuth))
    nx, ny = geom.shape
    u = math.cos(elevation) * math.sin(azimuth)
    v = math.sin(elevation)
    ax = np.exp(-1j * np.pi * np.arange(nx) * u)
    ay = np.exp(-1j * np.pi * np.arange(ny) * v)
    return np.kron(ax, ay)


@dataclass(frozen=True)
class PathSet:
    """Discrete multipath rays: complex gains, departure/arrival angles, delays in samples."""

    gains: np.ndarray
    aod_az: np.ndarray
    aod_el: np.ndarray
    aoa: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        n = len(self.gains)
        if n < 1:
            raise ValueError("path set needs at least one path")
        for name in ("aod_az", "aod_el", "aoa", "delays"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if np.any(np.asarray(self.delays) < 0):
            raise ValueError("delays must be nonnegative")


def single_path(aod_az: float, aoa: float, gain: complex = 1.0) -> PathSet:
    """One ray at zero elevation and zero delay."""
    return PathSet(
        gains=np.array([gain], dtype=np.complex128),
        aod_az=np.array([aod_az]),
        aod_el=np.array([0.0]),
        aoa=np.array([aoa]),
        delays=np.array([0.0]),
    )


@dataclass(frozen=True)
class RaisedCosinePulse:
    """Raised-cosine pulse sampled at symbol spacing (tau in samples)."""

    rolloff: float = 0.25

    def __call__(self, tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=np.float64)
        beta = self.rolloff
        sinc = np.sinc(tau)
        if beta == 0.0:
            return sinc
        denom = 1.0 - np.square(2.0 * beta * tau)
        # remove the 0/0 at |tau| = 1/(2 beta); limit value is (pi/4) sinc(1/(2 beta))
        singular = np.isclose(np.abs(denom), 0.0, atol=1e-12)
        safe = np.where(singular, 1.0, denom)
        out = sinc * np.cos(np.pi * beta * tau) / safe
        if np.any(singular):
            lim = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * beta))
            out = np.where(singular, lim, out)
        return out


@dataclass
class BeamSpaceChannel:
    """Delay-tap MIMO channel."""

    taps: np.ndarray  # (tap_count, m_tot, n_tot)
    isi_warning: bool = False

    @property
    def tap_count(self) -> int:
        return self.taps.shape[0]


def build_channel(
    paths: PathSet,
    geom_tx: ArrayGeometry,
    geom_rx: ArrayGeometry,
    tap_count: int,
    pulse: RaisedCosinePulse | None = None,
    cp_length: int | None = None,
) -> BeamSpaceChannel:
    """Assemble the delay-tap matrices from rays, geometry and pulse shape.

    Delays beyond ``cp_length`` (when given) only set ``isi_warning``;
    inter-symbol interference itself is not modeled.
    """
    if tap_count < 1:
        raise ValueError("tap_count must be >= 1")
    if pulse is None:
        pulse = RaisedCosinePulse()
    a_tx = np.stack(
        [steering_vector(geom_tx, az, el) for az, el in zip(paths.aod_az, paths.aod_el)],
        axis=1,
    )  # (n_tot, R)
    a_rx = np.stack([steering_vector(geom_rx, aoa) for aoa in paths.aoa], axis=1)  # (m_tot, R)
    l_idx = np.arange(tap_count)[:, None]
    g = paths.gains[None, :] * pulse(l_idx - paths.delays[None, :])  # (L, R)
    # taps[l] = a_rx @ diag(g[l]) @ a_tx^H
    taps = np.einsum("mr,lr,nr->lmn", a_rx, g, np.conj(a_tx))
    isi = cp_length is not None and bool(np.any(paths.delays > cp_length))
    return BeamSpaceChannel(taps=np.ascontiguousarray(taps), isi_warning=isi)


def propagate(
    ch: BeamSpaceChannel,
    waveform: np.ndarray,
    tx_vector: np.ndarray,
    noise_var: float,
    cfo: float,
    start_index: int,
    window_len: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Received per-antenna window: circular-convolution burst plus noise.

    The sync samples occupy ``start_index .. start_index + n - 1`` through the
    tap filter (cyclic in the symbol, the effect of the discarded CP) and a
    per-sample phase ramp exp(j*2*pi*cfo*n/N); every other sample is a pure
    CN(0, noise_var) draw, as is the additive noise on the burst itself.
    ``tx_vector`` is the common transmit vector of every sample; ``rng``
    draws the noise and is needed only when noise_var > 0.
    """
    waveform = np.asarray(waveform)
    n = waveform.shape[0]
    if not 0 <= start_index <= window_len - n:
        raise ValueError(
            f"start_index {start_index} outside [0, {window_len - n}] for window {window_len}"
        )
    m_tot = ch.taps.shape[1]
    y = np.zeros((m_tot, window_len), dtype=np.complex128)
    if noise_var > 0:
        if rng is None:
            raise ValueError("noise_var > 0 needs an rng")
        scale = math.sqrt(noise_var / 2.0)
        y += scale * (
            rng.standard_normal((m_tot, window_len)) + 1j * rng.standard_normal((m_tot, window_len))
        )
    h_vec = ch.taps @ np.asarray(tx_vector)  # (L, m_tot)
    burst = np.zeros((m_tot, n), dtype=np.complex128)
    for l in range(ch.tap_count):
        burst += np.outer(h_vec[l], np.roll(waveform, l))
    if cfo != 0.0:
        burst = burst * np.exp(2j * np.pi * cfo * np.arange(n) / n)[None, :]
    y[:, start_index : start_index + n] += burst
    return y


@dataclass(frozen=True)
class CellLayout:
    """BS positions in meters, the coverage radius and each cell's sequence root."""

    centers: np.ndarray  # (n_cells, 2)
    cell_radius_m: float
    min_distance_m: float
    roots: tuple[int, ...]


def single_cell_layout(radius_m: float = 150.0, min_distance_m: float = 20.0,
                       root: int = 34) -> CellLayout:
    return CellLayout(
        centers=np.zeros((1, 2)),
        cell_radius_m=radius_m,
        min_distance_m=min_distance_m,
        roots=(root,),
    )


def hex_layout(isd_m: float = 500.0, min_distance_m: float = 20.0,
               roots: tuple[int, int, int] = (25, 29, 34)) -> CellLayout:
    """Seven-cell hexagonal layout: central cell plus a ring of six.

    The central cell takes roots[0]; the two remaining roots alternate around
    the ring so adjacent cells always differ.
    """
    angles = np.deg2rad(60.0 * np.arange(6))
    ring = isd_m * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    centers = np.vstack([np.zeros((1, 2)), ring])
    assigned = (roots[0],) + tuple(roots[1 + (i % 2)] for i in range(6))
    return CellLayout(
        centers=centers,
        cell_radius_m=isd_m / 2.0,
        min_distance_m=min_distance_m,
        roots=assigned,
    )


@dataclass(frozen=True)
class UserDrop:
    """Placed users with geometry-derived large-scale gains.

    ``amp_gains`` are linear amplitude scalings referenced to the cell edge:
    log-distance path loss with the configured exponent plus lognormal
    shadowing, so a UE at ``cell_radius_m`` with zero shadowing has gain 1.
    """

    positions: np.ndarray  # (n_ue, 2), meters, relative to the serving BS
    azimuths: np.ndarray  # AoD seen from the serving BS
    amp_gains: np.ndarray


def drop_users(
    layout: CellLayout,
    n_ue: int,
    rng: np.random.Generator,
    sector_halfwidth: float = math.radians(60.0),
    pathloss_exponent: float = 3.2,
    shadowing_sigma_db: float = 8.0,
) -> UserDrop:
    """Uniformly place users in the sector wedge of the layout's first cell,
    min-distance respected."""
    if n_ue < 1:
        raise ValueError("n_ue must be >= 1")
    r_min, r_max = layout.min_distance_m, layout.cell_radius_m
    radii = np.sqrt(rng.uniform(r_min**2, r_max**2, size=n_ue))
    azimuths = rng.uniform(-sector_halfwidth, sector_halfwidth, size=n_ue)
    positions = layout.centers[0] + np.stack(
        [radii * np.cos(azimuths), radii * np.sin(azimuths)], axis=1
    )
    shadow_db = rng.normal(0.0, shadowing_sigma_db, size=n_ue)
    power_db = -10.0 * pathloss_exponent * np.log10(radii / r_max) - shadow_db
    return UserDrop(
        positions=positions,
        azimuths=azimuths,
        amp_gains=10.0 ** (power_db / 20.0),
    )


def pathloss_amp_gain(distance_m: float, reference_m: float, pathloss_exponent: float = 3.2,
                      shadow_db: float = 0.0) -> float:
    """Edge-referenced log-distance amplitude gain for an arbitrary link."""
    power_db = -10.0 * pathloss_exponent * math.log10(distance_m / reference_m) - shadow_db
    return 10.0 ** (power_db / 20.0)


def clustered_paths(
    rng: np.random.Generator,
    center_az: float,
    aoa_center: float,
    n_clusters: int = 3,
    paths_per_cluster: int = 4,
    angle_spread: float = math.radians(4.0),
    delay_spread: float = 12.0,
) -> PathSet:
    """Parametric clustered multipath generator, unit total path power.

    Sample-spaced tapped-delay-line structure: every ray of a cluster shares
    the cluster's integer delay (rays differ in angle and phase, so each tap
    keeps spatial richness), the leading cluster arrives at delay 0 and
    defines the frame-timing reference, and later clusters trail by several
    samples with exponentially distributed excess delays and powers decaying
    as exp(-k / 0.6) over cluster index k.  Every ray departs at zero
    elevation.
    """
    n_paths = n_clusters * paths_per_cluster
    cluster_az = center_az + rng.normal(0.0, angle_spread, size=n_clusters)
    cluster_aoa = aoa_center + rng.normal(0.0, angle_spread, size=n_clusters)
    cluster_delay = np.rint(3.0 + rng.exponential(delay_spread, size=n_clusters))
    cluster_delay[0] = 0.0
    cluster_pow = np.exp(-np.arange(n_clusters) / 0.6)

    def laplacian(n, scale):
        u = rng.uniform(-0.5, 0.5, size=n)
        return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))

    aod_az = np.repeat(cluster_az, paths_per_cluster) + laplacian(n_paths, angle_spread)
    aoa = np.repeat(cluster_aoa, paths_per_cluster) + laplacian(n_paths, angle_spread)
    delays = np.repeat(cluster_delay, paths_per_cluster)
    power = np.repeat(cluster_pow / paths_per_cluster, paths_per_cluster)
    gains = np.sqrt(power / power.sum()) * np.exp(2j * np.pi * rng.random(n_paths))
    return PathSet(
        gains=gains,
        aod_az=aod_az,
        aod_el=np.zeros(n_paths),
        aoa=aoa,
        delays=delays,
    )
