"""Steering vectors, multipath delay-tap beam-space channels, and cell geometry.

Angles are radians measured from array boresight.  A delay-tap channel holds
taps H_j = A_rx @ diag(g_j) @ A_tx^H at integer delays d_j in samples.  In a
trial's link (``draw_link``) g_j[r] is ray r's gain at its own delay and 0
elsewhere; ``build_channel`` samples the pulse, g_l[r] = beta_r * p(l - tau_r).
Propagation realizes the circular-convolution burst model: the sync symbol
occupies ``n`` consecutive samples of an otherwise noise-only window.  A
trial's links draw here: a neighbour's shadowing (``neighbour_geometry``)
before its ``draw_link``, and ``sum_bursts`` adds the cells' bursts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waveform import CP_LENGTH


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array with half-wavelength element spacing."""

    kind: str  # "ula", the one array model
    n_elements: int

    def __post_init__(self):
        if self.kind != "ula":
            raise ValueError(f"unknown array kind {self.kind!r}; only 'ula' is modeled")
        if self.n_elements < 1:
            raise ValueError("array needs at least one element")


def steering_vector(geom: ArrayGeometry, azimuth: float) -> np.ndarray:
    """Unit-modulus array response; boresight gives the all-ones vector.

    The elements ride the azimuth phase ramp exp(-j*pi*m*sin(az)) of
    half-wavelength spacing.
    """
    m = np.arange(geom.n_elements)
    return np.exp(-1j * np.pi * m * math.sin(azimuth))


@dataclass(frozen=True)
class PathSet:
    """Discrete multipath rays: complex gains, departure/arrival azimuths, delays in samples.

    Every ray departs at zero elevation.
    """

    gains: np.ndarray
    aod_az: np.ndarray
    aoa: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        n = len(self.gains)
        if n < 1:
            raise ValueError("path set needs at least one path")
        for name in ("aod_az", "aoa", "delays"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if np.any(np.asarray(self.delays) < 0):
            raise ValueError("delays must be nonnegative")


def single_path(aod_az: float, aoa: float, gain: complex = 1.0) -> PathSet:
    """One ray at zero delay."""
    return PathSet(
        gains=np.array([gain], dtype=np.complex128),
        aod_az=np.array([aod_az]),
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
    """Delay-tap MIMO channel: tap ``taps[j]`` acts ``delays[j]`` samples late."""

    taps: np.ndarray  # (J, m_tot, n_tot)
    delays: np.ndarray  # (J,) integer delays in samples
    isi_warning: bool = False


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
    g = paths.gains[None, :] * pulse(np.arange(tap_count)[:, None] - paths.delays[None, :])
    isi = cp_length is not None and bool(np.any(paths.delays > cp_length))
    return BeamSpaceChannel(taps=_taps(paths, g, geom_tx, geom_rx), delays=np.arange(tap_count), isi_warning=isi)


def _taps(paths: PathSet, g: np.ndarray, geom_tx: ArrayGeometry, geom_rx: ArrayGeometry) -> np.ndarray:
    """taps[l] = A_rx @ diag(g[l]) @ A_tx^H: ray r weighs g[l, r] in tap l, (L, m_tot, n_tot)."""
    a_tx = np.stack([steering_vector(geom_tx, az) for az in paths.aod_az], axis=1)  # (n_tot, R)
    a_rx = np.stack([steering_vector(geom_rx, aoa) for aoa in paths.aoa], axis=1)  # (m_tot, R)
    return np.ascontiguousarray(np.einsum("mr,lr,nr->lmn", a_rx, g, np.conj(a_tx)))


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
    taps, each rolling the symbol by its delay (the discarded CP's effect), and a
    per-sample phase ramp exp(j*2*pi*cfo*n/N); every other sample is a pure
    CN(0, noise_var) draw, as is the additive noise on the burst itself.
    ``tx_vector`` is the common transmit vector of every sample; ``rng``
    draws the noise and is needed only when noise_var > 0.  The burst is
    built in the window it returns, and the noise added to it afterwards.
    """
    waveform = np.asarray(waveform)
    n = waveform.shape[0]
    if not 0 <= start_index <= window_len - n:
        raise ValueError(
            f"start_index {start_index} outside [0, {window_len - n}] for window {window_len}"
        )
    if noise_var > 0 and rng is None:
        raise ValueError("noise_var > 0 needs an rng")
    y = np.zeros((ch.taps.shape[1], window_len), dtype=np.complex128)
    burst = y[:, start_index : start_index + n]
    for d, h in zip(ch.delays.tolist(), ch.taps @ np.asarray(tx_vector)):
        burst += np.outer(h, np.roll(waveform, d))
    if cfo != 0.0:
        burst *= np.exp(2j * np.pi * cfo * np.arange(n) / n)[None, :]
    if noise_var > 0:
        y += math.sqrt(noise_var / 2.0) * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return y


def sum_bursts(links, tx_vector: np.ndarray, cfo: float) -> np.ndarray:
    """Every link's noiseless ``propagate`` burst, as long as its sync samples,
    summed in link order; ``links`` holds one (channel, sync time samples) pair per cell."""
    first, *rest = (propagate(ch, samples, tx_vector, 0.0, cfo, 0, len(samples)) for ch, samples in links)
    return sum(rest, first)


@dataclass(frozen=True)
class CellLayout:
    """BS positions in meters, the coverage radius and each cell's sequence root."""

    centers: np.ndarray  # (n_cells, 2)
    cell_radius_m: float
    min_distance_m: float
    roots: tuple[int, ...]


def single_cell_layout(radius_m: float, min_distance_m: float, root: int) -> CellLayout:
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


# Edge-referenced log-distance path loss with lognormal shadowing.
PATHLOSS_EXPONENT = 3.2
SHADOWING_SIGMA_DB = 8.0


@dataclass(frozen=True)
class UserDrop:
    """One placed user with its geometry-derived large-scale gain.

    ``amp_gain`` is a linear amplitude scaling referenced to the cell edge
    (``pathloss_amp_gain``), so a UE at ``cell_radius_m`` with zero
    shadowing has gain 1.
    """

    position: np.ndarray  # (2,), meters
    azimuth: float  # AoD seen from the serving BS
    amp_gain: float


def drop_users(layout: CellLayout, rng: np.random.Generator, sector_halfwidth: float) -> UserDrop:
    """Uniformly place one user in the sector wedge of the layout's first
    cell, min-distance respected; the radius is drawn first, then the
    azimuth, then the shadowing."""
    r_min, r_max = layout.min_distance_m, layout.cell_radius_m
    radius = math.sqrt(rng.uniform(r_min**2, r_max**2))
    azimuth = rng.uniform(-sector_halfwidth, sector_halfwidth)
    position = layout.centers[0] + radius * np.array([math.cos(azimuth), math.sin(azimuth)])
    shadow_db = rng.normal(0.0, SHADOWING_SIGMA_DB)
    return UserDrop(position, azimuth, pathloss_amp_gain(radius, r_max, shadow_db))


def pathloss_amp_gain(distance_m: float, reference_m: float, shadow_db: float = 0.0) -> float:
    """Edge-referenced log-distance amplitude gain for an arbitrary link."""
    # numpy's array log10 and power: math's differ from them in the last bit on some
    # inputs, and the cell-mode golden rows pin these bytes
    power_db = -10.0 * PATHLOSS_EXPONENT * np.log10(np.array([distance_m / reference_m])) - shadow_db
    return float((10.0 ** (power_db / 20.0))[0])


def neighbour_geometry(rng: np.random.Generator, centre: np.ndarray, ue_position: np.ndarray,
                       reference_m: float) -> tuple[float, float]:
    """A neighbour's AoD to the UE from its sector boresight, which faces the
    central cell at the origin, and its amplitude gain; it draws the shadowing."""
    vec = ue_position - centre
    aod = math.atan2(vec[1], vec[0]) - math.atan2(-centre[1], -centre[0])
    aod = (aod + math.pi) % (2.0 * math.pi) - math.pi  # wrapped to [-pi, pi)
    shadow = rng.normal(0.0, SHADOWING_SIGMA_DB)
    return aod, pathloss_amp_gain(float(np.hypot(vec[0], vec[1])), reference_m, shadow)


# Clustered multipath: cluster count, rays per cluster, per-ray angle spread
# (radians) and mean excess cluster delay (samples).
N_CLUSTERS = 3
PATHS_PER_CLUSTER = 4
ANGLE_SPREAD = math.radians(4.0)
DELAY_SPREAD_SAMPLES = 12.0


def clustered_paths(rng: np.random.Generator, center_az: float, aoa_center: float) -> PathSet:
    """Parametric clustered multipath generator, unit total path power.

    Sample-spaced tapped-delay-line structure: every ray of a cluster shares
    the cluster's integer delay (rays differ in angle and phase, so each tap
    keeps spatial richness), the leading cluster arrives at delay 0 and
    defines the frame-timing reference, and later clusters trail by several
    samples with exponentially distributed excess delays and powers decaying
    as exp(-k / 0.6) over cluster index k.
    """
    n_paths = N_CLUSTERS * PATHS_PER_CLUSTER
    cluster_az = center_az + rng.normal(0.0, ANGLE_SPREAD, size=N_CLUSTERS)
    cluster_aoa = aoa_center + rng.normal(0.0, ANGLE_SPREAD, size=N_CLUSTERS)
    cluster_delay = np.rint(3.0 + rng.exponential(DELAY_SPREAD_SAMPLES, size=N_CLUSTERS))
    cluster_delay[0] = 0.0
    cluster_pow = np.exp(-np.arange(N_CLUSTERS) / 0.6)

    def laplacian(n, scale):
        u = rng.uniform(-0.5, 0.5, size=n)
        return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))

    aod_az = np.repeat(cluster_az, PATHS_PER_CLUSTER) + laplacian(n_paths, ANGLE_SPREAD)
    aoa = np.repeat(cluster_aoa, PATHS_PER_CLUSTER) + laplacian(n_paths, ANGLE_SPREAD)
    delays = np.repeat(cluster_delay, PATHS_PER_CLUSTER)
    power = np.repeat(cluster_pow / PATHS_PER_CLUSTER, PATHS_PER_CLUSTER)
    gains = np.sqrt(power / power.sum()) * np.exp(2j * np.pi * rng.random(n_paths))
    return PathSet(
        gains=gains,
        aod_az=aod_az,
        aoa=aoa,
        delays=delays,
    )


def draw_link(rng: np.random.Generator, regime: str, geom_tx: ArrayGeometry, geom_rx: ArrayGeometry,
              aod_az: float, amp: float) -> BeamSpaceChannel:
    """One cell's link to the UE: one tap per distinct delay of its rays, gains scaled by ``amp``.

    The AoA is drawn first, then the flat ray's phase or the clustered rays.
    Rays at or past ``CP_LENGTH`` are dropped.  Delays are integer samples,
    so a tap holds exactly the rays at its delay, each weighed by its own
    gain, and no pulse is sampled.
    """
    aoa = rng.uniform(-np.pi / 2, np.pi / 2)
    if regime == "flat":
        paths = single_path(aod_az, aoa, np.exp(2j * np.pi * rng.random()))
    else:
        paths = clustered_paths(rng, center_az=aod_az, aoa_center=aoa)
    delays = np.unique(paths.delays[paths.delays < CP_LENGTH]).astype(np.int64)
    g = np.where(paths.delays[None, :] == delays[:, None], amp * paths.gains[None, :], 0.0)  # (taps, rays)
    return BeamSpaceChannel(_taps(paths, g, geom_tx, geom_rx), delays)
