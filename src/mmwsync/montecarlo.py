"""Monte Carlo experiment harness: SQNR CDFs, timing NMSE sweeps, CFO sweeps,
multi-cell detection and slot-access statistics.

Conventions shared by all experiments:

* Transmit SNR is the average received sync-sample SNR before beamforming
  and receive processing, referenced to the cell-edge path gain; the noise
  variance is sigma^2 = (E_d / N) * 10^(-snr_db/10) with E_d the grid energy.
* Beam plans are semi-static: selected once per scenario from the anchor
  grid, then reused by every trial (no channel knowledge).
* Every experiment draws its trials through ``_trials``: the UE drop the
  mode implies, the serving link and, in ``multi_cell``, the six
  interfering links, all from one generator per trial.
* Two noise keys.  The trial stream is spawned from (seed, scenario hash,
  trial index) and draws the channel, the timing and the sqnr and timing
  noise.  Multicell slot noise is spawned from (seed, trial, slot, SNR
  index) instead.  All method/resolution arms of a trial share the same
  channel, timing and noise draws, so method comparisons are paired.  In the
  sqnr experiment the arms of one (trial, SNR, transmit vector) also share
  the noisy window, its AGC and its 1/AGC scaling: only the quantizer
  differs between them.
* The timing and multicell windows of one chunk share one workspace
  (``_window_workspace``): each window is built, AGC-scaled, quantized and
  correlated in the same fixed buffers, so no window allocates its own.
* Each synchronization attempt is one burst in an otherwise noise-only
  window of t_ue symbols (non-sync samples are modeled as noise).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import __version__ as _VERSION
from . import beamforming, channel, detector, optimizer, quantization, sqnr, waveform


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectorConfig:
    azimuth_deg: tuple[float, float] = (-60.0, 60.0)
    elevation_deg: tuple[float, float] = (-45.0, 45.0)


@dataclass(frozen=True)
class ChannelConfig:
    regime: str = "flat"  # flat | clustered
    n_clusters: int = 3
    paths_per_cluster: int = 4
    angle_spread_deg: float = 4.0
    delay_spread_samples: float = 12.0
    rolloff: float = 0.25

    def __post_init__(self):
        if self.regime not in ("flat", "clustered"):
            raise ValueError(f"unknown channel regime {self.regime!r}")


@dataclass(frozen=True)
class CellConfig:
    radius_m: float = 150.0
    isd_m: float = 500.0
    min_distance_m: float = 20.0
    n_ue: int = 10
    roots: tuple[int, int, int] = (25, 29, 34)
    pathloss_exponent: float = 3.2
    shadowing_sigma_db: float = 8.0


def _check_zc_root(key: str, root: int, n_zc: int) -> None:
    """A Zadoff-Chu root must lie in [1, n_zc) and be coprime with n_zc."""
    if not 1 <= root < n_zc or math.gcd(root, n_zc) != 1:
        raise ValueError(f"{key} must be in [1, n_zc) and coprime with n_zc={n_zc}, got {root}")


@dataclass(frozen=True)
class Scenario:
    """Resolved experiment configuration; defaults follow the reference numerology."""

    mode: str = "single_ue"  # single_ue | multi_ue_cell | multi_cell
    n_subcarriers: int = 512
    cp_length: int = 64
    n_zc: int = 63
    zc_root: int = 34
    subcarrier_spacing_khz: float = 270.0
    n_tot: int = 32
    n_rf: int = 4
    m_tot: int = 16
    bs_geometry: str = "ula"  # ula | upa
    bs_upa_shape: tuple[int, int] | None = None
    codebook_oversampling: int = 2
    t_bs: int = 8
    t_ue: int = 10
    adc_bits: tuple[float, ...] = (2.0, math.inf)
    snr_db_grid: tuple[float, ...] = (0.0,)
    cfo_grid: tuple[float, ...] = (0.0,)
    trials: int = 2000
    inner_repeats: int = 64
    seed: int = 1
    lambda_max_inv_db: float = -20.0
    search_budget: int = 2**20
    sector: SectorConfig = field(default_factory=SectorConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    cell: CellConfig = field(default_factory=CellConfig)

    def __post_init__(self):
        if self.mode not in ("single_ue", "multi_ue_cell", "multi_cell"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.bs_geometry not in ("ula", "upa"):
            raise ValueError(f"unknown bs_geometry {self.bs_geometry!r}")
        if self.n_tot % self.n_rf != 0:
            raise ValueError("n_tot must be a multiple of n_rf")
        if not 0 <= self.cp_length < self.n_subcarriers:
            raise ValueError("cp_length must be in [0, n_subcarriers)")
        if self.cp_length == 0 and self.channel.regime == "clustered":
            raise ValueError("cp_length must be >= 1 for a clustered channel (it caps the taps)")
        if self.n_zc >= self.n_subcarriers:
            raise ValueError("n_zc must be smaller than n_subcarriers")
        _check_zc_root("zc_root", self.zc_root, self.n_zc)
        for root in self.cell.roots:
            _check_zc_root("cell.roots", root, self.n_zc)
        if len(set(self.cell.roots)) != 3:
            raise ValueError(f"cell.roots must be three distinct roots, got {self.cell.roots}")
        if self.t_ue < 2:
            raise ValueError("t_ue must be >= 2 (window needs noise-only lags)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.inner_repeats < 2:
            raise ValueError("inner_repeats must be >= 2 (the SQNR estimate needs a variance)")
        for key in ("snr_db_grid", "adc_bits", "cfo_grid"):
            if not getattr(self, key):
                raise ValueError(f"{key} must be nonempty")
        if any(math.isnan(v) or v == -math.inf for v in self.snr_db_grid):
            raise ValueError("snr_db_grid must not hold NaN or -inf")
        if not all(map(math.isfinite, self.cfo_grid)):
            raise ValueError("cfo_grid must be finite (no NaN or inf)")
        for b in self.adc_bits:
            if b != math.inf and (b != int(b) or not 1 <= b <= 16):
                raise ValueError(f"adc bits must be integers in [1,16] or inf, got {b}")
        lo, hi = self.sector.azimuth_deg
        if self.mode != "single_ue" and lo != -hi:
            # the cell modes drop users over +-hi, so the anchors must span the same sector
            raise ValueError(
                f"sector.azimuth_deg must be symmetric in mode {self.mode!r}, got {(lo, hi)}"
            )

    @property
    def lambda_max(self) -> float:
        return 10.0 ** (-self.lambda_max_inv_db / 10.0)


@dataclass
class StatSummary:
    """Per-sample rows plus aggregate rows and run metadata."""

    rows: list[dict]
    aggregates: list[dict]
    meta: dict


@lru_cache(maxsize=64)
def scenario_hash(scenario: Scenario) -> str:
    blob = json.dumps(asdict(scenario), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _trial_rng(scenario: Scenario, trial: int) -> np.random.Generator:
    key = int(scenario_hash(scenario), 16) & 0xFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(key, trial)))


# ---------------------------------------------------------------------------
# shared geometry / waveform / beam plans
# ---------------------------------------------------------------------------


def bs_geometry(scenario: Scenario) -> channel.ArrayGeometry:
    if scenario.bs_geometry == "ula":
        return channel.ArrayGeometry(kind="ula", n_elements=scenario.n_tot)
    shape = scenario.bs_upa_shape
    if shape is None:
        raise ValueError("bs_upa_shape required for a UPA base station")
    return channel.ArrayGeometry(kind="upa", n_elements=scenario.n_tot, shape=tuple(shape))


def ue_geometry(scenario: Scenario) -> channel.ArrayGeometry:
    return channel.ArrayGeometry(kind="ula", n_elements=scenario.m_tot)


def sector_ranges(scenario: Scenario) -> optimizer.SectorRanges:
    az = tuple(math.radians(a) for a in scenario.sector.azimuth_deg)
    if scenario.bs_geometry == "ula":
        return optimizer.SectorRanges(azimuth=az, elevation=None)
    el = tuple(math.radians(e) for e in scenario.sector.elevation_deg)
    return optimizer.SectorRanges(azimuth=az, elevation=el)


@lru_cache(maxsize=64)
def sync_waveform(scenario: Scenario, root: int | None = None) -> waveform.SyncWaveform:
    return waveform.make_sync_waveform(
        root if root is not None else scenario.zc_root,
        scenario.n_zc,
        scenario.n_subcarriers,
        scenario.cp_length,
    )


@lru_cache(maxsize=256)
def noise_variance(scenario: Scenario, snr_db: float) -> float:
    """sigma^2 for the given transmit SNR (pre-beamforming, edge-referenced)."""
    wf = sync_waveform(scenario)
    e_d = float(np.sum(np.abs(wf.grid.symbols) ** 2))
    return (e_d / scenario.n_subcarriers) * 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class BeamPlan:
    """Per-slot transmit vectors for one (method, resolution) arm."""

    method: str
    bits: float
    indices: np.ndarray  # (t_bs, n_rf) or (t_bs, 1)
    tx_vectors: np.ndarray  # (t_bs, n_tot)
    iteration_count: int


def slot_beam_plans(scenario: Scenario) -> dict[tuple[str, float], BeamPlan]:
    """Select beams for every slot, method and ADC resolution in the scenario.

    The proposed method searches per-subarray codeword tuples exhaustively;
    the single-stream baseline picks one full-array codeword.  The worst-case
    quantization MSE in the bound follows the arm's own resolution; the
    composite gains it is evaluated on are computed once per slot.
    """
    geom = bs_geometry(scenario)
    grid = optimizer.build_anchor_grid(scenario.t_bs, sector_ranges(scenario))
    n_a = scenario.n_tot // scenario.n_rf
    sub_cb = beamforming.dft_codebook(n_a, scenario.codebook_oversampling)
    full_cb = beamforming.dft_codebook(scenario.n_tot, scenario.codebook_oversampling)
    bounds = {b: optimizer.BoundParams(scenario.lambda_max, quantization.AdcModel(bits=b).xi())
              for b in scenario.adc_bits}
    chosen: dict[tuple[str, float], list[optimizer.BeamSelection]] = {}
    for anchor in map(tuple, grid.anchors):
        gains = optimizer.multi_beam_gains(sub_cb, scenario.n_rf, geom, anchor, scenario.search_budget)
        for bits, bound in bounds.items():
            for method, sel in (
                ("proposed", optimizer.select_from_gains(sub_cb, gains, geom, anchor, bound)),
                ("single_stream", optimizer.select_single_beam(full_cb, geom, anchor, bound)),
            ):
                chosen.setdefault((method, bits), []).append(sel)
    plans: dict[tuple[str, float], BeamPlan] = {}
    for (method, bits), sels in chosen.items():
        indices = np.array([sel.indices for sel in sels])
        if method == "proposed":
            tx = np.array([beamforming.effective_tx_vector(beamforming.BeamSet(sub_cb, sel.indices))
                           for sel in sels])
        else:
            tx = full_cb.codewords[indices[:, 0]]
        plans[(method, bits)] = BeamPlan(method, bits, indices, tx, sum(s.iteration_count for s in sels))
    return plans


def serving_slot(grid: optimizer.AnchorGrid, az: float, el: float = 0.0) -> int:
    """Slot whose anchor is angularly closest to the given direction."""
    d = (grid.anchors[:, 0] - az) ** 2 + (grid.anchors[:, 1] - el) ** 2
    return int(np.argmin(d))


def _draw_paths(scenario: Scenario, rng: np.random.Generator, aod_az: float,
                amp: float = 1.0) -> channel.PathSet:
    aoa = rng.uniform(-np.pi / 2, np.pi / 2)
    if scenario.channel.regime == "flat":
        phase = np.exp(2j * np.pi * rng.random())
        return channel.single_path(aod_az=aod_az, aoa=aoa, gain=amp * phase)
    ps = channel.clustered_paths(
        rng,
        center_az=aod_az,
        aoa_center=aoa,
        n_clusters=scenario.channel.n_clusters,
        paths_per_cluster=scenario.channel.paths_per_cluster,
        angle_spread=math.radians(scenario.channel.angle_spread_deg),
        delay_spread=scenario.channel.delay_spread_samples,
    )
    return channel.PathSet(
        gains=ps.gains * amp,
        aod_az=ps.aod_az,
        aod_el=ps.aod_el,
        aoa=ps.aoa,
        delays=ps.delays,
    )


def _tap_count(scenario: Scenario, paths: channel.PathSet) -> int:
    if scenario.channel.regime == "flat":
        return 1
    # pulse tail of a few samples past the last ray, capped by the CP span
    return min(scenario.cp_length, int(np.ceil(paths.delays.max())) + 5)


def _build_channel(scenario: Scenario, paths: channel.PathSet) -> channel.BeamSpaceChannel:
    pulse = (
        channel.NyquistPulse()
        if scenario.channel.regime == "flat"
        else channel.RaisedCosinePulse(scenario.channel.rolloff)
    )
    return channel.build_channel(
        paths,
        bs_geometry(scenario),
        ue_geometry(scenario),
        tap_count=_tap_count(scenario, paths),
        pulse=pulse,
        cp_length=scenario.cp_length,
    )


def _unit_noise(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """CN(0, 1) samples; the real parts are drawn before the imaginary ones."""
    shape = (rows, cols)
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    rails = out.view(np.float64)
    rails *= 1.0 / math.sqrt(2.0)  # as numpy's complex division by sqrt(2) scales
    return out


class _Correlated:
    """Samples of one trial and their correlation against the reference.

    The correlation is computed on first use and then shared by every arm
    that sees the same samples.  ``pad`` zeros on both sides extend it to
    every lag at which the samples overlap the reference: a burst of n
    samples gets lags -(n - 1) .. n - 1.
    """

    def __init__(self, samples: np.ndarray, reference: np.ndarray, pad: int = 0):
        self.samples = samples
        self.reference = reference
        self._pad = pad
        self._values: np.ndarray | None = None

    def correlation(self) -> np.ndarray:
        if self._values is None:
            x = quantization.check_finite(self.samples)
            if self._pad:
                x = np.zeros((x.shape[0], x.shape[1] + 2 * self._pad), dtype=np.complex128)
                x[:, self._pad : -self._pad] = self.samples
            self._values = detector.correlate(x, self.reference).values
        return self._values


_MODES = {
    "sqnr": ("single_ue", "multi_ue_cell"),
    "timing": ("single_ue", "multi_ue_cell"),
    "multicell": ("multi_cell",),
}


def _check_mode(scenario: Scenario, experiment: str) -> None:
    if scenario.mode not in _MODES[experiment]:
        modes = " or ".join(_MODES[experiment])
        raise ValueError(f"the {experiment} experiment runs in mode {modes}, got {scenario.mode!r}")


def _trials(scenario: Scenario, trial_lo: int, trial_hi: int):
    """The draws every experiment shares, trial by trial.

    Yields ``(trial, rng, slot, reference, burst)``: the trial's generator,
    left where the links end, the serving slot, the serving cell's reference
    samples and ``burst(tx_vec, cfo=0.0)``.  The UE drop is a uniform sector
    draw in ``single_ue`` and ``channel.drop_users`` in the cell modes, where
    ``multi_cell`` adds one interfering link per neighbour.  ``burst`` sums
    every cell's clean burst once per distinct transmit vector and CFO.
    """
    grid = optimizer.build_anchor_grid(scenario.t_bs, sector_ranges(scenario))
    cell = scenario.cell
    if scenario.mode == "multi_cell":
        layout = channel.hex_layout(cell.isd_m, cell.min_distance_m, cell.roots)
    else:
        layout = channel.single_cell_layout(cell.radius_m, cell.min_distance_m, scenario.zc_root)
    waveforms = [sync_waveform(scenario, root=r) for r in layout.roots]
    reference = waveforms[0].time_samples
    az_lo, az_hi = (math.radians(a) for a in scenario.sector.azimuth_deg)
    for trial in range(trial_lo, trial_hi):
        rng = _trial_rng(scenario, trial)
        if scenario.mode == "single_ue":
            ue_pos, aod, amp = None, rng.uniform(az_lo, az_hi), 1.0
        else:
            drop = channel.drop_users(
                layout, 1, rng, sector_halfwidth=az_hi, pathloss_exponent=cell.pathloss_exponent,
                shadowing_sigma_db=cell.shadowing_sigma_db,
            )
            ue_pos, aod, amp = drop.positions[0], float(drop.azimuths[0]), float(drop.amp_gains[0])
        slot = serving_slot(grid, aod)
        links = []
        for i, centre in enumerate(layout.centers):
            if i:  # a neighbour, its sector's boresight facing the central cell
                vec = ue_pos - centre
                aod = math.atan2(vec[1], vec[0]) - math.atan2(-centre[1], -centre[0])
                aod = (aod + math.pi) % (2.0 * math.pi) - math.pi  # wrapped to [-pi, pi)
                shadow = rng.normal(0.0, cell.shadowing_sigma_db)
                amp = channel.pathloss_amp_gain(
                    float(np.hypot(vec[0], vec[1])), layout.cell_radius_m,
                    cell.pathloss_exponent, shadow,
                )
            paths = _draw_paths(scenario, rng, aod, amp)
            links.append((_build_channel(scenario, paths), waveforms[i]))
        memo: dict = {}

        # the defaults bind this trial's links, so a kept burst never sees a later trial's
        def burst(tx_vec: np.ndarray, cfo: float = 0.0, links=links, memo=memo) -> _Correlated:
            key = (tx_vec.tobytes(), cfo)
            if key not in memo:
                first, *rest = (channel.propagate(ch, wf.time_samples, tx_vec, 0.0, cfo, 0,
                                                  scenario.n_subcarriers) for ch, wf in links)
                memo[key] = _Correlated(sum(rest, first), reference, pad=reference.shape[0] - 1)
            return memo[key]

        yield trial, rng, slot, reference, burst


# ---------------------------------------------------------------------------
# SQNR experiment
# ---------------------------------------------------------------------------


def _sqnr_window(clean: np.ndarray, reference: np.ndarray, sigma2: float,
                 noise_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window every ADC arm of one (trial, SNR, transmit vector) measures.

    The antenna with the strongest noiseless zero-lag response is measured:
    each row is its burst plus sqrt(sigma2) times one repetition of unit noise.
    Returns the window, its per-row AGC rms and the window scaled by 1/AGC,
    checked once as ``quantization.apply`` checks its input.
    """
    zl = clean @ np.conj(reference)
    b_hat = int(np.argmax(np.abs(zl) ** 2))
    y = clean[b_hat][None, :] + math.sqrt(sigma2) * noise_unit
    agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
    quantization.check_finite(y)
    quantization.check_agc(agc)
    return y, agc, quantization.agc_scale(y, agc)


def _zero_lag_sqnr(q: np.ndarray, reference: np.ndarray) -> float:
    """|mean|^2 / var of the repetitions' zero-lag correlations."""
    z = q @ np.conj(reference)
    mean = z.mean()
    var = float(np.mean(np.abs(z - mean) ** 2))
    if var == 0.0:
        return math.inf
    return float(np.abs(mean) ** 2 / var)


def _sqnr_chunk(scenario: Scenario, plans, trial_lo: int, trial_hi: int) -> list[dict]:
    rows = []
    quantized = np.empty((scenario.inner_repeats, scenario.n_subcarriers), np.complex128)
    for _, rng, slot, reference, burst in _trials(scenario, trial_lo, trial_hi):
        noise_unit = _unit_noise(rng, scenario.inner_repeats, scenario.n_subcarriers)
        for snr_db in scenario.snr_db_grid:
            sigma2 = noise_variance(scenario, snr_db)
            windows: dict = {}  # the arms of one transmit vector share its window
            for (method, bits), plan in plans.items():
                tx_vec = plan.tx_vectors[slot]
                key = tx_vec.tobytes()
                if key not in windows:
                    windows[key] = _sqnr_window(burst(tx_vec).samples, reference, sigma2, noise_unit)
                y, agc, scaled = windows[key]
                adc = quantization.AdcModel(bits=bits)
                q = y if adc.is_infinite else quantization.quantize_scaled(adc, scaled, agc, out=quantized)
                g = _zero_lag_sqnr(q, reference)
                rows.append({"method": method, "bits": bits, "snr_db": snr_db,
                             "sqnr_db_sample": 10.0 * math.log10(g) if g > 0 else -math.inf})
    return rows


def run_sqnr_experiment(scenario: Scenario, workers: int = 1) -> StatSummary:
    """Empirical zero-lag SQNR samples per method and resolution (CDF material)."""
    _check_mode(scenario, "sqnr")
    if math.inf in scenario.snr_db_grid:
        raise ValueError("snr_db_grid must be finite for the sqnr experiment (no noise, no SQNR)")
    plans = slot_beam_plans(scenario)
    rows = _run_chunked(_sqnr_chunk, scenario, plans, workers)
    aggregates = []
    for (method, bits, snr_db), sel in _group(rows, ("method", "bits", "snr_db")).items():
        vals = np.array([r["sqnr_db_sample"] for r in sel])
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        aggregates.append(
            {
                "method": method,
                "bits": bits,
                "snr_db": snr_db,
                "mean_sqnr_db": mean,
                "ci95_lo": mean - 1.96 * se,
                "ci95_hi": mean + 1.96 * se,
                "n": len(vals),
            }
        )
    return StatSummary(rows=rows, aggregates=aggregates, meta=_meta(scenario, "sqnr", plans))


# ---------------------------------------------------------------------------
# timing / CFO experiment
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _window_workspace(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The buffers every detection window of a chunk reuses.

    Returns the complex (m_tot, window) window, the correlator's complex
    (m_tot, nfft) output, which starts in the window's memory and is the
    window itself when the FFT length equals the window, and a float
    (m_tot, window) buffer for |y|^2.
    """
    m, window = scenario.m_tot, scenario.n_subcarriers * scenario.t_ue
    nfft = detector._next_fast_len(window)
    flat = np.empty(m * nfft, np.complex128)
    return flat[: m * window].reshape(m, window), flat.reshape(m, nfft), np.empty((m, window))


def _detect_window(
    burst: _Correlated,
    noise: _Correlated,
    sigma2: float,
    t: int,
    adc: quantization.AdcModel,
    work: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> detector.TrialOutcome:
    """Detect the burst placed at lag t in sqrt(sigma2) * unit noise.

    ``work`` is the chunk's ``_window_workspace``: the window is built, its
    AGC taken, and it is quantized and correlated in place there, so the
    profile is only valid until the next window.

    At infinite resolution and with noise, detection is linear, so the profile
    is assembled as sqrt(sigma2) * C(noise) + C(burst) from correlations each
    computed once per trial, skipping the window, the AGC and the ADC.
    The scale and both correlations' samples are checked as
    ``quantization.apply`` checks its input; the noise keeps every AGC rms
    positive.
    """
    reference = noise.reference
    n = reference.shape[0]
    scale = math.sqrt(sigma2)
    y, spectrum, power = work
    if not adc.is_infinite or sigma2 == 0:
        np.multiply(scale, noise.samples, out=y)
        y[:, t : t + n] += burst.samples
        np.abs(y, out=power)
        np.square(power, out=power)
        agc = np.sqrt(np.mean(power, axis=1) / 2.0)[:, None]
        q = quantization.apply(adc, y, agc, out=y)
        return detector.detect(detector.correlate(q, reference, out=spectrum), nu_true=t)
    quantization.check_finite(scale)
    noise_values = noise.correlation()
    values = np.multiply(scale, noise_values, out=spectrum[:, : noise_values.shape[1]])
    # C(burst) column j is the window lag t - (n - 1) + j
    lo = max(t - (n - 1), 0)
    hi = min(t + n, values.shape[1])
    values[:, lo:hi] += burst.correlation()[:, lo - t + n - 1 : hi - t + n - 1]
    return detector.detect(detector.CorrelationProfile(values), nu_true=t)


def _timing_chunk(scenario: Scenario, plans, trial_lo: int, trial_hi: int) -> list[dict]:
    window = scenario.n_subcarriers * scenario.t_ue
    max_t = scenario.n_subcarriers * (scenario.t_ue - 1)
    rows = []
    work = _window_workspace(scenario)
    for trial, rng, slot, reference, burst in _trials(scenario, trial_lo, trial_hi):
        t = int(rng.integers(1, max_t, endpoint=True))
        noise = _Correlated(_unit_noise(rng, scenario.m_tot, window), reference)
        for (method, bits), plan in plans.items():
            adc = quantization.AdcModel(bits=bits)
            for cfo in scenario.cfo_grid:
                clean = burst(plan.tx_vectors[slot], cfo)
                for snr_db in scenario.snr_db_grid:
                    sigma2 = noise_variance(scenario, snr_db)
                    out = _detect_window(clean, noise, sigma2, t, adc, work)
                    rows.append({"method": method, "trial": trial, "slot": slot, "snr_db": snr_db,
                                 "cfo": cfo, "bits": bits, "nu_true": t, "nu_hat": out.nu_hat,
                                 "b_hat": out.b_hat, "peak_power": out.peak_power,
                                 "success": int(out.success)})
    return rows


def run_timing_experiment(scenario: Scenario, workers: int = 1) -> StatSummary:
    """Per-trial detection outcomes and per-point NMSE / success-rate aggregates."""
    _check_mode(scenario, "timing")
    plans = slot_beam_plans(scenario)
    rows = _run_chunked(_timing_chunk, scenario, plans, workers)
    aggregates = []
    for key, sel in _group(rows, ("method", "bits", "snr_db", "cfo")).items():
        method, bits, snr_db, cfo = key
        nmse = detector.timing_nmse([r["nu_true"] for r in sel], [r["nu_hat"] for r in sel])
        successes = sum(r["success"] for r in sel)
        lo, hi = wilson_interval(successes, len(sel))
        aggregates.append(
            {
                "method": method,
                "bits": bits,
                "snr_db": snr_db,
                "cfo": cfo,
                "nmse": nmse,
                "success_rate": successes / len(sel),
                "wilson_lo": lo,
                "wilson_hi": hi,
                "n": len(sel),
            }
        )
    return StatSummary(rows=rows, aggregates=aggregates, meta=_meta(scenario, "timing", plans))


# ---------------------------------------------------------------------------
# multi-cell experiment
# ---------------------------------------------------------------------------


def _multicell_chunk(scenario: Scenario, plans, trial_lo: int, trial_hi: int) -> list[dict]:
    window = scenario.n_subcarriers * scenario.t_ue
    max_t = scenario.n_subcarriers * (scenario.t_ue - 1)
    rows = []
    work = _window_workspace(scenario)
    for trial, rng, slot0, reference, burst in _trials(scenario, trial_lo, trial_hi):
        t = int(rng.integers(1, max_t, endpoint=True))
        for (method, bits), plan in plans.items():
            adc = quantization.AdcModel(bits=bits)
            for snr_idx, snr_db in enumerate(scenario.snr_db_grid):
                sigma2 = noise_variance(scenario, snr_db)
                serving_success = None
                first_slot = -1
                for tau in range(scenario.t_bs):
                    # noise keyed by (trial, slot, snr) only, so arms are paired
                    rng_slot = np.random.default_rng(
                        np.random.SeedSequence(entropy=scenario.seed, spawn_key=(trial, tau, snr_idx))
                    )
                    noise = _Correlated(_unit_noise(rng_slot, scenario.m_tot, window), reference)
                    out = _detect_window(burst(plan.tx_vectors[tau]), noise, sigma2, t, adc, work)
                    if tau == slot0:
                        serving_success = bool(out.success)
                    if out.success and first_slot < 0:
                        first_slot = tau
                    if first_slot >= 0 and tau >= slot0:
                        break
                rows.append({"method": method, "trial": trial, "slot": slot0, "snr_db": snr_db,
                             "bits": bits, "nu_true": t, "success": int(bool(serving_success)),
                             "first_success_slot": first_slot})
    return rows


def run_multicell_experiment(scenario: Scenario, workers: int = 1) -> StatSummary:
    """Central-cell detection probability and slot-access statistics under
    actual cross-cell synchronization interference."""
    _check_mode(scenario, "multicell")
    plans = slot_beam_plans(scenario)
    rows = _run_chunked(_multicell_chunk, scenario, plans, workers)
    aggregates = []
    for key, sel in _group(rows, ("method", "bits", "snr_db")).items():
        method, bits, snr_db = key
        # detection succeeds when some slot of the frame yields the exact timing
        frame_successes = sum(r["first_success_slot"] >= 0 for r in sel)
        serving_successes = sum(r["success"] for r in sel)
        lo, hi = wilson_interval(frame_successes, len(sel))
        agg = {
            "method": method,
            "bits": bits,
            "snr_db": snr_db,
            "detection_probability": frame_successes / len(sel),
            "wilson_lo": lo,
            "wilson_hi": hi,
            "serving_slot_success_rate": serving_successes / len(sel),
            "n": len(sel),
        }
        for tau in range(scenario.t_bs):
            agg[f"access_prob_slot_{tau}"] = float(
                np.mean([r["first_success_slot"] == tau for r in sel])
            )
        agg["access_prob_none"] = float(np.mean([r["first_success_slot"] < 0 for r in sel]))
        aggregates.append(agg)
    return StatSummary(rows=rows, aggregates=aggregates, meta=_meta(scenario, "multicell", plans))


# ---------------------------------------------------------------------------
# Bussgang validation: correlation power ratio against the closed form
# ---------------------------------------------------------------------------


def solve_gain_for_gamma(gamma: float, eta: float, noise_var: float = 1.0) -> float:
    """Signal power making the closed-form SQNR equal gamma; errors when the
    resolution cannot reach it (gamma >= eta / (1 - eta))."""
    denom = eta - gamma * (1.0 - eta)
    if denom <= 0:
        raise ValueError(f"gamma {gamma} unreachable at eta {eta}")
    return gamma * noise_var / denom


def correlation_ratio_check(
    bits: int,
    gamma_target: float,
    trials: int,
    seed: int,
    length: int = 63,
    root: int = 34,
) -> dict:
    """Measure the zero/non-zero-lag correlation power ratio through the ADC.

    The raw ratio carries the correlation processing gain, so the normalized
    form (ratio - 1) / length is compared against the analytic SQNR; the
    identity predicts ratio = 1 + length * gamma.
    """
    eta = 1.0 - quantization.AdcModel(bits=bits).xi()
    s = solve_gain_for_gamma(gamma_target, eta)
    ratio = _measured_ratio(s, bits, trials, seed, length, root)
    gamma_emp = (ratio - 1.0) / length
    gamma_analytic = sqnr.sqnr_single_beam(
        sqnr.SqnrInputs(effective_gain_sq=s, noise_var=1.0, eta=eta)
    )
    return {
        "bits": bits,
        "gamma_target": gamma_target,
        "gamma_analytic": gamma_analytic,
        "gamma_empirical": gamma_emp,
        "measured_ratio": ratio,
        "predicted_ratio": 1.0 + length * gamma_analytic,
        "normalized_ratio": 1.0 + gamma_emp,
    }


def codebook_ratio_argmax(
    bits: int,
    trials_per_codeword: int,
    seed: int,
    n_a: int = 16,
    ue_az: float = 0.35,
    base_gain: float = 0.25,
) -> dict:
    """Measured-vs-analytic best-codeword agreement on a ULA DFT codebook.

    For each codeword the measured power ratio runs the correlation protocol
    at that codeword's beamforming gain; the argmax over measured ratios is
    compared with the argmax over analytic SQNRs (they coincide since the
    ratio is a strictly increasing map of the SQNR).
    """
    cb = beamforming.dft_codebook(n_a, 1)
    geom = channel.ArrayGeometry(kind="ula", n_elements=n_a)
    a = channel.steering_vector(geom, ue_az)
    gains = base_gain * np.abs(np.conj(a) @ cb.codewords.T) ** 2
    eta = 1.0 - quantization.AdcModel(bits=bits).xi()
    measured = np.zeros(cb.n_beam)
    analytic = np.zeros(cb.n_beam)
    for q in range(cb.n_beam):
        s = float(gains[q])
        analytic[q] = sqnr.sqnr_single_beam(
            sqnr.SqnrInputs(effective_gain_sq=s, noise_var=1.0, eta=eta)
        )
        measured[q] = _measured_ratio(s, bits, trials_per_codeword, seed + q)
    return {
        "argmax_measured": int(np.argmax(measured)),
        "argmax_analytic": int(np.argmax(analytic)),
        "measured": measured,
        "analytic": analytic,
    }


def _measured_ratio(s: float, bits: int, trials: int, seed: int, length: int = 63,
                    root: int = 34) -> float:
    """Zero/non-zero-lag correlation power ratio through the ADC.

    Protocol: constant-envelope time-domain sequence (exact impulse cyclic
    autocorrelation), flat channel with per-sample signal power s and unit
    noise power, matched AGC; trials run in batches of 20000.
    """
    u = waveform.generate_zc(root, length).samples
    adc = quantization.AdcModel(bits=bits)
    agc = math.sqrt((s + 1.0) / 2.0)
    rng = np.random.default_rng(seed)
    f_u = np.conj(np.fft.fft(u))
    p_zero = p_nonzero = 0.0
    batch = 20000
    for lo in range(0, trials, batch):
        nb = min(batch, trials - lo)
        theta = np.exp(2j * np.pi * rng.random((nb, 1)))
        w = (
            rng.standard_normal((nb, length)) + 1j * rng.standard_normal((nb, length))
        ) * math.sqrt(0.5)
        y = math.sqrt(s) * theta * u[None, :] + w
        q = quantization.apply(adc, y, agc)
        corr = np.fft.ifft(np.fft.fft(q, axis=1) * f_u[None, :], axis=1)
        mag2 = np.abs(corr) ** 2
        p_zero += float(mag2[:, 0].sum())
        p_nonzero += float(mag2[:, 1:].sum())
    return (p_zero / trials) / (p_nonzero / (trials * (length - 1)))


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _group(rows: list[dict], keys: tuple[str, ...]) -> dict:
    out: dict = {}
    for r in rows:
        out.setdefault(tuple(r[k] for k in keys), []).append(r)
    return out


def _meta(scenario: Scenario, experiment: str, plans) -> dict:
    return {
        "experiment": experiment,
        "scenario_hash": scenario_hash(scenario),
        "seed": scenario.seed,
        "version": _VERSION,
        "scenario": asdict(scenario),
        "beam_plans": {
            f"{method}/bits={bits}": plan.indices.tolist()
            for (method, bits), plan in plans.items()
        },
        "snr_definition": "transmit SNR before beamforming and receive processing, "
        "edge-referenced path gain",
    }


_CHUNK = 64


def _run_chunked(chunk_fn, scenario: Scenario, plans, workers: int) -> list[dict]:
    """Split trials into fixed chunks; identical output for any worker count."""
    los = range(0, scenario.trials, _CHUNK)
    his = [min(lo + _CHUNK, scenario.trials) for lo in los]
    run_chunk = partial(chunk_fn, scenario, plans)
    if workers <= 1 or len(los) == 1:
        parts = map(run_chunk, los, his)
    else:
        from concurrent.futures import ProcessPoolExecutor  # a one-worker run never needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, los, his))
    return [row for part in parts for row in part]
