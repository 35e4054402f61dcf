"""Monte Carlo experiment harness: SQNR CDFs, timing NMSE sweeps, CFO sweeps,
multi-cell detection and slot-access statistics.

Conventions shared by all experiments:

* Transmit SNR is the average received sync-sample SNR before beamforming
  and receive processing, referenced to the cell-edge path gain; the noise
  variance is sigma^2 = (E_d / N) * 10^(-snr_db/10) with E_d the grid energy.
* One runner, ``_run``, serves all three experiments from one table,
  ``_EXPERIMENTS``: the modes each runs in, its chunk function, its
  aggregate keys and its per-point statistics.  An experiment whose keys
  hold no ``cfo`` runs at zero CFO and rejects any other ``cfo_grid``
  before a trial runs.  It builds the arms
  ``(method, bits, AdcModel, tx_vectors)`` once per run and sigma^2 once per
  SNR, and hands both to every chunk; nothing is cached across runs.
* Beam plans are semi-static: selected once per scenario from the anchor
  grid, then reused by every trial (no channel knowledge).  One search
  serves both methods, single-stream being its one-chain case, and each
  slot is searched once for every ADC resolution: the bound's maximizer
  depends on neither the quantization MSE nor the noise variance
  (``slot_beam_plans``).
* One draw rule.  Every random number of a trial comes from one generator
  spawned from (seed, trial index), in one order: the links ``_trials``
  draws (the UE drop the mode implies, the serving link and, in
  ``multi_cell``, the six interfering links), the burst timing (timing,
  multicell), then the noise: an (inner_repeats, N) block (sqnr), one
  (m_tot, window) window (timing) or t_bs of them in slot order
  (multicell).  Every arm and SNR of a trial share its channel, timing and
  noise, so comparisons are paired (common random numbers).  In the sqnr
  experiment the arms of one (trial, SNR, transmit vector) also share the
  noisy window, its AGC and its 1/AGC scaling: only the quantizer differs
  between them.  Their zero-lag correlations fill one buffer per chunk,
  whose means and variances are taken for all arms in one pass.
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
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __version__ as _VERSION
from . import beamforming, channel, detector, optimizer, quantization, waveform


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


def _check_fields(config, prefix: str = "", least: dict[str, float] | None = None) -> None:
    """Each field's annotation is its rule, checked before any comparison.

    An ``int`` field, and each entry of a ``tuple[int, ...]``, is an integer;
    a ``float`` field, and each entry of a ``tuple[float, float]``, is a
    finite real number; each entry of a ``tuple[float, ...]`` grid is a real
    number, bounded by the grid's own rule.  A bool or a string is neither.
    A fixed-length tuple holds that many entries, and ``| None`` admits None.
    A field named in ``least`` is at least that value.
    """
    for f in fields(config):  # the annotations are strings (postponed evaluation)
        key, value, kind = prefix + f.name, getattr(config, f.name), f.type.removesuffix(" | None")
        scalar = kind in ("int", "float")
        if not (scalar or kind.startswith("tuple[")) or value is None and kind != f.type:
            continue
        kinds = [kind] if scalar else kind[len("tuple["):-1].split(", ")
        entries = (value,) if scalar else value
        grid = kinds[-1] == "..."
        number = numbers.Integral if kinds[0] == "int" else numbers.Real
        if not (isinstance(entries, tuple) and (grid or len(entries) == len(kinds)) and all(
            isinstance(v, number) and not isinstance(v, bool)
            and (grid or number is numbers.Integral or math.isfinite(v)) for v in entries
        )):
            what = "an integer" if kinds[0] == "int" else "a real number" if grid else "a finite real number"
            rule = what if scalar else f"{kind} holding {what} in each entry"
            raise ValueError(f"{key} must be {rule}, got {value!r}")
        if f.name in (least or {}) and value < least[f.name]:
            raise ValueError(f"{key} must be >= {least[f.name]}, got {value}")


@dataclass(frozen=True)
class SectorConfig:
    azimuth_deg: tuple[float, float] = (-60.0, 60.0)
    elevation_deg: tuple[float, float] = (-45.0, 45.0)

    def __post_init__(self):
        _check_fields(self, "sector.")
        for key in ("azimuth_deg", "elevation_deg"):
            lo, hi = getattr(self, key)
            if not lo < hi:
                raise ValueError(f"sector.{key} must be two increasing angles, got {(lo, hi)}")


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
            raise ValueError(f"unknown channel.regime {self.regime!r}; choose flat or clustered")
        _check_fields(self, "channel.", least={"n_clusters": 1, "paths_per_cluster": 1, "angle_spread_deg": 0,
                                               "delay_spread_samples": 0, "rolloff": 0})
        if self.rolloff > 1:
            raise ValueError(f"channel.rolloff must be in [0, 1], got {self.rolloff}")


@dataclass(frozen=True)
class CellConfig:
    radius_m: float = 150.0
    isd_m: float = 500.0
    min_distance_m: float = 20.0
    roots: tuple[int, int, int] = (25, 29, 34)
    pathloss_exponent: float = 3.2
    shadowing_sigma_db: float = 8.0

    def __post_init__(self):
        _check_fields(self, "cell.", least={"radius_m": 0, "isd_m": 0, "min_distance_m": 0,
                                            "shadowing_sigma_db": 0})


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
        # a window needs noise-only lags (t_ue), an SQNR estimate a variance (inner_repeats),
        # and past +-3000 dB lambda_max leaves the float range
        _check_fields(self, least={"n_tot": 1, "n_rf": 1, "m_tot": 1, "codebook_oversampling": 1, "t_bs": 1,
                                   "t_ue": 2, "trials": 1, "inner_repeats": 2, "seed": 0,
                                   "lambda_max_inv_db": -3000.0})
        if self.mode not in ("single_ue", "multi_ue_cell", "multi_cell"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.bs_geometry not in ("ula", "upa"):
            raise ValueError(f"unknown bs_geometry {self.bs_geometry!r}")
        shape = self.bs_upa_shape
        if self.bs_geometry == "upa" and not (
            shape is not None and min(shape) >= 1 and shape[0] * shape[1] == self.n_tot
        ):
            raise ValueError(f"bs_upa_shape must be two positive factors of n_tot={self.n_tot} "
                             f"for bs_geometry 'upa', got {shape}")
        if self.bs_geometry == "ula" and shape is not None:
            # an unused field would still enter scenario_hash, moving every output's header
            raise ValueError(f"bs_upa_shape is only for bs_geometry 'upa', got {shape} with 'ula'")
        if self.n_tot % self.n_rf != 0:
            raise ValueError("n_tot must be a multiple of n_rf")
        iterations = max((self.n_tot // n_rf * self.codebook_oversampling) ** n_rf for n_rf in (self.n_rf, 1))
        if self.search_budget < iterations:
            raise ValueError(f"search_budget {self.search_budget} is below the {iterations} "
                             f"candidates of the beam search")
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
        for key in ("snr_db_grid", "adc_bits", "cfo_grid"):
            grid = getattr(self, key)
            # an empty grid has no rows; a repeat counts each trial twice in one aggregate, or merges two arms
            if not grid or len(set(grid)) != len(grid):
                raise ValueError(f"{key} must be nonempty with no repeated entry, got {grid}")
        if any(math.isnan(v) or v == -math.inf for v in self.snr_db_grid):
            raise ValueError("snr_db_grid must not hold NaN or -inf")
        if not all(map(math.isfinite, self.cfo_grid)):
            raise ValueError("cfo_grid must be finite (no NaN or inf)")
        for b in self.adc_bits:
            if b != math.inf and not (1 <= b <= 16 and b == int(b)):  # NaN fails the range
                raise ValueError(f"adc_bits must be integers in [1, 16] or inf, got {b}")
        if self.lambda_max_inv_db > 3000.0:
            raise ValueError(f"lambda_max_inv_db must be <= 3000, got {self.lambda_max_inv_db}")
        cell = self.cell
        if self.mode == "multi_cell":
            limit, name = cell.isd_m / 2, "cell.isd_m / 2"
        else:
            limit, name = cell.radius_m, "cell.radius_m"
        if not cell.min_distance_m < limit:
            raise ValueError(f"cell.min_distance_m must be below {name} = {limit}, got {cell.min_distance_m}")
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


def scenario_hash(scenario: Scenario) -> str:
    """Digest of the scenario's JSON form.

    Not cached: equal scenarios can differ in form (adc_bits 2 and 2.0), and
    a cache keyed on equality would hand one the other's digest.
    """
    blob = json.dumps(asdict(scenario), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# shared geometry / waveform / beam plans
# ---------------------------------------------------------------------------


def bs_geometry(scenario: Scenario) -> channel.ArrayGeometry:
    if scenario.bs_geometry == "ula":
        return channel.ArrayGeometry(kind="ula", n_elements=scenario.n_tot)
    return channel.ArrayGeometry(kind="upa", n_elements=scenario.n_tot, shape=scenario.bs_upa_shape)


def ue_geometry(scenario: Scenario) -> channel.ArrayGeometry:
    return channel.ArrayGeometry(kind="ula", n_elements=scenario.m_tot)


def sector_ranges(scenario: Scenario) -> optimizer.SectorRanges:
    az = tuple(math.radians(a) for a in scenario.sector.azimuth_deg)
    if scenario.bs_geometry == "ula":
        return optimizer.SectorRanges(azimuth=az, elevation=None)
    el = tuple(math.radians(e) for e in scenario.sector.elevation_deg)
    return optimizer.SectorRanges(azimuth=az, elevation=el)


def sync_waveform(scenario: Scenario, root: int | None = None) -> waveform.SyncWaveform:
    return waveform.make_sync_waveform(
        root if root is not None else scenario.zc_root,
        scenario.n_zc,
        scenario.n_subcarriers,
        scenario.cp_length,
    )


def noise_variance(scenario: Scenario, snr_db: float) -> float:
    """sigma^2 for the given transmit SNR (pre-beamforming, edge-referenced)."""
    wf = sync_waveform(scenario)
    e_d = float(np.sum(np.abs(wf.grid.symbols) ** 2))
    return (e_d / scenario.n_subcarriers) * 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class BeamPlan:
    """Per-slot transmit vectors for one (method, resolution) arm."""

    indices: np.ndarray  # (t_bs, n_rf) or (t_bs, 1)
    tx_vectors: np.ndarray  # (t_bs, n_tot)
    iteration_count: int


def slot_beam_plans(scenario: Scenario) -> dict[tuple[str, float], BeamPlan]:
    """Beam plans keyed ``(method, bits)``: for each entry of ``adc_bits``,
    "proposed" then "single_stream".

    Both methods run one search: "proposed" over the per-subarray codeword
    tuples of ``n_rf`` chains, (t_bs, n_rf) indices, and "single_stream" as
    its one-chain case, one full-array codeword per slot, (t_bs, 1).
    ``tx_vectors`` are the unit-power transmit vectors, (t_bs, n_tot), and
    ``iteration_count`` sums the candidates scored over the slots.  Each
    slot is searched once per method, under xi_max = 0, and the arms of
    every resolution share that selection: the bound's maximizer depends on
    neither xi_max nor the noise variance (``sqnr``), so each arm holds what
    a search under its own resolution finds.
    """
    geom = bs_geometry(scenario)
    anchors = optimizer.build_anchor_grid(scenario.t_bs, sector_ranges(scenario))
    bound = optimizer.BoundParams(scenario.lambda_max, 0.0)
    plans = {}
    for method, n_rf in (("proposed", scenario.n_rf), ("single_stream", 1)):
        codebook = beamforming.dft_codebook(scenario.n_tot // n_rf, scenario.codebook_oversampling)
        sels = []
        for anchor in map(tuple, anchors):
            gains = optimizer.multi_beam_gains(codebook, n_rf, geom, anchor, scenario.search_budget)
            sels.append(optimizer.select_from_gains(gains, bound))
        tx = [beamforming.effective_tx_vector(beamforming.BeamSet(codebook, sel.indices)) for sel in sels]
        plans[method] = BeamPlan(np.array([sel.indices for sel in sels]), np.array(tx),
                                 sum(sel.iteration_count for sel in sels))
    return {(method, bits): plan for bits in scenario.adc_bits for method, plan in plans.items()}


def serving_slot(anchors: np.ndarray, az: float) -> int:
    """Slot whose anchor is angularly closest to azimuth ``az`` at zero elevation."""
    d = (anchors[:, 0] - az) ** 2 + anchors[:, 1] ** 2
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
    return replace(ps, gains=ps.gains * amp)


def _tap_count(scenario: Scenario, paths: channel.PathSet) -> int:
    if scenario.channel.regime == "flat":
        return 1
    # pulse tail of a few samples past the last ray, capped by the CP span
    return min(scenario.cp_length, int(np.ceil(paths.delays.max())) + 5)


def _build_channel(scenario: Scenario, paths: channel.PathSet) -> channel.BeamSpaceChannel:
    # a flat link's one tap samples the pulse at 0, where every rolloff gives exactly 1
    return channel.build_channel(
        paths,
        bs_geometry(scenario),
        ue_geometry(scenario),
        tap_count=_tap_count(scenario, paths),
        pulse=channel.RaisedCosinePulse(scenario.channel.rolloff),
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


def _trials(scenario: Scenario, trial_lo: int, trial_hi: int):
    """The draws every experiment shares, trial by trial.

    Yields ``(trial, rng, slot, reference, burst)``: the trial's generator,
    left where the links end, the serving slot, the serving cell's reference
    samples and ``burst(tx_vec, cfo=0.0)``.  The UE drop is a uniform sector
    draw in ``single_ue`` and ``channel.drop_users`` in the cell modes, where
    ``multi_cell`` adds one interfering link per neighbour.  ``burst`` sums
    every cell's clean burst once per distinct transmit vector and CFO.
    """
    anchors = optimizer.build_anchor_grid(scenario.t_bs, sector_ranges(scenario))
    cell = scenario.cell
    if scenario.mode == "multi_cell":
        layout = channel.hex_layout(cell.isd_m, cell.min_distance_m, cell.roots)
    else:
        layout = channel.single_cell_layout(cell.radius_m, cell.min_distance_m, scenario.zc_root)
    waveforms = [sync_waveform(scenario, root=r) for r in layout.roots]
    reference = waveforms[0].time_samples
    az_lo, az_hi = (math.radians(a) for a in scenario.sector.azimuth_deg)
    for trial in range(trial_lo, trial_hi):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(trial,)))
        if scenario.mode == "single_ue":
            ue_pos, aod, amp = None, rng.uniform(az_lo, az_hi), 1.0
        else:
            drop = channel.drop_users(
                layout, 1, rng, sector_halfwidth=az_hi, pathloss_exponent=cell.pathloss_exponent,
                shadowing_sigma_db=cell.shadowing_sigma_db,
            )
            ue_pos, aod, amp = drop.positions[0], float(drop.azimuths[0]), float(drop.amp_gains[0])
        slot = serving_slot(anchors, aod)
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


def _sqnr_window(clean: np.ndarray, conj_reference: np.ndarray, sigma2: float,
                 noise_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window every ADC arm of one (trial, SNR, transmit vector) measures.

    The antenna with the strongest noiseless zero-lag response is measured,
    the smallest index of those within a relative 1e-9 of the largest power
    (in a flat channel all tie): each row is its burst plus sqrt(sigma2)
    times one repetition of unit noise.  Returns the window, its per-row AGC
    rms, checked by ``_check_window_agc``, and the window scaled by 1/AGC.
    """
    power = np.abs(clean @ conj_reference) ** 2
    b_hat = int(np.argmax(power >= (1.0 - 1e-9) * power.max()))
    y = np.multiply(math.sqrt(sigma2), noise_unit)
    y += clean[b_hat]
    agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
    _check_window_agc(agc)
    return y, agc, quantization.agc_scale(y, agc)


def _check_window_agc(agc: np.ndarray) -> None:
    """The input checks of ``quantization.apply``, made on a window's AGC.

    A NaN or inf sample makes its row's rms NaN or inf, so a finite AGC
    stands for ``quantization.check_finite`` over the whole window; the rms
    must then be positive (``quantization.check_agc``).
    """
    if not np.all(np.isfinite(agc)):
        raise ValueError("samples must be finite")
    quantization.check_agc(agc)


def _sqnr_chunk(scenario: Scenario, arms, sigma2_grid, trial_lo: int, trial_hi: int) -> list[dict]:
    """Zero-lag SQNR rows: per (trial, SNR), every arm's |mean|^2 / var of its
    repetitions' zero-lag correlations, all arms' moments in one pass."""
    rows = []
    conj_reference = np.conj(sync_waveform(scenario).time_samples)
    quantized = np.empty((scenario.inner_repeats, scenario.n_subcarriers), np.complex128)
    z = np.empty((len(arms), scenario.inner_repeats), np.complex128)
    for _, rng, slot, _, burst in _trials(scenario, trial_lo, trial_hi):
        noise_unit = _unit_noise(rng, scenario.inner_repeats, scenario.n_subcarriers)
        for snr_db, sigma2 in zip(scenario.snr_db_grid, sigma2_grid):
            windows: dict = {}  # the arms of one transmit vector share its window
            for i, (_, _, adc, tx_vectors) in enumerate(arms):
                tx_vec = tx_vectors[slot]
                key = tx_vec.tobytes()
                if key not in windows:
                    windows[key] = _sqnr_window(burst(tx_vec).samples, conj_reference, sigma2, noise_unit)
                y, agc, scaled = windows[key]
                q = y if adc.is_infinite else quantization.quantize_scaled(adc, scaled, agc, out=quantized)
                np.matmul(q, conj_reference, out=z[i])
            mean = z.mean(axis=1)
            var = np.mean(np.abs(z - mean[:, None]) ** 2, axis=1)
            power = np.abs(mean) ** 2
            for (method, bits, _, _), p, v in zip(arms, power.tolist(), var.tolist()):
                g = p / v if v > 0.0 else math.inf
                if not 0.0 < g < math.inf:
                    # past float resolution every repetition's correlation is equal
                    raise ValueError(f"snr_db_grid entry {snr_db} gives a non-finite SQNR sample for "
                                     f"{method} at {bits} bits (|mean|^2 / var = {p!r} / {v!r})")
                rows.append({"method": method, "bits": bits, "snr_db": snr_db,
                             "sqnr_db_sample": 10.0 * math.log10(g)})
    return rows


def _sqnr_stats(scenario: Scenario, sel: list[dict]) -> dict:
    vals = np.array([r["sqnr_db_sample"] for r in sel])
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return {"mean_sqnr_db": mean, "ci95_lo": mean - 1.96 * se, "ci95_hi": mean + 1.96 * se, "n": len(vals)}


def run_sqnr_experiment(scenario: Scenario, workers: int = 1) -> StatSummary:
    """Empirical zero-lag SQNR samples per method and resolution (CDF material)."""
    if math.inf in scenario.snr_db_grid:
        raise ValueError("snr_db_grid must be finite for the sqnr experiment (no noise, no SQNR)")
    return _run("sqnr", scenario, workers)


# ---------------------------------------------------------------------------
# timing / CFO experiment
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval of a success rate."""
    z = 1.96
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
    AGC taken and checked (``_check_window_agc``), and it is quantized and
    correlated in place there, so the profile is only valid until the next
    window.

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
        _check_window_agc(agc)
        if not adc.is_infinite:
            quantization.quantize_scaled(adc, quantization.agc_scale(y, agc, out=y), agc, out=y)
        return detector.detect(detector.correlate(y, reference, out=spectrum), nu_true=t)
    quantization.check_finite(scale)
    noise_values = noise.correlation()
    values = np.multiply(scale, noise_values, out=spectrum[:, : noise_values.shape[1]])
    # C(burst) column j is the window lag t - (n - 1) + j
    lo = max(t - (n - 1), 0)
    hi = min(t + n, values.shape[1])
    values[:, lo:hi] += burst.correlation()[:, lo - t + n - 1 : hi - t + n - 1]
    return detector.detect(detector.CorrelationProfile(values), nu_true=t)


def _timing_chunk(scenario: Scenario, arms, sigma2_grid, trial_lo: int, trial_hi: int) -> list[dict]:
    window = scenario.n_subcarriers * scenario.t_ue
    max_t = scenario.n_subcarriers * (scenario.t_ue - 1)
    rows = []
    work = _window_workspace(scenario)
    for trial, rng, slot, reference, burst in _trials(scenario, trial_lo, trial_hi):
        t = int(rng.integers(1, max_t, endpoint=True))
        noise = _Correlated(_unit_noise(rng, scenario.m_tot, window), reference)
        for method, bits, adc, tx_vectors in arms:
            for cfo in scenario.cfo_grid:
                clean = burst(tx_vectors[slot], cfo)
                for snr_db, sigma2 in zip(scenario.snr_db_grid, sigma2_grid):
                    out = _detect_window(clean, noise, sigma2, t, adc, work)
                    rows.append({"method": method, "trial": trial, "slot": slot, "snr_db": snr_db,
                                 "cfo": cfo, "bits": bits, "nu_true": t, "nu_hat": out.nu_hat,
                                 "b_hat": out.b_hat, "peak_power": out.peak_power,
                                 "success": int(out.success)})
    return rows


def _timing_stats(scenario: Scenario, sel: list[dict]) -> dict:
    nmse = detector.timing_nmse([r["nu_true"] for r in sel], [r["nu_hat"] for r in sel])
    successes = sum(r["success"] for r in sel)
    lo, hi = wilson_interval(successes, len(sel))
    return {"nmse": nmse, "success_rate": successes / len(sel), "wilson_lo": lo, "wilson_hi": hi,
            "n": len(sel)}


def run_timing_experiment(scenario: Scenario, workers: int = 1) -> StatSummary:
    """Per-trial detection outcomes and per-point NMSE / success-rate aggregates."""
    return _run("timing", scenario, workers)


# ---------------------------------------------------------------------------
# multi-cell experiment
# ---------------------------------------------------------------------------


def _multicell_chunk(scenario: Scenario, arms, sigma2_grid, trial_lo: int, trial_hi: int) -> list[dict]:
    window = scenario.n_subcarriers * scenario.t_ue
    max_t = scenario.n_subcarriers * (scenario.t_ue - 1)
    rows = []
    work = _window_workspace(scenario)
    for trial, rng, slot0, reference, burst in _trials(scenario, trial_lo, trial_hi):
        t = int(rng.integers(1, max_t, endpoint=True))
        # one noise window per slot, drawn in slot order and shared by every arm and SNR
        noises = [_Correlated(_unit_noise(rng, scenario.m_tot, window), reference)
                  for _ in range(scenario.t_bs)]
        for method, bits, adc, tx_vectors in arms:
            for snr_db, sigma2 in zip(scenario.snr_db_grid, sigma2_grid):
                serving_success = None
                first_slot = -1
                for tau, noise in enumerate(noises):
                    out = _detect_window(burst(tx_vectors[tau]), noise, sigma2, t, adc, work)
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


def _multicell_stats(scenario: Scenario, sel: list[dict]) -> dict:
    # detection succeeds when some slot of the frame yields the exact timing
    frame_successes = sum(r["first_success_slot"] >= 0 for r in sel)
    lo, hi = wilson_interval(frame_successes, len(sel))
    stats = {"detection_probability": frame_successes / len(sel), "wilson_lo": lo, "wilson_hi": hi,
             "serving_slot_success_rate": sum(r["success"] for r in sel) / len(sel), "n": len(sel)}
    for tau in range(scenario.t_bs):
        stats[f"access_prob_slot_{tau}"] = float(np.mean([r["first_success_slot"] == tau for r in sel]))
    stats["access_prob_none"] = float(np.mean([r["first_success_slot"] < 0 for r in sel]))
    return stats


def run_multicell_experiment(scenario: Scenario, workers: int = 1) -> StatSummary:
    """Central-cell detection probability and slot-access statistics under
    actual cross-cell synchronization interference."""
    return _run("multicell", scenario, workers)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


# experiment -> (modes it runs in, chunk function, aggregate keys, per-point
# statistics).  A chunk function takes (scenario, arms, sigma2_grid, trial_lo,
# trial_hi) and returns the rows of those trials; the statistics take
# (scenario, rows of one point) and return the aggregate's remaining columns.
_EXPERIMENTS = {
    "sqnr": (("single_ue", "multi_ue_cell"), _sqnr_chunk, ("method", "bits", "snr_db"), _sqnr_stats),
    "timing": (("single_ue", "multi_ue_cell"), _timing_chunk, ("method", "bits", "snr_db", "cfo"),
               _timing_stats),
    "multicell": (("multi_cell",), _multicell_chunk, ("method", "bits", "snr_db"), _multicell_stats),
}

_CHUNK = 64


def _run(experiment: str, scenario: Scenario, workers: int) -> StatSummary:
    """One experiment of ``_EXPERIMENTS`` over the arms of ``slot_beam_plans``.

    The arms ``(method, bits, AdcModel, tx_vectors)`` and sigma^2 per entry
    of ``snr_db_grid`` are built once and passed to every chunk.  Trials run
    in fixed chunks, so the rows are identical for any worker count; each
    aggregate row is a point of the experiment's keys, in order of first
    appearance, and its statistics.
    """
    modes, chunk_fn, keys, stats = _EXPERIMENTS[experiment]
    if scenario.mode not in modes:
        raise ValueError(f"the {experiment} experiment runs in mode {' or '.join(modes)}, "
                         f"got {scenario.mode!r}")
    if "cfo" not in keys and scenario.cfo_grid != (0.0,):
        # an experiment without a CFO axis would run at zero CFO whatever the grid says
        raise ValueError(f"the {experiment} experiment runs at zero CFO; cfo_grid must be [0.0], "
                         f"got {list(scenario.cfo_grid)}")
    plans = slot_beam_plans(scenario)
    arms = [(method, bits, quantization.AdcModel(bits=bits), plan.tx_vectors)
            for (method, bits), plan in plans.items()]
    sigma2_grid = [noise_variance(scenario, snr_db) for snr_db in scenario.snr_db_grid]
    run_chunk = partial(chunk_fn, scenario, arms, sigma2_grid)
    los = range(0, scenario.trials, _CHUNK)
    his = [min(lo + _CHUNK, scenario.trials) for lo in los]
    if workers <= 1 or len(los) == 1:
        parts = map(run_chunk, los, his)
    else:
        from concurrent.futures import ProcessPoolExecutor  # a one-worker run never needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, los, his))
    rows = [row for part in parts for row in part]
    points: dict = {}
    for row in rows:
        points.setdefault(tuple(row[k] for k in keys), []).append(row)
    meta = {"scenario_hash": scenario_hash(scenario), "seed": scenario.seed,
            "version": _VERSION, "scenario": asdict(scenario),
            "beam_plans": {f"{method}/bits={bits}": plan.indices.tolist()
                           for (method, bits), plan in plans.items()},
            "snr_definition": "transmit SNR before beamforming and receive processing, "
                              "edge-referenced path gain"}
    aggregates = [dict(zip(keys, point)) | stats(scenario, sel) for point, sel in points.items()]
    return StatSummary(rows=rows, aggregates=aggregates, meta=meta)
