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
  multicell), then the noise: an (inner_repeats, N) block (sqnr), or one
  (m_tot, window) window per slot visited (timing, multicell), drawn when
  the slot is first visited.  Timing visits the serving slot alone; no
  multicell window past the furthest slot any arm or SNR visits is drawn.
  Every arm and SNR of a trial share its channel, timing and noise, so
  comparisons are paired (common random numbers).  In the sqnr
  experiment the arms of one (trial, SNR, transmit vector) also share the
  noisy window, its AGC and its 1/AGC scaling: only the quantizer differs
  between them.  Their zero-lag correlations fill one buffer per chunk,
  whose means and variances are taken for all arms in one pass.
* ``sqnr_db_sample`` is |mean|^2 / var of one trial's zero-lag
  correlations over ``inner_repeats`` noise draws, the channel and the sync
  sequence held fixed.  Quantization distortion that is a fixed function of
  the burst lands in the mean, not the variance, so above about 0 dB it
  departs from the Bussgang gamma the bound models (table in ROADMAP.md).
* The timing and multicell windows of one chunk share ``_window_workspace``,
  one buffer per role: the window, AGC-scaled and quantized in place, its
  |y|^2 and its correlation, so no window allocates its own.
* Each synchronization attempt is one burst in an otherwise noise-only
  window of t_ue symbols (non-sync samples are modeled as noise).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, partial

import numpy as np

from . import __version__ as _VERSION
from . import beamforming, channel, detector, optimizer, quantization, waveform


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


def _check_fields(config, prefix: str = "", least: dict[str, float] | None = None,
                  most: dict[str, float] | None = None) -> None:
    """Each field's annotation is its rule, checked before any comparison.

    An ``int`` field, and each entry of a ``tuple[int, ...]``, is an integer;
    a ``float`` field, and each entry of a ``tuple[float, float]``, is a
    finite real number; each entry of a ``tuple[float, ...]`` grid is a real
    number, bounded by the grid's own rule.  A bool or a string is neither.
    A fixed-length tuple holds that many entries and a grid at least one, and
    no tuple repeats an entry (a repeat counts each trial twice in one
    aggregate, or merges two arms).  Every entry of a field named in
    ``least`` (``most``) is at least (at most) that value; NaN is neither.
    """
    for f in fields(config):  # the annotations are strings (postponed evaluation)
        key, value, kind = prefix + f.name, getattr(config, f.name), f.type
        scalar = kind in ("int", "float")
        if not (scalar or kind.startswith("tuple[")):
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
        if not entries or len(set(entries)) != len(entries):
            raise ValueError(f"{key} must hold at least one entry and repeat none, got {value}")
        for bounds, holds, word in ((least, operator.ge, ">="), (most, operator.le, "<=")):
            if f.name in (bounds or {}) and not all(holds(v, bounds[f.name]) for v in entries):
                raise ValueError(f"{key} must be {word} {bounds[f.name]}{'' if scalar else ' in each entry'}, "
                                 f"got {value}")


@dataclass(frozen=True)
class SectorConfig:
    azimuth_deg: tuple[float, float] = (-60.0, 60.0)

    def __post_init__(self):
        _check_fields(self, "sector.")
        lo, hi = self.azimuth_deg
        if not lo < hi:
            raise ValueError(f"sector.azimuth_deg must be two increasing angles, got {(lo, hi)}")


@dataclass(frozen=True)
class ChannelConfig:
    regime: str = "flat"  # flat | clustered, whose shape constants live in ``channel``

    def __post_init__(self):
        if self.regime not in ("flat", "clustered"):
            raise ValueError(f"unknown channel.regime {self.regime!r}; choose flat or clustered")


@dataclass(frozen=True)
class CellConfig:
    radius_m: float = 150.0
    isd_m: float = 500.0
    min_distance_m: float = 20.0
    roots: tuple[int, int, int] = (25, 29, 34)

    def __post_init__(self):
        _check_fields(self, "cell.", least={"radius_m": 0, "isd_m": 0, "min_distance_m": 0})


@dataclass(frozen=True)
class Scenario:
    """Resolved experiment configuration; defaults follow the reference numerology."""

    mode: str = "single_ue"  # single_ue | multi_ue_cell | multi_cell
    n_subcarriers: int = 512
    n_tot: int = 32
    n_rf: int = 4
    m_tot: int = 16
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
    sector: SectorConfig = field(default_factory=SectorConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    cell: CellConfig = field(default_factory=CellConfig)

    def __post_init__(self):
        # a window needs noise-only lags (t_ue), an SQNR estimate a variance (inner_repeats), a grid
        # longer than the prefix also holds the sequence (N_ZC < CP_LENGTH), and past +-3000 dB
        # lambda_max, sigma^2 or the noise powers taken from it leave the float range
        _check_fields(self, least={"n_subcarriers": waveform.CP_LENGTH + 1, "n_tot": 1, "n_rf": 1, "m_tot": 1,
                                   "codebook_oversampling": 1, "t_bs": 1, "t_ue": 2, "trials": 1,
                                   "inner_repeats": 2, "seed": 0, "lambda_max_inv_db": -3000.0,
                                   "snr_db_grid": -3000.0},
                      most={"lambda_max_inv_db": 3000.0})
        if self.mode not in ("single_ue", "multi_ue_cell", "multi_cell"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_tot % self.n_rf != 0:
            raise ValueError("n_tot must be a multiple of n_rf")
        for chains in (self.n_rf, 1):
            n_beam = self.n_tot // chains * self.codebook_oversampling
            # n_beam >= 2 passes the budget by 21 chains, so the power need go no higher
            if n_beam > 1 and n_beam ** min(chains, 21) > optimizer.SEARCH_BUDGET:
                raise ValueError(
                    f"n_tot = {self.n_tot}, n_rf = {self.n_rf} and codebook_oversampling = "
                    f"{self.codebook_oversampling} give the {chains}-chain beam search {n_beam}^{chains} "
                    f"candidates, above optimizer.SEARCH_BUDGET = {optimizer.SEARCH_BUDGET}")
        n_zc = waveform.N_ZC
        for root in self.cell.roots:
            if not 1 <= root < n_zc or math.gcd(root, n_zc) != 1:
                raise ValueError(f"cell.roots must be in [1, {n_zc}) and coprime with {n_zc}, got {root}")
        if not all(map(math.isfinite, self.cfo_grid)):
            raise ValueError("cfo_grid must be finite (no NaN or inf)")
        for b in self.adc_bits:
            if b != math.inf and not (1 <= b <= quantization.MAX_BITS and b == int(b)):  # NaN fails the range
                raise ValueError(f"adc_bits must be integers in [1, {quantization.MAX_BITS}] or inf, got {b}")
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
    return channel.ArrayGeometry(kind="ula", n_elements=scenario.n_tot)


def sync_waveform(scenario: Scenario, root: int = waveform.ZC_ROOT) -> waveform.SyncWaveform:
    return waveform.make_sync_waveform(root, waveform.N_ZC, scenario.n_subcarriers, waveform.CP_LENGTH)


def noise_variance(scenario: Scenario, snr_db: float) -> float:
    """sigma^2 for the given transmit SNR (pre-beamforming, edge-referenced)."""
    wf = sync_waveform(scenario)
    e_d = float(np.sum(np.abs(wf.symbols) ** 2))
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
    anchors = optimizer.build_anchor_grid(
        scenario.t_bs, tuple(map(math.radians, scenario.sector.azimuth_deg)))
    bound = optimizer.BoundParams(scenario.lambda_max, 0.0)
    plans = {}
    for method, n_rf in (("proposed", scenario.n_rf), ("single_stream", 1)):
        codebook = beamforming.dft_codebook(scenario.n_tot // n_rf, scenario.codebook_oversampling)
        sels = []
        for anchor in anchors:
            gains = optimizer.multi_beam_gains(codebook, n_rf, geom, anchor)
            sels.append(optimizer.select_from_gains(gains, bound))
        tx = [beamforming.effective_tx_vector(beamforming.BeamSet(codebook, sel.indices)) for sel in sels]
        plans[method] = BeamPlan(np.array([sel.indices for sel in sels]), np.array(tx),
                                 sum(sel.iteration_count for sel in sels))
    return {(method, bits): plan for bits in scenario.adc_bits for method, plan in plans.items()}


def serving_slot(anchors: np.ndarray, az: float) -> int:
    """Slot whose anchor azimuth is closest to ``az``, the first on a tie."""
    return int(np.argmin((anchors - az) ** 2))


def _link(scenario: Scenario, rng: np.random.Generator, aod_az: float, amp: float) -> channel.BeamSpaceChannel:
    """One cell's link to the UE: its rays, gains scaled by ``amp``, and their taps.

    The AoA is drawn first, then the flat ray's phase or the clustered rays.
    A flat link has one tap; a clustered one spans a pulse tail of five
    samples past its last ray, capped by the cyclic prefix.  Delays are
    integers, where the pulse is a Kronecker delta, so the tail taps carry
    no power and the cap drops every ray at or past ``CP_LENGTH`` whole.
    """
    aoa = rng.uniform(-np.pi / 2, np.pi / 2)
    if scenario.channel.regime == "flat":
        paths, taps = channel.single_path(aod_az, aoa, amp * np.exp(2j * np.pi * rng.random())), 1
    else:
        paths = channel.clustered_paths(rng, center_az=aod_az, aoa_center=aoa)
        paths = replace(paths, gains=paths.gains * amp)
        taps = min(waveform.CP_LENGTH, math.ceil(paths.delays.max()) + 5)
    return channel.build_channel(paths, bs_geometry(scenario), channel.ArrayGeometry("ula", scenario.m_tot), taps)


def _unit_noise(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """CN(0, 1) samples; the real parts are drawn before the imaginary ones."""
    shape = (rows, cols)
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    rails = out.view(np.float64)
    rails *= 1.0 / math.sqrt(2.0)  # as numpy's complex division by sqrt(2) scales
    return out


@dataclass
class _Correlated:
    """Samples of one trial and their correlation against the reference.

    The correlation is computed on first use and then shared by every arm
    that sees the same samples.  ``pad`` zeros on both sides extend it to
    every lag at which the samples overlap the reference: a burst of n
    samples gets lags -(n - 1) .. n - 1.
    """

    samples: np.ndarray
    reference: np.ndarray
    pad: int = 0

    @cached_property
    def correlation(self) -> np.ndarray:
        x = quantization.check_finite(self.samples)
        if self.pad:
            x = np.zeros((x.shape[0], x.shape[1] + 2 * self.pad), dtype=np.complex128)
            x[:, self.pad : -self.pad] = self.samples
        return detector.correlate(x, self.reference).values


def _trials(scenario: Scenario, trial_lo: int, trial_hi: int):
    """The draws every experiment shares, trial by trial.

    Yields ``(trial, rng, slot, reference, burst)``: the trial's generator,
    left where the links end, the serving slot, the serving cell's reference
    samples and ``burst(tx_vec, cfo=0.0)``.  The UE drop is a uniform sector
    draw in ``single_ue`` and ``channel.drop_users`` in the cell modes, where
    ``multi_cell`` adds one interfering link per neighbour.  ``burst`` sums
    every cell's clean burst once per distinct transmit vector and CFO.
    """
    cell = scenario.cell
    if scenario.mode == "multi_cell":
        layout = channel.hex_layout(cell.isd_m, cell.min_distance_m, cell.roots)
    else:
        layout = channel.single_cell_layout(cell.radius_m, cell.min_distance_m, waveform.ZC_ROOT)
    waveforms = [sync_waveform(scenario, root=r) for r in layout.roots]
    reference = waveforms[0].time_samples
    az_lo, az_hi = (math.radians(a) for a in scenario.sector.azimuth_deg)
    anchors = optimizer.build_anchor_grid(scenario.t_bs, (az_lo, az_hi))
    for trial in range(trial_lo, trial_hi):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(trial,)))
        if scenario.mode == "single_ue":
            ue_pos, aod, amp = None, rng.uniform(az_lo, az_hi), 1.0
        else:
            drop = channel.drop_users(layout, rng, sector_halfwidth=az_hi)
            ue_pos, aod, amp = drop.position, drop.azimuth, drop.amp_gain
        slot = serving_slot(anchors, aod)
        links = []
        for i, centre in enumerate(layout.centers):
            if i:  # a neighbour, its sector's boresight facing the central cell
                vec = ue_pos - centre
                aod = math.atan2(vec[1], vec[0]) - math.atan2(-centre[1], -centre[0])
                aod = (aod + math.pi) % (2.0 * math.pi) - math.pi  # wrapped to [-pi, pi)
                shadow = rng.normal(0.0, channel.SHADOWING_SIGMA_DB)
                amp = channel.pathloss_amp_gain(float(np.hypot(vec[0], vec[1])), layout.cell_radius_m, shadow)
            links.append((_link(scenario, rng, aod, amp), waveforms[i]))
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


def _window_agc(y: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Per-row AGC rms of the window ``y``, checked as ``quantization.apply``
    checks its input; ``power``, a float buffer of y's shape, receives |y|^2.

    A NaN or inf sample makes its row's rms NaN or inf, so a finite AGC
    stands for ``quantization.check_finite`` over the whole window; the rms
    must then be positive (``quantization.check_agc``).
    """
    np.abs(y, out=power)
    np.square(power, out=power)
    agc = np.sqrt(np.mean(power, axis=1) / 2.0)[:, None]
    if not np.all(np.isfinite(agc)):
        raise ValueError("samples must be finite")
    quantization.check_agc(agc)
    return agc


def _sqnr_window(clean: np.ndarray, conj_reference: np.ndarray, sigma2: float, noise_unit: np.ndarray,
                 squared: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window every ADC arm of one (trial, SNR, transmit vector) measures.

    The antenna with the strongest noiseless zero-lag response is measured,
    the smallest index of those within a relative 1e-9 of the largest power
    (in a flat channel all tie): each row is its burst plus sqrt(sigma2)
    times one repetition of unit noise.  Returns the window, its per-row AGC
    rms from ``_window_agc`` (taken in the float buffer ``squared``), and
    the window scaled by 1/AGC.
    """
    power = np.abs(clean @ conj_reference) ** 2
    b_hat = int(np.argmax(power >= (1.0 - 1e-9) * power.max()))
    y = np.multiply(math.sqrt(sigma2), noise_unit)
    y += clean[b_hat]
    agc = _window_agc(y, squared)
    return y, agc, quantization.agc_scale(y, agc)


def _sqnr_chunk(scenario: Scenario, arms, sigma2_grid, trial_lo: int, trial_hi: int) -> list[dict]:
    """Zero-lag SQNR rows: per (trial, SNR), every arm's |mean|^2 / var of its
    repetitions' zero-lag correlations, all arms' moments in one pass.  The
    channel and sync sequence stay fixed over the ``inner_repeats`` noise
    draws, so distortion that is a fixed function of the burst moves the
    mean, not the variance (see ``sqnr_db_sample`` in the module notes)."""
    rows = []
    shape = (scenario.inner_repeats, scenario.n_subcarriers)
    quantized, squared = np.empty(shape, np.complex128), np.empty(shape)
    z = np.empty((len(arms), scenario.inner_repeats), np.complex128)
    for _, rng, slot, reference, burst in _trials(scenario, trial_lo, trial_hi):
        conj_reference = np.conj(reference)
        noise_unit = _unit_noise(rng, scenario.inner_repeats, scenario.n_subcarriers)
        for snr_db, sigma2 in zip(scenario.snr_db_grid, sigma2_grid):
            windows: dict = {}  # the arms of one transmit vector share its window
            for i, (_, _, adc, tx_vectors) in enumerate(arms):
                tx_vec = tx_vectors[slot]
                key = tx_vec.tobytes()
                if key not in windows:
                    windows[key] = _sqnr_window(burst(tx_vec).samples, conj_reference, sigma2, noise_unit, squared)
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
# detection experiments: timing / CFO and multi-cell
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
    """The buffers every detection window of a chunk reuses, one per role.

    Returns the complex (m_tot, window) window, the correlator's complex
    (m_tot, nfft) output and a float (m_tot, window) buffer for |y|^2,
    each allocated on its own.
    """
    m, window = scenario.m_tot, scenario.n_subcarriers * scenario.t_ue
    nfft = detector._next_fast_len(window)
    return np.empty((m, window), np.complex128), np.empty((m, nfft), np.complex128), np.empty((m, window))


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
    AGC taken and checked (``_window_agc``) and it is quantized in place in
    its buffer, then correlated into the correlator's buffer, so the profile
    is only valid until the next window.

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
        agc = _window_agc(y, power)
        if not adc.is_infinite:
            quantization.quantize_scaled(adc, quantization.agc_scale(y, agc, out=y), agc, out=y)
        return detector.detect(detector.correlate(y, reference, out=spectrum), nu_true=t)
    quantization.check_finite(scale)
    noise_values = noise.correlation
    values = np.multiply(scale, noise_values, out=spectrum[:, : noise_values.shape[1]])
    # C(burst) column j is the window lag t - (n - 1) + j
    lo = max(t - (n - 1), 0)
    hi = min(t + n, values.shape[1])
    values[:, lo:hi] += burst.correlation[:, lo - t + n - 1 : hi - t + n - 1]
    return detector.detect(detector.CorrelationProfile(values), nu_true=t)


def _detection_chunk(scenario: Scenario, arms, sigma2_grid, trial_lo: int, trial_hi: int, *, sweep: bool,
                     columns: tuple[str, ...]) -> list[dict]:
    """Detection rows per (trial, arm, CFO, SNR), holding the values ``columns`` names.

    Only the serving slot is visited, or with ``sweep`` the frame's slots
    from 0 until the first success at or after it.  The i-th slot visited
    reads the trial's i-th noise window, drawn on its first visit and shared
    by every arm, CFO and SNR.
    """
    rows = []
    work = _window_workspace(scenario)
    for trial, rng, slot, reference, burst in _trials(scenario, trial_lo, trial_hi):
        t = int(rng.integers(1, scenario.n_subcarriers * (scenario.t_ue - 1), endpoint=True))
        slots = range(scenario.t_bs) if sweep else (slot,)
        noises: list[_Correlated] = []
        for method, bits, adc, tx_vectors in arms:
            for cfo in scenario.cfo_grid:
                for snr_db, sigma2 in zip(scenario.snr_db_grid, sigma2_grid):
                    first_slot = -1
                    for i, tau in enumerate(slots):
                        if i == len(noises):
                            noises.append(_Correlated(_unit_noise(rng, *work[0].shape), reference))
                        out = _detect_window(burst(tx_vectors[tau], cfo), noises[i], sigma2, t, adc, work)
                        if tau == slot:
                            serving = out
                        if out.success and first_slot < 0:
                            first_slot = tau
                        if first_slot >= 0 and tau >= slot:
                            break
                    row = {"method": method, "trial": trial, "slot": slot, "snr_db": snr_db, "cfo": cfo,
                           "bits": bits, "nu_true": t, "nu_hat": serving.nu_hat, "b_hat": serving.b_hat,
                           "peak_power": serving.peak_power, "success": int(serving.success),
                           "first_success_slot": first_slot}
                    rows.append({key: row[key] for key in columns})
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
    "timing": (("single_ue", "multi_ue_cell"), partial(_detection_chunk, sweep=False, columns=(
        "method", "trial", "slot", "snr_db", "cfo", "bits", "nu_true", "nu_hat", "b_hat", "peak_power",
        "success")), ("method", "bits", "snr_db", "cfo"), _timing_stats),
    "multicell": (("multi_cell",), partial(_detection_chunk, sweep=True, columns=(
        "method", "trial", "slot", "snr_db", "bits", "nu_true", "success", "first_success_slot")),
        ("method", "bits", "snr_db"), _multicell_stats),
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

        with ProcessPoolExecutor(max_workers=min(workers, len(los))) as pool:
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
