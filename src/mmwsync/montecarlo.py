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
  before a trial runs.  It builds the arms ``(method, bits, adc,
  tx_vectors)`` once per run and sigma^2 once per SNR, and hands both to
  every chunk; nothing is cached across runs.  An infinite-resolution arm
  has no ADC model: its ``adc`` is None, any other arm's an ``AdcModel``.
* Beam plans are semi-static: selected once per scenario from the anchor
  grid, then reused by every trial (no channel knowledge).  One search
  serves both methods, single-stream being its one-chain case, and each
  slot is searched once for every ADC resolution: the bound's maximizer
  depends on neither the quantization MSE nor the noise variance
  (``slot_beam_plans``).
* One draw rule, stated once in ``_trials``, the only function that
  draws: every random number of a trial comes from one generator spawned
  from (seed, trial index), concern by concern, in the order drop, links,
  timing, noise.  Every arm and SNR of a trial share its channel, timing
  and noise, so comparisons are paired (common random numbers).
* ``sqnr_db_sample`` is |mean|^2 / var of one trial's zero-lag
  correlations over ``inner_repeats`` noise draws, the channel and the sync
  sequence held fixed, at the antenna ``detector.detect`` picks on the
  noiseless zero-lag profile.  Quantization distortion that is a fixed
  function of the burst lands in the mean, not the variance, so above about
  0 dB it departs from the Bussgang gamma the bound models (table in
  ROADMAP.md).
* One ADC front end: ``_front_end`` alone builds a noisy window,
  ``quantization.agc_rms`` takes its AGC and ``quantization.agc_scale``
  scales it by 1/AGC; after that, only the quantizer differs between arms.
  In the sqnr experiment the arms of one (trial, SNR, transmit vector)
  share one window.  A finite arm correlates its ADC codes
  (``quantization.midrise_codes``) and rescales the sums to the levels'
  (``levels_of_code_sums``).  Every window builds its own arrays, and no
  value carries from one window or trial to the next; the last window's
  arrays stay referenced until the next window's exist
  (``_detection_chunk``).  An infinite-resolution timing or multicell arm
  builds no window: its profile is assembled from the noise's and the
  burst's correlations (``_infinite_profile``).
* ``detector`` never sees the true timing: ``_detection_chunk`` judges
  each estimate against it, and ``timing_nmse`` is this module's.
* Each synchronization attempt is one burst in an otherwise noise-only
  window of t_ue symbols (non-sync samples are modeled as noise).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__ as _VERSION
from . import beamforming, channel, detector, optimizer, quantization, waveform
from .config import Scenario, scenario_hash
from .config import CellConfig, ChannelConfig  # noqa: F401  (tests/test_acceptance.py imports them from here)


@dataclass
class StatSummary:
    """Per-sample rows plus aggregate rows and run metadata."""

    rows: list[dict]
    aggregates: list[dict]
    meta: dict


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


def _unit_noise(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """CN(0, 1) samples; the real parts are drawn before the imaginary ones."""
    shape = (rows, cols)
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    rails = out.view(np.float64)
    rails *= 1.0 / math.sqrt(2.0)  # as numpy's complex division by sqrt(2) scales
    return out


def _lags(memo: dict, key, samples: np.ndarray, reference: np.ndarray, pad: int = 0) -> np.ndarray:
    """``memo[key]``, set on first read to the checked samples' correlation
    against the reference with ``pad`` zeros on both sides: a burst of n
    samples padded by n - 1 gets every lag -(n - 1) .. n - 1 it overlaps at."""
    if key not in memo:
        x = quantization.check_finite(samples)
        if pad:
            x = np.zeros((x.shape[0], x.shape[1] + 2 * pad), dtype=np.complex128)
            x[:, pad:-pad] = samples
        memo[key] = detector.correlate(x, reference).values
    return memo[key]


def _trials(scenario: Scenario, trial_lo: int, trial_hi: int, timed: bool):
    """Every random number of each trial: the one statement of the draw rule.

    A trial draws from one generator, ``SeedSequence(seed, spawn_key=(trial,))``,
    one concern after another.  Drop: the UE's, a uniform sector draw in
    ``single_ue`` and ``channel.drop_users`` in the cell modes.  Links: each
    cell's ``channel.draw_link``, the serving cell's first, each ``multi_cell``
    neighbour's after its ``channel.neighbour_geometry``.  Timing: the burst's
    lag nu, if ``timed`` (timing, multicell).  Noise: ``noise(i)``, the i-th
    CN(0, 1) window, (m_tot, N t_ue) if ``timed`` and the sqnr (inner_repeats,
    N) block if not, drawn on its first read; the chunks read windows in index
    order, so a trial draws only the windows some arm or SNR visits.

    Yields ``(trial, slot, reference, links, nu, noise)``: the serving slot,
    the serving cell's reference samples, one (channel, sync samples) pair per
    cell, the serving cell's first, for ``channel.sum_bursts``, nu (None if
    not ``timed``) and ``noise``.
    """
    cell, n = scenario.cell, scenario.n_subcarriers
    if scenario.mode == "multi_cell":
        layout = channel.hex_layout(cell.isd_m, cell.min_distance_m, cell.roots)
    else:
        layout = channel.single_cell_layout(cell.radius_m, cell.min_distance_m, waveform.ZC_ROOT)
    waveforms = [sync_waveform(scenario, root=r) for r in layout.roots]
    reference = waveforms[0].time_samples
    az_lo, az_hi = (math.radians(a) for a in scenario.sector.azimuth_deg)
    anchors = optimizer.build_anchor_grid(scenario.t_bs, (az_lo, az_hi))
    geom_tx, geom_rx = bs_geometry(scenario), channel.ArrayGeometry("ula", scenario.m_tot)
    shape = (scenario.m_tot, n * scenario.t_ue) if timed else (scenario.inner_repeats, n)
    for trial in range(trial_lo, trial_hi):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(trial,)))
        if scenario.mode == "single_ue":
            ue_pos, aod, amp = None, rng.uniform(az_lo, az_hi), 1.0
        else:
            ue_pos, aod, amp = channel.drop_users(layout, rng, sector_halfwidth=az_hi)
        slot = serving_slot(anchors, aod)
        links = []
        for i, centre in enumerate(layout.centers):
            if i:
                aod, amp = channel.neighbour_geometry(rng, centre, ue_pos, layout.cell_radius_m)
            links.append((channel.draw_link(rng, scenario.channel.regime, geom_tx, geom_rx, aod, amp),
                          waveforms[i].time_samples))
        nu = int(rng.integers(1, n * (scenario.t_ue - 1), endpoint=True)) if timed else None
        yield trial, slot, reference, links, nu, cache(lambda i, rng=rng: _unit_noise(rng, *shape))


def _front_end(noise: np.ndarray, scale: float, burst: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The ADC's input y, scale * noise with ``burst`` added from lag t, and
    its AGC rms column (``quantization.agc_rms``)."""
    y = scale * noise
    y[:, t : t + burst.shape[-1]] += burst
    return y, quantization.agc_rms(y)


# ---------------------------------------------------------------------------
# SQNR experiment
# ---------------------------------------------------------------------------


def _sqnr_chunk(scenario: Scenario, arms, sigma2_grid, trial_lo: int, trial_hi: int) -> list[dict]:
    """Zero-lag SQNR rows: per (trial, SNR), every arm's |mean|^2 / var of its
    repetitions' zero-lag correlations, all arms' moments in one pass.  The
    channel and sync sequence stay fixed over the ``inner_repeats`` noise
    draws, so distortion that is a fixed function of the burst moves the
    mean, not the variance (see ``sqnr_db_sample`` in the module notes).
    A finite arm correlates its codes, as "One ADC front end" there says."""
    rows = []
    for trial, slot, reference, links, _, noise in _trials(scenario, trial_lo, trial_hi, False):
        conj_reference = np.conj(reference)
        reference_sum = conj_reference.sum()
        # per transmit vector: its burst at the antenna detect picks on the noiseless
        # zero-lag profile, and the (index, adc) of every arm that sends it
        vectors: dict = {}
        for i, (_, _, adc, tx_vectors) in enumerate(arms):
            key = tx_vectors[slot].tobytes()
            if key not in vectors:
                clean = channel.sum_bursts(links, tx_vectors[slot], 0.0)
                b_hat = detector.detect(detector.CorrelationProfile((clean @ conj_reference)[:, None])).b_hat
                vectors[key] = (clean[b_hat], [])
            vectors[key][1].append((i, adc))
        for snr_db, sigma2 in zip(scenario.snr_db_grid, sigma2_grid):
            z = np.empty((len(arms), scenario.inner_repeats), np.complex128)
            for sent, members in vectors.values():
                y, agc = _front_end(noise(0), math.sqrt(sigma2), sent, 0)
                scaled = quantization.agc_scale(y, agc)
                for i, adc in members:
                    if adc is None:
                        z[i] = y @ conj_reference
                    else:
                        z[i] = quantization.midrise_codes(adc, scaled) @ conj_reference
                        quantization.levels_of_code_sums(z[i], adc, agc[:, 0], reference_sum)
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
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def timing_nmse(nu_true, nu_hat) -> float:
    """Mean of |(nu_true - nu_hat) / nu_true|^2 over paired timing indices,
    every true position nonzero for the ratio to exist."""
    errors = []
    for t, t_hat in zip(nu_true, nu_hat, strict=True):
        if t == 0:
            raise ValueError("timing NMSE undefined for true position 0")
        errors.append(abs((t - t_hat) / t) ** 2)
    if not errors:
        raise ValueError("no outcomes")
    return float(np.mean(errors))


def _infinite_profile(noise_lags: np.ndarray, burst_lags: np.ndarray, scale: float, t: int,
                      n: int) -> detector.CorrelationProfile:
    """The infinite-resolution profile of a burst placed at lag t in
    scale * unit noise, for a reference of n samples.

    Detection is linear there, so the profile is assembled as
    scale * C(noise) + C(burst) from the unit noise window's correlation and
    the burst's at lags -(n - 1) .. n - 1 (``_lags``), with no window, AGC
    or ADC (at +inf dB the scale is 0).  The scale is checked as
    ``quantization.apply`` checks its input.
    """
    quantization.check_finite(scale)
    values = scale * noise_lags
    # burst column j is the window lag t - (n - 1) + j
    lo = max(t - (n - 1), 0)
    hi = min(t + n, values.shape[1])
    values[:, lo:hi] += burst_lags[:, lo - t + n - 1 : hi - t + n - 1]
    return detector.CorrelationProfile(values)


def _detection_chunk(scenario: Scenario, arms, sigma2_grid, trial_lo: int, trial_hi: int, *, sweep: bool,
                     columns: tuple[str, ...]) -> list[dict]:
    """Detection rows per (trial, arm, CFO, SNR), holding the values ``columns`` names.

    Only the serving slot is visited, or with ``sweep`` the frame's slots
    from 0 until the first success at or after it.  The i-th slot visited
    reads ``noise(i)``, shared by every arm, CFO and SNR; the cells' burst is
    summed once per distinct transmit vector and CFO (``bursts``).  A
    finite-resolution arm's window is built, AGC-scaled and coded in place,
    then correlated.  An infinite-resolution arm reads their correlations
    from ``noise_lags[i]`` and ``burst_lags[key]``, each taken on its first
    read (``_lags``).
    """
    rows = []
    for trial, slot, reference, links, t, noise in _trials(scenario, trial_lo, trial_hi, True):
        n = reference.shape[0]
        reference_sum = np.conj(reference).sum()
        slots = range(scenario.t_bs) if sweep else (slot,)
        bursts, noise_lags, burst_lags = {}, {}, {}
        for method, bits, adc, tx_vectors in arms:
            for cfo in scenario.cfo_grid:
                for snr_db, scale in zip(scenario.snr_db_grid, map(math.sqrt, sigma2_grid)):
                    first_slot = -1
                    # y and profile hold the last window's arrays until this window's exist: freeing
                    # them first lets glibc trim the heap and fault it back in, window after window
                    for i, tau in enumerate(slots):
                        key = (tx_vectors[tau].tobytes(), cfo)
                        if key not in bursts:
                            bursts[key] = channel.sum_bursts(links, tx_vectors[tau], cfo)
                        if adc is None:
                            profile = _infinite_profile(_lags(noise_lags, i, noise(i), reference),
                                                        _lags(burst_lags, key, bursts[key], reference, n - 1),
                                                        scale, t, n)
                        else:
                            y, agc = _front_end(noise(i), scale, bursts[key], t)
                            quantization.agc_scale(y, agc, out=y)
                            profile = detector.correlate(quantization.midrise_codes(adc, y, out=y), reference)
                            quantization.levels_of_code_sums(profile.values, adc, agc, reference_sum)
                        out = detector.detect(profile)
                        if tau == slot:
                            serving = out
                        if out.nu_hat == t and first_slot < 0:
                            first_slot = tau
                        if first_slot >= 0 and tau >= slot:
                            break
                    row = {"method": method, "trial": trial, "slot": slot, "snr_db": snr_db, "cfo": cfo,
                           "bits": bits, "nu_true": t, "nu_hat": serving.nu_hat, "b_hat": serving.b_hat,
                           "peak_power": serving.peak_power, "success": int(serving.nu_hat == t),
                           "first_success_slot": first_slot}
                    rows.append({key: row[key] for key in columns})
    return rows


def _timing_stats(scenario: Scenario, sel: list[dict]) -> dict:
    nmse = timing_nmse([r["nu_true"] for r in sel], [r["nu_hat"] for r in sel])
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


class _Experiment(NamedTuple):
    modes: tuple[str, ...]  # the scenario modes it runs in
    chunk: Callable[..., list[dict]]  # (scenario, arms, sigma2_grid, trial_lo, trial_hi) -> those trials' rows
    keys: tuple[str, ...]  # the columns that name an aggregate point
    stats: Callable[..., dict]  # (scenario, rows of one point) -> the aggregate's remaining columns


_EXPERIMENTS = {
    "sqnr": _Experiment(("single_ue", "multi_ue_cell"), _sqnr_chunk, ("method", "bits", "snr_db"), _sqnr_stats),
    "timing": _Experiment(("single_ue", "multi_ue_cell"), partial(_detection_chunk, sweep=False, columns=(
        "method", "trial", "slot", "snr_db", "cfo", "bits", "nu_true", "nu_hat", "b_hat", "peak_power",
        "success")), ("method", "bits", "snr_db", "cfo"), _timing_stats),
    "multicell": _Experiment(("multi_cell",), partial(_detection_chunk, sweep=True, columns=(
        "method", "trial", "slot", "snr_db", "bits", "nu_true", "success", "first_success_slot")),
        ("method", "bits", "snr_db"), _multicell_stats),
}

def _run(experiment: str, scenario: Scenario, workers: int) -> StatSummary:
    """One experiment of ``_EXPERIMENTS`` over the arms of ``slot_beam_plans``.

    The arms ``(method, bits, adc, tx_vectors)`` and sigma^2 per entry of
    ``snr_db_grid`` are built once and passed to every chunk.  The trials
    split into min(workers, trials) contiguous chunks of near-equal length,
    one per process; a single chunk runs in this process.  The rows are
    identical for any worker count: each trial draws from its own generator
    (``_trials``), and nothing carries from one trial to the next.  Each
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
    if workers < 1:
        raise ValueError("workers must be >= 1")
    plans = slot_beam_plans(scenario)
    arms = [(method, bits, None if bits == math.inf else quantization.AdcModel(bits=bits), plan.tx_vectors)
            for (method, bits), plan in plans.items()]
    sigma2_grid = [noise_variance(scenario, snr_db) for snr_db in scenario.snr_db_grid]
    run_chunk = partial(chunk_fn, scenario, arms, sigma2_grid)
    n = min(workers, scenario.trials)
    if n == 1:
        parts = [run_chunk(0, scenario.trials)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # a one-worker run never needs it

        bounds = [scenario.trials * k // n for k in range(n + 1)]
        with ProcessPoolExecutor(max_workers=n) as pool:
            parts = list(pool.map(run_chunk, bounds[:-1], bounds[1:]))
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
