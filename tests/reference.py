"""The experiments' rows, restated trial by trial through public calls only.

Slow and plain: no two arms share a window, buffer or cache, each window is
built whole, checked, AGC-scaled, coded and correlated on its own, and an
infinite-resolution arm correlates its whole window.  Per trial, one
generator ``SeedSequence(seed, spawn_key=(trial,))`` draws the UE drop, then
per cell the neighbour's shadowing and its link, then the burst timing nu
(timing, multicell), then the noise: one (inner_repeats, N) block (sqnr), or
one window per slot visited, the i-th slot visited reading the i-th window.
``tests/test_fastpath.py`` holds the program's rows equal to these.
"""

import math

import numpy as np

from mmwsync import channel, detector, optimizer, quantization, waveform
from mmwsync import montecarlo as mc

COLUMNS = {"timing": ("method", "trial", "slot", "snr_db", "cfo", "bits", "nu_true", "nu_hat", "b_hat",
                      "peak_power", "success"),
           "multicell": ("method", "trial", "slot", "snr_db", "bits", "nu_true", "success", "first_success_slot")}


def rail_codes(adc, scaled):
    """Each rail's midrise code, clip(floor(v / step), -2^(b-1), 2^(b-1) - 1), written out."""
    half = 2 ** (adc.bits - 1)
    codes = np.empty(np.shape(scaled), np.complex128)
    codes.real = np.clip(np.floor(scaled.real / adc.step), -half, half - 1)
    codes.imag = np.clip(np.floor(scaled.imag / adc.step), -half, half - 1)
    return codes


def link(scenario, rng, aod, amp):
    """One cell's link: the AoA, then a flat ray's phase or the clustered rays;
    one tap per distinct delay below the cyclic prefix, the sum over that
    delay's rays of amp * gain * a_rx(AoA) a_tx(AoD)^H, a(az)[m] = exp(-j pi m sin(az))."""
    aoa = rng.uniform(-np.pi / 2, np.pi / 2)
    if scenario.channel.regime == "flat":
        paths = channel.single_path(aod, aoa, np.exp(2j * np.pi * rng.random()))
    else:
        paths = channel.clustered_paths(rng, center_az=aod, aoa_center=aoa)

    def steering(n, azimuths):  # (n, rays)
        return np.exp(-1j * np.pi * np.arange(n)[:, None] * np.sin(azimuths)[None, :])

    delays = sorted({d for d in paths.delays.tolist() if d < waveform.CP_LENGTH})
    taps = []
    for d in delays:
        at = paths.delays == d
        a_tx, a_rx = steering(scenario.n_tot, paths.aod_az[at]), steering(scenario.m_tot, paths.aoa[at])
        taps.append(np.einsum("mr,r,nr->mn", a_rx, amp * paths.gains[at], np.conj(a_tx)))
    return channel.BeamSpaceChannel(np.stack(taps), np.array(delays, dtype=np.int64))


def draw_links(scenario, trial):
    """The trial's generator, left where the links end, its serving slot and
    its cells' (link, sync samples), the serving cell first."""
    cell = scenario.cell
    layout = (channel.hex_layout(cell.isd_m, cell.min_distance_m, cell.roots) if scenario.mode == "multi_cell"
              else channel.single_cell_layout(cell.radius_m, cell.min_distance_m, waveform.ZC_ROOT))
    az_lo, az_hi = (math.radians(a) for a in scenario.sector.azimuth_deg)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(trial,)))
    if scenario.mode == "single_ue":
        aod, amp = rng.uniform(az_lo, az_hi), 1.0
    else:
        drop = channel.drop_users(layout, rng, sector_halfwidth=az_hi)
        aod, amp = drop.azimuth, drop.amp_gain
    slot = mc.serving_slot(optimizer.build_anchor_grid(scenario.t_bs, (az_lo, az_hi)), aod)
    cells = []
    for centre, root in zip(layout.centers, layout.roots):
        if cells:  # a neighbour, its sector's boresight facing the central cell
            x, y = drop.position - centre
            aod = math.atan2(y, x) - math.atan2(-centre[1], -centre[0])
            aod = (aod + math.pi) % (2.0 * math.pi) - math.pi
            shadow = rng.normal(0.0, channel.SHADOWING_SIGMA_DB)
            amp = channel.pathloss_amp_gain(float(np.hypot(x, y)), layout.cell_radius_m, shadow)
        cells.append((link(scenario, rng, aod, amp), mc.sync_waveform(scenario, root=root).time_samples))
    return rng, slot, cells


def burst(scenario, cells, tx_vec, cfo=0.0):
    """Every cell's clean burst through ``channel.propagate``, summed in cell order."""
    first, *rest = (channel.propagate(ch, samples, tx_vec, 0.0, cfo, 0, scenario.n_subcarriers)
                    for ch, samples in cells)
    return sum(rest, first)


def unit_noise(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def adc_output(bits, y, reference, correlator):
    """``correlator`` of the checked window y against the reference: of the
    samples at infinite resolution, else of the rail codes of the window
    AGC-scaled to its per-antenna rail rms, plus 0.5 (1 + j) sum(conj(r)),
    times step * AGC."""
    y = quantization.check_finite(y)
    if bits == math.inf:
        return correlator(y, reference)
    adc = quantization.AdcModel(bits=bits)
    agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
    sums = correlator(rail_codes(adc, quantization.agc_scale(y, agc)), reference)
    return (sums + 0.5 * (1 + 1j) * np.conj(reference).sum()) * (adc.step * agc)


def zero_lag(x, reference):
    return (x @ np.conj(reference))[:, None]


def sqnr_rows(scenario):
    """|mean|^2 / var, in dB, of each arm's zero-lag correlations over the
    trial's noise block, at the antenna detect picks on the noiseless zero-lag profile."""
    plans, rows = mc.slot_beam_plans(scenario), []
    for trial in range(scenario.trials):
        rng, slot, cells = draw_links(scenario, trial)
        reference = cells[0][1]
        noise = unit_noise(rng, scenario.inner_repeats, scenario.n_subcarriers)
        for snr_db in scenario.snr_db_grid:
            scale = math.sqrt(mc.noise_variance(scenario, snr_db))
            for (method, bits), plan in plans.items():
                clean = burst(scenario, cells, plan.tx_vectors[slot])
                b_hat = detector.detect(detector.CorrelationProfile(zero_lag(clean, reference))).b_hat
                z = adc_output(bits, scale * noise + clean[b_hat], reference, zero_lag)[:, 0]
                mean = z.mean()
                g = float(np.abs(mean) ** 2) / float(np.mean(np.abs(z - mean) ** 2))
                rows.append({"method": method, "bits": bits, "snr_db": snr_db,
                             "sqnr_db_sample": 10.0 * math.log10(g)})
    return rows


def detection_rows(scenario, experiment):
    """The timing or the multicell experiment's rows; a multicell trial
    visits every slot of the frame and reports the first that succeeds."""
    sweep = experiment == "multicell"
    plans, rows = mc.slot_beam_plans(scenario), []
    n, window = scenario.n_subcarriers, scenario.n_subcarriers * scenario.t_ue
    for trial in range(scenario.trials):
        rng, slot, cells = draw_links(scenario, trial)
        reference = cells[0][1]
        t = int(rng.integers(1, n * (scenario.t_ue - 1), endpoint=True))
        slots = range(scenario.t_bs) if sweep else [slot]
        noises = [unit_noise(rng, scenario.m_tot, window) for _ in slots]
        for (method, bits), plan in plans.items():
            for cfo in scenario.cfo_grid:
                for snr_db in scenario.snr_db_grid:
                    scale = math.sqrt(mc.noise_variance(scenario, snr_db))
                    outs = {}
                    for tau, noise in zip(slots, noises):
                        y = scale * noise
                        y[:, t : t + n] += burst(scenario, cells, plan.tx_vectors[tau], cfo)
                        profile = adc_output(bits, y, reference, lambda x, r: detector.correlate(x, r).values)
                        outs[tau] = detector.detect(detector.CorrelationProfile(profile))
                    serving = outs[slot]
                    row = {"method": method, "trial": trial, "slot": slot, "snr_db": snr_db, "cfo": cfo,
                           "bits": bits, "nu_true": t, "nu_hat": serving.nu_hat, "b_hat": serving.b_hat,
                           "peak_power": serving.peak_power, "success": int(serving.nu_hat == t),
                           "first_success_slot": next((tau for tau in slots if outs[tau].nu_hat == t), -1)}
                    rows.append({key: row[key] for key in COLUMNS[experiment]})
    return rows
