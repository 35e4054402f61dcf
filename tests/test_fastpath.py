"""The fast per-window path against the plain computations it replaces."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from closed_forms import select_multi_beam
from mmwsync import beamforming, channel, cli, detector, optimizer, quantization, waveform
from mmwsync import montecarlo as mc
from mmwsync.montecarlo import CellConfig, ChannelConfig, Scenario

ROOT = Path(__file__).resolve().parents[1]


def direct_correlation(received: np.ndarray, reference: np.ndarray) -> np.ndarray:
    n = reference.shape[0]
    lags = received.shape[-1] - n + 1
    return np.array(
        [[np.sum(row[nu : nu + n] * np.conj(reference)) for nu in range(lags)]
         for row in np.atleast_2d(received)]
    )


def rail_code(adc, v):
    """A rail's midrise code, written out."""
    half = 2 ** (int(adc.bits) - 1)
    return np.clip(np.floor(v / adc.step), -half, half - 1)


def midrise_formula(adc, samples, agc_rms):
    """Per-rail quantizer written out rail by rail."""
    scaled = np.asarray(samples, dtype=np.complex128) / agc_rms

    def rail(v):
        return (rail_code(adc, v) + 0.5) * adc.step

    return (rail(scaled.real) + 1j * rail(scaled.imag)) * agc_rms


def rail_codes(adc, scaled):
    """Both rails' ``rail_code`` in one complex array."""
    codes = np.empty(np.shape(scaled), np.complex128)
    codes.real = rail_code(adc, scaled.real)
    codes.imag = rail_code(adc, scaled.imag)
    return codes


def zero_lag_of_codes(adc, scaled, agc, conj_reference):
    """Each row's zero-lag sum of its codes, + 0.5 (1 + j) sum(conj(r)), x step * agc."""
    z = rail_codes(adc, scaled) @ conj_reference
    z += 0.5 * (1 + 1j) * conj_reference.sum()
    z *= adc.step * agc[:, 0]
    return z


class TestCorrelate:
    # 1031 is not a fast FFT length, so the transform is longer than the window
    @pytest.mark.parametrize("shape", [(3, 1031), (1031,)])
    def test_matches_direct_sliding_product(self, shape):
        rng = np.random.default_rng(5)
        received = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        reference = rng.standard_normal(63) + 1j * rng.standard_normal(63)
        values = detector.correlate(received, reference).values
        assert values.shape == (1 if len(shape) == 1 else shape[0], 1031 - 63 + 1)
        np.testing.assert_allclose(
            values, direct_correlation(received, reference), rtol=0, atol=1e-10
        )

    def test_next_fast_len_matches_scipy(self):
        want = [scipy.fft.next_fast_len(n) for n in range(1, 20001)]
        assert [detector._next_fast_len(n) for n in range(1, 20001)] == want

    # the timing window, the padded burst span of a 576-sample reference, and 1-D
    @pytest.mark.parametrize("shape", [(16, 5120), (16, 1726), (5120,)])
    def test_bit_identical_to_scipy_fft(self, shape):
        rng = np.random.default_rng(11)
        received = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        reference = rng.standard_normal(576) + 1j * rng.standard_normal(576)
        window = shape[-1]
        nfft = scipy.fft.next_fast_len(window)
        spectrum = scipy.fft.fft(np.atleast_2d(received), nfft, axis=1)
        spectrum *= np.conj(scipy.fft.fft(reference, nfft))
        want = scipy.fft.ifft(spectrum, axis=1, overwrite_x=True)[:, : window - 576 + 1]
        assert np.array_equal(detector.correlate(received, reference).values, want)


class TestApply:
    @pytest.mark.parametrize("bits", [1, 2, 4, 12])
    def test_bit_identical_to_formula(self, bits):
        rng = np.random.default_rng(bits)
        y = 3.0 * (rng.standard_normal((16, 640)) + 1j * rng.standard_normal((16, 640)))
        kept = y.copy()
        agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
        adc = quantization.AdcModel(bits=bits)
        q = quantization.apply(adc, y, agc)
        assert np.array_equal(q, midrise_formula(adc, y, agc))
        assert np.array_equal(y, kept)

    @pytest.mark.parametrize("bits", [1, 3, 16])
    @pytest.mark.parametrize(
        "case",
        ["scalar_agc", "row_agc", "column_agc", "zero_d", "transposed", "signed_zeros",
         "tiny_agc", "huge_agc"],
    )
    def test_layouts_and_extremes_byte_identical_to_formula(self, bits, case):
        rng = np.random.default_rng(bits)
        y = 3.0 * (rng.standard_normal((16, 640)) + 1j * rng.standard_normal((16, 640)))
        row_agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
        zeros = y.copy()
        zeros[0, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.0]
        zeros[1, :] = complex(-0.0, -0.0)
        samples, agc = {
            "scalar_agc": (y, 1.7),
            "row_agc": (y, row_agc),
            "column_agc": (y, rng.uniform(0.5, 2.0, 640)),
            "zero_d": (np.complex128(0.3 - 1.2j), 0.9),
            "transposed": (y.T, row_agc[:, 0]),
            "signed_zeros": (zeros, row_agc),
            "tiny_agc": (y, 1e-300),  # the scaled rails reach ~1e300 and clip to the outer levels
            "huge_agc": (y, 1e300),  # the scaled rails underflow to the two central levels
        }[case]
        adc = quantization.AdcModel(bits=bits)
        q = quantization.apply(adc, samples, agc)
        want = np.asarray(midrise_formula(adc, samples, agc))
        assert q.shape == want.shape and q.tobytes() == want.tobytes()


def saturating_window(seed: int) -> np.ndarray:
    """A (16, 512) noisy window whose rows 0-3 each carry one spike with
    rails of +-50, over 20 times their row's rail rms and past every
    resolution's clip, and whose row 4 opens with every signed zero."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((16, 512)) + 1j * rng.standard_normal((16, 512))
    y[np.arange(4), 100 + np.arange(4)] = [50.0 + 50.0j, -50.0 - 50.0j, 50.0 - 50.0j, -50.0 + 50.0j]
    y[4, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.0]
    return y


class TestMidriseCodes:
    @pytest.mark.parametrize("bits", range(1, 17))
    @pytest.mark.parametrize("agc", ["scalar", "row"])
    def test_codes_and_levels_byte_identical_to_written_out_rails(self, bits, agc):
        adc = quantization.AdcModel(bits=bits)
        y = saturating_window(bits)
        rms = 1.3 if agc == "scalar" else np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
        scaled = quantization.agc_scale(y, rms)
        kept = scaled.copy()
        codes = quantization.midrise_codes(adc, scaled)
        want = rail_codes(adc, scaled)
        assert codes.shape == want.shape and codes.tobytes() == want.tobytes()
        assert scaled.tobytes() == kept.tobytes()
        half = 2 ** (bits - 1)
        top, bottom = complex(half - 1, half - 1), complex(-half, -half)  # the spikes' rails clip
        assert codes[np.arange(4), 100 + np.arange(4)].tolist() == [
            top, bottom, complex(half - 1, -half), complex(-half, half - 1)]
        zeros = scaled[4, :4].view(np.float64)  # the scaling keeps some signed zeros, not all
        assert not zeros.any() and set(np.signbit(zeros).tolist()) == {True, False}
        levels = (want + (0.5 + 0.5j)) * adc.step * rms
        assert quantization.apply(adc, y, rms).tobytes() == levels.tobytes()


class TestZeroLagOfCodes:
    """Every finite arm correlates its codes and rescales the sums
    (``quantization.levels_of_code_sums``) rather than correlating the
    quantized samples; only the rounding order differs."""

    @pytest.mark.parametrize("bits", range(1, 17))
    @pytest.mark.parametrize("kind", ["sync", "offset"])
    @pytest.mark.parametrize("lags", ["zero", "full"])
    def test_within_1e_12_of_correlating_apply(self, bits, kind, lags):
        adc = quantization.AdcModel(bits=bits)
        reference = mc.sync_waveform(Scenario()).time_samples
        if kind == "offset":
            # the sync band leaves DC empty, so sum(conj(r)) is ~1e-15 and the
            # codes' +0.5 offset all but vanishes; a reference with a mean keeps it
            reference = reference + (0.05 - 0.03j)
        conj_reference = np.conj(reference)
        y = saturating_window(bits)
        t = 0
        if lags == "full":  # 513 lags, the burst at lag 200
            y, t = np.concatenate([y, saturating_window(bits + 16)], axis=1), 200
        y[8:, t : t + reference.shape[0]] += 20.0 * reference  # rows the burst dominates
        agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
        q = quantization.apply(adc, y, agc)
        codes = quantization.midrise_codes(adc, quantization.agc_scale(y, agc))
        if lags == "zero":
            want, got = q @ conj_reference, codes @ conj_reference
            quantization.levels_of_code_sums(got, adc, agc[:, 0], conj_reference.sum())
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        else:
            want, got = detector.correlate(q, reference).values, detector.correlate(codes, reference).values
            quantization.levels_of_code_sums(got, adc, agc, conj_reference.sum())
            assert want.shape == (16, 513)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (64, 512), (16, 5120)])
@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_unit_noise_byte_identical_to_complex_division(shape, seed):
    rng = np.random.default_rng(seed)
    got = mc._unit_noise(rng, *shape)
    ref_rng = np.random.default_rng(seed)
    want = (ref_rng.standard_normal(shape) + 1j * ref_rng.standard_normal(shape)) / math.sqrt(2.0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.random() == ref_rng.random()  # the same number of draws


CFO_TIMING = Scenario(
    trials=3,
    t_bs=4,
    t_ue=3,
    adc_bits=(2.0, math.inf),
    snr_db_grid=(-10.0, 0.0),
    cfo_grid=(-0.5, 0.0, 0.5),
    channel=ChannelConfig(regime="clustered"),
    seed=13,
)


def explicit_infinite_resolution(monkeypatch) -> list[tuple]:
    """Detect each profile of ``_infinite_profile`` and each infinite-resolution
    window also the plain way (whole window, ``quantization.check_finite``,
    ``detector.correlate``), hold the two to each other, and collect the plain
    (nu_hat, b_hat, success) in order."""
    fast = mc._infinite_profile
    checked = []

    def explicit(burst, noise, scale, t, spectrum):
        profile = fast(burst, noise, scale, t, spectrum)
        out = detector.detect(profile, nu_true=t)
        reference = noise.reference
        n = reference.shape[0]
        y = scale * noise.samples
        y[:, t : t + n] += burst.samples
        ref = detector.detect(detector.correlate(quantization.check_finite(y), reference), nu_true=t)
        assert (out.nu_hat, out.b_hat, out.success) == (ref.nu_hat, ref.b_hat, ref.success)
        assert out.peak_power == pytest.approx(ref.peak_power, rel=1e-12)
        checked.append((ref.nu_hat, ref.b_hat, ref.success))
        return profile

    monkeypatch.setattr(mc, "_infinite_profile", explicit)
    return checked


def test_infinite_resolution_rows_match_explicit_detection(monkeypatch):
    checked = explicit_infinite_resolution(monkeypatch)
    rows = mc.run_timing_experiment(CFO_TIMING).rows
    inf_rows = [r for r in rows if r["bits"] == math.inf]
    assert len(checked) == len(inf_rows) == 3 * 2 * 3 * 2
    for row, (ref_nu, ref_b, ref_ok) in zip(inf_rows, checked):
        assert (row["nu_hat"], row["b_hat"], row["success"]) == (ref_nu, ref_b, int(ref_ok))


SQNR = Scenario(trials=3, t_bs=4, inner_repeats=4, adc_bits=(1.0, 2.0, math.inf), seed=3)

TIMING = replace(CFO_TIMING, cfo_grid=(0.0,), seed=29)
# a 128 x 13 = 1664-sample window transforms at 1680, so the correlator's
# output is longer than the window
ODD_WINDOW_TIMING = replace(TIMING, n_subcarriers=128, t_ue=13, seed=31)

MULTICELL = Scenario(
    mode="multi_cell",
    trials=2,
    t_bs=2,
    t_ue=2,
    m_tot=4,
    adc_bits=(2.0, math.inf),
    snr_db_grid=(-10.0, 0.0),
    channel=ChannelConfig(regime="clustered"),
    cell=CellConfig(isd_m=500.0),
    seed=17,
)


NOISELESS = (math.inf,)
NOISELESS_FLAT_TIMING = replace(TIMING, mode="multi_ue_cell", channel=ChannelConfig("flat"),
                                snr_db_grid=NOISELESS)
NOISELESS_SCENARIOS = [
    (mc.run_timing_experiment, NOISELESS_FLAT_TIMING),
    (mc.run_timing_experiment, replace(CFO_TIMING, snr_db_grid=NOISELESS)),
    (mc.run_multicell_experiment, replace(MULTICELL, snr_db_grid=NOISELESS)),
]
NOISELESS_IDS = ["timing", "cfo", "multicell"]


@pytest.mark.parametrize("run, scenario", NOISELESS_SCENARIOS, ids=NOISELESS_IDS)
def test_noiseless_infinite_resolution_rows_match_explicit_detection(monkeypatch, run, scenario):
    """At +inf dB sigma^2 is 0: each infinite-resolution window, assembled from
    the burst's correlation, detects as the whole window detected explicitly."""
    checked = explicit_infinite_resolution(monkeypatch)
    rows = run(scenario).rows
    assert all(math.isfinite(v) for r in rows for k, v in r.items()
               if isinstance(v, float) and k not in ("bits", "snr_db"))
    inf_rows = [r for r in rows if r["bits"] == math.inf]
    windows = iter(checked)
    if run is mc.run_timing_experiment:
        for row, (ref_nu, ref_b, ref_ok) in zip(inf_rows, windows):
            assert (row["nu_hat"], row["b_hat"], row["success"]) == (ref_nu, ref_b, int(ref_ok))
    else:  # the multicell chunk scans the frame until the serving slot and one success have passed
        for row in inf_rows:
            first = -1
            for tau in range(scenario.t_bs):
                ok = next(windows)[2]
                if tau == row["slot"]:
                    assert row["success"] == int(ok)
                if ok and first < 0:
                    first = tau
                if first >= 0 and tau >= row["slot"]:
                    break
            assert row["first_success_slot"] == first
    assert inf_rows and next(windows, None) is None


def test_noiseless_flat_infinite_resolution_picks_the_first_antenna():
    """In a flat noiseless window every antenna's peak power is equal up to
    rounding, so the tie goes to antenna 0."""
    rows = mc.run_timing_experiment(NOISELESS_FLAT_TIMING).rows
    inf_rows = [r for r in rows if r["bits"] == math.inf]
    assert len(inf_rows) == 2 * NOISELESS_FLAT_TIMING.trials
    assert [r["b_hat"] for r in inf_rows] == [0] * len(inf_rows)


@pytest.mark.parametrize("run, scenario", NOISELESS_SCENARIOS, ids=NOISELESS_IDS)
def test_noiseless_agc_runs_on_finite_resolution_windows_only(monkeypatch, run, scenario):
    """Each finite window is one ``_front_end`` call and one quantization, and an
    infinite-resolution one neither."""
    infinite_profile, front_end = mc._infinite_profile, mc._front_end
    midrise_codes = quantization.midrise_codes
    finite, agc_calls = [], []

    def counted_profile(*args):
        finite.append(False)
        return infinite_profile(*args)

    def counted_quantizer(*args, **kwargs):
        finite.append(True)
        return midrise_codes(*args, **kwargs)

    def counted_agc(*args):
        agc_calls.append(1)
        return front_end(*args)

    monkeypatch.setattr(mc, "_infinite_profile", counted_profile)
    monkeypatch.setattr(quantization, "midrise_codes", counted_quantizer)
    monkeypatch.setattr(mc, "_front_end", counted_agc)
    run(scenario)
    assert 0 < sum(finite) < len(finite)
    assert len(agc_calls) == sum(finite)


@pytest.mark.parametrize(
    "run, scenario",
    [
        (mc.run_sqnr_experiment, SQNR),
        (mc.run_timing_experiment, CFO_TIMING),
        (mc.run_multicell_experiment, MULTICELL),
    ],
    ids=["sqnr", "timing", "multicell"],
)
def test_one_propagate_per_distinct_input(monkeypatch, run, scenario):
    original = channel.propagate
    held, inputs = [], []

    def counting(ch, waveform, tx_vector, noise_var, cfo, *args):
        held.append(ch)  # keeps every channel alive, so no id is reused
        inputs.append((id(ch), tx_vector.tobytes(), cfo))
        return original(ch, waveform, tx_vector, noise_var, cfo, *args)

    monkeypatch.setattr(channel, "propagate", counting)
    run(scenario)
    assert inputs
    assert len(inputs) == len(set(inputs))


def empirical_zero_lag_sqnr(burst_clean, reference, sigma2, adc, noise_unit) -> float:
    """One arm measured on its own, window included: the oracle for the sqnr rows.

    The antenna with the strongest noiseless zero-lag response is measured,
    the smallest index among those within a relative 1e-9 of the largest
    power; each repetition adds fresh noise, runs the per-window AGC and ADC
    (none when ``adc`` is None, at infinite resolution), and correlates at the
    true alignment.  A finite arm correlates its rail codes c, written out,
    and rescales the sums: sum((c + 0.5 + 0.5j) * step * agc * conj(r)) is
    (sum(c * conj(r)) + 0.5 (1 + j) sum(conj(r))) * step * agc
    (``TestZeroLagOfCodes`` bounds its distance from correlating
    ``quantization.apply``'s samples).  The estimate is |mean|^2 / var of the
    complex correlation samples.
    """
    conj_reference = np.conj(reference)
    power = np.abs(burst_clean @ conj_reference) ** 2
    b_hat = min(i for i, p in enumerate(power) if p >= (1.0 - 1e-9) * power.max())
    y = burst_clean[b_hat][None, :] + math.sqrt(sigma2) * noise_unit
    if adc is None:
        z = quantization.check_finite(y) @ conj_reference
    else:
        agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
        z = zero_lag_of_codes(adc, y / agc, agc, conj_reference)
    mean = z.mean()
    var = float(np.mean(np.abs(z - mean) ** 2))
    if var == 0.0:
        return math.inf
    return float(np.abs(mean) ** 2 / var)


def per_arm_sqnr_rows(scenario: Scenario) -> list[dict]:
    plans = mc.slot_beam_plans(scenario)
    shape = (scenario.inner_repeats, scenario.n_subcarriers)
    rows = []
    for _, rng, slot, reference, burst in mc._trials(scenario, 0, scenario.trials):
        noise_unit = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
        for snr_db in scenario.snr_db_grid:
            sigma2 = mc.noise_variance(scenario, snr_db)
            for (method, bits), plan in plans.items():
                adc = None if bits == math.inf else quantization.AdcModel(bits=bits)
                g = empirical_zero_lag_sqnr(
                    burst(plan.tx_vectors[slot]).samples, reference, sigma2, adc, noise_unit
                )
                rows.append({"method": method, "bits": bits, "snr_db": snr_db,
                             "sqnr_db_sample": 10.0 * math.log10(g) if g > 0 else -math.inf})
    return rows


SQNR_ARMS = Scenario(
    trials=3,
    t_bs=4,
    inner_repeats=8,
    adc_bits=(1.0, 2.0, 13.0, 14.0, 15.0, 16.0, math.inf),
    snr_db_grid=(-5.0, 10.0),
    seed=23,
)


@pytest.mark.parametrize("mode", ["single_ue", "multi_ue_cell"])
@pytest.mark.parametrize("regime", ["flat", "clustered"])
def test_sqnr_rows_equal_per_arm_measurement(mode, regime):
    scenario = replace(SQNR_ARMS, mode=mode, channel=ChannelConfig(regime=regime))
    assert mc.run_sqnr_experiment(scenario).rows == per_arm_sqnr_rows(scenario)


def test_one_sqnr_window_per_trial_snr_and_transmit_vector(monkeypatch):
    original = mc._front_end
    built = []

    def counting(noise, scale, burst, *rest):
        built.append((burst.tobytes(), scale))
        return original(noise, scale, burst, *rest)

    monkeypatch.setattr(mc, "_front_end", counting)
    mc.run_sqnr_experiment(SQNR_ARMS)
    plans = mc.slot_beam_plans(SQNR_ARMS)
    distinct = sum(
        len({plan.tx_vectors[slot].tobytes() for plan in plans.values()})
        for _, _, slot, _, _ in mc._trials(SQNR_ARMS, 0, SQNR_ARMS.trials)
    )
    n_snr = len(SQNR_ARMS.snr_db_grid)
    assert len(built) == len(set(built)) == distinct * n_snr
    assert len(built) < SQNR_ARMS.trials * n_snr * len(plans)


@pytest.mark.parametrize("bits", [(2.0,), (1.0, 2.0, 4.0, 12.0, math.inf)], ids=["one_arm", "five_arms"])
def test_one_search_per_slot_for_every_arm(monkeypatch, bits):
    calls = []
    original = optimizer.select_from_gains

    def counting(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(optimizer, "select_from_gains", counting)
    scenario = replace(SQNR_ARMS, adc_bits=bits)
    assert len(mc.slot_beam_plans(scenario)) == 2 * len(bits)
    # one search per slot and method: the proposed n_rf-chain table, then the one-chain table
    ovs = scenario.codebook_oversampling
    proposed = (scenario.n_tot // scenario.n_rf * ovs,) * scenario.n_rf
    assert calls == [proposed] * scenario.t_bs + [(scenario.n_tot * ovs,)] * scenario.t_bs


SCENARIO_FILES = sorted((ROOT / "configs").glob("*.yaml")) + sorted(
    (ROOT / "bench" / "scenarios").glob("*.yaml")
)


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_slot_beam_plans_match_per_resolution_search(path):
    every_bits = tuple(float(b) for b in range(1, 17)) + (math.inf,)
    scenario = replace(cli.parse_config(path), adc_bits=every_bits)
    plans = mc.slot_beam_plans(scenario)
    geom = mc.bs_geometry(scenario)
    anchors = optimizer.build_anchor_grid(
        scenario.t_bs, tuple(map(math.radians, scenario.sector.azimuth_deg)))
    sub_cb = beamforming.dft_codebook(scenario.n_tot // scenario.n_rf, scenario.codebook_oversampling)
    full_cb = beamforming.dft_codebook(scenario.n_tot, scenario.codebook_oversampling)
    for bits in every_bits:
        xi = 0.0 if bits == math.inf else quantization.xi_for_bits(int(bits))
        bound = optimizer.BoundParams(scenario.lambda_max, xi)
        for method, cb, n_rf in (("proposed", sub_cb, scenario.n_rf), ("single_stream", full_cb, 1)):
            sels = [select_multi_beam(cb, n_rf, geom, a, bound) for a in anchors]
            plan = plans[(method, bits)]
            assert plan.indices.tolist() == [list(sel.indices) for sel in sels]
            assert plan.iteration_count == sum(sel.iteration_count for sel in sels)


# two finite resolutions per beam plan: each arm builds its window in the
# buffer the other arm last quantized in place
WINDOW_SCENARIOS = [
    (mc.run_timing_experiment, TIMING),
    (mc.run_timing_experiment, CFO_TIMING),
    (mc.run_timing_experiment, ODD_WINDOW_TIMING),
    (mc.run_multicell_experiment, MULTICELL),
    (mc.run_timing_experiment, replace(CFO_TIMING, adc_bits=(2.0, 4.0, math.inf))),
    (mc.run_multicell_experiment, replace(MULTICELL, adc_bits=(2.0, 4.0, math.inf))),
]
WINDOW_IDS = ["timing", "cfo", "odd_window", "multicell", "two_finite_timing", "two_finite_multicell"]


@pytest.mark.parametrize("scenario", [Scenario(), ODD_WINDOW_TIMING], ids=["16x5120", "odd_window"])
def test_workspace_buffers_share_no_memory(monkeypatch, scenario):
    """The window (scaled and coded in place), |y|^2 and the correlator's
    output are one buffer each for the whole run, and no two share memory."""
    front_end, midrise_codes, correlate = mc._front_end, quantization.midrise_codes, detector.correlate
    infinite_profile = mc._infinite_profile
    roles: dict[str, list] = {"window": [], "spectrum": [], "power": []}

    def seen_window(noise, scale, burst, t, y, power, scaled):
        assert scaled is y
        roles["window"].append(y)
        roles["power"].append(power)
        return front_end(noise, scale, burst, t, y, power, scaled)

    def seen_quantizer(adc, scaled, out=None):
        assert out is scaled
        return midrise_codes(adc, scaled, out=out)

    def seen_correlator(received, reference, out=None):
        if out is not None:
            roles["spectrum"].append(out)
        return correlate(received, reference, out)

    def seen_profile(burst, noise, scale, t, spectrum):
        roles["spectrum"].append(spectrum)
        return infinite_profile(burst, noise, scale, t, spectrum)

    monkeypatch.setattr(mc, "_front_end", seen_window)
    monkeypatch.setattr(quantization, "midrise_codes", seen_quantizer)
    monkeypatch.setattr(detector, "correlate", seen_correlator)
    monkeypatch.setattr(mc, "_infinite_profile", seen_profile)
    mc.run_timing_experiment(replace(scenario, trials=2, adc_bits=(2.0, 4.0, math.inf)))
    work = []
    for buffers in roles.values():
        assert buffers and all(buf is buffers[0] for buf in buffers)
        work.append(buffers[0])
    window = scenario.n_subcarriers * scenario.t_ue
    nfft = {5120: 5120, 1664: 1680}[window]
    assert [(buf.shape, buf.dtype) for buf in work] == [
        ((16, window), np.complex128), ((16, nfft), np.complex128), ((16, window), np.float64)]
    for i, buf in enumerate(work):
        for other in work[i + 1:]:
            assert not np.shares_memory(buf, other)


@pytest.mark.parametrize("run, scenario", WINDOW_SCENARIOS, ids=WINDOW_IDS)
def test_rows_equal_with_a_fresh_workspace_per_window(monkeypatch, run, scenario):
    reused = run(scenario).rows
    front_end, infinite_profile, correlate = mc._front_end, mc._infinite_profile, detector.correlate

    def fresh_window(noise, scale, burst, t, *buffers):
        for buf in buffers:
            buf.fill(np.nan)  # a stale or unwritten sample would show
        return front_end(noise, scale, burst, t, *buffers)

    def fresh_correlator(received, reference, out=None):
        if out is not None:
            out.fill(np.nan)
        return correlate(received, reference, out)

    def fresh_spectrum(burst, noise, scale, t, spectrum):
        spectrum.fill(np.nan)
        return infinite_profile(burst, noise, scale, t, spectrum)

    monkeypatch.setattr(mc, "_front_end", fresh_window)
    monkeypatch.setattr(detector, "correlate", fresh_correlator)
    monkeypatch.setattr(mc, "_infinite_profile", fresh_spectrum)
    assert run(scenario).rows == reused


@pytest.mark.parametrize("means", [False, True], ids=["sync", "root_means"])
@pytest.mark.parametrize("run, scenario", WINDOW_SCENARIOS, ids=WINDOW_IDS)
def test_quantized_windows_equal_allocating_calls(monkeypatch, run, scenario, means):
    """Each finite arm's profile, its window built by ``_front_end``, coded in
    place, correlated and rescaled, detects as the written-out codes of
    ``quantization.apply``'s AGC-scaled window, correlated, plus
    0.5 (1 + j) sum(conj(r)), times step * AGC.  With ``means`` each root's
    sequence carries its own mean, so sum(conj(r)) taken from another cell's
    sequence than the one correlated against would show."""
    front_end, midrise_codes = mc._front_end, quantization.midrise_codes
    correlate, detect, sync_waveform = detector.correlate, detector.detect, mc.sync_waveform
    window, quantized, reference, checked = [], [], [], []

    def with_mean(scenario, root=waveform.ZC_ROOT):
        wf = sync_waveform(scenario, root=root)
        return replace(wf, time_samples=wf.time_samples + root * (0.004 + 0.003j))

    def recorded_window(noise, scale, burst, t, *buffers):
        window[:] = noise, scale, burst, t
        return front_end(noise, scale, burst, t, *buffers)

    def recorded_adc(adc, *args, **kwargs):
        quantized.append(adc)
        return midrise_codes(adc, *args, **kwargs)

    def recorded_reference(received, r, out=None):
        reference[:] = [r]
        return correlate(received, r, out)

    def explicit(profile, nu_true=None):
        got = detect(profile, nu_true)
        if quantized:  # the profile of the window an arm just coded
            adc, (noise, scale, burst, t), (r,) = quantized.pop(), window, reference
            y = scale * noise
            y[:, t : t + burst.shape[1]] += burst
            agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
            values = correlate(rail_codes(adc, quantization.agc_scale(y, agc)), r).values
            values += 0.5 * (1 + 1j) * np.conj(r).sum()
            values *= adc.step * agc
            assert got == detect(detector.CorrelationProfile(values), nu_true=t)
            checked.append(got)
        return got

    if means:
        monkeypatch.setattr(mc, "sync_waveform", with_mean)
    monkeypatch.setattr(mc, "_front_end", recorded_window)
    monkeypatch.setattr(quantization, "midrise_codes", recorded_adc)
    monkeypatch.setattr(detector, "correlate", recorded_reference)
    monkeypatch.setattr(detector, "detect", explicit)
    run(scenario)
    assert checked


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # (scale + 0j) * inf
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("bits", [2.0, math.inf])
@pytest.mark.parametrize("run, scenario", WINDOW_SCENARIOS[::3], ids=WINDOW_IDS[::3])
def test_nonfinite_noise_sample_is_rejected(monkeypatch, run, scenario, bits, bad):
    original = mc._unit_noise

    def planted(rng, rows, cols):
        noise = original(rng, rows, cols)
        noise[1, 7] = bad
        return noise

    monkeypatch.setattr(mc, "_unit_noise", planted)
    with pytest.raises(ValueError, match="samples must be finite"):
        run(replace(scenario, adc_bits=(bits,)))


def noise_draws_per_trial(monkeypatch) -> list[int]:
    """Count the ``_unit_noise`` windows each trial draws, in trial order."""
    trials, unit_noise = mc._trials, mc._unit_noise
    counts = []

    def counted_trials(*args):
        for item in trials(*args):
            counts.append(0)
            yield item

    def counted_noise(*args):
        counts[-1] += 1
        return unit_noise(*args)

    monkeypatch.setattr(mc, "_trials", counted_trials)
    monkeypatch.setattr(mc, "_unit_noise", counted_noise)
    return counts


@pytest.mark.parametrize("scenario", [TIMING, CFO_TIMING], ids=["timing", "cfo"])
def test_timing_trial_draws_one_noise_window(monkeypatch, scenario):
    counts = noise_draws_per_trial(monkeypatch)
    mc.run_timing_experiment(scenario)
    assert counts == [1] * scenario.trials


@pytest.mark.parametrize(
    "scenario",
    [cli.parse_config(ROOT / "tests/golden/multicell/scenario.yaml"), replace(MULTICELL, t_bs=4)],
    ids=["golden", "fastpath"],
)
def test_multicell_trial_draws_only_the_windows_it_visits(monkeypatch, scenario):
    """A slot's window is drawn on its first visit, so the trial draws as many
    windows as its furthest-reaching arm and SNR visit slots."""
    counts = noise_draws_per_trial(monkeypatch)
    rows = mc.run_multicell_experiment(scenario).rows
    visited = [0] * scenario.trials
    for r in rows:
        reach = scenario.t_bs if r["first_success_slot"] < 0 else max(r["slot"], r["first_success_slot"]) + 1
        visited[r["trial"]] = max(visited[r["trial"]], reach)
    assert counts == visited
    assert min(counts) < scenario.t_bs


@pytest.mark.parametrize("run, scenario", WINDOW_SCENARIOS[::3], ids=WINDOW_IDS[::3])
def test_one_adc_model_per_arm_per_run(monkeypatch, run, scenario):
    original = quantization.AdcModel
    built = []

    def counting(*args, **kwargs):
        adc = original(*args, **kwargs)
        built.append(adc.bits)
        return adc

    monkeypatch.setattr(quantization, "AdcModel", counting)
    run(scenario)
    finite = [bits for bits in scenario.adc_bits if bits != math.inf]
    assert sorted(built) == sorted(2 * finite)  # two methods per finite resolution
