"""The fast per-window path against the plain computations it replaces:
every experiment's rows against the plain pipeline of ``reference``, and
each kernel against its written-out formula."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import reference
from closed_forms import select_multi_beam
from mmwsync import beamforming, channel, cli, detector, optimizer, quantization, waveform
from mmwsync import montecarlo as mc
from mmwsync.config import CellConfig, ChannelConfig, Scenario
from reference import rail_codes

ROOT = Path(__file__).resolve().parents[1]


def direct_correlation(received: np.ndarray, reference: np.ndarray) -> np.ndarray:
    n = reference.shape[0]
    lags = received.shape[-1] - n + 1
    return np.array(
        [[np.sum(row[nu : nu + n] * np.conj(reference)) for nu in range(lags)]
         for row in np.atleast_2d(received)]
    )


def midrise_formula(adc, samples, agc_rms):
    """Per-rail quantizer written out rail by rail."""
    scaled = np.asarray(samples, dtype=np.complex128) / agc_rms
    return (rail_codes(adc, scaled) + (0.5 + 0.5j)) * (adc.step * agc_rms)


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
        levels = (want + (0.5 + 0.5j)) * (adc.step * rms)
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


def test_noiseless_flat_infinite_resolution_picks_the_first_antenna():
    """In a flat noiseless window every antenna's peak power is equal up to
    rounding, so the tie goes to antenna 0."""
    rows = mc.run_timing_experiment(NOISELESS_FLAT_TIMING).rows
    inf_rows = [r for r in rows if r["bits"] == math.inf]
    assert len(inf_rows) == 2 * NOISELESS_FLAT_TIMING.trials
    assert [r["b_hat"] for r in inf_rows] == [0] * len(inf_rows)


@pytest.mark.parametrize("run, scenario", NOISELESS_SCENARIOS, ids=NOISELESS_IDS)
def test_noiseless_agc_runs_on_finite_resolution_windows_only(monkeypatch, run, scenario):
    """Each finite window is AGC-scaled and quantized once, and an
    infinite-resolution one neither, though every window is detected."""
    calls = {"agc_scale": 0, "midrise_codes": 0, "detect": 0}
    for module, name in ((quantization, "agc_scale"), (quantization, "midrise_codes"), (detector, "detect")):
        def counted(*args, original=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    run(scenario)
    assert 0 < calls["agc_scale"] == calls["midrise_codes"] < calls["detect"]


ONE_PER_EXPERIMENT = [
    (mc.run_sqnr_experiment, SQNR),
    (mc.run_timing_experiment, CFO_TIMING),
    (mc.run_multicell_experiment, MULTICELL),
]


@pytest.mark.parametrize("run, scenario", ONE_PER_EXPERIMENT, ids=["sqnr", "timing", "multicell"])
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


@pytest.mark.parametrize("run, scenario", ONE_PER_EXPERIMENT, ids=["sqnr", "timing", "multicell"])
def test_no_experiment_samples_the_pulse(monkeypatch, run, scenario):
    """Links hold integer ray delays, so no experiment goes through the dense,
    pulse-shaped ``build_channel`` or evaluates the pulse."""
    def refuse(*args, **kwargs):
        raise AssertionError("an experiment sampled the pulse-shaped channel")

    monkeypatch.setattr(channel, "build_channel", refuse)
    monkeypatch.setattr(channel.RaisedCosinePulse, "__call__", refuse)
    assert run(scenario).rows


SQNR_ARMS = Scenario(
    trials=3,
    t_bs=4,
    inner_repeats=8,
    adc_bits=(1.0, 2.0, 13.0, 14.0, 15.0, 16.0, math.inf),
    snr_db_grid=(-5.0, 10.0),
    seed=23,
)


def detection_case(mode, regime, seed, **kwargs):
    return Scenario(mode=mode, trials=2, t_bs=4, t_ue=3, m_tot=4, adc_bits=(1.0, 2.0, math.inf),
                    snr_db_grid=(-10.0, 0.0, math.inf), channel=ChannelConfig(regime), seed=seed, **kwargs)


MODES, REGIMES = ("single_ue", "multi_ue_cell"), ("flat", "clustered")
# 66 trials at a tiny numerology, run by two workers under the in-process stand-in pool: the second
# slice starts at trial 33
TWO_SLICES = Scenario(n_subcarriers=65, t_ue=2, t_bs=2, m_tot=2, n_tot=8, n_rf=2, trials=66, inner_repeats=4,
                      adc_bits=(1.0, 2.0, math.inf), snr_db_grid=(-10.0, 0.0), channel=ChannelConfig("clustered"),
                      seed=47)
REFERENCE_CASES = {
    **{f"sqnr-{mode}-{regime}": ("sqnr", replace(SQNR_ARMS, mode=mode, channel=ChannelConfig(regime)), False, 1)
       for mode in MODES for regime in REGIMES},
    **{f"timing-{mode}-{regime}": ("timing", detection_case(mode, regime, 41, cfo_grid=(-0.5, 0.0, 0.5)), False, 1)
       for mode in MODES for regime in REGIMES},
    "timing-odd_window": ("timing", ODD_WINDOW_TIMING, False, 1),
    **{f"multicell-{regime}": ("multicell", detection_case("multi_cell", regime, 43), False, 1) for regime in REGIMES},
    # each root's sequence carries its own mean, so the codes' ½(1 + j)·sum(conj(r)) term is far from rounding level,
    # and in multicell taking it from another cell's root than the serving one would show
    "sqnr-root_means": ("sqnr", SQNR_ARMS, True, 1),
    "timing-root_means": ("timing", detection_case("single_ue", "clustered", 41, cfo_grid=(-0.5, 0.0, 0.5)), True, 1),
    "multicell-root_means": ("multicell", detection_case("multi_cell", "clustered", 43), True, 1),
    "sqnr-cross_chunk": ("sqnr", TWO_SLICES, False, 2),
    "timing-cross_chunk": ("timing", TWO_SLICES, False, 2),
    "multicell-cross_chunk": ("multicell", replace(TWO_SLICES, mode="multi_cell", adc_bits=(2.0, math.inf)), False, 2),
    **{f"golden-{name}": ("timing" if name == "cfo" else name,
                          cli.parse_config(ROOT / f"tests/golden/{name}/scenario.yaml"), False, 1)
       for name in ("sqnr", "timing", "cfo", "multicell")},
}


@pytest.mark.parametrize("experiment, scenario, means, workers", REFERENCE_CASES.values(), ids=REFERENCE_CASES)
def test_rows_equal_the_reference_pipeline(monkeypatch, serial_pool, experiment, scenario, means, workers):
    """Every row holds the reference's columns in order, and its values, for
    every trial slice the run splits into.  An infinite-resolution detection
    profile is assembled from the noise's and the burst's correlations, so
    its ``peak_power`` is held within 1e-12 relative, not equal."""
    if means:
        sync_waveform = mc.sync_waveform

        def with_mean(scenario, root=waveform.ZC_ROOT):
            wf = sync_waveform(scenario, root=root)
            return replace(wf, time_samples=wf.time_samples + root * (0.004 + 0.003j))

        monkeypatch.setattr(mc, "sync_waveform", with_mean)
    rows = getattr(mc, f"run_{experiment}_experiment")(scenario, workers=workers).rows
    assert serial_pool.sizes == ([workers] if workers > 1 else [])
    want = reference.sqnr_rows(scenario) if experiment == "sqnr" else reference.detection_rows(scenario, experiment)
    assert [list(row) for row in rows] == [list(row) for row in want]
    for row, ref in zip(rows, want):
        if row["bits"] == math.inf and "peak_power" in row:
            assert math.isclose(row.pop("peak_power"), ref.pop("peak_power"), rel_tol=1e-12), ref
        assert row == ref


def test_one_sqnr_window_per_trial_snr_and_transmit_vector(monkeypatch):
    agc_scale, windows = quantization.agc_scale, []

    def counting(samples, *args, **kwargs):
        windows.append(samples.tobytes())
        return agc_scale(samples, *args, **kwargs)

    monkeypatch.setattr(quantization, "agc_scale", counting)
    mc.run_sqnr_experiment(SQNR_ARMS)
    plans = mc.slot_beam_plans(SQNR_ARMS)
    slots = [reference.draw_links(SQNR_ARMS, trial)[1] for trial in range(SQNR_ARMS.trials)]
    distinct = sum(len({plan.tx_vectors[slot].tobytes() for plan in plans.values()}) for slot in slots)
    n_snr = len(SQNR_ARMS.snr_db_grid)
    assert len(windows) == len(set(windows)) == distinct * n_snr
    assert len(windows) < SQNR_ARMS.trials * n_snr * len(plans)


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


# the detection experiments' windows: timing, CFO, a window the FFT pads,
# multicell, and two finite resolutions per beam plan in timing and in
# multicell
WINDOW_SCENARIOS = [
    (mc.run_timing_experiment, TIMING),
    (mc.run_timing_experiment, CFO_TIMING),
    (mc.run_timing_experiment, ODD_WINDOW_TIMING),
    (mc.run_multicell_experiment, MULTICELL),
    (mc.run_timing_experiment, replace(CFO_TIMING, adc_bits=(2.0, 4.0, math.inf))),
    (mc.run_multicell_experiment, replace(MULTICELL, adc_bits=(2.0, 4.0, math.inf))),
]
WINDOW_IDS = ["timing", "cfo", "odd_window", "multicell", "two_finite_timing", "two_finite_multicell"]


@pytest.mark.parametrize("run, scenario", WINDOW_SCENARIOS, ids=WINDOW_IDS)
def test_rows_equal_with_one_trial_per_chunk(serial_pool, run, scenario):
    """Nothing carries from one trial to the next: rows are the same when
    every trial is a slice of its own, and so takes its reference's
    conjugate and sum afresh."""
    whole = run(scenario).rows
    assert run(scenario, workers=scenario.trials).rows == whole
    assert serial_pool.slices == [(trial, trial + 1) for trial in range(scenario.trials)]


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


def correlated_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of each array ``detector.correlate`` is handed, in call order."""
    original, shapes = detector.correlate, []

    def counted(received, reference):
        shapes.append(np.shape(received))
        return original(received, reference)

    monkeypatch.setattr(detector, "correlate", counted)
    return shapes


def test_timing_trial_correlates_each_infinite_input_once(monkeypatch):
    """Per trial of the benchmark's timing sweep: one window per finite arm and
    SNR (2 methods x 5 SNRs), then once the noise window and once each
    method's zero-padded burst that the infinite-resolution arms share."""
    scenario = replace(cli.parse_config(ROOT / "bench/scenarios/timing_snr_sweep.yaml"), trials=3)
    shapes = correlated_shapes(monkeypatch)
    mc.run_timing_experiment(scenario)
    n = mc.sync_waveform(scenario).time_samples.shape[0]
    window, burst = (scenario.m_tot, scenario.n_subcarriers * scenario.t_ue), (scenario.m_tot, 3 * n - 2)
    assert len(shapes) == 13 * scenario.trials
    assert (shapes.count(window), shapes.count(burst)) == (11 * scenario.trials, 2 * scenario.trials)


@pytest.mark.parametrize("bits", [(2.0, 4.0), (2.0, math.inf)], ids=["finite", "with_inf"])
def test_only_an_infinite_arm_correlates_a_burst(monkeypatch, bits):
    scenario = replace(MULTICELL, adc_bits=bits)
    shapes = correlated_shapes(monkeypatch)
    mc.run_multicell_experiment(scenario)
    n = mc.sync_waveform(scenario).time_samples.shape[0]
    assert shapes
    assert ((scenario.m_tot, 3 * n - 2) in shapes) == (math.inf in bits)


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
