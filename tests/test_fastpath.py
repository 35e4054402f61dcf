"""The fast per-window path against the plain computations it replaces."""

import math

import numpy as np
import pytest
import scipy.fft

from mmwsync import channel, detector, quantization
from mmwsync import montecarlo as mc
from mmwsync.montecarlo import CellConfig, ChannelConfig, Scenario


def direct_correlation(received: np.ndarray, reference: np.ndarray) -> np.ndarray:
    n = reference.shape[0]
    lags = received.shape[-1] - n + 1
    return np.array(
        [[np.sum(row[nu : nu + n] * np.conj(reference)) for nu in range(lags)]
         for row in np.atleast_2d(received)]
    )


def midrise_formula(adc, samples, agc_rms):
    """Per-rail quantizer written out rail by rail."""
    half = 2 ** (int(adc.bits) - 1)
    scaled = np.asarray(samples, dtype=np.complex128) / agc_rms

    def rail(v):
        idx = np.clip(np.floor(v / adc.step), -half, half - 1)
        return (idx + 0.5) * adc.step

    return (rail(scaled.real) + 1j * rail(scaled.imag)) * agc_rms


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


def test_infinite_resolution_rows_match_explicit_detection(monkeypatch):
    fast = mc._detect_window
    checked = []

    def explicit(burst, noise, sigma2, t, adc):
        out = fast(burst, noise, sigma2, t, adc)
        if adc.is_infinite:
            reference = noise.reference
            n = reference.shape[0]
            y = math.sqrt(sigma2) * noise.samples
            y[:, t : t + n] += burst.samples
            agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2.0)[:, None]
            q = quantization.apply(adc, y, agc)
            ref = detector.detect(detector.correlate(q, reference), nu_true=t)
            checked.append((out.nu_hat, out.b_hat, out.success, ref.nu_hat, ref.b_hat, ref.success))
            assert out.peak_power == pytest.approx(ref.peak_power, rel=1e-12)
        return out

    monkeypatch.setattr(mc, "_detect_window", explicit)
    rows = mc.run_timing_experiment(CFO_TIMING).rows
    inf_rows = [r for r in rows if r["bits"] == math.inf]
    assert len(checked) == len(inf_rows) == 3 * 2 * 3 * 2
    for row, (nu, b, ok, ref_nu, ref_b, ref_ok) in zip(inf_rows, checked):
        assert (nu, b, ok) == (ref_nu, ref_b, ref_ok)
        assert (row["nu_hat"], row["b_hat"], row["success"]) == (ref_nu, ref_b, int(ref_ok))


SQNR = Scenario(trials=3, t_bs=4, inner_repeats=4, adc_bits=(1.0, 2.0, math.inf), seed=3)

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
