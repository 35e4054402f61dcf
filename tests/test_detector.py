import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from closed_forms import zero_lag_freq_correlation
from mmwsync import channel, detector, montecarlo, quantization, waveform
from mmwsync.channel import ArrayGeometry, RaisedCosinePulse


@pytest.fixture(scope="module")
def wf():
    return waveform.make_sync_waveform(34, 63, 512, 64)


class TestCorrelate:
    def test_matched_filter_on_itself(self, wf):
        d = wf.time_samples
        received = np.concatenate([d, np.zeros(512, complex)])
        prof = detector.correlate(received, d)
        mag = np.abs(prof.values[0])
        assert mag[0] == pytest.approx(np.sum(np.abs(d) ** 2), rel=1e-9)
        assert np.max(mag[64:]) < 0.35 * mag[0]

    def test_profile_length(self, wf):
        t_ue = 10
        received = np.zeros((16, 512 * t_ue), complex)
        prof = detector.correlate(received, wf.time_samples)
        assert prof.values.shape == (16, 512 * (t_ue - 1) + 1)

    def test_zero_received(self, wf):
        prof = detector.correlate(np.zeros(1024, complex), wf.time_samples)
        np.testing.assert_allclose(prof.values, 0.0, atol=1e-12)

    def test_correlation_matches_direct_sum(self, wf):
        rng = np.random.default_rng(0)
        received = rng.standard_normal((2, 700)) + 1j * rng.standard_normal((2, 700))
        prof = detector.correlate(received, wf.time_samples)
        for b in (0, 1):
            for nu in (0, 17, 188):
                direct = np.sum(received[b, nu : nu + 512] * np.conj(wf.time_samples))
                assert prof.values[b, nu] == pytest.approx(direct, abs=1e-9)

    def test_kept_reference_spectra_follow_the_reference(self, wf):
        # alternating references, lengths and dtypes reuse kept spectra only for
        # the same (reference, nfft)
        rng = np.random.default_rng(3)
        received = rng.standard_normal((2, 1100)) + 1j * rng.standard_normal((2, 1100))
        refs = [wf.time_samples, wf.time_samples[:300], wf.time_samples.real.copy(),
                rng.standard_normal(512) + 1j * rng.standard_normal(512)]
        for _ in range(2):
            for ref in refs:
                for window in (1100, 900):
                    x = received[:, :window]
                    want = sliding_window_view(x, ref.shape[0], axis=1) @ np.conj(ref)
                    np.testing.assert_allclose(detector.correlate(x, ref).values, want, rtol=0, atol=1e-9)
        info = detector._reference_spectrum.cache_info()
        assert info.hits and info.currsize <= info.maxsize

    # 1024 is a fast FFT length, 1031 is not (it transforms at 1050)
    @pytest.mark.parametrize("window", [1024, 1031])
    def test_out_byte_identical_to_allocating_call(self, wf, window):
        rng = np.random.default_rng(window)
        received = rng.standard_normal((3, window)) + 1j * rng.standard_normal((3, window))
        reference = wf.time_samples
        want = detector.correlate(received, reference).values.tobytes()
        nfft = detector._next_fast_len(window)
        separate = np.full((3, nfft), np.nan, complex)
        got = detector.correlate(received, reference, out=separate).values
        assert np.shares_memory(got, separate) and got.tobytes() == want
        # aliased: the window laid out at the start of out's memory, which is
        # the window itself when nfft equals it
        flat = np.full(3 * nfft, np.nan, complex)
        window_view = flat[: 3 * window].reshape(3, window)
        window_view[...] = received
        got = detector.correlate(window_view, reference, out=flat.reshape(3, nfft)).values
        assert got.tobytes() == want
        if nfft == window:
            alias = received.copy()
            assert detector.correlate(alias, reference, out=alias).values.tobytes() == want

    def test_rejects_out_of_wrong_shape_or_dtype(self, wf):
        received = np.zeros((2, 1024), complex)
        for out in (np.empty((2, 1000), complex), np.empty((1, 1024), complex),
                    np.empty((2, 1024), np.complex64)):
            with pytest.raises(ValueError, match="out"):
                detector.correlate(received, wf.time_samples, out=out)

    def test_window_too_short(self, wf):
        with pytest.raises(ValueError):
            detector.correlate(np.zeros(100, complex), wf.time_samples)

    def test_quantization_preserves_profile_shape(self, wf):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((4, 1024)) + 1j * rng.standard_normal((4, 1024))
        shapes = set()
        for bits in (1, 2, 4, math.inf):
            q = quantization.apply(quantization.AdcModel(bits=bits), y, 1.0)
            shapes.add(detector.correlate(q, wf.time_samples).values.shape)
        assert shapes == {(4, 513)}


class TestDetect:
    def test_noiseless_flat_pipeline_recovers_timing(self, wf):
        # end-to-end: channel, burst at t = 37, detector
        geom_tx = ArrayGeometry(kind="ula", n_elements=8)
        geom_rx = ArrayGeometry(kind="ula", n_elements=4)
        paths = channel.single_path(aod_az=0.3, aoa=-0.4)
        ch = channel.build_channel(paths, geom_tx, geom_rx, tap_count=1, pulse=RaisedCosinePulse(0.0))
        f = channel.steering_vector(geom_tx, 0.3) / math.sqrt(8)
        y = channel.propagate(
            ch, wf.time_samples, f, 0.0, 0.0, 37, 512 * 3, np.random.default_rng(0)
        )
        out = detector.detect(detector.correlate(y, wf.time_samples), nu_true=37)
        assert out.nu_hat == 37
        assert out.success

    def test_antenna_selection(self, wf):
        received = np.zeros((2, 1024), complex)
        received[1, 100 : 100 + 512] = wf.time_samples
        out = detector.detect(detector.correlate(received, wf.time_samples))
        assert out.b_hat == 1
        assert out.nu_hat == 100

    def test_tie_breaks_smallest_lag_then_antenna(self):
        values = np.zeros((2, 5), complex)
        values[0, 3] = 1.0
        values[1, 1] = 1.0
        values[1, 3] = 1.0
        prof = detector.CorrelationProfile(values=values)
        out = detector.detect(prof)
        assert (out.nu_hat, out.b_hat) == (1, 1)
        values[0, 1] = 1.0
        out = detector.detect(detector.CorrelationProfile(values=values))
        assert (out.nu_hat, out.b_hat) == (1, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_forced_ties_match_lag_major_flatten(self, seed):
        # exact magnitudes 0..3: the maximum recurs across lags and within a lag
        rng = np.random.default_rng(seed)
        phases = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, (5, 40))]
        values = rng.integers(0, 3, (5, 40)) * phases
        values[rng.integers(0, 5, 4), rng.integers(0, 40, 4)] = 3 * phases[0, :4]
        values[rng.choice(5, 2, replace=False), rng.integers(0, 40)] = -3j
        if seed == 5:
            values[2, 7] = np.nan
        power = np.abs(values) ** 2
        assert np.count_nonzero(power == 9.0) >= 2
        nu, b = np.unravel_index(int(np.argmax(power.T)), power.T.shape)
        out = detector.detect(detector.CorrelationProfile(values=values))
        assert (out.nu_hat, out.b_hat) == (nu, b)
        assert out.peak_power == power[b, nu] or np.isnan(out.peak_power) and np.isnan(power[b, nu])

    @pytest.mark.parametrize("case", ["random", "underflow", "overflow", "ties", "nan"])
    def test_matches_full_square_argmax(self, case):
        # squares of magnitudes near 1e-162 round to shared subnormals, and near
        # 1e155 overflow to inf: ties that only the squared profile has
        rng = np.random.default_rng(len(case))
        values = rng.standard_normal((6, 300)) + 1j * rng.standard_normal((6, 300))
        if case in ("underflow", "overflow"):
            values *= {"underflow": 1e-162, "overflow": 1e155}[case]
        elif case == "ties":
            values = rng.integers(-2, 3, (6, 300)) + 1j * rng.integers(-2, 3, (6, 300))
        elif case == "nan":
            values[rng.integers(0, 6, 3), rng.integers(0, 300, 3)] = np.nan
        with np.errstate(over="ignore"):
            power = np.abs(values) ** 2
            out = detector.detect(detector.CorrelationProfile(values=values))
        nu = int(np.argmax(power.max(axis=0)))
        b = int(np.argmax(power[:, nu]))
        assert (out.nu_hat, out.b_hat) == (nu, b)
        assert np.float64(out.peak_power).tobytes() == power[b, nu].tobytes()

    def test_deterministic_under_fixed_seed(self, wf):
        def run():
            rng = np.random.default_rng(123)
            y = rng.standard_normal((4, 1024)) + 1j * rng.standard_normal((4, 1024))
            y[:, 200:712] += wf.time_samples
            return detector.detect(detector.correlate(y, wf.time_samples))

        a, b = run(), run()
        assert (a.nu_hat, a.b_hat, a.peak_power) == (b.nu_hat, b.b_hat, b.peak_power)


class TestZeroLagFreqCorrelation:
    def test_matches_time_domain_at_alignment(self, wf):
        rng = np.random.default_rng(4)
        burst = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        freq = zero_lag_freq_correlation(burst, wf.grid)
        time = np.sum(burst * np.conj(wf.time_samples))
        assert freq == pytest.approx(time, abs=1e-8)

    def test_noiseless_flat_value(self, wf):
        # infinite resolution, no noise: g * [a_rx]_b * (a_tx^H f) * sum |d~|^2
        geom_tx = ArrayGeometry(kind="ula", n_elements=8)
        geom_rx = ArrayGeometry(kind="ula", n_elements=4)
        g = 0.8 - 0.5j
        paths = channel.single_path(aod_az=0.25, aoa=0.1, gain=g)
        ch = channel.build_channel(paths, geom_tx, geom_rx, tap_count=1, pulse=RaisedCosinePulse(0.0))
        f = channel.steering_vector(geom_tx, 0.25) / math.sqrt(8)
        y = channel.propagate(ch, wf.time_samples, f, 0.0, 0.0, 0, 512, np.random.default_rng(0))
        b = 2
        got = zero_lag_freq_correlation(y[b], wf.grid)
        a_rx = channel.steering_vector(geom_rx, 0.1)
        a_tx = channel.steering_vector(geom_tx, 0.25)
        expect = g * a_rx[b] * (np.conj(a_tx) @ f) * np.sum(np.abs(wf.grid.symbols) ** 2)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_antenna_rules_agree_on_flat_channel(self, wf):
        geom_tx = ArrayGeometry(kind="ula", n_elements=8)
        geom_rx = ArrayGeometry(kind="ula", n_elements=4)
        rng = np.random.default_rng(6)
        paths = channel.single_path(aod_az=0.2, aoa=0.3, gain=1.0)
        ch = channel.build_channel(paths, geom_tx, geom_rx, tap_count=1, pulse=RaisedCosinePulse(0.0))
        f = channel.steering_vector(geom_tx, 0.2) / math.sqrt(8)
        y = channel.propagate(ch, wf.time_samples, f, 0.1, 0.0, 0, 512, rng)
        freq_bhat = np.argmax(
            [abs(zero_lag_freq_correlation(y[b], wf.grid)) ** 2 for b in range(4)]
        )
        time_bhat = np.argmax(np.abs(y @ np.conj(wf.time_samples)) ** 2)
        assert freq_bhat == time_bhat


class TestQuantizedPeakDegradation:
    def test_two_bit_peak_smaller_nonzero_lags_similar(self, wf):
        # AWGN, no beamforming, 0 dB per-sample burst SNR
        rng = np.random.default_rng(2)
        d = wf.time_samples
        sig = np.mean(np.abs(d) ** 2)
        trials = 300
        window = 512 * 3
        adc2 = quantization.AdcModel(bits=2)
        peaks = {2: [], math.inf: []}
        nzl = {2: [], math.inf: []}
        for _ in range(trials):
            w = (rng.standard_normal(window) + 1j * rng.standard_normal(window)) * math.sqrt(sig / 2)
            y = w.copy()
            y[512:1024] += d
            agc = math.sqrt(np.mean(np.abs(y) ** 2) / 2)
            for bits, q in ((2, quantization.apply(adc2, y, agc)), (math.inf, y)):
                mag = np.abs(detector.correlate(q, d).values[0])
                peaks[bits].append(mag[512])
                mask = np.ones(len(mag), bool)
                mask[512 - 63 : 512 + 64] = False
                nzl[bits].append(np.mean(mag[mask]))
        assert np.mean(peaks[2]) < np.mean(peaks[math.inf])
        rel = abs(np.mean(nzl[2]) - np.mean(nzl[math.inf])) / np.mean(nzl[math.inf])
        assert rel < 0.15


class TestTimingNmse:
    def test_all_exact(self):
        assert detector.timing_nmse([10] * 5, [10] * 5) == 0.0

    def test_single_trial_value(self):
        assert detector.timing_nmse([100], [90]) == pytest.approx(0.01)

    def test_uses_stored_truth(self):
        assert detector.timing_nmse([100, 200], [90, 200]) == pytest.approx(0.005)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            detector.timing_nmse([0], [5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detector.timing_nmse([], [])

    def test_unpaired_rejected(self):
        with pytest.raises(ValueError):
            detector.timing_nmse([5, 6], [5])


class TestCorrelatorOperationCounts:
    def test_ue_operation_counts(self):
        mults, adds = detector.correlator_operation_counts(n=512, t_ue=10, m_tot=16)
        assert mults == 16 * 512 * 513 * 9 == 37_822_464
        assert adds == 16 * 512 * 511 * 9

    def test_counts_scale_with_antennas_and_noise_only_symbols(self):
        one = detector.correlator_operation_counts(n=64, t_ue=2, m_tot=1)
        assert detector.correlator_operation_counts(n=64, t_ue=5, m_tot=3) == tuple(3 * 4 * c for c in one)
