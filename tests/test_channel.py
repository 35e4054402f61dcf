import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwsync import channel
from mmwsync.channel import ArrayGeometry, PathSet, RaisedCosinePulse


ULA8 = ArrayGeometry(kind="ula", n_elements=8)
ULA4 = ArrayGeometry(kind="ula", n_elements=4)


class TestSteeringVector:
    def test_boresight_all_ones(self):
        np.testing.assert_allclose(channel.steering_vector(ULA8, 0.0), np.ones(8), atol=1e-14)

    def test_half_wavelength_phase(self):
        geom = ArrayGeometry(kind="ula", n_elements=2)
        a = channel.steering_vector(geom, math.pi / 2)  # sin = 1
        np.testing.assert_allclose(a, [1.0, np.exp(-1j * math.pi)], atol=1e-12)

    @given(st.floats(min_value=-math.pi / 2, max_value=math.pi / 2))
    @settings(max_examples=30, deadline=None)
    def test_self_coherence(self, az):
        a = channel.steering_vector(ULA8, az)
        assert abs(np.vdot(a, a)) == pytest.approx(8.0, rel=1e-12)

    def test_only_ula_kind(self):
        with pytest.raises(ValueError, match="only 'ula'"):
            ArrayGeometry(kind="upa", n_elements=8)


class TestBuildChannel:
    def test_single_path_flat_rank_one(self):
        paths = channel.single_path(aod_az=0.4, aoa=-0.2, gain=0.7 + 0.1j)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=3, pulse=RaisedCosinePulse(0.0))
        a_tx = channel.steering_vector(ULA8, 0.4)
        a_rx = channel.steering_vector(ULA4, -0.2)
        expect = (0.7 + 0.1j) * np.outer(a_rx, np.conj(a_tx))
        np.testing.assert_allclose(ch.taps[0], expect, atol=1e-12)
        np.testing.assert_allclose(ch.taps[1:], 0.0, atol=1e-12)

    def test_two_taps_frequency_selective(self):
        paths = channel.PathSet(
            gains=np.array([1.0, 1.0], dtype=complex),
            aod_az=np.array([0.2, 0.2]),
            aoa=np.array([0.1, 0.1]),
            delays=np.array([0.0, 1.0]),
        )
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=4, pulse=RaisedCosinePulse(0.0))
        n = 64
        freq = np.fft.fft(ch.taps[:, 0, 0], n)
        # direct two-tap DFT oracle
        h0, h1 = ch.taps[0, 0, 0], ch.taps[1, 0, 0]
        k = np.arange(n)
        oracle = h0 + h1 * np.exp(-2j * np.pi * k / n)
        np.testing.assert_allclose(freq, oracle, atol=1e-9)
        mags = np.abs(freq)
        assert mags.max() > 1.5 * mags.min()

    def test_zero_gains(self):
        paths = channel.single_path(aod_az=0.0, aoa=0.0, gain=0.0)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=2)
        np.testing.assert_array_equal(ch.taps, 0.0)

    def test_channel_energy_single_path(self):
        gain = 0.8 - 0.3j
        paths = channel.single_path(aod_az=0.5, aoa=0.3, gain=gain)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=1, pulse=RaisedCosinePulse(0.0))
        energy = np.sum(np.abs(ch.taps) ** 2)
        assert energy == pytest.approx(abs(gain) ** 2 * 8 * 4, rel=1e-9)

    def test_channel_energy_orthogonal_paths(self):
        # DFT-orthogonal departure/arrival directions make cross terms vanish
        sin_tx = [0.0, 2.0 / 8]
        sin_rx = [0.0, 2.0 / 4]
        paths = channel.PathSet(
            gains=np.array([0.9, 0.5j]),
            aod_az=np.arcsin(sin_tx),
            aoa=np.arcsin(sin_rx),
            delays=np.zeros(2),
        )
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=1, pulse=RaisedCosinePulse(0.0))
        energy = np.sum(np.abs(ch.taps) ** 2)
        assert energy == pytest.approx((0.81 + 0.25) * 32, rel=1e-9)

    def test_isi_warning_flag(self):
        paths = PathSet(gains=np.ones(1, complex), aod_az=np.zeros(1), aoa=np.zeros(1),
                        delays=np.array([80.0]))
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=90, cp_length=64)
        assert ch.isi_warning


class TestRaisedCosine:
    def test_nyquist_at_integers(self):
        p = RaisedCosinePulse(0.25)
        taus = np.arange(-5, 6)
        vals = p(taus)
        assert vals[5] == pytest.approx(1.0)
        np.testing.assert_allclose(np.delete(vals, 5), 0.0, atol=1e-12)

    def test_singularity_is_finite(self):
        p = RaisedCosinePulse(0.25)
        val = p(np.array([2.0000000000, 1 / 0.5]))  # tau = 1/(2 beta) = 2
        assert np.all(np.isfinite(val))


class TestPropagate:
    def test_noiseless_flat_burst(self):
        paths = channel.single_path(aod_az=0.3, aoa=0.1, gain=1.0)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=1, pulse=RaisedCosinePulse(0.0))
        rng = np.random.default_rng(0)
        d = np.exp(2j * np.pi * rng.random(32))
        f = channel.steering_vector(ULA8, 0.3) / math.sqrt(8)
        y = channel.propagate(ch, d, f, 0.0, 0.0, 5, 96, rng)
        a_rx = channel.steering_vector(ULA4, 0.1)
        scalar = np.conj(channel.steering_vector(ULA8, 0.3)) @ f
        np.testing.assert_allclose(y[:, 5:37], np.outer(a_rx * scalar, d), atol=1e-12)
        np.testing.assert_allclose(y[:, :5], 0.0, atol=1e-14)
        np.testing.assert_allclose(y[:, 37:], 0.0, atol=1e-14)

    def test_zero_cfo_is_unit_phasor(self):
        paths = channel.single_path(aod_az=0.0, aoa=0.0)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=1, pulse=RaisedCosinePulse(0.0))
        d = np.ones(16, complex)
        f = np.ones(8) / math.sqrt(8)
        y0 = channel.propagate(ch, d, f, 0.0, 0.0, 0, 32, np.random.default_rng(1))
        y1 = channel.propagate(ch, d, f, 0.0, 1e-12, 0, 32, np.random.default_rng(1))
        np.testing.assert_allclose(y0, y1, atol=1e-9)

    def test_noise_power_scales(self):
        paths = channel.single_path(aod_az=0.0, aoa=0.0, gain=0.0)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=1)
        d = np.zeros(16, complex)
        f = np.ones(8) / math.sqrt(8)
        powers = []
        for nv in (0.5, 1.0):
            rng = np.random.default_rng(7)
            y = channel.propagate(ch, d, f, nv, 0.0, 0, 20000, rng)
            powers.append(np.mean(np.abs(y) ** 2))
        assert powers[1] / powers[0] == pytest.approx(2.0, rel=0.05)

    def test_noise_needs_rng(self):
        paths = channel.single_path(aod_az=0.0, aoa=0.0)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=1)
        d, f = np.ones(16, complex), np.ones(8) / math.sqrt(8)
        assert channel.propagate(ch, d, f, 0.0, 0.0, 0, 32).shape == (4, 32)
        with pytest.raises(ValueError, match="rng"):
            channel.propagate(ch, d, f, 0.5, 0.0, 0, 32)

    def test_cfo_sign_preserves_magnitudes(self):
        paths = channel.single_path(aod_az=0.2, aoa=0.0, gain=1.0)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=1, pulse=RaisedCosinePulse(0.0))
        d = np.exp(2j * np.pi * np.random.default_rng(2).random(64))
        f = np.ones(8) / math.sqrt(8)
        yp = channel.propagate(ch, d, f, 0.0, 0.7, 0, 64, np.random.default_rng(0))
        ym = channel.propagate(ch, d, f, 0.0, -0.7, 0, 64, np.random.default_rng(0))
        np.testing.assert_allclose(np.abs(yp), np.abs(ym), atol=1e-12)

    def test_multi_tap_cfo_matches_fft_circular_convolution(self):
        rng = np.random.default_rng(11)
        paths = channel.clustered_paths(rng, center_az=0.3, aoa_center=-0.2)  # cluster delays 0, 5 and 7
        # fractional delays spread every ray's pulse over all the taps
        paths = dataclasses.replace(paths, delays=paths.delays + 0.4)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=20, pulse=RaisedCosinePulse(0.25))
        n, start, cfo = 64, 10, 0.3
        d = np.exp(2j * np.pi * rng.random(n))
        f = channel.steering_vector(ULA8, 0.3) / math.sqrt(8)
        y = channel.propagate(ch, d, f, 0.0, cfo, start, 100)
        h = np.einsum("lmn,n->ml", ch.taps, f)  # (m_tot, taps)
        assert np.count_nonzero(np.abs(h[0]) > 1e-3) > 10
        want = np.fft.ifft(np.fft.fft(h, n, axis=1) * np.fft.fft(d), axis=1)
        want *= np.exp(2j * np.pi * cfo * np.arange(n) / n)
        np.testing.assert_allclose(y[:, start : start + n], want, atol=1e-12)
        np.testing.assert_array_equal(np.delete(y, np.s_[start : start + n], axis=1), 0.0)

    def test_noisy_multi_tap_cfo_window_equals_separate_burst_formula(self):
        """The burst built in the returned window, noise added after it, holds
        the bytes of noise drawn first and a burst built in its own array."""
        rng = np.random.default_rng(13)
        paths = channel.clustered_paths(rng, center_az=-0.4, aoa_center=0.5)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=12, pulse=RaisedCosinePulse(0.25))
        n, start, window, noise_var, cfo = 48, 17, 90, 0.3, -0.45
        d = np.exp(2j * np.pi * rng.random(n))
        f = channel.steering_vector(ULA8, -0.4) / math.sqrt(8)
        y = channel.propagate(ch, d, f, noise_var, cfo, start, window, np.random.default_rng(5))
        noise_rng = np.random.default_rng(5)
        want = np.zeros((4, window), dtype=np.complex128)
        want += math.sqrt(noise_var / 2.0) * (
            noise_rng.standard_normal((4, window)) + 1j * noise_rng.standard_normal((4, window))
        )
        h_vec = ch.taps @ f
        burst = np.zeros((4, n), dtype=np.complex128)
        for l in range(ch.tap_count):
            burst += np.outer(h_vec[l], np.roll(d, l))
        burst = burst * np.exp(2j * np.pi * cfo * np.arange(n) / n)[None, :]
        want[:, start : start + n] += burst
        assert np.array_equal(y, want)

    def test_invalid_start_index(self):
        paths = channel.single_path(aod_az=0.0, aoa=0.0)
        ch = channel.build_channel(paths, ULA8, ULA4, tap_count=1)
        with pytest.raises(ValueError):
            channel.propagate(
                ch, np.ones(16, complex), np.ones(8) / math.sqrt(8), 0.0, 0.0, 17, 32,
                np.random.default_rng(0),
            )


class TestGeometryAndDrops:
    def test_min_distance_respected(self):
        layout = channel.single_cell_layout(150.0, 20.0, 34)
        rng = np.random.default_rng(42)
        for _ in range(200):
            drop = channel.drop_users(layout, rng, math.radians(60.0))
            assert 20.0 <= math.hypot(*drop.position) <= 150.0
            assert abs(drop.azimuth) <= math.radians(60.0)

    def test_same_seed_same_drop(self):
        layout = channel.single_cell_layout(150.0, 20.0, 34)
        a_rng, b_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(10):
            a, b = (channel.drop_users(layout, rng, math.radians(60.0)) for rng in (a_rng, b_rng))
            np.testing.assert_array_equal(a.position, b.position)
            assert (a.azimuth, a.amp_gain) == (b.azimuth, b.amp_gain)

    def test_identical_distance_identical_pathloss(self):
        g1 = channel.pathloss_amp_gain(75.0, 150.0)
        g2 = channel.pathloss_amp_gain(75.0, 150.0)
        assert g1 == g2
        assert channel.pathloss_amp_gain(150.0, 150.0) == pytest.approx(1.0)

    def test_hex_layout_neighbor_roots_distinct(self):
        layout = channel.hex_layout(500.0, roots=(25, 29, 34))
        assert layout.centers.shape == (7, 2)
        ring = layout.roots[1:]
        for i in range(6):
            assert ring[i] != ring[(i + 1) % 6]
            assert ring[i] != layout.roots[0]
        # all BS pairs respect the inter-site distance
        d01 = np.linalg.norm(layout.centers[1] - layout.centers[0])
        assert d01 == pytest.approx(500.0)

    def test_clustered_paths_structure(self):
        rng = np.random.default_rng(11)
        ps = channel.clustered_paths(rng, center_az=0.2, aoa_center=-0.1)
        assert np.sum(np.abs(ps.gains) ** 2) == pytest.approx(1.0, rel=1e-9)
        assert ps.delays.min() == 0.0
        assert np.all(ps.delays >= 0)
        # leading cluster is sample-aligned at zero delay
        assert np.all(ps.delays[:4] == 0.0)
