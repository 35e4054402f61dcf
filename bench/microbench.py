"""Per-layer microbenchmarks at the reference numerology (N = 512, CP 64,
ZC root 34 of length 63, 32 BS elements in 4 subarrays, 16 UE antennas,
window 5120), each output checked against a computation made apart from the
program (see oracle.py).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import replace
from time import perf_counter

import numpy as np

import oracle

N, CP, N_ZC, ROOT = 512, 64, 63, 34
M_TOT, N_TOT, WINDOW, TAPS = 16, 32, 5120, 20


def timed(fn, repeats: int) -> tuple[float, object]:
    """Median wall time of ``repeats`` calls, in seconds, and the last result."""
    times = []
    out = None
    for _ in range(repeats):
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), out


def _check_waveform(wf, v: oracle.Verdict) -> None:
    m = np.arange(N_ZC)
    symbols = np.zeros(N, dtype=np.complex128)
    start = (N - N_ZC - 1) // 2 + 1
    symbols[start:start + N_ZC] = np.exp(-1j * np.pi * m * (m + 1) * ROOT / N_ZC)
    symbols[N // 2] = 0.0
    k = np.arange(N)
    x = np.exp(2j * np.pi * np.outer(k, k) / N) @ symbols / math.sqrt(N)
    v.expect(np.allclose(wf.time_samples, x, atol=1e-10)
             and np.allclose(wf.samples_with_cp, np.concatenate([x[-CP:], x]), atol=1e-10),
             "waveform differs from the explicit ZC grid IDFT")


def _check_taps(paths, taps, beta: float, v: oracle.Verdict) -> None:
    a_tx = oracle.ula_steering(N_TOT, paths.aod_az)
    a_rx = oracle.ula_steering(M_TOT, paths.aoa)
    want = np.zeros_like(taps)
    for r in range(len(paths.gains)):
        p = oracle.raised_cosine(np.arange(TAPS) - paths.delays[r], beta)
        want += (paths.gains[r] * p)[:, None, None] * np.outer(a_rx[r], np.conj(a_tx[r]))[None]
    v.expect(np.allclose(taps, want, atol=1e-12), "build_channel taps differ from the sum over rays")


def _check_propagate(taps, x, tx, burst, v: oracle.Verdict) -> None:
    h = np.einsum("lmn,n->ml", taps, tx)
    want = np.fft.ifft(np.fft.fft(x)[None, :] * np.fft.fft(h, N, axis=1), axis=1)
    v.expect(np.allclose(burst, want, atol=1e-10), "propagate differs from FFT circular convolution")


def _check_midrise(adc, y, agc, q, v: oracle.Verdict) -> None:
    half = adc.step / 2.0
    for u, w in ((y.real / agc, q.real / agc), (y.imag / agc, q.imag / agc)):
        odd = w / half
        inside = np.abs(u) <= adc.clip_scale
        ok = (np.allclose(odd, np.round(odd), atol=1e-9)
              and np.all(np.round(odd) % 2 == 1)
              and np.all(np.abs(w) <= adc.clip_scale - half + 1e-9)
              and np.all(np.abs(w - u)[inside] <= half * (1 + 1e-9))
              and np.allclose(w[~inside], np.sign(u[~inside]) * (adc.clip_scale - half)))
        v.expect(bool(ok), "quantization.apply breaks the midrise property")


def _check_correlate(received, x, values, v: oracle.Verdict) -> None:
    view = np.lib.stride_tricks.sliding_window_view(received, N, axis=1)
    want = view @ np.conj(x)
    v.expect(values.shape == want.shape and np.allclose(values, want, atol=1e-8 * np.abs(want).max()),
             "correlate differs from the direct sliding inner product")


def run(pkg, scenario, rng: np.random.Generator, v: oracle.Verdict) -> dict[str, float]:
    """Time each layer on its own; returns metric name -> value."""
    wfm, quant, chan, det, mc = pkg.waveform, pkg.quantization, pkg.channel, pkg.detector, pkg.montecarlo
    out = {}

    sec, wf = timed(lambda: wfm.make_sync_waveform(ROOT, N_ZC, N, CP), 200)
    out["waveform.build_ms"] = 1e3 * sec
    _check_waveform(wf, v)
    x = wf.time_samples

    finite = sorted(int(b) for b in scenario.adc_bits if b != math.inf)

    def cold_table():
        quant.xi_for_bits.cache_clear()
        quant.optimal_clip_scale.cache_clear()
        for b in finite:
            quant.xi_for_bits(b)
            quant.optimal_clip_scale(b)

    out["quantization.xi_table_s"], _ = timed(cold_table, 3)

    reference = replace(mc.Scenario(), adc_bits=(2.0, math.inf))
    sec, plans = timed(lambda: mc.slot_beam_plans(reference), 5)
    out["montecarlo.slot_beam_plans_ms"] = 1e3 * sec
    for (method, bits), plan in plans.items():
        xi = 0.0 if bits == math.inf else quant.xi_for_bits(int(bits))
        for msg in oracle.check_beam_choice(reference, method, xi, plan.indices, rng):
            v.expect(False, msg)

    geom_tx = chan.ArrayGeometry(kind="ula", n_elements=N_TOT)
    geom_rx = chan.ArrayGeometry(kind="ula", n_elements=M_TOT)
    paths = chan.clustered_paths(rng, center_az=0.3, aoa_center=-0.2)
    pulse = chan.RaisedCosinePulse(0.25)
    sec, ch = timed(lambda: chan.build_channel(paths, geom_tx, geom_rx, TAPS, pulse, CP), 50)
    out["channel.build_ms"] = 1e3 * sec
    _check_taps(paths, ch.taps, 0.25, v)

    tx = plans[("proposed", 2.0)].tx_vectors[3]
    sec, y = timed(lambda: chan.propagate(ch, x, tx, 0.0, 0.0, 0, N, rng), 50)
    out["channel.propagate_ms"] = 1e3 * sec
    _check_propagate(ch.taps, x, tx, y, v)

    window = (rng.standard_normal((M_TOT, WINDOW)) + 1j * rng.standard_normal((M_TOT, WINDOW))) / math.sqrt(2)
    window[:, 1000:1000 + N] += 0.3 * y
    adc = quant.AdcModel(bits=2)

    def agc_and_quantize():
        agc = np.sqrt(np.mean(np.abs(window) ** 2, axis=1) / 2.0)[:, None]
        return agc, quant.apply(adc, window, agc)

    sec, (agc, q) = timed(agc_and_quantize, 30)
    out["quantization.apply_ms"] = 1e3 * sec
    _check_midrise(adc, window, agc, q, v)

    sec, profile = timed(lambda: det.correlate(q, x), 30)
    out["detector.correlate_ms"] = 1e3 * sec
    _check_correlate(q, x, profile.values, v)

    sec, found = timed(lambda: det.detect(profile), 50)
    out["detector.detect_ms"] = 1e3 * sec
    power = np.abs(profile.values) ** 2
    peaks = np.argwhere(power == power.max())
    lag, b = min((int(l), int(a)) for a, l in peaks)
    v.expect((found.nu_hat, found.b_hat) == (lag, b), "detect did not return the first correlation peak")
    return out
