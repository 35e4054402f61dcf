"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -rA tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 9 is expected to fail (strict xfail): the integer-CFO
timing ambiguity of the sync sequence relocates the correlation peak by a
root-dependent offset, so its NMSE cannot stay within one order of magnitude
of the zero-CFO value; see the analysis printed by the test.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtri

from closed_forms import (
    SqnrInputs,
    codebook_ratio_argmax,
    correlation_ratio_check,
    distortion_factor,
    select_multi_beam,
    sqnr_single_beam,
)
from mmwsync import beamforming, channel, cli, detector, montecarlo as mc
from mmwsync import quantization, sqnr, waveform
from mmwsync.channel import ArrayGeometry
from mmwsync.montecarlo import CellConfig, ChannelConfig, Scenario
from mmwsync.optimizer import BoundParams


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. ZC correlation structure under quantization
# ---------------------------------------------------------------------------


def test_criterion_1_zc_correlation_structure():
    """0 dB AWGN, no beamforming, root 34 / length 63: the 2-bit zero-lag peak
    sits at least 20% below the infinite-resolution peak while mean
    non-zero-lag magnitudes stay within 15%; 10^4 trials in under a minute."""
    start = time.time()
    wf = waveform.make_sync_waveform(34, 63, 512, 64)
    d = wf.time_samples
    sig = np.mean(np.abs(d) ** 2)
    sigma2 = sig  # 0 dB per-sample burst SNR
    t_ue = 10
    window = 512 * t_ue
    t0 = 512 * 4
    trials = 10_000
    chunk = 500
    adc = quantization.AdcModel(bits=2)
    rng = np.random.default_rng(20240817)
    nfft = 1 << int(np.ceil(np.log2(window + 512)))
    f_ref = np.conj(np.fft.fft(d, nfft))
    peak = {2: 0.0, math.inf: 0.0}
    nzl = {2: 0.0, math.inf: 0.0}
    mask = np.ones(window - 512 + 1, bool)
    mask[t0 - 63 : t0 + 64] = False
    for lo in range(0, trials, chunk):
        nb = min(chunk, trials - lo)
        w = (rng.standard_normal((nb, window)) + 1j * rng.standard_normal((nb, window)))
        y = w * math.sqrt(sigma2 / 2)
        y[:, t0 : t0 + 512] += d
        agc = np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2)[:, None]
        for bits, q in ((2, quantization.apply(adc, y, agc)), (math.inf, y)):
            corr = np.fft.ifft(np.fft.fft(q, nfft, axis=1) * f_ref[None, :], axis=1)
            mag = np.abs(corr[:, : window - 512 + 1])
            peak[bits] += float(mag[:, t0].sum())
            nzl[bits] += float(mag[:, mask].mean(axis=1).sum())
    ratio = peak[2] / peak[math.inf]
    nzl_rel = abs(nzl[2] - nzl[math.inf]) / nzl[math.inf]
    elapsed = time.time() - start
    detail = f"peak ratio {ratio:.4f} (<= 0.80), nzl diff {nzl_rel:.3%} (< 15%), {elapsed:.0f}s"
    passed = ratio <= 0.80 and nzl_rel < 0.15 and elapsed < 60
    _report(1, passed, detail)
    assert ratio <= 0.80
    assert nzl_rel < 0.15
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. Bussgang validity
# ---------------------------------------------------------------------------


def _lloyd_max_quad_oracle(bits: int, iters: int = 300) -> float:
    def pdf(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    m = 2**bits
    levels = ndtri((np.arange(m) + 0.5) / m)
    for _ in range(iters):
        edges = np.concatenate(([-12.0], 0.5 * (levels[:-1] + levels[1:]), [12.0]))
        for j in range(m):
            p, _ = integrate.quad(pdf, edges[j], edges[j + 1])
            mu, _ = integrate.quad(lambda x: x * pdf(x), edges[j], edges[j + 1])
            if p > 0:
                levels[j] = mu / p
    edges = np.concatenate(([-12.0], 0.5 * (levels[:-1] + levels[1:]), [12.0]))
    return sum(
        integrate.quad(
            lambda x, r=levels[j]: (x - r) ** 2 * pdf(x), edges[j], edges[j + 1]
        )[0]
        for j in range(m)
    )


def test_criterion_2_bussgang_validity():
    """Empirical distortion factor matches (1-xi) V^(-1/2) within 2% for 1-4
    bits on >= 1e6 unit-power Gaussian samples; xi matches an independent
    Lloyd-Max quadrature oracle within 1e-3."""
    rng = np.random.default_rng(7)
    n = 1_200_000
    y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    details = []
    worst_eta = 0.0
    worst_xi = 0.0
    for bits in (1, 2, 3, 4):
        q = quantization.apply(quantization.AdcModel(bits=bits), y, math.sqrt(0.5))
        eta_emp = distortion_factor(q, y)
        xi = quantization.xi_for_bits(bits)
        eta_model = (1.0 - xi) / math.sqrt(1.0)  # unit power: V = 1
        rel = abs(eta_emp - eta_model) / eta_model
        xi_err = abs(xi - _lloyd_max_quad_oracle(bits))
        worst_eta = max(worst_eta, rel)
        worst_xi = max(worst_xi, xi_err)
        details.append(f"b={bits}: eta {rel:.3%}, xi err {xi_err:.1e}")
    passed = worst_eta < 0.02 and worst_xi < 1e-3
    _report(2, passed, "; ".join(details))
    assert worst_eta < 0.02
    assert worst_xi < 1e-3


# ---------------------------------------------------------------------------
# 3. Lemma 1 identity
# ---------------------------------------------------------------------------


def test_criterion_3_lemma1_identity():
    """Monte Carlo zero/non-zero-lag power ratio through the real ADC matches
    1 + gamma within 10% at gamma in {0.5, 2, 10} on flat channels, and the
    measured-ratio argmax over a 16-codeword ULA codebook equals the analytic
    SQNR argmax."""
    # resolutions per target: gamma = 10 is unreachable at 2 bits
    # (gamma < eta/(1-eta) ~ 7.5) and the Gaussian-input assumption degrades
    # at 2 bits for signal-dominated input; see the decisions notes
    cases = [(0.5, 3), (2.0, 3), (10.0, 4)]
    details = []
    worst = 0.0
    for gamma_t, bits in cases:
        res = correlation_ratio_check(bits=bits, gamma_target=gamma_t, trials=150_000, seed=101)
        rel = abs(res["normalized_ratio"] - (1.0 + res["gamma_analytic"])) / (
            1.0 + res["gamma_analytic"]
        )
        worst = max(worst, rel)
        details.append(f"gamma={gamma_t} (b={bits}): {rel:.2%}")
    argmax = codebook_ratio_argmax(bits=2, trials_per_codeword=20_000, seed=55)
    agree = argmax["argmax_measured"] == argmax["argmax_analytic"]
    passed = worst < 0.10 and agree
    _report(3, passed, "; ".join(details) + f"; argmax agree={agree}")
    assert worst < 0.10
    assert agree


# ---------------------------------------------------------------------------
# 4. Bound chain
# ---------------------------------------------------------------------------


def test_criterion_4_bound_chain():
    """gamma_acute <= gamma_breve <= gamma over 1e4 random draws in the
    physical domain (worst-case-evaluated common distortion factor, quantizer
    at or above its design point), zero violations beyond 1e-12 slack."""
    rng = np.random.default_rng(42)
    n_target = 10_000
    drawn = 0
    violations = 0
    while drawn < n_target:
        n = n_target
        s = 10.0 ** rng.uniform(-3, 3, n)
        lam_max = 10.0 ** rng.uniform(-1, 3, n)
        lam_u = lam_max * rng.uniform(0.05, 1.0, n)
        xi_max = rng.uniform(0.0, 0.95, n)
        xi_u = xi_max * rng.uniform(0.0, 1.0, n)
        sigma2 = 10.0 ** rng.uniform(-2, 1, n)
        v = sigma2 * (s / lam_max + 1.0)
        keep = v >= (1.0 - xi_u) ** 2
        s, lam_u, lam_max = s[keep], lam_u[keep], lam_max[keep]
        xi_u, xi_max, sigma2, v = xi_u[keep], xi_max[keep], sigma2[keep], v[keep]
        take = min(len(s), n_target - drawn)
        for i in range(take):
            eta = (1.0 - xi_u[i]) / math.sqrt(v[i])
            gamma = sqnr_single_beam(
                SqnrInputs(effective_gain_sq=s[i], noise_var=lam_u[i], eta=eta)
            )
            g_breve = sqnr.sqnr_lower_bound_single(s[i], lam_max[i], xi_u[i], sigma2[i])
            g_acute = sqnr.sqnr_lower_bound_single(s[i], lam_max[i], xi_max[i], sigma2[i])
            if g_acute > g_breve + 1e-12 or g_breve > gamma + 1e-12:
                violations += 1
        drawn += take
    _report(4, violations == 0, f"{drawn} draws, {violations} violations")
    assert violations == 0


# ---------------------------------------------------------------------------
# 5. Optimizer exactness
# ---------------------------------------------------------------------------


def test_criterion_5_optimizer_exactness():
    """Exhaustive multi-beam selection equals an independent brute-force
    enumeration on every small instance over 100 random anchors, and
    iteration counts follow (n_beam)^n_rf and t_bs * (n_beam)^n_rf exactly."""
    bound = BoundParams(lambda_max=100.0, xi_max=quantization.xi_for_bits(2))
    rng = np.random.default_rng(2718)
    instances = [
        (2, 1, 2),  # n_a, oversampling, n_rf -> n_beam = 2
        (2, 1, 3),
        (2, 2, 2),  # n_beam = 4
        (2, 2, 3),
        (3, 1, 2),  # n_beam = 3
        (4, 1, 3),  # n_beam = 4, n_rf = 3
    ]
    checked = 0
    for n_a, ovs, n_rf in instances:
        cb = beamforming.dft_codebook(n_a, ovs)
        geom = ArrayGeometry(kind="ula", n_elements=n_a * n_rf)
        for _ in range(100):
            anchor = rng.uniform(-math.pi / 3, math.pi / 3)
            sel = select_multi_beam(cb, n_rf, geom, anchor, bound)
            a_tx = channel.steering_vector(geom, anchor)
            best = None
            for indices in itertools.product(range(cb.n_beam), repeat=n_rf):
                gain = abs(
                    beamforming.composite_beam_gain(
                        beamforming.BeamSet(codebook=cb, indices=indices), a_tx
                    )
                ) ** 2
                obj = sqnr.sqnr_lower_bound_single(
                    gain, bound.lambda_max, bound.xi_max, bound.noise_var
                )
                if best is None or obj > best[0] or (obj == best[0] and indices < best[1]):
                    best = (obj, indices)
            assert sel.indices == best[1], (n_a, ovs, n_rf, anchor)
            assert sel.iteration_count == cb.n_beam**n_rf
            checked += 1
    # slot-plan totals follow t_bs * (n_beam)^n_rf
    scenario = Scenario(t_bs=8, adc_bits=(2.0,), trials=1)
    plans = mc.slot_beam_plans(scenario)
    total = plans[("proposed", 2.0)].iteration_count
    assert total == 8 * 16**4 == 524288
    _report(5, True, f"{checked} brute-force matches; plan iterations {total}")


# ---------------------------------------------------------------------------
# 6. SQNR ordering
# ---------------------------------------------------------------------------


def test_criterion_6_sqnr_ordering():
    """Desk-scale flat single-path scenario at 0 dB, 2-bit: mean SQNR of the
    proposed multi-beam probing exceeds single-stream with non-overlapping
    95% CIs over >= 2000 trials, inside 10 minutes."""
    start = time.time()
    scenario = Scenario(
        mode="single_ue",
        n_tot=32,
        n_rf=4,
        trials=2000,
        inner_repeats=48,
        t_bs=8,
        adc_bits=(2.0, math.inf),
        snr_db_grid=(0.0,),
        seed=60,
        channel=ChannelConfig(regime="flat"),
    )
    summary = mc.run_sqnr_experiment(scenario)
    agg = {(a["method"], a["bits"]): a for a in summary.aggregates}
    prop, single = agg[("proposed", 2.0)], agg[("single_stream", 2.0)]
    separated = prop["ci95_lo"] > single["ci95_hi"]
    elapsed = time.time() - start
    detail = (
        f"proposed {prop['mean_sqnr_db']:.2f} dB [{prop['ci95_lo']:.2f}, {prop['ci95_hi']:.2f}] vs "
        f"single {single['mean_sqnr_db']:.2f} dB [{single['ci95_lo']:.2f}, {single['ci95_hi']:.2f}], "
        f"{elapsed:.0f}s"
    )
    _report(6, separated and elapsed < 600, detail)
    assert prop["mean_sqnr_db"] > single["mean_sqnr_db"]
    assert separated
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 7. Timing NMSE trends
# ---------------------------------------------------------------------------


def test_criterion_7_timing_nmse_trends():
    """Over SNR {-20,-15,-10,-5,0} dB with 2-bit ADCs: NMSE(proposed) <=
    NMSE(single-stream) at every point, and NMSE(proposed, 2-bit) within 3x
    of NMSE(single-stream, infinite-resolution) at -5 and 0 dB."""
    grid = (-20.0, -15.0, -10.0, -5.0, 0.0)
    scenario = Scenario(
        mode="single_ue",
        trials=1000,
        t_bs=8,
        adc_bits=(2.0, math.inf),
        snr_db_grid=grid,
        seed=70,
        channel=ChannelConfig(regime="clustered"),
    )
    summary = mc.run_timing_experiment(scenario)
    nmse = {(a["method"], a["bits"], a["snr_db"]): a["nmse"] for a in summary.aggregates}
    ordering_ok = all(
        nmse[("proposed", 2.0, s)] <= nmse[("single_stream", 2.0, s)] for s in grid
    )
    ratio_ok = all(
        nmse[("proposed", 2.0, s)] <= 3.0 * nmse[("single_stream", math.inf, s)]
        for s in (-5.0, 0.0)
    )
    lines = ", ".join(
        f"{s:+.0f}dB: prop {nmse[('proposed', 2.0, s)]:.2e} vs single {nmse[('single_stream', 2.0, s)]:.2e}"
        for s in grid
    )
    _report(7, ordering_ok and ratio_ok, lines)
    assert ordering_ok
    assert ratio_ok


# ---------------------------------------------------------------------------
# 8. Multi-cell detection
# ---------------------------------------------------------------------------


def test_criterion_8_multicell_detection():
    """Seven-hex-cell run with actual cross-cell interference, 2-bit: frame
    detection probability above 0.7 at -10 dB over >= 1000 UE drops, access
    probability concentrated in the first slots at 0 dB, neighboring cells on
    distinct roots; runtime below 30 minutes."""
    start = time.time()
    scenario = Scenario(
        mode="multi_cell",
        trials=1000,
        t_bs=8,
        adc_bits=(2.0,),
        snr_db_grid=(-10.0, 0.0),
        seed=80,
        channel=ChannelConfig(regime="clustered"),
        cell=CellConfig(),
    )
    layout = channel.hex_layout(scenario.cell.isd_m, roots=scenario.cell.roots)
    ring = layout.roots[1:]
    roots_ok = all(
        ring[i] != ring[(i + 1) % 6] and ring[i] != layout.roots[0] for i in range(6)
    )
    summary = mc.run_multicell_experiment(scenario)
    agg = {(a["method"], a["snr_db"]): a for a in summary.aggregates}
    det = agg[("proposed", -10.0)]["detection_probability"]
    early = sum(agg[("proposed", 0.0)][f"access_prob_slot_{t}"] for t in range(3))
    elapsed = time.time() - start
    detail = (
        f"detection@-10dB {det:.3f} (> 0.7), access mass slots 0-2 @0dB {early:.3f}, "
        f"roots ok {roots_ok}, {elapsed:.0f}s"
    )
    passed = det > 0.7 and early > 0.5 and roots_ok and elapsed < 1800
    _report(8, passed, detail)
    assert det > 0.7
    assert early > 0.5
    assert roots_ok
    assert elapsed < 1800


# ---------------------------------------------------------------------------
# 9. CFO robustness (expected red; see module docstring and decisions notes)
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason=(
        "integer-CFO timing ambiguity of the ZC waveform: at eps = +-1 the "
        "correlation peak relocates by (n_zc - root) * n / n_zc ~ 235 samples "
        "(52% magnitude), so the NMSE rises ~4 orders above the eps=0 value; "
        "the source text only claims similarity to the *conventional* "
        "no-CFO baseline"
    ),
)
def test_criterion_9_cfo_robustness():
    """As stated: at eps = +-1 and -10 dB the proposed method's NMSE stays
    within one order of magnitude of its own eps = 0 value."""
    scenario = Scenario(
        mode="single_ue",
        trials=500,
        t_bs=8,
        adc_bits=(2.0,),
        snr_db_grid=(-10.0,),
        cfo_grid=(-1.0, 0.0, 1.0),
        seed=90,
        channel=ChannelConfig(regime="clustered"),
    )
    summary = mc.run_timing_experiment(scenario)
    nmse = {
        (a["method"], a["cfo"]): a["nmse"]
        for a in summary.aggregates
        if a["bits"] == 2.0
    }
    base = nmse[("proposed", 0.0)]
    worst = max(nmse[("proposed", -1.0)], nmse[("proposed", 1.0)])
    conventional_base = nmse[("single_stream", 0.0)]
    detail = (
        f"proposed eps=0 {base:.3e}, worst |eps|=1 {worst:.3e} "
        f"(ratio {worst / base:.1f}); conventional eps=0 {conventional_base:.3e}"
    )
    _report(9, worst <= 10.0 * base, detail)
    assert worst <= 10.0 * base


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    """Rerunning any experiment with identical (config, seed) produces
    byte-identical CSV output."""
    config = tmp_path / "scenario.yaml"
    config.write_text(
        "mode: single_ue\ntrials: 8\ninner_repeats: 8\nt_bs: 4\n"
        "adc_bits: [2, .inf]\nsnr_db_grid: [0.0]\nseed: 99\n"
    )
    identical = True
    for experiment in ("sqnr", "timing"):
        out1, out2 = tmp_path / f"{experiment}_1", tmp_path / f"{experiment}_2"
        assert cli.run(cli.RunConfig(str(config), experiment, str(out1))) == 0
        assert cli.run(cli.RunConfig(str(config), experiment, str(out2))) == 0
        for name in (f"{experiment}_samples.csv", f"{experiment}_aggregates.csv"):
            identical &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _report(10, identical, "sqnr and timing CSVs byte-identical across reruns")
    assert identical
