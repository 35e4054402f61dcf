"""Reference computations made apart from mmwsync, and the output checks
built on them.

Nothing here calls into the program's numerics: steering vectors, DFT
codewords, the SQNR lower bound, the raised-cosine pulse, the uniform
quantizer MSE and the aggregate statistics are all written out again from
their definitions.  The program's outputs are compared against these.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import digamma, exp1

PANTER_DITE = math.pi * math.sqrt(3.0) / 2.0
_Z95 = 1.96
_REL = 1e-9

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)


# ---------------------------------------------------------------------------
# results of a check
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    """Operations attempted and failed, plus every failed output check.

    ``failed`` counts operations that did not produce a valid result;
    ``problems`` lists wrong outputs of operations that did, which make the
    run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def close(a: float, b: float, rel: float = _REL, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# ---------------------------------------------------------------------------
# scalar quantizer references
# ---------------------------------------------------------------------------


def _gauss_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _sq_err_integral(a: np.ndarray, b: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Gauss-Legendre value of the integral of (x - level)^2 phi(x) over [a, b]."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X[None, :]
    return half * (((x - level[:, None]) ** 2 * _gauss_pdf(x)) @ _GL_W)


def uniform_quantizer_mse(bits: int, clip: float) -> float:
    """Gaussian MSE of the b-bit uniform midrise quantizer clipped at +-clip,
    by quadrature over every cell (the two unbounded cells are cut at 40
    standard deviations past their edge)."""
    m = 2**bits
    step = 2.0 * clip / m
    k = np.arange(-m // 2, m // 2)
    levels = (k + 0.5) * step
    edges = k[1:] * step
    inner = 0.0
    if m > 2:
        inner = float(np.sum(_sq_err_integral(edges[:-1], edges[1:], levels[1:-1])))
    lo = edges[-1] + 0.25 * np.arange(160)
    tail = float(np.sum(_sq_err_integral(lo, lo + 0.25, np.full(lo.shape, levels[-1]))))
    return inner + 2.0 * tail


@lru_cache(maxsize=None)
def optimal_uniform_mse(bits: int) -> float:
    """Least MSE over the clipping point of the uniform midrise quantizer."""
    res = minimize_scalar(
        lambda c: uniform_quantizer_mse(bits, c),
        bounds=(0.1, 30.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.fun)


def check_lloyd_max(bits: int, xi: float) -> list[str]:
    """The Lloyd-Max MSE must not exceed the optimal uniform quantizer's and
    must stay below the Panter-Dite high-resolution limit pi*sqrt(3)/2 / 4^b."""
    wrong = []
    uniform = optimal_uniform_mse(bits)
    if not xi <= uniform * (1.0 + _REL):
        wrong.append(f"xi({bits})={xi:.6g} above optimal uniform MSE {uniform:.6g}")
    if not xi * 4.0**bits < PANTER_DITE:
        wrong.append(f"xi({bits})*4^{bits}={xi * 4.0**bits:.6g} not below pi*sqrt(3)/2")
    return wrong


# ---------------------------------------------------------------------------
# array, codebook and bound references
# ---------------------------------------------------------------------------


def ula_steering(n: int, azimuth: np.ndarray | float) -> np.ndarray:
    """Half-wavelength ULA response, shape (..., n)."""
    az = np.asarray(azimuth, dtype=np.float64)
    return np.exp(-1j * np.pi * np.arange(n) * np.sin(az)[..., None])


def dft_codewords(n_a: int, oversampling: int) -> np.ndarray:
    n_beam = n_a * oversampling
    return np.exp(-2j * np.pi * np.outer(np.arange(n_beam), np.arange(n_a)) / n_beam) / math.sqrt(n_a)


def sqnr_bound(gain_sq: np.ndarray, lambda_max: float, xi_max: float) -> np.ndarray:
    """Worst-case zero-lag SQNR lower bound in noise-normalized units."""
    s = np.asarray(gain_sq, dtype=np.float64)
    bracket = np.sqrt(s / lambda_max + 1.0) / (1.0 - xi_max) - 1.0
    return s / (lambda_max + bracket * (s + lambda_max))


def slot_anchors(scenario) -> np.ndarray:
    lo, hi = (math.radians(a) for a in scenario.sector.azimuth_deg)
    edges = np.linspace(lo, hi, scenario.t_bs + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def tx_vectors(scenario, method: str, indices) -> np.ndarray:
    """Per-slot unit-power transmit vectors rebuilt from manifest beam indices."""
    idx = np.asarray(indices, dtype=int)
    os_ = scenario.codebook_oversampling
    if method == "single_stream":
        return dft_codewords(scenario.n_tot, os_)[idx[:, 0]]
    sub = dft_codewords(scenario.n_tot // scenario.n_rf, os_)
    return sub[idx].reshape(idx.shape[0], -1) / math.sqrt(scenario.n_rf)


def check_beam_choice(scenario, method: str, xi: float, indices, rng: np.random.Generator,
                      n_others: int = 256) -> list[str]:
    """The chosen codewords must score at least as high on the bound as a
    random subset of the other candidates, at every slot's anchor."""
    wrong = []
    idx = np.asarray(indices, dtype=int)
    n_rf = scenario.n_rf if method == "proposed" else 1
    n_beam = (scenario.n_tot // n_rf) * scenario.codebook_oversampling
    for slot, anchor in enumerate(slot_anchors(scenario)):
        cand = rng.integers(0, n_beam, size=(n_others, n_rf))
        cand = np.vstack([idx[slot][None, :], cand])
        vec = tx_vectors(scenario, method, cand)
        a = ula_steering(scenario.n_tot, anchor)
        gain = np.abs(vec @ np.conj(a)) ** 2
        obj = sqnr_bound(gain, scenario.lambda_max, xi)
        if obj[0] < obj[1:].max() * (1.0 - 1e-12):
            wrong.append(f"{method} slot {slot}: chosen beams {idx[slot].tolist()} beaten "
                         f"by {cand[1 + int(np.argmax(obj[1:]))].tolist()}")
    return wrong


def closed_form_sqnr_db(scenario, method: str, indices, snr_db: float, grid: int = 20001) -> float:
    """Expected mean of the infinite-resolution SQNR samples in dB.

    Per trial the SQNR is |a_tx^H f|^2 * N * 10^(snr/10) with f the serving
    slot's transmit vector; the UE azimuth is uniform over the sector.  The
    measurement is |mean|^2 / var over K complex Gaussian repeats, whose log
    is offset by E1(K*gamma) - psi(K-1) + ln K (in nepers) from the truth.
    """
    lo, hi = (math.radians(a) for a in scenario.sector.azimuth_deg)
    az = lo + (hi - lo) * (np.arange(grid) + 0.5) / grid
    anchors = slot_anchors(scenario)
    slots = np.argmin(np.abs(az[:, None] - anchors[None, :]), axis=1)
    f = tx_vectors(scenario, method, indices)[slots]
    a = ula_steering(scenario.n_tot, az)
    gamma = np.abs(np.sum(np.conj(a) * f, axis=1)) ** 2 * scenario.n_subcarriers * 10.0 ** (snr_db / 10.0)
    k = scenario.inner_repeats
    bias_np = exp1(k * gamma) - digamma(k - 1) + math.log(k)
    return float(np.mean(10.0 * np.log10(gamma) + 10.0 / math.log(10.0) * bias_np))


def raised_cosine(tau: np.ndarray, beta: float) -> np.ndarray:
    tau = np.asarray(tau, dtype=np.float64)
    out = np.empty_like(tau)
    for i, t in np.ndenumerate(tau):
        if beta > 0 and abs(abs(2.0 * beta * t) - 1.0) < 1e-12:
            out[i] = math.pi / 4.0 * np.sinc(1.0 / (2.0 * beta))
        else:
            out[i] = np.sinc(t) * math.cos(math.pi * beta * t) / (1.0 - (2.0 * beta * t) ** 2)
    return out


def wilson(successes: int, n: int) -> tuple[float, float]:
    p = successes / n
    z2 = _Z95 * _Z95
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = _Z95 / (1 + z2 / n) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def hex_neighbour_roots_distinct(layout, isd_m: float) -> bool:
    c = np.asarray(layout.centers)
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            if np.hypot(*(c[i] - c[j])) < 1.01 * isd_m and layout.roots[i] == layout.roots[j]:
                return False
    return True


# ---------------------------------------------------------------------------
# experiment output checks
# ---------------------------------------------------------------------------


def _same_per_trial(rows, fields, v: Verdict) -> None:
    trials = defaultdict(list)
    for r in rows:
        trials[r["trial"]].append(r)
    for trial, sel in trials.items():
        for f in fields:
            v.expect(len({r[f] for r in sel}) == 1, f"trial {trial}: {f} differs across arms")


def _points(scenario, rows, aggregates, keys, v: Verdict):
    """Yield (key, aggregate, sample rows) for every point that the
    scenario's arms define, one operation each; a point whose aggregate or
    samples are missing is reported instead."""
    def key_of(d):
        return tuple(d[k] if k == "method" else float(d[k]) for k in keys)

    aggs = {key_of(a): a for a in aggregates}
    groups = defaultdict(list)
    for r in rows:
        groups[key_of(r)].append(r)
    grids = {"method": ("proposed", "single_stream"), "bits": scenario.adc_bits,
             "snr_db": scenario.snr_db_grid, "cfo": scenario.cfo_grid}
    expected = {key_of(dict(zip(keys, combo))) for combo in itertools.product(*(grids[k] for k in keys))}
    v.expect(set(aggs) == expected and set(groups) == expected, "points differ from the scenario's arms")
    for key in sorted(expected, key=str):
        v.attempted += 1
        agg, sel = aggs.get(key), groups.get(key, [])
        if agg is None or len(sel) != scenario.trials:
            v.expect(False, f"{key}: missing aggregate or samples")
            continue
        yield key, agg, sel


def check_sqnr(scenario, rows, aggregates, beam_plans, xi_of) -> Verdict:
    """One operation per (method, bits, snr) point and per finite ADC arm."""
    v = Verdict()
    for key, agg, sel in _points(scenario, rows, aggregates, ("method", "bits", "snr_db"), v):
        method, bits, snr = key
        vals = np.array([r["sqnr_db_sample"] for r in sel], dtype=np.float64)
        v.expect(bool(np.all(np.isfinite(vals))), f"{key}: non-finite SQNR sample")
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
        v.expect(int(agg["n"]) == len(vals) and close(agg["mean_sqnr_db"], mean)
                 and close(agg["ci95_lo"], mean - _Z95 * se) and close(agg["ci95_hi"], mean + _Z95 * se),
                 f"{key}: aggregate differs from its samples")
        if bits == math.inf:
            want = closed_form_sqnr_db(scenario, method, beam_plans[f"{method}/bits=inf"], snr)
            v.expect(abs(mean - want) <= 5.0 * se + 1e-3,
                     f"{key}: mean SQNR {mean:.3f} dB vs closed form {want:.3f} dB "
                     f"(standard error {se:.3f} dB)")
    for bits in sorted(b for b in scenario.adc_bits if b != math.inf):
        v.op(not check_lloyd_max(int(bits), xi_of(int(bits))))
    return v


def check_timing(scenario, rows, aggregates) -> Verdict:
    """One operation per (method, bits, snr, cfo) point."""
    v = Verdict()
    n = scenario.n_subcarriers
    max_lag = n * (scenario.t_ue - 1)
    for r in rows:
        v.expect(r["success"] == int(r["nu_hat"] == r["nu_true"])
                 and 1 <= r["nu_true"] <= max_lag and 0 <= r["nu_hat"] <= max_lag
                 and 0 <= r["b_hat"] < scenario.m_tot and 0 <= r["slot"] < scenario.t_bs
                 and math.isfinite(r["peak_power"]) and r["peak_power"] > 0,
                 f"timing row breaks an invariant: {r}")
    _same_per_trial(rows, ("nu_true", "slot"), v)
    for key, agg, sel in _points(scenario, rows, aggregates, ("method", "bits", "snr_db", "cfo"), v):
        nmse = float(np.mean([((r["nu_true"] - r["nu_hat"]) / r["nu_true"]) ** 2 for r in sel]))
        wins = sum(r["success"] for r in sel)
        lo, hi = wilson(wins, len(sel))
        v.expect(int(agg["n"]) == len(sel) and close(agg["nmse"], nmse)
                 and close(agg["success_rate"], wins / len(sel))
                 and close(agg["wilson_lo"], lo) and close(agg["wilson_hi"], hi),
                 f"{key}: aggregate differs from its samples")
    return v


def check_multicell(scenario, rows, aggregates, layout) -> Verdict:
    """One operation per (method, bits, snr) point."""
    v = Verdict()
    t_bs = scenario.t_bs
    max_lag = scenario.n_subcarriers * (scenario.t_ue - 1)
    v.expect(hex_neighbour_roots_distinct(layout, scenario.cell.isd_m), "neighbouring cells share a root")
    for r in rows:
        first = r["first_success_slot"]
        v.expect(r["success"] in (0, 1) and -1 <= first < t_bs and 0 <= r["slot"] < t_bs
                 and 1 <= r["nu_true"] <= max_lag
                 and (not r["success"] or 0 <= first <= r["slot"]),
                 f"multicell row breaks an invariant: {r}")
    _same_per_trial(rows, ("nu_true", "slot"), v)
    for key, agg, sel in _points(scenario, rows, aggregates, ("method", "bits", "snr_db"), v):
        count = len(sel)
        detected = sum(r["first_success_slot"] >= 0 for r in sel)
        serving = sum(r["success"] for r in sel)
        lo, hi = wilson(detected, count)
        access = [sum(r["first_success_slot"] == s for r in sel) / count for s in range(t_bs)]
        none = sum(r["first_success_slot"] < 0 for r in sel) / count
        got_access = [float(agg[f"access_prob_slot_{s}"]) for s in range(t_bs)]
        v.expect(int(agg["n"]) == count and close(agg["detection_probability"], detected / count)
                 and close(agg["serving_slot_success_rate"], serving / count)
                 and close(agg["wilson_lo"], lo) and close(agg["wilson_hi"], hi)
                 and all(close(g, w) for g, w in zip(got_access, access))
                 and close(float(agg["access_prob_none"]), none)
                 and close(sum(got_access) + float(agg["access_prob_none"]), 1.0)
                 and agg["detection_probability"] >= agg["serving_slot_success_rate"],
                 f"{key}: aggregate differs from its samples or breaks an invariant")
    return v
