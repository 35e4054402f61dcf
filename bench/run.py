"""mmwsync benchmark: one experiment workload, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures set-up in fresh processes,
trials per second of in-process experiment calls, and wall time and peak
memory of one ``mmwsync`` CLI process.  With ``--trace 1`` it times each
layer on its own (microbench.py) and wraps the layers' public functions
(tracer.py) during paired untraced/traced experiment calls.  Every result is
checked (oracle.py).  Diagnostics go to stderr; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads and inherited by every child
# process: on a small shared machine OpenBLAS threads contend with each other
# and with other load, which swamps what the benchmark means to measure.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import microbench  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# workload -> (experiment, trials of its CLI run).  The scenario file in
# scenarios/ sets the trials of one in-process round.  multicell_hex runs
# here but is not in BENCHMARK.json: its trials vary several-fold in cost
# (the slot loop stops at the serving slot), so its end-to-end figures are
# not steady across seeds at this run length (see README.md).
WORKLOADS = {
    "sqnr_adc_sweep": ("sqnr", 24),
    "timing_snr_sweep": ("timing", 16),
    "multicell_hex": ("multicell", 16),
}
# An end-to-end run is CYCLES cycles of: one set-up probe, rounds for a
# share of --seconds, one CLI run.  Each metric is a median over its samples
# from all cycles, so a slow spell of the shared machine spoils only a few.
CYCLES = 5

# microbenchmark -> the function it times (every workload builds waveforms,
# though a traced call may find them cached by the untraced one before it)
MICRO_SPANS = {
    "quantization.apply_ms": "quantization.apply",
    "channel.build_ms": "channel.build_channel",
    "channel.propagate_ms": "channel.propagate",
    "detector.correlate_ms": "detector.correlate",
    "detector.detect_ms": "detector.detect",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """Import mmwsync from this checkout's src/, and nowhere else."""
    init = SRC / "mmwsync" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no mmwsync sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mmwsync

    if Path(mmwsync.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: mmwsync imported from {mmwsync.__file__}, not {SRC}")
    return mmwsync


def derived_seed(seed: int, *salt: int) -> int:
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0] & 0x7FFFFFFF)


class Workload:
    def __init__(self, pkg, name: str, seed: int):
        self.pkg = pkg
        self.experiment, self.cli_trials = WORKLOADS[name]
        self.config = BENCH / "scenarios" / f"{name}.yaml"
        self.scenario = pkg.cli.parse_config(self.config)
        self.seed = seed
        self.rng = np.random.default_rng(derived_seed(seed, 7))
        mc = pkg.montecarlo
        self.run_experiment = {
            "sqnr": mc.run_sqnr_experiment,
            "timing": mc.run_timing_experiment,
            "multicell": mc.run_multicell_experiment,
        }[self.experiment]

    def xi(self, bits) -> float:
        return 0.0 if bits == math.inf else self.pkg.quantization.xi_for_bits(int(bits))

    def verify(self, scenario, rows, aggregates, meta) -> oracle.Verdict:
        if self.experiment == "sqnr":
            v = oracle.check_sqnr(scenario, rows, aggregates, meta["beam_plans"],
                                  self.pkg.quantization.xi_for_bits)
        elif self.experiment == "timing":
            v = oracle.check_timing(scenario, rows, aggregates)
        else:
            layout = self.pkg.channel.hex_layout(
                scenario.cell.isd_m, scenario.cell.min_distance_m, scenario.cell.roots)
            v = oracle.check_multicell(scenario, rows, aggregates, layout)
        v.expect(meta["seed"] == scenario.seed, "manifest seed differs from the scenario seed")
        for key, indices in meta["beam_plans"].items():
            method, bits = key.split("/bits=")
            for msg in oracle.check_beam_choice(scenario, method, self.xi(float(bits)), indices, self.rng):
                v.expect(False, msg)
        return v

    def call(self, round_index: int) -> tuple[float, object, object]:
        """One in-process experiment call on a fresh seed, unchecked: its wall
        time, its scenario and its summary."""
        scenario = replace(self.scenario, seed=derived_seed(self.seed, round_index))
        t0 = perf_counter()
        summary = self.run_experiment(scenario, workers=1)
        return perf_counter() - t0, scenario, summary

    def check(self, scenario, summary) -> oracle.Verdict:
        return self.verify(scenario, summary.rows, summary.aggregates, summary.meta)


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def rounds(seconds: float):
    """Yield round indices while the next round, as long as the last one, still
    fits in ``seconds``; always at least one round."""
    start = perf_counter()
    r = 0
    last = 0.0
    while r == 0 or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        yield r
        last = perf_counter() - t0
        r += 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_setup(w: Workload, verdict: oracle.Verdict, plans_seen: dict) -> float:
    """Set-up time of one fresh process: import, parse, first beam plans."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py"), str(w.config), str(w.seed)],
        env=child_env(), capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    verdict.expect(report["beam_plans"] == plans_seen,
                   "beam plans from a fresh process differ from the in-process plans")
    return report["setup_s"]


def _read_csv(path: Path) -> tuple[str, list[dict]]:
    with path.open(newline="") as fh:
        header = fh.readline().rstrip("\n")
        rows = list(csv.DictReader(fh))
    return header, rows


def _typed(row: dict) -> dict:
    out = {}
    for k, val in row.items():
        if k == "method":
            out[k] = val
        elif k in ("trial", "slot", "nu_true", "nu_hat", "b_hat", "success", "first_success_slot", "n"):
            out[k] = int(val)
        else:
            out[k] = float(val)
    return out


def run_cli(w: Workload, work: Path, repeat: int, verdict: oracle.Verdict) -> tuple[float, float]:
    """One CLI process: wall seconds and peak resident memory in MB (1e6 bytes)."""
    seed = derived_seed(w.seed, 1_000_000)
    out_dir = work / f"cli{repeat}"
    config = work / "cli.yaml"
    raw = yaml.safe_load(w.config.read_text())
    config.write_text(yaml.safe_dump({**raw, "trials": w.cli_trials}))
    cmd = [sys.executable, "-m", "mmwsync.cli", "--config", str(config),
           "--experiment", w.experiment, "--out", str(out_dir), "--seed", str(seed)]
    with (work / "cli.stderr").open("w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"error: CLI exited {proc.returncode}:\n{(work / 'cli.stderr').read_text()}")
    scenario = replace(w.scenario, seed=seed, trials=w.cli_trials)
    header, rows = _read_csv(out_dir / f"{w.experiment}_samples.csv")
    agg_header, aggregates = _read_csv(out_dir / f"{w.experiment}_aggregates.csv")
    meta = yaml.safe_load((out_dir / f"{w.experiment}_manifest.yaml").read_text())
    v = w.verify(scenario, [_typed(r) for r in rows], [_typed(a) for a in aggregates], meta)
    v.expect(header == agg_header and f" seed={seed} " in header
             and f"scenario_hash={meta['scenario_hash']}" in header,
             f"CSV header line {header!r} does not identify the run")
    verdict.merge(v)
    return wall, usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def end_to_end(w: Workload, seconds: float, work: Path, verdict: oracle.Verdict) -> dict:
    # warm: compile the sources once so that set-up probes measure steady imports
    first_plans = w.pkg.montecarlo.slot_beam_plans(replace(w.scenario, seed=w.seed))
    plans_seen = {f"{m}/bits={b}": p.indices.tolist() for (m, b), p in first_plans.items()}
    setups, rates, walls, rss = [], [], [], []
    r = 0
    for cycle in range(CYCLES):
        setups.append(probe_setup(w, verdict, plans_seen))
        for _ in rounds(seconds / CYCLES):
            elapsed, scenario, summary = w.call(r)
            verdict.merge(w.check(scenario, summary))
            rates.append(w.scenario.trials / elapsed)
            r += 1
        wall, mem = run_cli(w, work, cycle, verdict)
        walls.append(wall)
        rss.append(mem)
    log(f"setup_s {[round(t, 4) for t in setups]}  trials_per_s {[round(t, 3) for t in rates]}  "
        f"run_s {[round(t, 4) for t in walls]}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "trials_per_s": (statistics.median(rates), "trial/s"),
        "run_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def traced(w: Workload, seconds: float, work: Path, verdict: oracle.Verdict) -> dict:
    """Set-up layers, then the trial rounds, then the microbenchmarks: the
    rounds start from the same process state as the end-to-end rounds, not
    from one the microbenchmarks' large arrays have left in the allocator."""
    pkg = w.pkg
    metrics = {}
    tracer = Tracer(pkg)

    # set-up layers: beam search for the workload's arms, caches warm
    select, bound, beams = [], [], []
    for _ in range(3):
        tracer.reset()
        tracer.install()
        try:
            pkg.montecarlo.slot_beam_plans(w.scenario)
        finally:
            tracer.uninstall()
        select.append(tracer.incl_s("optimizer.select_multi_beam", "optimizer.select_single_beam"))
        bound.append(tracer.incl_s("sqnr.sqnr_lower_bound_single"))
        beams.append(tracer.layer_self_s("beamforming"))
    metrics["beamforming.setup_ms"] = (1e3 * statistics.median(beams), "ms")
    metrics["sqnr.bound_evals"] = (tracer.bound_evals, "count")
    metrics["sqnr.bound_ms"] = (1e3 * statistics.median(bound), "ms")
    metrics["optimizer.select_s"] = (statistics.median(select), "s")
    metrics["optimizer.iterations"] = (tracer.iterations, "count")

    # trial layers: paired untraced / traced calls on the same seed
    tracer.reset()
    plain, spanned = [], []
    summary = None
    for r in rounds(seconds):
        elapsed, scenario, summary = w.call(r)
        verdict.merge(w.check(scenario, summary))
        plain.append(elapsed)
        tracer.install()
        try:
            elapsed, scenario, summary = w.call(r)
        finally:
            tracer.uninstall()
            tracer.end_call()
        verdict.merge(w.check(scenario, summary))
        spanned.append(elapsed)

    trials = w.scenario.trials * len(spanned)
    per_trial = lambda s: 1e3 * s / trials  # noqa: E731
    draw = ("channel.clustered_paths", "channel.single_path", "channel.drop_users", "channel.pathloss_amp_gain")
    metrics.update({
        "quantization.apply_ms_per_trial": (per_trial(tracer.incl_s("quantization.apply")), "ms"),
        "quantization.apply_calls_per_trial": (tracer.calls("quantization.apply") / trials, "count"),
        "channel.draw_ms_per_trial": (per_trial(tracer.incl_s(*draw)), "ms"),
        "channel.build_ms_per_trial": (per_trial(tracer.incl_s("channel.build_channel")), "ms"),
        "channel.propagate_ms_per_trial": (per_trial(tracer.incl_s("channel.propagate")), "ms"),
        "channel.propagate_calls_per_trial": (tracer.propagate_calls / trials, "count"),
        "channel.propagate_distinct_ratio": (
            tracer.propagate_distinct / tracer.propagate_calls if tracer.propagate_calls else 1.0, "ratio"),
        "detector.correlate_ms_per_trial": (per_trial(tracer.incl_s("detector.correlate")), "ms"),
        "detector.correlate_calls_per_trial": (tracer.calls("detector.correlate") / trials, "count"),
        "detector.detect_ms_per_trial": (per_trial(tracer.incl_s("detector.detect")), "ms"),
        "montecarlo.self_ms_per_trial": (per_trial(sum(spanned) - tracer.top_level_s), "ms"),
    })
    untraced_rate = trials / sum(plain)
    traced_rate = trials / sum(spanned)
    metrics["trace.untraced_trials_per_s"] = (untraced_rate, "trial/s")
    metrics["trace.traced_trials_per_s"] = (traced_rate, "trial/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0), "%")

    # CLI output writing for one round's results
    writes = []
    for i in range(5):
        out_dir = work / f"write{i}"
        t0 = perf_counter()
        written = pkg.cli.write_outputs(summary, w.experiment, out_dir)
        writes.append(perf_counter() - t0)
    metrics["cli.write_s"] = (statistics.median(writes), "s")
    metrics["cli.output_mb"] = (sum(p.stat().st_size for p in written) / 1e6, "MB")

    for key, val in microbench.run(pkg, w.scenario, w.rng, verdict).items():
        # a layer the workload never calls reads zero, whatever it costs elsewhere
        if key in MICRO_SPANS and not tracer.calls(MICRO_SPANS[key]):
            val = 0.0
        metrics[key] = (val, "s" if key.endswith("_s") else "ms")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_program()
    w = Workload(pkg, args.workload, args.seed)
    verdict = oracle.Verdict()
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        if args.trace:
            metrics = traced(w, args.seconds, work, verdict)
        else:
            metrics = end_to_end(w, args.seconds, work, verdict)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for msg in verdict.problems[:20]:
        log(f"check failed: {msg}")
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": float(val), "unit": unit} for k, (val, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
