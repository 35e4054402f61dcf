"""CPU time and minor page faults per trial of one benchmark workload, parent against change.

    python tests/cpu_per_trial.py PARENT CHANGE [--workload W] [--pairs 10] [--trials N]

PARENT and CHANGE are two checkouts of this repository.  Pair k runs one
fresh process per checkout on seed 401 + k, the parent first in even pairs
and the change first in odd ones.  Each process runs with one BLAS thread
and imports the program from its checkout's ``src/``, whose bytecode is
compiled beforehand under a temporary ``PYTHONPYCACHEPREFIX``, so neither
checkout gains a ``__pycache__``.  The prefix's path has another length in
each pair: the bytecode paths shift the heap layout, and with it whether
freed blocks go back to the kernel, so one fixed prefix can hold a whole
run's faults in one state (``sqnr_adc_sweep`` reads about 0 or 1.7 per
trial, for the same code, by the prefix alone).  It makes one warm-up call of the
workload's experiment, then reads ``resource.getrusage(RUSAGE_SELF)``
around one in-process call of N trials and divides the CPU time (user plus
system) and the minor faults by N.  ``bench/scenarios/W.yaml`` of each
checkout names the experiment (``timing_snr_sweep`` runs
``run_timing_experiment``) and is only read.

It prints each pair, each side's median and quartiles, the pairs the
change won, and a verdict per metric: "gain" when the change wins at least
nine tenths of the pairs, ties counting for neither, and its median is
below the parent's by more than the parent's interquartile range; "none"
otherwise.  On a shared machine wall time spreads wider than a change of a
few percent; CPU time and faults per trial resolve it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import json, resource, sys
from dataclasses import replace
from pathlib import Path
from mmwsync import cli, montecarlo
path, seed, trials = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
run = getattr(montecarlo, f"run_{path.stem.split('_')[0]}_experiment")
scenario = replace(cli.parse_config(path), seed=seed)
run(replace(scenario, trials=2))
before = resource.getrusage(resource.RUSAGE_SELF)
run(replace(scenario, trials=trials))
after = resource.getrusage(resource.RUSAGE_SELF)
cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
print(json.dumps({"cpu_ms_per_trial": 1e3 * cpu / trials,
                  "minor_faults_per_trial": (after.ru_minflt - before.ru_minflt) / trials,
                  "module": montecarlo.__file__}))
"""
METRICS = ("cpu_ms_per_trial", "minor_faults_per_trial")


def environment(tree: Path, pycache: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=str(pycache))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(tree: Path, workload: str, seed: int, trials: int, pycache: Path) -> dict:
    """One fresh process's figures for one checkout."""
    scenario = tree / "bench" / "scenarios" / f"{workload}.yaml"
    out = subprocess.run([sys.executable, "-c", CHILD, str(scenario), str(seed), str(trials)],
                         env=environment(tree, pycache), cwd=pycache, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=900)
    result = json.loads(out.stdout)
    if not Path(result["module"]).resolve().is_relative_to(tree):
        raise RuntimeError(f"{tree} ran the program from {result['module']}")
    return result


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, lower and upper quartile."""
    lo, median, hi = statistics.quantiles(values, n=4, method="inclusive")
    return median, lo, hi


def verdict(parent: list[float], change: list[float]) -> tuple[int, str]:
    """The pairs the change won (lower is better) and whether that is a gain."""
    wins = sum(c < p for p, c in zip(parent, change))
    median, lo, hi = spread(parent)
    gain = wins >= math.ceil(0.9 * len(parent)) and median - statistics.median(change) > hi - lo
    return wins, "gain" if gain else "none"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="timing_snr_sweep")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trials", type=int, default=32)
    args = parser.parse_args()
    if args.pairs < 2 or args.trials < 1:
        parser.error("--pairs must be at least 2 (for quartiles) and --trials at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "scenarios" / f"{args.workload}.yaml").is_file():
            parser.error(f"{tree} has no bench/scenarios/{args.workload}.yaml")
    runs = {side: {metric: [] for metric in METRICS} for side in trees}
    print(f"{args.workload}: {args.trials} trials per call, {args.pairs} pairs")
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            seed, pycache = 401 + pair, Path(tmp) / ("p" * (pair % 16 + 1))
            pycache.mkdir()
            for tree in trees.values():
                subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")],
                               env=environment(tree, pycache), check=True)
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = measure(trees[side], args.workload, seed, args.trials, pycache)
                for metric in METRICS:
                    runs[side][metric].append(result[metric])
            print(f"pair {pair} seed {seed} {order[0]} first: " + "  ".join(
                f"{side} {runs[side]['cpu_ms_per_trial'][-1]:.2f} ms "
                f"{runs[side]['minor_faults_per_trial'][-1]:.1f} faults" for side in trees))
    for metric in METRICS:
        parent, change = runs["parent"][metric], runs["change"][metric]
        wins, result = verdict(parent, change)
        print(f"{metric}: " + "  ".join("{} {:.2f} ({:.2f}-{:.2f})".format(side, *spread(runs[side][metric]))
                                        for side in trees)
              + f"  change won {wins}/{args.pairs}  verdict: {result}")


if __name__ == "__main__":
    main()
