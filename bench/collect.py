"""Run the benchmark over several seeds and write a results file.

    python3 bench/collect.py [--seeds 10] [--trace 0|1] [--workloads NAME ...]

Runs ``bench/run.py`` once per (workload, seed), sequentially, from the root
of the checkout, for the run length of BENCHMARK.json; by default on its
workloads.  It writes ``bench/results/BENCH_<sha>.json``.  For every metric
it records the values, their median, quartiles and spread (inter-quartile
distance over the median), and for every workload the operations attempted
and failed.  The file also records
the machine, the Python/numpy/scipy versions and the git SHA of the sources.
An existing results file is extended: entries for other trace modes are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(p.stem for p in (BENCH / "scenarios").glob("*.yaml"))


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def machine() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)

    sha = git_sha()
    seconds = SPEC["run_seconds"]
    out = BENCH / "results" / f"BENCH_{sha[:12]}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update({"git_sha": sha, "machine": machine(), "run_seconds": seconds})
    mode = "traced" if args.trace else "end_to_end"
    results = doc.setdefault(mode, {})
    for name in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed} exited {proc.returncode}")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: {json.dumps(runs[-1])}", flush=True)
        metrics = {}
        for key, first in runs[0]["metrics"].items():
            metrics[key] = {"unit": first["unit"], **summarize([r["metrics"][key]["value"] for r in runs])}
        results[name] = {
            "seeds": list(range(1, args.seeds + 1)),
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        for key, m in metrics.items():
            print(f"  {name:18s} {key:38s} median {m['median']:.6g} {m['unit']:8s} spread {m['spread']:.4f}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
