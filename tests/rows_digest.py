"""SHA-256 of the rows and aggregates of every benchmark scenario, at seeds 1 and 2.

    OPENBLAS_NUM_THREADS=1 python tests/rows_digest.py

Run it at two commits of a change that must keep every output byte: the
printed lines are equal exactly when each run's rows and aggregates are.
The program is imported from this checkout's ``src/``; ``bench/`` is only
read.  Each ``bench/scenarios/*.yaml`` is named after its experiment
(``timing_snr_sweep.yaml`` runs ``run_timing_experiment``) and runs with
the trials it sets.  Run both commits with one BLAS thread, as
``bench/run.py`` does: the matrix products' rounding may depend on the
thread count.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mmwsync import cli  # noqa: E402
from mmwsync import montecarlo as mc  # noqa: E402


def main() -> None:
    for path in sorted((ROOT / "bench" / "scenarios").glob("*.yaml")):
        run = getattr(mc, f"run_{path.stem.split('_')[0]}_experiment")
        scenario = cli.parse_config(path)
        for seed in (1, 2):
            summary = run(replace(scenario, seed=seed))
            text = json.dumps({"rows": summary.rows, "aggregates": summary.aggregates})
            print(f"{path.stem} seed={seed} {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
