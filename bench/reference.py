"""Scale for imputed_nrmse: the nRMSE of simpler fills on the same inputs.

    python3 bench/reference.py --seed 1 [--seed 2 ...]

For each workload this prints the range-scaled RMSE (as bench/run.py reports
it) of two fills computed through the package's Python API, outside any
timed run:

- mean: column-mean fill (``baselines.mean_impute``);
- conditional: the pipeline's starting point before training, the
  conditional-mean fill under the EM moments (path-model implied moments
  where the workload passes a path model), with ordinals snapped to levels.

method-study pools the three trial masks its sesa evaluation draws; like
its table, they do not depend on the seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from semimpute._entry import pin_threads  # noqa: E402

pin_threads()

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from semimpute.baselines import mean_impute  # noqa: E402
from semimpute.dataset import denormalize, encode_ordinal, load_csv, load_variable_specs, normalize, snap_ordinals  # noqa: E402
from semimpute.fiml import MvnParams, conditional_impute, em_fit  # noqa: E402
from semimpute.missingness import apply_mcar  # noqa: E402
from semimpute.rng import derive_seed  # noqa: E402
from semimpute.sem import fit_paths_fiml, implied_moments, load_spec  # noqa: E402
from semimpute.training import _nearest_pd  # noqa: E402


def conditional_fill(masked, spec):
    """The conditional-mean fill impute() starts training from."""
    norm = normalize(encode_ordinal(masked))
    if spec is None:
        params = em_fit(norm).params
    else:
        mu, sigma = implied_moments(fit_paths_fiml(spec, norm).model)
        params = MvnParams(mu, _nearest_pd(sigma))
    filled, provenance = conditional_impute(params, norm)
    return snap_ordinals(denormalize(filled), provenance).values


def scores(truth: np.ndarray, masked, spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean fill, conditional fill, hidden cells) for one masked table."""
    hidden = ~np.asarray(masked.mask)
    return mean_impute(encode_ordinal(masked)).values, conditional_fill(masked, spec), hidden


def reference(workload: str, seed: int) -> tuple[float, float]:
    work = run.WORK_ROOT / f"reference-{workload}-{seed}-{os.getpid()}"
    try:
        info = gen.generate(workload, seed, work)
        specs = load_variable_specs(work / "variables.json")
        spec = load_spec(work / "model.sem") if (work / "model.sem").exists() else None
        truth = info["truth"]
        if workload != "method-study":
            fills = [scores(truth, load_csv(work / "masked.csv", specs), spec)]
            tables = [truth]
        else:
            complete = encode_ordinal(load_csv(work / "truth.csv", specs))
            fills = [
                scores(truth, apply_mcar(complete, checks.RATE, derive_seed(run.STUDY_MASK_SEED, trial))[0], spec)
                for trial in range(1, run.STUDY_TRIALS + 1)
            ]
            tables = [truth] * len(fills)
    finally:
        run.remove_work(work)
    pred_mean = np.vstack([f[0] for f in fills])
    pred_cond = np.vstack([f[1] for f in fills])
    hidden = np.vstack([f[2] for f in fills])
    stacked = np.vstack(tables)
    return checks.nrmse(pred_mean, stacked, hidden), checks.nrmse(pred_cond, stacked, hidden)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = parser.parse_args()
    print("workload        seed  mean-fill nRMSE  conditional-fill nRMSE")
    for workload in args.workload or run.WORKLOADS:
        for seed in args.seed:
            mean, cond = reference(workload, seed)
            print(f"{workload:15s} {seed:4d}  {mean:15.4f}  {cond:22.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
