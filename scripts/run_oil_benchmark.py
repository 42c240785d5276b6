"""Single-epoch online-incremental benchmark for the factor paradigms.

Every sample is seen once, so there is no room to re-fit old classes;
whatever the projection preserves is what survives.  Runs adapter and
lora, projection on vs off, over the given seeds, with the settings of
configs/oil_lora.json.
"""

import argparse
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

import orthopet.cli as cli
import orthopet.metrics as mt
import orthopet.projection as pj
import orthopet.trainer as tr

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "oil_lora.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4",
                        help="comma-separated run seeds")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    run = cli.load_config(CONFIG)
    stream = run.stream()
    for paradigm in ("adapter", "lora"):
        means = {}
        for arm in (True, False):
            fgts, accs = [], []
            for seed in seeds:
                cfg = replace(run.train_cfg, seed=seed, projection=arm)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", pj.EmptyBasisWarning)
                    matrix, _ = tr.continual_run(stream, run.model_cfg, paradigm, cfg)
                summary = mt.summarize(matrix)
                fgts.append(summary["forgetting"])
                accs.append(summary["avg_acc"])
            means[arm] = (float(np.mean(accs)), float(np.mean(fgts)))
        (acc_on, fgt_on), (acc_off, fgt_off) = means[True], means[False]
        print(f"{paradigm}: forgetting {fgt_on:.4f} vs {fgt_off:.4f} "
              f"({fgt_on - fgt_off:+.4f}), avg_acc {acc_on:.4f} vs {acc_off:.4f}")


if __name__ == "__main__":
    main()
