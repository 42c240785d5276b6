"""Five-seed split-class CIL benchmark, projection on vs off.

Settings come from configs/cil_prompt.json.  Geometry is pinned
(tokenizer, stream, backbone) so the two arms and all seeds see the same
problem; per-run seeds vary only the paradigm init and batch order.
Prints per-seed rows and the seed-mean comparison.
"""

import argparse
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

import orthopet.cli as cli
import orthopet.metrics as mt
import orthopet.pet as pm
import orthopet.projection as pj
import orthopet.trainer as tr

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "cil_prompt.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paradigm", default="prompt", choices=pm.PARADIGMS)
    parser.add_argument("--seeds", default="0,1,2,3,4",
                        help="comma-separated run seeds")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    run = cli.load_config(CONFIG, {"paradigm": args.paradigm})
    stream = run.stream()
    means = {}
    for arm in (True, False):
        label = "projection" if arm else "baseline"
        rows = []
        print(f"-- {label} ({args.paradigm})")
        for seed in seeds:
            cfg = replace(run.train_cfg, seed=seed, projection=arm)
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", pj.EmptyBasisWarning)
                matrix, _ = tr.continual_run(stream, run.model_cfg, run.paradigm, cfg)
            summary = mt.summarize(matrix)
            rows.append(summary)
            print(f"seed {seed}: avg_acc {summary['avg_acc']:.4f}, "
                  f"forgetting {summary['forgetting']:.4f}, "
                  f"new_acc {summary['new_acc']:.4f} "
                  f"({time.perf_counter() - t0:.0f}s)")
        means[arm] = {k: float(np.mean([r[k] for r in rows]))
                      for k in ("avg_acc", "forgetting", "new_acc")}

    on, off = means[True], means[False]
    reduction = 1.0 - on["forgetting"] / off["forgetting"]
    print("-- seed means")
    print(f"avg_acc    {on['avg_acc']:.4f} vs {off['avg_acc']:.4f} "
          f"({on['avg_acc'] - off['avg_acc']:+.4f})")
    print(f"forgetting {on['forgetting']:.4f} vs {off['forgetting']:.4f} "
          f"({reduction:+.1%})")
    print(f"new_acc    {on['new_acc']:.4f} vs {off['new_acc']:.4f}")


if __name__ == "__main__":
    main()
