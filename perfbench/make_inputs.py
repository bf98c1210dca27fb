"""Write the synthetic series of one benchmark workload to a wide CSV.

    python3 perfbench/make_inputs.py --out DIR --length N --seeds S1 [S2 ...]

Imports conformalts from PYTHONPATH, generates one series per seed with
``gen_synthetic`` and writes ``DIR/series.csv`` (one column per series, ids
``synthetic-<seed>``, full float precision). The benchmark times this
process as its set-up: interpreter start, package import and input build.
"""

from __future__ import annotations

import argparse
import os

from conformalts.data import SyntheticConfig, gen_synthetic, save_wide_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    series = [gen_synthetic(SyntheticConfig(seed=s, length=args.length))[0] for s in args.seeds]
    os.makedirs(args.out, exist_ok=True)
    save_wide_csv(series, os.path.join(args.out, "series.csv"))


if __name__ == "__main__":
    main()
