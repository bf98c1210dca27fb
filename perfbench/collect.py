"""Run the benchmark over several seeds and summarize it in one JSON file.

    python3 perfbench/collect.py --seeds 1-10 --traced-seed 1 --out FILE

For each workload of BENCHMARK.json: one plain run per seed and one traced
run at ``--traced-seed``, each for BENCHMARK.json's ``run_seconds``. The file holds
every run's metrics, the results digests per seed, the host facts, and per
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (quartile distance over median). Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    detail = json.loads(next(x for x in lines if x.startswith("# detail "))[len("# detail "):])
    return {"result": json.loads(lines[-1]), "detail": detail}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced-seed", type=int, required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, **run})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in run["result"]["metrics"].items()),
                file=sys.stderr, flush=True)
        entry = {
            "host": runs[0]["detail"]["host"],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {m["name"]: summarize([r["result"]["metrics"][m["name"]]["value"]
                                                  for r in runs])
                           for m in spec["end_to_end"]},
            "printed": {k: summarize([r["detail"]["end_to_end"][k] for r in runs])
                        for k in ("coverage_gap", "failed_frac")},
            "matmul_gflop_per_s": [r["detail"]["matmul_gflop_per_s"] for r in runs],
            "digests": {str(r["seed"]): r["detail"]["digests"] for r in runs},
        }
        for name, summary in entry["end_to_end"].items():
            print(f"{workload} {name}: median {summary['median']:.5g} spread "
                  f"{summary['spread']:.4f}", file=sys.stderr, flush=True)
        traced = run_once(workload, args.traced_seed, seconds, 1)
        entry["per_layer"] = {"seed": args.traced_seed, "correct": traced["result"]["correct"],
                              "metrics": traced["result"]["metrics"]}
        report["workloads"][workload] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
