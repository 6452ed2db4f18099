"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload sim_cells --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/out/spread.json

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median, quartiles and the quartile distance as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from BENCHMARK.json.  A spread above a third of the bound
means the benchmark is not steady enough for that metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="write every run's full output here")
    args = parser.parse_args(argv)

    workloads = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    steady = True
    for workload in workloads:
        results, reports = [], []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            results.append(json.loads(lines[-1]))
            reports.append(json.loads("\n".join(lines[:-1])))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        runs[workload] = [{"result": r, "report": d} for r, d in zip(results, reports)]
        print(f"\n{workload}: {len(results)} runs, "
              f"failed {sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)} units")
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in results])
            ok = s["iqr_frac"] < bound / 3.0
            steady &= ok
            print(f"  {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['iqr_frac']:6.3f}  "
                  f"bound {bound}  {'ok' if ok else 'WIDE'}")
        print()
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
