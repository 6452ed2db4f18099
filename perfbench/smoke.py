"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root):

    python3 perfbench/smoke.py

Checks that

* every workload runs with ``--trace 0`` and ``--trace 1`` and its last line
  carries exactly the keys correct, attempted, failed and metrics, and every
  metric BENCHMARK.json names, with that metric's unit;
* every gate fails on a deliberately out-of-bound output;
* the command exits non-zero, printing no result, in a directory that holds
  only BENCHMARK.json and perfbench/.

Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workloads() -> list[str]:
    problems = []
    for w in SPEC["workloads"]:
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run(ROOT, w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(last)}")
            if not (last["correct"] and last["attempted"] >= 1 and last["failed"] == 0):
                problems.append(f"{where}: correct={last['correct']} "
                                f"attempted={last['attempted']} failed={last['failed']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            print(f"ok  {where}")
    return problems


def check_gates() -> list[str]:
    cfg = SimpleNamespace(reps=5, q1=0.25, q2=0.15, mode="open")
    good = SimpleNamespace(n_trials=5, fdr=0.1, fdr_se=0.02, fnr=0.05, fnr_se=0.01)
    rows = [SimpleNamespace(drug=f"d{i}") for i in range(3)]
    # a search that matched at 1000 reps: found=False below the ceiling passes
    fss = SimpleNamespace(n_fss=94, found=False, achieved_fnr=0.038, achieved_fdr=0.04,
                          reps=1000)
    cases = {
        "sim fdr": workloads.sim_gate(cfg, SimpleNamespace(**(vars(good) | {"fdr": 0.9}))),
        "sim fnr": workloads.sim_gate(cfg, SimpleNamespace(**(vars(good) | {"fnr": 0.9}))),
        "sim n_trials": workloads.sim_gate(cfg, SimpleNamespace(**(vars(good) | {"n_trials": 4}))),
        "monitoring rows": workloads.monitoring_gate(
            SimpleNamespace(rows=rows[:2]), {"d0", "d1", "d2"}),
        "fss ceiling": workloads.fss_gate(SimpleNamespace(**(vars(fss) | {
            "n_fss": 400, "found": False, "achieved_fnr": 0.2})), 0.25, 400),
        "fss fdr": workloads.fss_gate(SimpleNamespace(**(vars(fss) | {"achieved_fdr": 0.31})),
                                      0.25, 400),
        "b increasing": workloads.boundary_gate([1.0, 2.0]),
        "b not finite": workloads.boundary_gate([np.inf, 1.0]),
        "gamma range": workloads.gamma_gate(SimpleNamespace(gamma1=1.5, gamma2=None)),
    }
    problems = [f"gate did not fail: {name}" for name, bad in cases.items() if not bad]
    if workloads.sim_gate(cfg, good):
        problems.append("sim gate fails an in-bound summary")
    if workloads.fss_gate(fss, 0.25, 400):
        problems.append("fss gate fails an in-bound search")
    print(f"ok  {len(cases)} gates fail on out-of-bound outputs" if not problems else "")
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "sim_cells", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    print("ok  bare directory fails without a result")
    return []


def main() -> int:
    problems = check_gates() + check_bare_directory() + check_workloads()
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
