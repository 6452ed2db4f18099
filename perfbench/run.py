"""seqfdr benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_cells --seed 1 --seconds 20 --trace 0

Workloads: sim_cells, wide_monitoring, fss_search, calibration (see
perfbench/README.md for what each runs and why).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run.  Earlier lines hold the
detail: sample counts, gate verdicts, the round-0 output digest, the
calibration z-values and the provenance block.

The work runs in three child processes started one after another from this
one, each measuring a third of ``--seconds`` and reporting its own peak RSS
(the median is reported).  Two more processes between them only set up.
Set-up is timed in all five, and their median is reported at the
reference speed of the whole run (see reference.py).  The program is
imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import NOMINAL_S, SETUP_KIND, SpeedProbe  # noqa: E402
from stats import reported_extras, unit_stats  # noqa: E402

WORKLOADS = ("sim_cells", "wide_monitoring", "fss_search", "calibration")
# The measured time is split over this many fresh processes, run one after
# another.  Set-up is timed in each (the median is reported), and the
# process-to-process differences of one Python program average out.
PARTS = 3
# processes that only set up, started between the measuring ones: set-up
# takes 1.5-3 s and varies by about 8% from process to process, so its
# median needs more samples than the measuring processes give
SETUP_ONLY = 2
# a run must end within 180 s; the workers are killed at this limit
RUN_LIMIT_S = 170.0
# single-threaded BLAS: one process on one core, like the workers=1 closed loop
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args, probe, mode: str, seconds: float, part: int, deadline: float,
          extra=()) -> dict:
    """Run one worker process to completion and parse its last stdout line."""
    probe.sample()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode, "--scale", args.scale,
        "--part", str(part), "--launched", repr(time.time()), *extra,
    ]
    env = dict(os.environ, **THREAD_ENV)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(args, child: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": child["versions"]["numpy"],
        "scipy": child["versions"]["scipy"],
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
        "thread_env": THREAD_ENV,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of this checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def merge(parts: list[dict], setups: list[dict], parent_kernel_s: list) -> dict:
    """Pool the rounds, units and verdicts of the measuring processes.

    Set-up times, warm-up verdicts and the kernel timings taken around
    set-up come from ``setups`` as well; the parent's kernel timings, taken
    before it starts each process, join the latter.
    """
    m = dict(parts[0])
    for key in ("round_s", "round_scaled_s", "unit_samples", "failures", "extras"):
        m[key] = [x for p in parts for x in p[key]]
    for key in ("attempted", "failed", "work_s", "trials", "obs"):
        m[key] = sum(p[key] for p in parts)
    m["setup_raw_s"] = [p["setup_raw_s"] for p in parts + setups]
    m["warmup_failures"] = [f for p in parts + setups for f in p["warmup_failures"]]
    m["warmup_failed"] = sum(bool(p["warmup_failures"]) for p in parts + setups)
    m["peak_rss_mb"] = [p["peak_rss_mb"] for p in parts]
    m["reference"]["kernel_s"] = [k for p in parts for k in p["reference"]["kernel_s"]]
    m["setup_kernel_s"] = [*parent_kernel_s,
                           *(k for p in parts + setups for k in p["setup_kernel_s"])]
    return m


def end_to_end(m: dict) -> tuple[dict, dict]:
    """Gated metrics at the reference speed; raw seconds go to the detail.

    Each unit is scaled by the kernel timed around it.  Set-up is scaled by
    the median set-up kernel time of the whole run: a single process's few
    kernel timings varied by 20% between processes, more than set-up itself.
    """
    scaled = unit_stats([(kind, norm) for kind, _, norm in m["unit_samples"]])
    raw = unit_stats([(kind, secs) for kind, secs, _ in m["unit_samples"]])
    kernel = m["reference"]["kernel_s"]
    setup_factor = NOMINAL_S[SETUP_KIND] / statistics.median(m["setup_kernel_s"])
    metrics = {
        "setup_s": (statistics.median(m["setup_raw_s"]) * setup_factor, "s"),
        "wall_norm_s": (statistics.median(m["round_scaled_s"]), "norm_s"),
        "unit_norm_s_p50": (scaled["p50_s"], "norm_s"),
        "unit_norm_s_tail": (scaled["tail_s"], "norm_s"),
        "peak_rss_mb": (statistics.median(m["peak_rss_mb"]), "MB"),
    }
    detail = {
        "processes": len(m["setup_raw_s"]),
        "setup_raw_s_samples": m["setup_raw_s"],
        "setup_scale": setup_factor,
        "peak_rss_mb_samples": m["peak_rss_mb"],
        "rounds": len(m["round_s"]),
        "wall_s": {"value": statistics.median(m["round_s"]), "unit": "s"},
        "unit_s_p50": {"value": raw["p50_s"], "unit": "s"},
        "unit_s_tail": {"value": raw["tail_s"], "unit": "s"},
        "units_scaled": scaled,
        "units": raw,
        "reference_kernel_s": {"kind": m["reference"]["kind"],
                               "median": statistics.median(kernel), "min": min(kernel),
                               "max": max(kernel), "samples": len(kernel)},
        "failed_frac": m["failed"] / m["attempted"],
    }
    if m["trials"]:
        detail["trials_per_s"] = {"value": m["trials"] / m["work_s"], "unit": "1/s",
                                  "trials": m["trials"]}
        detail["obs_per_s"] = {"value": m["obs"] / m["work_s"], "unit": "1/s",
                               "obs": m["obs"]}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqfdr benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every unit for the benchmark's self-test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/seqfdr/__init__.py", "data/yellowcard_fixture.csv")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: program files missing from {ROOT}: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    # every process started here ends, or is killed, before this
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    probe = SpeedProbe(SETUP_KIND)
    if args.trace:
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        m = spawn(args, probe, "trace", args.seconds, 0, deadline,
                  ["--trace-out", str(trace_file)])
        m["warmup_failed"] = int(bool(m["warmup_failures"]))
        metrics = {name: (value, unit_of(name))
                   for name, value in m["trace"]["metrics"].items()}
        detail = {"trace": m["trace"]["detail"], "trace_file": str(trace_file.relative_to(ROOT))}
    else:
        parts, setups = [], []
        for part in range(PARTS):
            parts.append(spawn(args, probe, "measure", args.seconds / PARTS, part, deadline))
            if part < SETUP_ONLY:
                setups.append(spawn(args, probe, "setup", 0.0, PARTS + part, deadline))
        m = merge(parts, setups, probe.kernel_s)
        samples = {key: m[key] for key in ("setup_raw_s", "setup_kernel_s", "round_s",
                                           "round_scaled_s", "unit_samples", "reference")}
        (out_dir / f"measure-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(samples))
        metrics, detail = end_to_end(m)

    units_run = 1 if args.trace else PARTS + SETUP_ONLY  # one warm-up unit per process
    failed = m["failed"] + m["warmup_failed"]
    attempted = m["attempted"] + units_run
    report = {
        "provenance": provenance(args, m),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "gates": {"attempted": attempted, "failed": failed,
                  "failures": m["failures"], "warmup_failures": m["warmup_failures"]},
        "digest_round0": m["digest_round0"],
    }
    report.update(reported_extras(m["extras"]))
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


def unit_of(name: str) -> str:
    return "count" if name.endswith(("_per_trial", "_per_unit", "_iterations")) else "frac"


if __name__ == "__main__":
    sys.exit(main())
