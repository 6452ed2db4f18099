"""One benchmark process: set up a workload, then time its units.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``measure`` -- import, build the workload, run the warm-up unit (all of
  which is the set-up time), then whole rounds until ``--seconds`` have
  passed, untraced;
* ``trace``   -- as ``measure`` but alternating traced and untraced rounds,
  which gives the per-layer split and the tracing overhead;
* ``setup``   -- the set-up alone, which gives one more set-up time.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (needs the paths above)
from reference import KERNEL_OF, SETUP_KIND, SpeedProbe  # noqa: E402
from tracing import Tracer, per_layer  # noqa: E402


@dataclass
class Unit:
    kind: int
    start: float
    seconds: float
    outcome: object
    error: str | None
    scaled: float = 0.0  # seconds at the reference speed


@dataclass
class Round:
    traced: bool
    units: list

    @property
    def seconds(self) -> float:
        return sum(u.seconds for u in self.units)

    @property
    def scaled(self) -> float:
        return sum(u.scaled for u in self.units)


def run_round(wl, seed, part, round_idx, probe, tracer=None) -> Round:
    units = []
    for position, kind in enumerate(wl.round):
        probe.maybe_sample()
        useed = workloads.unit_seed(seed, part, round_idx, position)
        error = None
        outcome = None
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = wl.run(position, useed)
            else:
                tracer.unit = (round_idx, position)
                outcome = tracer.call("bench.unit", wl.run, position, useed)
        except Exception:  # a unit that raises counts as failed; the run goes on
            error = traceback.format_exc(limit=3)
        units.append(Unit(kind, start, time.perf_counter() - start, outcome, error))
    return Round(tracer is not None, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "setup"), required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--launched", type=float, required=True,
                        help="time.time() at which the parent started this process")
    parser.add_argument("--part", type=int, default=0,
                        help="index of this measuring process within the run")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.unit = "setup"
    # the kernels' own time is left out of set-up
    probe_start = time.perf_counter()
    probe = SpeedProbe(KERNEL_OF[args.workload])
    setup_probe = probe if probe.kind == SETUP_KIND else SpeedProbe(SETUP_KIND)
    probes = {probe, setup_probe}
    for p in probes:
        p.sample()
    probe_s = time.perf_counter() - probe_start
    wl = workloads.make(args.workload, args.seed, args.scale)
    # the warm-up input is the same in every run, so its cost does not vary
    warm = wl.run(0, workloads.unit_seed(0, args.part, -1, 0))
    setup_raw_s = time.time() - args.launched - probe_s
    for p in probes:
        p.sample()
    result = {"setup_raw_s": setup_raw_s, "warmup_failures": warm.failures,
              "setup_kernel_s": list(setup_probe.kernel_s),
              "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
              "reference": {"kind": probe.kind, "kernel_s": probe.kernel_s}}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    load_s = 0.0
    if tracer is not None:
        load_s = sum((end - start) / 1e9 for name, start, end, _, _ in tracer.spans
                     if name == "yellowcard.load_drug_table")
        tracer.spans.clear()
        tracer.counters.clear()

    rounds = []
    deadline = time.perf_counter() + args.seconds
    min_rounds = 2 if tracer is not None else 1
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        rounds.append(run_round(wl, args.seed, args.part, len(rounds), probe,
                                tracer if traced else None))
        probe.sample()
    if tracer is not None:
        tracer.uninstall()
    for rnd in rounds:
        for u in rnd.units:
            u.scaled = u.seconds * probe.scale(u.start + u.seconds / 2.0)

    result.update(summarize_rounds(wl, rounds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = per_layer(tracer, rounds, setup_raw_s, load_s)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


def summarize_rounds(wl, rounds) -> dict:
    """Raw timings, gate verdicts, extras and the round-0 digest."""
    failures = []
    extras = []
    trials = obs = 0.0
    for r, rnd in enumerate(rounds):
        for position, u in enumerate(rnd.units):
            if u.error is not None:
                failures.append({"round": r, "unit": position, "error": u.error})
                continue
            trials += u.outcome.trials
            obs += u.outcome.obs
            if u.outcome.extras:
                extras.append([wl.kinds[u.kind], u.outcome.extras])
            if u.outcome.failures:
                failures.append({"round": r, "unit": position, "gate": u.outcome.failures})
    round0 = [u.outcome.record if u.outcome is not None else None for u in rounds[0].units]
    units = [u for rnd in rounds for u in rnd.units]
    return {
        "round_s": [rnd.seconds for rnd in rounds],
        "round_scaled_s": [rnd.scaled for rnd in rounds],
        "unit_samples": [[wl.kinds[u.kind], u.seconds, u.scaled] for u in units],
        "kinds": wl.kinds,
        "attempted": len(units),
        "failed": len(failures),
        "failures": failures[:5],
        "extras": extras,
        "digest_round0": workloads.digest(round0),
        "work_s": sum(u.seconds for u in units),
        "trials": trials,
        "obs": obs,
    }


if __name__ == "__main__":
    sys.exit(main())
