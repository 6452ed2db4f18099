"""Order statistics for unit timings, and the run's ungated findings.

A workload's units can be of several kinds with very different costs (a
0.02 s calibration cell next to a 2.6 s gamma fixed point).  The pooled
median of such a mix sits in the gap between kinds and jumps from run to
run, so the median is taken per kind and averaged over kinds with equal
weight.  The tail is taken over all units of the run, each divided by its
kind's median: the highest percentile of those ratios with TAIL_BEYOND
units beyond it, times the median.  On a workload with one kind these are
the plain median and the plain tail percentile.
"""

from __future__ import annotations

import math
import statistics

# the tail is the highest percentile with at least this many units beyond it
TAIL_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Nearest-rank percentile with TAIL_BEYOND of ``n`` units beyond it.

    A run of fewer than 2 * TAIL_BEYOND units has no such percentile above
    its median; the tail is then the median.
    """
    return max(50.0, 100.0 * (n - TAIL_BEYOND) / n)


def nearest_rank(sorted_values, pct: float) -> float:
    idx = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[idx]


def unit_stats(timed) -> dict:
    """Median and tail unit time from ``timed`` = [(kind, seconds)]."""
    by_kind: dict = {}
    for kind, secs in timed:
        by_kind.setdefault(kind, []).append(secs)
    medians = {kind: statistics.median(values) for kind, values in by_kind.items()}
    ratios = sorted(secs / medians[kind] for kind, secs in timed)
    pct = tail_percentile(len(ratios))
    p50 = statistics.fmean(medians.values())
    return {
        "count": len(timed),
        "p50_s": p50,
        "tail_s": p50 * nearest_rank(ratios, pct),
        "tail_percentile": pct,
        "per_kind": {kind: {"count": len(by_kind[kind]), "p50_s": med}
                     for kind, med in medians.items()},
    }


def reported_extras(extras) -> dict:
    """Ungated findings from ``[(kind, extras)]`` in unit order.

    The worst fresh-sample z of each check-7 cell (first unit's value and the
    run's max), searches that returned ``found=False``, and the number of
    open-ended estimates each gamma fixed point needed.
    """
    z: dict = {}
    found = []
    iterations = []
    for kind, extra in extras:
        if "worst_z" in extra:
            z.setdefault(kind, []).append(extra["worst_z"])
        if "found" in extra:
            found.append(extra["found"])
        if "gamma_iterations" in extra:
            iterations.append(extra["gamma_iterations"])
    out = {}
    if z:
        out["calibration_z"] = {
            kind: {"first_worst_z": zs[0], "max_worst_z": max(zs),
                   "units_above_3": sum(v > 3.0 for v in zs), "units": len(zs)}
            for kind, zs in z.items()
        }
    if found:
        out["fss_unconfirmed"] = {"searches": len(found),
                                  "found_false": sum(not f for f in found)}
    if iterations:
        out["gamma_iterations"] = iterations
    return out
