"""The benchmark's four workloads, their correctness gates and output digests.

Every workload is a closed loop in one process (``workers=1``): a round is a
fixed list of units, each unit one call into a stable seqfdr entry point,
and the next unit starts when the previous one returns.  Unit seeds derive
from the workload seed, the round index and the unit's position, so the
same seed gives the same inputs and round 0 always gives the same digest.

The entry points are reached through their module attributes
(``cli.run_simulation``, ``calibrate.estimate_gamma``, ...) so that the
traced run can swap them for timing wrappers; untraced runs call the real
functions.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seqfdr import calibrate, cli, core, fixed_sample, sprt, yellowcard
from seqfdr.datagen import CopulaConfig, Toeplitz

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "yellowcard_fixture.csv"

# the paper's copula table cells (scripts/reproduce_tables.py)
FAMILIES = {"bernoulli": (0.05, 0.15), "poisson": (1.5, 2.0)}
J = 10
RHO = -0.6
Q1, Q2 = 0.25, 0.15
# sequential FNR of the two fixed-sample benchmark rows (bernoulli m0=5,
# poisson m0=0), measured with 4000 trials per cell at the parent commit
FSS_TARGETS = {("bernoulli", 5): 0.035, ("poisson", 0): 0.103}
N_MAX = 400
THETA = ("null",) * 5 + ("alt",) * 5

# unit sizes: "full" is what the benchmark measures, "smoke" is the
# benchmark's own quick self-test
SIZES = {
    "full": dict(sim_reps=100, calib_reps=20_000, yc_runs=20, fss_reps=1000, n_max=N_MAX),
    "smoke": dict(sim_reps=5, calib_reps=2000, yc_runs=2, fss_reps=50, n_max=N_MAX),
}


@dataclass
class Outcome:
    """What one unit produced: its digest record and its gate verdicts."""

    record: object
    failures: list = field(default_factory=list)
    trials: int = 0  # procedure trials run (sim_cells, wide_monitoring)
    obs: float = 0.0  # stream observations consumed
    extras: dict = field(default_factory=dict)


def unit_seed(seed: int, part: int, round_idx: int, position: int) -> int:
    """Seed of one unit of one measuring process; round_idx -1 is the warm-up."""
    seq = np.random.SeedSequence([seed, part, round_idx + 1, position])
    return int(seq.generate_state(1)[0])


def digest(records) -> str:
    canon = json.dumps(records, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


# ---------------------------------------------------------------------------
# gates

def sim_gate(config, summary) -> list[str]:
    """The paper's guarantee, FDR <= q1 and FNR <= q2, at three standard errors."""
    bad = []
    if summary.n_trials != config.reps:
        bad.append(f"n_trials {summary.n_trials} != reps {config.reps}")
    if summary.fdr > config.q1 + 3.0 * summary.fdr_se:
        bad.append(f"fdr {summary.fdr:.4f} > q1 {config.q1} + 3se ({summary.fdr_se:.4f})")
    if config.mode == "open" and summary.fnr > config.q2 + 3.0 * summary.fnr_se:
        bad.append(f"fnr {summary.fnr:.4f} > q2 {config.q2} + 3se ({summary.fnr_se:.4f})")
    return bad


def monitoring_gate(report, drugs) -> list[str]:
    names = [row.drug for row in report.rows]
    if len(names) != len(drugs) or set(names) != drugs:
        return [f"{len(names)} rows for {len(drugs)} monitored drugs"]
    return []


def fss_gate(result, q1: float, n_max: int) -> list[str]:
    """A size below the ceiling, and BH's FDR <= q1 at three standard errors.

    ``found`` is not gated: below the ceiling the confirmation run misses
    its 1.5-standard-error tolerance in about one search in eight.  The
    comparator's FDR guarantee holds under any dependence; an FDP in [0, 1]
    with mean q1 has variance at most q1 (1 - q1), and the confirmation run
    has 4 * reps replicates.
    """
    bad = []
    if not 1 <= result.n_fss <= n_max:
        bad.append(f"n_fss {result.n_fss} outside [1, {n_max}]")
    if result.n_fss == n_max and not result.found:
        bad.append(f"search reached the ceiling n_max={n_max} above the target FNR")
    se = math.sqrt(q1 * (1.0 - q1) / (4 * result.reps))
    if result.achieved_fdr > q1 + 3.0 * se:
        bad.append(f"fdr {result.achieved_fdr:.4f} > q1 {q1} + 3se ({se:.4f})")
    return bad


def boundary_gate(b) -> list[str]:
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        return ["calibrated b is not finite"]
    if np.any(np.diff(b) > 0.0):
        return ["calibrated b is not nonincreasing"]
    return []


def gamma_gate(est) -> list[str]:
    bad = []
    for name in ("gamma1", "gamma2"):
        value = getattr(est, name)
        if value is not None and not 0.0 <= value <= 1.0:
            bad.append(f"{name} {value} outside [0, 1]")
    return bad


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """A round of unit kinds; ``run(position, seed)`` executes one unit."""

    kinds: list[str]
    # kind index of each unit in a round
    round: list[int]

    def run(self, position: int, seed: int) -> Outcome:
        raise NotImplementedError


class SimCells(Workload):
    """run_simulation on the paper's table cells plus one rejective cell."""

    def __init__(self, size: dict):
        base = dict(j=J, rho=RHO, q1=Q1, q2=Q2, reps=size["sim_reps"])
        self.configs = []
        for family, (null, alt) in FAMILIES.items():
            for m0 in (0, 5, 10):
                self.configs.append(dict(base, family=family, null_param=null,
                                         alt_param=alt, m0=m0, mode="open"))
        null, alt = FAMILIES["bernoulli"]
        self.configs.append(dict(base, family="bernoulli", null_param=null, alt_param=alt,
                                 m0=5, mode="rejective", n_bar=50,
                                 calib_reps=size["calib_reps"]))
        self.kinds = [
            f"{c['mode']}/{c['family']}/m0={c['m0']}" for c in self.configs
        ]
        self.round = list(range(len(self.configs)))

    def run(self, position, seed):
        config = cli.SimulationConfig(**self.configs[self.round[position]], seed=seed)
        summary, b_raw = cli.run_simulation(config, workers=1)
        return Outcome(
            record={"summary": summary.as_dict(), "b": b_raw},
            failures=sim_gate(config, summary),
            trials=config.reps,
            obs=config.reps * config.j * summary.mean_stream_n,
        )


class WideMonitoring(Workload):
    """run_monitoring on all 60 fixture drugs, one run per rho_seed."""

    def __init__(self, size: dict):
        records = yellowcard.load_drug_table(FIXTURE)
        p_h, p_g = yellowcard.thresholds(records)
        self.config = dict(records=tuple(records), q1=0.05, q2=0.15, p_h=p_h, p_g=p_g,
                           top_n=len(records))
        self.drugs = {r.name for r in records}
        self.kinds = ["run_monitoring"]
        self.round = [0] * size["yc_runs"]

    def run(self, position, seed):
        config = yellowcard.ExperimentConfig(**self.config, rho_seed=seed)
        report = yellowcard.run_monitoring(config, horizon=1000)
        rows = [(r.drug, r.action, r.termination_step, r.termination_level, r.truncated)
                for r in report.rows]
        return Outcome(
            record=rows,
            failures=monitoring_gate(report, self.drugs),
            trials=1,
            obs=float(sum(r.termination_step for r in report.rows)),
        )


class FssSearch(Workload):
    """find_matching_fss for the two reproduce_tables.py benchmark rows."""

    def __init__(self, size: dict):
        self.reps = size["fss_reps"]
        self.n_max = size["n_max"]
        self.rows = list(FSS_TARGETS.items())
        self.kinds = [f"{family}/m0={m0}" for (family, m0), _ in self.rows]
        self.round = list(range(len(self.rows)))

    def run(self, position, seed):
        (family, m0), target = self.rows[self.round[position]]
        result = fixed_sample.find_matching_fss(
            sprt.SimpleModel(family, *FAMILIES[family]),
            CopulaConfig(j=J, structure=Toeplitz(RHO), seed=seed),
            [True] * m0 + [False] * (J - m0),
            Q1, target, self.reps, n_max=self.n_max,
        )
        return Outcome(
            record={"n_fss": result.n_fss, "found": result.found,
                    "fnr": result.achieved_fnr, "fdr": result.achieved_fdr},
            failures=fss_gate(result, Q1, self.n_max),
            extras={"found": result.found},
        )


class Calibration(Workload):
    """Acceptance check 7's truncated cells and check 8's gamma fixed point."""

    def __init__(self, size: dict, seed: int):
        self.reps = size["calib_reps"]
        self.alpha = core.scale_for_fdr(core.bh_steps(Q1, J), Q1)
        self.cells = [(family, n_bar) for family in FAMILIES for n_bar in (25, 50)]
        self.model = {f: sprt.SimpleModel(f, *FAMILIES[f]) for f in FAMILIES}
        # boundaries for the truncated gamma estimate, built once per run
        self.b_truncated = calibrate.mc_truncated_critical_values(
            self.model["bernoulli"], self.alpha, 50, self.reps, seed
        ).b
        self.kinds = [f"truncated/{f}/n_bar={n}" for f, n in self.cells]
        self.kinds += ["gamma_fixed_point/bernoulli", "gamma_truncated/bernoulli/n_bar=50"]
        self.round = list(range(len(self.kinds)))

    def run(self, position, seed):
        kind = self.round[position]
        if kind < len(self.cells):
            return self._truncated(*self.cells[kind], seed)
        if kind == len(self.cells):
            return self._fixed_point(seed)
        est = calibrate.estimate_gamma([self.model["bernoulli"]] * J, THETA,
                                       b=self.b_truncated, n_bar=50,
                                       reps=self.reps, seed=seed)
        return Outcome(record={"gamma1": est.gamma1}, failures=gamma_gate(est))

    def _truncated(self, family, n_bar, seed):
        report = calibrate.mc_truncated_critical_values(
            self.model[family], self.alpha, n_bar, self.reps, seed
        )
        a = self.alpha.values
        z = (report.achieved - a) / np.sqrt(a * (1.0 - a) / report.reps)
        return Outcome(
            record={"b": report.b, "achieved": report.achieved},
            failures=boundary_gate(report.b),
            extras={"worst_z": float(z.max()), "worst_k": int(z.argmax()) + 1},
        )

    def _fixed_point(self, seed):
        """Check 8's self-consistent gamma: at most 8 open-ended estimates."""
        model = self.model["bernoulli"]
        gamma = 1.0
        converged = False
        iterations = 0
        beta = core.scale_for_fdr(core.bh_steps(Q2, J), Q2)
        for iterations in range(1, 9):
            alpha = core.scale_for_pfdr(core.bh_steps(Q1, J), Q1, gamma)
            crit = sprt.stepdown_critical_values(alpha, beta)
            est = calibrate.estimate_gamma([model] * J, THETA, b=crit.b, a=crit.a,
                                           reps=self.reps, seed=seed)
            if est.gamma1 >= gamma - 3.0 * est.gamma1_se:
                converged = True
                break
            gamma = est.gamma1
        failures = gamma_gate(est)
        if not converged:
            failures.append("gamma fixed point did not converge in 8 iterations")
        if not 0.0 <= gamma <= 1.0:
            failures.append(f"gamma {gamma} outside [0, 1]")
        return Outcome(
            record={"gamma": gamma, "iterations": iterations,
                    "gamma1": est.gamma1, "gamma2": est.gamma2},
            failures=failures,
            extras={"gamma_iterations": iterations},
        )


def make(name: str, seed: int, scale: str = "full") -> Workload:
    size = SIZES[scale]
    if name == "sim_cells":
        return SimCells(size)
    if name == "wide_monitoring":
        return WideMonitoring(size)
    if name == "fss_search":
        return FssSearch(size)
    if name == "calibration":
        return Calibration(size, seed)
    raise ValueError(f"unknown workload {name!r}")

