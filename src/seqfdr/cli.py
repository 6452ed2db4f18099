"""Command-line entry points tying the package together.

Subcommands: ``bounds`` (worst-case bound table and scaled step vectors),
``simulate`` (seeded copula simulation emitting FDR/FNR/sample-size
metrics), ``fss`` (matched fixed-sample-size search), ``verify-lp``
(LP certification of the closed-form bound), and ``yellowcard`` (drug-table
monitoring experiment).

Each experiment command reads its JSON configuration into a dataclass
(``SimulationConfig``, ``FssConfig``, ``YellowcardConfig``) whose fields
give the settable names, their types and their defaults, and its report
records the resolved dataclass.  Every experiment command is
deterministic given its resolved configuration and seed: rerunning
overwrites the primary report files with identical bytes.  Wall-clock
timings go to a separate timings file so diffs stay clean.  Exit codes:
0 success, 2 configuration error, 3 data error, 4 internal numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import scipy

from . import __version__
from .calibrate import truncated_critical_values
from .core import StepVector, bh_steps, bl_steps, d_bound, d_bound_at, scale_for_fdr, scale_for_pfdr
from .datagen import POISSON_RATE_LIMIT, CopulaConfig, CountBlocks, Toeplitz
from .errors import ConfigError, DataError, NumericalError
from .fixed_sample import find_matching_fss
from .procedures import Decisions, run_batch, summarize, work_counts
from .sprt import SimpleModel, cumulative_llr, stepdown_critical_values
from .worstcase import verify_bound
from .yellowcard import ExperimentConfig, load_drug_table, run_monitoring, thresholds

__all__ = [
    "SimulationConfig",
    "FssConfig",
    "YellowcardConfig",
    "run_simulation",
    "main",
]

_SCHEMES = {"bh": bh_steps, "bl": bl_steps}


# ---------------------------------------------------------------------------
# config plumbing

def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return raw


_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _parse_config(cls, raw: dict, seed: int | None):
    """Build the dataclass ``cls`` from a JSON config object.

    Each field's name, type and default come from ``cls``; a field set to
    null takes its default.  ``seed``, when given, overrides the config's
    own, and a seed must not be negative.  Errors name the offending field
    as ``config.<name>``.
    """
    fields = dataclass_fields(cls)
    for key in sorted(set(raw) - {f.name for f in fields}):
        raise ConfigError(f"config.{key}: unknown field")
    if seed is not None:
        raw = dict(raw, seed=seed)
    hints = get_type_hints(cls)
    values = {}
    for f in fields:
        value = raw.get(f.name)
        path = f"config.{f.name}"
        if value is None:
            if f.default is MISSING:
                advice = " (set it in the config or pass --seed)" if f.name == "seed" else ""
                raise ConfigError(f"{path}: missing required field{advice}")
            continue
        kinds = get_args(hints[f.name]) or (hints[f.name],)  # int | None -> (int, None)
        kind = next(t for t in kinds if t in _KINDS)
        if kind is float and type(value) is int:
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{path}: expected {_KINDS[kind]}, got {value!r}")
        if f.name == "seed" and value < 0:
            raise ConfigError(f"{path}: must be >= 0, got {value}")
        values[f.name] = value
    return cls(**values)


@dataclass(frozen=True, kw_only=True)
class _Streams:
    """The streams of a simulate or fss run (one model, the m0 nulls first) and its q1."""

    family: str
    null_param: float
    alt_param: float
    j: int
    m0: int
    rho: float
    q1: float = 0.25

    def __post_init__(self):
        if self.family not in ("bernoulli", "poisson"):
            raise ConfigError(
                f"config.family: must be 'bernoulli' or 'poisson', got {self.family!r}"
            )
        if self.j < 1:
            raise ConfigError(f"config.j: must be >= 1, got {self.j}")
        if not 0 <= self.m0 <= self.j:
            raise ConfigError(f"config.m0: must lie in [0, j], got {self.m0}")
        if not -1.0 < self.rho < 1.0:
            raise ConfigError(f"config.rho: must lie in (-1, 1), got {self.rho}")
        hi = 1.0 if self.family == "bernoulli" else POISSON_RATE_LIMIT
        if not 0.0 < self.null_param < self.alt_param < hi:
            raise ConfigError(f"config.null_param/alt_param: need 0 < null < alt < {hi:g}")
        if not 0.0 < self.q1 < 1.0:
            raise ConfigError(f"config.q1: must lie in (0, 1), got {self.q1}")


@dataclass(frozen=True, kw_only=True)
class SimulationConfig(_Streams):
    """Resolved inputs of one copula simulation batch."""

    q2: float = 0.15
    mode: str = "open"  # "open" | "rejective"
    reps: int
    seed: int
    n_bar: int | None = None
    horizon: int = 5000
    calib_reps: int = 20000  # validated but unused: the calibration is exact

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.q2 < 1.0:
            raise ConfigError(f"config.q2: must lie in (0, 1), got {self.q2}")
        if self.mode not in ("open", "rejective"):
            raise ConfigError(f"config.mode: must be 'open' or 'rejective', got {self.mode!r}")
        if self.reps < 1:
            raise ConfigError(f"config.reps: must be >= 1, got {self.reps}")
        if self.horizon < 1:
            raise ConfigError(f"config.horizon: must be >= 1, got {self.horizon}")
        if self.mode == "rejective":
            if self.n_bar is None or self.n_bar < 1:
                raise ConfigError("config.n_bar: rejective mode needs n_bar >= 1")
            if self.calib_reps < 1:
                raise ConfigError(f"config.calib_reps: must be >= 1, got {self.calib_reps}")


@dataclass(frozen=True, kw_only=True)
class FssConfig(_Streams):
    """Resolved inputs of one matched fixed-sample-size search."""

    target_fnr: float
    reps: int
    seed: int
    n_max: int = 4096

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.target_fnr <= 1.0:
            raise ConfigError(f"config.target_fnr: must lie in (0, 1], got {self.target_fnr}")
        if self.reps < 1:
            raise ConfigError(f"config.reps: must be >= 1, got {self.reps}")
        if self.n_max < 1:
            raise ConfigError(f"config.n_max: must be >= 1, got {self.n_max}")


@dataclass(frozen=True, kw_only=True)
class YellowcardConfig:
    """Resolved inputs of one monitoring run.

    ``p_h``/``p_g`` default to the drug table's percentiles and ``top_n``
    to the whole table; ``seed`` drives the correlation draw and the
    streams.
    """

    q1: float = 0.05
    q2: float = 0.15
    p_h: float | None = None
    p_g: float | None = None
    top_n: int | None = None
    seed: int
    horizon: int = 1000

    def __post_init__(self):
        for name in ("q1", "q2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"config.{name}: must lie in (0, 1), got {getattr(self, name)}")
        if (self.p_h is None) != (self.p_g is None):
            raise ConfigError("config.p_h/p_g: override both thresholds or neither")
        if self.p_h is not None and not 0.0 < self.p_h < self.p_g < 1.0:
            raise ConfigError(f"config.p_h/p_g: need 0 < p_h < p_g < 1, got p_h={self.p_h}, "
                              f"p_g={self.p_g}")
        if self.top_n is not None and self.top_n < 1:
            raise ConfigError(f"config.top_n: must be >= 1, got {self.top_n}")
        if self.horizon < 1:
            raise ConfigError(f"config.horizon: must be >= 1, got {self.horizon}")


# ---------------------------------------------------------------------------
# simulation engine

def _sim_pieces(config: _Streams):
    model = SimpleModel(config.family, config.null_param, config.alt_param)
    truth = [True] * config.m0 + [False] * (config.j - config.m0)
    return model, model.marginals(truth), truth


def _copula(config: SimulationConfig | FssConfig) -> CopulaConfig:
    return CopulaConfig(j=config.j, structure=Toeplitz(config.rho), seed=config.seed)


# trials that run through one stage loop at once, at most
_TRIAL_BATCH = 256


def _trials_for_range(config: SimulationConfig, a, b, start: int, stop: int
                      ) -> tuple[Decisions, Counter]:
    """Run trials [start, stop); per-trial seeds make chunking irrelevant.

    Trial t draws from child ``(t,)`` of ``SeedSequence(config.seed)``,
    open-ended trials up to ``horizon`` steps and rejective ones (``a``
    None) up to ``n_bar``; an open-ended config's ``n_bar`` is ignored.
    Every stream shares one model, so the procedure compares raw LLRs with
    the raw boundaries ``a``/``b``.  The trials run in batches of
    ``_TRIAL_BATCH`` through ``run_batch``.  Returns the trials' decisions
    and the engine's counters.
    """
    model, marginals, _ = _sim_pieces(config)
    n_bar = None if a is not None else config.n_bar
    horizon = config.horizon if n_bar is None else n_bar
    tally = Counter()
    parts = []
    for lo in range(start, stop, _TRIAL_BATCH):
        hi = min(lo + _TRIAL_BATCH, stop)
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(t,)))
                for t in range(lo, hi)]
        blocks = CountBlocks(_copula(config), [marginals], horizon=horizon, rngs=rngs)

        def take(ids, blocks=blocks):
            n, totals = blocks.take(ids)
            # a scalar stream's trial total is its step number
            return cumulative_llr(model, totals[:, :, 0], n[:, None])

        parts.append(run_batch(take, hi - lo, a, b, n_bar, tally=tally))
    return Decisions(*map(np.concatenate, zip(*parts))), tally


def _run_trials(config: SimulationConfig, a, b, workers: int):
    """All trials' decisions in index order plus summed counters.

    The trials run over ``workers`` processes.  The pool has one process
    per nonempty chunk, so never more than ``reps`` processes.
    """
    if workers == 1:
        return _trials_for_range(config, a, b, 0, config.reps)
    bounds = np.linspace(0, config.reps, workers + 1).astype(int).tolist()
    chunks = [(s, e) for s, e in zip(bounds[:-1], bounds[1:]) if e > s]
    parts, tally = [], Counter()
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(_trials_for_range, config, a, b, s, e) for s, e in chunks]
        for fut in futures:
            part, counts = fut.result()
            parts.append(part)
            tally += counts
    return Decisions(*map(np.concatenate, zip(*parts))), tally


def run_simulation(config: SimulationConfig, workers: int = 1, counters: dict | None = None):
    """Run the configured batch; returns (MetricsSummary, calibration_b | None).

    Trials are independently seeded by index, so the result is identical
    for any ``workers`` value; chunks merge in index order.  ``counters``,
    when given, is updated with the engine's work counts
    (``procedures.work_counts``): trials, stages per trial, statistic-matrix
    rows drawn, decision steps (summed over streams; at most rows times J)
    and path extensions (blocks drawn after each trial's first).
    ``workers`` below 1 is a ``ConfigError``.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    model, _, truth = _sim_pieces(config)
    alpha = scale_for_fdr(bh_steps(config.q1, config.j), config.q1)
    if config.mode == "open":
        beta = scale_for_fdr(bh_steps(config.q2, config.j), config.q2)
        crit = stepdown_critical_values(alpha, beta)
        a, b, b_raw = crit.a, crit.b, None
    else:
        b_raw = truncated_critical_values(model, alpha, config.n_bar)
        a, b = None, b_raw
    decisions, tally = _run_trials(config, a, b, workers)
    if counters is not None:
        counters.update(work_counts(decisions, tally))
    return summarize(decisions, truth), b_raw


# ---------------------------------------------------------------------------
# report emission

def _versions() -> dict:
    return {
        "seqfdr": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _digest(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _report(args, command: str, config: dict, seed: int | None, rows: list[dict],
            timings: dict, report: dict | None = None) -> None:
    """Write a command's files into ``--out``, else ``$SEQFDR_OUT``, else ``runs``.

    ``<command>_report.csv`` holds one line per row dict (None as an empty
    field), ``<command>_report.json``, when ``report`` is given, the config,
    its digest and the keys of ``report``; the manifest and the timings go
    to files of their own.
    """
    out = Path(getattr(args, "out", None) or os.environ.get("SEQFDR_OUT") or "runs")
    out.mkdir(parents=True, exist_ok=True)
    digest = _digest(config)
    with open(out / f"{command}_report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    if report is not None:
        _write_json(out / f"{command}_report.json",
                    {"config_digest": digest, "config": config, **report})
    _write_json(out / f"{command}_manifest.json",
                {"command": command, "config_digest": digest, "seed": seed,
                 "versions": _versions()})
    _write_json(out / f"{command}_timings.json", timings)


# ---------------------------------------------------------------------------
# subcommands

def _steps_for(scheme: str, q: float, j: int) -> StepVector:
    # argparse refuses an unknown scheme, and bh_steps/bl_steps a J below 1
    if not 0.0 < q < 1.0:
        raise ConfigError(f"q must lie in (0, 1), got {q}")
    return _SCHEMES[scheme](q, j)


def cmd_bounds(args) -> int:
    alpha = _steps_for(args.scheme, args.q, args.j)
    ms = [args.m] if args.m is not None else range(1, args.j + 1)
    # every value first: a bad --m or --gamma prints nothing
    table = [f"{m:<2d} {d_bound_at(alpha, m):.6f}" for m in ms]
    pfdr = scale_for_pfdr(alpha, args.q, args.gamma)
    best = d_bound(alpha)
    fdr = scale_for_fdr(alpha, args.q)
    print(f"scheme={args.scheme} q={args.q} J={args.j}")
    print("m  D(alpha,m)", *table, sep="\n")
    print(f"D(alpha) = {best.value:.6f} at m = {best.argmax_m}")
    print("scaled for FDR control:", " ".join(f"{v:.6f}" for v in fdr.values))
    print(
        f"scaled for pFDR control (gamma={args.gamma}):",
        " ".join(f"{v:.6f}" for v in pfdr.values),
    )
    return 0


def cmd_simulate(args) -> int:
    config = _parse_config(SimulationConfig, _load_json(args.config), args.seed)
    t0 = time.perf_counter()
    counters: dict = {}
    summary, b_raw = run_simulation(config, workers=args.workers, counters=counters)
    elapsed = time.perf_counter() - t0

    metrics = summary.as_dict()
    report = {"metrics": metrics}
    if b_raw is not None:
        report["calibration_b"] = [float(v) for v in b_raw]
    _report(args, "simulate", asdict(config), config.seed, [metrics],
            {"total_s": elapsed, **counters}, report)
    print(
        f"simulate: {config.family} j={config.j} m0={config.m0} mode={config.mode} "
        f"reps={config.reps} -> fdr={summary.fdr:.4f} fnr={summary.fnr:.4f} "
        f"mean_stream_n={summary.mean_stream_n:.2f}"
    )
    return 0


def cmd_fss(args) -> int:
    config = _parse_config(FssConfig, _load_json(args.config), args.seed)
    model, _, truth = _sim_pieces(config)

    t0 = time.perf_counter()
    result = find_matching_fss(model, _copula(config), truth, config.q1, config.target_fnr,
                               config.reps, n_max=config.n_max)
    elapsed = time.perf_counter() - t0

    row = asdict(result)
    curve = row.pop("curve")
    _report(args, "fss", asdict(config), config.seed, [row], {"total_s": elapsed},
            {"result": row, "curve": curve._asdict()})
    print(f"fss: n_fss={result.n_fss} found={result.found} "
          f"achieved_fnr={result.achieved_fnr:.4f} fnr_se={result.fnr_se:.4f} "
          f"(target {result.target_fnr:.4f})")
    return 0


def cmd_verify_lp(args) -> int:
    if args.j_min < 1 or args.j_max < args.j_min:
        raise ConfigError(f"need 1 <= j-min <= j-max, got {args.j_min}..{args.j_max}")
    schemes = args.scheme or ["bh"]
    rows = []
    for scheme in schemes:
        for j in range(args.j_min, args.j_max + 1):
            alpha = _steps_for(scheme, args.q, j)
            for m0 in range(0, j + 1):
                rep = verify_bound(alpha, m0)
                rows.append({
                    "scheme": scheme, "q": args.q, "j": j, "m0": m0,
                    "lp_optimum": rep.lp_optimum, "d_value": rep.d_value,
                    "gap": rep.gap, "attained": rep.passed,
                })
    print("scheme q     J  m0  LP-optimum  D-bound     gap        attained")
    for r in rows:
        print(
            f"{r['scheme']:<6s} {r['q']:<5g} {r['j']:<2d} {r['m0']:<3d} "
            f"{r['lp_optimum']:<11.8f} {r['d_value']:<11.8f} "
            f"{r['gap']:< 10.2e} {str(r['attained']).lower()}"
        )
    _report(args, "verify_lp", {"schemes": schemes, "q": args.q, "j_min": args.j_min,
                                "j_max": args.j_max}, None, rows, {})
    return 0


def cmd_yellowcard(args) -> int:
    raw = _load_json(args.config) if args.config else {}
    config = _parse_config(YellowcardConfig, raw, args.seed)
    records = load_drug_table(args.table)
    p_h, p_g = thresholds(records) if config.p_h is None else (config.p_h, config.p_g)
    top_n = len(records) if config.top_n is None else config.top_n
    if top_n > len(records):
        raise ConfigError(f"config.top_n: must be at most the table's {len(records)} drugs, "
                          f"got {top_n}")
    config = replace(config, p_h=p_h, p_g=p_g, top_n=top_n)
    resolved = {"table": str(args.table), **asdict(config)}

    t0 = time.perf_counter()
    counters: dict = {}
    report = run_monitoring(
        ExperimentConfig(records=tuple(records), q1=config.q1, q2=config.q2, p_h=p_h,
                         p_g=p_g, rho_seed=config.seed, top_n=top_n),
        horizon=config.horizon,
        counters=counters,
    )
    elapsed = time.perf_counter() - t0

    rows = [{"drug": row.drug, "action": row.action, "termination_step": row.termination_step,
             "termination_level": row.termination_level, "truncated_flag": int(row.truncated)}
            for row in report.rows]
    _report(args, "yellowcard", resolved, config.seed, rows, {"total_s": elapsed, **counters}, {
        "seed": config.seed,
        "thresholds": {"p_h": p_h, "p_g": p_g},
        "rho_by_cluster": [[c, r] for c, r in report.rho_by_cluster],
        "alpha": list(report.alpha),
        "beta": list(report.beta),
    })
    accepted = sum(r.action == "accept" for r in report.rows)
    print(f"yellowcard: {len(report.rows)} drugs monitored, "
          f"{accepted} accepted, {len(report.rows) - accepted} rejected")
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqfdr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print the worst-case bound table")
    p.add_argument("--scheme", default="bh", choices=sorted(_SCHEMES))
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--gamma", type=float, default=1.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run a seeded copula simulation batch")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fss", help="matched fixed-sample-size search")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fss)

    p = sub.add_parser("verify-lp", help="LP certification of the closed-form bound")
    p.add_argument("--scheme", action="append", choices=sorted(_SCHEMES))
    p.add_argument("--q", type=float, default=0.2)
    p.add_argument("--j-min", type=int, default=2)
    p.add_argument("--j-max", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_lp)

    p = sub.add_parser("yellowcard", help="drug-table monitoring experiment")
    p.add_argument("table", help="drug report CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_yellowcard)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
