"""Pharmacovigilance monitoring demo: drug report table in, decision table out.

Takes a prepared CSV of per-drug side-effect totals (target reaction count,
all-other count, years on record, cluster label), derives smoothed yearly
report rates and each drug's target-reaction fraction, sets the null/signal
fractions p_h and p_g at the 50th and 90th percentiles of the full table,
and monitors simulated report streams for the top-N most-reported drugs
with the open-ended step-down procedure.  Dependence enters through a
per-cluster latent copula whose decay parameters are drawn once per
experiment; each year draws two latent rows per drug through
``datagen.CountBlocks``, one for the target reports and one for the rest.
A drug's statistic is the Bernoulli LLR of its x target reports among its
w = x + other reports, i.e. the binomial LLR conditional on the total.
The output mirrors a terminal-action table: one row per drug with the
action, the termination year, and the crossed boundary level.
"""

from __future__ import annotations

import csv
import logging
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import bh_steps, scale_for_fdr
from .datagen import BlockClusters, CopulaConfig, CountBlocks, Poisson
from .errors import ConfigError, DrugTableError
from .procedures import run_batch, work_counts
from .sprt import SimpleModel, cumulative_llr, stepdown_critical_values

logger = logging.getLogger(__name__)

__all__ = [
    "DrugRecord",
    "ExperimentConfig",
    "DecisionRow",
    "MonitoringReport",
    "load_drug_table",
    "derive_rates",
    "amnesia_fraction",
    "thresholds",
    "run_monitoring",
]

_COLUMNS = ("name", "amnesia_count", "other_count", "years", "cluster")


@dataclass(frozen=True)
class DrugRecord:
    """One drug's report totals: target-reaction count, rest, years, cluster."""

    name: str
    amnesia_count: int
    other_count: int
    years: float
    cluster: int

    def __post_init__(self):
        counts = (self.amnesia_count, self.other_count)
        # the smoothed rates divide count + 1 as a float
        if not 0 <= min(counts) <= max(counts) < sys.float_info.max:
            raise ValueError(f"report counts must lie in [0, {sys.float_info.max:.4g}), "
                             f"got {counts}")
        if not 0.0 < self.years < math.inf:
            raise ValueError(f"years on record must be finite and positive, got {self.years}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one monitoring run.

    ``p_h``/``p_g`` are the null and signal reaction fractions (usually the
    table percentiles from :func:`thresholds`); ``rho_seed`` drives both the
    per-cluster correlation draw and the report streams; ``top_n`` is the
    number of monitored drugs, most-reported first, at most the table's.
    This is where the monitoring fields are checked, the ``yellowcard``
    command's included; errors name the field as ``config.<name>``.
    """

    records: tuple[DrugRecord, ...]
    q1: float
    q2: float
    p_h: float
    p_g: float
    rho_seed: int
    top_n: int

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        for name, q in (("q1", self.q1), ("q2", self.q2)):
            if not 0.0 < q < 1.0:
                raise ConfigError(f"config.{name}: must lie in (0, 1), got {q}")
        if not 0.0 < self.p_h < self.p_g < 1.0:
            raise ConfigError(f"config.p_h/p_g: need 0 < p_h < p_g < 1, got p_h={self.p_h}, "
                              f"p_g={self.p_g}")
        if not self.records:
            raise ConfigError("config.records: must be nonempty")
        if self.top_n < 1:
            raise ConfigError(f"config.top_n: must be >= 1, got {self.top_n}")
        if self.top_n > len(self.records):
            raise ConfigError(f"config.top_n: must be at most the table's {len(self.records)} "
                              f"drugs, got {self.top_n}")


@dataclass(frozen=True)
class DecisionRow:
    """One monitored drug's terminal action."""

    drug: str
    action: str  # "reject" | "accept"
    termination_step: int  # years until the stream stopped
    termination_level: int  # cumulative boundary rank crossed
    truncated: bool


@dataclass(frozen=True)
class MonitoringReport:
    """The decision table plus what the run drew and built on the way.

    ``rho_by_cluster`` pairs each original cluster label with its drawn
    correlation decay; ``alpha``/``beta`` are the scaled step values the
    boundaries were built from.  The thresholds and error levels are the
    ``ExperimentConfig``'s own.
    """

    rows: tuple[DecisionRow, ...]
    rho_by_cluster: tuple[tuple[int, float], ...]
    alpha: tuple[float, ...]
    beta: tuple[float, ...]


def load_drug_table(path) -> list[DrugRecord]:
    """Parse a drug report CSV with header name,amnesia_count,other_count,years,cluster.

    The file is UTF-8, with or without a leading byte-order mark.  A file
    that cannot be read, decoded as UTF-8 or parsed as CSV, and the
    structural problems (missing columns, malformed numbers, a repeated drug
    name), raise DrugTableError with the file location; rows that parse but
    violate the record invariants (counts negative or not below the largest
    float, years not finite and positive) are dropped with a logged warning
    naming the line.  An empty file yields an empty list.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh.readlines())
        rows = [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError) as exc:
        raise DrugTableError(f"{path}: cannot read the table ({exc})") from exc
    except csv.Error as exc:
        raise DrugTableError(f"{path}:{reader.reader.line_num}: {exc}") from exc
    records: list[DrugRecord] = []
    first_line: dict[str, int] = {}
    if reader.fieldnames is None:
        return records
    missing = [c for c in _COLUMNS if c not in reader.fieldnames]
    if missing:
        raise DrugTableError(f"{path}: missing columns {', '.join(missing)}")
    for line, row in rows:
        try:
            name = (row["name"] or "").strip()
            amnesia = int(row["amnesia_count"].strip())
            other = int(row["other_count"].strip())
            years = float(row["years"].strip())
            cluster = int(row["cluster"].strip())
        except (AttributeError, TypeError, ValueError) as exc:
            raise DrugTableError(f"{path}:{line}: malformed row ({exc})") from exc
        if not name:
            raise DrugTableError(f"{path}:{line}: empty drug name")
        if name in first_line:
            raise DrugTableError(
                f"{path}:{line}: drug {name!r} repeats line {first_line[name]}"
            )
        first_line[name] = line
        try:
            records.append(DrugRecord(name, amnesia, other, years, cluster))
        except ValueError as exc:
            logger.warning("%s:%d: rejected record %r: %s", path, line, name, exc)
    return records


def derive_rates(record: DrugRecord) -> tuple[float, float]:
    """Smoothed yearly report rates ((amnesia+1)/T, (other+1)/T).

    The +1 on each count keeps rarely reported drugs away from degenerate
    zero rates.
    """
    return (
        (record.amnesia_count + 1) / record.years,
        (record.other_count + 1) / record.years,
    )


def amnesia_fraction(record: DrugRecord) -> float:
    """Fraction of a drug's smoothed report rate that is the target reaction."""
    lam_amn, lam_other = derive_rates(record)
    return lam_amn / (lam_amn + lam_other)


def thresholds(records) -> tuple[float, float]:
    """Null/signal fractions: 50th and 90th percentiles of the table fractions.

    Computed over the full table, before any top-N filtering; linear
    interpolation between order statistics.
    """
    fractions = [amnesia_fraction(r) for r in records]
    if len(fractions) < 2:
        raise DrugTableError(f"thresholds need at least 2 records, got {len(fractions)}")
    p_h, p_g = np.percentile(fractions, [50.0, 90.0])
    return float(p_h), float(p_g)


def _select_top(config: ExperimentConfig) -> list[DrugRecord]:
    # most total reports first; name breaks ties so the selection is stable
    ranked = sorted(
        config.records,
        key=lambda r: (-(r.amnesia_count + r.other_count), r.name),
    )
    return ranked[: config.top_n]


def run_monitoring(config: ExperimentConfig, *, horizon: int = 1000,
                   counters: dict | None = None) -> MonitoringReport:
    """Monitor the top-N drugs' simulated report streams to terminal decisions.

    Per year and drug a correlated (target, other) report-count pair is drawn
    at the drug's table rates; the per-drug statistic is the cumulative
    Bernoulli LLR of p_g against p_h over the reports so far, x target
    reports among w in all (binomial given each year's total), and
    the step-down procedure runs open-ended on boundaries built from
    BH-shaped step values rescaled for worst-case FDR/FNR control at
    (q1, q2).  Cluster correlation decays are 2*Beta(4,2)-1 draws, one per
    cluster present among the monitored drugs.  Rows come back sorted by
    action (accepts first) then termination year.

    Raises DrugTableError naming the drug when a smoothed rate is beyond
    the Poisson table's reach, and DataUnderrunError when a stream is still
    undecided after ``horizon`` years.  ``counters``, when given, is updated
    with the engine's work counts, as ``cli.run_simulation`` reports them.
    """
    top = _select_top(config)
    j = len(top)
    root = np.random.SeedSequence(config.rho_seed)
    rho_seq, stream_seq = root.spawn(2)

    labels = sorted({r.cluster for r in top})
    rho_rng = np.random.default_rng(rho_seq)
    rho_values = 2.0 * rho_rng.beta(4.0, 2.0, size=len(labels)) - 1.0
    index_of = {label: i for i, label in enumerate(labels)}
    structure = BlockClusters(
        cluster_of=tuple(index_of[r.cluster] for r in top),
        rho_of_cluster=tuple(rho_values),
    )

    alpha = scale_for_fdr(bh_steps(config.q1, j), config.q1)
    beta = scale_for_fdr(bh_steps(config.q2, j), config.q2)
    crit = stepdown_critical_values(alpha, beta)
    model = SimpleModel("bernoulli", config.p_h, config.p_g)

    def marginals(record):
        try:
            return [Poisson(lam) for lam in derive_rates(record)]
        except ValueError as exc:
            raise DrugTableError(f"drug {record.name!r}: {exc}") from exc

    # latent row 0 draws each drug's target reports, row 1 its other reports
    blocks = CountBlocks(CopulaConfig(j=j, structure=structure),
                         list(zip(*map(marginals, top))),
                         horizon=horizon, rngs=[np.random.default_rng(stream_seq)])

    def take(ids):
        _, totals = blocks.take(ids)
        x = totals[:, :, 0]
        # one model for every drug: raw LLRs against the raw boundaries
        return cumulative_llr(model, x, x + totals[:, :, 1])

    tally = Counter()
    decisions = run_batch(take, 1, crit.a, crit.b, tally=tally)
    if counters is not None:
        counters.update(work_counts(decisions, tally))

    rows = tuple(
        sorted(
            (
                DecisionRow(
                    drug=record.name,
                    action="reject" if rejected else "accept",
                    termination_step=step,
                    termination_level=level,
                    truncated=False,  # the open-ended monitor never truncates
                )
                for record, rejected, step, level
                in zip(top, *(field[0].tolist() for field in decisions))
            ),
            key=lambda row: (row.action, row.termination_step, row.drug),
        )
    )
    return MonitoringReport(
        rows=rows,
        rho_by_cluster=tuple(zip(labels, (float(r) for r in rho_values))),
        alpha=tuple(float(v) for v in alpha.values),
        beta=tuple(float(v) for v in beta.values),
    )
