"""Drug-table ingestion, thresholding, and the monitoring experiment."""

import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqfdr.core import bh_steps, scale_for_fdr
from seqfdr.errors import ConfigError, DataUnderrunError, DrugTableError
from seqfdr.sprt import stepdown_critical_values
from seqfdr.yellowcard import (
    DecisionRow,
    DrugRecord,
    ExperimentConfig,
    amnesia_fraction,
    derive_rates,
    label_hypothesis,
    load_drug_table,
    run_monitoring,
    thresholds,
)

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "yellowcard_fixture.csv"

record_strategy = st.builds(
    DrugRecord,
    name=st.text(min_size=1, max_size=8, alphabet="abcdefgh"),
    amnesia_count=st.integers(min_value=0, max_value=5000),
    other_count=st.integers(min_value=0, max_value=5000),
    years=st.floats(min_value=0.5, max_value=50.0),
    cluster=st.integers(min_value=0, max_value=14),
)


def write_table(tmp_path, body: str) -> Path:
    path = tmp_path / "table.csv"
    path.write_text("name,amnesia_count,other_count,years,cluster\n" + body)
    return path


class TestLoadDrugTable:
    def test_parses_plain_row(self, tmp_path):
        path = write_table(tmp_path, "DrugX,5,95,10,3\n")
        (rec,) = load_drug_table(path)
        assert rec == DrugRecord("DrugX", 5, 95, 10.0, 3)

    def test_invariant_row_rejected_with_line_number(self, tmp_path, caplog):
        path = write_table(tmp_path, "Good,1,2,3,0\nBad,1,2,0,0\n")
        with caplog.at_level(logging.WARNING, logger="seqfdr.yellowcard"):
            records = load_drug_table(path)
        assert [r.name for r in records] == ["Good"]
        assert ":3:" in caplog.text and "Bad" in caplog.text

    def test_negative_count_rejected(self, tmp_path, caplog):
        path = write_table(tmp_path, "Neg,-1,2,3,0\n")
        with caplog.at_level(logging.WARNING, logger="seqfdr.yellowcard"):
            assert load_drug_table(path) == []
        assert ":2:" in caplog.text

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_drug_table(path) == []

    def test_header_only(self, tmp_path):
        assert load_drug_table(write_table(tmp_path, "")) == []

    def test_missing_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("name,amnesia_count,other_count,years\nA,1,2,3\n")
        with pytest.raises(DrugTableError, match="cluster"):
            load_drug_table(path)

    def test_malformed_number_names_line(self, tmp_path):
        path = write_table(tmp_path, "A,1,2,3,0\nB,oops,2,3,0\n")
        with pytest.raises(DrugTableError, match=":3:"):
            load_drug_table(path)

    def test_short_row_names_line(self, tmp_path):
        path = write_table(tmp_path, "A,1,2\n")
        with pytest.raises(DrugTableError, match=":2:"):
            load_drug_table(path)

    def test_repeated_name_names_both_lines(self, tmp_path):
        # two rows of one drug would give two indistinguishable report rows
        path = write_table(tmp_path, "A,1,2,3,0\nB,1,2,3,0\nA,4,5,6,1\n")
        with pytest.raises(DrugTableError, match=r":4: drug 'A' repeats line 2"):
            load_drug_table(path)

    def test_empty_name_rejected(self, tmp_path):
        path = write_table(tmp_path, " ,1,2,3,0\n")
        with pytest.raises(DrugTableError, match="name"):
            load_drug_table(path)


class TestRates:
    def test_rate_example(self):
        lam_amn, lam_other = derive_rates(DrugRecord("d", 5, 95, 10.0, 0))
        assert lam_amn == pytest.approx(0.6)
        assert lam_other == pytest.approx(9.6)

    def test_smoothing_floor(self):
        assert derive_rates(DrugRecord("d", 0, 0, 1.0, 0)) == (1.0, 1.0)

    @given(record_strategy)
    def test_rates_scale_inversely_with_years(self, rec):
        doubled = DrugRecord(rec.name, rec.amnesia_count, rec.other_count,
                             2.0 * rec.years, rec.cluster)
        for half, full in zip(derive_rates(doubled), derive_rates(rec)):
            assert half == pytest.approx(full / 2.0)

    def test_fraction_example(self):
        frac = amnesia_fraction(DrugRecord("d", 5, 95, 10.0, 0))
        assert frac == pytest.approx(0.058824, abs=1e-6)

    def test_fraction_symmetric(self):
        assert amnesia_fraction(DrugRecord("d", 7, 7, 3.0, 0)) == pytest.approx(0.5)

    @given(record_strategy)
    def test_fraction_in_unit_interval(self, rec):
        assert 0.0 < amnesia_fraction(rec) < 1.0


class TestThresholds:
    def test_linear_interpolation_oracle(self):
        # fractions (k, 100 - k) smoothed: exactly k/100 for k = 1..10
        records = [DrugRecord(f"d{k}", k - 1, 99 - k, 1.0, 0) for k in range(1, 11)]
        p_h, p_g = thresholds(records)
        assert p_h == pytest.approx(0.055, abs=1e-12)
        assert p_g == pytest.approx(0.091, abs=1e-12)

    def test_requires_two_records(self):
        with pytest.raises(DrugTableError, match="at least 2"):
            thresholds([DrugRecord("d", 1, 2, 3.0, 0)])

    @given(st.lists(record_strategy, min_size=2, max_size=30))
    @settings(max_examples=50)
    def test_percentiles_ordered(self, records):
        p_h, p_g = thresholds(records)
        assert p_h <= p_g

    def test_degenerate_table_fails_config(self):
        records = [DrugRecord(f"d{i}", 5, 95, 10.0, 0) for i in range(4)]
        p_h, p_g = thresholds(records)
        assert p_h == p_g
        with pytest.raises(ConfigError, match="p_h"):
            ExperimentConfig(records=tuple(records), q1=0.05, q2=0.15,
                             p_h=p_h, p_g=p_g, rho_seed=0, top_n=4)


class TestExperimentConfig:
    BASE = dict(q1=0.05, q2=0.15, p_h=0.05, p_g=0.10, rho_seed=0, top_n=2)

    def make(self, **overrides):
        records = (DrugRecord("a", 1, 9, 1.0, 0), DrugRecord("b", 2, 8, 1.0, 1))
        return ExperimentConfig(records=records, **{**self.BASE, **overrides})

    def test_valid(self):
        cfg = self.make()
        assert cfg.records[0].name == "a"

    def test_threshold_order_enforced(self):
        with pytest.raises(ConfigError):
            self.make(p_h=0.10, p_g=0.05)

    def test_q_range(self):
        with pytest.raises(ConfigError):
            self.make(q1=0.0)
        with pytest.raises(ConfigError):
            self.make(q2=1.0)

    def test_top_n_positive(self):
        with pytest.raises(ConfigError):
            self.make(top_n=0)

    def test_top_n_at_most_table(self):
        assert self.make(top_n=2).top_n == 2
        with pytest.raises(ConfigError, match="top_n"):
            self.make(top_n=3)

    def test_records_nonempty(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(records=(), **self.BASE)


class TestLabelHypothesis:
    def test_bands(self):
        assert label_hypothesis(0.05, 0.05, 0.10) is True
        assert label_hypothesis(0.04, 0.05, 0.10) is True
        assert label_hypothesis(0.10, 0.05, 0.10) is False
        assert label_hypothesis(0.30, 0.05, 0.10) is False
        assert label_hypothesis(0.07, 0.05, 0.10) is None


def config_for(records, **overrides):
    base = dict(q1=0.05, q2=0.15, p_h=0.05, p_g=0.10, rho_seed=11,
                top_n=len(records))
    return ExperimentConfig(records=tuple(records), **{**base, **overrides})


class TestRunMonitoring:
    def test_directional_decisions(self):
        hot = DrugRecord("hot", 29, 69, 1.0, 0)  # fraction 0.30 >> p_g
        cold = DrugRecord("cold", 0, 98, 1.0, 1)  # fraction 0.01 << p_h
        report = run_monitoring(config_for([hot, cold]))
        by_drug = {r.drug: r for r in report.rows}
        assert by_drug["hot"].action == "reject"
        assert by_drug["cold"].action == "accept"
        assert by_drug["hot"].termination_step <= 5
        assert by_drug["cold"].termination_step <= 5

    def test_row_shape_and_levels(self):
        recs = load_drug_table(FIXTURE)
        p_h, p_g = thresholds(recs)
        cfg = config_for(recs, p_h=p_h, p_g=p_g, top_n=25)
        report = run_monitoring(cfg)
        assert len(report.rows) == 25
        assert len({r.drug for r in report.rows}) == 25
        for row in report.rows:
            assert row.action in ("accept", "reject")
            assert 1 <= row.termination_level <= 25
            assert row.termination_step >= 1
            assert not row.truncated
        keys = [(r.action, r.termination_step, r.drug) for r in report.rows]
        assert keys == sorted(keys)

    def test_top_n_of_whole_table(self):
        # a top_n above the table size is a ConfigError (TestExperimentConfig)
        recs = [DrugRecord(f"d{i}", 20 + i, 180, 1.0, i) for i in range(5)]
        report = run_monitoring(config_for(recs, top_n=5))
        assert len(report.rows) == 5

    def test_selects_most_reported(self):
        recs = [
            DrugRecord("small", 2, 8, 1.0, 0),
            DrugRecord("mid", 20, 80, 1.0, 1),
            DrugRecord("big", 60, 240, 1.0, 2),
        ]
        report = run_monitoring(config_for(recs, top_n=2))
        assert {r.drug for r in report.rows} == {"big", "mid"}

    def test_deterministic_and_seed_sensitive(self):
        recs = load_drug_table(FIXTURE)
        p_h, p_g = thresholds(recs)
        cfg = config_for(recs, p_h=p_h, p_g=p_g, top_n=12, rho_seed=3)
        again = config_for(recs, p_h=p_h, p_g=p_g, top_n=12, rho_seed=3)
        assert run_monitoring(cfg) == run_monitoring(again)
        other = config_for(recs, p_h=p_h, p_g=p_g, top_n=12, rho_seed=4)
        assert run_monitoring(other).rho_by_cluster != run_monitoring(cfg).rho_by_cluster

    def test_report_carries_scaled_steps(self):
        recs = [DrugRecord("a", 29, 69, 1.0, 0), DrugRecord("b", 0, 98, 1.0, 0)]
        report = run_monitoring(config_for(recs))
        expected = scale_for_fdr(bh_steps(0.05, 2), 0.05).values
        assert np.allclose(report.alpha, expected)
        assert len(report.rho_by_cluster) == 1

    def test_underrun_when_horizon_too_short(self):
        # fraction 0.069 sits between the hypotheses; 3 years cannot decide
        slow = DrugRecord("slow", 6, 93, 10.0, 0)
        with pytest.raises(DataUnderrunError):
            run_monitoring(config_for([slow]), horizon=3)

    def test_symmetric_boundaries_under_equal_rates(self):
        # q1 = q2 with mirrored hypotheses gives an antisymmetric ladder
        alpha = scale_for_fdr(bh_steps(0.1, 4), 0.1)
        crit = stepdown_critical_values(alpha, alpha)
        assert np.allclose(crit.a, -crit.b)

    def test_label_swap_symmetry(self):
        # mirrored table at mirrored hypotheses: accept/reject rates swap
        runs = 120
        base = [DrugRecord("x", 74, 24, 1.0, 0), DrugRecord("y", 24, 74, 1.0, 1)]
        mirrored = [DrugRecord("x", 24, 74, 1.0, 0), DrugRecord("y", 74, 24, 1.0, 1)]
        kw = dict(q1=0.1, q2=0.1, p_h=0.4, p_g=0.6)
        rej_x = acc_x = 0
        for seed in range(runs):
            rows = run_monitoring(
                config_for(base, rho_seed=seed, **kw)).rows
            rej_x += any(r.drug == "x" and r.action == "reject" for r in rows)
            rows_m = run_monitoring(
                config_for(mirrored, rho_seed=seed, **kw)).rows
            acc_x += any(r.drug == "x" and r.action == "accept" for r in rows_m)
        p_rej, p_acc = rej_x / runs, acc_x / runs
        se = math.sqrt((p_rej * (1 - p_rej) + p_acc * (1 - p_acc)) / runs + 1e-9)
        assert abs(p_rej - p_acc) <= 4.0 * se + 0.02
        assert p_rej > 0.5  # the high-fraction drug is mostly rejected

    def test_all_null_fdr_controlled(self):
        # every drug at exactly p_h: any rejection is a false discovery
        runs = 400
        recs = [DrugRecord(f"d{i}", 4, 94, 1.0, i % 3) for i in range(8)]
        false_rej = 0
        for seed in range(runs):
            rows = run_monitoring(
                config_for(recs, rho_seed=seed, q1=0.05, q2=0.15,
                           p_h=0.05, p_g=0.15)).rows
            false_rej += any(r.action == "reject" for r in rows)
        fdr = false_rej / runs
        se = math.sqrt(fdr * (1.0 - fdr) / runs)
        assert fdr <= 0.05 + 3.0 * se + 1e-9
