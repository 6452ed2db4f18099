"""CLI subcommands: config validation, determinism, exit codes, file outputs."""

import csv
import hashlib
import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from seqfdr.calibrate import truncated_critical_values
from seqfdr import cli
from seqfdr.cli import (
    SimulationConfig,
    _run_trials,
    _copula,
    _sim_pieces,
    _trials_for_range,
    main,
    run_simulation,
)
from seqfdr.core import bh_steps, scale_for_fdr
from seqfdr.datagen import Bernoulli, CountBlocks
from seqfdr.errors import DataUnderrunError
from seqfdr.procedures import Decisions, run_batch
from seqfdr.sprt import cumulative_llr, stepdown_critical_values

from oracles import MatrixSource

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "yellowcard_fixture.csv"

OPEN_CONFIG = {
    "family": "bernoulli", "null_param": 0.25, "alt_param": 0.4,
    "j": 3, "m0": 1, "rho": 0.0, "q1": 0.25, "q2": 0.15,
    "mode": "open", "reps": 25, "seed": 5,
}


def _same(x, y):
    """Two runs' (decisions, counters), the decisions compared field by field."""
    (dx, cx), (dy, cy) = x, y
    return all(np.array_equal(p, q) for p, q in zip(dx, dy)) and cx == cy


def write_config(tmp_path, payload, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestBounds:
    def test_table_contents(self, capsys):
        assert main(["bounds", "--scheme", "bh", "--q", "0.25", "--j", "10"]) == 0
        out = capsys.readouterr().out
        assert "D(alpha) = 0.460000 at m = 8" in out
        assert "0.013587" in out  # first scaled step value

    def test_toy_hand_values(self, capsys):
        # bh(0.2, 2): D(alpha, 1) = 0.1 + 0.1/2, D(alpha, 2) = 2 * 0.1
        assert main(["bounds", "--scheme", "bh", "--q", "0.2", "--j", "2"]) == 0
        out = capsys.readouterr().out
        assert "1  0.150000" in out
        assert "2  0.200000" in out
        assert "D(alpha) = 0.200000 at m = 2" in out

    def test_single_m(self, capsys):
        assert main(["bounds", "--scheme", "bh", "--q", "0.2", "--j", "4", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n2  ") == 1 and "\n1  " not in out

    def test_q_out_of_range(self, capsys):
        assert main(["bounds", "--scheme", "bh", "--q", "1.5", "--j", "4"]) == 2
        assert "q must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, match", [
        (["--gamma", "0"], "gamma must lie in"),
        (["--gamma", "1.5"], "gamma must lie in"),
        (["--m", "9"], "m must lie in"),
        (["--m", "-1"], "m must lie in"),
        (["--j", "0"], "J must be"),
    ])
    def test_bad_m_or_gamma_prints_nothing(self, capsys, extra, match):
        # refused before the first line of the table
        assert main(["bounds", "--q", "0.2", "--j", "4", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and match in err


class TestSimulate:
    def test_open_run_emits_reports(self, tmp_path):
        cfg = write_config(tmp_path, OPEN_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["config"]["reps"] == 25
        assert 0.0 <= report["metrics"]["fdr"] <= 1.0
        with open(out / "simulate_report.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and "fdr" in rows[0]
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["config_digest"] == report["config_digest"]
        assert manifest["seed"] == 5
        timings = json.loads((out / "simulate_timings.json").read_text())
        assert timings["trials"] == 25 and timings["stages_per_trial"] >= 1.0
        assert 0 < timings["decision_steps"] <= 3 * timings["matrix_rows"]
        assert timings["path_extensions"] >= 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, OPEN_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("simulate_report.csv", "simulate_report.json", "simulate_manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_workers_merge_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, dict(OPEN_CONFIG, reps=12))
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(["simulate", "--config", cfg, "--out", str(a), "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b), "--workers", "2"]) == 0
        assert (a / "simulate_report.json").read_bytes() == (b / "simulate_report.json").read_bytes()

    def test_nulls_draw_the_null_marginal(self):
        # the m0 nulls come first; each stream draws its own hypothesis's marginal
        _, marginals, truth = _sim_pieces(SimulationConfig(**OPEN_CONFIG))
        assert truth == [True, False, False]
        assert marginals == [Bernoulli(0.25), Bernoulli(0.4), Bernoulli(0.4)]

    @staticmethod
    def _trial_matrix(config, t):
        """Trial t's whole raw LLR matrix, drawn in a batch of one from its own seed."""
        model, marginals, _ = _sim_pieces(config)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(t,)))
        horizon = config.horizon if config.mode == "open" else config.n_bar
        counts = CountBlocks(_copula(config), [marginals], horizon=horizon, rngs=[rng])
        blocks = []
        while not blocks or len(blocks[-1]):
            n, totals = counts.take([0])
            blocks.append(cumulative_llr(model, totals[0, :, 0], n[:, None]))
        return np.concatenate(blocks)

    @pytest.mark.parametrize("mode", ["open", "rejective"])
    def test_decisions_invariant_to_engine_knobs(self, mode, monkeypatch):
        # the full decision tuples, labels of tied statistics included, and
        # the work counters do not depend on workers, trial chunking, the
        # trial batch, or on-demand path extension
        config = SimulationConfig(
            family="bernoulli", null_param=0.05, alt_param=0.15, j=10, m0=5, rho=-0.6,
            q1=0.25, q2=0.15, mode=mode, reps=30, seed=7, n_bar=50, calib_reps=2000,
        )
        model, _, _ = _sim_pieces(config)
        alpha = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        if mode == "open":
            crit = stepdown_critical_values(alpha, scale_for_fdr(bh_steps(0.15, 10), 0.15))
            a, b, n_bar = crit.a, crit.b, None
        else:
            a, b, n_bar = None, truncated_critical_values(model, alpha, 50), 50
        alone = [run_batch(MatrixSource([self._trial_matrix(config, t)]), 1, a, b, n_bar)
                 for t in range(30)]
        whole = Decisions(*map(np.concatenate, zip(*alone)))
        one, tally = _run_trials(config, a, b, 1)
        assert all(np.array_equal(p, q) for p, q in zip(one, whole))
        assert _same(_run_trials(config, a, b, 2), (whole, tally))
        split = [_trials_for_range(config, a, b, s, e) for s, e in ((0, 7), (7, 19), (19, 30))]
        merged = Decisions(*map(np.concatenate, zip(*(part for part, _ in split))))
        assert _same((merged, sum((counts for _, counts in split), Counter())), (whole, tally))
        for batch in (1, 7):
            monkeypatch.setattr(cli, "_TRIAL_BATCH", batch)
            assert _same(_run_trials(config, a, b, 1), (whole, tally))

    def test_stage_loop_reads_each_block_once(self, monkeypatch):
        # the batch reads in lockstep: one take per block (64, 64 and 128
        # steps) for all its undecided trials, not one per trial's pace
        listed = []

        class Counted(CountBlocks):
            def take(self, ids):
                listed.append(len(ids))
                return super().take(ids)

        monkeypatch.setattr(cli, "CountBlocks", Counted)
        config = SimulationConfig(
            family="bernoulli", null_param=0.05, alt_param=0.15, j=10, m0=5, rho=-0.6,
            q1=0.25, q2=0.15, mode="open", reps=100, seed=3,
        )
        run_simulation(config)
        assert len(listed) == 3 and listed[0] == 100 and listed == sorted(listed, reverse=True)

    def test_batch_underrun_carries_the_trial_state(self):
        # a 20-step horizon leaves trials undecided, some in their first
        # stage; the batch raises the error of the first of them in index
        # order, as that trial alone does, not the first to run out
        config = SimulationConfig(**dict(OPEN_CONFIG, j=10, m0=5, null_param=0.05,
                                         alt_param=0.15, rho=-0.6, reps=30, horizon=20))
        crit = stepdown_critical_values(scale_for_fdr(bh_steps(0.25, 10), 0.25),
                                        scale_for_fdr(bh_steps(0.15, 10), 0.15))
        alone = {}
        for t in range(30):
            try:
                run_batch(MatrixSource([self._trial_matrix(config, t)]), 1, crit.a, crit.b)
            except DataUnderrunError as exc:
                alone[t] = exc
        stage = {t: exc.state["stage"] for t, exc in alone.items()}
        assert stage[min(alone)] > min(stage.values())
        for start in (0, min(alone) + 1):
            with pytest.raises(DataUnderrunError) as batch:
                _trials_for_range(config, crit.a, crit.b, start, 30)
            first = alone[min(t for t in alone if t >= start)]
            assert str(batch.value) == str(first)
            assert batch.value.state == first.state

    @pytest.mark.parametrize("reps", [600, 513])
    def test_trials_split_once_into_capped_ranges(self, reps, monkeypatch):
        # one worker runs near-equal ranges that tile [0, reps) in order,
        # none wider than a trial batch
        ranges = []

        def recording_range(config, a, b, start, stop):
            ranges.append((start, stop))
            return real_range(config, a, b, start, stop)

        real_range = cli._trials_for_range
        monkeypatch.setattr(cli, "_trials_for_range", recording_range)
        config = SimulationConfig(**dict(OPEN_CONFIG, reps=reps))
        crit = stepdown_critical_values(scale_for_fdr(bh_steps(0.25, 3), 0.25),
                                        scale_for_fdr(bh_steps(0.15, 3), 0.15))
        decisions, _ = _run_trials(config, crit.a, crit.b, 1)
        assert len(decisions.rejected) == reps
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == reps
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) <= cli._TRIAL_BATCH and max(sizes) - min(sizes) <= 1

    def test_pool_sized_to_chunks(self, monkeypatch):
        # reps=2 splits into two chunks, so workers=4 starts two processes
        # on a machine of any CPU count
        sizes = []
        real_pool = cli.ProcessPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        config = SimulationConfig(**dict(OPEN_CONFIG, reps=2))
        crit = stepdown_critical_values(scale_for_fdr(bh_steps(0.25, 3), 0.25),
                                        scale_for_fdr(bh_steps(0.15, 3), 0.15))
        assert _same(_run_trials(config, crit.a, crit.b, 4),
                     _run_trials(config, crit.a, crit.b, 1))
        assert sizes == [2]

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
    def test_pool_capped_at_usable_cpus(self, affinity, monkeypatch):
        # workers=500 over 500 trials splits them into 500 ranges, as on a
        # machine of 500 CPUs, but asks for only the 3 usable ones; the
        # CPU count comes from the affinity mask where the platform has one
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        if affinity:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                                raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        config = SimulationConfig(**dict(OPEN_CONFIG, reps=500))
        crit = stepdown_critical_values(scale_for_fdr(bh_steps(0.25, 3), 0.25),
                                        scale_for_fdr(bh_steps(0.15, 3), 0.15))
        assert _same(_run_trials(config, crit.a, crit.b, 500),
                     _run_trials(config, crit.a, crit.b, 1))
        assert sizes == [3]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_rejected(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, OPEN_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--workers", workers]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, OPEN_CONFIG)
        a, b = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
        ra = json.loads((a / "simulate_report.json").read_text())
        rb = json.loads((b / "simulate_report.json").read_text())
        assert ra["config"]["seed"] == 5 and rb["config"]["seed"] == 99

    def test_rejective_mode(self, tmp_path):
        payload = dict(OPEN_CONFIG, mode="rejective", n_bar=25, calib_reps=2000, reps=20)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "rej"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "simulate_report.json").read_text())
        b = report["calibration_b"]
        assert len(b) == 3 and all(x >= y for x, y in zip(b, b[1:]))

    def test_open_mode_ignores_n_bar(self):
        # an open config may carry the rejective horizon; the open run
        # neither stops there nor fails on it
        plain = run_simulation(SimulationConfig(**OPEN_CONFIG))
        assert run_simulation(SimulationConfig(**OPEN_CONFIG, n_bar=2)) == plain
        assert plain[0].mean_max_n > 2

    def test_zero_reps_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(OPEN_CONFIG, reps=0))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "config.reps" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(OPEN_CONFIG, bogus=1))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "config.bogus" in capsys.readouterr().err

    def test_m0_out_of_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(OPEN_CONFIG, m0=4))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "config.m0" in capsys.readouterr().err

    def test_seed_mandatory(self, tmp_path, capsys):
        payload = dict(OPEN_CONFIG)
        del payload["seed"]
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "config.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("j", 3.0, "config.j: expected an integer"),
        ("null_param", True, "config.null_param: expected a number"),
        ("mode", 1, "config.mode: expected a string"),
    ])
    def test_field_types_checked(self, tmp_path, capsys, field, value, message):
        cfg = write_config(tmp_path, dict(OPEN_CONFIG, **{field: value}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err

    def test_collapsed_boundaries_exit_four(self, tmp_path, capsys):
        # at J = 1, q1 = 0.4 and q2 = 0.55 the acceptance boundary passes
        # the rejection boundary: a numerical failure, exit 4, naming the
        # level, before anything is written
        cfg = write_config(tmp_path, dict(OPEN_CONFIG, j=1, m0=1, q1=0.4, q2=0.55))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        assert "level k=1" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestFss:
    CONFIG = {
        "family": "poisson", "null_param": 1.0, "alt_param": 1.4,
        "j": 3, "m0": 0, "rho": 0.0, "q1": 0.25,
        "target_fnr": 1.0, "reps": 50, "seed": 2,
    }

    def test_trivial_target_returns_one(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        assert main(["fss", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "fss_report.json").read_text())
        assert report["result"]["n_fss"] == 1
        assert report["result"]["found"] is True
        # the nested curve through the run of 4 that starts at n_fss, every
        # FNR at the target
        assert report["curve"]["n"] == [1, 2, 3, 4]
        assert all(f <= self.CONFIG["target_fnr"] for f in report["curve"]["fnr"])

    def test_report_records_resolved_config(self, tmp_path):
        # omitted fields are recorded at their defaults, so a config that
        # spells the defaults out gives the same bytes
        outs = []
        omitted = {k: v for k, v in self.CONFIG.items() if k != "q1"}
        for name, payload in (("omitted", omitted), ("spelled", dict(omitted, q1=0.25, n_max=4096))):
            out = tmp_path / name
            assert main(["fss", "--config", write_config(tmp_path, payload, name + ".json"),
                         "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("fss_report.json", "fss_manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        report = json.loads((outs[0] / "fss_report.json").read_text())
        assert report["config"]["n_max"] == 4096 and report["config"]["q1"] == 0.25

    def test_rates_beyond_table_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(self.CONFIG, null_param=800.0, alt_param=900.0))
        assert main(["fss", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "700" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", [0, -5])
    def test_nonpositive_n_max_exit_two(self, tmp_path, capsys, n_max):
        cfg = write_config(tmp_path, dict(self.CONFIG, n_max=n_max))
        assert main(["fss", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "config.n_max: must be >= 1" in capsys.readouterr().err

    def test_missing_target_is_config_error(self, tmp_path, capsys):
        payload = dict(self.CONFIG)
        del payload["target_fnr"]
        cfg = write_config(tmp_path, payload)
        assert main(["fss", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "config.target_fnr" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [
    ("simulate", OPEN_CONFIG),
    ("fss", TestFss.CONFIG),
])
@pytest.mark.parametrize("change, message", [
    ({"null_param": 0.4, "alt_param": 0.25}, "config.null_param/alt_param"),
    ({"null_param": 0.3, "alt_param": 0.3}, "config.null_param/alt_param"),
    ({"q1": 1.5}, "config.q1"),
    ({"q1": 0.0}, "config.q1"),
    ({"family": "poisson", "null_param": 1.0, "alt_param": 800.0, "j": 2, "m0": 1},
     "config.null_param/alt_param: need 0 < null < alt < 700"),
    ({"family": "poisson", "null_param": 1.0, "alt_param": 700.0},
     "config.null_param/alt_param: need 0 < null < alt < 700"),
    ({"family": "gamma"}, "config.family: must be 'bernoulli' or 'poisson', got 'gamma'"),
    ({"j": 0, "m0": 0}, "config.j: must be >= 1, got 0"),
    ({"rho": 1.0}, "config.rho: must lie in (-1, 1), got 1.0"),
])
def test_stream_config_checked_alike(tmp_path, capsys, command, payload, change, message):
    # simulate and fss share the checks on their streams and on q1
    cfg = write_config(tmp_path, dict(payload, **change))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, change, message", [
    ("fss", {"reps": 0}, "config.reps: must be >= 1, got 0"),
    ("fss", {"target_fnr": 0}, "config.target_fnr: must lie in (0, 1], got 0.0"),
    ("fss", {"target_fnr": 1.5}, "config.target_fnr: must lie in (0, 1]"),
    ("yellowcard", {"q1": 1.5}, "config.q1: must lie in (0, 1), got 1.5"),
    ("yellowcard", {"q2": 0.0}, "config.q2: must lie in (0, 1), got 0.0"),
    ("yellowcard", {"p_h": 0.2, "p_g": 0.1}, "config.p_h/p_g: need 0 < p_h < p_g < 1"),
    ("yellowcard", {"top_n": 0}, "config.top_n: must be >= 1, got 0"),
    ("yellowcard", {"horizon": 0}, "config.horizon: must be >= 1, got 0"),
    ("simulate", {"q2": 1.0}, "config.q2: must lie in (0, 1), got 1.0"),
    ("simulate", {"mode": "closed"}, "config.mode: must be 'open' or 'rejective', got 'closed'"),
    ("simulate", {"horizon": 0}, "config.horizon: must be >= 1, got 0"),
    ("simulate", {"mode": "rejective"}, "config.n_bar: rejective mode needs n_bar >= 1"),
    ("yellowcard", {"p_h": 0.05}, "config.p_h/p_g: override both thresholds or neither"),
    ("verify-lp", ["--j-min", "3", "--j-max", "2"], "need 1 <= j-min <= j-max, got 3..2"),
])
def test_command_config_checked_by_field(tmp_path, capsys, command, change, message):
    # every command names the offending field of its config, or the flags
    # that configure verify-lp, and writes nothing
    payload = {"fss": TestFss.CONFIG, "simulate": OPEN_CONFIG}.get(command, {"top_n": 4, "seed": 2})
    args = [command, str(FIXTURE)] if command == "yellowcard" else [command]
    out = tmp_path / "out"
    if command == "verify-lp":
        args += change
    else:
        args += ["--config", write_config(tmp_path, dict(payload, **change))]
    assert main(args + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, payload", [
    ("simulate", OPEN_CONFIG),
    ("fss", TestFss.CONFIG),
    ("yellowcard", {"top_n": 4, "seed": 2}),
])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_exit_two(tmp_path, capsys, command, payload, via):
    # a negative seed is refused by name, from --seed or from the config
    args = [command, str(FIXTURE)] if command == "yellowcard" else [command]
    if via == "flag":
        args += ["--config", write_config(tmp_path, payload), "--seed", "-1"]
    else:
        args += ["--config", write_config(tmp_path, dict(payload, seed=-5))]
    assert main(args + ["--out", str(tmp_path / "x")]) == 2
    assert "config.seed: must be >= 0" in capsys.readouterr().err


# every experiment command at a small fixed config, run from a directory
# holding config.json and a copy of the fixture as table.csv (the
# yellowcard report records the table's path)
PINNED_RUNS = {
    "simulate-open": (["simulate", "--config", "config.json"], OPEN_CONFIG),
    "simulate-rejective": (["simulate", "--config", "config.json"],
                           dict(OPEN_CONFIG, mode="rejective", n_bar=25, reps=20)),
    # n_fss = 30: the nested draw reads more than one block
    "fss": (["fss", "--config", "config.json"],
            dict(TestFss.CONFIG, m0=1, rho=-0.3, target_fnr=0.2, reps=200, n_max=256)),
    "yellowcard": (["yellowcard", "table.csv", "--config", "config.json"],
                   {"top_n": 8, "seed": 4}),
    "verify-lp": (["verify-lp", "--scheme", "bh", "--scheme", "bl",
                   "--j-min", "2", "--j-max", "5"], None),
}

# sha256 prefixes of the primary report files each run writes; the
# manifest is left out, as it records the library versions
REPORT_SHA256 = {
    "fss": {"fss_report.csv": "b19852b1a1fe1e00", "fss_report.json": "ca550d11c6075dbc"},
    "simulate-open": {"simulate_report.csv": "9b17c184ae7182b6",
                      "simulate_report.json": "1192ab3a8c85992e"},
    "simulate-rejective": {"simulate_report.csv": "cfa42de93364e54c",
                           "simulate_report.json": "e6da1df191274092"},
    "verify-lp": {"verify_lp_report.csv": "61d9053cca5641ae"},
    "yellowcard": {"yellowcard_report.csv": "01b98367c00a1b28",
                   "yellowcard_report.json": "65ffbdb698fa073e"},
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_reports_are_pinned(run, tmp_path, monkeypatch):
    argv, config = PINNED_RUNS[run]
    monkeypatch.chdir(tmp_path)
    shutil.copy(FIXTURE, "table.csv")
    if config is not None:
        Path("config.json").write_text(json.dumps(config))
    assert main([*argv, "--out", "out"]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
           for path in Path("out").glob("*_report.*")}
    assert got == REPORT_SHA256[run]


class TestVerifyLp:
    def test_bh_sweep_attained(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify-lp", "--j-min", "2", "--j-max", "4", "--out", str(out)]) == 0
        with open(out / "verify_lp_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 + 4 + 5
        assert all(r["attained"] == "True" for r in rows)

    def test_late_heavy_scheme_reports_gap(self, tmp_path):
        out = tmp_path / "v"
        rc = main(["verify-lp", "--scheme", "bl", "--q", "0.05",
                   "--j-min", "3", "--j-max", "3", "--out", str(out)])
        assert rc == 0
        with open(out / "verify_lp_report.csv") as fh:
            rows = {r["m0"]: r for r in csv.DictReader(fh)}
        assert rows["2"]["attained"] == "False"
        assert float(rows["2"]["gap"]) > 1e-3

    def test_size_guard(self, capsys):
        assert main(["verify-lp", "--j-min", "6", "--j-max", "6"]) == 2
        assert "range" in capsys.readouterr().err


class TestYellowcard:
    def test_fixture_run(self, tmp_path):
        cfg = write_config(tmp_path, {"top_n": 8, "seed": 4})
        out = tmp_path / "out"
        assert main(["yellowcard", str(FIXTURE), "--config", cfg, "--out", str(out)]) == 0
        with open(out / "yellowcard_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {r["action"] for r in rows} <= {"accept", "reject"}
        report = json.loads((out / "yellowcard_report.json").read_text())
        assert report["thresholds"]["p_h"] < report["thresholds"]["p_g"]
        assert len(report["alpha"]) == 8
        # the report records the resolved thresholds, top_n and horizon
        config = report["config"]
        assert (config["p_h"], config["p_g"]) == (report["thresholds"]["p_h"],
                                                  report["thresholds"]["p_g"])
        assert config["top_n"] == 8 and config["horizon"] == 1000
        # the timings carry the engine's counters, one trial of 8 streams
        timings = json.loads((out / "yellowcard_timings.json").read_text())
        steps = sum(int(r["termination_step"]) for r in rows)
        assert timings["trials"] == 1 and timings["decision_steps"] == steps
        assert timings["stages_per_trial"] == len({r["termination_step"] for r in rows})
        assert timings["matrix_rows"] >= max(int(r["termination_step"]) for r in rows)
        assert timings["path_extensions"] >= 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"top_n": 6, "seed": 9})
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["yellowcard", str(FIXTURE), "--config", cfg, "--out", str(out)]) == 0
        assert (a / "yellowcard_report.csv").read_bytes() == (b / "yellowcard_report.csv").read_bytes()
        assert (a / "yellowcard_report.json").read_bytes() == (b / "yellowcard_report.json").read_bytes()

    def test_malformed_table_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,amnesia_count,other_count,years,cluster\nA,x,2,3,0\n")
        assert main(["yellowcard", str(bad), "--seed", "1", "--out", str(tmp_path / "x")]) == 3
        assert ":2:" in capsys.readouterr().err

    def test_repeated_drug_exit_three(self, tmp_path, capsys):
        table = tmp_path / "dup.csv"
        table.write_text("name,amnesia_count,other_count,years,cluster\n"
                         "A,1,2,3,0\nB,2,2,3,0\nA,5,2,3,1\n")
        assert main(["yellowcard", str(table), "--seed", "1", "--out", str(tmp_path / "x")]) == 3
        assert ":4:" in capsys.readouterr().err

    def test_rate_beyond_poisson_table_exit_three(self, tmp_path, capsys):
        # (3 + 1) / 0.001 = 4000 target reports a year, past the inversion table
        table = tmp_path / "fast.csv"
        table.write_text("name,amnesia_count,other_count,years,cluster\n"
                         "A,3,1,0.001,0\nB,2,2,3,0\nC,1,4,2,1\n")
        assert main(["yellowcard", str(table), "--seed", "1", "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "drug 'A'" in err and "4000" in err

    def test_top_n_above_table_exit_two(self, tmp_path, capsys):
        # the fixture holds 60 drugs
        cfg = write_config(tmp_path, {"top_n": 100, "seed": 4})
        out = tmp_path / "out"
        assert main(["yellowcard", str(FIXTURE), "--config", cfg, "--out", str(out)]) == 2
        assert "config.top_n: must be at most the table's 60 drugs" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_required(self, tmp_path, capsys):
        assert main(["yellowcard", str(FIXTURE), "--out", str(tmp_path / "x")]) == 2
        assert "config.seed" in capsys.readouterr().err

    def test_env_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"top_n": 4, "seed": 2})
        target = tmp_path / "from_env"
        monkeypatch.setenv("SEQFDR_OUT", str(target))
        assert main(["yellowcard", str(FIXTURE), "--config", cfg]) == 0
        assert (target / "yellowcard_report.csv").exists()


TABLE_HEADER = b"name,amnesia_count,other_count,years,cluster\n"


@pytest.mark.parametrize("argv, content, code", [
    (["yellowcard", "{bad}", "--seed", "1"], None, 3),
    (["yellowcard", "{bad}", "--seed", "1"], "directory", 3),
    (["yellowcard", "{bad}", "--seed", "1"], TABLE_HEADER + b"caf\xe9,1,2,3,0\n", 3),
    (["yellowcard", "{bad}", "--seed", "1"], TABLE_HEADER, 3),
    (["yellowcard", "{bad}", "--config", "{thresholds}"], TABLE_HEADER, 3),
    (["yellowcard", "{bad}", "--seed", "1"], TABLE_HEADER + b"A,1,2,3,0\n", 3),
    (["yellowcard", "{bad}", "--seed", "1"],
     TABLE_HEADER + b"".join(b"%c,5,95,10,0\n" % c for c in b"ABCD"), 3),
    (["yellowcard", "{bad}", "--seed", "1"], TABLE_HEADER + b"x" * 200_000 + b",1,2,3,0\n", 3),
    (["simulate", "--config", "{bad}"], "directory", 2),
    (["simulate", "--config", "{bad}"], b'{"seed": \xff}', 2),
    (["verify-lp", "--j-max", "2", "--out", "{bad}"], b"kept\n", 2),
    (["simulate", "--config", "{bad}"], b"[1, 2]", 2),
], ids=["missing-table", "directory-table", "undecodable-table", "empty-table",
        "empty-table-thresholds-set", "one-record-table", "collapsed-thresholds-table",
        "oversized-field-table", "directory-config", "undecodable-config", "out-is-a-file",
        "array-config"])
def test_unusable_input_exits_with_its_code(tmp_path, capsys, argv, content, code):
    # an input path the command cannot read or use (None: it does not
    # exist) exits with its documented code, names the path and writes
    # nothing under --out
    bad, out = tmp_path / "bad", tmp_path / "out"
    if content == "directory":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    thresholds = write_config(tmp_path, {"p_h": 0.05, "p_g": 0.1, "seed": 1})
    argv = [arg.format(bad=bad, thresholds=thresholds) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert main(argv) == code
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()
    if content not in (None, "directory"):
        assert bad.read_bytes() == content
