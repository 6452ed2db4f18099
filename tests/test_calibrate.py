"""Tests for Monte Carlo boundary calibration and first-crossing estimates."""

import math

import numpy as np
import pytest

from seqfdr.calibrate import (
    _NEVER,
    CalibrationReport,
    GammaEstimate,
    _passage_times,
    _path_maxima,
    _race_tables,
    _sample_obs,
    _segment_crossings,
    estimate_gamma,
    mc_truncated_critical_values,
)
from seqfdr.core import StepVector, bh_steps, scale_for_fdr
from seqfdr.errors import ConfigError, DataUnderrunError, InsufficientRepsError
from seqfdr.procedures import run_open_ended
from seqfdr.sprt import SimpleModel, cumulative_llr, lattice_terms, llr_increments

BERN = SimpleModel("bernoulli", 0.05, 0.15)
BERN_DOWN = SimpleModel("bernoulli", 0.15, 0.05)
POIS = SimpleModel("poisson", 1.5, 2.0)


def _binom_se(p, n):
    return math.sqrt(p * (1.0 - p) / n)


class TestCriticalValues:
    def test_order_statistic_definition(self):
        bh = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        cases = (
            (BERN, StepVector([0.05, 0.10, 0.20]), 7, 2000, 5),
            (BERN, bh, 3, 3000, 8),
            (POIS, bh, 4, 3000, 8),
            (POIS, bh, 25, 3000, 8),
        )
        for model, alpha, n_bar, reps, seed in cases:
            report = mc_truncated_critical_values(model, alpha, n_bar, reps, seed)
            # re-derive the shared calibration sample and apply the tail-count rule
            cal_seed = np.random.SeedSequence(seed).spawn(2)[0]
            maxima = np.sort(_path_maxima(model, model.null_param, n_bar, reps,
                                          np.random.default_rng(cal_seed)))
            for k, a_k in enumerate(alpha.values):
                allowed = math.floor((reps + 1) * a_k)
                fits = [v for v in np.unique(maxima) if np.sum(maxima >= v) <= allowed]
                assert report.b[k] == min(fits)
                assert np.sum(maxima >= report.b[k]) <= allowed
            if n_bar == 7:
                # the plain order statistic for level 1 sits inside the log 3
                # atom, whose tail (145 of 2000) exceeds the 100 allowed
                rank = math.ceil((reps + 1) * (1.0 - alpha.values[0]))
                assert maxima[rank - 1] == pytest.approx(math.log(3.0))
                assert np.sum(maxima >= maxima[rank - 1]) > 100
                assert report.b[0] > maxima[rank - 1]

    def test_maxima_are_exact_lattice_values(self):
        # equal (count, n) pairs give equal floats: every maximum is the
        # affine map of its lattice point, and it matches the float cumsum
        n_bar, reps = 50, 5000
        for model in (BERN, POIS):
            if model.family == "bernoulli":
                c1, c0 = model.log_ratios
                slope, step = c1 - c0, c0
            else:
                slope = math.log(model.alt_param / model.null_param)
                step = -(model.alt_param - model.null_param)
            maxima = _path_maxima(model, model.null_param, n_bar, reps,
                                  np.random.default_rng(31))
            obs = _sample_obs(model, model.null_param, np.random.default_rng(31),
                              (reps, n_bar))
            counts = np.cumsum(obs, axis=1)
            n = np.arange(1, n_bar + 1)
            lattice = set((counts * slope + n * step).ravel().tolist())
            assert set(maxima.tolist()) <= lattice
            float_path = np.cumsum(llr_increments(model, obs), axis=1).max(axis=1)
            assert np.allclose(maxima, float_path, rtol=0.0, atol=1e-9)

    def test_equal_levels_share_boundary(self):
        alpha = StepVector([0.1, 0.1, 0.3])
        report = mc_truncated_critical_values(POIS, alpha, 5, 1500, 9)
        assert report.b[0] == report.b[1]

    def test_monotone_boundaries(self):
        alpha = bh_steps(0.25, 10).scaled(0.3)
        report = mc_truncated_critical_values(BERN, alpha, 12, 3000, 11)
        assert np.all(np.diff(report.b) <= 0.0)

    def test_insufficient_reps_names_level(self):
        with pytest.raises(InsufficientRepsError, match="k=1"):
            mc_truncated_critical_values(BERN, StepVector([0.01, 0.5]), 5, 10, 0)

    def test_atom_above_allowed_tail_raises(self):
        # one observation: the maximum is c1 with probability 0.05, an atom
        # far above the 10 of 1000 replicates that level 1 allows
        with pytest.raises(InsufficientRepsError, match="k=1"):
            mc_truncated_critical_values(BERN, StepVector([0.01, 0.1]), 1, 1000, 0)
        report = mc_truncated_critical_values(BERN, StepVector([0.1]), 1, 1000, 0)
        assert report.b[0] == pytest.approx(math.log(3.0))

    def test_validation_contract(self):
        # fresh-sample crossing frequency respects each level, both families
        for model, n_bar in ((BERN, 25), (POIS, 12)):
            alpha = scale_for_fdr(bh_steps(0.25, 10), 0.25)
            reps = 4000
            report = mc_truncated_critical_values(model, alpha, n_bar, reps, 21)
            for a_k, hit in zip(alpha.values, report.achieved):
                assert hit <= a_k + 3.0 * _binom_se(a_k, reps)

    def test_contract_stable_in_reps(self):
        # the calibration sample's tail at B_k never exceeds its allowance,
        # even where the cut meets an atom of the maximum, so the fresh
        # rate stays within sampling noise of alpha_k at every sample size
        alpha = StepVector([0.02, 0.05, 0.10])
        for reps in (1000, 4000):
            report = mc_truncated_critical_values(BERN, alpha, 25, reps, 3)
            for a_k, hit in zip(alpha.values, report.achieved):
                assert hit <= a_k + 3.0 * _binom_se(a_k, reps)

    def test_deterministic(self):
        alpha = StepVector([0.05, 0.2])
        r1 = mc_truncated_critical_values(POIS, alpha, 8, 1200, 77)
        r2 = mc_truncated_critical_values(POIS, alpha, 8, 1200, 77)
        assert np.array_equal(r1.b, r2.b) and np.array_equal(r1.achieved, r2.achieved)

    def test_round_trip_dict(self):
        report = mc_truncated_critical_values(BERN, StepVector([0.1, 0.2]), 4, 1000, 1)
        clone = CalibrationReport.from_dict(report.as_dict())
        assert np.array_equal(clone.b, report.b)
        assert clone.reps == report.reps and clone.seed == report.seed

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            mc_truncated_critical_values(BERN, StepVector([0.1]), 0, 1000, 0)
        with pytest.raises(ConfigError):
            mc_truncated_critical_values(BERN, StepVector([0.1]), 5, 0, 0)
        cond = SimpleModel("conditional_binomial", 0.05, 0.09)
        with pytest.raises(ConfigError):
            mc_truncated_critical_values(cond, StepVector([0.5]), 5, 1000, 0)


class TestGammaOpenEnded:
    A = np.array([-4.0, -3.0, -2.0])
    B = np.array([2.0, 1.5, 1.0])

    @pytest.mark.parametrize("model,choice", [
        (BERN, "alt"),
        (POIS, "null"),
        (POIS, "alt"),
        (BERN_DOWN, "alt"),
    ], ids=["bernoulli-alt", "poisson-null", "poisson-alt", "bernoulli_down-alt"])
    def test_alt_stream_matches_direct_simulation(self, model, choice):
        est = estimate_gamma(
            [model] * 3, [choice] * 3, a=self.A, b=self.B, reps=4000, seed=13
        )
        # brute-force both races with an explicit per-path, per-step loop
        param = model.null_param if choice == "null" else model.alt_param
        slope, step = lattice_terms(model)
        rng = np.random.default_rng(99)
        n_direct = 1500
        hits1 = hits2 = 0
        for _ in range(n_direct):
            x = n = 0
            first = {}
            while True:
                n += 1
                x += int(rng.random() < param) if model.family == "bernoulli" else int(rng.poisson(param))
                cum = x * slope + n * step
                for key, crossed in (("b1", cum >= self.B[0]), ("a_last", cum <= self.A[-1]),
                                     ("a1", cum <= self.A[0]), ("b_last", cum >= self.B[-1])):
                    if crossed:
                        first.setdefault(key, n)
                if cum >= self.B[0] or cum <= self.A[0]:
                    break
            never = math.inf
            hits1 += first.get("b1", never) < first.get("a_last", never)
            hits2 += first.get("a1", never) < first.get("b_last", never)
        for got, hits in ((est.gamma1, hits1), (est.gamma2, hits2)):
            direct = hits / n_direct
            tol = 3.0 * (_binom_se(direct, n_direct) + _binom_se(got, est.reps))
            assert abs(got - direct) <= tol
            assert 0.0 < got < 1.0

    def test_infinite_upper_boundary_kills_gamma1(self):
        est = estimate_gamma(
            [BERN, BERN],
            ["alt", "null"],
            a=np.array([-2.0, -1.0]),
            b=np.array([np.inf, 0.5]),
            reps=1000,
            seed=3,
        )
        assert est.gamma1 == 0.0
        assert np.all(est.gamma1_per_stream == 0.0)

    def test_maximum_dominates_streams(self):
        est = estimate_gamma(
            [BERN, POIS], ["alt", "null"], a=self.A[:2], b=self.B[:2], reps=1500, seed=8
        )
        assert est.gamma1 >= est.gamma1_per_stream.max() - 1e-15
        assert est.gamma2 >= est.gamma2_per_stream.max() - 1e-15
        assert np.all((est.gamma1_per_stream >= 0) & (est.gamma1_per_stream <= 1))

    def test_theta_directionality(self):
        alt = estimate_gamma([BERN], ["alt"], a=self.A[:1], b=self.B[:1], reps=3000, seed=5)
        null = estimate_gamma([BERN], ["null"], a=self.A[:1], b=self.B[:1], reps=3000, seed=5)
        assert alt.gamma1 > null.gamma1
        assert alt.gamma2 < null.gamma2

    def test_invalid_inputs_raise(self):
        kw = dict(a=self.A[:1], b=self.B[:1], reps=100, seed=0)
        with pytest.raises(ConfigError, match="horizon"):
            estimate_gamma([BERN], ["alt"], horizon=0, **kw)
        with pytest.raises(ValueError, match="NaN"):
            estimate_gamma([BERN], ["alt"], a=self.A[:1], b=np.array([np.nan]), reps=100, seed=0)
        with pytest.raises(ValueError, match="NaN"):
            estimate_gamma([BERN], ["alt"], a=np.array([np.nan]), b=self.B[:1], reps=100, seed=0)
        cond = SimpleModel("conditional_binomial", 0.05, 0.09)
        with pytest.raises(ConfigError, match="conditional_binomial"):
            estimate_gamma([cond], ["alt"], **kw)

    def test_horizon_underruns_are_counted_and_logged(self, caplog):
        kw = dict(a=self.A[:2], b=self.B[:2], reps=500, seed=4)
        with caplog.at_level("WARNING", logger="seqfdr.calibrate"):
            short = estimate_gamma([BERN, POIS], ["alt", "null"], horizon=3, **kw)
        assert short.undecided_per_stream.shape == (2,)
        assert np.all(short.undecided_per_stream > 0)
        assert "horizon 3" in caplog.text
        caplog.clear()
        with caplog.at_level("WARNING", logger="seqfdr.calibrate"):
            full = estimate_gamma([BERN, POIS], ["alt", "null"], **kw)
        assert np.all(full.undecided_per_stream == 0) and not caplog.text
        # undecided paths are non-events, which only understates the rates
        assert np.all(short.gamma1_per_stream <= full.gamma1_per_stream)

    def test_deterministic(self):
        kw = dict(a=self.A[:2], b=self.B[:2], reps=1200, seed=42)
        e1 = estimate_gamma([BERN, POIS], ["alt", "alt"], **kw)
        e2 = estimate_gamma([BERN, POIS], ["alt", "alt"], **kw)
        assert np.array_equal(e1.gamma1_per_stream, e2.gamma1_per_stream)
        assert np.array_equal(e1.gamma2_per_stream, e2.gamma2_per_stream)


def _feed(jumps, horizon):
    """``next_jump`` replaying fixed jump steps; exhausted paths jump past ``horizon``."""
    width = max(len(j) for j in jumps) + 1
    padded = np.full((len(jumps), width), horizon + 1, dtype=np.int64)
    for row, steps in zip(padded, jumps):
        row[: len(steps)] = steps
    pos = np.zeros(len(jumps), dtype=np.int64)

    def next_jump(idx):
        out = padded[idx, pos[idx]]
        pos[idx] = np.minimum(pos[idx] + 1, width - 1)
        return out

    return next_jump


def _jumps_of(counts):
    """Jump steps of a path with per-step counts ``counts`` (steps 1..n)."""
    return np.repeat(np.arange(1, len(counts) + 1), counts)


def _brute_times(model, thresholds, counts):
    """First step at which cumulative_llr crosses each (threshold, upward) pair."""
    n = np.arange(1, len(counts) + 1)
    stat = cumulative_llr(model, np.cumsum(counts), n)
    out = []
    for thr, upward in thresholds:
        hit = np.flatnonzero(stat >= thr if upward else stat <= thr)
        out.append(int(hit[0]) + 1 if hit.size else _NEVER)
    return out


def _races(t):
    """Settle step and winner of both races: (first, up_b1 won, down_a_last won, ...)."""
    t = np.asarray(t)
    return np.stack([np.minimum(t[0], t[1]), t[0] < t[1], t[1] < t[0],
                     np.minimum(t[2], t[3]), t[2] < t[3], t[3] < t[2]])


class TestLatticeRace:
    """The open-ended gamma race on jump times against per-step brute force."""

    MODELS = {
        "bernoulli": (BERN, 0.12),
        "bernoulli_down": (BERN_DOWN, 0.1),
        "poisson": (SimpleModel("poisson", 2.0, 2.6), 2.6),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_segments_match_per_step_statistic(self, name):
        model, _ = self.MODELS[name]
        horizon = 80
        a1, a_last, b_last, b1 = -3.0, -1.5, 1.0, 2.5
        tables = _race_tables(model, a1, a_last, b_last, b1, horizon)
        thresholds = ((b1, True), (a_last, False), (a1, False), (b_last, True))
        rng = np.random.default_rng(3)
        m = 2000
        x = rng.integers(0, 90, m)
        s = rng.integers(1, horizon + 1, m)
        e = np.minimum(s + rng.integers(-2, 40, m), horizon)
        got = _segment_crossings(tables, x, s, e)
        for i in range(m):
            steps = np.arange(s[i], e[i] + 1)
            stat = cumulative_llr(model, np.full(steps.size, x[i]), steps)
            for k, (thr, upward) in enumerate(thresholds):
                hit = steps[stat >= thr if upward else stat <= thr]
                assert got[k, i] == (hit[0] if hit.size else _NEVER)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_races_match_per_step_brute_force(self, name):
        model, param = self.MODELS[name]
        horizon = 60
        rng = np.random.default_rng(11)
        if model.family == "bernoulli":
            counts = (rng.random((400, horizon)) < param).astype(np.int64)
        else:
            counts = rng.poisson(param, (400, horizon))
            assert np.any(counts > 1)  # several arrivals share a step
        # one threshold sits on a lattice point some path reaches
        b1 = float(cumulative_llr(model, counts[0, :7].sum(), 7))
        lo, hi = sorted((b1, 0.5 * b1))
        for a1, a_last, b_last, b1 in ((-3.0, -1.0, 1.0, 3.0), (-2.5, -2.5, hi, hi),
                                       (-np.inf, -1.2, 0.8, np.inf), (min(lo, -0.1) - 2.0, -0.1, 0.1, hi)):
            tables = _race_tables(model, a1, a_last, b_last, b1, horizon)
            thresholds = ((b1, True), (a_last, False), (a1, False), (b_last, True))
            t = _passage_times(tables, horizon, _feed([_jumps_of(c) for c in counts], horizon),
                               len(counts))
            want = np.array([_brute_times(model, thresholds, c) for c in counts]).T
            assert np.array_equal(_races(t), _races(want))

    def test_threshold_hit_exactly_is_crossed(self):
        horizon = 30
        up = float(cumulative_llr(BERN, 2, 3))  # jumps at steps 2 and 3
        t = _passage_times(_race_tables(BERN, -np.inf, -np.inf, up, up, horizon), horizon,
                           _feed([[2, 3]], horizon), 1)
        assert t[0, 0] == 3 and t[3, 0] == 3
        down = float(cumulative_llr(BERN, 1, 12))  # one jump at step 1, then drift
        for thr, step in ((down, 12), (np.nextafter(down, -np.inf), 13)):
            t = _passage_times(_race_tables(BERN, thr, thr, np.inf, np.inf, horizon), horizon,
                               _feed([[1]], horizon), 1)
            assert t[1, 0] == step and t[2, 0] == step

    def test_shared_step_counts_only_its_final_total(self):
        # three arrivals in step 2: the totals 1 and 2 at step 2 are not
        # points of the path, so a down threshold at (1, 2) is not crossed there
        model = POIS
        down = float(cumulative_llr(model, 1, 2))
        tables = _race_tables(model, down, down, np.inf, np.inf, 10)
        t = _passage_times(tables, 10, _feed([[2, 2, 2]], 10), 1)
        want = _brute_times(model, ((down, False),), [0, 3] + [0] * 8)[0]
        assert t[1, 0] == want == 4

    def test_horizon_cuts_paths(self):
        down = float(cumulative_llr(BERN, 1, 12))
        for horizon, want in ((11, _NEVER), (12, 12)):
            tables = _race_tables(BERN, down, down, np.inf, np.inf, horizon)
            t = _passage_times(tables, horizon, _feed([[1]], horizon), 1)
            assert t[1, 0] == want
        # a jump beyond the horizon ends the path without being counted
        up = float(cumulative_llr(BERN, 2, 9))
        tables = _race_tables(BERN, -np.inf, -np.inf, up, up, 8)
        assert _passage_times(tables, 8, _feed([[1, 9]], 8), 1)[0, 0] == _NEVER

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_single_stream_race_is_the_procedure(self, name):
        # at J = 1, (ev1, ev2) is run_open_ended's (reject, accept) on the
        # same cumulative count path, and the race settles at its step
        model, param = self.MODELS[name]
        horizon = 150
        rng = np.random.default_rng(5)
        if model.family == "bernoulli":
            counts = (rng.random((300, horizon)) < param).astype(np.int64)
        else:
            counts = rng.poisson(param, (300, horizon))
        n = np.arange(1, horizon + 1)
        lattice = float(cumulative_llr(model, counts[1, :9].sum(), 9))
        for a1, b1 in ((-2.2, 2.9), (min(lattice, 0.0) - 1.0, max(lattice, 0.0) + 0.1),
                       (min(lattice, 0.0), max(lattice, 0.0))):
            tables = _race_tables(model, a1, a1, b1, b1, horizon)
            t = _passage_times(tables, horizon, _feed([_jumps_of(c) for c in counts], horizon),
                               len(counts))
            undecided = 0
            for i, c in enumerate(counts):
                paths = cumulative_llr(model, np.cumsum(c), n)[:, None]
                try:
                    d = run_open_ended(paths, np.array([a1]), np.array([b1])).decisions[0]
                except DataUnderrunError:
                    undecided += 1
                    assert min(t[:, i]) == _NEVER
                    continue
                assert (t[0, i] < t[1, i], t[2, i] < t[3, i]) == (
                    d.action == "reject", d.action == "accept")
                assert min(t[0, i], t[1, i]) == d.step
            assert undecided < len(counts) // 10



class TestGammaTruncated:
    def test_matches_vectorized_oracle(self):
        b = np.array([1.2, 0.6])
        n_bar, reps = 20, 4000
        est = estimate_gamma([POIS], ["alt"], b=b, n_bar=n_bar, reps=reps, seed=17)
        rng = np.random.default_rng(4)
        obs = rng.poisson(POIS.alt_param, (reps, n_bar))
        oracle = np.mean(np.cumsum(llr_increments(POIS, obs), axis=1).max(axis=1) >= b[0])
        tol = 3.0 * 2.0 * _binom_se(max(oracle, 1e-3), reps)
        assert abs(est.gamma1 - oracle) <= tol

    def test_no_acceptance_side(self):
        est = estimate_gamma([BERN], ["null"], b=np.array([2.0]), n_bar=10, reps=1000, seed=2)
        assert est.gamma2 is None
        assert est.gamma2_per_stream is None and est.gamma2_se is None
        assert est.undecided_per_stream is None

    def test_mode_selection_is_exclusive(self):
        with pytest.raises(ConfigError):
            estimate_gamma([BERN], ["alt"], b=np.array([1.0]), reps=1000, seed=0)
        with pytest.raises(ConfigError):
            estimate_gamma(
                [BERN], ["alt"], a=np.array([-1.0]), b=np.array([1.0]),
                n_bar=5, reps=1000, seed=0,
            )

    def test_theta_record_and_validation(self):
        est = estimate_gamma([BERN], ["alt"], b=np.array([1.0]), n_bar=5, reps=1000, seed=1)
        assert est.theta_choice == ("alt",)
        with pytest.raises(ValueError):
            estimate_gamma([BERN], ["maybe"], b=np.array([1.0]), n_bar=5, reps=1000, seed=1)
        with pytest.raises(ValueError):
            estimate_gamma([BERN, BERN], ["alt"], b=np.array([1.0]), n_bar=5, reps=1000, seed=1)
        with pytest.raises(ValueError):
            GammaEstimate(
                gamma1=0.5,
                gamma1_per_stream=np.array([1.5]),
                gamma1_se=0.0,
                reps=10,
                theta_choice=("alt",),
            )
