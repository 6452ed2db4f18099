"""Tests for the exact lattice calibration and first-crossing rates."""

import functools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from seqfdr import calibrate
from seqfdr.calibrate import (
    _BLOCK,
    GammaEstimate,
    _path_maxima,
    _race,
    estimate_gamma,
    mc_truncated_critical_values,
    truncated_critical_values,
)
from seqfdr.core import StepVector, bh_steps, scale_for_fdr
from seqfdr.errors import ConfigError, DataUnderrunError
from seqfdr.procedures import run_batch
from seqfdr.sprt import SimpleModel, cumulative_llr, lattice_terms, stepdown_critical_values

from oracles import MatrixSource, llr_increments, race_by_step

BERN = SimpleModel("bernoulli", 0.05, 0.15)
POIS = SimpleModel("poisson", 1.5, 2.0)


def _binom_se(p, n):
    return math.sqrt(p * (1.0 - p) / n)


def _oracle_race(model, param, up, down, horizon):
    """(P(up first), P(down first)) by a full-support forward pass.

    Every count total from 0 to a cap far beyond the reachable mass is
    carried each step, and each total is classified by evaluating
    ``cumulative_llr`` at it directly, up before down.
    """
    if model.family == "bernoulli":
        pmf, cap = np.array([1.0 - param, param]), horizon
    else:
        pmf, cap = stats.poisson.pmf(np.arange(60), param), int(horizon * param + 60)
    live = np.zeros(cap + 1)
    live[0] = 1.0
    x = np.arange(cap + 1)
    won_up = won_down = 0.0
    for n in range(1, horizon + 1):
        live = np.convolve(live, pmf)[: cap + 1]
        stat = cumulative_llr(model, x, n)
        hit_up = stat >= up
        hit_down = (stat <= down) & ~hit_up
        won_up += live[hit_up].sum()
        won_down += live[hit_down].sum()
        live[hit_up | hit_down] = 0.0
    return won_up, won_down


def _atoms(model, n_bar):
    """Sorted values of the null statistic at every reachable lattice point,
    with Poisson totals up to 20 per step (a tail below 1e-16 at rate 1.5)."""
    top = 1 if model.family == "bernoulli" else 20
    n = np.arange(1, n_bar + 1)[:, None]
    x = np.arange(n_bar * top + 1)
    return np.unique(cumulative_llr(model, x, n)[x <= n * top])


@functools.lru_cache(maxsize=None)
def _oracle_tails(model, n_bar):
    """``_atoms`` and the full-support null tail of each."""
    atoms = _atoms(model, n_bar)
    return atoms, np.array([_oracle_race(model, model.null_param, v, -np.inf, n_bar)[0]
                            for v in atoms])


def _tail(model, v, n_bar):
    """Exact P0(max_{n <= n_bar} statistic >= v), one race alone."""
    return _race([(model, model.null_param, v, -np.inf)], n_bar)[0][0]


class TestCriticalValues:
    def test_exact_tail_definition(self):
        # B_k is the smallest atom whose full-support tail is at most alpha_k
        bh = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        cases = (
            (BERN, StepVector([0.05, 0.10, 0.20]), 7),
            (BERN, bh, 3),
            (POIS, bh, 4),
        )
        for model, alpha, n_bar in cases:
            report = mc_truncated_critical_values(model, alpha, n_bar, 500, 5)
            atoms = _atoms(model, n_bar)
            tails = np.array([_oracle_race(model, model.null_param, v, -np.inf, n_bar)[0]
                              for v in atoms])
            for k, a_k in enumerate(alpha.values):
                assert report.b[k] == atoms[np.flatnonzero(tails <= a_k)[0]]

    def test_check_seven_cells_meet_levels_exactly(self):
        # at acceptance check 7's cells, B_k's exact tail is within alpha_k
        # and the next lower atom's tail is not
        alpha = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        for model in (BERN, POIS):
            for n_bar in (25, 50):
                b = mc_truncated_critical_values(model, alpha, n_bar, 100, 1).b
                atoms = _atoms(model, n_bar)
                for k, a_k in enumerate(alpha.values):
                    below = atoms[np.searchsorted(atoms, b[k]) - 1]
                    assert _tail(model, b[k], n_bar) <= a_k < _tail(model, below, n_bar)

    # check 7's boundaries (J = 10, q1 = 0.25) bit for bit, as the
    # one-step-per-pass recursion gave them; the bernoulli n_bar = 50 cell
    # is also the one the rejective simulate cell calibrates
    PINNED = {
        ("bernoulli", 25): [
            2.9485158982395214, 2.5036133577986237, 2.1835805149020846, 2.058710817357726,
            1.863547672005546, 1.738677974461187, 1.6274523393509628, 1.5162267042407382,
            1.4050010691305141, 1.2937754340202896],
        ("bernoulli", 50): [
            3.3934184386804187, 2.907583710937118, 2.517257420232758, 2.267518025144041,
            2.0859989422259946, 1.947485182247502, 1.8226154847031433, 1.7113898495929192,
            1.600164214482695, 1.5025826418066042],
        ("poisson", 25): [
            3.027549014324932, 2.5688725358123303, 2.294964970523015, 2.0891386520660276,
            1.9181442460052054, 1.8014565796142468, 1.6782773041320551, 1.5891386520660276,
            1.4935083909087687, 1.4181442460052054],
        ("poisson", 50): [
            3.5623809267210973, 3.0007912889800004, 2.6580111878783566, 2.411652636913974,
            2.226883723690687, 2.0623809267210973, 1.9254271440764406, 1.8087394776854815,
            1.699334709365754, 1.6037044482084966],
    }

    @pytest.mark.parametrize("family, n_bar", sorted(PINNED))
    def test_check_seven_cells_are_pinned(self, family, n_bar):
        alpha = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        model = BERN if family == "bernoulli" else POIS
        b = truncated_critical_values(model, alpha, n_bar)
        assert b.tolist() == self.PINNED[family, n_bar]

    @settings(max_examples=80, deadline=None)
    @given(model=st.sampled_from([BERN, POIS]), n_bar=st.integers(1, 6),
           levels=st.lists(st.tuples(st.one_of(st.floats(1e-9, 1.0),
                                               st.sampled_from([1.0, 1.0 - 1e-9])),
                                     st.integers(1, 3)), min_size=1, max_size=5),
           low=st.one_of(st.none(), st.floats(1e-300, 1e-17)))
    # a bernoulli level below every atom's tail (0.05**2), then two equal levels
    @example(model=BERN, n_bar=2, levels=[(0.001, 1), (0.2, 2)], low=None)
    def test_search_meets_its_definition(self, model, n_bar, levels, low):
        # B_k is the first of every reachable atom whose full-support tail
        # is at most alpha_k, for nondecreasing ladders with equal levels
        # and levels near 1.  A level below 1e-16 is below the tail of every
        # atom the search considers, which reach the 1 - 1e-16 quantile of
        # the count total, and bernoulli levels below 0.05**n_bar are below
        # every atom's tail: either raises ConfigError naming the level.
        # Other levels start at 1e-9: below about 2e-10 the poisson atoms
        # past that quantile, which ``_atoms`` keeps, can come first.
        values = sorted(v for v, times in levels for _ in range(times))
        if low is not None:
            values.insert(0, low)
        alpha = StepVector(values)
        atoms, tails = _oracle_tails(model, n_bar)
        short = [k for k, a_k in enumerate(values) if a_k < 1e-16 or not np.any(tails <= a_k)]
        if short:
            with pytest.raises(ConfigError, match=f"k={short[0] + 1} "):
                truncated_critical_values(model, alpha, n_bar)
            return
        b = truncated_critical_values(model, alpha, n_bar)
        want = [atoms[np.flatnonzero(tails <= a_k)[0]] for a_k in values]
        assert b.tolist() == want

    def test_search_work_is_bounded(self, monkeypatch):
        # at check 7's cells the shared search runs 2/3/4/4 passes and races
        # 334 rows in all; one bisection per level took 5/5/6/7 passes and
        # 633 rows
        passes = []

        def counting(rows, horizon):
            passes.append(len(rows))
            return _race(rows, horizon)

        monkeypatch.setattr(calibrate, "_race", counting)
        alpha = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        rows = 0
        for model, n_bar, most in ((BERN, 25, 2), (BERN, 50, 3), (POIS, 25, 4), (POIS, 50, 4)):
            passes.clear()
            truncated_critical_values(model, alpha, n_bar)
            assert 0 < len(passes) <= most
            assert max(passes) <= calibrate._ROWS
            rows += sum(passes)
        assert rows <= 334

    @pytest.mark.parametrize("model", [BERN, POIS], ids=["bernoulli", "poisson"])
    def test_validation_draw_ignores_chunks(self, model, monkeypatch):
        # the samplers fill C order from one generator, so one path per
        # chunk, chunks of 3 paths over 700, and one chunk draw the same paths
        n_bar, reps = 50, 700
        draws = []
        for elems in (n_bar, 3 * n_bar + 17, 10_000_000):
            monkeypatch.setattr(calibrate, "_CHUNK_ELEMS", elems)
            rng = np.random.default_rng(4)
            draws.append(_path_maxima(model, model.null_param, n_bar, reps, rng))
        for drawn in draws[1:]:
            assert np.array_equal(drawn, draws[0])

    def test_validation_is_pinned(self):
        # check 7's poisson n_bar = 50 cell, bit for bit, as one draw of all
        # 20000 paths gave it
        alpha = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        achieved = mc_truncated_critical_values(POIS, alpha, 50, 20000, 1).achieved
        assert achieved.tobytes().hex() == (
            "7dd0b359f5b98a3f2d431cebe2369a3fbe30992a1895a43f1cebe2361ac0ab3f"
            "5227a089b0e1b13f5305a3923a01b53f93a98251499db83faf946588635dbc3f"
            "454772f90fe9bf3f083d9b559fabc13f"
        )

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
            obs = model.sample(model.null_param, np.random.default_rng(31), (reps, n_bar))
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

    def test_atom_above_allowed_tail_raises(self):
        # one observation: the maximum is c1 with probability 0.05, so no
        # atom has a tail within level 1's 0.01
        with pytest.raises(ConfigError, match="k=1"):
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
        # reps and seed size and seed the validation sample only: the
        # boundaries, and so their exact crossing rates, are the same at
        # every sample size
        alpha = StepVector([0.02, 0.05, 0.10])
        reports = [mc_truncated_critical_values(BERN, alpha, 25, reps, seed)
                   for reps, seed in ((1000, 3), (4000, 3), (4000, 8))]
        for report in reports:
            assert np.array_equal(report.b, reports[0].b)
        assert np.array_equal(truncated_critical_values(BERN, alpha, 25), reports[0].b)
        for b_k, a_k in zip(reports[0].b, alpha.values):
            assert _tail(BERN, b_k, 25) <= a_k

    def test_deterministic(self):
        alpha = StepVector([0.05, 0.2])
        r1 = mc_truncated_critical_values(POIS, alpha, 8, 1200, 77)
        r2 = mc_truncated_critical_values(POIS, alpha, 8, 1200, 77)
        assert np.array_equal(r1.b, r2.b) and np.array_equal(r1.achieved, r2.achieved)

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            mc_truncated_critical_values(BERN, StepVector([0.1]), 0, 1000, 0)
        with pytest.raises(ConfigError, match="n_bar"):
            truncated_critical_values(BERN, StepVector([0.1]), 0)
        with pytest.raises(ConfigError):
            mc_truncated_critical_values(BERN, StepVector([0.1]), 5, 0, 0)


def _direct_races(model, param, a1, a_last, b_last, b1, n_direct, seed):
    """Both open-ended races of ``n_direct`` paths, simulated step by step.

    Returns the frequencies of up ``b1`` before down ``a_last`` and of down
    ``a1`` before up ``b_last``.
    """
    slope, step = lattice_terms(model)
    rng = np.random.default_rng(seed)
    hits1 = hits2 = 0
    for _ in range(n_direct):
        x = n = 0
        first = {}
        while True:
            n += 1
            x += int(rng.random() < param) if model.family == "bernoulli" else int(rng.poisson(param))
            cum = x * slope + n * step
            for key, crossed in (("b1", cum >= b1), ("a_last", cum <= a_last),
                                 ("a1", cum <= a1), ("b_last", cum >= b_last)):
                if crossed:
                    first.setdefault(key, n)
            if cum >= b1 or cum <= a1:
                break
        never = math.inf
        hits1 += first.get("b1", never) < first.get("a_last", never)
        hits2 += first.get("a1", never) < first.get("b_last", never)
    return hits1 / n_direct, hits2 / n_direct


class TestGammaOpenEnded:
    A = np.array([-4.0, -3.0, -2.0])
    B = np.array([2.0, 1.5, 1.0])

    @pytest.mark.parametrize("model,choice", [
        (BERN, "alt"),
        (BERN, "null"),
        (POIS, "null"),
        (POIS, "alt"),
    ], ids=["bernoulli-alt", "bernoulli-null", "poisson-null", "poisson-alt"])
    def test_alt_stream_matches_direct_simulation(self, model, choice):
        est = estimate_gamma(
            [model] * 3, [choice] * 3, a=self.A, b=self.B, reps=4000, seed=13
        )
        assert est.gamma1_se == est.gamma2_se == 0.0
        param = model.null_param if choice == "null" else model.alt_param
        n_direct = 1500
        direct = _direct_races(model, param, self.A[0], self.A[-1], self.B[-1], self.B[0],
                               n_direct, seed=99)
        for got, freq in zip((est.gamma1, est.gamma2), direct):
            assert abs(got - freq) <= 3.0 * _binom_se(got, n_direct)
            assert 0.0 < got < 1.0

    def test_infinite_upper_boundary_kills_gamma1(self, caplog):
        # gamma1's race to b[0] = +inf cannot be won, so it is not run: the
        # alt stream, drifting up, leaves no mass racing to the horizon
        with caplog.at_level(logging.WARNING, logger="seqfdr.calibrate"):
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
        assert np.all(est.live_mass_per_stream < 1e-14)
        assert caplog.records == []

    def test_infinite_lower_boundary_kills_gamma2(self, caplog):
        with caplog.at_level(logging.WARNING, logger="seqfdr.calibrate"):
            est = estimate_gamma([BERN, BERN], ["alt", "null"], a=np.array([-np.inf, -1.0]),
                                 b=np.array([2.0, 1.0]))
            trunc = estimate_gamma([BERN], ["alt"], b=np.array([np.inf]), n_bar=50)
        assert est.gamma2 == 0.0 and np.all(est.gamma2_per_stream == 0.0)
        assert np.all(est.live_mass_per_stream < 1e-14)
        # gamma1 is still the race up to b[0] against a[-1]
        for got, param in zip(est.gamma1_per_stream, (BERN.alt_param, BERN.null_param)):
            assert got == pytest.approx(_race([(BERN, param, 2.0, -1.0)], 10_000)[0][0],
                                        rel=1e-12)
        assert trunc.gamma1 == 0.0
        assert caplog.records == []

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

    def test_horizon_underruns_are_counted_and_logged(self, caplog):
        kw = dict(a=self.A[:2], b=self.B[:2], reps=500, seed=4)
        with caplog.at_level("WARNING", logger="seqfdr.calibrate"):
            short = estimate_gamma([BERN, POIS], ["alt", "null"], horizon=3, **kw)
        assert short.live_mass_per_stream.shape == (2,)
        assert np.all(short.live_mass_per_stream > 1e-3)
        assert "horizon 3" in caplog.text
        caplog.clear()
        with caplog.at_level("WARNING", logger="seqfdr.calibrate"):
            full = estimate_gamma([BERN, POIS], ["alt", "null"], **kw)
        assert np.all(full.live_mass_per_stream < 1e-14) and not caplog.text
        # mass still racing is left out, which only understates the rates
        assert np.all(short.gamma1_per_stream <= full.gamma1_per_stream)
        assert np.all(short.gamma1_per_stream + short.live_mass_per_stream
                      >= full.gamma1_per_stream)

    def test_certain_crossing_is_a_rate_of_one(self):
        # every count crosses b at step 1, and the Poisson(1.35) step
        # probabilities add up to one ulp above 1
        model = SimpleModel("poisson", 1.35, 2.0)
        est = estimate_gamma([model], ["null"], a=np.array([-5.0]), b=np.array([-4.0]),
                             horizon=1)
        assert est.gamma1 == 1.0 and est.gamma2 == 0.0

    def test_deterministic(self):
        # exact rates: reps and seed change nothing
        kw = dict(a=self.A[:2], b=self.B[:2])
        e1 = estimate_gamma([BERN, POIS], ["alt", "alt"], reps=1200, seed=42, **kw)
        e2 = estimate_gamma([BERN, POIS], ["alt", "alt"], reps=7, seed=9, **kw)
        assert np.array_equal(e1.gamma1_per_stream, e2.gamma1_per_stream)
        assert np.array_equal(e1.gamma2_per_stream, e2.gamma2_per_stream)
        assert np.array_equal(e1.live_mass_per_stream, e2.live_mass_per_stream)


@st.composite
def _race_rows(draw):
    """One ``_race`` row: bernoulli or poisson, either parameter, thresholds
    near 0 (races that settle within a block) or far, infinite or equal."""
    model = draw(st.sampled_from([BERN, POIS]))
    param = draw(st.sampled_from([model.null_param, model.alt_param]))
    up = draw(st.one_of(st.just(np.inf), st.floats(-0.5, 0.8), st.floats(0.8, 4.0)))
    down = draw(st.one_of(st.just(-np.inf), st.just(up), st.floats(-0.8, 0.5),
                          st.floats(-4.0, -0.8)))
    return model, param, up, down


class TestLatticeRace:
    """The forward recursion against per-step evaluation of the statistic."""

    MODELS = {
        "bernoulli": (BERN, 0.12),
        "poisson": (SimpleModel("poisson", 2.0, 2.6), 2.6),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_races_match_per_step_brute_force(self, name):
        model, param = self.MODELS[name]
        horizon = 40
        # one threshold sits on a lattice point, and one pair coincides
        on = float(cumulative_llr(model, 3 if model.family == "poisson" else 1, 7))
        lo, hi = sorted((on, 0.5 * on))
        pairs = ((3.0, -1.0), (hi, -2.5), (np.inf, -1.2), (0.8, -np.inf),
                 (hi, min(lo, -0.1) - 2.0), (on, on))
        rows = [(model, p, up, down) for p in (model.null_param, param) for up, down in pairs]
        up, down, live = _race(rows, horizon)
        for r, (_, p, u, d) in enumerate(rows):
            want = _oracle_race(model, p, u, d, horizon)
            assert up[r] == pytest.approx(want[0], abs=1e-13)
            assert down[r] == pytest.approx(want[1], abs=1e-13)
            assert up[r] + down[r] + live[r] == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rows_in_one_pass_match_each_alone(self, name):
        # a row's rates do not depend on the rows that share its pass, even
        # when their windows of live counts lie far apart; a row alone may
        # stop once its live mass is below 1e-14, before the shared pass
        model, param = self.MODELS[name]
        rows = [(model, param, 2.5, -1.5), (model, model.null_param, 0.7, -3.0),
                (POIS, 1.5, 6.0, -6.0), (BERN, 0.05, np.inf, -0.5)]
        together = _race(rows, 300)
        for r, row in enumerate(rows):
            alone = _race([row], 300)
            for got, want in zip(together, alone):
                assert got[r] == pytest.approx(want[0], abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(_race_rows(), min_size=1, max_size=4),
           horizon=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]))
    # both stop in the middle of a block: at step 3, and at step 77
    @example(rows=[(BERN, 0.05, 0.5, -0.3)], horizon=2 * _BLOCK + 1)
    @example(rows=[(POIS, 1.5, 0.3, -0.6), (POIS, 2.0, 0.3, -0.6)], horizon=2 * _BLOCK + 1)
    def test_blocks_match_the_per_step_loop(self, rows, horizon):
        # a block of steps per pass gives the rates and live mass of one
        # step per pass up to summation order, and stops at the same step:
        # the live mass shrinks by a part at each step that absorbs, so a
        # step more or less shows in it even below _LIVE_TOL
        got = _race(rows, horizon)
        want = race_by_step(rows, horizon)
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=0.0, atol=1e-13)
        assert np.allclose(got[2], want[2], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("model", [
        pytest.param(BERN, id="bernoulli"),
        pytest.param(POIS, id="poisson", marks=pytest.mark.slow),
    ])
    def test_unsettled_race_stays_banded(self, model):
        # a null stream raced up with no lower boundary is still racing at
        # the horizon, over a window of counts that grows with n: 17k counts
        # for poisson at n = 10000, where a dense counts-by-counts step
        # operator would take gigabytes
        rows = [(model, model.null_param, 3.0, -np.inf)]
        tracemalloc.start()
        try:
            got = _race(rows, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        want = race_by_step(rows, 10_000)
        assert want[2][0] > 0.9
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=0.0, atol=1e-13)

    def test_threshold_hit_exactly_is_crossed(self):
        # the one-step statistic is c1 or c0: a threshold on either atom is
        # crossed there, one ulp beyond it is not
        c1, c0 = BERN.log_ratios
        rows = [(BERN, 0.05, c1, -np.inf), (BERN, 0.05, np.nextafter(c1, np.inf), -np.inf),
                (BERN, 0.05, np.inf, c0), (BERN, 0.05, np.inf, np.nextafter(c0, -np.inf))]
        up, down, _ = _race(rows, 1)
        assert up.tolist() == [0.05, 0.0, 0.0, 0.0]
        assert down.tolist() == [0.0, 0.0, 0.95, 0.0]

    def test_shared_step_counts_only_its_final_total(self):
        # three arrivals in step 2 pass the totals 1 and 2 without being
        # points of the path; only the step's final total is compared
        down = float(cumulative_llr(POIS, 1, 2))
        pmf = stats.poisson.pmf(np.arange(80), 1.5)
        x1, x2 = np.meshgrid(np.arange(80), np.arange(80), indexing="ij")
        prob = pmf[x1] * pmf[x2]
        first = cumulative_llr(POIS, x1, 1) <= down
        second = cumulative_llr(POIS, x1 + x2, 2) <= down
        want = prob[first].sum() + prob[~first & second].sum()
        got = _race([(POIS, 1.5, np.inf, down)], 2)[1][0]
        assert got == pytest.approx(want, abs=1e-15)
        assert not np.any(first & (x1 == 0))  # a path may start at 0 and cross only at step 2

    def test_horizon_cuts_paths(self):
        # three successes reach 3 c1, which no path reaches before step 3
        up = float(cumulative_llr(BERN, 3, 3))
        for horizon, want in ((2, 0.0), (3, 0.05**3)):
            hit, down, live = _race([(BERN, 0.05, up, -np.inf)], horizon)
            assert hit[0] == pytest.approx(want, rel=1e-12, abs=0.0)
            assert down[0] == 0.0 and live[0] == pytest.approx(1.0 - want)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_single_stream_race_is_the_procedure(self, name):
        # at J = 1, the open-ended procedure rejects when the up race wins,
        # and a path still racing at the horizon runs out of rows
        model, param = self.MODELS[name]
        horizon, paths = 400, 1500
        rng = np.random.default_rng(5)
        if model.family == "bernoulli":
            counts = (rng.random((paths, horizon)) < param).astype(np.int64)
        else:
            counts = rng.poisson(param, (paths, horizon))
        stat = cumulative_llr(model, np.cumsum(counts, axis=1), np.arange(1, horizon + 1))
        for a1, b1 in ((-2.2, 2.9), (-1.0, 1.0)):
            up, down, live = _race([(model, param, b1, a1)], horizon)
            rejects = undecided = 0
            for row in stat:
                try:
                    d = run_batch(MatrixSource([row[:, None]]), 1, [a1], [b1])
                except DataUnderrunError:
                    undecided += 1
                    continue
                rejects += bool(d.rejected[0, 0])
            for freq, p in ((rejects / paths, up[0]), (undecided / paths, live[0])):
                assert abs(freq - p) <= 3.0 * _binom_se(max(p, 1.0 / paths), paths)

    def test_all_null_fdr_caps(self):
        # FDR(m0 = J) <= J P0(B_1 before A_1) at the default boundaries
        # (J = 10, q1 = 0.25, q2 = 0.15): regression values of the recursion
        crit = stepdown_critical_values(scale_for_fdr(bh_steps(0.25, 10), 0.25),
                                        scale_for_fdr(bh_steps(0.15, 10), 0.15))
        for model, cap in ((BERN, 0.1656), (POIS, 0.1854)):
            up, _, live = _race([(model, model.null_param, crit.b[0], crit.a[0])], 10_000)
            assert live[0] < 1e-14
            assert 10 * up[0] == pytest.approx(cap, abs=1e-4)


class TestGammaTruncated:
    def test_matches_vectorized_oracle(self):
        b = np.array([1.2, 0.6])
        n_bar, reps = 20, 4000
        rng = np.random.default_rng(4)
        for model in (BERN, POIS):
            for choice in ("null", "alt"):
                est = estimate_gamma([model], [choice], b=b, n_bar=n_bar, reps=reps, seed=17)
                param = model.null_param if choice == "null" else model.alt_param
                obs = model.sample(param, rng, (reps, n_bar))
                oracle = np.mean(np.cumsum(llr_increments(model, obs), axis=1).max(axis=1) >= b[0])
                assert abs(est.gamma1 - oracle) <= 3.0 * _binom_se(est.gamma1, reps)
                assert est.gamma1 == pytest.approx(
                    _oracle_race(model, param, b[0], -np.inf, n_bar)[0], abs=1e-13)

    def test_no_acceptance_side(self):
        est = estimate_gamma([BERN], ["null"], b=np.array([2.0]), n_bar=10, reps=1000, seed=2)
        assert est.gamma2 is None
        assert est.gamma2_per_stream is None and est.gamma2_se is None
        assert est.live_mass_per_stream is None

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
        for n_bar in (0, -3):
            with pytest.raises(ConfigError, match="n_bar"):
                estimate_gamma([BERN], ["alt"], b=np.array([1.0]), n_bar=n_bar, reps=1000, seed=1)
        with pytest.raises(ValueError):
            GammaEstimate(
                gamma1=0.5,
                gamma1_per_stream=np.array([1.5]),
                gamma1_se=0.0,
                theta_choice=("alt",),
            )
