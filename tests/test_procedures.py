"""Tests for the open-ended and rejective step-down procedures."""

import numpy as np
import pytest

from seqfdr.calibrate import mc_truncated_critical_values
from seqfdr.core import bh_steps, scale_for_fdr
from seqfdr.datagen import Bernoulli, CopulaConfig, Toeplitz, cumulative_counts
from seqfdr.errors import DataUnderrunError, StageGuardError
from seqfdr.procedures import (
    Decision,
    TrialResult,
    run_open_ended,
    run_rejective,
    summarize,
)
from seqfdr.sprt import SimpleModel, cumulative_llr, llr_increments, stepdown_critical_values

STATE_KEYS = {"stage", "step", "r", "c", "active", "decisions"}


def _sources(*paths):
    """(n, J) statistic matrix of per-stream paths; NaN past a path's end."""
    mat = np.full((max(len(p) for p in paths), len(paths)), np.nan)
    for j, p in enumerate(paths):
        mat[: len(p), j] = p
    return mat


def _by_stream(result):
    return {d.stream: d for d in result.decisions}


class TestOpenEndedHandTraces:
    def test_two_stream_split_decision(self):
        # one rejection and one acceptance in the same stage
        result = run_open_ended(
            _sources([0.5, 2.5], [-0.3, -2.5]),
            a=np.array([-2.0, -1.0]),
            b=np.array([2.0, 1.0]),
        )
        d = _by_stream(result)
        assert d[0] == Decision(stream=0, action="reject", step=2, level=1)
        assert d[1] == Decision(stream=1, action="accept", step=2, level=1)
        assert result.max_n == 2
        assert result.total_samples == 4

    def test_single_stream_is_plain_sprt(self):
        up = run_open_ended(_sources([0.2, 0.8, 1.4]), a=np.array([-1.0]), b=np.array([1.0]))
        assert up.decisions[0] == Decision(stream=0, action="reject", step=3, level=1)
        down = run_open_ended(_sources([0.2, -1.2]), a=np.array([-1.0]), b=np.array([1.0]))
        assert down.decisions[0] == Decision(stream=0, action="accept", step=2, level=1)

    def test_identical_paths_reject_together(self):
        j = 4
        path = [0.1, 0.5, 1.2, 2.0, 4.5]  # crosses b_1 = 4 at n = 5
        result = run_open_ended(
            _sources(*[path] * j),
            a=-np.arange(j, 0, -1, dtype=float),
            b=np.arange(j, 0, -1, dtype=float),
        )
        assert result.n_rejected == j
        assert {d.step for d in result.decisions} == {5}
        # ties order by stream index, so stream 0 sits lowest and gets level J
        assert [d.level for d in result.decisions] == [4, 3, 2, 1]

    def test_two_stage_cascade(self):
        # stage 1 rejects stream 0 at level 1; stage 2 fires both rules at
        # once, rejecting stream 1 at the relaxed level-2 boundary and
        # accepting stream 2 at level 1
        result = run_open_ended(
            _sources([3.5, 3.5, 3.5], [1.5, 1.6, 2.3], [-0.5, -0.6, -3.2]),
            a=np.array([-3.0, -2.0, -1.0]),
            b=np.array([3.0, 2.0, 1.0]),
        )
        d = _by_stream(result)
        assert d[0] == Decision(stream=0, action="reject", step=1, level=1)
        assert d[1] == Decision(stream=1, action="reject", step=3, level=2)
        assert d[2] == Decision(stream=2, action="accept", step=3, level=1)

    def test_acceptance_block_uses_offset_levels(self):
        # both streams sink together; bottom block accepted at levels 1, 2
        result = run_open_ended(
            _sources([-0.5, -2.5], [-0.4, -1.2]),
            a=np.array([-2.0, -1.0]),
            b=np.array([2.0, 1.0]),
        )
        d = _by_stream(result)
        assert d[0] == Decision(stream=0, action="accept", step=2, level=1)
        assert d[1] == Decision(stream=1, action="accept", step=2, level=2)


class TestOpenEndedValidation:
    def test_boundary_shape_and_order(self):
        with pytest.raises(ValueError):
            run_open_ended(_sources([0.0]), a=np.array([-1.0, 0.0]), b=np.array([1.0]))
        with pytest.raises(ValueError):
            run_open_ended(
                _sources([0.0], [0.0]),
                a=np.array([-1.0, -2.0]),
                b=np.array([2.0, 1.0]),
            )
        with pytest.raises(ValueError):
            run_open_ended(
                _sources([0.0], [0.0]),
                a=np.array([-2.0, 2.0]),
                b=np.array([2.0, 1.0]),
            )

    def test_underrun_carries_state(self):
        with pytest.raises(DataUnderrunError) as exc:
            run_open_ended(
                _sources([0.5, 0.6], [0.1, 0.2]),
                a=np.array([-2.0, -1.0]),
                b=np.array([2.0, 1.0]),
            )
        assert exc.value.state["active"] == [0, 1]
        assert exc.value.state["decisions"] == []

    def test_stage_guard(self):
        with pytest.raises(StageGuardError) as exc:
            run_open_ended(
                _sources([3.5, 3.5], [1.5, 1.5, 1.5, 3.5]),
                a=np.array([-2.0, -1.0]),
                b=np.array([3.0, 1.8]),
                max_stages_guard=1,
            )
        state = exc.value.state
        assert set(state) == STATE_KEYS
        assert (state["stage"], state["step"], state["r"], state["c"]) == (2, 1, 1, 0)
        assert state["active"] == [1]
        assert state["decisions"] == [Decision(stream=0, action="reject", step=1, level=1)]

    def test_underrun_of_drawn_paths_carries_state(self):
        # a 40-step horizon ends this seeded trial after its first stages
        model = SimpleModel("bernoulli", 0.05, 0.15)
        crit = stepdown_critical_values(scale_for_fdr(bh_steps(0.25, 10), 0.25),
                                        scale_for_fdr(bh_steps(0.15, 10), 0.15))
        blocks = cumulative_counts(CopulaConfig(10, Toeplitz(-0.6), seed=1),
                                   [Bernoulli(0.05)] * 5 + [Bernoulli(0.15)] * 5, horizon=40)
        with pytest.raises(DataUnderrunError) as exc:
            run_open_ended((cumulative_llr(model, x, w) for x, w in blocks), crit.a, crit.b)
        state = exc.value.state
        assert set(state) == STATE_KEYS
        decided = state["decisions"]
        assert state["stage"] >= 2 and 0 < len(decided) < 10
        assert sorted(state["active"] + [d.stream for d in decided]) == list(range(10))
        assert state["r"] == sum(d.action == "reject" for d in decided)
        assert state["c"] == sum(d.action == "accept" for d in decided)
        assert state["step"] == max(d.step for d in decided) < 40


class TestRejectiveHandTraces:
    def test_no_crossing_accepts_all_at_horizon(self):
        result = run_rejective(
            _sources([0.5, 1.2, 1.5], [0.1, 0.4, 0.6]),
            b=np.array([2.0, 1.0]),
            n_bar=3,
        )
        d = _by_stream(result)
        assert d[0].action == "accept" and d[0].step == 3 and d[0].truncated
        assert d[1].action == "accept" and d[1].step == 3 and d[1].truncated
        # truncation levels rank the final statistics ascending
        assert d[1].level == 1 and d[0].level == 2

    def test_two_stage_rejections(self):
        result = run_rejective(
            _sources([2.5], [0.1, 1.3]),
            b=np.array([2.0, 1.0]),
            n_bar=5,
        )
        d = _by_stream(result)
        assert d[0] == Decision(stream=0, action="reject", step=1, level=1)
        assert d[1] == Decision(stream=1, action="reject", step=2, level=2)

    def test_horizon_one_is_fixed_sample_stepdown(self):
        result = run_rejective(
            _sources([3.5], [1.5], [0.5]),
            b=np.array([3.0, 2.0, 1.0]),
            n_bar=1,
        )
        d = _by_stream(result)
        assert d[0] == Decision(stream=0, action="reject", step=1, level=1)
        assert d[1].action == "accept" and d[1].truncated and d[1].step == 1
        assert d[2].action == "accept" and d[2].truncated and d[2].step == 1

    def test_crossing_at_horizon_rejects_then_truncates(self):
        result = run_rejective(
            _sources([0.5, 2.2], [0.1, 0.3]),
            b=np.array([2.0, 1.0]),
            n_bar=2,
        )
        d = _by_stream(result)
        assert d[0] == Decision(stream=0, action="reject", step=2, level=1)
        assert d[1].action == "accept" and d[1].truncated and d[1].step == 2

    def test_rejections_never_flagged_truncated(self):
        result = run_rejective(
            _sources([2.5], [1.5]), b=np.array([2.0, 1.0]), n_bar=4
        )
        assert all(not d.truncated for d in result.decisions if d.action == "reject")

    def test_validation(self):
        with pytest.raises(ValueError):
            run_rejective(_sources([0.0]), b=np.array([1.0]), n_bar=0)
        with pytest.raises(ValueError):
            run_rejective(_sources([0.0], [0.0]), b=np.array([1.0, 2.0]), n_bar=3)

    def test_path_on_calibrated_boundary_is_rejected(self):
        # stream 0's statistic first reaches the calibrated B_1 exactly, at
        # step 35; a float cumsum of its increments lands one ulp below
        model = SimpleModel("bernoulli", 0.05, 0.15)
        alpha = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        b = mc_truncated_critical_values(model, alpha, 50, 20_000, 7).b
        obs = np.zeros((50, 10), dtype=np.int64)
        obs[[0, 3, 9, 20, 25, 34], 0] = 1
        paths = cumulative_llr(model, np.cumsum(obs, axis=0), np.arange(1, 51)[:, None])
        assert paths[34, 0] == b[0] and paths[:34, 0].max() < b[0]
        assert np.cumsum(llr_increments(model, obs[:35, 0]))[-1] < b[0]
        d = _by_stream(run_rejective(paths, b, n_bar=50))
        assert d[0] == Decision(stream=0, action="reject", step=35, level=1)
        assert all(d[j].truncated and d[j].step == 50 for j in range(1, 10))

    def test_underrun_before_horizon(self):
        with pytest.raises(DataUnderrunError):
            run_rejective(_sources([0.5], [0.1]), b=np.array([2.0, 1.0]), n_bar=5)


class TestRandomizedInvariants:
    def _grid(self, j):
        return -np.arange(j, 0, -1, dtype=float), np.arange(j, 0, -1, dtype=float)

    def test_open_ended_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            j = int(rng.integers(2, 7))
            a, b = self._grid(j)
            paths = [np.cumsum(rng.normal(0.0, 2.0, size=200)) for _ in range(j)]
            result = run_open_ended(_sources(*paths), a, b)
            again = run_open_ended(_sources(*paths), a, b)
            assert result == again  # deterministic
            assert len(result.decisions) == j
            levels_r = sorted(d.level for d in result.decisions if d.action == "reject")
            levels_a = sorted(d.level for d in result.decisions if d.action == "accept")
            # cumulative levels partition 1..R and 1..J-R
            assert levels_r == list(range(1, len(levels_r) + 1))
            assert levels_a == list(range(1, len(levels_a) + 1))
            for d in result.decisions:
                value = paths[d.stream][d.step - 1]
                if d.action == "reject":
                    assert value >= b[d.level - 1]
                else:
                    assert value <= a[d.level - 1]

    def test_rejective_consistency(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            j = int(rng.integers(2, 7))
            _, b = self._grid(j)
            n_bar = int(rng.integers(1, 40))
            paths = [np.cumsum(rng.normal(0.0, 2.0, size=n_bar)) for _ in range(j)]
            result = run_rejective(_sources(*paths), b, n_bar)
            assert result == run_rejective(_sources(*paths), b, n_bar)
            for d in result.decisions:
                assert d.step <= n_bar
                if d.action == "reject":
                    assert not d.truncated
                    assert paths[d.stream][d.step - 1] >= b[d.level - 1]
                else:
                    assert d.truncated and d.step == n_bar

    def test_block_size_irrelevant(self):
        # the matrix read on demand in row blocks of any size decides like the whole
        rng = np.random.default_rng(33)
        j = 5
        a, b = self._grid(j)
        paths = [np.cumsum(rng.normal(0.0, 1.0, size=300)) for _ in range(j)]
        mat = _sources(*paths)
        runs = [run_open_ended(mat, a, b)] + [
            run_open_ended(iter(np.array_split(mat, range(blk, 300, blk))), a, b)
            for blk in (1, 7, 64, 1000)
        ]
        assert all(r == runs[0] for r in runs)


class TestTrialResult:
    def test_error_counts(self):
        result = run_open_ended(
            _sources([0.5, 2.5], [-0.3, -2.5]),
            a=np.array([-2.0, -1.0]),
            b=np.array([2.0, 1.0]),
        )
        # stream 0 rejected, stream 1 accepted
        assert result.error_counts([True, False]) == (1, 1, 1)
        assert result.error_counts([False, True]) == (0, 0, 1)
        assert result.error_counts([None, False]) == (0, 1, 1)
        with pytest.raises(ValueError):
            result.error_counts([True])

    def test_decision_coverage_validated(self):
        with pytest.raises(ValueError):
            TrialResult(
                decisions=(
                    Decision(stream=0, action="reject", step=1, level=1),
                    Decision(stream=0, action="accept", step=1, level=1),
                )
            )


class TestSummarize:
    def _trial(self, j, reject_streams, step=3):
        decisions = []
        for s in range(j):
            action = "reject" if s in reject_streams else "accept"
            decisions.append(
                Decision(stream=s, action=action, step=step, level=1)
            )
        return TrialResult(decisions=tuple(decisions))

    def test_worked_example(self):
        j = 5
        truth = [True, True, False, False, False]
        trials = [
            self._trial(j, {0, 2}),      # V=1, R=2
            self._trial(j, set()),       # V=0, R=0
            self._trial(j, {0, 1, 2, 3}),  # V=2, R=4
        ]
        out = summarize(trials, truth)
        assert out.fdr == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert out.pfdr == pytest.approx(0.5, abs=1e-15)
        assert out.n_trials == 3
        assert out.n_trials_with_rejection == 2
        assert out.n_trials_with_acceptance == 3
        assert 0.0 <= out.fnr <= 1.0
        assert out.mean_max_n == 3.0
        assert out.mean_stream_n == 3.0

    def test_all_correct(self):
        truth = [True, False]
        trials = [self._trial(2, {1})]
        out = summarize(trials, truth)
        assert out.fdr == 0.0 and out.fnr == 0.0

    def test_truth_all_false_makes_fdr_zero(self):
        truth = [False, False, False]
        rng = np.random.default_rng(4)
        trials = [
            self._trial(3, set(np.nonzero(rng.random(3) < 0.5)[0])) for _ in range(20)
        ]
        assert summarize(trials, truth).fdr == 0.0

    def test_pfdr_absent_without_rejections(self):
        truth = [True, True]
        trials = [self._trial(2, set()), self._trial(2, set())]
        out = summarize(trials, truth)
        assert out.pfdr is None and out.pfdr_se is None
        assert out.pfnr is not None

    def test_empty_trials_error(self):
        with pytest.raises(ValueError):
            summarize([], [True])

    def test_as_dict_round_trip(self):
        out = summarize([self._trial(2, {0})], [True, False])
        d = out.as_dict()
        assert d["n_trials"] == 1
        assert set(d) == set(out.__dataclass_fields__)
