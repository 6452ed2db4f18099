"""Tests for the open-ended and rejective step-down procedures."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqfdr.calibrate import truncated_critical_values
from seqfdr.core import bh_steps, scale_for_fdr
from seqfdr.datagen import Bernoulli, CopulaConfig, CountBlocks, Toeplitz
from seqfdr.errors import DataUnderrunError
from seqfdr.procedures import Decisions, run_batch, summarize, work_counts
from seqfdr.sprt import SimpleModel, cumulative_llr, stepdown_critical_values

from oracles import (
    MatrixSource,
    error_counts,
    llr_increments,
    step_down,
    summarize as summarize_per_trial,
)

STATE_KEYS = {"stage", "step", "r", "c", "active", "decisions"}


def _sources(*paths):
    """(n, J) statistic matrix of per-stream paths; NaN past a path's end."""
    mat = np.full((max(len(p) for p in paths), len(paths)), np.nan)
    for j, p in enumerate(paths):
        mat[: len(p), j] = p
    return mat


def _open(paths, a, b):
    """The open-ended procedure on one trial's whole matrix."""
    return run_batch(MatrixSource([paths]), 1, a, b)


def _rejective(paths, b, n_bar):
    """The rejective procedure on one trial's whole matrix."""
    return run_batch(MatrixSource([paths]), 1, None, b, n_bar)


def _by_stream(result):
    """Per stream of a one-trial result: (action, step, level, truncated)."""
    return [("reject" if rejected else "accept", step, level, truncated)
            for rejected, step, level, truncated in zip(*(f[0].tolist() for f in result))]


def _same(x, y):
    return all(np.array_equal(p, q) for p, q in zip(x, y))


def _stack(parts):
    return Decisions(*map(np.concatenate, zip(*parts)))


class TestOpenEndedHandTraces:
    def test_two_stream_split_decision(self):
        # one rejection and one acceptance in the same stage
        result = _open(
            _sources([0.5, 2.5], [-0.3, -2.5]),
            a=np.array([-2.0, -1.0]),
            b=np.array([2.0, 1.0]),
        )
        d = _by_stream(result)
        assert d[0] == ("reject", 2, 1, False)
        assert d[1] == ("accept", 2, 1, False)
        assert [f.dtype for f in result] == [bool, np.int64, np.int64, bool]
        assert all(f.shape == (1, 2) for f in result)
        assert result.step.max() == 2
        assert result.step.sum() == 4

    def test_single_stream_is_plain_sprt(self):
        up = _open(_sources([0.2, 0.8, 1.4]), a=np.array([-1.0]), b=np.array([1.0]))
        assert _by_stream(up)[0] == ("reject", 3, 1, False)
        down = _open(_sources([0.2, -1.2]), a=np.array([-1.0]), b=np.array([1.0]))
        assert _by_stream(down)[0] == ("accept", 2, 1, False)

    def test_identical_paths_reject_together(self):
        j = 4
        path = [0.1, 0.5, 1.2, 2.0, 4.5]  # crosses b_1 = 4 at n = 5
        result = _open(
            _sources(*[path] * j),
            a=-np.arange(j, 0, -1, dtype=float),
            b=np.arange(j, 0, -1, dtype=float),
        )
        assert result.rejected.sum() == j
        assert set(result.step[0].tolist()) == {5}
        # ties order by stream index, so stream 0 sits lowest and gets level J
        assert result.level[0].tolist() == [4, 3, 2, 1]

    def test_two_stage_cascade(self):
        # stage 1 rejects stream 0 at level 1; stage 2 fires both rules at
        # once, rejecting stream 1 at the relaxed level-2 boundary and
        # accepting stream 2 at level 1
        result = _open(
            _sources([3.5, 3.5, 3.5], [1.5, 1.6, 2.3], [-0.5, -0.6, -3.2]),
            a=np.array([-3.0, -2.0, -1.0]),
            b=np.array([3.0, 2.0, 1.0]),
        )
        d = _by_stream(result)
        assert d[0] == ("reject", 1, 1, False)
        assert d[1] == ("reject", 3, 2, False)
        assert d[2] == ("accept", 3, 1, False)

    def test_acceptance_block_uses_offset_levels(self):
        # both streams sink together; bottom block accepted at levels 1, 2
        result = _open(
            _sources([-0.5, -2.5], [-0.4, -1.2]),
            a=np.array([-2.0, -1.0]),
            b=np.array([2.0, 1.0]),
        )
        d = _by_stream(result)
        assert d[0] == ("accept", 2, 1, False)
        assert d[1] == ("accept", 2, 2, False)


class TestOpenEndedValidation:
    def test_boundary_shape_and_order(self):
        with pytest.raises(ValueError):
            _open(_sources([0.0]), a=np.array([-1.0, 0.0]), b=np.array([1.0]))
        with pytest.raises(ValueError):
            _open(
                _sources([0.0], [0.0]),
                a=np.array([-1.0, -2.0]),
                b=np.array([2.0, 1.0]),
            )
        with pytest.raises(ValueError):
            _open(
                _sources([0.0], [0.0]),
                a=np.array([-2.0, 2.0]),
                b=np.array([2.0, 1.0]),
            )

    def test_underrun_carries_state(self):
        with pytest.raises(DataUnderrunError) as exc:
            _open(
                _sources([0.5, 0.6], [0.1, 0.2]),
                a=np.array([-2.0, -1.0]),
                b=np.array([2.0, 1.0]),
            )
        assert exc.value.state["active"] == [0, 1]
        assert exc.value.state["decisions"] == []

    def test_underrun_of_drawn_paths_carries_state(self):
        # a 40-step horizon ends this seeded trial after its first stages
        model = SimpleModel("bernoulli", 0.05, 0.15)
        crit = stepdown_critical_values(scale_for_fdr(bh_steps(0.25, 10), 0.25),
                                        scale_for_fdr(bh_steps(0.15, 10), 0.15))
        blocks = CountBlocks(CopulaConfig(10, Toeplitz(-0.6)),
                             [[Bernoulli(0.05)] * 5 + [Bernoulli(0.15)] * 5], horizon=40,
                             rngs=[np.random.default_rng(1)])

        def take(ids):
            n, totals = blocks.take(ids)
            return cumulative_llr(model, totals[:, :, 0], n[:, None])

        with pytest.raises(DataUnderrunError) as exc:
            run_batch(take, 1, crit.a, crit.b)
        state = exc.value.state
        assert set(state) == STATE_KEYS
        decided = state["decisions"]
        assert state["stage"] >= 2 and 0 < len(decided) < 10
        assert all(set(d) == {"stream", "action", "step", "level", "truncated"}
                   for d in decided)
        assert sorted(state["active"] + [d["stream"] for d in decided]) == list(range(10))
        assert state["r"] == sum(d["action"] == "reject" for d in decided)
        assert state["c"] == sum(d["action"] == "accept" for d in decided)
        assert state["step"] == max(d["step"] for d in decided) < 40


class TestRunBatchArguments:
    def test_nan_in_either_ladder_raises(self):
        mat = _sources([0.5, 2.5], [-0.3, -2.5])
        nan = np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match="NaN"):
            _open(mat, a=np.array([-2.0, -1.0]), b=nan)
        with pytest.raises(ValueError, match="NaN"):
            _open(mat, a=-nan, b=np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="NaN"):
            _rejective(mat, b=nan, n_bar=2)

    def test_exactly_one_of_a_and_n_bar(self):
        mat = _sources([0.5, 2.5], [-0.3, -2.5])
        a, b = np.array([-2.0, -1.0]), np.array([2.0, 1.0])
        with pytest.raises(ValueError, match="exactly one"):
            run_batch(MatrixSource([mat]), 1, a, b, n_bar=50)
        with pytest.raises(ValueError, match="exactly one"):
            run_batch(MatrixSource([mat]), 1, None, b)

    def test_infinite_ladders_run_without_warnings(self):
        # the rejective ladder is all -inf, and an open ladder may hold
        # infinite entries: no check takes their differences
        up = _sources([0.5, 2.5], [0.3, 1.5])
        d = _by_stream(_open(up, a=np.array([-np.inf, -np.inf]), b=np.array([2.0, 1.0])))
        assert d == [("reject", 2, 1, False), ("reject", 2, 2, False)]
        mat = _sources([0.5, 2.5], [-0.3, -2.5])
        d = _by_stream(_rejective(mat, b=np.array([np.inf, np.inf]), n_bar=2))
        assert d == [("accept", 2, 2, True), ("accept", 2, 1, True)]


    @pytest.mark.parametrize("n_bar", [None, 3])
    def test_zero_trials_give_empty_rows(self, n_bar):
        # the arrays keep their J columns, so summarize gives its own error
        a, b = np.array([-2.0, -1.0]), np.array([2.0, 1.0])
        result = run_batch(MatrixSource(np.empty((0, 1, 2))), 0, a if n_bar is None else None,
                           b, n_bar)
        assert [(f.shape, f.dtype) for f in result] == [
            ((0, 2), np.dtype(t)) for t in (bool, np.int64, np.int64, bool)]
        with pytest.raises(ValueError, match="cannot summarize zero trials"):
            summarize(result, [True, False])


class TestRejectiveHandTraces:
    def test_no_crossing_accepts_all_at_horizon(self):
        result = _rejective(
            _sources([0.5, 1.2, 1.5], [0.1, 0.4, 0.6]),
            b=np.array([2.0, 1.0]),
            n_bar=3,
        )
        d = _by_stream(result)
        # truncation levels rank the final statistics ascending
        assert d[0] == ("accept", 3, 2, True)
        assert d[1] == ("accept", 3, 1, True)

    def test_two_stage_rejections(self):
        result = _rejective(
            _sources([2.5], [0.1, 1.3]),
            b=np.array([2.0, 1.0]),
            n_bar=5,
        )
        d = _by_stream(result)
        assert d[0] == ("reject", 1, 1, False)
        assert d[1] == ("reject", 2, 2, False)

    def test_horizon_one_is_fixed_sample_stepdown(self):
        result = _rejective(
            _sources([3.5], [1.5], [0.5]),
            b=np.array([3.0, 2.0, 1.0]),
            n_bar=1,
        )
        d = _by_stream(result)
        assert d[0] == ("reject", 1, 1, False)
        assert d[1] == ("accept", 1, 2, True)
        assert d[2] == ("accept", 1, 1, True)

    def test_crossing_at_horizon_rejects_then_truncates(self):
        result = _rejective(
            _sources([0.5, 2.2], [0.1, 0.3]),
            b=np.array([2.0, 1.0]),
            n_bar=2,
        )
        d = _by_stream(result)
        assert d[0] == ("reject", 2, 1, False)
        assert d[1] == ("accept", 2, 1, True)

    def test_truncation_after_a_stage_at_the_horizon_is_a_stage(self):
        # stage 1 rejects stream 0 at step 2 = n_bar and stage 2 accepts
        # stream 1 there: two stages at one step
        paths = _sources([0.5, 2.2], [0.1, 0.3])
        tally = Counter()
        result = run_batch(MatrixSource([paths]), 1, None, np.array([2.0, 1.0]),
                           n_bar=2, tally=tally)
        assert set(result.step[0].tolist()) == {2}
        assert tally == Counter(trials=1, stages=2, matrix_rows=2, path_blocks=1,
                                decision_steps=4)
        assert work_counts(tally) == {"trials": 1, "stages_per_trial": 2.0, "matrix_rows": 2,
                                      "decision_steps": 4, "path_extensions": 0}

    def test_rejections_never_flagged_truncated(self):
        result = _rejective(
            _sources([2.5], [1.5]), b=np.array([2.0, 1.0]), n_bar=4
        )
        assert all(not truncated for action, _, _, truncated in _by_stream(result)
                   if action == "reject")

    def test_validation(self):
        with pytest.raises(ValueError):
            _rejective(_sources([0.0]), b=np.array([1.0]), n_bar=0)
        with pytest.raises(ValueError):
            _rejective(_sources([0.0], [0.0]), b=np.array([1.0, 2.0]), n_bar=3)

    def test_path_on_calibrated_boundary_is_rejected(self):
        # stream 0's statistic first reaches the calibrated B_1 exactly, at
        # step 13; a float cumsum of its increments lands a few ulps below
        model = SimpleModel("bernoulli", 0.05, 0.15)
        alpha = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        b = truncated_critical_values(model, alpha, 50)
        obs = np.zeros((50, 10), dtype=np.int64)
        obs[[0, 1, 2, 12], 0] = 1
        paths = cumulative_llr(model, np.cumsum(obs, axis=0), np.arange(1, 51)[:, None])
        assert paths[12, 0] == b[0] and paths[:12, 0].max() < b[0]
        assert np.cumsum(llr_increments(model, obs[:13, 0]))[-1] < b[0]
        d = _by_stream(_rejective(paths, b, n_bar=50))
        assert d[0] == ("reject", 13, 1, False)
        assert all(truncated and step == 50 for _, step, _, truncated in d[1:])

    def test_underrun_before_horizon(self):
        with pytest.raises(DataUnderrunError):
            _rejective(_sources([0.5], [0.1]), b=np.array([2.0, 1.0]), n_bar=5)


class TestRandomizedInvariants:
    def _grid(self, j):
        return -np.arange(j, 0, -1, dtype=float), np.arange(j, 0, -1, dtype=float)

    def test_open_ended_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            j = int(rng.integers(2, 7))
            a, b = self._grid(j)
            paths = [np.cumsum(rng.normal(0.0, 2.0, size=200)) for _ in range(j)]
            result = _open(_sources(*paths), a, b)
            again = _open(_sources(*paths), a, b)
            assert _same(result, again)  # deterministic
            decided = _by_stream(result)
            assert len(decided) == j
            levels_r = sorted(level for action, _, level, _ in decided if action == "reject")
            levels_a = sorted(level for action, _, level, _ in decided if action == "accept")
            # cumulative levels partition 1..R and 1..J-R
            assert levels_r == list(range(1, len(levels_r) + 1))
            assert levels_a == list(range(1, len(levels_a) + 1))
            for stream, (action, step, level, _) in enumerate(decided):
                value = paths[stream][step - 1]
                if action == "reject":
                    assert value >= b[level - 1]
                else:
                    assert value <= a[level - 1]

    def test_rejective_consistency(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            j = int(rng.integers(2, 7))
            _, b = self._grid(j)
            n_bar = int(rng.integers(1, 40))
            paths = [np.cumsum(rng.normal(0.0, 2.0, size=n_bar)) for _ in range(j)]
            result = _rejective(_sources(*paths), b, n_bar)
            assert _same(result, _rejective(_sources(*paths), b, n_bar))
            for stream, (action, step, level, truncated) in enumerate(_by_stream(result)):
                assert step <= n_bar
                if action == "reject":
                    assert not truncated
                    assert paths[stream][step - 1] >= b[level - 1]
                else:
                    assert truncated and step == n_bar

    @settings(max_examples=80, deadline=None)
    @given(j=st.integers(1, 6), n=st.integers(1, 40), cut=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1), rejective=st.booleans())
    def test_every_stage_decides(self, j, n, cut, seed, rejective):
        # a stage ends where an active statistic leaves the interval: the top
        # one clears b[r] or the bottom one is at or below a[c], so every
        # stage decides a stream, stages land on distinct steps (the
        # rejective horizon's truncation apart) and a trial has at most J
        rng = np.random.default_rng(seed)
        a, b = self._grid(j)
        mat = np.cumsum(rng.integers(-2, 3, size=(n, j)), axis=0).astype(float)
        mat = np.vstack([mat, np.full((1, j), 100.0)])  # every trial decides by its last row
        tally = Counter()
        n_bar = max(1, n + 1 - cut) if rejective else None
        result = run_batch(MatrixSource([mat]), 1, None if rejective else a, b, n_bar,
                           tally=tally)
        assert tally["stages"] == len(set(zip(result.step[0].tolist(),
                                              result.truncated[0].tolist())))
        assert work_counts(tally)["stages_per_trial"] <= j

    def test_block_size_irrelevant(self):
        # the matrix read on demand in row blocks of any size decides like the whole
        rng = np.random.default_rng(33)
        j = 5
        a, b = self._grid(j)
        paths = [np.cumsum(rng.normal(0.0, 1.0, size=300)) for _ in range(j)]
        mat = _sources(*paths)
        runs = [_open(mat, a, b)]
        for blk in (1, 7, 64, 1000):
            runs.append(run_batch(MatrixSource([mat], [blk] * len(mat)), 1, a, b))
        assert all(_same(r, runs[0]) for r in runs)

    @pytest.mark.parametrize("n_bar", [None, 1, 37])
    def test_batch_decides_each_trial_as_alone(self, n_bar):
        # integer-valued paths tie often; the rows come in blocks of random
        # sizes, so trials decide at different points of a block
        rng = np.random.default_rng(34)
        j, trials = 5, 25
        a, b = self._grid(j)
        mats = [np.round(np.cumsum(rng.normal(0.0, 1.5, size=(300, j)), axis=0))
                for _ in range(trials)]
        take = MatrixSource(mats, rng.integers(1, 90, size=300))
        tally = Counter()
        if n_bar is None:
            batch = run_batch(take, trials, a, b, tally=tally)
            alone = [_open(m, a, b) for m in mats]
        else:
            batch = run_batch(take, trials, None, b, n_bar, tally=tally)
            alone = [_rejective(m, b, n_bar) for m in mats]
        assert _same(batch, _stack(alone))
        assert tally["trials"] == trials
        assert tally["decision_steps"] == sum(t.step.sum() for t in alone)
        assert tally["path_blocks"] == sum(take.read)
        assert tally["stages"] >= sum(len(set(t.step[0].tolist())) for t in alone)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(j=st.integers(1, 6), trials=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           rejective=st.booleans())
    def test_batch_matches_per_stage_reference(self, j, trials, seed, rejective):
        # integer paths tie with each other and with the integer ladders;
        # the trials' rows, all of one length, come in blocks of random
        # sizes, and without a decisive last row a trial may run out of rows
        rng = np.random.default_rng(seed)
        b = -np.sort(-rng.integers(1, 7, size=j)).astype(float)
        a = None if rejective else np.sort(rng.integers(-6, 2, size=j)).astype(float)
        n_bar = int(rng.integers(1, 30)) if rejective else None
        length = int(rng.integers(0, 31))
        mats = []
        for _ in range(trials):
            mat = np.cumsum(rng.integers(-2, 3, size=(length, j)), axis=0)
            if length and rng.random() < 0.8:
                mat[-1] = rng.choice([-100, 100], size=j)
            mats.append(mat)
        take = MatrixSource(mats, rng.integers(1, 8, size=31))
        try:
            want = [step_down(mat, a, b, n_bar) for mat in mats]
        except DataUnderrunError as exc:
            with pytest.raises(DataUnderrunError) as got:
                run_batch(take, trials, a, b, n_bar)
            assert got.value.state == exc.state
            return
        result = run_batch(take, trials, a, b, n_bar)
        assert _same(result, [np.array(field) for field in zip(*want)])


class TestErrorCounts:
    def test_error_counts(self):
        result = _open(
            _sources([0.5, 2.5], [-0.3, -2.5]),
            a=np.array([-2.0, -1.0]),
            b=np.array([2.0, 1.0]),
        )
        # stream 0 rejected, stream 1 accepted
        rejected = result.rejected[0]
        assert error_counts(rejected, [True, False]) == (1, 1, 1)
        assert error_counts(rejected, [False, True]) == (0, 0, 1)
        with pytest.raises(ValueError):
            error_counts(rejected, [True])
        for truth in ([True, False], [False, True]):
            v, w, r = error_counts(rejected, truth)
            out = summarize(result, truth)
            assert (out.fdr, out.fnr) == (v / max(r, 1), w / max(2 - r, 1))
        with pytest.raises(ValueError):
            summarize(result, [True])


class TestSummarize:
    def _trials(self, j, *reject_streams, step=3):
        """One trial per set of rejected streams, every stream decided at ``step``."""
        rejected = np.array([[s in streams for s in range(j)] for streams in reject_streams],
                            bool).reshape(len(reject_streams), j)
        ones = np.ones(rejected.shape, np.int64)
        return Decisions(rejected, step * ones, ones, np.zeros_like(rejected))

    def test_worked_example(self):
        j = 5
        truth = [True, True, False, False, False]
        trials = self._trials(
            j,
            {0, 2},        # V=1, R=2
            set(),         # V=0, R=0
            {0, 1, 2, 3},  # V=2, R=4
        )
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
        out = summarize(self._trials(2, {1}), truth)
        assert out.fdr == 0.0 and out.fnr == 0.0

    def test_truth_all_false_makes_fdr_zero(self):
        truth = [False, False, False]
        rng = np.random.default_rng(4)
        trials = self._trials(
            3, *(set(np.nonzero(rng.random(3) < 0.5)[0]) for _ in range(20))
        )
        assert summarize(trials, truth).fdr == 0.0

    def test_pfdr_absent_without_rejections(self):
        truth = [True, True]
        out = summarize(self._trials(2, set(), set()), truth)
        assert out.pfdr is None and out.pfdr_se is None
        assert out.pfnr is not None

    def test_truth_as_numpy_bools(self):
        trials = self._trials(2, {0}, {0, 1}, set())
        want = summarize(trials, [True, False])
        assert want.fdr == 0.5
        assert summarize(trials, np.array([True, False])) == want
        assert summarize(trials, [np.True_, False]) == want

    @pytest.mark.parametrize("truth", [[1, 0], np.array([1, 0]), [True, "no"], [True, 0.0],
                                       [True, None]])
    def test_truth_entries_other_than_bool_or_none_raise(self, truth):
        with pytest.raises(ValueError, match="must be True or False"):
            summarize(self._trials(2, {0}), truth)

    def test_empty_trials_error(self):
        with pytest.raises(ValueError, match="zero trials"):
            summarize(self._trials(1), [True])

    def test_as_dict_round_trip(self):
        out = summarize(self._trials(2, {0}), [True, False])
        d = out.as_dict()
        assert d["n_trials"] == 1
        assert set(d) == set(out.__dataclass_fields__)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), trials=st.integers(1, 8), j=st.integers(1, 6))
    def test_matches_per_trial_reference(self, data, trials, j):
        # random decisions, with a trial that rejects nothing and one that
        # rejects every stream among them, against the per-trial arithmetic
        cells = st.lists(st.lists(st.booleans(), min_size=j, max_size=j),
                         min_size=trials, max_size=trials)
        rejected = np.array([[False] * j, [True] * j] + data.draw(cells))
        steps = st.lists(st.integers(1, 10**6), min_size=j, max_size=j)
        step = np.array(data.draw(st.lists(steps, min_size=len(rejected),
                                           max_size=len(rejected))), np.int64)
        order = np.array(data.draw(st.permutations(range(len(rejected)))))
        decisions = Decisions(rejected[order], step[order], np.ones_like(step),
                              np.zeros_like(rejected))
        truth = data.draw(st.lists(st.booleans(), min_size=j, max_size=j))
        assert summarize(decisions, truth) == summarize_per_trial(decisions, truth)
