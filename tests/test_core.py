"""Tests for step vectors and the arbitrary-dependence FDR bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqfdr.core import (
    StepVector,
    bh_steps,
    bl_steps,
    d_bound,
    d_bound_at,
    scale_for_fdr,
    scale_for_pfdr,
)


def naive_bound(values, m):
    """Straight double-loop transcription of the bound, fsum accumulation."""
    j_total = len(values)
    if m == 0:
        return 0.0
    a = [0.0] + [float(v) for v in values]
    head = [(a[j] - a[j - 1]) / j for j in range(1, j_total - m + 2)]
    tail = [
        (a[j] - a[j - 1]) / (j * (j - 1))
        for j in range(j_total - m + 2, j_total + 1)
    ]
    return m * (math.fsum(head) + (j_total - m) * math.fsum(tail))


@st.composite
def step_vectors(draw, max_j=50):
    j = draw(st.integers(min_value=1, max_value=max_j))
    vals = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            min_size=j,
            max_size=j,
        )
    )
    return StepVector(np.sort(np.asarray(vals)))


class TestStepVector:
    def test_valid_construction(self):
        sv = StepVector(np.array([0.1, 0.1, 0.3]))
        assert sv.j == 3
        assert not sv.values.flags.writeable

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [0.0, 0.5],
            [-0.1, 0.5],
            [0.5, 0.4],
            [0.5, 1.2],
            [0.5, np.nan],
        ],
    )
    def test_invalid_construction(self, bad):
        with pytest.raises(ValueError):
            StepVector(np.array(bad, dtype=float))

    def test_scaled_rejects_nonpositive_factor(self):
        sv = StepVector(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            sv.scaled(0.0)


class TestDBound:
    def test_two_level_example(self):
        alpha = StepVector(np.array([0.125, 0.25]))
        assert d_bound_at(alpha, 1) == pytest.approx(0.1875, abs=1e-15)
        assert d_bound_at(alpha, 2) == pytest.approx(0.25, abs=1e-15)
        res = d_bound(alpha)
        assert res.value == pytest.approx(0.25, abs=1e-15)
        assert res.argmax_m == 2

    def test_three_level_example(self):
        alpha = StepVector(np.array([0.1, 0.2, 0.3]))
        assert d_bound_at(alpha, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_m_zero_is_zero(self):
        alpha = StepVector(np.array([0.1, 0.2, 0.3]))
        assert d_bound_at(alpha, 0) == 0.0

    def test_m_out_of_range(self):
        alpha = StepVector(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            d_bound_at(alpha, 3)
        with pytest.raises(ValueError):
            d_bound_at(alpha, -1)
        with pytest.raises(ValueError):
            d_bound_at(alpha, 1.5)

    def test_per_m_profile_matches_pointwise(self):
        alpha = bh_steps(0.25, 10)
        res = d_bound(alpha)
        assert res.per_m.shape == (11,)
        for m in range(11):
            assert res.per_m[m] == pytest.approx(d_bound_at(alpha, m), abs=1e-15)
        assert res.value == max(res.per_m)
        assert res.argmax_m == int(np.argmax(res.per_m))

    def test_bh_shape_bound_value(self):
        # unit-q linear steps at J = 10: bound ~ 1.84, maximized at m = 8
        res = d_bound(bh_steps(1.0, 10))
        assert res.value == pytest.approx(1.84, abs=1e-9)
        assert res.argmax_m == 8

    def test_wide_profiles_match_naive_double_loop(self):
        # prefix and suffix sums against per-m fsum, to a few ulps
        for j in (10, 60, 200):
            for alpha in (bh_steps(0.05, j), bl_steps(0.05, j), bl_steps(0.5, j)):
                per_m = d_bound(alpha).per_m
                want = [naive_bound(alpha.values, m) for m in range(j + 1)]
                np.testing.assert_allclose(per_m, want, rtol=1e-14, atol=0.0)

    @settings(max_examples=150, deadline=None)
    @given(step_vectors())
    def test_matches_naive_double_loop(self, alpha):
        for m in range(alpha.j + 1):
            assert d_bound_at(alpha, m) == pytest.approx(
                naive_bound(alpha.values, m), abs=1e-12
            )

    @settings(max_examples=100, deadline=None)
    @given(step_vectors(), st.floats(min_value=1e-3, max_value=1.0))
    def test_positive_homogeneity(self, alpha, frac):
        c = frac / float(alpha.values[-1])  # keep scaled values in (0, 1]
        scaled = alpha.scaled(c)
        base = d_bound(alpha)
        res = d_bound(scaled)
        assert res.value == pytest.approx(c * base.value, abs=1e-12, rel=1e-12)
        assert res.argmax_m == base.argmax_m

    @settings(max_examples=100, deadline=None)
    @given(step_vectors(max_j=20), st.data())
    def test_componentwise_monotone(self, alpha, data):
        idx = data.draw(st.integers(min_value=0, max_value=alpha.j - 1))
        bumped = alpha.values.copy()
        hi = 1.0 if idx == alpha.j - 1 else float(bumped[idx + 1])
        bumped[idx] = data.draw(
            st.floats(min_value=float(bumped[idx]), max_value=hi)
        )
        larger = StepVector(bumped)
        for m in range(alpha.j + 1):
            assert d_bound_at(larger, m) >= d_bound_at(alpha, m) - 1e-12


class TestStepFamilies:
    def test_bh_example(self):
        sv = bh_steps(0.3, 3)
        np.testing.assert_allclose(sv.values, [0.1, 0.2, 0.3], atol=1e-15)

    def test_bl_example(self):
        sv = bl_steps(0.05, 10)
        assert sv.values[0] == pytest.approx(1.0 - 0.95**0.1, abs=1e-12)
        assert sv.values[-1] == pytest.approx(0.5, abs=1e-12)

    def test_bl_caps_at_one(self):
        sv = bl_steps(0.9, 4)
        assert sv.values[-1] == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=1.0),
        st.integers(min_value=1, max_value=60),
    )
    def test_families_are_valid_step_vectors(self, q, j):
        for sv in (bh_steps(q, j), bl_steps(q, j)):
            assert sv.j == j
            assert sv.values[0] > 0.0
            assert sv.values[-1] <= 1.0
            assert np.all(np.diff(sv.values) >= -1e-16)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bh_steps(0.0, 5)
        with pytest.raises(ValueError):
            bh_steps(1.1, 5)
        with pytest.raises(ValueError):
            bh_steps(0.1, 0)
        with pytest.raises(ValueError):
            bl_steps(0.1, 2.5)


class TestScaling:
    def test_fdr_scaling_example(self):
        alpha = StepVector(np.array([0.125, 0.25]))
        scaled = scale_for_fdr(alpha, 0.1)
        np.testing.assert_allclose(scaled.values, [0.05, 0.1], atol=1e-15)

    def test_scaled_vector_attains_target(self):
        alpha = bh_steps(1.0, 10)
        for q in (0.05, 0.25):
            scaled = scale_for_fdr(alpha, q)
            assert d_bound(scaled).value == pytest.approx(q, rel=1e-12)

    def test_pfdr_reduces_to_fdr_at_gamma_one(self):
        alpha = bh_steps(0.25, 10)
        np.testing.assert_allclose(
            scale_for_pfdr(alpha, 0.1, 1.0).values,
            scale_for_fdr(alpha, 0.1).values,
            atol=1e-16,
        )

    def test_pfdr_proportional_in_gamma(self):
        alpha = bh_steps(0.25, 8)
        half = scale_for_pfdr(alpha, 0.2, 0.5)
        full = scale_for_pfdr(alpha, 0.2, 1.0)
        np.testing.assert_allclose(half.values * 2.0, full.values, rtol=1e-12)

    def test_domain_errors(self):
        alpha = bh_steps(0.25, 4)
        with pytest.raises(ValueError):
            scale_for_fdr(alpha, 0.0)
        with pytest.raises(ValueError):
            scale_for_pfdr(alpha, 0.1, 0.0)
        with pytest.raises(ValueError):
            scale_for_pfdr(alpha, 0.1, 1.5)
