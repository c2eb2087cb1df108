"""Cohort statistics: CCDF, quadrants, ternary shares, bins, OLS, ladder."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cocite
from cocite.errors import (
    DegenerateX,
    EmptyInput,
    InsufficientData,
    RankDeficient,
    TooFewRows,
)
from cocite.stats import (
    MODEL_LADDER,
    ccdf,
    equal_count_bins,
    fit_model_ladder,
    fit_ols,
    fit_quadratic,
    quadrant_counts,
    quadrant_of,
    t_two_sided_p,
    ternary_shares,
)
from cocite.synth import planted_regression_cohort
from cocite.topics import TopicType


class TestCcdf:
    def test_strictly_greater_convention(self):
        xs, probs = ccdf([0.0, 0.5, 1.0])
        assert list(xs) == [0.0, 0.5, 1.0]
        assert probs == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_duplicates_collapse(self):
        xs, probs = ccdf([1.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0]
        assert probs == pytest.approx([1 / 3, 0.0])

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            ccdf([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
    def test_nonincreasing_and_ends_at_zero(self, values):
        xs, probs = ccdf(values)
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[-1] == 0.0
        assert list(xs) == sorted(set(xs))


class TestQuadrants:
    @pytest.mark.parametrize(
        "dp,ds,expected",
        [
            (1.0, 1.0, 1),
            (-1.0, 1.0, 2),
            (0.0, 1.0, 2),
            (-1.0, -1.0, 3),
            (0.0, 0.0, 3),
            (-1.0, 0.0, 3),
            (1.0, -1.0, 4),
            (1.0, 0.0, 4),
        ],
    )
    def test_ties_go_to_the_non_exceeding_side(self, dp, ds, expected):
        assert quadrant_of(dp, ds) == expected

    def test_counts_partition_the_cohort(self):
        deltas = [(1.0, 1.0), (0.0, 2.0), (-3.0, -1.0), (2.0, -2.0), (1.0, 1.0)]
        counts = quadrant_counts(deltas)
        assert counts == {1: 2, 2: 1, 3: 1, 4: 1}
        assert sum(counts.values()) == len(deltas)

    def test_no_pairs_raises(self):
        with pytest.raises(EmptyInput):
            quadrant_counts([])


class TestTernary:
    def test_normalization(self):
        shares = ternary_shares(
            {TopicType.PRIMARY: 1.0, TopicType.SECONDARY: 1.0, TopicType.NEW: 2.0}
        )
        assert shares == (0.25, 0.25, 0.5)

    def test_missing_types_default_to_zero(self):
        assert ternary_shares({TopicType.NEW: 3.0}) == (0.0, 0.0, 1.0)

    def test_mentor_only_impact_is_ignored(self):
        shares = ternary_shares(
            {TopicType.NEW: 1.0, TopicType.MENTOR_ONLY: 99.0}
        )
        assert shares == (0.0, 0.0, 1.0)


class TestBins:
    def test_equal_counts(self):
        x = list(range(40))
        y = [2.0 * v for v in x]
        curve = equal_count_bins(x, y, n_bins=4)
        assert curve.counts == (10, 10, 10, 10)
        assert curve.mean_x == (4.5, 14.5, 24.5, 34.5)
        assert curve.mean_y == (9.0, 29.0, 49.0, 69.0)

    def test_uneven_split_front_loads_remainder(self):
        curve = equal_count_bins(list(range(10)), [0.0] * 10, n_bins=3)
        assert curve.counts == (4, 3, 3)

    def test_too_few_points_raises(self):
        with pytest.raises(InsufficientData):
            equal_count_bins([1.0, 2.0], [1.0, 2.0], n_bins=3)


class TestOls:
    def test_hand_worked_example(self):
        # x = [0, 1, 2], y = [0, 1, 3]: beta = (-1/6, 3/2), RSS = 1/6,
        # df = 1, se = (sqrt(5)/6, sqrt(1/12)), R^2 = 27/28.
        res = fit_ols({"x": [0.0, 1.0, 2.0]}, [0.0, 1.0, 3.0])
        assert res.names == ("intercept", "x")
        assert res.beta == pytest.approx((-1 / 6, 1.5))
        assert res.df == 1
        assert res.se == pytest.approx((math.sqrt(5) / 6, math.sqrt(1 / 12)))
        assert res.r2 == pytest.approx(27 / 28)
        beta, se, t, p = res.coef("x")
        assert t == pytest.approx(1.5 / math.sqrt(1 / 12))
        assert 0.0 < p < 1.0

    def test_noiseless_recovery(self):
        x = np.arange(10, dtype=float)
        y = 2.0 + 3.0 * x
        res = fit_ols({"x": x}, y)
        assert res.beta == pytest.approx((2.0, 3.0), abs=1e-12)
        assert res.r2 == pytest.approx(1.0)

    def test_rank_deficient_names_redundant_columns(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(RankDeficient) as exc:
            fit_ols({"a": a, "b": 2.0 * a}, a)
        assert exc.value.columns == ("b",)

    def test_constant_column_clashes_with_intercept(self):
        with pytest.raises(RankDeficient) as exc:
            fit_ols({"c": [1.0, 1.0, 1.0, 1.0]}, [1.0, 2.0, 3.0, 4.0])
        assert exc.value.columns == ("c",)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fit_ols({"x": [1.0, 2.0], "z": [0.0, 1.0]}, [1.0, 2.0])

    def test_constant_outcome_raises(self):
        with pytest.raises(DegenerateX):
            fit_ols({"x": [1.0, 2.0, 3.0]}, [5.0, 5.0, 5.0])


def mp_two_sided_p(t, df):
    """I_x(df/2, 1/2) at x = df / (df + t^2), to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        return mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)


def assert_close_to_mp(p, t, df):
    """Within 1e-12 relative where the exact p is at least 1e-300; below
    that, 0 or within 1e-300 absolute."""
    exact = mp_two_sided_p(t, df)
    if exact >= 1e-300:
        assert abs((p - exact) / exact) <= 1e-12, (t, df, p, float(exact))
    else:
        assert p == 0.0 or abs(p - exact) <= 1e-300, (t, df, p, float(exact))


class TestStudentTTail:
    """fit_ols's p-values come from t_two_sided_p, written with math only."""

    def test_fit_ols_p_values_match_two_oracles(self):
        from scipy.stats import t as t_dist

        rng = np.random.default_rng(7)
        x = rng.normal(size=40)
        z = rng.normal(size=40)
        res = fit_ols({"x": x, "z": z}, 0.5 + 0.3 * x - 0.01 * z + rng.normal(size=40))
        scipy_p = 2.0 * t_dist.sf(np.abs(np.array(res.t)), res.df)
        np.testing.assert_allclose(res.p, scipy_p, rtol=1e-12, atol=0)
        for p, t in zip(res.p, res.t):
            assert_close_to_mp(p, t, res.df)

    @pytest.mark.parametrize("df", [1, 3, 10**6])
    def test_edge_values(self, df):
        for t in (0.0, 1e-300, 0.5, 2.0, 40.0, 1e300):
            for signed in (t, -t):
                assert_close_to_mp(t_two_sided_p(signed, df), t, df)
        assert t_two_sided_p(0.0, df) == 1.0
        assert t_two_sided_p(math.inf, df) == t_two_sided_p(-math.inf, df) == 0.0
        assert math.isnan(t_two_sided_p(math.nan, df))

    @settings(max_examples=200, deadline=None)
    @given(
        df=st.integers(min_value=1, max_value=10**4),
        t=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        negative=st.booleans(),
    )
    def test_matches_mpmath_betainc(self, df, t, negative):
        assert_close_to_mp(t_two_sided_p(-t if negative else t, df), t, df)


class TestLazyScipy:
    """Importing cocite loads no SciPy; the kernels that use it import it
    on first use."""

    def test_import_loads_no_scipy(self):
        code = (
            "import cocite, cocite.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        src = str(Path(cocite.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestQuadraticFit:
    def test_planted_vertex(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 4.0, 500)
        y = 4.0 * x - x * x + rng.normal(0.0, 0.5, 500)
        fit = fit_quadratic(x, y)
        assert fit.peak_x == pytest.approx(2.0, abs=0.1)
        assert fit.curvature < 0
        assert fit.inverted_u

    def test_upward_curve_is_not_inverted_u(self):
        x = np.linspace(0.0, 4.0, 100)
        fit = fit_quadratic(x, x * x)
        assert fit.curvature > 0
        assert not fit.inverted_u

    def test_insignificant_curvature_is_not_inverted_u(self):
        # Pure noise around a line: curvature hovers near zero.
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 1.0, 200)
        y = x + rng.normal(0.0, 5.0, 200)
        fit = fit_quadratic(x, y)
        assert not fit.inverted_u or fit.p_curvature < 0.05

    def test_too_few_distinct_x(self):
        with pytest.raises(DegenerateX):
            fit_quadratic([1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0])


class TestLadder:
    def test_r2_never_decreases_up_the_ladder(self):
        table, _ = planted_regression_cohort(seed=5, n=400)
        ladder = fit_model_ladder(table)
        r2 = [res.r2 for _, res in ladder.models]
        assert len(r2) == len(MODEL_LADDER)
        assert all(a <= b + 1e-12 for a, b in zip(r2, r2[1:]))

    def test_shared_complete_case_mask(self):
        table, _ = planted_regression_cohort(seed=5, n=200)
        table = {k: v.copy() for k, v in table.items()}
        table["common_collaborators_count"][:7] = np.nan
        ladder = fit_model_ladder(table)
        assert ladder.n_dropped == 7
        assert ladder.n_rows == 193
        # Every model, even ones not using the NaN column, fits 193 rows.
        assert all(res.n == 193 for _, res in ladder.models)

    def test_log_outcome_option(self):
        table, _ = planted_regression_cohort(seed=5, n=300)
        plain = fit_model_ladder(table)
        logged = fit_model_ladder(table, log1p_outcome=True)
        assert plain.n_rows == logged.n_rows
        assert plain.models[0][1].beta != logged.models[0][1].beta

    def test_distance_terms_recovered(self):
        table, truth = planted_regression_cohort(seed=5, n=2000)
        ladder = fit_model_ladder(table)
        full = ladder.models[-1][1]
        beta_d, se_d, _, _ = full.coef("ave_distance")
        beta_d2, se_d2, _, p_d2 = full.coef("ave_distance_sq")
        assert abs(beta_d - truth["ave_distance"]) < 3 * se_d
        assert abs(beta_d2 - truth["ave_distance_sq"]) < 3 * se_d2
        assert beta_d2 < 0 and p_d2 < 0.001
