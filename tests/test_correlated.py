"""Tests for the correlated-interference (robust DPC) bounds."""

import math

import numpy as np
import pytest

from dirtycast.correlated import high_sinr_gap_beta, lower_beta, scaled_powers, t_of_qd, upper_correlated
from dirtycast.gaussian import rate_of_split


class TestSpecValidation:
    def test_feasibility(self):
        upper_correlated(10.0, 1.0, 1.0, 4.0)  # boundary: fully anticorrelated
        with pytest.raises(ValueError, match=r"^Qd=4.5 infeasible for marginals Q1=1.0, Q2=1.0"):
            upper_correlated(10.0, 1.0, 1.0, 4.5)
        with pytest.raises(ValueError, match=r"^Qd=9.0 infeasible for marginals Q1=1.0, Q2=1.0"):
            high_sinr_gap_beta(1.0e8, 9.0, 1.0)
        # an infeasible entry of an array names its stack index
        with pytest.raises(ValueError, match=r"^Qd=9.0 at stack index 2 infeasible"):
            upper_correlated(10.0, 1.0, 1.0, np.array([0.0, 4.0, 9.0, 16.0]))
        with pytest.raises(ValueError, match=r"^Qd=16.0 at stack index \(1, 0\) infeasible"):
            upper_correlated(10.0, np.array([[9.0], [1.0]]), 1.0, np.array([16.0, 1.0]))
        with pytest.raises(ValueError, match="^P must be positive"):
            high_sinr_gap_beta(np.array([1.0, 0.0]), 1.0)

    def test_scaled_powers(self):
        assert scaled_powers(1.0, -1.0, 2.0) == (2.0, 2.0, 8.0)
        q1, q2, qd = scaled_powers(np.array([0.5, 2.0]), 1.0, 4.0)
        assert q1.tolist() == [1.0, 16.0] and q2 == 4.0 and qd.tolist() == [1.0, 4.0]
        for beta1 in (math.nan, 1e200):  # beta1^2 overflows at 1e200
            with pytest.raises(ValueError, match="^Qd must be finite and nonnegative"):
                scaled_powers(beta1, 0.0, 1.0)


class TestLossTerm:
    def test_examples(self):
        assert t_of_qd(0.0) == 0.0
        assert t_of_qd(16.0) == pytest.approx(1.0, abs=1e-15)


class TestUpperCorrelated:
    def test_identical_interferences(self):
        # Qd = 0: single-user-like bound log2(P+Q+1+2 sqrt(PQ))/2
        expect = 0.5 * math.log2(10.0 + 4.0 + 1.0 + 2.0 * math.sqrt(40.0))
        assert upper_correlated(10.0, 4.0, 4.0, 0.0) == pytest.approx(expect, abs=1e-12)

    def test_frozen_point(self):
        expect = (
            0.25 * math.log2(15.0 + 2.0 * math.sqrt(40.0))
            + 0.25 * math.log2(20.0 + 2.0 * math.sqrt(90.0))
            - 0.5 * math.log2(1.25)
        )
        assert upper_correlated(10.0, 4.0, 9.0, 1.0) == pytest.approx(expect, abs=1e-12)
        assert upper_correlated(10.0, 4.0, 9.0, 1.0) == pytest.approx(2.357433179248185, abs=1e-12)

    def test_high_sinr_form(self):
        # fixed (Q1, Q2, Qd), P -> inf: bound approaches log2(P)/2 - T(Qd)
        target = 0.5 * math.log2(1.0e6) - t_of_qd(10.0)
        assert upper_correlated(1.0e6, 10.0, 10.0, 10.0) == pytest.approx(target, abs=0.01)


class TestLowerBeta:
    def test_split_rate_examples(self):
        # the dithered scheme's split rate is the independent one at Q = Qd/2
        def split_rate(p_a, p_d, qd):
            return rate_of_split(p_a, p_d, qd / 2.0)

        assert split_rate(3.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert split_rate(0.0, 3.0, 7.0) == pytest.approx(0.5, abs=1e-15)

    def test_branch_values(self):
        assert lower_beta(9.0, 44.0) == pytest.approx(0.25 * math.log2(10.0), abs=1e-15)
        assert lower_beta(9.0, 0.0) == pytest.approx(0.5 * math.log2(10.0), abs=1e-15)
        assert lower_beta(10.0, 16.0) == pytest.approx(0.5 * math.log2(15.0 / 4.0), abs=1e-12)
        assert lower_beta(10.0, 16.0) == pytest.approx(0.9534452978042592, abs=1e-12)

    def test_ordered_below_upper_bound(self):
        # a column of P against nine scaled pairs
        q1, q2, qd = scaled_powers(1.0, np.linspace(-1.0, 1.0, 9), 5.0)
        p = np.logspace(-1.0, 4.0, 12)[:, None]
        assert np.all(lower_beta(p, qd) <= upper_correlated(p, q1, q2, qd) + 1e-12)


class TestHighSinrGap:
    def test_no_spread_no_gap(self):
        assert high_sinr_gap_beta(1.0e8, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_gap_is_nonnegative_where_the_bounds_round_across(self):
        # upper_correlated - lower_beta rounds to -5.7e-14 here
        assert high_sinr_gap_beta(1e170, 1e30) >= 0.0

    def test_monotone_in_p(self):
        gaps = high_sinr_gap_beta(np.array([1e2, 1e4, 1e6, 1e8]), 10.0, q=10.0)
        assert np.all(np.diff(gaps) <= 0.0)

