"""Tests for the correlated-interference (robust DPC) bounds."""

import math

import numpy as np
import pytest

from dirtycast import gaussian
from dirtycast.correlated import (
    CorrelatedSpec,
    high_sinr_gap_beta,
    lower_beta,
    t_of_qd,
    upper_correlated,
)
from dirtycast.gaussian import PowerSplit, rate_of_split

P_GRID = tuple(float(p) for p in np.logspace(-1.0, 4.0, 12))
QD_GRID = (0.0, 0.5, 2.0, 4.0, 8.0, 40.0, 1.0e4)


class TestSpecValidation:
    def test_feasibility(self):
        CorrelatedSpec(10.0, 1.0, 1.0, 4.0)  # boundary: fully anticorrelated
        with pytest.raises(ValueError):
            CorrelatedSpec(10.0, 1.0, 1.0, 4.5)


class TestLossTerm:
    def test_examples(self):
        assert t_of_qd(0.0) == 0.0
        assert t_of_qd(16.0) == pytest.approx(1.0, abs=1e-15)


class TestUpperCorrelated:
    def test_identical_interferences(self):
        # Qd = 0: single-user-like bound log2(P+Q+1+2 sqrt(PQ))/2
        spec = CorrelatedSpec(10.0, 4.0, 4.0, 0.0)
        expect = 0.5 * math.log2(10.0 + 4.0 + 1.0 + 2.0 * math.sqrt(40.0))
        assert upper_correlated(spec) == pytest.approx(expect, abs=1e-12)

    def test_frozen_point(self):
        spec = CorrelatedSpec(10.0, 4.0, 9.0, 1.0)
        expect = (
            0.25 * math.log2(15.0 + 2.0 * math.sqrt(40.0))
            + 0.25 * math.log2(20.0 + 2.0 * math.sqrt(90.0))
            - 0.5 * math.log2(1.25)
        )
        assert upper_correlated(spec) == pytest.approx(expect, abs=1e-12)
        assert upper_correlated(spec) == pytest.approx(2.357433179248185, abs=1e-12)

    def test_high_sinr_form(self):
        # fixed (Q1, Q2, Qd), P -> inf: bound approaches log2(P)/2 - T(Qd)
        spec = CorrelatedSpec(1.0e6, 10.0, 10.0, 10.0)
        target = 0.5 * math.log2(1.0e6) - t_of_qd(10.0)
        assert upper_correlated(spec) == pytest.approx(target, abs=0.01)


class TestLowerBeta:
    def test_split_rate_examples(self):
        # the dithered scheme's split rate is the independent one at Q = Qd/2
        def split_rate(p_a, p_d, qd):
            return rate_of_split(PowerSplit(p_a, p_d), qd / 2.0)

        assert split_rate(3.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert split_rate(0.0, 3.0, 7.0) == pytest.approx(0.5, abs=1e-15)

    def test_branch_values(self):
        assert lower_beta(9.0, 44.0) == pytest.approx(0.25 * math.log2(10.0), abs=1e-15)
        assert lower_beta(9.0, 0.0) == pytest.approx(0.5 * math.log2(10.0), abs=1e-15)
        assert lower_beta(10.0, 16.0) == pytest.approx(0.5 * math.log2(15.0 / 4.0), abs=1e-12)
        assert lower_beta(10.0, 16.0) == pytest.approx(0.9534452978042592, abs=1e-12)

    def test_bridge_to_independent_bound(self):
        for p in (0.5, 10.0, 263.0):
            for qd in QD_GRID:
                assert lower_beta(p, qd) == gaussian.lower_bound(p, qd / 2.0)

    def test_ordered_below_upper_bound(self):
        for p in P_GRID:
            for beta2 in np.linspace(-1.0, 1.0, 9):
                spec = CorrelatedSpec.from_scaled(p, 1.0, float(beta2), 5.0)
                assert lower_beta(p, spec.qd) <= upper_correlated(spec) + 1e-12


class TestHighSinrGap:
    def test_no_spread_no_gap(self):
        assert high_sinr_gap_beta(1.0e8, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_p(self):
        gaps = [high_sinr_gap_beta(p, 10.0, q=10.0) for p in (1e2, 1e4, 1e6, 1e8)]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
