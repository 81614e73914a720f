"""Tests for the Gaussian bounds: closed forms vs numeric oracles, branch
seams, asymptotics, the DPC covariance oracle and the gap analysis."""

import math

import numpy as np
import pytest

from dirtycast import correlated, gaussian
from dirtycast.core import minimize_scalar
from dirtycast.gaussian import (
    PowerSplit,
    awgn_capacity,
    dpc_covariance,
    dpc_scheme_oracle,
    gap,
    high_sinr_asymptote,
    lower_bound,
    maximize_power_split,
    minimize_upper_i_rho,
    minimize_upper_ii_rho,
    rate_interference_as_noise,
    rate_of_split,
    rate_timeshare,
    universal_gap,
    upper_envelope,
    upper_i,
    upper_i_at_rho,
    upper_ii,
    upper_ii_at_rho,
    upper_k,
    upper_k_raw,
)
from dirtycast.verify import P_GRID, Q_GRID_LINEAR, Q_GRID_LOG


class TestBaselines:
    def test_timeshare(self):
        assert rate_timeshare(0.0) == 0.0
        assert rate_timeshare(3.0) == pytest.approx(0.5, abs=1e-15)
        assert rate_timeshare(1995.2623149688789) == pytest.approx(2.740771398082755, abs=1e-12)

    def test_interference_as_noise(self):
        assert rate_interference_as_noise(7.0, 0.0) == pytest.approx(awgn_capacity(7.0), abs=1e-15)
        assert rate_interference_as_noise(0.0, 5.0) == 0.0
        assert rate_interference_as_noise(10.0, 4.0) == pytest.approx(
            0.5 * math.log2(3.0), abs=1e-12
        )


class TestUpperBounds:
    def test_vanishing_interference(self):
        for p in (0.2, 1.0, 50.0):
            assert upper_i(p, 0.0) == pytest.approx(awgn_capacity(p), abs=1e-12)
            assert upper_ii(p, 0.0) == pytest.approx(awgn_capacity(p), abs=1e-12)

    def test_upper_i_frozen_point(self):
        # log2(11)/4 + log2((19+2*sqrt(80))/8)/4, rho pinned at 1
        expect = 0.25 * math.log2(11.0) + 0.25 * math.log2((19.0 + 2.0 * math.sqrt(80.0)) / 8.0)
        assert upper_i(10.0, 8.0) == pytest.approx(expect, abs=1e-12)
        assert upper_i(10.0, 8.0) == pytest.approx(1.416133138277382, abs=1e-12)
        _, minimized = minimize_upper_i_rho(10.0, 8.0)
        assert minimized == pytest.approx(upper_i(10.0, 8.0), abs=1e-6)

    def test_upper_ii_frozen_point(self):
        expect = 0.5 * math.log2((111.0 + 2.0 * math.sqrt(1000.0)) / math.sqrt(200.0)) - 0.25 * math.log2(100.0 / 22.0)
        assert upper_ii(10.0, 100.0) == pytest.approx(expect, abs=1e-12)
        assert upper_ii(10.0, 100.0) == pytest.approx(1.265418823944883, abs=1e-12)
        _, minimized = minimize_upper_ii_rho(10.0, 100.0)
        assert minimized == pytest.approx(upper_ii(10.0, 100.0), abs=1e-6)

    def test_closed_forms_match_rho_minimization_on_grid(self):
        for p in P_GRID:
            for q in Q_GRID_LINEAR:
                _, val_i = minimize_upper_i_rho(p, q)
                assert abs(val_i - upper_i(p, q)) < 1e-5
                _, val_ii = minimize_upper_ii_rho(p, q)
                assert abs(val_ii - upper_ii(p, q)) < 1e-5

    def test_closed_upper_ii_never_below_its_minimum(self):
        for p in P_GRID:
            for q in Q_GRID_LOG:
                _, val = minimize_upper_ii_rho(p, q)
                assert upper_ii(p, q) >= val - 1e-9

    def test_envelope(self):
        assert upper_envelope(4.0, 0.0) == pytest.approx(awgn_capacity(4.0), abs=1e-12)
        p33, q15 = 1995.2623149688789, 31.622776601683793
        env = upper_envelope(p33, q15)
        assert env == pytest.approx(
            min(upper_i(p33, q15), upper_ii(p33, q15), awgn_capacity(p33)), abs=0
        )
        assert env == pytest.approx(4.156812603877782, abs=1e-12)
        # small P: the trivial AWGN bound is the binding one
        assert upper_envelope(0.1, 2.0) == pytest.approx(awgn_capacity(0.1), abs=1e-12)

    def test_high_interference_limit(self):
        # convergence is O(sqrt(P/Q)): at P = 33 dB the residual at Q=1e8 is ~3.2e-3
        dev = upper_envelope(1995.2623149688789, 1.0e8) - 2.740771398082755
        assert dev == pytest.approx(3.2e-3, abs=4e-4)

    def test_extreme_powers_stay_finite(self):
        # P + Q + 1 + 2 sqrt(PQ) is finite at Q = 1e300 only if sqrt(PQ) is
        # taken as sqrt(P) sqrt(Q)
        p, q = 1.0e10, 1.0e300
        ts = rate_timeshare(p)
        assert upper_i(p, q) == pytest.approx(ts, abs=1e-12)
        assert upper_envelope(p, q) == pytest.approx(ts, abs=1e-12)
        assert upper_ii(p, q) >= upper_envelope(p, q)
        # Q/(2P+1+rho) underflows to 0 here; the penalty is taken in logs
        p, q = 1.0e100, 1.0e-300
        assert upper_envelope(p, q) == awgn_capacity(p)
        assert upper_ii(p, q) == pytest.approx(awgn_capacity(p), abs=1e-12)
        # (P+Q+1+2 sqrt(PQ))/(Q/2+1-rho) overflows here, so upper-I takes the
        # difference of the two logs; the scan of its minimizer runs at rho = 1
        p, q = 1.0e300, 1.0e-10
        assert upper_i_at_rho(p, q, 1.0) == pytest.approx(506.59403447032276, rel=1e-10)
        _, v = minimize_upper_i_rho(p, q)
        assert v == pytest.approx(upper_i(p, q), abs=1e-9)


class TestLowerBound:
    def test_branch_values(self):
        assert lower_bound(5.0, 0.0) == pytest.approx(awgn_capacity(5.0), abs=1e-15)
        # Q/2 >= P+1: pure time-sharing
        assert lower_bound(3.0, 10.0) == pytest.approx(0.25 * math.log2(4.0), abs=1e-15)
        # middle branch at P=10, Q=4: log2(13/4)/2 + log2(2)/4
        expect = 0.5 * math.log2(13.0 / 4.0) + 0.25
        assert lower_bound(10.0, 4.0) == pytest.approx(expect, abs=1e-12)
        assert lower_bound(10.0, 4.0) == pytest.approx(1.100219859070546, abs=1e-12)

    def test_rate_of_split_examples(self):
        assert rate_of_split(PowerSplit(6.0, 0.0), 4.0) == pytest.approx(
            0.5 * math.log2(1.0 + 6.0 / 3.0), abs=1e-12
        )
        assert rate_of_split(PowerSplit(0.0, 6.0), 4.0) == pytest.approx(
            0.25 * math.log2(7.0), abs=1e-12
        )
        assert rate_of_split(PowerSplit(4.0, 2.0), 2.0) == pytest.approx(
            0.896240625180289, abs=1e-12
        )

    def test_closed_form_matches_grid_search(self):
        # the sweep reaches optimal P_D many decades below P, e.g. 5e9 at
        # (P, Q) = (1e100, 1e10)
        sweep = (0.0, 1e-300, 1e-3, 1.0, 3.0, 10.0, 1e4, 1e10, 1e100, 1e300)
        for p in sweep:
            for q in sweep:
                split, numeric = maximize_power_split(p, q)
                closed = lower_bound(p, q)
                assert abs(closed - numeric) <= 1e-12 * max(1.0, closed), (p, q)
                assert split.total == pytest.approx(p, rel=1e-12, abs=0)


class TestDpcOracle:
    def test_frozen_point(self):
        r_a, r_d = dpc_scheme_oracle(PowerSplit(4.0, 2.0), 2.0)
        assert r_a == pytest.approx(0.5, abs=1e-9)
        assert r_d == pytest.approx(0.5 * math.log2(3.0), abs=1e-9)

    def test_degenerate_splits(self):
        r_a, r_d = dpc_scheme_oracle(PowerSplit(0.0, 2.0), 2.0)
        assert r_a == 0.0
        assert r_d == pytest.approx(0.5 * math.log2(3.0), abs=1e-9)
        r_a, r_d = dpc_scheme_oracle(PowerSplit(4.0, 0.0), 2.0)
        assert r_a == pytest.approx(0.5 * math.log2(3.0), abs=1e-9)
        assert r_d == 0.0

    def test_scheme_rate_is_achieved_at_the_optimal_split(self):
        p, q = 10.0, 4.0
        split, _ = maximize_power_split(p, q)
        r_a, r_d = dpc_scheme_oracle(split, q)
        assert r_a + 0.5 * r_d == pytest.approx(lower_bound(p, q), abs=1e-5)


class TestKUserBound:
    def test_direct_point_against_rederivation(self):
        # regroup the converse: R <= log2(big)/2 - (1/K)[(K-1)/2 log2 Q
        #   + log2(K)/2 + [log2(Q/(K(P+1)))/2]^+]
        p, q, k = 10.0, 100.0, 3
        big = p + q + 1.0 + 2.0 * math.sqrt(p * q)
        inner = (
            (k - 1) / 2.0 * math.log2(q)
            + 0.5 * math.log2(k)
            + max(0.0, 0.5 * math.log2(q / (k * (p + 1.0))))
        )
        assert upper_k_raw(p, q, k) == pytest.approx(
            0.5 * math.log2(big) - inner / k, abs=1e-12
        )

    def test_small_q_cap(self):
        assert upper_k(10.0, 0.0, 3) == awgn_capacity(10.0)
        assert upper_k(10.0, 1e-9, 5) == awgn_capacity(10.0)
        assert upper_k_raw(10.0, 0.0, 3) == math.inf

    def test_tiny_interference_does_not_underflow(self):
        # Q/(K(P+1)) underflows to 0 here; the penalty is taken in logs
        assert upper_k(1.0e100, 1.0e-300, 3) == awgn_capacity(1.0e100)
        assert upper_k_raw(1.0e100, 1.0e-300, 3) > awgn_capacity(1.0e100)

    def test_domain(self):
        with pytest.raises(ValueError):
            upper_k(1.0, 1.0, 1)


class TestGapAnalysis:
    def test_universal_constant(self):
        assert universal_gap() == pytest.approx(0.7715533031636119, abs=1e-15)

    def test_gap_vanishes_without_interference(self):
        for p in (0.3, 5.0, 800.0):
            assert gap(p, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_regional_maximum_low_q(self):
        # gaussian-universal-gap pins this value at (P*, Q=2) on a coarser sweep
        regional = 0.5 * math.log2((5.0 + math.sqrt(17.0)) / 4.0)
        sweep = max(
            gap(float(p), float(q))
            for p in np.linspace(0.01, 10.0, 150)
            for q in np.linspace(0.0, 2.0, 101)
        )
        assert sweep <= regional + 1e-9

    def test_grid_supremum_approaches_constant_from_below(self):
        # along Q = 2(P+1) the gap climbs toward the universal constant
        ridge = [gap(p, 2.0 * (p + 1.0)) for p in (1e2, 1e4, 1e6, 1e8)]
        assert all(ridge[i] < ridge[i + 1] for i in range(len(ridge) - 1))
        assert universal_gap() - ridge[-1] < 1e-4


class TestAsymptotesAndFeedback:
    def test_branch_agreement_at_q2(self):
        for p in (10.0, 1.0e6):
            assert high_sinr_asymptote(p, 2.0) == pytest.approx(
                0.5 * math.log2(p / 2.0), abs=1e-12
            )

    def test_convergence_to_lower_bound(self):
        assert high_sinr_asymptote(1.0e6, 8.0) == pytest.approx(8.965784284662087, abs=1e-12)
        assert abs(lower_bound(1.0e6, 8.0) - high_sinr_asymptote(1.0e6, 8.0)) <= 0.01
        assert abs(lower_bound(1.0e6, 1.0) - high_sinr_asymptote(1.0e6, 1.0)) <= 0.01


class TestSpecType:
    def test_validation(self):
        assert PowerSplit(1.0, 2.0).total == 3.0
        with pytest.raises(ValueError):
            PowerSplit(-1.0, 2.0)
        with pytest.raises(ValueError):
            PowerSplit(1.0, -1e-9)

    def test_at_rho_guards(self):
        assert upper_i_at_rho(1.0, 0.0, 1.0) == math.inf
        assert upper_ii_at_rho(1.0, 1.0, -1.0) == math.inf


ARRAY_POWERS = (0.0, 0.1, 2.0, 1e4, 1e300)


def assert_matches_elementwise(values, scalar_at):
    """values, computed from an array, equal scalar_at(i) for every element
    to 1e-12 relative; infinities must match exactly."""
    assert isinstance(values, np.ndarray)
    for i, value in enumerate(values):
        expected = scalar_at(i)
        assert math.isclose(value, expected, rel_tol=1e-12), (i, value, expected)


class TestArrayObjectives:
    """Every objective minimize_scalar scans takes a float or a 1-D array."""

    # [-1, 1], whose ends are closed, plus points outside it: closed ones,
    # and 5e3, which is open for Q >= 1e4
    RHOS = np.concatenate([np.linspace(-1.0, 1.0, 2001), [-3.0, 1.5, 5e3]])

    @pytest.mark.parametrize("objective", [upper_i_at_rho, upper_ii_at_rho])
    def test_rho_objective_array_matches_scalar(self, objective):
        for p in ARRAY_POWERS:
            for q in ARRAY_POWERS:
                with np.errstate(all="raise"):
                    values = objective(p, q, self.RHOS)
                assert values[0] == math.inf  # rho = -1 closes 1 + rho
                assert_matches_elementwise(values, lambda i: objective(p, q, float(self.RHOS[i])))
        # rho = 1 closes Q/2 + 1 - rho (upper-I) and Q + 1 - rho (upper-II) at Q = 0
        assert upper_i_at_rho(1.0, 0.0, self.RHOS)[2000] == math.inf
        assert upper_ii_at_rho(1.0, 0.0, self.RHOS)[2000] == math.inf

    def test_split_rate_array_matches_scalar(self):
        share = np.linspace(0.0, 1.0, 2001)
        for p in ARRAY_POWERS:
            for q in ARRAY_POWERS:
                p_d = share * p
                with np.errstate(all="raise"):
                    values = gaussian._split_rate(np, p - p_d, p_d, q)
                assert_matches_elementwise(
                    values,
                    lambda i: gaussian._split_rate(
                        gaussian._FLOAT_OPS, float(p - p_d[i]), float(p_d[i]), q
                    ),
                )

    def test_power_split_objective_array_matches_scalar(self, monkeypatch):
        objectives = []

        def spy(f, domain):
            objectives.append(f)
            return minimize_scalar(f, domain)

        monkeypatch.setattr(gaussian, "minimize_scalar", spy)
        shares = np.linspace(0.0, 1.0, 2001)
        for p in ARRAY_POWERS:
            for q in ARRAY_POWERS:
                maximize_power_split(p, q)
                (negated_rate,) = objectives
                objectives.clear()
                # at Q = 1e300 a last-ulp P_A = P - P_D underflows P_A/(P_D+Q/2+1)
                # to a subnormal, as the float path does; numpy ignores that
                # by default and the rate is exact
                with np.errstate(all="raise", under="ignore"):
                    values = negated_rate(shares)
                assert_matches_elementwise(values, lambda i: negated_rate(float(shares[i])))


GUARDED = {
    "awgn_capacity": (awgn_capacity, ("P",)),
    "rate_timeshare": (rate_timeshare, ("P",)),
    "rate_interference_as_noise": (rate_interference_as_noise, ("P", "Q")),
    "upper_i": (upper_i, ("P", "Q")),
    "upper_ii": (upper_ii, ("P", "Q")),
    "lower_bound": (lower_bound, ("P", "Q")),
    "maximize_power_split": (maximize_power_split, ("P", "Q")),
    "minimize_upper_i_rho": (minimize_upper_i_rho, ("P", "Q")),
    "minimize_upper_ii_rho": (minimize_upper_ii_rho, ("P", "Q")),
    "rate_of_split": (lambda q: rate_of_split(PowerSplit(1.0, 1.0), q), ("Q",)),
    "dpc_covariance": (lambda q: dpc_covariance(PowerSplit(1.0, 1.0), q), ("Q",)),
    "upper_k_raw": (lambda p, q: upper_k_raw(p, q, 3), ("P", "Q")),
    "high_sinr_asymptote": (high_sinr_asymptote, ("P", "Q")),
    "PowerSplit": (PowerSplit, ("P_A", "P_D")),
    "CorrelatedSpec": (correlated.CorrelatedSpec, ("P", "Q1", "Q2", "Qd")),
    "from_scaled": (lambda q0: correlated.CorrelatedSpec.from_scaled(1.0, 1.0, 1.0, q0), ("Q0",)),
    "t_of_qd": (correlated.t_of_qd, ("Qd",)),
    "lower_beta": (correlated.lower_beta, ("P", "Qd")),
    "high_sinr_gap_beta": (correlated.high_sinr_gap_beta, ("P", "Qd")),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "name, index",
    [(name, i) for name, (_, args) in GUARDED.items() for i in range(len(args))],
    ids=[f"{name}-{arg}" for name, (_, args) in GUARDED.items() for arg in args],
)
def test_non_finite_arguments_are_rejected_by_name(name, index, bad):
    func, names = GUARDED[name]
    args = [bad if i == index else 1.0 for i in range(len(names))]
    with pytest.raises(ValueError, match=f"^{names[index]} must be finite and nonnegative"):
        func(*args)
