"""Tests for the Gaussian bounds: closed forms vs numeric oracles, branch
seams, asymptotics, the DPC covariance oracle and the gap analysis."""

import math

import numpy as np
import pytest
import test_api as api

from dirtycast import core, verify
from dirtycast.gaussian import (
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

# the objectives minimize_scalar scans
OBJECTIVES = ("upper_i_at_rho", "upper_ii_at_rho")


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
        assert rate_of_split(6.0, 0.0, 4.0) == pytest.approx(0.5 * math.log2(3.0), abs=1e-12)
        assert rate_of_split(0.0, 6.0, 4.0) == pytest.approx(0.25 * math.log2(7.0), abs=1e-12)
        assert rate_of_split(4.0, 2.0, 2.0) == pytest.approx(0.896240625180289, abs=1e-12)

    def test_closed_form_matches_grid_search(self):
        # the sweep reaches optimal P_D many decades below P, e.g. 5e9 at
        # (P, Q) = (1e100, 1e10)
        sweep = np.array((0.0, 1e-300, 1e-3, 1.0, 3.0, 10.0, 1e4, 1e10, 1e100, 1e300))
        for q in sweep.tolist():  # one P row per call
            p_a, p_d, numeric = maximize_power_split(sweep, q)
            closed = lower_bound(sweep, q)
            assert np.all(np.abs(closed - numeric) <= 1e-12 * np.maximum(1.0, closed)), q
            assert p_a + p_d == pytest.approx(sweep, rel=1e-12, abs=0)


class TestDpcOracle:
    def test_frozen_point(self):
        r_a, r_d = dpc_scheme_oracle(4.0, 2.0, 2.0)
        assert r_a == pytest.approx(0.5, abs=1e-9)
        assert r_d == pytest.approx(0.5 * math.log2(3.0), abs=1e-9)

    def test_degenerate_splits(self):
        r_a, r_d = dpc_scheme_oracle(0.0, 2.0, 2.0)
        assert r_a == 0.0
        assert r_d == pytest.approx(0.5 * math.log2(3.0), abs=1e-9)
        r_a, r_d = dpc_scheme_oracle(4.0, 0.0, 2.0)
        assert r_a == pytest.approx(0.5 * math.log2(3.0), abs=1e-9)
        assert r_d == 0.0

    def test_array_split_matches_float_entry_by_entry(self):
        row = maximize_power_split(np.array([1.0, 10.0]), 4.0)[:2]
        # P_A = 0, P_D = 0 and Q = 0 entries, alone and together
        degenerate = (np.array([0.0, 4.0, 4.0, 0.0, 3.0]), np.array([2.0, 0.0, 2.0, 2.0, 0.0]))
        for split, q in ((row, 4.0), (degenerate, np.array([2.0, 2.0, 0.0, 0.0, 0.0]))):
            with np.errstate(all="raise"):
                r_a, r_d = dpc_scheme_oracle(*split, q)
                cov, _ = dpc_covariance(*split, q)
            for i, q_i in enumerate(np.broadcast_to(q, r_a.shape).tolist()):
                single = (float(split[0][i]), float(split[1][i]), q_i)
                assert (r_a[i], r_d[i]) == dpc_scheme_oracle(*single)
                assert (cov.matrix[i] == dpc_covariance(*single)[0].matrix).all()
            assert np.all(np.abs(r_a + 0.5 * r_d - rate_of_split(*split, q)) < 1e-12)
        assert r_a[0] == 0.0 and r_a[3] == 0.0 and r_d[1] == 0.0 and r_d[4] == 0.0

    def test_scheme_rate_is_achieved_at_the_optimal_split(self):
        p, q = 10.0, 4.0
        p_a, p_d, _ = maximize_power_split(p, q)
        r_a, r_d = dpc_scheme_oracle(p_a, p_d, q)
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
        for k in (2.5, 3.0):
            with pytest.raises(ValueError, match=f"^K must be an integer, got {k}"):
                upper_k(10.0, 100.0, k)


class TestGapAnalysis:
    def test_universal_constant(self):
        assert universal_gap() == pytest.approx(0.7715533031636119, abs=1e-15)

    def test_gap_vanishes_without_interference(self):
        for p in (0.3, 5.0, 800.0):
            assert gap(p, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_gap_is_nonnegative_where_the_bounds_round_across(self):
        # upper_ii - lower_bound rounds to -1.2e-14 and -5.7e-14 at these points
        for p, q in ((1e10, 1e300), (1e160, 1e5)):
            assert gap(p, q) >= 0.0
        assert np.all(gap(np.array([1e10, 1e160]), np.array([1e300, 1e5])) >= 0.0)

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

    def test_asymptote_array_matches_float(self):
        # P/sqrt(2Q) underflows to 0 here, so the logs are taken apart
        expect = 0.5 * (math.log2(1e-300) - 0.5 * math.log2(2e300))
        assert high_sinr_asymptote(1e-300, 1e300) == pytest.approx(expect, rel=1e-15)
        assert expect == pytest.approx(-747.6838213496566, rel=1e-15)
        with pytest.raises(ValueError, match="^P must be positive"):
            high_sinr_asymptote(np.array([1.0, 0.0]), 2.0)


class TestSpecType:
    def test_validation(self):
        # a power split is two plain arguments, checked by each function that takes them
        with pytest.raises(ValueError, match="^P_A must be finite and nonnegative, got -1.0"):
            dpc_covariance(-1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="^P_D must be finite and nonnegative, got -1e-09"):
            dpc_scheme_oracle(np.array([1.0, 1.0]), np.array([2.0, -1e-9]), 1.0)

    def test_at_rho_guards(self):
        # rho = -1 closes 1 + rho; rho = 1 closes Q/2 + 1 - rho (upper-I) and
        # Q + 1 - rho (upper-II) at Q = 0
        for objective in (upper_i_at_rho, upper_ii_at_rho):
            assert objective(1.0, 1.0, -1.0) == math.inf
            assert objective(1.0, 0.0, 1.0) == math.inf


ARRAY_POWERS = (0.0, 0.1, 2.0, 1e4, 1e300)


class TestArrayObjectives:
    """Every objective minimize_scalar scans, and every other Gaussian and
    correlated function, gives on an array the values of its float calls:
    clause 5 of tests/test_api.py, bit for bit."""

    @api.array_cases({name: api.GAUSSIAN[name] for name in OBJECTIVES})
    def test_rho_objective_array_matches_scalar(self, row, scalars):
        api.assert_array_matches_floats(row, scalars)

    @pytest.mark.parametrize("minimize", [minimize_upper_i_rho, minimize_upper_ii_rho])
    def test_rho_minimum_does_not_depend_on_the_scan_block(self, monkeypatch, minimize):
        # verify's two 20x21 grids, and P, Q in {0, 1e-300, 1e300}; 2**6 values
        # make blocks of one point (a batch is 9 or 420 problems), 2**15 of 78
        # points on the 20x21 grids, and 2**20 one block after the first point.
        # At Q = 0 the last block holds the closed rho = 1, the others none.
        extreme = np.array([0.0, 1e-300, 1e300])
        grids = [(np.array(verify.P_GRID)[:, None], np.array(verify.Q_GRID_LINEAR)),
                 (np.array(verify.P_GRID)[:, None], np.array(verify.Q_GRID_LOG)),
                 (extreme[:, None], extreme)]
        results = []
        for size in (2**6, 2**15, 2**20):
            monkeypatch.setattr(core, "_SCAN_VALUES", size)
            results.append([np.stack(minimize(p, q)).view(np.uint64).tolist() for p, q in grids])
        assert results[0] == results[1] == results[2]

    @api.array_cases({name: row for name, row in api.GAUSSIAN.items() if name not in OBJECTIVES})
    def test_closed_form_array_matches_float(self, row, scalars):
        api.assert_array_matches_floats(row, scalars)

    def test_power_split_row_matches_float(self):
        powers = np.array(ARRAY_POWERS)
        for q in ARRAY_POWERS:
            # the scan divides P_A by P_D + Q/2 + 1, which underflows at Q = 1e300
            # for floats of P as well
            with np.errstate(all="raise", under="ignore"):
                p_a, p_d, bits = maximize_power_split(powers, q)
            assert isinstance(p_a, np.ndarray) and isinstance(p_d, np.ndarray)
            assert rate_of_split(p_a, p_d, q).tolist() == bits.tolist()

    def test_split_rate_array_matches_scalar(self):
        # along the splits P_A + P_D = P that the power split scans
        share = np.linspace(0.0, 1.0, 2001)
        for p in ARRAY_POWERS:
            for q in ARRAY_POWERS:
                p_d = share * p
                with np.errstate(all="raise"):
                    values = rate_of_split(p - p_d, p_d, q)
                for i, value in enumerate(values):
                    expected = rate_of_split(float(p - p_d[i]), float(p_d[i]), q)
                    assert math.isclose(value, expected, rel_tol=1e-12), (i, value, expected)


# clauses 1 to 4 of tests/test_api.py over the Gaussian and correlated rows
@api.refusal_cases(api.GAUSSIAN, api.GROUPS)
def test_non_finite_arguments_are_rejected_by_name(row, values, arg):
    api.assert_refused(row, values, arg)


@api.list_cases(api.GAUSSIAN, api.GROUPS)
def test_list_arguments_are_rejected_by_name(row, arg):
    api.assert_list_refused(row, arg)


@api.float_cases(api.GAUSSIAN)
def test_float_arguments_give_python_floats(row):
    api.assert_floats(row)


@api.check_cases(api.GAUSSIAN)
def test_each_argument_is_checked_once_per_call(monkeypatch, row, values):
    api.assert_checked_once(monkeypatch, row, values)
