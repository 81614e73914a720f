"""Tests for the Gaussian bounds: closed forms vs numeric oracles, branch
seams, asymptotics, the DPC covariance oracle and the gap analysis."""

import math

import numpy as np
import pytest

from dirtycast import core, correlated, gaussian, verify
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

    def test_regional_maximum_low_q(self):
        # gaussian-universal-gap pins this value at (P*, Q=2) on a coarser sweep
        regional = 0.5 * math.log2((5.0 + math.sqrt(17.0)) / 4.0)
        sweep = gap(np.linspace(0.01, 10.0, 150)[:, None], np.linspace(0.0, 2.0, 101)).max()
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

    def test_asymptote_array_matches_float(self):
        powers, inrs = [1e-300, 1e-3, 1e2, 1e300], [0.0, 2.0, 8.0, 1e300]
        # P/sqrt(2Q) underflows to 0 here, so the logs are taken apart
        expect = 0.5 * (math.log2(1e-300) - 0.5 * math.log2(2e300))
        assert high_sinr_asymptote(1e-300, 1e300) == pytest.approx(expect, rel=1e-15)
        assert expect == pytest.approx(-747.6838213496566, rel=1e-15)
        grid = high_sinr_asymptote(np.array(powers)[:, None], np.array(inrs))
        points = [(p, q) for p in powers for q in inrs]
        assert_matches_elementwise(grid.ravel(), lambda i: high_sinr_asymptote(*points[i]))
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
    """Every objective minimize_scalar scans gives, on an array, the values
    of its float formula."""

    # [-1, 1], whose ends are closed, plus points outside it: closed ones,
    # and 5e3, which is open for Q >= 1e4
    RHOS = np.concatenate([np.linspace(-1.0, 1.0, 2001), [-3.0, 1.5, 5e3]])

    @pytest.mark.parametrize("objective", [upper_i_at_rho, upper_ii_at_rho])
    def test_rho_objective_array_matches_scalar(self, objective):
        rhos = self.RHOS
        for q in ARRAY_POWERS:
            with np.errstate(all="raise"):
                # a column of P against the rho row: one row of values per P
                rows = objective(np.array(ARRAY_POWERS)[:, None], q, rhos)
                for p, row in zip(ARRAY_POWERS, rows):
                    values = objective(p, q, rhos)
                    assert values[0] == math.inf  # rho = -1 closes 1 + rho
                    assert_matches_elementwise(values, lambda i: objective(p, q, float(rhos[i])))
                    assert row.tolist() == values.tolist()
        # rho = 1 closes Q/2 + 1 - rho (upper-I) and Q + 1 - rho (upper-II) at Q = 0
        assert upper_i_at_rho(1.0, 0.0, self.RHOS)[2000] == math.inf
        assert upper_ii_at_rho(1.0, 0.0, self.RHOS)[2000] == math.inf

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

    @pytest.mark.parametrize("bound", [
        lambda p, q: awgn_capacity(p), lambda p, q: rate_timeshare(p), rate_interference_as_noise,
        upper_i, upper_ii, upper_envelope, lower_bound, gap,
        lambda p, q: upper_k_raw(p, q, 3), lambda p, q: upper_k(p, q, 3),
        # correlated's bounds, with Q as the spread Qd
        lambda p, qd: correlated.t_of_qd(qd), correlated.lower_beta,
        lambda p, qd: correlated.upper_correlated(p, qd / 4.0, qd / 4.0, qd),
        lambda p, qd: correlated.upper_correlated(p, 1e300, 1e300, qd),
        lambda p, qd: correlated.high_sinr_gap_beta(p + 1.0, qd),
        lambda p, qd: correlated.high_sinr_gap_beta(p + 1.0, qd, 1e300),
    ], ids=["awgn_capacity", "rate_timeshare", "rate_interference_as_noise",
            "upper_i", "upper_ii", "upper_envelope", "lower_bound", "gap", "upper_k_raw", "upper_k",
            "t_of_qd", "lower_beta", "upper_correlated", "upper_correlated_big_marginals",
            "high_sinr_gap_beta", "high_sinr_gap_beta_big_marginals"])
    def test_closed_form_array_matches_float(self, bound):
        powers = np.array(ARRAY_POWERS)
        with np.errstate(all="raise"):
            # a column of P against a row of Q, Q = 0 and 1e300 included
            grid = np.broadcast_to(bound(powers[:, None], powers), (len(powers),) * 2)
        points = [(p, q) for p in ARRAY_POWERS for q in ARRAY_POWERS]
        assert_matches_elementwise(grid.ravel(), lambda i: bound(*points[i]))

    def test_power_split_row_matches_float(self):
        powers = np.array(ARRAY_POWERS)
        for q in ARRAY_POWERS:
            # the scan divides P_A by P_D + Q/2 + 1, which underflows at Q = 1e300
            # for floats of P as well
            with np.errstate(all="raise", under="ignore"):
                p_a, p_d, bits = maximize_power_split(powers, q)
            assert isinstance(p_a, np.ndarray) and isinstance(p_d, np.ndarray)
            assert rate_of_split(p_a, p_d, q).tolist() == bits.tolist()
            assert_matches_elementwise(bits, lambda i: maximize_power_split(ARRAY_POWERS[i], q)[2])

    def test_split_rate_array_matches_scalar(self):
        share = np.linspace(0.0, 1.0, 2001)
        for p in ARRAY_POWERS:
            for q in ARRAY_POWERS:
                p_d = share * p
                with np.errstate(all="raise"):
                    values = rate_of_split(p - p_d, p_d, q)
                assert_matches_elementwise(
                    values, lambda i: rate_of_split(float(p - p_d[i]), float(p_d[i]), q))


def _row(bound):
    """bound with each argument in an array beside a valid entry."""
    return lambda *args: bound(*(np.array([1.0, a]) for a in args))


def _grid(optimize):
    """optimize on a 2x2 (P, Q) grid, P down and Q across, whose second P and
    second Q are the arguments."""
    return lambda p, q: optimize(np.array([[1.0], [p]]), np.array([1.0, q]))


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
    "minimize_upper_i_rho_row": (lambda p, q: minimize_upper_i_rho(np.array([1, p]), q), ("P", "Q")),
    "minimize_upper_ii_rho_row": (lambda p, q: minimize_upper_ii_rho(np.array([p, 1]), q), ("P", "Q")),
    "maximize_power_split_row": (lambda p, q: maximize_power_split(np.array([1, p]), q), ("P", "Q")),
    **{f"{func.__name__}_grid": (_grid(func), ("P", "Q"))
       for func in (minimize_upper_i_rho, minimize_upper_ii_rho, maximize_power_split)},
    "upper_envelope": (upper_envelope, ("P", "Q")),
    "gap": (gap, ("P", "Q")),
    "rho_upper_i": (gaussian.rho_upper_i, ("Q",)),
    "rho_upper_ii": (gaussian.rho_upper_ii, ("Q",)),
    **{f"{func.__name__}_row": (_row(func), tuple(names.split())) for func, names in (
        (awgn_capacity, "P"), (rate_timeshare, "P"), (rate_interference_as_noise, "P Q"),
        (upper_i, "P Q"), (upper_ii, "P Q"), (upper_envelope, "P Q"), (lower_bound, "P Q"),
        (gap, "P Q"), (gaussian.rho_upper_i, "Q"), (gaussian.rho_upper_ii, "Q"),
        (rate_of_split, "P_A P_D Q"), (correlated.t_of_qd, "Qd"), (correlated.lower_beta, "P Qd"),
        (correlated.upper_correlated, "P Q1 Q2 Qd"), (correlated.high_sinr_gap_beta, "P Qd Q"),
    )},
    "scaled_powers_row": (_row(lambda q0: correlated.scaled_powers(1.0, 1.0, q0)), ("Q0",)),
    "rate_of_split": (lambda q: rate_of_split(1.0, 1.0, q), ("Q",)),
    "dpc_covariance": (dpc_covariance, ("P_A", "P_D", "Q")),
    "dpc_scheme_oracle_row": (_row(dpc_scheme_oracle), ("P_A", "P_D", "Q")),
    "upper_k_raw": (lambda p, q: upper_k_raw(p, q, 3), ("P", "Q")),
    "high_sinr_asymptote": (high_sinr_asymptote, ("P", "Q")),
    # argument groups, each checked by the function that takes them
    "PowerSplit": (lambda p_a, p_d: rate_of_split(p_a, p_d, 1.0), ("P_A", "P_D")),
    "CorrelatedSpec": (correlated.upper_correlated, ("P", "Q1", "Q2", "Qd")),
    "from_scaled": (lambda q0: correlated.scaled_powers(1.0, 1.0, q0), ("Q0",)),
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


@pytest.mark.parametrize(
    "name, index",
    # a _row or _grid entry builds an array from each argument, so a list never
    # reaches the function
    [(name, i) for name, (_, args) in GUARDED.items() if not name.endswith(("_row", "_grid"))
     for i in range(len(args))],
    ids=[f"{name}-{arg}" for name, (_, args) in GUARDED.items()
         if not name.endswith(("_row", "_grid")) for arg in args],
)
def test_list_arguments_are_rejected_by_name(name, index):
    func, names = GUARDED[name]
    args = [[1.0, 2.0] if i == index else 1.0 for i in range(len(names))]
    with pytest.raises(ValueError, match=f"^{names[index]} must be a float or a NumPy array, "
                                         "got list$"):
        func(*args)


# every public function of gaussian and correlated, at Python floats, with
# the names it checks
FLOAT_CALLS = {
    "awgn_capacity": (lambda: awgn_capacity(1.0), ["P"]),
    "rate_timeshare": (lambda: rate_timeshare(1.0), ["P"]),
    "rate_interference_as_noise": (lambda: rate_interference_as_noise(1.0, 2.0), ["P", "Q"]),
    "upper_i": (lambda: upper_i(1.0, 2.0), ["P", "Q"]),
    "upper_ii": (lambda: upper_ii(1.0, 0.0), ["P", "Q"]),
    "upper_envelope": (lambda: upper_envelope(1.0, 2.0), ["P", "Q"]),
    "lower_bound": (lambda: lower_bound(1.0, 2.0), ["P", "Q"]),
    "gap": (lambda: gap(1.0, 2.0), ["P", "Q"]),
    "high_sinr_asymptote": (lambda: high_sinr_asymptote(1.0, 3.0), ["P", "Q"]),
    "upper_i_at_rho": (lambda: (upper_i_at_rho(1.0, 2.0, 0.5), upper_i_at_rho(1.0, 2.0, -1.0)), []),
    "upper_ii_at_rho": (lambda: (upper_ii_at_rho(1.0, 2.0, 0.5), upper_ii_at_rho(1.0, 2.0, 3.0)), []),
    "rho_upper_i": (lambda: gaussian.rho_upper_i(2.0), ["Q"]),
    "rho_upper_ii": (lambda: gaussian.rho_upper_ii(2.0), ["Q"]),
    "rate_of_split": (lambda: rate_of_split(1.0, 2.0, 2.0), ["P_A", "P_D", "Q"]),
    "maximize_power_split": (lambda: maximize_power_split(1.0, 2.0), ["P", "Q"]),
    "minimize_upper_i_rho": (lambda: minimize_upper_i_rho(1.0, 2.0), ["P", "Q"]),
    "minimize_upper_ii_rho": (lambda: minimize_upper_ii_rho(1.0, 2.0), ["P", "Q"]),
    "dpc_scheme_oracle": (lambda: dpc_scheme_oracle(1.0, 2.0, 2.0), ["P_A", "P_D", "Q"]),
    "upper_k_raw": (lambda: upper_k_raw(1.0, 2.0, 3), ["K", "P", "Q"]),
    "upper_k": (lambda: upper_k(1.0, 2.0, 3), ["K", "P", "Q"]),
    "universal_gap": (universal_gap, []),
    "lower_beta": (lambda: correlated.lower_beta(1.0, 2.0), ["P", "Qd"]),
    "t_of_qd": (lambda: correlated.t_of_qd(2.0), ["Qd"]),
    "upper_correlated": (lambda: correlated.upper_correlated(1.0, 2.0, 2.0, 3.0),
                         ["Qd", "P", "Q1", "Q2"]),
    "high_sinr_gap_beta": (lambda: correlated.high_sinr_gap_beta(1.0, 2.0), ["P", "Qd", "Q"]),
    "scaled_powers": (lambda: correlated.scaled_powers(1.0, -1.0, 2.0), ["Q0", "Qd", "Q1", "Q2"]),
}


# those calls, and the optimizers on a (P, Q) grid, which check P and Q once each
CHECKED_CALLS = {
    **FLOAT_CALLS,
    **{f"{func.__name__}_grid": (lambda func=func: _grid(func)(2.0, 0.5), ["P", "Q"])
       for func in (minimize_upper_i_rho, minimize_upper_ii_rho, maximize_power_split)},
}


@pytest.mark.parametrize("name", CHECKED_CALLS)
def test_each_argument_is_checked_once_per_call(monkeypatch, name):
    checked = []

    def recording(check):
        def record(*pairs):
            checked.extend(pairs[::2])
            check(*pairs)
        return record

    for module, check in ((gaussian, "_check_nonnegative"), (gaussian, "_check_integer"),
                          (correlated, "_check_nonnegative")):
        monkeypatch.setattr(module, check, recording(getattr(module, check)))
    call, names = CHECKED_CALLS[name]
    call()
    assert checked == names


def _numbers(result):
    """The numbers of a result: its entries, and those of its tuples."""
    return [x for r in result for x in _numbers(r)] if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("name", FLOAT_CALLS)
def test_float_arguments_give_python_floats(name):
    # not np.float64 nor a 0-d array: the CLI and verify's messages print their repr
    for value in _numbers(FLOAT_CALLS[name][0]()):
        assert type(value) is float, type(value)
