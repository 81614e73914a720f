"""Tests for the binary multicast bounds and the binning-rate evaluator."""

import math
import re
import time

import numpy as np
import pytest
import test_api as api

from dirtycast.binary import (
    BinaryChannelSpec,
    capacity_achieving_joint,
    capacity_two_user,
    gp_rate,
    joint_xor_entropy,
    joint_xor_entropy_brute,
    lower_bound_k,
    noisy_two_user_bounds,
    rate_ignore_side_info,
    rate_timeshare,
    upper_bound_k,
    xor_channel,
    xor_convolve,
)
from dirtycast.core import InvalidDistributionError, JointPmf, binary_entropy
from dirtycast.simulate import SchemeRun, simulate_scheme

ASYMMETRIC_PAIRS = (
    JointPmf({(0, 0): 0.5, (0, 1): 0.2, (1, 0): 0.1, (1, 1): 0.2}),
    JointPmf({(0, 0): 0.05, (0, 1): 0.65, (1, 0): 0.05, (1, 1): 0.25}),
)


class TestSpecValidation:
    def test_bad_probabilities(self):
        for constructor in (BinaryChannelSpec.iid, BinaryChannelSpec.fully_correlated):
            with pytest.raises(ValueError, match="interference probability"):
                constructor(1.5)
        with pytest.raises(ValueError):
            BinaryChannelSpec.iid(0.2, noise_q=-0.1)
        with pytest.raises(ValueError):
            BinaryChannelSpec(3, ASYMMETRIC_PAIRS[0])
        with pytest.raises(ValueError):
            BinaryChannelSpec.pair_joint(JointPmf({(0, 2): 1.0}))

    def test_pair_law_is_derived_from_q(self):
        spec = BinaryChannelSpec.iid(0.25, k=3)
        assert spec.pair == JointPmf({(0, 0): 0.5625, (0, 1): 0.1875, (1, 0): 0.1875, (1, 1): 0.0625})
        assert spec == BinaryChannelSpec.iid(0.25, k=3) != BinaryChannelSpec.pair_joint(spec.pair)
        for both_or_neither in ({"pair": spec.pair, "q": 0.25}, {}):
            with pytest.raises(ValueError, match="exactly one"):
                BinaryChannelSpec(2, **both_or_neither)

    @pytest.mark.parametrize("q, noise_q, bad", [
        (np.array([0.2, 1.5, -1.0]), None, "interference probability must lie in [0, 1], got 1.5"),
        (np.array([[0.2], [math.nan]]), None,
         "interference probability must lie in [0, 1], got nan"),
        (0.2, np.array([0.0, -0.5]), "noise crossover must lie in [0, 1], got -0.5"),
        ([0.2, 0.3], None, "interference probability must be a float or a NumPy array, got list"),
    ])
    def test_array_names_its_first_bad_entry(self, q, noise_q, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(bad)}$"):
            BinaryChannelSpec.iid(q, noise_q=noise_q)

    def test_one_channel_callers_refuse_an_array_spec(self):
        sweep = BinaryChannelSpec.iid(np.array([0.1, 0.2]))
        run = SchemeRun(n=8, rate=0.5, trials=2, seed=1)
        for call, caller in ((lambda: simulate_scheme(sweep, run), "simulate_scheme"),
                             (lambda: capacity_achieving_joint(sweep), "capacity_achieving_joint"),
                             (lambda: BinaryChannelSpec.fully_correlated(sweep.q),
                              "fully_correlated")):
            with pytest.raises(ValueError, match=f"^{caller} needs one channel, got an array q "
                                                 r"of shape \(2,\)$"):
                call()
        noisy = BinaryChannelSpec.iid(0.2, noise_q=np.array([0.0, 0.1]))
        with pytest.raises(ValueError, match="got an array noise_q of shape"):
            simulate_scheme(noisy, run)
        # a joint of array probabilities is the law of an array q
        joint = JointPmf._of_valid({(0, 0, 0, 0, 0): np.array([1.0, 1.0])})
        with pytest.raises(ValueError, match="array q"):
            gp_rate(joint, TestGpRate.CHANNELS)

    def test_array_spec_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(BinaryChannelSpec.iid(np.array([0.1, 0.2])))

    def test_marginals(self):
        spec = BinaryChannelSpec.pair_joint(ASYMMETRIC_PAIRS[0])
        assert spec.marginal_one_probabilities() == pytest.approx((0.3, 0.4))
        flip = BinaryChannelSpec.fully_correlated(0.2, flip=True)
        assert flip.marginal_one_probabilities() == pytest.approx((0.2, 0.8))


class TestCapacityTwoUser:
    def test_examples(self):
        assert capacity_two_user(BinaryChannelSpec.iid(0.5)) == 0.5
        assert capacity_two_user(BinaryChannelSpec.iid(0.0)) == 1.0
        got = capacity_two_user(BinaryChannelSpec.iid(0.25))
        assert got == pytest.approx(0.5227829985375174, abs=1e-12)
        # fig2's four endpoint values take under 1 ms, best of two passes
        elapsed = []
        for _ in range(2):
            start = time.perf_counter()
            capacity_two_user(BinaryChannelSpec.iid(0.0))
            capacity_two_user(BinaryChannelSpec.iid(0.5))
            rate_timeshare(2)
            rate_ignore_side_info(BinaryChannelSpec.iid(0.5))
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 1e-3

    def test_fully_dependent_is_clean(self):
        for flip in (False, True):
            spec = BinaryChannelSpec.fully_correlated(0.37, flip=flip)
            assert capacity_two_user(spec) == 1.0

    def test_noise_rejected(self):
        with pytest.raises(ValueError):
            capacity_two_user(BinaryChannelSpec.iid(0.2, noise_q=0.05))
        # explicit zero noise is still the noiseless channel
        assert capacity_two_user(BinaryChannelSpec.iid(0.2, noise_q=0.0)) > 0

    def test_requires_two_users(self):
        with pytest.raises(ValueError, match="requires K=2"):
            capacity_two_user(BinaryChannelSpec.iid(0.2, k=3))


class TestBaselines:
    def test_timeshare(self):
        assert rate_timeshare(1) == 1.0
        assert rate_timeshare(2) == 0.5
        assert rate_timeshare(3) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_ignore_side_info(self):
        assert rate_ignore_side_info(BinaryChannelSpec.iid(0.0)) == 1.0
        assert rate_ignore_side_info(BinaryChannelSpec.iid(0.5)) == 0.0
        assert rate_ignore_side_info(BinaryChannelSpec.iid(0.11)) == pytest.approx(
            0.500084041835472, abs=1e-12
        )

    def test_ignore_side_info_uses_worst_marginal(self):
        spec = BinaryChannelSpec.pair_joint(ASYMMETRIC_PAIRS[0])  # marginals 0.3, 0.4
        assert rate_ignore_side_info(spec) == pytest.approx(1.0 - binary_entropy(0.4), abs=1e-12)


class TestKUserBounds:
    def test_k2_reduces_to_capacity(self):
        for q in np.linspace(0.0, 0.5, 11):
            spec = BinaryChannelSpec.iid(float(q), k=2)
            assert upper_bound_k(spec) == pytest.approx(capacity_two_user(spec), abs=1e-12)

    def test_frozen_point(self):
        spec = BinaryChannelSpec.iid(0.25, k=3)
        # brute-force four-pattern enumeration gives H = 1.8802408149441479
        assert upper_bound_k(spec) == pytest.approx(0.37325306168528405, abs=1e-12)
        assert lower_bound_k(spec) == pytest.approx(0.3637106647166899, abs=1e-12)
        assert lower_bound_k(BinaryChannelSpec.iid(0.0, k=3)) == 1.0

    def test_weight_enumeration_vs_bruteforce(self):
        for k in (2, 3, 4, 7, 10, 12, 16, 20):
            for q in (0.0, 0.07, 0.25, 0.5, 0.66, 1.0):
                assert joint_xor_entropy(k, q) == pytest.approx(
                    joint_xor_entropy_brute(k, q), abs=1e-12
                )
        with pytest.raises(ValueError, match="2 <= K <= 24"):
            joint_xor_entropy_brute(25, 0.25)

    def test_limit_at_any_k(self):
        # (K-1) H(q) <= H(S1^S2, ..., S1^SK) <= K H(q), so the bound exceeds
        # 1 - H(q) by at most H(q)/K; 1e-12 allows for rounding
        for k in (2, 3, 64, 65, 1200, 3000, 10_000):
            for q in (1e-300, 0.01, 0.25, 0.5, 0.9):
                h = binary_entropy(q)
                gap = upper_bound_k(BinaryChannelSpec.iid(q, k=k)) - (1.0 - h)
                assert -1e-12 <= gap <= h / k + 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            upper_bound_k(BinaryChannelSpec.pair_joint(ASYMMETRIC_PAIRS[0]))
        with pytest.raises(ValueError):
            lower_bound_k(BinaryChannelSpec.fully_correlated(0.1))
        noisy = BinaryChannelSpec.iid(0.2, k=3, noise_q=0.1)
        for bound in (upper_bound_k, lower_bound_k):
            with pytest.raises(ValueError, match="noiseless"):
                bound(noisy)


class TestNoisyBounds:
    def test_zero_noise_reduces_to_capacity(self):
        spec = BinaryChannelSpec.iid(0.25, noise_q=0.0)
        lo, hi = noisy_two_user_bounds(spec)
        cap = capacity_two_user(spec)
        assert lo == pytest.approx(cap, abs=1e-12)
        assert hi == pytest.approx(cap, abs=1e-12)

    def test_frozen_point(self):
        # q' * p convolution: 0.375 (*) 0.1 = 0.4
        assert xor_convolve(0.375, 0.1) == pytest.approx(0.4, abs=1e-15)
        lo, hi = noisy_two_user_bounds(BinaryChannelSpec.iid(0.25, noise_q=0.1))
        assert lo == pytest.approx(0.2800269059780251, abs=1e-12)
        assert hi == pytest.approx(0.2882852017428768, abs=1e-12)
        assert lo <= hi

    def test_requires_noise(self):
        with pytest.raises(ValueError):
            noisy_two_user_bounds(BinaryChannelSpec.iid(0.25))


class TestGpRate:
    CHANNELS = (xor_channel(1), xor_channel(2))

    def test_independent_auxiliary_gives_zero(self):
        atoms = {}
        for u in (0, 1):
            for a in (0, 1):
                for s in (0, 1):
                    for x in (0, 1):
                        atoms[(u, a, s, s, x)] = 0.5 * 0.5 * 0.5 * 0.5
        # U independent of everything else; S1=S2 fair
        assert gp_rate(JointPmf(atoms), self.CHANNELS) == pytest.approx(0.0, abs=1e-12)

    def test_clean_channel_identity_auxiliary(self):
        atoms = {(x, 0, 0, 0, x): 0.5 for x in (0, 1)}
        assert gp_rate(JointPmf(atoms), self.CHANNELS) == pytest.approx(1.0, abs=1e-12)

    def test_auxiliary_is_independent_of_state(self):
        joint = capacity_achieving_joint(BinaryChannelSpec.iid(0.25))
        assert joint.mutual_information((0,), (2, 3)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("user, message", [
        (0, "user must be 1 or 2"), (3, "user must be 1 or 2"),
        (1.0, "user must be an integer, got 1.0"), (2.0, "user must be an integer, got 2.0"),
        (1.5, "user must be an integer, got 1.5"),
    ])
    def test_channel_user_is_checked(self, user, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            xor_channel(user)

    def test_invalid_channel_rejected(self):
        joint = capacity_achieving_joint(BinaryChannelSpec.iid(0.25))
        broken = lambda x, s1, s2: {x ^ s1: 0.5}
        with pytest.raises(InvalidDistributionError):
            gp_rate(joint, (broken,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            gp_rate(JointPmf({(0, 0): 1.0}), self.CHANNELS)


# clauses 1, 2, 3 and 5 of tests/test_api.py over core's and binary's rows
@api.refusal_cases(api.BINARY)
def test_non_finite_arguments_are_rejected_by_name(row, values, arg):
    api.assert_refused(row, values, arg)


@api.list_cases(api.BINARY)
def test_list_arguments_are_rejected_by_name(row, arg):
    api.assert_list_refused(row, arg)


@api.float_cases(api.BINARY)
def test_float_arguments_give_python_floats(row):
    api.assert_floats(row)


# a sweep takes the same NumPy path as a float, for each K from the smallest
# to a large one
@api.array_cases(api.BINARY, each_k=True)
def test_array_call_equals_float_calls(row, scalars):
    api.assert_array_matches_floats(row, scalars)


def test_weight_classes_match_the_scalar_loop():
    # the reference: the weight classes one at a time in math, summed in weight
    # order; the array pass sums pairwise and takes NumPy's logs, so the two
    # agree to rounding, not bit for bit
    def loop(k, q):
        m, log_q, log_r = k - 1, math.log(q), math.log1p(-q)
        log_comb = posterior = 0.0
        for w in range(m + 1):
            if w:
                log_comb += math.log((m - w + 1) / w)
            a = (m + 1 - w) * log_r + w * log_q
            b = (m + 1 - w) * log_q + w * log_r
            a, b = max(a, b), min(a, b)
            tail = math.exp(b - a)
            spread = math.log1p(tail)
            posterior += math.exp(log_comb + a + spread) * (spread + (a - b) * tail / (1.0 + tail))
        h = -(q * math.log2(q) + (1 - q) * math.log2(1 - q))
        return k * h - posterior / math.log(2.0)

    q = np.array([p for p in api.SWEEP_Q if 0.0 < p < 1.0])
    for k in (2, 3, 10, 64):
        want = np.array([loop(k, float(p)) for p in q])
        assert np.max(np.abs(joint_xor_entropy(k, q) - want)) <= 1e-14
