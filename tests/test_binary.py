"""Tests for the binary multicast bounds and the binning-rate evaluator."""

import numpy as np
import pytest

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

    def test_marginals(self):
        spec = BinaryChannelSpec.pair_joint(ASYMMETRIC_PAIRS[0])
        assert spec.marginal_one_probabilities() == pytest.approx((0.3, 0.4))
        flip = BinaryChannelSpec.fully_correlated(0.2, flip=True)
        assert flip.marginal_one_probabilities() == pytest.approx((0.2, 0.8))


class TestCapacityTwoUser:
    def test_examples(self):
        assert capacity_two_user(BinaryChannelSpec.iid(0.5)).value == 0.5
        assert capacity_two_user(BinaryChannelSpec.iid(0.0)).value == 1.0
        got = capacity_two_user(BinaryChannelSpec.iid(0.25))
        assert got.value == pytest.approx(0.5227829985375174, abs=1e-12)
        assert got.kind == "exact"

    def test_fully_dependent_is_clean(self):
        for flip in (False, True):
            spec = BinaryChannelSpec.fully_correlated(0.37, flip=flip)
            assert capacity_two_user(spec).value == 1.0

    def test_noise_rejected(self):
        with pytest.raises(ValueError):
            capacity_two_user(BinaryChannelSpec.iid(0.2, noise_q=0.05))
        # explicit zero noise is still the noiseless channel
        assert capacity_two_user(BinaryChannelSpec.iid(0.2, noise_q=0.0)).value > 0

    def test_requires_two_users(self):
        with pytest.raises(ValueError, match="requires K=2"):
            capacity_two_user(BinaryChannelSpec.iid(0.2, k=3))


class TestBaselines:
    def test_timeshare(self):
        assert rate_timeshare(1).value == 1.0
        assert rate_timeshare(2).value == 0.5
        assert rate_timeshare(3).value == pytest.approx(1.0 / 3.0, abs=1e-15)
        with pytest.raises(ValueError):
            rate_timeshare(0)

    def test_ignore_side_info(self):
        assert rate_ignore_side_info(BinaryChannelSpec.iid(0.0)).value == 1.0
        assert rate_ignore_side_info(BinaryChannelSpec.iid(0.5)).value == 0.0
        assert rate_ignore_side_info(BinaryChannelSpec.iid(0.11)).value == pytest.approx(
            0.500084041835472, abs=1e-12
        )

    def test_ignore_side_info_uses_worst_marginal(self):
        spec = BinaryChannelSpec.pair_joint(ASYMMETRIC_PAIRS[0])  # marginals 0.3, 0.4
        assert rate_ignore_side_info(spec).value == pytest.approx(
            1.0 - binary_entropy(0.4), abs=1e-12
        )


class TestKUserBounds:
    def test_k2_reduces_to_capacity(self):
        for q in np.linspace(0.0, 0.5, 11):
            spec = BinaryChannelSpec.iid(float(q), k=2)
            assert upper_bound_k(spec).value == pytest.approx(
                capacity_two_user(spec).value, abs=1e-12
            )

    def test_frozen_point(self):
        spec = BinaryChannelSpec.iid(0.25, k=3)
        # brute-force four-pattern enumeration gives H = 1.8802408149441479
        assert upper_bound_k(spec).value == pytest.approx(0.37325306168528405, abs=1e-12)
        assert lower_bound_k(spec).value == pytest.approx(0.3637106647166899, abs=1e-12)
        assert lower_bound_k(BinaryChannelSpec.iid(0.0, k=3)).value == 1.0

    def test_weight_enumeration_vs_bruteforce(self):
        for k in (2, 3, 4, 7, 10, 12):
            for q in (0.0, 0.07, 0.25, 0.5, 0.66, 1.0):
                assert joint_xor_entropy(k, q) == pytest.approx(
                    joint_xor_entropy_brute(k, q), abs=1e-12
                )

    def test_limit_at_any_k(self):
        # (K-1) H(q) <= H(S1^S2, ..., S1^SK) <= K H(q), so the bound exceeds
        # 1 - H(q) by at most H(q)/K; 1e-12 allows for rounding
        for k in (2, 3, 64, 65, 1200, 3000, 10_000):
            for q in (1e-300, 0.01, 0.25, 0.5, 0.9):
                h = binary_entropy(q)
                gap = upper_bound_k(BinaryChannelSpec.iid(q, k=k)).value - (1.0 - h)
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
    def test_timesharing_optimal_at_half(self):
        for p in (0.0, 0.05, 0.2, 0.5):
            lo, hi = noisy_two_user_bounds(BinaryChannelSpec.iid(0.5, noise_q=p))
            expect = 0.5 * (1.0 - binary_entropy(p))
            assert lo.value == pytest.approx(expect, abs=1e-12)
            assert hi.value == pytest.approx(expect, abs=1e-12)

    def test_zero_noise_reduces_to_capacity(self):
        spec = BinaryChannelSpec.iid(0.25, noise_q=0.0)
        lo, hi = noisy_two_user_bounds(spec)
        cap = capacity_two_user(spec).value
        assert lo.value == pytest.approx(cap, abs=1e-12)
        assert hi.value == pytest.approx(cap, abs=1e-12)

    def test_frozen_point(self):
        # q' * p convolution: 0.375 (*) 0.1 = 0.4
        assert xor_convolve(0.375, 0.1) == pytest.approx(0.4, abs=1e-15)
        lo, hi = noisy_two_user_bounds(BinaryChannelSpec.iid(0.25, noise_q=0.1))
        assert lo.value == pytest.approx(0.2800269059780251, abs=1e-12)
        assert hi.value == pytest.approx(0.2882852017428768, abs=1e-12)
        assert lo.value <= hi.value

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

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.4])
    def test_construction_achieves_capacity_iid(self, q):
        spec = BinaryChannelSpec.iid(q)
        rate = gp_rate(capacity_achieving_joint(spec), self.CHANNELS)
        assert rate == pytest.approx(capacity_two_user(spec).value, abs=1e-9)

    @pytest.mark.parametrize("pair", ASYMMETRIC_PAIRS)
    def test_construction_achieves_capacity_asymmetric(self, pair):
        spec = BinaryChannelSpec.pair_joint(pair)
        rate = gp_rate(capacity_achieving_joint(spec), self.CHANNELS)
        assert rate == pytest.approx(capacity_two_user(spec).value, abs=1e-9)

    def test_auxiliary_is_independent_of_state(self):
        joint = capacity_achieving_joint(BinaryChannelSpec.iid(0.25))
        assert joint.mutual_information((0,), (2, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_channel_rejected(self):
        joint = capacity_achieving_joint(BinaryChannelSpec.iid(0.25))
        broken = lambda x, s1, s2: {x ^ s1: 0.5}
        with pytest.raises(InvalidDistributionError):
            gp_rate(joint, (broken,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            gp_rate(JointPmf({(0, 0): 1.0}), self.CHANNELS)
