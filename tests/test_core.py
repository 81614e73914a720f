"""Tests for the scalar kernels: entropies, Gaussian MI, dB, minimizer."""

import math

import numpy as np
import pytest

from dirtycast import gaussian, verify
from dirtycast.core import (
    GaussianCov,
    InvalidDistributionError,
    JointPmf,
    SingularCovarianceError,
    _rate,
    binary_entropy,
    db_to_linear,
    gaussian_mi,
    minimize_scalar,
    pmf_entropy,
)
from dirtycast.verify import RHO_MAP_P, RHO_MAP_Q


class TestBinaryEntropy:
    def test_examples(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        # two-term sum evaluated independently: H(3/8)
        assert binary_entropy(0.375) == pytest.approx(0.954434002924965, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestJointPmf:
    def test_entropy_examples(self):
        assert pmf_entropy(JointPmf.uniform(range(4))) == pytest.approx(2.0, abs=1e-15)
        assert pmf_entropy(JointPmf({("x",): 1.0})) == 0.0
        four = JointPmf({0: 0.4375, 1: 0.1875, 2: 0.1875, 3: 0.1875})
        assert pmf_entropy(four) == pytest.approx(1.8802408149441479, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidDistributionError):
            JointPmf({0: 0.6, 1: 0.6})
        with pytest.raises(InvalidDistributionError):
            JointPmf({0: 1.2, 1: -0.2})
        with pytest.raises(InvalidDistributionError):
            JointPmf({})
        with pytest.raises(InvalidDistributionError):
            JointPmf({(0, 0): 0.5, (1,): 0.5})

    def test_marginal_and_mi(self):
        joint = JointPmf({(0, 0): 0.2, (0, 1): 0.3, (1, 0): 0.3, (1, 1): 0.2})
        m0 = dict(joint.marginal((0,)).atoms())
        assert m0[(0,)] == pytest.approx(0.5) and m0[(1,)] == pytest.approx(0.5)
        indep = JointPmf({(a, b): 0.25 for a in (0, 1) for b in (0, 1)})
        assert indep.mutual_information((0,), (1,)) == pytest.approx(0.0, abs=1e-12)
        copy = JointPmf({(0, 0): 0.3, (1, 1): 0.7})
        assert copy.mutual_information((0,), (1,)) == pytest.approx(
            binary_entropy(0.3), abs=1e-12
        )
        with pytest.raises(ValueError):
            joint.mutual_information((0,), (0,))


class TestGaussianMi:
    def test_independent_blocks(self):
        cov = GaussianCov(3, np.diag([1.0, 2.0, 3.0]))
        assert gaussian_mi(cov, [0], [1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_dpc_codebook_rate_from_covariance(self):
        # common-stream binning rate at P_A=4, P_D=2, Q=2 is exactly 1/2
        cov, ix = gaussian.dpc_covariance(gaussian.PowerSplit(4.0, 2.0), 2.0)
        got = gaussian_mi(cov, [ix["u_a"]], [ix["y1"]]) - gaussian_mi(cov, [ix["u_a"]], [ix["a"]])
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_singular_covariance_raises(self):
        # X repeated twice: joint block is rank one
        cov = GaussianCov(2, np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularCovarianceError):
            gaussian_mi(cov, [0], [1])
        zero = GaussianCov(2, np.diag([0.0, 1.0]))
        with pytest.raises(SingularCovarianceError):
            gaussian_mi(zero, [0], [1])

    def test_block_validation(self):
        cov = GaussianCov(2, np.eye(2))
        with pytest.raises(ValueError):
            gaussian_mi(cov, [0], [0])
        with pytest.raises(ValueError):
            gaussian_mi(cov, [], [1])
        with pytest.raises(ValueError):
            gaussian_mi(cov, [0], [5])

    def test_cov_validation(self):
        with pytest.raises(ValueError):
            GaussianCov(2, np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValueError):
            GaussianCov(2, np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
        with pytest.raises(ValueError):
            GaussianCov(2, np.eye(3))

    def test_from_factors(self):
        cov = GaussianCov.from_factors(np.array([[1.0, 0.0], [1.0, 1.0]]), [4.0, 1.0])
        assert cov.matrix[0, 0] == 4.0 and cov.matrix[1, 1] == 5.0 and cov.matrix[0, 1] == 4.0
        with pytest.raises(ValueError):
            GaussianCov.from_factors(np.eye(2), [1.0, -1.0])


class TestDbToLinear:
    def test_examples(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(33.0) == pytest.approx(1995.2623149688789, rel=1e-12)
        # 15 dB is sqrt(1000), an independent closed form
        assert db_to_linear(15.0) == pytest.approx(math.sqrt(1000.0), rel=1e-12)
        assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            db_to_linear(math.inf)
        with pytest.raises(ValueError):
            db_to_linear(4000.0)


class TestMinimizeScalar:
    def test_kinked(self):
        x, v = minimize_scalar(lambda t: abs(t - 0.3) + 0.1, (-1.0, 1.0))
        assert x == pytest.approx(0.3, abs=1e-6)
        assert v == pytest.approx(0.1, abs=1e-9)

    def test_endpoint_minimum(self):
        x, _ = minimize_scalar(lambda t: -t, (-1.0, 1.0))
        assert x == pytest.approx(1.0, abs=1e-9)

    def test_random_unimodal_functions(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            lo = float(rng.uniform(-5.0, 0.0))
            hi = float(rng.uniform(0.5, 5.0))
            target = float(rng.uniform(lo, hi))
            scale = float(10.0 ** rng.uniform(-2, 2))
            x, _ = minimize_scalar(lambda t: scale * (t - target) ** 2, (lo, hi))
            assert abs(x - target) < 1e-6

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="need lo <= hi"):
            minimize_scalar(lambda t: t, (1.0, 0.0))
        with pytest.raises(ValueError, match="endpoints must be finite"):
            minimize_scalar(lambda t: t, (0.0, math.inf))

    def test_scan_is_one_array_call(self):
        args = []

        def f(t):
            args.append(t)
            return (t - 0.3) ** 2

        minimize_scalar(f, (-1.0, 1.0))
        scan, *refinement = args
        assert isinstance(scan, np.ndarray) and scan.shape == (2001,)
        assert refinement and all(type(t) is float for t in refinement)

    def test_f_that_breaks_the_array_contract(self):
        with pytest.raises(ValueError, match="float or a 1-D float array") as info:
            minimize_scalar(lambda t: math.sin(t) ** 2, (0.0, 1.0))
        assert isinstance(info.value.__cause__, TypeError)
        with pytest.raises(ValueError, match=r"float or a 1-D float array.*shape \(\)"):
            minimize_scalar(lambda t: 1.0, (0.0, 1.0))

    def test_wide_domain_terminates(self):
        # far from 0 an absolute stopping width of 1e-10 is below one ulp,
        # so the golden-section loop must stop at a width relative to |lo|, |hi|
        calls = 0

        def f(t):
            nonlocal calls
            calls += 1
            assert calls <= 10_000, "minimizer did not stop"
            return (t - 3.3e7) ** 2

        x, _ = minimize_scalar(f, (0.0, 1.0e8))
        assert abs(x - 3.3e7) < 1e-6 * 1.0e8


class TestRhoMaps:
    """Each grid point of the rho-map checks as its own item."""

    @pytest.mark.parametrize("p", RHO_MAP_P)
    @pytest.mark.parametrize("q", RHO_MAP_Q)
    def test_upper_i_map(self, p, q):
        verify.rho_map_i_at(p, q)

    @pytest.mark.parametrize("p", RHO_MAP_P)
    @pytest.mark.parametrize("q", RHO_MAP_Q)
    def test_upper_ii_map(self, p, q):
        verify.rho_map_ii_at(p, q)


class TestRateBound:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _rate(-0.5)
        with pytest.raises(ValueError, match="finite"):
            _rate(math.nan)
        assert _rate(-1e-15) == 0.0
