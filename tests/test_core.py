"""Tests for the scalar kernels: entropies, Gaussian MI, dB, minimizer."""

import math

import numpy as np
import pytest

from dirtycast import core, gaussian
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


class TestBinaryEntropy:
    def test_examples(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        # +0 at the ends, not -0, which a CSV prints as "-0"
        assert not np.signbit([binary_entropy(0.0), binary_entropy(1.0)]).any()
        assert not np.signbit(binary_entropy(np.array([0.0, 1.0]))).any()
        # two-term sum evaluated independently: H(3/8)
        assert binary_entropy(0.375) == pytest.approx(0.954434002924965, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)

    def test_array_names_its_first_bad_entry(self):
        with pytest.raises(ValueError, match=r"^probability must lie in \[0, 1\], got nan$"):
            binary_entropy(np.array([[0.5, math.nan], [2.0, 0.1]]))


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
        with pytest.raises(InvalidDistributionError,
                           match=r"^probability at \(0,\) must be a number, got ndarray$"):
            JointPmf({(0,): np.array([0.5, 0.5]), (1,): 0.5})

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
        cov = GaussianCov(np.diag([1.0, 2.0, 3.0]))
        assert gaussian_mi(cov, [0], [1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_dpc_codebook_rate_from_covariance(self):
        # common-stream binning rate at P_A=4, P_D=2, Q=2 is exactly 1/2
        cov, ix = gaussian.dpc_covariance(4.0, 2.0, 2.0)
        got = gaussian_mi(cov, [ix["u_a"]], [ix["y1"]]) - gaussian_mi(cov, [ix["u_a"]], [ix["a"]])
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_singular_covariance_raises(self):
        # X repeated twice: joint block is rank one
        cov = GaussianCov(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularCovarianceError):
            gaussian_mi(cov, [0], [1])
        zero = GaussianCov(np.diag([0.0, 1.0]))
        with pytest.raises(SingularCovarianceError):
            gaussian_mi(zero, [0], [1])

    def test_block_validation(self):
        cov = GaussianCov(np.eye(2))
        with pytest.raises(ValueError):
            gaussian_mi(cov, [0], [0])
        with pytest.raises(ValueError):
            gaussian_mi(cov, [], [1])
        with pytest.raises(ValueError):
            gaussian_mi(cov, [0], [5])

    def test_cov_validation(self):
        with pytest.raises(ValueError):
            GaussianCov(np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValueError):
            GaussianCov(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
        with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(2, 3\)"):
            GaussianCov(np.ones((2, 3)))
        assert GaussianCov(np.broadcast_to(np.eye(3), (5, 3, 3))).dim == 3

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(5)
        for dim in range(2, 9):
            a = rng.normal(size=(6, dim, dim + 2))
            stack = GaussianCov(a @ np.swapaxes(a, -2, -1))
            for cut in range(1, dim):
                got = gaussian_mi(stack, range(cut), range(cut, dim))
                assert got.shape == (6,)
                singles = [gaussian_mi(GaussianCov(m), range(cut), range(cut, dim))
                           for m in stack.matrix]
                assert got.tolist() == singles
        grid = GaussianCov(np.broadcast_to(np.eye(2), (3, 4, 2, 2)))
        assert gaussian_mi(grid, [0], [1]).shape == (3, 4)

    def test_stack_names_the_bad_matrix(self):
        stack = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
        asymmetric, indefinite, singular = stack.copy(), stack.copy(), stack.copy()
        asymmetric[2] = [[1.0, 0.5], [0.4, 1.0]]
        indefinite[3] = [[1.0, 2.0], [2.0, 1.0]]
        singular[1] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match="^matrix at stack index 2 is not symmetric"):
            GaussianCov(asymmetric)
        with pytest.raises(ValueError, match="^matrix at stack index 3 is not PSD"):
            GaussianCov(indefinite)
        with pytest.raises(SingularCovarianceError, match=r"\[0, 1\] at stack index 1 is singular"):
            gaussian_mi(GaussianCov(singular), [0], [1])
        grid = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
        grid[1, 2, 0, 0] = 0.0
        with pytest.raises(SingularCovarianceError, match=r"at stack index \(1, 2\) has nonpositive"):
            gaussian_mi(GaussianCov(grid), [0], [1])

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
        # ten problems a domain in one batch call, each the same as its own call
        rng = np.random.default_rng(8)
        for _ in range(5):
            lo, hi = float(rng.uniform(-5.0, 0.0)), float(rng.uniform(0.5, 5.0))
            target = rng.uniform(lo, hi, size=(10, 1))
            scale = 10.0 ** rng.uniform(-2, 2, size=(10, 1))
            xs, vs = minimize_scalar(lambda t: scale * (t - target) ** 2, (lo, hi))
            assert xs.shape == vs.shape == (10,)
            assert np.all(np.abs(xs - target[:, 0]) < 1e-6)
            for i in range(10):
                one = minimize_scalar(lambda t: scale[i, 0] * (t - target[i, 0]) ** 2, (lo, hi))
                assert one == (xs[i], vs[i]) and type(one[0]) is type(one[1]) is float

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="need lo <= hi"):
            minimize_scalar(lambda t: t, (1.0, 0.0))
        with pytest.raises(ValueError, match="endpoints must be finite"):
            minimize_scalar(lambda t: t, (0.0, math.inf))

    @pytest.mark.parametrize("batch", [(), (3,), (20, 21), (100,)],
                             ids=["one-problem", "row", "verify-grid", "large-batch"])
    def test_first_step_and_each_zoom_call_f_once_on_65_points(self, batch):
        # the bracket after the first step is two of its 64 cells, 2 * 2/64,
        # and each zoom narrows it 32-fold until it is at most 1e-10
        zooms = math.ceil(math.log(2.0 * (2.0 / 64) / 1e-10, 32))
        assert zooms == 6
        centre = np.linspace(-0.5, 0.9, math.prod(batch)).reshape(batch + (1,))
        calls = []

        def f(t):
            calls.append(t)
            return (t - centre) ** 2

        x, _ = minimize_scalar(f, (-1.0, 1.0))
        assert len(calls) == 1 + zooms
        assert calls[0].tolist() == np.linspace(-1.0, 1.0, 65).tolist()
        assert [t.shape for t in calls[1:]] == [batch + (65,)] * zooms
        assert np.shape(x) == batch

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["deep-right", "deep-left"])
    def test_finds_a_narrow_deeper_basin(self, side):
        # a shallow basin at -0.5 * side on a first-step point, and a deeper
        # one, below 0 on 0.125 (four cells of the first step) around
        # 0.385 * side, between two points of a 9-point grid
        x, v = minimize_scalar(
            lambda t: np.minimum((t + 0.5 * side) ** 2, 16.0 * abs(t - 0.385 * side) - 1.0),
            (-1.0, 1.0))
        assert x == pytest.approx(0.385 * side, abs=1e-9) and v == pytest.approx(-1.0, abs=1e-8)

    @pytest.mark.parametrize("batched", [False, True], ids=["grid", "batched-points"])
    def test_argmin_is_first_on_ties_and_nan(self, batched):
        # rows of values on a 2001-point grid, one problem per row, in one call
        xs = np.linspace(-1.0, 1.0, 2001)
        rows = np.ones((13, 2001))
        rows[1, [500, 1500]] = 0.0  # a tie across the grid
        rows[2, [0, 2000]] = 0.0  # a tie between the endpoints
        rows[3], rows[4] = -xs, xs  # an endpoint minimum, at each end
        rows[5] = math.inf  # +inf everywhere
        rows[6, :1999] = math.inf  # +inf, then a minimum near the end
        rows[7, [10, 1500]] = 0.5, math.nan  # NaN after the least value
        rows[8, 0] = math.nan  # NaN at the first point
        rows[9, [300, 1800]] = math.nan  # the first of two NaNs
        rows[10] = math.nan
        rows[11, 1999:] = -math.inf
        rows[12, [700, 1300]] = 0.0, -0.0  # a tie of +0.0 and -0.0
        # the points as the first step passes them (one grid) or as a zoom
        # does (one row of points per problem)
        points = np.broadcast_to(xs, rows.shape) if batched else xs
        i, v = core._argmin(lambda t: rows, points)
        # numpy's argmin: first on ties, NaN first of all
        assert i.tolist() == rows.argmin(-1).tolist() == [0, 500, 0, 2000, 0, 0, 1999, 1500, 0,
                                                          300, 0, 1999, 700]
        assert np.array_equal(v, rows.min(-1), equal_nan=True)
        # the minimum is the entry at that index, bit for bit: +0.0 in the last
        # row, where numpy's min(-1) may give -0.0
        assert v.view(np.uint64).tolist() == rows[range(13), i].view(np.uint64).tolist()

    def test_empty_interval(self):
        assert minimize_scalar(lambda t: (t - 1.0) ** 2, (2.0, 2.0)) == (2.0, 1.0)
        x, v = minimize_scalar(lambda t: (t - np.array([[1.0], [4.0]])) ** 2, (2.0, 2.0))
        assert x.tolist() == [2.0, 2.0] and v.tolist() == [1.0, 4.0]

    def test_f_that_breaks_the_array_contract(self):
        with pytest.raises(ValueError, match="f must take an array of points") as info:
            minimize_scalar(lambda t: math.sin(t) ** 2, (0.0, 1.0))
        assert isinstance(info.value.__cause__, TypeError)
        with pytest.raises(ValueError, match=r"array of points.*shape \(\) for \(65,\)"):
            minimize_scalar(lambda t: 1.0, (0.0, 1.0))

    def test_wide_domain_terminates(self):
        # far from 0 an absolute stopping width of 1e-10 is below one ulp,
        # so the zoom count must follow a width relative to |lo|, |hi|
        calls = 0

        def f(t):
            nonlocal calls
            calls += 1
            assert calls <= 10_000, "minimizer did not stop"
            return (t - 3.3e7) ** 2

        x, _ = minimize_scalar(f, (0.0, 1.0e8))
        assert abs(x - 3.3e7) < 1e-6 * 1.0e8


class TestRateBound:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _rate(-0.5)
        with pytest.raises(ValueError, match="finite"):
            _rate(math.nan)
        assert _rate(-1e-15) == 0.0
