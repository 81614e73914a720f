"""Scalar math kernels shared by every bound computation.

Entropies, jointly-Gaussian mutual information, dB conversion, a
derivative-free scalar minimizer, and the argument check and received power
that the Gaussian modules share.  All returned rates are bits per channel
use (logs base 2); natural-log internals are an implementation detail.
Every function here is pure, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)

__all__ = [
    "SingularCovarianceError",
    "InvalidDistributionError",
    "RateBound",
    "JointPmf",
    "GaussianCov",
    "binary_entropy",
    "pmf_entropy",
    "gaussian_mi",
    "db_to_linear",
    "minimize_scalar",
]


class SingularCovarianceError(ValueError):
    """A required covariance determinant underflowed the singularity threshold."""


class InvalidDistributionError(ValueError):
    """A probability table violates normalization or nonnegativity."""


@dataclass(frozen=True)
class RateBound:
    """A rate in bits/channel-use tagged with its direction and provenance.

    kind is one of {"lower", "upper", "exact"}; method is a short label of
    the computation that produced the value.
    """

    value: float
    kind: str
    method: str

    _KINDS = ("lower", "upper", "exact")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError(f"rate must be finite, got {v!r}")
        if v < -1e-12:
            raise ValueError(f"rate must be nonnegative, got {v}")
        object.__setattr__(self, "value", max(v, 0.0))


class JointPmf:
    """Finite joint distribution over tuples of symbols.

    Atoms are keyed by equal-length tuples; probabilities must be
    nonnegative and sum to 1 within 1e-12.
    """

    def __init__(self, prob: dict):
        if not prob:
            raise InvalidDistributionError("empty support")
        items = []
        arity = None
        for key, p in prob.items():
            key = key if isinstance(key, tuple) else (key,)
            if arity is None:
                arity = len(key)
            elif len(key) != arity:
                raise InvalidDistributionError("atoms must share one arity")
            p = float(p)
            if p < -1e-15 or not math.isfinite(p):
                raise InvalidDistributionError(f"negative/invalid probability {p} at {key}")
            items.append((key, max(p, 0.0)))
        total = math.fsum(p for _, p in items)
        if abs(total - 1.0) > 1e-12:
            raise InvalidDistributionError(f"probabilities sum to {total}, not 1")
        self.arity = arity
        self.prob = dict(sorted(items))

    @classmethod
    def uniform(cls, atoms) -> "JointPmf":
        atoms = list(atoms)
        return cls({a: 1.0 / len(atoms) for a in atoms})

    @classmethod
    def _of_valid(cls, prob: dict) -> "JointPmf":
        """Wrap prob unchecked: for laws the library builds valid and sorted."""
        pmf = cls.__new__(cls)
        pmf.arity, pmf.prob = len(next(iter(prob))), prob
        return pmf

    def atoms(self):
        return self.prob.items()

    def __eq__(self, other):
        return isinstance(other, JointPmf) and self.prob == other.prob

    def __hash__(self):
        return hash(tuple(self.prob.items()))

    def marginal(self, axes) -> "JointPmf":
        """Marginal distribution over the given axis indices (in order)."""
        axes = tuple(axes)
        out: dict = {}
        for key, p in self.prob.items():
            sub = tuple(key[i] for i in axes)
            out[sub] = out.get(sub, 0.0) + p
        return JointPmf(out)

    def mutual_information(self, axes_a, axes_b) -> float:
        """I(A;B) in bits between two disjoint groups of axes."""
        axes_a, axes_b = tuple(axes_a), tuple(axes_b)
        if set(axes_a) & set(axes_b):
            raise ValueError("axis groups must be disjoint")
        ha = pmf_entropy(self.marginal(axes_a))
        hb = pmf_entropy(self.marginal(axes_b))
        hab = pmf_entropy(self.marginal(axes_a + axes_b))
        return ha + hb - hab


@dataclass(frozen=True)
class GaussianCov:
    """Covariance matrix of a zero-mean jointly Gaussian vector.

    Must be symmetric within 1e-12 (relative) and positive semidefinite
    (eigenvalues >= -1e-9 * trace).
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if self.dim < 1 or m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix must be {self.dim}x{self.dim}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric within 1e-12")
        tr = float(np.trace(m))
        lo = float(np.min(np.linalg.eigvalsh(m)))
        if lo < -1e-9 * max(tr, 1e-300):
            raise ValueError(f"matrix is not PSD (min eigenvalue {lo}, trace {tr})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_factors(cls, coeffs: np.ndarray, variances) -> "GaussianCov":
        """Covariance of Y = C F where F has independent components.

        coeffs is (n_vars, n_factors); variances holds the factor variances.
        Built as (C*v) @ C.T so the result is exactly symmetric.
        """
        c = np.asarray(coeffs, dtype=float)
        v = np.asarray(variances, dtype=float)
        if np.any(v < 0):
            raise ValueError("factor variances must be nonnegative")
        return cls(c.shape[0], (c * v) @ c.T)


def _check_nonnegative(name: str, value: float, *more) -> None:
    """Raise ValueError naming the first of the (name, value) pairs whose
    value is negative, NaN or infinite."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    if more:
        _check_nonnegative(*more)


def _received_power(p: float, q: float) -> float:
    """P + Q + 1 + 2 sqrt(PQ): the power of X + S_k + Z_k when the input is
    fully aligned with the interference."""
    return p + q + 1.0 + 2.0 * math.sqrt(p) * math.sqrt(q)


def binary_entropy(q: float) -> float:
    """Entropy in bits of a Bernoulli(q) symbol, with 0*log0 := 0."""
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -(q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q))


def pmf_entropy(pmf: JointPmf) -> float:
    """Shannon entropy in bits; zero-probability atoms contribute 0."""
    return -math.fsum(p * math.log2(p) for _, p in pmf.atoms() if p > 0.0)


def db_to_linear(x_db: float, name: str = "power ratio") -> float:
    """Power ratio for a dB figure: 10^(x/10).  name is the quantity the
    figure gives (e.g. "P"), for the error messages."""
    x = float(x_db)
    if not math.isfinite(x):
        raise ValueError(f"{name} in dB must be finite, got {x!r}")
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        raise ValueError(f"{name} = {x:g} dB overflows a float") from None


def _logdet_principal(cov: GaussianCov, block) -> float:
    """log-determinant of a principal submatrix, with a relative
    singularity guard of 1e-12 against the AM-GM scale (trace/d)^d."""
    idx = list(block)
    sub = cov.matrix[np.ix_(idx, idx)]
    d = len(idx)
    tr = float(np.trace(sub))
    if tr <= 0.0:
        raise SingularCovarianceError(f"block {idx} has nonpositive trace {tr}")
    sign, logabs = np.linalg.slogdet(sub)
    log_scale = d * math.log(tr / d)
    if sign <= 0.0 or logabs - log_scale < math.log(1e-12):
        raise SingularCovarianceError(
            f"principal submatrix {idx} is singular to working precision"
        )
    return float(logabs)


def gaussian_mi(cov: GaussianCov, block_a, block_b) -> float:
    """Mutual information in bits between two index blocks of a Gaussian vector.

    I(A;B) = 1/2 log2( det S_A * det S_B / det S_{A u B} ).  Conditional
    quantities are obtained by the caller via two calls and the chain rule.
    """
    a, b = list(block_a), list(block_b)
    if not a or not b:
        raise ValueError("blocks must be nonempty")
    if set(a) & set(b):
        raise ValueError("blocks must be disjoint")
    if any(not 0 <= i < cov.dim for i in a + b):
        raise ValueError("block index out of range")
    la = _logdet_principal(cov, a)
    lb = _logdet_principal(cov, b)
    lab = _logdet_principal(cov, a + b)
    return (la + lb - lab) / (2.0 * _LN2)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 2001
_XTOL = 1e-10


def minimize_scalar(f, domain):
    """Minimize a scalar function on the closed interval domain = (lo, hi).

    f must take either a float or a 1-D float array: given an array it
    returns the array of its values at each element.  The coarse scan is
    one call f(xs) on a uniform grid of 2001 points; golden-section
    refinement of the best bracket then calls f on floats only, down to
    width 1e-10 * max(1, |lo|, |hi|).  Derivative-free, so kinked
    objectives are fine.  For a unimodal f the returned argmin is within
    1e-6 * max(1, |lo|, |hi|) of the global minimizer.  Returns
    (argmin, minimum).
    """
    lo, hi = domain
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval endpoints must be finite")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return lo, f(lo)
    xs = np.linspace(lo, hi, _GRID_POINTS)
    contract = "f must take a float or a 1-D float array and return one value per element"
    try:
        vals = np.asarray(f(xs), float)
    except (TypeError, ValueError) as exc:
        raise ValueError(contract) from exc
    if vals.shape != xs.shape:
        raise ValueError(f"{contract}; got shape {vals.shape} for {xs.shape} points")
    i = int(np.argmin(vals))
    best_x, best_v = float(xs[i]), float(vals[i])

    xtol = _XTOL * max(1.0, abs(lo), abs(hi))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, _GRID_POINTS - 1)])
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    for x, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v
