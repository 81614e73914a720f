"""Scalar math kernels shared by every bound computation.

Entropies, jointly-Gaussian mutual information over a whole stack of
covariance matrices per call, dB conversion, a derivative-free scalar
minimizer that solves a batch of problems per call in at most seven calls
of its objective, on 65 points each, and the argument and rate checks,
received power and result shaping that the Gaussian and binary modules
share.  The argument checks take floats or arrays alike, and so does
binary_entropy: a float gives a Python float and an array an array, from the
same NumPy code, so a float call costs about 5 us (2 vCPU x86-64, numpy 2.4)
and a sweep should pass its q as one array.
All returned rates are bits per channel use (logs base 2); natural-log
internals are an implementation detail.  Every function here is pure, so
concurrent use needs no locking.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)

__all__ = [
    "SingularCovarianceError",
    "InvalidDistributionError",
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


def _rate(value: float) -> float:
    """A rate in bits/channel-use, checked: finite, and nonnegative up to a
    1e-12 rounding allowance, which is clamped to 0."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"rate must be finite, got {v!r}")
    if v < -1e-12:
        raise ValueError(f"rate must be nonnegative, got {v}")
    return max(v, 0.0)


def _rates(values) -> np.ndarray:
    """The array form of _rate: every entry checked, and the ones within the
    rounding allowance below 0 clamped to 0."""
    v = np.asarray(values, dtype=float)
    bad = ~((v >= -1e-12) & (v < math.inf))
    if bad.any():
        _rate(v[bad][0])  # raises, naming the first bad entry
    return np.maximum(v, 0.0)


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
            try:
                p = float(p)
            except (TypeError, ValueError):
                raise InvalidDistributionError(
                    f"probability at {key} must be a number, got {type(p).__name__}") from None
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


def _first(bad):
    """The index of the first True entry of bad, a flag per entry of a stack,
    and how an error names it: () and '' for a single entry."""
    if np.ndim(bad) == 0:
        return (), ""
    i = tuple(int(j) for j in np.argwhere(bad)[0])
    return i, f" at stack index {i[0] if len(i) == 1 else i}"


@dataclass(frozen=True)
class GaussianCov:
    """Covariance matrix of a zero-mean jointly Gaussian vector, or a stack
    of them: matrix has shape (..., dim, dim), and a single matrix is the
    stack with empty leading shape.

    Each matrix must be square, symmetric within 1e-12 (relative) and
    positive semidefinite (eigenvalues >= -1e-9 * trace).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
        asymmetric = np.max(np.abs(m - np.swapaxes(m, -2, -1)), axis=(-2, -1)) > 1e-12 * scale
        if asymmetric.any():
            raise ValueError(f"matrix{_first(asymmetric)[1]} is not symmetric within 1e-12")
        tr = np.trace(m, axis1=-2, axis2=-1)
        lo = np.linalg.eigvalsh(m)[..., 0]
        indefinite = lo < -1e-9 * np.maximum(tr, 1e-300)
        if indefinite.any():
            i, at = _first(indefinite)
            raise ValueError(f"matrix{at} is not PSD (min eigenvalue {lo[i]}, trace {tr[i]})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    def _of_valid(cls, matrix: np.ndarray) -> "GaussianCov":
        """Wrap a float stack unchecked: for stacks the library derives from
        checked ones in ways that keep them valid."""
        cov = cls.__new__(cls)
        object.__setattr__(cov, "matrix", matrix)
        return cov

    @classmethod
    def from_factors(cls, coeffs: np.ndarray, variances) -> "GaussianCov":
        """Covariance of Y = C F where F has independent components.

        coeffs is (..., n_vars, n_factors); variances (..., n_factors) holds
        the factor variances, and the leading axes stack matrices.  Built as
        (C*v) @ C^T so the result is exactly symmetric.
        """
        c = np.asarray(coeffs, dtype=float)
        v = np.asarray(variances, dtype=float)
        if np.any(v < 0):
            raise ValueError("factor variances must be nonnegative")
        return cls((c * v[..., None, :]) @ np.swapaxes(c, -2, -1))


def _check_number(name: str, values) -> None:
    """Raise ValueError naming name if values is not a real number or a NumPy
    array.  A list is refused: the formulas would get the list itself."""
    if not isinstance(values, (float, int, np.floating, np.integer, np.ndarray)):
        raise ValueError(f"{name} must be a float or a NumPy array, got {type(values).__name__}")


def _check_in(name: str, values, top: float, rule: str) -> None:
    """_check_number, then raise ValueError naming name if values has an entry
    outside [0, top] (NaN included): the first such entry, and the rule it
    breaks."""
    _check_number(name, values)
    if type(values) is not float or not 0.0 <= values <= top:  # a valid float skips NumPy
        v = np.asarray(values, dtype=float)
        bad = ~((v >= 0.0) & (v <= top))
        if bad.any():
            raise ValueError(f"{name} must {rule}, got {float(v[bad][0])!r}")


def _check_nonnegative(name: str, values, *more) -> None:
    """_check_in for each (name, values) pair in turn: every entry finite and
    nonnegative."""
    _check_in(name, values, sys.float_info.max, "be finite and nonnegative")
    if more:
        _check_nonnegative(*more)


def _check_probability(name: str, values) -> None:
    """_check_in for a probability: every entry in [0, 1]."""
    _check_in(name, values, 1.0, "lie in [0, 1]")


def _check_integer(name: str, value, *more) -> None:
    """Raise ValueError naming the first of the (name, value) pairs whose value
    is not an integer, 2.0 included.  operator.index is about 20 times faster
    than isinstance(value, numbers.Integral), and figures check K every row."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if more:
        _check_integer(*more)


def _check_k(k, least: int) -> None:
    """_check_integer for a user count K, then raise ValueError unless K >= least."""
    _check_integer("K", k)
    if k < least:
        raise ValueError(f"K must be >= {least}, got {k}")


def _out(values):
    """A result as the caller's arguments shaped it: a Python float when it
    is 0-d, as from float arguments, else the array."""
    return float(values) if np.ndim(values) == 0 else values


def _received_power(p, q):
    """P + Q + 1 + 2 sqrt(PQ): the power of X + S_k + Z_k when the input is
    fully aligned with the interference, for floats or arrays.  sqrt(PQ) is
    taken as sqrt(P) sqrt(Q), which stays finite at P = 1e10, Q = 1e300."""
    return p + q + 1.0 + 2.0 * np.sqrt(p) * np.sqrt(q)


def _entropy(q):
    """binary_entropy of a checked q: -(q log2 q + (1-q) log2 (1-q)), and 0
    where q is 0 or 1."""
    q = np.asarray(q, dtype=float)
    r = 1.0 - q
    # every q > 0 is at least 5e-324, the least float, so only 0 moves, to a
    # finite log; 0 - (...) is +0 at the ends, where -(...) would be -0
    return 0.0 - (q * np.log2(np.maximum(q, 5e-324)) + r * np.log2(np.maximum(r, 5e-324)))


def binary_entropy(q):
    """Entropy in bits of a Bernoulli(q) symbol, with 0*log0 := 0, for a float
    or an array of q: a float for a float."""
    _check_probability("probability", q)
    return _out(_entropy(q))


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


def _logdet_principal(cov: GaussianCov, block):
    """log-determinant of a principal submatrix of each matrix, with a
    relative singularity guard of 1e-12 against the AM-GM scale (trace/d)^d."""
    idx = np.asarray(block)
    sub = cov.matrix[..., idx[:, None], idx]
    tr = np.trace(sub, axis1=-2, axis2=-1)
    nonpositive = ~(tr > 0.0)
    if nonpositive.any():
        i, at = _first(nonpositive)
        raise SingularCovarianceError(f"block {idx.tolist()}{at} has nonpositive trace {tr[i]}")
    sign, logabs = np.linalg.slogdet(sub)
    singular = (sign <= 0.0) | (logabs - len(idx) * np.log(tr / len(idx)) < math.log(1e-12))
    if singular.any():
        raise SingularCovarianceError(
            f"principal submatrix {idx.tolist()}{_first(singular)[1]} "
            "is singular to working precision"
        )
    return logabs


def gaussian_mi(cov: GaussianCov, block_a, block_b):
    """Mutual information in bits between two index blocks of a Gaussian
    vector, for each matrix of the stack: a float for a single matrix, else
    an array of the stack's leading shape.

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
    return _out((la + lb - lab) / (2.0 * _LN2))


_ZOOM = 32  # each zoom narrows the bracket by this factor
_ZOOM_STEPS = np.arange(-_ZOOM, _ZOOM + 1.0)  # a zoom's 65 points, in units of its spacing
_XTOL = 1e-10


def _argmin(f, points):
    """Index along the last axis of the least of f(points), first on ties and
    on NaN, and the value there, once f has kept minimize_scalar's contract."""
    contract = "f must take an array of points and return one value per point"
    try:
        vals = np.asarray(f(points), float)
    except (TypeError, ValueError) as exc:
        raise ValueError(contract) from exc
    if vals.shape[vals.ndim - points.ndim:] != points.shape:
        raise ValueError(f"{contract}; got shape {vals.shape} for {points.shape} points")
    i = vals.argmin(-1)  # not min(-1): a second full pass, and it may give -0.0 for +0.0
    return i, vals[np.indices(i.shape, sparse=True) + (i,)]


def minimize_scalar(f, domain):
    """Minimize a scalar function on the closed interval domain = (lo, hi).

    f takes an array of points and returns its value at each; its own
    parameters may carry leading batch axes that broadcast against the
    points, so one call minimizes a batch of functions.  The first step
    calls f once on 65 evenly spaced points, lo and hi included, and keeps
    the best (the first, on ties and on NaN).  Each zoom then calls f once
    on 65 points (batch + (65,)) evenly spread over the two cells around
    the best, clipped to the domain, which narrows the bracket 32-fold.
    The zoom count is fixed up front so that the bracket reaches width
    1e-10 * max(1, |lo|, |hi|): 6 on a domain of width 1 or 2, and never
    more.  So f is called at most 7 times, and no call holds more than
    batch x 65 values.
    Derivative-free, so kinked objectives are fine; for a unimodal f the
    argmin is within 1e-6 * max(1, |lo|, |hi|) of the global minimizer.
    Returns (argmin, minimum): floats for one function, arrays of the batch
    shape for a batch.
    """
    lo, hi = domain
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval endpoints must be finite")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    cell = (hi - lo) / (2 * _ZOOM)
    xtol = _XTOL * max(1.0, abs(lo), abs(hi))
    zooms = math.ceil(math.log(2.0 * cell / xtol, _ZOOM)) if 2.0 * cell > xtol else 0
    xs = np.linspace(lo, hi, 2 * _ZOOM + 1)
    i, v = _argmin(f, xs)
    x = xs[i]
    for _ in range(zooms):
        cell /= _ZOOM
        j, zv = _argmin(f, np.clip(x[..., None] + cell * _ZOOM_STEPS, lo, hi))
        better = zv < v
        # recomputed, point j is bit for bit the one f was given
        x = np.where(better, np.clip(x + cell * _ZOOM_STEPS[j], lo, hi), x)
        v = np.where(better, zv, v)
    return _out(x), _out(v)
