"""Bounds for the two-user (and K-user) Gaussian multicast channel
Y_k = X + S_k + Z_k with transmitter-known interference.

P is the SNR, Q the INR, noise power normalized to 1, logs base 2.  The two
upper bounds are each written once, as a raw objective in the receivers'
noise correlation rho (`upper_i_at_rho`, `upper_ii_at_rho`, which take a
float or an array of rho, so a minimizer scans a grid in one call); the
closed forms `upper_i` and `upper_ii` are those objectives at the branch rho
(`rho_upper_i`, `rho_upper_ii`), and numeric minimizers over rho
cross-check that choice.  The achievable side is superposition dirty-paper
coding over the split S_k = A +/- D, with a covariance-based oracle that
reproduces the two codebook rates from first principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import GaussianCov, RateBound, gaussian_mi, minimize_scalar
from .core import _check_nonnegative, _received_power

__all__ = [
    "PowerSplit",
    "awgn_capacity",
    "rate_timeshare",
    "rate_interference_as_noise",
    "upper_i_at_rho",
    "rho_upper_i",
    "upper_i",
    "upper_ii_at_rho",
    "rho_upper_ii",
    "upper_ii",
    "upper_envelope",
    "rate_of_split",
    "lower_bound",
    "minimize_upper_i_rho",
    "minimize_upper_ii_rho",
    "maximize_power_split",
    "dpc_covariance",
    "dpc_scheme_oracle",
    "z_sum_difference_cov",
    "upper_k_raw",
    "upper_k",
    "universal_gap",
    "gap",
    "high_sinr_asymptote",
]

@dataclass(frozen=True)
class PowerSplit:
    """(P_A, P_D) power allocation for the superposition scheme."""

    p_a: float
    p_d: float

    def __post_init__(self):
        _check_nonnegative("P_A", self.p_a, "P_D", self.p_d)

    @property
    def total(self) -> float:
        return self.p_a + self.p_d


def awgn_capacity(p: float) -> float:
    """Interference-free point-to-point rate, the trivial upper bound."""
    _check_nonnegative("P", p)
    return 0.5 * math.log2(1.0 + p)


def rate_timeshare(p: float) -> RateBound:
    """Serve each user on half the uses with full precancellation: log(1+P)/4."""
    _check_nonnegative("P", p)
    return RateBound(0.25 * math.log2(1.0 + p), "lower", "time-sharing")


def rate_interference_as_noise(p: float, q: float) -> RateBound:
    """Fold the interference into the noise: log2(1 + P/(Q+1))/2."""
    _check_nonnegative("P", p, "Q", q)
    return RateBound(0.5 * math.log2(1.0 + p / (q + 1.0)), "lower", "interference-as-noise")


# The operations a rate formula needs, for float arguments: the math module's
# log2/sqrt/expm1 and the builtin max/min.  numpy supplies the same names for
# arrays; a float keeps this path, which is faster than numpy on scalars.
_FLOAT_OPS = SimpleNamespace(
    log2=math.log2, sqrt=math.sqrt, expm1=math.expm1, maximum=max, minimum=min
)


def _rho_objective(value, p, q, rho, rho_max):
    """value(ops, p, q, rho) on the open domain -1 < rho < rho_max, where
    its denominators are positive, and +inf outside it.

    rho is a float or a 1-D array.  Closed array entries are evaluated at
    rho = 0 and then replaced, so no log or sqrt sees a nonpositive
    argument and no RuntimeWarning is raised."""
    if isinstance(rho, np.ndarray):
        closed = (rho <= -1.0) | (rho >= rho_max)
        return np.where(closed, math.inf, value(np, p, q, np.where(closed, 0.0, rho)))
    if rho <= -1.0 or rho >= rho_max:
        return math.inf
    return value(_FLOAT_OPS, p, q, rho)


def _upper_i_value(xp, p, q, rho):
    """The upper_i_at_rho formula, with the operations xp.  The second log
    is taken as a difference: the ratio overflows at large P and small Q."""
    return (0.25 * xp.log2((1.0 + p) / (1.0 + rho))
            + 0.25 * (xp.log2(_received_power(p, q)) - xp.log2(q / 2.0 + 1.0 - rho)))


def upper_i_at_rho(p: float, q: float, rho):
    """Genie-argument upper bound at a fixed noise correlation rho.

    log2((1+P)/(1+rho))/4 + log2((P+Q+1+2 sqrt(PQ))/(Q/2+1-rho))/4;
    +inf where a denominator closes (rho <= -1 or rho >= Q/2+1).  rho is
    a float or a 1-D array."""
    return _rho_objective(_upper_i_value, p, q, rho, q / 2.0 + 1.0)


def rho_upper_i(q: float) -> float:
    """Noise correlation minimizing the genie bound: min(Q/4, 1)."""
    return min(q / 4.0, 1.0)


def upper_i(p: float, q: float) -> RateBound:
    """The genie bound minimized over rho: its objective at rho_upper_i(Q).

    For Q >= 4 this is log2(1+P)/4 + log2((P+Q+1+2 sqrt(PQ))/Q)/4."""
    _check_nonnegative("P", p, "Q", q)
    return RateBound(upper_i_at_rho(p, q, rho_upper_i(q)), "upper", "upper-I")


def _upper_ii_value(xp, p, q, rho):
    """The upper_ii_at_rho formula, with the operations xp."""
    main = 0.5 * xp.log2(_received_power(p, q) / xp.sqrt((1.0 + rho) * (q + 1.0 - rho)))
    if q > 0.0:
        main = main - xp.maximum(0.0, 0.25 * (math.log2(q) - xp.log2(2.0 * p + 1.0 + rho)))
    return main


def upper_ii_at_rho(p: float, q: float, rho):
    """Joint-output upper bound at a fixed noise correlation rho.

    log2((P+Q+2 sqrt(PQ)+1)/sqrt((1+rho)(Q+1-rho)))/2
      - [log2(Q/(2P+1+rho))/4]^+;
    +inf where (1+rho)(Q+1-rho) closes (rho <= -1 or rho >= Q+1).  rho is
    a float or a 1-D array."""
    return _rho_objective(_upper_ii_value, p, q, rho, q + 1.0)


def rho_upper_ii(q: float) -> float:
    """Noise correlation minimizing the leading term of the joint-output
    bound: min(Q/2, 1)."""
    return min(q / 2.0, 1.0)


def upper_ii(p: float, q: float) -> RateBound:
    """The joint-output bound at the branch rho: its objective at
    rho_upper_ii(Q).

    rho_upper_ii minimizes the leading term; when the [.]^+ correction is
    active at small P the exact minimum over rho of the raw objective can
    sit strictly below this value, which stays a valid upper bound either
    way (see minimize_upper_ii_rho).
    """
    _check_nonnegative("P", p, "Q", q)
    return RateBound(upper_ii_at_rho(p, q, rho_upper_ii(q)), "upper", "upper-II")


def upper_envelope(p: float, q: float) -> RateBound:
    """min of the two correlation bounds and the trivial bound log2(1+P)/2."""
    value = min(upper_i(p, q).value, upper_ii(p, q).value, awgn_capacity(p))
    return RateBound(value, "upper", "envelope")


def _split_rate(xp, p_a, p_d, q: float):
    """log2(1 + P_A/(P_D+Q/2+1))/2 + log2(1+P_D)/4, with the operations xp:
    _FLOAT_OPS for floats, numpy for arrays of P_A and P_D."""
    return 0.5 * xp.log2(1.0 + p_a / (p_d + q / 2.0 + 1.0)) + 0.25 * xp.log2(1.0 + p_d)


def rate_of_split(split: PowerSplit, q: float) -> float:
    """Rate of the superposition scheme at a power split:

    log2(1 + P_A/(P_D+Q/2+1))/2 + log2(1+P_D)/4."""
    _check_nonnegative("Q", q)
    return _split_rate(_FLOAT_OPS, split.p_a, split.p_d, q)


def lower_bound(p: float, q: float) -> RateBound:
    """Best superposition-DPC rate over all power splits: the split rate at
    the optimal P_D = min(max(Q/2 - 1, 0), P).

    That is pure DPC against the common interference part (Q/2 < 1), a
    mixed split (1 <= Q/2 < P+1), and pure time-sharing (Q/2 >= P+1).
    """
    _check_nonnegative("P", p, "Q", q)
    p_d = min(max(q / 2.0 - 1.0, 0.0), p)
    return RateBound(_split_rate(_FLOAT_OPS, p - p_d, p_d, q), "lower", "superposition-dpc")


def minimize_upper_i_rho(p: float, q: float):
    """Numeric minimizer of the genie bound over rho; returns (rho, bits)."""
    _check_nonnegative("P", p, "Q", q)
    return minimize_scalar(lambda r: upper_i_at_rho(p, q, r), (-1.0, 1.0))


def minimize_upper_ii_rho(p: float, q: float):
    """Numeric minimizer of the joint-output bound over rho; returns (rho, bits)."""
    _check_nonnegative("P", p, "Q", q)
    return minimize_scalar(lambda r: upper_ii_at_rho(p, q, r), (-1.0, 1.0))


def maximize_power_split(p: float, q: float):
    """Numeric oracle for the best power split; returns (PowerSplit, bits).

    At fixed P_D the split rate rises with P_A, so no optimum leaves power
    unspent and the search runs on the full-power line P_A + P_D = P.  It
    minimizes the negated rate over the log share s = log(1+P_D)/log(1+P)
    in [0, 1], which resolves an optimal P_D many decades below P; the
    closed-form optimum is not used."""
    _check_nonnegative("P", p, "Q", q)
    log_total = math.log1p(p)

    def p_d_at(xp, s):
        return xp.minimum(xp.expm1(s * log_total), p)

    def negated_rate(s):
        xp = np if isinstance(s, np.ndarray) else _FLOAT_OPS
        p_d = p_d_at(xp, s)
        return -_split_rate(xp, p - p_d, p_d, q)

    s, _ = minimize_scalar(negated_rate, (0.0, 1.0))
    p_d = p_d_at(_FLOAT_OPS, s)
    split = PowerSplit(p - p_d, p_d)
    return split, rate_of_split(split, q)


# Index map of the factor representation used by the scheme oracle.
_DPC_VARS = {"x_a": 0, "x_d": 1, "a": 2, "d": 3, "z": 4, "u_a": 5, "u_d": 6, "y1": 7}


def dpc_covariance(split: PowerSplit, q: float):
    """Joint covariance of (X_A, X_D, A, D, Z, U_A, U_D, Y1) for the scheme.

    A and D are the half-sum/half-difference interference parts, each of
    variance Q/2; U_A = X_A + alpha_A A with alpha_A = P_A/(P+Q/2+1);
    U_D = X_D + alpha_D((1-alpha_A)A + D) with alpha_D = P_D/(P_D+1).
    Returns (GaussianCov, name->index map).
    """
    _check_nonnegative("Q", q)
    p = split.total
    alpha_a = split.p_a / (p + q / 2.0 + 1.0)
    alpha_d = split.p_d / (split.p_d + 1.0)
    variances = [split.p_a, split.p_d, q / 2.0, q / 2.0, 1.0]
    coeffs = np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0],  # X_A
            [0.0, 1.0, 0.0, 0.0, 0.0],  # X_D
            [0.0, 0.0, 1.0, 0.0, 0.0],  # A
            [0.0, 0.0, 0.0, 1.0, 0.0],  # D
            [0.0, 0.0, 0.0, 0.0, 1.0],  # Z
            [1.0, 0.0, alpha_a, 0.0, 0.0],  # U_A
            [0.0, 1.0, alpha_d * (1.0 - alpha_a), alpha_d, 0.0],  # U_D
            [1.0, 1.0, 1.0, 1.0, 1.0],  # Y1 = X_A+X_D+A+D+Z
        ]
    )
    return GaussianCov.from_factors(coeffs, variances), dict(_DPC_VARS)


def dpc_scheme_oracle(split: PowerSplit, q: float):
    """Binning rates of the two codebooks, from the covariance alone.

    r_a = I(U_A;Y1) - I(U_A;A) and r_d = I(U_D;Y1,U_A) - I(U_D;A,D); these
    must equal log2(1+P_A/(P_D+Q/2+1))/2 and log2(1+P_D)/2.  Degenerate
    splits (a zero power or Q = 0) collapse the corresponding blocks to
    constants, whose mutual-information terms are 0 by convention.
    """
    cov, ix = dpc_covariance(split, q)
    if split.p_a == 0.0:
        r_a = 0.0
    else:
        r_a = gaussian_mi(cov, [ix["u_a"]], [ix["y1"]])
        if q > 0.0:
            r_a -= gaussian_mi(cov, [ix["u_a"]], [ix["a"]])
    if split.p_d == 0.0:
        r_d = 0.0
    else:
        side = [ix["y1"]] if split.p_a == 0.0 else [ix["y1"], ix["u_a"]]
        r_d = gaussian_mi(cov, [ix["u_d"]], side)
        if q > 0.0:
            r_d -= gaussian_mi(cov, [ix["u_d"]], [ix["a"], ix["d"]])
    return r_a, r_d


def z_sum_difference_cov(rho: float) -> np.ndarray:
    """Covariance of ((Z1+Z2)/sqrt2, (Z1-Z2)/sqrt2) for unit noises with
    correlation rho: exactly diag(1+rho, 1-rho).

    Computed as A Sigma A^T / 2 with integer A = [[1,1],[1,-1]] so the
    off-diagonal cancellation and the halving are exact in floating point.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    return (a @ sigma @ a.T) / 2.0


def upper_k_raw(p: float, q: float, k: int) -> float:
    """Uncapped K-user converse expression (diverges as Q -> 0):

    log2(P+Q+1+2 sqrt(PQ))/2 - (K-1)/(2K) log2 Q - log2(K)/(2K)
      - [log2(Q/(K(P+1)))/(2K)]^+."""
    if k < 2:
        raise ValueError("user count must be >= 2")
    _check_nonnegative("P", p, "Q", q)
    if q == 0.0:
        return math.inf
    value = (
        0.5 * math.log2(_received_power(p, q))
        - (k - 1) / (2.0 * k) * math.log2(q)
        - math.log2(k) / (2.0 * k)
        - max(0.0, (math.log2(q) - math.log2(k * (p + 1.0))) / (2.0 * k))
    )
    return value


def upper_k(p: float, q: float, k: int) -> RateBound:
    """K-user upper bound, capped by the trivial bound where the converse
    expression is vacuous (small Q)."""
    value = min(upper_k_raw(p, q, k), awgn_capacity(p))
    return RateBound(value, "upper", f"upper-K{k}")


def universal_gap() -> float:
    """Worst-case upper-II minus lower-bound gap over all (P, Q):
    log2(3/2 + sqrt 2)/2 ~= 0.7716."""
    return 0.5 * math.log2(1.5 + math.sqrt(2.0))


def gap(p: float, q: float) -> float:
    """upper_ii minus lower_bound at one operating point."""
    return upper_ii(p, q).value - lower_bound(p, q).value


def high_sinr_asymptote(p: float, q: float) -> float:
    """Capacity asymptote for P -> infinity at fixed Q:

    log2(P/sqrt(2Q))/2 for Q > 2, log2(P/(1+Q/2))/2 for Q <= 2."""
    _check_nonnegative("P", p, "Q", q)
    if p == 0.0:
        raise ValueError("P must be positive")
    if q > 2.0:
        return 0.5 * math.log2(p / math.sqrt(2.0 * q))
    return 0.5 * math.log2(p / (1.0 + q / 2.0))


def feedback_bounds(p: float, q: float, rho_actual: float):
    """Both upper bounds evaluated at the channel's actual noise correlation.

    With causal feedback the correlation is no longer a free analysis
    parameter, so the bounds hold only at the true rho."""
    _check_nonnegative("P", p, "Q", q)
    if not -1.0 <= rho_actual <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    return (
        RateBound(upper_i_at_rho(p, q, rho_actual), "upper", "upper-I-feedback"),
        RateBound(upper_ii_at_rho(p, q, rho_actual), "upper", "upper-II-feedback"),
    )
