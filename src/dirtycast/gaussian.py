"""Bounds for the two-user (and K-user) Gaussian multicast channel
Y_k = X + S_k + Z_k with transmitter-known interference.

P is the SNR, Q the INR, noise power normalized to 1, logs base 2.  The two
upper bounds are each written once, as a raw objective in the receivers'
noise correlation rho (`upper_i_at_rho`, `upper_ii_at_rho`); the closed
forms `upper_i` and `upper_ii` are those objectives at the branch rho
(`rho_upper_i`, `rho_upper_ii`), and numeric minimizers over rho
cross-check that choice.  An objective takes P, Q and rho as floats or as
arrays that broadcast; so `minimize_upper_i_rho` and
`minimize_upper_ii_rho` minimize over rho at a whole (P, Q) grid in one
`minimize_scalar` call, with rho on an axis of its own after those of P
and Q (the objectives' kernels say which axes each term is formed on).
The achievable side is superposition dirty-paper coding over the split
S_k = A +/- D, with a covariance-based oracle that reproduces the two
codebook rates from first principles, for arrays of splits and Q in one
stacked call; `maximize_power_split` likewise solves a whole (P, Q) grid
in one call.

Every P, Q and split power (P_A, P_D) is a plain float, or an array that
broadcasts against the others, and takes numpy's path: floats in give a
Python float out.  A float call thus pays numpy's per-call overhead, about
1.2 us for `awgn_capacity` and 25 us for `gap` (2 vCPU, numpy 2.4); sweeps
pass arrays.  Each public function checks each argument once and then
calls private formulas that do not check again.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GaussianCov, gaussian_mi, minimize_scalar
from .core import _check_k, _check_nonnegative
from .core import _out, _rates, _received_power

__all__ = [
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
    "upper_k_raw",
    "upper_k",
    "universal_gap",
    "gap",
    "high_sinr_asymptote",
]


def _awgn(p):
    return 0.5 * np.log2(1.0 + p)


def awgn_capacity(p):
    """Interference-free point-to-point rate, the trivial upper bound."""
    _check_nonnegative("P", p)
    return _out(_awgn(p))


def rate_timeshare(p):
    """Serve each user on half the uses with full precancellation: log(1+P)/4."""
    _check_nonnegative("P", p)
    return _out(_rates(0.25 * np.log2(1.0 + p)))


def rate_interference_as_noise(p, q):
    """Fold the interference into the noise: log2(1 + P/(Q+1))/2."""
    _check_nonnegative("P", p, "Q", q)
    return _out(_rates(0.5 * np.log2(1.0 + p / (q + 1.0))))


def _rho_objective(value, p, q, rho, rho_max):
    """value(p, q, rho) on the open domain -1 < rho < rho_max, where its
    denominators are positive, and +inf outside it.

    The formula sees the closed entries too, with the divide and invalid
    warnings of their logs and sqrts silenced, and any (a minimizer step rarely
    has one) are then set to +inf in place; so rho keeps its own shape and
    a term in rho is not broadcast against Q.  The arguments are taken as
    arrays, so a float rho = -1 divides by zero as NumPy does, not raising."""
    closed = (rho <= -1.0) | (rho >= rho_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.asarray(value(np.asarray(p), np.asarray(q), np.asarray(rho)))
    if values.ndim == 0:
        return math.inf if closed else float(values)
    if np.any(closed):
        np.copyto(values, math.inf, where=closed)
    return values


def _upper_i_value(p, q, rho):
    """The upper_i_at_rho formula: log2(P+Q+1+2 sqrt(PQ))/4 on the axes of P
    and Q, less log2(Q/2+1-rho)/4 on those of Q and rho (their ratio
    overflows at large P, small Q), plus log2((1+P)/(1+rho))/4 on those of P
    and rho.  Scaling each term before the broadcast leaves a minimizer step two
    full-size passes, one in place, and is exact: a power of two commutes
    with rounding, and no log here, nor a difference of two, is subnormal."""
    value = 0.25 * np.log2(_received_power(p, q)) - 0.25 * np.log2(q / 2.0 + 1.0 - rho)
    value += 0.25 * np.log2((1.0 + p) / (1.0 + rho))
    return value


def upper_i_at_rho(p, q, rho):
    """Genie-argument upper bound at a fixed noise correlation rho.

    log2((1+P)/(1+rho))/4 + log2((P+Q+1+2 sqrt(PQ))/(Q/2+1-rho))/4;
    +inf where a denominator closes (rho <= -1 or rho >= Q/2+1).  P, Q and
    rho are floats or arrays that broadcast against each other."""
    return _rho_objective(_upper_i_value, p, q, rho, q / 2.0 + 1.0)


def _rho_i(q):
    return np.minimum(q / 4.0, 1.0)


def rho_upper_i(q):
    """Noise correlation minimizing the genie bound: min(Q/4, 1)."""
    _check_nonnegative("Q", q)
    return _out(_rho_i(q))


def _upper_i(p, q):
    return _rates(_upper_i_value(p, q, _rho_i(q)))


def upper_i(p, q):
    """The genie bound minimized over rho: its objective at rho_upper_i(Q),
    which always lies inside the objective's open domain.

    For Q >= 4 this is log2(1+P)/4 + log2((P+Q+1+2 sqrt(PQ))/Q)/4."""
    _check_nonnegative("P", p, "Q", q)
    return _out(_upper_i(p, q))


def _log2_q(q):
    """log2(Q) at each entry of Q, with -inf and no RuntimeWarning at the
    entries Q = 0."""
    q = np.asarray(q)
    return np.log2(q, out=np.full(q.shape, -math.inf), where=q > 0.0)


def _rate_distortion_term(p, q, rho):
    """[log2(Q/(2P+1+rho))/4]^+ for Q > 0, the term upper_ii_at_rho
    subtracts; 0 at Q = 0.  Twice it is the floor under
    I(S+; sqrt2 X + S+ + Z+), with S+ = (S1+S2)/sqrt2 and noise
    Z+ = (Z1+Z2)/sqrt2 of variance 1+rho.  log2(Q)/4 (axes of Q) and
    log2(2P+1+rho)/4 (P, rho) are each scaled first, exactly as in
    _upper_i_value, so the difference and the clamp are the full-size passes."""
    return np.maximum(0.0, 0.25 * _log2_q(q) - 0.25 * np.log2(2.0 * p + 1.0 + rho))


def _upper_ii_value(p, q, rho):
    """The upper_ii_at_rho formula: half the log of P+Q+1+2 sqrt(PQ) (axes of
    P, Q) over sqrt((1+rho)(Q+1-rho)) (Q, rho), less _rate_distortion_term,
    which is subtracted in place."""
    value = 0.5 * np.log2(_received_power(p, q) / np.sqrt((1.0 + rho) * (q + 1.0 - rho)))
    value -= _rate_distortion_term(p, q, rho)
    return value


def upper_ii_at_rho(p, q, rho):
    """Joint-output upper bound at a fixed noise correlation rho.

    log2((P+Q+2 sqrt(PQ)+1)/sqrt((1+rho)(Q+1-rho)))/2
      - [log2(Q/(2P+1+rho))/4]^+;
    +inf where (1+rho)(Q+1-rho) closes (rho <= -1 or rho >= Q+1).  P, Q
    and rho are floats or arrays that broadcast against each other."""
    return _rho_objective(_upper_ii_value, p, q, rho, q + 1.0)


def _rho_ii(q):
    return np.minimum(q / 2.0, 1.0)


def rho_upper_ii(q):
    """Noise correlation minimizing the leading term of the joint-output
    bound: min(Q/2, 1)."""
    _check_nonnegative("Q", q)
    return _out(_rho_ii(q))


def _upper_ii(p, q):
    return _rates(_upper_ii_value(p, q, _rho_ii(q)))


def upper_ii(p, q):
    """The joint-output bound at the branch rho: its objective at
    rho_upper_ii(Q), which always lies inside the objective's open domain.

    rho_upper_ii minimizes the leading term; when the [.]^+ correction is
    active at small P the exact minimum over rho of the raw objective can
    sit strictly below this value, which stays a valid upper bound either
    way (see minimize_upper_ii_rho).
    """
    _check_nonnegative("P", p, "Q", q)
    return _out(_upper_ii(p, q))


def upper_envelope(p, q):
    """min of the two correlation bounds and the trivial bound log2(1+P)/2."""
    _check_nonnegative("P", p, "Q", q)
    return _out(np.minimum(np.minimum(_upper_i(p, q), _upper_ii(p, q)), _awgn(p)))


def _split_rate(p_a, p_d, q):
    """log2(1 + P_A/(P_D+Q/2+1))/2 + log2(1+P_D)/4."""
    return 0.5 * np.log2(1.0 + p_a / (p_d + q / 2.0 + 1.0)) + 0.25 * np.log2(1.0 + p_d)


def rate_of_split(p_a, p_d, q):
    """Rate of the superposition scheme at the power split (P_A, P_D); the
    powers and Q are floats or arrays that broadcast:

    log2(1 + P_A/(P_D+Q/2+1))/2 + log2(1+P_D)/4."""
    _check_nonnegative("P_A", p_a, "P_D", p_d, "Q", q)
    return _out(_split_rate(p_a, p_d, q))


def _lower_bound(p, q):
    p_d = np.minimum(np.maximum(q / 2.0 - 1.0, 0.0), p)
    return _rates(_split_rate(p - p_d, p_d, q))


def lower_bound(p, q):
    """Best superposition-DPC rate over all power splits: the split rate at
    the optimal P_D = min(max(Q/2 - 1, 0), P).

    That is pure DPC against the common interference part (Q/2 < 1), a
    mixed split (1 <= Q/2 < P+1), and pure time-sharing (Q/2 >= P+1).
    """
    _check_nonnegative("P", p, "Q", q)
    return _out(_lower_bound(p, q))


def _minimize_over_rho(objective, p, q):
    """objective(p, q, rho) minimized over rho in [-1, 1] at each entry of
    P and Q broadcast, in one minimize_scalar call.  rho is scanned on a
    new last axis, after those of P and Q."""
    _check_nonnegative("P", p, "Q", q)
    p_scan, q_scan = np.expand_dims(p, -1), np.expand_dims(q, -1)
    return minimize_scalar(lambda rho: objective(p_scan, q_scan, rho), (-1.0, 1.0))


def minimize_upper_i_rho(p, q):
    """Numeric minimizer of the genie bound over rho at each entry of P and
    Q, floats or arrays that broadcast; returns (rho, bits), floats for
    floats, else arrays of the broadcast shape."""
    return _minimize_over_rho(upper_i_at_rho, p, q)


def minimize_upper_ii_rho(p, q):
    """Numeric minimizer of the joint-output bound over rho at each entry of
    P and Q, floats or arrays that broadcast; returns (rho, bits), floats
    for floats, else arrays of the broadcast shape."""
    return _minimize_over_rho(upper_ii_at_rho, p, q)


def maximize_power_split(p, q):
    """Numeric oracle for the best power split; returns (P_A, P_D, bits).

    P and Q are floats, or arrays that broadcast, whose entries are all
    solved in one minimize_scalar call; then P_A, P_D and bits are arrays
    of the broadcast shape.  At fixed P_D the split rate rises with P_A, so
    no optimum leaves power unspent and the search runs on the full-power
    line P_A + P_D = P.  It minimizes the negated rate over the log share
    s = log(1+P_D)/log(1+P) in [0, 1], which resolves an optimal P_D many
    decades below P; the closed-form optimum is not used."""
    _check_nonnegative("P", p, "Q", q)

    def p_d_at(s, p):
        return np.minimum(np.expm1(s * np.log1p(p)), p)

    # the shares are scanned on a new last axis, so P_D is computed once per P
    p_scan, q_scan = np.expand_dims(p, -1), np.expand_dims(q, -1)

    def negated_rate(s):
        p_d = p_d_at(s, p_scan)
        return -_split_rate(p_scan - p_d, p_d, q_scan)

    s, _ = minimize_scalar(negated_rate, (0.0, 1.0))
    p_d = _out(p_d_at(s, p))
    p_a = p - p_d  # P_D <= P, so no power goes negative
    return p_a, p_d, _out(_split_rate(p_a, p_d, q))


# Index map of the factor representation used by the scheme oracle.
_DPC_VARS = {"x_a": 0, "x_d": 1, "a": 2, "d": 3, "z": 4, "u_a": 5, "u_d": 6, "y1": 7}
# Rows are the variables, columns the factors (X_A, X_D, A, D, Z); the three
# alpha entries of U_A and U_D are filled in per split.
_DPC_COEFFS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0],  # X_A
        [0.0, 1.0, 0.0, 0.0, 0.0],  # X_D
        [0.0, 0.0, 1.0, 0.0, 0.0],  # A
        [0.0, 0.0, 0.0, 1.0, 0.0],  # D
        [0.0, 0.0, 0.0, 0.0, 1.0],  # Z
        [1.0, 0.0, 0.0, 0.0, 0.0],  # U_A = X_A + alpha_A A
        [0.0, 1.0, 0.0, 0.0, 0.0],  # U_D = X_D + alpha_D ((1-alpha_A) A + D)
        [1.0, 1.0, 1.0, 1.0, 1.0],  # Y1 = X_A+X_D+A+D+Z
    ]
)


def dpc_covariance(p_a, p_d, q):
    """Joint covariance of (X_A, X_D, A, D, Z, U_A, U_D, Y1) for the scheme.

    A and D are the half-sum/half-difference interference parts, each of
    variance Q/2; U_A = X_A + alpha_A A with alpha_A = P_A/(P+Q/2+1);
    U_D = X_D + alpha_D((1-alpha_A)A + D) with alpha_D = P_D/(P_D+1).
    The split's powers P_A, P_D and Q are floats or arrays that broadcast;
    returns (GaussianCov, name->index map), the GaussianCov a stack of one
    8x8 matrix per entry of the broadcast shape.
    """
    _check_nonnegative("P_A", p_a, "P_D", p_d, "Q", q)
    p_a, p_d, q = np.broadcast_arrays(p_a, p_d, q)
    alpha_a = p_a / (p_a + p_d + q / 2.0 + 1.0)
    alpha_d = p_d / (p_d + 1.0)
    coeffs = np.broadcast_to(_DPC_COEFFS, p_a.shape + _DPC_COEFFS.shape).copy()
    coeffs[..., 5, 2] = alpha_a
    coeffs[..., 6, 2] = alpha_d * (1.0 - alpha_a)
    coeffs[..., 6, 3] = alpha_d
    variances = np.stack([p_a, p_d, q / 2.0, q / 2.0, np.ones_like(q)], axis=-1)
    return GaussianCov.from_factors(coeffs, variances), dict(_DPC_VARS)


def dpc_scheme_oracle(p_a, p_d, q):
    """Binning rates of the two codebooks, from the covariance alone.

    r_a = I(U_A;Y1) - I(U_A;A) and r_d = I(U_D;Y1,U_A) - I(U_D;A,D); these
    must equal log2(1+P_A/(P_D+Q/2+1))/2 and log2(1+P_D)/2.  P_A, P_D and
    Q are floats or arrays that broadcast, like r_a and r_d; each of the
    four terms is one gaussian_mi call over the covariance stack.

    A zero power or Q = 0 makes some variables constants, whose
    mutual-information terms are 0 by convention.  Each constant is swapped
    for an independent unit-variance variable, which changes no mutual
    information and keeps every block nonsingular; those entries' terms are
    then masked to 0.  A constant's row and column are 0, so the swap keeps
    the checked matrix PSD, and it is not checked again.
    """
    cov, ix = dpc_covariance(p_a, p_d, q)
    constant = np.diagonal(cov.matrix, axis1=-2, axis2=-1) == 0.0
    cov = GaussianCov._of_valid(cov.matrix + constant[..., None] * np.eye(8))
    u_a, u_d, y1 = [ix["u_a"]], [ix["u_d"]], [ix["y1"]]
    leak_a = np.where(q > 0.0, gaussian_mi(cov, u_a, [ix["a"]]), 0.0)
    leak_d = np.where(q > 0.0, gaussian_mi(cov, u_d, [ix["a"], ix["d"]]), 0.0)
    r_a = np.where(p_a > 0.0, gaussian_mi(cov, u_a, y1) - leak_a, 0.0)
    r_d = np.where(p_d > 0.0, gaussian_mi(cov, u_d, y1 + u_a) - leak_d, 0.0)
    return _out(r_a), _out(r_d)


def upper_k_raw(p, q, k: int):
    """Uncapped K-user converse expression, +inf at Q = 0 (it diverges as
    Q -> 0):

    log2(P+Q+1+2 sqrt(PQ))/2 - (K-1)/(2K) log2 Q - log2(K)/(2K)
      - [log2(Q/(K(P+1)))/(2K)]^+."""
    _check_k(k, 2)
    _check_nonnegative("P", p, "Q", q)
    log2_q = _log2_q(q)
    return _out(
        0.5 * np.log2(_received_power(p, q))
        - (k - 1) / (2.0 * k) * log2_q
        - math.log2(k) / (2.0 * k)
        - np.maximum(0.0, (log2_q - np.log2(k * (p + 1.0))) / (2.0 * k))
    )


def upper_k(p, q, k: int):
    """K-user upper bound, capped by the trivial bound where the converse
    expression is vacuous (small Q)."""
    return _out(_rates(np.minimum(upper_k_raw(p, q, k), _awgn(p))))


def universal_gap() -> float:
    """Worst-case upper-II minus lower-bound gap over all (P, Q):
    log2(3/2 + sqrt 2)/2 ~= 0.7716."""
    return 0.5 * math.log2(1.5 + math.sqrt(2.0))


def gap(p, q):
    """upper_ii minus lower_bound, checked like a rate: a rounding below 0
    (upper_ii < lower_bound by 6e-14 at P = 1e160) is clamped."""
    _check_nonnegative("P", p, "Q", q)
    return _out(_rates(_upper_ii(p, q) - _lower_bound(p, q)))


def high_sinr_asymptote(p, q):
    """Capacity asymptote for P -> infinity at fixed Q:

    log2(P/sqrt(2Q))/2 for Q > 2, log2(P/(1+Q/2))/2 for Q <= 2, taken as
    a difference of logs, since the ratio underflows at P = 1e-300,
    Q = 1e300.  Every entry of P must be positive."""
    _check_nonnegative("P", p, "Q", q)
    if np.any(np.equal(p, 0.0)):
        raise ValueError("P must be positive")
    return _out(0.5 * (np.log2(p) - np.log2(np.where(q > 2.0, np.sqrt(2.0 * q), 1.0 + q / 2.0))))
