"""Robust dirty-paper coding: bounds for two receivers whose interferences
are correlated, e.g. scaled versions beta_k * S0 of one known sequence.

Everything is driven by Qd = var(S1 - S2).  The upper bound charges a loss
T(Qd) against the single-user-like rate.  The achievable side is the
dithered superposition scheme, whose rate depends on the interference pair
only through Qd: it is the independent-interference lower bound of
`gaussian` at Q = Qd/2, so this module adds only the converse and T(Qd).
Arguments are floats or arrays that broadcast, as in `gaussian`.
"""

from __future__ import annotations

import numpy as np

from .core import _check_nonnegative, _check_number, _first, _out, _rates, _received_power
from .gaussian import _log2_q, _lower_bound

__all__ = ["scaled_powers", "t_of_qd", "upper_correlated", "lower_beta", "high_sinr_gap_beta"]


def scaled_powers(beta1, beta2, q0):
    """(Q1, Q2, Qd) of the interferences beta1*S0 and beta2*S0, with S0 of
    power Q0: beta1^2 Q0, beta2^2 Q0 and (beta1 - beta2)^2 Q0."""
    _check_nonnegative("Q0", q0)
    _check_number("beta1", beta1)
    _check_number("beta2", beta2)
    spread = beta1 - beta2
    q1, q2, qd = beta1 * beta1 * q0, beta2 * beta2 * q0, spread * spread * q0
    _check_nonnegative("Qd", qd, "Q1", q1, "Q2", q2)  # a NaN or overflowing beta
    return _out(q1), _out(q2), _out(qd)


def _check_feasible(q1, q2, qd):
    """Raise ValueError at the first entry with Qd > (sqrt(Q1) + sqrt(Q2))^2,
    the largest spread of a jointly Gaussian pair with these marginals."""
    q1, q2, qd = np.broadcast_arrays(q1, q2, qd)
    cap = (np.sqrt(q1) + np.sqrt(q2)) ** 2
    infeasible = qd > cap * (1.0 + 1e-9) + 1e-12
    if infeasible.any():
        i, at = _first(infeasible)
        raise ValueError(f"Qd={qd[i]}{at} infeasible for marginals Q1={q1[i]}, Q2={q2[i]} "
                         f"(max {cap[i]})")


def _t(qd):
    return np.where(qd > 4.0, 0.25 * _log2_q(qd), 0.5 * np.log2(1.0 + qd / 4.0))


def t_of_qd(qd):
    """Rate loss charged for interference spread Qd:

    log2(Qd)/4 for Qd > 4, else log2(1 + Qd/4)/2."""
    _check_nonnegative("Qd", qd)
    return _out(_t(qd))


def _upper(p, q1, q2, qd):
    return _rates(0.25 * np.log2(_received_power(p, q1)) + 0.25 * np.log2(_received_power(p, q2))
                  - _t(qd))


def upper_correlated(p, q1, q2, qd):
    """Upper bound sum_i log2(P+Q_i+1+2 sqrt(P Q_i))/4 - T(Qd), for pairs
    with Qd <= (sqrt(Q1) + sqrt(Q2))^2.  Qd is checked first: callers
    default Q1 to Qd/4, so a bad Qd must be named as Qd."""
    _check_nonnegative("Qd", qd, "P", p, "Q1", q1, "Q2", q2)
    _check_feasible(q1, q2, qd)
    return _out(_upper(p, q1, q2, qd))


def lower_beta(p, qd):
    """Best dithered-superposition rate over power splits.

    The scheme feels half the spread on each branch, so this is the
    independent-interference lower bound at Q = Qd/2: DPC regime for
    Qd < 4, mixed for 4 <= Qd < 4(P+1), pure time-sharing beyond."""
    _check_nonnegative("P", p, "Qd", qd)
    return _out(_lower_bound(p, qd / 2.0))


def high_sinr_gap_beta(p, qd, q=None):
    """upper_correlated minus lower_beta for a symmetric pair at spread Qd,
    checked like a rate: a rounding below 0 (at P = 1e170, Qd = 1e30) is clamped.

    q is the common marginal interference power Q1 = Q2; the default Qd/4
    is the smallest symmetric value compatible with the spread.  The gap
    tends to 0 as P grows at fixed (q, Qd).  Every entry of P must be positive."""
    _check_nonnegative("P", p, "Qd", qd)
    q = qd / 4.0 if q is None else q
    _check_nonnegative("Q", q)
    if np.any(np.equal(p, 0.0)):
        raise ValueError("P must be positive")
    _check_feasible(q, q, qd)
    return _out(_rates(_upper(p, q, q, qd) - _lower_bound(p, qd / 2.0)))
