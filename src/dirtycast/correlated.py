"""Robust dirty-paper coding: bounds for two receivers whose interferences
are correlated, e.g. scaled versions beta_k * S0 of one known sequence.

Everything is driven by Qd = var(S1 - S2).  The upper bound charges a loss
T(Qd) against the single-user-like rate.  The achievable side is the
dithered superposition scheme, whose rate depends on the interference pair
only through Qd: it is the independent-interference lower bound of
`gaussian` at Q = Qd/2, so this module adds only the converse and T(Qd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _check_nonnegative, _rate, _received_power
from .gaussian import _lower_bound

__all__ = [
    "CorrelatedSpec",
    "t_of_qd",
    "upper_correlated",
    "lower_beta",
    "high_sinr_gap_beta",
]


@dataclass(frozen=True)
class CorrelatedSpec:
    """SNR plus the second-order description (Q1, Q2, Qd) of the pair.

    Feasibility of a joint Gaussian pair requires
    Qd <= (sqrt(Q1) + sqrt(Q2))^2.
    """

    p: float
    q1: float
    q2: float
    qd: float

    def __post_init__(self):
        # Qd first: callers default Q1 to Qd/4, so a bad Qd must be named as Qd
        _check_nonnegative("Qd", self.qd, "P", self.p, "Q1", self.q1, "Q2", self.q2)
        cap = (math.sqrt(self.q1) + math.sqrt(self.q2)) ** 2
        if self.qd > cap * (1.0 + 1e-9) + 1e-12:
            raise ValueError(
                f"Qd={self.qd} infeasible for marginals Q1={self.q1}, Q2={self.q2} (max {cap})"
            )

    @classmethod
    def from_scaled(cls, p: float, beta1: float, beta2: float, q0: float) -> "CorrelatedSpec":
        """Interferences beta1*S0 and beta2*S0 with S0 of power q0."""
        _check_nonnegative("Q0", q0)
        return cls(p, beta1**2 * q0, beta2**2 * q0, (beta1 - beta2) ** 2 * q0)

    @classmethod
    def symmetric(cls, p: float, q: float, qd: float) -> "CorrelatedSpec":
        return cls(p, q, q, qd)


def t_of_qd(qd: float) -> float:
    """Rate loss charged for interference spread Qd:

    log2(Qd)/4 for Qd > 4, else log2(1 + Qd/4)/2."""
    _check_nonnegative("Qd", qd)
    if qd > 4.0:
        return 0.25 * math.log2(qd)
    return 0.5 * math.log2(1.0 + qd / 4.0)


def upper_correlated(spec: CorrelatedSpec) -> float:
    """Upper bound sum_i log2(P+Q_i+1+2 sqrt(P Q_i))/4 - T(Qd)."""
    total = 0.0
    for qi in (spec.q1, spec.q2):
        total += 0.25 * math.log2(_received_power(spec.p, qi))
    return _rate(total - t_of_qd(spec.qd))


def lower_beta(p: float, qd: float) -> float:
    """Best dithered-superposition rate over power splits.

    The scheme feels half the spread on each branch, so this is the
    independent-interference lower bound at Q = Qd/2: DPC regime for
    Qd < 4, mixed for 4 <= Qd < 4(P+1), pure time-sharing beyond."""
    _check_nonnegative("P", p, "Qd", qd)
    return float(_lower_bound(p, qd / 2.0))


def high_sinr_gap_beta(p: float, qd: float, q: float | None = None) -> float:
    """upper_correlated minus lower_beta for a symmetric pair at spread Qd,
    checked like a rate: a rounding below 0 (at P = 1e170, Qd = 1e30) is clamped.

    q is the common marginal interference power Q1 = Q2; the default Qd/4
    is the smallest symmetric value compatible with the spread.  The gap
    tends to 0 as P grows at fixed (q, Qd)."""
    _check_nonnegative("P", p, "Qd", qd)
    if p == 0.0:
        raise ValueError("P must be positive")
    if q is None:
        q = qd / 4.0
    spec = CorrelatedSpec.symmetric(p, q, qd)
    return _rate(upper_correlated(spec) - lower_beta(p, qd))
