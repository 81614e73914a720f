"""Bounds for the noiseless/noisy binary multicast channel with additive
interference known only at the transmitter.

Covers the exact two-user capacity 1 - H(S1 xor S2)/2, the K-user upper and
lower bounds, the baseline rates (time-sharing, ignoring the side
information), the noisy two-user bound pair, and an exact evaluator for the
random-binning rate min_k I(U;Y_k) - I(U;S) together with the four-letter
auxiliary construction that achieves capacity.

Every probability argument (q, noise_q, a crossover) is a float or a NumPy
array, and arrays broadcast: BinaryChannelSpec.iid(q) with an array q is a
whole sweep, and each closed form returns one rate per entry, an array for an
array and a Python float for floats, through the same NumPy code.  The user
count K stays an integer.  A float call pays NumPy's per-call cost, about
14 us for capacity_two_user and 40 us for upper_bound_k at K = 3 (2 vCPU
x86-64, numpy 2.4), and a column of 101 q costs about as much as one float,
so a sweep passes its q as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _LN2, InvalidDistributionError, JointPmf, _check_integer, _check_probability
from .core import _entropy, _out, _rate, _rates

__all__ = [
    "BinaryChannelSpec",
    "xor_convolve",
    "precancellation_rate",
    "capacity_two_user",
    "rate_timeshare",
    "rate_ignore_side_info",
    "joint_xor_entropy",
    "joint_xor_entropy_brute",
    "upper_bound_k",
    "lower_bound_k",
    "noisy_two_user_bounds",
    "xor_channel",
    "gp_rate",
    "capacity_achieving_joint",
]

@dataclass(frozen=True)
class BinaryChannelSpec:
    """Interference statistics for the binary channel Y_k = X xor S_k (xor Z_k).

    pair is the joint law of (S1, S2): derived from q for i.i.d. Bernoulli(q)
    interference (any K), else given (K = 2).  noise_q, when present, is the
    crossover probability of the i.i.d. channel noise bits Z_1, Z_2.

    q and noise_q may be NumPy arrays, which broadcast: such an array spec is a
    sweep, one channel per entry, and the closed forms return one rate per entry.
    Its pair then holds arrays, so an array spec is not hashable, and
    simulate_scheme and capacity_achieving_joint, which need one channel,
    refuse it.
    """

    k: int
    pair: JointPmf | None = None
    noise_q: float | None = None
    q: float | None = None

    def __post_init__(self):
        _check_integer("K", self.k)
        if self.k < 1:
            raise ValueError("user count must be >= 1")
        if (self.q is None) == (self.pair is None):
            raise ValueError("give exactly one of q (i.i.d. interference) and a pair law")
        if self.q is not None:
            _check_probability("interference probability", self.q)
            q, r = self.q, 1.0 - self.q
            law = {(0, 0): r * r, (0, 1): r * q, (1, 0): q * r, (1, 1): q * q}
            object.__setattr__(self, "pair", JointPmf._of_valid(law))
        elif (self.k != 2 or not isinstance(self.pair, JointPmf)
              or set(self.pair.prob) - {(0, 0), (0, 1), (1, 0), (1, 1)}):
            raise ValueError("a pair law is a JointPmf over {0,1}^2 for K=2")
        if self.noise_q is not None:
            _check_probability("noise crossover", self.noise_q)

    @classmethod
    def iid(cls, q, k: int = 2, noise_q=None) -> "BinaryChannelSpec":
        return cls(k, noise_q=noise_q, q=q)

    @classmethod
    def pair_joint(cls, pmf: JointPmf, noise_q: float | None = None) -> "BinaryChannelSpec":
        return cls(2, pmf, noise_q)

    @classmethod
    def fully_correlated(
        cls, q: float, flip: bool = False, noise_q: float | None = None
    ) -> "BinaryChannelSpec":
        """S1 ~ Bernoulli(q) with S2 = S1, or S2 = 1 - S1 when flip is set."""
        _check_probability("interference probability", q)
        _one_channel("fully_correlated", q)
        return cls(2, JointPmf({(0, int(flip)): 1.0 - q, (1, int(not flip)): q}), noise_q)

    @property
    def noiseless(self) -> bool:
        return self.noise_q is None or not np.any(self.noise_q)

    def marginal_one_probabilities(self) -> tuple:
        """P(S_k = 1) for each user."""
        if self.q is not None:
            return (self.q,) * self.k
        return tuple(self.pair.marginal((i,)).prob.get((1,), 0.0) for i in (0, 1))

    @property
    def xor_probability(self) -> float:
        """q' = P(S1 xor S2 = 1), the crossover seen on the precancelled half."""
        return self.pair.prob.get((0, 1), 0.0) + self.pair.prob.get((1, 0), 0.0)


def _one_channel(caller: str, q, noise_q=None) -> None:
    """Raise ValueError naming q or noise_q, of a spec or a constructor, if it
    is an array, which caller cannot take: it needs one channel."""
    for name, value in (("q", q), ("noise_q", noise_q)):
        if np.ndim(value):
            raise ValueError(f"{caller} needs one channel, got an array {name} "
                             f"of shape {np.shape(value)}")


def xor_convolve(a, b):
    """Crossover of the xor of two independent Bernoulli bits."""
    _check_probability("a", a)
    _check_probability("b", b)
    return _out(a * (1.0 - b) + b * (1.0 - a))


def _precancellation(crossover, noise_q=0.0):
    """precancellation_rate of checked arguments."""
    return 1.0 - 0.5 * _entropy(crossover) - 0.5 * _entropy(noise_q)


def precancellation_rate(crossover, noise_q=0.0):
    """1 - H(crossover)/2 - H(noise_q)/2: the rate of a user who sees a
    BSC(noise_q) on the half precancelled for it and a BSC(crossover) on the other."""
    _check_probability("crossover", crossover)
    _check_probability("noise_q", noise_q)
    return _out(_precancellation(crossover, noise_q))


def capacity_two_user(spec: BinaryChannelSpec):
    """Exact two-user noiseless capacity 1 - H(S1 xor S2)/2."""
    if spec.k != 2:
        raise ValueError("two-user capacity requires K=2")
    if not spec.noiseless:
        raise ValueError("exact capacity is only known for the noiseless channel")
    return _out(_rates(_precancellation(spec.xor_probability)))


def rate_timeshare(k: int) -> float:
    """Precancel one user at a time over 1/K of the uses: rate 1/K."""
    _check_integer("K", k)
    if k < 1:
        raise ValueError("user count must be >= 1")
    return _rate(1.0 / k)


def rate_ignore_side_info(spec: BinaryChannelSpec):
    """Transmitter ignores the interference: 1 - max_k H(S_k)."""
    # i.i.d. users share one marginal
    marginals = spec.marginal_one_probabilities() if spec.q is None else (spec.q,)
    return _out(_rates(1.0 - np.max([_entropy(p) for p in marginals], axis=0)))


def joint_xor_entropy(k: int, q):
    """H(S1^S2, S1^S3, ..., S1^SK) in bits for i.i.d. Bernoulli(q) bits, at any K.

    The xor tuple D and S1 fix all K bits, so H(D) = K H(q) - H(S1 | D).  Given
    that D has weight w of its m = K-1 entries, the posterior log-odds of S1 = 0
    are (m+1-2w) log((1-q)/q), a logistic in w, and each of the C(m, w) patterns
    of weight w has probability (1-q) q^w (1-q)^(m-w) + q (1-q)^w q^(m-w).  The
    weight-class law is taken in log space, so no K overflows it or underflows
    it to a wrong value.  q is a float or an array; the m + 1 weight classes of
    every q are scored in one array pass along a new last axis, so a call costs
    O(K) array work per q and holds a few (q, K) arrays.
    """
    _check_integer("K", k)
    if k < 2:
        raise ValueError("need at least two users")
    _check_probability("probability", q)
    q = np.asarray(q, dtype=float)[..., None]  # the weight w runs along the last axis
    ends = (q == 0.0) | (q == 1.0)  # H(D) = 0; any inner q keeps the logs finite
    q = np.where(ends, 0.5, q)
    m = k - 1
    w = np.arange(m + 1.0)
    log_comb = np.zeros(m + 1)  # log C(m, w), by the recurrence C(m, w) = C(m, w-1) (m-w+1) / w
    np.cumsum(np.log((m - w[1:] + 1.0) / w[1:]), out=log_comb[1:])
    log_q, log_r = np.log(q), np.log1p(-q)
    # log P(S1 = s, D = d) for one d of weight w, at the likelier s (a) and the other (b)
    a = (m + 1 - w) * log_r + w * log_q
    b = (m + 1 - w) * log_q + w * log_r
    a, b = np.maximum(a, b), np.minimum(a, b)
    x = a - b
    tail = np.exp(-x)
    spread = np.log1p(tail)
    # C(m, w) e^a (1 + e^-x) is P(weight w); h(1 / (1 + e^x)) is the posterior entropy
    posterior = np.sum(np.exp(log_comb + a + spread) * (spread + x * tail / (1.0 + tail)), -1)
    return _out(np.where(ends[..., 0], 0.0, k * _entropy(q[..., 0]) - posterior / _LN2))


_BRUTE_CHUNK = 1 << 16  # patterns scored per numpy pass, so K = 24 stays a few MB


def joint_xor_entropy_brute(k: int, q: float) -> float:
    """Brute-force oracle for joint_xor_entropy: score all 2^(K-1) patterns.

    Pattern d of weight w has probability (1-q) q^w (1-q)^(m-w) +
    q (1-q)^w q^(m-w), m = K-1, from its two preimages S1 = 0 and S1 = 1.
    The patterns are listed as integers, 2^16 at a time, and each one's
    weight is its popcount; no weight class is formed."""
    _check_integer("K", k)
    if k < 2 or k > 24:
        raise ValueError("brute-force enumeration supported for 2 <= K <= 24")
    m = k - 1
    r = 1.0 - q
    total = 0.0
    for start in range(0, 1 << m, _BRUTE_CHUNK):
        w = np.bitwise_count(np.arange(start, min(start + _BRUTE_CHUNK, 1 << m)))
        p = r * q**w * r ** (m - w) + q * r**w * q ** (m - w)
        total -= float(np.sum(p * np.log2(p, out=np.zeros_like(p), where=p > 0.0)))
    return total


def _check_k_user(spec: BinaryChannelSpec) -> None:
    """The setting both K-user bounds are stated for: i.i.d. interference,
    K >= 2 and a noiseless channel."""
    if spec.q is None:
        raise ValueError("the K-user bound is stated for i.i.d. interference")
    if spec.k < 2:
        raise ValueError("need at least two users")
    if not spec.noiseless:
        raise ValueError("the K-user bounds are stated for the noiseless channel")


def upper_bound_k(spec: BinaryChannelSpec):
    """K-user upper bound 1 - H(S1^S2, ..., S1^SK)/K for i.i.d. interference."""
    _check_k_user(spec)
    return _out(_rates(1.0 - joint_xor_entropy(spec.k, spec.q) / spec.k))


def lower_bound_k(spec: BinaryChannelSpec):
    """K-user achievable rate max{1 - H(S1), 1 - (1 - 1/K) H(S1 xor S2)}."""
    _check_k_user(spec)
    arm_ignore = 1.0 - _entropy(spec.q)
    arm_blocks = 1.0 - (1.0 - 1.0 / spec.k) * _entropy(spec.xor_probability)
    return _out(_rates(np.maximum(arm_ignore, arm_blocks)))


def noisy_two_user_bounds(spec: BinaryChannelSpec) -> tuple:
    """(achievable, upper) rates for the two-user channel with noise bits Z_k.

    achievable = 1 - H(S1^S2^Z1)/2 - H(Z1)/2
    upper      = 1 - H(S1^S2)/2   - H(Z1)/2
    """
    if spec.k != 2:
        raise ValueError("noisy bounds require K=2")
    if spec.noise_q is None:
        raise ValueError("noisy bounds need a noise crossover probability")
    p = spec.noise_q
    qx = spec.xor_probability
    return (
        _out(_rates(_precancellation(xor_convolve(qx, p), p))),
        _out(_rates(_precancellation(qx, p))),
    )


def xor_channel(user: int):
    """Deterministic channel y = x xor s_user as a conditional pmf."""
    _check_integer("user", user)
    if user not in (1, 2):
        raise ValueError("user must be 1 or 2")

    def channel(x, s1, s2):
        return {x ^ (s1 if user == 1 else s2): 1.0}

    return channel


def gp_rate(joint: JointPmf, channels) -> float:
    """Evaluate min_k I(U;Y_k) - I(U;S1,S2) exactly from a discrete joint.

    joint is over (U, A, S1, S2, X); channels is one conditional pmf
    p(y|x,s1,s2) per user, given as a callable returning {y: prob}.  The
    chain U <-> (X,S) <-> Y_k holds structurally because each Y_k is drawn
    from (x, s1, s2) alone; conditionals that fail to normalize within 1e-9
    raise InvalidDistributionError.
    """
    if joint.arity != 5:
        raise ValueError("joint must cover (U, A, S1, S2, X)")
    if any(np.ndim(p) for _, p in joint.atoms()):
        raise ValueError("gp_rate needs one channel's joint, got array probabilities "
                         "(the law of an array q)")
    for axis in range(5):
        if len({key[axis] for key, _ in joint.atoms()}) > 16:
            raise ValueError("supports above 16 atoms per variable are not supported")
    if not channels:
        raise ValueError("need at least one channel")

    i_us = joint.mutual_information((0,), (2, 3))
    rate = math.inf
    for channel in channels:
        uy: dict = {}
        for (u, _a, s1, s2, x), p in joint.atoms():
            if p == 0.0:
                continue
            cond = channel(x, s1, s2)
            total = math.fsum(float(cp) for cp in cond.values())
            if abs(total - 1.0) > 1e-9 or any(float(cp) < -1e-15 for cp in cond.values()):
                raise InvalidDistributionError(
                    f"channel conditional at x={x}, s=({s1},{s2}) sums to {total}"
                )
            for y, cp in cond.items():
                key = (u, y)
                uy[key] = uy.get(key, 0.0) + p * float(cp)
        i_uy = JointPmf(uy).mutual_information((0,), (1,))
        rate = min(rate, i_uy)
    return rate - i_us


def capacity_achieving_joint(spec: BinaryChannelSpec) -> JointPmf:
    """The four-letter auxiliary construction that meets the two-user capacity.

    A and X are fair coins independent of (S1, S2); U records the coin A
    together with the bit X xor S_A-side, i.e. U in {0,1,2,3} encodes
    (A=1, X^S1=1), (A=1, X^S1=0), (A=0, X^S2=1), (A=0, X^S2=0).
    """
    if spec.k != 2:
        raise ValueError("the construction is for K=2")
    _one_channel("capacity_achieving_joint", spec.q, spec.noise_q)
    atoms: dict = {}
    for (s1, s2), ps in spec.pair.atoms():
        for a in (0, 1):
            for x in (0, 1):
                if a == 1:
                    u = 0 if (x ^ s1) == 1 else 1
                else:
                    u = 2 if (x ^ s2) == 1 else 3
                key = (u, a, s1, s2, x)
                atoms[key] = atoms.get(key, 0.0) + 0.25 * ps
    return JointPmf(atoms)
