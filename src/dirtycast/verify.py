"""Cross-verification suite: every closed form is checked against an
independent oracle (numeric optimizer, brute-force enumeration, covariance
mutual information, Monte Carlo) and every structural invariant is
asserted.  `dirtycast verify` runs everything and reports one line per
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import binary, correlated, figures, gaussian
from .core import (
    GaussianCov,
    JointPmf,
    binary_entropy,
    gaussian_mi,
    minimize_scalar,
    pmf_entropy,
)
from .simulate import SchemeRun, simulate_scheme

__all__ = [
    "run_checks",
    "CHECKS",
    "P_GRID",
    "Q_GRID_LINEAR",
    "Q_GRID_LOG",
    "UPPER_II_CORNER",
    "RHO_MAP_P",
    "RHO_MAP_Q",
]


class CheckFailure(AssertionError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailure(msg)


# Grids shared with the test suite: P log-spaced, Q both as the literal
# 21-point linear progression 0..1e4 and as a log ladder for extra small-Q
# coverage.
P_GRID = tuple(float(p) for p in np.logspace(math.log10(0.1), 4.0, 20))
Q_GRID_LINEAR = tuple(float(q) for q in np.linspace(0.0, 1.0e4, 21))
Q_GRID_LOG = (0.0,) + tuple(float(q) for q in np.logspace(-2.0, 4.0, 20))

# (P, Q) pairs of the rho-map grid where the [.]^+ correction drags the true
# minimizer of the raw upper-II objective into the interior, strictly below
# its value at the branch rho.  Everywhere else on the grid the branch rho
# is the exact argmin.
UPPER_II_CORNER = ((0.1, 2.0), (0.1, 4.0), (0.1, 8.0))

RHO_MAP_P = (0.1, 1.0, 10.0, 100.0, 2000.0)
RHO_MAP_Q = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 100.0)


def check_entropy_basics() -> str:
    _require(binary_entropy(0.5) == 1.0, "H(1/2) must be 1")
    _require(binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0, "H endpoint")
    for q in np.linspace(0.0, 1.0, 101):
        _require(abs(binary_entropy(q) - binary_entropy(1 - q)) < 1e-12, "H symmetry")
    for m in range(2, 65):
        h = pmf_entropy(JointPmf.uniform(range(m)))
        _require(abs(h - math.log2(m)) < 1e-12, f"uniform({m}) entropy {h}")
    return "H endpoints/symmetry and uniform entropies to 1e-12"


def _random_cov(rng, dim):
    a = rng.normal(size=(dim, dim + 2))
    return GaussianCov(dim, a @ a.T)


def check_gaussian_mi_properties() -> str:
    rng = np.random.default_rng(7)
    worst_sym, worst_neg = 0.0, 0.0
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        cov = _random_cov(rng, dim)
        cut = int(rng.integers(1, dim))
        a, b = list(range(cut)), list(range(cut, dim))
        fwd, bwd = gaussian_mi(cov, a, b), gaussian_mi(cov, b, a)
        worst_sym = max(worst_sym, abs(fwd - bwd))
        worst_neg = min(worst_neg, fwd)
    _require(worst_sym < 1e-9, f"MI symmetry violated by {worst_sym}")
    _require(worst_neg > -1e-9, f"negative MI {worst_neg}")
    for p in (0.5, 4.0, 1995.2623149688789):
        awgn = GaussianCov(2, np.array([[p, p], [p, p + 1.0]]))
        err = abs(gaussian_mi(awgn, [0], [1]) - 0.5 * math.log2(1.0 + p))
        _require(err < 1e-12, f"AWGN identity I(X;X+Z) off by {err} at P={p}")
    return ("symmetry<1e-9, nonnegativity on random PSD matrices; "
            "AWGN identity to 1e-12 at P in {0.5, 4, 33 dB}")


def rho_map_i_at(p: float, q: float) -> float:
    """Distance of the numeric argmin of the upper-I objective from
    rho_upper_i(Q); fails beyond 1e-4."""
    r, _ = gaussian.minimize_upper_i_rho(p, q)
    off = abs(r - gaussian.rho_upper_i(q))
    _require(off < 1e-4, f"upper-I rho map off by {off} at P={p}, Q={q}")
    return off


def rho_map_ii_at(p: float, q: float) -> bool:
    """Check the upper-II rho map at one point; True at a documented corner,
    where the numeric minimum sits strictly below the closed form."""
    r, v = gaussian.minimize_upper_ii_rho(p, q)
    rho_star = gaussian.rho_upper_ii(q)
    closed = gaussian.upper_ii(p, q)
    corner = (p, q) in UPPER_II_CORNER
    if corner:
        _require(
            v < closed - 1e-3 and abs(r - rho_star) > 1e-2,
            f"expected interior optimum at P={p}, Q={q}, got rho={r}",
        )
    else:
        _require(abs(r - rho_star) < 1e-4, f"rho map off at P={p}, Q={q}: {r}")
        _require(abs(v - closed) < 1e-9, f"min != closed at P={p}, Q={q}")
    _require(v <= closed + 1e-9, f"closed form below rho minimum at P={p}, Q={q}")
    return corner


def check_minimizer_rho_map_i() -> str:
    x, v = minimize_scalar(lambda t: t * t, (-1.0, 1.0))
    _require(abs(x) < 1e-6 and v < 1e-12, "quadratic minimum")
    worst = max(rho_map_i_at(p, q) for p in RHO_MAP_P for q in RHO_MAP_Q)
    return f"upper-I rho map reproduced on {len(RHO_MAP_P)}x{len(RHO_MAP_Q)} grid (worst {worst:.2e})"


def check_minimizer_rho_map_ii() -> str:
    deviating = sum(rho_map_ii_at(p, q) for p in RHO_MAP_P for q in RHO_MAP_Q)
    reproduced = len(RHO_MAP_P) * len(RHO_MAP_Q) - deviating
    return (
        f"upper-II rho map reproduced at {reproduced} points; "
        f"{deviating} documented small-P corner points sit strictly below the closed form"
    )


def check_binary_bounds_ordered() -> str:
    for k in range(2, 11):
        for q in np.arange(0.0, 0.51, 0.05):
            spec = binary.BinaryChannelSpec.iid(float(q), k=k)
            lo = binary.lower_bound_k(spec)
            hi = binary.upper_bound_k(spec)
            _require(lo <= hi + 1e-12, f"K={k}, q={q}: lower {lo} > upper {hi}")
    return "lower <= upper for K in 2..10, q in 0..0.5"


def check_binary_sandwich() -> str:
    for k in range(2, 11):
        for q in np.arange(0.0, 0.51, 0.05):
            h = binary_entropy(float(q))
            mid = binary.joint_xor_entropy(k, float(q)) / k
            _require(
                (1 - 1 / k) * h - 1e-12 <= mid <= h + 1e-12,
                f"sandwich fails at K={k}, q={q}",
            )
    return "(1-1/K)H(q) <= H_joint/K <= H(q) on the grid"


def check_binary_large_k() -> str:
    for q in np.arange(0.05, 0.51, 0.05):
        h = binary_entropy(float(q))
        spec = binary.BinaryChannelSpec.iid(float(q), k=64)
        gap = abs(binary.upper_bound_k(spec) - (1.0 - h))
        _require(gap <= h / 64.0 + 1e-9, f"K=64 limit off by {gap} at q={q}")
    return "K=64 upper bound within H(q)/64 of 1-H(q)"


def check_weight_enumeration() -> str:
    for k in (2, 3, 5, 8, 12):
        for q in (0.0, 0.1, 0.25, 0.5, 0.7):
            fast = binary.joint_xor_entropy(k, q)
            brute = binary.joint_xor_entropy_brute(k, q)
            _require(abs(fast - brute) < 1e-12, f"K={k}, q={q}: {fast} vs {brute}")
    return "weight-class joint entropy equals brute-force enumeration to 1e-12"


def check_gp_rate() -> str:
    channels = (binary.xor_channel(1), binary.xor_channel(2))
    specs = [binary.BinaryChannelSpec.iid(q) for q in (0.1, 0.25, 0.4)]
    specs.append(
        binary.BinaryChannelSpec.pair_joint(
            JointPmf({(0, 0): 0.5, (0, 1): 0.2, (1, 0): 0.1, (1, 1): 0.2})
        )
    )
    specs.append(
        binary.BinaryChannelSpec.pair_joint(
            JointPmf({(0, 0): 0.05, (0, 1): 0.65, (1, 0): 0.05, (1, 1): 0.25})
        )
    )
    worst = 0.0
    for spec in specs:
        rate = binary.gp_rate(binary.capacity_achieving_joint(spec), channels)
        worst = max(worst, abs(rate - binary.capacity_two_user(spec)))
    _require(worst < 1e-9, f"auxiliary construction misses capacity by {worst}")
    return f"binning rate equals the exact capacity (worst |diff| {worst:.2e})"


def check_simulation_mi() -> str:
    spec = binary.BinaryChannelSpec.iid(0.25)
    report = simulate_scheme(spec, SchemeRun(n=100_000, rate=None, trials=1, seed=7))
    q_true = 0.375
    sigma = math.sqrt(q_true * (1 - q_true) / report.interfered_samples)
    dev = abs(report.empirical_crossover - q_true)
    _require(dev <= 3 * sigma, f"crossover off by {dev} (> 3 sigma = {3*sigma})")
    mi_err = abs(report.empirical_mi_per_symbol - report.predicted_mi_per_symbol)
    _require(mi_err <= 0.01 * report.predicted_mi_per_symbol, f"MI estimate off by {mi_err}")
    return (
        f"crossover {report.empirical_crossover:.5f} within 3 sigma of {q_true}; "
        f"MI {report.empirical_mi_per_symbol:.6f} within 1% of {report.predicted_mi_per_symbol:.6f}"
    )


def check_gaussian_ordering() -> str:
    for q_grid in (Q_GRID_LINEAR, Q_GRID_LOG):
        for p in P_GRID:
            for q in q_grid:
                base = max(
                    gaussian.rate_timeshare(p),
                    gaussian.rate_interference_as_noise(p, q),
                )
                lo = gaussian.lower_bound(p, q)
                hi = gaussian.upper_envelope(p, q)
                _require(
                    base <= lo + 1e-12 and lo <= hi + 1e-9,
                    f"ordering fails at P={p}, Q={q}: {base}, {lo}, {hi}",
                )
    return "baselines <= lower <= envelope on linear and log Q grids"


def check_branch_continuity() -> str:
    eps = 1e-10
    worst = 0.0
    for p in (0.3, 0.5, 1.0, 2.0, 4.0, 10.0, 40.0, 321.0, 500.0, 1995.26):
        seams = (
            ("lower", gaussian.lower_bound, 2.0),
            ("lower", gaussian.lower_bound, 2.0 * (p + 1.0)),
            ("upper-I", gaussian.upper_i, 4.0),
            ("upper-II", gaussian.upper_ii, 2.0),
        )
        for label, bound, q in seams:
            jump = abs(bound(p, q + eps) - bound(p, q - eps))
            _require(jump < 1e-9, f"{label} seam Q={q} at P={p} jumps by {jump}")
            worst = max(worst, jump)
    return f"all four branch seams continuous to 1e-9 (worst jump {worst:.1e})"


def check_lower_bound_vs_grid() -> str:
    worst = 0.0
    for p in (0.1, 1.0, 3.79, 12.0, 23.4, 263.7, 1.0e4):
        for q in (0.0, 0.5, 2.0, 4.0, 31.6, 500.0, 1.0e4):
            _, numeric = gaussian.maximize_power_split(p, q)
            closed = gaussian.lower_bound(p, q)
            worst = max(worst, abs(closed - numeric) / max(1.0, closed))
    _require(worst <= 1e-12, f"closed lower bound vs power-split oracle differ by {worst} relative")
    return f"closed form equals power-split maximization to 1e-12 relative (worst {worst:.2e})"


def check_upper_bounds_vs_rho_min() -> str:
    worst_i = 0.0
    worst_ii = 0.0
    for p in P_GRID:
        for q in Q_GRID_LINEAR:
            _, v = gaussian.minimize_upper_i_rho(p, q)
            worst_i = max(worst_i, abs(v - gaussian.upper_i(p, q)))
            _, v = gaussian.minimize_upper_ii_rho(p, q)
            worst_ii = max(worst_ii, abs(v - gaussian.upper_ii(p, q)))
    _require(worst_i < 1e-5, f"upper-I closed vs minimized differ by {worst_i}")
    _require(worst_ii < 1e-5, f"upper-II closed vs minimized differ by {worst_ii}")
    slack = 0.0
    for p in P_GRID:
        for q in Q_GRID_LOG:
            _, v = gaussian.minimize_upper_ii_rho(p, q)
            slack = max(slack, v - gaussian.upper_ii(p, q))
    _require(slack <= 1e-9, f"closed upper-II fell below its rho minimum by {slack}")
    return (
        f"closed forms match rho minimization on the 20x21 grid "
        f"(worst I {worst_i:.2e}, II {worst_ii:.2e}); closed II never below the minimum"
    )


def check_dpc_oracle() -> str:
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(100):
        p_a, p_d, q = (float(10.0 ** rng.uniform(-2, 3)) for _ in range(3))
        split = gaussian.PowerSplit(p_a, p_d)
        r_a, r_d = gaussian.dpc_scheme_oracle(split, q)
        # the split rate is r_a + r_d/2, and all of it is r_d/2 at P_A = 0
        d = gaussian.rate_of_split(gaussian.PowerSplit(0.0, p_d), q)
        worst = max(worst, abs(r_d - 2.0 * d), abs(r_a - (gaussian.rate_of_split(split, q) - d)))
    _require(worst < 1e-9, f"scheme oracle off by {worst}")
    return f"covariance-assembled codebook rates match rate_of_split (worst {worst:.2e})"


def check_z_transform() -> str:
    for rho in np.linspace(-1.0, 1.0, 41):
        m = gaussian.z_sum_difference_cov(float(rho))
        _require(
            m[0, 0] == 1.0 + rho and m[1, 1] == 1.0 - rho and m[0, 1] == 0.0 and m[1, 0] == 0.0,
            f"noise rotation not exact at rho={rho}",
        )
    return "sum/difference noise covariance exactly diag(1+rho, 1-rho)"


def check_rate_distortion_floor() -> str:
    rng = np.random.default_rng(99)
    for _ in range(200):
        q = float(10.0 ** rng.uniform(-1, 3))
        p = float(10.0 ** rng.uniform(-1, 3))
        rho = float(rng.uniform(-1.0, 1.0))
        c = float(rng.uniform(-1.0, 1.0)) * math.sqrt(p / q)
        w_var = float(rng.uniform(0.0, 1.0)) * (p - c * c * q)
        # (S+, V) with V = sqrt2 X + S+ + Z+ and X = c S+ + W
        s_coef = math.sqrt(2.0) * c + 1.0
        cov = GaussianCov.from_factors(
            np.array([[1.0, 0.0, 0.0], [s_coef, math.sqrt(2.0), 1.0]]),
            [q, w_var, 1.0 + rho],
        )
        mi = gaussian_mi(cov, [0], [1])
        floor = max(0.0, 0.5 * math.log2(q / (2.0 * p + 1.0 + rho)))
        _require(mi >= floor - 1e-9, f"MI {mi} under floor {floor} (Q={q}, P={p}, rho={rho})")
    return "I(S+; sqrt2 X + S+ + Z+) >= [log2(Q/(2P+1+rho))/2]^+ on 200 random test channels"


def check_high_p_gap() -> str:
    for q in (1.0, 8.0, 100.0):
        g = gaussian.gap(1.0e8, q)
        _require(g <= 0.002, f"gap {g} at P=1e8, Q={q}")
        asymptote = gaussian.high_sinr_asymptote(1.0e8, q)
        for label, bound in (("lower", gaussian.lower_bound), ("upper-II", gaussian.upper_ii)):
            off = abs(bound(1.0e8, q) - asymptote)
            _require(off <= 0.002, f"{label} {off} from the high-SINR asymptote at P=1e8, Q={q}")
    return (
        "upper-II minus lower <= 0.002, and both within 0.002 of the high-SINR "
        "asymptote, at P=1e8 for Q in {1, 8, 100}"
    )


def check_universal_gap() -> str:
    const = gaussian.universal_gap()
    _require(abs(const - 0.77163) <= 1e-4, f"universal constant {const}")
    sup, arg = 0.0, None
    for p in P_GRID:
        for q in Q_GRID_LINEAR:
            g = gaussian.gap(p, q)
            if g > sup:
                sup, arg = g, (p, q)
    _require(0.74 <= sup <= 0.7717, f"grid supremum {sup} at {arg}")
    _require(sup <= const + 1e-9, f"grid supremum {sup} exceeds the constant {const}")
    p_star = (9.0 - math.sqrt(17.0)) / 4.0
    regional = 0.5 * math.log2((5.0 + math.sqrt(17.0)) / 4.0)
    _require(abs(gaussian.gap(p_star, 2.0) - regional) < 1e-12, "regional maximizer value")
    _require(abs(regional - 0.59479) <= 1e-3, f"regional constant {regional}")
    low_q_sup = max(
        gaussian.gap(float(p), float(q))
        for p in np.linspace(0.01, 10.0, 120)
        for q in np.linspace(0.0, 2.0, 81)
    )
    _require(low_q_sup <= regional + 1e-9, f"Q<=2 regional sweep exceeded: {low_q_sup}")
    return (
        f"constant {const:.5f}, grid sup {sup:.5f} from below; "
        f"regional max {regional:.5f} at (P={p_star:.4f}, Q=2)"
    )


def check_upper_k() -> str:
    for p in (0.5, 1.0, 10.0, 100.0, 1995.26):
        for q in (3.0, 4.0, 31.6, 1000.0, 4000.0):
            raw = gaussian.upper_k_raw(p, q, 2)
            ref = gaussian.upper_ii_at_rho(p, q, 1.0)
            _require(abs(raw - ref) < 1e-9, f"K=2 reduction fails at P={p}, Q={q}")
        # for Q > K(P+1) the bound exceeds time-sharing log2(1+P)/(2K) by
        # log2(1 + 2 sqrt(P/Q) + (P+1)/Q)/2 <= (2 sqrt(P/Q) + (P+1)/Q)/(2 ln 2),
        # up to the rounding of two cancelling logs of size log2 Q
        q = 1.0e10
        law = (2.0 * math.sqrt(p / q) + (p + 1.0) / q) / (2.0 * math.log(2.0))
        slack = 8.0 * np.finfo(float).eps * (math.log2(q) + math.log2(1.0 + p) + 1.0)
        for k in (2, 3, 4, 8):
            residual = gaussian.upper_k(p, q, k) - gaussian.awgn_capacity(p) / k
            _require(
                -slack <= residual <= law + slack,
                f"high-INR law fails at P={p}, K={k}: residual {residual:.3g}, law {law:.3g}",
            )
            _require(
                gaussian.upper_k(p, 1e-6, k) == gaussian.awgn_capacity(p),
                f"small-Q cap fails at P={p}, K={k}",
            )
    return ("K=2 reduction to the rho=1 bound; O(sqrt(P/Q)) excess over time-sharing at "
            "Q=1e10; trivial cap at small Q")


def check_correlated_t_and_bridge() -> str:
    # both branches of T evaluate to exactly 1/2 at the seam Qd=4
    _require(abs(correlated.t_of_qd(4.0) - 0.5) < 1e-15, "T(4) must be 1/2")
    _require(
        abs(correlated.t_of_qd(4.0 + 1e-10) - correlated.t_of_qd(4.0 - 1e-10)) < 1e-9,
        "T continuity at Qd=4",
    )
    prev = -1.0
    for qd in np.linspace(0.0, 50.0, 501):
        t = correlated.t_of_qd(float(qd))
        _require(t >= prev - 1e-12, f"T not nondecreasing at Qd={qd}")
        prev = t
    return "T(Qd) = 1/2 at the seam Qd=4, continuous and nondecreasing"


def check_correlated_scaled_and_gaps() -> str:
    rng = np.random.default_rng(3)
    for _ in range(50):
        b1, b2 = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        q0 = float(10.0 ** rng.uniform(-1, 2))
        spec = correlated.CorrelatedSpec.from_scaled(10.0, b1, b2, q0)
        for label, got, want in (("Q1", spec.q1, b1 * b1 * q0), ("Q2", spec.q2, b2 * b2 * q0),
                                 ("Qd", spec.qd, (b1 - b2) ** 2 * q0)):
            _require(abs(got - want) <= 1e-12 * max(1.0, got), f"{label} mismatch")
    try:
        correlated.CorrelatedSpec(10.0, 1.0, 1.0, 9.0)
        raise CheckFailure("infeasible (Q1,Q2,Qd) accepted")
    except ValueError:
        pass
    for qd, q in ((10.0, 10.0), (100.0, None), (0.0, 1.0)):
        g = correlated.high_sinr_gap_beta(1.0e8, qd, q)
        _require(g <= 0.01, f"high-SINR gap {g} at Qd={qd}")
    lo = correlated.lower_beta(25.0, 12.0)
    hi = correlated.upper_correlated(correlated.CorrelatedSpec.symmetric(25.0, 3.0, 12.0))
    _require(lo <= hi + 1e-12, "correlated ordering")
    return "scaled parameterization consistent; infeasible pairs rejected; high-SINR gaps <= 0.01"


def check_figures_deterministic() -> str:
    for name in ("fig2", "fig5"):
        h1, r1 = figures.figure_table(name)
        h2, r2 = figures.figure_table(name)
        _require(figures.render_csv(h1, r1) == figures.render_csv(h2, r2), f"{name} not stable")
    header, rows = figures.figure_table("fig5")
    for row in rows:
        _, ui, uii, lo, ts, ian = row
        _require(max(ts, ian) <= lo + 1e-12 <= min(ui, uii) + 1e-9, f"fig5 ordering at {row[0]}")
    return "figure tables reproducible; fig5 rows ordered baseline <= lower <= uppers"


CHECKS = (
    ("entropy-basics", check_entropy_basics),
    ("gaussian-mi-properties", check_gaussian_mi_properties),
    ("rho-map-upper-i", check_minimizer_rho_map_i),
    ("rho-map-upper-ii", check_minimizer_rho_map_ii),
    ("binary-bounds-ordered", check_binary_bounds_ordered),
    ("binary-entropy-sandwich", check_binary_sandwich),
    ("binary-large-k-limit", check_binary_large_k),
    ("binary-weight-enumeration", check_weight_enumeration),
    ("binary-binning-rate", check_gp_rate),
    ("scheme-mi-estimate", check_simulation_mi),
    ("gaussian-ordering", check_gaussian_ordering),
    ("gaussian-branch-continuity", check_branch_continuity),
    ("gaussian-lower-vs-grid", check_lower_bound_vs_grid),
    ("gaussian-upper-vs-rho-min", check_upper_bounds_vs_rho_min),
    ("gaussian-dpc-oracle", check_dpc_oracle),
    ("gaussian-noise-rotation", check_z_transform),
    ("gaussian-rate-distortion-floor", check_rate_distortion_floor),
    ("gaussian-high-snr-gap", check_high_p_gap),
    ("gaussian-universal-gap", check_universal_gap),
    ("gaussian-k-user", check_upper_k),
    ("correlated-t-and-bridge", check_correlated_t_and_bridge),
    ("correlated-scaled-and-gaps", check_correlated_scaled_and_gaps),
    ("figures-deterministic", check_figures_deterministic),
)


def run_checks(names=None):
    """Run the named checks (default: all) and return their results.

    A check that raises fails with the exception as its detail.  Raises
    ValueError naming any check that does not exist."""
    if names is not None:
        unknown = sorted(set(names) - {n for n, _ in CHECKS})
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
    selected = [(n, f) for n, f in CHECKS if names is None or n in names]
    results = []
    for name, func in selected:
        try:
            detail = func()
            results.append(CheckResult(name, True, detail))
        except Exception as exc:
            detail = str(exc) if isinstance(exc, AssertionError) else repr(exc)
            results.append(CheckResult(name, False, detail))
    return results
