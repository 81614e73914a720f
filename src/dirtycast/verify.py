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
from .core import GaussianCov, JointPmf, binary_entropy, db_to_linear, gaussian_mi, pmf_entropy
from .simulate import SchemeRun, _uniforms, simulate_scheme

__all__ = [
    "run_checks",
    "CHECKS",
    "CLAIMS",
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


def _require_all(ok, message_at):
    """_require for every entry of the boolean array ok; message_at(*index)
    describes the first entry that fails."""
    fails = np.argwhere(~ok)
    if fails.size:
        raise CheckFailure(message_at(*fails[0]))


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
    q = np.linspace(0.0, 1.0, 101)
    _require(np.all(np.abs(binary_entropy(q) - binary_entropy(1 - q)) < 1e-12), "H symmetry")
    for m in range(2, 65):
        h = pmf_entropy(JointPmf.uniform(range(m)))
        _require(abs(h - math.log2(m)) < 1e-12, f"uniform({m}) entropy {h}")
    return "H endpoints/symmetry and uniform entropies to 1e-12"


def check_gaussian_mi_properties() -> str:
    u = _uniforms(7, 67 + 60 * 80)  # 60 sizes in 2..8, a cut per size, 8 x 10 entries a matrix
    dims, cuts, entries = 2 + (7.0 * u[:60]).astype(int), u[60:67], 2.0 * u[67:] - 1.0
    worst_sym, worst_neg = 0.0, 0.0
    for dim in np.unique(dims).tolist():  # one stack and cut per size
        a = entries.reshape(60, 8, 10)[dims == dim, :dim, :dim + 2]  # covariances a a^T
        cut = 1 + int((dim - 1) * cuts[dim - 2])
        cov, lo, hi = GaussianCov(a @ np.swapaxes(a, -1, -2)), range(cut), range(cut, dim)
        fwd, bwd = gaussian_mi(cov, lo, hi), gaussian_mi(cov, hi, lo)
        worst_sym = max(worst_sym, float(np.max(np.abs(fwd - bwd))))
        worst_neg = min(worst_neg, float(np.min(fwd)))
    _require(worst_sym < 1e-9, f"MI symmetry violated by {worst_sym}")
    _require(worst_neg > -1e-9, f"negative MI {worst_neg}")
    p = np.array((0.5, 4.0, 1995.2623149688789))
    awgn = GaussianCov(np.moveaxis(np.array([[p, p], [p, p + 1.0]]), -1, 0))
    err = np.abs(gaussian_mi(awgn, [0], [1]) - gaussian.awgn_capacity(p))
    _require_all(err < 1e-12, lambda i: f"AWGN identity I(X;X+Z) off by {err[i]} at P={p[i]}")
    return ("symmetry<1e-9, nonnegativity on random PSD matrices; "
            "AWGN identity to 1e-12 at P in {0.5, 4, 33 dB}")


def check_minimizer_rho_map_i() -> str:
    q = np.array(RHO_MAP_Q)
    r, _ = gaussian.minimize_upper_i_rho(np.array(RHO_MAP_P)[:, None], q)  # P down, Q across
    off = np.abs(r - gaussian.rho_upper_i(q))
    _require_all(off < 1e-4, lambda i, j: f"upper-I rho map off by {off[i, j]} "
                                          f"at P={RHO_MAP_P[i]}, Q={RHO_MAP_Q[j]}")
    worst = float(np.max(off))
    return f"upper-I rho map reproduced on {len(RHO_MAP_P)}x{len(RHO_MAP_Q)} grid (worst {worst:.2e})"


def check_minimizer_rho_map_ii() -> str:
    p_col, q_row = np.array(RHO_MAP_P)[:, None], np.array(RHO_MAP_Q)  # P down, Q across
    r, v = gaussian.minimize_upper_ii_rho(p_col, q_row)
    columns = zip(RHO_MAP_Q, gaussian.rho_upper_ii(q_row).tolist(), r.T.tolist(), v.T.tolist(),
                  gaussian.upper_ii(p_col, q_row).T.tolist())
    deviating = 0
    for q, rho_star, r_col, v_col, closed_col in columns:
        for p, r_k, v_k, closed in zip(RHO_MAP_P, r_col, v_col, closed_col):
            if (p, q) in UPPER_II_CORNER:
                deviating += 1
                _require(
                    v_k < closed - 1e-3 and abs(r_k - rho_star) > 1e-2,
                    f"expected interior optimum at P={p}, Q={q}, got rho={r_k}",
                )
            else:
                _require(abs(r_k - rho_star) < 1e-4, f"rho map off at P={p}, Q={q}: {r_k}")
                _require(abs(v_k - closed) < 1e-9, f"min != closed at P={p}, Q={q}")
            _require(v_k <= closed + 1e-9, f"closed form below rho minimum at P={p}, Q={q}")
    reproduced = len(RHO_MAP_P) * len(RHO_MAP_Q) - deviating
    return (
        f"upper-II rho map reproduced at {reproduced} points; "
        f"{deviating} documented small-P corner points sit strictly below the closed form"
    )


def check_binary_bounds_ordered() -> str:
    q = np.arange(0.0, 0.51, 0.05)
    for k in range(2, 11):  # one sweep of q per K
        spec = binary.BinaryChannelSpec.iid(q, k=k)
        lo = binary.lower_bound_k(spec)
        hi = binary.upper_bound_k(spec)
        _require_all(lo <= hi + 1e-12, lambda i: f"K={k}, q={q[i]}: lower {lo[i]} > upper {hi[i]}")
    return "lower <= upper for K in 2..10, q in 0..0.5"


def check_binary_sandwich() -> str:
    q = np.arange(0.0, 0.51, 0.05)
    h = binary_entropy(q)
    for k in range(2, 11):
        mid = binary.joint_xor_entropy(k, q) / k
        _require_all(((1 - 1 / k) * h - 1e-12 <= mid) & (mid <= h + 1e-12),
                     lambda i: f"sandwich fails at K={k}, q={q[i]}")
    return "(1-1/K)H(q) <= H_joint/K <= H(q) on the grid"


def check_binary_large_k() -> str:
    # the benefit of side information over ignoring it, upper - (1 - H), lies in
    # [0, H/K]; at q = 1/2 both bounds are time sharing's 1/K
    q = np.arange(0.05, 0.51, 0.05)  # ends at 1/2
    h = binary_entropy(q)
    for k in (2, 3, 10, 64, 1000):  # one sweep of q per K
        spec = binary.BinaryChannelSpec.iid(q, k=k)
        upper, lower = binary.upper_bound_k(spec), binary.lower_bound_k(spec)
        excess = upper - (1.0 - h)
        _require_all((-1e-15 <= excess) & (excess <= h / k + 1e-12),
                     lambda i: f"K={k} limit off by {excess[i]} at q={q[i]}")
        _require(abs(upper[-1] - 1.0 / k) <= 1e-15 and abs(lower[-1] - 1.0 / k) <= 1e-15,
                 f"K={k} bounds {upper[-1]}, {lower[-1]} at q=1/2, not 1/K")
    # two noisy users at q = 1/2: both bounds are time sharing, (1 - H(p))/2
    p = np.array((0.0, 0.05, 0.2, 0.5))
    shared = 0.5 * (1.0 - binary_entropy(p))
    for bound in binary.noisy_two_user_bounds(binary.BinaryChannelSpec.iid(0.5, noise_q=p)):
        _require_all(np.abs(bound - shared) <= 1e-12,
                     lambda i: f"noisy bound {bound[i]} at q=1/2, noise {p[i]}")
    return ("0 <= upper - (1-H(q)) <= H(q)/K for K in {2, 3, 10, 64, 1000}; "
            "at q=1/2 both bounds are 1/K, and (1-H(p))/2 for two noisy users")


def check_binary_side_information() -> str:
    # the transmitter's side information: the two-user capacity beats both
    # baselines for 0 < q < 1/2 (the margin is quadratic near 1/2, 5.8e-8 at 0.49)
    q = np.linspace(0.01, 0.49, 49)
    spec = binary.BinaryChannelSpec.iid(q)
    capacity = binary.capacity_two_user(spec)
    margin = capacity - np.maximum(binary.rate_timeshare(2), binary.rate_ignore_side_info(spec))
    _require_all(margin > 0.0,
                 lambda i: f"capacity {capacity[i]} not above both baselines at q={q[i]}")
    # the receivers' lack of it: capacity stays below 1 for any interference
    # (it rounds to 1 only below q = 1e-16), and is 1 without interference
    tail = np.logspace(-16.0, -1.0, 16)
    q = np.concatenate((tail, np.linspace(0.1, 0.9, 17), 1.0 - tail))
    capacity = binary.capacity_two_user(binary.BinaryChannelSpec.iid(q))
    _require_all(capacity < 1.0, lambda i: f"capacity 1 at q={q[i]}")
    _require(binary.capacity_two_user(binary.BinaryChannelSpec.iid(0.0)) == 1.0, "C(0) != 1")
    return (f"capacity above time sharing and ignoring S for q in 0.01..0.49 (least margin "
            f"{float(margin.min()):.2e}); below 1 for q in 1e-16..1-1e-16, and 1 at q=0")


def check_weight_enumeration() -> str:
    q = (0.0, 0.1, 0.25, 0.5, 0.7)
    for k in (2, 3, 5, 8, 12):
        for p, fast in zip(q, binary.joint_xor_entropy(k, np.array(q)).tolist()):
            brute = binary.joint_xor_entropy_brute(k, p)
            _require(abs(fast - brute) < 1e-12, f"K={k}, q={p}: {fast} vs {brute}")
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
    report = simulate_scheme(spec, SchemeRun(n=2000, rate=None, trials=50, seed=7))  # hashed rows
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
    _, fig5_inr_db, _ = figures._SWEEPS["fig5"]
    points = [(p, q) for q_grid in (Q_GRID_LINEAR, Q_GRID_LOG) for p in P_GRID for q in q_grid]
    points += [(figures._FIG5_SNR, db_to_linear(x)) for x in fig5_inr_db]
    p, q = np.array(points).T
    base = np.maximum(gaussian.rate_timeshare(p), gaussian.rate_interference_as_noise(p, q))
    lo = gaussian.lower_bound(p, q)
    hi = gaussian.upper_envelope(p, q)
    _require_all((base <= lo + 1e-12) & (lo <= hi + 1e-9),
                 lambda i: f"ordering fails at P={p[i]}, Q={q[i]}: {base[i]}, {lo[i]}, {hi[i]}")
    return ("baselines <= lower <= envelope on linear and log Q grids "
            f"and at fig5's {len(fig5_inr_db)} INRs (P = 33 dB)")


def check_receiver_side_information() -> str:
    # the envelope never tops AWGN, the capacity of receivers that know their
    # interference; it equals AWGN only at small P Q (below P Q = 15.9 on a
    # 201 x 281 grid, where its least gap at P Q >= 20 is 9.9e-5)
    p = np.logspace(-1.0, 4.0, 41)[:, None]  # P down, Q across
    q = np.logspace(-3.0, 4.0, 57)
    below = gaussian.awgn_capacity(p) - gaussian.upper_envelope(p, q)
    _require_all(below >= 0.0, lambda i, j: f"envelope above AWGN at P={p[i, 0]}, Q={q[j]}")
    strict = p * q >= 20.0
    _require_all(~strict | (below >= 5e-5),
                 lambda i, j: f"envelope within {below[i, j]} of AWGN at P={p[i, 0]}, Q={q[j]}")
    return (f"envelope <= AWGN on a 41x57 grid, and below it by {float(below[strict].min()):.2e} "
            "or more where P Q >= 20")


def check_branch_continuity() -> str:
    eps = 1e-10
    worst = 0.0
    p = np.array((0.3, 0.5, 1.0, 2.0, 4.0, 10.0, 40.0, 321.0, 500.0, 1995.26))
    seams = (
        ("lower", gaussian.lower_bound, np.full_like(p, 2.0)),
        ("lower", gaussian.lower_bound, 2.0 * (p + 1.0)),
        ("upper-I", gaussian.upper_i, np.full_like(p, 4.0)),
        ("upper-II", gaussian.upper_ii, np.full_like(p, 2.0)),
    )
    for label, bound, q in seams:  # one call per seam side, at every P
        jumps = np.abs(bound(p, q + eps) - bound(p, q - eps))
        _require_all(jumps < 1e-9, lambda i: f"{label} seam Q={q[i]} at P={p[i]} jumps by {jumps[i]}")
        worst = max(worst, float(jumps.max()))
    return f"all four branch seams continuous to 1e-9 (worst jump {worst:.1e})"


def check_lower_bound_vs_grid() -> str:
    p = np.array((0.1, 1.0, 3.79, 12.0, 23.4, 263.7, 1.0e4))[:, None]  # P down, Q across
    q = np.array((0.0, 0.5, 2.0, 4.0, 31.6, 500.0, 1.0e4))
    _, _, numeric = gaussian.maximize_power_split(p, q)  # one call for the grid
    closed = gaussian.lower_bound(p, q)
    worst = float(np.max(np.abs(closed - numeric) / np.maximum(1.0, closed)))
    _require(worst <= 1e-12, f"closed lower bound vs power-split oracle differ by {worst} relative")
    return f"closed form equals power-split maximization to 1e-12 relative (worst {worst:.2e})"


def check_upper_bounds_vs_rho_min() -> str:
    p = np.array(P_GRID)[:, None]

    def excess(closed, minimize, q_grid):  # the closed form minus the rho-minimum; P down, Q across
        q = np.array(q_grid)
        return closed(p, q) - minimize(p, q)[1]  # one call for the grid

    upper_i = (gaussian.upper_i, gaussian.minimize_upper_i_rho)
    upper_ii = (gaussian.upper_ii, gaussian.minimize_upper_ii_rho)
    worst_i = float(np.max(np.abs(excess(*upper_i, Q_GRID_LINEAR))))
    worst_ii = float(np.max(np.abs(excess(*upper_ii, Q_GRID_LINEAR))))
    _require(worst_i < 1e-5, f"upper-I closed vs minimized differ by {worst_i}")
    _require(worst_ii < 1e-5, f"upper-II closed vs minimized differ by {worst_ii}")
    slack = float(np.max(-excess(*upper_ii, Q_GRID_LOG)))
    _require(slack <= 1e-9, f"closed upper-II fell below its rho minimum by {slack}")
    return (
        f"closed forms match rho minimization on the 20x21 grid "
        f"(worst I {worst_i:.2e}, II {worst_ii:.2e}); closed II never below the minimum"
    )


def check_dpc_oracle() -> str:
    # 100 draws of (P_A, P_D, Q), each 10^u with u uniform on [-2, 3)
    p_a, p_d, q = (10.0 ** (5.0 * _uniforms(12345, 300) - 2.0)).reshape(100, 3).T
    # the split rate is r_a + r_d/2, and all of it is r_d/2 at P_A = 0
    d = gaussian.rate_of_split(0.0, p_d, q)
    a = gaussian.rate_of_split(p_a, p_d, q) - d
    r_a, r_d = gaussian.dpc_scheme_oracle(p_a, p_d, q)
    worst = float(max(np.max(np.abs(r_d - 2.0 * d)), np.max(np.abs(r_a - a))))
    _require(worst < 1e-9, f"scheme oracle off by {worst}")
    return f"covariance-assembled codebook rates match rate_of_split (worst {worst:.2e})"


def check_rate_distortion_floor() -> str:
    # 200 random test channels, one a row: log10 Q, log10 P, rho and the uniforms behind c, w_var
    u = _uniforms(99, 1000).reshape(200, 5) * (4.0, 4.0, 2.0, 2.0, 1.0) - (1.0, 1.0, 1.0, 1.0, 0.0)
    (q, p), rho = 10.0 ** u[:, :2].T, u[:, 2]
    c = u[:, 3] * np.sqrt(p / q)
    w_var = u[:, 4] * (p - c * c * q)
    # (S+, V) with V = sqrt2 X + S+ + Z+ and X = c S+ + W
    coeffs = np.broadcast_to([[1.0, 0.0, 0.0], [0.0, math.sqrt(2.0), 1.0]], (200, 2, 3)).copy()
    coeffs[:, 1, 0] = math.sqrt(2.0) * c + 1.0
    cov = GaussianCov.from_factors(coeffs, np.column_stack([q, w_var, 1.0 + rho]))
    mi = gaussian_mi(cov, [0], [1])
    floor = 2.0 * gaussian._rate_distortion_term(p, q, rho)
    _require_all(mi >= floor - 1e-9,
                 lambda i: f"MI {mi[i]} under floor {floor[i]} (Q={q[i]}, P={p[i]}, rho={rho[i]})")
    return "I(S+; sqrt2 X + S+ + Z+) >= [log2(Q/(2P+1+rho))/2]^+ on 200 random test channels"


def check_high_p_gap() -> str:
    # at fixed Q the gap is log2(1 + x)/2 with x = (Q/2 + 2 sqrt(PQ))/(P + Q/2 + 1),
    # and lower minus the asymptote is log2(1 + (1 + Q/2)/P)/2; log2(1 + x) <= x/ln 2
    # bounds each, up to the rounding of two cancelling logs of size log2 P
    q = np.array((1.0, 8.0, 100.0))[:, None]  # Q down, P across
    p = np.logspace(2.0, 12.0, 21)
    slack = 8.0 * np.finfo(float).eps * (np.log2(p + q + 1.0) + 1.0)
    residual = gaussian.lower_bound(p, q) - gaussian.high_sinr_asymptote(p, q)
    excess = -math.inf
    for label, value, x in (
        ("gap", gaussian.gap(p, q), 2.0 * np.sqrt(q / p) + q / (2.0 * p)),
        ("lower minus asymptote", residual, (1.0 + q / 2.0) / p),
    ):
        law = x / (2.0 * math.log(2.0))
        _require_all((-slack <= value) & (value <= law + slack),
                     lambda i, j: f"{label} {value[i, j]:.3g} outside [0, {law[i, j]:.3g}] "
                                  f"at P={p[j]:g}, Q={q[i, 0]:g}")
        excess = max(excess, float(np.max(value - law)))
    return (
        "0 <= upper-II minus lower <= (2 sqrt(Q/P) + Q/(2P))/(2 ln 2) and "
        "0 <= lower minus the high-SINR asymptote <= (1 + Q/2)/(2P ln 2) for P in 1e2..1e12, "
        f"Q in {{1, 8, 100}} (largest value minus its law {excess:.1e})"
    )


def check_universal_gap() -> str:
    const = gaussian.universal_gap()
    _require(abs(const - 0.77163) <= 1e-4, f"universal constant {const}")
    gaps = gaussian.gap(np.array(P_GRID)[:, None], np.array(Q_GRID_LINEAR))
    i, j = np.unravel_index(np.argmax(gaps), gaps.shape)
    sup, arg = float(gaps[i, j]), (P_GRID[i], Q_GRID_LINEAR[j])
    _require(0.74 <= sup <= 0.7717, f"grid supremum {sup} at {arg}")
    _require(sup <= const + 1e-9, f"grid supremum {sup} exceeds the constant {const}")
    p_star = (9.0 - math.sqrt(17.0)) / 4.0
    regional = 0.5 * math.log2((5.0 + math.sqrt(17.0)) / 4.0)
    _require(abs(gaussian.gap(p_star, 2.0) - regional) < 1e-12, "regional maximizer value")
    _require(abs(regional - 0.59479) <= 1e-3, f"regional constant {regional}")
    for p_count, q_count in ((120, 81), (150, 101)):
        low_q_sup = float(np.max(gaussian.gap(np.linspace(0.01, 10.0, p_count)[:, None],
                                               np.linspace(0.0, 2.0, q_count))))
        _require(low_q_sup <= regional + 1e-9, f"Q<=2 regional sweep exceeded: {low_q_sup}")
    return (
        f"constant {const:.5f}, grid sup {sup:.5f} from below; "
        f"regional max {regional:.5f} at (P={p_star:.4f}, Q=2)"
    )


def check_upper_k() -> str:
    p = np.array((0.5, 1.0, 10.0, 100.0, 1995.26))
    q = np.array((3.0, 4.0, 31.6, 1000.0, 4000.0))  # across, against P down
    reduction = gaussian.upper_k_raw(p[:, None], q, 2) - gaussian.upper_ii_at_rho(p[:, None], q, 1.0)
    _require_all(np.abs(reduction) < 1e-9, lambda i, j: f"K=2 reduction fails at P={p[i]}, Q={q[j]}")
    # for Q > K(P+1) the bound exceeds time-sharing log2(1+P)/(2K) by
    # log2(1 + 2 sqrt(P/Q) + (P+1)/Q)/2 <= (2 sqrt(P/Q) + (P+1)/Q)/(2 ln 2),
    # up to the rounding of two cancelling logs of size log2 Q
    q = 1.0e10
    law = (2.0 * np.sqrt(p / q) + (p + 1.0) / q) / (2.0 * math.log(2.0))
    slack = 8.0 * np.finfo(float).eps * (math.log2(q) + np.log2(1.0 + p) + 1.0)
    awgn = gaussian.awgn_capacity(p)
    for k in (2, 3, 4, 8):
        residual = gaussian.upper_k(p, q, k) - awgn / k
        _require_all(
            (-slack <= residual) & (residual <= law + slack),
            lambda i: f"high-INR law fails at P={p[i]}, K={k}: "
                      f"residual {residual[i]:.3g}, law {law[i]:.3g}",
        )
        _require_all(gaussian.upper_k(p, 1e-6, k) == awgn,
                     lambda i: f"small-Q cap fails at P={p[i]}, K={k}")
    return ("K=2 reduction to the rho=1 bound; O(sqrt(P/Q)) excess over time-sharing at "
            "Q=1e10; trivial cap at small Q")


def check_timesharing_limit() -> str:
    # for Q >= 4 the envelope is upper_i, log2(1 + x)/4 above time sharing
    # log2(1+P)/4 with x = 2 sqrt(P/Q) + (P+1)/Q; log2(1 + x) <= x/ln 2 gives the law
    p = np.array((1.0, 10.0, 1995.26))
    excess = gaussian.upper_envelope(p, 1e8) - gaussian.rate_timeshare(p)
    law = (2.0 * np.sqrt(p / 1e8) + (p + 1.0) / 1e8) / (4.0 * math.log(2.0))
    _require_all((0.0 <= excess) & (excess <= law),
                 lambda i: f"envelope - TS {excess[i]:.4e} outside [0, {law[i]:.4e}] at P={p[i]}")
    # 1e-3 at Q = 1e8 is within the law's reach only for P <= 10 (33 dB needs Q >~ 1.04e9)
    _require_all(excess[:2] <= 1e-3, lambda i: f"envelope - TS {excess[i]:.4e} at P={p[i]}")
    far = np.abs(gaussian.upper_envelope(p, 1e12) - gaussian.rate_timeshare(p))
    _require_all(far <= 1e-4, lambda i: f"envelope - TS {far[i]:.4e} at P={p[i]}, Q=1e12")
    return ("0 <= envelope - TS <= (2 sqrt(P/Q) + (P+1)/Q)/(4 ln 2) at Q=1e8 for P in "
            "{1, 10, 1995.26}, <= 1e-3 for P <= 10, and <= 1e-4 at Q=1e12")


def check_correlated_t_and_bridge() -> str:
    # both branches of T evaluate to exactly 1/2 at the seam Qd=4
    seam = correlated.t_of_qd(np.array((4.0, 4.0 + 1e-10, 4.0 - 1e-10)))
    _require(abs(seam[0] - 0.5) < 1e-15, "T(4) must be 1/2")
    _require(abs(seam[1] - seam[2]) < 1e-9, "T continuity at Qd=4")
    qd = np.linspace(0.0, 50.0, 501)
    rise = np.diff(correlated.t_of_qd(qd), prepend=-1.0)
    _require_all(rise >= -1e-12, lambda i: f"T not nondecreasing at Qd={qd[i]}")
    # the bridge: the beta scheme feels half the spread, so it is the independent bound at Qd/2
    p = np.array((0.5, 10.0, 263.0))[:, None]
    qd = np.array((0.0, 0.5, 2.0, 4.0, 8.0, 40.0, 1.0e4))
    bridged = correlated.lower_beta(p, qd) == gaussian.lower_bound(p, qd / 2.0)
    _require_all(bridged, lambda i, j: f"lower_beta({p[i, 0]}, {qd[j]}) != "
                                       f"lower_bound({p[i, 0]}, {qd[j] / 2.0})")
    return ("T(Qd) = 1/2 at the seam Qd=4, continuous and nondecreasing; "
            "lower_beta(P, Qd) = lower_bound(P, Qd/2) exactly")


def check_correlated_scaled_and_gaps() -> str:
    # 50 draws of (beta1, beta2, log10 Q0), uniform on [-2, 2) x [-2, 2) x [-1, 2)
    u = _uniforms(3, 150).reshape(50, 3) * (4.0, 4.0, 3.0) - (2.0, 2.0, 1.0)
    b1, b2, q0 = u[:, 0], u[:, 1], 10.0 ** u[:, 2]
    wants = (b1 * b1 * q0, b2 * b2 * q0, (b1 - b2) ** 2 * q0)
    for label, got, want in zip(("Q1", "Q2", "Qd"), correlated.scaled_powers(b1, b2, q0), wants):
        _require(np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, got)), f"{label} mismatch")
    try:
        correlated.upper_correlated(10.0, 1.0, 1.0, 9.0)
        raise CheckFailure("infeasible (Q1,Q2,Qd) accepted")
    except ValueError:
        pass
    qd, q = np.array((10.0, 100.0, 0.0)), np.array((10.0, 25.0, 1.0))  # Q = 25 is Qd/4, the default
    g = correlated.high_sinr_gap_beta(1.0e8, qd, q)
    _require_all(g <= 0.01, lambda i: f"high-SINR gap {g[i]} at Qd={qd[i]}")
    lo = correlated.lower_beta(25.0, 12.0)
    hi = correlated.upper_correlated(25.0, 3.0, 3.0, 12.0)
    _require(lo <= hi + 1e-12, "correlated ordering")
    return "scaled parameterization consistent; infeasible pairs rejected; high-SINR gaps <= 0.01"


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
    ("binary-side-information", check_binary_side_information),
    ("scheme-mi-estimate", check_simulation_mi),
    ("gaussian-ordering", check_gaussian_ordering),
    ("gaussian-receiver-side-information", check_receiver_side_information),
    ("gaussian-branch-continuity", check_branch_continuity),
    ("gaussian-lower-vs-grid", check_lower_bound_vs_grid),
    ("gaussian-upper-vs-rho-min", check_upper_bounds_vs_rho_min),
    ("gaussian-dpc-oracle", check_dpc_oracle),
    ("gaussian-rate-distortion-floor", check_rate_distortion_floor),
    ("gaussian-high-snr-gap", check_high_p_gap),
    ("gaussian-universal-gap", check_universal_gap),
    ("gaussian-k-user", check_upper_k),
    ("gaussian-timesharing-limit", check_timesharing_limit),
    ("correlated-t-and-bridge", check_correlated_t_and_bridge),
    ("correlated-scaled-and-gaps", check_correlated_scaled_and_gaps),
)

# Each claim of the paper's abstract, word for word, with the checks that test
# it; a lemma check backs the claim whose proof uses it.  Names only, so that a
# caller may rebind CHECKS (to time each check, say).
CLAIMS = (
    ("the availability of side information at the transmitter increases capacity relative to "
     "systems without such side information",
     ("binary-side-information", "gaussian-ordering")),
    ("the lack of side information at the receivers decreases capacity relative to systems "
     "with such side information",
     ("binary-side-information", "gaussian-receiver-side-information")),
    ("For the noiseless binary case, we establish the capacity when there are two receivers.",
     ("entropy-basics", "binary-binning-rate", "scheme-mi-estimate")),
    ("When there are many receivers, we show that the transmitter side information provides a "
     "vanishingly small benefit.",
     ("binary-bounds-ordered", "binary-entropy-sandwich", "binary-weight-enumeration",
      "binary-large-k-limit")),
    ("When the interference is large and independent across the users, we show that time "
     "sharing is optimal.",
     ("binary-large-k-limit",)),
    ("For the Gaussian case we present a coding scheme and establish its optimality in the high "
     "signal-to-interference-plus-noise limit when there are two receivers.",
     ("gaussian-mi-properties", "rho-map-upper-i", "rho-map-upper-ii", "gaussian-branch-continuity",
      "gaussian-lower-vs-grid", "gaussian-upper-vs-rho-min", "gaussian-dpc-oracle",
      "gaussian-rate-distortion-floor", "gaussian-high-snr-gap", "gaussian-universal-gap")),
    ("When the interference is large and independent across users we show that time-sharing is "
     "again optimal.",
     ("gaussian-k-user", "gaussian-timesharing-limit")),
    ("Connections to the problem of robust dirty paper coding are also discussed.",
     ("correlated-t-and-bridge", "correlated-scaled-and-gaps")),
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
