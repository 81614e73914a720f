"""dirtycast: capacity bounds, optimizers and scheme simulation for
multicast channels whose additive interference is known only to the
transmitter.

Modules: `core` (entropies, Gaussian mutual information, scalar
minimizer), `binary` (exact two-user capacity, K-user bounds, binning-rate
evaluator), `simulate` (Monte Carlo of the binary precancellation scheme),
`gaussian` (two upper bounds, superposition-DPC lower bound, K-user bound,
gap analysis), `correlated` (robust dirty-paper coding), `figures` and
`cli`.
"""

__version__ = "0.1.0"

from .binary import (
    BinaryChannelSpec,
    capacity_achieving_joint,
    capacity_two_user,
    gp_rate,
    lower_bound_k,
    noisy_two_user_bounds,
    rate_ignore_side_info,
    upper_bound_k,
)
from .core import (
    GaussianCov,
    JointPmf,
    binary_entropy,
    db_to_linear,
    gaussian_mi,
    minimize_scalar,
    pmf_entropy,
)
from .correlated import high_sinr_gap_beta, lower_beta, scaled_powers, t_of_qd, upper_correlated
from .gaussian import (
    dpc_scheme_oracle,
    gap,
    high_sinr_asymptote,
    lower_bound,
    universal_gap,
    upper_envelope,
    upper_i,
    upper_ii,
    upper_k,
)
from .simulate import SchemeRun, simulate_scheme

__all__ = [
    "__version__",
    "BinaryChannelSpec",
    "GaussianCov",
    "JointPmf",
    "SchemeRun",
    "binary_entropy",
    "capacity_achieving_joint",
    "capacity_two_user",
    "db_to_linear",
    "dpc_scheme_oracle",
    "gap",
    "gaussian_mi",
    "gp_rate",
    "high_sinr_asymptote",
    "high_sinr_gap_beta",
    "lower_beta",
    "lower_bound",
    "lower_bound_k",
    "minimize_scalar",
    "noisy_two_user_bounds",
    "pmf_entropy",
    "rate_ignore_side_info",
    "scaled_powers",
    "simulate_scheme",
    "t_of_qd",
    "universal_gap",
    "upper_bound_k",
    "upper_correlated",
    "upper_envelope",
    "upper_i",
    "upper_ii",
    "upper_k",
]
