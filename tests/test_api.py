"""One contract for the public numeric API of core, binary, gaussian and
correlated.  BINARY and GAUSSIAN hold a row for each public function of the
two channel families: the call, the name under which each argument is refused
and the argument's domain.  Each clause of the contract is written once here,
as a parametrize decorator over a family's rows and the assertion of one case,
and the family's test file runs it: tests/test_binary.py over BINARY,
tests/test_gaussian.py over GAUSSIAN.  A case's id names the function, its
variant and the argument.

1. refusals: NaN, +-inf and out-of-domain values are refused by name and rule,
   as a float, in an array beside a valid entry (id name_row-...) and, for an
   optimizer, on a broadcast grid (name_grid-...);
2. lists: a list is refused by name;
3. floats: floats give Python floats;
4. checks: each argument is checked once, in a fixed order, at floats and, for
   an optimizer, on a broadcast grid (run over GAUSSIAN);
5. arrays: an array call on a broadcast grid of domain extremes equals the
   float calls bit for bit, and the float calls give Python floats.
"""

import itertools
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from dirtycast import binary, core, correlated, gaussian
from dirtycast.binary import BinaryChannelSpec
from dirtycast.core import JointPmf


class Domain(NamedTuple):
    valid: object       # a value every row accepts
    bad: tuple          # values refused by the argument's name
    rule: str = ""      # the refusal after the name, a regular expression
    grid: tuple = ()    # the values an array call sweeps (a scalar argument: one call each)
    array: bool = True  # a float or an array; else a scalar, such as K or a pair law
    number: bool = True  # refuses a list as not a float or a NumPy array


# q from the ends inwards, as Python floats
SWEEP_Q = tuple(sorted({0.0, 1e-300, 1e-16, 0.5, 1.0 - 1e-16, 1.0}
                       | {0.005 * i for i in range(201)}))
POWERS = (0.0, 1e-300, 0.1, 2.0, 4.0, 1e4, 1e300)
# the bad values end with the nearest floats outside the domain
POWER = Domain(1.0, (math.nan, math.inf, -math.inf, -1.0, -5e-324),
               "must be finite and nonnegative, got ", POWERS)
POSITIVE = Domain(1.0, (math.nan, math.inf, -1.0, 0.0, -5e-324),
                  "must be (finite and nonnegative, got |positive$)", POWERS[1:])
PROBABILITY = Domain(0.25, (math.nan, math.inf, -math.inf, -0.1, 1.5, -5e-324, 1 + 2 ** -52),
                     r"must lie in \[0, 1\], got ", SWEEP_Q)
# a row's second probability takes the ends and a few inner points, so that a
# row makes about 1500 float calls, not 207 ** 2
NOISE = PROBABILITY._replace(grid=(0.0, 1e-300, 1e-16, 0.1, 0.5, 1.0 - 1e-16, 1.0))
# the objectives' rho, with [-1, 1] closed at both ends, and points outside it:
# closed ones, and 5e3, which is open for Q >= 1e4
RHO = Domain(0.5, (), grid=(-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 5e3))
# scaled_powers' beta: a NaN or an overflowing beta is refused as the Qd it gives
BETA = RHO._replace(valid=1.0, grid=RHO.grid[:-1])
# K is refused as a non-integer, or below its least value: 2, or 1 where one
# user is a channel (the spec and rate_timeshare)
K = Domain(3, (math.nan, 2.5, 3.0, 0, 1), "must be (an integer|>= [12]), got ",
           (2, 3, 10, 64, 1000), array=False, number=False)
ONE_OR_MORE = K._replace(bad=K.bad[:-1])
# fully_correlated's q: one channel (test_binary: an array is refused by name)
ONE_PROBABILITY = PROBABILITY._replace(grid=(), array=False)
PAIR_LAW = Domain(BinaryChannelSpec.iid(0.25).pair,
                  ({(0, 0): 1.0}, [((0, 0), 1.0)], JointPmf({(0, 2): 1.0})),
                  r"is a JointPmf over \{0,1\}\^2 for K=2$", array=False, number=False)
PQ = {"P": POWER, "Q": POWER}
# the oracle's 8x8 covariance is singular to working precision where a power
# is 1e-300 or 1e300 beside one of order 1
MODERATE = POWER._replace(grid=(0.0, 0.1, 2.0, 4.0, 1e4))
# a row raises on any floating-point error, but an underflow where a ratio
# such as P/(Q+1), or a product of two probabilities, takes 1e-300 against 1e300
# or 1e-300, as the binary forms and the power split's scan always have
RAISE = {"all": "raise"}
UNDERFLOW = {"all": "raise", "under": "ignore"}


class Row(NamedTuple):
    call: Callable
    args: dict            # refused name: Domain, in call order
    # the names the call checks, in order (clause 4); None: those of args; ():
    # it checks nothing, and clauses 1 and 2 pass it by
    checks: tuple = None
    errstate: dict = RAISE
    # the grid's arguments as ones the function accepts, for clause 5
    feasible: Callable = lambda *args: args
    numbers: bool = True  # gives numbers (clauses 3 and 5), not a covariance
    # an optimizer: scans one batch made of its broadcast arguments, so that
    # clauses 1 and 4 also call it on a grid
    batched: bool = False


def _rows(args, *functions, **options):
    """A row at args for each function, under its name."""
    return {f.__name__: Row(f, args, **options) for f in functions}


def _spec_rows(build, args, *bounds, **options):
    """A row for each bound of binary, on the spec build(*args)."""
    return {bound.__name__: Row(lambda *a, bound=bound: bound(build(*a)), args, **options)
            for bound in bounds}


IID = {"interference probability": PROBABILITY}
# core's and binary's functions
BINARY = {
    **_rows({"probability": PROBABILITY}, core.binary_entropy),
    **_rows({"a": PROBABILITY, "b": NOISE}, binary.xor_convolve, errstate=UNDERFLOW),
    **_rows({"crossover": PROBABILITY, "noise_q": NOISE}, binary.precancellation_rate),
    **_rows({"K": ONE_OR_MORE}, binary.rate_timeshare),
    **_rows({"K": K, "probability": PROBABILITY}, binary.joint_xor_entropy, errstate=UNDERFLOW),
    # the brute-force oracle takes one float q, unchecked
    **_rows({"K": K, "q": Domain(0.25, (), array=False, number=False)},
            binary.joint_xor_entropy_brute),
    **_spec_rows(BinaryChannelSpec.iid, IID, binary.capacity_two_user, errstate=UNDERFLOW),
    **_spec_rows(BinaryChannelSpec.iid, {**IID, "K": ONE_OR_MORE}, binary.rate_ignore_side_info,
                 errstate=UNDERFLOW),
    **_spec_rows(BinaryChannelSpec.iid, {**IID, "K": K}, binary.upper_bound_k, binary.lower_bound_k,
                 errstate=UNDERFLOW),
    **_spec_rows(lambda q, noise_q: BinaryChannelSpec.iid(q, 2, noise_q),
                 {**IID, "noise crossover": NOISE}, binary.noisy_two_user_bounds,
                 errstate=UNDERFLOW),
    # the constructors of a one-channel spec, with its capacity
    "BinaryChannelSpec.fully_correlated": Row(
        lambda q: binary.capacity_two_user(BinaryChannelSpec.fully_correlated(q)),
        {"interference probability": ONE_PROBABILITY}),
    "BinaryChannelSpec.pair_joint": Row(
        lambda pair: binary.capacity_two_user(BinaryChannelSpec.pair_joint(pair)),
        {"a pair law": PAIR_LAW}),
}
# gaussian's and correlated's functions
GAUSSIAN = {
    **_rows({"P": POWER}, gaussian.awgn_capacity, gaussian.rate_timeshare),
    **_rows({"Q": POWER}, gaussian.rho_upper_i, gaussian.rho_upper_ii),
    **_rows(PQ, gaussian.upper_i, gaussian.upper_ii, gaussian.upper_envelope, gaussian.lower_bound,
            gaussian.gap),
    **_rows(PQ, gaussian.minimize_upper_i_rho, gaussian.minimize_upper_ii_rho, batched=True),
    **_rows(PQ, gaussian.rate_interference_as_noise, errstate=UNDERFLOW),
    **_rows(PQ, gaussian.maximize_power_split, errstate=UNDERFLOW, batched=True),
    # the objectives minimize_scalar scans, which check nothing
    **_rows({**PQ, "rho": RHO}, gaussian.upper_i_at_rho, gaussian.upper_ii_at_rho, checks=()),
    **_rows({**PQ, "K": K}, gaussian.upper_k_raw, gaussian.upper_k, checks=("K", "P", "Q")),
    **_rows({}, gaussian.universal_gap, checks=()),
    **_rows({"P_A": POWER, "P_D": POWER, "Q": POWER}, gaussian.rate_of_split, errstate=UNDERFLOW),
    **_rows({"P_A": MODERATE, "P_D": MODERATE, "Q": MODERATE}, gaussian.dpc_scheme_oracle),
    **_rows({"P_A": POWER, "P_D": POWER, "Q": POWER}, gaussian.dpc_covariance, numbers=False),
    **_rows({"P": POSITIVE, "Q": POWER}, gaussian.high_sinr_asymptote),
    # beta is checked as a number, then through the powers it gives
    **_rows({"beta1": BETA, "beta2": BETA, "Q0": POWER}, correlated.scaled_powers,
            checks=("Q0", "beta1", "beta2", "Qd", "Q1", "Q2")),
    **_rows({"Qd": POWER}, correlated.t_of_qd),
    **_rows({"P": POWER, "Qd": POWER}, correlated.lower_beta),
    # Q1, Q2 >= Qd/4 keeps the spread feasible, Qd <= (sqrt(Q1) + sqrt(Q2))^2
    **_rows({"P": POWER, "Q1": POWER, "Q2": POWER, "Qd": POWER}, correlated.upper_correlated,
            checks=("Qd", "P", "Q1", "Q2"),
            feasible=lambda p, q1, q2, qd: (p, q1 + qd / 4.0, q2 + qd / 4.0, qd)),
    **_rows({"P": POSITIVE, "Qd": POWER, "Q": POWER}, correlated.high_sinr_gap_beta,
            feasible=lambda p, qd, q: (p, qd, q + qd / 4.0)),
}
# the argument groups of earlier versions, whose refusals the functions that
# take the arguments now make: refusal and list cases under the group's name
GROUPS = {"PowerSplit": ("rate_of_split", ("P_A", "P_D")),
          "CorrelatedSpec": ("upper_correlated", ("P", "Q1", "Q2", "Qd")),
          "from_scaled": ("scaled_powers", ("Q0",))}

# public names without a row: errors, laws, channels and covariance matrices,
# which take no float-or-array argument; and functions of a function or of
# one dB figure
EXEMPT = {
    "SingularCovarianceError", "InvalidDistributionError", "JointPmf", "GaussianCov",
    "pmf_entropy", "gaussian_mi", "minimize_scalar", "db_to_linear", "xor_channel", "gp_rate",
    "capacity_achieving_joint",
}


def test_every_public_name_has_a_row_or_an_exemption():
    missing, exempt = set(), set()
    for modules, rows in (((core, binary), BINARY), ((gaussian, correlated), GAUSSIAN)):
        public = {name for module in modules for name in module.__all__}
        covered = {name.partition(".")[0] for name in rows}
        missing |= public - covered - EXEMPT
        exempt |= public - covered
    assert missing == set()
    assert EXEMPT <= exempt


def _values(row, given=None):
    """The row's arguments at their valid values, but for those given."""
    given = given or {}
    return [given.get(arg, domain.valid) for arg, domain in row.args.items()]


def _numbers(result):
    """The numbers of a result: its entries, and those of its tuples."""
    return [x for r in result for x in _numbers(r)] if isinstance(result, tuple) else [result]


def _on_axes(row, grids):
    """The row's arguments for grids, one sequence per argument: each array
    argument's on an axis of its own, the first down and the last across (one
    alone is a column), and a scalar argument's one value."""
    later = max(sum(domain.array for domain in row.args.values()), 2)
    args = []
    for grid, domain in zip(grids, row.args.values()):
        later -= domain.array
        args.append(np.reshape(grid, (-1,) + (1,) * later) if domain.array else grid[0])
    return args


def _variants(row, arg, value):
    """(variant, arguments) placing value as arg: as itself, in an array beside
    a valid entry, and on a batched row's grid beside valid entries."""
    yield "", _values(row, {arg: value})
    domain = row.args[arg]
    if domain.array:
        yield "_row", _values(row, {arg: np.array([domain.valid, value])})
    if domain.array and row.batched:
        yield "_grid", _on_axes(row, [[d.valid, value if a == arg else d.valid]
                                      for a, d in row.args.items()])


def _label(value):
    return str(value) if isinstance(value, (float, int)) else type(value).__name__


def refusal_cases(rows, groups=None):
    """Parametrize (row, values, arg) over each bad value of each argument of
    the rows that check theirs, in each variant (id name-arg-bad,
    name_row-arg-bad, name_grid-arg-bad), and as a float under each group."""
    cases = [pytest.param(row, values, arg, id=f"{name}{variant}-{arg}-{_label(bad)}")
             for name, row in rows.items() if row.checks != ()
             for arg, domain in row.args.items() for bad in domain.bad
             for variant, values in _variants(row, arg, bad)]
    cases += [pytest.param(rows[name], _values(rows[name], {arg: bad}), arg,
                           id=f"{group}-{arg}-{_label(bad)}")
              for group, (name, args) in (groups or {}).items() for arg in args
              for bad in rows[name].args[arg].bad]
    return pytest.mark.parametrize("row, values, arg", cases)


def assert_refused(row, values, arg):
    with pytest.raises(ValueError, match=f"^{re.escape(arg)} {row.args[arg].rule}"):
        row.call(*values)


def list_cases(rows, groups=None):
    """Parametrize (row, arg) over each argument of the rows that check
    theirs which is a float or an array (id name-arg), and under each group."""
    cases = [pytest.param(row, arg, id=f"{name}-{arg}") for name, row in rows.items()
             if row.checks != () for arg, domain in row.args.items() if domain.number]
    cases += [pytest.param(rows[name], arg, id=f"{group}-{arg}")
              for group, (name, args) in (groups or {}).items() for arg in args]
    return pytest.mark.parametrize("row, arg", cases)


def assert_list_refused(row, arg):
    with pytest.raises(ValueError, match=f"^{re.escape(arg)} must be a float or a NumPy array, "
                                         "got list$"):
        row.call(*_values(row, {arg: [row.args[arg].valid] * 2}))


def float_cases(rows):
    """Parametrize row over the rows that give numbers (id name)."""
    return pytest.mark.parametrize("row", [pytest.param(row, id=name)
                                           for name, row in rows.items() if row.numbers])


def assert_floats(row):
    # not np.float64 nor a 0-d array: the CLI and verify's messages print their repr
    for value in _numbers(row.call(*_values(row))):
        assert type(value) is float, type(value)


def check_cases(rows):
    """Parametrize (row, values) over the rows, at their valid floats (id
    name) and, if batched, on a broadcast grid of them (id name_grid)."""
    cases = []
    for name, row in rows.items():
        cases.append(pytest.param(row, _values(row), id=name))
        if row.batched:
            grid = _on_axes(row, [[d.valid] * 2 for d in row.args.values()])
            cases.append(pytest.param(row, grid, id=f"{name}_grid"))
    return pytest.mark.parametrize("row, values", cases)


def assert_checked_once(monkeypatch, row, values):
    checked = []
    for module, check in ((core, "_check_number"), (correlated, "_check_number"),
                          (core, "_check_integer")):
        monkeypatch.setattr(module, check, lambda arg, *rest, check=getattr(module, check):
                            checked.append(arg) or check(arg, *rest))
    row.call(*values)
    assert checked == list(row.args if row.checks is None else row.checks)


def array_cases(rows, each_k=False):
    """Parametrize (row, scalars) over the rows that give numbers and take an
    array: one case per row (id name) that loops over the values of its scalar
    arguments, or with each_k one case per value (id name_kK)."""
    cases = []
    for name, row in rows.items():
        domains = list(row.args.values())
        if not row.numbers or not any(domain.array for domain in domains):
            continue
        scalars = list(itertools.product(*(d.grid for d in domains if not d.array)))
        if each_k:
            cases += [pytest.param(row, [values], id=name + "".join(f"_k{v}" for v in values))
                      for values in scalars]
        else:
            cases.append(pytest.param(row, scalars, id=name))
    return pytest.mark.parametrize("row, scalars", cases)


def assert_array_matches_floats(row, scalars):
    domains = list(row.args.values())
    for values in scalars:
        values_left = iter(values)
        grids = [d.grid if d.array else (next(values_left),) for d in domains]
        args = _on_axes(row, grids)
        shape = np.broadcast_shapes(*map(np.shape, args))
        with np.errstate(**row.errstate):
            got = _numbers(row.call(*row.feasible(*args)))
            floats = [_numbers(row.call(*row.feasible(*point)))
                      for point in itertools.product(*grids)]
        assert all(type(x) is float for numbers in floats for x in numbers), values
        for i, out in enumerate(got):
            assert isinstance(out, np.ndarray), (values, i)
            want = np.reshape([numbers[i] for numbers in floats], shape)
            differ = np.broadcast_to(out, shape).view(np.uint64) != want.view(np.uint64)
            assert not differ.any(), f"{values}, output {i}, at {np.argwhere(differ)[0]}"
