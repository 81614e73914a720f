"""Tests for the Monte Carlo scheme simulator: statistics, decoding,
determinism and the reproducible-parallelism contract."""

import math
import os

import pytest

from dirtycast import simulate
from dirtycast.binary import BinaryChannelSpec, noisy_two_user_bounds, precancellation_rate
from dirtycast.core import JointPmf
from dirtycast.simulate import CODEBOOK_CAP, InfeasibleRunError, SchemeRun, simulate_scheme

SPEC_Q25 = BinaryChannelSpec.iid(0.25)


class TestSchemeRunValidation:
    def test_blocklength(self):
        with pytest.raises(ValueError):
            SchemeRun(n=9, rate=0.25, trials=1, seed=0)
        with pytest.raises(ValueError):
            SchemeRun(n=0, rate=0.25, trials=1, seed=0)

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            SchemeRun(n=16, rate=0.0, trials=1, seed=0)
        with pytest.raises(ValueError):
            SchemeRun(n=16, rate=1.5, trials=1, seed=0)

    def test_codebook_cap(self):
        with pytest.raises(InfeasibleRunError):
            SchemeRun(n=100, rate=0.5, trials=1, seed=0)
        # measurement-only runs may exceed the cap because nothing is decoded
        run = SchemeRun(n=100_000, rate=None, trials=1, seed=0)
        assert run.codewords is None
        edge = SchemeRun(n=40, rate=0.5, trials=1, seed=0)
        assert edge.codewords == 2**20 <= CODEBOOK_CAP

    def test_codeword_counts(self):
        assert SchemeRun(n=24, rate=0.25, trials=1, seed=0).codewords == 64
        assert SchemeRun(n=16, rate=0.25, trials=1, seed=0).codewords == 16
        assert SchemeRun(n=10, rate=0.35, trials=1, seed=0).codewords == math.ceil(2**3.5)
        lin = SchemeRun(n=10, rate=0.35, trials=1, seed=0, codebook="linear")
        assert lin.codewords == 16


class TestNoiselessScheme:
    def test_clean_interference_decodes_perfectly(self):
        spec = BinaryChannelSpec.iid(0.0)
        report = simulate_scheme(spec, SchemeRun(n=24, rate=0.25, trials=100, seed=7))
        assert report.frame_error_rate == 0.0
        assert report.empirical_crossover == 0.0

    def test_crossover_and_mi_estimate(self):
        report = simulate_scheme(SPEC_Q25, SchemeRun(n=100_000, rate=None, trials=1, seed=7))
        sigma = math.sqrt(0.375 * 0.625 / report.interfered_samples)
        assert abs(report.empirical_crossover - 0.375) <= 3.0 * sigma
        assert report.predicted_mi_per_symbol == pytest.approx(0.5227829985375174, abs=1e-12)
        assert abs(
            report.empirical_mi_per_symbol - report.predicted_mi_per_symbol
        ) <= 0.01 * report.predicted_mi_per_symbol
        assert report.frame_error_rate is None

    def test_longer_blocks_decode_better(self):
        fer = {}
        for n in (24, 16):
            report = simulate_scheme(SPEC_Q25, SchemeRun(n=n, rate=0.25, trials=2000, seed=7))
            fer[n] = report.frame_error_rate
        assert fer[24] < fer[16]

    def test_linear_codebook(self):
        spec = BinaryChannelSpec.iid(0.0)
        run = SchemeRun(n=24, rate=0.25, trials=100, seed=7, codebook="linear")
        report = simulate_scheme(spec, run)
        assert report.codewords == 64
        assert report.frame_error_rate == 0.0
        noisy = simulate_scheme(
            SPEC_Q25, SchemeRun(n=24, rate=0.25, trials=400, seed=7, codebook="linear")
        )
        # pinned: a change of codeword order or generator draw moves these
        assert (noisy.fer_user1, noisy.fer_user2) == (0.0075, 0.0175)
        assert noisy.frame_error_rate == 0.025

    def test_anticorrelated_interference_decodes_perfectly(self):
        # S2 = 1 - S1: the interfered half is an exact complement (crossover 1),
        # which ML exploits just as well as a clean half
        spec = BinaryChannelSpec.fully_correlated(0.4, flip=True)
        report = simulate_scheme(spec, SchemeRun(n=24, rate=0.25, trials=200, seed=9))
        assert report.empirical_crossover == 1.0
        assert report.frame_error_rate == 0.0
        assert report.empirical_mi_per_symbol == 1.0


class TestNoisyScheme:
    def test_crossover_includes_noise(self):
        spec = BinaryChannelSpec.iid(0.25, noise_q=0.1)
        report = simulate_scheme(spec, SchemeRun(n=100_000, rate=None, trials=1, seed=11))
        # interfered half sees q' convolved with the noise: 0.4
        sigma = math.sqrt(0.4 * 0.6 / report.interfered_samples)
        assert abs(report.empirical_crossover - 0.4) <= 3.0 * sigma

    def test_rates_charge_the_noise_on_the_clean_half(self):
        spec = BinaryChannelSpec.iid(0.25, noise_q=0.1)
        report = simulate_scheme(spec, SchemeRun(n=100_000, rate=None, trials=1, seed=11))
        lower, upper = noisy_two_user_bounds(spec)
        assert report.predicted_mi_per_symbol == lower.value
        empirical = precancellation_rate(report.empirical_crossover, 0.1)
        assert report.empirical_mi_per_symbol == empirical < upper.value
        assert abs(empirical - lower.value) <= 0.005

    def test_noisy_decoding_runs(self):
        spec = BinaryChannelSpec.iid(0.1, noise_q=0.02)
        report = simulate_scheme(spec, SchemeRun(n=24, rate=0.25, trials=300, seed=5))
        assert 0.0 <= report.frame_error_rate <= 1.0


class TestDeterminism:
    def test_same_seed_same_report(self):
        run = SchemeRun(n=24, rate=0.25, trials=300, seed=123)
        assert simulate_scheme(SPEC_Q25, run) == simulate_scheme(SPEC_Q25, run)

    def test_thread_count_does_not_change_results(self):
        pair = BinaryChannelSpec.pair_joint(JointPmf({(0, 0): 0.6, (0, 1): 0.3, (1, 1): 0.1}))
        for trials in (500, 3):  # 3 trials: fewer trials than threads
            run = SchemeRun(n=24, rate=0.25, trials=trials, seed=3)
            for spec in (SPEC_Q25, BinaryChannelSpec.fully_correlated(0.3, flip=True), pair):
                reports = {t: simulate_scheme(spec, run, threads=t) for t in (1, 2, 4, 7)}
                assert len({repr(r) for r in reports.values()}) == 1

    def test_decode_block_size_does_not_change_results(self, monkeypatch):
        # blocks of 1 and 5 rows split the 64 codewords at every index and
        # mid-block; the anticorrelated spec scores most codewords -inf (ties)
        specs = (
            SPEC_Q25,
            BinaryChannelSpec.iid(0.25, noise_q=0.05),
            BinaryChannelSpec.fully_correlated(0.4, flip=True),
        )
        runs = [
            SchemeRun(n=24, rate=0.25, trials=60, seed=4, codebook=kind)
            for kind in ("iid", "linear")
        ]
        expected = [repr(simulate_scheme(spec, run)) for spec in specs for run in runs]
        for block in (1, 5):
            monkeypatch.setattr(simulate, "DECODE_BLOCK", block)
            assert [repr(simulate_scheme(spec, run)) for spec in specs for run in runs] == expected

    def test_different_seeds_differ(self):
        a = simulate_scheme(SPEC_Q25, SchemeRun(n=1000, rate=None, trials=1, seed=1))
        b = simulate_scheme(SPEC_Q25, SchemeRun(n=1000, rate=None, trials=1, seed=2))
        assert a.empirical_crossover != b.empirical_crossover


class TestPreconditions:
    def test_two_users_only(self):
        with pytest.raises(ValueError):
            simulate_scheme(
                BinaryChannelSpec.iid(0.25, k=3), SchemeRun(n=24, rate=0.25, trials=1, seed=0)
            )

    def test_thread_count_must_be_positive(self):
        run = SchemeRun(n=24, rate=0.25, trials=1, seed=0)
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads"):
                simulate_scheme(SPEC_Q25, run, threads=threads)

    def test_concurrent_trials_capped_at_cpu_count(self, monkeypatch):
        seen = []

        class Recording(simulate.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)
        run = SchemeRun(n=24, rate=0.25, trials=40, seed=5)
        many = simulate_scheme(SPEC_Q25, run, threads=os.cpu_count() + 5)
        assert seen[0] <= os.cpu_count()
        assert repr(many) == repr(simulate_scheme(SPEC_Q25, run, threads=1))

    def test_pair_joint_model_supported(self):
        spec = BinaryChannelSpec.pair_joint(
            JointPmf({(0, 0): 0.7, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.1})
        )
        report = simulate_scheme(spec, SchemeRun(n=10_000, rate=None, trials=1, seed=4))
        sigma = math.sqrt(0.2 * 0.8 / report.interfered_samples)
        assert abs(report.empirical_crossover - 0.2) <= 4.0 * sigma
