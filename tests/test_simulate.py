"""Tests for the Monte Carlo scheme simulator: statistics, decoding,
determinism and the reproducible-parallelism contract."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from dirtycast import simulate
from dirtycast.binary import (
    BinaryChannelSpec,
    noisy_two_user_bounds,
    precancellation_rate,
    xor_convolve,
)
from dirtycast.core import JointPmf
from dirtycast.simulate import CODEBOOK_CAP, InfeasibleRunError, SchemeRun, simulate_scheme

SPEC_Q25 = BinaryChannelSpec.iid(0.25)


def _binomial(size, p):
    return np.array([math.comb(size, d) * p**d * (1 - p) ** (size - d) for d in range(size + 1)])


def ensemble_fer(n, m, noise_q, cross_noisy):
    """Exact per-user frame error rate of i.i.d. uniform codebooks of m codewords
    under the simulator's ML decoder (ties to the lowest index).

    The coin gives a user n_clean ~ Bin(n, 1/2) clean bits and n_noisy = n - n_clean
    noisy ones.  A codeword's score depends only on its disagreement counts
    (d_clean, d_noisy): for the sent word they are Bin(n_clean, noise_q) and
    Bin(n_noisy, cross_noisy), for any other word Bin(n_clean, 1/2) and
    Bin(n_noisy, 1/2).  Scores are compared on that integer lattice with the
    simulator's own score form, so ties are exact.  With a and b the chances that
    another word scores above or equal to the sent one, and j words below it in
    index (j uniform on 0..m-1),
    P(correct) = (1/m) sum_j (1-a-b)^j (1-a)^(m-1-j) = ((1-a)^m - (1-a-b)^m) / (m b),
    evaluated in log space.  The random-coding union bound of Polyanskiy, Poor and
    Verdu (IEEE T-IT 2010) bounds this same ensemble error; here it is exact.
    """
    correct = 0.0
    for n_clean in range(n + 1):
        n_noisy = n - n_clean
        score = (
            simulate._half_loglik(n_clean, noise_q, np.arange(n_clean + 1.0))[:, None]
            + simulate._half_loglik(n_noisy, cross_noisy, np.arange(n_noisy + 1.0))[None, :]
        ).ravel()
        sent = np.outer(_binomial(n_clean, noise_q), _binomial(n_noisy, cross_noisy)).ravel()
        rival = np.outer(_binomial(n_clean, 0.5), _binomial(n_noisy, 0.5)).ravel()
        s = score[sent > 0][:, None]
        a = np.where(score > s, rival, 0.0).sum(1)
        b = np.where(score == s, rival, 0.0).sum(1)  # > 0: a rival may equal the sent word
        with np.errstate(divide="ignore"):  # a + b = 1 makes (1-a-b)^m exactly 0
            tie_share = -np.expm1(m * np.log1p(-b / (1.0 - a)))
        p = np.exp(m * np.log1p(-a)) * tie_share / (m * b)
        correct += math.comb(n, n_clean) / 2.0**n * float(sent[sent > 0] @ p)
    return 1.0 - correct


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
        with pytest.raises(ValueError, match="nothing is decoded"):
            SchemeRun(n=24, rate=None, trials=1, seed=0, codebook="linear")
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
        # the 3-sigma crossover and 1 % MI clauses on this run are scheme-mi-estimate's
        report = simulate_scheme(SPEC_Q25, SchemeRun(n=100_000, rate=None, trials=1, seed=7))
        assert report.predicted_mi_per_symbol == pytest.approx(0.5227829985375174, abs=1e-12)
        assert report.frame_error_rate is None

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


class TestEnsembleFer:
    def test_iid_fer_matches_the_exact_ensemble_fer(self):
        # each user's FER must lie within 5 standard errors of the exact value,
        # i.e. the exact value lies in the z = 5 Wilson interval of the measured one
        for spec, n, rate in (
            (SPEC_Q25, 24, 0.25),
            (BinaryChannelSpec.iid(0.25, noise_q=0.05), 24, 0.25),
            (SPEC_Q25, 16, 0.5),
        ):
            run = SchemeRun(n=n, rate=rate, trials=2000, seed=1)
            noise_q = spec.noise_q or 0.0
            exact = ensemble_fer(
                n, run.codewords, noise_q, xor_convolve(spec.xor_probability, noise_q)
            )
            report = simulate_scheme(spec, run)
            for fer in (report.fer_user1, report.fer_user2):
                assert abs(fer - exact) <= 5.0 * math.sqrt(exact * (1 - exact) / run.trials)


class TestNoisyScheme:
    def test_crossover_includes_noise(self):
        spec = BinaryChannelSpec.iid(0.25, noise_q=0.1)
        report = simulate_scheme(spec, SchemeRun(n=100_000, rate=None, trials=1, seed=11))
        # interfered half sees q' convolved with the noise: 0.4
        sigma = math.sqrt(0.4 * 0.6 / report.interfered_samples)
        assert abs(report.empirical_crossover - 0.4) <= 3.0 * sigma
        # the rates charge the noise on the clean half
        lower, upper = noisy_two_user_bounds(spec)
        assert report.predicted_mi_per_symbol == lower
        empirical = precancellation_rate(report.empirical_crossover, 0.1)
        assert report.empirical_mi_per_symbol == empirical < upper
        assert abs(empirical - lower) <= 0.005

    def test_noisy_decoding_runs(self):
        spec = BinaryChannelSpec.iid(0.1, noise_q=0.02)
        report = simulate_scheme(spec, SchemeRun(n=24, rate=0.25, trials=300, seed=5))
        assert 0.0 <= report.frame_error_rate <= 1.0


class TestDeterminism:
    def test_thread_count_does_not_change_results(self):
        pair = BinaryChannelSpec.pair_joint(JointPmf({(0, 0): 0.6, (0, 1): 0.3, (1, 1): 0.1}))
        runs = [
            SchemeRun(n=24, rate=0.25, trials=500, seed=3),
            SchemeRun(n=24, rate=0.25, trials=3, seed=3),  # fewer trials than threads
            SchemeRun(n=130, rate=0.08, trials=40, seed=3),  # three-word codewords
        ]
        for run in runs:
            for spec in (SPEC_Q25, BinaryChannelSpec.fully_correlated(0.3, flip=True), pair):
                reports = {t: simulate_scheme(spec, run, threads=t) for t in (1, 2, 4, 7)}
                assert len({repr(r) for r in reports.values()}) == 1

    def test_decode_block_size_does_not_change_results(self, monkeypatch):
        # 2 and 10 score blocks of 1 and 5 rows for both users, which split the
        # 64 codewords at every index and mid-block; 64, 192 and 448 run batches
        # of 1, 3 and 7 trials (2, 8 and 18 when nothing is decoded), the last
        # one short; the anticorrelated spec scores most codewords -inf (ties)
        specs = (
            SPEC_Q25,
            BinaryChannelSpec.iid(0.25, noise_q=0.05),
            BinaryChannelSpec.fully_correlated(0.4, flip=True),
        )
        runs = [
            SchemeRun(n=24, rate=rate, trials=60, seed=4, codebook=kind)
            for rate, kind in ((0.25, "iid"), (0.25, "linear"), (None, "iid"))
        ]
        expected = [repr(simulate_scheme(spec, run)) for spec in specs for run in runs]
        for block in (2, 10, 64, 192, 448):
            monkeypatch.setattr(simulate, "DECODE_BLOCK", block)
            assert [repr(simulate_scheme(spec, run)) for spec in specs for run in runs] == expected

    def test_iid_report(self):
        # pinned: a change of draw order, codeword bits or decoder scores moves it
        spec = BinaryChannelSpec.iid(0.25, noise_q=0.05)
        report = simulate_scheme(spec, SchemeRun(n=24, rate=0.25, trials=2000, seed=12345))
        assert repr(report) == repr(simulate.SchemeReport(
            trials=2000, n=24, codewords=64, empirical_crossover=0.38611929766302766,
            interfered_samples=24091, empirical_mi_per_symbol=0.37567678337696314,
            predicted_mi_per_symbol=0.3752178988960803, frame_error_rate=0.18,
            fer_user1=0.0935, fer_user2=0.0925,
        ))

    def test_long_blocks_with_few_codewords_stay_small(self):
        # a trial holds its codebook and a decode block as large; a table over
        # every pair of half sizes, or a batch of two such trials, takes more
        codebook_bytes = 1024 * -(-20_000 // 64) * 8
        spec = BinaryChannelSpec.iid(0.25, noise_q=0.05)
        for kind, crossover in (("iid", 0.38687340057203073), ("linear", 0.38622108485122186)):
            run = SchemeRun(n=20_000, rate=5e-4, trials=2, seed=9, codebook=kind)
            tracemalloc.start()
            try:
                report = simulate_scheme(spec, run)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * codebook_bytes
            assert (report.codewords, report.interfered_samples) == (1024, 19929)
            assert repr(report.empirical_crossover) == repr(crossover)
            assert report.frame_error_rate == 0.0

    def test_multiword_linear_reports(self):
        # pinned: codewords of 70 and 130 bits span two and three packed words
        specs = (BinaryChannelSpec.iid(0.25, noise_q=0.1), BinaryChannelSpec.iid(0.5, noise_q=0.2))
        runs = [
            SchemeRun(n=n, rate=rate, trials=100, seed=7, codebook="linear")
            for n, rate in ((70, 0.15), (130, 0.08))
        ]
        got = [repr(simulate_scheme(spec, run)) for run in runs for spec in specs]
        assert got == [
            "SchemeReport(trials=100, n=70, codewords=2048, "
            "empirical_crossover=0.3988555078683834, interfered_samples=3495, "
            "empirical_mi_per_symbol=0.28036361756618483, "
            "predicted_mi_per_symbol=0.2800269059780251, frame_error_rate=0.1, fer_user1=0.06, "
            "fer_user2=0.04)",
            "SchemeReport(trials=100, n=70, codewords=2048, "
            "empirical_crossover=0.4955650929899857, interfered_samples=3495, "
            "empirical_mi_per_symbol=0.13906432843181038, "
            "predicted_mi_per_symbol=0.13903595255631884, frame_error_rate=0.74, fer_user1=0.46, "
            "fer_user2=0.49)",
            "SchemeReport(trials=100, n=130, codewords=2048, "
            "empirical_crossover=0.40771349862258954, interfered_samples=6534, "
            "empirical_mi_per_symbol=0.27786007907638005, "
            "predicted_mi_per_symbol=0.2800269059780251, frame_error_rate=0.0, fer_user1=0.0, "
            "fer_user2=0.0)",
            "SchemeReport(trials=100, n=130, codewords=2048, "
            "empirical_crossover=0.502448729721457, interfered_samples=6534, "
            "empirical_mi_per_symbol=0.13904460339035152, "
            "predicted_mi_per_symbol=0.13903595255631884, frame_error_rate=0.12, fer_user1=0.07, "
            "fer_user2=0.05)",
        ]

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
        seen, pool = [], simulate.ThreadPoolExecutor
        monkeypatch.setattr(simulate, "ThreadPoolExecutor",
                            lambda max_workers: seen.append(max_workers) or pool(max_workers))
        monkeypatch.setattr(simulate, "DECODE_BLOCK", 64)  # a batch per trial
        run = SchemeRun(n=24, rate=0.25, trials=max(40, 2 * os.cpu_count()), seed=5)
        many = simulate_scheme(SPEC_Q25, run, threads=os.cpu_count() + 5)
        # more batches than cores: one worker per core, and no pool on one core
        assert seen == ([os.cpu_count()] if os.cpu_count() > 1 else [])
        assert repr(many) == repr(simulate_scheme(SPEC_Q25, run, threads=1))

    def test_pair_joint_model_supported(self):
        spec = BinaryChannelSpec.pair_joint(
            JointPmf({(0, 0): 0.7, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.1})
        )
        report = simulate_scheme(spec, SchemeRun(n=10_000, rate=None, trials=1, seed=4))
        sigma = math.sqrt(0.2 * 0.8 / report.interfered_samples)
        assert abs(report.empirical_crossover - 0.2) <= 4.0 * sigma
