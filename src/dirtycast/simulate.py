"""Monte Carlo driver for the two-user binary precancellation scheme.

Each trial splits the symbol indices by a fair coin sequence A^n, precancels
user 1's interference where A_i = 1 and user 2's where A_i = 0, and decodes
both users by exact maximum likelihood over the whole codebook.  Codewords
are stored packed, 64 bits to a uint64 word, and the decoder scores each one
from the popcounts of its XOR with the channel output under the two halves'
bit masks.  Trial t draws all of its randomness from a generator seeded by
(master_seed, t), so results are bit-identical no matter how trials are
batched across threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .binary import BinaryChannelSpec, precancellation_rate, xor_convolve

__all__ = ["InfeasibleRunError", "SchemeRun", "simulate_scheme"]

CODEBOOK_CAP = 2**20
DECODE_BLOCK = 2**14  # codewords scored at once by _ml_decode


class InfeasibleRunError(ValueError):
    """The requested codebook is too large for exact ML decoding."""


@dataclass(frozen=True)
class SchemeRun:
    """Parameters of one simulation campaign.

    rate=None runs measurement-only trials (empirical crossover and the
    plug-in mutual-information estimate) without building a codebook, which
    is how blocklengths far beyond the ML cap are exercised.  codebook is
    "iid" (fair-coin codewords) or "linear" (random linear code whose
    dimension is ceil(n*rate)).
    """

    n: int
    rate: float | None
    trials: int
    seed: int
    codebook: str = "iid"

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("blocklength must be even and >= 2")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.codebook not in ("iid", "linear"):
            raise ValueError("codebook must be 'iid' or 'linear'")
        if self.rate is not None:
            if not 0.0 < self.rate <= 1.0:
                raise ValueError("rate must lie in (0, 1]")
            if self.codewords > CODEBOOK_CAP:
                raise InfeasibleRunError(
                    f"{self.codewords} codewords exceed the ML cap of {CODEBOOK_CAP}"
                )

    @property
    def codewords(self) -> int | None:
        """Codebook size; ceil(2^(n*rate)), rounded up to a power of two for
        linear codebooks."""
        if self.rate is None:
            return None
        if self.codebook == "linear":
            return 2 ** math.ceil(self.n * self.rate - 1e-9)
        return math.ceil(2.0 ** (self.n * self.rate))


@dataclass(frozen=True)
class SchemeReport:
    """Pooled measurements of a simulation campaign.

    empirical_crossover is measured between Y1 and the sent codeword on the
    half precancelled for user 2.  The MI fields are binary.precancellation_rate
    at that crossover (empirical) and at the true one (predicted: the noisy-
    precancellation lower bound).  The frame error fields are None for
    measurement-only runs.
    """

    trials: int
    n: int
    codewords: int | None
    empirical_crossover: float
    interfered_samples: int
    empirical_mi_per_symbol: float
    predicted_mi_per_symbol: float
    frame_error_rate: float | None
    fer_user1: float | None
    fer_user2: float | None


def _half_loglik(size, crossover):
    """Log-likelihood of a BSC(crossover) half of size bits at each disagreement
    count 0..size."""
    d = np.arange(size + 1, dtype=float)
    if crossover == 0.0:
        return np.where(d == 0, 0.0, -np.inf)
    if crossover == 1.0:
        return np.where(d == size, 0.0, -np.inf)
    return d * math.log(crossover) + (size - d) * math.log(1.0 - crossover)


def _pack(bits):
    """Pack 0/1 bits along the last axis into uint64 words, bit i in word i // 64
    (little-endian bit order, the bytes viewed in place), zero past the last bit.
    np.unpackbits(words.view(np.uint8), count=n, bitorder="little") inverts it."""
    n = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (-(-n // 64) * 8,), dtype=np.uint8)
    out[..., : -(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(np.uint64)


def _ml_decode(codebook, y, clean, noisy, clean_score, noisy_score) -> int:
    """ML codeword index for the packed word y, ties to the lowest index.  A codeword
    at d disagreements with y under the clean mask and d' under the noisy mask scores
    clean_score[d] + noisy_score[d']; DECODE_BLOCK rows are scored at a time so no
    temporary grows with the codebook."""
    best, best_score = 0, -math.inf
    for start in range(0, len(codebook), DECODE_BLOCK):
        diff = codebook[start : start + DECODE_BLOCK] ^ y
        score = clean_score[np.bitwise_count(diff & clean).sum(1)]
        score += noisy_score[np.bitwise_count(diff & noisy).sum(1)]
        i = int(np.argmax(score))
        if score[i] > best_score:
            best, best_score = start + i, score[i]
    return best


def _run_trial(rng, run: SchemeRun, s1_one, s2_one_given, noise_q: float, cross_noisy: float):
    n = run.n
    mask1 = rng.integers(0, 2, size=n, dtype=np.uint8).astype(bool)  # A_i = 1
    u = rng.random((2, n))  # S1 from its marginal, then S2 from its law given S1
    s1 = (u[0] < s1_one).astype(np.uint8)
    s2 = (u[1] < s2_one_given[s1]).astype(np.uint8)

    if run.rate is None:
        sent = rng.integers(0, 2, size=n, dtype=np.uint8)
        codebook, w = None, None
    else:
        m = run.codewords
        if run.codebook == "linear":
            # row i is the XOR of the generator rows at the set bits of i, doubled in place
            gens = _pack(rng.integers(0, 2, size=(int(math.log2(m)), n), dtype=np.uint8))
            codebook = np.zeros((m, gens.shape[1]), dtype=np.uint64)
            for j, g in enumerate(gens):
                np.bitwise_xor(codebook[: 1 << j], g, out=codebook[1 << j : 2 << j])
        else:
            # whole random words: the decoder's masks never read the bits past n
            codebook = rng.integers(0, 2**64, size=(m, -(-n // 64)), dtype=np.uint64)
        w = int(rng.integers(0, m))
        sent = np.unpackbits(codebook[w].view(np.uint8), count=n, bitorder="little")

    x = np.where(mask1, sent ^ s1, sent ^ s2)
    y1 = x ^ s1
    y2 = x ^ s2
    if noise_q > 0.0:
        y1 = y1 ^ (rng.random(n) < noise_q).astype(np.uint8)
        y2 = y2 ^ (rng.random(n) < noise_q).astype(np.uint8)

    noisy1 = ~mask1  # indices where user 1 sees S1 xor S2 (xor Z1)
    mismatches = int(np.count_nonzero((y1 != sent) & noisy1))
    samples = int(np.count_nonzero(noisy1))

    e1 = e2 = 0
    if codebook is not None:
        # user 1's noisy half is user 2's clean half, and the other way round
        y1, y2, clean1, clean2 = _pack(np.array((y1, y2, mask1, noisy1), dtype=np.uint8))
        e1, e2 = (
            int(_ml_decode(codebook, y, clean, noisy, _half_loglik(size, noise_q),
                           _half_loglik(n - size, cross_noisy)) != w)
            for y, clean, noisy, size in (
                (y1, clean1, clean2, n - samples), (y2, clean2, clean1, samples)
            )
        )
    return mismatches, samples, e1, e2, e1 | e2


def simulate_scheme(spec: BinaryChannelSpec, run: SchemeRun, threads: int = 1) -> SchemeReport:
    """Simulate the precancellation scheme and pool results over all trials.

    The decoder knows the coin sequence of each trial and performs exact ML:
    perfect agreement is required on its clean half (up to channel noise)
    and disagreements on the interfered half are weighted by the crossover
    P(S1 xor S2 = 1) convolved with the noise.  At most min(threads,
    os.cpu_count()) trials run at once.
    """
    if spec.k != 2:
        raise ValueError("the scheme simulation covers two users")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    noise_q = spec.noise_q or 0.0
    cross_noisy = xor_convolve(spec.xor_probability, noise_q)
    s1_one = spec.marginal_one_probabilities()[0]
    law, s1_law = spec.pair.prob, spec.pair.marginal((0,)).prob
    # P(S2 = 1 | S1 = s) for s = 0, 1; 0 where S1 = s is impossible
    s2_one_given = np.array([law.get((s, 1), 0.0) / (s1_law.get((s,), 0.0) or 1.0) for s in (0, 1)])

    def worker(trial_indices):
        totals = [0] * 5  # mismatches, samples, user-1, user-2 and union frame errors
        for t in trial_indices:
            rng = np.random.default_rng(np.random.SeedSequence((int(run.seed), int(t))))
            trial = _run_trial(rng, run, s1_one, s2_one_given, noise_q, cross_noisy)
            totals = [a + b for a, b in zip(totals, trial)]
        return totals

    # a trial at the ML cap holds an 8 MB codebook, so run no more trials at once than cores
    workers = min(threads, run.trials, os.cpu_count() or 1)
    chunks = [range(i, run.trials, workers) for i in range(workers)]
    if workers == 1:
        # in the calling thread: a new thread may get a new malloc arena, which
        # keeps a freed codebook resident, so peak memory would vary by run
        totals = [worker(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = list(pool.map(worker, chunks))
    mismatches, samples, e1, e2, eu = (sum(c) for c in zip(*totals))

    q_hat = mismatches / samples if samples else 0.0
    report_fer = run.rate is not None
    return SchemeReport(
        trials=run.trials,
        n=run.n,
        codewords=run.codewords,
        empirical_crossover=q_hat,
        interfered_samples=samples,
        empirical_mi_per_symbol=precancellation_rate(q_hat, noise_q),
        predicted_mi_per_symbol=precancellation_rate(cross_noisy, noise_q),
        frame_error_rate=eu / run.trials if report_fer else None,
        fer_user1=e1 / run.trials if report_fer else None,
        fer_user2=e2 / run.trials if report_fer else None,
    )
