"""Monte Carlo driver for the two-user binary precancellation scheme.

Each trial splits the symbol indices by a fair coin sequence A^n, precancels
user 1's interference where A_i = 1 and user 2's where A_i = 0, and decodes
both users by exact maximum likelihood over the whole codebook.  Codewords
are stored packed, 64 bits to a uint64 word, and the decoder scores each one
from the popcount of its XOR with the channel output, over all n bits and
under the clean half's bit mask.  Trial t draws all of its randomness from a
generator seeded by (master_seed, t).  A campaign is split once into batches
of consecutive trials, each run as one set of array operations; a batch holds
at most DECODE_BLOCK codeword rows, so a trial at the ML cap is a batch of
one, and its decode scores each block of codewords for both users at once.
At most min(threads, os.cpu_count()) batches run at once.  Results are
bit-identical no matter how trials are batched or spread across threads.
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
DECODE_BLOCK = 2**14  # codeword rows a batch of trials scores at once (bits, if none)


class InfeasibleRunError(ValueError):
    """The requested codebook is too large for exact ML decoding."""


@dataclass(frozen=True)
class SchemeRun:
    """Parameters of one simulation campaign.

    rate=None runs measurement-only trials (empirical crossover and the
    plug-in mutual-information estimate) without building a codebook, which
    is how blocklengths far beyond the ML cap are exercised.  codebook is
    "iid" (fair-coin codewords) or "linear" (random linear code whose
    dimension is ceil(n*rate)); a measurement-only run must leave it "iid".
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
        if self.rate is None and self.codebook != "iid":
            raise ValueError("codebook must be 'iid' when rate is None: nothing is decoded")
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


def _half_loglik(size, crossover, d):
    """Log-likelihood of a BSC(crossover) half of size bits at d disagreements,
    elementwise over broadcast size and d."""
    if crossover == 0.0:
        return np.where(d == 0, 0.0, -np.inf)
    if crossover == 1.0:
        return np.where(d == size, 0.0, -np.inf)
    out = d * math.log(crossover)
    out += (size - d) * math.log(1.0 - crossover)
    return out


def _pack(bits):
    """Pack 0/1 bits along the last axis into uint64 words, bit i in word i // 64
    (little-endian bit order, the bytes viewed in place), zero past the last bit.
    np.unpackbits(words.view(np.uint8), count=n, bitorder="little") inverts it."""
    n = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (-(-n // 64) * 8,), dtype=np.uint8)
    out[..., : -(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(np.uint64)


def _stack(arrays):
    """Stack per-trial arrays on a new leading batch axis; a batch of one is a view
    of its only array, so a trial at the ML cap never copies its codebook."""
    if arrays[0] is None:
        return None
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _ml_decode(codebook, y, clean, clean_size, n, noise_q, cross_noisy):
    """ML codeword index of user k's packed word y[k, b] in trial b's codebook[b],
    for both users k at once, ties to the lowest index.  A codeword at d
    disagreements with y[k, b] on the clean half (mask clean[k, b], clean_size[k, b]
    bits) and d' on the other n - clean_size[k, b] bits scores
    _half_loglik(clean_size, noise_q, d) + _half_loglik(n - clean_size, cross_noisy,
    d'); codewords and y are zero past bit n, so d + d' is the popcount of their XOR.
    Each block of codeword rows is scored for both users in one pass, DECODE_BLOCK
    scores at a time, so no temporary grows with the codebook."""
    trials, m, words = codebook.shape
    rows = max(1, DECODE_BLOCK // (2 * trials))
    clean_size = clean_size[..., None]
    best = np.zeros((2, trials), dtype=np.int64)
    best_score = np.full((2, trials), -np.inf)
    for start in range(0, m, rows):
        diff = codebook[:, start : start + rows] ^ y[:, :, None]
        d_all = np.bitwise_count(diff)
        diff &= clean[:, :, None]
        d_clean = np.bitwise_count(diff)
        del diff  # before the score temporaries, each as large
        if words == 1:
            d_clean, d_all = d_clean[..., 0], d_all[..., 0]
        else:
            d_clean, d_all = d_clean.sum(-1), d_all.sum(-1)
        score = _half_loglik(clean_size, noise_q, d_clean)
        score += _half_loglik(n - clean_size, cross_noisy, d_all - d_clean)
        i = score.argmax(-1)
        top = np.take_along_axis(score, i[..., None], -1)[..., 0]
        better = top > best_score
        best[better] = start + i[better]
        best_score[better] = top[better]
    return best


def _draw(run: SchemeRun, t, m, noise_q: float):
    """Trial t's draws from its own generator, seeded by (run.seed, t), in the order
    that fixes its stream: the coin A^n, the uniforms behind (S1, S2), then the
    codebook (the generator bits of a linear one) and the sent index, or the sent
    word of a measurement-only trial, and last the two users' noise uniforms."""
    rng = np.random.default_rng(np.random.SeedSequence((int(run.seed), int(t))))
    n = run.n
    coin = rng.integers(0, 2, size=n, dtype=np.uint8)
    u = rng.random((2, n))
    if m is None:
        rng.integers(0, 2, size=n, dtype=np.uint8)  # the sent word: no count depends on it
        book = w = None
    else:
        if run.codebook == "linear":
            book = rng.integers(0, 2, size=(int(math.log2(m)), n), dtype=np.uint8)
        else:
            book = rng.integers(0, 2**64, size=(m, -(-n // 64)), dtype=np.uint64)
        w = rng.integers(0, m)
    noise = rng.random((2, n)) if noise_q > 0.0 else None
    return coin, u, book, w, noise


def _run_batch(trials, run: SchemeRun, m, s1_one, s2_one_given, noise_q: float,
               cross_noisy: float):
    """Interfered-half mismatches, interfered samples, and user-1, user-2 and union
    frame errors, summed over the given trial indices."""
    n = run.n
    # unnamed, the per-trial arrays are freed once stacked
    coin, u, book, w, noise = map(_stack, zip(*(_draw(run, t, m, noise_q) for t in trials)))
    mask1 = coin.astype(bool)  # A_i = 1
    noisy1 = ~mask1  # indices where user 1 sees S1 xor S2 (xor Z1)
    # S1 from its marginal, then S2 from its law given S1
    s1 = u[:, 0] < s1_one
    xs = s1 ^ (u[:, 1] < s2_one_given[s1.astype(np.uint8)])
    del u  # the uniforms are spent: free them before the decode
    # user k receives the sent word xor the interference it was not precancelled
    # for (xor its noise): rows 0 and 1 are those flips, rows 2 and 3 the halves
    bits = np.stack((noisy1 & xs, mask1 & xs, mask1, noisy1), axis=1)
    if noise_q > 0.0:
        bits[:, :2] ^= noise < noise_q
    del noise  # likewise
    samples = noisy1.sum(1)
    counts = [int(np.count_nonzero(bits[:, 0] & noisy1)), int(samples.sum()), 0, 0, 0]
    if m is None:
        return counts

    if run.codebook == "linear":
        # row i is the XOR of the generator rows at the set bits of i, doubled in place
        gens = _pack(book)
        book = np.zeros((len(trials), m, gens.shape[2]), dtype=np.uint64)
        for j in range(gens.shape[1]):
            np.bitwise_xor(book[:, : 1 << j], gens[:, j, None], out=book[:, 1 << j : 2 << j])
    elif n % 64:  # zero the random bits past n, in place, so the decoder need not mask them
        book[..., -1] &= np.uint64((1 << n % 64) - 1)
    sent = book[np.arange(len(trials)), w]
    packed = _pack(bits).transpose(1, 0, 2)
    # user 1's noisy half is user 2's clean half, and the other way round
    e1, e2 = _ml_decode(book, packed[:2] ^ sent, packed[2:], np.stack((n - samples, samples)),
                        n, noise_q, cross_noisy) != w
    counts[2:] = (int(np.count_nonzero(e)) for e in (e1, e2, e1 | e2))
    return counts


def simulate_scheme(spec: BinaryChannelSpec, run: SchemeRun, threads: int = 1) -> SchemeReport:
    """Simulate the precancellation scheme and pool results over all trials.

    The decoder knows the coin sequence of each trial and performs exact ML:
    perfect agreement is required on its clean half (up to channel noise)
    and disagreements on the interfered half are weighted by the crossover
    P(S1 xor S2 = 1) convolved with the noise.  At most min(threads,
    os.cpu_count()) batches of consecutive trials run at once: as many trials as
    fit DECODE_BLOCK codeword rows (or bits, when nothing is decoded), and one
    at the ML cap.
    """
    if spec.k != 2:
        raise ValueError("the scheme simulation covers two users")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    noise_q = spec.noise_q or 0.0
    cross_noisy = xor_convolve(spec.xor_probability, noise_q)
    law, s1_law = spec.pair.prob, spec.pair.marginal((0,)).prob
    s1_one = s1_law.get((1,), 0.0)
    # P(S2 = 1 | S1 = s) for s = 0, 1; 0 where S1 = s is impossible
    s2_one_given = np.array([law.get((s, 1), 0.0) / (s1_law.get((s,), 0.0) or 1.0) for s in (0, 1)])

    m = run.codewords
    # a trial at the ML cap is a batch of one: its 8 MB codebook is decoded in place
    size = max(1, DECODE_BLOCK // max(m or 1, run.n))
    batches = [range(i, min(i + size, run.trials)) for i in range(0, run.trials, size)]

    def run_batch(trials):
        return _run_batch(trials, run, m, s1_one, s2_one_given, noise_q, cross_noisy)

    # each worker holds one batch at a time, so run no more workers than cores
    workers = min(threads, len(batches), os.cpu_count() or 1)
    if workers == 1:
        # in the calling thread: a new thread may get a new malloc arena, which
        # keeps a freed codebook resident, so peak memory would vary by run
        totals = map(run_batch, batches)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = list(pool.map(run_batch, batches))
    mismatches, samples, e1, e2, eu = (sum(c) for c in zip(*totals))

    q_hat = mismatches / samples if samples else 0.0
    report_fer = run.rate is not None
    return SchemeReport(
        trials=run.trials,
        n=run.n,
        codewords=m,
        empirical_crossover=q_hat,
        interfered_samples=samples,
        empirical_mi_per_symbol=precancellation_rate(q_hat, noise_q),
        predicted_mi_per_symbol=precancellation_rate(cross_noisy, noise_q),
        frame_error_rate=eu / run.trials if report_fer else None,
        fer_user1=e1 / run.trials if report_fer else None,
        fer_user2=e2 / run.trials if report_fer else None,
    )
