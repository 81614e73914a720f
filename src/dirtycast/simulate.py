"""Monte Carlo driver for the two-user binary precancellation scheme.

Each trial splits the symbol indices by a fair coin sequence A^n, precancels
user 1's interference where A_i = 1 and user 2's where A_i = 0, and decodes
both users by exact maximum likelihood over the whole codebook.  Codewords
are stored packed, 64 bits to a uint64 word, and the decoder scores each one
from the popcount of its XOR with the channel output, over all n bits and
under the clean half's bit mask.  Without channel noise only the codewords that
agree with the output on the clean half are scored: every other one has
likelihood 0.  For a linear code they form one coset, so a noise-free linear
trial run alone (as every trial at the ML cap is) builds no codebook: GF(2)
elimination on the clean half finds the coset, and only its members are
scored.  Trial t's random words are addressed by (seed, t) alone: a
counter-based hash makes a whole batch's short blocks in one array pass, into
buffers each thread keeps across its batches, and a PCG64 keyed by the same hash
makes each long one.  An i.i.d. codebook drawn from a PCG64 is never held whole:
its rows are drawn block by block as the decoder scores them, and the sent row
by jumping the stream ahead to it.  A campaign is split once into batches of
consecutive trials, each run as one set of array operations; a batch holds at
most DECODE_BLOCK codeword rows, so a trial at the ML cap is a batch of one.  At
most min(threads, os.cpu_count()) batches run at once.  Results are
bit-identical however trials are batched or threaded.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .binary import BinaryChannelSpec, _one_channel, precancellation_rate, xor_convolve
from .core import _check_integer

__all__ = ["InfeasibleRunError", "SchemeRun", "simulate_scheme"]

CODEBOOK_CAP = 2**20
DECODE_BLOCK = 2**14  # codeword rows a batch of trials scores at once (bits, if none)
_HASH_WORDS = 2**12  # a trial of this many random words or more draws them from a PCG64
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # the golden-ratio increment of SplitMix64


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
        _check_integer("n", self.n, "trials", self.trials, "seed", self.seed)
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("blocklength must be even and >= 2")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= self.seed < 2**64:
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


def _popcount(words):
    """Set bits of each packed row: the popcounts of its words, summed.  A
    sum over the short word axis is slow, so its columns are added as intp."""
    count = np.bitwise_count(words)
    if count.shape[-1] == 1:
        return count[..., 0]
    return sum(count[..., j].astype(np.intp) for j in range(count.shape[-1]))


def _ml_decode(blocks, y, clean, clean_size, n, noise_q, cross_noisy):
    """ML codeword index of user k's packed word y[k, b] in trial b's codebook, for
    both users k at once, ties to the lowest index.  blocks yields (start, block)
    pairs in order, block[b] holding trial b's codeword rows from index start on.
    A codeword at d disagreements with y[k, b] on the clean half (mask clean[k, b],
    clean_size[k, b] bits) and d' on the other n - clean_size[k, b] bits scores
    _half_loglik(clean_size, noise_q, d) + _half_loglik(n - clean_size, cross_noisy,
    d'); y is zero past bit n, and so are the codewords of a noisy decode, so
    d + d' is the popcount of their XOR.  Each block is scored for both users in one
    pass, so no temporary grows with the codebook.  Without noise (noise_q = 0) only
    the codewords that agree with y on the clean half are scored, at d = 0, with
    their XOR masked past bit n: the clean masks already end at bit n, so those
    blocks need not be zeroed there.  The agreement of a block is formed in
    buffers kept across blocks, and a block where no codeword agrees is skipped,
    since it cannot hold a strictly better codeword.  A noise-free linear trial in a
    batch of its own goes to _coset_decode instead, which scores the same survivors
    without the codebook."""
    trials, cw = y.shape[1:]
    clean, y_clean, clean_size = clean[:, :, None], (y & clean)[:, :, None], clean_size[..., None]
    best = np.zeros((2, trials), dtype=np.int64)
    best_score = np.full((2, trials), -np.inf)
    masked = agree = hit = None  # the noise-free buffers, (2, trials, rows of the first block)
    for start, block in blocks:
        if noise_q == 0.0:
            rows = block.shape[1]
            if masked is None:
                masked = np.empty((2, trials, rows), dtype=np.uint64)
                agree, hit = np.empty(masked.shape, dtype=bool), np.empty(masked.shape, dtype=bool)
            # word by word into the buffers, as a reduction over the short word axis is slow
            word = np.bitwise_and(block[..., 0], clean[..., 0], out=masked[..., :rows])
            ok = np.equal(word, y_clean[..., 0], out=agree[..., :rows])
            for j in range(1, cw):
                np.bitwise_and(block[..., j], clean[..., j], out=word)
                ok &= np.equal(word, y_clean[..., j], out=hit[..., :rows])
            if not ok.any():
                continue
            k, b, r = np.nonzero(ok)
            diff = block[b, r] ^ y[k, b]
            _zero_past(diff, n)
            score = _half_loglik(n - clean_size[k, b, 0], cross_noisy, _popcount(diff))
            # the best survivor of each (user, trial), the first on ties, as argmax picks
            slot = k * trials + b
            lead = np.lexsort((-score, slot))
            lead = lead[np.r_[True, slot[lead[1:]] != slot[lead[:-1]]]]
            slot, top = slot[lead], score[lead]
            better = top > best_score.ravel()[slot]
            best.ravel()[slot[better]] = start + r[lead[better]]
            best_score.ravel()[slot[better]] = top[better]
            continue
        diff = block ^ y[:, :, None]
        d_all = _popcount(diff)
        diff &= clean
        d_clean = _popcount(diff)
        del diff  # before the score temporaries, each as large
        score = _half_loglik(clean_size, noise_q, d_clean)
        score += _half_loglik(n - clean_size, cross_noisy, d_all - d_clean)
        i = score.argmax(-1)
        top = np.take_along_axis(score, i[..., None], -1)[..., 0]
        better = top > best_score
        best[better] = start + i[better]
        best_score[better] = top[better]
    return best


def _as_int(words):
    """A packed row as one Python int: bit i of the row is bit i of the int."""
    return int.from_bytes(words.tobytes(), "little")


def _from_int(value, cw):
    """The packed row of cw words whose bits are those of value; inverts _as_int."""
    return np.frombuffer(value.to_bytes(8 * cw, "little"), dtype=np.uint64)


def _coset_decode(gens, y, clean, clean_size, n, cross_noisy):
    """ML message of a linear code for one user's packed word y without noise on its
    clean half (mask clean, clean_size bits), ties to the lowest index, found without
    the codebook.  Message bit j selects generator row gens[j], as in the codebook's
    doubling loop.  Only the messages whose codeword agrees with y on the clean half
    score above -inf, and for a linear code they form one coset x0 + ker: GF(2)
    elimination of the rows restricted to the mask, on n-bit ints, gives x0 and a
    basis of ker (ML decoding over erasures; Burshtein and Miller, IEEE T-IT 2004).
    The 2^(k - rank) members are scored as _ml_decode scores its survivors, at most
    DECODE_BLOCK at a time: the low basis vectors span one block of offsets, and each
    combination of the others shifts it.  Ties go to the lowest message explicitly,
    not by the order of enumeration.  As in _ml_decode, with no member above -inf
    the answer is 0."""
    pivots = {}  # leading bit -> (masked row, message, codeword) of a combination of rows

    def reduce(v, x, c):
        while v and (p := pivots.get(v.bit_length() - 1)):
            v, x, c = v ^ p[0], x ^ p[1], c ^ p[2]
        return v, x, c

    mask = _as_int(clean)
    kernel = []  # (message, codeword) of each combination that is 0 on the mask
    for j, row in enumerate(gens):
        g = _as_int(row)
        v, x, c = reduce(g & mask, 1 << j, g)
        if v:
            pivots[v.bit_length() - 1] = (v, x, c)
        else:
            kernel.append((x, c))
    rest, x0, c0 = reduce(_as_int(y & clean), 0, 0)
    if rest:
        return 0  # no codeword agrees with y on the clean half

    cw = gens.shape[-1]
    low = min(len(kernel), DECODE_BLOCK.bit_length() - 1)
    msgs = np.zeros(1 << low, dtype=np.int64)
    words = np.zeros((1 << low, cw), dtype=np.uint64)
    for j, (x, c) in enumerate(kernel[:low]):
        np.bitwise_xor(msgs[: 1 << j], x, out=msgs[1 << j : 2 << j])
        np.bitwise_xor(words[: 1 << j], _from_int(c, cw), out=words[1 << j : 2 << j])
    shifts = [(x0, c0)]
    for x, c in kernel[low:]:
        shifts += [(sx ^ x, sc ^ c) for sx, sc in shifts]
    best, best_score = 0, -np.inf
    for sx, sc in shifts:
        # every member agrees with y on the clean half, so all its disagreements are noisy
        d = _popcount(words ^ (_from_int(sc, cw) ^ y))
        score = _half_loglik(n - clean_size, cross_noisy, d)
        top = score.max()
        if top > -np.inf and top >= best_score:
            first = int((msgs[score == top] ^ sx).min())
            if top > best_score or first < best:
                best, best_score = first, top
    return best


def _mix(z, t=None):
    """The SplitMix64 finalizer (Steele, Lea and Flood, OOPSLA 2014), in place on
    a uint64 array, whose arithmetic wraps without a warning; t, if given, is a
    scratch array of z's shape that takes the shifts."""
    t = np.empty_like(z) if t is None else t
    z ^= np.right_shift(z, 30, out=t)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, 27, out=t)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, 31, out=t)
    return z


def _keys(seed, trials):
    """key_t = mix(mix(seed) + t*gamma) of each trial t in the range trials, in
    uint64 array arithmetic, which wraps without a warning."""
    t = np.arange(trials.start, trials.stop, dtype=np.uint64)
    return _mix(_mix(np.array([seed], dtype=np.uint64)) + t * _GAMMA)


def _raw(gens, count):
    """The next count words of each PCG64 in gens, one row each; a single row is
    a view of its draw, never a copy."""
    rows = [g.random_raw(count) for g in gens]
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


def _zero_past(book, n):
    """Zero the bits past n of packed rows, in place, so the decoder need not mask
    them."""
    if n % 64:
        book[..., -1] &= np.uint64((1 << n % 64) - 1)


def _words(seed, trials, width, head=None, held=None):
    """Row t - trials.start holds the first head (default: all) of trial t's width
    words, a function of (seed, t) only (Salmon et al., SC 2011): word j is
    mix(key_t + (j+1)*gamma), hashed for the whole batch at once, or, for rows of
    _HASH_WORDS or more, where a generator is cheaper per word, the output of a
    PCG64 seeded by key_t (see _keys).  Words count from 1, as SplitMix64 adds gamma
    before it mixes: mix maps 0 to 0, and key_t is 0 at seed 0, trial 0.
    Hashed rows and their scratch go to two buffers kept in held (a
    threading.local) when it is given, so that a thread allocates them once, not
    once a batch: depending on the heap's layout, the allocator can return a
    block of that size (0.3 MB at 256 trials) to the system when it is freed,
    and the next batch then faults it in again."""
    keys, head = _keys(seed, trials), width if head is None else head
    if width >= _HASH_WORDS:
        return _raw([np.random.PCG64(int(k)) for k in keys], head)
    size = len(keys) * head
    buffers = getattr(held, "words", None)
    if buffers is None or buffers.shape[1] < size:
        buffers = np.empty((2, size), dtype=np.uint64)
        if held is not None:
            held.words = buffers
    z, t = (b[:size].reshape(len(keys), head) for b in buffers)
    np.add(keys[:, None], np.arange(1, head + 1, dtype=np.uint64) * _GAMMA, out=z)
    return _mix(z, t)


def _pcg_rows(keys, first, m, cw, n, step):
    """The m packed rows of cw words that the PCG64 keyed by keys[b] draws from its
    word first[b] on, zeroed past bit n unless n is None, as (start, block) pairs:
    block[b] holds rows start to start + step of them (fewer in the last block),
    drawn only when the block is asked for.  PCG64.advance jumps to a word without
    drawing the ones before it (O'Neill, HMC-CS-2014-0905)."""
    gens = [np.random.PCG64(int(k)) for k in keys]
    for g, at in zip(gens, first):
        g.advance(int(at))
    for start in range(0, m, step):
        block = _raw(gens, min(step, m - start) * cw).reshape(len(gens), -1, cw)
        if n is not None:
            _zero_past(block, n)
        yield start, block


def _run_batch(run: SchemeRun, m, below, noise_q: float, cross_noisy: float, held, trials):
    """Interfered-half mismatches, interfered samples, and user-1, user-2 and union
    frame errors, summed over the given trial indices.  A trial's words hold, in
    order, its coin A^n, packed; the uniforms behind (S1, S2) and any noise; and,
    when decoding, the sent index (word mod m) and the packed i.i.d. codebook or
    linear generator rows.  An i.i.d. codebook drawn from a PCG64 is not drawn with
    the rest: _pcg_rows draws it as _ml_decode scores it, and the sent row alone
    from a second generator jumped ahead to it.  held keeps the calling thread's
    buffers of hashed words between its batches (see _words)."""
    n, size, cw = run.n, len(trials), -(-run.n // 64)
    uniforms = 4 * n if noise_q > 0.0 else 2 * n
    rows = 0 if m is None else m.bit_length() - 1 if run.codebook == "linear" else m
    at = cw + uniforms  # the sent index, then the codebook rows
    width = at + (0 if m is None else 1 + rows * cw)
    stream = run.codebook == "iid" and m is not None and width >= _HASH_WORDS
    words = _words(run.seed, trials, width, at + 1 if stream else width, held)
    mask1 = np.unpackbits(words[:, :cw].view(np.uint8), -1, n, bitorder="little").view(bool)
    noisy1 = ~mask1  # indices where user 1 sees S1 xor S2 (xor Z1)
    u = words[:, cw:at].reshape(size, -1, n)
    u >>= 11  # (word >> 11) * 2^-53 < p exactly when word >> 11 < ceil(p * 2^53)
    # S1 from its marginal, then S2 from its law given S1
    s1 = u[:, 0] < below[0]
    xs = s1 ^ (u[:, 1] < below[1:3][s1.view(np.uint8)])
    # user k receives the sent word xor the interference it was not precancelled
    # for (xor its noise): rows 0 and 1 are those flips, rows 2 and 3 the halves
    bits = np.stack((noisy1 & xs, mask1 & xs, mask1, noisy1), axis=1)
    if noise_q > 0.0:
        bits[:, :2] ^= u[:, 2:] < below[3]
    samples = noisy1.sum(1)
    counts = [int(np.count_nonzero(bits[:, 0] & noisy1)), int(samples.sum()), 0, 0, 0]
    if m is None:
        return counts

    w = (words[:, at] % np.uint64(m)).astype(np.int64)
    packed = _pack(bits).transpose(1, 0, 2)
    # user 1's noisy half is user 2's clean half, and the other way round
    clean_size = np.stack((n - samples, samples))
    if run.codebook == "linear" and noise_q == 0.0 and size == 1:
        # one noise-free linear trial: decoded by elimination, its codebook never built
        gens = words[0, at + 1 :].reshape(rows, cw)  # a view: the rows are not copied
        _zero_past(gens, n)
        y = packed[:2, 0] ^ np.bitwise_xor.reduce(gens[(w[0] >> np.arange(rows)) & 1 == 1])
        decoded = np.array([[_coset_decode(gens, y[k], packed[2 + k, 0], clean_size[k, 0], n,
                                           cross_noisy)] for k in (0, 1)])
    else:
        # each block holds step rows of each trial: DECODE_BLOCK scores for both users
        step = max(1, DECODE_BLOCK // (2 * size))
        if stream:
            keys = _keys(run.seed, trials)
            sent = next(_pcg_rows(keys, at + 1 + w * cw, 1, cw, n, 1))[1][:, 0]
            # a noise-free decode masks what it scores past bit n itself
            blocks = _pcg_rows(keys, [at + 1] * size, m, cw, n if noise_q > 0.0 else None, step)
        else:
            book = words[:, at + 1 :].reshape(size, rows, cw)  # a view: the rows are not copied
            _zero_past(book, n)
            if run.codebook == "linear":
                # row i is the XOR of the generator rows at the set bits of i, doubled in place
                gens, book = book, np.zeros((size, m, cw), dtype=np.uint64)
                for j in range(rows):
                    np.bitwise_xor(book[:, : 1 << j], gens[:, j, None],
                                   out=book[:, 1 << j : 2 << j])
            sent = book[np.arange(size), w]
            blocks = ((start, book[:, start : start + step]) for start in range(0, m, step))
        decoded = _ml_decode(blocks, packed[:2] ^ sent, packed[2:], clean_size, n, noise_q,
                             cross_noisy)
    e1, e2 = decoded != w
    counts[2:] = (int(np.count_nonzero(e)) for e in (e1, e2, e1 | e2))
    return counts


def simulate_scheme(spec: BinaryChannelSpec, run: SchemeRun, threads: int = 1) -> SchemeReport:
    """Simulate the precancellation scheme and pool results over all trials.

    The decoder knows the coin sequence of each trial and performs exact ML:
    perfect agreement is required on its clean half (up to channel noise)
    and disagreements on the interfered half are weighted by the crossover
    P(S1 xor S2 = 1) convolved with the noise.  A noise-free linear trial in a
    batch of its own is decoded from its generator rows by GF(2) elimination,
    with the same result and no codebook.  At most min(threads,
    os.cpu_count()) batches of consecutive trials run at once: as many trials as
    fit DECODE_BLOCK codeword rows (or bits, when nothing is decoded), and one
    at the ML cap.
    """
    if spec.k != 2:
        raise ValueError("the scheme simulation covers two users")
    _one_channel("simulate_scheme", spec.q, spec.noise_q)
    _check_integer("threads", threads)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    noise_q = spec.noise_q or 0.0
    cross_noisy = xor_convolve(spec.xor_probability, noise_q)
    law, s1_law = spec.pair.prob, spec.pair.marginal((0,)).prob
    # P(S1 = 1), P(S2 = 1 | S1 = s) for s = 0, 1 (0 where S1 = s is impossible) and
    # the noise, as thresholds on the 53-bit numerators of the uniforms
    probs = [s1_law.get((1,), 0.0), *(law.get((s, 1), 0.0) / (s1_law.get((s,), 0.0) or 1.0)
                                      for s in (0, 1)), noise_q]
    below = np.ceil(np.array(probs) * 2.0**53).astype(np.uint64)

    m = run.codewords
    # a trial at the ML cap is a batch of one: an i.i.d. trial's codebook is drawn
    # block by block as it is decoded, and a noise-free linear one builds none
    size = max(1, DECODE_BLOCK // max(m or 1, run.n))
    batches = [range(i, min(i + size, run.trials)) for i in range(0, run.trials, size)]
    # each thread keeps its hashed words' buffers from batch to batch
    run_batch = partial(_run_batch, run, m, below, noise_q, cross_noisy, threading.local())

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
    fer = [e / run.trials if run.rate is not None else None for e in (eu, e1, e2)]
    return SchemeReport(
        trials=run.trials, n=run.n, codewords=m, empirical_crossover=q_hat,
        interfered_samples=samples,
        empirical_mi_per_symbol=precancellation_rate(q_hat, noise_q),
        predicted_mi_per_symbol=precancellation_rate(cross_noisy, noise_q),
        frame_error_rate=fer[0], fer_user1=fer[1], fer_user2=fer[2],
    )
