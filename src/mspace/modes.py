"""Counting arguments for mode entanglement of indistinguishable particles.

With n particles spread over m modes and only particle-number measurements
available, the measurement space has one axis per composition of n into m
nonnegative ordered parts, i.e. binom(n+m-1, m-1) axes. Useful bipartite
entanglement is then capped by how evenly that count factors into two
integers: log2(N / p) bits, where p is the smallest divisor of N at or above
sqrt(N). A prime count cannot be factored at all, forcing the cap to zero.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg import ValidationError, _require, _shown

# Largest outcome count whose divisor search is run: the downward trial
# division from isqrt(count) then takes at most 10^6 steps. Being below 2^63,
# it also keeps every count and candidate of the stacked search exact in int64.
COUNT_CAP = 10**12

# Most (row, candidate) entries one block of the stacked search holds: 8 MiB of int64.
BLOCK_ELEMENTS = 1 << 20
# Candidates each row tries in its first block; the width doubles per block.
FIRST_WIDTH = 32

# math.log2 entry by entry, which np.log2 does not always match to the last bit
_log2 = np.vectorize(math.log2, otypes=[float])


def composition_count(n: int, m: int) -> int:
    """Number of ordered ways to write n as a sum of m nonnegative integers.

    Exact integer arithmetic; equals binom(n+m-1, m-1).
    """
    n, m = int(n), int(m)
    if n < 1:
        raise ValidationError("mode-particles", f"particle count must be >= 1, got {_shown(n)}")
    if m < 2:
        raise ValidationError("mode-modes", f"mode count must be >= 2, got {_shown(m)}")
    return math.comb(n + m - 1, m - 1)


def divisor_infima(counts) -> list[int]:
    """The divisor infimum of every count in ``counts``, in order, from one stacked search.

    The divisor infimum of n is its smallest divisor at or above sqrt(n):
    over all factorizations n = k * l, the minimum of max(k, l). It equals n
    exactly when n is prime.

    Each row runs a downward trial division from isqrt(count), in int64
    blocks of candidates: FIRST_WIDTH per row at first, doubling while rows
    remain, with rows x width held to BLOCK_ELEMENTS. Every count must lie in
    [1, COUNT_CAP], which keeps the int64 arithmetic exact.
    """
    counts = [int(c) for c in counts]
    bad = next((c for c in counts if not 1 <= c <= COUNT_CAP), None)
    if bad is not None:
        raise ValidationError("mode-count", f"need counts in [1, {COUNT_CAP}], got {bad}")
    n = np.array(counts, dtype=np.int64)
    top = np.array([math.isqrt(c) for c in counts], dtype=np.int64)
    infima = np.zeros(len(n), dtype=np.int64)
    rows, width = np.arange(len(n)), FIRST_WIDTH
    while len(rows):
        width = min(width, BLOCK_ELEMENTS)
        height = BLOCK_ELEMENTS // width
        for start in range(0, len(rows), height):
            block = rows[start : start + height]
            # a candidate below 1 stands after the 1 that divides every count,
            # so raising it to 1 never changes a row's first hit
            candidates = top[block, None] - np.arange(width)
            np.maximum(candidates, 1, out=candidates)
            hits = n[block, None] % candidates == 0
            found = hits.any(axis=1)
            first = hits.argmax(axis=1)[found]
            infima[block[found]] = n[block[found]] // candidates[found, first]
        top[rows] -= width
        rows, width = rows[infima[rows] == 0], 2 * width
    return infima.tolist()


@dataclasses.dataclass(frozen=True, eq=False)
class ModeSystem:
    """Mode-counting data for a table of (n particles, m modes) rows, one column per field.

    ``count`` is the number of particle-number outcomes, ``p`` the divisor
    infimum, ``bound_bits`` the useful-entanglement cap log2(count / p) and
    ``weak_bound_bits`` the always-valid but looser cap log2(count / 2).
    For prime counts the strong cap is 0 while the weak one stays positive,
    so the weak form is not tight there. ``n``, ``m``, ``count`` and ``p`` are
    int64, ``prime`` bool and the bits float64; a failed check, ``mode-bound``, names its row.
    """

    n: np.ndarray
    m: np.ndarray
    count: np.ndarray
    prime: np.ndarray
    p: np.ndarray
    bound_bits: np.ndarray
    weak_bound_bits: np.ndarray

    def __post_init__(self):
        count, p, bound, weak = self.count, self.p, self.bound_bits, self.weak_bound_bits
        # p divides count with p >= count / p, exact in int64 where p * p overflows; p < 1 fails
        divisor = np.maximum(p, 1)
        divides = (count % divisor == 0) & (count // divisor <= p)
        for ok, describe in (
            (count >= 2, lambda i: f"outcome count must be >= 2, got {count[i]}"),
            (divides, lambda i: f"p = {p[i]} is not a divisor of {count[i]} at or above its root"),
            ((bound >= 0) & (bound <= weak + 1e-12), lambda i: "bound ordering violated"),
            (~self.prime | (bound == 0.0), lambda i: "a prime outcome count forces a zero bound"),
        ):
            _require(ok, "mode-bound", lambda i: f"row {i[0]}: " + describe(i))


def useful_entanglement_bounds(pairs) -> ModeSystem:
    """Upper bounds (bits) on useful mode entanglement for each (n, m) in ``pairs``, as one table.

    Every pair is checked against COUNT_CAP first, in order, so the first
    pair over the cap is the one named; then one :func:`divisor_infima`
    call searches all the counts.
    """
    pairs = [(int(n), int(m)) for n, m in pairs]
    counts = []
    for n, m in pairs:
        # with k = min(n, m - 1) the count binom(n + m - 1, k) is at least 2^k,
        # so it is over the cap once k reaches the cap's bit length
        count = None if min(n, m - 1) >= COUNT_CAP.bit_length() else composition_count(n, m)
        if count is None or count > COUNT_CAP:
            given = f"more than the cap of {COUNT_CAP} outcomes"
            if count is not None:
                try:
                    given = f"{count} outcomes, over the cap of {COUNT_CAP}"
                except ValueError:  # more digits than an int prints
                    pass
            raise ValidationError("mode-count", f"{_shown(n)} particles in {_shown(m)} modes give {given}")
        counts.append(count)
    n, m = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    count, p = np.array([counts, divisor_infima(counts)], dtype=np.int64)
    # for count >= 2, the divisor infimum is count itself exactly when count is prime
    return ModeSystem(n, m, count, p == count, p, _log2(count / p), _log2(count / 2))
