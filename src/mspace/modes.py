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

from .linalg import ValidationError

# Largest outcome count whose divisor search is run: the downward trial
# division from isqrt(count) then takes at most 10^6 steps. Being below 2^63,
# it also keeps every count and candidate of the stacked search exact in int64.
COUNT_CAP = 10**12

# Most (row, candidate) entries one block of the stacked search holds: 8 MiB of int64.
BLOCK_ELEMENTS = 1 << 20
# Candidates each row tries in its first block; the width doubles per block.
FIRST_WIDTH = 32


def composition_count(n: int, m: int) -> int:
    """Number of ordered ways to write n as a sum of m nonnegative integers.

    Exact integer arithmetic; equals binom(n+m-1, m-1).
    """
    n, m = int(n), int(m)
    if n < 1:
        raise ValidationError("mode-particles", f"particle count must be >= 1, got {n}")
    if m < 2:
        raise ValidationError("mode-modes", f"mode count must be >= 2, got {m}")
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
        raise ValueError(f"need counts in [1, {COUNT_CAP}], got {bad}")
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


@dataclasses.dataclass(frozen=True)
class ModeSystem:
    """Mode-counting data for n particles over m modes.

    ``count`` is the number of particle-number outcomes, ``p`` the divisor
    infimum, ``bound_bits`` the useful-entanglement cap log2(count / p) and
    ``weak_bound_bits`` the always-valid but looser cap log2(count / 2).
    For prime counts the strong cap is 0 while the weak one stays positive,
    so the weak form is not tight there.
    """

    n: int
    m: int
    count: int
    p: int
    prime: bool
    bound_bits: float
    weak_bound_bits: float

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"outcome count must be >= 2, got {self.count}")
        if self.count % self.p != 0 or self.p * self.p < self.count:
            raise ValueError(f"p = {self.p} is not a divisor of {self.count} at or above its root")
        if self.bound_bits < 0 or self.bound_bits > self.weak_bound_bits + 1e-12:
            raise ValueError("bound ordering violated")
        if self.prime and self.bound_bits != 0.0:
            raise ValueError("a prime outcome count forces a zero bound")


def useful_entanglement_bounds(pairs) -> list[ModeSystem]:
    """Upper bounds (bits) on useful mode entanglement for each (n, m) in ``pairs``.

    Every count is computed and checked against COUNT_CAP first, in order,
    so the first pair over the cap is the one named; then one
    :func:`divisor_infima` call searches them all.
    """
    pairs = [(int(n), int(m)) for n, m in pairs]
    counts = []
    for n, m in pairs:
        count = composition_count(n, m)
        if count > COUNT_CAP:
            raise ValidationError(
                "mode-count", f"{n} particles in {m} modes give {count} outcomes, over the cap of {COUNT_CAP}"
            )
        counts.append(count)
    return [
        ModeSystem(
            n=n,
            m=m,
            count=count,
            p=p,
            # for count >= 2, the divisor infimum is count itself exactly when count is prime
            prime=p == count,
            bound_bits=math.log2(count / p),
            weak_bound_bits=math.log2(count / 2),
        )
        for (n, m), count, p in zip(pairs, counts, divisor_infima(counts))
    ]
