"""Composition counting, divisor infimum, and the mode-entanglement bounds."""

import contextlib
import dataclasses
import functools
import io
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from conftest import divisor_infimum, emit_reference, mode_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mspace import modes
from mspace.cli import main
from mspace.linalg import ValidationError
from mspace.modes import (
    COUNT_CAP,
    ModeSystem,
    composition_count,
    divisor_infima,
    useful_entanglement_bounds,
)


def enumerate_compositions(n, m):
    """Brute-force list of ordered m-part sums of n."""
    if m == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in enumerate_compositions(n - first, m - 1):
            out.append((first,) + rest)
    return out


def divisor_infimum_oracle(n):
    """Full divisor enumeration: min over factor pairs of the larger factor."""
    best = None
    for k in range(1, n + 1):
        if n % k == 0:
            candidate = max(k, n // k)
            best = candidate if best is None else min(best, candidate)
    return best


def sieve_primes(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(math.isqrt(limit)) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return flags


def bound(n, m):
    """The one row of the mode table of one (n, m) pair."""
    (row,) = mode_rows(useful_entanglement_bounds([(n, m)]))
    return row


class TestCompositionCount:
    def test_paper_cases(self):
        assert composition_count(1, 2) == 2
        assert composition_count(2, 2) == 3

    def test_three_particles_three_modes(self):
        assert composition_count(3, 3) == len(enumerate_compositions(3, 3)) == 10

    def test_full_grid_vs_enumeration(self):
        for n in range(1, 7):
            for m in range(2, 4):
                assert composition_count(n, m) == len(enumerate_compositions(n, m))

    def test_two_modes_linear(self):
        for n in range(1, 30):
            assert composition_count(n, 2) == n + 1

    def test_large_inputs_exact(self):
        assert composition_count(30, 30) == math.comb(59, 29)
        assert composition_count(30, 30) > 2**53  # exceeds float precision

    def test_domain(self):
        with pytest.raises(ValueError):
            composition_count(0, 2)
        with pytest.raises(ValueError):
            composition_count(3, 1)


class TestIsPrime:
    """The ``prime`` flag of a mode system; with m = 2 the count is n + 1."""

    def test_small_cases(self):
        assert bound(1, 2).prime
        assert not bound(9, 2).prime
        assert not bound(3, 3).prime

    def test_against_sieve(self):
        flags = sieve_primes(10_001)
        table = useful_entanglement_bounds([(n, 2) for n in range(1, 10_001)])
        for n, prime in zip(range(1, 10_001), table.prime.tolist()):
            assert prime == flags[n + 1]


class TestDivisorInfimum:
    """The defining properties of the divisor infimum, checked on the stacked search."""

    def test_examples(self):
        assert divisor_infima([2, 12, 16]) == [2, 4, 4]

    def test_unit(self):
        assert divisor_infima([1]) == [1]

    def test_matches_enumeration_oracle(self):
        counts = range(1, 3000)
        assert divisor_infima(counts) == [divisor_infimum_oracle(n) for n in counts]

    def test_defining_inequalities(self):
        counts = range(1, 10_000)
        for n, p in zip(counts, divisor_infima(counts)):
            assert n % p == 0
            assert p * p >= n
            assert n // p <= p

    def test_prime_gives_n(self):
        primes = [2, 3, 97, 7919]
        assert divisor_infima(primes) == primes


class TestDivisorInfima:
    """The stacked search must give the scalar trial division's answer on counts
    beyond criterion 8's sieve, up to COUNT_CAP."""

    def test_every_composition_count_under_the_cap(self):
        counts = [composition_count(n, m) for n in range(1, 201) for m in range(2, 41)]
        counts = [c for c in counts if c <= COUNT_CAP]
        assert divisor_infima(counts) == [divisor_infimum(c) for c in counts]

    def test_unit_and_the_longest_search_under_the_cap(self):
        # the largest prime under the cap walks all ~10^6 candidates down to 1
        assert divisor_infima([1, 999999999989]) == [1, divisor_infimum(999999999989)] == [1, 999999999989]

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(st.lists(st.integers(1, COUNT_CAP), min_size=1, max_size=4))
    def test_drawn_counts_match_the_scalar_search(self, counts):
        assert divisor_infima(counts) == [divisor_infimum(c) for c in counts]

    def test_empty_stack(self):
        assert divisor_infima([]) == []

    @pytest.mark.parametrize("count", [0, -3, COUNT_CAP + 1])
    def test_counts_outside_the_cap_rejected_before_the_search(self, count):
        with pytest.raises(ValidationError, match=f"got {count}") as info:
            divisor_infima([12, count])
        assert info.value.invariant == "mode-count"

    @pytest.mark.parametrize("cap", [1, 5, 33, 100, 4096])
    def test_small_block_caps_stay_exact(self, monkeypatch, cap):
        counts = [1, 2, 12, 997, 1024, 999983 * 2, composition_count(60, 8), 10**6 + 3]
        if cap >= 100:
            counts.append(999999999989)
        expected = [divisor_infimum(c) for c in counts]
        monkeypatch.setattr(modes, "BLOCK_ELEMENTS", cap)
        assert divisor_infima(counts) == expected

    def test_block_memory_stays_under_the_element_cap(self):
        # with no cap, this grid's blocks reach about 270 MiB traced
        counts = [composition_count(n, 3) for n in range(1, 20_000)]
        tracemalloc.start()
        try:
            divisor_infima(counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # candidates and remainders in int64 and hits in bool per block entry,
        # plus the per-row arrays and the isqrt of each count
        assert peak < 17 * modes.BLOCK_ELEMENTS + 256 * len(counts)


class TestUsefulEntanglementBound:
    def test_single_particle_two_modes(self):
        system = bound(1, 2)
        assert system.count == 2 and system.p == 2 and system.prime
        assert system.bound_bits == 0.0
        assert system.weak_bound_bits == 0.0

    def test_two_particles_two_modes_prime(self):
        system = bound(2, 2)
        assert system.count == 3 and system.prime
        assert system.bound_bits == 0.0
        assert system.weak_bound_bits > 0.0  # weak form is not tight at primes

    def test_three_particles_two_modes(self):
        system = bound(3, 2)
        assert system.count == 4 and system.p == 2
        assert abs(system.bound_bits - 1.0) < 1e-15
        assert abs(system.weak_bound_bits - 1.0) < 1e-15

    def test_prime_counts_force_zero(self):
        for n in range(1, 40):
            for m in range(2, 5):
                system = bound(n, m)
                if system.prime:
                    assert system.bound_bits == 0.0
                    assert system.p == system.count

    def test_bound_orderings(self):
        for n in range(1, 40):
            for m in range(2, 5):
                system = bound(n, m)
                assert system.bound_bits <= system.weak_bound_bits + 1e-12
                assert system.bound_bits <= 0.5 * math.log2(system.count) + 1e-12
                root = math.isqrt(system.count)
                if root * root == system.count:
                    assert abs(system.bound_bits - math.log2(root)) < 1e-12

    def test_stack_equals_one_pair_at_a_time(self):
        pairs = [(n, m) for n in range(1, 40) for m in range(2, 7)]
        expected = []
        for n, m in pairs:
            count = composition_count(n, m)
            p = divisor_infimum(count)
            expected.append(
                types.SimpleNamespace(
                    n=n, m=m, count=count, prime=p == count, p=p,
                    bound_bits=math.log2(count / p), weak_bound_bits=math.log2(count / 2),
                )
            )  # fmt: skip
        assert mode_rows(useful_entanglement_bounds(pairs)) == expected
        assert [bound(n, m) for n, m in pairs] == expected

    def test_first_pair_over_the_cap_is_named(self, monkeypatch):
        monkeypatch.setattr(modes, "divisor_infima", None)  # the search must not start
        # the first pair over the cap, not the one with the largest count
        pairs = [(1, 2), (55, 12), (200, 20), (3, 3)]
        with pytest.raises(ValidationError, match="^mode-count: 55 particles in 12 modes give "):
            useful_entanglement_bounds(pairs)

    def test_pairs_past_the_cap_bit_length_are_rejected_before_their_count(self, monkeypatch):
        monkeypatch.setattr(modes, "composition_count", None)  # no count may be formed
        for pair in [(40, 41), (10**6, 10**6), (10**4000, 10**4000)]:
            with pytest.raises(ValidationError, match=" modes give more than the cap of 1000000000000 outcomes$"):
                useful_entanglement_bounds([pair])

    @pytest.mark.parametrize(
        "pair, invariant, message",
        [
            ((10**5000, 2), "mode-count", "at least 10^4300 particles in 2 modes give more than the cap"),
            ((3, 10**5000), "mode-count", "3 particles in at least 10^4300 modes give more than the cap"),
            ((10**5000,) * 2, "mode-count", "at least 10^4300 particles in at least 10^4300 modes give"),
            ((-(10**5000), 2), "mode-particles", "particle count must be >= 1, got at most -10^4300"),
            ((2, -(10**5000)), "mode-modes", "mode count must be >= 2, got at most -10^4300"),
        ],
    )
    def test_counts_too_long_to_print_are_named_as_bounds(self, pair, invariant, message):
        with pytest.raises(ValidationError, match=f"^{invariant}: {re.escape(message)}") as info:
            useful_entanglement_bounds([pair])
        assert info.value.invariant == invariant

    def test_mode_system_invariants_enforced(self):
        with pytest.raises(ValueError):
            one_row(n=1, m=2, count=2, p=3, prime=True, bound_bits=0.0, weak_bound_bits=0.0)
        with pytest.raises(ValueError):
            one_row(n=2, m=2, count=3, p=3, prime=True, bound_bits=0.5, weak_bound_bits=1.0)

    def test_counts_near_the_cap_pass_their_checks(self):
        # p * p overflows int64 on both, and on the second wraps to below the count
        prime, other = mode_rows(useful_entanglement_bounds([(999999999988, 2), (999999999969, 2)]))
        assert prime.prime and prime.p == prime.count == 999999999989 and prime.bound_bits == 0.0
        assert other.count == 999999999970 and other.p == divisor_infimum(other.count) > 2**32


def one_row(**fields):
    """A ``ModeSystem`` of one row, given its fields as Python scalars."""
    return ModeSystem(**{name: np.array([value]) for name, value in fields.items()})


# counts 4, 21, 15, 3 and 8: row 3 is prime
TABLE_PAIRS = [(3, 2), (5, 3), (4, 3), (2, 2), (7, 2)]


@pytest.mark.parametrize("field, row, value, message", [
    ("count", 2, 1, "outcome count must be >= 2, got 1"),
    ("p", 2, 3, "p = 3 is not a divisor of 15 at or above its root"),
    ("p", 1, 2, "p = 2 is not a divisor of 21 at or above its root"),
    ("p", 4, 0, "p = 0 is not a divisor of 8 at or above its root"),
    ("p", 4, -4, "p = -4 is not a divisor of 8 at or above its root"),
    ("bound_bits", 1, -0.5, "bound ordering violated"),
    ("bound_bits", 4, 2.5, "bound ordering violated"),
    ("bound_bits", 2, math.nan, "bound ordering violated"),
    ("bound_bits", 3, 0.5, "a prime outcome count forces a zero bound"),
])  # fmt: skip
def test_corrupted_row_is_named_with_its_invariant(field, row, value, message):
    table = useful_entanglement_bounds(TABLE_PAIRS)
    column = getattr(table, field).copy()
    column[row] = value
    with pytest.raises(ValidationError) as info:
        dataclasses.replace(table, **{field: column})
    assert info.value.invariant == "mode-bound"
    assert str(info.value) == f"mode-bound: row {row}: {message}"



PROFILE = settings(derandomize=True, deadline=None, max_examples=100, database=None)

# every pair of at most 300 particles in at most 40 modes whose count is within the cap
WITHIN_CAP = [(n, m) for n in range(1, 301) for m in range(2, 41) if composition_count(n, m) <= COUNT_CAP]


@functools.cache
def reference_row(n, m):
    """The row of one (n, m) pair, one value at a time: the exact count, the scalar divisor
    search and ``math.log2``."""
    count = composition_count(n, m)
    p = divisor_infimum(count)
    return {
        "n": n, "m": m, "count": count, "prime": p == count, "p": p,
        "bound_bits": math.log2(count / p), "weak_bound_bits": math.log2(count / 2),
    }  # fmt: skip


@PROFILE
@given(st.lists(st.sampled_from(WITHIN_CAP), max_size=40))
@example([])
@example([(9, 5), (1, 2), (9, 5), (2, 2)])  # unsorted, with a repeat
@example([(215, 6)])  # the one pair here whose bound np.log2 gives a last bit off
def test_table_columns_equal_the_per_pair_reference(pairs):
    table = useful_entanglement_bounds(pairs)
    dtypes = {"prime": np.bool_, "bound_bits": np.float64, "weak_bound_bits": np.float64}
    for field, column in vars(table).items():
        assert column.dtype == dtypes.get(field, np.int64) and column.shape == (len(pairs),)
        # repr tells bools from ints and prints every bit of a float
        assert list(map(repr, column.tolist())) == [repr(reference_row(n, m)[field]) for n, m in pairs]


@PROFILE
@given(st.sampled_from(WITHIN_CAP), st.booleans(), st.sampled_from(["json", "tsv"]))
@example((60, 8), True, "json")
@example((215, 6), False, "json")
def test_modes_report_prints_as_the_per_row_reference(pair, grid, fmt):
    n, m = pair
    if grid:
        argv = ["--n-max", str(n), "--m-max", str(m)]
        pairs = [(a, b) for a in range(1, n + 1) for b in range(2, m + 1)]
    else:
        argv, pairs = ["--n", str(n), "--m", str(m)], [pair]
    rows = [reference_row(a, b) for a, b in pairs]
    rows = [{**row, "weak_bound_loose": row["prime"] and row["count"] > 2} for row in rows]
    columns = {field: [row[field] for row in rows] for field in rows[0]}
    report = {"command": "modes", "parameters": {"grid": len(rows)}, "results": columns}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["modes", *argv, "--format", fmt]) == 0
    assert out.getvalue() == emit_reference(report, fmt) + "\n"
