"""Composition counting, divisor infimum, and the mode-entanglement bounds."""

import math

import pytest

from mspace.modes import (
    ModeSystem,
    composition_count,
    divisor_infimum,
    useful_entanglement_bound,
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
        assert useful_entanglement_bound(1, 2).prime
        assert not useful_entanglement_bound(9, 2).prime
        assert not useful_entanglement_bound(3, 3).prime

    def test_against_sieve(self):
        flags = sieve_primes(10_001)
        for n in range(1, 10_001):
            assert useful_entanglement_bound(n, 2).prime == flags[n + 1]


class TestDivisorInfimum:
    def test_examples(self):
        assert divisor_infimum(2) == 2
        assert divisor_infimum(12) == 4
        assert divisor_infimum(16) == 4

    def test_unit(self):
        assert divisor_infimum(1) == 1

    def test_matches_enumeration_oracle(self):
        for n in range(1, 3000):
            assert divisor_infimum(n) == divisor_infimum_oracle(n)

    def test_defining_inequalities(self):
        for n in range(1, 10_000):
            p = divisor_infimum(n)
            assert n % p == 0
            assert p * p >= n
            assert n // p <= p

    def test_prime_gives_n(self):
        for n in (2, 3, 97, 7919):
            assert divisor_infimum(n) == n

    def test_domain(self):
        with pytest.raises(ValueError):
            divisor_infimum(0)


class TestUsefulEntanglementBound:
    def test_single_particle_two_modes(self):
        system = useful_entanglement_bound(1, 2)
        assert system.count == 2 and system.p == 2 and system.prime
        assert system.bound_bits == 0.0
        assert system.weak_bound_bits == 0.0

    def test_two_particles_two_modes_prime(self):
        system = useful_entanglement_bound(2, 2)
        assert system.count == 3 and system.prime
        assert system.bound_bits == 0.0
        assert system.weak_bound_bits > 0.0  # weak form is not tight at primes

    def test_three_particles_two_modes(self):
        system = useful_entanglement_bound(3, 2)
        assert system.count == 4 and system.p == 2
        assert abs(system.bound_bits - 1.0) < 1e-15
        assert abs(system.weak_bound_bits - 1.0) < 1e-15

    def test_prime_counts_force_zero(self):
        for n in range(1, 40):
            for m in range(2, 5):
                system = useful_entanglement_bound(n, m)
                if system.prime:
                    assert system.bound_bits == 0.0
                    assert system.p == system.count

    def test_bound_orderings(self):
        for n in range(1, 40):
            for m in range(2, 5):
                system = useful_entanglement_bound(n, m)
                assert system.bound_bits <= system.weak_bound_bits + 1e-12
                assert system.bound_bits <= 0.5 * math.log2(system.count) + 1e-12
                root = math.isqrt(system.count)
                if root * root == system.count:
                    assert abs(system.bound_bits - math.log2(root)) < 1e-12

    def test_mode_system_invariants_enforced(self):
        with pytest.raises(ValueError):
            ModeSystem(n=1, m=2, count=2, p=3, prime=True, bound_bits=0.0, weak_bound_bits=0.0)
        with pytest.raises(ValueError):
            ModeSystem(n=2, m=2, count=3, p=3, prime=True, bound_bits=0.5, weak_bound_bits=1.0)
