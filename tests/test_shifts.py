import itertools
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stabaut.shifts
from stabaut.shifts import (
    FACTOR_BITS,
    PeriodicPoint,
    SftMatrix,
    VerificationFailed,
    count_least_period_orbits,
    count_periodic,
    index_to_block,
    language_words,
    power_alphabet_index,
    prime_exponents,
    prime_factors,
)

def mobius(n):
    """Oracle: the Moebius function, read off the factorization."""
    if n == 1:
        return 1
    primes, exps = prime_exponents(n)
    return 0 if max(exps) > 1 else (-1) ** len(primes)


GOLDEN_MEAN = SftMatrix(((1, 1), (1, 0)))
# primitive matrix with 3 fixed points and no points of least period two
MATRIX_A = SftMatrix(((1, 1, 1, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0)))


def brute_force_words(sft, length):
    """Oracle: enumerate all edge tuples and keep the path-consistent ones."""
    ends = sft.edge_endpoints()
    out = []
    for word in itertools.product(range(len(ends)), repeat=length):
        if all(ends[word[i]][1] == ends[word[i + 1]][0] for i in range(length - 1)):
            out.append(word)
    return out


def brute_force_periodic(sft, k):
    """Oracle: count cyclic edge words of length k."""
    ends = sft.edge_endpoints()
    count = 0
    for word in itertools.product(range(len(ends)), repeat=k):
        if all(ends[word[i]][1] == ends[word[(i + 1) % k]][0] for i in range(k)):
            count += 1
    return count


class TestLanguageWords:
    def test_full_shift_all_words(self):
        assert len(language_words(SftMatrix.full_shift(2), 2)) == 4

    def test_golden_mean_length_two(self):
        # frozen from the brute-force path oracle: 5 admissible words
        words = language_words(GOLDEN_MEAN, 2)
        assert len(words) == 5
        assert words == sorted(brute_force_words(GOLDEN_MEAN, 2))

    def test_matrix_a_length_one(self):
        # one word per edge; the matrix entries sum to 9
        words = language_words(MATRIX_A, 1)
        assert len(words) == MATRIX_A.edge_count == 9
        assert words == sorted(brute_force_words(MATRIX_A, 1))

    def test_lexicographic_order(self):
        words = language_words(GOLDEN_MEAN, 3)
        assert words == sorted(words)

    def test_agrees_with_oracle_on_samples(self):
        for sft in (GOLDEN_MEAN, MATRIX_A, SftMatrix(((0, 2), (1, 0)))):
            for length in (1, 2, 3):
                assert language_words(sft, length) == sorted(brute_force_words(sft, length))


class TestCountPeriodic:
    def test_matrix_a_fixed_points(self):
        assert count_periodic(MATRIX_A, 1) == 3

    def test_matrix_a_no_least_period_two(self):
        # |P_2| = |P_1| forces no points of least period two
        assert count_periodic(MATRIX_A, 2) == 3

    def test_full_shift_power(self):
        assert count_periodic(SftMatrix.full_shift(3), 4) == 3**4

    def test_trace_matches_cyclic_enumeration(self):
        for sft in (GOLDEN_MEAN, MATRIX_A, SftMatrix(((2,),)), SftMatrix(((1, 2), (2, 1)))):
            for k in range(1, 7):
                assert count_periodic(sft, k) == brute_force_periodic(sft, k)

    def test_large_count_exact(self):
        assert count_periodic(SftMatrix.full_shift(10), 40) == 10**40


class TestOrbitCounts:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_shift_orbits(self, p):
        assert count_least_period_orbits(p, p) == p ** (p - 1) - 1

    def test_fixed_points(self):
        assert count_least_period_orbits(2, 1) == 2

    def test_two_shift_period_two(self):
        # direct enumeration: (4 - 2) / 2
        assert count_least_period_orbits(2, 2) == 1

    def test_agrees_with_direct_orbit_enumeration(self):
        for n in (2, 3):
            for p in (1, 2, 3, 4, 5, 6):
                pts = {
                    PeriodicPoint(b)
                    for b in itertools.product(range(n), repeat=p)
                }
                orbits = set()
                for x in pts:
                    if x.canonical()[0] != p:
                        continue
                    orbits.add(frozenset(x.shifted(j).canonical() for j in range(p)))
                assert count_least_period_orbits(n, p) == len(orbits)

    @given(st.integers(1, 4), st.integers(1, 60))
    def test_matches_the_sum_over_every_divisor(self, n, p):
        want = sum(mobius(p // d) * n**d for d in range(1, p + 1) if p % d == 0) // p
        assert count_least_period_orbits(n, p) == want

    def test_huge_period_over_one_letter(self):
        start = time.perf_counter()
        assert count_least_period_orbits(1, 10**9) == 0
        assert count_least_period_orbits(1, 1) == 1
        assert time.perf_counter() - start < 1.0

    @given(st.integers(2, 4), st.integers(1, 8))
    def test_moebius_sum_identity(self, n, p):
        total = sum(
            d * count_least_period_orbits(n, d) for d in range(1, p + 1) if p % d == 0
        )
        assert total == n**p

    def test_failed_divisibility_check_raises_verification_failed(self, monkeypatch):
        # with 3 passed off as the prime of 4, the sum 2^4 - 2^1 is not a
        # multiple of 4: the self-check raises, under python -O too
        monkeypatch.setattr(stabaut.shifts, "prime_exponents", lambda p: ((3,), (1,)))
        with pytest.raises(VerificationFailed, match="not a multiple of 4"):
            count_least_period_orbits(2, 4)


class TestPowerAlphabetIndex:
    def test_binary_reading(self):
        assert power_alphabet_index(2, 2, (1, 0)) == 2

    def test_single_letter(self):
        assert power_alphabet_index(3, 1, (2,)) == 2

    def test_positional(self):
        assert power_alphabet_index(2, 3, (0, 1, 1)) == 3

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            power_alphabet_index(2, 2, (0, 2))

    @given(st.integers(2, 4), st.integers(1, 5), st.data())
    def test_round_trip(self, n, k, data):
        block = tuple(data.draw(st.integers(0, n - 1)) for _ in range(k))
        assert index_to_block(n, k, power_alphabet_index(n, k, block)) == block

    def test_round_trip_exhaustive_small(self):
        for n in (2, 3, 4):
            for k in (1, 2, 3):
                for block in itertools.product(range(n), repeat=k):
                    idx = power_alphabet_index(n, k, block)
                    assert index_to_block(n, k, idx) == block


class TestPeriodicPoint:
    def test_rotation_aware_equality(self):
        assert PeriodicPoint((0, 1, 1)) == PeriodicPoint((1, 1, 0), phase=2)

    def test_distinct_phases_differ(self):
        assert PeriodicPoint((0, 1)) != PeriodicPoint((0, 1), phase=1)

    def test_least_period_reduction(self):
        assert PeriodicPoint((0, 1, 0, 1)) == PeriodicPoint((0, 1))

    def test_letter_semantics(self):
        x = PeriodicPoint((0, 1, 2), phase=1)
        assert [x.letter(z) for z in range(-3, 4)] == [1, 2, 0, 1, 2, 0, 1]

    def test_shifted(self):
        x = PeriodicPoint((0, 1, 2))
        assert x.shifted(1).letter(0) == x.letter(1)

    def test_hash_consistency(self):
        assert PeriodicPoint((1, 0), phase=1).letter(0) == 0
        assert len({PeriodicPoint((0, 1)), PeriodicPoint((1, 0), phase=1)}) == 1


class TestAlphabetAndMatrix:
    def test_edge_canonical_order(self):
        edges = SftMatrix(((0, 2), (1, 0))).edges()
        assert edges == ((0, 1, 0), (0, 1, 1), (1, 0, 0))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            SftMatrix(((1, -1), (0, 1)))

    def test_prime_helpers(self):
        assert prime_factors(12) == [2, 3]
        assert prime_exponents(12) == ((2, 3), (2, 1))
        assert prime_factors(97) == [97]


def trial_division_exponents(n):
    """Oracle: exponents by plain trial division (small n only)."""
    exps, p = {}, 2
    while n > 1:
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
        p += 1
    return tuple(sorted(exps)), tuple(exps[p] for p in sorted(exps))


class TestFactorizer:
    def test_mersenne_61_is_prime_and_fast(self):
        start = time.perf_counter()
        assert prime_factors(2**61 - 1) == [2305843009213693951]
        assert time.perf_counter() - start < 1.0

    def test_semiprime_beyond_trial_division(self):
        # both factors are primes above 1000, so Pollard rho must split it
        assert prime_exponents(1000003 * 998244353) == ((1000003, 998244353), (1, 1))
        assert prime_exponents(1009**3 * 1000003**2 * 4) == ((2, 1009, 1000003), (2, 3, 2))

    def test_huge_power(self):
        assert prime_exponents(10**400) == ((2, 5), (400, 400))

    @given(st.dictionaries(st.sampled_from([2, 3, 5, 7, 997]), st.integers(1, 300), min_size=1))
    def test_high_powers_of_small_primes(self, exps):
        # trial division peels p, p^2, p^4, ...: every exponent must still add up
        primes = sorted(exps)
        n = math.prod(p ** exps[p] for p in primes)
        assert prime_exponents(n) == (tuple(primes), tuple(exps[p] for p in primes))

    @given(st.integers(2, 10**6))
    def test_matches_trial_division(self, n):
        assert prime_exponents(n) == trial_division_exponents(n)

    def test_cofactor_past_the_bit_bound_is_refused_at_once(self):
        # rho and Miller-Rabin would take seconds on 3824 bits
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"stops at {FACTOR_BITS} bits"):
            prime_exponents(3**5 * (2**3217 - 1) * (2**607 - 1))
        assert time.perf_counter() - start < 0.1
        n = 1009 * 1000003 * 998244353 * (2**61 - 1)
        assert n.bit_length() <= FACTOR_BITS
        assert prime_exponents(n) == ((1009, 1000003, 998244353, 2**61 - 1), (1, 1, 1, 1))

    def test_powers_of_large_primes_factor(self):
        # the cofactor is a power of a base within the bit bound: peeled first
        assert prime_exponents(1009**13) == ((1009,), (13,))
        assert prime_exponents(1000003**7) == ((1000003,), (7,))
        assert prime_exponents(2**5 * (2**61 - 1)**6) == ((2, 2**61 - 1), (5, 6))
        start = time.perf_counter()
        assert prime_exponents(1009**1009) == ((1009,), (1009,))
        assert time.perf_counter() - start < 0.5

    def test_long_cofactor_is_refused_after_a_fast_peel(self):
        # the cofactor left by trial division has 13599 bits and no prime
        # below 1000, so every prime k up to 13599 // 9 is tried for a root;
        # from the bit bound Newton took about 1 s over them
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"13599 bits: exact factoring stops at {FACTOR_BITS}"):
            prime_exponents((2**13000 + 1) * (2**607 - 1))
        assert time.perf_counter() - start < 0.5

    def test_power_of_an_unsettled_base_raises(self):
        # the base 10^30 + 57 has 100 bits, past the exact Miller-Rabin bound
        with pytest.raises(ValueError, match="exact only below"):
            prime_exponents((10**30 + 57)**4)

    @given(st.integers(1010, 10**6), st.integers(1010, 10**6), st.booleans(),
           st.integers(1, 20), st.lists(st.integers(2, 999), max_size=6))
    def test_power_of_a_large_base_matches_sympy(self, x, y, semiprime, h, small):
        sympy = pytest.importorskip("sympy")
        # b is a prime or a product of two primes in 1009 .. 10^6, and s a
        # product of primes below 1000
        b = sympy.prevprime(x) * (sympy.prevprime(y) if semiprime else 1)
        s = math.prod(sympy.prevprime(a + 1) for a in small)
        want = sorted(sympy.factorint(b**h * s).items())
        assert prime_exponents(b**h * s) == tuple(zip(*want))

    def test_unsettled_cofactor_raises(self):
        # 2^89 - 1 is prime but above the exact Miller-Rabin bound
        with pytest.raises(ValueError, match="exact only below"):
            prime_factors(2**89 - 1)

    def test_mobius_from_exponents(self):
        for n in range(1, 200):
            primes, exps = trial_division_exponents(n)
            want = 0 if any(e > 1 for e in exps) else (-1) ** len(primes)
            assert mobius(n) == want
