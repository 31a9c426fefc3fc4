import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stabaut.invariants
import stabaut.shifts
from stabaut.dimrep import stabilized_dim_group
from stabaut.invariants import (
    Verdict,
    distinguish_classical,
    distinguish_stabilized,
    omega,
    roots_set,
    sl2_z4_report,
)
from stabaut.shifts import VerificationFailed, _integer_root, prime_exponents


class TestOmega:
    def test_values(self):
        assert omega(2) == 1
        assert omega(6) == 2
        assert omega(12) == 2
        assert omega(30) == 3

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            omega(1)


class TestRootsSet:
    def test_nine_vs_twentyseven(self):
        assert roots_set(9) == frozenset({1, 2})
        assert roots_set(27) == frozenset({1, 3})

    def test_two(self):
        assert roots_set(2) == frozenset({1})

    def test_sixtyfour(self):
        assert roots_set(64) == frozenset({1, 2, 3, 6})

    @given(st.integers(2, 500))
    def test_membership_definition(self, a):
        rts = roots_set(a)
        for k in range(1, a.bit_length() + 2):
            has_root = any(c**k == a for c in range(1, a + 1))
            assert (k in rts) == has_root


    def test_beyond_float_range(self):
        # 10**400 overflows a float; its roots are the divisors of 400
        assert roots_set(10**400) == frozenset(k for k in range(1, 401) if 400 % k == 0)

    @staticmethod
    def counted_roots(monkeypatch):
        calls = []

        def counting_root(a, k):
            calls.append(k)
            assert len(calls) <= 50, "one integer root per k up to the bit length"
            return _integer_root(a, k)

        monkeypatch.setattr("stabaut.shifts._integer_root", counting_root)
        return calls

    def test_large_power_takes_a_root_per_prime_factor(self, monkeypatch):
        # 14000 = 2^4 5^3 7: 8 roots taken, and no k that does not divide the
        # exponent of 2 is tried
        calls = self.counted_roots(monkeypatch)
        assert roots_set(2**14000) == frozenset(k for k in range(1, 14001) if 14000 % k == 0)
        assert calls == [2, 2, 2, 2, 5, 5, 5, 7]

    def test_coprime_small_exponents_take_no_root(self, monkeypatch):
        # the exponents 1 of 3 and 14000 of 2 have gcd 1: no k > 1 divides both
        calls = self.counted_roots(monkeypatch)
        assert roots_set(3 * 2**14000) == frozenset({1})
        assert calls == []

    def test_no_small_prime_bounds_k_by_the_least_base(self):
        # bases past 1000: 1009^13 has 130 bits, so k <= 14 suffices
        for base, e in ((1009, 13), (1000003, 7), (2**61 - 1, 6), (10**30 + 57, 4)):
            assert roots_set(base**e) == frozenset(k for k in range(1, e + 1) if e % k == 0)

    def test_prime_exponent_past_the_small_primes(self):
        # k = 1009 is past the primes below 1000, and Newton starts near the root
        start = time.perf_counter()
        assert roots_set(1009**1009) == frozenset({1, 1009})
        assert time.perf_counter() - start < 0.5

    @given(st.integers(1, 10**80), st.integers(2, 40))
    def test_integer_root_exact(self, x, k):
        assert _integer_root(x**k, k) == x
        assert _integer_root(x**k + 1, k) is None


def exponent_vector_certificate(m, n):
    """Oracle: (j, k) with m^j == n^k when the exponent vectors of m and n
    are parallel, else None."""
    (pm, em), (pn, en) = prime_exponents(m), prime_exponents(n)
    if pm != pn:
        return None
    gm, gn = math.gcd(*em), math.gcd(*en)
    if tuple(e // gm for e in em) != tuple(e // gn for e in en):
        return None
    g = math.gcd(gm, gn)
    return gn // g, gm // g


# products of prime powers; the primes past 1000 keep every cofactor base
# within the factorizer's bit bound
POWER_PRIMES = st.lists(st.sampled_from([2, 3, 5, 1009, 1013, 1000003]), min_size=1, max_size=3,
                        unique=True)


@st.composite
def prime_power_pairs(draw):
    """(B^a, C^c), B and C products of prime powers with exponents 1 .. 3,
    C = B half the time, so that common powers are frequent."""
    def base(primes):
        return math.prod(p ** draw(st.integers(1, 3)) for p in primes)
    b = base(draw(POWER_PRIMES))
    c = b if draw(st.booleans()) else base(draw(POWER_PRIMES))
    return b ** draw(st.integers(1, 6)), c ** draw(st.integers(1, 6))


class TestDistinguishStabilized:
    def test_two_four_isomorphic(self):
        verdict = distinguish_stabilized(2, 4)
        assert verdict.outcome == "isomorphic"
        j, k = verdict.detail["j"], verdict.detail["k"]
        assert 2**j == 4**k

    def test_two_six_distinguishable(self):
        assert distinguish_stabilized(2, 6).outcome == "distinguishable"

    def test_six_twelve_inconclusive(self):
        assert distinguish_stabilized(6, 12).outcome == "inconclusive"

    def test_nine_twentyseven_isomorphic(self):
        verdict = distinguish_stabilized(9, 27)
        assert verdict.outcome == "isomorphic"
        assert 9 ** verdict.detail["j"] == 27 ** verdict.detail["k"]

    @given(st.integers(2, 100), st.integers(2, 100))
    def test_symmetric(self, m, n):
        assert distinguish_stabilized(m, n).outcome == distinguish_stabilized(n, m).outcome

    @given(st.integers(2, 100), st.integers(2, 100))
    def test_isomorphic_certified(self, m, n):
        verdict = distinguish_stabilized(m, n)
        if verdict.outcome == "isomorphic":
            assert m ** verdict.detail["j"] == n ** verdict.detail["k"]

    def test_each_number_factored_once(self, monkeypatch):
        # nextprime(2^34) nextprime(2^35) against nextprime(2^33) nextprime(2^36):
        # equal omega counts, so the certificate is sought too, from the
        # power structure and not from a second factorization
        calls = []
        factor = stabaut.invariants.prime_exponents
        monkeypatch.setattr(stabaut.invariants, "prime_exponents",
                            lambda n: calls.append(n) or factor(n))
        m, n = (2**34 + 25) * (2**35 + 53), (2**33 + 17) * (2**36 + 31)
        verdict = distinguish_stabilized(m, n)
        assert (verdict.outcome, verdict.detail) == ("inconclusive", {"omega": 2})
        assert calls == [m, n]

    @given(prime_power_pairs())
    def test_certificate_matches_exponent_vectors(self, pair):
        m, n = pair
        verdict = distinguish_stabilized(m, n)
        if len(prime_exponents(m)[0]) != len(prime_exponents(n)[0]):
            assert verdict.outcome == "distinguishable"
        elif (cert := exponent_vector_certificate(m, n)) is None:
            assert verdict.outcome == "inconclusive"
        else:
            assert verdict.outcome == "isomorphic"
            assert (verdict.detail["j"], verdict.detail["k"]) == cert

    def test_common_power_of_a_large_prime(self):
        verdict = distinguish_stabilized(1009**2, 1009**13)
        assert (verdict.outcome, verdict.detail["j"], verdict.detail["k"]) == ("isomorphic", 13, 2)

    def test_failed_certificate_raises_verification_failed(self, monkeypatch):
        # a forged common base for 3 and 5: the identity 3^1 == 5^1 fails
        monkeypatch.setattr(stabaut.invariants, "prime_exponents", lambda a: ((2,), (1,)))
        with pytest.raises(VerificationFailed, match="common power"):
            distinguish_stabilized(3, 5)

    def test_forged_exponent_raises_verification_failed(self, monkeypatch):
        # the right base with a wrong exponent for 8: 2^4 != 8
        monkeypatch.setattr(stabaut.invariants, "prime_exponents",
                            {4: ((2,), (2,)), 8: ((2,), (4,))}.get)
        with pytest.raises(VerificationFailed, match="common power"):
            distinguish_stabilized(4, 8)

    def test_certificate_is_checked_at_the_size_of_the_inputs(self):
        # the common power 2^(14000 * 13999) has 196 million bits; b^h has 14000
        start = time.perf_counter()
        verdict = distinguish_stabilized(2**14000, 2**13999)
        assert time.perf_counter() - start < 0.1
        assert (verdict.outcome, verdict.detail["j"], verdict.detail["k"]) == (
            "isomorphic", 13999, 14000)

    def test_power_structure_is_read_off_the_factorization(self, monkeypatch):
        # one prime_exponents call per number: one _trial_divide of the number
        # and one _perfect_power of its cofactor, which trial-divides it again
        calls = {"_trial_divide": 0, "_perfect_power": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(stabaut.shifts, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(stabaut.shifts, name, counted)
        verdict = distinguish_stabilized(2**14000, 2**13999)
        assert (verdict.outcome, verdict.detail["j"], verdict.detail["k"]) == (
            "isomorphic", 13999, 14000)
        assert calls == {"_trial_divide": 4, "_perfect_power": 2}

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError):
            Verdict("maybe", "x", {})


class TestDistinguishClassical:
    def test_two_four(self):
        assert distinguish_classical(2, 4).outcome == "distinguishable"

    def test_nine_twentyseven(self):
        assert distinguish_classical(9, 27).outcome == "distinguishable"

    def test_prime_vs_prime_power_tower(self):
        # p = 2 against p^p = 4
        assert distinguish_classical(2, 2**2).outcome == "distinguishable"

    def test_two_three_inconclusive(self):
        assert distinguish_classical(2, 3).outcome == "inconclusive"

    def test_never_isomorphic(self):
        for m in range(2, 40):
            for n in range(2, 40):
                assert distinguish_classical(m, n).outcome != "isomorphic"


class TestConsistencyWithDimensionGroup:
    def test_rank_equals_omega(self):
        for n in range(2, 101):
            assert stabilized_dim_group(n).rank == omega(n)


class TestSl2Z4:
    def test_report(self):
        report = sl2_z4_report()
        assert report.group_order == 48
        assert report.commutator_order == 12
        assert report.contains_first and report.contains_second
        assert report.unipotent_image_order == 4

    def test_commutator_is_normal(self):
        # closure under conjugation by the full group
        from stabaut.invariants import _inv, _mul, _sl2_z4_elements
        from stabaut.shifts import _closure

        elements = _sl2_z4_elements()
        commutators = {
            _mul(_mul(x, y), _mul(_inv(x), _inv(y))) for x in elements for y in elements
        }
        derived = _closure([(1, 0, 0, 1)], lambda x: [_mul(x, c) for c in commutators])
        for g in elements:
            for h in derived:
                assert _mul(_mul(g, h), _inv(g)) in derived
