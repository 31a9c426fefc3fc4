import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabaut.dimrep import stabilized_dim_group
from stabaut.invariants import (
    Verdict,
    distinguish_classical,
    distinguish_stabilized,
    _integer_root,
    omega,
    roots_set,
    sl2_z4_report,
)


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

    @given(st.integers(1, 10**80), st.integers(2, 40))
    def test_integer_root_exact(self, x, k):
        assert _integer_root(x**k, k) == x
        assert _integer_root(x**k + 1, k) is None


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
        from stabaut.invariants import _closure, _inv, _mul, _sl2_z4_elements

        elements = _sl2_z4_elements()
        commutators = [
            _mul(_mul(x, y), _mul(_inv(x), _inv(y))) for x in elements for y in elements
        ]
        derived = _closure(list(set(commutators)))
        for g in elements:
            for h in derived:
                assert _mul(_mul(g, h), _inv(g)) in derived
