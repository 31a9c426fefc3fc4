import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabaut.dimrep
from stabaut.codes import (
    WINDOW_CHUNK,
    Automorphism,
    CodeSizeExceeded,
    StabilizedCode,
    aut_commutator,
    aut_compose,
)
from stabaut.dimrep import (
    ExponentVector,
    MultiplierNotSupported,
    RayCount,
    dimension_multiplier,
    is_inert,
    ray_image_count,
    stabilized_dim_group,
)
from stabaut.generators import (
    flip,
    flip_on_even,
    letter_permutation,
    periodic_letter_permutation,
    shift_power,
    symbol_permutation,
)
from stabaut.permlab import Permutation
from stabaut.shifts import prime_exponents


def brute_ray_count(aut, tail_letter=0):
    """Oracle: enumerate extensions one by one and collect output tuples."""
    code = aut.forward
    q = code.n
    r, s = code.radius, aut.inverse.radius
    m = r + s
    free = m + r
    seen = set()
    for ext in itertools.product(range(q), repeat=free):
        def letter(pos):
            if pos <= 0:
                return tail_letter
            return ext[pos - 1]

        out = []
        for z in range(-r + 1, m + 1):
            window = tuple(letter(z + d) for d in range(-r, r + 1))
            out.append(code.evaluate(z % code.period, window))
        seen.add(tuple(out))
    return m, len(seen)


def pair_factor_shift(which: str) -> Automorphism:
    """Automorphism of the 6-shift shifting one factor of X_2 x X_3.

    Letters are read as (a, b) = (l // 3, l % 3); 'first' shifts the
    binary factor, 'second' the ternary one.
    """
    idx = np.arange(6**3)
    w_prev, w_mid, w_next = (idx // 36) % 6, (idx // 6) % 6, idx % 6
    if which == "first":
        fwd = (w_next // 3) * 3 + (w_mid % 3)
        inv = (w_prev // 3) * 3 + (w_mid % 3)
    else:
        fwd = (w_mid // 3) * 3 + (w_next % 3)
        inv = (w_mid // 3) * 3 + (w_prev % 3)
    return Automorphism(
        StabilizedCode(6, 1, 1, (fwd,)), StabilizedCode(6, 1, 1, (inv,))
    )


class TestRayImageCount:
    def test_identity(self):
        ident = Automorphism(StabilizedCode.identity(2), StabilizedCode.identity(2))
        rc = ray_image_count(ident)
        assert (rc.m, rc.count) == (0, 1)
        assert rc.multiplier(2) == 1

    def test_shift(self):
        rc = ray_image_count(shift_power(2, 1))
        assert (rc.m, rc.count) == (2, 8)
        assert rc.multiplier(2) == 2

    def test_flip(self):
        rc = ray_image_count(flip(2))
        assert (rc.m, rc.count) == (0, 1)

    def test_matches_brute_force(self):
        cases = [
            flip(2),
            shift_power(2, 1),
            shift_power(2, -1),
            flip_on_even(2),
            shift_power(3, 1),
            aut_compose(flip(2), shift_power(2, 1)),
            symbol_permutation(2, 2, Permutation((1, 2, 3, 0))),
        ]
        for aut in cases:
            for tail in range(min(aut.n, 2)):
                rc = ray_image_count(aut, tail)
                assert (rc.m, rc.count) == brute_ray_count(aut, tail)


@st.composite
def small_automorphisms(draw):
    """Products of up to three shift, letter and block generators."""
    q = draw(st.integers(2, 3))
    perms = st.permutations(range(q)).map(lambda p: Permutation(tuple(p)))
    gens = [
        st.sampled_from([shift_power(q, 1), shift_power(q, -1)]),
        perms.map(lambda p: letter_permutation(q, p)),
        st.lists(perms, min_size=2, max_size=2).map(lambda ps: periodic_letter_permutation(q, ps)),
    ]
    if q == 2:
        gens.append(st.permutations(range(4)).map(
            lambda p: symbol_permutation(2, 2, Permutation(tuple(p)))))
    factors = draw(st.lists(st.one_of(gens), min_size=1, max_size=3))
    aut = factors[0]
    for other in factors[1:]:
        aut = aut_compose(aut, other)
    return aut


class TestRayCountWalk:
    @pytest.mark.parametrize("aut", [
        shift_power(3, 2),  # 3^6 extensions
        aut_compose(flip_on_even(2), shift_power(2, -1)),
        aut_compose(symbol_permutation(2, 2, Permutation((1, 2, 3, 0))), shift_power(2, 1)),
    ], ids=["shift-3-2", "flip-on-even-shift", "block-shift"])
    def test_with_small_chunks(self, small_chunk, aut):
        for tail in (0, 1):
            rc = ray_image_count(aut, tail)
            assert (rc.m, rc.count) == brute_ray_count(aut, tail)


class TestRayCountMemory:
    # shift^j has radius j each way, so 3j free letters: 4^9, 5^6 and 3^12
    # extensions, in 4, 1 and 9 chunks
    @pytest.mark.parametrize("n, j", [(4, 3), (5, 2), (3, 4)])
    def test_peak_is_seen_and_a_few_chunks(self, n, j):
        aut = shift_power(n, j)
        tracemalloc.start()
        try:
            ray_image_count(aut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n ** (3 * j) + 4 * WINDOW_CHUNK * 8


class TestRayCountProperty:
    @settings(max_examples=40, deadline=None)
    @given(small_automorphisms(), st.integers(0, 1))
    def test_matches_brute_force(self, aut, tail):
        rc = ray_image_count(aut, tail)
        assert (rc.m, rc.count) == brute_ray_count(aut, tail)


class TestDimensionMultiplier:
    def test_shift_values(self):
        assert dimension_multiplier(shift_power(3, 1)).exponents == (1,)
        assert dimension_multiplier(shift_power(6, 1).inverted()).exponents == (-1, -1)

    def test_block_permutations_are_zero(self):
        rng = random.Random(3)
        for n, k in [(2, 1), (2, 2), (3, 1), (4, 1), (3, 2)]:
            images = list(range(n**k))
            rng.shuffle(images)
            aut = symbol_permutation(n, k, Permutation(tuple(images)))
            assert dimension_multiplier(aut).is_zero()

    @pytest.mark.parametrize("n", [2, 6, 12])
    @pytest.mark.parametrize("j", [-2, -1, 0, 1, 2])
    def test_shift_powers_scale_prime_exponents(self, n, j):
        primes, exps = prime_exponents(n)
        aut = shift_power(n, j)
        vec = dimension_multiplier(aut)
        assert vec.primes == primes
        assert vec.exponents == tuple(j * e for e in exps)

    def test_homomorphism_small_sample(self):
        pool = [flip(2), shift_power(2, 1), shift_power(2, -1), flip_on_even(2)]
        for f, g in itertools.product(pool, repeat=2):
            lhs = dimension_multiplier(aut_compose(f, g))
            rhs = dimension_multiplier(f) + dimension_multiplier(g)
            assert lhs == rhs

    def test_tail_independence(self):
        for aut in (shift_power(3, 1), flip_on_even(2), shift_power(6, 1)):
            counts = {ray_image_count(aut, t).count for t in range(aut.n)}
            assert len(counts) == 1

    def test_surjectivity_witnesses_for_six(self):
        first = pair_factor_shift("first")
        second = pair_factor_shift("second")
        assert dimension_multiplier(first).exponents == (1, 0)
        assert dimension_multiplier(second).exponents == (0, 1)
        both = aut_compose(first, second)
        assert dimension_multiplier(both) == dimension_multiplier(shift_power(6, 1))


    def test_a_prime_outside_the_alphabet_is_refused(self, monkeypatch):
        monkeypatch.setattr(stabaut.dimrep, "ray_image_count", lambda aut, tail: RayCount(1, 7))
        with pytest.raises(MultiplierNotSupported, match="7/2 is not supported on the primes of 2"):
            dimension_multiplier(flip(2))

    def test_a_count_that_depends_on_the_tail_is_refused(self, monkeypatch):
        monkeypatch.setattr(stabaut.dimrep, "ray_image_count",
                            lambda aut, tail: RayCount(1, 2 + tail))
        with pytest.raises(MultiplierNotSupported, match="depends on the tail letter"):
            dimension_multiplier(flip(2))


class TestRayCountBudget:
    def test_past_the_table_budget(self):
        # 5^12 extensions for shift^4: refused before the seen array is made
        with pytest.raises(CodeSizeExceeded, match="5\\^12 ray extensions"):
            ray_image_count(shift_power(5, 4))

    def test_the_budget_is_the_table_budget(self, monkeypatch):
        # shift over 2 letters walks 2^3 extensions
        monkeypatch.setattr(stabaut.codes, "MAX_TABLE_ENTRIES", 8)
        assert ray_image_count(shift_power(2, 1)) == RayCount(2, 8)
        monkeypatch.setattr(stabaut.codes, "MAX_TABLE_ENTRIES", 7)
        with pytest.raises(CodeSizeExceeded):
            ray_image_count(shift_power(2, 1))
        with pytest.raises(CodeSizeExceeded):
            dimension_multiplier(shift_power(2, 1))


class TestIsInert:
    def test_flip_inert(self):
        assert is_inert(flip(2))

    def test_shift_not_inert(self):
        assert not is_inert(shift_power(2, 1))

    def test_commutators_inert(self):
        rng = random.Random(0)
        pool = [flip(2), shift_power(2, 1), shift_power(2, -1), flip_on_even(2),
                symbol_permutation(2, 2, Permutation((1, 0, 2, 3)))]
        for _ in range(10):
            a, b = rng.choice(pool), rng.choice(pool)
            assert is_inert(aut_commutator(a, b))


class TestExponentVector:
    def test_addition(self):
        a = ExponentVector((2, 3), (1, 0))
        b = ExponentVector((2, 3), (0, 2))
        assert (a + b).exponents == (1, 2)
        assert (a - b).exponents == (1, -2)
        assert a.scaled(3).exponents == (3, 0)

    def test_fraction(self):
        assert ExponentVector((2, 3), (-1, 1)).as_fraction() == Fraction(3, 2)

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            ExponentVector((2,), (1,)) + ExponentVector((3,), (1,))


class TestStabilizedDimGroup:
    def test_six(self):
        desc = stabilized_dim_group(6)
        assert desc.rank == 2
        assert desc.generator_primes == (2, 3)

    def test_prime_power(self):
        assert stabilized_dim_group(8).rank == 1
        assert stabilized_dim_group(8).generator_primes == (2,)

    def test_twelve(self):
        assert stabilized_dim_group(12).rank == 2
        assert stabilized_dim_group(12).generator_primes == (2, 3)
