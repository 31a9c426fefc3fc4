import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabaut.codes import (
    Automorphism,
    CodeSizeExceeded,
    StabilizedCode,
    apply_to_periodic,
    aut_compose,
    aut_equals,
    commutes_with_shift_power,
    compose,
    enumerate_automorphisms,
    equals,
    find_inverse,
    subwindow,
    verify_inverse_pair,
)
from stabaut.generators import (
    flip,
    flip_on_even,
    periodic_letter_permutation,
    shift_power,
    symbol_permutation,
)
from stabaut.permlab import Permutation
from stabaut.shifts import PeriodicPoint, SftMatrix, index_to_block, lcm, power_alphabet_index

IDENT2 = StabilizedCode.identity(2)
FLIP = flip(2).forward
SIGMA = shift_power(2, 1).forward
SIGMA_INV = shift_power(2, 1).inverse
FLIP_ON_EVEN = flip_on_even(2).forward


def functional_image(code, x, length):
    """Oracle: evaluate the code pointwise on a periodic point."""
    out = []
    for z in range(length):
        window = tuple(x.letter(z + d) for d in range(-code.radius, code.radius + 1))
        out.append(code.evaluate(z % code.period, window))
    return tuple(out)


@st.composite
def random_codes(draw, count=1):
    """`count` random codes over one small alphabet (tables seeded)."""
    n = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = []
    for _ in range(count):
        period = draw(st.integers(1, 3))
        radius = draw(st.integers(0, 2 if n == 2 else 1))
        codes.append(StabilizedCode(n, period, radius, tuple(
            rng.integers(0, n, n ** (2 * radius + 1)) for _ in range(period))))
    return codes


@st.composite
def periodic_points(draw, n):
    length = draw(st.integers(1, 6))
    block = draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length))
    return PeriodicPoint(tuple(block), draw(st.integers(0, length - 1)))


class TestSubwindow:
    @given(st.integers(2, 7), st.data())
    def test_matches_letter_encoding(self, n, data):
        width = data.draw(st.integers(1, 8))
        letters = data.draw(st.lists(st.integers(0, n - 1), min_size=width, max_size=width))
        lo = data.draw(st.integers(0, width - 1))
        w = data.draw(st.integers(1, width - lo))
        idx = power_alphabet_index(n, width, letters)
        want = power_alphabet_index(n, w, letters[lo: lo + w])
        assert subwindow(idx, n, width, lo, w) == want
        assert subwindow(np.array([idx], dtype=np.int64), n, width, lo, w)[0] == want


class TestKernelsAgainstOracle:
    """Dense kernels against the scalar apply_to_periodic oracle."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_compose(self, data):
        f, g = data.draw(random_codes(count=2))
        fg = compose(f, g)
        for _ in range(3):
            x = data.draw(periodic_points(f.n))
            assert apply_to_periodic(fg, x) == apply_to_periodic(f, apply_to_periodic(g, x))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_refine(self, data):
        (code,) = data.draw(random_codes())
        period = code.period * data.draw(st.integers(1, 3))
        radius = code.radius + data.draw(st.integers(0, 2))
        refined = code.refine(period, radius)
        assert (refined.period, refined.radius) == (period, radius)
        for _ in range(3):
            x = data.draw(periodic_points(code.n))
            assert apply_to_periodic(refined, x) == apply_to_periodic(code, x)


@st.composite
def structured_codes(draw):
    """(a shift power, block code or periodic letter map refined to period
    k*t and radius r+d, its shift exponent: 0 for an identity map, None
    for any other block map)."""
    n = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["shift", "block", "letters"]))
    if kind == "shift":
        j = draw(st.integers(-2, 2) if n == 2 else st.integers(-1, 1))
        code = StabilizedCode.shift(n, j)
    elif kind == "block":
        k = draw(st.integers(1, 2))
        perm = Permutation(tuple(draw(st.permutations(range(n**k)))))
        code = symbol_permutation(n, k, perm).forward
        j = 0 if perm.is_identity() else None
    else:
        perms = [Permutation(tuple(draw(st.permutations(range(n)))))
                 for _ in range(draw(st.integers(1, 3)))]
        code = periodic_letter_permutation(n, perms).forward
        j = 0 if all(p.is_identity() for p in perms) else None
    t, d = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    return code.refine(code.period * t, code.radius + d), j


def blockwise_image(code, x):
    """Oracle: apply code.block_map to the aligned blocks of x."""
    k = code.period
    letters = [x.letter(z) for z in range(lcm(x.period, k))]
    out = []
    for start in range(0, len(letters), k):
        b = power_alphabet_index(code.n, k, letters[start: start + k])
        out.extend(index_to_block(code.n, k, code.block_map[b]))
    return PeriodicPoint(tuple(out))


def assert_structure_holds(code, x):
    if code.shift_by is not None:
        assert apply_to_periodic(code, x) == x.shifted(code.shift_by)
    if code.block_map is not None:
        assert apply_to_periodic(code, x) == blockwise_image(code, x)


class TestStructureChecked:
    """block_map and shift_by are derived from the tables, never passed in."""

    def test_wrong_block_map_rejected(self):
        with pytest.raises(TypeError):
            StabilizedCode(2, 1, 0, (np.array([1, 0]),), block_map=(0, 1))
        flip_code = StabilizedCode(2, 1, 0, (np.array([1, 0]),))
        assert flip_code.block_map == (1, 0) and flip_code.shift_by is None
        assert equals(flip_code, FLIP) and not equals(flip_code, IDENT2)

    def test_shift_by_beyond_radius_rejected(self):
        with pytest.raises(TypeError):
            StabilizedCode(2, 1, 0, (np.array([0, 1]),), shift_by=5)
        refined_identity = StabilizedCode(2, 1, 1, IDENT2.refine(1, 1).tables)
        assert refined_identity.shift_by == 0
        assert refined_identity.block_map == (0, 1)
        sigma = StabilizedCode(2, 1, 1, SIGMA.tables)
        assert sigma.shift_by == 1 and sigma.block_map is None

    def test_reading_across_a_block_boundary_is_not_blockwise(self):
        # flip at even positions after a shift reads the neighbouring block
        for code in (compose(FLIP_ON_EVEN, SIGMA), compose(FLIP_ON_EVEN, SIGMA_INV)):
            assert code.block_map is None and code.shift_by is None
        # one class also reads the slot just left or right of its block
        w0, w1, w2 = (np.arange(8) >> 2) & 1, (np.arange(8) >> 1) & 1, np.arange(8) & 1
        for tables in ((w0 ^ w1, w1), (w1, w1 ^ w2)):
            assert StabilizedCode(2, 2, 1, tables).block_map is None
        assert StabilizedCode(2, 2, 1, (w1, w1 ^ w0)).block_map == (0, 1, 3, 2)
        assert FLIP_ON_EVEN.refine(2, 1).block_map == (2, 3, 0, 1)
        assert compose(FLIP_ON_EVEN, FLIP_ON_EVEN).block_map == (0, 1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_code_structure_matches_oracle(self, data):
        (code,) = data.draw(random_codes())
        for _ in range(3):
            assert_structure_holds(code, data.draw(periodic_points(code.n)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_refined_structured_code_keeps_structure(self, data):
        code, j = data.draw(structured_codes())
        assert code.shift_by == j
        assert (code.block_map is not None) == (j in (None, 0))
        for _ in range(3):
            assert_structure_holds(code, data.draw(periodic_points(code.n)))

    def test_shift_checks_size_before_allocating(self):
        with pytest.raises(CodeSizeExceeded):
            StabilizedCode.shift(2, 13)


class TestEvaluate:
    def test_identity(self):
        for a in range(2):
            assert IDENT2.evaluate(0, (a,)) == a

    def test_shift_reads_right_neighbour(self):
        assert SIGMA.evaluate(0, (0, 1, 1)) == 1
        assert SIGMA.evaluate(0, (1, 1, 0)) == 0

    def test_flip_on_even_identity_branch(self):
        assert FLIP_ON_EVEN.evaluate(1, (0,)) == 0
        assert FLIP_ON_EVEN.evaluate(0, (0,)) == 1

    def test_window_length_checked(self):
        with pytest.raises(ValueError):
            SIGMA.evaluate(0, (0, 1))


class TestApplyToPeriodic:
    def test_flip_constant(self):
        assert apply_to_periodic(FLIP, PeriodicPoint((0,))) == PeriodicPoint((1,))

    def test_shift_two_cycle(self):
        assert apply_to_periodic(SIGMA, PeriodicPoint((0, 1))) == PeriodicPoint((1, 0))

    def test_flip_on_even_on_fixed_point(self):
        assert apply_to_periodic(FLIP_ON_EVEN, PeriodicPoint((0,))) == PeriodicPoint((1, 0))

    def test_matches_pointwise_oracle(self):
        rng = random.Random(1)
        codes = [FLIP, SIGMA, FLIP_ON_EVEN, compose(SIGMA, FLIP)]
        for code in codes:
            for _ in range(10):
                block = tuple(rng.randrange(2) for _ in range(6))
                x = PeriodicPoint(block, rng.randrange(6))
                length = lcm(x.period, code.period)
                img = apply_to_periodic(code, x)
                assert tuple(img.letter(z) for z in range(length)) == functional_image(
                    code, x, length
                )

    def test_composition_action(self):
        rng = random.Random(2)
        for _ in range(10):
            block = tuple(rng.randrange(2) for _ in range(4))
            x = PeriodicPoint(block)
            lhs = apply_to_periodic(compose(FLIP, SIGMA), x)
            rhs = apply_to_periodic(FLIP, apply_to_periodic(SIGMA, x))
            assert lhs == rhs


class TestRefineAndEquals:
    def test_refine_identity(self):
        refined = IDENT2.refine(2, 1)
        assert equals(refined, IDENT2)
        for c in range(2):
            for w in itertools.product(range(2), repeat=3):
                assert refined.evaluate(c, w) == w[1]

    def test_refine_shift_round_trip(self):
        assert equals(SIGMA.refine(2, 2), SIGMA)

    def test_refine_flip_on_even(self):
        refined = FLIP_ON_EVEN.refine(4, 1)
        for c in range(4):
            expected = FLIP if c % 2 == 0 else IDENT2
            for w in itertools.product(range(2), repeat=3):
                assert refined.evaluate(c, w) == expected.evaluate(0, (w[1],))

    def test_equals_across_periods(self):
        assert equals(SIGMA.refine(3, 1), SIGMA)

    def test_flip_not_identity(self):
        assert not equals(FLIP, IDENT2)

    def test_refine_rejects_bad_args(self):
        with pytest.raises(ValueError):
            FLIP_ON_EVEN.refine(3, 0)
        with pytest.raises(ValueError):
            SIGMA.refine(1, 0)

    def test_sft_restricted_equality(self):
        # on the golden-mean shift the word 11 never occurs, so codes
        # disagreeing only on windows containing 11 are equal there
        gm = SftMatrix(((1, 1), (1, 0)))
        # edge alphabet: 0 = loop at vertex 0, 1 = 0->1, 2 = 1->0
        t1 = np.arange(3)
        t2 = t1.copy()
        a = StabilizedCode(3, 1, 1, (np.tile(t1, (9, 1)).T.reshape(-1) % 3,))
        # build tables over windows; modify entries only at inadmissible windows
        base = np.zeros(27, dtype=np.int64)
        for idx in range(27):
            w = [(idx // 9) % 3, (idx // 3) % 3, idx % 3]
            base[idx] = w[1]
        other = base.copy()
        ends = gm.edge_endpoints()
        for idx in range(27):
            w = [(idx // 9) % 3, (idx // 3) % 3, idx % 3]
            admissible = all(ends[w[i]][1] == ends[w[i + 1]][0] for i in range(2))
            if not admissible:
                other[idx] = (base[idx] + 1) % 3
        ca = StabilizedCode(3, 1, 1, (base,))
        cb = StabilizedCode(3, 1, 1, (other,))
        assert not equals(ca, cb)
        assert equals(ca, cb, sft=gm)


class TestCompose:
    def test_flip_involution(self):
        assert equals(compose(FLIP, FLIP), IDENT2)

    def test_double_shift_table(self):
        double = compose(SIGMA, SIGMA)
        assert double.radius == 2
        for w in itertools.product(range(2), repeat=5):
            assert double.evaluate(0, w) == w[4]

    def test_flip_on_even_after_shift(self):
        # the composition applies the flip where the *output* class is even
        comp = compose(FLIP_ON_EVEN, SIGMA)
        assert comp.period == 2
        for c in range(2):
            for w in itertools.product(range(2), repeat=3):
                expected = w[2] if c % 2 else 1 - w[2]
                assert comp.evaluate(c, w) == expected

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            compose(FLIP, StabilizedCode.identity(3))

    def test_blockwise_fast_path_matches_generic(self):
        rng = random.Random(3)
        for _ in range(5):
            p1 = list(range(4))
            p2 = list(range(4))
            rng.shuffle(p1)
            rng.shuffle(p2)
            a = symbol_permutation(2, 2, Permutation(tuple(p1))).forward
            b = symbol_permutation(2, 2, Permutation(tuple(p2))).forward
            fast = compose(a, b)
            assert fast.block_map is not None
            generic = compose(StabilizedCode(2, 2, 1, a.tables), StabilizedCode(2, 2, 1, b.tables))
            assert equals(fast, generic)

    def test_blockwise_equality_fast_path_matches_tables(self):
        rng = random.Random(13)
        for _ in range(10):
            p1 = list(range(4))
            rng.shuffle(p1)
            a = symbol_permutation(2, 2, Permutation(tuple(p1))).forward
            p2 = list(p1)
            if rng.random() < 0.5:
                rng.shuffle(p2)
            b = symbol_permutation(2, 2, Permutation(tuple(p2))).forward
            plain_a = StabilizedCode(2, 2, 1, a.tables)
            plain_b = StabilizedCode(2, 2, 1, b.tables)
            assert equals(a, b) == equals(plain_a, plain_b)
        # across different periods: flip blockwise vs its period-2 refinement
        small = symbol_permutation(2, 1, Permutation((1, 0))).forward
        big = symbol_permutation(2, 2, Permutation((3, 2, 1, 0))).forward
        assert equals(small, big)  # flipping both letters of each pair

    def test_associativity_on_samples(self):
        codes = [FLIP, SIGMA, SIGMA_INV, FLIP_ON_EVEN]
        for a, b, c in itertools.product(codes, repeat=3):
            assert equals(compose(compose(a, b), c), compose(a, compose(b, c)))


class TestCommutesWithShiftPower:
    def test_shift_commutes(self):
        assert commutes_with_shift_power(SIGMA, 1)

    def test_flip_on_even_fails_m1(self):
        assert not commutes_with_shift_power(FLIP_ON_EVEN, 1)

    def test_flip_on_even_own_period(self):
        assert commutes_with_shift_power(FLIP_ON_EVEN, 2)

    def test_own_period_always_commutes(self):
        for code in (FLIP, SIGMA, FLIP_ON_EVEN, compose(FLIP_ON_EVEN, SIGMA)):
            assert commutes_with_shift_power(code, code.period)


class TestInversePairs:
    def test_flip_self_inverse(self):
        assert verify_inverse_pair(FLIP, FLIP)

    def test_shift_pair(self):
        assert verify_inverse_pair(SIGMA, SIGMA_INV)

    def test_shift_flip_not_inverses(self):
        assert not verify_inverse_pair(SIGMA, FLIP)

    def test_automorphism_guard(self):
        with pytest.raises(ValueError):
            Automorphism(SIGMA, FLIP)

    def test_find_inverse_recovers_shift(self):
        inv = find_inverse(SIGMA, 2)
        assert inv is not None
        assert equals(inv, SIGMA_INV)

    def test_find_inverse_rejects_noninvertible(self):
        # x_z AND x_{z+1} is not invertible
        table = np.array([0, 0, 0, 1, 0, 0, 1, 1])
        assert find_inverse(StabilizedCode(2, 1, 1, (table,)), 3) is None


class TestEnumerate:
    def test_radius0_period1(self):
        auts = enumerate_automorphisms(2, 0, 1)
        assert len(auts) == 2
        assert aut_equals(auts[0], Automorphism(IDENT2, IDENT2))
        assert aut_equals(auts[1], flip(2))

    def test_radius0_period2(self):
        auts = enumerate_automorphisms(2, 0, 2)
        assert len(auts) == 4

    def test_radius1_period1_census_is_six(self):
        auts = enumerate_automorphisms(2, 1, 1)
        assert len(auts) == 6
        expected = []
        for j in (-1, 0, 1):
            for eps in (0, 1):
                aut = shift_power(2, j)
                if eps:
                    aut = aut_compose(flip(2), aut)
                expected.append(aut)
        for want in expected:
            assert any(equals(a.forward, want.forward) for a in auts)

    def test_budget(self):
        with pytest.raises(Exception):
            enumerate_automorphisms(3, 2, 2, budget=10)

    def test_enumerated_act_faithfully_on_period_three(self):
        auts = enumerate_automorphisms(2, 1, 1)
        pts = [PeriodicPoint(b) for b in itertools.product(range(2), repeat=3)]
        actions = []
        for a in auts:
            actions.append(tuple(apply_to_periodic(a.forward, x) for x in pts))
        for i, j in itertools.combinations(range(len(auts)), 2):
            assert actions[i] != actions[j] or equals(auts[i].forward, auts[j].forward)


class TestGroupAxioms:
    def test_inverse_laws(self):
        for aut in (flip(2), shift_power(2, 1), flip_on_even(2)):
            assert equals(compose(aut.forward, aut.inverse), StabilizedCode.identity(aut.n))

    def test_composition_inverse_reverses(self):
        a, b = shift_power(2, 1), flip_on_even(2)
        ab = aut_compose(a, b)
        assert equals(ab.inverse, compose(b.inverse, a.inverse))
        assert verify_inverse_pair(ab.forward, ab.inverse)


class TestCenterWitness:
    def test_stabilized_center_escapes_shift_powers(self):
        # for m in {1, 2}: some element of aut(sigma^{2m}) fails to
        # commute with sigma^m
        for m in (1, 2):
            auts = enumerate_automorphisms(2, 0, 2 * m)
            witness = [a for a in auts if not commutes_with_shift_power(a.forward, m)]
            assert witness, f"no witness at m={m}"
