import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabaut.permlab import (
    ArrangementMismatch,
    GroupHandle,
    Permutation,
    _isolate_prime_cycle,
    canonical_arrangement,
    conjugator_col,
    conjugator_row,
    evaluate_word,
    from_component_pair,
    goursat_decompose,
    goursat_property_holds,
    grid_coords,
    grid_index,
    group_order,
    is_primitive,
    jordan_verdict,
    minimal_block,
    p_cycle_search,
    p_generators,
    row_col_class,
    star,
    swap_map,
    three_cycle_from_arrangement,
)


def random_permutation(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(tuple(images))


def brute_force_primitive(generators, degree):
    """Oracle: test every subset of size 2..degree-1 as a candidate block."""
    group = GroupHandle(generators, degree=degree)
    if not group.is_transitive():
        return False
    elements = group.elements()
    for size in range(2, degree):
        if degree % size != 0:
            continue
        for block in itertools.combinations(range(degree), size):
            bset = frozenset(block)
            if all(
                (img := frozenset(g(x) for x in bset)) == bset or not (img & bset)
                for g in elements
            ):
                return False
    return True


class TestPermutationBasics:
    def test_composition_applies_right_first(self):
        a = Permutation.from_cycles(3, [(0, 1)])
        b = Permutation.from_cycles(3, [(1, 2)])
        assert (a * b)(1) == a(b(1)) == a(2) == 2
        assert (a * b)(2) == a(1) == 0

    def test_cycles_canonical(self):
        p = Permutation.from_cycles(6, [(3, 4), (0, 2, 1)])
        assert p.cycles() == ((0, 2, 1), (3, 4))

    def test_parity(self):
        assert Permutation.transposition(4, 0, 1).parity() == 1
        assert Permutation.from_cycles(4, [(0, 1, 2)]).parity() == 0

    def test_order_and_power(self):
        p = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
        assert p.order() == 6
        assert (p**6).is_identity()
        assert p**-1 == p.inverse()

    @given(st.integers(2, 7), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_inverse_law(self, degree, rng):
        p = random_permutation(rng, degree)
        assert (p * p.inverse()).is_identity()

    @given(st.integers(1, 12), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_products_and_inverses_pass_the_public_check(self, degree, rng):
        a, b = random_permutation(rng, degree), random_permutation(rng, degree)
        for p in (a * b, a.inverse(), (a * b).inverse() * a):
            assert Permutation(p.images) == p
            assert type(p.images) is tuple and all(type(i) is int for i in p.images)


class TestStar:
    def test_disjoint_supports_commute(self):
        tau = Permutation.from_cycles(6, [(0, 1)])
        phi = Permutation.from_cycles(6, [(3, 4, 5)])
        assert star(tau, phi).is_identity()

    def test_spec_example(self):
        tau = Permutation.from_cycles(3, [(0, 1, 2)])
        phi = Permutation.from_cycles(3, [(0, 1)])
        assert star(tau, phi) == Permutation.from_cycles(3, [(0, 2, 1)])

    def test_self_star_trivial(self):
        tau = Permutation.from_cycles(4, [(0, 1, 2, 3)])
        assert star(tau, tau).is_identity()

    def test_star_against_unmoved_conjugators(self):
        # cycles clear of the swapped columns commute with the conjugator
        rng = random.Random(4)
        n = 5
        for _ in range(20):
            cols = rng.sample(range(3, n + 1), 2)
            pts = [grid_index(n, rng.randrange(1, n + 1), c) for c in cols for _ in (0,)]
            support_cols = [1, 2]
            cyc = [grid_index(n, r, rng.choice(support_cols)) for r in rng.sample(range(1, n + 1), 3)]
            tau = Permutation.from_cycles(n * n, [tuple(cyc)])
            conj = conjugator_col(cols[0], cols[1], n)
            assert star(tau, conj).is_identity()


class TestGrid:
    def test_index_round_trip(self):
        for n in (2, 3, 7):
            for p in range(n * n):
                r, c = grid_coords(n, p)
                assert grid_index(n, r, c) == p

    def test_row_col_classes(self):
        n = 3
        p_elt = from_component_pair(
            n, Permutation.from_cycles(n, [(0, 1)]), Permutation.from_cycles(n, [(1, 2)])
        )
        assert row_col_class(p_elt, n) == "both"
        assert row_col_class(swap_map(n), n) == "free"
        assert row_col_class(Permutation.identity(n * n), n) == "both"

    def test_row_preserving_only(self):
        # permute within rows, with the column image depending on the row
        n = 3
        images = []
        for x in range(n):
            for y in range(n):
                images.append(x * n + ((y + x) % n))
        g = Permutation(tuple(images))
        assert row_col_class(g, n) == "row-preserving"

    def test_column_preserving_only(self):
        # g(x, y) = ((x + y) mod n, y): the column stays, the row image
        # depends on the column
        n = 3
        g = Permutation(tuple(((x + y) % n) * n + y for x in range(n) for y in range(n)))
        assert row_col_class(g, n) == "column-preserving"

    def test_conjugators(self):
        c = conjugator_row(1, 2, 3)
        assert (c * c).is_identity()
        cc = conjugator_col(1, 2, 2)
        for x in range(1, 3):
            assert cc(grid_index(2, x, 1)) == grid_index(2, x, 2)
        with pytest.raises(ValueError):
            conjugator_row(2, 2, 3)

    def test_swap_is_involution(self):
        for n in (2, 5):
            assert (swap_map(n) * swap_map(n)).is_identity()


class TestGroupHandle:
    def test_sym5(self):
        g = GroupHandle(
            [Permutation.from_cycles(5, [(0, 1)]), Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])]
        )
        assert group_order(g) == 120

    def test_cyclic(self):
        assert group_order(GroupHandle([Permutation.from_cycles(3, [(0, 1, 2)])])) == 3

    def test_alt7(self):
        g = GroupHandle(
            [
                Permutation.from_cycles(7, [(0, 1, 2)]),
                Permutation.from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)]),
            ]
        )
        assert group_order(g) == 2520

    def test_membership(self):
        g = GroupHandle(
            [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(0, 1, 2, 3)])]
        )
        assert g.contains(Permutation.from_cycles(4, [(2, 3)]))
        alt_only = GroupHandle([Permutation.from_cycles(4, [(0, 1, 2)])])
        assert not alt_only.contains(Permutation.transposition(4, 0, 1))

    def test_order_matches_element_enumeration(self):
        rng = random.Random(9)
        for _ in range(15):
            degree = rng.randrange(3, 7)
            gens = [random_permutation(rng, degree) for _ in range(2)]
            handle = GroupHandle(gens, degree=degree)
            assert group_order(handle) == len(handle.elements())

    def test_p_group_orders(self):
        for n in range(2, 6):
            handle = GroupHandle(p_generators(n))
            assert group_order(handle) == math.factorial(n) ** 2

    def test_trivial_group(self):
        handle = GroupHandle([], degree=4)
        assert handle.order() == 1
        assert handle.contains(Permutation.identity(4))
        assert not handle.contains(Permutation.transposition(4, 0, 1))

    def test_order_and_membership_match_sympy(self):
        sympy_comb = pytest.importorskip("sympy.combinatorics")
        rng = random.Random(31)
        outsiders = 0
        for _ in range(120):
            degree = rng.randrange(2, 21)
            gens = []
            for _ in range(rng.randrange(1, 4)):
                if rng.random() < 0.5:
                    gens.append(random_permutation(rng, degree))
                else:
                    # a short cycle, so that small and intransitive groups occur
                    pts = rng.sample(range(degree), rng.randrange(2, min(degree, 5) + 1))
                    gens.append(Permutation.from_cycles(degree, [pts]))
            handle = GroupHandle(gens, degree=degree)
            oracle = sympy_comb.PermutationGroup(
                [sympy_comb.Permutation(list(g.images)) for g in gens])
            assert handle.order() == oracle.order()
            for _ in range(4):
                member = gens[rng.randrange(len(gens))]
                for _ in range(rng.randrange(1, 6)):
                    member = gens[rng.randrange(len(gens))] * member
                assert handle.contains(member)
                other = random_permutation(rng, degree)
                inside = oracle.contains(sympy_comb.Permutation(list(other.images)))
                assert handle.contains(other) == inside
                outsiders += not inside
        assert outsiders > 100


class TestPrimitivity:
    def test_cyclic_four_witness(self):
        ok, block = is_primitive(GroupHandle([Permutation.from_cycles(4, [(0, 1, 2, 3)])]))
        assert not ok
        assert block == frozenset({0, 2})

    def test_full_symmetric(self):
        g = GroupHandle(
            [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(0, 1, 2, 3)])]
        )
        assert is_primitive(g) == (True, None)

    def test_intransitive(self):
        ok, block = is_primitive(GroupHandle([Permutation.from_cycles(4, [(0, 1)])]))
        assert not ok
        assert block == frozenset({0, 1})

    def test_matches_brute_force_on_random_groups(self):
        rng = random.Random(12)
        for _ in range(100):
            degree = rng.randrange(3, 9)
            gens = [random_permutation(rng, degree) for _ in range(2)]
            got, witness = is_primitive(GroupHandle(gens, degree=degree))
            assert got == brute_force_primitive(gens, degree)
            if witness is not None and len(witness) > 1:
                # the witness really is a block
                elements = GroupHandle(gens, degree=degree).elements()
                for g in elements:
                    img = frozenset(g(x) for x in witness)
                    assert img == witness or not (img & witness)


class TestJordan:
    def test_sym_via_transposition(self):
        g = GroupHandle(
            [Permutation.from_cycles(5, [(0, 1)]), Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])]
        )
        assert jordan_verdict(g) == "Sym"

    def test_alt_via_three_cycle(self):
        g = GroupHandle(
            [
                Permutation.from_cycles(7, [(0, 1, 2)]),
                Permutation.from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)]),
            ]
        )
        assert jordan_verdict(g) == "Alt"

    def test_grid_verdict_by_parity_without_a_chain(self):
        n = 7
        gamma_a = Permutation.transposition(n * n, grid_index(n, 2, 1), grid_index(n, 3, 2))
        handle = GroupHandle(p_generators(n) + [gamma_a])
        assert jordan_verdict(handle) == "Sym"
        assert "_chain" not in vars(handle)

    def test_imprimitive_unknown(self):
        assert jordan_verdict(GroupHandle([Permutation.from_cycles(4, [(0, 1, 2, 3)])])) == "Unknown"

    def test_primitive_without_a_small_prime_cycle_is_unknown(self):
        # the cyclic group of a 5-cycle is primitive, but its one prime, 5,
        # is not below degree - 2 = 3
        five = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
        handle = GroupHandle([five])
        assert is_primitive(handle) == (True, None)
        assert _isolate_prime_cycle(five, 3) is None
        assert jordan_verdict(handle) == "Unknown"

    def test_generators_whose_product_is_the_identity(self):
        # g and g^-1: no generator isolates a prime cycle below 5, and
        # their product is the identity, which isolates none
        g = Permutation.from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])
        handle = GroupHandle([g, g.inverse()])
        assert is_primitive(handle) == (True, None)
        assert _isolate_prime_cycle(g * g.inverse(), 5) is None
        assert jordan_verdict(handle) == "Unknown"


class TestGoursat:
    def test_diagonal_s3(self):
        gens = [
            Permutation.from_cycles(6, [(0, 1), (3, 4)]),
            Permutation.from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
        ]
        dec = goursat_decompose(gens, 3, 3)
        assert len(dec.h1) == 6 and len(dec.h2) == 6
        assert len(dec.n1) == 1 and len(dec.n2) == 1
        assert goursat_property_holds(dec, gens, 3, 3)

    def test_factor_times_trivial(self):
        gens = [
            Permutation.from_cycles(6, [(0, 1)]),
            Permutation.from_cycles(6, [(0, 1, 2)]),
        ]
        dec = goursat_decompose(gens, 3, 3)
        assert len(dec.h1) == 6
        assert len(dec.n1) == 6
        assert len(dec.h2) == 1
        assert goursat_property_holds(dec, gens, 3, 3)

    def test_two_element_linked(self):
        gens = [Permutation.from_cycles(6, [(0, 1), (3, 5)])]
        dec = goursat_decompose(gens, 3, 3)
        assert len(dec.h1) == 2 and len(dec.h2) == 2
        assert len(dec.n1) == 1 and len(dec.n2) == 1
        link = dec.psi[Permutation.from_cycles(3, [(0, 1)])]
        assert link == Permutation.from_cycles(3, [(0, 2)])
        assert goursat_property_holds(dec, gens, 3, 3)

    def test_factor_preservation_enforced(self):
        with pytest.raises(ValueError):
            goursat_decompose([Permutation.from_cycles(6, [(0, 3)])], 3, 3)

    def test_random_small_products(self):
        rng = random.Random(21)
        for _ in range(20):
            a = random_permutation(rng, 3)
            b = random_permutation(rng, 4)
            images = tuple(a.images) + tuple(3 + i for i in b.images)
            gens = [Permutation(images)]
            dec = goursat_decompose(gens, 3, 4)
            assert goursat_property_holds(dec, gens, 3, 4)


class TestThreeCycleRecipes:
    @pytest.mark.parametrize("kind", [1, 2, 3, 4, 5, 6])
    def test_recipe_returns_certified_three_cycle(self, kind):
        n = 7
        gamma = canonical_arrangement(kind, n)
        out, word, alphabet = three_cycle_from_arrangement(gamma, kind, n)
        assert out.single_cycle_length() == 3
        assert evaluate_word(alphabet, word) == out

    def test_mismatch_rejected(self):
        n = 7
        with pytest.raises(ArrangementMismatch):
            three_cycle_from_arrangement(canonical_arrangement(2, n), 1, n)

    def test_arrangement_shapes(self):
        n = 7
        a1 = canonical_arrangement(1, n)
        assert a1.cycle_type() == (2, 2)
        a2 = canonical_arrangement(2, n)
        assert a2.cycle_type() == (2, 2, 2, 2)
        a3 = canonical_arrangement(3, n)
        assert a3.cycle_type() == (3, 3)
        # transposed variants act within rows instead of columns
        a4 = canonical_arrangement(4, n)
        assert a4 == canonical_arrangement(1, n).conjugate_by(swap_map(n))


class TestPCycleSearch:
    def test_finds_cycle_with_substantial_generator(self):
        n = 7
        gamma_a = Permutation.transposition(
            n * n, grid_index(n, 2, 1), grid_index(n, 3, 2)
        )
        found = p_cycle_search(p_generators(n) + [gamma_a], n, budget=300, seed=0)
        assert found is not None
        p, perm, word, alphabet = found
        assert perm.single_cycle_length() == p
        assert p < n * n - 2
        assert evaluate_word(alphabet, word) == perm

    def test_component_generators_find_nothing(self):
        n = 7
        found = p_cycle_search(p_generators(n), n, budget=120, seed=0)
        assert found is None

    def test_literal_three_cycle_returned_immediately(self):
        n = 7
        three = Permutation.from_cycles(n * n, [(0, 1, 2)])
        found = p_cycle_search([three] + p_generators(n), n, budget=10, seed=0)
        assert found is not None
        p, perm, word, alphabet = found
        assert p == 3
        assert perm == three


class TestGridBlowUp:
    def test_p_plus_substantial_involution_generates_alt_or_sym(self):
        n = 7
        gamma_a = Permutation.transposition(
            n * n, grid_index(n, 2, 1), grid_index(n, 3, 2)
        )
        handle = GroupHandle(p_generators(n) + [gamma_a])
        order = group_order(handle)
        full = math.factorial(n * n)
        assert order in (full, full // 2)


class TestMinimalBlock:
    def test_agrees_with_definition(self):
        gens = [Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])]
        block = minimal_block(gens, 6, 0, 2)
        assert block == frozenset({0, 2, 4})


class TestSwapMatchesShiftAction:
    def test_shift_on_period_two_points_is_the_swap(self):
        # identifying points fixed by shift^2 with grid points (x0, x1),
        # the shift acts exactly like the coordinate swap
        from stabaut.codes import apply_to_periodic
        from stabaut.generators import shift_power
        from stabaut.shifts import PeriodicPoint

        for n in (2, 3):
            sigma = shift_power(n, 1).forward
            s = swap_map(n)
            for a in range(n):
                for b in range(n):
                    image = apply_to_periodic(sigma, PeriodicPoint((a, b)))
                    got = (image.letter(0), image.letter(1))
                    swapped = s(a * n + b)
                    assert got == (swapped // n, swapped % n)
