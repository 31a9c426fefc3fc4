import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabaut.codes import (
    CodeSizeExceeded,
    StabilizedCode,
    apply_to_periodic,
    aut_compose,
    aut_equals,
    code_power,
    commutes_with_shift_power,
    compose,
    equals,
)
from stabaut.generators import (
    SimpleGraphPerm,
    _recode_code,
    edge_permutation_code,
    flip,
    flip_on_even,
    inflate,
    letter_permutation,
    mth_root_of,
    periodic_letter_permutation,
    recode_to_power,
    shift_power,
    swap_commutator_witness,
    symbol_permutation,
)
from stabaut.permlab import Permutation
from stabaut.shifts import PeriodicPoint, SftMatrix, power_alphabet_index


class TestShiftPower:
    def test_zero_is_identity(self):
        assert equals(shift_power(2, 0).forward, StabilizedCode.identity(2))

    def test_one_reads_right(self):
        code = shift_power(2, 1).forward
        for w in itertools.product(range(2), repeat=3):
            assert code.evaluate(0, w) == w[2]

    def test_inverse_composes_to_identity(self):
        comp = compose(shift_power(2, 1).forward, shift_power(2, -1).forward)
        assert equals(comp, StabilizedCode.identity(2))

    def test_action_on_periodic(self):
        x = PeriodicPoint((0, 1, 1))
        assert apply_to_periodic(shift_power(2, 2).forward, x) == x.shifted(2)


class TestSymbolPermutation:
    def test_flip_from_transposition(self):
        tau = Permutation.transposition(2, 0, 1)
        assert aut_equals(symbol_permutation(2, 1, tau), flip(2))

    def test_identity_perm(self):
        aut = symbol_permutation(2, 2, Permutation.identity(4))
        assert equals(aut.forward, StabilizedCode.identity(2))

    def test_pair_transposition_is_involution(self):
        tau = Permutation.transposition(4, 0, 1)  # blocks 00 <-> 01
        aut = symbol_permutation(2, 2, tau)
        assert equals(code_power(aut.forward, 2), StabilizedCode.identity(2))
        assert not equals(aut.forward, StabilizedCode.identity(2))

    def test_commutes_with_own_shift_power(self):
        rng = random.Random(5)
        for k in (1, 2, 3):
            images = list(range(2**k))
            rng.shuffle(images)
            aut = symbol_permutation(2, k, Permutation(tuple(images)))
            assert commutes_with_shift_power(aut.forward, k)

    def test_blockwise_action_on_periodic(self):
        # blocks aligned at 0: 00->01 applied to ...0000... gives ...0101...
        tau = Permutation.transposition(4, 0, 1)
        aut = symbol_permutation(2, 2, tau)
        assert apply_to_periodic(aut.forward, PeriodicPoint((0,))) == PeriodicPoint((0, 1))

    def test_simple_graph_perm_wrapper(self):
        sgp = SimpleGraphPerm(2, 2, Permutation.transposition(4, 0, 3))
        aut = symbol_permutation(2, 2, sgp)
        assert aut.forward.period == 2


class TestEdgePermutation:
    def test_parallel_edge_swap(self):
        sft = SftMatrix(((2, 1), (1, 0)))  # two parallel loops at vertex 0
        tau = Permutation.transposition(4, 0, 1)
        aut = edge_permutation_code(sft, tau)
        assert aut.forward.radius == 0

    def test_endpoint_preservation_enforced(self):
        sft = SftMatrix(((1, 1), (1, 0)))
        with pytest.raises(ValueError):
            edge_permutation_code(sft, Permutation.transposition(3, 0, 1))


class TestSwapCommutator:
    def test_binary_flip_case(self):
        phi0, verified = swap_commutator_witness(2, Permutation.transposition(2, 0, 1))
        assert verified
        # both sides equal the flip applied everywhere
        comp = aut_compose(
            aut_compose(phi0, shift_power(2, 1)),
            aut_compose(phi0.inverted(), shift_power(2, -1)),
        )
        assert equals(comp.forward, flip(2).forward)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
    def test_three_letters(self, pair):
        _, verified = swap_commutator_witness(3, Permutation.transposition(3, *pair))
        assert verified

    def test_block_transposition(self):
        # 2-blocks 00 <-> 11 over the square of the shift: identity in aut(sigma^4)
        tau = Permutation.transposition(4, 0, 3)
        phi0, verified = swap_commutator_witness(2, tau, block_len=2)
        assert verified
        assert phi0.forward.period == 4

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            swap_commutator_witness(2, Permutation.identity(2))

    def test_alphabet_past_budget_refused(self):
        # phi0 would need 2 tables of 400^3 entries
        with pytest.raises(CodeSizeExceeded):
            swap_commutator_witness(400, Permutation.transposition(400, 0, 1))

    def test_sft_restricted(self):
        sft = SftMatrix(((2, 1), (1, 1)))  # parallel loop pair at vertex 0
        tau = Permutation.transposition(5, 0, 1)
        _, verified = swap_commutator_witness(5, tau, sft=sft)
        assert verified


class TestMthRoot:
    def test_root_past_budget_refused_before_its_images(self):
        # the 40th root has 40 tables of 2^79 entries (2^40 block images)
        with pytest.raises(CodeSizeExceeded):
            mth_root_of(flip(2), 40)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("base", ["flip", "identity"])
    def test_root_power_identity(self, m, base):
        phi0 = flip(2) if base == "flip" else letter_permutation(2, Permutation.identity(2))
        root = mth_root_of(phi0, m)
        assert root.forward.period == m
        assert equals(code_power(root.forward, m), phi0.forward)

    def test_identity_root_is_rotation(self):
        root = mth_root_of(letter_permutation(2, Permutation.identity(2)), 3)
        x = PeriodicPoint((0, 1, 1))
        img = apply_to_periodic(root.forward, x)
        # sub-blocks rotate: the orbit closes after 3 applications
        assert img != x
        third = apply_to_periodic(
            root.forward, apply_to_periodic(root.forward, img)
        )
        assert third == apply_to_periodic(root.forward, apply_to_periodic(root.forward, apply_to_periodic(root.forward, x)))

    def test_root_power_full_small_grid(self):
        # (3, 2, 4) needs 3^15-entry tables, past the dense budget; its
        # identity is checked at the block level below
        rng = random.Random(7)
        for n in (2, 3):
            for k in (1, 2):
                for m in (2, 3, 4):
                    if (n, k, m) == (3, 2, 4):
                        continue
                    images = list(range(n**k))
                    rng.shuffle(images)
                    phi0 = symbol_permutation(n, k, Permutation(tuple(images)))
                    root = mth_root_of(phi0, m)
                    assert root.forward.period == m * k
                    assert equals(code_power(root.forward, m), phi0.forward)

    def test_root_identity_at_block_level_beyond_table_budget(self):
        # independent check of the (3, 2, 4) corner by permutation
        # arithmetic on block indices: rotate sub-blocks, apply the base
        # map to the first, and confirm the m-th power is the diagonal
        n, k, m = 3, 2, 4
        nk = n**k
        rng = random.Random(7)
        images = list(range(nk))
        rng.shuffle(images)
        base = Permutation(tuple(images))

        def split(idx):
            subs = []
            for _ in range(m):
                idx, lo = divmod(idx, nk)
                subs.append(lo)
            return list(reversed(subs))

        def join(subs):
            acc = 0
            for s in subs:
                acc = acc * nk + s
            return acc

        root_images = []
        for b in range(nk**m):
            subs = split(b)
            rotated = subs[1:] + subs[:1]
            rotated[0] = base(rotated[0])
            root_images.append(join(rotated))
        root = Permutation(tuple(root_images))
        diagonal = Permutation(tuple(join([base(s) for s in split(b)]) for b in range(nk**m)))
        assert root**m == diagonal

        from stabaut.codes import CodeSizeExceeded

        with pytest.raises(CodeSizeExceeded):
            mth_root_of(symbol_permutation(n, k, base), m)

    def test_requires_blockwise(self):
        with pytest.raises(ValueError):
            mth_root_of(shift_power(2, 1), 2)

    def test_radius_zero_period_k_accepted(self):
        phi0 = flip_on_even(2)
        root = mth_root_of(phi0, 2)
        assert equals(code_power(root.forward, 2), phi0.forward)


class TestInflate:
    def test_binary_transposition_count(self):
        tau = SimpleGraphPerm(2, 1, Permutation.transposition(2, 0, 1))
        _, report = inflate(tau, 2)
        assert report.transposition_count == 2 * 2 - 2

    def test_ternary_transposition_count_and_fixed_letter(self):
        tau = SimpleGraphPerm(3, 1, Permutation.transposition(3, 0, 1))
        big, report = inflate(tau, 2)
        assert report.transposition_count == 2 * 3 - 2
        # the pair (2, 2) avoids both letters, hence is fixed
        assert big.perm(2 * 3 + 2) == 2 * 3 + 2

    def test_refused_past_the_budget_before_allocating(self):
        # 2^26 inflated blocks exceed MAX_TABLE_ENTRIES
        tau = SimpleGraphPerm(2, 1, Permutation.transposition(2, 0, 1))
        tracemalloc.start()
        try:
            with pytest.raises(CodeSizeExceeded):
                inflate(tau, 26)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_identity_inflates_to_identity(self):
        ident = SimpleGraphPerm(2, 1, Permutation.identity(2))
        big, report = inflate(ident, 3)
        assert big.perm.is_identity()
        assert report.parity == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_transposition_count_formula(self, n):
        tau = SimpleGraphPerm(n, 1, Permutation.transposition(n, 0, 1))
        _, report = inflate(tau, 2)
        assert report.transposition_count == 2 * n - 2

    def test_evenness_preserved(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            m = rng.choice([1, 2]) if n < 4 else 1
            images = list(range(n**m))
            rng.shuffle(images)
            perm = Permutation(tuple(images))
            if perm.parity() == 1:
                perm = perm * Permutation.transposition(n**m, 0, 1)
            assert perm.parity() == 0
            t = rng.choice([2, 3])
            _, report = inflate(SimpleGraphPerm(n, m, perm), t)
            assert report.parity == 0

    def test_diagonal_action_matches_blockwise_code(self):
        # inflating and then acting blockwise equals acting on each sub-block
        tau = Permutation.transposition(4, 1, 2)
        big, _ = inflate(SimpleGraphPerm(2, 2, tau), 2)
        small_aut = symbol_permutation(2, 2, tau)
        big_aut = symbol_permutation(2, 4, big.perm)
        assert equals(big_aut.forward, small_aut.forward.refine(4, 3))


def split_blocks(idx, base, count):
    """Oracle: the `count` sub-block indices of idx, leftmost first."""
    subs = []
    for _ in range(count):
        idx, lo = divmod(idx, base)
        subs.append(lo)
    return subs[::-1]


def join_blocks(subs, base):
    out = 0
    for s in subs:
        out = out * base + s
    return out


class TestSubBlockImages:
    """Block images built with subwindow against sub-block-by-sub-block oracles."""

    @pytest.mark.parametrize("n,k,m", [(2, 1, 2), (2, 1, 4), (3, 1, 3), (2, 2, 2), (2, 2, 3)])
    def test_root_images(self, n, k, m):
        nk = n**k
        images = list(range(nk))
        random.Random(n * 100 + k * 10 + m).shuffle(images)
        root = mth_root_of(symbol_permutation(n, k, Permutation(tuple(images))), m)
        want = []
        for b in range(nk**m):
            subs = split_blocks(b, nk, m)
            want.append(join_blocks([images[subs[1]], *subs[2:], subs[0]], nk))
        assert root.forward.block_map == tuple(want)

    @pytest.mark.parametrize("n,m,t", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
    def test_inflate_images(self, n, m, t):
        images = list(range(n**m))
        random.Random(n * 100 + m * 10 + t).shuffle(images)
        perm = Permutation(tuple(images))
        big, _ = inflate(SimpleGraphPerm(n, m, perm), t)
        want = [join_blocks([perm(s) for s in split_blocks(b, n**m, t)], n**m)
                for b in range(n ** (m * t))]
        assert big.perm.images == tuple(want)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (2, 2)])
    def test_commutator_witness_images(self, n, k):
        tau = Permutation.transposition(n**k, 0, n**k - 1)
        phi0, _ = swap_commutator_witness(n, tau, block_len=k)
        want = [join_blocks([tau(hi), lo], n**k)
                for hi, lo in (split_blocks(b, n**k, 2) for b in range(n ** (2 * k)))]
        assert phi0.forward.block_map == tuple(want)


def blocks(x, length, n, k):
    """The point over A^k whose z-th letter is the k-block of x at zk."""
    return PeriodicPoint(tuple(power_alphabet_index(n, k, x.window(i, i + k - 1))
                               for i in range(0, length, k)))


class TestRecodeToPower:
    def test_shift_square_recodes_to_four_shift(self):
        sigma2 = aut_compose(shift_power(2, 1), shift_power(2, 1))
        recoded = recode_to_power(sigma2, 2)
        assert recoded.n == 4
        assert aut_equals(recoded, shift_power(4, 1))

    def test_identity_recode(self):
        ident = letter_permutation(2, Permutation.identity(2))
        recoded = recode_to_power(ident, 2)
        assert equals(recoded.forward, StabilizedCode.identity(4))

    def test_flip_on_even_recode_is_block_permutation(self):
        recoded = recode_to_power(flip_on_even(2))
        assert recoded.n == 4
        # block (a, b) -> (flip a, b): 00<->10, 01<->11
        want = symbol_permutation(4, 1, Permutation((2, 3, 0, 1)))
        assert aut_equals(recoded, want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 3), st.integers(0, 1), st.integers(0, 2**32 - 1),
           st.data())
    def test_random_code_acts_like_source(self, n, k, radius, seed, data):
        rng = np.random.default_rng(seed)
        code = StabilizedCode(n, k, radius, tuple(
            rng.integers(0, n, n ** (2 * radius + 1)) for _ in range(k)))
        recoded = _recode_code(code, k)
        for _ in range(3):
            length = k * data.draw(st.integers(1, 3))
            block = data.draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length))
            x = PeriodicPoint(tuple(block), data.draw(st.integers(0, length - 1)))
            y = apply_to_periodic(code, x)
            assert apply_to_periodic(recoded, blocks(x, length, n, k)) == blocks(y, length, n, k)

    @pytest.mark.parametrize("n, k, radius", [(2, 3, 2), (3, 2, 1), (5, 1, 1)])
    def test_with_small_chunks(self, small_chunk, n, k, radius):
        rng = np.random.default_rng(n)
        code = StabilizedCode(n, k, radius, tuple(
            rng.integers(0, n, n ** (2 * radius + 1)) for _ in range(k)))
        recoded = _recode_code(code, k)
        letters = random.Random(n)
        for length in (k, 2 * k, 3 * k):
            x = PeriodicPoint(tuple(letters.choices(range(n), k=length)))
            y = apply_to_periodic(code, x)
            assert apply_to_periodic(recoded, blocks(x, length, n, k)) == blocks(y, length, n, k)

    @pytest.mark.parametrize("n, period, k, radius",
                             [(2, 1, 2, 1), (2, 2, 4, 1), (3, 1, 2, 1), (3, 2, 2, 0)])
    def test_reads_classes_modulo_the_period(self, small_chunk, n, period, k, radius):
        rng = np.random.default_rng(k)
        code = StabilizedCode(n, period, radius, tuple(
            rng.integers(0, n, n ** (2 * radius + 1)) for _ in range(period)))
        assert equals(_recode_code(code, k), _recode_code(code.refine(k, radius), k))

    def test_recode_refines_nothing(self, monkeypatch):
        calls = []
        refine = StabilizedCode.refine
        monkeypatch.setattr(StabilizedCode, "refine",
                            lambda code, *args: calls.append(args) or refine(code, *args))
        recoded = recode_to_power(flip_on_even(2), 4)
        assert calls == []
        # block (a, b, c, d) -> (flip a, b, flip c, d)
        want = symbol_permutation(16, 1, Permutation(tuple(i ^ 0b1010 for i in range(16))))
        assert aut_equals(recoded, want)

    def test_homomorphism_on_samples(self):
        pool = [flip(2), shift_power(2, 1), flip_on_even(2), shift_power(2, -1)]
        for f, g in itertools.product(pool, repeat=2):
            fg = aut_compose(f, g)
            lhs = recode_to_power(fg, 2)
            rhs_f = recode_to_power(f, 2)
            rhs_g = recode_to_power(g, 2)
            assert equals(lhs.forward, compose(rhs_f.forward, rhs_g.forward))

    def test_injective_on_samples(self):
        pool = [flip(2), shift_power(2, 1), flip_on_even(2),
                letter_permutation(2, Permutation.identity(2))]
        recoded = [recode_to_power(a, 2) for a in pool]
        for i, j in itertools.combinations(range(len(pool)), 2):
            assert not aut_equals(recoded[i], recoded[j])
            # distinguishable via the periodic-point action as well
            pts = [PeriodicPoint(b) for b in itertools.product(range(4), repeat=2)]
            acts_i = [apply_to_periodic(recoded[i].forward, x) for x in pts]
            acts_j = [apply_to_periodic(recoded[j].forward, x) for x in pts]
            assert acts_i != acts_j

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            recode_to_power(flip_on_even(2), 3)


class TestPeriodicLetterPermutation:
    def test_flip_on_even_shape(self):
        aut = flip_on_even(2)
        assert aut.forward.period == 2
        assert aut.forward.radius == 0

    def test_three_phase(self):
        tau = Permutation.transposition(3, 0, 2)
        aut = periodic_letter_permutation(3, [tau, Permutation.identity(3), tau])
        assert aut.forward.period == 3
        assert commutes_with_shift_power(aut.forward, 3)
        assert not commutes_with_shift_power(aut.forward, 1)
