import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabaut.codes import (
    StabilizedCode,
    apply_to_periodic,
    aut_compose,
    commutes_with_shift_power,
    compose,
    equals,
    verify_inverse_pair,
)
from stabaut.dimrep import dimension_multiplier
from stabaut.generators import flip, flip_on_even, letter_permutation, shift_power
from stabaut.krembed import (
    ContextExhausted,
    FeasibilityUnverified,
    InsufficientAlphabet,
    WindowConfig,
    coded_stretches,
    embed_automorphism,
    embed_code,
    find_marker_scheme,
    read_at,
)
from stabaut.permlab import Permutation
from stabaut.shifts import PeriodicPoint, SftMatrix, lcm

SCHEME = find_marker_scheme(5, 2, 2)
NON_DATA = 4


def embed_oracle(code, scheme, x):
    """Independent evaluation: read the rows, apply the code, re-encode.

    The lower row is acted on by the shift-conjugate of the code, i.e.
    the same window with the position class advanced by one.
    """
    length = lcm(x.period, code.period * scheme.gap)
    out = []
    for z in range(length):
        a = x.letter(z)
        if not scheme.is_data(a):
            out.append(a)
            continue
        u_word, l_word = read_at(x, z, scheme, span=code.radius)
        j0 = z // scheme.gap
        upper = code.evaluate(j0 % code.period, u_word)
        lower = code.evaluate((1 - j0) % code.period, l_word)
        out.append(scheme.data_for(upper, lower))
    return PeriodicPoint(tuple(out), 0)


class TestFindMarkerScheme:
    def test_canonical_pairing(self):
        scheme = find_marker_scheme(5, 2, 2)
        assert scheme.data_letters == (0, 1, 2, 3)
        assert [scheme.pair_of(d) for d in scheme.data_letters] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_insufficient_alphabet(self):
        with pytest.raises(InsufficientAlphabet):
            find_marker_scheme(4, 2, 2)

    def test_larger_source(self):
        scheme = find_marker_scheme(10, 3, 1)
        assert scheme.data_letters == tuple(range(9))

    def test_full_shift_sft_feasible(self):
        scheme = find_marker_scheme(SftMatrix.full_shift(5), 2, 2)
        assert scheme.q == 5

    def test_infeasible_sft_rejected(self):
        # golden-mean-like graph padded to 5 edges but edge 0 cannot repeat
        # at gap 1 with the required separators everywhere; use a graph
        # where data letters cannot be delimited: a single cycle
        cycle = SftMatrix(((0, 1, 0, 0, 0),
                           (0, 0, 1, 0, 0),
                           (0, 0, 0, 1, 0),
                           (0, 0, 0, 0, 1),
                           (1, 0, 0, 0, 0)))
        with pytest.raises(FeasibilityUnverified):
            find_marker_scheme(cycle, 2, 1)


class TestCodedStretches:
    def test_no_data_letters(self):
        view = coded_stretches([4, 4, 4], 0, SCHEME)
        assert view.stretches == ()

    def test_gap_two_progression(self):
        view = coded_stretches([4, 0, 4, 0, 4, 4, 4], 0, SCHEME)
        assert len(view.stretches) == 1
        s = view.stretches[0]
        assert s.positions == (1, 3)
        # the left probe position -1 is outside the window, so the left
        # end cannot be certified maximal; the right end can
        assert s.left_open and not s.right_open

    def test_edges_open_both_sides(self):
        view = coded_stretches([0, 4, 0, 4, 0], 0, SCHEME)
        assert len(view.stretches) == 1
        s = view.stretches[0]
        assert s.positions == (0, 2, 4)
        assert s.left_open and s.right_open

    def test_certified_total(self):
        view = coded_stretches([4, 4, 0, 4, 0, 4, 4], 0, SCHEME)
        s = view.stretches[0]
        assert s.positions == (2, 4)
        assert not s.left_open and not s.right_open

    def test_interleaved_residues_split(self):
        view = coded_stretches([4, 4, 0, 1, 0, 1, 4, 4, 4], 0, SCHEME)
        positions = {s.positions for s in view.stretches}
        assert positions == {(2, 4), (3, 5)}

    def test_offset_respected(self):
        view = coded_stretches([4, 4, 0, 4, 4], 10, SCHEME)
        assert view.stretches[0].positions == (12,)


class TestReadAt:
    def test_singleton_turnaround(self):
        # letter 1 encodes the pair (0, 1): reading up turns onto the
        # lower row at both ends
        cfg = WindowConfig((4, 4, 1, 4, 4), 0)
        u, l = read_at(cfg, 2, SCHEME, 1)
        assert u == (1, 0, 1)
        assert l == (0, 1, 0)

    def test_constant_data_point(self):
        pp = PeriodicPoint((1,))
        u, l = read_at(pp, 0, SCHEME, 3)
        assert u == (0,) * 7
        assert l == (1,) * 7

    def test_two_point_stretch(self):
        # positions 0, 2 hold (u0,l0) = (0,1), (u1,l1) = (1,0)
        cfg = WindowConfig((4, 4, 1, 4, 2, 4, 4), -2)
        u, l = read_at(cfg, 0, SCHEME, 2)
        # upper row forward reads 0 then 1, turns onto lower row
        assert u[2] == 0 and u[3] == 1 and u[4] == 0
        # lower row from 0 moves left out of the stretch: turn to upper
        assert l[2] == 1 and l[3] == 0

    def test_outside_stretch_rejected(self):
        cfg = WindowConfig((4, 4, 1, 4, 4), 0)
        with pytest.raises(ValueError):
            read_at(cfg, 0, SCHEME, 1)

    def test_context_exhausted(self):
        cfg = WindowConfig((1, 4), 0)
        with pytest.raises(ContextExhausted):
            read_at(cfg, 0, SCHEME, 1)


class TestEmbedCode:
    def test_embed_identity_is_identity(self):
        ident = StabilizedCode.identity(2)
        assert equals(embed_code(ident, SCHEME), StabilizedCode.identity(5))

    def test_embed_flip_action(self):
        e = embed_code(flip(2).forward, SCHEME)
        # non-data letters are copied, data letters flip both rows
        x = PeriodicPoint((0, 4, 3, 4, 4, 4))
        img = apply_to_periodic(e, x)
        assert img == PeriodicPoint((3, 4, 0, 4, 4, 4))

    def test_embed_shift_moves_rows(self):
        e = embed_code(shift_power(2, 1).forward, SCHEME)
        rng = random.Random(6)
        for _ in range(20):
            block = tuple(rng.randrange(5) for _ in range(6))
            x = PeriodicPoint(block)
            assert apply_to_periodic(e, x) == embed_oracle(
                shift_power(2, 1).forward, SCHEME, x
            )

    @pytest.mark.parametrize(
        "name",
        ["flip", "sigma", "sigma_inv", "flip_on_even", "flip.sigma", "sigma.floe"],
    )
    def test_oracle_agreement(self, name):
        auts = {
            "flip": flip(2),
            "sigma": shift_power(2, 1),
            "sigma_inv": shift_power(2, -1),
            "flip_on_even": flip_on_even(2),
            "flip.sigma": aut_compose(flip(2), shift_power(2, 1)),
            "sigma.floe": aut_compose(shift_power(2, 1), flip_on_even(2)),
        }
        code = auts[name].forward
        e = embed_code(code, SCHEME)
        assert e.period == code.period * SCHEME.gap
        assert e.radius == code.radius * SCHEME.gap
        rng = random.Random(hash(name) % 1000)
        for _ in range(25):
            length = rng.choice([4, 6, 8])
            block = tuple(rng.randrange(5) for _ in range(length))
            x = PeriodicPoint(block, rng.randrange(length))
            assert apply_to_periodic(e, x) == embed_oracle(code, SCHEME, x)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 2), st.integers(0, 2), st.integers(5, 6),
        st.integers(0, 2**32 - 1), st.data(),
    )
    def test_oracle_agreement_random_codes(self, period, radius, q, seed, data):
        # radius 2 walks can turn twice; gap 1 keeps that table small
        gap = data.draw(st.integers(1, 3 if radius < 2 else 1))
        rng = np.random.default_rng(seed)
        code = StabilizedCode(2, period, radius, tuple(
            rng.integers(0, 2, 2 ** (2 * radius + 1)) for _ in range(period)))
        scheme = find_marker_scheme(q, 2, gap)
        e = embed_code(code, scheme)
        for _ in range(4):
            length = data.draw(st.integers(1, 8))
            block = data.draw(st.lists(st.integers(0, q - 1), min_size=length, max_size=length))
            x = PeriodicPoint(tuple(block), data.draw(st.integers(0, length - 1)))
            assert apply_to_periodic(e, x) == embed_oracle(code, scheme, x)

    def test_data_pattern_preserved(self):
        e = embed_code(shift_power(2, 1).forward, SCHEME)
        rng = random.Random(8)
        for _ in range(10):
            block = tuple(rng.randrange(5) for _ in range(4))
            x = PeriodicPoint(block)
            img = apply_to_periodic(e, x)
            for z in range(4):
                assert SCHEME.is_data(x.letter(z)) == SCHEME.is_data(img.letter(z))


class TestEmbedAutomorphism:
    def test_verified_inverse_pair(self):
        for aut in (flip(2), shift_power(2, 1), flip_on_even(2)):
            e = embed_automorphism(aut, SCHEME)
            assert verify_inverse_pair(e.forward, e.inverse)

    def test_commutes_with_power(self):
        for aut in (flip(2), shift_power(2, 1), flip_on_even(2)):
            e = embed_automorphism(aut, SCHEME)
            k_r = aut.forward.period * SCHEME.gap
            assert commutes_with_shift_power(e.forward, k_r)

    def test_homomorphism_on_pairs(self):
        pool = [flip(2), shift_power(2, 1), shift_power(2, -1), flip_on_even(2)]
        for f, g in itertools.product(pool, repeat=2):
            composite = aut_compose(f, g)
            lhs = embed_code(composite.forward, SCHEME)
            rhs = compose(embed_code(f.forward, SCHEME), embed_code(g.forward, SCHEME))
            assert equals(lhs, rhs)

    def test_naive_diagonal_action_is_not_multiplicative(self):
        # the lower-row class shift is load-bearing: applying the source
        # code with unshifted classes to both rows breaks multiplicativity
        # for the pair (shift, flip-on-even) at a singleton stretch
        x = PeriodicPoint((1, NON_DATA, NON_DATA, NON_DATA))
        composite = aut_compose(shift_power(2, 1), flip_on_even(2))

        def naive_image(code, x):
            length = lcm(x.period, code.period * SCHEME.gap)
            out = []
            for z in range(length):
                a = x.letter(z)
                if not SCHEME.is_data(a):
                    out.append(a)
                    continue
                u_word, l_word = read_at(x, z, SCHEME, span=code.radius)
                j0 = z // SCHEME.gap
                out.append(SCHEME.data_for(
                    code.evaluate(j0 % code.period, u_word),
                    code.evaluate((-j0) % code.period, l_word),
                ))
            return PeriodicPoint(tuple(out), 0)

        naive_lhs = naive_image(composite.forward, x)
        step = naive_image(flip_on_even(2).forward, x)
        naive_rhs = naive_image(shift_power(2, 1).forward, step)
        assert naive_lhs != naive_rhs  # the defect the class shift repairs
        # the shipped embedding agrees with itself composed
        lhs = apply_to_periodic(embed_code(composite.forward, SCHEME), x)
        rhs = apply_to_periodic(
            compose(embed_code(shift_power(2, 1).forward, SCHEME),
                    embed_code(flip_on_even(2).forward, SCHEME)),
            x,
        )
        assert lhs == rhs

    def test_injective_on_generators(self):
        gens = [flip(2), shift_power(2, 1), flip_on_even(2)]
        embedded = [embed_automorphism(a, SCHEME) for a in gens]
        # separating periodic point: a long stretch plus padding
        probe = PeriodicPoint((1, 4, 2, 4, 0, 4, 4, 4))
        for i, j in itertools.combinations(range(3), 2):
            assert not equals(embedded[i].forward, embedded[j].forward)
            assert apply_to_periodic(embedded[i].forward, probe) != apply_to_periodic(
                embedded[j].forward, probe
            )

    def test_images_inert(self):
        for aut in (flip(2), shift_power(2, 1), flip_on_even(2)):
            e = embed_automorphism(aut, SCHEME)
            assert dimension_multiplier(e).is_zero()


class TestRoundTrip:
    def test_h_then_h_inverse_is_identity(self):
        # decoding rows at each position and re-encoding reproduces the letters
        rng = random.Random(10)
        for _ in range(20):
            length = rng.choice([4, 6])
            block = tuple(rng.randrange(5) for _ in range(length))
            x = PeriodicPoint(block)
            for z in range(length):
                if not SCHEME.is_data(x.letter(z)):
                    continue
                u_word, l_word = read_at(x, z, SCHEME, span=0)
                assert SCHEME.data_for(u_word[0], l_word[0]) == x.letter(z)

    def test_identity_embed_round_trips_files(self):
        ident = letter_permutation(2, Permutation.identity(2))
        e = embed_automorphism(ident, SCHEME)
        assert equals(e.forward, StabilizedCode.identity(5))
