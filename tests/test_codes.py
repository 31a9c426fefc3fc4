import collections
import itertools
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import stabaut.codes
from stabaut.codes import (
    CENSUS_BUDGET,
    MAX_TABLE_ENTRIES,
    WINDOW_CHUNK,
    Automorphism,
    BudgetExceeded,
    CodeSizeExceeded,
    StabilizedCode,
    _bijective_on_periodics,
    _Owned,
    _pin_inverses,
    _power_exceeds,
    _Stack,
    _table_dtype,
    apply_to_periodic,
    aut_commutator,
    aut_compose,
    aut_equals,
    commutes_with_shift_power,
    compose,
    enumerate_automorphisms,
    equals,
    find_inverse,
    subwindow,
    verify_inverse_pair,
    window_chunks,
)
from stabaut.generators import (
    _sub_block_map,
    flip,
    flip_on_even,
    periodic_letter_permutation,
    shift_power,
    symbol_permutation,
)
from stabaut.permlab import Permutation
from stabaut.shifts import (
    PeriodicPoint,
    SftMatrix,
    VerificationFailed,
    index_to_block,
    language_words,
    lcm,
    power_alphabet_index,
)

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
def invertible_codes(draw):
    """A shift power after a letter permutation per class and, over 2 letters
    with period 2, a block permutation after both: inverse radius <= 2."""
    n, k = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    perms = [Permutation(tuple(draw(st.permutations(range(n))))) for _ in range(k)]
    code = compose(StabilizedCode.shift(n, draw(st.integers(-1, 1))),
                   periodic_letter_permutation(n, perms).forward)
    if (n, k) == (2, 2):
        images = tuple(draw(st.permutations(range(4))))
        code = compose(StabilizedCode.from_block_permutation(2, 2, images), code)
    return code


@st.composite
def code_stacks(draw):
    """Up to 5 codes of one shape (n, k, r): each a random table tuple, or
    a shift power of exponent at most r after a letter permutation per
    class, with, over 2 letters at period 2 and radius 1, maybe a block
    permutation after the letter permutations alone."""
    n, k, r = draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            perms = [Permutation(tuple(draw(st.permutations(range(n))))) for _ in range(k)]
            j = draw(st.integers(-r, r))
            letters = periodic_letter_permutation(n, perms).forward
            code = compose(StabilizedCode.shift(n, j), letters)
            if (n, k, r, j) == (2, 2, 1, 0) and draw(st.booleans()):
                images = tuple(draw(st.permutations(range(4))))
                code = compose(StabilizedCode.from_block_permutation(2, 2, images), code)
            codes.append(code.refine(k, r))
        else:
            codes.append(StabilizedCode(n, k, r, tuple(
                rng.integers(0, n, n ** (2 * r + 1)) for _ in range(k))))
    return n, k, r, codes


def seeded_code(seed, n, period, radius):
    rng = np.random.default_rng(seed)
    return StabilizedCode(n, period, radius, tuple(
        rng.integers(0, n, n ** (2 * radius + 1)) for _ in range(period)))


def all_points(n, length, sft=None):
    """Every periodic point of `length` letters, or those admissible for `sft`."""
    ends = None if sft is None else sft.edge_endpoints()
    return [PeriodicPoint(b) for b in itertools.product(range(n), repeat=length)
            if sft is None or all(ends[b[i - 1]][1] == ends[b[i]][0] for i in range(length))]


def witness_length(period, radius, extra=0):
    """The least multiple of `period` of at least 2 * radius + 1 + extra
    letters: the points of that length show every window at every class
    (on the golden mean shift, extra = 2 closes any admissible window)."""
    return -(-(2 * radius + 1 + extra) // period) * period


def same_map(f, g, points):
    return all(apply_to_periodic(f, x) == apply_to_periodic(g, x) for x in points)


def with_entry_changed(code, c, i):
    tables = [np.array(t) for t in code.tables]
    tables[c][i] = (tables[c][i] + 1) % code.n
    return StabilizedCode(code.n, code.period, code.radius, tuple(tables))


# the golden mean shift; edge letters 0: 0->0, 1: 0->1, 2: 1->0
GOLDEN_MEAN = SftMatrix(((1, 1), (1, 0)))


def golden_mean_windows(width, admissible):
    ends = GOLDEN_MEAN.edge_endpoints()
    return [i for i in range(3**width)
            if admissible == all(ends[a][1] == ends[b][0]
                                 for a, b in itertools.pairwise(index_to_block(3, width, i)))]


@st.composite
def small_sfts(draw):
    """An SftMatrix of dimension 1 to 3, entries 0 to 2 and 1 to 4 edges;
    with a sink (the last vertex, no edge out) some widths have no path."""
    dim = draw(st.integers(1, 3))
    sink = dim > 1 and draw(st.booleans())
    cells = draw(st.lists(st.tuples(st.integers(0, dim - 1 - sink), st.integers(0, dim - 1)),
                          min_size=1, max_size=4))
    entries = [[cells.count((i, j)) for j in range(dim)] for i in range(dim)]
    assume(max(map(max, entries)) <= 2)
    return SftMatrix(tuple(map(tuple, entries)))


def sft_window_indices(sft, width):
    """Oracle: the index of every path of `width` edges, word by word."""
    return np.array([power_alphabet_index(sft.edge_count, width, w)
                     for w in language_words(sft, width)], dtype=np.int64)


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


class TestSubBlockMap:
    @given(st.integers(2, 4), st.integers(1, 3), st.data())
    def test_matches_the_scalar_map(self, nk, m, data):
        # output sub-block j is img_j of input sub-block src_j, word by word
        imgs = [data.draw(st.permutations(range(nk))) for _ in range(m)]
        srcs = data.draw(st.permutations(range(m)))
        got = _sub_block_map(nk, list(zip(imgs, srcs)))
        want = []
        for x in range(nk**m):
            blocks = index_to_block(nk, m, x)
            want.append(power_alphabet_index(nk, m, [img[blocks[src]]
                                                      for img, src in zip(imgs, srcs)]))
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestPowerExceeds:
    @given(st.integers(0, 6), st.integers(0, 40), st.integers(0, 10**6), st.integers(1, 5))
    def test_matches_the_power(self, n, e, budget, factor):
        assert _power_exceeds(n, e, budget, factor) == (factor * n**e > budget)

    def test_huge_exponent_decided_by_bit_length(self):
        start = time.perf_counter()
        assert _power_exceeds(2, 10**18, 10**6)
        assert time.perf_counter() - start < 0.1


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


class TestChunkBoundary:
    """Kernels whose result has radius 3 over 5 letters: 5^7 = 78125
    windows, so the dense walk crosses a WINDOW_CHUNK boundary."""

    POINTS = [PeriodicPoint(tuple(random.Random(length).choices(range(5), k=length)), phase)
              for length in (5, 6, 7, 8) for phase in (0, 2)]

    @staticmethod
    def random_code(seed, period, radius):
        rng = np.random.default_rng(seed)
        return StabilizedCode(5, period, radius, tuple(
            rng.integers(0, 5, 5 ** (2 * radius + 1)) for _ in range(period)))

    def test_compose(self):
        f, g = self.random_code(1, 2, 2), self.random_code(2, 1, 1)
        fg = compose(f, g)
        assert fg.tables[0].size > WINDOW_CHUNK
        for x in self.POINTS:
            assert apply_to_periodic(fg, x) == apply_to_periodic(f, apply_to_periodic(g, x))

    def test_refine(self):
        code = self.random_code(3, 2, 1)
        refined = code.refine(2, 3)
        assert refined.tables[0].size > WINDOW_CHUNK
        for x in self.POINTS:
            assert apply_to_periodic(refined, x) == apply_to_periodic(code, x)

    # one chunk (2^15 windows), exactly WINDOW_CHUNK, two chunks of it, 5^7
    # in one chunk (nearer 2^16 than 5^6 is), a single window, 2^17
    # letters one a chunk, and 300^2 in one chunk, not in 300 of 300
    @pytest.mark.parametrize("n, width", [
        (2, 15), (2, 16), (2, 17), (5, 7), (3, 1), (2**17, 1), (300, 2)])
    def test_window_chunks_cover_the_range_in_order(self, n, width):
        pieces = [ch.take(np.arange(n**width)) for ch in window_chunks(n, width)]
        assert all(p.size == n or 0 < p.size**2 <= WINDOW_CHUNK**2 * n for p in pieces)
        assert len(pieces) <= n  # here, at most n chunks a walk
        assert np.array_equal(np.concatenate([p.ravel() for p in pieces]), np.arange(n**width))

    def test_outputs_are_int64_whatever_the_table_dtype(self):
        # indices past 2^15 - 1 overflow int16: the sum must be int64 under
        # NumPy 1's value-based casting as under NEP 50
        table = np.arange(5**7, dtype=np.int16) % 5
        (ch,) = window_chunks(5, 7)
        got = ch.outputs([(table, lo, 1) for lo in range(7)])
        assert got.dtype == np.int64
        assert np.array_equal(np.broadcast_to(got, ch.shape).ravel(), np.arange(5**7))

    @pytest.mark.parametrize("n", [2**7, 2**15])
    def test_one_candidate_at_a_working_type_edge(self, n):
        # m n^len(reads) = n fills the int8 or int16 working type while n
        # itself is one past its max, so the candidate offsets must not
        # multiply by n in that type
        table = np.arange(n, dtype=_table_dtype(n))[None]
        (ch,) = window_chunks(n, 1)
        got = ch.outputs([(table, 0, 1)])
        assert got.dtype == np.int64 and got.tolist() == [list(range(n))]

    @pytest.mark.parametrize("chunk", [WINDOW_CHUNK, 5, 25, 7], ids=lambda c: f"chunk{c}")
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_outputs_match_the_index_oracle(self, chunk, n, data):
        # m n^len(reads) at the bound of the int8 or the int16 working type,
        # or one past it: 2^7 and 2^15 over 2 letters, 2^7 + 1 = 3 * 43 and
        # 2^15 + 1 = 3^2 * 3641 over 3 letters; None: m and n as drawn
        edge = data.draw(st.sampled_from([None, 2**7, 2**7 + 1, 2**15, 2**15 + 1]))
        n = n if edge is None else 2 + edge % 2
        width = data.draw(st.integers(1, 5 if edge else 7))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stabaut.codes, "WINDOW_CHUNK", chunk)
            chunks = list(window_chunks(n, width))
        head = width - chunks[0].s
        kind = data.draw(st.sampled_from(["sliding", "growing", "prefix", "any"]))
        if kind == "sliding":  # compose and the inverse pins: one width, lo = a, a + 1, ...
            w = data.draw(st.integers(1, width))
            first = data.draw(st.integers(0, width - w))
            spans = [(lo, w) for lo in range(first, data.draw(st.integers(first, width - w)) + 1)]
        elif kind == "growing":  # the ray count: reads grow from slot 0, then slide
            w = data.draw(st.integers(1, width))
            spans = [(0, v) for v in range(1, w + 1)] + [(lo, w) for lo in range(1, width - w + 1)]
        else:
            span = st.integers(0, width - 1).flatmap(
                lambda lo: st.tuples(st.just(lo), st.integers(1, width - lo)))
            spans = data.draw(st.lists(span, min_size=1, max_size=6))
            if kind == "prefix" and head:  # reads wholly in the prefix, among the others
                inside = st.integers(0, head - 1).flatmap(
                    lambda lo: st.tuples(st.just(lo), st.integers(1, head - lo)))
                for read in data.draw(st.lists(inside, min_size=1, max_size=3)):
                    spans.insert(data.draw(st.integers(0, len(spans))), read)
        m = data.draw(st.sampled_from([None, 0, 1, 2, 3]))  # None: no candidate axis
        if edge:
            # at most as many reads as the largest power of n dividing the edge
            spans = spans[:max(e for e in range(16) if edge % n**e == 0)]
            m = edge // n ** len(spans)
            assert m * n ** len(spans) == edge
        lead = () if m is None else (m,)
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        dtype = data.draw(st.sampled_from([np.int8, np.int16, np.int64, np.uint8]))
        tables = [rng.integers(0, n, lead + (n**w,)).astype(dtype) for _, w in spans]
        idx = np.arange(n**width)
        want = np.arange(m or 0)[:, None] if lead else 0  # i n^len(spans) once folded
        for table, (lo, w) in zip(tables, spans):
            want = want * n + table[..., subwindow(idx, n, width, lo, w)].astype(np.int64)
        reads = [(table, lo, w) for table, (lo, w) in zip(tables, spans)]
        # one store of kept sums shared by every chunk, as a walk holds it, or none
        kept = {} if data.draw(st.booleans()) else None
        got = [ch.outputs(reads, kept) for ch in chunks]
        assert all(g.dtype == np.int64 for g in got)
        got = [np.broadcast_to(g, lead + ch.shape).reshape(lead + (n**ch.s,)) for g, ch in zip(got, chunks)]
        assert np.array_equal(np.concatenate(got, axis=-1), np.broadcast_to(want, lead + idx.shape))

    def test_sum_order(self):
        # the ray count's reads grow from the first slot: the left fold, but
        # for reads 7 and 8, which lie in the free slots and are added once a
        # walk; its int8 tables are cast to the int32 working type
        ray = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 7), (2, 7))
        assert stabaut.codes._sum_order(4, 9, 8, ray, True) == tuple(
            (0, j, 4, False) for j in range(1, 7)) + ((7, 8, 4, True), (0, 7, 16, False))
        # the benchmark's (4,2) after (2,2) pair over 5 letters, whose int8
        # tables are cast to the int16 working type: reads 2..4 are summed
        # once a walk, then joined with reads 0..1
        compose_reads = tuple((lo, 5) for lo in range(5))
        assert stabaut.codes._sum_order(5, 9, 7, compose_reads, True) == (
            (0, 1, 5, False), (3, 4, 5, True), (2, 3, 25, True), (0, 2, 125, False))
        # a walk of one chunk keeps no step
        one_chunk = stabaut.codes._sum_order(5, 7, 7, compose_reads[:3], False)
        assert not any(kept for *_, kept in one_chunk)

    def test_kept_sums_are_made_once_a_walk(self, monkeypatch):
        # the benchmark's pair: 25 chunks of 5^7 windows, whose free slots
        # hold reads 2..4 whole, so each is taken once for each class of g
        f, g = seeded_code(1, 5, 4, 2), seeded_code(2, 5, 2, 2)
        free = collections.Counter()
        take = stabaut.codes.WindowChunk.take
        def counted(ch, table, lo=0, w=None):
            free[lo, w] += lo >= ch.width - ch.s > 0  # not the structure checks' one chunk
            return take(ch, table, lo, w)
        monkeypatch.setattr(stabaut.codes.WindowChunk, "take", counted)
        compose(f, g)
        assert +free == {(2, 5): 2, (3, 5): 2, (4, 5): 2}
        # a walk of one chunk keeps nothing
        (ch,) = window_chunks(5, 7)
        kept = {}
        ch.outputs([(f.tables[0], lo, 5) for lo in range(3)], kept)
        assert kept == {}

    def test_sum_order_is_chosen_once_a_walk(self):
        # the benchmark's pair: 25 chunks of 5^7 windows, each read twice,
        # once for each class of g, at the same spans
        f, g = seeded_code(1, 5, 4, 2), seeded_code(2, 5, 2, 2)
        stabaut.codes._sum_order.cache_clear()
        compose(f, g)
        info = stabaut.codes._sum_order.cache_info()
        assert (info.misses, info.hits) == (1, 49)

    @given(st.integers(2, 5), st.data())
    def test_take_reads_the_subwindow(self, n, data):
        width = data.draw(st.integers(1, 7))
        lo = data.draw(st.integers(0, width - 1))
        w = data.draw(st.integers(1, width - lo))
        chunk = data.draw(st.integers(1, n**width))
        table = np.random.default_rng(data.draw(st.integers(0, 99))).integers(0, 99, n**w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stabaut.codes, "WINDOW_CHUNK", chunk)
            got = [np.broadcast_to(ch.take(table, lo, w), ch.shape).ravel()
                   for ch in window_chunks(n, width)]
        want = table[subwindow(np.arange(n**width), n, width, lo, w)]
        assert np.array_equal(np.concatenate(got), want)


class TestSmallChunks:
    """The walking kernels with chunks of one to four letters, so that every
    read straddles the split between a chunk's prefix and free letters."""

    @staticmethod
    def points(n):
        rng = random.Random(n)
        return [PeriodicPoint(tuple(rng.choices(range(n), k=length)), phase)
                for length in (1, 4, 5, 6, 7) for phase in (0, 3 % length)]

    @pytest.mark.parametrize("n, shapes", [
        (2, ((2, 1), (3, 2))),  # radius 3: 2^7 windows
        (3, ((2, 1), (1, 1))),
        (5, ((2, 1), (2, 1))),  # 5^5 windows in chunks of one or two letters
    ])
    def test_compose_and_refine(self, small_chunk, n, shapes):
        (kf, rf), (kg, rg) = shapes
        f, g = seeded_code(1, n, kf, rf), seeded_code(2, n, kg, rg)
        fg = compose(f, g)
        refined = f.refine(2 * kf, rf + 1)
        for x in self.points(n):
            assert apply_to_periodic(fg, x) == apply_to_periodic(f, apply_to_periodic(g, x))
            assert apply_to_periodic(refined, x) == apply_to_periodic(f, x)

    def test_equals(self, small_chunk):
        # radius 3 over 2 letters: 2^7 windows in chunks of 4 to 32
        f = seeded_code(3, 2, 2, 1)
        big = f.refine(4, 3)
        points = all_points(2, witness_length(4, 3))
        # the last code differs from f at the last window only: in the last chunk
        cases = [big, seeded_code(5, 2, 1, 2), with_entry_changed(big, 1, 37),
                 with_entry_changed(big, 3, big.tables[3].size - 1)]
        assert [equals(f, g) for g in cases] == [True, False, False, False]
        for g in cases:
            assert equals(f, g) == equals(g, f) == same_map(f, g, points)

    def test_equals_on_a_shift_of_finite_type(self, small_chunk):
        f = seeded_code(6, 3, 2, 1)
        big = f.refine(2, 2)
        outside = with_entry_changed(big, 0, golden_mean_windows(5, False)[-1])
        for i in golden_mean_windows(5, False)[::7]:
            outside = with_entry_changed(outside, 1, i)
        inside = with_entry_changed(outside, 1, golden_mean_windows(5, True)[-1])
        points = all_points(3, witness_length(2, 2, extra=2), GOLDEN_MEAN)
        for g, want in ((big, True), (outside, True), (inside, False)):
            assert equals(f, g, GOLDEN_MEAN) == equals(g, f, GOLDEN_MEAN) == want
            assert same_map(f, g, points) == want
        assert not equals(f, outside) and not equals(f, inside)

    @pytest.mark.parametrize("pattern", [(0,), (0, 1), (0, 0, 1), (0, 1, 0, 1), (0, 1, 2, 0)])
    def test_commutes_with_shift_power(self, small_chunk, pattern):
        pool = seeded_code(7, 2, 3, 1).tables
        code = StabilizedCode(2, len(pattern), 1, tuple(pool[p] for p in pattern))
        points = all_points(2, witness_length(code.period, 1))
        got = []
        for m in (1, 2, 3, 4, 6):
            got.append(commutes_with_shift_power(code, m))
            assert got[-1] == all(apply_to_periodic(code, x.shifted(m))
                                  == apply_to_periodic(code, x).shifted(m) for x in points)
        # the pool's tables differ, so commutation is invariance of the pattern
        k = len(pattern)
        assert got == [pattern == pattern[m % k:] + pattern[:m % k] for m in (1, 2, 3, 4, 6)]

    def test_commutes_on_a_shift_of_finite_type(self, small_chunk):
        base = seeded_code(8, 3, 1, 1)
        other = base
        for i in golden_mean_windows(3, False):
            other = with_entry_changed(other, 0, i)
        code = StabilizedCode(3, 2, 1, (base.tables[0], other.tables[0]))
        points = all_points(3, witness_length(2, 1, extra=2), GOLDEN_MEAN)
        assert all(apply_to_periodic(code, x.shifted(1)) == apply_to_periodic(code, x).shifted(1)
                   for x in points)
        assert commutes_with_shift_power(code, 1, GOLDEN_MEAN)
        assert not commutes_with_shift_power(code, 1)

    @pytest.mark.parametrize("n, period", [(2, 2), (3, 2), (2, 3)])
    def test_find_inverse(self, small_chunk, n, period):
        rng = random.Random(n * period)
        perms = [Permutation(tuple(rng.sample(range(n), n))) for _ in range(period)]
        code = compose(StabilizedCode.shift(n, 1), periodic_letter_permutation(n, perms).forward)
        inv = find_inverse(code, 2)
        assert inv.radius == 1
        points = all_points(n, witness_length(period, 2))
        for x in points:
            assert apply_to_periodic(inv, apply_to_periodic(code, x)) == x
            assert apply_to_periodic(code, apply_to_periodic(inv, x)) == x
        # random codes of radius 1 merge two points of length 6: no inverse
        for seed in range(3):
            stuck = seeded_code(seed, n, period, 1)
            assert len({apply_to_periodic(stuck, x) for x in all_points(n, 6)}) < n**6
            assert find_inverse(stuck, 2) is None

    def test_find_inverse_conflict_in_the_last_chunk(self, small_chunk):
        # the centre letter, but 0 at the all-ones window, the last one: its
        # pin conflicts with a write of an earlier chunk.  No verification
        # follows the walk, so a walk that missed it would return a candidate
        table = (np.arange(2**5) >> 2) & 1
        table[-1] = 0
        code = StabilizedCode(2, 1, 2, (table,))
        assert apply_to_periodic(code, PeriodicPoint((1,))) == PeriodicPoint((0,))
        assert find_inverse(code, 0) is None

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(invertible_codes())
    def test_find_inverse_of_an_invertible_code(self, small_chunk, code):
        inv = find_inverse(code, 2)
        assert compose(inv, code).shift_by == 0 and compose(code, inv).shift_by == 0
        # sending the letter 1 to 0 merges points: no inverse at any radius
        merge = np.arange(code.n)
        merge[1] = 0
        assert find_inverse(compose(StabilizedCode(code.n, 1, 0, (merge,)), code), 2) is None

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(small_sfts(), st.data())
    def test_sft_forms_against_the_word_oracle(self, small_chunk, sft, data):
        n = sft.edge_count
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        periods, radii = st.integers(1, 3), st.integers(0, 2)

        def tables(count, radius):
            return [rng.integers(0, n, n ** (2 * radius + 1)) for _ in range(count)]

        def maybe_changed(code):
            """The code, or the code with one entry changed: at any window,
            or at a path of `sft` when it has one."""
            where = data.draw(st.sampled_from(["nowhere", "anywhere", "on a path"]))
            paths = sft_window_indices(sft, 2 * code.radius + 1)
            if where == "nowhere":
                return code
            windows = paths if where == "on a path" and paths.size else range(code.tables[0].size)
            return with_entry_changed(code, data.draw(st.integers(0, code.period - 1)),
                                      int(data.draw(st.sampled_from(windows))))

        k, r = data.draw(periods), data.draw(radii)
        f = StabilizedCode(n, k, r, tuple(tables(k, r)))
        if data.draw(st.booleans()):
            g = f.refine(k * data.draw(st.integers(1, 2)), data.draw(st.integers(r, 2)))
        else:
            k, r = data.draw(periods), data.draw(radii)
            g = StabilizedCode(n, k, r, tuple(tables(k, r)))
        g = maybe_changed(g)
        period, radius = lcm(f.period, g.period), max(f.radius, g.radius)
        idx = sft_window_indices(sft, 2 * radius + 1)
        want = all(np.array_equal(f.refine(period, radius).tables[c][idx],
                                  g.refine(period, radius).tables[c][idx]) for c in range(period))
        assert equals(f, g, sft) == equals(g, f, sft) == want
        # classes drawn from two tables, so that some shifts move the code onto itself
        r = data.draw(radii)
        pool = tables(2, r)
        pattern = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
        code = maybe_changed(StabilizedCode(n, len(pattern), r, tuple(pool[p] for p in pattern)))
        idx, k = sft_window_indices(sft, 2 * r + 1), code.period
        for m in range(1, 5):
            assert commutes_with_shift_power(code, m, sft) == all(
                np.array_equal(code.tables[c][idx], code.tables[(c + m) % k][idx]) for c in range(k))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(small_sfts(), st.data())
    def test_commutes_against_the_moved_code(self, small_chunk, sft, data):
        # the oracle: equality with the code whose classes are moved by m
        n = sft.edge_count
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        r = data.draw(st.integers(0, 2))
        pool = [rng.integers(0, n, n ** (2 * r + 1)) for _ in range(2)]
        pattern = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
        code = StabilizedCode(n, len(pattern), r, tuple(pool[p] for p in pattern))
        if data.draw(st.booleans()):
            code = with_entry_changed(code, data.draw(st.integers(0, code.period - 1)),
                                      data.draw(st.integers(0, n ** (2 * r + 1) - 1)))
        k = code.period
        for m in range(1, 6):
            moved = StabilizedCode(n, k, r, code.tables[m % k:] + code.tables[:m % k])
            for on in (None, sft):
                assert commutes_with_shift_power(code, m, on) == equals(code, moved, on)

    def test_structure_is_read_over_every_window(self, small_chunk):
        shift = shift_power(5, -2).forward
        block = symbol_permutation(2, 3, Permutation((3, 0, 1, 2, 7, 4, 5, 6))).forward
        assert StabilizedCode(5, 1, 2, shift.tables).shift_by == -2
        assert StabilizedCode(2, 3, 2, block.tables).block_map == (3, 0, 1, 2, 7, 4, 5, 6)
        for code in (shift, block):
            size = code.tables[0].size
            probed = set((np.arange(1, 9) * 2654435761 % size).tolist())
            changed = with_entry_changed(code, 0, max(set(range(size)) - probed))
            assert (changed.shift_by, changed.block_map) == (None, None)


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWalkMemory:
    """A walking kernel holds its output tables, which the constructor keeps
    without a copy, and a few chunk-sized temporaries; a check that reads
    tables in place holds only the temporaries."""

    @pytest.mark.parametrize("n, shapes", [
        (5, ((4, 2), (2, 2))),  # the benchmark's pair: 5^9 windows in chunks of 5^7
        (2, ((2, 4), (1, 4))),  # 2^17 windows: two full chunks
    ])
    def test_compose(self, n, shapes):
        (kf, rf), (kg, rg) = shapes
        f, g = seeded_code(1, n, kf, rf), seeded_code(2, n, kg, rg)
        fg, peak = traced_peak(lambda: compose(f, g))
        assert peak < sum(t.nbytes for t in fg.tables) + 4 * WINDOW_CHUNK * 8

    def test_find_inverse(self):
        # no inverse up to radius 3: candidate tables of up to 5^7 entries,
        # and 5^9 windows to walk at radius 3
        code = seeded_code(1, 5, 1, 1)
        inv, peak = traced_peak(lambda: find_inverse(code, 3))
        assert inv is None
        assert peak < 5**7 * 2 + 4 * WINDOW_CHUNK * 8

    def test_equals(self):
        # the benchmark's shape: 4 tables of 5^9 entries against radius 2
        f = seeded_code(1, 5, 4, 2)
        f_big = f.refine(4, 4)
        for g in (f_big, with_entry_changed(f_big, 3, f_big.tables[3].size - 1)):
            same, peak = traced_peak(lambda: equals(f, g))
            assert same == (g is f_big)
            assert peak < 4 * WINDOW_CHUNK * 8

    def test_equals_on_a_shift_of_finite_type(self):
        # 3^13 windows of the full 3-shift, every one a path: time and memory of the walk
        f = seeded_code(1, 3, 2, 6)
        g = with_entry_changed(f, 1, 3**13 // 2)
        full = SftMatrix.full_shift(3)
        start = time.perf_counter()
        assert equals(f, f, full) and not equals(f, g, full)
        assert time.perf_counter() - start < 5
        for h in (f, g):
            same, peak = traced_peak(lambda: equals(f, h, full))
            assert same == (h is f)
            assert peak < 8 * WINDOW_CHUNK * 8

    def test_verify_inverse_pair(self):
        # period 4 and radius 2 each way over 5 letters: the composite would
        # be 4 tables of 5^9 entries, and the walk holds no table of them
        perms = [[Permutation(tuple(random.Random(4 * i + c).sample(range(5), 5)))
                  for c in range(4)] for i in range(2)]
        a, b = (aut_compose(shift_power(5, 1), periodic_letter_permutation(5, p)) for p in perms)
        aut = aut_compose(a, b)
        for code in (aut.forward, aut.inverse):
            assert (code.period, code.radius, code.shift_by, code.block_map) == (4, 2, None, None)
        ok, peak = traced_peak(lambda: verify_inverse_pair(aut.forward, aut.inverse))
        assert ok
        assert peak < 8 * WINDOW_CHUNK * 8


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

    def test_huge_shift_refused_before_the_power(self):
        # 3^(2*10^6+1) has about 10^6 digits: neither computed nor printed
        start = time.perf_counter()
        with pytest.raises(CodeSizeExceeded, match=r"3\^2000001 entries"):
            StabilizedCode.shift(3, 10**6)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("build", [
        lambda: StabilizedCode(3, 1, 10**6, (np.zeros(3, dtype=int),)),
        lambda: StabilizedCode.from_block_permutation(3, 10**6, (0, 1, 2)),
    ], ids=["constructor", "block-permutation"])
    def test_huge_shape_refused_before_anything_is_built(self, build):
        # the shape is checked against the budget before n^(2r+1) or n^k is computed
        start = time.perf_counter()
        with pytest.raises(CodeSizeExceeded):
            build()
        assert time.perf_counter() - start < 0.01


    def test_a_dense_code_is_rejected_in_the_first_chunk(self, monkeypatch):
        # 5-letter (4, 4) tables: 25 chunks of 5^7 windows.  Table 0 reads 1
        # at one single-1 window, so the shift check walks too
        rng = np.random.default_rng(9)
        tables = [rng.integers(0, 5, 5**9, dtype=np.int16) for _ in range(4)]
        tables[0][5 ** np.arange(9)] = np.arange(9) == 4
        prefixes = []
        take = stabaut.codes.WindowChunk.take
        def counted(ch, *args):
            prefixes.append(ch.prefix)
            return take(ch, *args)
        monkeypatch.setattr(stabaut.codes.WindowChunk, "take", counted)
        code = StabilizedCode(5, 4, 4, tuple(tables))
        assert (code.shift_by, code.block_map) == (None, None)
        # two reads for the shift check, two for class 0 of the block check
        assert prefixes == [0, 0, 0, 0]


def counted_walks(monkeypatch):
    """[_same calls, windows walked], counted from now on."""
    counts = [0, 0]
    same, chunks = stabaut.codes._same, stabaut.codes.window_chunks
    def counted_same(*args):
        counts[0] += 1
        return same(*args)
    def counted_chunks(n, width):
        for ch in chunks(n, width):
            counts[1] += n**ch.s
            yield ch
    monkeypatch.setattr(stabaut.codes, "_same", counted_same)
    monkeypatch.setattr(stabaut.codes, "window_chunks", counted_chunks)
    return counts


class TestStructureOnDemand:
    """The constructor only validates; shift_by and block_map are read off
    the tables when first asked, and cached."""

    def test_census_codes_are_built_without_a_walk(self, monkeypatch):
        counts = counted_walks(monkeypatch)
        auts = enumerate_automorphisms(2, 1, 2)
        assert 2 * len(auts) == 216 and counts[0] == 0

    def test_compose_and_owned_tables_build_without_a_walk(self, monkeypatch):
        f, g = seeded_code(1, 3, 2, 1), seeded_code(2, 3, 1, 1)
        assert (f.shift_by, f.block_map, g.shift_by, g.block_map) == (None,) * 4
        counts = counted_walks(monkeypatch)
        fg = compose(f, g)
        code = StabilizedCode(3, 2, 1, _Owned(np.array(t) for t in f.tables))
        assert counts[0] == 0
        assert (fg.block_map, code.block_map) == (None, None) and counts[0] > 0

    def test_block_map_walks_once_when_first_read(self, monkeypatch):
        code = FLIP_ON_EVEN.refine(2, 1)
        assert code.shift_by is None
        counts = counted_walks(monkeypatch)
        assert code.block_map == (2, 3, 0, 1) and counts[0] == 1
        assert code.block_map == (2, 3, 0, 1) and counts[0] == 1

    def test_radius_zero_block_map_walks_no_window(self, monkeypatch):
        # every class's block is its whole 1-letter window: only the shift
        # check walks, over the 2 windows
        tables = [np.array([1, 0]) if c % 3 else np.array([0, 1]) for c in range(8)]
        counts = counted_walks(monkeypatch)
        code = StabilizedCode(2, 8, 0, tuple(tables))
        assert counts == [0, 0]
        assert code.shift_by is None and counts == [1, 2]
        assert code.block_map == tuple(b ^ 0b01101101 for b in range(256)) and counts == [2, 2]

    def test_reads_compared_share_a_dtype(self, monkeypatch):
        # a pair of reads of two dtypes would make _same compare every chunk
        # through a buffered cast
        pairs = []
        same = stabaut.codes._same
        def checked_same(n, width, reads, sft=None):
            pairs.extend((a[0].dtype, b[0].dtype) for a, b in reads)
            return same(n, width, reads, sft)
        monkeypatch.setattr(stabaut.codes, "_same", checked_same)
        shift = StabilizedCode(5, 1, 2, shift_power(5, -2).forward.tables)
        wide = StabilizedCode(40000, 1, 0, (np.arange(40000),))
        assert (shift.shift_by, wide.shift_by) == (-2, 0)
        blocks = StabilizedCode(2, 2, 1, FLIP_ON_EVEN.refine(2, 1).tables)
        assert blocks.shift_by is None and blocks.block_map == (2, 3, 0, 1)
        f, g = seeded_code(3, 3, 2, 1), seeded_code(4, 3, 1, 2)
        assert not equals(f, g) and not equals(f, g, GOLDEN_MEAN)
        assert not commutes_with_shift_power(f, 1)
        assert len(pairs) >= 6 and {str(b) for _, b in pairs} == {"int8", "int32"}
        assert all(a == b for a, b in pairs)


class TestTableValidation:
    """The constructor validates every table before the narrowing cast."""

    @pytest.mark.parametrize("table, message", [
        (np.array([0.9, 1.2]), "table 0 has dtype float64"),
        (np.array([0, 65537], dtype=np.int64), "table 0 entry 1 out of range: 65537"),
        ([0, 70000], "table 0 entry 1 out of range: 70000"),
        (np.array([False, True]), "table 0 has dtype bool"),
        (np.array([0, -1], dtype=">i2"), "table 0 entry 1 out of range: -1"),
        (np.array([0, 255], dtype=np.uint8), "table 0 entry 1 out of range: 255"),
    ], ids=["float", "int64-wrapping-to-identity", "list-past-int16", "bool", "big-endian-int16",
            "uint8"])
    def test_bad_table_refused(self, table, message):
        with pytest.raises(ValueError, match=message):
            StabilizedCode(2, 1, 0, (table,))

    def test_letters_past_the_dtype_are_checked_for_sign(self):
        # n - 1 = 199 is past int8's 127, so only a negative entry is out of range
        table = (np.arange(200) % 128).astype(np.int8)
        assert StabilizedCode(200, 1, 0, (table,)).tables[0].tolist() == table.tolist()
        table[150] = -100
        with pytest.raises(ValueError, match="table 0 entry 150 out of range: -100"):
            StabilizedCode(200, 1, 0, (table,))

    @pytest.mark.parametrize("shape", [
        (2.0, 1, 0), (2, 1.0, 0), (2, 1, 0.0), (True, 1, 0), (2, True, 0), (2, 1, False),
        (np.int64(2), 1, 0), ("2", 1, 0), (0, 1, 0), (2, 0, 0), (2, 1, -1),
    ], ids=["float-n", "float-period", "float-radius", "bool-n", "bool-period", "bool-radius",
            "numpy-n", "str-n", "zero-n", "zero-period", "negative-radius"])
    def test_bad_shape_refused(self, shape):
        with pytest.raises(ValueError, match="bad code shape"):
            StabilizedCode(*shape, ([1, 0],))

    def test_caller_arrays_are_copied_once_each(self):
        # mutating a caller's array after construction leaves the code as it
        # was, and two classes given one array share one read-only copy
        table = np.array([1, 0])
        code = StabilizedCode(2, 2, 0, (table, table))
        table[0] = 0
        assert [t.tolist() for t in code.tables] == [[1, 0], [1, 0]]
        assert code.tables[0] is code.tables[1] and not code.tables[0].flags.writeable
        assert code.block_map == (3, 2, 1, 0)

    def test_read_only_arrays_of_the_table_dtype_are_copied_too(self):
        # the owner of a read-only array may make it writeable again
        table = np.array([1, 0], dtype=_table_dtype(2))
        table.flags.writeable = False
        code = StabilizedCode(2, 1, 0, (table,))
        table.flags.writeable = True
        table[0] = 0
        assert code.tables[0].tolist() == [1, 0] and code.tables[0] is not table

    def test_message_names_the_table_and_the_count(self):
        with pytest.raises(ValueError, match="table 1 entry 1 out of range: -1"):
            StabilizedCode(2, 2, 0, (np.array([0, 1]), np.array([1, -1])))
        with pytest.raises(ValueError, match="table 0 has 3 entries, expected 2"):
            StabilizedCode(2, 1, 0, ([0, 1, 1],))
        with pytest.raises(ValueError, match="expected 2 tables, found 1"):
            StabilizedCode(2, 2, 0, ([0, 1],))


# 12 letters: the first alphabet where a letter times n wraps int8; 126
# and 127: the last of one-byte letters; 128: the first of two-byte ones
DTYPE_EDGES = [12, 126, 127, 128]


def edge_points(n, seed):
    """Periodic points over n letters, one of them spelling the top letters."""
    rng = random.Random(seed)
    points = [PeriodicPoint((n - 1, n - 2, 0, n - 1))]
    for length in (1, 2, 3, 5, 6):
        points.append(PeriodicPoint(tuple(rng.choices(range(n), k=length)), rng.randrange(length)))
    return points


def letter_permutations(n, seed, k):
    rng = random.Random(seed)
    return [Permutation(tuple(rng.sample(range(n), n))) for _ in range(k)]


@pytest.mark.parametrize("n", DTYPE_EDGES)
class TestLetterDtypeEdges:
    """The table kernels at the alphabets where the letter dtype, or a
    letter times n in it, changes, against the scalar oracle.  Codes have
    radius <= 1; where n^5 windows would pass the table budget, the code
    read first or inverted has radius 0."""

    @staticmethod
    def small_radius(n):
        return 1 if 2 * n**5 <= MAX_TABLE_ENTRIES else 0

    def test_tables_take_the_chosen_dtype(self, n):
        code = seeded_code(1, n, 2, 1)
        assert {t.dtype for t in code.tables} == {np.dtype(np.int8 if n < 128 else np.int16)}
        assert {t.dtype for t in code.refine(4, 1).tables} == {code.tables[0].dtype}

    def test_compose(self, n):
        f, g = seeded_code(1, n, 2, 1), seeded_code(2, n, 1, self.small_radius(n))
        fg = compose(f, g)
        assert fg.tables[0].dtype == _table_dtype(n)
        for x in edge_points(n, 3):
            assert apply_to_periodic(fg, x) == apply_to_periodic(f, apply_to_periodic(g, x))

    def test_refine(self, n):
        radius = self.small_radius(n)
        code = seeded_code(4, n, 1, radius)
        refined = code.refine(2, radius + 1)
        assert equals(code, refined)
        for x in edge_points(n, 5):
            assert apply_to_periodic(refined, x) == apply_to_periodic(code, x)

    def test_equals(self, n):
        code = seeded_code(6, n, 1, 1)
        assert equals(code, code.refine(2, 1))
        # the window of the top letters, whose index is the last
        last = n**3 - 1
        changed = with_entry_changed(code, 0, last)
        assert not equals(code, changed) and not equals(changed, code.refine(3, 1))
        x = PeriodicPoint(tuple(index_to_block(n, 3, last)))
        assert apply_to_periodic(changed, x) != apply_to_periodic(code, x)

    def test_find_inverse(self, n):
        j = self.small_radius(n)
        code = compose(StabilizedCode.shift(n, j),
                       periodic_letter_permutation(n, letter_permutations(n, 7, 2)).forward)
        inverse = find_inverse(code, 1)
        assert inverse.radius == j and verify_inverse_pair(code, inverse)
        for x in edge_points(n, 8):
            assert apply_to_periodic(inverse, apply_to_periodic(code, x)) == x
        # a letter map sending n - 2 and n - 1 to one letter has no inverse
        clash = StabilizedCode(n, 1, 0, (np.minimum(np.arange(n), n - 2),))
        assert find_inverse(clash, 1) is None
        assert (apply_to_periodic(clash, PeriodicPoint((n - 1,)))
                == apply_to_periodic(clash, PeriodicPoint((n - 2,))))

    def test_structure(self, n):
        shift = shift_power(n, 1).forward
        assert shift.shift_by == 1 and shift.block_map is None
        for x in edge_points(n, 9):
            assert apply_to_periodic(shift, x) == x.shifted(1)
        perms = letter_permutations(n, 10, 2)
        blocks = periodic_letter_permutation(n, perms).forward
        assert blocks.shift_by is None
        images = blocks.block_map
        for b in (0, n**2 - n - 2, n**2 - 1):
            x, image = (PeriodicPoint(tuple(index_to_block(n, 2, v))) for v in (b, images[b]))
            assert apply_to_periodic(blocks, x) == image
        assert compose(shift, blocks).shift_by is None


class TestIdentity:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_is_the_zeroth_shift(self, n):
        for code in (StabilizedCode.identity(n), StabilizedCode.shift(n, 0)):
            assert (code.period, code.radius, code.shift_by) == (1, 0, 0)
            assert code.tables[0].dtype == _table_dtype(n)
            assert code.tables[0].tolist() == list(range(n))

    def test_refused_before_allocating(self):
        _, peak = traced_peak(lambda: pytest.raises(
            CodeSizeExceeded, StabilizedCode.identity, MAX_TABLE_ENTRIES + 1))
        assert peak < 2**20


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

    def test_equals_refuses_what_refine_refuses(self):
        # the common shape, 2^13 classes of 2^13 windows, is past the budget
        rng = np.random.default_rng(9)
        f = StabilizedCode(2, 2**13, 0, tuple(rng.permuted([0, 1]) for _ in range(2**13)))
        g = seeded_code(10, 2, 1, 6)
        with pytest.raises(CodeSizeExceeded):
            f.refine(2**13, 6)
        for sft in (None, SftMatrix(((1, 1), (1, 1)))):
            with pytest.raises(CodeSizeExceeded):
                equals(f, g, sft)
            with pytest.raises(CodeSizeExceeded):
                equals(g, f, sft)
        assert equals(f, f) and equals(g, g)

    def test_equals_of_blockwise_codes_refuses_what_refine_refuses(self, monkeypatch):
        # both codes act blockwise, and their common shape, 12 classes of
        # 2^9 windows, is past the budget: no block map answers past it
        flip_letters, keep = Permutation((1, 0)), Permutation((0, 1))
        f = periodic_letter_permutation(2, [flip_letters, keep, keep]).forward.refine(3, 4)
        g = periodic_letter_permutation(2, [flip_letters, keep, flip_letters, keep]).forward
        monkeypatch.setattr(stabaut.codes, "MAX_TABLE_ENTRIES", 2000)
        assert f.block_map is not None and g.block_map is not None
        refused = re.escape("12 tables of 2^9 entries exceed the exact-check budget of 2000")
        with pytest.raises(CodeSizeExceeded, match=refused):
            f.refine(12, 4)
        for a, b in ((f, g), (g, f)):
            with pytest.raises(CodeSizeExceeded, match=refused):
                equals(a, b)

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

    def test_sft_path_mask_is_read_once_per_chunk(self, monkeypatch):
        # the path table is boolean and the code tables are not: each chunk
        # reads it width - 1 times, whatever the period
        f = seeded_code(5, 3, 8, 5)
        reads = []
        take = stabaut.codes.WindowChunk.take
        def counted(ch, table, *args):
            reads.append(table.dtype == bool)
            return take(ch, table, *args)
        monkeypatch.setattr(stabaut.codes.WindowChunk, "take", counted)
        assert equals(f, f, GOLDEN_MEAN)
        chunks = len(list(window_chunks(3, 11)))
        assert sum(reads) == 10 * chunks
        assert len(reads) - sum(reads) == 2 * 8 * chunks

    def test_sft_alphabet_must_be_the_code_alphabet(self):
        # over 3 letters f and g differ only at the letter 2, which no edge
        # of the 2-shift names
        f = StabilizedCode(3, 1, 0, (np.array([0, 1, 2]),))
        g = StabilizedCode(3, 1, 0, (np.array([0, 1, 0]),))
        code = StabilizedCode(3, 2, 0, f.tables + g.tables)
        assert not equals(f, g) and not commutes_with_shift_power(code, 1)
        with pytest.raises(ValueError, match="alphabet mismatch: 3 letters, 2 SFT edges"):
            equals(f, g, SftMatrix.full_shift(2))
        with pytest.raises(ValueError, match="alphabet mismatch: 3 letters, 2 SFT edges"):
            commutes_with_shift_power(code, 1, SftMatrix.full_shift(2))


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

    def test_huge_power_builds_no_refinement(self):
        # refined to period lcm(2, m), the code would need 10^9 tables
        start = time.perf_counter()
        assert commutes_with_shift_power(FLIP_ON_EVEN, 10**9)
        assert not commutes_with_shift_power(FLIP_ON_EVEN, 10**9 + 1)
        assert time.perf_counter() - start < 0.1

    def test_sft_form_builds_no_code(self, monkeypatch):
        built = []
        init = StabilizedCode.__post_init__
        monkeypatch.setattr(StabilizedCode, "__post_init__",
                            lambda code: built.append(code) or init(code))
        full = SftMatrix.full_shift(2)
        assert commutes_with_shift_power(FLIP_ON_EVEN, 2, full)
        assert not commutes_with_shift_power(FLIP_ON_EVEN, 1, full)
        assert built == []

    def test_own_period_always_commutes(self):
        for code in (FLIP, SIGMA, FLIP_ON_EVEN, compose(FLIP_ON_EVEN, SIGMA)):
            assert commutes_with_shift_power(code, code.period)

    def test_multiple_of_the_period_reads_no_table(self, monkeypatch):
        # at m = 0 mod k every class maps to itself, so no code table is read,
        # with or without an SFT, and an SFT over other letters is still refused
        f = seeded_code(3, 3, 4, 2)
        reads = []
        take = stabaut.codes.WindowChunk.take
        def counted(ch, table, *args):
            reads.append(table.dtype != bool)
            return take(ch, table, *args)
        monkeypatch.setattr(stabaut.codes.WindowChunk, "take", counted)
        for m in (4, 8, 4 * 10**9):
            assert commutes_with_shift_power(f, m) and commutes_with_shift_power(f, m, GOLDEN_MEAN)
        assert reads == []
        with pytest.raises(ValueError, match="alphabet mismatch: 3 letters, 2 SFT edges"):
            commutes_with_shift_power(f, 4, SftMatrix.full_shift(2))
        assert not commutes_with_shift_power(f, 1) and sum(reads) >= 2


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

    def test_find_inverse_of_period_two_code_at_least_radius(self):
        # the inverse has period 2 and radius 1, so the search must read
        # the output at each position through that position's class
        code = compose(SIGMA, FLIP_ON_EVEN)
        inv = find_inverse(code, 2)
        assert inv.radius == 1
        assert equals(inv, compose(FLIP_ON_EVEN, SIGMA_INV))

    def test_find_inverse_rejects_noninvertible(self):
        # x_z AND x_{z+1} is not invertible
        table = np.array([0, 0, 0, 1, 0, 0, 1, 1])
        assert find_inverse(StabilizedCode(2, 1, 1, (table,)), 3) is None

    def test_shift_is_not_its_own_inverse(self):
        # sigma^2 is structured but not the identity: shift_by is 2, not None
        assert compose(SIGMA, SIGMA).shift_by == 2
        assert not verify_inverse_pair(SIGMA, SIGMA)

    @staticmethod
    def dense_pair():
        """A period-2 radius-1 automorphism over 3 letters that is neither a
        shift nor a block map, nor is its inverse."""
        perms = [Permutation((1, 2, 0)), Permutation((1, 0, 2))]
        aut = aut_compose(shift_power(3, 1), periodic_letter_permutation(3, perms))
        for code in (aut.forward, aut.inverse):
            assert (code.shift_by, code.block_map, code.radius) == (None, None, 1)
        return aut

    def test_dense_pair_with_an_inverse_entry_the_last_window_reads(self, small_chunk):
        aut = self.dense_pair()
        assert verify_inverse_pair(aut.forward, aut.inverse)
        # the last window of compose(f, g) reads g at its last window
        last = aut.inverse.tables[1].size - 1
        bad = with_entry_changed(aut.inverse, 1, last)
        assert not verify_inverse_pair(aut.forward, bad)
        assert not verify_inverse_pair(bad, aut.forward)
        with pytest.raises(VerificationFailed):
            Automorphism(aut.forward, bad)

    def test_verification_builds_no_identity_and_calls_no_equals(self, monkeypatch):
        aut = self.dense_pair()

        def refuse(*args):
            raise AssertionError("identity code or equals walk")

        monkeypatch.setattr(stabaut.codes, "equals", refuse)
        monkeypatch.setattr(StabilizedCode, "identity", refuse)
        Automorphism(aut.forward, aut.inverse)
        assert find_inverse(aut.forward, 1) is not None
        assert len(enumerate_automorphisms(2, 1, 1)) == 6

    def test_at_most_one_composition_per_verification_and_none_per_search(self, monkeypatch):
        # one exhaustive check per pair and no second one: a dense pair is
        # checked on compose's walk with no composite, a structured pair by
        # its one structured composite, and find_inverse's walk is its proof
        aut = self.dense_pair()
        composed, walked = [], []
        walk = stabaut.codes._compose_walk
        monkeypatch.setattr(stabaut.codes, "compose",
                            lambda f, g: composed.append((f, g)) or compose(f, g))
        monkeypatch.setattr(stabaut.codes, "_compose_walk",
                            lambda k, r, g: walked.append((k, r, g)) or walk(k, r, g))
        f = aut.forward
        assert verify_inverse_pair(f, aut.inverse)
        assert (composed, walked) == ([], [(f.period, f.radius, aut.inverse)])
        blocks = symbol_permutation(2, 2, Permutation((1, 2, 3, 0)))
        for f, g in ((SIGMA, SIGMA_INV), (blocks.forward, blocks.inverse)):
            del composed[:], walked[:]
            assert verify_inverse_pair(f, g)
            assert (composed, walked) == ([(f, g)], [])
        del composed[:], walked[:]
        f = aut.forward
        inv = find_inverse(f, 1)
        assert inv is not None
        # one walk of the candidate's shape after f per radius tried
        assert (composed, walked) == ([], [(f.period, s, f) for s in range(inv.radius + 1)])

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(invertible_codes(), st.data())
    def test_walk_agrees_with_the_composite(self, small_chunk, code, data):
        # the composite's shift_by == 0 is the oracle, on dense pairs and on
        # those pairs with one inverse entry changed, in both orders
        inv = find_inverse(code, 2)
        assume(all(h.shift_by is None and h.block_map is None for h in (code, inv)))
        c = data.draw(st.integers(0, inv.period - 1))
        bad = with_entry_changed(inv, c, data.draw(st.integers(0, inv.tables[c].size - 1)))
        for f, g in ((code, inv), (inv, code), (code, bad), (bad, code)):
            assert verify_inverse_pair(f, g) == (compose(f, g).shift_by == 0)
        assert verify_inverse_pair(code, inv) and not verify_inverse_pair(code, bad)

    def test_census_near_misses_fail_both_ways(self):
        # f g = id decides g f = id: every inverse of census (2, 1, 2) with one
        # entry changed fails both ways, and the true inverse passes both
        misses = 0
        for aut in enumerate_automorphisms(2, 1, 2):
            f, g = aut.forward, aut.inverse
            assert compose(f, g).shift_by == compose(g, f).shift_by == 0
            for c, table in enumerate(g.tables):
                for i in range(table.size):
                    bad = with_entry_changed(g, c, i)
                    assert compose(f, bad).shift_by != 0 and compose(bad, f).shift_by != 0
                    misses += 1
        assert misses == 2448

    def test_find_inverse_refuses_before_walking(self, monkeypatch):
        # period 4: the inverse needs radius 1, whose walk covers 4 classes of
        # 2^5 windows, past a budget of 100 that one class would fit
        perms = [Permutation((1, 0))] + [Permutation((0, 1))] * 3
        code = compose(SIGMA, periodic_letter_permutation(2, perms).forward)
        walked = []
        chunks = stabaut.codes.window_chunks
        monkeypatch.setattr(stabaut.codes, "window_chunks",
                            lambda n, width: walked.append(width) or chunks(n, width))
        monkeypatch.setattr(stabaut.codes, "MAX_TABLE_ENTRIES", 100)
        with pytest.raises(CodeSizeExceeded, match=r"4 tables of 2\^5 entries"):
            find_inverse(code, 1)
        assert walked == [3]  # radius 0 walked and ruled out; radius 1 refused first

    def test_one_letter_pair(self):
        f = StabilizedCode(1, 2, 1, (np.zeros(1, dtype=int),) * 2)
        g = StabilizedCode(1, 1, 0, (np.zeros(1, dtype=int),))
        assert verify_inverse_pair(f, g)
        assert Automorphism(f, g).period == 2


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
        with pytest.raises(BudgetExceeded, match=f"exceed budget {CENSUS_BUDGET}"):
            enumerate_automorphisms(3, 2, 2)

    @pytest.mark.parametrize("n, r, k", [
        (3, 2, 2), (100, 3, 3), (2, 10**9, 1), (2, 0, 9), (7, 0, 1),
    ])
    def test_budget_refused_before_any_power(self, n, r, k):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=re.escape(f"{n}^(w*{k}) candidates")):
            enumerate_automorphisms(n, r, k)
        assert time.perf_counter() - start < 0.1

    ADMITTED = {(2, 0, k) for k in range(1, 9)} | {(3, 0, k) for k in (1, 2, 3)} | {
        (2, 1, 1), (2, 1, 2), (4, 0, 1), (4, 0, 2), (5, 0, 1), (6, 0, 1)}

    def test_admitted_domain(self):
        # the budget admits 17 shapes over two letters or more; at radius 0 the
        # census is the k-tuples of letter permutations, each inverted at radius 0
        admitted = set()
        for n, r, k in itertools.product(range(2, 9), range(3), range(1, 19)):
            try:
                auts = enumerate_automorphisms(n, r, k)
            except BudgetExceeded:
                continue
            admitted.add((n, r, k))
            if r == 0:
                combos = list(itertools.product(itertools.permutations(range(n)), repeat=k))
                assert len(auts) == len(combos)
                for aut, combo in zip(auts, combos):
                    inverse = [tuple(np.argsort(p)) for p in combo]
                    assert aut.forward.radius == aut.inverse.radius == 0
                    assert [tuple(t) for t in aut.forward.tables] == list(combo)
                    assert [tuple(t) for t in aut.inverse.tables] == inverse
        assert admitted == self.ADMITTED
        assert len(enumerate_automorphisms(2, 1, 1)) == 6
        assert len(enumerate_automorphisms(2, 1, 2)) == 108

    def test_largest_shape_memory(self):
        # 6^6 tables over the 6^2 points of period 2; period 4 held 484 MB
        tracemalloc.start()
        try:
            assert len(enumerate_automorphisms(6, 0, 1)) == 720
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_prefilter_refused_before_it_allocates(self, monkeypatch):
        # (6, 0, 1) needs 6^8 prefilter entries, (5, 0, 1) 5^7
        monkeypatch.setattr(stabaut.codes, "MAX_TABLE_ENTRIES", 10**6)
        tracemalloc.start()
        try:
            with pytest.raises(CodeSizeExceeded, match=r"1 prefilter tables of 6\^8 entries"):
                enumerate_automorphisms(6, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(enumerate_automorphisms(5, 0, 1)) == 120

    @pytest.mark.parametrize("r, k", [(10**9, 1), (0, 10**30), (9, 1), (0, 19)])
    def test_one_letter_census_refuses_long_points(self, r, k):
        # one candidate, but the prefilter would walk points of 2r + 1 or k letters
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="periodic points of"):
            enumerate_automorphisms(1, r, k)
        assert time.perf_counter() - start < 0.1
        assert len(enumerate_automorphisms(1, 8, 1)) == len(enumerate_automorphisms(1, 0, 18)) == 1

    @pytest.mark.parametrize("n, r, k", [(2, -1, 1), (2, 1, 0), (0, 0, 1)])
    def test_bad_shape_rejected(self, n, r, k):
        with pytest.raises(ValueError, match="bad census shape"):
            enumerate_automorphisms(n, r, k)

    def test_enumerated_act_faithfully_on_period_three(self):
        auts = enumerate_automorphisms(2, 1, 1)
        pts = [PeriodicPoint(b) for b in itertools.product(range(2), repeat=3)]
        actions = []
        for a in auts:
            actions.append(tuple(apply_to_periodic(a.forward, x) for x in pts))
        for i, j in itertools.combinations(range(len(auts)), 2):
            assert actions[i] != actions[j] or equals(auts[i].forward, auts[j].forward)


def stacked(n, k, r, codes):
    """The codes' class-c tables as the rows of tables[c]."""
    w = n ** (2 * r + 1)
    return _Stack(n, k, r, tuple(
        np.array([code.tables[c] for code in codes], dtype=_table_dtype(n)).reshape(len(codes), w)
        for c in range(k)))


class TestStackedInverseSearch:
    """The census searches its survivors' inverses on one stack: each
    candidate gets what find_inverse gives it alone."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(code_stacks(), st.integers(0, 2), st.data())
    def test_each_candidate_as_alone(self, small_chunk, stack, max_radius, data):
        n, k, r, codes = stack
        found = _pin_inverses(stacked(n, k, r, codes), max_radius)
        assert len(found) == len(codes)
        for code, got in zip(codes, found):
            alone = find_inverse(code, max_radius)
            assert (got is None) == (alone is None)
            if got is None:
                continue
            s, tables = got
            assert s == alone.radius
            assert all(np.array_equal(a, b) for a, b in zip(tables, alone.tables))
            inv = StabilizedCode(n, k, s, tables)
            length = witness_length(k, r + s)
            points = [PeriodicPoint(tuple(data.draw(st.lists(
                st.integers(0, n - 1), min_size=length, max_size=length)))) for _ in range(8)]
            for x in points:
                assert apply_to_periodic(inv, apply_to_periodic(code, x)) == x
                assert apply_to_periodic(code, apply_to_periodic(inv, x)) == x

    def test_empty_stack(self):
        assert _pin_inverses(stacked(2, 2, 1, []), 2) == []

    def test_one_letter(self):
        # over one letter the one code is its own inverse at radius 0
        code = StabilizedCode(1, 2, 1, (np.zeros(1, dtype=int),) * 2)
        [(s, tables)] = _pin_inverses(stacked(1, 2, 1, [code]), 2)
        assert s == 0 and [t.tolist() for t in tables] == [[0], [0]]

    def test_stacked_walk_refuses_before_it_allocates(self, monkeypatch):
        # 4 codes of radius 1: at inverse radius 0 each walks 2^3 windows,
        # which a budget of 20 admits for one code and refuses for 4
        codes = [seeded_code(seed, 2, 1, 1) for seed in range(4)]
        walked = []
        chunks = stabaut.codes.window_chunks
        monkeypatch.setattr(stabaut.codes, "window_chunks",
                            lambda n, width: walked.append(width) or chunks(n, width))
        monkeypatch.setattr(stabaut.codes, "MAX_TABLE_ENTRIES", 20)
        assert [find_inverse(code, 0) for code in codes] == [None] * 4
        assert walked == [3] * 4
        with pytest.raises(CodeSizeExceeded, match=r"4 tables of 2\^3 entries"):
            _pin_inverses(stacked(2, 1, 1, codes), 0)
        assert walked == [3] * 4

    def test_census_builds_codes_only_for_automorphisms(self, monkeypatch):
        # census (2, 1, 2): 160 prefilter survivors, 108 of them invertible,
        # and a forward and an inverse code for each of those
        built = []
        init = StabilizedCode.__post_init__
        monkeypatch.setattr(StabilizedCode, "__post_init__",
                            lambda code: built.append(code) or init(code))
        assert len(_bijective_on_periodics(2, 1, 2)) == 160
        assert len(enumerate_automorphisms(2, 1, 2)) == 108
        assert len(built) == 216


def permuting_tuples(n, r, k):
    """Oracle for the census prefilter: the table tuples, in ascending
    order, whose code permutes every periodic point of the prefilter's
    length, each image computed by apply_to_periodic."""
    w = n ** (2 * r + 1)
    length = k
    while length < max(2 * r + 1, 4):
        length += k
    points = [PeriodicPoint(b) for b in itertools.product(range(n), repeat=length)]
    blocks = sorted(x.block for x in points)
    out = []
    for combo in itertools.product(range(n**w), repeat=k):
        code = StabilizedCode(n, k, r, tuple(
            np.array(index_to_block(n, w, t)) for t in combo))
        if sorted(apply_to_periodic(code, x).block for x in points) == blocks:
            out.append(combo)
    return out


class TestCensusPrefilter:
    @pytest.mark.parametrize("shape", [(2, 0, 2), (3, 0, 2), (2, 1, 1), (2, 0, 3), (2, 0, 4)])
    def test_matches_scalar_oracle(self, shape):
        got = _bijective_on_periodics(*shape)
        assert got == permuting_tuples(*shape)
        assert got == sorted(got)

    def test_two_letter_radius_one_period_two(self):
        assert len(_bijective_on_periodics(2, 1, 2)) == 160

    # a batch is WINDOW_CHUNK // n^L rows of one level, a row holding one
    # key per point: (2,0,3) has 8 points, (3,0,2) has 9
    @pytest.mark.parametrize("shape, chunk", [
        ((2, 0, 3), 1),  # one row a batch
        ((3, 0, 2), 18),  # two a batch, the last batch partial
        ((2, 0, 3), 128),  # 16 a batch: levels of 4, 8 and 16 rows in one batch each
        # rows of a level: a kept prefix and a table of the next class, so
        # (2,1,2) has levels of 256 rows and (2,0,8) levels of 4, 8, ..., 512
        ((2, 1, 2), 16),  # one row a batch
        ((2, 1, 2), 48),  # three a batch: batches cut prefixes, the last partial
        ((2, 0, 8), 256),  # one row a batch
        ((2, 0, 8), 768),  # three a batch: batches cut prefixes, the last partial
    ])
    def test_batch_edges(self, monkeypatch, shape, chunk):
        want = _bijective_on_periodics(*shape)
        monkeypatch.setattr(stabaut.codes, "WINDOW_CHUNK", chunk)
        assert _bijective_on_periodics(*shape) == want

    def test_batch_memory_is_bounded(self):
        # 4^7 tuples of 2^7 entries: 16 MiB of images if summed at once
        tracemalloc.start()
        try:
            _bijective_on_periodics(2, 0, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * WINDOW_CHUNK * 8

    @pytest.mark.parametrize("shape", [(2, 0, 8), (2, 1, 2), (3, 0, 3), (4, 0, 2)])
    def test_level_memory_is_bounded(self, shape):
        # the keys a level keeps and one batch of rows, on the shapes that prune
        tracemalloc.start()
        try:
            _bijective_on_periodics(*shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * WINDOW_CHUNK * 8

    def test_largest_prefilter_memory(self):
        # 6^6 tables over 6^2 points: q is built in place, and no keys are
        # kept after the last level
        tracemalloc.start()
        try:
            assert len(_bijective_on_periodics(6, 0, 1)) == 720
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestGroupAxioms:
    def test_inverse_laws(self):
        for aut in (flip(2), shift_power(2, 1), flip_on_even(2)):
            assert equals(compose(aut.forward, aut.inverse), StabilizedCode.identity(aut.n))

    def test_composition_inverse_reverses(self):
        a, b = shift_power(2, 1), flip_on_even(2)
        ab = aut_compose(a, b)
        assert equals(ab.inverse, compose(b.inverse, a.inverse))
        assert verify_inverse_pair(ab.forward, ab.inverse)

    CENSUS = enumerate_automorphisms(2, 1, 1) + enumerate_automorphisms(2, 0, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CENSUS), st.sampled_from(CENSUS))
    def test_composites_of_proved_pairs_are_inverse_pairs(self, a, b):
        # aut_compose and aut_commutator build their pairs unchecked: the
        # identity they rely on is checked here
        for c in (aut_compose(a, b), aut_commutator(a, b)):
            assert verify_inverse_pair(c.forward, c.inverse)

    def test_composites_are_not_verified_again(self, monkeypatch):
        # one composition per code: the forward and inverse of a b, and the
        # three of each side of a b a^-1 b^-1; no identity check on top
        a, b = TestInversePairs.dense_pair(), flip_on_even(3)
        calls = []
        monkeypatch.setattr(stabaut.codes, "compose",
                            lambda f, g: calls.append((f, g)) or compose(f, g))
        aut_compose(a, b)
        assert len(calls) == 2
        calls.clear()
        aut_commutator(a, b)
        assert len(calls) == 6


class TestCenterWitness:
    def test_stabilized_center_escapes_shift_powers(self):
        # for m in {1, 2}: some element of aut(sigma^{2m}) fails to
        # commute with sigma^m
        for m in (1, 2):
            auts = enumerate_automorphisms(2, 0, 2 * m)
            witness = [a for a in auts if not commutes_with_shift_power(a.forward, m)]
            assert witness, f"no witness at m={m}"
