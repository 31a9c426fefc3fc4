"""Stabilized sliding block codes and verified automorphisms.

A code of period k and radius r over the n-letter full shift is a
k-tuple of lookup tables beta_0..beta_{k-1}, each mapping windows in
A^{2r+1} (indexed leftmost-significant) to letters, with semantics

    phi(x)_z = beta_{z mod k}(x_{z-r}, ..., x_{z+r}).

Windows are indexed leftmost-significant: the window (a_0, ..., a_{w-1})
has index sum a_i n^(w-1-i), so slot 0 is the most significant digit and
a length-k block over A is the same integer as one letter of A^k.

Kernels that visit every window walk them with window_chunks(n, width).
A chunk holds the n^s windows that share their leading width - s
letters, where n^s is the power of n nearest WINDOW_CHUNK in log terms
(s >= 1, so a chunk holds at most max(n, WINDOW_CHUNK * sqrt(n))
entries).  Seen through the shape (n,)*s, one axis per free slot, the
index of the sub-window at slots lo .. lo+w-1 is a constant plus an
arange over the free slots it covers: a sub-window is a reshape, and a
table read of it is one contiguous table slice broadcast over the chunk
(WindowChunk.take), with no division and no per-window gather.  The
index of a code's outputs at several sub-windows is a sum of such reads
(WindowChunk.outputs), added in the bracketing that _sum_order picks
from their spans of free slots, once for a walk, so that the sums over
a whole chunk run long inner loops, in the narrowest signed type that
holds the index.  Sums of reads wholly in free slots are the same in
every chunk; a walk keeps them, one store per read list, and
_sum_order charges them 1/n^head.  Chunks keep peak RSS bounded at
any radius.  In this module two kernels walk the chunks: _same, every
whole-window comparison of table reads (equals, commutation with shift
powers, the structure checks), which stops at the first chunk that
differs; and _compose_walk, every image of one code read after another
(compose, the dense inverse check, and the inverse pinning of
_pin_inverses).  Outside this module the ray count (dimrep),
_recode_code (generators) and embed_code (krembed) walk them,
embed_code twice: once over the 2r+1 slots its classes read, to fill
one compact table per source class, and once over the whole window, to
spread those tables in rows.  Table reads take an optional leading
candidate axis, so one walk pins the inverses of a stack of same-shape
codes: find_inverse runs it on one code, the census on all its
prefilter survivors at once.  Derived block images are built with
_widen, as are the maps on words of sub-blocks (generators).  Digits of
arbitrary index arrays (the images in from_block_permutation, the census
prefilter) are read through

    subwindow(idx, n, width, lo, w) = (idx // n^(width-lo-w)) % n^w

Tables are dense numpy arrays, so every comparison below is an exact,
exhaustive check over all windows.  A letter is one byte below 128
letters (_table_dtype), so a table holds, and a walk reads, compares and
writes, half the bytes that two-byte letters take.  Size guards keep
that honest: operations refuse to build tables they cannot enumerate.
The constructor only validates: it copies the arrays a caller passes,
and a kernel hands over the tables it allocated as _Owned, which the
constructor checks and keeps without a copy.  A code's structure
(shift_by, block_map) is read off its read-only tables when first
asked, by at most one _same walk each, and cached; most codes, the
census's among them, are never asked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .shifts import (
    PeriodicPoint,
    SftMatrix,
    VerificationFailed,
    _power_exceeds,
    lcm,
    power_alphabet_index,
)

# Largest total table size (entries summed over position classes) any
# operation is willing to materialize.  Exceeding it raises rather than
# silently degrading exactness.
MAX_TABLE_ENTRIES = 60_000_000
# Most candidate table tuples the census enumerates.
CENSUS_BUDGET = 200_000


class CodeSizeExceeded(ValueError):
    """A table or comparison would exceed the exhaustive-check budget."""


class BudgetExceeded(ValueError):
    """An enumeration would exceed its candidate budget."""


def _table_dtype(n: int):
    """The dtype of a table of letters 0 .. n-1, the one place it is
    chosen: the narrowest signed integer type whose positive range holds
    them, so int8 for n < 2**7 as int16 for n < 2**15.  Signed, so -1
    marks an entry _pin_inverses has not pinned yet."""
    return np.int8 if n < 2**7 else np.int16 if n < 2**15 else np.int32


def window_count(n: int, radius: int) -> int:
    return n ** (2 * radius + 1)


def _check_entries(n: int, e: int, factor: int, what: str) -> None:
    """Refuse factor * n^e entries past MAX_TABLE_ENTRIES, `what` naming
    them: the one place a CodeSizeExceeded is raised."""
    if _power_exceeds(n, e, MAX_TABLE_ENTRIES, factor):
        raise CodeSizeExceeded(f"{what} exceed the exact-check budget of {MAX_TABLE_ENTRIES}")


def _check_size(n: int, radius: int, period: int) -> None:
    """Refuse `period` tables of n^(2r+1) entries past the budget.  A check
    that reads tables in place (equals, find_inverse, the dense path of
    verify_inverse_pair) calls it with the shape it walks, so there the
    budget bounds windows walked, not bytes held."""
    width = 2 * radius + 1
    _check_entries(n, width, period, f"{period} tables of {n}^{width} entries")


def subwindow(idx, n: int, width: int, lo: int, w: int):
    """Index of the w-letter sub-window at slots lo .. lo+w-1 of each
    width-letter window index in `idx` (leftmost-significant; idx and lo
    may be ints or numpy arrays)."""
    return (idx // n ** (width - lo - w)) % n**w


WINDOW_CHUNK = 2**16


class WindowChunk:
    """The n^s windows of `width` letters whose leading width - s letters
    spell `prefix`, seen through the shape (n,)*s of their free slots."""

    def __init__(self, n: int, width: int, s: int, prefix: int):
        self.n, self.width, self.s, self.prefix = n, width, s, prefix
        self.shape = (n,) * s

    def take(self, table: np.ndarray, lo: int = 0, w: int | None = None):
        """table[the index of the sub-window at slots lo .. lo+w-1] (the
        whole window by default) for every window of the chunk, as a view
        broadcastable to self.shape: the sub-window's prefix letters fix a
        base index, and its free slots run over one contiguous slice.  A
        stack of tables, one row per candidate, keeps its leading axis."""
        n, head = self.n, self.width - self.s
        w = self.width - lo if w is None else w
        free = max(0, lo + w - max(lo, head))
        fixed = w - free
        # one scalar division per chunk reads the prefix letters in the sub-window
        base = (self.prefix // n ** (head - lo - fixed)) % n**fixed * n**free if fixed else 0
        before = max(lo, head) - head if free else 0
        shape = (1,) * before + (n,) * free + (1,) * (self.s - before - free)
        return table[..., base: base + n**free].reshape(table.shape[:-1] + shape)

    def outputs(self, reads, kept: dict | None = None) -> np.ndarray:
        """Leftmost-significant index of the letters take(table, lo, w)
        reads, one letter for each (table, lo, w) of `reads`: the sum of
        read i times n^(len(reads)-1-i), made in the narrowest of int8,
        int16, int32 and int64 that holds it, cast to int64 at the end.  The
        result spans only the chunk axes some read covers.  The reads are
        added in the bracketing that _sum_order picks from their free-slot
        spans, the same for every chunk of a walk, so that a sum over the
        whole chunk joins terms that vary alike along a long run of
        trailing axes.  Reads wholly in free slots, and their sums, are
        the same in every chunk: given `kept`, one store for the read list
        over a walk of several chunks, the first chunk keeps there the
        largest such sums a per-chunk step adds in, and later chunks
        neither take nor add their reads again.  Given stacks of m tables,
        the result keeps their leading axis and candidate i's index is
        offset by i n^len(reads): it indexes m tables of n^len(reads)
        entries laid end to end."""
        n, head = self.n, self.width - self.s
        lead = reads[0][0].shape[:-1]
        bound = n ** len(reads) * (max(1, math.prod(lead)) if lead else 1)
        work = (np.int8 if bound <= 2**7 else np.int16 if bound <= 2**15
                else np.int32 if bound <= 2**31 else np.int64)
        steps = _sum_order(n, self.width, self.s, tuple([(lo, w) for _, lo, w in reads]),
                           reads[0][0].dtype != work) if len(reads) > 1 else ()
        # a walk of one chunk keeps nothing, and the later chunks of a walk
        # that keeps take only the reads that meet the prefix
        again = bool(head and kept)
        terms = [kept.get(i) if again and lo >= head else self.take(table, lo, w)
                 for i, (table, lo, w) in enumerate(reads)]
        if lead and not (again and 0 in kept):
            # i n for candidate i, made by arange: n alone may not fit the working type
            offset = np.arange(0, math.prod(lead) * n, n, dtype=work).reshape(lead + (1,) * self.s)
            terms[0] = offset + terms[0]
        # on the first chunk of a walk that keeps, whether term i is the same in every chunk
        fixed = [lo >= head for _, lo, _ in reads] if head and kept == {} else [False] * len(reads)
        for i, j, power, both_kept in steps:
            if not both_kept:
                for t in (i, j):
                    if fixed[t]:
                        kept[t] = terms[t]
                fixed[i] = False
            elif again:
                continue
            # dtype= keeps the product in the working type under any promotion
            # rules, and a code's tables are no wider when a step is made
            terms[i] = np.multiply(terms[i], power, dtype=work) + terms[j]
            terms[j] = None
        if fixed[0]:
            kept[0] = terms[0]
        return terms[0].astype(np.int64)


@functools.lru_cache(maxsize=256)
def _sum_order(n: int, width: int, s: int, spans, cast: bool) -> tuple:
    """The steps (i, j, power, kept) by which WindowChunk.outputs adds its
    reads at `spans`, one (lo, w) each, in chunks of s free slots of
    `width`: each step sets term i to term i * power + term j, and term 0
    ends as the index.  A step joins the sums of the reads i .. j-1 and
    j .. h, with power n^(h-j+1), so the steps are a bracketing of the
    sum; the left fold is (0, 1, n, False), (0, 2, n, False), ....  A
    step is kept when the walk has more than one chunk and its reads i ..
    h all lie in free slots: its sum is the same in every chunk, so
    outputs makes it once a walk.

    numpy adds two terms broadcast to a shape in one inner loop per run
    of trailing axes along which each term either varies throughout or is
    constant throughout.  So an add costs its size times (1 + 12 / that
    run's length), and a multiply its size + 12, plus 1000 when it casts a
    single read to the working type (`cast`: the tables' dtype is not
    it).  A kept step is made once for the n^head chunks of the walk, so
    it costs 1/n^head of that.  An interval DP over the contiguous splits
    takes the cheapest bracketing.  Ties go to the left fold: reads that
    gain free slots from left to right, as in the ray count, keep that
    order.
    """
    head = width - s
    # bit x of a mask: the term varies along chunk axis x (window slot head + x)
    masks = [(1 << max(0, lo + w - head)) - (1 << max(0, lo - head)) for lo, w in spans]
    free = [head > 0 and lo >= head for lo, _ in spans]

    def add_cost(a: int, b: int) -> int:
        kinds = [(a >> x & 1, b >> x & 1) for x in reversed(range(s)) if (a | b) >> x & 1]
        run = next((x for x, kind in enumerate(kinds) if kind != kinds[0]), len(kinds))
        return n ** len(kinds) + 12 * n ** (len(kinds) - run)

    def join(i: int, j: int, h: int) -> tuple:
        (cost_left, _, a), (cost_right, _, b) = best[i, j - 1], best[j, h]
        step = n ** a.bit_count() + 12 + (1000 if cast and i == j - 1 else 0) + add_cost(a, b)
        # costs in units of 1/n^head of a chunk's, so a kept step's stays exact
        scale = 1 if all(free[i: h + 1]) else n**head
        return cost_left + cost_right + step * scale, j, a | b

    count = len(spans)
    # best[i, h]: the cost of summing reads i .. h, its split j and its mask
    best = {(i, i): (0, None, m) for i, m in enumerate(masks)}
    for length in range(2, count + 1):
        for i in range(count - length + 1):
            h = i + length - 1
            # min keeps the first of equal costs: j = h, the fold's split
            best[i, h] = min((join(i, j, h) for j in range(h, i, -1)), key=lambda c: c[0])

    def steps(i: int, h: int) -> list:
        if i == h:
            return []
        j = best[i, h][1]
        return steps(i, j - 1) + steps(j, h) + [(i, j, n ** (h - j + 1), all(free[i: h + 1]))]
    return tuple(steps(0, count - 1))


def window_chunks(n: int, width: int):
    """The windows of `width` >= 1 letters, index order, one WindowChunk per
    prefix of width - s letters; n^s, 1 <= s <= width, is the power of n
    nearest WINDOW_CHUNK in log terms, so a chunk holds at most
    max(n, WINDOW_CHUNK * sqrt(n)) windows."""
    s = 1
    # n^(s+1) is at least as near as n^s when n^(2s+1) <= WINDOW_CHUNK^2
    while s < width and n ** (2 * s + 1) <= WINDOW_CHUNK**2:
        s += 1
    for prefix in range(n ** (width - s)):
        yield WindowChunk(n, width, s, prefix)


def _widen(vector: np.ndarray, n: int, left: int, right: int) -> np.ndarray:
    """The table over windows of left + w + right letters that reads
    `vector` at the w letters in the middle: each entry repeated over the
    right letters, the whole tiled over the left ones, no index array.
    The tiling repeats a leading axis: np.tile does the same with a Python
    overhead that dominates on the small tables of the structure checks.
    A side of no letters costs no copy, so with none on either side the
    result is `vector` itself."""
    if right:
        vector = np.repeat(vector, n**right)
    return vector[None].repeat(n**left, axis=0).reshape(-1) if left else vector


def _same(n: int, width: int, pairs, sft: SftMatrix | None = None) -> bool:
    """Whether the two (table, lo, w) reads of each pair in `pairs` give the
    same letter at every window of `width` letters, or at every path of
    `sft` given one.  The walk stops at the first chunk that differs."""
    off = None if sft is None else _off_sft(n, sft)  # refuses a mismatch before the walk
    for ch in window_chunks(n, width) if pairs else ():
        skip = None if off is None else off(ch)
        for a, b in pairs:
            same = ch.take(*a) == ch.take(*b)
            if not (same if skip is None else same | skip).all():
                return False
    return True


class _Owned(tuple):
    """Tables a kernel allocated for the code it builds and holds nowhere
    else, or tables of a code already built, which are checked and
    read-only (refine at the same radius): the constructor keeps them as
    they are, without a copy."""


@dataclass(frozen=True, eq=False)
class StabilizedCode:
    """k position-dependent block maps of common radius r over A = {0..n-1}.

    The structure is read off the tables when first asked and never
    passed in, so a code loaded from a file keeps the fast paths of the
    constructor that made it: `shift_by` is j when the code is the j-th
    shift power, and `block_map` is the permutation of aligned
    `period`-blocks when the code acts blockwise.  compose() takes a
    structured shortcut on either.  Both are cached, which the
    read-only tables make sound, and reading them never raises.  The
    constructor only validates, from a file or from code, the shape
    against the budget (first) and each table: n^(2r+1) integer letters
    in 0 .. n-1.  It takes a read-only copy of each distinct array it is
    given, so classes that share an array share its copy, and a caller
    that mutates its arrays later does not change the code; kernels hand
    over their tables as _Owned, which are checked the same way and kept.
    """

    n: int
    period: int
    radius: int
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        if (any(type(v) is not int for v in (self.n, self.period, self.radius))
                or self.n < 1 or self.period < 1 or self.radius < 0):
            raise ValueError("bad code shape")
        _check_size(self.n, self.radius, self.period)
        if len(self.tables) != self.period:
            raise ValueError(f"expected {self.period} tables, found {len(self.tables)}")
        want = window_count(self.n, self.radius)
        copy = not isinstance(self.tables, _Owned)
        fixed = {}  # id of each distinct array given -> its checked table
        for ti, t in enumerate(self.tables):
            if id(t) in fixed:
                continue
            arr = np.asarray(t)
            if arr.shape != (want,):
                raise ValueError(f"table {ti} has {arr.size} entries, expected {want}")
            if arr.dtype.kind not in "iu":
                raise ValueError(f"table {ti} has dtype {arr.dtype}, expected integers")
            # before the narrowing cast, which would wrap.  n - 1 past the dtype's max leaves only
            # the sign to check; else a negative entry read unsigned is past n - 1, so max() finds all
            if (arr.min() < 0 if self.n - 1 >> 8 * arr.itemsize - (arr.dtype.kind == "i")
                    else arr.view(arr.dtype.str.replace("i", "u")).max() >= self.n):
                ei = int(np.flatnonzero((arr < 0) | (arr >= self.n))[0])
                raise ValueError(f"table {ti} entry {ei} out of range: {arr[ei]}")
            arr = arr.astype(_table_dtype(self.n), copy=copy)
            arr.flags.writeable = False
            fixed[id(t)] = arr
        object.__setattr__(self, "tables", tuple([fixed[id(t)] for t in self.tables]))

    # -- structure, read off the tables when first asked -------------

    @functools.cached_property
    def shift_by(self) -> int | None:
        """j if every table copies the input at offset j, else None."""
        n, width = self.n, 2 * self.radius + 1
        # the window with a single 1 at slot s reads 1 exactly when s = radius + j
        hits = (np.flatnonzero(self.tables[0][n ** np.arange(width - 1, -1, -1)] == 1)
                if n > 1 else [self.radius])
        # the letters in the table dtype, so _same compares them without a cast
        if len(hits) == 1 and _same(n, width, [
                ((t, 0, width), (np.arange(n, dtype=t.dtype), int(hits[0]), 1))
                for t in self.tables]):
            return int(hits[0]) - self.radius
        return None

    @functools.cached_property
    def block_map(self) -> tuple[int, ...] | None:
        """The permutation of aligned period-blocks the code applies, if any.

        Class c may read only the slots of the block holding the centre,
        radius-c .. radius-c+k-1 clipped to the window, and the induced
        map on blocks must be bijective; one walk checks the classes whose
        block is narrower than the window.  None also when the block form
        (radius k-1) would not fit the table budget, or for a nonzero
        shift, which moves letters across block boundaries.
        """
        n, k, radius, tables = self.n, self.period, self.radius, self.tables
        if _power_exceeds(n, 2 * k - 1, MAX_TABLE_ENTRIES, k) or self.shift_by not in (None, 0):
            return None
        if self.shift_by == 0:
            return tuple(range(n**k))
        width = 2 * radius + 1
        spans = [(max(0, radius - c), min(width, radius - c + k)) for c in range(k)]
        # table c at the windows with every slot outside lo .. hi-1 set to 0
        cuts = [t[: n ** (width - lo): n ** (width - hi)] for t, (lo, hi) in zip(tables, spans)]
        if not _same(n, width, [((t, 0, width), (cut, lo, hi - lo)) for t, cut, (lo, hi)
                                in zip(tables, cuts, spans) if hi - lo < width]):
            return None
        images = np.zeros(n**k, dtype=np.int64)
        for c, (cut, (lo, hi)) in enumerate(zip(cuts, spans)):
            # block slots lo - radius + c .. hi - 1 - radius + c are those window slots
            images = images * n + _widen(cut, n, lo - radius + c, k - hi + radius - c)
        return tuple(images.tolist()) if np.bincount(images, minlength=n**k).min() == 1 else None

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "StabilizedCode":
        return cls.shift(n, 0)

    @classmethod
    def shift(cls, n: int, j: int) -> "StabilizedCode":
        """The j-th shift power: output at z copies the input at z + j."""
        r = abs(j)
        _check_size(n, r, 1)
        return cls(n, 1, r, _Owned((_widen(np.arange(n, dtype=_table_dtype(n)), n, r + j, r - j),)))

    @classmethod
    def from_block_permutation(cls, n: int, k: int, images: tuple[int, ...]) -> "StabilizedCode":
        """Code acting on aligned k-blocks by a permutation of block indices.

        At class c the block holding the centre occupies window slots
        k-1-c .. 2k-2-c and the output is letter c of its image.
        """
        _check_size(n, k - 1, k)
        if sorted(images) != list(range(n**k)):
            raise ValueError("images must permute the n^k blocks")
        img = np.asarray(images, dtype=np.int64)
        return cls(n, k, k - 1, _Owned(
            _widen(subwindow(img, n, k, c, 1).astype(_table_dtype(n)), n, k - 1 - c, c)
            for c in range(k)))

    # -- evaluation ---------------------------------------------------

    def evaluate(self, position_class: int, window) -> int:
        """beta_{position_class}(window); window must have length 2r+1."""
        window = tuple(window)
        if len(window) != 2 * self.radius + 1:
            raise ValueError(f"window length {len(window)} != {2 * self.radius + 1}")
        idx = power_alphabet_index(self.n, len(window), window)
        return int(self.tables[position_class % self.period][idx])

    # -- structural transforms -----------------------------------------

    def refine(self, period: int, radius: int) -> "StabilizedCode":
        """Semantically identical code with larger period and/or radius."""
        if period % self.period != 0:
            raise ValueError(f"{period} is not a multiple of period {self.period}")
        if radius < self.radius:
            raise ValueError("cannot shrink the radius")
        if period == self.period and radius == self.radius:
            return self
        _check_size(self.n, radius, period)
        pad = radius - self.radius
        wide = [_widen(t, self.n, pad, pad) for t in self.tables] if pad else self.tables
        return StabilizedCode(self.n, period, radius,
                              _Owned(wide[c % self.period] for c in range(period)))

    def __repr__(self):
        return f"StabilizedCode(n={self.n}, period={self.period}, radius={self.radius})"


def _structured(f: StabilizedCode, g: StabilizedCode) -> bool:
    """Whether compose(f, g) takes a structured path: two shifts, or
    blockwise codes of one period whose block form is no wider than the
    dense result."""
    if f.n != g.n:
        raise ValueError("alphabet mismatch")
    return (f.shift_by is not None and g.shift_by is not None) or (
        f.period == g.period and f.radius + g.radius >= f.period - 1
        and f.block_map is not None and g.block_map is not None)


def _compose_walk(k: int, r: int, g):
    """Period lcm(k, k_g), radius r + r_g, and a generator of (chunk, class
    c, outer) over their windows for a period-k radius-r code read after g:
    outer indexes the g-outputs class c reads, so the outer code's table
    c mod k at outer is the image.  g may be a _Stack of m codes, whose
    outer indexes each code's outputs in a stack of m tables
    (WindowChunk.outputs), and then m times the windows count against the
    budget.  The budget is checked before anything is allocated."""
    n, period, radius = g.n, lcm(k, g.period), r + g.radius
    _check_size(n, radius, period * math.prod(g.tables[0].shape[:-1]))
    # class c reads g's outputs at c - r .., the i-th from slots i .. i + 2r_g,
    # and those depend on c mod k_g alone; each read list comes with the
    # store of its kept sums for the one walk
    reads = [([(g.tables[(rho - r + i) % g.period], i, 2 * g.radius + 1)
               for i in range(2 * r + 1)], {}) for rho in range(g.period)]

    def walk():
        for ch in window_chunks(n, 2 * radius + 1):
            for rho in range(g.period):
                outer = ch.outputs(*reads[rho])
                for c in range(rho, period, g.period):
                    yield ch, c, outer
    return period, radius, walk()


def compose(f: StabilizedCode, g: StabilizedCode) -> StabilizedCode:
    """The code computing f(g(x)).

    Pure shifts compose to the summed shift and aligned blockwise codes
    compose by permutation composition; otherwise the result has period
    lcm(k_f, k_g) and radius r_f + r_g.
    """
    n = f.n
    if _structured(f, g):
        if f.shift_by is not None and g.shift_by is not None:
            return StabilizedCode.shift(n, f.shift_by + g.shift_by)
        # compose the block permutations at radius period-1
        images = tuple(f.block_map[b] for b in g.block_map)
        return StabilizedCode.from_block_permutation(n, f.period, images)
    period, radius, walk = _compose_walk(f.period, f.radius, g)
    # one block, not period arrays: numpy asks for huge pages from 4 MiB up,
    # which spares most of the page faults of a first write
    tables = np.empty((period, window_count(n, radius)), dtype=_table_dtype(n))
    for ch, c, outer in walk:
        # outer < n^(2r_f+1), so wrap never wraps; raise would gather into a buffer
        np.take(f.tables[c % f.period], outer, out=ch.take(tables[c]), mode="wrap")
    return StabilizedCode(n, period, radius, _Owned(tables))


def compose_all(*codes: StabilizedCode) -> StabilizedCode:
    """compose(codes[0], codes[1], ...) applied right to left."""
    out = codes[-1]
    for c in reversed(codes[:-1]):
        out = compose(c, out)
    return out


def code_power(code: StabilizedCode, m: int) -> StabilizedCode:
    if m < 1:
        raise ValueError("m must be >= 1")
    return compose_all(*(code,) * m)


def _off_sft(n: int, sft: SftMatrix):
    """f(chunk): True at the chunk's windows that are not paths of `sft`, a
    path being a window with ok[e_i n + e_(i+1)] (e_i ends where e_(i+1)
    starts) at each i, so width - 1 reads of ok per chunk."""
    if sft.edge_count != n:
        raise ValueError(f"alphabet mismatch: {n} letters, {sft.edge_count} SFT edges")
    ends = sft.edge_endpoints()
    ok = np.array([t == s for _, t in ends for s, _ in ends])
    def off(ch):
        flags = np.zeros((1,) * ch.s, dtype=bool)
        for i in range(ch.width - 1):
            flags = flags | ~ch.take(ok, i, 2)
        return flags
    return off


def equals(f: StabilizedCode, g: StabilizedCode, sft: SftMatrix | None = None) -> bool:
    """Exact pointwise equality of the induced maps, on one path for every
    pair: both codes are read in place over the windows of the common
    radius R, and the walk stops at the first chunk that differs.  Codes of
    different shapes are refused, before anything is read, where their
    refinements to the common shape would be, so the budget bounds windows
    walked, not bytes held.  No structure is read: a blockwise pair would
    pay about this walk to derive its block maps.  With `sft`, the walk
    masks out windows that are not paths of that SFT.
    """
    if f.n != g.n:
        raise ValueError("alphabet mismatch")
    n = f.n
    period = lcm(f.period, g.period)
    radius = max(f.radius, g.radius)
    if (f.period, f.radius) != (g.period, g.radius):
        _check_size(n, radius, period)
    # class c of h reads table c mod k_h at slots R - r_h .. R + r_h
    return _same(n, 2 * radius + 1, [
        tuple((h.tables[c % h.period], radius - h.radius, 2 * h.radius + 1) for h in (f, g))
        for c in range(period)], sft)


def commutes_with_shift_power(code: StabilizedCode, m: int, sft: SftMatrix | None = None) -> bool:
    """Whether shift^m conjugation fixes the code.

    Conjugating by shift^m moves the position class by m, and refined to
    period lcm(k, m) class c reads table c mod k, so commutation is
    tables[c] == tables[(c + m) mod k] for c < k, read in place (at the
    paths of `sft` given one), and a class that m fixes is not read: no
    budget applies beyond the one the tables met, whatever m is.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k, width = code.period, 2 * code.radius + 1
    return _same(code.n, width, [((code.tables[c], 0, width), (code.tables[(c + m) % k], 0, width))
                                 for c in range(k) if (c + m) % k != c], sft)


def verify_inverse_pair(f: StabilizedCode, g: StabilizedCode) -> bool:
    """True iff f and g are two-sided inverses as maps.  Both commute with
    sigma^L, L the lcm of the periods, so both are endomorphisms of the full
    shift (A^L)^Z, where an injective endomorphism is onto (Hedlund 1969;
    Lind-Marcus 1995, 8.1): f g = id makes g bijective, so g f = id too.
    f g = id is checked at every window: structured pairs by the shift_by
    of their composite, dense ones on compose's walk, against the centre
    letter, with no composite built, so there the budget bounds windows
    walked, not bytes held."""
    if _structured(f, g):
        return compose(f, g).shift_by == 0
    _, radius, walk = _compose_walk(f.period, f.radius, g)
    letters = np.arange(f.n, dtype=_table_dtype(f.n))
    # outer is in range, as in compose, so wrap never wraps
    return all((np.take(f.tables[c % f.period], outer, mode="wrap")
                == ch.take(letters, radius, 1)).all() for ch, c, outer in walk)


def apply_to_periodic(code: StabilizedCode, x: PeriodicPoint) -> PeriodicPoint:
    """Image of a periodic point; the result has period lcm(P, k)."""
    length = lcm(x.period, code.period)
    letters = []
    for z in range(length):
        window = x.window(z - code.radius, z + code.radius)
        letters.append(code.evaluate(z % code.period, window))
    return PeriodicPoint(tuple(letters), 0)


@dataclass(frozen=True, eq=False)
class Automorphism:
    """A stabilized code together with a verified two-sided inverse.

    Verification checks forward after inverse = id at every window; the
    other order follows, as an injective endomorphism of a full shift is
    onto (Hedlund 1969; Lind-Marcus 1995, 8.1).  A failure raises
    VerificationFailed, and a check past the table budget raises
    CodeSizeExceeded.  verify=False is for pairs proved already: by
    find_inverse's walk, by inverted() of a proved pair, or by composing
    proved pairs (aut_compose, aut_commutator).
    """

    forward: StabilizedCode
    inverse: StabilizedCode
    verify: InitVar[bool] = True

    def __post_init__(self, verify: bool = True):
        if self.forward.n != self.inverse.n:
            raise ValueError("alphabet mismatch")
        if verify and not verify_inverse_pair(self.forward, self.inverse):
            raise VerificationFailed("inverse verification failed")

    @property
    def n(self) -> int:
        return self.forward.n

    @property
    def period(self) -> int:
        return lcm(self.forward.period, self.inverse.period)

    @property
    def radius(self) -> int:
        return self.forward.radius

    def inverted(self) -> "Automorphism":
        return Automorphism(self.inverse, self.forward, verify=False)

    def __repr__(self):
        return (f"Automorphism(n={self.n}, period={self.period}, "
                f"radius={self.forward.radius}/{self.inverse.radius})")


def aut_compose(a: Automorphism, b: Automorphism) -> Automorphism:
    """Composition a after b, proved by construction: compose is exact, and
    (a.f b.f)(b.i a.i) = a.f (b.f b.i) a.i = id for proved pairs a, b."""
    fwd = compose(a.forward, b.forward)
    inv = compose(b.inverse, a.inverse)
    return Automorphism(fwd, inv, verify=False)


def aut_commutator(a: Automorphism, b: Automorphism) -> Automorphism:
    """a b a^-1 b^-1, with inverse b a b^-1 a^-1: a composition of proved
    pairs, so proved by construction as in aut_compose."""
    fwd = compose_all(a.forward, b.forward, a.inverse, b.inverse)
    inv = compose_all(b.forward, a.forward, b.inverse, a.inverse)
    return Automorphism(fwd, inv, verify=False)


def aut_equals(a: Automorphism, b: Automorphism) -> bool:
    return equals(a.forward, b.forward)


class _Stack(NamedTuple):
    """m codes of one shape, as the census holds them before any is built:
    tables[c] has one row of n^(2r+1) letters per code."""

    n: int
    period: int
    radius: int
    tables: tuple[np.ndarray, ...]


def _pin(table: np.ndarray, out: np.ndarray, centre: np.ndarray, conflict: np.ndarray) -> bool:
    """Set table[out] = centre, and record in conflict[i] that candidate i's
    pins (row i of out, or all of out for one code) set an entry an earlier
    pin set to another letter, or need different ones at two windows.
    Whether some candidate is still free of conflicts."""
    before = table[out]
    table[out] = centre
    bad = ((before >= 0) & (before != centre)) | (table[out] != centre)
    conflict |= bad.reshape(conflict.size, -1).any(-1)
    return not conflict.all()


def _pin_inverses(g, max_radius: int) -> list:
    """For each of g's candidates (g itself, or each code of a _Stack), the
    radius s and the tables of an inverse of least radius s <= max_radius,
    or None if it has none there.

    For an inverse h of radius s, h(g(x))_z = x_z pins the h-table entry
    at every g-output window to its centre letter.  One _compose_walk(k, s,
    g) per radius, over windows of width 2(s + r) + 1 (the count the budget
    bounds, times the candidates left), pins every candidate's tables chunk
    by chunk; a conflict rules out radius s for that candidate, and the
    walk stops when every candidate has one.  The candidates left go on to
    radius s + 1.  No conflict proves h g = id, so g is injective, hence
    onto (Hedlund 1969; Lind-Marcus 1995, 8.1), and h is its inverse.
    """
    n, k = g.n, g.period
    letters = np.arange(n, dtype=_table_dtype(n))
    found = [None] * math.prod(g.tables[0].shape[:-1])
    left = list(range(len(found)))  # the candidates still searched, g's rows
    for s in range(max_radius + 1):
        if not left:
            break
        _, span, walk = _compose_walk(k, s, g)
        size = window_count(n, s)
        # each class's tables of all candidates end to end, as outer indexes them
        tables = [np.full(len(left) * size, -1, dtype=letters.dtype) for _ in range(k)]
        conflict = np.zeros(len(left), dtype=bool)
        if all(_pin(tables[c], outer, ch.take(letters, span, 1), conflict)
               for ch, c, outer in walk):
            # entries no window pins may hold any letter
            pinned = [np.maximum(t, 0).reshape(-1, size) for t in tables]
            bad = conflict.tolist()
            for i, j in enumerate(left):
                if not bad[i]:
                    found[j] = (s, tuple(t[i] for t in pinned))
            left = [j for j, b in zip(left, bad) if b]
            if left:
                g = _Stack(n, k, g.radius, tuple(t[conflict] for t in g.tables))
    return found


def find_inverse(code: StabilizedCode, max_radius: int) -> StabilizedCode | None:
    """Search for an inverse code of radius <= max_radius by constraint propagation.

    _pin_inverses on the code alone: one _compose_walk(k, s, code) per
    radius s pins the candidate tables, and the first conflict rules out
    radius s.  The first radius without a conflict gives the inverse,
    proved by the walk; else None.
    """
    [found] = _pin_inverses(code, max_radius)
    if found is None:
        return None
    s, tables = found
    return StabilizedCode(code.n, code.period, s, _Owned(tables))


def enumerate_automorphisms(n: int, r: int, k: int) -> list[Automorphism]:
    """Exhaustive census of invertible codes of the given shape.

    Every code with period k and radius r whose inverse has radius at
    most 2r is returned with that inverse, in the canonical order of the
    table-index tuples, for shapes of at most CENSUS_BUDGET candidates.
    The prefilter's survivors are stacked, and one _pin_inverses walk per
    radius searches all of them; codes are built only for the survivors
    that have an inverse.
    """
    if n < 1 or r < 0 or k < 1:
        raise ValueError(f"bad census shape: need n >= 1, r >= 0, k >= 1, got {n}, {r}, {k}")
    # n^(w*k) candidates for w = n^(2r+1) windows; w*k is tested by bit length first
    if (n > 1 and _power_exceeds(n, 2 * r + 1, CENSUS_BUDGET.bit_length(), k)
            or _power_exceeds(n, window_count(n, r) * k, CENSUS_BUDGET)):
        raise BudgetExceeded(
            f"{n}^(w*{k}) candidates for w = {n}^{2 * r + 1} windows exceed budget {CENSUS_BUDGET}")
    # over one letter there is one candidate whatever the shape, but the prefilter
    # walks points of at least max(k, 2r + 1) letters; over more, the check above bounds those
    if max(k, 2 * r + 1) > CENSUS_BUDGET.bit_length():
        raise BudgetExceeded(f"periodic points of {max(k, 2 * r + 1)} letters exceed the "
                             f"{CENSUS_BUDGET.bit_length()} that budget {CENSUS_BUDGET} allows")
    w = window_count(n, r)
    combos = np.array(_bijective_on_periodics(n, r, k), dtype=np.int64).reshape(-1, k)
    # [i, c]: the w letters of survivor i's table c
    letters = subwindow(combos[..., None], n, w, np.arange(w), 1).astype(_table_dtype(n))
    stack = _Stack(n, k, r, tuple(letters[:, c] for c in range(k)))
    out = []
    for i, found in enumerate(_pin_inverses(stack, 2 * r)):
        if found is not None:
            s, tables = found
            code = StabilizedCode(n, k, r, _Owned(letters[i]))
            # inv code = id by the walk; injective is onto (Hedlund 1969; Lind-Marcus 8.1)
            out.append(Automorphism(code, StabilizedCode(n, k, s, _Owned(tables)), verify=False))
    return out


def _bijective_on_periodics(n: int, r: int, k: int) -> list[tuple[int, ...]]:
    """Candidate table tuples inducing bijections on small periodic points.

    An invertible code permutes the N = n^L points of period L, the least
    multiple of k longer than a window (L = 3 would keep 36 tuples of
    census (2, 1, 1), not 8).  q[c][t, x] indexes the m = L / k letters
    table t writes at the class-c positions of the image of point x, k *
    n^w * N entries refused past MAX_TABLE_ENTRIES before they are built.
    Level d keeps the prefixes (t_0 .. t_(d-1)) whose key x -> (q_0, ...,
    q_(d-1)), md letters of the image, takes each of its n^(md) values
    N / n^(md) times, as a bijection's does, and at d = k is a bijection:
    the pruning is exact.  Prefixes grow by the class-d tables in index
    order, so survivors come in canonical order, in batches of
    WINDOW_CHUNK // N rows (at least one), each counted by one bincount.
    """
    w, length = window_count(n, r), -(-(2 * r + 2) // k) * k  # L >= 2r + 2
    per_table, m, points = n**w, length // k, n**length
    _check_entries(n, w + length, k, f"{k} prefilter tables of {n}^{w + length} entries")
    doubled = np.arange(points, dtype=np.int64) * (points + 1)  # each point's block twice over
    # letters[t, v]: the letter table t writes at window v, column-major for the gathers
    letters = np.indices((n,) * w, dtype=np.int32).reshape(w, per_table).T
    q = [None] * k  # int32 holds every key, as n^L <= MAX_TABLE_ENTRIES
    for z in range(length):
        # the window around position z starts at slot z - r mod L of the doubled block
        win = subwindow(doubled, n, 2 * length, (z - r) % length, 2 * r + 1)
        read = (letters * n ** (m - 1 - z // k))[:, win]
        # the class sum so far is added into the read, so no other temporary is made
        q[z % k] = read if z < k else np.add(q[z % k], read, out=read)
    # a prefix is its index in base n^w, so row i * n^w + t of a level extends prefix i by t
    batch, prefixes, keys = max(1, WINDOW_CHUNK // points), np.zeros(1, dtype=np.int64), None
    for d in range(k):
        kept, kept_keys, values = [], [], n ** (m * (d + 1))
        for lo in range(0, len(prefixes) * per_table, batch):  # the identity's prefix is never cut
            parent, t = np.divmod(np.arange(lo, min(lo + batch, len(prefixes) * per_table)), per_table)
            key = keys[parent] * n**m + q[d][t] if d else q[0][lo:lo + len(t)]
            # row i counts its keys in bins i * values .. (i + 1) * values - 1
            bins = np.bincount((key + np.arange(len(t))[:, None] * values).ravel(),
                               minlength=len(t) * values).reshape(-1, values)
            ok = (bins == points // values).all(axis=-1)
            kept.append(prefixes[parent[ok]] * per_table + t[ok])
            kept_keys += [key[ok]] if d < k - 1 else []  # no keys after the last level
        prefixes, keys = np.concatenate(kept), np.concatenate(kept_keys) if kept_keys else None
    return list(zip(*[t.tolist() for t in np.unravel_index(prefixes, (per_table,) * k)]))
