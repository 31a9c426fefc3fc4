"""Stabilized sliding block codes and verified automorphisms.

A code of period k and radius r over the n-letter full shift is a
k-tuple of lookup tables beta_0..beta_{k-1}, each mapping windows in
A^{2r+1} (indexed leftmost-significant) to letters, with semantics

    phi(x)_z = beta_{z mod k}(x_{z-r}, ..., x_{z+r}).

Windows are indexed leftmost-significant: the window (a_0, ..., a_{w-1})
has index sum a_i n^(w-1-i), so slot 0 is the most significant digit and
a length-k block over A is the same integer as one letter of A^k.  Every
kernel reads windows through one primitive,

    subwindow(idx, n, width, lo, w) = (idx // n^(width-lo-w)) % n^w,

the index of the w-letter sub-window starting at slot lo of each
width-letter window in idx; no kernel builds a matrix of letters.

Tables are dense numpy arrays, so every comparison below is an exact,
exhaustive check over all windows.  Size guards keep that honest:
operations refuse to build tables they cannot enumerate.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field

import numpy as np

from .shifts import (
    PeriodicPoint,
    SftMatrix,
    index_to_block,
    language_words,
    lcm,
    power_alphabet_index,
)

# Largest total table size (entries summed over position classes) any
# operation is willing to materialize.  Exceeding it raises rather than
# silently degrading exactness.
MAX_TABLE_ENTRIES = 60_000_000


class CodeSizeExceeded(ValueError):
    """A table or comparison would exceed the exhaustive-check budget."""


class BudgetExceeded(ValueError):
    """An enumeration would exceed its configured candidate budget."""


def _table_dtype(n: int):
    return np.int16 if n < 2**15 else np.int32


def window_count(n: int, radius: int) -> int:
    return n ** (2 * radius + 1)


def _check_size(n: int, radius: int, period: int) -> None:
    if window_count(n, radius) * period > MAX_TABLE_ENTRIES:
        raise CodeSizeExceeded(
            f"{period} tables of {window_count(n, radius)} entries exceed the exact-check budget"
        )


def subwindow(idx, n: int, width: int, lo: int, w: int):
    """Index of the w-letter sub-window at slots lo .. lo+w-1 of each
    width-letter window index in `idx` (leftmost-significant; idx and lo
    may be ints or numpy arrays)."""
    return (idx // n ** (width - lo - w)) % n**w


WINDOW_CHUNK = 1 << 19


def index_chunks(total: int, chunk: int = WINDOW_CHUNK):
    """Yield (start, indices start .. start+len-1) covering range(total).

    Kernels that enumerate every window work one piece at a time, so
    peak memory stays bounded for large radii.
    """
    for start in range(0, total, chunk):
        yield start, np.arange(start, min(start + chunk, total), dtype=np.int64)


# window indices probed before an exact pass, so that a table without
# the structure is rejected in microseconds
_PROBE_STEPS = np.arange(1, 9, dtype=np.int64) * 2654435761


def _agrees(table: np.ndarray, want) -> bool:
    """table[idx] == want(idx) at a few probe windows, then at every window
    (in small chunks: the pass runs while the caller's tables are alive)."""
    probes = _PROBE_STEPS % table.size
    return np.array_equal(table[probes], want(probes)) and all(
        np.array_equal(table[start: start + idx.size], want(idx))
        for start, idx in index_chunks(table.size, 1 << 16))


def _derive_shift(n: int, radius: int, tables) -> int | None:
    """j if every table copies the input at offset j, else None."""
    width = 2 * radius + 1
    # the window with a single 1 at slot s reads 1 exactly when s = radius + j
    hits = np.flatnonzero(tables[0][n ** np.arange(width - 1, -1, -1)] == 1) if n > 1 else [radius]
    if (len(hits) == 1 and all(np.array_equal(t, tables[0]) for t in tables)
            and _agrees(tables[0], lambda idx: subwindow(idx, n, width, hits[0], 1))):
        return int(hits[0]) - radius
    return None


def _derive_block_map(n: int, k: int, radius: int, tables, shift_by) -> tuple[int, ...] | None:
    """The permutation of aligned k-blocks the code applies, if any.

    Class c may read only the slots of the block holding the centre,
    radius-c .. radius-c+k-1 clipped to the window, and the induced map
    on blocks must be bijective.  None also when the block form (radius
    k-1) would not fit the table budget, or for a nonzero shift, which
    moves letters across block boundaries.
    """
    if window_count(n, k - 1) * k > MAX_TABLE_ENTRIES or shift_by not in (None, 0):
        return None
    if shift_by == 0:
        return tuple(range(n**k))
    width = 2 * radius + 1
    blocks = np.arange(n**k, dtype=np.int64)
    images = np.zeros(n**k, dtype=np.int64)
    for c, t in enumerate(tables):
        lo, hi = max(0, radius - c), min(width, radius - c + k)
        pad = n ** (width - hi)
        # t at the same window with every slot outside lo .. hi-1 set to 0
        if not _agrees(t, lambda idx: t[subwindow(idx, n, width, lo, hi - lo) * pad]):
            return None
        images = images * n + t[subwindow(blocks, n, k, lo - radius + c, hi - lo) * pad]
    return tuple(images.tolist()) if np.bincount(images, minlength=n**k).min() == 1 else None


@dataclass(frozen=True, eq=False)
class StabilizedCode:
    """k position-dependent block maps of common radius r over A = {0..n-1}.

    The structure is derived from the tables at construction and never
    passed in, so a code loaded from a file keeps the fast paths of the
    constructor that made it: `shift_by` is j when the code is the j-th
    shift power, and `block_map` is the permutation of aligned
    `period`-blocks when the code acts blockwise.  compose() and equals()
    take a structured shortcut on either.
    """

    n: int
    period: int
    radius: int
    tables: tuple[np.ndarray, ...]
    shift_by: int | None = field(init=False, default=None)
    block_map: tuple[int, ...] | None = field(init=False, default=None)

    def __post_init__(self):
        if self.n < 1 or self.period < 1 or self.radius < 0:
            raise ValueError("bad code shape")
        if len(self.tables) != self.period:
            raise ValueError("need one table per position class")
        want = window_count(self.n, self.radius)
        fixed = []
        for t in self.tables:
            arr = np.asarray(t, dtype=_table_dtype(self.n))
            if arr.shape != (want,):
                raise ValueError(f"table must have exactly {want} entries")
            if arr.size and (arr.min() < 0 or arr.max() >= self.n):
                raise ValueError("table entry out of letter range")
            arr = arr.copy()
            arr.flags.writeable = False
            fixed.append(arr)
        object.__setattr__(self, "tables", tuple(fixed))
        j = _derive_shift(self.n, self.radius, self.tables)
        bm = _derive_block_map(self.n, self.period, self.radius, self.tables, j)
        object.__setattr__(self, "shift_by", j)
        object.__setattr__(self, "block_map", bm)

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "StabilizedCode":
        return cls(n, 1, 0, (np.arange(n, dtype=_table_dtype(n)),))

    @classmethod
    def shift(cls, n: int, j: int) -> "StabilizedCode":
        """The j-th shift power: output at z copies the input at z + j."""
        if j == 0:
            return cls.identity(n)
        r = abs(j)
        _check_size(n, r, 1)
        idx = np.arange(window_count(n, r), dtype=np.int64)
        return cls(n, 1, r, (subwindow(idx, n, 2 * r + 1, r + j, 1).astype(_table_dtype(n)),))

    @classmethod
    def from_block_permutation(cls, n: int, k: int, images: tuple[int, ...]) -> "StabilizedCode":
        """Code acting on aligned k-blocks by a permutation of block indices.

        At class c the block holding the centre occupies window slots
        k-1-c .. 2k-2-c and the output is letter c of its image.
        """
        if sorted(images) != list(range(n**k)):
            raise ValueError("images must permute the n^k blocks")
        _check_size(n, k - 1, k)
        idx = np.arange(window_count(n, k - 1), dtype=np.int64)
        img = np.asarray(images, dtype=np.int64)
        tables = (subwindow(img[subwindow(idx, n, 2 * k - 1, k - 1 - c, k)], n, k, c, 1)
                  for c in range(k))
        return cls(n, k, k - 1, tuple(t.astype(_table_dtype(n)) for t in tables))

    # -- evaluation ---------------------------------------------------

    def evaluate(self, position_class: int, window) -> int:
        """beta_{position_class}(window); window must have length 2r+1."""
        window = tuple(window)
        if len(window) != 2 * self.radius + 1:
            raise ValueError(f"window length {len(window)} != {2 * self.radius + 1}")
        idx = power_alphabet_index(self.n, len(window), window)
        return int(self.tables[position_class % self.period][idx])

    def evaluate_indices(self, position_class: int, indices: np.ndarray) -> np.ndarray:
        return self.tables[position_class % self.period][indices]

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
        if pad == 0:
            tables = [self.tables[c % self.period] for c in range(period)]
            return StabilizedCode(self.n, period, radius, tuple(tables))
        n = self.n
        total = window_count(n, radius)
        new = [np.empty(total, dtype=_table_dtype(n)) for _ in range(period)]
        for start, idx in index_chunks(total):
            inner = subwindow(idx, n, 2 * radius + 1, pad, 2 * self.radius + 1)
            for c in range(period):
                new[c][start: start + idx.size] = self.tables[c % self.period][inner]
        return StabilizedCode(n, period, radius, tuple(new))

    def __repr__(self):
        return f"StabilizedCode(n={self.n}, period={self.period}, radius={self.radius})"


def compose(f: StabilizedCode, g: StabilizedCode) -> StabilizedCode:
    """The code computing f(g(x)).

    Pure shifts compose to the summed shift and aligned blockwise codes
    compose by permutation composition; otherwise the result has period
    lcm(k_f, k_g) and radius r_f + r_g.
    """
    if f.n != g.n:
        raise ValueError("alphabet mismatch")
    n = f.n
    if f.shift_by is not None and g.shift_by is not None:
        return StabilizedCode.shift(n, f.shift_by + g.shift_by)
    if (
        f.block_map is not None
        and g.block_map is not None
        and f.period == g.period
        and f.radius + g.radius >= f.period - 1
    ):
        # both act blockwise on aligned period-length blocks: compose the
        # block permutations at radius period-1, no wider than the dense
        # result.
        images = tuple(f.block_map[b] for b in g.block_map)
        return StabilizedCode.from_block_permutation(n, f.period, images)
    period = lcm(f.period, g.period)
    radius = f.radius + g.radius
    _check_size(n, radius, period)
    total = window_count(n, radius)
    tables = [np.empty(total, dtype=_table_dtype(n)) for _ in range(period)]
    for start, idx in index_chunks(total):
        inner = [subwindow(idx, n, 2 * radius + 1, lo, 2 * g.radius + 1)
                 for lo in range(2 * f.radius + 1)]
        for c in range(period):
            outer = _image_windows(g, inner, c)
            tables[c][start: start + idx.size] = f.evaluate_indices(c, outer)
    return StabilizedCode(n, period, radius, tuple(tables))


def _image_windows(g: StabilizedCode, inner: list[np.ndarray], c: int) -> np.ndarray:
    """Index of the window of g's outputs at positions c-s .. c+s, where
    inner[s + d] holds the index of g's input window at position c + d."""
    s = len(inner) // 2
    out = np.zeros(inner[0].shape, dtype=np.int64)
    for d, win in enumerate(inner, start=-s):
        out *= g.n
        out += g.evaluate_indices(c + d, win)
    return out


def compose_all(*codes: StabilizedCode) -> StabilizedCode:
    """compose(codes[0], codes[1], ...) applied right to left."""
    out = codes[-1]
    for c in reversed(codes[:-1]):
        out = compose(c, out)
    return out


def code_power(code: StabilizedCode, m: int) -> StabilizedCode:
    if m < 1:
        raise ValueError("m must be >= 1")
    out = code
    for _ in range(m - 1):
        out = compose(code, out)
    return out


def _admissible_window_indices(n: int, radius: int, sft: SftMatrix) -> np.ndarray:
    words = language_words(sft, 2 * radius + 1)
    return np.array([power_alphabet_index(n, 2 * radius + 1, w) for w in words], dtype=np.int64)


def _inflate_block_map(n: int, k: int, images: tuple[int, ...], t: int) -> np.ndarray:
    """Diagonal action of an aligned k-block permutation on kt-blocks."""
    nk = n**k
    blocks = np.arange(nk**t, dtype=np.int64)
    img = np.asarray(images, dtype=np.int64)
    out = np.zeros(blocks.shape, dtype=np.int64)
    for i in range(t):
        out = out * nk + img[subwindow(blocks, nk, t, i, 1)]
    return out


def equals(f: StabilizedCode, g: StabilizedCode, sft: SftMatrix | None = None) -> bool:
    """Exact pointwise equality of the induced maps.

    Both codes are refined to a common period and radius and their
    tables compared entrywise.  With `sft` given, only windows
    admissible for that shift of finite type are compared.
    """
    if f.n != g.n:
        raise ValueError("alphabet mismatch")
    period = lcm(f.period, g.period)
    radius = max(f.radius, g.radius)
    if (
        sft is None
        and f.block_map is not None
        and g.block_map is not None
        and f.n**period <= window_count(f.n, radius) * period
    ):
        # aligned blockwise codes agree as maps iff their block
        # permutations agree after inflating to the common period (no
        # larger than the refined tables)
        fm = _inflate_block_map(f.n, f.period, f.block_map, period // f.period)
        gm = _inflate_block_map(g.n, g.period, g.block_map, period // g.period)
        return np.array_equal(fm, gm)
    fr = f.refine(period, radius)
    gr = g.refine(period, radius)
    idx = slice(None) if sft is None else _admissible_window_indices(f.n, radius, sft)
    return all(np.array_equal(a[idx], b[idx]) for a, b in zip(fr.tables, gr.tables))


def commutes_with_shift_power(code: StabilizedCode, m: int, sft: SftMatrix | None = None) -> bool:
    """Whether shift^m conjugation fixes the code.

    After refining to period lcm(k, m), conjugating by shift^m shifts
    the position-class index by m, so commutation is invariance of the
    table tuple under that index shift.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    period = lcm(code.period, m)
    r = code.refine(period, code.radius)
    idx = slice(None) if sft is None else _admissible_window_indices(code.n, code.radius, sft)
    return all(
        np.array_equal(r.tables[c][idx], r.tables[(c + m) % period][idx])
        for c in range(period)
    )


def verify_inverse_pair(f: StabilizedCode, g: StabilizedCode, sft: SftMatrix | None = None) -> bool:
    """True iff f and g are two-sided inverses as maps."""
    if f.n != g.n:
        raise ValueError("alphabet mismatch")
    ident = StabilizedCode.identity(f.n)
    return equals(compose(f, g), ident, sft) and equals(compose(g, f), ident, sft)


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

    Verification composes the pair both ways and compares against the
    identity over every window.  Callers composing already-verified
    pairs may pass verify=False when the identity holds by construction
    and the exhaustive check would not fit the table budget.
    """

    forward: StabilizedCode
    inverse: StabilizedCode
    verify: InitVar[bool] = True

    def __post_init__(self, verify: bool = True):
        if self.forward.n != self.inverse.n:
            raise ValueError("alphabet mismatch")
        if verify and not verify_inverse_pair(self.forward, self.inverse):
            raise ValueError("inverse verification failed")

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


def _verification_fits(fwd: StabilizedCode, inv: StabilizedCode) -> bool:
    period = lcm(fwd.period, inv.period)
    return window_count(fwd.n, fwd.radius + inv.radius) * period <= MAX_TABLE_ENTRIES


def aut_compose(a: Automorphism, b: Automorphism) -> Automorphism:
    """Composition a after b; the inverse pair is composed the other way
    round, so the inverse identity holds by construction."""
    fwd = compose(a.forward, b.forward)
    inv = compose(b.inverse, a.inverse)
    return Automorphism(fwd, inv, verify=_verification_fits(fwd, inv))


def aut_commutator(a: Automorphism, b: Automorphism) -> Automorphism:
    """a b a^-1 b^-1."""
    fwd = compose_all(a.forward, b.forward, a.inverse, b.inverse)
    inv = compose_all(b.forward, a.forward, b.inverse, a.inverse)
    return Automorphism(fwd, inv, verify=_verification_fits(fwd, inv))


def aut_equals(a: Automorphism, b: Automorphism) -> bool:
    return equals(a.forward, b.forward)


def find_inverse(code: StabilizedCode, max_radius: int) -> StabilizedCode | None:
    """Search for an inverse code of radius <= max_radius by constraint propagation.

    For an inverse g of radius s, g(f(x))_z = x_z pins the g-table entry
    at every f-output window; any conflict rules out that radius.  A
    consistent, fully verified candidate is returned, otherwise None.
    """
    n, k, r = code.n, code.period, code.radius
    for s in range(max_radius + 1):
        span = s + r
        _check_size(n, span, 1)
        width = 2 * span + 1
        idx = np.arange(window_count(n, span), dtype=np.int64)
        inner = [subwindow(idx, n, width, lo, 2 * r + 1) for lo in range(2 * s + 1)]
        centre = subwindow(idx, n, width, span, 1)
        ok = True
        tables = []
        for c in range(k):
            out_idx = _image_windows(code, inner, c)
            table = np.full(window_count(n, s), -1, dtype=np.int64)
            table[out_idx] = centre
            conflict = table[out_idx] != centre
            if conflict.any():
                ok = False
                break
            table[table < 0] = 0
            tables.append(table.astype(_table_dtype(n)))
        if not ok:
            continue
        cand = StabilizedCode(n, k, s, tuple(tables))
        if verify_inverse_pair(code, cand):
            return cand
    return None


def enumerate_automorphisms(
    n: int,
    r: int,
    k: int,
    inverse_radius: int | None = None,
    budget: int = 200_000,
) -> list[Automorphism]:
    """Exhaustive census of invertible codes of the given shape.

    Every code with period k and radius r whose inverse has radius at
    most `inverse_radius` (default 2r) is returned with that inverse, in
    the canonical order of the table-index tuples.
    """
    if inverse_radius is None:
        inverse_radius = 2 * r
    w = window_count(n, r)
    candidates = n ** (w * k)
    if candidates > budget:
        raise BudgetExceeded(f"{candidates} candidates exceed budget {budget}")

    survivors = _bijective_on_periodics(n, r, k)
    out = []
    for tbl_indices in survivors:
        tables = tuple(
            np.array(index_to_block(n, w, ti), dtype=_table_dtype(n))
            for ti in tbl_indices
        )
        code = StabilizedCode(n, k, r, tables)
        inv = find_inverse(code, inverse_radius)
        if inv is not None:
            out.append(Automorphism(code, inv))
    return out


def _bijective_on_periodics(n: int, r: int, k: int) -> list[tuple[int, ...]]:
    """Candidate table tuples inducing bijections on small periodic points.

    A cheap exact prefilter: an invertible code permutes the points of
    each period, so any candidate failing to permute P_L is discarded
    before the inverse search.  Candidates are returned in ascending
    canonical order.
    """
    w = window_count(n, r)
    per_table = n**w
    length = k
    while length < max(2 * r + 1, 4):
        length += k
    idx = np.arange(n**length, dtype=np.int64)
    tidx = np.arange(per_table, dtype=np.int64)[:, None]
    # partial contribution of each table choice per residue class: the
    # letter a table writes at position z of a periodic block is the
    # table's entry (one slot of its index) at the block's cyclic window
    # around z, read from the block rotated to start at z - r
    partial = [np.zeros((per_table, n**length), dtype=np.int64) for _ in range(k)]
    for z in range(length):
        a = (z - r) % length
        rotated = (idx % n ** (length - a)) * n**a + idx // n ** (length - a)
        win = subwindow(rotated, n, length, 0, 2 * r + 1)
        partial[z % k] += subwindow(tidx, n, w, win[None, :], 1) * n ** (length - 1 - z)
    target = np.sort(idx)
    survivors = []
    for combo in itertools.product(range(per_table), repeat=k):
        image = partial[0][combo[0]].copy()
        for c in range(1, k):
            image += partial[c][combo[c]]
        image.sort()
        if np.array_equal(image, target):
            survivors.append(combo)
    return survivors
