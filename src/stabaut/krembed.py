"""Marker-scheme embedding of full-shift automorphisms into a larger shift.

A scheme designates n^2 target letters as data letters, each decoding to
a pair (upper, lower) of source letters.  Positions holding data letters
at gap R form coded stretches; walking a stretch with the `next` map
reads off a pair of source sequences, the upper row travelling right and
the lower row travelling left, with a turnaround at each stretch end.
An automorphism of the source shift then acts on the read pair and the
results are re-encoded in place, yielding a code on the target shift of
period k*R and radius r*R.  Letters outside every stretch are copied.

At a finite stretch end the two read rows are linked by an odd
translation (for a singleton stretch both rows alternate the same two
letters), so a period-2 source code does not commute with the linkage.
The pair is therefore acted on by (phi, shift . phi . shift^-1): the
lower row uses the shift-conjugated code, which preserves the linkage
for every source commuting with the square of the shift and coincides
with phi for period-1 sources.  With this action the embedding is
multiplicative; with the naive diagonal action it provably is not.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .codes import (
    Automorphism,
    StabilizedCode,
    _check_size,
    _Owned,
    _table_dtype,
    window_chunks,
)
from .shifts import PeriodicPoint, SftMatrix, Word


class InsufficientAlphabet(ValueError):
    """Target alphabet too small to host n^2 data letters plus a spare."""


class FeasibilityUnverified(ValueError):
    """The bounded realizability check failed for an SFT target."""


class ContextExhausted(ValueError):
    """A stretch walk ran off the edge of the available window."""


@dataclass(frozen=True)
class MarkerScheme:
    """Data-letter block, pairing, and gap for one embedding."""

    q: int
    n: int
    gap: int

    def __post_init__(self):
        if self.gap < 1:
            raise ValueError("gap must be >= 1")
        if self.q < self.n**2 + 1:
            raise InsufficientAlphabet(
                f"target needs at least {self.n ** 2 + 1} letters, has {self.q}"
            )

    @property
    def data_letters(self) -> tuple[int, ...]:
        return tuple(range(self.n**2))

    def is_data(self, letter: int) -> bool:
        return 0 <= letter < self.n**2

    def pair_of(self, letter: int) -> tuple[int, int]:
        """(upper, lower) source letters encoded by a data letter."""
        if not self.is_data(letter):
            raise ValueError(f"{letter} is not a data letter")
        return letter // self.n, letter % self.n

    def data_for(self, upper: int, lower: int) -> int:
        if not (0 <= upper < self.n and 0 <= lower < self.n):
            raise ValueError("source letter out of range")
        return upper * self.n + lower


def find_marker_scheme(target: int | SftMatrix, n: int, gap: int) -> MarkerScheme:
    """Canonical scheme on a target shift: first n^2 letters carry data.

    Full-shift targets need only enough letters.  For an SFT target the
    bounded feasibility check realizes every data word of length 1 or 2
    as a stretch delimited by non-data letters; failure raises
    FeasibilityUnverified.
    """
    if isinstance(target, int):
        return MarkerScheme(q=target, n=n, gap=gap)
    scheme = MarkerScheme(q=target.edge_count, n=n, gap=gap)
    _check_sft_feasibility(scheme, target)
    return scheme


def _check_sft_feasibility(scheme: MarkerScheme, sft: SftMatrix) -> None:
    ends = sft.edge_endpoints()
    R = scheme.gap
    markers = [e for e in range(scheme.q) if not scheme.is_data(e)]
    for length in (1, 2):
        for seq in itertools.product(scheme.data_letters, repeat=length):
            # the letters allowed at each position: a marker at both ends
            # and the data word at every R-th position between them
            allowed = [range(scheme.q)] * ((length + 1) * R + 1)
            allowed[0] = allowed[-1] = markers
            for i, d in enumerate(seq):
                allowed[(i + 1) * R] = (d,)
            reach = {s for s, _ in ends}  # vertices a path can stand at
            for letters in allowed:
                reach = {ends[e][1] for e in letters if ends[e][0] in reach}
            if not reach:
                raise FeasibilityUnverified(
                    f"data word {seq} not realizable as a stretch at gap {R}"
                )


@dataclass(frozen=True)
class Stretch:
    """Maximal in-window R-gapped run of data positions."""

    positions: tuple[int, ...]
    left_open: bool
    right_open: bool


@dataclass(frozen=True)
class StretchView:
    stretches: tuple[Stretch, ...]


def coded_stretches(letters, offset: int, scheme: MarkerScheme) -> StretchView:
    """All maximal gap-R data progressions visible in a window.

    An end is flagged open when the position that would certify
    maximality (one gap beyond the run) falls outside the window, so the
    run might continue in unseen context.
    """
    letters = tuple(letters)
    R = scheme.gap
    end = offset + len(letters)

    def at(j):
        return letters[j - offset]

    out = []
    for j in range(offset, end):
        if not scheme.is_data(at(j)):
            continue
        prev = j - R
        if offset <= prev < end and scheme.is_data(at(prev)):
            continue  # not the start of a run
        run = [j]
        while run[-1] + R < end and scheme.is_data(at(run[-1] + R)):
            run.append(run[-1] + R)
        left_open = j - R < offset
        right_open = run[-1] + R >= end
        out.append(Stretch(tuple(run), left_open, right_open))
    return StretchView(tuple(out))


@dataclass(frozen=True)
class WindowConfig:
    """A finite window of target letters with an absolute offset."""

    letters: Word
    offset: int = 0

    def letter(self, j: int) -> int:
        if not self.offset <= j < self.offset + len(self.letters):
            raise ContextExhausted(f"position {j} outside the available window")
        return self.letters[j - self.offset]


def _in_stretch(config, scheme, j) -> bool:
    return scheme.is_data(config.letter(j))


def _step(config, scheme, row: str, j: int, sign: int) -> tuple[str, int]:
    """One step of the stretch walk, forward (sign 1) or backward (-1): the
    upper row moves with the sign, the lower row against it, and a walk
    leaving the stretch turns to the other row in place."""
    d = scheme.gap * (sign if row == "u" else -sign)
    if _in_stretch(config, scheme, j + d):
        return row, j + d
    return ("l" if row == "u" else "u"), j


def _component(scheme, letter: int, row: str) -> int:
    u, lo = scheme.pair_of(letter)
    return u if row == "u" else lo


def read_at(config, i: int, scheme: MarkerScheme, span: int) -> tuple[Word, Word]:
    """The upper and lower row words of length 2*span+1 read around i.

    Entry z of the upper word (z = -span..span) is the upper-or-lower
    component at the z-th iterate of the next map started at (u, i); the
    lower word starts at (l, i).  i must sit in a stretch.
    """
    if not isinstance(config, (PeriodicPoint, WindowConfig)):
        raise TypeError("config must be a PeriodicPoint or a WindowConfig")
    if not _in_stretch(config, scheme, i):
        raise ValueError(f"position {i} is not in any coded stretch")

    def walk(start_row):
        values = [_component(scheme, config.letter(i), start_row)] * (2 * span + 1)
        for sign in (1, -1):
            row, j = start_row, i
            for z in range(1, span + 1):
                row, j = _step(config, scheme, row, j, sign)
                values[span + sign * z] = _component(scheme, config.letter(j), row)
        return tuple(values)

    return walk("u"), walk("l")


def embed_code(code: StabilizedCode, scheme: MarkerScheme) -> StabilizedCode:
    """The target-shift code conjugate to `code` under the stretch encoding.

    Output period is k*R.  At a non-data letter the input is copied; at
    a data letter position z the output encodes the pair

        ( phi(upper row) at floor(z/R),
          (shift.phi.shift^-1)(lower row) at -floor(z/R) ),

    evaluated by walking the stretch at most r steps each way, so radius
    W = r*R suffices (the walk moves R letters per step and membership
    probes stay one step ahead of the values read).  The conjugated
    lower-row action is the same window lookup with the position class
    advanced by one; it keeps the embedding multiplicative (see the
    module docstring) and is invisible for period-1 sources.

    Output class c reads source class c // R, and only at the 2r+1 slots
    W + m*R, so two walks build the rows of one (k, q^(2W+1)) block.  The
    first fills a compact table per source class over the read slots
    alone: a source window index is a sum over them of look[case*q +
    letter].  The second spreads those tables over the window chunk by
    chunk: the head's read letters pick a contiguous slice, and the
    unread slots but the first are repeated in, so the copy runs along
    long rows.  At gap 1 or radius 0 the compact tables are the block.
    """
    if code.n != scheme.n:
        raise ValueError("code alphabet must match the scheme's source alphabet")
    n, k, r = code.n, code.period, code.radius
    q, R = scheme.q, scheme.gap
    period, W = k * R, r * R
    width, reads = 2 * W + 1, 2 * r + 1
    _check_size(q, W, period)
    letters = np.arange(q, dtype=np.int64)
    is_data = letters < n**2
    hi, lo = np.divmod(letters % n**2, n)
    w = _walk_weights(n, r)
    # lookups[walk, m, case*q + letter]: the letter's share of the walk's window
    lookups = (w[..., :1] * hi + w[..., 1:] * lo).transpose(0, 2, 1, 3).reshape(2, reads, -1)
    block = np.empty((k, q**width), dtype=_table_dtype(q))
    compact = block if width == reads else np.empty((k, q**reads), dtype=block.dtype)
    for ch in window_chunks(q, reads):
        slots = [ch.take(letters, m, 1) for m in range(reads)]
        data = [is_data[a] for a in slots]
        case = _stretch_case(data, r) * q
        win_u, win_l = (sum(look[case + a] for look, a in zip(walk, slots)) for walk in lookups)
        for j0 in range(k):
            upper = code.tables[j0][win_u].astype(np.int64)
            encoded = upper * n + code.tables[(1 - j0) % k][win_l]
            ch.take(compact[j0])[...] = np.where(data[r], encoded, slots[r])
    spread = at = None
    for ch in window_chunks(q, width) if compact is not block else ():
        head = width - ch.s
        # the head's letters at slots 0, R, .. lead the compact index
        lead = -(-head // R)
        base = sum(ch.prefix // q ** (head - 1 - i * R) % q * q ** (reads - 1 - i)
                   for i in range(lead))
        if base != at:  # chunks that differ only at unread head slots share it
            shape = [q if x % R == 0 else 1 for x in range(head, width)]
            spread, at = compact[:, base: base + q ** (reads - lead)].reshape((k, *shape)), base
            for axis in [1 + i for i, size in enumerate(shape) if size == 1][1:]:
                spread = spread.repeat(q, axis)
        ch.take(block)[...] = spread
    rows = list(block)
    return StabilizedCode(q, period, W, _Owned(rows[c // R] for c in range(period)))


@functools.lru_cache(maxsize=64)
def _walk_weights(n: int, r: int) -> np.ndarray:
    """How the source windows read by r-step walks are made of slot letters.

    Seen from a data letter at slot 0, the stretch occupies the slots
    -e_left .. e_right (each capped at r, as an r-step walk probes no
    further), so the walk depends on the case e_right*(r+1) + e_left
    alone.  For the walk starting in the upper (walk 0) or lower (walk 1)
    row, entry [walk, case, m + r, row] sums the place values n^(2r-i) of
    the window slots i read from slot m in that row (0 for the upper
    component, 1 for the lower).  Memoised, and read-only.
    """
    w = np.zeros((2, (r + 1) ** 2, 2 * r + 1, 2), dtype=np.int64)
    for walk, e_right, e_left in itertools.product(range(2), range(r + 1), range(r + 1)):
        case = e_right * (r + 1) + e_left
        w[walk, case, r, walk] += n**r
        for sign in (1, -1):
            m, upper = 0, not walk
            for z in range(1, r + 1):
                step = sign if upper else -sign
                if -e_left <= m + step <= e_right:
                    m += step
                else:
                    upper = not upper
                w[walk, case, m + r, int(not upper)] += n ** (r - sign * z)
    w.flags.writeable = False
    return w


def _stretch_case(data: list[np.ndarray], r: int) -> np.ndarray:
    """e_right*(r+1) + e_left, where the data slots run e_right slots right
    and e_left slots left of the centre slot r without a break."""
    case = 0
    for side, weight in ((data[r + 1:], r + 1), (data[:r][::-1], 1)):
        unbroken = True
        for d in side:
            unbroken = unbroken & d
            case = case + weight * unbroken
    return case


def embed_automorphism(phi: Automorphism, scheme: MarkerScheme) -> Automorphism:
    """Embedded automorphism: forward and inverse codes embedded separately.

    The pair is verified at every window.  A check past the table budget
    raises CodeSizeExceeded before any window is walked, and a
    source the embedding cannot carry (one that does not commute with the
    square of the shift) raises VerificationFailed.
    """
    return Automorphism(embed_code(phi.forward, scheme), embed_code(phi.inverse, scheme))
