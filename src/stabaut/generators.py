"""Constructors for the standard automorphism families and the
executable identities relating them: shift powers, block-permutation
codes, the even-position commutator trick, m-th roots of block codes,
diagonal inflation with parity tracking, and power recoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (
    Automorphism,
    StabilizedCode,
    _check_size,
    _inflate_block_map,
    _table_dtype,
    code_power,
    compose_all,
    equals,
    index_chunks,
    subwindow,
)
from .permlab import Permutation
from .shifts import SftMatrix, lcm


@dataclass(frozen=True)
class SimpleGraphPerm:
    """A permutation of the length-m blocks over an n-letter alphabet,
    i.e. an edge symmetry of the one-vertex graph presenting the m-th
    shift power."""

    n: int
    m: int
    perm: Permutation

    def __post_init__(self):
        if self.perm.degree != self.n**self.m:
            raise ValueError("permutation degree must be n^m")

    def is_even(self) -> bool:
        return self.perm.parity() == 0


def shift_power(n: int, j: int) -> Automorphism:
    """The j-th power of the shift as a verified code pair."""
    return Automorphism(StabilizedCode.shift(n, j), StabilizedCode.shift(n, -j))


def symbol_permutation(n: int, k: int, perm: SimpleGraphPerm | Permutation) -> Automorphism:
    """Code acting blockwise on aligned k-blocks by the given permutation."""
    if isinstance(perm, SimpleGraphPerm):
        if perm.m != k or perm.n != n:
            raise ValueError("permutation shape mismatch")
        perm = perm.perm
    if perm.degree != n**k:
        raise ValueError("permutation degree must be n^k")
    fwd = StabilizedCode.from_block_permutation(n, k, perm.images)
    inv = StabilizedCode.from_block_permutation(n, k, perm.inverse().images)
    return Automorphism(fwd, inv)


def letter_permutation(n: int, perm: Permutation) -> Automorphism:
    """1-block code applying a letter permutation at every position."""
    return symbol_permutation(n, 1, perm)


def flip(n: int = 2) -> Automorphism:
    """The letter exchange 0 <-> 1 (the involution used everywhere in tests)."""
    return letter_permutation(n, Permutation.transposition(n, 0, 1))


def periodic_letter_permutation(n: int, perms: list[Permutation]) -> Automorphism:
    """Radius-0 code of period k applying perms[z mod k] at position z."""
    k = len(perms)
    for p in perms:
        if p.degree != n:
            raise ValueError("letter permutation degree mismatch")
    fwd = StabilizedCode(n, k, 0, tuple(np.array(p.images) for p in perms))
    inv = StabilizedCode(n, k, 0, tuple(np.array(p.inverse().images) for p in perms))
    return Automorphism(fwd, inv)


def flip_on_even(n: int = 2) -> Automorphism:
    """Exchange 0 <-> 1 at even positions only; identity at odd ones."""
    tau = Permutation.transposition(n, 0, 1)
    return periodic_letter_permutation(n, [tau, Permutation.identity(n)])


def edge_permutation_code(sft: SftMatrix, perm: Permutation) -> Automorphism:
    """1-block automorphism induced by an edge symmetry fixing all vertices."""
    ends = sft.edge_endpoints()
    if perm.degree != len(ends):
        raise ValueError("permutation degree must equal the edge count")
    for e, (s, t) in enumerate(ends):
        if ends[perm(e)] != (s, t):
            raise ValueError("edge symmetry must preserve endpoints")
    n = len(ends)
    fwd = StabilizedCode(n, 1, 0, (np.array(perm.images),))
    inv = StabilizedCode(n, 1, 0, (np.array(perm.inverse().images),))
    return Automorphism(fwd, inv)


def swap_commutator_witness(
    n: int,
    tau: Permutation,
    block_len: int = 1,
    sft: SftMatrix | None = None,
) -> tuple[Automorphism, bool]:
    """The even-position trick writing a block transposition as a commutator.

    For a transposition tau of length-`block_len` blocks, phi0 applies
    tau on the blocks aligned at even multiples of block_len only.  The
    returned flag verifies, by exact table comparison, that the everywhere
    code induced by tau equals  phi0 . shift^b . phi0^-1 . shift^-b
    (b = block_len).  A False is a build-breaking bug, not a data point.
    """
    k = block_len
    if tau.degree != n**k:
        raise ValueError("tau must permute the n^k blocks")
    if len(tau.cycles()) != 1 or len(tau.cycles()[0]) != 2:
        raise ValueError("tau must be a single transposition")

    nk = n**k
    # phi0 on aligned 2k-blocks: apply tau to the first k-sub-block
    idx = np.arange(nk * nk, dtype=np.int64)
    images = np.asarray(tau.images)[subwindow(idx, nk, 2, 0, 1)] * nk + subwindow(idx, nk, 2, 1, 1)
    phi0 = symbol_permutation(n, 2 * k, Permutation(tuple(images.tolist())))
    tau_everywhere = symbol_permutation(n, k, tau)
    sigma_b = shift_power(n, k)
    lhs = tau_everywhere.forward
    rhs = compose_all(phi0.forward, sigma_b.forward, phi0.inverse, sigma_b.inverse)
    verified = equals(lhs, rhs, sft)
    return phi0, verified


def mth_root_of(phi0: Automorphism, m: int) -> Automorphism:
    """A code of period m*k whose m-th power is the given block code.

    phi0 must act blockwise on aligned k-blocks.  The root is the
    composition of "apply phi0's block map to the first of m sub-blocks"
    with the cyclic rotation of the m sub-blocks; its m-th power is
    verified to equal phi0 exactly before returning.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    g = phi0.forward.block_map
    if g is None:
        raise ValueError("phi0 must be a blockwise (0-block) code")
    k = phi0.forward.period
    n = phi0.n
    nk = n**k
    # sub-blocks 0 .. m-1 of each mk-block go to g(sub-block 1), then
    # sub-blocks 2 .. m-1, then sub-block 0
    idx = np.arange(nk**m, dtype=np.int64)
    head = np.asarray(g, dtype=np.int64)[subwindow(idx, nk, m, 1, 1)] * nk ** (m - 1)
    images = head + subwindow(idx, nk, m, 2, m - 2) * nk + subwindow(idx, nk, m, 0, 1)
    root = symbol_permutation(n, m * k, Permutation(tuple(images.tolist())))
    if not equals(code_power(root.forward, m), phi0.forward):
        raise RuntimeError("root construction failed its defining identity")
    return root


@dataclass(frozen=True)
class InflateReport:
    cycle_type: tuple[int, ...]
    parity: int
    transposition_count: int | None


def inflate(perm: SimpleGraphPerm, t: int) -> tuple[SimpleGraphPerm, InflateReport]:
    """Diagonal action of a block permutation on t-tuples of blocks.

    The report records the cycle type and parity of the inflated
    permutation, and the number of transpositions when it is an
    involution (an inflated single transposition with t = 2 consists of
    exactly 2 * n^m - 2 of them).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    n, m = perm.n, perm.m
    big = Permutation(tuple(_inflate_block_map(n, m, perm.perm.images, t).tolist()))
    cyc = big.cycle_type()
    trans = len(cyc) if all(c == 2 for c in cyc) and cyc else (0 if not cyc else None)
    report = InflateReport(cycle_type=cyc, parity=big.parity(), transposition_count=trans)
    return SimpleGraphPerm(n, m * t, big), report


def recode_to_power(phi: Automorphism, k: int | None = None) -> Automorphism:
    """Conjugate a period-k automorphism to a period-1 code over A^k.

    Blocks are aligned at absolute position 0; k defaults to the
    automorphism's period and may be any multiple of it.  The block
    radius is ceil((r + k - 1) / k), the smallest count of neighbouring
    blocks guaranteed to cover every letter window the code reads.
    """
    base = lcm(phi.forward.period, phi.inverse.period)
    k = base if k is None else k
    if k % base != 0:
        raise ValueError(f"k must be a multiple of the period {base}")
    fwd = _recode_code(phi.forward.refine(k, phi.forward.radius))
    inv = _recode_code(phi.inverse.refine(k, phi.inverse.radius))
    return Automorphism(fwd, inv)


def _recode_code(code: StabilizedCode) -> StabilizedCode:
    """The period-k code as a period-1 code over A^k.

    A window of 2*big_r+1 blocks has the same index as the window of its
    (2*big_r+1)*k letters, which span absolute positions -big_r*k ..
    (big_r+1)*k - 1; output letter c reads the letters around position c.
    """
    n, k, r = code.n, code.period, code.radius
    big_r = -(-(r + k - 1) // k)
    width = (2 * big_r + 1) * k
    _check_size(n**k, big_r, 1)
    table = np.empty(n**width, dtype=_table_dtype(n**k))
    for start, idx in index_chunks(n**width):
        out = np.zeros(idx.shape, dtype=np.int64)
        for c in range(k):
            out *= n
            out += code.evaluate_indices(c, subwindow(idx, n, width, big_r * k + c - r, 2 * r + 1))
        table[start: start + idx.size] = out
    return StabilizedCode(n**k, 1, big_r, (table,))
