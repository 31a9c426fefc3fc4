"""Dimension representation of full-shift automorphisms by ray counting.

An automorphism of radius r with inverse radius s sends the ray of
points agreeing with a constant tail up to position 0 to a finite union
of rays at level m = r + s.  Counting the distinct output segments N on
positions (-r, m] over all right-extensions identifies the image class
as N / q^m in the dyadic-style group Z[1/q], and the map

    aut -> multiplier N / q^m

is the dimension representation.  Values are reported as exponent
vectors over the prime divisors of the alphabet size.

The count is insensitive to the position-class structure of the code,
so period-k codes are handled directly, with no recoding to A^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import Automorphism, index_chunks, subwindow
from .shifts import prime_factors


class MultiplierNotSupported(ValueError):
    """The ray multiplier has a prime factor not dividing the alphabet size."""


@dataclass(frozen=True)
class ExponentVector:
    """Element of Z^omega(n): exponents over the sorted primes of n."""

    primes: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.primes) != len(self.exponents):
            raise ValueError("length mismatch")

    @classmethod
    def zero(cls, n: int) -> "ExponentVector":
        primes = tuple(prime_factors(n))
        return cls(primes, (0,) * len(primes))

    def __add__(self, other: "ExponentVector") -> "ExponentVector":
        if self.primes != other.primes:
            raise ValueError("prime support mismatch")
        return ExponentVector(self.primes, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __neg__(self) -> "ExponentVector":
        return ExponentVector(self.primes, tuple(-e for e in self.exponents))

    def __sub__(self, other: "ExponentVector") -> "ExponentVector":
        return self + (-other)

    def scaled(self, c: int) -> "ExponentVector":
        return ExponentVector(self.primes, tuple(c * e for e in self.exponents))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def as_fraction(self) -> Fraction:
        out = Fraction(1)
        for p, e in zip(self.primes, self.exponents):
            out *= Fraction(p) ** e
        return out


@dataclass(frozen=True)
class RayCount:
    """m = beam level (forward + inverse radius), N = distinct image prefixes."""

    m: int
    count: int

    def multiplier(self, q: int) -> Fraction:
        return Fraction(self.count, q**self.m)


RAY_ENUMERATION_BUDGET = 40_000_000


def ray_image_count(aut: Automorphism, tail_letter: int = 0) -> RayCount:
    """Count distinct outputs on (-r, m] over all extensions of a constant tail.

    The input ranges over all points with x_i = tail_letter for i <= 0
    and free letters at 1 .. m + r, where r and s are the forward and
    inverse radii and m = r + s.
    """
    code = aut.forward
    q = code.n
    if q < 2:
        raise ValueError("alphabet must have at least 2 letters")
    if not 0 <= tail_letter < q:
        raise ValueError("tail letter out of range")
    r, s = code.radius, aut.inverse.radius
    m = r + s
    free = m + r
    if free == 0:
        return RayCount(0, 1)
    if q**free > RAY_ENUMERATION_BUDGET:
        raise MultiplierNotSupported(
            f"{q}^{free} ray extensions exceed the enumeration budget"
        )
    seen = np.zeros(q**free, dtype=bool)
    for _, idx in index_chunks(q**free):
        # idx holds the free letters at positions 1..free; a window
        # reaching back to position <= 0 starts with t tail letters
        key = np.zeros(idx.shape, dtype=np.int64)
        for out_pos in range(-r + 1, m + 1):
            t = max(0, r - out_pos + 1)
            tail = tail_letter * (q**t - 1) // (q - 1) * q ** (2 * r + 1 - t)
            win = tail + subwindow(idx, q, free, out_pos - r - 1 + t, 2 * r + 1 - t)
            key *= q
            key += code.tables[out_pos % code.period][win]
        seen[key] = True
    return RayCount(m, int(np.count_nonzero(seen)))


def dimension_multiplier(aut: Automorphism) -> ExponentVector:
    """Exponent vector of the automorphism under the dimension representation.

    The multiplier N / q^m is factored over the primes of the alphabet
    size; any other prime in the exact factorization is an error.  The
    count is recomputed with a second tail letter as a consistency check.
    """
    q = aut.n
    primes = tuple(prime_factors(q))
    counts = [ray_image_count(aut, tail) for tail in (0, min(1, q - 1))]
    mults = {rc.multiplier(q) for rc in counts}
    if len(mults) != 1:
        raise MultiplierNotSupported("ray count depends on the tail letter")
    value = mults.pop()
    num, den = value.numerator, value.denominator
    exponents = []
    for p in primes:
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        exponents.append(e)
    if num != 1 or den != 1:
        raise MultiplierNotSupported(
            f"multiplier {value} is not supported on the primes of {q}"
        )
    return ExponentVector(primes, tuple(exponents))


def is_inert(aut: Automorphism) -> bool:
    """Kernel membership for the dimension representation."""
    return dimension_multiplier(aut).is_zero()


@dataclass(frozen=True)
class DimensionGroupDescriptor:
    """Rank and multiplier generators of the stabilized dimension-triple
    automorphism group of the full n-shift."""

    n: int
    rank: int
    generator_primes: tuple[int, ...]


def stabilized_dim_group(n: int) -> DimensionGroupDescriptor:
    if n < 2:
        raise ValueError("need n >= 2")
    primes = tuple(prime_factors(n))
    return DimensionGroupDescriptor(n=n, rank=len(primes), generator_primes=primes)
