"""Alphabets, SFT presentations, words, and periodic points.

Shifts of finite type are presented by square non-negative integer
matrices; points of the edge shift are bi-infinite walks in the graph
with entry (i, j) counting parallel edges from vertex i to vertex j.
The full shift on n symbols is the 1x1 matrix (n).

Words are plain tuples of letter indices.  Everything here is an
immutable value and every function is pure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

Word = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet; letters are 0 .. size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("alphabet size must be >= 1")

    def check_letter(self, a: int) -> None:
        if not 0 <= a < self.size:
            raise ValueError(f"letter {a} out of range for alphabet of size {self.size}")

    def check_word(self, word) -> Word:
        word = tuple(int(a) for a in word)
        for a in word:
            self.check_letter(a)
        return word


@dataclass(frozen=True)
class SftMatrix:
    """Adjacency matrix presentation of a shift of finite type.

    Edges are canonically enumerated sorted by (source, target,
    multiplicity index); all downstream labelings depend on this order.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.entries)
        if d < 1 or any(len(row) != d for row in self.entries):
            raise ValueError("entries must form a square matrix")
        if any(e < 0 for row in self.entries for e in row):
            raise ValueError("entries must be non-negative")
        object.__setattr__(self, "entries", tuple(tuple(int(e) for e in row) for row in self.entries))

    @classmethod
    def full_shift(cls, n: int) -> "SftMatrix":
        if n < 1:
            raise ValueError("full shift needs n >= 1")
        return cls(((n,),))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def edge_count(self) -> int:
        return sum(sum(row) for row in self.entries)

    @property
    def is_full_shift(self) -> bool:
        return self.dim == 1

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """Canonical edge list: (source, target, multiplicity index)."""
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                for m in range(self.entries[i][j]):
                    out.append((i, j, m))
        return tuple(out)

    def edge_endpoints(self) -> tuple[tuple[int, int], ...]:
        return tuple((s, t) for s, t, _ in self.edges())


def matrix_power_trace(sft: SftMatrix, k: int) -> int:
    """trace(A^k) with exact integer arithmetic."""
    d = sft.dim
    acc = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    base = [list(row) for row in sft.entries]
    e = k
    while e:
        if e & 1:
            acc = _matmul(acc, base)
        base = _matmul(base, base)
        e >>= 1
    return sum(acc[i][i] for i in range(d))


def _matmul(x, y):
    d = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def language_words(sft: SftMatrix, length: int) -> list[Word]:
    """Admissible edge-words of the given length, lexicographically ordered.

    A word is a path: the target of each edge is the source of the next.
    For the full shift this is all n^length words.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    ends = sft.edge_endpoints()
    if not ends:
        return []
    words: list[Word] = []

    def extend(prefix: list[int], tail_vertex: int | None):
        if len(prefix) == length:
            words.append(tuple(prefix))
            return
        for e, (s, t) in enumerate(ends):
            if tail_vertex is None or s == tail_vertex:
                prefix.append(e)
                extend(prefix, t)
                prefix.pop()

    extend([], None)
    return words


def count_periodic(sft: SftMatrix, k: int) -> int:
    """Number of points fixed by the k-th power of the shift: trace(A^k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return matrix_power_trace(sft, k)


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    if n == 1:
        return 1
    primes, exps = prime_exponents(n)
    return 0 if max(exps) > 1 else (-1) ** len(primes)


def count_least_period_orbits(n: int, p: int) -> int:
    """Number of shift orbits of least period exactly p in the full n-shift.

    Moebius inversion of n^p = sum_{d|p} d * (orbit count at d).
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    total = sum(_mobius(p // d) * n**d for d in range(1, p + 1) if p % d == 0)
    assert total % p == 0
    return total // p


def power_alphabet_index(n: int, k: int, block) -> int:
    """Leftmost-significant index of a length-k block in A^k."""
    block = tuple(block)
    if len(block) != k:
        raise ValueError(f"block length {len(block)} != {k}")
    idx = 0
    for a in block:
        if not 0 <= a < n:
            raise ValueError(f"letter {a} out of range for alphabet of size {n}")
        idx = idx * n + a
    return idx


def index_to_block(n: int, k: int, idx: int) -> Word:
    """Inverse of power_alphabet_index."""
    if not 0 <= idx < n**k:
        raise ValueError("index out of range")
    letters = []
    for _ in range(k):
        idx, a = divmod(idx, n)
        letters.append(a)
    return tuple(reversed(letters))


@dataclass(frozen=True, eq=False)
class PeriodicPoint:
    """Periodic point x with x_z = block[(z + phase) mod len(block)].

    Equality is rotation-aware and reduces to the least period, so two
    representations are equal exactly when they define the same
    bi-infinite sequence.
    """

    block: Word
    phase: int = 0

    def __post_init__(self):
        if len(self.block) < 1:
            raise ValueError("block must be nonempty")
        object.__setattr__(self, "block", tuple(int(a) for a in self.block))
        object.__setattr__(self, "phase", self.phase % len(self.block))

    @property
    def period(self) -> int:
        return len(self.block)

    def letter(self, z: int) -> int:
        return self.block[(z + self.phase) % len(self.block)]

    def window(self, lo: int, hi: int) -> Word:
        """Letters at positions lo..hi inclusive."""
        return tuple(self.letter(z) for z in range(lo, hi + 1))

    def shifted(self, j: int = 1) -> "PeriodicPoint":
        """Image under the j-th power of the shift: y_z = x_{z+j}."""
        return PeriodicPoint(self.block, self.phase + j)

    def canonical(self) -> tuple[int, Word, int]:
        """(least period, lex-least rotation of the primitive block, phase)."""
        seq = tuple(self.letter(z) for z in range(self.period))
        p = self.period
        for d in range(1, self.period + 1):
            if self.period % d == 0 and all(seq[i] == seq[i % d] for i in range(self.period)):
                p = d
                break
        word = seq[:p]
        best_t = min(range(p), key=lambda t: word[t:] + word[:t])
        best = word[best_t:] + word[:best_t]
        return (p, best, (-best_t) % p)

    def __eq__(self, other):
        if not isinstance(other, PeriodicPoint):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return f"PeriodicPoint(block={self.block}, phase={self.phase})"


_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1)))
# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# rho finds a prime factor p in about sqrt(p) steps: up to about 10^10
RHO_STEPS = 1 << 18


def _is_prime(m: int) -> bool:
    """Exact primality of an m with no prime factor below 1000."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= MR_EXACT_BELOW:
        raise ValueError(f"cannot prove {m} prime: Miller-Rabin on 13 bases "
                         f"is exact only below {MR_EXACT_BELOW}")
    return True


def _rho_factor(m: int) -> int:
    """A proper divisor of the composite m (Pollard rho, Brent's cycle search)."""
    for c in range(1, 16):
        x = y = 2
        g, power, steps = 1, 1, 0
        while g == 1:
            if steps == power:
                x, power, steps = y, 2 * power, 0
                if power > RHO_STEPS:
                    raise ValueError(f"no factor of {m} found within {RHO_STEPS} Pollard rho steps")
            y = (y * y + c) % m
            steps += 1
            g = math.gcd(y - x, m)
        if g != m:
            return g
    raise ValueError(f"Pollard rho found no proper divisor of {m}")


def prime_exponents(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sorted primes of n, their exponents in n), exactly.

    Trial division by the primes below 1000, then Pollard rho on the rest,
    every factor proved prime by deterministic Miller-Rabin.  A cofactor
    that cannot be settled exactly raises ValueError.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    exps: Counter[int] = Counter()
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
            exps[p] += 1
    # what is left has no prime factor below 1000, so below 1000^2 it is prime
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < 1000**2 or _is_prime(m):
            exps[m] += 1
        else:
            d = _rho_factor(m)
            pending += [d, m // d]
    primes = sorted(exps)
    return tuple(primes), tuple(exps[p] for p in primes)


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime divisors."""
    return list(prime_exponents(n)[0])


def lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)
