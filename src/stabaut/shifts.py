"""SFT presentations, words, periodic points, and exact arithmetic.

Shifts of finite type are presented by square non-negative integer
matrices; points of the edge shift are bi-infinite walks in the graph
with entry (i, j) counting parallel edges from vertex i to vertex j.
The full shift on n symbols is the 1x1 matrix (n).  Letters of the
n-letter alphabet are 0 .. n-1.

Words are plain tuples of letter indices.  Everything here is an
immutable value and every function is pure.  The module imports no
numpy, so the names every other module shares live here: the budget
predicate `_power_exceeds`, the closure search `_closure` that the
permutation groups and the matrix group over Z/4 both run, and
`VerificationFailed`, the one error a failed exact self-check raises.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

Word = tuple[int, ...]


class VerificationFailed(ValueError):
    """An exact check that should have held failed, such as a declared
    inverse pair, a root's defining identity or a recipe's certificate."""


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
    """Number of points fixed by the k-th power of the shift: trace(A^k),
    with exact integer arithmetic."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = sft.dim
    acc = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    base = [list(row) for row in sft.entries]
    while k:
        if k & 1:
            acc = _matmul(acc, base)
        base = _matmul(base, base)
        k >>= 1
    return sum(acc[i][i] for i in range(d))


def _power_exceeds(n: int, e: int, budget: int, factor: int = 1) -> bool:
    """Whether factor * n^e > budget (factor >= 1).  Since n^e >= 2^e for
    n > 1, an exponent whose 2^e alone passes the budget is decided by bit
    length, before the power is computed."""
    return n > 1 and e > budget.bit_length() or factor * n**e > budget


def count_least_period_orbits(n: int, p: int) -> int:
    """Number of shift orbits of least period exactly p in the full n-shift.

    Moebius inversion of n^p = sum_{d|p} d * (orbit count at d), summed
    over the 2^omega(p) squarefree e | p, the only ones with mu(e) != 0.
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    terms = [(1, 1)]  # (squarefree divisor e of p, mu(e))
    for prime in prime_exponents(p)[0] if p > 1 else ():
        terms += [(e * prime, -mu) for e, mu in terms]
    total = sum(mu * n ** (p // e) for e, mu in terms)
    if total % p:
        raise VerificationFailed(f"the Moebius sum for least period {p} is not a multiple of {p}")
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
# the longest cofactor tried: room for a rho-sized factor and a prime below
# MR_EXACT_BELOW (about 2^82), and RHO_STEPS steps take about 1 s at this size
FACTOR_BITS = 128


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


def _trial_divide(n: int) -> tuple[Counter[int], int]:
    """(exponents of the primes below 1000 in n, the cofactor with none)."""
    exps: Counter[int] = Counter()
    for p in _SMALL_PRIMES:
        # peel p, p^2, p^4, ... while they divide: p^e takes O(log(e)^2) divisions, not e
        while n % p == 0:
            q, k = p, 1
            while n % q == 0:
                n //= q
                exps[p] += k
                q, k = q * q, 2 * k
    return exps, n


def _integer_root(a: int, k: int) -> int | None:
    """The exact integer k-th root of a >= 1, if one exists.

    Integer Newton iteration from an upper bound decreases monotonically
    to floor(a^(1/k)), so the result is exact for integers of any size.
    The bound 2^(log2(a)/k), raised past float error, is near the root:
    from 2^ceil(bits/k), x would shrink by only 1 - 1/k a step.
    """
    e = math.log2(a) / k * (1 + 2**-30)
    s = max(0, int(e) - 60)
    x = (int(2 ** (e - s)) + 1) << s
    while (y := ((k - 1) * x + a // x ** (k - 1)) // k) < x:
        x = y
    return x if x**k == a else None


def _perfect_power(a: int) -> tuple[int, int]:
    """(b, h) with a = b^h and b no perfect power, for a >= 1.

    Roots are taken from a shrinking base at prime k (a composite k never
    succeeds, its prime factors being gone).  A k divides g0, the gcd of
    the exponents of the primes below 1000 in a; with no such prime every
    base is at least 1009 > 2^9, so k is at most its bit length over 9.
    """
    g0 = math.gcd(*_trial_divide(a)[0].values())
    h, k = 1, 2
    while k <= (g0 or a.bit_length() // 9):
        skip = g0 % k or any(k % d == 0 for d in range(2, math.isqrt(k) + 1))
        root = None if skip else _integer_root(a, k)
        if root is None:
            k += 1
        else:
            a, h, g0 = root, h * k, g0 // k
    return a, h


def prime_exponents(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sorted primes of n, their exponents in n), exactly.

    Trial division by the primes below 1000 leaves a cofactor b^h, b no
    perfect power; Pollard rho splits b, every factor proved prime by
    deterministic Miller-Rabin, and counts each prime h times.  A base that
    cannot be settled exactly, or one longer than FACTOR_BITS, raises
    ValueError.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    exps, n = _trial_divide(n)
    n, h = _perfect_power(n)
    # what is left has no prime factor below 1000, so below 1000^2 it is prime
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m.bit_length() > FACTOR_BITS:
            raise ValueError(f"cannot factor a cofactor of {m.bit_length()} bits: "
                             f"exact factoring stops at {FACTOR_BITS} bits")
        if m < 1000**2 or _is_prime(m):
            exps[m] += h
        else:
            d = _rho_factor(m)
            pending += [d, m // d]
    primes = sorted(exps)
    return tuple(primes), tuple(exps[p] for p in primes)


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime divisors."""
    return list(prime_exponents(n)[0])


lcm = math.lcm


def _closure(seeds, step) -> set:
    """Every value reached from `seeds` by repeated `step(value)`, which
    yields that value's successors; the seeds are included."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for value in step(frontier.pop()):
            if value not in seen:
                seen.add(value)
                frontier.append(value)
    return seen
