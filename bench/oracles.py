"""Answer oracles that do not use the kernels the benchmark times.

Everything here is small, scalar and written for this benchmark:
closed formulas (factorials, Moebius orbit counts, exponent vectors),
an image-tuple permutation composer, a brute-force block search, and
spot checks that evaluate codes on seeded periodic points through the
library's scalar `apply_to_periodic` and `read_at` instead of its dense
tables.  The oracles run outside the timed span of every job.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

import numpy as np

from stabaut.codes import StabilizedCode, apply_to_periodic
from stabaut.krembed import read_at
from stabaut.shifts import PeriodicPoint

# -- arithmetic -------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here have small primes)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def exponent_vector(n: int, j: int = 1) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(primes of n, j times their exponents): the dimension value of shift^j."""
    fac = factorize(n)
    primes = tuple(sorted(fac))
    return primes, tuple(j * fac[p] for p in primes)


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def least_period_orbits(n: int, p: int) -> int:
    return sum(mobius(p // d) * n**d for d in range(1, p + 1) if p % d == 0) // p


def integer_root(a: int, k: int) -> int:
    """floor(a ** (1/k)) by integer Newton iteration."""
    if a < 2 or k == 1:
        return a
    x = 1 << -(-a.bit_length() // k)  # an upper bound
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def roots_set(a: int) -> list[int]:
    return [k for k in range(1, a.bit_length() + 1) if integer_root(a, k) ** k == a]


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


# -- permutations as image tuples ---------------------------------------------


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q: q acts first."""
    return tuple(p[i] for i in q)


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def perm_power(p: tuple[int, ...], e: int) -> tuple[int, ...]:
    if e < 0:
        p, e = perm_inverse(p), -e
    out = tuple(range(len(p)))
    for _ in range(e):
        out = perm_compose(p, out)
    return out


def evaluate_word(alphabet: dict[str, tuple[int, ...]], word) -> tuple[int, ...]:
    """Tokens (label, exponent) applied left to right; the first acts first."""
    degree = len(next(iter(alphabet.values())))
    acc = tuple(range(degree))
    powers: dict[tuple[str, int], tuple[int, ...]] = {}
    for label, exp in word:
        key = (label, exp)
        if key not in powers:
            powers[key] = perm_power(alphabet[label], exp)
        acc = perm_compose(powers[key], acc)
    return acc


def cycle_lengths(p: tuple[int, ...]) -> list[int]:
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length > 1:
            out.append(length)
    return out


def parity(p: tuple[int, ...]) -> int:
    return sum(c - 1 for c in cycle_lengths(p)) % 2


def closure(gens: list[tuple[int, ...]], degree: int, limit: int = 100_000) -> set:
    """All elements of the generated group, by breadth-first search."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = deque([ident])
    while frontier:
        g = frontier.popleft()
        for s in gens:
            h = perm_compose(s, g)
            if h not in seen:
                if len(seen) >= limit:
                    raise ValueError("group larger than the oracle limit")
                seen.add(h)
                frontier.append(h)
    return seen


def _orbit(gens, point: int) -> set[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                frontier.append(g[x])
    return seen


def is_block(gens, degree: int, block: frozenset[int]) -> bool:
    """Whether the images of `block` under the group are equal or disjoint."""
    images = {block}
    frontier = [block]
    while frontier:
        b = frontier.pop()
        for g in gens:
            img = frozenset(g[x] for x in b)
            if img in images:
                continue
            if any(img & other for other in images):
                return False
            images.add(img)
            frontier.append(img)
    return True


def primitive_brute(gens: list[tuple[int, ...]], degree: int) -> bool:
    """Primitivity by trying every candidate block through point 0."""
    if len(_orbit(gens, 0)) != degree:
        return False
    rest = range(1, degree)
    for size in range(2, degree):
        if degree % size:
            continue
        for others in itertools.combinations(rest, size - 1):
            if is_block(gens, degree, frozenset((0, *others))):
                return False
    return True


# -- codes on periodic points ---------------------------------------------------


def spot_points(rng: random.Random, alphabet: int, count: int, max_period: int,
                letters: list[int] | None = None) -> list[PeriodicPoint]:
    """Seeded periodic points; `letters` restricts the letters drawn."""
    pool = list(range(alphabet)) if letters is None else letters
    return [
        PeriodicPoint(tuple(rng.choice(pool) for _ in range(rng.randint(1, max_period))))
        for _ in range(count)
    ]


def seq(x: PeriodicPoint, length: int) -> tuple[int, ...]:
    return tuple(x.letter(z) for z in range(length))


def same_on_points(points, left, right, *periods: int) -> bool:
    """left(x) and right(x) agree on every point, letter by letter."""
    for x in points:
        length = math.lcm(x.period, *periods)
        if seq(left(x), length) != seq(right(x), length):
            return False
    return True


def applier(*codes: StabilizedCode):
    """x -> codes[0](codes[1](...codes[-1](x))) by scalar evaluation."""

    def apply(x: PeriodicPoint) -> PeriodicPoint:
        for code in reversed(codes):
            x = apply_to_periodic(code, x)
        return x

    return apply


def padded(code: StabilizedCode, pad: int) -> StabilizedCode:
    """The same map at radius r + pad, built by direct index arithmetic."""
    n, r = code.n, code.radius
    idx = np.arange(n ** (2 * (r + pad) + 1), dtype=np.int64)
    inner = (idx // n**pad) % n ** (2 * r + 1)
    return StabilizedCode(n, code.period, r + pad, tuple(t[inner] for t in code.tables))


def with_one_entry_changed(code: StabilizedCode, rng: random.Random) -> StabilizedCode:
    tables = [np.array(t) for t in code.tables]
    c = rng.randrange(code.period)
    i = rng.randrange(tables[c].size)
    tables[c][i] = (int(tables[c][i]) + 1) % code.n
    return StabilizedCode(code.n, code.period, code.radius, tuple(tables))


def embedded_letter(code: StabilizedCode, scheme, x: PeriodicPoint, z: int) -> int:
    """Output letter of the embedded code at z, from the stretch walk.

    A non-data letter is copied; a data letter encodes the source code
    on the upper row read at class floor(c/R) and on the lower row at
    class 1 - floor(c/R), with c = z mod kR.
    """
    letter = x.letter(z)
    if not scheme.is_data(letter):
        return letter
    upper, lower = read_at(x, z, scheme, code.radius)
    k, R = code.period, scheme.gap
    j0 = (z % (k * R)) // R
    out_u = code.evaluate(j0 % k, upper)
    out_l = code.evaluate((1 - j0) % k, lower)
    return scheme.data_for(out_u, out_l)


def embedding_matches(embedded: StabilizedCode, source: StabilizedCode, scheme, points) -> bool:
    for x in points:
        length = math.lcm(x.period, embedded.period)
        image = apply_to_periodic(embedded, x)
        if any(image.letter(z) != embedded_letter(source, scheme, x, z) for z in range(length)):
            return False
    return True
