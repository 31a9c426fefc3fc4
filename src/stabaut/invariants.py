"""Arithmetic invariants separating automorphism groups of full shifts,
plus the finite matrix-group computations backing the rank-2 example.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .shifts import prime_exponents, prime_factors


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(prime_factors(n))


def _integer_root(a: int, k: int) -> int | None:
    """The exact integer k-th root of a >= 1, if one exists.

    Integer Newton iteration from an upper bound decreases monotonically
    to floor(a^(1/k)), so the result is exact for integers of any size.
    """
    x = 1 << -(-a.bit_length() // k)
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == a else None


def roots_set(a: int) -> frozenset[int]:
    """{k : a^(1/k) is an integer}; always contains 1."""
    if a < 2:
        raise ValueError("need a >= 2")
    return frozenset(k for k in range(1, a.bit_length() + 1) if _integer_root(a, k) is not None)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a pairwise comparison with its checkable reason.

    outcome is one of 'distinguishable', 'isomorphic', 'inconclusive'.
    reason carries the criterion tag and the data that witnessed it.
    """

    outcome: str
    criterion: str
    detail: dict

    def __post_init__(self):
        if self.outcome not in ("distinguishable", "isomorphic", "inconclusive"):
            raise ValueError("bad outcome")


def _common_power_certificate(m: int, n: int) -> tuple[int, int] | None:
    """(j, k) with m^j == n^k, when the exponent vectors are parallel."""
    pm, em = prime_exponents(m)
    pn, en = prime_exponents(n)
    if pm != pn:
        return None
    gm = gcd(*em) if len(em) > 1 else em[0]
    gn = gcd(*en) if len(en) > 1 else en[0]
    if tuple(e // gm for e in em) != tuple(e // gn for e in en):
        return None
    g = gcd(gm, gn)
    j, k = gn // g, gm // g
    assert m**j == n**k
    return j, k


def distinguish_stabilized(m: int, n: int) -> Verdict:
    """Verdict for the stabilized groups of the m- and n-shifts.

    Different prime-divisor counts force non-isomorphic abelianizations;
    a common power m^j = n^k makes the shifts rationally conjugate and
    the groups isomorphic; anything else is left open.
    """
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    om, on = omega(m), omega(n)
    if om != on:
        return Verdict(
            "distinguishable",
            "prime-divisor-count",
            {"omega_m": om, "omega_n": on},
        )
    cert = _common_power_certificate(m, n)
    if cert is not None:
        j, k = cert
        return Verdict(
            "isomorphic",
            "rational-conjugacy",
            {"j": j, "k": k, "identity": f"{m}^{j} == {n}^{k}"},
        )
    return Verdict("inconclusive", "no-criterion-applies", {"omega": om})


def distinguish_classical(m: int, n: int) -> Verdict:
    """Verdict for the non-stabilized groups via integer-root sets.

    Unequal root sets are decisive; equality decides nothing, and this
    criterion can never certify an isomorphism.
    """
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    rm, rn = roots_set(m), roots_set(n)
    if rm != rn:
        return Verdict(
            "distinguishable",
            "roots-set",
            {"rts_m": sorted(rm), "rts_n": sorted(rn)},
        )
    return Verdict("inconclusive", "roots-set-equal", {"rts": sorted(rm)})


# -- the order-48 matrix group over Z/4 ----------------------------------

Matrix = tuple[int, int, int, int]  # (a, b, c, d) for ((a, b), (c, d)) mod 4


def _mul(x: Matrix, y: Matrix) -> Matrix:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 4, (a * f + b * h) % 4, (c * e + d * g) % 4, (c * f + d * h) % 4)


def _inv(x: Matrix) -> Matrix:
    a, b, c, d = x  # det = 1, so the adjugate inverts
    return (d % 4, (-b) % 4, (-c) % 4, a % 4)


def _sl2_z4_elements() -> list[Matrix]:
    out = []
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    if (a * d - b * c) % 4 == 1:
                        out.append((a, b, c, d))
    return out


def _closure(generators: list[Matrix]) -> set[Matrix]:
    ident = (1, 0, 0, 1)
    seen = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = _mul(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@dataclass(frozen=True)
class Sl2Z4Report:
    group_order: int
    commutator_order: int
    contains_first: bool
    contains_second: bool
    unipotent_image_order: int


def sl2_z4_report() -> Sl2Z4Report:
    """Exact facts about SL_2(Z/4) used by the rank-2 abelianization example.

    The commutator subgroup is computed by closing the set of all
    commutators; membership of the two distinguished matrices and the
    order of the image of the upper unipotent in the quotient are read
    off directly.
    """
    elements = _sl2_z4_elements()
    commutators = []
    for x in elements:
        for y in elements:
            commutators.append(_mul(_mul(x, y), _mul(_inv(x), _inv(y))))
    derived = _closure(list(set(commutators)))
    first = (2, 3, 3, 1)
    second = (3, 1, 3, 0)
    unipotent = (1, 1, 0, 1)
    power = unipotent
    order = 1
    while power not in derived:
        power = _mul(power, unipotent)
        order += 1
    return Sl2Z4Report(
        group_order=len(elements),
        commutator_order=len(derived),
        contains_first=first in derived,
        contains_second=second in derived,
        unipotent_image_order=order,
    )
