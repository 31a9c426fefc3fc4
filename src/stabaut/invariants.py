"""Arithmetic invariants separating automorphism groups of full shifts,
plus the finite matrix-group computations backing the rank-2 example.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .shifts import VerificationFailed, _perfect_power, prime_exponents, prime_factors


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(prime_factors(n))


def roots_set(a: int) -> frozenset[int]:
    """{k : a^(1/k) is an integer}; always contains 1.

    With a = b^h, b no perfect power (shifts._perfect_power), the set is
    the divisors of h.  No factorization is needed, so the classical
    verdict holds on numbers the factorizer refuses.
    """
    if a < 2:
        raise ValueError("need a >= 2")
    h = _perfect_power(a)[1]
    return frozenset(d for d in range(1, h + 1) if h % d == 0)


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


def distinguish_stabilized(m: int, n: int) -> Verdict:
    """Verdict for the stabilized groups of the m- and n-shifts.

    Different prime-divisor counts force non-isomorphic abelianizations;
    a common power m^j = n^k makes the shifts rationally conjugate and
    the groups isomorphic; anything else is left open.  Each number is
    factored once, and omega and its power structure read off the
    exponents: a = b^h with h their gcd and b = prod p^(e/h), no perfect
    power.  A common power exists iff m = b^h_m and n = b^h_n share b; the
    least is m^(h_n/g) = n^(h_m/g).  The certificate, b^h_m == m and
    b^h_n == n, is at the size of the inputs.
    """
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    (pm, em), (pn, en) = prime_exponents(m), prime_exponents(n)
    om, on = len(pm), len(pn)
    if om != on:
        return Verdict("distinguishable", "prime-divisor-count", {"omega_m": om, "omega_n": on})
    hm, hn = gcd(*em), gcd(*en)
    bm = prod(p ** (e // hm) for p, e in zip(pm, em))
    bn = prod(p ** (e // hn) for p, e in zip(pn, en))
    if bm == bn:
        j, k = hn // gcd(hm, hn), hm // gcd(hm, hn)
        if bm**hm != m or bn**hn != n:
            raise VerificationFailed(f"m^{j} != n^{k}: the common power certificate failed")
        return Verdict("isomorphic", "rational-conjugacy",
                       {"j": j, "k": k, "identity": f"{m}^{j} == {n}^{k}"})
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
