"""Finite permutation machinery: grids, star moves, primitivity,
stabilizer chains, Goursat decompositions, and 3-cycle recipes.

Conventions.  Points are 0-based integers.  Products compose like
functions: (a * b)(x) = a(b(x)), so in a product written left to right
the RIGHTMOST factor acts first.  Conjugation is conjugate_by(a, b) =
b^-1 * a * b, and the star move is star(t, p) = p^-1 t^-1 p t.

Grid points for side length n live on n^2 points indexed row*n + col;
public helpers that name rows and columns take 1-based labels to match
the usual pictures, everything internal is 0-based.

Certificate words are lists of (label, exponent) tokens over a dict
label -> Permutation, applied left to right (first token acts first).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .shifts import VerificationFailed, prime_factors

MAX_GROUP_DEGREE = 64
# Largest group order whose elements are listed one by one.
ELEMENT_LIMIT = 250_000


class DegreeBudgetExceeded(ValueError):
    pass


class ArrangementMismatch(ValueError):
    pass


class RecipeFailed(VerificationFailed):
    pass


@dataclass(frozen=True, eq=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation")
        object.__setattr__(self, "images", images)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Skip the check: products and inverses of permutations are permutations."""
        out = object.__new__(cls)
        object.__setattr__(out, "images", images)
        return out

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            if cyc:
                images[cyc[-1]] = cyc[0]
        return cls(tuple(images))

    @classmethod
    def transposition(cls, degree: int, a: int, b: int) -> "Permutation":
        return cls.from_cycles(degree, [(a, b)])

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation._unchecked(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation._unchecked(tuple(inv))

    def __pow__(self, e: int) -> "Permutation":
        if e < 0:
            return self.inverse() ** (-e)
        out = Permutation.identity(self.degree)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate_by(self, phi: "Permutation") -> "Permutation":
        """phi^-1 * self * phi."""
        return phi.inverse() * self * phi

    def is_identity(self) -> bool:
        return self.images == tuple(range(self.degree))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition without fixed points: least
        element first, cycles sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(sorted(out))

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def support(self) -> frozenset[int]:
        return frozenset(x for x, i in enumerate(self.images) if i != x)

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    def order(self) -> int:
        lens = [len(c) for c in self.cycles()]
        return math.lcm(*lens) if lens else 1

    def single_cycle_length(self) -> int | None:
        """Length of the cycle if the permutation is exactly one cycle."""
        cyc = self.cycles()
        return len(cyc[0]) if len(cyc) == 1 else None

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Permutation(id)"
        return "Permutation(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cyc) + ")"


def star(tau: Permutation, phi: Permutation) -> Permutation:
    """phi^-1 tau^-1 phi tau (tau acts first)."""
    return phi.inverse() * tau.inverse() * phi * tau


# -- certificate words ----------------------------------------------------

def evaluate_word(alphabet: dict[str, Permutation], word) -> Permutation:
    """Tokens (label, exponent) applied left to right; first token acts first."""
    degree = next(iter(alphabet.values())).degree
    acc = Permutation.identity(degree)
    for label, exp in word:
        acc = (alphabet[label] ** exp) * acc
    return acc


def _inv_word(word):
    return [(label, -exp) for label, exp in reversed(word)]


def _conj_word(word, by_label):
    """Word for word-value conjugated by alphabet[by_label]."""
    return [(by_label, 1)] + list(word) + [(by_label, -1)]


def _star_word(tau_word, phi_label):
    """Word for star(tau, phi): tau, phi, tau^-1, phi^-1 in action order."""
    return list(tau_word) + [(phi_label, 1)] + _inv_word(tau_word) + [(phi_label, -1)]


# -- grid structure -------------------------------------------------------

def grid_index(n: int, row: int, col: int) -> int:
    """0-based point index of 1-based (row, col)."""
    if not (1 <= row <= n and 1 <= col <= n):
        raise ValueError("row/col out of range")
    return (row - 1) * n + (col - 1)


def grid_coords(n: int, point: int) -> tuple[int, int]:
    """1-based (row, col) of a 0-based point index."""
    return point // n + 1, point % n + 1


def from_component_pair(n: int, row_perm: Permutation, col_perm: Permutation) -> Permutation:
    """The element of P acting componentwise on (row, col)."""
    if row_perm.degree != n or col_perm.degree != n:
        raise ValueError("component degree mismatch")
    images = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            images[x * n + y] = row_perm(x) * n + col_perm(y)
    return Permutation(tuple(images))


def p_generators(n: int) -> list[Permutation]:
    """Generators of P: adjacent row swaps and adjacent column swaps."""
    ident = Permutation.identity(n)
    gens = []
    for i in range(n - 1):
        gens.append(from_component_pair(n, Permutation.transposition(n, i, i + 1), ident))
    for i in range(n - 1):
        gens.append(from_component_pair(n, ident, Permutation.transposition(n, i, i + 1)))
    return gens


def swap_map(n: int) -> Permutation:
    """The coordinate swap (x, y) -> (y, x)."""
    return Permutation(tuple((p % n) * n + p // n for p in range(n * n)))


def conjugator_row(i: int, j: int, n: int) -> Permutation:
    """Involution in P swapping rows i and j (1-based)."""
    if i == j:
        raise ValueError("need i != j")
    grid_index(n, i, 1), grid_index(n, j, 1)
    return from_component_pair(
        n, Permutation.transposition(n, i - 1, j - 1), Permutation.identity(n)
    )


def conjugator_col(i: int, j: int, n: int) -> Permutation:
    """Involution in P swapping columns i and j (1-based)."""
    if i == j:
        raise ValueError("need i != j")
    grid_index(n, 1, i), grid_index(n, 1, j)
    return from_component_pair(
        n, Permutation.identity(n), Permutation.transposition(n, i - 1, j - 1)
    )


def row_col_class(g: Permutation, n: int) -> str:
    """'row-preserving', 'column-preserving', 'both', or 'free'.

    Row-preserving: the first output component is independent of the
    input column; column-preserving is symmetric; free is neither.
    """
    if g.degree != n * n:
        raise ValueError("degree is not n^2")
    row_pres = all(len({g(x * n + y) // n for y in range(n)}) == 1 for x in range(n))
    col_pres = all(len({g(x * n + y) % n for x in range(n)}) == 1 for y in range(n))
    if row_pres and col_pres:
        return "both"
    if row_pres:
        return "row-preserving"
    if col_pres:
        return "column-preserving"
    return "free"


# -- stabilizer chains ----------------------------------------------------

class GroupHandle:
    """Permutation group with a deterministic stabilizer chain.

    Built once by the incremental Schreier-Sims algorithm (Seress,
    Permutation Group Algorithms, 2003, 4.1; Holt-Eick-O'Brien,
    Handbook of Computational Group Theory, 2005, 4.4), with no
    randomization, then read-only: exact order, membership, and element
    enumeration for small groups.

    Level i holds base point b_i, its generators (which fix b_0 ..
    b_{i-1}), a transversal {point: (u, u^-1)} with u(b_i) = point, and
    a queue of the (point, generator) pairs it has not yet processed.  A
    pair (x, s) whose image s(x) is new extends the transversal in
    place; otherwise its Schreier generator u_{s(x)}^-1 s u_x is sifted
    through the deeper levels, and a nontrivial residue becomes a
    generator of every level from i+1 down to the one where it stuck,
    opening a new base point if it fixes them all.  Levels are completed
    deepest first, so each pair is sifted once.
    """

    def __init__(self, generators: list[Permutation], degree: int | None = None):
        if not generators and degree is None:
            raise ValueError("need generators or an explicit degree")
        self.degree = degree if degree is not None else generators[0].degree
        if self.degree > MAX_GROUP_DEGREE:
            raise DegreeBudgetExceeded(f"degree {self.degree} exceeds cap {MAX_GROUP_DEGREE}")
        for g in generators:
            if g.degree != self.degree:
                raise ValueError("generator degree mismatch")
        self.generators = [g for g in generators if not g.is_identity()]

    @cached_property
    def _chain(self) -> tuple[list[int], list[dict[int, tuple[Permutation, Permutation]]]]:
        ident = Permutation.identity(self.degree)
        base: list[int] = []
        trans: list[dict[int, tuple[Permutation, Permutation]]] = []
        gens: list[list[Permutation]] = []
        pending: list[deque] = []

        def add(h, lo):
            """Make h, which fixes b_0 .. b_{lo-1}, a generator of levels lo
            to the first whose base point it moves; return that level."""
            hi = lo
            while hi < len(base) and h(base[hi]) == base[hi]:
                hi += 1
            if hi == len(base):
                base.append(min(h.support()))
                trans.append({base[-1]: (ident, ident)})
                gens.append([])
                pending.append(deque())
            for i in range(lo, hi + 1):
                gens[i].append(h)
                pending[i].extend((x, h) for x in trans[i])
            return hi

        for g in self.generators:
            add(g, 0)
        i = len(base) - 1
        while i >= 0:
            if not pending[i]:
                i -= 1
                continue
            x, s = pending[i].popleft()
            u = s * trans[i][x][0]
            img = u(base[i])
            if img not in trans[i]:
                trans[i][img] = (u, u.inverse())
                pending[i].extend((img, t) for t in gens[i])
                continue
            residue = self._sift(trans[i][img][1] * u, base, trans, i + 1)
            if not residue.is_identity():
                i = add(residue, i + 1)
        return base, trans

    @staticmethod
    def _sift(g, base, trans, lo=0) -> Permutation:
        """Strip g through levels lo, lo+1, ...; the residue is the identity
        iff g lies in the group those levels describe."""
        for b, t in zip(base[lo:], trans[lo:]):
            img = g(b)
            if img != b:
                if img not in t:
                    return g
                g = t[img][1] * g
        return g

    def order(self) -> int:
        return math.prod(len(t) for t in self._chain[1])

    def contains(self, g: Permutation) -> bool:
        return g.degree == self.degree and self._sift(g, *self._chain).is_identity()

    def elements(self) -> list[Permutation]:
        """All elements, sorted by image tuple, if the order fits ELEMENT_LIMIT."""
        if (order := self.order()) > ELEMENT_LIMIT:
            raise DegreeBudgetExceeded(f"order {order} exceeds element limit {ELEMENT_LIMIT}")
        ident = Permutation.identity(self.degree)
        seen = {ident.images}
        out = [ident]
        frontier = [ident]
        while frontier:
            g = frontier.pop()
            for s in self.generators:
                h = s * g
                if h.images not in seen:
                    seen.add(h.images)
                    out.append(h)
                    frontier.append(h)
        out.sort(key=lambda p: p.images)
        return out

    def orbit(self, point: int) -> frozenset[int]:
        seen = {point}
        frontier = [point]
        while frontier:
            pt = frontier.pop()
            for g in self.generators:
                img = g(pt)
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        return frozenset(seen)

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree


def group_order(group: GroupHandle) -> int:
    return group.order()


def minimal_block(generators: list[Permutation], degree: int, x0: int, y: int) -> frozenset[int]:
    """Smallest block for the generated group containing both x0 and y.

    Union-find closure: merging a pair forces merging all its images.
    """
    parent = list(range(degree))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
        return True

    queue = [(x0, y)]
    union(x0, y)
    while queue:
        a, b = queue.pop()
        for g in generators:
            ga, gb = g(a), g(b)
            if union(ga, gb):
                queue.append((ga, gb))
    root = find(x0)
    return frozenset(p for p in range(degree) if find(p) == root)


def is_primitive(group: GroupHandle) -> tuple[bool, frozenset[int] | None]:
    """(True, None) if primitive, else (False, a witness block).

    A transitive group is primitive iff for every y != x0 the minimal
    block containing {x0, y} is the whole point set; an intransitive
    group returns an orbit as its witness.
    """
    if group.degree < 2:
        raise ValueError("degree must be >= 2")
    if not group.is_transitive():
        return False, group.orbit(0)
    for y in range(1, group.degree):
        block = minimal_block(group.generators, group.degree, 0, y)
        if len(block) < group.degree:
            return False, block
    return True, None


def _isolate_prime_cycle(g: Permutation, max_prime: int):
    """(p, e) with g**e a single p-cycle and p < max_prime, or None."""
    if g.is_identity():
        return None
    order = g.order()
    for p in prime_factors(order):
        if p >= max_prime:
            continue
        e = order // p
        if (g**e).single_cycle_length() == p:
            return p, e
    return None


def jordan_verdict(group: GroupHandle) -> str:
    """'Sym', 'Alt', or 'Unknown' (one-sided; Unknown is not a disproof).

    A primitive group containing a p-cycle for a prime p < degree - 2
    contains the alternating group (Wielandt, Finite Permutation Groups,
    1964, Thm 13.9), so it is symmetric exactly when a generator is odd.
    """
    primitive, _ = is_primitive(group)
    if not primitive:
        return "Unknown"
    max_prime = group.degree - 2
    candidates = list(group.generators)
    candidates += [a * b for a, b in itertools.combinations(group.generators, 2)]
    if not any(_isolate_prime_cycle(g, max_prime) for g in candidates):
        return "Unknown"
    return "Sym" if any(g.parity() for g in group.generators) else "Alt"


# -- Goursat --------------------------------------------------------------

@dataclass(frozen=True)
class GoursatDecomposition:
    """Subgroup of Sym(X1) x Sym(X2): projections, kernels, coset map."""

    h1: tuple[Permutation, ...]
    h2: tuple[Permutation, ...]
    n1: tuple[Permutation, ...]
    n2: tuple[Permutation, ...]
    psi: dict


def _restrict(perm: Permutation, points: range) -> Permutation:
    base = points.start
    return Permutation(tuple(perm(x) - base for x in points))


def _coset_rep(x: Permutation, kernel) -> Permutation:
    return min((x * k for k in kernel), key=lambda p: p.images)


def goursat_decompose(generators: list[Permutation], size1: int,
                      size2: int) -> GoursatDecomposition:
    """Goursat data of the subgroup generated inside Sym(X1) x Sym(X2).

    Generators act on the disjoint union {0..size1-1} | {size1..} and
    must preserve both marked factors.  The defining property
    H = {(x, y) : Psi([x]) = [y]} is re-verified by the caller via
    goursat_property_holds.
    """
    degree = size1 + size2
    pts1, pts2 = range(0, size1), range(size1, degree)
    for g in generators:
        if g.degree != degree:
            raise ValueError("generator degree mismatch")
        if any(g(x) >= size1 for x in pts1):
            raise ValueError("generators must preserve the two factors")
    group = GroupHandle(generators, degree=degree)
    elements = group.elements()
    pairs = [(_restrict(g, pts1), _restrict(g, pts2)) for g in elements]
    h1 = sorted({a for a, _ in pairs}, key=lambda p: p.images)
    h2 = sorted({b for _, b in pairs}, key=lambda p: p.images)
    n1 = sorted({a for a, b in pairs if b.is_identity()}, key=lambda p: p.images)
    n2 = sorted({b for a, b in pairs if a.is_identity()}, key=lambda p: p.images)
    psi = {}
    for a, b in pairs:
        ra, rb = _coset_rep(a, n1), _coset_rep(b, n2)
        if ra in psi and psi[ra] != rb:
            raise VerificationFailed("ill-defined coset map")
        psi[ra] = rb
    return GoursatDecomposition(tuple(h1), tuple(h2), tuple(n1), tuple(n2), psi)


def goursat_property_holds(
    dec: GoursatDecomposition, generators, size1: int, size2: int
) -> bool:
    """Exhaustively re-verify H = {(x, y) in H1 x H2 : Psi([x]) = [y]}."""
    degree = size1 + size2
    group = GroupHandle(generators, degree=degree)
    members = {
        (_restrict(g, range(size1)).images, _restrict(g, range(size1, degree)).images)
        for g in group.elements()
    }
    described = set()
    for a in dec.h1:
        for b in dec.h2:
            if dec.psi[_coset_rep(a, dec.n1)] == _coset_rep(b, dec.n2):
                described.add((a.images, b.images))
    return members == described


# -- arrangements and 3-cycle recipes --------------------------------------

def _grid_transposition(n, r1, c1, r2, c2):
    return Permutation.transposition(n * n, grid_index(n, r1, c1), grid_index(n, r2, c2))


def canonical_arrangement(kind: int, n: int) -> Permutation:
    """The depicted pattern on the 1-based grid.

    (1) rows 1<->2 swapped within columns 1 and 2 (two transpositions);
    (2) additionally rows 3<->4 within columns 1 and 2;
    (3) the 3-cycle rows 1->2->3->1 within columns 1 and 2;
    (4)-(6) the transposes of (1)-(3), i.e. conjugates by the swap map.
    """
    if n < 5:
        raise ValueError("the recipes need n >= 5")
    if kind in (4, 5, 6):
        return canonical_arrangement(kind - 3, n).conjugate_by(swap_map(n))
    if kind == 1:
        return _grid_transposition(n, 1, 1, 2, 1) * _grid_transposition(n, 1, 2, 2, 2)
    if kind == 2:
        return (
            _grid_transposition(n, 1, 1, 2, 1)
            * _grid_transposition(n, 1, 2, 2, 2)
            * _grid_transposition(n, 3, 1, 4, 1)
            * _grid_transposition(n, 3, 2, 4, 2)
        )
    if kind == 3:
        cyc1 = [grid_index(n, r, 1) for r in (1, 2, 3)]
        cyc2 = [grid_index(n, r, 2) for r in (1, 2, 3)]
        return Permutation.from_cycles(n * n, [cyc1, cyc2])
    raise ValueError("arrangement kind must be 1..6")


def _recipe_word(kind: int, gamma_label: str):
    """Certificate word of the recipe; in each product the earlier tokens
    act first, matching right-to-left reading of the written products."""
    gamma_word = [(gamma_label, 1)]
    if kind == 1:
        g4 = list(gamma_word) + _conj_word(gamma_word, "phiR_2_3")
        result = _conj_word(g4, "phiC_1_3") + list(gamma_word)
        return result + result
    if kind == 2:
        g4 = _conj_word(gamma_word, "phiR_3_5")
        g5 = list(g4) + _conj_word(g4, "phiR_2_3")
        result = _conj_word(g5, "phiC_1_3") + list(g4)
        return result + result
    if kind == 3:
        # reduce to arrangement (2), then run its recipe
        g4 = list(gamma_word) + _conj_word(gamma_word, "phiR_3_4")
        g5 = _conj_word(g4, "phiR_2_4")
        g6 = _conj_word(g5, "phiR_3_5")
        g7 = list(g6) + _conj_word(g6, "phiR_2_3")
        result = _conj_word(g7, "phiC_1_3") + list(g6)
        return result + result
    raise ValueError("kind must be 1..3")


def three_cycle_from_arrangement(gamma: Permutation, kind: int, n: int):
    """Run the cycle-manufacturing recipe for arrangement `kind` on gamma.

    Returns (three_cycle, certificate_word, alphabet); the word
    re-evaluates to the returned permutation.  Arrangements (4)-(6) are
    reduced to (1)-(3) by conjugating with the coordinate swap.
    """
    if gamma.degree != n * n:
        raise ArrangementMismatch("gamma degree is not n^2")
    if gamma != canonical_arrangement(kind, n):
        raise ArrangementMismatch(f"gamma does not implement arrangement ({kind})")

    alphabet = {"gamma": gamma, "swap": swap_map(n)}
    for i, j in [(2, 3), (1, 3), (3, 5), (3, 4), (2, 4)]:
        alphabet[f"phiR_{i}_{j}"] = conjugator_row(i, j, n)
        alphabet[f"phiC_{i}_{j}"] = conjugator_col(i, j, n)

    if kind in (1, 2, 3):
        word = _recipe_word(kind, "gamma")
    else:
        # gamma^swap implements the transposed arrangement; substitute the
        # conjugated generator into the transposed recipe.
        inner = _recipe_word(kind - 3, "gamma")
        word = []
        for label, exp in inner:
            if label == "gamma":
                word += [("swap", 1), ("gamma", exp), ("swap", -1)]
            else:
                word.append((label, exp))
    out = evaluate_word(alphabet, word)
    if out.single_cycle_length() != 3:
        raise RecipeFailed("recipe did not return a 3-cycle")
    return out, word, alphabet


def p_cycle_search(
    generators: list[Permutation],
    n: int,
    budget: int = 400,
    seed: int = 0,
):
    """Guided search for a single p-cycle, p prime < n^2 - 2.

    Explores prime-power cycle isolation, star moves against row and
    column conjugators, and a few seeded random conjugates per
    candidate.  Returns (p, permutation, certificate_word, alphabet) or
    None.  An empty result is never a disproof.
    """
    if n < 2:
        raise ValueError(f"grid side {n} must be at least 2")
    degree = n * n
    for g in generators:
        if g.degree != degree:
            raise ValueError("generators must act on the n^2 grid")
    max_prime = degree - 2
    rng = random.Random(seed)

    alphabet: dict[str, Permutation] = {}
    pool: list[tuple[Permutation, list]] = []
    for idx, g in enumerate(generators):
        label = f"g{idx}"
        alphabet[label] = g
        pool.append((g, [(label, 1)]))
    conj_labels = []
    hi = min(n, 6)
    for i in range(1, hi):
        for j in range(i + 1, hi + 1):
            alphabet[f"phiR_{i}_{j}"] = conjugator_row(i, j, n)
            alphabet[f"phiC_{i}_{j}"] = conjugator_col(i, j, n)
            conj_labels += [f"phiR_{i}_{j}", f"phiC_{i}_{j}"]

    def try_isolate(perm, word):
        hit = _isolate_prime_cycle(perm, max_prime)
        if hit is None:
            return None
        p, e = hit
        if e * len(word) > 200_000:
            return None
        return p, perm**e, list(word) * e

    examined = 0
    queue = list(pool)
    seen = {g.images for g, _ in pool}
    while queue and examined < budget:
        perm, word = queue.pop(0)
        examined += 1
        found = try_isolate(perm, word)
        if found is not None:
            p, final, final_word = found
            if evaluate_word(alphabet, final_word) != final:
                raise RecipeFailed("certificate failed to re-evaluate")
            return p, final, final_word, alphabet
        expansions = []
        for lbl in conj_labels:
            expansions.append((star(perm, alphabet[lbl]), _star_word(word, lbl)))
        for _ in range(2):
            lbl = conj_labels[rng.randrange(len(conj_labels))]
            expansions.append((perm.conjugate_by(alphabet[lbl]), _conj_word(word, lbl)))
        for cand, cword in expansions:
            if cand.images not in seen and not cand.is_identity():
                seen.add(cand.images)
                queue.append((cand, cword))
    return None
