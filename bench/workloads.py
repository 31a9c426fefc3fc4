"""Seeded job lists for the three workloads.

Each builder takes a seeded `random.Random` and returns the workload's
fixed list of jobs.  Building the list is the benchmark's set-up: it
draws the inputs, constructs (and so verifies) the input automorphisms
and, for `cli`, writes the input files.  A job's `run` is the timed
call into the library; its `check` is the answer oracle, which runs
outside the timed span and uses only the helpers in `oracles`.

The shapes (alphabet sizes, radii, periods, degrees) are fixed; the
seed picks the content, so the work per job does not depend on the seed
except where noted in NOTES.md.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stabaut.cli import save_automorphism
from stabaut.codes import (
    StabilizedCode,
    aut_commutator,
    aut_compose,
    commutes_with_shift_power,
    compose,
    enumerate_automorphisms,
    equals,
    find_inverse,
)
from stabaut.dimrep import dimension_multiplier, is_inert
from stabaut.generators import (
    flip,
    flip_on_even,
    letter_permutation,
    mth_root_of,
    periodic_letter_permutation,
    shift_power,
    swap_commutator_witness,
    symbol_permutation,
)
from stabaut.krembed import embed_code, find_marker_scheme
from stabaut.permlab import (
    GroupHandle,
    Permutation,
    canonical_arrangement,
    goursat_decompose,
    grid_index,
    is_primitive,
    jordan_verdict,
    p_cycle_search,
    p_generators,
    three_cycle_from_arrangement,
)
from stabaut.shifts import PeriodicPoint

from oracles import (
    applier,
    closure,
    cycle_lengths,
    embedding_matches,
    evaluate_word,
    exponent_vector,
    factorize,
    is_block,
    is_prime,
    least_period_orbits,
    padded,
    parity,
        primitive_brute,
    roots_set,
    same_on_points,
    spot_points,
    with_one_entry_changed,
)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _random_perm(rng: random.Random, degree: int, nontrivial: bool = True) -> Permutation:
    while True:
        images = list(range(degree))
        rng.shuffle(images)
        if not nontrivial or images != sorted(images):
            return Permutation(tuple(images))


def _random_code(rng: random.Random, n: int, period: int, radius: int) -> StabilizedCode:
    size = n ** (2 * radius + 1)
    return StabilizedCode(n, period, radius, tuple(
        np.array([rng.randrange(n) for _ in range(size)]) for _ in range(period)))


def _dimension_is(n: int, j: int):
    """Check that a dimension value is that of shift^j over n letters."""
    want = exponent_vector(n, j)
    return lambda vec: (vec.primes, vec.exponents) == want


def _radius1(rng: random.Random, n: int, period: int) -> tuple[object, int]:
    """A radius-1 automorphism of the given period and its shift exponent:
    shift^+-1 after a (periodic) letter permutation."""
    j = rng.choice((-1, 1))
    if period == 1:
        other = letter_permutation(n, _random_perm(rng, n))
    else:
        other = periodic_letter_permutation(n, [_random_perm(rng, n) for _ in range(period)])
    return aut_compose(shift_power(n, j), other), j


def _batch(kind: str, calls: list, checks: list) -> Job:
    """One job making several small calls; right iff every answer is."""
    return Job(kind, lambda: [call() for call in calls],
               lambda results: len(results) == len(checks)
               and all(check(r) for check, r in zip(checks, results)))


# -- tables -------------------------------------------------------------------


def tables_jobs(rng: random.Random, smoke: bool = False) -> list[Job]:
    jobs: list[Job] = []

    # dense compose / refine / equals of random codes
    q, (kf, rf), (kg, rg) = (3, (2, 1), (2, 1)) if smoke else (5, (4, 2), (2, 2))
    f, g = _random_code(rng, q, kf, rf), _random_code(rng, q, kg, rg)
    pts = spot_points(rng, q, 6, 6)
    jobs.append(Job("compose", lambda: compose(f, g), lambda c: same_on_points(
        pts, applier(c), applier(f, g), c.period, f.period, g.period)))
    pad = 1 if smoke else 2
    jobs.append(Job("refine", lambda: f.refine(kf, rf + pad), lambda c: c.radius == rf + pad
                    and same_on_points(pts, applier(c), applier(f), kf)))
    f_big = padded(f, pad)
    f_big_changed = with_one_entry_changed(f_big, rng)
    jobs.append(Job("equals", lambda: equals(f, f_big), lambda r: r is True))
    jobs.append(Job("equals", lambda: equals(f_big_changed, f), lambda r: r is False))

    # marker embedding into the 5-shift at gap 2: the homomorphism identity
    # on a pair of radius-1 sources (the big radius-2 embed) is one job;
    # two pairs with a radius-0 factor and commutation with shift powers
    # make another
    scheme = find_marker_scheme(5, 2, 2)
    pts5 = spot_points(rng, 5, 8, 8, letters=[0, 1, 2, 3, 0, 1, 2, 3, 4])
    big_pair = (_radius1(rng, 2, 2)[0], flip_on_even(2) if smoke else _radius1(rng, 2, 1)[0])
    jobs.append(_homomorphism_job(*big_pair, scheme, pts5))
    small = [_homomorphism_job(_radius1(rng, 2, 2)[0], flip_on_even(2), scheme, pts5),
             _homomorphism_job(_radius1(rng, 2, 1)[0], flip(2), scheme, pts5)]
    src = _radius1(rng, 2, 2)[0]
    emb = embed_code(src.forward, scheme)
    k_r = src.forward.period * scheme.gap
    # the embedded flip_on_even has period 4 and does not commute with the shift
    emb_foe = embed_code(flip_on_even(2).forward, scheme)
    jobs.append(_batch("embed_small", [job.run for job in small] + [
        lambda: commutes_with_shift_power(emb, k_r),
        lambda: commutes_with_shift_power(emb_foe, 1),
    ], [job.check for job in small] + [
        lambda r: r is True and same_on_points(
            pts5, applier(emb), lambda x: applier(emb)(x.shifted(k_r)).shifted(-k_r), emb.period),
        lambda r: r is False and not same_on_points(
            pts5 + [_foe_witness()], applier(emb_foe),
            lambda x: applier(emb_foe)(x.shifted(1)).shifted(-1), emb_foe.period),
    ]))

    # dimension representation: j times the exponent vector of shift^j,
    # additivity on composite pairs, zero on block permutations.  The big
    # ray count (4^9 keys for shift^+-3 over 4 letters) is a job of its own.
    if not smoke:
        jb = 3 * rng.choice((-1, 1))
        big = shift_power(4, jb)
        jobs.append(Job("dimension_multiplier", lambda: dimension_multiplier(big),
                        _dimension_is(4, jb)))
    calls, checks = [], []
    for n, j in [(2, 3), (6, 2), (12, 1)]:
        j *= rng.choice((-1, 1))
        aut = shift_power(n, j)
        calls.append(lambda aut=aut: dimension_multiplier(aut))
        checks.append(_dimension_is(n, j))
    for n in (2, 6, 12):
        for period in (1, 2):
            left, jl = _radius1(rng, n, period)
            right = letter_permutation(n, _random_perm(rng, n))
            calls.append(lambda left=left, right=right: dimension_multiplier(aut_compose(left, right)))
            checks.append(_dimension_is(n, jl))
    # a second shift only over 2 letters: over 6 the radius-2 pair's
    # inverse verification alone builds 20M table entries
    left, jl = _radius1(rng, 2, 2)
    jr = rng.choice((-1, 1))
    calls.append(lambda left=left, jr=jr: dimension_multiplier(aut_compose(left, shift_power(2, jr))))
    checks.append(_dimension_is(2, jl + jr))
    for n, k in ((2, 2), (6, 1), (6, 2)):
        aut = symbol_permutation(n, k, _random_perm(rng, n**k))
        calls.append(lambda aut=aut: dimension_multiplier(aut))
        checks.append(_dimension_is(n, 0))
    jobs.append(_batch("dimension_multiplier", calls, checks))

    # census, inverse search, commutators
    if not smoke:
        jobs.append(Job("enumerate_automorphisms", lambda: enumerate_automorphisms(2, 1, 2),
                        _census_212_ok))
    calls = [lambda: enumerate_automorphisms(2, 1, 1)]
    checks = [_census_211_ok]
    for n in (3, 5):
        code = _radius1(rng, n, 2)[0].forward
        ptsn = spot_points(rng, n, 6, 6)
        calls.append(lambda code=code: find_inverse(code, 2))
        checks.append(lambda inv, code=code, ptsn=ptsn: inv is not None and same_on_points(
            ptsn, applier(inv, code), lambda x: x, inv.period, code.period))
    stuck = _non_injective_code(rng, 3)
    calls.append(lambda: find_inverse(stuck, 1))
    checks.append(lambda inv: inv is None)
    jobs.append(_batch("inverse_search", calls, checks))
    pts2 = spot_points(rng, 2, 6, 6)
    for _ in range(1 if smoke else 2):
        x, y = _radius1(rng, 2, 2)[0], _radius1(rng, 2, 1)[0]

        def commutator(x=x, y=y):
            comm = aut_commutator(x, y)
            return comm, is_inert(comm)

        jobs.append(Job("commutator_inert", commutator, lambda r, x=x, y=y: r[1] is True
                        and same_on_points(pts2, applier(r[0].forward),
                                           applier(x.forward, y.forward, x.inverse, y.inverse),
                                           r[0].forward.period, x.period, y.period)))

    # generators: the commutator witness and roots of block codes
    calls, checks = [], []
    for n in (2, 3):
        tau = Permutation.transposition(n, *sorted(rng.sample(range(n), 2)))
        ptsn = spot_points(rng, n, 6, 6)
        calls.append(lambda n=n, tau=tau: swap_commutator_witness(n, tau))
        checks.append(lambda r, n=n, tau=tau, ptsn=ptsn: r[1] is True and same_on_points(
            ptsn, applier(letter_permutation(n, tau).forward),
            lambda x: applier(r[0].forward)(applier(r[0].inverse)(x.shifted(-1)).shifted(1)),
            r[0].period))
    for n, k, m in ((2, 1, 4), (3, 1, 3), (2, 2, 2)):
        perms = [_random_perm(rng, n) for _ in range(k)]
        base = letter_permutation(n, perms[0]) if k == 1 else periodic_letter_permutation(n, perms)
        ptsn = spot_points(rng, n, 6, 6)
        calls.append(lambda base=base, m=m: mth_root_of(base, m))
        checks.append(lambda root, base=base, m=m, ptsn=ptsn: same_on_points(
            ptsn, applier(*[root.forward] * m), applier(base.forward),
            root.forward.period, base.forward.period))
    jobs.append(_batch("generators", calls, checks))
    return jobs


def _homomorphism_job(a, b, scheme, points) -> Job:
    """embed(a b) == embed(a) embed(b), and embed(a b) against the stretch walk."""
    ab = compose(a.forward, b.forward)

    def run():
        lhs = embed_code(ab, scheme)
        rhs = compose(embed_code(a.forward, scheme), embed_code(b.forward, scheme))
        return lhs, equals(lhs, rhs)

    return Job("embed_homomorphism", run,
               lambda r: r[1] is True and embedding_matches(r[0], ab, scheme, points))


def _foe_witness() -> PeriodicPoint:
    # (0 1 2 3 4): a stretch of four data letters, whose image under the
    # embedded flip_on_even depends on the position class
    return PeriodicPoint((0, 1, 2, 3, 4))


def _non_injective_code(rng: random.Random, n: int) -> StabilizedCode:
    """A radius-1 code sending the fixed points 0^oo and 1^oo to the same point."""
    code = _random_code(rng, n, 1, 1)
    table = np.array(code.tables[0])
    table[(n**3 - 1) // (n - 1)] = table[0]  # window 111 reads like window 000
    return StabilizedCode(n, 1, 1, (table,))


def _radius1_tables() -> set[tuple[int, ...]]:
    """The six invertible radius-1 codes of the 2-shift: x_i and 1 - x_i."""
    windows = [(w >> 2 & 1, w >> 1 & 1, w & 1) for w in range(8)]
    out = set()
    for i in range(3):
        out.add(tuple(w[i] for w in windows))
        out.add(tuple(1 - w[i] for w in windows))
    return out


def _round_trips(auts, n: int) -> bool:
    pts = spot_points(random.Random(0), n, 4, 4)
    return all(same_on_points(pts, applier(a.inverse, a.forward), lambda x: x, a.period)
               for a in auts)


def _census_211_ok(auts) -> bool:
    got = {tuple(int(v) for v in a.forward.tables[0]) for a in auts}
    return len(auts) == 6 and got == _radius1_tables() and _round_trips(auts, 2)


def _block_code_tables(perm: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tables of the radius-1 period-2 code applying `perm` to aligned 2-blocks."""
    windows = [(w >> 2 & 1, w >> 1 & 1, w & 1) for w in range(8)]
    t0 = tuple(perm[w[1] * 2 + w[2]] >> 1 for w in windows)
    t1 = tuple(perm[w[0] * 2 + w[1]] & 1 for w in windows)
    return t0, t1


# The census count for (n, r, k) = (2, 1, 2) as the library computes it
# today; the structural checks below are the independent part of this
# oracle.
CENSUS_212_COUNT = 108


def _census_212_ok(auts) -> bool:
    got = {tuple(tuple(int(v) for v in t) for t in a.forward.tables) for a in auts}
    expected_subset = {(t, t) for t in _radius1_tables()}
    expected_subset |= {_block_code_tables(p) for p in itertools.permutations(range(4))}
    return (len(auts) == CENSUS_212_COUNT and len(got) == len(auts)
            and expected_subset <= got and _round_trips(auts, 2))


# -- groups -------------------------------------------------------------------


def _spread_points(rng: random.Random, n: int, count: int) -> list[int]:
    """Grid points with pairwise distinct rows and distinct columns."""
    rows = rng.sample(range(n), count)
    cols = rng.sample(range(n), count)
    return [r * n + c for r, c in zip(rows, cols)]


def _images(perms) -> list[tuple[int, ...]]:
    return [p.images for p in perms]


def groups_jobs(rng: random.Random, smoke: bool = False) -> list[Job]:
    jobs: list[Job] = []

    # Schreier-Sims orders.  P(n) (row and column swaps) plus an element
    # moving points across rows and columns is primitive, so Jordan's
    # theorem fixes the order: (n^2)! with a transposition, (n^2)!/2 with
    # a 3-cycle when every generator is even.  These inputs are fixed, not
    # seeded: the chain's cost swings by a factor of 2 to 3 with the
    # labelling of the added element (1.3 s to 3.5 s at degree 25).
    sizes = (3, 4) if smoke else (4, 5, 6)
    jobs.append(_batch("order", [lambda n=n: GroupHandle(p_generators(n)).order() for n in sizes],
                       [lambda o, n=n: o == math.factorial(n) ** 2 for n in sizes]))
    n = 3 if smoke else 4
    crossings = [((2, 1), (3, 2)), ((1, 1), (3, 3))] if smoke else [
        ((2, 1), (3, 2)), ((1, 1), (4, 4)), ((1, 2), (3, 4)), ((2, 3), (4, 1))]
    for a, b in crossings:
        gens = p_generators(n) + [_grid_transposition(n, a, b)]
        jobs.append(Job("order", lambda gens=gens: GroupHandle(gens).order(),
                        lambda o, n=n: o == math.factorial(n * n)))
    if not smoke:
        gens = p_generators(5) + [_grid_transposition(5, (2, 1), (3, 2))]
        jobs.append(Job("order", lambda gens=gens: GroupHandle(gens).order(),
                        lambda o: o == math.factorial(25)))
    for cells in ([(1, 1), (2, 2), (3, 3)], [(1, 3), (2, 1), (3, 2)]):
        gens = p_generators(n) + [Permutation.from_cycles(
            n * n, [tuple(grid_index(n, *cell) for cell in cells)])]
        want = "Sym" if any(parity(g) for g in _images(gens)) else "Alt"
        jobs.append(Job("jordan_verdict", lambda gens=gens: jordan_verdict(GroupHandle(gens)),
                        lambda v, want=want: v == want))

    # primitivity of seeded 2-generator groups: random ones, and ones that
    # permute a seeded block system
    calls, checks = [], []
    for block_system in (False, True):
        for degree in ((6, 8) if smoke else (6, 8, 9, 10, 12, 12)):
            if block_system:
                size = rng.choice([s for s in range(2, degree) if degree % s == 0])
                gens = [_block_preserving(rng, degree, size) for _ in range(2)]
            else:
                gens = [_random_perm(rng, degree) for _ in range(2)]
            want = primitive_brute(_images(gens), degree)
            calls.append(lambda gens=gens: is_primitive(GroupHandle(gens)))
            checks.append(lambda r, gens=gens, want=want, degree=degree: r[0] == want and (
                want or _is_witness(_images(gens), degree, r[1])))
    jobs.append(_batch("is_primitive", calls, checks))

    # p-cycle search: canonical arrangement 3 finds a 3-cycle late,
    # arrangement 1 exhausts the budget, random double transpositions find
    # one at once.  The search seed is seeded.
    cases = [(5, canonical_arrangement(3, 5))] + ([] if smoke else [(6, canonical_arrangement(1, 6))])
    for n, gamma in cases:
        seed = rng.randrange(1000)
        jobs.append(Job("p_cycle_search", lambda n=n, gamma=gamma, seed=seed:
                        p_cycle_search([gamma], n, budget=400, seed=seed),
                        lambda r, n=n: r is None or _pcycle_certificate_ok(r, n)))
    calls, checks = [], []
    for n in ((5,) if smoke else (5, 6, 7)):
        pts = rng.sample(range(n * n), 4)
        gamma = Permutation.from_cycles(n * n, [pts[:2], pts[2:]])
        seed = rng.randrange(1000)
        calls.append(lambda n=n, gamma=gamma, seed=seed:
                     p_cycle_search([gamma], n, budget=400, seed=seed))
        checks.append(lambda r, n=n: r is None or _pcycle_certificate_ok(r, n))
    jobs.append(_batch("p_cycle_search", calls, checks))

    # Goursat data of subgroups of Sym(X1) x Sym(X2): fixed templates,
    # relabelled by seeded permutations of X1 and X2
    calls, checks = [], []
    for s1, s2, template in GOURSAT_TEMPLATES:
        gens = _relabelled(rng, template, s1, s2)
        calls.append(lambda gens=gens, s1=s1, s2=s2: goursat_decompose(gens, s1, s2))
        checks.append(lambda dec, gens=gens, s1=s1, s2=s2: _goursat_ok(dec, gens, s1, s2))
    jobs.append(_batch("goursat_decompose", calls, checks))

    # 3-cycle recipes for every arrangement kind
    sides = (5,) if smoke else (5, 7)
    jobs.append(_batch("three_cycle_from_arrangement", [
        lambda kind=kind, n=n: three_cycle_from_arrangement(canonical_arrangement(kind, n), kind, n)
        for n in sides for kind in range(1, 7)], [_three_cycle_ok] * 6 * len(sides)))
    return jobs


# (size1, size2, generators in cycle form on X1 | X2), as in the
# acceptance suite
GOURSAT_TEMPLATES = [
    (3, 3, [[(0, 1), (3, 4)], [(0, 1, 2), (3, 4, 5)]]),
    (3, 4, [[(0, 1, 2), (3, 4, 5, 6)], [(0, 1), (3, 4)]]),
    (4, 4, [[(0, 1, 2, 3), (4, 5)], [(0, 1), (6, 7)]]),
]


def _relabelled(rng: random.Random, template, s1: int, s2: int) -> list[Permutation]:
    relabel = list(_random_perm(rng, s1, False).images)
    relabel += [s1 + y for y in _random_perm(rng, s2, False).images]
    return [Permutation.from_cycles(s1 + s2, [tuple(relabel[x] for x in c) for c in cycles])
            for cycles in template]


def _grid_transposition(n: int, a: tuple[int, int], b: tuple[int, int]) -> Permutation:
    return Permutation.transposition(n * n, grid_index(n, *a), grid_index(n, *b))


def _block_preserving(rng: random.Random, degree: int, size: int) -> Permutation:
    """A permutation mapping the blocks {b*size .. b*size+size-1} to blocks."""
    count = degree // size
    outer = _random_perm(rng, count, False).images
    images = []
    for blk in range(count):
        inner = _random_perm(rng, size, False).images
        images += [outer[blk] * size + inner[i] for i in range(size)]
    return Permutation(tuple(images))


def _is_witness(gens, degree: int, block) -> bool:
    """A nontrivial block, or a proper orbit (of any size)."""
    if block is None or len(block) >= degree:
        return False
    block = frozenset(block)
    invariant = all(g[x] in block for g in gens for x in block)
    return invariant or (len(block) > 1 and is_block(gens, degree, block))


def _pcycle_certificate_ok(found, n: int) -> bool:
    p, perm, word, alphabet = found
    images = evaluate_word({k: v.images for k, v in alphabet.items()}, word)
    return (images == perm.images and cycle_lengths(images) == [p]
            and is_prime(p) and p < n * n - 2)


def _three_cycle_ok(found) -> bool:
    perm, word, alphabet = found
    images = evaluate_word({k: v.images for k, v in alphabet.items()}, word)
    return images == perm.images and cycle_lengths(images) == [3]


def _goursat_ok(dec, gens, s1: int, s2: int) -> bool:
    group = closure(_images(gens), s1 + s2)
    pairs = {(g[:s1], tuple(y - s1 for y in g[s1:])) for g in group}
    h1 = {a for a, _ in pairs}
    h2 = {b for _, b in pairs}
    n1 = {a for a, b in pairs if b == tuple(range(s2))}
    n2 = {b for a, b in pairs if a == tuple(range(s1))}
    return (
        {p.images for p in dec.h1} == h1 and {p.images for p in dec.h2} == h2
        and {p.images for p in dec.n1} == n1 and {p.images for p in dec.n2} == n2
        and len(group) == len(h1) * len(n2) == len(h2) * len(n1)
    )


# -- cli ----------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    out: str
    err: str

    def report(self) -> dict:
        return json.loads(self.out) if self.code == 0 else {}


def _cycles_text(perm: Permutation) -> list[str]:
    return ["(" + " ".join(str(x + 1) for x in c) + ")" for c in perm.cycles()]


def _gens_text(perms) -> list[str]:
    """One cycle-notation argument per generator."""
    return ["".join(_cycles_text(p)) for p in perms if not p.is_identity()]


def _stabilized_outcome(m: int, n: int) -> str:
    fm, fn = factorize(m), factorize(n)
    if len(fm) != len(fn):
        return f"distinguishable (omega {len(fm)} vs {len(fn)})"
    if set(fm) == set(fn):
        gm, gn = math.gcd(*fm.values()), math.gcd(*fn.values())
        if all(fm[p] // gm == fn[p] // gn for p in fm):
            return "isomorphic"
    return "inconclusive"


def _invariants_ok(m: int, n: int):
    def check(res: CliResult) -> bool:
        rep = res.report()
        rm, rn = roots_set(m), roots_set(n)
        return (res.code == 0 and rep.get("stabilized") == _stabilized_outcome(m, n)
                and rep.get("roots_m") == rm and rep.get("roots_n") == rn
                and rep.get("classical") == ("distinguishable" if rm != rn else "inconclusive"))

    return check


def _report_has(**want):
    def check(res: CliResult) -> bool:
        rep = res.report()
        return res.code == 0 and all(rep.get(k) == v for k, v in want.items())

    return check


def _embed_file_ok(path: str, source: StabilizedCode, scheme, pts, want_period: int):
    def check(res: CliResult) -> bool:
        if res.code != 0 or res.report().get("embedded_period") != want_period:
            return False
        with open(path) as fh:
            data = json.load(fh)
        code = StabilizedCode(data["n"], data["period"], data["radius"],
                              tuple(np.array(t) for t in data["tables"]))
        return embedding_matches(code, source, scheme, pts)

    return check


def cli_jobs(rng: random.Random, workdir: str, invoke, smoke: bool = False) -> list[Job]:
    """README commands on seeded inputs written to `workdir`.

    `invoke(argv) -> CliResult` runs one command, as a child process or
    in process.  Later jobs read files that earlier jobs write.
    """
    jobs: list[Job] = []

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    def add(kind: str, argv: list[str], check):
        argv = ["--json", *argv]
        jobs.append(Job(kind, lambda: invoke(argv), check))

    for _ in range(2):
        m, n = rng.sample(range(2, 61), 2)
        add("invariants", ["invariants", str(m), str(n)], _invariants_ok(m, n))
    for _ in range(2):
        n, p = rng.randrange(2, 7), rng.randrange(1, 13)
        add("orbits", ["orbits", str(n), str(p)],
            _report_has(orbits=least_period_orbits(n, p)))
    for n in (2, 3):
        a, b = rng.sample(range(n), 2)
        add("verify_commutator", ["verify-commutator", str(n), str(a), str(b)],
            _report_has(verified=True))

    # dimension representation of saved shift powers: the big one goes
    # through the dense inverse re-verification on load
    cases = [(3, 2) if smoke else (5, 2), (12, 1)]
    for i, (n, j) in enumerate(cases):
        j *= rng.choice((-1, 1))
        save_automorphism(shift_power(n, j), path(f"shift{i}.json"))
        primes, exps = exponent_vector(n, j)
        add("dimrep", ["dimrep", path(f"shift{i}.json")],
            _report_has(primes=list(primes), exponents=list(exps), inert=False))

    # roots of saved radius-0 block codes, read back by dimrep
    n, m = rng.choice((2, 3)), rng.choice((2, 3))
    save_automorphism(letter_permutation(n, _random_perm(rng, n)), path("letters.json"))
    add("root", ["root", path("letters.json"), str(m), "--out", path("root1.json")],
        _report_has(verified=True, root_period=m, root_radius=m - 1))
    add("dimrep", ["dimrep", path("root1.json")], _report_has(inert=True))
    save_automorphism(periodic_letter_permutation(2, [_random_perm(rng, 2), _random_perm(rng, 2, False)]),
                      path("periodic.json"))
    add("root", ["root", path("periodic.json"), "2", "--out", path("root2.json")],
        _report_has(verified=True, root_period=4, root_radius=3))

    # embeddings into the 5-shift; the radius-0 one is read back by dimrep
    scheme = find_marker_scheme(5, 2, 2)
    pts5 = spot_points(rng, 5, 8, 8, letters=[0, 1, 2, 3, 0, 1, 2, 3, 4])
    sources = [(flip_on_even(2), "src0.json", "emb0.json")]
    if not smoke:
        sources.append((_radius1(rng, 2, 2)[0], "src1.json", "emb1.json"))
    for aut, src, out in sources:
        save_automorphism(aut, path(src))
        add("embed", ["embed", path(src), "--target", "5", "--gap", "2", "--out", path(out),
                      "--scheme-out", path("scheme.json")],
            _embed_file_ok(path(out), aut.forward, scheme, pts5, aut.forward.period * 2))
    add("dimrep", ["dimrep", path("emb0.json")], _report_has(inert=True, primes=[5]))

    add("enumerate", ["enumerate", "2", "1", "1"], lambda res: res.code == 0
        and {tuple(t[0]) for t in res.report().get("tables", [])} == _radius1_tables()
        and res.report().get("count") == 6)

    # permutation groups given in cycle notation; the degree-16 order is
    # a Schreier-Sims chain of the size the groups workload times
    add("perm_order", ["perm", "order", *_gens_text(
        p_generators(4) + [_grid_transposition(4, (2, 1), (3, 2))])],
        _report_has(order=math.factorial(16)))
    n = 3
    pgens = p_generators(n)
    a, b = _spread_points(rng, n, 2)
    add("perm_order", ["perm", "order", *_gens_text(pgens + [Permutation.transposition(9, a, b)])],
        _report_has(order=math.factorial(9)))
    three = Permutation.from_cycles(9, [tuple(_spread_points(rng, n, 3))])
    add("perm_jordan", ["perm", "jordan", *_gens_text(pgens + [three])],
        _report_has(verdict="Sym", order=math.factorial(9)))
    degree = rng.randrange(6, 9)
    gens = [_random_perm(rng, degree) for _ in range(2)]
    add("perm_primitive", ["perm", "primitive", "--degree", str(degree), *_gens_text(gens)],
        _report_has(primitive=primitive_brute(_images(gens), degree)))
    pts = rng.sample(range(25), 4)
    double = Permutation.from_cycles(25, [pts[:2], pts[2:]])
    add("perm_pcycle", ["perm", "pcycle", "--side", "5", "--degree", "25", *_gens_text([double])],
        _pcycle_report_ok)
    return jobs


def _pcycle_report_ok(res: CliResult) -> bool:
    rep = res.report()
    if res.code != 0 or rep.get("criterion") != "star-move-search":
        return False
    if not rep.get("found"):
        return True
    cycle = rep.get("cycle", [])
    return len(cycle) == 1 and len(cycle[0]) == rep["p"] and is_prime(rep["p"])


def cli_known_defects(rng: random.Random, workdir: str, invoke) -> list[Job]:
    """Commands that fail at the seed commit; each expects the correct answer.

    Left out on purpose: `invariants 2 2305843009213693951` hangs, and
    `dimrep` on a saved shift_power(12, 2) fails fast today but would cost
    seconds once correct, which would read as a regression.
    """
    perm = _random_perm(rng, 4)
    path = os.path.join(workdir, "block2.json")
    save_automorphism(symbol_permutation(2, 2, perm), path)
    big = 10**400
    fb = factorize(big)
    return [
        Job("root_period2_block", lambda: invoke(["--json", "root", path, "2"]),
            _report_has(verified=True, root_period=4)),
        Job("invariants_huge", lambda: invoke(["--json", "invariants", "2", str(big)]),
            lambda res: res.code == 0 and res.report().get("roots_n") == roots_set(big)
            and res.report().get("stabilized") == f"distinguishable (omega 1 vs {len(fb)})"),
    ]
