"""Kernel outputs pinned by sha256: every table of the result, in order.

The digests were computed with per-window index decoding, before the
kernels read windows through window_chunks, so they pin the walk to the
old results bit for bit.  The group-layer pins at the end fix which
certificate each recipe and search returns, not only that it is valid."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from stabaut import cli
from stabaut.codes import StabilizedCode, aut_compose, compose, enumerate_automorphisms
from stabaut.dimrep import RayCount, ray_image_count
from stabaut.generators import recode_to_power, shift_power, symbol_permutation
from stabaut.invariants import sl2_z4_report
from stabaut.krembed import embed_code, find_marker_scheme
from stabaut.permlab import (
    GroupHandle,
    Permutation,
    canonical_arrangement,
    grid_index,
    p_cycle_search,
    p_generators,
    three_cycle_from_arrangement,
)


def digest(*codes):
    h = hashlib.sha256()
    for code in codes:
        h.update(f"{code.n} {code.period} {code.radius};".encode())
        for t in code.tables:
            h.update(np.asarray(t, dtype="<i8").tobytes())
    return h.hexdigest()


def random_code(seed, n, period, radius):
    rng = np.random.default_rng(seed)
    return StabilizedCode(n, period, radius, tuple(
        rng.integers(0, n, n ** (2 * radius + 1)) for _ in range(period)))


# the benchmark's shapes: (k, r) = (4, 2) after (2, 2) over 5 letters
F, G = random_code(1, 5, 4, 2), random_code(2, 5, 2, 2)


def test_compose():
    assert digest(compose(F, G)) == (
        "15047a1d5e523de1d24ebd8a9fa7b295e5b59d77e568b5b874ba924dadb0ab39")


def test_refine():
    assert digest(F.refine(4, 4)) == (
        "b749d393869291a8355bca21cccb37a4a4feb3d2d1f9d5def800bae666bccfab")


@pytest.mark.parametrize("gap, want", [
    (2, "a5708757038ca39d8e77d8320f000a904c9a93a17941d3f6754011fc963aa059"),
    (3, "33f831a43b08b290e8bf83b3e542b4e0d81a8168ff135e98a280ca0c12e98466"),
])
def test_embed_code(gap, want):
    source = random_code(3, 2, 2, 1)
    assert digest(embed_code(source, find_marker_scheme(5, 2, gap))) == want


@pytest.mark.parametrize("j, count", [(3, 262144), (-3, 64)])
def test_ray_image_count(j, count):
    assert ray_image_count(shift_power(4, j)) == RayCount(6, count)


def test_census():
    auts = enumerate_automorphisms(2, 1, 2)
    assert len(auts) == 108
    assert digest(*(c for a in auts for c in (a.forward, a.inverse))) == (
        "ea73978199fff340d38d070d038ecb9219845cac8f8394a77591dc8189db8736")


# every census shape the budget admits over two letters or more
ADMITTED = sorted({(2, 0, k) for k in range(1, 9)} | {(3, 0, k) for k in (1, 2, 3)} | {
    (2, 1, 1), (2, 1, 2), (4, 0, 1), (4, 0, 2), (5, 0, 1), (6, 0, 1)})


def test_census_of_every_admitted_shape():
    # forward and inverse tables, radii and list order, shape after shape;
    # recorded while the census still built and searched each survivor alone
    assert digest(*(c for shape in ADMITTED for a in enumerate_automorphisms(*shape)
                    for c in (a.forward, a.inverse))) == (
        "3b26bd9f09a24ade311258a0967ae1721201e93a5f823d53154b69f3cb40cbd7")


def test_enumerate_stdout_of_every_admitted_shape():
    h = hashlib.sha256()
    for shape in ADMITTED:
        for flags in ([], ["--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(flags + ["enumerate", *map(str, shape)]) == 0
            h.update(out.getvalue().encode())
    assert h.hexdigest() == "ab66c56ae1868a0b27ed72b08fed6a73b0cab4dd883cfb14940f5ffd7be869a4"


def test_recode_to_power():
    aut = aut_compose(symbol_permutation(2, 2, Permutation((1, 2, 0, 3))), shift_power(2, 1))
    recoded = recode_to_power(aut)
    assert digest(recoded.forward, recoded.inverse) == (
        "712e3b4ddf3a62f520be4e54896d57b35853c75c3000d1428c409e52a6832461")


# -- the group layer: which certificate comes out, not only that it is valid --


def pin(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("n, want", [
    (5, "2952223ca6d6362cfe528733a2e1dca41e6f449db5e5fc05bd6fe60ce2414f53"),
    (7, "74f47d4089a8c65d57046578be025ae3734a62d0f38007f7adfc137fdcfa159b"),
])
def test_recipe_words(n, want):
    # the 3-cycle, the certificate word and the alphabet's labels in order
    recipes = []
    for kind in range(1, 7):
        cycle, word, alphabet = three_cycle_from_arrangement(canonical_arrangement(kind, n), kind, n)
        recipes.append((cycle.cycles(), word, list(alphabet)))
    assert pin(recipes) == want


@pytest.mark.parametrize("n, want", [
    (5, "1fcfd920f448c711e01e389433a99ededa297950d16cc1c2df730f41d781a6fc"),
    (7, "6b9400ef69987910e2cd4f57c1f4d835a41936126788d1c0ca6707a21135e293"),
])
def test_canonical_arrangements(n, want):
    assert pin([canonical_arrangement(kind, n).images for kind in range(1, 7)]) == want


def _pcycle(generators, n, budget):
    found = p_cycle_search(generators, n, budget=budget, seed=0)
    if found is None:
        return None
    p, perm, word, alphabet = found
    return p, perm.cycles(), word, list(alphabet)


def test_p_cycle_search():
    n = 7
    crossing = Permutation.transposition(n * n, grid_index(n, 2, 1), grid_index(n, 3, 2))
    assert pin(_pcycle(p_generators(n) + [crossing], n, 300)) == (
        "4412f33712c716f8d06e766314e794364010fdf65c29c54f7400c5bc828e5be4")
    # arrangement (1) exhausts the budget; arrangement (3) finds a 3-cycle
    # through star moves and seeded random conjugates
    assert _pcycle([canonical_arrangement(1, 6)], 6, 400) is None
    assert pin(_pcycle([canonical_arrangement(3, 5)], 5, 400)) == (
        "ea9bea48f6a704983e5b43ae5afef1af777bf779407c2395485a5d0677f5d99a")


def test_sl2_z4_report():
    report = sl2_z4_report()
    assert (report.group_order, report.commutator_order, report.contains_first,
            report.contains_second, report.unipotent_image_order) == (48, 12, True, True, 4)


def test_elements_of_p4():
    elements = GroupHandle(p_generators(4)).elements()
    assert len(elements) == 576
    assert pin([g.images for g in elements]) == (
        "426e6b4951b1a9d47602f244140b1102bf0f3ae271eda0ca04026b68d79f91c5")
