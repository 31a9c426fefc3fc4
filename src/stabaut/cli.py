"""Command-line front end and bit-exact file formats.

Files are canonical JSON: sorted keys, compact separators, integers
only, one trailing newline.  Saving the same object twice produces
identical bytes.  Exit codes: 0 success, 1 usage or input error, 2 a
verification that should have succeeded failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .codes import (
    MAX_TABLE_ENTRIES,
    Automorphism,
    StabilizedCode,
    code_power,
    enumerate_automorphisms,
    equals,
    find_inverse,
    verify_inverse_pair,
)
from .dimrep import dimension_multiplier, is_inert
from .generators import mth_root_of, swap_commutator_witness
from .invariants import distinguish_classical, distinguish_stabilized, omega, roots_set
from .krembed import MarkerScheme, embed_automorphism, find_marker_scheme
from .permlab import (
    GroupHandle,
    Permutation,
    group_order,
    is_primitive,
    jordan_verdict,
    p_cycle_search,
)
from .shifts import count_least_period_orbits

AUTOMORPHISM_FORMAT = "stabaut-automorphism"
SCHEME_FORMAT = "stabaut-marker-scheme"
FORMAT_VERSION = 1
SEARCH_BUDGET_ENV = "STABAUT_SEARCH_BUDGET"


class FileFormatError(ValueError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -- automorphism files ---------------------------------------------------

def automorphism_to_dict(aut: Automorphism) -> dict:
    return {
        "format": AUTOMORPHISM_FORMAT,
        "version": FORMAT_VERSION,
        "n": aut.n,
        "period": aut.forward.period,
        "radius": aut.forward.radius,
        "tables": [[int(v) for v in t] for t in aut.forward.tables],
        "inverse": {
            "period": aut.inverse.period,
            "radius": aut.inverse.radius,
            "tables": [[int(v) for v in t] for t in aut.inverse.tables],
        },
    }


def _code_from_fields(n: int, period: int, radius: int, tables, where: str) -> StabilizedCode:
    if any(type(v) is not int for v in (n, period, radius)) or n < 1 or period < 1 or radius < 0:
        raise FileFormatError(f"{where}: bad n/period/radius")
    # n^(2r+1) >= 2^(2r+1), so a radius this wide is refused before the
    # power is computed
    too_wide = n > 1 and 2 * radius + 1 > MAX_TABLE_ENTRIES.bit_length()
    if too_wide or n ** (2 * radius + 1) * period > MAX_TABLE_ENTRIES:
        raise FileFormatError(
            f"{where}: period {period} and radius {radius} over {n} letters "
            f"exceed the exact-check budget of {MAX_TABLE_ENTRIES} table entries"
        )
    if type(tables) is not list or any(type(t) is not list for t in tables):
        raise FileFormatError(f"{where}: tables must be a list of lists")
    if len(tables) != period:
        raise FileFormatError(f"{where}: expected {period} tables, found {len(tables)}")
    want = n ** (2 * radius + 1)
    arrays = []
    for ti, table in enumerate(tables):
        if len(table) != want:
            raise FileFormatError(f"{where}: table {ti} has {len(table)} entries, expected {want}")
        for ei, v in enumerate(table):
            if type(v) is not int or not 0 <= v < n:
                raise FileFormatError(f"{where}: table {ti} entry {ei} out of range: {v!r}")
        arrays.append(np.array(table))
    return StabilizedCode(n, period, radius, tuple(arrays))


def automorphism_from_dict(data: dict) -> Automorphism:
    if type(data) is not dict or data.get("format") != AUTOMORPHISM_FORMAT:
        raise FileFormatError("not an automorphism file")
    if data.get("version") != FORMAT_VERSION:
        raise FileFormatError(f"unsupported version {data.get('version')}")
    n = data["n"]
    fwd = _code_from_fields(n, data["period"], data["radius"], data["tables"], "forward")
    inv_data = data.get("inverse")
    if inv_data is None:
        # the inverse record is optional; fall back to a bounded search
        inv = find_inverse(fwd, 2 * fwd.radius)
        if inv is None:
            raise InverseVerificationError(
                "no inverse record and no inverse found within twice the radius"
            )
        return Automorphism(fwd, inv, verify=False)
    if type(inv_data) is not dict:
        raise FileFormatError("inverse: not a JSON object")
    inv = _code_from_fields(
        n, inv_data["period"], inv_data["radius"], inv_data["tables"], "inverse"
    )
    if not verify_inverse_pair(fwd, inv):
        raise InverseVerificationError("declared inverse fails verification")
    return Automorphism(fwd, inv, verify=False)


class InverseVerificationError(ValueError):
    """The file's declared inverse is not an inverse (exit code 2)."""


def save_automorphism(aut: Automorphism, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(automorphism_to_dict(aut)))


def load_automorphism(path: str) -> Automorphism:
    with open(path) as fh:
        return automorphism_from_dict(json.load(fh))


# -- marker scheme files --------------------------------------------------

def scheme_to_dict(scheme: MarkerScheme) -> dict:
    return {
        "format": SCHEME_FORMAT,
        "version": FORMAT_VERSION,
        "target_q": scheme.q,
        "n": scheme.n,
        "gap": scheme.gap,
        "data_letters": list(scheme.data_letters),
        "pairing": [[d, *scheme.pair_of(d)] for d in scheme.data_letters],
    }


def scheme_from_dict(data: dict) -> MarkerScheme:
    if type(data) is not dict or data.get("format") != SCHEME_FORMAT:
        raise FileFormatError("not a marker scheme file")
    scheme = MarkerScheme(q=data["target_q"], n=data["n"], gap=data["gap"])
    if data.get("data_letters") != list(scheme.data_letters):
        raise FileFormatError("non-canonical data letter set")
    return scheme


def save_scheme(scheme: MarkerScheme, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(scheme_to_dict(scheme)))


def load_scheme(path: str) -> MarkerScheme:
    with open(path) as fh:
        return scheme_from_dict(json.load(fh))


# -- report plumbing ------------------------------------------------------

def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(canonical_json(report))
        return
    for key, value in report.items():
        print(f"{key}: {value}")


def _parse_cycles(text: str, degree: int) -> Permutation:
    """Parse '(1 2 3)(4 5)' with 1-based points into a permutation."""
    cycles = []
    current: list[int] | None = None
    token = ""

    def flush_token():
        nonlocal token
        if token:
            current.append(int(token) - 1)
            token = ""

    for ch in text:
        if ch == "(":
            if current is not None:
                raise ValueError("nested cycle")
            current = []
        elif ch == ")":
            flush_token()
            cycles.append(tuple(current))
            current = None
        elif ch in " ,":
            if current is not None:
                flush_token()
        elif ch.isdigit():
            if current is None:
                raise ValueError("digit outside cycle")
            token += ch
        else:
            raise ValueError(f"bad character {ch!r} in cycle notation")
    if current is not None:
        raise ValueError("unclosed cycle")
    top = max((p for c in cycles for p in c), default=-1) + 1
    return Permutation.from_cycles(max(degree, top), cycles)


# -- subcommands ----------------------------------------------------------

def _cmd_invariants(args) -> tuple[int, dict]:
    stab = distinguish_stabilized(args.m, args.n)
    classical = distinguish_classical(args.m, args.n)
    report = {
        "m": args.m,
        "n": args.n,
        "stabilized": f"{stab.outcome} (omega {omega(args.m)} vs {omega(args.n)})"
        if stab.criterion == "prime-divisor-count"
        else stab.outcome,
        "stabilized_criterion": stab.criterion,
        "stabilized_detail": stab.detail,
        "classical": classical.outcome,
        "classical_criterion": classical.criterion,
        "roots_m": sorted(roots_set(args.m)),
        "roots_n": sorted(roots_set(args.n)),
    }
    return 0, report


def _cmd_orbits(args) -> tuple[int, dict]:
    count = count_least_period_orbits(args.n, args.p)
    return 0, {
        "n": args.n,
        "p": args.p,
        "orbits": count,
        "summary": f"{count} orbits of least period {args.p}",
        "criterion": "moebius-orbit-count",
    }


def _cmd_dimrep(args) -> tuple[int, dict]:
    aut = load_automorphism(args.file)
    vec = dimension_multiplier(aut)
    return 0, {
        "file": args.file,
        "primes": list(vec.primes),
        "exponents": list(vec.exponents),
        "multiplier": str(vec.as_fraction()),
        "inert": is_inert(aut),
        "criterion": "ray-image-count",
    }


def _cmd_verify_commutator(args) -> tuple[int, dict]:
    if args.a == args.b:
        raise ValueError("need two distinct letters")
    tau = Permutation.transposition(args.n, args.a, args.b)
    _, verified = swap_commutator_witness(args.n, tau)
    report = {
        "n": args.n,
        "transposition": [args.a, args.b],
        "identity": "tau-everywhere == phi0 . shift . phi0^-1 . shift^-1",
        "verified": verified,
        "criterion": "even-position-commutator",
    }
    return (0 if verified else 2), report


def _cmd_root(args) -> tuple[int, dict]:
    aut = load_automorphism(args.file)
    root = mth_root_of(aut, args.m)
    verified = equals(code_power(root.forward, args.m), aut.forward)
    report = {
        "file": args.file,
        "m": args.m,
        "root_period": root.forward.period,
        "root_radius": root.forward.radius,
        "verified": verified,
        "criterion": "rotation-root",
    }
    if args.out:
        save_automorphism(root, args.out)
        report["out"] = args.out
    return (0 if verified else 2), report


def _cmd_embed(args) -> tuple[int, dict]:
    aut = load_automorphism(args.file)
    scheme = find_marker_scheme(args.target, aut.n, args.gap)
    emb = embed_automorphism(aut, scheme)
    report = {
        "file": args.file,
        "target_q": args.target,
        "gap": args.gap,
        "embedded_period": emb.forward.period,
        "embedded_radius": emb.forward.radius,
        "criterion": "marker-embedding",
    }
    if args.out:
        save_automorphism(emb, args.out)
        report["out"] = args.out
    if args.scheme_out:
        save_scheme(scheme, args.scheme_out)
        report["scheme_out"] = args.scheme_out
    return 0, report


def _cmd_enumerate(args) -> tuple[int, dict]:
    budget = int(os.environ.get(SEARCH_BUDGET_ENV, "200000"))
    auts = enumerate_automorphisms(args.n, args.r, args.k, budget=budget)
    return 0, {
        "n": args.n,
        "r": args.r,
        "k": args.k,
        "count": len(auts),
        "tables": [[[int(v) for v in t] for t in a.forward.tables] for a in auts],
        "criterion": "exhaustive-census",
    }


def _cmd_perm(args) -> tuple[int, dict]:
    gens = [_parse_cycles(text, args.degree) for text in args.generators]
    degree = max([g.degree for g in gens] + [args.degree])
    gens = [Permutation.from_cycles(degree, g.cycles()) for g in gens]
    group = GroupHandle(gens, degree=degree)
    if args.perm_command == "order":
        return 0, {"degree": degree, "order": group_order(group), "criterion": "stabilizer-chain"}
    if args.perm_command == "primitive":
        primitive, block = is_primitive(group)
        report = {"degree": degree, "primitive": primitive, "criterion": "minimal-block-closure"}
        if block is not None:
            report["witness_block"] = sorted(p + 1 for p in block)
        return 0, report
    if args.perm_command == "jordan":
        return 0, {
            "degree": degree,
            "verdict": jordan_verdict(group),
            "order": group_order(group),
            "criterion": "primitive-prime-cycle",
        }
    if args.perm_command == "pcycle":
        budget = int(os.environ.get(SEARCH_BUDGET_ENV, "400"))
        side = args.side
        if side * side != degree:
            raise ValueError(f"degree {degree} is not side^2 = {side * side}")
        found = p_cycle_search(gens, side, budget=budget, seed=args.seed)
        if found is None:
            return 0, {"found": False, "criterion": "star-move-search"}
        p, perm, word, _ = found
        return 0, {
            "found": True,
            "p": p,
            "cycle": [tuple(q + 1 for q in c) for c in perm.cycles()],
            "word_length": len(word),
            "criterion": "star-move-search",
        }
    raise ValueError(f"unknown perm subcommand {args.perm_command}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabaut",
        description="Exact experiments with stabilized automorphisms of full shifts.",
    )
    parser.add_argument("--json", action="store_true", help="emit reports as canonical JSON")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="compare two full shifts by arithmetic invariants")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("orbits", help="count orbits of a given least period")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("dimrep", help="dimension representation of a stored automorphism")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dimrep)

    p = sub.add_parser("verify-commutator", help="check the even-position commutator identity")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=_cmd_verify_commutator)

    p = sub.add_parser("root", help="m-th root of a stored block-permutation automorphism")
    p.add_argument("file")
    p.add_argument("m", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_root)

    p = sub.add_parser("embed", help="embed a stored automorphism into a larger full shift")
    p.add_argument("file")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--gap", type=int, default=2)
    p.add_argument("--out")
    p.add_argument("--scheme-out")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("enumerate", help="census of small invertible codes")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("perm", help="permutation-group experiments")
    psub = p.add_subparsers(dest="perm_command", required=True)
    for name, extra in (
        ("order", ()),
        ("primitive", ()),
        ("jordan", ()),
        ("pcycle", ("--side",)),
    ):
        q = psub.add_parser(name)
        q.add_argument("generators", nargs="+", help="cycle notation, 1-based, e.g. '(1 2)(3 4)'")
        q.add_argument("--degree", type=int, default=0)
        if "--side" in extra:
            q.add_argument("--side", type=int, required=True)
        q.set_defaults(func=_cmd_perm)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        code, report = args.func(args)
    except InverseVerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except FileFormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.json)
    return code


def main() -> None:
    sys.exit(run())
