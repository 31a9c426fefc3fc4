"""Command-line front end and bit-exact file formats.

Files are canonical JSON: sorted keys, compact separators, integers
only, one trailing newline.  Saving the same object twice produces
identical bytes.  `--out` and `--scheme-out` rewrite an existing file in
place (same inode, same mode, symlinks followed) through `_write`, the one
writer.  The write is not atomic, and never was: a crash can leave a torn
file, and load refuses one.  Exit codes: 0 success, 1 usage or input error,
2 a verification that should have succeeded failed.

The commands re-check nothing the library checks: `StabilizedCode`
validates a file's tables, `Automorphism` its inverse pair, and a failed
library self-check raises `VerificationFailed`.  `run` maps exception
types to exit codes and prints one line, never a traceback.

Only `invariants` and `shifts` load with this module, so `invariants`
and `orbits` start with neither numpy nor the group code.  `permlab` is
imported by the commands that build permutations (`perm`,
`verify-commutator`), and the table modules (`codes`, `dimrep`,
`generators`, `krembed`) and numpy inside the functions that use them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
from typing import TYPE_CHECKING

from .invariants import distinguish_classical, distinguish_stabilized
from .shifts import VerificationFailed, _power_exceeds, count_least_period_orbits

if TYPE_CHECKING:
    from .codes import Automorphism, StabilizedCode
    from .krembed import MarkerScheme

AUTOMORPHISM_FORMAT = "stabaut-automorphism"
SCHEME_FORMAT = "stabaut-marker-scheme"
FORMAT_VERSION = 1


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
        "tables": [t.tolist() for t in aut.forward.tables],
        "inverse": {
            "period": aut.inverse.period,
            "radius": aut.inverse.radius,
            "tables": [t.tolist() for t in aut.inverse.tables],
        },
    }


def _code_from_fields(n: int, period: int, radius: int, tables, where: str) -> StabilizedCode:
    from .codes import StabilizedCode

    # the JSON types only (numpy would read a bool as 0 or 1); the constructor checks the rest
    if type(tables) is not list or any(
            type(t) is not list or not set(map(type, t)) <= {int} for t in tables):
        raise FileFormatError(f"{where}: tables must be a list of lists of integers")
    try:
        return StabilizedCode(n, period, radius, tuple(tables))
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def _fields(record: dict, where: str, *keys) -> list:
    missing = [key for key in keys if key not in record]
    if missing:
        raise FileFormatError(f"{where}: missing field '{missing[0]}'")
    return [record[key] for key in keys]


def automorphism_from_dict(data: dict) -> Automorphism:
    from .codes import Automorphism, find_inverse

    if type(data) is not dict or data.get("format") != AUTOMORPHISM_FORMAT:
        raise FileFormatError("not an automorphism file")
    if data.get("version") != FORMAT_VERSION:
        raise FileFormatError(f"unsupported version {data.get('version')}")
    n, *fields = _fields(data, "forward", "n", "period", "radius", "tables")
    fwd = _code_from_fields(n, *fields, "forward")
    inv_data = data.get("inverse")
    if inv_data is None:
        # the inverse record is optional; fall back to a bounded search
        inv = find_inverse(fwd, 2 * fwd.radius)
        if inv is None:
            raise VerificationFailed(
                "no inverse record and no inverse found within twice the radius"
            )
        return Automorphism(fwd, inv, verify=False)
    if type(inv_data) is not dict:
        raise FileFormatError("inverse: not a JSON object")
    inv = _code_from_fields(n, *_fields(inv_data, "inverse", "period", "radius", "tables"),
                            "inverse")
    return Automorphism(fwd, inv)


def _write(path: str, text: str) -> None:
    """Write `text` to `path` in place: same inode and mode, symlinks followed.

    No O_TRUNC: on ext4 with `auto_da_alloc`, truncating a recently written
    file to zero makes its close wait on writeback (about 50 ms a rewrite),
    and so does a rename over it.  The file is cut at the written length
    after the write instead, if it is a regular file (`/dev/null` refuses a
    truncate).  Not atomic: a crash can leave a torn file, which load refuses.
    """
    data = text.encode()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(data))


def save_automorphism(aut: Automorphism, path: str) -> None:
    _write(path, canonical_json(automorphism_to_dict(aut)))


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
    from .krembed import MarkerScheme

    if type(data) is not dict or data.get("format") != SCHEME_FORMAT:
        raise FileFormatError("not a marker scheme file")
    if any(type(data.get(key)) is not int for key in ("target_q", "n", "gap")):
        raise FileFormatError("target_q, n and gap must be integers")
    scheme = MarkerScheme(q=data["target_q"], n=data["n"], gap=data["gap"])
    # the format is canonical: any other version, letter set or pairing is foreign
    if canonical_json(data) != canonical_json(scheme_to_dict(scheme)):
        raise FileFormatError("not the canonical record of its marker scheme")
    return scheme


def save_scheme(scheme: MarkerScheme, path: str) -> None:
    _write(path, canonical_json(scheme_to_dict(scheme)))


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


_CYCLE_NOTATION = re.compile(r"[ ,]*(\([ ,0-9]*\)[ ,]*)*")


def _parse_cycles(text: str) -> list[tuple[int, ...]]:
    """Parse '(1 2 3)(4 5)', 1-based points split by spaces or commas, into 0-based cycles."""
    if not _CYCLE_NOTATION.fullmatch(text):
        raise ValueError(f"bad cycle notation {text!r}: expected cycles such as '(1 2 3)(4 5)'")
    cycles = []
    seen: set[int] = set()
    for body in re.findall(r"\(([ ,0-9]*)\)", text):
        cycle = []
        for token in re.findall(r"[0-9]+", body):
            point = int(token)
            if point < 1:
                raise ValueError(f"point {token} in cycle notation must be at least 1")
            if point in seen:
                raise ValueError(f"point {point} appears twice in cycle notation")
            seen.add(point)
            cycle.append(point - 1)
        cycles.append(tuple(cycle))
    return cycles


# -- subcommands ----------------------------------------------------------

def _cmd_invariants(args) -> tuple[int, dict]:
    stab = distinguish_stabilized(args.m, args.n)
    classical = distinguish_classical(args.m, args.n)
    # the verdicts carry the omega counts and root sets the report prints
    rts = classical.detail
    roots_m, roots_n = (rts["rts"], rts["rts"]) if "rts" in rts else (rts["rts_m"], rts["rts_n"])
    report = {
        "m": args.m,
        "n": args.n,
        "stabilized": f"{stab.outcome} (omega {stab.detail['omega_m']} vs {stab.detail['omega_n']})"
        if stab.criterion == "prime-divisor-count"
        else stab.outcome,
        "stabilized_criterion": stab.criterion,
        "stabilized_detail": stab.detail,
        "classical": classical.outcome,
        "classical_criterion": classical.criterion,
        "roots_m": roots_m,
        "roots_n": roots_n,
    }
    return 0, report


def _cmd_orbits(args) -> tuple[int, dict]:
    # the count is at least n^p / (2p), and the report prints it in decimal
    digits = sys.get_int_max_str_digits()
    if (min(args.n, args.p) >= 1 and digits
            and _power_exceeds(args.n, args.p, 2 * args.p * 10**digits)):
        raise ValueError(f"the count of orbits of least period {args.p} over {args.n} letters "
                         f"has more than the {digits} digits a report can print")
    count = count_least_period_orbits(args.n, args.p)
    return 0, {
        "n": args.n,
        "p": args.p,
        "orbits": count,
        "summary": f"{count} orbits of least period {args.p}",
        "criterion": "moebius-orbit-count",
    }


def _cmd_dimrep(args) -> tuple[int, dict]:
    from .dimrep import dimension_multiplier

    aut = load_automorphism(args.file)
    vec = dimension_multiplier(aut)
    return 0, {
        "file": args.file,
        "primes": list(vec.primes),
        "exponents": list(vec.exponents),
        "multiplier": str(vec.as_fraction()),
        "inert": vec.is_zero(),
        "criterion": "ray-image-count",
    }


def _cmd_verify_commutator(args) -> tuple[int, dict]:
    from .codes import _check_size
    from .generators import swap_commutator_witness
    from .permlab import Permutation

    if args.a == args.b or not (0 <= args.a < args.n and 0 <= args.b < args.n):
        raise ValueError("need two distinct letters in 0 .. n-1")
    _check_size(args.n, 1, 2)  # phi0, the 2-block code, before tau lists n images
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
    from .generators import mth_root_of

    aut = load_automorphism(args.file)
    root = mth_root_of(aut, args.m)  # raises VerificationFailed unless root^m == aut
    report = {
        "file": args.file,
        "m": args.m,
        "root_period": root.forward.period,
        "root_radius": root.forward.radius,
        "verified": True,
        "criterion": "rotation-root",
    }
    if args.out:
        save_automorphism(root, args.out)
        report["out"] = args.out
    return 0, report


def _cmd_embed(args) -> tuple[int, dict]:
    from .krembed import embed_automorphism, find_marker_scheme

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
    from .codes import enumerate_automorphisms

    auts = enumerate_automorphisms(args.n, args.r, args.k)
    return 0, {
        "n": args.n,
        "r": args.r,
        "k": args.k,
        "count": len(auts),
        "tables": [[t.tolist() for t in a.forward.tables] for a in auts],
        "criterion": "exhaustive-census",
    }


def _cmd_perm(args) -> tuple[int, dict]:
    from .permlab import (MAX_GROUP_DEGREE, DegreeBudgetExceeded, GroupHandle, Permutation,
                          group_order, is_primitive, jordan_verdict, p_cycle_search)

    cycles = [_parse_cycles(text) for text in args.generators]
    degree = max([args.degree] + [p + 1 for gen in cycles for c in gen for p in c])
    if degree > MAX_GROUP_DEGREE:
        raise DegreeBudgetExceeded(f"degree {degree} exceeds cap {MAX_GROUP_DEGREE}")
    gens = [Permutation.from_cycles(degree, gen) for gen in cycles]
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
        side = args.side
        if side * side != degree:
            raise ValueError(f"degree {degree} is not side^2 = {side * side}")
        found = p_cycle_search(gens, side, seed=args.seed)
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
    for name in ("order", "primitive", "jordan", "pcycle"):
        q = psub.add_parser(name)
        q.add_argument("generators", nargs="+", help="cycle notation, 1-based, e.g. '(1 2)(3 4)'")
        q.add_argument("--degree", type=int, default=0)
        if name == "pcycle":
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
    except VerificationFailed as exc:
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


if __name__ == "__main__":
    main()
