import json
import os
import pathlib
import random
import signal
import stat
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabaut
from stabaut.cli import (
    FileFormatError,
    _parse_cycles,
    automorphism_from_dict,
    automorphism_to_dict,
    canonical_json,
    load_automorphism,
    load_scheme,
    run,
    save_automorphism,
    save_scheme,
    scheme_from_dict,
    scheme_to_dict,
)
from stabaut.codes import aut_compose, aut_equals, code_power, equals
from stabaut.dimrep import dimension_multiplier
from stabaut.generators import flip, flip_on_even, shift_power, symbol_permutation
from stabaut.permlab import Permutation
from stabaut.krembed import embed_automorphism, find_marker_scheme
from stabaut.shifts import SftMatrix, count_least_period_orbits


@pytest.fixture
def flip_file(tmp_path):
    path = tmp_path / "flip.json"
    save_automorphism(flip(2), str(path))
    return str(path)


class TestFileFormat:
    def test_round_trip_exact(self, tmp_path, flip_file):
        loaded = load_automorphism(flip_file)
        assert aut_equals(loaded, flip(2))

    def test_bytes_stable_on_resave(self, tmp_path):
        scheme = find_marker_scheme(5, 2, 2)
        emb = embed_automorphism(flip(2), scheme)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_automorphism(emb, str(p1))
        save_automorphism(load_automorphism(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_validation_reports_entry(self):
        data = automorphism_to_dict(flip(2))
        data["tables"][0][1] = 2  # out of range for n = 2
        with pytest.raises(Exception) as exc:
            automorphism_from_dict(data)
        assert "entry 1" in str(exc.value)

    def test_wrong_table_length(self):
        data = automorphism_to_dict(flip(2))
        data["tables"][0] = [0, 1, 1]
        with pytest.raises(Exception) as exc:
            automorphism_from_dict(data)
        assert "expected 2" in str(exc.value)

    def test_wrong_inverse_detected(self):
        data = automorphism_to_dict(shift_power(2, 1))
        data["inverse"]["tables"] = data["tables"]  # shift is not an involution
        with pytest.raises(Exception):
            automorphism_from_dict(data)

    def test_missing_inverse_record_triggers_search(self):
        data = automorphism_to_dict(shift_power(2, 1))
        del data["inverse"]
        loaded = automorphism_from_dict(data)
        assert aut_equals(loaded, shift_power(2, 1))
        assert equals(loaded.inverse, shift_power(2, 1).inverse)

    def test_period_roundtrip(self, tmp_path):
        path = tmp_path / "floe.json"
        save_automorphism(flip_on_even(2), str(path))
        loaded = load_automorphism(str(path))
        assert loaded.forward.period == 2
        assert aut_equals(loaded, flip_on_even(2))

    def test_scheme_roundtrip(self, tmp_path):
        scheme = find_marker_scheme(7, 2, 3)
        path = tmp_path / "scheme.json"
        save_scheme(scheme, str(path))
        loaded = load_scheme(str(path))
        assert loaded == scheme

    def test_sft_target_scheme_round_trips(self):
        scheme = find_marker_scheme(SftMatrix.full_shift(5), 2, 2)
        assert scheme_from_dict(scheme_to_dict(scheme)) == scheme

    def test_saved_tables_match_the_per_entry_form(self, tmp_path):
        rng = random.Random(5)
        letters = Permutation(tuple(rng.sample(range(25), 25)))
        aut = aut_compose(symbol_permutation(5, 2, letters), shift_power(5, 1))
        assert aut.forward.period == 2
        data = automorphism_to_dict(aut)
        data["tables"] = [[int(v) for v in t] for t in aut.forward.tables]
        data["inverse"]["tables"] = [[int(v) for v in t] for t in aut.inverse.tables]
        path = tmp_path / "random2.json"
        save_automorphism(aut, str(path))
        assert path.read_bytes() == canonical_json(data).encode()

    def test_canonical_json_sorted(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{"a":2,"b":1}\n'


class TestCommands:
    def test_invariants_two_six(self, capsys):
        assert run(["invariants", "2", "6"]) == 0
        out = capsys.readouterr().out
        assert "distinguishable (omega 1 vs 2)" in out

    def test_invariants_json(self, capsys):
        assert run(["--json", "invariants", "2", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stabilized"] == "isomorphic"
        assert report["classical"] == "distinguishable"

    def test_orbits(self, capsys):
        assert run(["orbits", "3", "3"]) == 0
        assert "8 orbits of least period 3" in capsys.readouterr().out

    def test_orbits_below_the_print_limit(self, capsys):
        assert run(["--json", "orbits", "2", "14000"]) == 0
        assert json.loads(capsys.readouterr().out)["orbits"] == count_least_period_orbits(2, 14000)

    def test_orbits_of_a_huge_period_over_one_letter(self, capsys):
        start = time.perf_counter()
        assert run(["--json", "orbits", "1", "1000000000"]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["orbits"] == 0

    def test_dimrep_flip(self, capsys, flip_file):
        assert run(["dimrep", flip_file]) == 0
        out = capsys.readouterr().out
        assert "inert: True" in out
        assert "exponents: [0]" in out

    def test_dimrep_shift(self, capsys, tmp_path):
        path = tmp_path / "sigma.json"
        save_automorphism(shift_power(2, 1), str(path))
        assert run(["dimrep", str(path)]) == 0
        out = capsys.readouterr().out
        assert "inert: False" in out

    def test_verify_commutator(self, capsys):
        assert run(["verify-commutator", "3", "0", "2"]) == 0
        assert "verified: True" in capsys.readouterr().out

    def test_root_command(self, capsys, tmp_path, flip_file):
        out_path = tmp_path / "root.json"
        assert run(["root", flip_file, "2", "--out", str(out_path)]) == 0
        loaded = load_automorphism(str(out_path))
        assert equals(code_power(loaded.forward, 2), flip(2).forward)

    def test_embed_command(self, capsys, tmp_path, flip_file):
        out_path = tmp_path / "embedded.json"
        code = run(
            ["embed", flip_file, "--target", "5", "--gap", "2", "--out", str(out_path)]
        )
        assert code == 0
        loaded = load_automorphism(str(out_path))
        scheme = find_marker_scheme(5, 2, 2)
        assert aut_equals(loaded, embed_automorphism(flip(2), scheme))

    def test_enumerate(self, capsys):
        assert run(["enumerate", "2", "0", "1"]) == 0
        assert "count: 2" in capsys.readouterr().out
        # over one letter the one candidate is its own inverse
        assert run(["enumerate", "1", "0", "1"]) == 0
        assert "count: 1\ntables: [[[0]]]" in capsys.readouterr().out

    def test_module_entry_point(self):
        src = pathlib.Path(stabaut.__file__).resolve().parents[1]
        argv = [sys.executable, "-m", "stabaut.cli", "--json", "enumerate", "2", "1", "1"]
        proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 6

    def test_perm_order(self, capsys):
        assert run(["perm", "order", "(1 2)", "(1 2 3 4 5)"]) == 0
        assert "order: 120" in capsys.readouterr().out

    def test_perm_primitive_witness(self, capsys):
        assert run(["perm", "primitive", "(1 2 3 4)"]) == 0
        out = capsys.readouterr().out
        assert "primitive: False" in out
        assert "witness_block: [1, 3]" in out

    def test_perm_jordan(self, capsys):
        assert run(["perm", "jordan", "(1 2 3)", "(1 2 3 4 5 6 7)"]) == 0
        assert "verdict: Alt" in capsys.readouterr().out

    def test_seed_flag_deterministic(self, capsys):
        gens = ["(1 2)(8 9)"]
        args = ["--json", "--seed", "7", "perm", "pcycle", "--side", "3", "--degree", "9"] + gens
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["invariants", "2"]) == 1

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_file(self, capsys):
        assert run(["dimrep", "/nonexistent/path.json"]) == 1

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format":"stabaut-automorphism","version":1}')
        assert run(["dimrep", str(path)]) == 1

    def test_out_of_range_entry_is_input_error(self, tmp_path, capsys, flip_file):
        data = json.loads(open(flip_file).read())
        data["tables"][0][0] = 5
        bad = tmp_path / "bad_entry.json"
        bad.write_text(json.dumps(data))
        assert run(["dimrep", str(bad)]) == 1
        assert "entry" in capsys.readouterr().err

    def test_failed_verification_is_exit_two(self, tmp_path, capsys):
        # valid letter ranges, but the declared inverse is wrong
        data = automorphism_to_dict(shift_power(2, 1))
        data["inverse"] = {
            "period": data["period"],
            "radius": data["radius"],
            "tables": data["tables"],
        }
        path = tmp_path / "lying.json"
        path.write_text(json.dumps(data))
        assert run(["dimrep", str(path)]) == 2

    def test_oversized_radius_refused_before_allocating(self, tmp_path, capsys):
        data = automorphism_to_dict(flip(2))
        data.update(n=3, radius=30_000_000, tables=[[0, 1, 2]])
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        assert run(["dimrep", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda data: [1],
        lambda data: {**data, "tables": 5},
        lambda data: {**data, "tables": [5]},
        lambda data: {**data, "inverse": []},
        lambda data: {**data, "tables": [[0, True]]},
        lambda data: {**data, "inverse": {**data["inverse"], "tables": [[False, 1]]}},
    ], ids=["top-level-list", "tables-int", "table-int", "inverse-list",
            "bool-entry", "bool-inverse-entry"])
    def test_malformed_file_is_file_error(self, tmp_path, capsys, edit):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(edit(automorphism_to_dict(flip(2)))))
        assert run(["dimrep", str(path)]) == 1
        assert capsys.readouterr().err.startswith("file error: ")

    @pytest.mark.parametrize("record, key", [
        *(("forward", key) for key in ("n", "period", "radius", "tables")),
        *(("inverse", key) for key in ("period", "radius", "tables")),
    ])
    def test_missing_field_is_file_error(self, tmp_path, capsys, record, key):
        data = automorphism_to_dict(flip(2))
        del (data if record == "forward" else data["inverse"])[key]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        assert run(["dimrep", str(path)]) == 1
        assert capsys.readouterr().err == f"file error: {record}: missing field '{key}'\n"

    def test_scheme_needs_an_object(self):
        with pytest.raises(FileFormatError):
            scheme_from_dict([1])

    def test_identity_transposition_rejected(self, capsys):
        assert run(["verify-commutator", "2", "1", "1"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["verify-commutator", "1000000000000", "0", "1"], "budget"),
        (["verify-commutator", "3", "0", "5"], "distinct letters"),
        (["perm", "order", "(1 2)", "--degree", "1000000000000"], "exceeds cap"),
        (["perm", "order", "(1 1000000000000)"], "exceeds cap"),
        (["enumerate", "2", "-1", "1"], "bad census shape"),
        (["enumerate", "2", "1", "0"], "bad census shape"),
        (["enumerate", "100", "3", "3"], "100^(w*3) candidates for w = 100^7 windows exceed"),
        (["orbits", "10", "1000000000"], "more than the 4300 digits"),
        (["orbits", "2", "15000"], "more than the 4300 digits"),
        (["perm", "pcycle", "--side", "1", "(1)"], "grid side 1 must be at least 2"),
        (["perm", "order", "(0)"], "point 0 in cycle notation must be at least 1"),
        (["perm", "order", "(0 3)", "--degree", "5"], "point 0 in cycle notation must be at least 1"),
        (["perm", "order", "(1 1)"], "point 1 appears twice in cycle notation"),
        (["perm", "order", "(1)(1 2)"], "point 1 appears twice in cycle notation"),
        (["perm", "order", "(1 2 1)"], "point 1 appears twice in cycle notation"),
        *((["perm", "order", text], f"bad cycle notation {text!r}")
          for text in (")", "(1 2))", "((1 2)", "1 2)", "(1 2", "(a)", "(1\t2)")),
    ], ids=["commutator-alphabet", "commutator-letter", "perm-degree", "perm-point",
            "census-radius", "census-period", "census-size", "orbits-huge", "orbits-unprintable",
            "pcycle-side", "perm-point-zero", "perm-point-zero-with-degree",
            "perm-point-repeated", "perm-point-in-two-cycles", "perm-cycle-revisits",
            "perm-close-only", "perm-extra-close", "perm-nested", "perm-unopened",
            "perm-unclosed", "perm-letter", "perm-tab"])
    def test_oversized_or_bad_argument_refused(self, capsys, argv, message):
        start = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("aut, argv", [
        (flip(2), ["root", "{}", "40"]),
        (shift_power(2, 1), ["embed", "{}", "--target", "5", "--gap", "3000000"]),
    ], ids=["root", "embed"])
    def test_oversized_code_refused_before_allocating(self, tmp_path, capsys, aut, argv):
        path = tmp_path / "aut.json"
        save_automorphism(aut, str(path))
        start = time.perf_counter()
        assert run([arg.format(path) for arg in argv]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "exceed the exact-check budget" in err and "Traceback" not in err

    def test_embedding_whose_check_passes_the_budget_writes_no_file(self, tmp_path, capsys):
        # sigma at gap 3 embeds at radius 3, so its check would compose to
        # 3 tables of 5^13 entries: refused, not trusted and written unloadable
        path, out = tmp_path / "sigma.json", tmp_path / "o.json"
        save_automorphism(shift_power(2, 1), str(path))
        assert run(["embed", str(path), "--target", "5", "--gap", "3", "--out", str(out)]) == 1
        assert "3 tables of 5^13 entries exceed the exact-check budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda data: {**data, "target_q": "7"},
        lambda data: {key: v for key, v in data.items() if key != "gap"},
    ], ids=["string-target", "missing-gap"])
    def test_scheme_fields_must_be_integers(self, edit):
        data = edit(scheme_to_dict(find_marker_scheme(5, 2, 2)))
        with pytest.raises(FileFormatError, match="must be integers"):
            scheme_from_dict(data)


    @pytest.mark.parametrize("edit", [
        lambda data: {**data, "version": 99},
        lambda data: {**data, "pairing": [[0, 9, 9]]},
        lambda data: {key: v for key, v in data.items() if key != "pairing"},
        lambda data: {**data, "extra": 1},
    ], ids=["wrong-version", "wrong-pairing", "missing-pairing", "extra-key"])
    def test_scheme_record_must_be_canonical(self, edit):
        data = edit(scheme_to_dict(find_marker_scheme(5, 2, 2)))
        with pytest.raises(FileFormatError, match="canonical"):
            scheme_from_dict(data)

    @pytest.mark.parametrize("edit", [
        lambda data: {**data, "tables": [[0, 2**70]]},
        lambda data: {**data, "tables": [[-(2**70), 1]]},
        lambda data: {**data, "tables": [[0.5, 1]]},
        lambda data: {**data, "tables": [[1, 0], [1, 0]]},
    ], ids=["huge-entry", "huge-negative-entry", "float-entry", "extra-table"])
    def test_malformed_table_is_file_error(self, tmp_path, capsys, edit):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(edit(automorphism_to_dict(flip(2)))))
        assert run(["dimrep", str(path)]) == 1
        assert capsys.readouterr().err.startswith("file error: forward: ")

    def test_failed_root_identity_is_exit_two(self, capsys, monkeypatch, flip_file):
        monkeypatch.setattr("stabaut.generators.equals", lambda *args, **kwargs: False)
        assert run(["root", flip_file, "2"]) == 2
        assert capsys.readouterr().err.startswith("verification failed:")

    def test_tail_dependent_ray_count_is_exit_two(self, capsys, monkeypatch, flip_file):
        # the count of a verified automorphism cannot depend on the tail letter,
        # so one that does is a failed self-check, not an unsupported input
        monkeypatch.setattr("stabaut.dimrep.ray_image_count",
                            lambda aut, tail: stabaut.dimrep.RayCount(1, 2 + tail))
        assert run(["dimrep", flip_file]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["verification failed: ray count depends on the tail letter"]

    def test_search_budget_is_not_read_from_the_environment(self, capsys, monkeypatch):
        assert run(["enumerate", "2", "1", "1"]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("STABAUT_SEARCH_BUDGET", "3")
        assert run(["enumerate", "2", "1", "1"]) == 0
        assert capsys.readouterr().out == plain


class TestStructureAfterLoading:
    """A saved code gets its shift or block structure back on loading."""

    def test_root_of_saved_block_code(self, tmp_path, capsys):
        path = tmp_path / "block2.json"
        save_automorphism(symbol_permutation(2, 2, Permutation((2, 0, 3, 1))), str(path))
        assert run(["--json", "root", str(path), "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True and report["root_period"] == 4

    def test_root_of_saved_radius_zero_letter_map(self, tmp_path, capsys):
        path = tmp_path / "letters.json"
        save_automorphism(flip_on_even(2), str(path))
        assert run(["--json", "root", str(path), "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True
        assert (report["root_period"], report["root_radius"]) == (4, 3)

    def test_dimrep_of_saved_wide_shift(self, tmp_path, capsys):
        path = tmp_path / "shift12.json"
        save_automorphism(shift_power(12, 2), str(path))
        assert load_automorphism(str(path)).forward.shift_by == 2
        assert run(["--json", "dimrep", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exponents"] == list(dimension_multiplier(shift_power(12, 2)).exponents)

    def test_invariants_of_a_large_prime(self, capsys):
        start = time.perf_counter()
        assert run(["--json", "invariants", "2", str(2**61 - 1)]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["roots_n"] == [1]


class TestWriter:
    """`--out` and `--scheme-out` rewrite a file in place: the new canonical
    bytes, the same inode and mode, symlinks followed."""

    def test_shorter_record_over_a_longer_one(self, tmp_path):
        path = tmp_path / "aut.json"
        save_automorphism(embed_automorphism(flip(2), find_marker_scheme(5, 2, 2)), str(path))
        path.chmod(0o600)
        before = path.stat()
        save_automorphism(flip(2), str(path))
        assert path.read_text() == canonical_json(automorphism_to_dict(flip(2)))
        assert aut_equals(load_automorphism(str(path)), flip(2))
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)

    def test_null_device(self, capsys, flip_file):
        assert run(["root", flip_file, "2"]) == 0
        plain = capsys.readouterr()
        assert run(["root", flip_file, "2", "--out", os.devnull]) == 0
        written = capsys.readouterr()
        assert written.out == plain.out + f"out: {os.devnull}\n"
        assert written.err == ""

    def test_symlink_writes_through(self, tmp_path, capsys, flip_file):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 4096)
        link.symlink_to(target)
        assert run(["root", flip_file, "2", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert equals(code_power(load_automorphism(str(target)).forward, 2), flip(2).forward)

    def test_out_and_scheme_out_on_one_path_end_with_the_scheme(self, tmp_path, capsys,
                                                                flip_file):
        path = str(tmp_path / "both.json")
        argv = ["embed", flip_file, "--target", "5", "--out", path, "--scheme-out", path]
        assert run(argv) == 0
        scheme = find_marker_scheme(5, 2, 2)
        assert pathlib.Path(path).read_text() == canonical_json(scheme_to_dict(scheme))
        assert scheme_to_dict(load_scheme(path)) == scheme_to_dict(scheme)

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        previous = os.umask(0o027)
        try:
            save_automorphism(flip(2), str(tmp_path / "aut.json"))
            save_scheme(find_marker_scheme(5, 2, 2), str(tmp_path / "scheme.json"))
        finally:
            os.umask(previous)
        for name in ("aut.json", "scheme.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~0o027

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_target_is_one_error_line(self, tmp_path, capsys, flip_file, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "root.json"
        assert run(["root", flip_file, "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_no_save_truncates_on_open(self, tmp_path, monkeypatch):
        # open(path, "w") truncates to zero, and on ext4 (auto_da_alloc) the close of
        # such a rewrite waits on writeback: measured 50-110 ms a `root` or `embed` job
        flags, real_open = [], os.open
        monkeypatch.setattr(os, "open", lambda path, flag, *rest: (
            flags.append(flag), real_open(path, flag, *rest))[1])
        save_automorphism(flip(2), str(tmp_path / "aut.json"))
        save_scheme(find_marker_scheme(5, 2, 2), str(tmp_path / "scheme.json"))
        assert len(flags) == 2
        assert not any(flag & os.O_TRUNC for flag in flags)


# -- fuzz -----------------------------------------------------------------

# values at the small edge of every argument's range, values past every size
# budget, and strings argparse refuses; an embedding target also takes 4 and 5,
# the edge of "at least n^2 + 1 letters".  Mid-size valid inputs that take
# seconds by right (`embed --target 5 --gap 4` writes its tables in 2.3 s) are
# left to the command tests, so the deadline below sees hangs, not work.  The
# product of two Mersenne primes has 1152 digits and no prime factor below 1000:
# past the factorizer's bit bound, so `invariants` and `orbits` refuse it at once.
# 1009^1009 is a power with an exponent past the primes below 1000, which the
# factorizer peels in one root: a slow integer root trips the deadline.
FUZZ_INTS = st.sampled_from(["-1", "0", "1", "2", "3", str(2**31 - 1), str(2**61 - 1),
                             str(10**30), str((2**3217 - 1) * (2**607 - 1)), str(1009**1009),
                             "x", "1.5", "-0", "0x10"])
CYCLES = ["(1 2)", "(1 2 3)(4 5)", "(1,2,3,4,5,6,7,8,9)", "(1 2 3 4)", "()", "(0 1)", "(1 1)",
          "((1 2))", "(1 2", "1 2)", "(a b)", "(65 1)", "(1 2)(2 3)", "(99999999999999999999)",
          ")", "(1 2))"]
CYCLE_TEXT = st.text(alphabet="() ,0123456789", max_size=12)


def fuzz_files(root):
    """Paths of valid automorphism files, and of malformed and missing ones."""
    auts = {"flip": flip(2), "sigma": shift_power(2, 1), "flip-on-even": flip_on_even(2)}
    records = {name: automorphism_to_dict(aut) for name, aut in auts.items()}
    base = records["flip"]
    edits = {
        "no-inverse": {k: v for k, v in records["sigma"].items() if k != "inverse"},
        "wrong-inverse": {**records["sigma"], "inverse": {**records["sigma"]["inverse"],
                                                          "tables": records["sigma"]["tables"]}},
        "list": [1], "string": "stabaut", "null": None,
        "version-2": {**base, "version": 2},
        "huge-n": {**base, "n": 10**30}, "negative-n": {**base, "n": -2},
        "huge-radius": {**base, "radius": 2**61 - 1}, "zero-period": {**base, "period": 0},
        "float-radius": {**base, "radius": 0.5}, "bool-n": {**base, "n": True},
        "tables-int": {**base, "tables": 5}, "bool-entry": {**base, "tables": [[0, True]]},
        "float-entry": {**base, "tables": [[0, 1.0]]}, "str-entry": {**base, "tables": [["0", 1]]},
        "out-of-range": {**base, "tables": [[0, 2]]}, "short-table": {**base, "tables": [[0]]},
        "huge-entry": {**base, "tables": [[0, 10**30]]},
        "inverse-list": {**base, "inverse": []},
        "inverse-missing-radius": {**base, "inverse": {"period": 1, "tables": [[1, 0]]}},
        "inverse-huge-period": {**base, "inverse": {**base["inverse"], "period": 2**61 - 1}},
        "no-tables": {k: v for k, v in base.items() if k != "tables"},
    }
    texts = {name: json.dumps(record) for name, record in {**records, **edits}.items()}
    texts.update({"truncated": canonical_json(base)[:-9], "empty": "",
                  "not-json": "{format: 1}", "nan": '{"n": NaN}'})
    for name, text in texts.items():
        (root / f"{name}.json").write_text(text)
    (root / "bytes.json").write_bytes(b"\xff\xfe\x00{")
    # a record without an inverse is valid: the loader searches for one
    good = [*records, "no-inverse"]
    bad = [str(root / "missing.json"), str(root), str(root / "bytes.json")]
    bad += [str(root / f"{name}.json") for name in texts if name not in good]
    return [str(root / f"{name}.json") for name in good], bad


@st.composite
def cli_argvs(draw, files, out):
    """An argv for one of the 8 subcommands, with edge integers, files
    both good and malformed, and cycle strings both good and bad."""
    good, bad = files
    ints, file = (lambda: draw(FUZZ_INTS),
                  lambda: draw(st.sampled_from(good) | st.sampled_from(bad)))
    command = draw(st.sampled_from(["invariants", "orbits", "dimrep", "verify-commutator",
                                    "root", "embed", "enumerate", "perm"]))
    argv = [command]
    if command in ("invariants", "orbits"):
        argv += [ints(), ints()]
    elif command == "dimrep":
        argv += [file()]
    elif command in ("verify-commutator", "enumerate"):
        argv += [ints(), ints(), ints()]
    elif command == "root":
        argv += [file(), ints()] + draw(st.sampled_from([[], ["--out", out]]))
    elif command == "embed":
        argv += [file(), "--target", draw(st.sampled_from(["4", "5"]) | FUZZ_INTS)]
        argv += draw(st.sampled_from([[], ["--gap", ints()]]))
        argv += draw(st.sampled_from([[], ["--out", out], ["--scheme-out", out]]))
    else:
        argv += [draw(st.sampled_from(["order", "primitive", "jordan", "pcycle"]))]
        argv += draw(st.lists(st.sampled_from(CYCLES) | CYCLE_TEXT, min_size=1, max_size=3))
        argv += draw(st.sampled_from([[], ["--degree", ints()]]))
        argv += draw(st.sampled_from([[], ["--side", ints()]]))
    prefix = draw(st.sampled_from([[], ["--json"], ["--seed", ints()]]))
    return prefix + argv


@st.composite
def writing_argvs(draw, files, out):
    """A `root` or `embed` of a valid file that often exits 0, writing `out`;
    the argvs of cli_argvs reach an exit-0 write in well under 1 % of examples."""
    file = draw(st.sampled_from(files[0]))
    small = st.sampled_from(["1", "2", "3"])
    if draw(st.booleans()):
        return ["root", file, draw(small), "--out", out]
    outs = draw(st.sampled_from([["--out", out], ["--scheme-out", out],
                                 ["--out", out, "--scheme-out", out]]))
    return ["embed", file, "--target", "5", "--gap", draw(small), *outs]


class _Deadline(BaseException):
    """Raised by the alarm; not an Exception, so no handler in run takes it."""


def _on_alarm(signum, frame):
    raise _Deadline


class TestFuzz:
    """cli.run over generated argv: every example exits 0, 1 or 2 within
    about two seconds, and no exception escapes run."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        # 25 kB: as long as any record the fuzzed commands write but the cube root of flip-on-even
        longer = canonical_json(automorphism_to_dict(
            embed_automorphism(shift_power(2, 1), find_marker_scheme(5, 2, 2))))
        return fuzz_files(root), str(root / "out.json"), longer

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_run_returns_an_exit_code(self, files, data):
        # the --out target is a fresh path, a rewrite of a longer valid record, or the null device
        good_and_bad, out, longer = files
        if os.path.exists(out):
            os.remove(out)
        target = data.draw(st.sampled_from(["fresh", "longer", "null"]))
        if target == "longer":
            pathlib.Path(out).write_text(longer)
        elif target == "null":
            out = os.devnull
        argv = data.draw(cli_argvs(good_and_bad, out) | writing_argvs(good_and_bad, out))
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            code = run(argv)
        except _Deadline:
            pytest.fail(f"{argv} ran past its 2 s deadline")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2), argv
        if code == 0 and out != os.devnull:
            # a file the CLI writes, the CLI reads; the scheme is written last
            if "--scheme-out" in argv:
                load_scheme(out)
            elif "--out" in argv:
                load_automorphism(out)


# cycle notation: the characters of the grammar, in runs that often parse
@given(CYCLE_TEXT | st.lists(st.sampled_from(["(", ")", " ", ",", "1", "2", "13", "07", "0"]),
                             max_size=12).map("".join))
def test_accepted_cycle_notation_round_trips(text):
    try:
        cycles = _parse_cycles(text)
    except ValueError:
        return
    rendered = "".join("(" + " ".join(str(p + 1) for p in cycle) + ")" for cycle in cycles)
    assert _parse_cycles(rendered) == cycles
