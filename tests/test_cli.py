import json
import time

import pytest

from stabaut.cli import (
    FileFormatError,
    automorphism_from_dict,
    automorphism_to_dict,
    canonical_json,
    load_automorphism,
    load_scheme,
    run,
    save_automorphism,
    save_scheme,
    scheme_from_dict,
)
from stabaut.codes import aut_equals, equals
from stabaut.dimrep import dimension_multiplier
from stabaut.generators import flip, flip_on_even, shift_power, symbol_permutation
from stabaut.permlab import Permutation
from stabaut.krembed import embed_automorphism, find_marker_scheme


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
        from stabaut.codes import code_power

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

    def test_scheme_needs_an_object(self):
        with pytest.raises(FileFormatError):
            scheme_from_dict([1])

    def test_identity_transposition_rejected(self, capsys):
        assert run(["verify-commutator", "2", "1", "1"]) == 1


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
