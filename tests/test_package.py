"""The package's lazy re-exports, and the CLI commands that need no numpy."""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import stabaut

SRC = pathlib.Path(stabaut.__file__).resolve().parents[1]

# every name `stabaut` re-exports, by the module that defines it
EXPORTS = {
    "codes": "Automorphism StabilizedCode apply_to_periodic aut_commutator aut_compose aut_equals "
             "commutes_with_shift_power compose enumerate_automorphisms equals verify_inverse_pair",
    "dimrep": "ExponentVector RayCount dimension_multiplier is_inert ray_image_count "
              "stabilized_dim_group",
    "generators": "SimpleGraphPerm flip flip_on_even inflate letter_permutation mth_root_of "
                  "periodic_letter_permutation recode_to_power shift_power "
                  "swap_commutator_witness symbol_permutation",
    "invariants": "Verdict distinguish_classical distinguish_stabilized omega roots_set "
                  "sl2_z4_report",
    "krembed": "MarkerScheme WindowConfig coded_stretches embed_automorphism embed_code "
               "find_marker_scheme read_at",
    "permlab": "GroupHandle Permutation group_order is_primitive jordan_verdict p_cycle_search "
               "star three_cycle_from_arrangement",
    "shifts": "PeriodicPoint SftMatrix count_least_period_orbits count_periodic "
              "language_words power_alphabet_index",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_reexport_is_the_submodule_object(module, name):
    assert getattr(stabaut, name) is getattr(importlib.import_module(f"stabaut.{module}"), name)


def test_dir_and_all_list_every_reexport():
    names = {name for _, name in NAMES}
    assert names <= set(dir(stabaut))
    assert set(stabaut.__all__) == names


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stabaut.no_such_name


def test_bare_import_loads_no_submodule():
    proc = run_python("import sys, stabaut\n"
                      "print(sorted(m for m in sys.modules if m.startswith('stabaut.')))\n"
                      "print(stabaut.dimrep.__name__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nstabaut.dimrep\n"


def test_numpy_free_commands_load_no_numpy():
    proc = run_python(
        "import sys\n"
        "from stabaut.cli import run\n"
        "codes = [run(['orbits', '3', '3']), run(['invariants', '12', '18']),\n"
        "         run(['perm', 'order', '(1 2 3)', '(1 2)'])]\n"
        "print(codes, 'numpy' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"


def test_orbits_and_invariants_load_no_group_code():
    proc = run_python(
        "import sys\n"
        "from stabaut.cli import run\n"
        "codes = [run(['orbits', '3', '3']), run(['invariants', '12', '18'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('stabaut.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "[0, 0] ['stabaut.cli', 'stabaut.invariants', 'stabaut.shifts']")


def test_every_import_in_the_package_is_used():
    # a name bound by an import anywhere in a module, top level, local or
    # under TYPE_CHECKING, must be read somewhere in that module
    unused = []
    for path in sorted((SRC / "stabaut").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unused == []


def test_every_module_constant_is_read():
    # an upper-case name assigned at a module's top level must be read in
    # that module, so that a deleted path leaves no dead budget or table
    constants, unread = [], []
    for path in sorted((SRC / "stabaut").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names = [t.id for t in targets if isinstance(t, ast.Name)
                     and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)]
            constants += names
            unread += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert len(constants) >= 10
    assert unread == []


def test_every_exception_class_is_a_value_error():
    # cli.run maps the ValueError family to exit 1 or 2, so a class outside
    # it would escape the mapping and print a traceback
    classes = []
    for info in pkgutil.iter_modules(stabaut.__path__):
        module = importlib.import_module(f"stabaut.{info.name}")
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert len(classes) >= 11
    assert [cls.__qualname__ for cls in classes if not issubclass(cls, ValueError)] == []


def _calls(tree, name):
    # the top-level definition around every call of `name` or `module.name`, in order
    return [getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None))]


def test_embed_code_walks_the_read_slots_then_the_window():
    # one walk over the 2r+1 read slots fills the compact tables, one over
    # the whole window spreads them: a walk that writes the whole window from
    # the read slots' axes would copy rows of q letters
    tree = ast.parse((SRC / "stabaut" / "krembed.py").read_text())
    walks = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "window_chunks"]
    assert _calls(tree, "window_chunks") == ["embed_code", "embed_code"]
    assert [ast.unparse(walk.args[1]) for walk in sorted(walks, key=lambda walk: walk.lineno)] == [
        "reads", "width"]


def test_each_table_layer_job_has_one_owner():
    # one raiser of the table budget, two window-walk kernels in codes.py
    # (comparisons and images), one chooser of the read-sum order, one
    # inverse-pinning kernel, sub-block maps built by _sub_block_map, and
    # a code's structure derived outside its constructor
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((SRC / "stabaut").glob("*.py"))}
    raisers = {stem: _calls(tree, "CodeSizeExceeded") for stem, tree in trees.items()}
    assert {stem: names for stem, names in raisers.items() if names} == {
        "codes": ["_check_entries"]}
    assert _calls(trees["codes"], "window_chunks") == ["_same", "_compose_walk"]
    # the read-sum order is chosen in one function, and WindowChunk.outputs calls it
    orders = {stem: _calls(tree, "_sum_order") for stem, tree in trees.items()}
    assert {stem: names for stem, names in orders.items() if names} == {"codes": ["WindowChunk"]}
    [chunk] = [top for top in trees["codes"].body if getattr(top, "name", None) == "WindowChunk"]
    assert [method.name for method in chunk.body if isinstance(method, ast.FunctionDef)
            and "_sum_order" in {getattr(node.func, "id", None) for node in ast.walk(method)
                                 if isinstance(node, ast.Call)}] == ["outputs"]
    assert [top.name for tree in trees.values() for top in ast.walk(tree)
            if isinstance(top, ast.FunctionDef) and top.name == "_sum_order"] == ["_sum_order"]
    # the constructor only validates: structure is read off the tables when first asked
    [code] = [top for top in trees["codes"].body if getattr(top, "name", None) == "StabilizedCode"]
    [init] = [method for method in code.body if getattr(method, "name", None) == "__post_init__"]
    called = {getattr(node.func, "id", None) for node in ast.walk(init)
              if isinstance(node, ast.Call)}
    assert called.isdisjoint({"_same", "window_chunks", "_widen"})
    assert [top.name for top in trees["codes"].body if isinstance(top, ast.FunctionDef)
            and top.name.startswith("_derive")] == []
    pinners = {stem: _calls(tree, "_pin_inverses") for stem, tree in trees.items()}
    assert {stem: names for stem, names in pinners.items() if names} == {
        "codes": ["find_inverse", "enumerate_automorphisms"]}
    # the census searches before it builds any code, and searches only on the stack
    [census] = [top for top in trees["codes"].body
                if getattr(top, "name", None) == "enumerate_automorphisms"]
    [search] = [node.lineno for node in ast.walk(census) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_pin_inverses"]
    names = [(node.id, node.lineno) for node in ast.walk(census) if isinstance(node, ast.Name)]
    assert "find_inverse" not in {name for name, _ in names}
    built = [line for name, line in names if name == "StabilizedCode"]
    assert built and min(built) > search
    # equals is one walk: it reads no block map, which only compose (itself
    # and through _structured) still reads in codes.py
    readers = [top.name for top in trees["codes"].body for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "block_map"]
    assert "equals" not in readers
    assert set(readers) == {"_structured", "compose"}
    # sub-block maps live next to their three callers
    assert [stem for stem, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_sub_block_map"] == [
        "generators"]
    users = {stem: set(_calls(tree, "_sub_block_map")) for stem, tree in trees.items()}
    assert {stem: names for stem, names in users.items() if names} == {
        "generators": {"swap_commutator_witness", "mth_root_of", "inflate"}}
    imported = {alias.name for node in ast.walk(trees["generators"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "subwindow" not in imported
