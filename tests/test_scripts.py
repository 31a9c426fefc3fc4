"""The experiment scripts load against the current library.

Loading runs every import and definition but not the `__main__` block,
so removing or renaming a library name a script uses fails here.
"""

import pathlib
import runpy

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads(path):
    namespace = runpy.run_path(str(path), run_name="stabaut_scripts")
    assert callable(namespace["main"])
