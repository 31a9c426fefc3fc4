"""Every command of the README's CLI block runs, exits 0 and prints what
its comment states."""

import pathlib
import shlex

from stabaut.cli import run, save_automorphism
from stabaut.generators import flip

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# the stdout fact each commented command states
FACTS = {
    "invariants 2 6": "distinguishable (omega 1 vs 2)",
    "orbits 3 3": "orbits: 8\n",
    "verify-commutator 3 0 2": "verified: True\n",
    "enumerate 2 1 1": "count: 6\n",
    "enumerate 6 0 1": "count: 720\n",
}


def cli_block():
    """The command lines of the first code block under the CLI heading."""
    text = README.read_text()
    block = text[text.index("## CLI"):].split("```")[1]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_automorphism(flip(2), "phi.json")
    seen = set()
    for line in cli_block():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "stabaut", line
        assert run(argv[1:]) == 0, line
        out = capsys.readouterr().out
        command = " ".join(argv[1:])
        if command in FACTS:
            assert FACTS[command] in out, line
            seen.add(command)
    assert seen == set(FACTS)
    assert (tmp_path / "root.json").exists() and (tmp_path / "embedded.json").exists()
