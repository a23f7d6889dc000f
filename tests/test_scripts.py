"""Every shipped script imports cleanly, so a script that still uses a
removed public name fails here rather than in a user's hands; the scripts
that print a table also run end to end on small arguments."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("name,argv,rows", [
    ("worked_example.py", ["--points", "3"], 3),
    ("werner_roof.py", ["--steps", "2", "--restarts", "1"], 2),
    ("shot_scaling.py", ["--seeds", "3", "--shots", "100", "1000"], 2),
], ids=["worked_example", "werner_roof", "shot_scaling"])
def test_script_runs_on_small_arguments(name, argv, rows, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    load(next(p for p in SCRIPTS if p.name == name)).main()
    table = capsys.readouterr().out.splitlines()
    # One printed row per time point or mixing parameter, each starting with it.
    assert sum(line.strip()[:1].isdigit() for line in table) == rows
