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
    assert not load(next(p for p in SCRIPTS if p.name == name)).main()  # a check's exit status, if any
    table = capsys.readouterr().out.splitlines()
    # One printed row per time point or mixing parameter, each starting with it.
    assert sum(line.strip()[:1].isdigit() for line in table) == rows


WERNER = next(p for p in SCRIPTS if p.name == "werner_roof.py")


def test_werner_sweep_fails_past_its_oracle_tolerance(monkeypatch, capsys):
    script = load(WERNER)
    assert script.ORACLE_TOLERANCE == 1e-9
    oracle = script.wootters_oracle
    monkeypatch.setattr(script, "wootters_oracle", lambda rho: oracle(rho) + 2e-9)
    monkeypatch.setattr(sys, "argv", ["werner_roof.py", "--steps", "2", "--restarts", "1"])
    assert script.main() == 1
    assert "exceeds 1e-09" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "1"])
def test_werner_sweep_refuses_fewer_than_two_points(steps, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["werner_roof.py", "--steps", steps])
    with pytest.raises(SystemExit) as exit_:
        load(WERNER).main()
    assert exit_.value.code == 2
