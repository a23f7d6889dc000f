"""The CI workflow against the repository it runs on, read as text.

The test extra has no YAML parser, so the workflow is read with regular
expressions: the floors its matrix pins must be the ones pyproject.toml
declares, and every file a `run:` step names must exist.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
PYPROJECT = (ROOT / "pyproject.toml").read_text()


def run_commands(text: str) -> list[str]:
    """The command of each `run:` step; a block scalar (`run: |`) is its
    more-indented lines joined."""
    lines = text.splitlines()
    commands = []
    for i, line in enumerate(lines):
        m = re.match(r"(\s*)- run: (.*)$", line)
        if not m:
            continue
        if m.group(2).strip() != "|":
            commands.append(m.group(2))
            continue
        indent = len(m.group(1))
        block = []
        for following in lines[i + 1:]:
            if following.strip() and len(following) - len(following.lstrip()) <= indent:
                break
            block.append(following)
        commands.append("\n".join(block))
    return commands


def test_numpy_floor_entry_pins_the_declared_floor():
    (declared,) = re.findall(r'"numpy>=(\d+\.\d+)"', PYPROJECT)
    (pinned,) = re.findall(r'numpy: "numpy==(\d+\.\d+)\.\*"', WORKFLOW)
    assert pinned == declared


def test_first_python_version_is_the_declared_floor():
    (declared,) = re.findall(r'requires-python = ">=(\d+\.\d+)"', PYPROJECT)
    (versions,) = re.findall(r"python-version: \[([^\]]*)\]", WORKFLOW)
    assert re.findall(r'"([^"]+)"', versions)[0] == declared


def test_every_file_a_run_step_names_exists():
    named = {token for command in run_commands(WORKFLOW)
             for token in re.findall(r"[\w./*-]+\.(?:py|json)\b", command)}
    assert {"scripts/tier1.py", "scripts/configs/*.json", "bench/run.py"} <= named
    for path in sorted(named):
        assert list(ROOT.glob(path)), f"{path} named in a run step matches no file"


def test_run_commands_reads_block_and_inline_steps():
    text = ("    steps:\n"
            "      - run: python a.py\n"
            "      - run: |\n"
            "          for f in b/*.json; do\n"
            "            x \"$f\"\n"
            "          done\n"
            "      - run: python c.py\n")
    assert run_commands(text) == [
        "python a.py",
        "          for f in b/*.json; do\n            x \"$f\"\n          done",
        "python c.py",
    ]
