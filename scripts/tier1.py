#!/usr/bin/env python3
"""Run the Tier-1 suite and check it against its standing verdict.

    python3 scripts/tier1.py

Tier-1 is `python -m pytest -q --continue-on-collection-errors` from the repo
root with `src` on PYTHONPATH; this script adds only `--junitxml` into a
temporary directory. Acceptance criterion 8 is a documented failure (see
ROADMAP.md): its criterion is mis-specified, and it runs like every other
test. The script prints the counts and exits 0 iff the failed or errored
tests are exactly that one. Any other failure or error, a collection error,
or a passing criterion 8 exits 1. Standard library only.
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# tests/test_acceptance.py::test_criterion_8_shot_noise_scaling, as junit names it
EXPECTED_FAILURES = {"tests.test_acceptance::test_criterion_8_shot_noise_scaling"}
COUNTS = ("tests", "failures", "errors", "skipped")


def failed_tests(report: ET.Element) -> set[str]:
    """classname::name of every test case with a <failure> or an <error>;
    a collection error is a case named after its module."""
    return {f"{case.get('classname')}::{case.get('name')}" for case in report.iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None}


def verdict(junit_xml: str) -> int:
    """0 iff the failed or errored tests are exactly EXPECTED_FAILURES."""
    return int(failed_tests(ET.fromstring(junit_xml)) != EXPECTED_FAILURES)


def summary(junit_xml: str) -> str:
    report = ET.fromstring(junit_xml)
    totals = {k: sum(int(s.get(k, 0)) for s in report.iter("testsuite")) for k in COUNTS}
    failed = failed_tests(report)
    lines = [", ".join(f"{v} {k}" for k, v in totals.items())]
    lines += [f"unexpected failure: {t}" for t in sorted(failed - EXPECTED_FAILURES)]
    lines += [f"expected failure passed or did not run: {t}"
              for t in sorted(EXPECTED_FAILURES - failed)]
    return "\n".join(lines)


def main() -> int:
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tier1.xml"
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             f"--junitxml={path}"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": src}, check=False,
        )
        if not path.exists():
            print("tier1: pytest wrote no report")
            return 1
        junit_xml = path.read_text()
    code = verdict(junit_xml)
    print(f"tier1: {summary(junit_xml)}\ntier1: {'as expected' if code == 0 else 'REGRESSION'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
