"""scripts/tier1.py's verdict on synthetic junit XML."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "tier1.py"
spec = importlib.util.spec_from_file_location("tier1", SCRIPT)
tier1 = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tier1)

CRITERION_8 = ("tests.test_acceptance", "test_criterion_8_shot_noise_scaling")
PASSING = ("tests.test_cli.TestEmit", "test_single_record_csv")


def junit(*cases):
    """A pytest-style report of (classname, name, outcome) cases, outcome one
    of "pass", "failure" or "error"."""
    body = "".join(
        f'<testcase classname="{c}" name="{n}" time="0.1">'
        + ("" if outcome == "pass" else f'<{outcome} message="x">trace</{outcome}>')
        + "</testcase>"
        for c, n, outcome in cases
    )
    failures = sum(outcome == "failure" for *_, outcome in cases)
    errors = sum(outcome == "error" for *_, outcome in cases)
    return (f'<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest" '
            f'errors="{errors}" failures="{failures}" skipped="0" tests="{len(cases)}">'
            f"{body}</testsuite></testsuites>")


def test_criterion_8_failing_alone_passes():
    report = junit((*CRITERION_8, "failure"), (*PASSING, "pass"))
    assert tier1.verdict(report) == 0
    assert tier1.summary(report) == "2 tests, 1 failures, 0 errors, 0 skipped"


def test_one_more_failure_fails():
    report = junit((*CRITERION_8, "failure"), (*PASSING, "failure"))
    assert tier1.verdict(report) == 1
    assert "unexpected failure: tests.test_cli.TestEmit::test_single_record_csv" in tier1.summary(report)


def test_criterion_8_passing_fails():
    report = junit((*CRITERION_8, "pass"), (*PASSING, "pass"))
    assert tier1.verdict(report) == 1
    assert "expected failure passed or did not run" in tier1.summary(report)


def test_a_collection_error_fails():
    report = junit((*CRITERION_8, "failure"), ("", "tests.test_pauli", "error"))
    assert tier1.verdict(report) == 1
    assert "unexpected failure: ::tests.test_pauli" in tier1.summary(report)
