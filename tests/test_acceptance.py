"""Acceptance battery: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per
criterion; `ballorbits suite` prints the same report.
"""

from pathlib import Path

import pytest

from ballorbits import acceptance, cli

SUITE_GOLDEN = Path(__file__).parent / "golden" / "suite_12345.txt"


@pytest.mark.parametrize(
    "criterion", acceptance._CRITERIA,
    ids=[c.__name__ for c in acceptance._CRITERIA])
def test_criterion(criterion):
    line = criterion(12345)
    print(line.render())
    assert line.passed, line.render()


def test_criterion_10_suite_determinism(capsys):
    # cmd_suite twice with the same seed produces byte-identical reports,
    # equal to the checked-in report
    code_a = cli.main(["--seed", "12345", "suite"])
    out_a = capsys.readouterr().out
    code_b = cli.main(["--seed", "12345", "suite"])
    out_b = capsys.readouterr().out
    print("CHECK criterion_10_determinism "
          + ("PASS" if out_a == out_b else "FAIL") + " margin=1")
    assert code_a == 0 and code_b == 0
    assert out_a == out_b
    assert out_a == SUITE_GOLDEN.read_text()
    assert "SUITE PASS" in out_a
