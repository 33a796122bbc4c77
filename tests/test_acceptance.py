"""Acceptance battery: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per
criterion; `ballorbits suite` prints the same report.
"""

from pathlib import Path

import pytest

from ballorbits import acceptance, cli
from ballorbits import analysis as ana
from ballorbits import catalog as cat
from ballorbits import geometry as geo
from ballorbits import orbits as orb

from conftest import count_calls

SUITE_GOLDEN = Path(__file__).parent / "golden" / "suite_12345.txt"


@pytest.mark.parametrize(
    "criterion", acceptance._CRITERIA,
    ids=[c.__name__ for c in acceptance._CRITERIA])
def test_criterion(criterion):
    line = criterion(12345, acceptance.PassFixtures())
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


def test_pass_builds_its_shared_fixtures_once(monkeypatch):
    # one pole clearance and one cleared-Blaschke orbit for the six
    # criteria that use them; criterion 08 builds the axial orbit
    calls = count_calls(monkeypatch, (cat, "ensure_pole_clearance"),
                        (orb, "construct_backward_orbit"))
    lines = acceptance.run_criteria(12345)
    assert all(line.passed for line in lines)
    assert calls == {"ensure_pole_clearance": 1,
                     "construct_backward_orbit": 2}


def test_criterion_06_profiles_once(monkeypatch):
    # the shift recovery reads the profile the criterion measured
    calls = count_calls(monkeypatch, (ana, "orbit_distance_profile"),
                        (ana, "shift_recovery"))
    assert acceptance.criterion_06_finite_distance(
        12345, acceptance.PassFixtures()).passed
    assert calls == {"orbit_distance_profile": 1, "shift_recovery": 1}


def test_criterion_07_fails_on_short_sample_set(monkeypatch):
    # the sample count is part of the pass condition, not an assert that
    # python -O strips
    full = acceptance.tube_samples

    def ten_samples(*args, **kwargs):
        b = full(*args, **kwargs)
        return geo.PointBatch(ref=b.ref, delta=b.delta[:10],
                              tail=b.tail[:10], margin=b.margin[:10])

    monkeypatch.setattr(acceptance, "tube_samples", ten_samples)
    line = acceptance.criterion_07_tube_in_koranyi(
        12345, acceptance.PassFixtures()).render()
    assert line.startswith("CHECK criterion_07_tube_in_koranyi FAIL ")
