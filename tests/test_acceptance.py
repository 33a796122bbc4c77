"""Acceptance battery: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per
criterion; `ballorbits suite` prints the same report.
"""

from pathlib import Path

import numpy as np
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
    # one pole clearance and the two fixture orbits, the cleared Blaschke
    # map's and the disc automorphism's, for the criteria that use them
    calls = count_calls(monkeypatch, (cat, "ensure_pole_clearance"),
                        (orb, "construct_backward_orbit"))
    lines = acceptance.run_criteria(12345)
    assert all(line.passed for line in lines)
    assert calls == {"ensure_pole_clearance": 1,
                     "construct_backward_orbit": 2}


def reference_criteria_02_04(fx):
    """Criteria 02 and 04 from runs of their own, not the fixture orbits':
    r_40 stepped alone, and `stopping_time` on k = 1..30 for each map.
    Returns criterion 02's worst step error and criterion 04's ok, margin."""
    e1 = geo.basis_boundary_point(1)
    auto = cat.hyperbolic_selfmap(e1, 3.0)
    cleared, _ = fx.cleared_blaschke
    worst = 0.0
    for f in (auto, cleared):
        r = orb.radial_anchor(e1, 3.0, 40)
        fr = cat.step_point(f, r)
        worst = max(worst, abs(geo.kob_dist(r, fr) - acceptance.LOG3))
    ks = range(1, 31)
    anchors = orb.radial_anchors(e1, 3.0, ks)
    n_a = [rec.n for rec in orb.stopping_time(auto, anchors, e1, k=ks)]
    n_b = [rec.n for rec in orb.stopping_time(cleared, anchors, e1, k=ks)]
    ok = all(n == k + 1 for n, k in zip(n_a, ks)) \
        and all(n > k for n, k in zip(n_b, ks))
    return worst, ok, float(min(n - k for n, k in zip(n_b, ks)))


def test_pass_runs_each_anchor_set_once(monkeypatch):
    # criteria 02 and 04 read the anchor runs of the two fixture orbits
    # (criterion 08 takes the automorphism's), so a pass runs
    # `stopping_time` once per orbit, and the two lines are unchanged
    calls = count_calls(monkeypatch, (orb, "stopping_time"))
    lines = acceptance.run_criteria(12345)
    assert all(line.passed for line in lines)
    assert calls["stopping_time"] == 2
    worst, ok, margin = reference_criteria_02_04(acceptance.PassFixtures())
    assert lines[1].passed == (worst < 1e-3)
    assert np.float64(lines[1].margin).tobytes() == np.float64(
        1e-3 - worst).tobytes()
    assert (lines[3].passed, lines[3].margin) == (ok, margin)


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
