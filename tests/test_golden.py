"""Golden outputs: `orbit` CSV plus summary line, byte for byte.

Each case runs `ballorbits orbit SPEC --zeta ZETA` with default options and
compares stdout with `golden/orbit_<name>.txt`.  The cases cover every map
kind a spec can name: inline Blaschke, an off-axis q = 2 hyperbolic, and
INI compose, iterate, warped product and a hyperbolic conjugate.  The
`suite` report golden is checked in test_acceptance.py.
"""

from pathlib import Path

import pytest

from ballorbits import cli
from ballorbits import geometry as geo
from ballorbits import orbits

GOLDEN = Path(__file__).parent / "golden"

ORBIT_CASES = {
    "blaschke": ("blaschke:a=1/3", "1"),
    "hyperbolic_offaxis": ("hyperbolic:lam=3,zeta=0.6,0;0,0.8", "0.6,0;0,0.8"),
    "compose": (str(GOLDEN / "compose.ini"), "1"),
    "iterate": (str(GOLDEN / "iterate.ini"), "1"),
    "warped": (str(GOLDEN / "warped.ini"), "1,0;0,0"),
    "conjugate": (str(GOLDEN / "conjugate.ini"), "1"),
}


@pytest.mark.parametrize("name", ORBIT_CASES)
def test_orbit_golden(name, capsys):
    spec, zeta = ORBIT_CASES[name]
    code = cli.main(["orbit", spec, f"--zeta={zeta}"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"orbit_{name}.txt").read_text()


@pytest.mark.parametrize("name", ORBIT_CASES)
def test_orbit_steps_equal_per_pair_distances(name, monkeypatch, capsys):
    """Every chain the construction analyses measures its steps with one
    sequence call of kob_dist; each step equals its own pair's call bit
    for bit, and so do its horofunctions and distances to zeta."""
    spec, zeta = ORBIT_CASES[name]
    diagnostics = orbits.orbit_diagnostics
    checked = []

    def check(seg):
        steps, horos, dz = diagnostics(seg)
        pts = seg.points
        assert steps.tolist() == [geo.kob_dist(z, w)
                                  for z, w in zip(pts, pts[1:])]
        assert horos.tolist() == [geo.horofunction(p, seg.zeta) for p in pts]
        assert dz.tolist() == [geo.dist_to_zeta(p, seg.zeta) for p in pts]
        checked.append(len(pts))
        return steps, horos, dz

    monkeypatch.setattr(orbits, "orbit_diagnostics", check)
    assert cli.main(["orbit", spec, f"--zeta={zeta}"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    printed = int(summary.split("length=")[1].split()[0])
    assert printed in checked
