"""Golden outputs: `orbit` CSV plus summary line, and `compare` reports,
byte for byte.

Each orbit case runs `ballorbits orbit SPEC --zeta ZETA` with default options
and compares stdout with `golden/orbit_<name>.txt`.  The cases cover every
map kind a spec can name: inline Blaschke, an off-axis q = 2 hyperbolic, and
INI compose, iterate, warped product and a hyperbolic conjugate; two more
INI maps step a centre-0 automorphism by its rotation form (a hyperbolic
conjugated by a unitary) and a parabolic stage (a hyperbolic composed with
a parabolic).  Each
compare case runs `ballorbits compare` and checks its exit code and its
stdout against `golden/compare_<name>.txt`; these pin the preimage march's
output, and `golden/compare_csv.txt` pins `compare` on two orbit CSVs, the
CSV reader's path.  Each cluster case runs `ballorbits orbit ... --mode
cluster` and checks its exit code and its stdout against
`golden/cluster_<name>.txt`: the Blaschke, warped and conjugate maps
cluster their anchor chains, and so does the turned Blaschke map, whose
complex zero and rotation step by the same closed form at zeta = e^{0.7i}
as the real zeros do at +1.  Every chain these sources build, and the
preimage march's, the CSV reader's and that of a conjugate whose outer
parts fix no reference they meet, is one `PointBatch` held against zeta,
with the coordinates its source gave (`test_chains_are_held_batches`).
The `suite` report golden is checked in test_acceptance.py.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from ballorbits import catalog as cat
from ballorbits import cli
from ballorbits import geometry as geo
from ballorbits import orbits

from conftest import offaxis_conjugate

GOLDEN = Path(__file__).parent / "golden"
# the first column of the unitary conjugator in conjugate_unitary.ini
UNITARY_ZETA = ("-0.5286861817679318,0.7489569365395885;"
                "-0.16373639135257528,-0.3643416289195023")

ORBIT_CASES = {
    "blaschke": ("blaschke:a=1/3", "1"),
    "hyperbolic_offaxis": ("hyperbolic:lam=3,zeta=0.6,0;0,0.8", "0.6,0;0,0.8"),
    "compose": (str(GOLDEN / "compose.ini"), "1"),
    "iterate": (str(GOLDEN / "iterate.ini"), "1"),
    "warped": (str(GOLDEN / "warped.ini"), "1,0;0,0"),
    "conjugate": (str(GOLDEN / "conjugate.ini"), "1"),
    # a hyperbolic conjugated by a unitary, whose plan moves the reference
    # by 1.1e-16: the stopping grid holds its images on zeta's reference
    "conjugate_unitary": (str(GOLDEN / "conjugate_unitary.ini"),
                          UNITARY_ZETA),
    "compose_parabolic": (str(GOLDEN / "compose_parabolic.ini"), "1,0;0,0"),
}


@pytest.mark.parametrize("name", ORBIT_CASES)
def test_orbit_golden(name, capsys):
    spec, zeta = ORBIT_CASES[name]
    code = cli.main(["orbit", spec, f"--zeta={zeta}"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"orbit_{name}.txt").read_text()


COMPARE_CASES = {
    "blaschke": ["blaschke:a=1/3", "--zeta=1", "--offset", "0.05"],
    "conjugate": [str(GOLDEN / "conjugate.ini"), "--zeta=1"],
    "warped": [str(GOLDEN / "warped.ini"), "--zeta=1,0;0,0"],
    "hyperbolic_offaxis": ["hyperbolic:lam=3,zeta=0.6,0;0,0.8",
                           "--zeta=0.6,0;0,0.8", "--offset", "0.05"],
    "conjugate_unitary": [str(GOLDEN / "conjugate_unitary.ini"),
                          f"--zeta={UNITARY_ZETA}"],
    "compose_parabolic": [str(GOLDEN / "compose_parabolic.ini"),
                          "--zeta=1,0;0,0"],
}


@pytest.mark.parametrize("name", COMPARE_CASES)
def test_compare_golden(name, capsys):
    code = cli.main(["compare", *COMPARE_CASES[name]])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"compare_{name}.txt").read_text()


def test_compare_csv_golden(tmp_path, capsys):
    """`compare --csv-a --csv-b` on two Blaschke orbit CSVs, 15 and 12
    anchors deep: the CSV reader's path, byte for byte."""
    paths = []
    for kmax in (15, 12):
        path = tmp_path / f"k{kmax}.csv"
        assert cli.main(["orbit", "blaschke:a=1/3", "--zeta", "1",
                         "--lambda", "3", "--kmax", str(kmax),
                         "--out", str(path)]) == 0
        paths.append(str(path))
    capsys.readouterr()
    code = cli.main(["compare", "--csv-a", paths[0], "--csv-b", paths[1],
                     "--zeta", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "compare_csv.txt").read_text()


CLUSTER_CASES = {
    "blaschke": ["blaschke:a=1/3", "--zeta=1"],
    "warped": [str(GOLDEN / "warped.ini"), "--zeta=1,0;0,0"],
    "conjugate": [str(GOLDEN / "conjugate.ini"), "--zeta=1"],
    "conjugate_unitary": [str(GOLDEN / "conjugate_unitary.ini"),
                          f"--zeta={UNITARY_ZETA}"],
    # the golden Blaschke map turned by e^{0.7i}: a complex zero and
    # theta != 0, planned at zeta
    "blaschke_turned": [
        "blaschke:factors=0,0;0.25494739576149617,0.21473922907923032,"
        "theta=-0.7", "--zeta=0.7648421872844885,0.644217687237691",
        "--kmax", "20"],
}


@pytest.mark.parametrize("name", CLUSTER_CASES)
def test_cluster_golden(name, capsys):
    code = cli.main(["orbit", *CLUSTER_CASES[name], "--mode", "cluster"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"cluster_{name}.txt").read_text()


DILATION_CASES = {
    "blaschke": (["blaschke:a=1/3", "--zeta", "1"], 0),
    "conjugate": ([str(GOLDEN / "conjugate.ini"), "--zeta", "1"], 0),
    "hyperbolic_offaxis": (["hyperbolic:lam=3,zeta=0.6,0;0,0.8",
                            "--zeta=0.6,0;0,0.8"], 0),
}


@pytest.mark.parametrize("name", DILATION_CASES)
def test_dilation_golden(name, capsys):
    argv, exit_code = DILATION_CASES[name]
    code = cli.main(["dilation", *argv])
    out = capsys.readouterr().out
    assert code == exit_code
    assert out == (GOLDEN / f"dilation_{name}.txt").read_text()


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


def _cli_chain(argv):
    return cli._construct(cli.build_parser().parse_args(argv))[-1].orbit


def _offaxis_conjugate_chain():
    return orbits.construct_backward_orbit(
        offaxis_conjugate(), geo.basis_boundary_point(1), 3.0,
        orbits.OrbitParams(k_max=6, dist_target=1e-2)).orbit


def _march_chain():
    e1 = geo.basis_boundary_point(1)
    cleared, _ = cat.ensure_pole_clearance(
        cat.blaschke_product([0.0, 1.0 / 3.0]), e1)
    res = orbits.construct_backward_orbit(cleared, e1, 3.0)
    return orbits.offset_preimage_orbit(cleared, res.orbit, 3.0, 0.05).orbit


def _csv_chain(tmp_path):
    path = tmp_path / "orbit.csv"
    assert cli.main(["orbit", "blaschke:a=1/3", "--zeta", "1", "--lambda",
                     "3", "--kmax", "15", "--out", str(path)]) == 0
    return cli.read_orbit_csv(str(path), geo.basis_boundary_point(1))


CHAIN_SOURCES = {
    **{f"orbit_{name}": (lambda _, spec=spec, zeta=zeta: _cli_chain(
        ["orbit", spec, f"--zeta={zeta}"]))
       for name, (spec, zeta) in ORBIT_CASES.items()},
    "cluster_blaschke_turned": lambda _: _cli_chain(
        ["orbit", *CLUSTER_CASES["blaschke_turned"], "--mode", "cluster"]),
    "offaxis_conjugate": lambda _: _offaxis_conjugate_chain(),
    "criterion_06_march": lambda _: _march_chain(),
    "read_orbit_csv": _csv_chain,
}
# sha256 of each source's chain coordinates, the first 16 hex digits: the
# bytes of the points each source built when a chain could also be a tuple
CHAIN_COORDS = {
    "orbit_blaschke": "55d874e39085ff41",
    "orbit_hyperbolic_offaxis": "e92bb36e9cdae32d",
    "orbit_compose": "eb1b1233d37cc97c",
    "orbit_iterate": "64755b2f3e30448b",
    "orbit_warped": "dcbc8ca217a48fda",
    "orbit_conjugate": "b2bb95ba125a9b97",
    "orbit_conjugate_unitary": "63489ffbf9eb08e4",
    "orbit_compose_parabolic": "90ddb8635e9e8d51",
    "cluster_blaschke_turned": "d8b51b443521d3dd",
    "offaxis_conjugate": "ba347b2ff7472670",
    "criterion_06_march": "50a6d2c7567f1a5d",
    "read_orbit_csv": "3c12692259ffc3fd",
}


@pytest.mark.parametrize("name", CHAIN_SOURCES)
def test_chains_are_held_batches(name, tmp_path, capsys):
    """Every chain is one `PointBatch` held against its zeta, with the
    coordinates its source gives its points, as bytes."""
    seg = CHAIN_SOURCES[name](tmp_path)
    capsys.readouterr()
    assert isinstance(seg.points, geo.PointBatch)
    assert seg.points.ref.tobytes() == seg.zeta.coords.tobytes()
    assert _digest(seg.points) == CHAIN_COORDS[name]


def _digest(points):
    return hashlib.sha256(points.coords.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("name", [*ORBIT_CASES, "rotation"])
def test_one_grid_per_run(name, monkeypatch):
    """Every record of a stopping-time run shares one `PointBatch` grid
    whose reference is zeta's bytes, also where a plan moves the reference:
    the unitary conjugate's by 1.1e-16, a rotation's off zeta.  The chain
    `orbit` harvests from it keeps its `CHAIN_COORDS` digest."""
    runs, stopping_time = [], orbits.stopping_time

    def recorded(f, anchors, zeta, *args, **kwargs):
        runs.append((zeta, stopping_time(f, anchors, zeta, *args, **kwargs)))
        return runs[-1][1]
    monkeypatch.setattr(orbits, "stopping_time", recorded)
    if name == "rotation":
        e1, ks = geo.basis_boundary_point(1), range(1, 11)
        rotation = cat.catalog_build("unitary",
                                     matrix=np.array([[0.8 + 0.6j]]))
        orbits.stopping_time(rotation, orbits.radial_anchors(e1, 3.0, ks), e1,
                             k=ks)
    else:
        spec, zeta = ORBIT_CASES[name]
        assert _digest(_cli_chain(["orbit", spec, f"--zeta={zeta}"])
                       .points) == CHAIN_COORDS[f"orbit_{name}"]
    assert runs
    for zeta, recs in runs:
        assert all(rec.grid is recs[0].grid for rec in recs)
        assert recs[0].grid.ref.tobytes() == zeta.coords.tobytes()


def test_turned_orbit_is_the_golden_orbit_turned(capsys):
    """The turned Blaschke map is the golden one conjugated by the rotation
    e^{0.7i}, so at default options its orbit has the golden orbit's 42
    points, each with its delta and margin within 1e-13 relative, and a
    sigma_hat of log 3."""
    turned = CLUSTER_CASES["blaschke_turned"][:2]
    assert cli.main(["orbit", *turned]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert f"length=42 sigma_hat={np.log(3.0):.15g} " in summary
    spec, zeta = ORBIT_CASES["blaschke"]
    want = _cli_chain(["orbit", spec, f"--zeta={zeta}"]).points
    got = _cli_chain(["orbit", *turned]).points
    assert len(got) == len(want) == 42
    for name in ("delta", "margin"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), name


def test_held_batch_takes_zetas_reference():
    """The unitary conjugate's plan moves the reference by 1.1e-16.  Its
    first step's images held as a batch come back on zeta's reference with
    their defect, and with the coordinates the same points held as a list
    get: the two are at distance exactly 0 (3.4e-7 on the moved reference)."""
    spec, zeta_text = ORBIT_CASES["conjugate_unitary"]
    f = cli.parse_mapspec(spec)
    zeta = geo.boundary_point(cli.parse_point(zeta_text), q=f.q)
    lam = cat.estimate_dilation(f, zeta).lam_hat
    f, _ = cat.ensure_pole_clearance(f, zeta, lam)
    images = f._plan(zeta.coords).step(
        orbits.radial_anchors(zeta, lam, range(1, 41)))
    assert 0.0 < np.linalg.norm(images.ref - zeta.coords) <= 1e-12
    batch, listed = geo.held(images, zeta), geo.held(list(images), zeta)
    assert batch.ref.tobytes() == zeta.coords.tobytes()
    assert np.all(geo.kob_dist(batch, listed) == 0.0)
    for name in ("delta", "tail", "margin"):
        assert (getattr(batch, name).tobytes()
                == getattr(listed, name).tobytes()
                == getattr(images, name).tobytes())
    assert batch.coords.tobytes() == listed.coords.tobytes()
    assert geo.held(batch, zeta) is batch
