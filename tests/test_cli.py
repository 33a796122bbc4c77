"""Command-line interface: parsing, outputs, exit codes, determinism."""

import numpy as np
import pytest

from ballorbits import cli
from ballorbits.errors import ConfigError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

def test_parse_complex():
    assert cli.parse_complex("0.5,0") == 0.5
    assert cli.parse_complex("1/3,-1/2") == complex(1 / 3, -1 / 2)
    assert cli.parse_complex("2") == 2.0
    with pytest.raises(ConfigError):
        cli.parse_complex("1,2,3")


def test_parse_point():
    p = cli.parse_point("0.5,0;0,0.25")
    assert p.shape == (2,)
    assert p[1] == 0.25j


def test_inline_mapspec():
    f = cli.parse_mapspec("blaschke:a=1/3")
    assert f.kind == "blaschke"
    assert f.boundary_fixed[0][1] == pytest.approx(3.0)
    g = cli.parse_mapspec("hyperbolic:lam=3,zeta=1")
    assert g.q == 1
    with pytest.raises(ConfigError):
        cli.parse_mapspec("wibble:x=1")
    # complex values keep their re,im comma inside an item list
    m = cli.parse_mapspec("mobius:a=0.3,-0.2,theta=0.5")
    assert m.params[0][0] == pytest.approx(0.3 - 0.2j)
    bl = cli.parse_mapspec("blaschke:factors=0,0;0.5,0")
    assert bl.params[0] == (0.0, 0.5)


def test_specfile_warped(tmp_path):
    spec = tmp_path / "warped.map"
    spec.write_text(
        "[map]\n"
        "kind = warped_product\n"
        "q = 2\n"
        "c = 0.5,0\n"
        "\n"
        "[map.phi]\n"
        "kind = ball_automorphism\n"
        "subtype = hyperbolic\n"
        "zeta = 1\n"
        "lam = 3\n")
    f = cli.parse_mapspec(str(spec))
    assert f.kind == "warped_product"
    assert f.q == 2
    z = np.array([0.2 + 0j, 0.1j])
    out = cli.cat.evaluate(f, z)
    assert out[1] == pytest.approx(0.05j)


def test_specfile_conjugate(tmp_path):
    spec = tmp_path / "conj.map"
    spec.write_text(
        "[map]\n"
        "kind = conjugate\n"
        "\n"
        "[map.inner]\n"
        "kind = blaschke\n"
        "factors = 0,0 0.3333333333333333,0\n"
        "\n"
        "[map.conjugator]\n"
        "kind = ball_automorphism\n"
        "subtype = hyperbolic\n"
        "zeta = 1\n"
        "lam = 1.2214027581601699\n")
    f = cli.parse_mapspec(str(spec))
    assert f.kind == "conjugate"


def test_specfile_unitary_conjugator(tmp_path, capsys):
    # the rotation z -> e^{it} z moves the fixed point 1 of b(z) =
    # z (z - 1/3)/(1 - z/3) to e^{it} and keeps its dilation 3
    rot = f"{float(np.cos(0.5))!r},{float(np.sin(0.5))!r}"
    spec = tmp_path / "conj_unitary.map"
    spec.write_text(
        "[map]\nkind = conjugate\n\n"
        "[map.inner]\nkind = blaschke\nfactors = 0,0 0.3333333333333333,0\n\n"
        "[map.conjugator]\nkind = ball_automorphism\nsubtype = unitary\n"
        f"matrix = {rot}\n")
    code, out, _ = run(capsys, "orbit", str(spec), f"--zeta={rot}")
    assert code == 0
    sigma = float(out.split("sigma_hat=")[1].split()[0])
    assert abs(sigma - np.log(3.0)) <= 2e-3


@pytest.mark.parametrize("spec, where", [
    ("[map]\nkind = iterate\npower = two\n\n[map.base]\nkind = mobius\n",
     "[map]"),
    ("[map]\nkind = ball_automorphism\nsubtype = unitary\n"
     "matrix = 1,0 0,0\n  0,0\n", "[map]"),
], ids=["int", "ragged-matrix"])
def test_malformed_spec_value_exit_2(tmp_path, capsys, spec, where):
    path = tmp_path / "bad.map"
    path.write_text(spec)
    code, _, err = run(capsys, "dilation", str(path), "--zeta", "1")
    assert code == 2
    assert where in err


@pytest.mark.parametrize("spec, key, where", [
    ("hyperbolic:zeta=1", "lam", "[map]"),
    ("blaschke:theta=0", "factors", "[map]"),
    ("[map]\nkind = iterate\n\n[map.base]\nkind = blaschke\n"
     "factors = 0,0 0.5,0\n", "power", "[map]"),
    ("[map]\nkind = compose\n\n[map.outer]\nkind = mobius\n\n"
     "[map.inner]\nkind = ball_automorphism\nzeta = 1\n", "lam",
     "[map.inner]"),
], ids=["inline-hyperbolic", "inline-blaschke", "ini-iterate", "ini-child"])
def test_missing_spec_key_exit_2(tmp_path, capsys, spec, key, where):
    if spec.startswith("["):
        path = tmp_path / "missing.map"
        path.write_text(spec)
        spec = str(path)
    code, _, err = run(capsys, "dilation", spec, "--zeta", "1")
    assert code == 2
    assert f"'{key}'" in err and where in err


@pytest.mark.parametrize("premodel, key", [
    ("base_dim = 1\nell = embed_first\nrepelling = 1\n", "lam"),
    ("base_dim = one\nell = embed_first\nrepelling = 1\nlam = 3\n",
     "base_dim"),
], ids=["missing-lam", "malformed-base_dim"])
def test_premodel_key_exit_2(tmp_path, capsys, premodel, key):
    pm = tmp_path / "pm.ini"
    pm.write_text("[premodel]\n" + premodel)
    code, _, err = run(capsys, "validate-premodel", "hyperbolic:lam=3,zeta=1",
                       str(pm), "--zeta", "1")
    assert code == 2
    assert f"'{key}'" in err and "[premodel]" in err


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_geometry_dist(capsys):
    code, out, _ = run(capsys, "geometry", "dist", "0,0", "0.5,0")
    assert code == 0
    assert out.strip() == "1.09861228866811"


def test_geometry_horo(capsys):
    code, out, _ = run(capsys, "geometry", "horo", "0.5,0", "--zeta", "1,0")
    assert code == 0
    assert out.strip() == "-1.09861228866811"


def test_geometry_koranyi(capsys):
    code, out, _ = run(capsys, "geometry", "koranyi", "0.3,0",
                       "--zeta", "1,0", "--M", "2")
    assert code == 0
    assert out.startswith("inside margin=")


def test_geometry_bad_input_exit_2(capsys):
    code, _, err = run(capsys, "geometry", "dist", "0,0", "nonsense")
    assert code == 2
    assert "error" in err


def test_dilation_blaschke(capsys):
    code, out, _ = run(capsys, "dilation", "blaschke:a=1/3", "--zeta", "1")
    assert code == 0
    lam = float(out.splitlines()[0].split("=")[1])
    assert lam == pytest.approx(3.0, abs=1e-4)


def test_dilation_out_of_scope_exit_2(capsys):
    code, _, err = run(capsys, "dilation", "parabolic:t=1,zeta=1",
                       "--zeta", "1")
    assert code == 2
    assert "dilation" in err


def test_orbit_csv_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for path in (out_a, out_b):
        code, out, _ = run(capsys, "--seed", "7", "orbit", "blaschke:a=1/3",
                           "--zeta", "1", "--lambda", "3", "--kmax", "15",
                           "--out", str(path))
        assert code == 0
        assert "sigma_hat=" in out
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == "j,re_z1,im_z1,horofunction,step_to_next,dist_to_zeta"


def test_validate_premodel_cli(tmp_path, capsys):
    spec = tmp_path / "wp.map"
    spec.write_text(
        "[map]\nkind = warped_product\nq = 2\nc = 0.5,0\n\n"
        "[map.phi]\nkind = ball_automorphism\nsubtype = hyperbolic\n"
        "zeta = 1\nlam = 3\n")
    pm = tmp_path / "pm.ini"
    pm.write_text(
        "[premodel]\nbase_dim = 1\nell = embed_first\nrepelling = 1\n"
        "lam = 3\n")
    code, out, _ = run(capsys, "validate-premodel", str(spec), str(pm),
                       "--zeta", "1,0;0,0", "--lambda", "3")
    assert code == 0
    assert out.count("PASS") == 4
    pm_bad = tmp_path / "pm_bad.ini"
    pm_bad.write_text(
        "[premodel]\nbase_dim = 1\nell = embed_first\nrepelling = 1\n"
        "lam = 3.3\n")
    code_bad, out_bad, _ = run(capsys, "validate-premodel", str(spec),
                               str(pm_bad), "--zeta", "1,0;0,0",
                               "--lambda", "3")
    assert code_bad == 1
    assert "CHECK base_dilation FAIL" in out_bad


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "dilation", "/no/such/file.map", "--zeta", "1")
    assert code == 2


def test_orbit_svg_emission(tmp_path, capsys):
    svg = tmp_path / "trace.svg"
    code, _, _ = run(capsys, "orbit", "blaschke:a=1/3", "--zeta", "1",
                     "--lambda", "3", "--kmax", "10",
                     "--out", str(tmp_path / "o.csv"), "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "circle" in text


def test_orbit_wrong_lambda_exit_3(capsys):
    # no chain can match a step tail of log(2) for this map
    code, _, err = run(capsys, "orbit", "blaschke:a=1/3", "--zeta", "1",
                       "--lambda", "2", "--kmax", "10")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("nmax", ["0", "-5"])
def test_orbit_nmax_below_one_exit_2(capsys, nmax):
    # an input error, not forty capped anchors and a numerical failure
    code, out, err = run(capsys, "orbit", "blaschke:a=1/3", "--zeta", "1",
                         "--nmax", nmax)
    assert code == 2
    assert "n_max" in err and "capped" not in err and out == ""


def test_compare_off_axis_automorphism(capsys):
    # an automorphism is an isometry, so the offset orbit keeps its offset
    code, out, _ = run(capsys, "compare", "hyperbolic:lam=3,zeta=0.6,0;0,0.8",
                       "--zeta=0.6,0;0,0.8", "--offset", "0.05")
    assert code == 0
    direct_max = float(out.split("direct_max=")[1].split()[0])
    assert abs(direct_max - 0.05) <= 1e-6


def test_compare_from_csv_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path, kmax in ((a, 15), (b, 12)):
        code, _, _ = run(capsys, "orbit", "blaschke:a=1/3", "--zeta", "1",
                         "--lambda", "3", "--kmax", str(kmax),
                         "--out", str(path))
        assert code == 0
    code, out, _ = run(capsys, "compare", "--csv-a", str(a),
                       "--csv-b", str(b), "--zeta", "1")
    assert code == 0
    assert "plateau=True" in out
    assert "alpha=" in out
