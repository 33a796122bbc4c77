"""Command-line interface: parsing, outputs, exit codes, determinism."""

import argparse
from pathlib import Path

import numpy as np
import pytest

from ballorbits import analysis as ana
from ballorbits import catalog as cat
from ballorbits import cli
from ballorbits import geometry as geo
from ballorbits.errors import ConfigError

from conftest import count_calls

GOLDEN = Path(__file__).parent / "golden"


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
    assert cat.estimate_dilation(
        f, geo.basis_boundary_point(1)).lam_hat == pytest.approx(3.0)
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


UNREADABLE_INI = {
    "no-section-header": "kind = blaschke\nfactors = 0 1/3\n",
    "duplicate-section": "[map]\nkind = blaschke\n\n[map]\nkind = mobius\n",
    "duplicate-option": "[map]\nkind = blaschke\nkind = mobius\n",
    "percent": "[map]\nkind = blaschke\nfactors = 0 1/3%\n",
}


@pytest.mark.parametrize("text", UNREADABLE_INI.values(), ids=UNREADABLE_INI)
@pytest.mark.parametrize("role", ["map", "premodel"])
def test_unreadable_ini_exit_2(text, role, tmp_path, capsys):
    """A map spec or premodel file that configparser refuses, when it reads
    the file or a value, is an input error naming the file."""
    path = tmp_path / "bad.ini"
    path.write_text(text.replace("[map]", f"[{role}]"))
    argv = (("dilation", str(path)) if role == "map" else
            ("validate-premodel", "hyperbolic:lam=3,zeta=1", str(path)))
    code, out, err = run(capsys, *argv, "--zeta", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(str(path)) in err


def test_inline_spec_refuses_a_repeated_key(capsys):
    # as the INI form refuses a repeated option, not the last value winning
    with pytest.raises(ConfigError, match="repeats key 'lam'"):
        cli.parse_mapspec("hyperbolic:lam=3,lam=5,zeta=1")
    code, out, err = run(capsys, "dilation", "hyperbolic:lam=3,lam=5",
                         "--zeta", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'lam'" in err


@pytest.mark.parametrize("argv, env, source", [
    (("--seed", "-5"), None, "--seed"),
    ((), "abc", "BALLORBITS_SEED"),
    ((), "-1", "BALLORBITS_SEED"),
    ((), "2.5", "BALLORBITS_SEED"),
], ids=["flag-negative", "env-text", "env-negative", "env-float"])
def test_bad_seed_exit_2(argv, env, source, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("BALLORBITS_SEED", raising=False)
    else:
        monkeypatch.setenv("BALLORBITS_SEED", env)
    code, out, err = run(capsys, *argv, "suite")
    assert code == 2 and out == ""
    assert err.startswith("error:") and source in err


def test_seed_sources(monkeypatch):
    monkeypatch.setenv("BALLORBITS_SEED", "7")
    assert cli._seed(argparse.Namespace(seed=0)) == 0
    assert cli._seed(argparse.Namespace(seed=None)) == 7
    monkeypatch.setenv("BALLORBITS_SEED", "")
    assert cli._seed(argparse.Namespace(seed=None)) == 12345
    monkeypatch.delenv("BALLORBITS_SEED")
    assert cli._seed(argparse.Namespace(seed=None)) == 12345


@pytest.mark.parametrize("argv", [
    ("orbit", "blaschke:a=1/3", "--zeta=1", "--lambda", "3.1",
     "--eps-sigma", "nan"),
    ("compare", "blaschke:a=1/3", "--zeta=1", "--eps-plateau", "nan"),
    ("compare", "blaschke:a=1/3", "--zeta=1", "--eps-plateau", "-1"),
], ids=["orbit-eps-sigma-nan", "compare-eps-plateau-nan",
        "compare-eps-plateau-negative"])
def test_tolerance_not_positive_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "positive" in err


@pytest.mark.parametrize("premodel, argv", [
    ("base_dim = 1\nell = embed_first\n", ("--lambda", "nan")),
    ("base_dim = 1\nell = embed_first\n", ("--lambda", "1")),
    ("base_dim = 3\nell = identity\n", ()),
    ("base_dim = 0\nell = embed_first\n", ()),
], ids=["lambda-nan", "lambda-1", "identity-base_dim-3",
        "embed_first-base_dim-0"])
def test_validate_premodel_refusal_exit_2(tmp_path, capsys, premodel, argv):
    pm = tmp_path / "pm.ini"
    pm.write_text("[premodel]\n" + premodel + "repelling = 1\nlam = 3\n")
    code, out, err = run(capsys, "validate-premodel", "hyperbolic:lam=3,zeta=1",
                         str(pm), "--zeta", "1", *argv)
    assert code == 2
    assert err.startswith("error:") and out == ""


def test_main_builds_the_parser_once(monkeypatch, capsys):
    """However many calls `main` takes, the parser is built by the first."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for _ in range(5):
        code, out, _ = run(capsys, "geometry", "dist", "0", "0.5")
        assert code == 0 and out == "1.09861228866811\n"
    assert built.count("ballorbits") == 1
    assert cli.build_parser() is cli.build_parser()


SHORT_ORBIT = ("orbit", "blaschke:a=1/3", "--zeta", "1", "--lambda", "3",
               "--kmax", "12")


def fresh(capsys, *argv):
    """A call on a parser built for it alone."""
    cli.build_parser.cache_clear()
    return run(capsys, *argv)


@pytest.mark.parametrize("before, before_code", [
    (SHORT_ORBIT + ("--mode", "cluster"), 0),
    (SHORT_ORBIT + ("--out", "OUT"), 0),
    (SHORT_ORBIT + ("--mode", "wibble"), 2),
    (("orbit", "--kmax", "12"), 2),
])
def test_parser_keeps_no_state_between_calls(before, before_code, tmp_path,
                                             capsys):
    """A call after another on the same parser gives what a fresh call
    gives: the default mode after cluster, stdout after --out, a good call
    after an argv error."""
    expected = fresh(capsys, *SHORT_ORBIT)
    assert expected[0] == 0 and expected[1].startswith("j,re_z1")
    argv = [str(tmp_path / "out.csv") if a == "OUT" else a for a in before]
    assert fresh(capsys, *argv)[0] == before_code
    assert run(capsys, *SHORT_ORBIT) == expected


@pytest.mark.parametrize("argv", [["--help"], ["orbit", "--help"]])
def test_help_exits_0(argv, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: ballorbits")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_geometry_dist(capsys):
    code, out, _ = run(capsys, "geometry", "dist", "0,0", "0.5,0")
    assert code == 0
    assert out.strip() == "1.09861228866811"


def test_geometry_dist_of_a_far_pair(capsys):
    # the involution's far branch: no divide-by-zero warning on stderr
    code, out, err = run(capsys, "geometry", "dist", "0.9999999999999",
                         "-0.9999999999999")
    assert (code, out, err) == (0, "61.2528849852572\n", "")


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


def test_geometry_dist_needs_two_points_exit_2(capsys):
    code, out, err = run(capsys, "geometry", "dist", "0.1,0")
    assert code == 2
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("query", ["horo", "horosphere", "koranyi", "tube"])
def test_geometry_one_point_query_refuses_two_exit_2(capsys, query):
    code, out, err = run(capsys, "geometry", query, "0.5", "0.7")
    assert code == 2 and out == ""
    assert err == f"error: geometry {query} needs one point\n"


@pytest.mark.parametrize("argv", [
    ["geometry", "horo", "0.5", "--zeta", "nan"],
    ["geometry", "tube", "0.5", "--zeta", "1,nan"],
    ["dilation", "blaschke:a=1/3", "--zeta", "nan"],
    ["orbit", "blaschke:a=1/3", "--zeta", "nan"],
])
def test_nan_boundary_point_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: |zeta| = nan is not on the unit sphere")


def test_dilation_blaschke(capsys):
    code, out, _ = run(capsys, "dilation", "blaschke:a=1/3", "--zeta", "1")
    assert code == 0
    lam = float(out.splitlines()[0].split("=")[1])
    assert lam == pytest.approx(3.0, abs=1e-4)


def test_dilation_of_a_q2_map(capsys):
    # the q = 2 K-limit test is relative to the probes' own approach
    code, out, _ = run(capsys, "dilation", str(GOLDEN / "warped.ini"),
                       "--zeta", "1,0;0,0")
    assert code == 0
    assert out.splitlines()[0] == "lambda_hat=2.5"


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


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_orbit_unwritable_output_exit_2(tmp_path, capsys, flag):
    path = tmp_path / "no_such_dir" / "orbit.out"
    code, _, err = run(capsys, "orbit", "blaschke:a=1/3", "--zeta", "1",
                       "--kmax", "10", flag, str(path))
    assert code == 2
    assert err.startswith("error:") and "no_such_dir" in err


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


@pytest.mark.parametrize("option", [("--kmax", "400"), ("--lambda", "1e9")])
def test_orbit_anchor_beyond_double_range_exit_2(capsys, option):
    # the anchors' margin denominator (lam^k + 1)^2 overflows from
    # k log(lam) = 354.89 on: an input error, not a traceback
    code, out, err = run(capsys, "orbit", "blaschke:a=1/3", "--zeta", "1",
                         *option)
    assert code == 2
    assert "double precision" in err and out == ""


# the off-axis conjugate of `conftest.offaxis_conjugate` as an INI spec: no
# part of it but the inner map's stage fixes a reference the chain meets
OFFAXIS_CONJUGATE = """[map]
kind = conjugate

[map.inner]
kind = ball_automorphism
subtype = hyperbolic
zeta = 0.8,0.6
lam = 3

[map.conjugator]
kind = ball_automorphism
subtype = hyperbolic
zeta = 0,1
lam = 2
"""


@pytest.fixture()
def offaxis_ini(tmp_path):
    path = tmp_path / "offaxis_conjugate.ini"
    path.write_text(OFFAXIS_CONJUGATE)
    return str(path)


def test_offaxis_conjugate_orbit_is_exact_at_depth(offaxis_ini, capsys):
    # the automorphisms' closed form steps the chain at the default --kmax
    code, out, _ = run(capsys, "orbit", offaxis_ini, "--zeta", "1")
    assert code == 0
    summary = out.splitlines()[-1]
    assert summary.startswith("mode=single-tail length=42 "
                              f"sigma_hat={np.log(3.0):.15g} ")


def test_offaxis_conjugate_compare(offaxis_ini, capsys):
    code, out, _ = run(capsys, "compare", offaxis_ini, "--zeta", "1")
    assert code == 0
    assert out.startswith("window=42 ")


def test_offaxis_conjugate_dilation(offaxis_ini, capsys):
    code, out, _ = run(capsys, "dilation", offaxis_ini, "--zeta", "1")
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert abs(float(values["extrapolated"]) - 3.0) <= 1e-13


@pytest.mark.parametrize("argv", [
    ["orbit"], ["compare"], ["orbit", "--mode", "cluster"],
    ["orbit", "--lambda", "2.5"]])
def test_zeta_sent_into_the_ball_exit_2(argv, capsys):
    # the warped map plans only on its invariant circle |z_1| = 1, z' = 0,
    # and sends zeta = (0.6, 0.8) into the ball
    code, out, err = run(capsys, argv[0], str(GOLDEN / "warped.ini"),
                         "--zeta", "0.6,0;0.8,0", *argv[1:])
    assert code == 2 and out == ""
    assert err == ("error: the map sends zeta = [0.6+0.j 0.8+0.j] to norm "
                   "0.484128, into the ball, and has no plan there\n")


def test_dilation_of_zeta_sent_into_the_ball_exit_1(capsys):
    code, out, _ = run(capsys, "dilation", str(GOLDEN / "warped.ini"),
                       "--zeta", "0.6,0;0.8,0")
    assert code == 1
    assert out == "zeta=0.6,0;0.8,0 is not a K-limit fixed point\n"


def test_compare_off_axis_automorphism(capsys):
    # an automorphism is an isometry, so the offset orbit keeps its offset
    code, out, _ = run(capsys, "compare", "hyperbolic:lam=3,zeta=0.6,0;0,0.8",
                       "--zeta=0.6,0;0,0.8", "--offset", "0.05")
    assert code == 0
    direct_max = float(out.split("direct_max=")[1].split()[0])
    assert abs(direct_max - 0.05) <= 1e-6


def test_compare_missing_csv_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "none.csv")
    code, out, err = run(capsys, "compare", "--csv-a", missing,
                         "--csv-b", missing, "--zeta", "1")
    assert code == 2
    assert err.startswith("error:") and "none.csv" in err and out == ""


def test_compare_refuses_a_map_with_csvs(tmp_path, capsys):
    # the CSV comparison would neither parse the map nor march at --offset
    path = tmp_path / "a.csv"
    assert run(capsys, "orbit", "blaschke:a=1/3", "--zeta", "1", "--kmax",
               "12", "--out", str(path))[0] == 0
    for spec in ("no-such-map:x=1", "blaschke:a=1/3"):
        code, out, err = run(capsys, "compare", spec, "--zeta=1", "--offset",
                             "0.3", "--csv-a", str(path), "--csv-b",
                             str(path))
        assert code == 2 and out == ""
        assert err == ("error: compare takes a map spec or two CSVs, not "
                       "both\n")


@pytest.mark.parametrize("options, named", [
    (["--offset", "0.3", "--lambda", "7"], "--lambda, --offset"),
    (["--kmin=2", "--kmax=12", "--nmax=50"], "--kmin, --kmax, --nmax"),
    (["--eps-sigma", "0.1", "--mode", "cluster"], "--eps-sigma, --mode"),
], ids=["offset_lambda", "anchors", "sigma_mode"])
def test_compare_refuses_map_options_with_csvs(options, named, tmp_path,
                                               capsys):
    """The CSV comparison builds no orbit and marches no offset, so an
    option only the map path reads is an input error naming it, not an
    option silently ignored."""
    path = tmp_path / "a.csv"
    assert run(capsys, "orbit", "blaschke:a=1/3", "--zeta", "1", "--kmax",
               "12", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "compare", "--zeta=1", *options, "--csv-a",
                         str(path), "--csv-b", str(path))
    assert code == 2 and out == ""
    assert err == f"error: the CSV comparison does not read {named}\n"


_Q2_CSV = ("j,re_z1,re_z2,im_z1,im_z2,horofunction,step_to_next,"
           "dist_to_zeta\n"
           + "".join(f"{j},{0.3 + 0.1 * j},0,0,0.4,0,0,0\n" for j in range(5)))


@pytest.mark.parametrize("text, message", [
    ("", "is empty"),
    ("j,re_z1,im_z1,horofunction,step_to_next,dist_to_zeta\n"
     "0,0.5,abc,0,0,0\n", "cannot read row '0,0.5,abc,0,0,0'"),
    (_Q2_CSV, "dimensions 2 != 1"),
], ids=["empty", "non_numeric", "dimension"])
def test_compare_refuses_a_bad_csv(text, message, tmp_path, capsys):
    # an input error (exit 2), not a traceback or a warning
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, out, err = run(capsys, "compare", "--csv-a", str(path),
                         "--csv-b", str(path), "--zeta", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_compare_refuses_a_csv_whose_j_skips(tmp_path, capsys):
    """A row whose j is not the previous j + 1 is an input error that names
    the row; rows that all start at a larger j still load."""
    path = tmp_path / "a.csv"
    assert run(capsys, "orbit", "blaschke:a=1/3", "--zeta", "1", "--kmax",
               "12", "--out", str(path))[0] == 0
    header, *rows = path.read_text().splitlines()
    gapped, shifted = tmp_path / "gapped.csv", tmp_path / "shifted.csv"
    gapped.write_text("\n".join([header] + rows[::2]) + "\n")
    shifted.write_text("\n".join([header] + rows[1:]) + "\n")
    code, out, err = run(capsys, "compare", "--csv-a", str(path),
                         "--csv-b", str(gapped), "--zeta", "1")
    assert code == 2 and out == ""
    assert err == (f"error: orbit CSV {str(gapped)!r}: row {rows[2]!r} has "
                   "j = 2, not 1\n")
    assert cli.read_orbit_csv(str(shifted),
                              geo.basis_boundary_point(1)).base_index == 1


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


def test_compare_profiles_once(monkeypatch, capsys):
    # the shift recovery reads the profile that compare measured
    calls = count_calls(monkeypatch, (ana, "orbit_distance_profile"),
                        (ana, "shift_recovery"))
    code, out, _ = run(capsys, "compare", "blaschke:a=1/3", "--zeta=1",
                       "--kmax", "12")
    assert code == 0 and "alpha=" in out
    assert calls == {"orbit_distance_profile": 1, "shift_recovery": 1}


@pytest.mark.parametrize("argv, estimates", [
    (["blaschke:a=1/3", "--zeta=1"], 2),
    (["blaschke:a=1/3", "--zeta=1", "--lambda", "3"], 2),
    (["hyperbolic:lam=3", "--zeta=1", "--lambda", "3"], 0),
    (["hyperbolic:lam=3", "--zeta=1"], 1),
])
def test_orbit_estimates_each_dilation_once(argv, estimates, monkeypatch,
                                            capsys):
    """`orbit` estimates f's dilation once, for lambda and for the pole
    clearance's check, and the cleared map's once; a given --lambda on a
    map that needs no clearance estimates nothing."""
    calls = count_calls(monkeypatch, (cat, "estimate_dilation"))
    code, _, _ = run(capsys, "orbit", *argv, "--kmax", "12")
    assert code == 0
    assert calls["estimate_dilation"] == estimates
