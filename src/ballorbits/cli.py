"""Command-line interface.

Exit codes: 0 success, 1 check/invariant failure, 2 input error (a file
that cannot be read or written too), 3 numerical non-convergence.  Complex
numbers are written `re,im` everywhere; points in B^q separate coordinates
with `;`.  All floats print with 15 significant digits.  The sampling seed
comes from --seed, else the BALLORBITS_SEED environment variable, else 12345.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import acceptance, analysis as ana, catalog as cat, geometry as geo
from . import orbits as orb
from .analysis import fmt
from .errors import (ConfigError, DomainError, InvariantViolation,
                     NumericalError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
# compare's options that only its map path reads, (flag, dest)
_MAP_ONLY = (("--lambda", "lam"), ("--kmin", "kmin"), ("--kmax", "kmax"),
             ("--nmax", "nmax"), ("--eps-sigma", "eps_sigma"),
             ("--mode", "mode"), ("--offset", "offset"))


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------

def parse_real(text: str) -> float:
    text = text.strip()
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc


def parse_complex(text: str) -> complex:
    parts = text.strip().split(",")
    if len(parts) == 1:
        return complex(parse_real(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(parse_real(parts[0]), parse_real(parts[1]))
    raise ConfigError(f"complex numbers are written re,im -- got {text!r}")


def parse_point(text: str) -> np.ndarray:
    coords = [parse_complex(c) for c in text.strip().split(";") if c.strip()]
    if not coords:
        raise ConfigError(f"empty point {text!r}")
    return np.array(coords, dtype=complex)


def parse_complex_list(text: str) -> list[complex]:
    return [parse_complex(tok) for tok in text.replace(";", " ").split()]


# the value syntax of each key in catalog.SPEC_FORMS
_PARSERS = {"a": parse_complex, "theta": parse_real, "lam": parse_real,
            "t": parse_real, "c": parse_complex, "q": int, "power": int,
            "factors": parse_complex_list, "b": parse_complex_list,
            "zeta": lambda text: geo.boundary_point(parse_point(text)),
            "matrix": lambda text: np.array(
                [parse_complex_list(row) for row in text.strip().splitlines()],
                dtype=complex)}


# ---------------------------------------------------------------------------
# map specifications
# ---------------------------------------------------------------------------

def parse_mapspec(spec: str) -> cat.SelfMap:
    """Inline `kind:key=val,key=val` for kinds without child maps, or a
    spec-file path.

    Every parsed map is spot-checked to actually map samples into the ball.
    """
    if ":" in spec and not os.path.exists(spec):
        sections = {"map": _inline_section(spec)}
    elif os.path.exists(spec):
        sections = _read_ini(spec, "map spec")
    else:
        raise ConfigError(f"map spec {spec!r}: no such file and not inline "
                          f"syntax kind:key=val")
    f = _build_section(sections, "map")
    ok, worst, witness = cat.self_map_check(f, 500,
                                            np.random.default_rng(0))
    if not ok:
        raise ConfigError(
            f"map spec {spec!r} is not a self-map of the ball: "
            f"|f(z)| = {1.0 - worst:.6g} at z = {np.round(witness, 6)}")
    return f


def _inline_section(spec: str) -> dict:
    """`kind:key=val,key=val` as the key texts of a spec section."""
    kind, _, rest = spec.partition(":")
    # commas separate key=val items, but also appear inside re,im values:
    # a piece without '=' continues the previous value
    items: list[str] = []
    for piece in rest.split(","):
        if "=" in piece or not items:
            items.append(piece)
        else:
            items[-1] += "," + piece
    kv = {}
    for item in items:
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        if not val:
            raise ConfigError(f"inline map spec needs key=val, got {item!r}")
        if key.strip() in kv:
            raise ConfigError(f"inline map spec repeats key {key.strip()!r}")
        kv[key.strip()] = val.strip()
    return {**kv, "kind": kind.strip()}


def _read_ini(path, what: str) -> dict:
    """The sections of an INI file as {name: {key: text}}, every value read
    here: what configparser refuses is a ConfigError naming the file."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read {what} file {path!r}")
        return {name: dict(cp[name]) for name in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        msg = "; ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"{what} file {path!r}: {msg}") from exc


def _build_section(sections, name: str) -> cat.SelfMap:
    """The map that spec section `name` names, with child maps from the
    sections `name.role`; an inline spec is the one section `map`."""
    if name not in sections:
        raise ConfigError(f"missing section [{name}]")
    opts = sections[name]
    kind = opts.get("kind")
    if kind is None:
        raise ConfigError(f"section [{name}] needs kind = ...")
    subtype = opts.get("subtype")
    form = cat.spec_form(kind, subtype)
    children = {role: _build_section(sections, f"{name}.{role}")
                for role in form.roles}
    try:
        values = {key: _PARSERS[key](opts[key])
                  for key in form.keys if key in opts}
        return cat.catalog_build(kind, subtype, **values, **children)
    except ValueError as exc:   # ConfigError and DomainError included
        raise ConfigError(f"section [{name}]: {exc}") from exc


def _seed(args) -> int:
    """--seed, else $BALLORBITS_SEED, else 12345: a non-negative integer."""
    source, text = ("--seed", args.seed) if args.seed is not None else \
        ("BALLORBITS_SEED", os.environ.get("BALLORBITS_SEED") or "12345")
    if not str(text).strip().isdecimal():
        raise ConfigError(f"{source} must be a non-negative integer: {text!r}")
    return int(text)


def _map_and_zeta(args):
    f = parse_mapspec(args.map)
    return f, geo.boundary_point(parse_point(args.zeta), q=f.q)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_geometry(args) -> int:
    n = 2 if args.query == "dist" else 1
    if len(args.points) != n:
        raise ConfigError(f"geometry {args.query} needs "
                          + ("two points" if n == 2 else "one point"))
    z = geo.ball_point(parse_point(args.points[0]))
    if args.query == "dist":
        w = geo.ball_point(parse_point(args.points[1]))
        print(fmt(geo.kob_dist(z, w)))
        return EXIT_OK
    zeta = geo.boundary_point(parse_point(args.zeta), q=z.q)
    if args.query == "horo":
        print(fmt(geo.horofunction(z, zeta)))
    elif args.query == "horosphere":
        inside, margin = geo.horosphere_contains(
            z, geo.Horosphere(center=zeta, radius=args.radius))
        print(f"{'inside' if inside else 'outside'} margin={fmt(margin)}")
    elif args.query == "koranyi":
        inside, margin = geo.koranyi_contains(
            z, geo.KoranyiRegion(vertex=zeta, amplitude=args.amplitude))
        print(f"{'inside' if inside else 'outside'} margin={fmt(margin)}")
    else:   # tube, the last of the parser's choices
        d, s_star = geo.dist_to_geodesic(z, zeta)
        print(f"dist={fmt(d)} s_star={fmt(s_star)}")
    return EXIT_OK


def cmd_dilation(args) -> int:
    f, zeta = _map_and_zeta(args)
    if not cat.is_boundary_fixed(f, zeta):
        print(f"zeta={args.zeta} is not a K-limit fixed point")
        return EXIT_CHECK_FAILED
    est = cat.estimate_dilation(f, zeta)
    print(f"lambda_hat={fmt(est.lam_hat)}")
    print(f"tail_infimum={fmt(np.exp(est.tail_infimum))}")
    print(f"extrapolated={fmt(np.exp(est.extrapolated))}")
    print(f"jacobian_check={fmt(cat.jacobian_check(f, zeta))}")
    return EXIT_OK


def _construct(args):
    """(zeta, lambda, cleared map, conjugator, backward orbit) of a map spec;
    lambda is estimated unless given."""
    f, zeta = _map_and_zeta(args)
    lam_hat = None if args.lam is not None else \
        cat.estimate_dilation(f, zeta).lam_hat
    lam = args.lam if lam_hat is None else lam_hat
    cleared, conj = cat.ensure_pole_clearance(f, zeta, lam_hat)
    params = orb.OrbitParams(k_min=args.kmin, k_max=args.kmax,
                             n_max=args.nmax, eps_sigma=args.eps_sigma,
                             mode=args.mode)
    res = orb.construct_backward_orbit(cleared, zeta, lam, params)
    return zeta, lam, cleared, conj, res


def cmd_orbit(args) -> int:
    _, _, _, conj, res = _construct(args)
    if args.out:
        orb.write_orbit_csv(res, args.out)
    else:
        sys.stdout.write(orb.orbit_csv(res))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(orb.orbit_svg(res.orbit))
    print(f"mode={res.mode} length={len(res.orbit)} "
          f"sigma_hat={fmt(res.sigma_hat)} "
          f"final_dist_to_zeta={fmt(res.dist_zeta[-1])} "
          f"conjugation={conj.label}")
    return EXIT_OK if res.accepted else EXIT_CHECK_FAILED


def read_orbit_csv(path, zeta: geo.BoundaryPoint) -> orb.OrbitSegment:
    """Rebuild an orbit segment from its CSV dump.

    Rows whose coordinates have saturated to the sphere (margin below the
    coordinate guard) are dropped: CSV carries 15 significant digits, so
    only the coordinate-representable window round-trips.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"orbit CSV {path!r} is empty")
    header = lines[0].split(",")
    q = sum(1 for c in header if c.startswith("re_z"))
    pts, js = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            j = int(cells[0])
            coords = np.array([float(cells[1 + i])
                               + 1j * float(cells[1 + q + i])
                               for i in range(q)])
        except (ValueError, IndexError) as exc:
            raise ConfigError(
                f"orbit CSV {path!r}: cannot read row {ln!r}") from exc
        if js and j != js[-1] + 1:
            raise ConfigError(f"orbit CSV {path!r}: row {ln!r} has j = {j}, "
                              f"not {js[-1] + 1}")
        if 1.0 - np.linalg.norm(coords) < geo.BOUNDARY_GUARD:
            break
        js.append(j)
        pts.append(geo.ball_point(coords))
    if len(pts) < 4:
        raise ConfigError(f"orbit CSV {path!r} has too few usable rows")
    return orb.OrbitSegment(points=pts, zeta=zeta, lam=float("nan"),
                            map_label=path, base_index=js[0])


def cmd_compare(args) -> int:
    if args.csv_a or args.csv_b:
        if not (args.csv_a and args.csv_b):
            raise ConfigError("CSV comparison needs both --csv-a and --csv-b")
        if args.map is not None:
            raise ConfigError("compare takes a map spec or two CSVs, not both")
        if given := [flag for flag, dest in _MAP_ONLY
                     if getattr(args, dest) != args.map_defaults[dest]]:
            raise ConfigError("the CSV comparison does not read "
                              + ", ".join(given))
        zeta = geo.boundary_point(parse_point(args.zeta))
        xi = read_orbit_csv(args.csv_a, zeta)
        eta = read_orbit_csv(args.csv_b, zeta)
    else:
        if args.map is None:
            raise ConfigError("compare needs a map spec or two CSVs")
        _, lam, cleared, _, res = _construct(args)
        newton = orb.offset_preimage_orbit(cleared, res.orbit, lam,
                                           args.offset)
        xi, eta = res.orbit, newton.orbit
    comp = ana.orbit_distance_profile(xi, eta, eps_plateau=args.eps_plateau)
    shift = ana.shift_recovery(comp, eta)
    print(f"window={len(comp.direct)} direct_max={fmt(comp.direct.max())} "
          f"shifted_max={fmt(comp.c_bound)} plateau={comp.plateau}")
    print(f"alpha={shift.alpha} c_star={fmt(shift.c_star)} "
          f"certified_bound={fmt(shift.certified_bound)}")
    return EXIT_OK if comp.plateau else EXIT_CHECK_FAILED


def cmd_validate_premodel(args) -> int:
    f, zeta = _map_and_zeta(args)
    cp = _read_ini(args.premodel, "premodel")
    if "premodel" not in cp:
        raise ConfigError("premodel file needs a [premodel] section")
    opts = cp["premodel"]
    if "lam" not in opts:
        raise ConfigError("section [premodel] needs key 'lam'")
    try:
        base_dim = int(opts.get("base_dim", "1"))
    except ValueError as exc:
        raise ConfigError(
            f"section [premodel]: key 'base_dim': {exc}") from exc
    repelling = geo.boundary_point(parse_point(opts.get("repelling", "1,0")))
    tau = geo.hyperbolic_automorphism(repelling, parse_real(opts["lam"]))
    ell_kind = opts.get("ell", "embed_first")
    if ell_kind == "identity":
        pm = ana.PreModel(base_dim=base_dim, ell=lambda w: w, tau=tau,
                          repelling=repelling, label="identity")
    elif ell_kind == "embed_first":   # premodel_validate checks base_dim
        pm = replace(ana.embedded_disc_premodel(tau, f.q, repelling),
                     base_dim=base_dim)
    else:
        raise ConfigError(f"unknown intertwiner kind {ell_kind!r}")
    report = ana.premodel_validate(
        f, pm, zeta, lam=args.lam,
        rng=np.random.default_rng(_seed(args)))
    print(report.render())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_suite(args) -> int:
    text, passed = acceptance.run_suite(_seed(args))
    sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and never changed after.

    `parse_args` reads it and returns a new namespace each call.  Each
    subcommand binds its `cmd_*` function when the parser is first built,
    so replacing a `cmd_*` attribute of this module afterwards does not
    reach `main`.
    """
    p = argparse.ArgumentParser(
        prog="ballorbits",
        description="Backward orbits and boundary geometry of holomorphic "
                    "self-maps of the complex unit ball")
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed (default: $BALLORBITS_SEED or 12345)")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="distance / horofunction / region queries")
    g.add_argument("query", choices=["dist", "horo", "horosphere", "koranyi",
                                     "tube"])
    g.add_argument("points", nargs="+", help="points as re,im;re,im")
    g.add_argument("--zeta", default="1,0", help="boundary point")
    g.add_argument("--radius", type=float, default=1.0,
                   help="horosphere radius")
    g.add_argument("--amplitude", "--M", dest="amplitude", type=float,
                   default=2.0, help="Koranyi amplitude")
    g.set_defaults(func=cmd_geometry)

    d = sub.add_parser("dilation", help="estimate the boundary dilation")
    d.add_argument("map")
    d.add_argument("--zeta", required=True)
    d.set_defaults(func=cmd_dilation)

    # the options that _construct reads, shared by orbit and compare
    orbit_opts = argparse.ArgumentParser(add_help=False)
    orbit_opts.add_argument("--zeta", required=True)
    orbit_opts.add_argument("--lambda", dest="lam", type=float, default=None)
    orbit_opts.add_argument("--kmin", type=int, default=1)
    orbit_opts.add_argument("--kmax", type=int, default=40)
    orbit_opts.add_argument("--nmax", type=int, default=100000)
    orbit_opts.add_argument("--eps-sigma", type=float, default=1e-3)
    orbit_opts.add_argument("--mode", choices=["single-tail", "cluster"],
                            default="single-tail")

    o = sub.add_parser("orbit", parents=[orbit_opts],
                       help="construct a backward orbit, emit CSV")
    o.add_argument("map")
    o.add_argument("--out", default=None, help="CSV output path")
    o.add_argument("--svg", default=None, help="orbit trace SVG path")
    o.set_defaults(func=cmd_orbit)

    c = sub.add_parser("compare", parents=[orbit_opts],
                       help="construction orbit vs Newton-preimage orbit, "
                            "or two orbit CSV files")
    c.add_argument("map", nargs="?", default=None)
    c.add_argument("--csv-a", default=None, help="first orbit CSV")
    c.add_argument("--csv-b", default=None, help="second orbit CSV")
    c.add_argument("--offset", type=float, default=0.05,
                   help="Kobayashi offset of the perturbed seed")
    c.add_argument("--eps-plateau", type=float, default=1e-2)
    c.set_defaults(func=cmd_compare, map_defaults={
        dest: c.get_default(dest) for _, dest in _MAP_ONLY})

    v = sub.add_parser("validate-premodel",
                       help="check an intertwining triple against a map")
    v.add_argument("map")
    v.add_argument("premodel", help="premodel spec file")
    v.add_argument("--zeta", required=True)
    v.add_argument("--lambda", dest="lam", type=float, default=None)
    v.set_defaults(func=cmd_validate_premodel)

    s = sub.add_parser("suite", help="run the acceptance battery")
    s.set_defaults(func=cmd_suite)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
