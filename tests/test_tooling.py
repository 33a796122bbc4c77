"""Checks on the code itself.  The benchmark's tracer wraps library
functions by name: every name it lists must resolve, so that a rename fails
here and not in a traced run.  The options of the library and the lines of
src are counted, so that a new option or a longer src shows in the diff
that adds it.  Every public name has a reader besides the tests, and the
tests import this checkout's package."""

import ast
import contextlib
import importlib
import io
import re
import runpy
from pathlib import Path

import numpy as np

from conftest import offaxis_conjugate

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"
SRC = ROOT / "src" / "ballorbits"
GOLDEN = Path(__file__).resolve().parent / "golden"
MAX_OPTIONS = 34
# `wc -l src/ballorbits/*.py`, checked as MAX_OPTIONS is; ROADMAP item 7
# aims at 3,319
MAX_SRC_LINES = 3560
# Public names that nothing but the tests reads, each kept for its reason.
UNREAD_EXPORTS = (
    "geodesic_point",  # the geodesic primitive that tests build points with
    "certify_brfp",    # ROADMAP item 3 gives it a caller: certify zeta first
                       # (README describes it already)
)


def test_tests_import_this_checkout():
    # pytest puts src/ first on sys.path, so another installed copy of the
    # package is never the one tested
    import ballorbits
    assert Path(ballorbits.__file__).resolve().parent == SRC


def test_traced_names_resolve():
    tracer = runpy.run_path(str(TRACER))
    names = tracer["traced_names"]()
    assert len(names) == (sum(len(fns) for fns in tracer["LAYERS"].values())
                          + len(tracer["CRITERIA"]))
    for name in names:
        mod_name, fn_name = name.split(".")
        mod = importlib.import_module(f"ballorbits.{mod_name}")
        if mod_name == "acceptance":
            found = [c for c in mod._CRITERIA
                     if c.__name__.startswith(fn_name + "_")]
            assert len(found) == 1, name
        else:
            assert callable(getattr(mod, fn_name, None)), name


def test_traced_layers_reached():
    """A traced construction, tube covering, region check, short preimage
    march and pole clearance reach the layers the benchmark reads, so a
    refactor that bypasses one shows up here."""
    # the tracer wraps every module of the package, so import them all
    from ballorbits import acceptance, analysis, catalog, cli, geometry, orbits
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    e1 = geometry.basis_boundary_point(1)
    auto = catalog.hyperbolic_selfmap(e1, 3.0)
    # its outer parts step by the automorphisms' closed form
    conj = offaxis_conjugate()
    tracer.install()
    try:
        res = orbits.construct_backward_orbit(
            conj, e1, 3.0, orbits.OrbitParams(k_max=6, dist_target=1e-2))
        analysis.tube_covering_check(res.orbit, e1, 1.0,
                                     s_values=np.arange(1.0, 6.0))
        # no sequence: only the tube samples reach koranyi_functional
        analysis.region_equivalence_check([], e1, 1.0, 2.0,
                                          s_values=np.arange(1.0, 6.0))
        # a structured map: the march solves in defect coordinates too
        short = orbits.OrbitSegment(points=res.orbit.points[:3], zeta=e1,
                                    lam=3.0)
        orbits.offset_preimage_orbit(auto, short, 3.0, 0.05)
        # the witness cloud's horofunctions, on raw coordinates
        catalog.ensure_pole_clearance(
            catalog.blaschke_product([0.0, 1.0 / 3.0]), e1)
    finally:
        tracer.uninstall()
    for name in ("orbits.stopping_time", "orbits.harvest_chain",
                 "geometry.kob_dist", "geometry.kob_matrix",
                 "geometry.horo_raw", "geometry.dist_to_geodesic",
                 "sampling.tube_samples", "geometry.koranyi_functional",
                 "orbits.newton_preimage", "orbits.backward_orbit_via_preimages",
                 "catalog.jacobian"):
        assert tracer.calls[tracer.fid(name)] > 0, name


def _reaches(workload):
    """REACHES[workload] of perfbench/run.py, read without running it: the
    entry's expression alone is evaluated, with `range` and `tuple` its
    only names."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "REACHES"
                        for t in node.targets)):
            values = dict(zip((ast.literal_eval(k) for k in node.value.keys),
                              node.value.values))
            expr = compile(ast.Expression(values[workload]), "REACHES", "eval")
            return eval(expr, {"__builtins__": {"range": range,
                                                "tuple": tuple}})
    raise AssertionError("perfbench/run.py defines no REACHES")


def test_construct_ops_reach_every_traced_name():
    """In-process `orbit` runs like the benchmark's construct ops, traced,
    reach every name its traced run requires: a lane path that bypasses a
    traced layer fails here.  The INI conjugate and warped maps step
    through the plans of a `Compose` and of a warped product's factor."""
    from ballorbits import acceptance, analysis, catalog, cli, geometry, orbits
    names = _reaches("construct")
    assert len(names) == 21
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    tracer.install()
    try:
        for argv in (["orbit", "blaschke:a=1/3", "--zeta=1"],
                     ["orbit", "blaschke:a=1/3", "--zeta=1", "--mode",
                      "cluster"],
                     ["orbit", "hyperbolic:lam=3,zeta=0.6,0;0,0.8",
                      "--zeta=0.6,0;0,0.8"],
                     ["orbit", str(GOLDEN / "conjugate.ini"), "--zeta=1"],
                     ["orbit", str(GOLDEN / "warped.ini"), "--zeta=1,0;0,0"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert [n for n in names if tracer.calls[tracer.fid(n)] == 0] == []


def test_battery_pass_reaches_every_traced_name():
    """One traced acceptance pass, the benchmark's battery op, reaches every
    name its traced run requires and calls each criterion once through the
    tracer's wrappers: a changed criterion signature or call path fails
    here."""
    from ballorbits import acceptance, analysis, catalog, cli, geometry, orbits
    names = _reaches("battery")
    criteria = [n for n in names if n.startswith("acceptance.")]
    assert len(criteria) == 9
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    tracer.install()
    try:
        lines = acceptance.run_criteria(12345)
    finally:
        tracer.uninstall()
    assert all(line.passed for line in lines)
    assert [n for n in names if tracer.calls[tracer.fid(n)] == 0] == []
    assert [tracer.calls[tracer.fid(n)] for n in criteria] == [1] * 9


def test_regions_op_reaches_every_traced_name():
    """The benchmark's first q = 1 and q = 2 regions ops, traced, reach
    every name its traced run requires: a sampler or check that bypasses a
    traced layer fails here."""
    from ballorbits import acceptance, analysis, catalog, cli, geometry, orbits
    names = _reaches("regions")
    assert len(names) == 14
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    ops = workloads["regions_round"](1, None)[:2]
    assert [len(op.ref["input"].zeta) for op in ops] == [1, 2]
    workloads["prepare_regions"](ops)
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    tracer.install()
    try:
        outcomes = [workloads["run_regions"](op) for op in ops]
    finally:
        tracer.uninstall()
    assert all(out.passed for out in outcomes), [o.detail for o in outcomes]
    assert [n for n in names if tracer.calls[tracer.fid(n)] == 0] == []


def _options():
    """Every parameter with a default in the library, and each defaulted
    field of `OrbitParams`, as `module.function(name)`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                pos = args.posonlyargs + args.args
                named = pos[len(pos) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
                found += [f"{path.stem}.{node.name}({a.arg})" for a in named]
            elif isinstance(node, ast.ClassDef) and node.name == "OrbitParams":
                found += [f"{path.stem}.OrbitParams.{st.target.id}"
                          for st in node.body
                          if isinstance(st, ast.AnnAssign) and st.value]
    return found


def test_options_inventory():
    """Each option doubles the configurations that tests must cover: one
    that no caller sets is a constant, and a new one raises MAX_OPTIONS in
    the diff that adds it."""
    options = _options()
    assert len(options) <= MAX_OPTIONS, "\n".join(options)


def test_src_line_count():
    """src is counted as `wc -l` counts it, so that a change that grows it
    raises MAX_SRC_LINES in its own diff."""
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= MAX_SRC_LINES, lines


def test_every_kind_has_closed_form_preimages():
    """The preimage march takes every map's roots from its kind's
    `_preimages`, next to `_evaluate`, `_jacobian` and `_plan`: a kind
    without them fails here, not in a march."""
    from ballorbits import catalog
    for name, form in catalog.SPEC_FORMS.items():
        for method in ("_evaluate", "_jacobian", "_preimages", "_plan"):
            assert callable(getattr(form.cls, method, None)), (name, method)


def _exports():
    """The names `ballorbits/__init__.py` takes from the package's modules."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _src_reads():
    """Every name that src reads, as a name or an attribute, outside the
    top-level definition that binds it; `__init__.py`'s re-exports do not
    count."""
    reads = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    reads.add(name)
    return reads


def test_public_names_have_callers():
    """A name `ballorbits` exports is read by src outside its own
    definition, or named by perfbench or README: a public name that only
    tests reach is dead code, to be deleted with its tests or listed in
    UNREAD_EXPORTS with its reason."""
    reads = _src_reads()
    text = "\n".join(p.read_text() for p in [ROOT / "README.md",
                                             *sorted(PERFBENCH.iterdir())]
                     if p.is_file())
    exports = _exports()
    assert set(UNREAD_EXPORTS) <= set(exports)
    unread = [name for name in exports if name not in reads
              and name not in UNREAD_EXPORTS
              and not re.search(rf"\b{name}\b", text)]
    assert unread == []
