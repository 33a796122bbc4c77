"""Orbit engine: anchors, stopping times, chains, Newton preimages."""

import contextlib
import dataclasses
import functools
import io
from pathlib import Path

import numpy as np
import pytest

from ballorbits import analysis as ana
from ballorbits import catalog as cat
from ballorbits import cli
from ballorbits import geometry as geo
from ballorbits import orbits as orb
from ballorbits.errors import DomainError, NumericalError

from conftest import count_calls, offaxis_conjugate

GOLDEN = Path(__file__).parent / "golden"
LOG3 = np.log(3.0)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_radial_anchor_values(e1):
    assert np.linalg.norm(orb.radial_anchor(e1, 3.0, 0).coords) == 0.0
    assert orb.radial_anchor(e1, 3.0, 1).coords[0] == pytest.approx(0.5)
    # (9 - 1)/(9 + 1)
    assert orb.radial_anchor(e1, 3.0, 2).coords[0] == pytest.approx(0.8)


def test_radial_anchor_horofunction(e1):
    for lam in (1.5, 3.0, 10.0):
        for k in range(0, 21, 4):
            r = orb.radial_anchor(e1, lam, k)
            assert geo.horofunction(r, e1) == pytest.approx(
                -k * np.log(lam), abs=1e-12)


def test_radial_anchor_domain_errors(e1):
    with pytest.raises(DomainError):
        orb.radial_anchor(e1, 1.0, 3)
    with pytest.raises(DomainError):
        orb.radial_anchor(e1, 3.0, -1)
    # (lam^k + 1)^2 leaves the double range from k log(lam) = 354.89 on
    for lam, k in ((3.0, 324), (3.0, 637), (3.0, 700), (1e9, 18)):
        with pytest.raises(DomainError, match="double precision"):
            orb.radial_anchor(e1, lam, k)
    for lam, k in ((3.0, 323), (1e9, 17)):
        r, lk = orb.radial_anchor(e1, lam, k), lam ** k
        assert r.delta == 2.0 / (lk + 1.0)
        assert r.margin == 4.0 * lk / (lk + 1.0) ** 2


@pytest.mark.parametrize("make, lam", [
    (lambda: cat.hyperbolic_selfmap(geo.basis_boundary_point(1), 3.0), 3.0),
    (lambda: cat.blaschke_product([0.0, 1.0 / 3.0]), 3.0),
    (lambda: cat.blaschke_product([0.0, 1.0 / 3.0, -1.0 / 3.0]), 3.5),
    (lambda: cat.warped_product(
        cat.hyperbolic_selfmap(geo.basis_boundary_point(1), 3.0), 0.5), 3.0),
])
def test_anchor_step_limit_at_k40(make, lam):
    # kob(r_k, f(r_k)) -> log(lam): within 1e-3 at k = 40 for every
    # catalog map with analytic dilation
    f = make()
    zeta = geo.basis_boundary_point(f.q)
    r = orb.radial_anchor(zeta, lam, 40)
    fr = cat.step_point(f, r)
    assert abs(geo.kob_dist(r, fr) - np.log(lam)) < 1e-3


# ---------------------------------------------------------------------------
# stopping times and harvested chains
# ---------------------------------------------------------------------------

def test_stopping_time_automorphism_exact(disc_auto, e1):
    # the horofunction advances by exactly log(lam) per step, so the first
    # strict exit from the closed unit horosphere is one step past k
    for k in range(1, 31):
        rec, = orb.stopping_time(disc_auto, orb.radial_anchors(e1, 3.0, [k]),
                                 e1, k=[k])
        assert rec.n == k + 1
        assert not rec.capped
        assert rec.exit_margin > 0.0


def test_stopping_time_from_origin(disc_auto, e1):
    # r_0 = 0 on the horosphere boundary, f(0) already outside
    rec, = orb.stopping_time(disc_auto, orb.radial_anchors(e1, 3.0, [0]), e1,
                             k=[0])
    assert rec.n == 1


def test_stopping_time_blaschke(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    for k in range(1, 31):
        rec, = orb.stopping_time(cleared, orb.radial_anchors(e1, 3.0, [k]),
                                 e1, k=[k])
        assert rec.n > k


def test_stopping_time_cap(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    rec, = orb.stopping_time(cleared, orb.radial_anchors(e1, 3.0, [20]), e1,
                             n_max=5, k=[20])
    assert rec.capped


def test_harvest_chain_structure(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    k = 12
    r_k = orb.radial_anchor(e1, 3.0, k)
    rec, = orb.stopping_time(cleared, orb.radial_anchors(e1, 3.0, [k]), e1,
                             k=[k])
    seg = orb.harvest_chain(cleared, rec, e1, 3.0)
    assert len(seg) == rec.n + 1
    # stored forward iterates reproduce bit for bit
    assert orb.verify_backward(seg, cleared) == 0.0
    # endpoint out, later points inside the closed horosphere
    horos = [geo.horofunction(p, e1) for p in seg.points]
    assert horos[0] > 0.0
    assert all(h <= geo.HOROSPHERE_BAND for h in horos[1:])
    # Schwarz-Pick makes the step profile non-decreasing with depth
    steps, _, _ = orb.orbit_diagnostics(seg)
    assert np.all(np.diff(steps) >= -1e-12)
    # the deepest point is the anchor itself
    assert seg.points[-1].delta == r_k.delta


def test_construction_steps_each_anchor_once(disc_auto, e1, monkeypatch):
    # n(k) = k + 1 forward steps per anchor, k = 1..40, all anchors as lanes
    # of one kernel call per step: 41 calls for the deepest anchor, 860 lane
    # steps in all, counted at the kernel of the map's one plan.  Harvesting
    # reads the stored iterates instead of stepping again.
    calls, plans = [], []
    plan = cat.BallAutomorphism._plan

    def counted(self, ref):
        out = plan(self, ref)
        plans.append(ref)
        return dataclasses.replace(out, kernel=lambda d, t, m: (
            calls.append(len(d)) or out.kernel(d, t, m)))

    monkeypatch.setattr(cat.BallAutomorphism, "_plan", counted)
    orb.construct_backward_orbit(disc_auto, e1, 3.0)
    assert len(plans) == 1
    assert len(calls) == 41
    assert sum(calls) == sum(k + 1 for k in range(1, 41)) == 860


def test_construction_measures_each_chain_once(disc_auto, e1, monkeypatch):
    # chains are analysed longest first and the first that passes is kept:
    # here the k = 40 chain, one analysis and one kob_dist call over its steps
    analysed, calls = [], []
    analyze, dist = orb.analyze_orbit, geo.kob_dist
    monkeypatch.setattr(orb, "analyze_orbit",
                        lambda seg, *a: analysed.append(len(seg))
                        or analyze(seg, *a))
    monkeypatch.setattr(geo, "kob_dist",
                        lambda z, w: calls.append(1) or dist(z, w))
    res = orb.construct_backward_orbit(disc_auto, e1, 3.0)
    assert analysed == [42] and len(res.orbit) == 42
    assert len(calls) == 1


def reference_stopping(f, r_k, zeta, n_max):
    """`stopping_time` for one anchor: the scalar loop, as
    (n, exit_margin, capped, iterates up to the exit point)."""
    pts = [r_k]
    for n in range(n_max):
        h = geo.horofunction(pts[-1], zeta)
        if h > geo.HOROSPHERE_BAND:
            return n, h, False, pts
        pts.append(cat.step_point(f, pts[-1]))
    return n_max, geo.horofunction(pts[-1], zeta), True, pts


def _point_bytes(p):
    return (p.coords.tobytes(), None if p.ref is None else p.ref.tobytes(),
            np.complex128(p.delta if p.delta is not None else np.nan).tobytes(),
            np.float64(p.margin).tobytes())


def _anchor_lanes(f, zeta, lam, ks, n_max=100000):
    recs = orb.stopping_time(f, orb.radial_anchors(zeta, lam, ks), zeta,
                             n_max, k=ks)
    for k, rec in zip(ks, recs, strict=True):
        r_k = orb.radial_anchor(zeta, lam, k)
        n, h, capped, pts = reference_stopping(f, r_k, zeta, n_max)
        # the run holds every iterate against zeta: one held against
        # another reference with the defect `with_reference` gives it
        pts = list(geo.held(pts, zeta))
        assert (rec.k, rec.n, rec.capped) == (k, n, capped)
        assert np.float64(rec.exit_margin).tobytes() == np.float64(h).tobytes()
        assert ([_point_bytes(rec.point(j)) for j in range(n + 1)]
                == [_point_bytes(p) for p in pts])
        assert _point_bytes(rec.point(rec.n)) == _point_bytes(pts[-1])
    return recs


class _Picky(cat.SelfMap):
    """The map `children[0]`, planned with a kernel that refuses rows beyond
    radius 0.99, or within 1e-6 of radius `params[0]`, with the first such
    row's coordinate in the message."""
    kind = "picky"

    def _plan(self, ref):
        near, = self.params
        plan = self.children[0]._plan(ref)

        def kernel(delta, tail, margin):
            z = geo._defect_coords(ref, delta, tail)[:, 0]
            bad = np.abs(z) > 0.99
            if near is not None:
                bad |= np.abs(np.abs(z) - near) < 1e-6
            if bad.any():
                raise ValueError(f"refused {float(z[bad][0].real)!r}")
            return plan.kernel(delta, tail, margin)
        return geo.Plan(plan.ref, kernel)


def _picky(disc_auto, near=None):
    return _Picky(q=1, params=(near,), children=(disc_auto,))


class _LoneOnly(cat.SelfMap):
    """The map `children[0]`, planned with a kernel that refuses more than
    one row."""
    kind = "lone_only"

    def _plan(self, ref):
        plan = self.children[0]._plan(ref)

        def kernel(delta, tail, margin):
            if len(delta) > 1:
                raise ValueError("refused a batch")
            return plan.kernel(delta, tail, margin)
        return geo.Plan(plan.ref, kernel)


def test_stopping_batch_error_when_no_anchor_raises_alone(disc_auto, e1):
    """A step that raises only for the batch: every anchor runs alone, none
    raises, and the batch's own error comes out."""
    f = _LoneOnly(q=1, children=(disc_auto,))
    for k in (2, 5):
        rec, = orb.stopping_time(f, orb.radial_anchors(e1, 3.0, [k]), e1, k=[k])
        assert (rec.n, rec.capped) == (k + 1, False)
    with pytest.raises(ValueError, match="refused a batch"):
        orb.stopping_time(f, orb.radial_anchors(e1, 3.0, [2, 5]), e1, k=[2, 5])


@pytest.mark.parametrize("case", ["cleared", "offaxis", "offaxis_conjugate",
                                  "capped", "raising"])
def test_stopping_lanes_match_per_anchor(case, cleared_blaschke, disc_auto,
                                         e1):
    """One batch of the anchors k = 1..40 against the anchors run one by
    one: n, capped, exit margin and every iterate, as bytes.  A lane that
    raises retires, and the exception of the lowest such anchor comes out,
    as the k-ascending loop gives it."""
    ks, n_max, zeta = range(1, 41), 100000, e1
    if case in ("cleared", "capped"):
        f = cleared_blaschke[0]
        n_max = 15 if case == "capped" else n_max
    elif case == "offaxis":
        zeta = geo.boundary_point([0.6, 0.8j])
        f = cat.hyperbolic_selfmap(zeta, 3.0)
    elif case == "offaxis_conjugate":
        f = offaxis_conjugate()
    else:
        # from k = 5 on, the anchor is beyond radius 0.99
        f = _picky(disc_auto)
        with pytest.raises(ValueError) as lanes:
            orb.stopping_time(f, orb.radial_anchors(zeta, 3.0, ks), zeta,
                              k=ks)
        with pytest.raises(ValueError) as alone:
            for k in ks:
                reference_stopping(f, orb.radial_anchor(zeta, 3.0, k), zeta,
                                   n_max)
        assert str(lanes.value) == str(alone.value)
        r_5 = float(orb.radial_anchor(e1, 3.0, 5).coords[0].real)
        assert str(lanes.value) == f"refused {r_5!r}"
        # the lower lane raises at r_1, two steps after the higher one
        late = _picky(disc_auto, near=0.5)
        with pytest.raises(ValueError) as lanes:
            orb.stopping_time(late, orb.radial_anchors(zeta, 3.0, [3, 10]),
                              zeta, k=[3, 10])
        with pytest.raises(ValueError) as alone:
            reference_stopping(late, orb.radial_anchor(zeta, 3.0, 3),
                               zeta, n_max)
        assert str(lanes.value) == str(alone.value)
        assert abs(float(str(lanes.value).split()[1]) - 0.5) < 1e-6
        ks = range(1, 5)
    recs = _anchor_lanes(f, zeta, 3.0, ks, n_max)
    capped = sum(rec.capped for rec in recs)
    assert 0 < capped < len(recs) if case == "capped" else capped == 0


def test_orbit_diagnostics_alike_point_by_point(rng):
    # horofunction and distance to zeta as arrays equal the per-point
    # values bit for bit, for points that share zeta and for points that
    # do not (complex defects, random tails)
    zeta = geo.boundary_point([0.6, 0.8j])
    near = geo.BoundaryPoint(zeta.coords * (1.0 + 1e-15))
    pts = []
    for _ in range(500):
        delta = 10.0 ** rng.uniform(-12, -0.5) * np.exp(1j * rng.uniform(-1, 1))
        tail = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 1e-3 * abs(delta)
        tail -= geo.herm(tail, zeta.coords) * zeta.coords
        pts.append(geo.boundary_adapted_point(zeta.coords, delta, tail=tail))
    for points in (pts, pts[:-1] + [geo.ball_point(pts[-1].coords)],
                   pts[:-1] + [geo.with_reference(pts[-1], near)]):
        seg = orb.OrbitSegment(points=tuple(points), zeta=zeta, lam=3.0)
        # a point without a reference is held with `with_reference`'s
        # defect, and every point keeps its coordinates and margin
        points = [geo.with_reference(p, zeta) if p.ref is None else p
                  for p in points]
        assert [_chain_bytes(p) for p in seg.points] == [
            _chain_bytes(p)[:1] + (zeta.coords.tobytes(),)
            + _chain_bytes(p)[2:] for p in points]
        _, horos, dz = orb.orbit_diagnostics(seg)
        assert horos.tobytes() == np.array(
            [geo.horofunction(p, zeta) for p in points]).tobytes()
        assert dz.tobytes() == np.array(
            [geo.dist_to_zeta(p, zeta) for p in points]).tobytes()


# the map families of the benchmark's construct round: the rotation
# conjugate is its unitary-conjugator family
HARVEST_SPECS = {
    "blaschke": ("blaschke:a=1/3", "1"),
    "blaschke_deg3": ("blaschke:factors=0;0.4;-0.1", "1"),
    "hyperbolic_offaxis": ("hyperbolic:lam=3,zeta=0.6,0;0,0.8",
                           "0.6,0;0,0.8"),
    "compose": ("compose.ini", "1"),
    "iterate": ("iterate.ini", "1"),
    "warped": ("warped.ini", "1,0;0,0"),
    "conjugate": ("conjugate.ini", "1"),
    "conjugate_unitary": ("[map]\nkind = conjugate\n[map.inner]\n"
                          "kind = blaschke\nfactors = 0 0.3\n"
                          "[map.conjugator]\nkind = ball_automorphism\n"
                          "subtype = unitary\nmatrix = 0.8,0.6\n", "0.8,0.6"),
}


def _chain_bytes(p):
    return _point_bytes(p) + (None if p.ref is None else p.tail().tobytes(),)


@pytest.mark.parametrize("name", [*HARVEST_SPECS, "offaxis_conjugate"])
def test_harvested_chains_are_the_stepwise_chains(name, e1, tmp_path):
    """Every chain harvested from one run of the anchors k = 1..40, against
    the anchor stepped alone, point by point and read backward: every point
    as bytes.  Every chain is a `PointBatch` held against zeta."""
    if name == "offaxis_conjugate":
        f, zeta, lam, ks = offaxis_conjugate(), e1, 3.0, range(1, 41)
    else:
        spec, zeta_text = HARVEST_SPECS[name]
        if spec.startswith("[map]"):
            (tmp_path / "map.ini").write_text(spec)
            spec = str(tmp_path / "map.ini")
        elif spec.endswith(".ini"):
            spec = str(GOLDEN / spec)
        f = cli.parse_mapspec(spec)
        zeta = geo.boundary_point(cli.parse_point(zeta_text), q=f.q)
        lam = cat.estimate_dilation(f, zeta).lam_hat
        f, _ = cat.ensure_pole_clearance(f, zeta, lam)
        ks = range(1, 41)
    recs = orb.stopping_time(f, orb.radial_anchors(zeta, lam, ks), zeta, k=ks)
    for k, rec in zip(ks, recs, strict=True):
        chain = orb.harvest_chain(f, rec, zeta, lam).points
        assert isinstance(chain, geo.PointBatch)
        assert chain.ref.tobytes() == zeta.coords.tobytes()
        _, _, _, pts = reference_stopping(f, orb.radial_anchor(zeta, lam, k),
                                          zeta, 100000)
        assert ([_chain_bytes(p) for p in chain]
                == [_chain_bytes(p) for p in reversed(pts)])


def test_stopping_frames_stay_when_the_reference_moves(e1):
    """A rotation moves the batch to another reference, and the run still
    keeps one grid held against e1, as does the chain: the anchor stepped
    alone, the anchor with its defect and each rotated point with its
    coordinates, its margin and the defect `with_reference` gives it."""
    rotation = cat.catalog_build("unitary", matrix=np.array([[0.8 + 0.6j]]))
    recs = _anchor_lanes(rotation, e1, 3.0, range(1, 11))
    assert all(rec.grid is recs[0].grid for rec in recs)
    assert recs[0].grid.ref.tobytes() == e1.coords.tobytes()
    chain = orb.harvest_chain(rotation, recs[-1], e1, 3.0).points
    assert chain.ref.tobytes() == e1.coords.tobytes()
    _, _, _, pts = reference_stopping(
        rotation, orb.radial_anchor(e1, 3.0, recs[-1].k), e1, 100000)
    assert len(chain) == len(pts) == recs[-1].n + 1
    assert [_chain_bytes(p) for p in chain] == [
        _chain_bytes(p if np.array_equal(p.ref, e1.coords)
                     else geo.with_reference(p, e1)) for p in reversed(pts)]


def test_chain_indices_stay_in_range(disc_auto, e1):
    """An iterate or orbit index past either end is refused: no NaN point
    read off a retired lane, no index counted from the deep end."""
    rec, = orb.stopping_time(disc_auto, orb.radial_anchors(e1, 3.0, [3]),
                             e1, k=[3])
    assert isinstance(rec.grid, geo.PointBatch)
    assert np.isfinite(rec.point(rec.n).coords).all()
    for j in (-1, rec.n + 1):
        with pytest.raises(DomainError, match="outside"):
            rec.point(j)
    seg = orb.harvest_chain(disc_auto, rec, e1, 3.0)
    shifted = dataclasses.replace(seg, base_index=2)
    assert shifted.point(2).coords.tobytes() == seg.point(0).coords.tobytes()
    for seg, lo in ((seg, 0), (shifted, 2)):
        for n in (lo - 1, lo + len(seg)):
            with pytest.raises(DomainError, match="outside"):
                seg.point(n)


def test_harvest_requires_uncapped(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    rec, = orb.stopping_time(cleared, orb.radial_anchors(e1, 3.0, [10]), e1,
                             n_max=3, k=[10])
    with pytest.raises(DomainError):
        orb.harvest_chain(cleared, rec, e1, 3.0)


# ---------------------------------------------------------------------------
# the constructed backward orbit
# ---------------------------------------------------------------------------

def test_construct_automorphism_orbit(auto_orbit):
    res = auto_orbit
    assert res.accepted and res.mode == "single-tail"
    # axial translation: every step is exactly log 3
    assert np.abs(res.steps - LOG3).max() < 1e-10


def test_construct_blaschke_orbit(blaschke_orbit):
    res = blaschke_orbit
    assert res.accepted
    assert abs(res.sigma_hat - LOG3) < 1e-3
    assert np.all(np.diff(res.steps) >= -1e-12)
    assert np.all(np.diff(res.horos) <= 1e-12)
    assert res.dist_zeta[25] < 1e-4
    # step tail bounded by the anchor step (the generating inequality)
    assert res.sigma_hat <= LOG3 + 1e-3


def _offaxis_draws():
    """40 complex zeta in q = 2 with lam in [7, 10), then the benchmark's
    pinned off-axis pair."""
    rng = np.random.default_rng(20261018)
    draws = []
    for _ in range(40):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        draws.append((v / np.linalg.norm(v), float(rng.uniform(7.0, 10.0))))
    return draws + [([-0.3665651155219311 + 0.6075356103566331j,
                      -0.322354349519805 - 0.6265925083949299j],
                     7.7642054399404685)]


@pytest.mark.parametrize("zeta, lam", _offaxis_draws())
def test_offaxis_orbit_is_the_e1_orbit_moved(zeta, lam):
    """The theorem is unitary-invariant: at zeta = U e_1 the orbit of the
    hyperbolic map is U applied to the orbit at e_1.  Its tails are exactly
    0, and its defects and margins are the e_1 orbit's."""
    zeta, e1 = geo.boundary_point(zeta), geo.basis_boundary_point(2)
    moved = orb.construct_backward_orbit(cat.hyperbolic_selfmap(zeta, lam),
                                         zeta, lam).orbit.points
    at_e1 = orb.construct_backward_orbit(cat.hyperbolic_selfmap(e1, lam),
                                         e1, lam).orbit.points
    assert len(moved) == len(at_e1)
    assert not np.array([p.tail() for p in moved]).any()
    for field in ("delta", "margin"):
        np.testing.assert_allclose([getattr(p, field) for p in moved],
                                   [getattr(p, field) for p in at_e1],
                                   rtol=1e-13, atol=0.0)


def test_construct_cluster_mode(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    res = orb.construct_backward_orbit(
        cleared, e1, 3.0, orb.OrbitParams(mode="cluster", k_max=30))
    assert res.accepted
    assert res.mode in ("cluster", "single-tail")
    if res.mode == "cluster":
        assert orb.verify_backward(res.orbit, cleared) < 1e-6


def test_construct_rejects_bad_dilation(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    # wrong lambda: no chain can have the required step tail
    with pytest.raises(NumericalError):
        orb.construct_backward_orbit(
            cleared, e1, 2.0, orb.OrbitParams(k_max=12, dist_depth=5))


def test_horofunction_divergence_along_orbit(blaschke_orbit):
    # convergence to the boundary point: horofunction below -10 at depth
    # proportional to j log(lam)
    res = blaschke_orbit
    j = int(np.ceil(12.0 / LOG3)) + 2
    assert res.horos[j] < -10.0


# ---------------------------------------------------------------------------
# Newton preimages
# ---------------------------------------------------------------------------

def test_newton_matches_automorphism_inverse(disc_auto, e1, rng):
    # the one root of an automorphism's preimage is its inverse's image
    g = disc_auto.params[0]
    for _ in range(10):
        t = geo.ball_point((rng.normal(size=1) + 1j * rng.normal(size=1)) / 4)
        pre, = cat.preimages(disc_auto, t.coords)
        exact = geo.apply(geo.inverse(g), t)
        assert np.linalg.norm(pre - exact.coords) < 1e-10


def test_newton_finds_both_blaschke_preimages(blaschke):
    # independent oracle: the quadratic formula for z(z-a) = w(1-az)
    a = 1.0 / 3.0
    w = 0.4 + 0.2j
    roots = sorted(np.roots([1.0, a * (w - 1.0), -w]),
                   key=lambda c: c.real)
    found = cat.preimages(blaschke, [w])[:, 0]
    assert len(found) == 2
    for p in found:
        assert abs(cat.evaluate(blaschke, [p])[0] - w) < 1e-12
    found = sorted(found, key=lambda c: c.real)
    assert all(abs(f - r) < 1e-9 for f, r in zip(found, roots))


def test_newton_fixed_point(blaschke):
    # z(z - 1/3) = 0 (1 - z/3): the fixed point 0 is a root, and 1/3
    roots = cat.preimages(blaschke, [0.0])
    assert np.linalg.norm(roots, axis=1).min() < 1e-12


def test_newton_no_preimage_in_ball():
    # (z1, z') -> (phi(z1), z'/2): a target with |z'| > 1/2 has no preimage
    e1 = geo.basis_boundary_point(1)
    wp = cat.warped_product(cat.hyperbolic_selfmap(e1, 3.0), 0.5, q=2)
    assert cat.preimages(wp, [0.0, 0.9]).shape == (0, 2)


# The polar grid of seeds the march once solved from by damped Newton in
# coordinates at each of its first 8 steps: 4 radii x 8 angles for q = 1,
# 4 radii x 4 x 4 angles for q = 2.  Kept here as the
# seeds of `reference_newton`, the independent oracle for the closed-form
# roots (`catalog.preimages`).
_RADII, _ANGLES = (0.15, 0.45, 0.75, 0.9), np.arange(8) * (np.pi / 4.0)
GRID_SEEDS = {
    1: np.array([[r * np.exp(1j * t)] for r in _RADII for t in _ANGLES]),
    2: np.array([[r * np.exp(1j * t) * 0.8, r * np.exp(1j * t2) * 0.5]
                 for r in _RADII for t in _ANGLES[::2] for t2 in _ANGLES[::2]]),
}


def reference_newton(f, target, z0, tol, max_iter):
    """Damped Newton in coordinates for f(z) = target from one seed, its
    iterates retracted to radius 1 - 1e-12: the solution, or None where it
    stalls, meets a singular Jacobian or converges inside the boundary
    guard."""
    z = np.asarray(z0, dtype=complex).copy()
    res = cat.evaluate(f, z) - target
    for _ in range(max_iter):
        if np.linalg.norm(res) < tol:
            n = np.linalg.norm(z)
            return z if 1.0 - n >= geo.BOUNDARY_GUARD else None
        try:
            step = np.linalg.solve(cat.jacobian(f, z), -res)
        except np.linalg.LinAlgError:
            return None
        scale = 1.0
        for _ in range(40):
            z_new = z + scale * step
            n = np.linalg.norm(z_new)
            if n > 1.0 - 1e-12:
                z_new = z_new * ((1.0 - 1e-12) / n)
            res_new = cat.evaluate(f, z_new) - target
            if np.linalg.norm(res_new) < np.linalg.norm(res):
                z, res = z_new, res_new
                break
            scale *= 0.5
        else:
            return None
    return None


def reference_newton_adapted(f, target, seed, tol, max_iter):
    """`_newton_adapted` as a scalar loop, one adapted step per trial.  It
    takes a seed with a reference as it is, so the seeds given to it hold
    the target's reference or none."""
    if target.ref is None:
        return None
    ref = target.ref
    zeta = geo.BoundaryPoint(ref)
    probe = seed if seed.ref is not None else geo.with_reference(seed, zeta)
    img = cat.adapted_step(f, probe)   # the image of each accepted iterate
    if img is None:
        return None
    scale = abs(target.delta) + float(np.linalg.norm(target.tail())) + 1e-300

    sign = np.ones(f.q)
    sign[0] = -1.0  # d(delta)/d(z_1) = -1 in the rotated frame

    rot = geo.unitary_taking(geo.basis_boundary_point(f.q).coords, ref)
    cur = probe
    for _ in range(max_iter):
        rd = img.delta - target.delta
        rt = img.tail() - target.tail()
        resid = np.concatenate([[rd], (rot.conj().T @ rt)[1:]])
        if np.linalg.norm(resid) < tol * scale:
            return cur
        jz = cat.jacobian(f, cur.coords)
        jw = (sign[:, None] * (rot.conj().T @ jz @ rot)) * sign[None, :]
        try:
            step = np.linalg.solve(jw, -resid)
        except np.linalg.LinAlgError:
            return None
        alpha = 1.0
        base = np.linalg.norm(resid)
        for _ in range(40):
            new_delta = cur.delta + alpha * step[0]
            new_tail = cur.tail() + rot @ np.concatenate(
                [[0.0], alpha * step[1:]])
            try:
                cand = geo.boundary_adapted_point(ref, new_delta, tail=new_tail)
            except DomainError:
                alpha *= 0.5
                continue
            img2 = cat.adapted_step(f, cand)
            if img2 is None:
                return None
            rd2 = img2.delta - target.delta
            rt2 = img2.tail() - target.tail()
            r2 = np.concatenate([[rd2], (rot.conj().T @ rt2)[1:]])
            if np.linalg.norm(r2) < base:
                cur, img = cand, img2
                break
            alpha *= 0.5
        else:
            return None
    return None


def assert_adapted_matches_reference(f, target, seed, tol=1e-12,
                                     max_iter=100):
    """`_newton_adapted` on the one-row chain of `seed`, a one-row batch
    held against the target's reference or a point held against it first,
    gives the scalar loop's point as bytes; returns that point."""
    seeds = seed if isinstance(seed, geo.PointBatch) \
        else geo.held(seed, geo.BoundaryPoint(target.ref))
    out = orb._newton_adapted(f, target, seeds, tol, max_iter)
    ref = reference_newton_adapted(f, target, seeds.point(0), tol, max_iter)
    assert (out is None) == (ref is None)
    if ref is not None:
        out = out.point(0)
        assert _point_bytes(out) == _point_bytes(ref)
        assert out.tail().tobytes() == ref.tail().tobytes()
    return out


def _adapted_solves(monkeypatch, march):
    """The arguments of every defect-coordinate solve that `march()` makes:
    each a one-row chain where `march` is `reference_march`."""
    calls = []
    solve = orb._newton_adapted
    monkeypatch.setattr(orb, "_newton_adapted",
                        lambda *args: calls.append(args) or solve(*args))
    march()
    monkeypatch.undo()
    return calls


def test_adapted_solve_matches_reference_c06(cleared_blaschke, blaschke_orbit,
                                             monkeypatch):
    args, kwargs = _c06_args(monkeypatch, cleared_blaschke, blaschke_orbit,
                             0.05)
    calls = _adapted_solves(monkeypatch,
                            lambda: reference_march(*args, **kwargs))
    assert len(calls) == 41
    for args in calls:
        assert assert_adapted_matches_reference(*args) is not None


def test_adapted_solve_matches_reference_q2_deep():
    e1 = geo.basis_boundary_point(1)
    e2 = geo.basis_boundary_point(2)
    wp = cat.warped_product(cat.hyperbolic_selfmap(e1, 3.0), 0.5, q=2)
    target = orb.radial_anchor(e2, 3.0, 25)
    seed = geo.boundary_adapted_point(e2.coords, target.delta / 3.0)
    assert assert_adapted_matches_reference(wp, target, seed) is not None


def test_adapted_solve_matches_reference_off_axis_q2(monkeypatch):
    zeta = geo.boundary_point([0.6, 0.8j])
    f = cat.hyperbolic_selfmap(zeta, 3.0)
    calls = _adapted_solves(monkeypatch, lambda: reference_march(
        f, geo.ball_point([0.1, 0.2j]), zeta, 20, lam_hint=3.0))
    assert len(calls) == 20
    for args in calls:
        assert assert_adapted_matches_reference(*args) is not None


@pytest.mark.parametrize("k, start", [(3, -0.5), (10, 0.7j), (10, -0.5),
                                      (20, 0.3 + 0.5j)])
def test_adapted_solve_matches_reference_past_the_sphere(
        k, start, cleared_blaschke, disc_auto, e1, monkeypatch):
    """Seeds far from deep targets, whose full steps leave the ball: a trial
    with nonpositive margin is no point (the scalar loop's DomainError
    skip), and some of the cleared map's solves stall (None)."""
    target = orb.radial_anchor(e1, 3.0, k)
    seed = geo.boundary_adapted_point(e1.coords, 1.0 - start)
    refused = []
    build = geo.boundary_adapted_point

    def counted(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except DomainError:
            refused.append(args)
            raise

    outs = []
    for f in (disc_auto, cleared_blaschke[0]):
        refused.clear()
        monkeypatch.setattr(geo, "boundary_adapted_point", counted)
        reference_newton_adapted(f, target, seed, 1e-12, 100)
        monkeypatch.undo()
        assert refused
        outs.append(assert_adapted_matches_reference(f, target, seed))
    assert outs[0] is not None
    assert (outs[1] is None) == (k == 10)


def test_adapted_solve_singular_and_solved_seeds(e1):
    # z^2 has a zero Jacobian at its critical point z = 0: the chain fails
    # with None; seeds that already solve come back as the same batch, and
    # a seed point as the same point
    f = cat.blaschke_product([0.0, 0.0])
    target = orb.radial_anchor(e1, 2.0, 3)
    critical = geo.boundary_adapted_point(e1.coords, 1.0)
    assert assert_adapted_matches_reference(f, target, critical) is None
    pre = orb.newton_preimage(f, target, geo.held(
        geo.boundary_adapted_point(e1.coords, 0.5), e1))
    assert orb._newton_adapted(f, target, pre, 1e-12, 100) is pre
    assert orb.newton_preimage(f, target, pre) is pre
    point = pre.point(0)
    assert reference_newton_adapted(f, target, point, 1e-12, 100) is point


def test_newton_seed_with_another_reference(disc_auto, e1):
    """The seed's coordinates are 0.5, held against -1: a solve against +1
    would mix defects, so seeds held against another reference, a seed
    that is a point and a target without a reference are refused
    (DomainError).  Held against +1 from its coordinates, the seed solves."""
    target = orb.radial_anchor(e1, 3.0, 30)
    minus = geo.boundary_point([-1.0])
    seed = geo.boundary_adapted_point(minus.coords, 1.5)
    refused = ((target, geo.held(seed, minus)), (target, seed),
               (target, geo.ball_point([0.5])),
               (geo.ball_point([0.5]), geo.held(seed, e1)))
    for tgt, seeds in refused:
        with pytest.raises(DomainError, match="the target's reference"):
            orb.newton_preimage(disc_auto, tgt, seeds)
    pre = orb.newton_preimage(disc_auto, target, geo.held(seed, e1))
    img = cat.step_point(disc_auto, pre)
    assert abs(img.delta[0] - target.delta) < 1e-12 * abs(target.delta)


@pytest.mark.parametrize("make", [
    lambda: cat.catalog_build("unitary", matrix=np.array([[np.exp(0.5j)]])),
    lambda: cat.blaschke_product([0.3 + 0.2j, -0.1j], 0.4),
], ids=["unitary", "blaschke"])
def test_newton_where_the_map_moves_the_reference(make):
    """Neither map fixes +1, so their images of points held against +1 hold
    against another reference, and a residual comparing the two defects
    would compare points held against different references: the chain
    solve raises.  The closed-form roots map onto the target."""
    f = make()
    target = geo.boundary_adapted_point([1.0], 0.3 + 0.1j)
    seed = geo.boundary_adapted_point([1.0], 0.25)
    assert not geo._same_direction(f._plan(target.ref).ref, target.ref,
                                   geo.FIX_TOL)
    with pytest.raises(NumericalError, match="no backward chain"):
        orb.newton_preimage(f, target, geo.held(seed, geo.BoundaryPoint(
            target.ref)))
    roots = cat.preimages(f, target.coords)
    assert len(roots)
    assert np.abs(cat.evaluate(f, roots)
                  - target.coords).max() <= 1e-12 * abs(target.delta)


@pytest.fixture(scope="module")
def c06_march(cleared_blaschke, blaschke_orbit):
    """Criterion 06's preimage march."""
    cleared, _ = cleared_blaschke
    return orb.offset_preimage_orbit(cleared, blaschke_orbit.orbit, 3.0, 0.05)


def test_newton_lanes_match_per_seed_solves(cleared_blaschke, c06_march):
    """Each grid seed the scalar oracle solves from lands on a closed-form
    root within 1e-8: at the march's first 8 targets every seed converges;
    at depth 26 some and at depth 40, where the target rounds onto the
    sphere and no root lies in the ball, all seeds stall (None)."""
    cleared, _ = cleared_blaschke
    pts = c06_march.orbit.points
    nones, counts = [], []
    for p in list(pts[:8]) + [pts[26], pts[40]]:
        roots = cat.preimages(cleared, p.coords)
        counts.append(len(roots))
        lanes = [reference_newton(cleared, p.coords, seed, 1e-12, 60)
                 for seed in GRID_SEEDS[1]]
        nones.append(sum(z is None for z in lanes))
        for z in lanes:
            if z is not None:
                assert np.linalg.norm(roots - z, axis=1).min() <= 1e-8
    assert nones[:8] == [0] * 8 and 0 < nones[8] < 32 and nones[9] == 32
    assert counts == [2] * 9 + [0]


def test_newton_lanes_take_a_target_each(cleared_blaschke, c06_march,
                                         monkeypatch):
    """The roots of each target solve that target: at criterion 06's first
    8 march targets and the q = 2 warped march's first 8, the scalar oracle
    seeded at a root returns it as bytes, and exactly one root lies within
    1e-8 of the march's next point, the root its dedupe drops."""
    cleared, _ = cleared_blaschke
    args, kwargs = _compare_args(
        monkeypatch, [str(GOLDEN / "warped.ini"), "--zeta=1,0;0,0"])
    warped = orb.backward_orbit_via_preimages(*args, **kwargs)
    for f, pts in ((cleared, c06_march.orbit.points),
                   (args[0], warped.orbit.points)):
        for cur, nxt in zip(pts[:8], pts[1:9]):
            roots = cat.preimages(f, cur.coords)
            assert len(roots) == 2
            for z in roots:
                out = reference_newton(f, cur.coords, z, 1e-12, 60)
                assert out is not None and out.tobytes() == z.tobytes()
            gaps = np.linalg.norm(roots - nxt.coords, axis=1)
            assert (gaps <= 1e-8).sum() == 1


def test_preimages_of_a_square():
    """z^2 = 1/4 has the roots +-0.5; the oracle finds 0.5 from the seed
    0.4 and nothing from the critical point 0, where the Jacobian is
    zero."""
    f = cat.blaschke_product([0.0, 0.0])
    roots = cat.preimages(f, [0.25])
    assert sorted(roots[:, 0].real) == [-0.5, 0.5] and not roots.imag.any()
    assert reference_newton(f, np.array([0.25]), np.zeros(1), 1e-12,
                            100) is None
    assert reference_newton(f, np.array([0.25]), np.array([0.4]), 1e-12,
                            100)[0] == pytest.approx(0.5, abs=1e-12)


def test_march_probes_adapted_stepping_once(cleared_blaschke, blaschke_orbit,
                                            monkeypatch):
    # criterion 06's march solves its 41 adapted candidates as one chain:
    # one `newton_preimage` call, which plans the map once and steps all
    # rows through that plan once for the seeds and once per Newton
    # iteration; it takes the closed-form roots at its first 8 targets
    # (`test_march_solves_its_grid_in_one_call`) and builds points only for
    # roots no earlier candidate holds
    cleared, _ = cleared_blaschke
    calls = count_calls(monkeypatch, (type(cleared), "_plan"),
                        (geo.Plan, "step"), (geo, "ball_point"),
                        (orb, "newton_preimage"), (cat, "preimages"))
    orb.offset_preimage_orbit(cleared, blaschke_orbit.orbit, 3.0, 0.05)
    assert calls["_plan"] == 1
    assert calls["newton_preimage"] == 1
    assert calls["step"] <= 9
    assert calls["preimages"] == 8
    assert calls["ball_point"] <= 11


def test_march_solves_its_grid_in_one_call(cleared_blaschke, blaschke_orbit,
                                          monkeypatch):
    """Where the march once solved its grid it takes the closed-form roots,
    one call per target: at z_0 and the chain's first seven rows, the
    targets of its first 8 steps.  A march whose first chain solve raises
    takes them at the same steps, its own z_0..z_7, and at no later step:
    it solves a new chain from z_1 that gives every later step its
    candidate (`_check_march`)."""
    args, kwargs = _c06_args(monkeypatch, cleared_blaschke, blaschke_orbit,
                             0.05)
    for upset, starts in ((None, [0]), (_raising(1), [0, 1])):
        pts, solves, targets = _chained_march(monkeypatch, args, kwargs,
                                              upset)
        assert len(pts) == 42 and len(targets) == 8
        assert _check_march(pts, solves, targets, args, kwargs) == starts


def _raising(count):
    """An upset (`_chained_march`) under which the march's first `count`
    chain solves raise."""
    def upset(i, solve):
        if i < count:
            raise NumericalError("no backward chain found from the seeds")
        return solve()
    return upset


@pytest.mark.parametrize("run", ["criterion_06", "compare"])
def test_march_seeds_from_the_scored_step(run, cleared_blaschke,
                                          blaschke_orbit, monkeypatch):
    """The chain solve is seeded from z_0 along the axial model, row j - 1
    with delta_0 lam^-j, tail_0 lam^(-j/2) and margin_0 lam^-j, lam the
    hint, as bytes.  When it raises, the march solves a new chain from z_1,
    seeded the same way with lam_guess = max(exp(kob_dist(z_0, z_1)),
    1.01), the distance the march scored its winner with, not the hint
    (`_check_march`)."""
    if run == "compare":
        args, kwargs = _compare_args(monkeypatch, [
            "blaschke:a=1/3", "--zeta", "1", "--offset", "0.05"])
    else:
        args, kwargs = _c06_args(monkeypatch, cleared_blaschke,
                                 blaschke_orbit, 0.05)
    pts, solves, targets = _chained_march(monkeypatch, args, kwargs)
    assert _check_march(pts, solves, targets, args, kwargs) == [0]
    pts, solves, targets = _chained_march(monkeypatch, args, kwargs,
                                          _raising(1))
    assert _check_march(pts, solves, targets, args, kwargs) == [0, 1]
    lam_guess = max(float(np.exp(geo.kob_dist(pts[0], pts[1]))), 1.01)
    assert lam_guess != kwargs["lam_hint"]


def reference_march(f, z0, zeta, n_steps, lam_hint=None):
    """`backward_orbit_via_preimages` as a step-by-step loop, each step
    solving its own adapted candidate as a one-row chain (`_newton_adapted`)
    from its point's tail and delta / lam_guess, and taking its own roots;
    the points, each held against zeta as every candidate is."""
    cur = geo.held(z0, zeta).point(0)
    pts = [cur]
    lam_guess = lam_hint if lam_hint is not None else 3.0
    for step_idx in range(n_steps):
        seed = geo.boundary_adapted_point(cur.ref, cur.delta / lam_guess,
                                          tail=cur.tail())
        out = orb._newton_adapted(f, cur, geo.held(seed, zeta), 1e-12, 100)
        uniq = [] if out is None else [out.point(0)]
        if not uniq or step_idx < 8:
            kept = [c.coords for c in uniq]
            for out in cat.preimages(f, cur.coords):
                if all(np.linalg.norm(out - u) > 1e-8 for u in kept):
                    kept.append(out)
                    uniq.append(geo.with_reference(geo.ball_point(out), zeta))
        if not uniq:
            raise NumericalError(
                f"no preimage found at backward step {step_idx}")
        horos = geo.horofunction(uniq, zeta)
        inside = horos <= geo.HOROSPHERE_BAND
        if inside.any():
            uniq = [c for c, keep in zip(uniq, inside) if keep]
            horos = horos[inside]
        dists = geo.kob_dist([cur] * len(uniq), uniq)
        scores = dists + np.maximum(horos, 0.0)
        order = np.argsort(scores, kind="stable")
        if len(order) > 1 and scores[order[1]] - scores[order[0]] < 0.05:
            a, b = uniq[order[0]], uniq[order[1]]
            raise NumericalError(
                "ambiguous backward branch: candidates "
                f"{np.round(a.coords, 6)} and {np.round(b.coords, 6)} score "
                "within 0.05")
        nxt, step = uniq[order[0]], dists[order[0]]
        lam_guess = max(float(np.exp(step)), 1.01)
        pts.append(nxt)
        cur = nxt
    return pts


def _march_args(monkeypatch, run):
    """The arguments of the one preimage march that `run()` starts."""
    marches, march = [], orb.backward_orbit_via_preimages
    monkeypatch.setattr(orb, "backward_orbit_via_preimages",
                        lambda *args, **kwargs: marches.append((args, kwargs))
                        or march(*args, **kwargs))
    with contextlib.redirect_stdout(io.StringIO()):
        run()
    monkeypatch.undo()
    (args, kwargs), = marches
    return args, kwargs


def _c06_args(monkeypatch, cleared_blaschke, blaschke_orbit, offset):
    cleared, _ = cleared_blaschke
    return _march_args(monkeypatch, lambda: orb.offset_preimage_orbit(
        cleared, blaschke_orbit.orbit, 3.0, offset))


def _compare_args(monkeypatch, argv):
    return _march_args(monkeypatch, lambda: cli.main(["compare", *argv]))


def _chained_march(monkeypatch, args, kwargs, upset=None):
    """The march's points, its chain solves, each [target, seeds, chain]
    with chain None where the solve raised, and the targets it took the
    closed-form roots of.  `upset(i, solve)`, if given, stands in for chain
    solve i, where `solve()` is the solve itself."""
    solves, targets = [], []
    newton, roots = orb.newton_preimage, cat.preimages

    def solve(f, target, seeds):
        solves.append([target, seeds, None])
        run = functools.partial(newton, f, target, seeds)
        solves[-1][2] = upset(len(solves) - 1, run) if upset else run()
        return solves[-1][2]
    with monkeypatch.context() as m:
        m.setattr(orb, "newton_preimage", solve)
        m.setattr(cat, "preimages",
                  lambda f, w: targets.append(w) or roots(f, w))
        pts = orb.backward_orbit_via_preimages(*args, **kwargs).orbit.points
    return pts, solves, targets


def _check_march(pts, solves, targets, args, kwargs):
    """Check a march against its chain solves and the targets of its roots:
    - the first solve starts at z_0, and each later one at z_s, the winner
      of a step whose solve raised or whose chain's row a closed-form root
      beat, the step before;
    - each solve is seeded from its z_s along the axial model, row j - 1
      with delta_s lam^-j, tail_s lam^(-j/2) and margin_s lam^-j, lam the
      hint (3.0 without one) at z_0, else max(exp(kob_dist(z_{s-1}, z_s)),
      1.01), as bytes;
    - every point a chain gave is its row, as bytes, and maps onto the one
      before within 1e-12 relative in delta;
    - the roots are taken at exactly z_0..z_7, as bytes, and every other
      point is one of them: its image lies within 1e-14 of the point
      before, the roots' bound in coordinates (`catalog.preimages`).
    Returns the step each solve starts at."""
    f, _, zeta, n_steps = args
    index = {_point_bytes(p) + (p.tail().tobytes(),): i
             for i, p in enumerate(pts)}
    starts, chained = [], np.zeros(n_steps + 1, bool)
    for target, seeds, _ in solves:
        s = index[_point_bytes(target) + (target.tail().tobytes(),)]
        lam = (kwargs.get("lam_hint") or 3.0) if s == 0 else max(
            float(np.exp(geo.kob_dist(pts[s - 1], pts[s]))), 1.01)
        z = pts[s]
        assert len(seeds) == n_steps - s
        for j, seed in enumerate(seeds, 1):
            want = geo.boundary_adapted_point(
                z.ref, z.delta * lam ** -j, tail=z.tail() * lam ** (-j / 2),
                margin=z.margin * lam ** -j)
            assert (_point_bytes(seed) + (seed.tail().tobytes(),)
                    == _point_bytes(want) + (want.tail().tobytes(),))
        starts.append(s)
    assert starts[:1] == [0]
    for (_, _, chain), s, e in zip(solves, starts, starts[1:] + [None]):
        if chain is None:
            assert e == s + 1 or (e is None and s == n_steps - 1)
            continue
        n = (n_steps + 1 if e is None else e) - s - 1   # the rows taken
        chained[s + 1:s + 1 + n] = True
        assert [_point_bytes(p) for p in pts[s + 1:s + 1 + n]] == [
            _point_bytes(p) for p in chain[:n]]
        if e is not None:
            assert e <= 8 and _point_bytes(pts[e]) != _point_bytes(chain[n])
    assert [w.tobytes() for w in targets] == [
        p.coords.tobytes() for p in pts[:min(8, n_steps)]]
    img, before = cat.step_point(f, pts[1:]), pts[:-1]
    assert np.all(np.abs(img.delta - before.delta)[chained[1:]]
                  <= 1e-12 * np.abs(before.delta[chained[1:]]))
    roots = ~chained[1:]
    assert np.linalg.norm(cat.evaluate(f, pts.coords[1:][roots])
                          - before.coords[roots], axis=1).max(
                              initial=0.0) <= 1e-14
    return starts


MARCHES = {
    **{f"c06_{offset}": offset for offset in (0.02, 0.05, 0.1, 0.3)},
    "warped_q2": [str(GOLDEN / "warped.ini"), "--zeta=1,0;0,0"],
    "conjugate": [str(GOLDEN / "conjugate.ini"), "--zeta=1"],
    "hyperbolic_offaxis": ["hyperbolic:lam=3,zeta=0.6,0;0,0.8",
                           "--zeta=0.6,0;0,0.8", "--offset", "0.05"],
    "unhinted": None,
}


def _marches_args(name, cleared_blaschke, blaschke_orbit, e1, monkeypatch):
    """The arguments of the march `MARCHES[name]` names."""
    case = MARCHES[name]
    if name == "unhinted":
        x0 = blaschke_orbit.orbit.points[0]
        return (cleared_blaschke[0], geo.ball_point(
            [x0.coords[0].real + 0.02]), e1, 20), {}
    if isinstance(case, float):
        return _c06_args(monkeypatch, cleared_blaschke, blaschke_orbit, case)
    return _compare_args(monkeypatch, case)


@pytest.mark.parametrize("name", MARCHES)
def test_march_matches_reference_march(name, cleared_blaschke, blaschke_orbit,
                                       e1, monkeypatch):
    """The march takes every step's candidate from its one chain solve,
    seeded from z_0, and each point maps onto the one before
    (`_check_march`)."""
    args, kwargs = _marches_args(name, cleared_blaschke, blaschke_orbit, e1,
                                 monkeypatch)
    pts, solves, targets = _chained_march(monkeypatch, args, kwargs)
    assert len(pts) == args[3] + 1
    assert _check_march(pts, solves, targets, args, kwargs) == [0]


@pytest.mark.parametrize("name", MARCHES)
def test_preimages_match_newton_from_the_grid(name, cleared_blaschke,
                                              blaschke_orbit, e1,
                                              monkeypatch):
    """At the march's first 8 targets the closed-form roots in the ball are
    the set that damped Newton in coordinates finds from the grid seeds
    (`reference_newton`), within 1e-8 both ways."""
    args, kwargs = _marches_args(name, cleared_blaschke, blaschke_orbit, e1,
                                 monkeypatch)
    f = args[0]
    pts = orb.backward_orbit_via_preimages(*args, **kwargs).orbit.points
    for w in pts.coords[:8]:
        roots = cat.preimages(f, w)
        found = [z for z in (reference_newton(f, w, seed, 1e-12, 60)
                             for seed in GRID_SEEDS[f.q]) if z is not None]
        assert len(roots) and len(found)
        gaps = np.linalg.norm(roots[:, None] - np.array(found)[None], axis=2)
        assert gaps.min(1).max() <= 1e-8 and gaps.min(0).max() <= 1e-8


@pytest.mark.parametrize("upset, at", [("raise", 0), ("raise", 3),
                                       ("raise", 7), ("stray", 3),
                                       ("distance", None)])
def test_march_matches_reference_when_the_walk_goes_astray(
        upset, at, cleared_blaschke, blaschke_orbit, e1, monkeypatch):
    """Criterion 06's march, upset so that it leaves its chain:
    - raise: the chain solves of steps 0..`at` raise, so those steps take
      the closed-form root and the march solves a new chain at each next
      step, the last from z_{at+1};
    - stray: the chain's row `at` is the origin, which a closed-form root
      beats, so the march solves a new chain from the step after;
    - distance: every `kob_dist` is off by 1e-9, which moves each scored
      step but not the chain, seeded from the hint alone: every point is
      the march's without the upset, as bytes.
    Each new chain is seeded from the step the march scored, its rows are
    the march's points, and each point maps onto the one before
    (`_check_march`)."""
    args, kwargs = _c06_args(monkeypatch, cleared_blaschke, blaschke_orbit,
                             0.05)
    if upset == "raise":
        pts, solves, targets = _chained_march(monkeypatch, args, kwargs,
                                              _raising(at + 1))
        assert _check_march(pts, solves, targets, args, kwargs) == list(
            range(at + 2))
    elif upset == "stray":
        origin = geo.with_reference(geo.ball_point([0.0]), e1)

        def stray(i, solve):
            chain = solve()
            return chain if i else geo.held(
                [origin if j == at else p for j, p in enumerate(chain)], e1)
        pts, solves, targets = _chained_march(monkeypatch, args, kwargs,
                                              stray)
        assert _check_march(pts, solves, targets, args, kwargs) == [
            0, at + 1]
        assert _point_bytes(pts[at + 1]) != _point_bytes(origin)
    else:
        want, _, _ = _chained_march(monkeypatch, args, kwargs)
        dist = geo.kob_dist
        monkeypatch.setattr(geo, "kob_dist", lambda z, w: dist(z, w) + 1e-9)
        pts, solves, targets = _chained_march(monkeypatch, args, kwargs)
        assert _check_march(pts, solves, targets, args, kwargs) == [0]
        assert [_point_bytes(p) + (p.tail().tobytes(),) for p in pts] == [
            _point_bytes(p) + (p.tail().tobytes(),) for p in want]
    monkeypatch.undo()


def _hyperbolic_draws():
    """The off-axis golden map, then 12 hyperbolic maps, four in each of
    q = 1, 2, 3, at a random zeta with lam in [2, 4)."""
    rng = np.random.default_rng(30)
    draws = [(geo.boundary_point([0.6, 0.8j]), 3.0)]
    for q in (1, 2, 3):
        for _ in range(4):
            v = rng.normal(size=q) + 1j * rng.normal(size=q)
            draws.append((geo.boundary_point(v / np.linalg.norm(v)),
                          float(rng.uniform(2.0, 4.0))))
    return draws


@pytest.mark.parametrize("offset", [0.05, 0.3])
def test_march_is_an_isometry_for_hyperbolic_maps(offset):
    """A hyperbolic map is a Kobayashi isometry, so its march from a point
    at distance `offset` from the construction's start stays at that
    distance from the construction: every entry of the direct profile is
    within 1e-12 of `offset`."""
    for zeta, lam in _hyperbolic_draws():
        f = cat.hyperbolic_selfmap(zeta, lam)
        orbit = orb.construct_backward_orbit(f, zeta, lam).orbit
        march = orb.offset_preimage_orbit(f, orbit, lam, offset).orbit
        direct = ana.orbit_distance_profile(orbit, march).direct
        assert len(direct) == len(orbit)
        assert np.abs(direct - offset).max() <= 1e-12, (zeta.coords, lam)


def _hyperbolic_and_conjugate_draws():
    """Two hyperbolic maps in each of q = 2, 3, at a random zeta with lam in
    [2, 6), each with its conjugate by the hyperbolic automorphism h of
    dilation 2 along a random axis, whose fixed point is zeta too: (zeta,
    lam, f)."""
    rng = np.random.default_rng(31)
    draws = []
    for q in (2, 2, 3, 3):
        zeta, axis = (geo.boundary_point(v / np.linalg.norm(v)) for v in (
            rng.normal(size=(2, q)) + 1j * rng.normal(size=(2, q))))
        lam = float(rng.uniform(2.0, 6.0))
        h = geo.hyperbolic_automorphism(axis, 2.0)
        zeta0 = geo.boundary_point(geo.apply_raw(geo.inverse(h), zeta.coords))
        draws += [(zeta, lam, cat.hyperbolic_selfmap(zeta, lam)),
                  (zeta, lam, cat.conjugate_map(
                      cat.hyperbolic_selfmap(zeta0, lam), h))]
    return draws


def test_march_rechains_when_its_first_chain_solve_raises(monkeypatch):
    """A march whose first chain solve raises takes the closed-form root at
    step 0 and solves a new chain from z_1: at offsets 0.05, 0.3 and 1 from
    the construction, on q = 2 and 3 hyperbolic maps and their conjugates,
    every march reaches full length, and each point maps onto the one
    before within 1e-13 relative in delta through the float adapted step.
    Stepping alone with one-row solves instead, as the march once did, the
    lam = 5.4 q = 3 marches at offset 1 found no preimage at step 20, and
    the lam = 5.9 q = 2 residuals reached 8.6e-2."""
    newton = orb.newton_preimage
    for zeta, lam, f in _hyperbolic_and_conjugate_draws():
        orbit = orb.construct_backward_orbit(f, zeta, lam).orbit
        for offset in (0.05, 0.3, 1.0):
            solves = []

            def solve(f, target, seeds):
                solves.append(target)
                if len(solves) == 1:
                    raise NumericalError("no backward chain found")
                return newton(f, target, seeds)
            monkeypatch.setattr(orb, "newton_preimage", solve)
            pts = orb.offset_preimage_orbit(f, orbit, lam, offset).orbit.points
            monkeypatch.undo()
            assert len(pts) == len(orbit) and len(solves) >= 2
            img = cat.step_point(f, pts[1:])
            assert np.all(np.abs(img.delta - pts.delta[:-1])
                          <= 1e-13 * np.abs(pts.delta[:-1])), (
                zeta.coords, lam, f.label, offset)


def test_march_holds_its_start_against_zeta(disc_auto, e1):
    """A start held against another reference, here -zeta, where the map
    steps adapted too, is held against zeta from its coordinates, as a
    start without a reference is: the same points, as bytes."""
    x = geo.ball_point([0.3 + 0.1j])
    starts = (x, geo.with_reference(x, geo.boundary_point([-1.0])))
    runs = [[_point_bytes(p) + (p.tail().tobytes(),)
             for p in orb.backward_orbit_via_preimages(
                 disc_auto, z0, e1, 12, lam_hint=3.0).orbit.points]
            for z0 in starts]
    assert runs[0] == runs[1]


def test_march_solves_each_step_at_a_complex_zeta():
    """A q = 1 march at zeta = e^{2.13i}, on a Blaschke product with two
    complex zeros turned to fix it (dilation 6.29): each point maps onto
    the one before within the solve's 1e-12 relative, to depth 41.  Its
    start holds against zeta from coordinates with a tail of exactly 0: a
    q = 1 tail of roundoff (7e-18) would stay as the points go deeper and,
    past depth 35, outweigh delta in the solve's tolerance and in the
    margins, leaving residuals of 1e-2."""
    zeros = [-0.32096553563217606 + 0.6674664684669969j,
             -0.3538157543117615 - 0.5262670842007672j]
    f = cat.blaschke_product(zeros, -1.842057824944224)
    zeta = geo.boundary_point([-0.5259916310522812 + 0.8504897436553606j])
    lam = sum((1.0 - abs(a) ** 2) / abs(zeta.coords[0] - a) ** 2
              for a in zeros)
    chain = orb.construct_backward_orbit(f, zeta, lam).orbit
    pts = orb.offset_preimage_orbit(f, chain, lam, 0.05).orbit.points
    assert len(pts) == 42 and not pts.tail.any()
    img = cat.step_point(f, pts[1:])
    assert img.ref is pts.ref
    for name in ("delta", "margin"):
        want = getattr(pts, name)[:-1]
        assert np.all(np.abs(getattr(img, name) - want)
                      <= 1e-12 * np.abs(want)), name


@pytest.mark.parametrize("lam_hint", [None, 3.0])
@pytest.mark.parametrize("n_steps", [0, -1])
def test_preimage_orbit_needs_a_step(disc_auto, e1, lam_hint, n_steps):
    with pytest.raises(DomainError, match="n_steps"):
        orb.backward_orbit_via_preimages(disc_auto, geo.ball_point([0.3]), e1,
                                         n_steps, lam_hint=lam_hint)


def test_orbit_params_validation():
    with pytest.raises(DomainError):
        orb.OrbitParams(k_min=10, k_max=5)
    # NaN compares false both ways, so a "<= 0" test would pass it
    for bad in (0.0, -1e-3, float("nan")):
        with pytest.raises(DomainError, match="tolerances"):
            orb.OrbitParams(eps_sigma=bad)
        with pytest.raises(DomainError, match="tolerances"):
            orb.OrbitParams(dist_target=bad)
    with pytest.raises(DomainError):
        orb.OrbitParams(mode="sideways")
    for n_max in (0, -5):
        with pytest.raises(DomainError, match="n_max"):
            orb.OrbitParams(n_max=n_max)
    # a negative depth would index the distances from the end
    with pytest.raises(DomainError, match="dist_depth"):
        orb.OrbitParams(dist_depth=-1)
    orb.OrbitParams(n_max=1, dist_depth=0)


# ---------------------------------------------------------------------------
# preimage orbits
# ---------------------------------------------------------------------------

def test_preimage_orbit_automorphism_axial(disc_auto, e1):
    seed = geo.geodesic_point(e1, 1.3)
    res = orb.backward_orbit_via_preimages(disc_auto, geo.ball_point(
        seed.coords), e1, 20, lam_hint=3.0)
    assert np.abs(res.steps - LOG3).max() < 1e-9
    for j, p in enumerate(res.orbit.points):
        assert geo.dist_to_zeta(p, e1) <= geo.dist_to_zeta(
            res.orbit.points[max(j - 1, 0)], e1) + 1e-12


def test_preimage_orbit_blaschke_step(cleared_blaschke, blaschke_orbit, e1):
    cleared, _ = cleared_blaschke
    x0 = blaschke_orbit.orbit.points[0]
    seed = geo.ball_point([x0.coords[0].real + 0.02])
    res = orb.backward_orbit_via_preimages(cleared, seed, e1, 35,
                                           lam_hint=3.0)
    assert abs(res.sigma_hat - LOG3) < 1e-3
    assert orb.verify_backward(res.orbit, cleared) < 1e-10
    assert res.dist_zeta[-1] < 1e-8


def test_preimage_orbit_q2_deep_adapted():
    # defect-coordinate Newton keeps relative accuracy far past the
    # coordinate-representable zone, in dimension 2
    e1 = geo.basis_boundary_point(1)
    e2 = geo.basis_boundary_point(2)
    wp = cat.warped_product(cat.hyperbolic_selfmap(e1, 3.0), 0.5, q=2)
    target = orb.radial_anchor(e2, 3.0, 25)
    seed = geo.boundary_adapted_point(e2.coords, target.delta / 3.0)
    pre = orb.newton_preimage(wp, target, geo.held(seed, e2))
    img = cat.step_point(wp, pre)
    assert abs(img.delta[0] - target.delta) / abs(target.delta) < 1e-10


def test_preimage_orbit_off_axis_warped_exits_ball():
    # the tangential coordinate doubles per backward step, so off-axis
    # backward orbits of a warped product leave the ball: the march must
    # fail rather than fabricate points
    e1 = geo.basis_boundary_point(1)
    e2 = geo.basis_boundary_point(2)
    wp = cat.warped_product(cat.hyperbolic_selfmap(e1, 3.0), 0.5, q=2)
    with pytest.raises(NumericalError):
        orb.backward_orbit_via_preimages(wp, geo.ball_point([0.2, 0.01]),
                                         e2, 25, lam_hint=3.0)


def test_preimage_orbit_branch_locality():
    # triple product with boundary repelling points at both +1 and -1
    b3 = cat.blaschke_product([0.0, 1.0 / 3.0, -1.0 / 3.0])
    lam = 3.5    # sum of (1+a)/(1-a) over the factors, by log-derivative
    plus = geo.basis_boundary_point(1)
    minus = geo.boundary_point([-1.0])
    assert cat.estimate_dilation(b3, plus).lam_hat == pytest.approx(lam)
    assert cat.estimate_dilation(b3, minus).lam_hat == pytest.approx(lam)
    cleared, _ = cat.ensure_pole_clearance(b3, plus)
    r = orb.backward_orbit_via_preimages(cleared, geo.ball_point([0.8]),
                                         plus, 12, lam_hint=lam)
    assert r.dist_zeta[-1] < 1e-5
    cleared_m, _ = cat.ensure_pole_clearance(b3, minus)
    r_m = orb.backward_orbit_via_preimages(cleared_m, geo.ball_point([-0.8]),
                                           minus, 12, lam_hint=lam)
    assert r_m.dist_zeta[-1] < 1e-5


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_orbit_csv_format(blaschke_orbit):
    text = orb.orbit_csv(blaschke_orbit)
    lines = text.strip().splitlines()
    assert lines[0] == ("j,re_z1,im_z1,horofunction,step_to_next,"
                        "dist_to_zeta")
    assert len(lines) == len(blaschke_orbit.orbit) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    # 15 significant digits
    assert float(first[1]) == pytest.approx(
        blaschke_orbit.orbit.points[0].coords[0].real, rel=1e-14)


def test_orbit_csv_final_step_is_eq21_value(blaschke_orbit):
    rows = orb.orbit_csv(blaschke_orbit).strip().splitlines()
    step_col = [r.split(",")[4] for r in rows[1:]]
    assert float(step_col[-2]) == pytest.approx(LOG3, abs=1e-3)
    assert step_col[-1] == "nan"
