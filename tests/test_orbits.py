"""Orbit engine: anchors, stopping times, chains, Newton preimages."""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from ballorbits import catalog as cat
from ballorbits import cli
from ballorbits import geometry as geo
from ballorbits import orbits as orb
from ballorbits.errors import DomainError, NumericalError

from conftest import count_calls

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
        rec = orb.stopping_time(disc_auto, orb.radial_anchor(e1, 3.0, k),
                                e1, k=k)
        assert rec.n == k + 1
        assert not rec.capped
        assert rec.exit_margin > 0.0


def test_stopping_time_from_origin(disc_auto, e1):
    # r_0 = 0 on the horosphere boundary, f(0) already outside
    rec = orb.stopping_time(disc_auto, orb.radial_anchor(e1, 3.0, 0), e1, k=0)
    assert rec.n == 1


def test_stopping_time_blaschke(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    for k in range(1, 31):
        rec = orb.stopping_time(cleared, orb.radial_anchor(e1, 3.0, k),
                                e1, k=k)
        assert rec.n > k


def test_stopping_time_cap(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    rec = orb.stopping_time(cleared, orb.radial_anchor(e1, 3.0, 20), e1,
                            n_max=5, k=20)
    assert rec.capped


def test_harvest_chain_structure(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    k = 12
    r_k = orb.radial_anchor(e1, 3.0, k)
    rec = orb.stopping_time(cleared, r_k, e1, k=k)
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
    # steps in all.  Harvesting reads the stored iterates instead of stepping
    # again.
    calls = []
    step = cat.step_point
    monkeypatch.setattr(cat, "step_point",
                        lambda f, p: calls.append(len(p)) or step(f, p))
    orb.construct_backward_orbit(disc_auto, e1, 3.0)
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
        assert (rec.k, rec.n, rec.capped) == (k, n, capped)
        assert np.float64(rec.exit_margin).tobytes() == np.float64(h).tobytes()
        assert ([_point_bytes(rec.point(j)) for j in range(n + 1)]
                == [_point_bytes(p) for p in pts])
        assert _point_bytes(rec.exit_point) == _point_bytes(pts[-1])
        assert len(rec.iterates) == (0 if capped else n + 1)
    return recs


def _picky(disc_auto, near=None):
    """The disc automorphism in raw coordinates, refusing points beyond
    radius 0.99, or within 1e-6 of radius `near`, with their coordinate in
    the message."""
    def evaluate(z):
        if abs(z[0]) > 0.99 or near is not None and abs(abs(z[0]) - near) < 1e-6:
            raise ValueError(f"refused {float(z[0].real)!r}")
        return cat.evaluate(disc_auto, z)
    return cat.callable_map(evaluate, 1)


@pytest.mark.parametrize("case", ["cleared", "offaxis", "callable", "capped",
                                  "raising"])
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
    else:
        # raw coordinates.  callable: from k = 31 on, a step lands
        # within the sphere's guard; raising: from k = 5 on, the anchor is
        # beyond radius 0.99
        f = (cat.callable_map(lambda z: cat.evaluate(disc_auto, z), 1)
             if case == "callable" else _picky(disc_auto))
        error = NumericalError if case == "callable" else ValueError
        with pytest.raises(error) as lanes:
            orb.stopping_time(f, orb.radial_anchors(zeta, 3.0, ks), zeta,
                              k=ks)
        with pytest.raises(error) as alone:
            for k in ks:
                reference_stopping(f, orb.radial_anchor(zeta, 3.0, k), zeta,
                                   n_max)
        assert str(lanes.value) == str(alone.value)
        if case == "raising":
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
        ks = range(1, 31) if case == "callable" else range(1, 5)
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
        _, horos, dz = orb.orbit_diagnostics(seg)
        assert horos.tobytes() == np.array(
            [geo.horofunction(p, zeta) for p in points]).tobytes()
        assert dz.tobytes() == np.array(
            [geo.dist_to_zeta(p, zeta) for p in points]).tobytes()


def test_harvest_requires_uncapped(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    r_k = orb.radial_anchor(e1, 3.0, 10)
    rec = orb.stopping_time(cleared, r_k, e1, n_max=3, k=10)
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
    g = disc_auto.params[0]
    for _ in range(10):
        t = geo.ball_point((rng.normal(size=1) + 1j * rng.normal(size=1)) / 4)
        pre = orb.newton_preimage(disc_auto, t, geo.ball_point([0.1 + 0j]))
        exact = geo.apply(geo.inverse(g), t)
        assert np.linalg.norm(pre.coords - exact.coords) < 1e-10


def test_newton_finds_both_blaschke_preimages(blaschke):
    # independent oracle: the quadratic formula for z(z-a) = w(1-az)
    a = 1.0 / 3.0
    w = 0.4 + 0.2j
    roots = sorted(np.roots([1.0, a * (w - 1.0), -w]),
                   key=lambda c: c.real)
    found = []
    for seed in (0.8, -0.8):
        p = orb.newton_preimage(blaschke, geo.ball_point([w]),
                                geo.ball_point([seed]))
        resid = abs(cat.evaluate(blaschke, p.coords)[0] - w)
        assert resid < 1e-12
        found.append(p.coords[0])
    found = sorted(found, key=lambda c: c.real)
    assert all(abs(f - r) < 1e-9 for f, r in zip(found, roots))


def test_newton_fixed_point(blaschke):
    p = orb.newton_preimage(blaschke, geo.ball_point([0.0]),
                            geo.ball_point([0.0]))
    assert np.linalg.norm(p.coords) < 1e-12


def test_newton_no_preimage_in_ball():
    # (z1, z') -> (phi(z1), z'/2): a target with |z'| > 1/2 has no preimage
    e1 = geo.basis_boundary_point(1)
    wp = cat.warped_product(cat.hyperbolic_selfmap(e1, 3.0), 0.5, q=2)
    with pytest.raises(NumericalError):
        orb.newton_preimage(wp, geo.ball_point([0.0, 0.9]),
                            geo.ball_point([0.1, 0.1]))


def reference_newton(f, target, z0, tol, max_iter):
    """`_newton_coords` for one seed: the scalar damped Newton loop."""
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


def assert_lanes_match_reference(f, target, seeds, tol=1e-12, max_iter=60):
    lanes = orb._newton_coords(f, target, np.asarray(seeds, complex), tol,
                               max_iter)
    ref = [reference_newton(f, target, s, tol, max_iter) for s in seeds]
    assert [z is None for z in lanes] == [z is None for z in ref]
    for z, r in zip(lanes, ref):
        if r is not None:
            assert z.tobytes() == r.tobytes()
    return lanes


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
    out = orb._newton_adapted(f, target, seed, tol, max_iter)
    ref = reference_newton_adapted(f, target, seed, tol, max_iter)
    assert (out is None) == (ref is None)
    if ref is not None:
        assert _point_bytes(out) == _point_bytes(ref)
        assert out.tail().tobytes() == ref.tail().tobytes()
    return out


def _adapted_solves(monkeypatch, march):
    """The arguments of every defect-coordinate solve that `march()` makes."""
    calls = []
    solve = orb._newton_adapted
    monkeypatch.setattr(orb, "_newton_adapted",
                        lambda *args: calls.append(args) or solve(*args))
    march()
    monkeypatch.undo()
    return calls


def test_adapted_solve_matches_reference_c06(cleared_blaschke, blaschke_orbit,
                                             monkeypatch):
    cleared, _ = cleared_blaschke
    calls = _adapted_solves(monkeypatch, lambda: orb.offset_preimage_orbit(
        cleared, blaschke_orbit.orbit, 3.0, 0.05))
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
    calls = _adapted_solves(
        monkeypatch, lambda: orb.backward_orbit_via_preimages(
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
    # z^2 has a zero Jacobian at its critical point z = 0: the lane retires
    # with None; a seed that already solves comes back as the same point
    f = cat.blaschke_product([0.0, 0.0])
    target = orb.radial_anchor(e1, 2.0, 3)
    critical = geo.boundary_adapted_point(e1.coords, 1.0)
    assert assert_adapted_matches_reference(f, target, critical) is None
    pre = orb.newton_preimage(f, target,
                              geo.boundary_adapted_point(e1.coords, 0.5))
    assert orb._newton_adapted(f, target, pre, 1e-12, 100) is pre
    assert reference_newton_adapted(f, target, pre, 1e-12, 100) is pre


def test_newton_seed_with_another_reference(disc_auto, e1):
    # the seed's coordinates are 0.5 against -1 as against +1: the solve
    # takes the seed to the target's reference instead of mixing defects
    target = orb.radial_anchor(e1, 3.0, 30)
    pre = orb.newton_preimage(disc_auto, target,
                              geo.boundary_adapted_point([-1.0], 1.5))
    alike = orb.newton_preimage(disc_auto, target, geo.ball_point([0.5]))
    assert _point_bytes(pre) == _point_bytes(alike)
    img = cat.step_point(disc_auto, pre)
    assert abs(img.delta - target.delta) < 1e-12 * abs(target.delta)


@pytest.fixture(scope="module")
def c06_march(cleared_blaschke, blaschke_orbit):
    """Criterion 06's preimage march."""
    cleared, _ = cleared_blaschke
    return orb.offset_preimage_orbit(cleared, blaschke_orbit.orbit, 3.0, 0.05)


def test_newton_lanes_match_per_seed_solves(cleared_blaschke, c06_march):
    # the march solves the grid at its first 8 targets; at depth 26 some
    # lanes and at depth 40 all lanes stall at the sphere and return None
    cleared, _ = cleared_blaschke
    pts = c06_march.orbit.points
    nones = []
    for p in pts[:8] + (pts[26], pts[40]):
        lanes = assert_lanes_match_reference(cleared, p.coords,
                                             orb._grid_seeds(1))
        nones.append(sum(z is None for z in lanes))
    assert nones[:8] == [0] * 8 and 0 < nones[8] < 32 and nones[9] == 32


def test_newton_lanes_match_per_seed_solves_q2(e1_q2):
    wp = cat.warped_product(cat.blaschke_product([0.0, 0.2]), 0.3 + 0.4j, q=2)
    march = orb.backward_orbit_via_preimages(wp, geo.ball_point([0.2, 0.02]),
                                             e1_q2, 3, lam_hint=2.5)
    for p in march.orbit.points[:-1]:
        assert_lanes_match_reference(wp, p.coords, orb._grid_seeds(2))


def test_newton_lanes_match_per_seed_solves_complex_centre():
    # a q = 1 automorphism with a complex centre: its batched Jacobian
    # rows must round as the single-point ones
    f = cat.hyperbolic_selfmap(geo.boundary_point([np.exp(0.5j)]), 3.0)
    lanes = assert_lanes_match_reference(f, np.array([0.3 - 0.5j]),
                                         orb._grid_seeds(1))
    assert all(z is not None for z in lanes)


def test_newton_singular_lane_retires_alone():
    # z^2 = 1/4: the seed 0 has a zero Jacobian, the seed 0.4 converges
    f = cat.blaschke_product([0.0, 0.0])
    lanes = assert_lanes_match_reference(f, np.array([0.25 + 0j]),
                                         [[0.0], [0.4]], max_iter=100)
    assert lanes[0] is None
    assert lanes[1][0] == pytest.approx(0.5, abs=1e-12)


def test_march_solves_its_grid_in_one_call(cleared_blaschke, blaschke_orbit,
                                          monkeypatch):
    # one batched grid solve for the first 8 backward steps, 8 x 32 lanes:
    # the adapted solve gives the candidate on every step, so the walk
    # ahead reaches step 8 and every step takes its walked grid solutions
    calls = []
    newton = orb._newton_coords
    monkeypatch.setattr(orb, "_newton_coords",
                        lambda *args: calls.append(len(args[2]))
                        or newton(*args))
    cleared, _ = cleared_blaschke
    orb.offset_preimage_orbit(cleared, blaschke_orbit.orbit, 3.0, 0.05)
    assert calls == [256]


def test_march_probes_adapted_stepping_once(cleared_blaschke, blaschke_orbit,
                                            monkeypatch):
    # criterion 06's march asks whether the map steps adapted once for its
    # one reference (the rest are the adapted solves' steps), and builds
    # points only for grid solutions no earlier candidate holds
    calls = count_calls(monkeypatch, (cat, "adapted_step"),
                        (geo, "ball_point"))
    cleared, _ = cleared_blaschke
    orb.offset_preimage_orbit(cleared, blaschke_orbit.orbit, 3.0, 0.05)
    assert calls["adapted_step"] == 113
    assert calls["ball_point"] <= 11


@pytest.mark.parametrize("run", ["criterion_06", "compare"])
def test_march_seeds_from_the_scored_step(run, cleared_blaschke,
                                          blaschke_orbit, monkeypatch):
    """Each adapted solve after the first is seeded with lam_guess =
    max(exp(kob_dist(previous, current)), 1.01), as bytes: the distance the
    march scored its winner with is that step."""
    solves, marches = [], []
    newton, march = orb.newton_preimage, orb.backward_orbit_via_preimages

    def record_solve(f, target, seed, *args):
        solves.append((target, seed))
        return newton(f, target, seed, *args)

    def record_march(*args, **kwargs):
        marches.append((kwargs["lam_hint"], march(*args, **kwargs)))
        return marches[-1][1]

    monkeypatch.setattr(orb, "newton_preimage", record_solve)
    monkeypatch.setattr(orb, "backward_orbit_via_preimages", record_march)
    if run == "compare":
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["compare", "blaschke:a=1/3", "--zeta", "1",
                             "--offset", "0.05"]) == 0
    else:
        cleared, _ = cleared_blaschke
        orb.offset_preimage_orbit(cleared, blaschke_orbit.orbit, 3.0, 0.05)
    (lam_hint, res), = marches
    pts = res.orbit.points
    assert len(solves) == len(pts) - 1
    for i, (target, seed) in enumerate(solves):
        assert target is pts[i]
        lam = lam_hint if i == 0 else max(
            float(np.exp(geo.kob_dist(pts[i - 1], pts[i]))), 1.01)
        assert np.complex128(seed.delta).tobytes() == np.complex128(
            pts[i].delta / lam).tobytes()


def reference_march(f, z0, zeta, n_steps, lam_hint=None):
    """`backward_orbit_via_preimages` as a step-by-step loop, each step
    solving its own adapted candidate and its own grid; the points."""
    grid = orb._grid_seeds(f.q)
    cur = z0 if z0.ref is not None else geo.with_reference(z0, zeta)
    pts = [cur]
    lam_guess = lam_hint if lam_hint is not None else 3.0
    adapted = {}   # ref bytes -> whether f steps adapted there
    for step_idx in range(n_steps):
        uniq = []
        key = cur.ref.tobytes()
        if key not in adapted:
            adapted[key] = cat.adapted_step(f, cur) is not None
        if adapted[key]:
            try:
                seed = geo.boundary_adapted_point(
                    cur.ref, cur.delta / lam_guess, tail=cur.tail())
                uniq.append(orb.newton_preimage(f, cur, seed))
            except (NumericalError, DomainError):
                pass
        if not uniq or step_idx < 8:
            kept = [c.coords for c in uniq]
            for out in orb._newton_coords(f, cur.coords, grid, 1e-12, 60):
                if out is not None and all(np.linalg.norm(out - u) > 1e-8
                                           for u in kept):
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
        if nxt.ref is None:
            nxt = geo.with_reference(nxt, zeta)
            step = geo.kob_dist(cur, nxt)
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


def _march_outcome(march, args, kwargs):
    """Each point's coordinates, reference, delta, margin and tail as bytes,
    or the type and message of what the march raised."""
    try:
        pts = march(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return [_point_bytes(p) + (p.tail().tobytes(),) for p in pts]


def _c06_args(monkeypatch, cleared_blaschke, blaschke_orbit, offset):
    cleared, _ = cleared_blaschke
    return _march_args(monkeypatch, lambda: orb.offset_preimage_orbit(
        cleared, blaschke_orbit.orbit, 3.0, offset))


def _compare_args(monkeypatch, argv):
    return _march_args(monkeypatch, lambda: cli.main(["compare", *argv]))


GOLDEN = Path(__file__).parent / "golden"
MARCHES = {
    **{f"c06_{offset}": offset for offset in (0.02, 0.05, 0.1, 0.3)},
    "warped_q2": [str(GOLDEN / "warped.ini"), "--zeta=1,0;0,0"],
    "conjugate": [str(GOLDEN / "conjugate.ini"), "--zeta=1"],
    "hyperbolic_offaxis": ["hyperbolic:lam=3,zeta=0.6,0;0,0.8",
                           "--zeta=0.6,0;0,0.8", "--offset", "0.05"],
    "unhinted": None,
}


@pytest.mark.parametrize("name", MARCHES)
def test_march_matches_reference_march(name, cleared_blaschke, blaschke_orbit,
                                       e1, monkeypatch):
    """The march with its walk ahead and one grid solve gives every point
    of the step-by-step march as bytes."""
    case = MARCHES[name]
    if name == "unhinted":
        x0 = blaschke_orbit.orbit.points[0]
        args, kwargs = (cleared_blaschke[0], geo.ball_point(
            [x0.coords[0].real + 0.02]), e1, 20), {}
    elif isinstance(case, float):
        args, kwargs = _c06_args(monkeypatch, cleared_blaschke,
                                 blaschke_orbit, case)
    else:
        args, kwargs = _compare_args(monkeypatch, case)
    out = _march_outcome(lambda *a, **k: orb.backward_orbit_via_preimages(
        *a, **k).orbit.points, args, kwargs)
    ref = _march_outcome(reference_march, args, kwargs)
    assert isinstance(ref, list) and len(ref) == args[3] + 1
    assert out == ref


@pytest.mark.parametrize("upset, at", [("raise", 0), ("raise", 3),
                                       ("raise", 7), ("stray", 3),
                                       ("distance", None)])
def test_march_matches_reference_when_the_walk_goes_astray(
        upset, at, cleared_blaschke, blaschke_orbit, e1, monkeypatch):
    """Criterion 06's march, upset so that the walk ahead and the march part:
    - raise: `newton_preimage` raises at step `at`, so the walk stops there
      and the march takes that step and the next ones itself;
    - stray: at step `at` the adapted solve gives the origin, a candidate
      the grid's preimage beats, so the march leaves the walked points;
      the walk's one-pair distance to the origin is made the winner's
      scored distance, so the next walked lam_guess is the march's own;
    - distance: a one-pair `kob_dist` is off by 1e-9, so each walked
      lam_guess differs from the one the march scores.
    Every point still equals the step-by-step march's, as bytes.  The
    step-by-step march runs first, and its scored distance stands in."""
    args, kwargs = _c06_args(monkeypatch, cleared_blaschke, blaschke_orbit,
                             0.05)
    newton, dist = orb.newton_preimage, geo.kob_dist
    origin = geo.with_reference(geo.ball_point([0.0]), e1)
    scored = []   # the distances the march scores its winner at `at` with

    def run(march):
        targets = []   # the distinct targets in the order they are asked

        def upset_solve(f, target, seed):
            step = next((i for i, t in enumerate(targets) if t is target),
                        len(targets))
            if step == len(targets):
                targets.append(target)
            if step == at and upset == "raise":
                raise NumericalError("no preimage found near the seed")
            return origin if step == at else newton(f, target, seed)

        def upset_dist(z, w):
            if upset == "distance":
                d = dist(z, w)
                return d + 1e-9 if isinstance(z, geo.BallPoint) else d
            if w is origin:   # the walk measures its step to the stray
                return scored[0]
            d = dist(z, w)
            if isinstance(w, list) and any(p is origin for p in w):
                scored.extend(x for x, p in zip(d, w) if p is not origin)
            return d

        monkeypatch.setattr(orb, "newton_preimage", upset_solve)
        if upset != "raise":
            monkeypatch.setattr(geo, "kob_dist", upset_dist)
        try:
            return _march_outcome(march, args, kwargs)
        finally:
            monkeypatch.undo()

    ref = run(reference_march)
    out = run(lambda *a, **k: orb.backward_orbit_via_preimages(
        *a, **k).orbit.points)
    assert isinstance(ref, list) and len(ref) == args[3] + 1
    assert out == ref


def test_newton_lanes_take_a_target_each(cleared_blaschke, c06_march,
                                         monkeypatch):
    """One call with a target per lane gives, as bytes, what one call per
    target gives: criterion 06's first 8 march targets and two deep ones
    whose lanes stall (None), x 32 grid seeds; the q = 2 warped march's
    first 8 targets x 64 grid seeds."""
    cleared, _ = cleared_blaschke
    pts = c06_march.orbit.points
    args, kwargs = _compare_args(
        monkeypatch, [str(GOLDEN / "warped.ini"), "--zeta=1,0;0,0"])
    warped = orb.backward_orbit_via_preimages(*args, **kwargs)
    nones = 0
    for f, targets in ((cleared, pts[:8] + (pts[26], pts[40])),
                       (args[0], warped.orbit.points[:8])):
        grid = orb._grid_seeds(f.q)
        coords = np.array([p.coords for p in targets])
        lanes = orb._newton_coords(f, coords.repeat(len(grid), 0),
                                   np.tile(grid, (len(targets), 1)), 1e-12, 60)
        alone = [z for w in coords
                 for z in orb._newton_coords(f, w, grid, 1e-12, 60)]
        assert len(lanes) == len(alone) == len(targets) * len(grid)
        assert [z is None for z in lanes] == [z is None for z in alone]
        assert all(z.tobytes() == r.tobytes()
                   for z, r in zip(lanes, alone) if r is not None)
        nones += sum(z is None for z in lanes)
    assert nones > 32


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
    pre = orb.newton_preimage(wp, target, seed)
    img = cat.step_point(wp, pre)
    assert abs(img.delta - target.delta) / abs(target.delta) < 1e-10


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
    assert b3.boundary_fixed[0][1] == pytest.approx(lam)
    assert b3.boundary_fixed[1][1] == pytest.approx(lam)
    plus = geo.basis_boundary_point(1)
    minus = geo.boundary_point([-1.0])
    cleared, _ = cat.ensure_pole_clearance(b3, plus)
    r = orb.backward_orbit_via_preimages(cleared, geo.ball_point([0.8]),
                                         plus, 12, lam_hint=lam)
    assert r.dist_zeta[-1] < 1e-5
    cleared_m, _ = cat.ensure_pole_clearance(b3, minus)
    r_m = orb.backward_orbit_via_preimages(cleared_m, geo.ball_point([-0.8]),
                                           minus, 12, lam_hint=lam)
    assert r_m.dist_zeta[-1] < 1e-5


# ---------------------------------------------------------------------------
# bilateral extension and CSV
# ---------------------------------------------------------------------------

def test_extend_to_bilateral_seam(blaschke_orbit, cleared_blaschke):
    cleared, _ = cleared_blaschke
    bil = orb.extend_to_bilateral(blaschke_orbit.orbit, cleared)
    assert bil.base_index < 0
    j0 = -bil.base_index
    x0, x1 = bil.points[j0], bil.points[j0 + 1]
    xm1 = bil.points[j0 - 1]
    # f(x_1) = x_0 and x_{-1} = f(x_0) both hold across the seam
    assert np.linalg.norm(cat.step_point(cleared, x1).coords
                          - x0.coords) == 0.0
    assert np.linalg.norm(cat.step_point(cleared, x0).coords
                          - xm1.coords) == 0.0
    # forward extension approaches the interior fixed witness -tanh(0.1)
    assert abs(bil.points[0].coords[0] + np.tanh(0.1)) < 1e-6


def test_orbit_csv_format(blaschke_orbit):
    text = orb.orbit_csv(blaschke_orbit.orbit)
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
    rows = orb.orbit_csv(blaschke_orbit.orbit).strip().splitlines()
    step_col = [r.split(",")[4] for r in rows[1:]]
    assert float(step_col[-2]) == pytest.approx(LOG3, abs=1e-3)
    assert step_col[-1] == "nan"
