"""Unit-ball geometry: distances, horofunctions, regions, automorphisms."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballorbits import geometry as geo
from ballorbits import sampling
from ballorbits.errors import DimensionMismatch, DomainError

from conftest import random_interior

LOG3 = np.log(3.0)


def bp(*coords):
    return geo.ball_point(np.array(coords, dtype=complex))


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def test_ball_point_rejects_boundary():
    with pytest.raises(DomainError):
        geo.ball_point([1.0 - 1e-15])
    with pytest.raises(DomainError):
        geo.ball_point([1.2])


def test_boundary_point_needs_unit_norm():
    geo.boundary_point([1.0])
    geo.boundary_point([0.6, 0.8])
    with pytest.raises(DomainError):
        geo.boundary_point([0.5])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        geo.kob_dist(bp(0.1), bp(0.1, 0.0))


def test_adapted_point_roundtrip(e1):
    p = geo.boundary_adapted_point(e1.coords, 1e-30)
    assert p.margin == pytest.approx(2e-30, rel=1e-12)
    assert geo.horofunction(p, e1) == pytest.approx(np.log(1e-60 / 2e-30),
                                                    abs=1e-12)


def test_adapted_point_refuses_a_tail_along_ref():
    # such a tail would be taken as orthogonal: this one gave |coords| = 1.2
    # with margin 0.1 and horofunction -2.30
    ref = np.exp(0.5j)
    with pytest.raises(DomainError, match="orthogonal"):
        geo.boundary_adapted_point([ref], 0.1, tail=[0.3 * ref])
    with pytest.raises(DomainError, match="orthogonal"):
        geo.boundary_adapted_point([1.0, 0.0], 0.1, tail=[1e-11, 0.2])
    p = geo.boundary_adapted_point([1.0, 0.0], 0.1, tail=[1e-13, 0.2])
    assert p.tail()[0] == 1e-13


# ---------------------------------------------------------------------------
# Kobayashi distance
# ---------------------------------------------------------------------------

def test_kob_dist_examples():
    assert geo.kob_dist(bp(0), bp(0)) == 0.0
    assert geo.kob_dist(bp(0, 0), bp(0.5, 0)) == pytest.approx(np.log(3),
                                                               abs=1e-14)
    # additivity along the geodesic through 0: twice the radial value
    assert geo.kob_dist(bp(0.5), bp(-0.5)) == pytest.approx(np.log(9),
                                                            abs=1e-13)


def test_kob_dist_symmetry_and_zero(rng):
    for _ in range(200):
        z = random_interior(rng, 2)
        w = random_interior(rng, 2)
        d = geo.kob_dist(z, w)
        assert d == pytest.approx(geo.kob_dist(w, z), abs=1e-12)
        assert d >= 0.0
    z = random_interior(rng, 2)
    assert geo.kob_dist(z, z) == 0.0


def test_triangle_inequality_bulk(rng):
    # slack >= -1e-12 on 10^4 random triples
    triples = []
    for _ in range(10000):
        v = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        v *= (rng.uniform(0.05, 0.9, size=3)
              / np.linalg.norm(v, axis=1))[:, None]
        triples.append([geo.ball_point(x) for x in v])
    a, b, c = zip(*triples)
    slack = geo.kob_dist(a, b) + geo.kob_dist(b, c) - geo.kob_dist(a, c)
    assert slack.min() >= -1e-12


@st.composite
def disc_points(draw, r_max=0.9):
    r = draw(st.floats(0.0, r_max))
    t = draw(st.floats(0.0, 2 * np.pi))
    return geo.ball_point([r * np.exp(1j * t)])


@given(disc_points(), disc_points(), disc_points())
@settings(max_examples=80, deadline=None)
def test_triangle_inequality_property(a, b, c):
    assert (geo.kob_dist(a, b) + geo.kob_dist(b, c)
            >= geo.kob_dist(a, c) - 1e-12)


@given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
@settings(max_examples=80, deadline=None)
def test_geodesic_additivity_property(s, t):
    e1 = geo.basis_boundary_point(1)
    d = geo.kob_dist(geo.geodesic_point(e1, s), geo.geodesic_point(e1, t))
    assert d == pytest.approx(abs(s - t), abs=3e-7)


@given(disc_points(r_max=0.7), disc_points(), disc_points())
@settings(max_examples=80, deadline=None)
def test_involution_isometry_property(a, z, w):
    phi = geo.mobius_involution(a)
    assert abs(geo.kob_dist(geo.apply(phi, z), geo.apply(phi, w))
               - geo.kob_dist(z, w)) < 1e-10


def test_kob_matrix_resolves_close_pairs(e1_q2):
    # margins far from 0 and a pair 2e-8 apart: the defect quotient rounds
    # to 1, so the pair must take kob_dist's involution path, not read 0
    z = geo.with_reference(bp(0.3 + 0.1j, 0.2), e1_q2)
    w = geo.with_reference(bp(0.3 + 0.1j + 2e-8, 0.2), e1_q2)
    d = geo.kob_dist(z, w)
    assert d == pytest.approx(4.557e-8, rel=1e-3)
    assert geo.kob_matrix([z], [w])[0, 0] == d


def test_kob_matrix_matches_kob_dist(rng, e1_q2):
    other = geo.boundary_point([0.6, 0.8j])
    pts = []
    for i in range(12):
        p = random_interior(rng, 2)
        pts.append(p if i % 3 == 0 else
                   geo.with_reference(p, e1_q2 if i % 3 == 1 else other))
    # a deep point, and a repeated point: a collapsed pair off the sphere
    pts.append(geo.geodesic_point(e1_q2, 12.0))
    pts.append(pts[1])
    dmat = geo.kob_matrix(pts, pts)
    for i, z in enumerate(pts):
        for j, w in enumerate(pts):
            assert dmat[i, j] == pytest.approx(geo.kob_dist(z, w), rel=1e-12,
                                               abs=1e-15)
    # a batch of tube samples on e_1 gives what its points give, pair for pair
    batch = sampling.tube_samples(e1_q2, 1.0, s_values=np.arange(0.5, 8.0),
                                  n_angles=6)
    as_points = [batch.point(i) for i in range(len(batch))]
    assert np.array_equal(geo.kob_matrix(batch, pts),
                          geo.kob_matrix(as_points, pts))
    assert np.array_equal(geo.kob_matrix(pts, batch),
                          geo.kob_matrix(pts, as_points))


def test_kob_dist_of_a_point_with_itself_is_zero(e1, e1_q2):
    # both margins >= 1e-6 send the collapsed pair to the involution, whose
    # roundoff (about 1e-16 / margin) was 1.8e-10 at gamma(15)
    for s in range(41):
        assert geo.kob_dist(geo.geodesic_point(e1, s),
                            geo.geodesic_point(e1, s)) == 0.0
    e2 = geo.basis_boundary_point(2, 1)
    pts = [geo.geodesic_point(e1_q2, float(s)) for s in range(41)]
    pts.append(geo.with_reference(bp(0.3 + 0.1j, 0.2), e2))
    for p in pts:
        assert geo.kob_dist(p, p) == 0.0
    assert np.all(geo.kob_dist(pts, pts) == 0.0)
    # deep axis points and a point at e_2 share no reference, and the
    # saturated axis points cannot centre the involution: one matrix each
    assert np.all(np.diag(geo.kob_matrix(pts[:-1], pts[:-1])) == 0.0)
    assert geo.kob_matrix(pts[-1:], pts[-1:])[0, 0] == 0.0


def test_kob_dist_sequences(e1_q2):
    pts = [geo.geodesic_point(e1_q2, float(s)) for s in range(6)]
    out = geo.kob_dist(pts[:-1], pts[1:])
    assert isinstance(out, np.ndarray) and out.shape == (5,)
    assert out.tolist() == [geo.kob_dist(z, w) for z, w in zip(pts, pts[1:])]
    assert geo.kob_dist([], []).shape == (0,)
    with pytest.raises(DimensionMismatch):
        geo.kob_dist(pts[:2], pts[:3])
    with pytest.raises(DimensionMismatch):
        geo.kob_dist(pts[:1], [bp(0.1)])
    # an involution lane whose centre has left the ball fails as
    # mobius_shift does, in a sequence as for one pair
    on_sphere = geo.BallPoint(coords=np.array([1.0, 0.0], dtype=complex),
                              margin=1e-20)
    with pytest.raises(DomainError):
        geo.kob_dist(on_sphere, pts[1])
    with pytest.raises(DomainError):
        geo.kob_dist([pts[1], on_sphere], [pts[2], pts[1]])


def test_kob_dist_alike_in_every_layout(rng):
    # one pair gives the same bits alone, in a sequence and in a matrix,
    # on shared-reference and coordinate-only lanes, and on deep adapted
    # points, whose stored tails a lane takes in lists of mixed references
    ref = geo.boundary_point([0.6, 0.48j, 0.64])
    pts = [random_interior(rng, 3, scale=0.97) for _ in range(200)]
    pts = [p if i % 3 == 0 else geo.with_reference(p, ref)
           for i, p in enumerate(pts)]
    pts = [geo.boundary_adapted_point(ref.coords, 1e-6 * p.delta,
                                      tail=1e-3 * p.tail())
           if i % 3 == 2 else p for i, p in enumerate(pts)]
    z, w = pts[:100], pts[100:]
    alone = [geo.kob_dist(a, b) for a, b in zip(z, w)]
    assert geo.kob_dist(z, w).tolist() == alone
    dmat = geo.kob_matrix(z, w)
    assert np.diag(dmat).tolist() == alone
    assert dmat[:10, 50:60].tolist() == [[geo.kob_dist(a, b) for b in w[50:60]]
                                         for a in z[:10]]


def test_kob_dist_mpmath_oracle(rng, e1_q2):
    """kob_dist against the 50-digit distance on every lane of the kernel,
    pair by pair and as one sequence call, which agree bit for bit."""
    mp = mpmath.mp
    mp.dps = 50
    e2 = geo.basis_boundary_point(2, 1)
    other = geo.boundary_point([0.6, 0.8j])

    def oracle(z, w):
        # z, w: (mpc coordinates, 1 - |z|^2)
        (zc, mz), (wc, mw) = z, w
        n = 1 - sum(x * mp.conj(y) for x, y in zip(zc, wc))
        return 2 * mp.atanh(mp.sqrt(1 - mz * mw / abs(n) ** 2))

    def from_coords(p):
        z = [mp.mpc(c) for c in p.coords]
        return z, 1 - sum(abs(x) ** 2 for x in z)

    def adapted(delta, tail):
        # the point (tail, 1 - delta) in defect form at e_2, given its
        # margin rounded from the exact value
        d, t = mp.mpc(delta), mp.mpc(tail)
        m = 2 * d.real - abs(d) ** 2 - abs(t) ** 2
        p = geo.boundary_adapted_point(e2.coords, delta, tail=[tail, 0.0],
                                       margin=float(m))
        return p, ([t, 1 - d], m)

    def interior(scale, ref=None):
        p = random_interior(rng, 2, scale=scale)
        return (p if ref is None else geo.with_reference(p, ref)), \
            from_coords(p)

    def near_minus_ref(eps, turn=0.0):
        return adapted(2.0 - eps + 0.3j * eps * rng.uniform(-1.0, 1.0),
                       0.3 * np.sqrt(eps) * np.exp(2j * np.pi * turn))

    def close_pair():
        # 1e-8 apart off the sphere: the defect quotient rounds to 1 and the
        # margins (>= 0.19) send the pair to the involution
        p = random_interior(rng, 2, scale=0.9)
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = geo.ball_point(p.coords + 1e-8 * u / np.linalg.norm(u))
        return [(geo.with_reference(p, e2), from_coords(p)),
                (geo.with_reference(w, e2), from_coords(w))]

    cases = {"deep": [], "moderate": [], "mixed": [], "minus_ref": [],
             "cancel": [], "close": []}
    for e in range(2, 17):   # the defect lane down to |delta| = 1e-16
        for _ in range(3):
            pair = []
            for depth in (e, e + rng.uniform(-1.0, 2.0)):
                delta = 10.0 ** (-depth) * np.exp(1j * rng.uniform(-1.2, 1.2))
                pair.append(adapted(delta, 0.5 * np.sqrt(delta.real)
                                 * np.exp(2j * np.pi * rng.uniform())))
            cases["deep"].append(pair)
    for _ in range(30):      # the defect lane off the sphere
        cases["moderate"].append([interior(0.95, e2), interior(0.95, e2)])
    for i in range(30):      # the involution: no shared reference
        refs = (e2, other, None)
        cases["mixed"].append([interior(0.95, refs[i % 3]),
                               interior(0.95, refs[(i // 3) % 3])])
    for _ in range(4):       # the involution's far branch, rho >= 0.95
        p = random_interior(rng, 2, scale=1.0 - 1e-3)
        antipode = geo.ball_point(-p.coords)
        cases["mixed"].append([(p, from_coords(p)),
                               (antipode, from_coords(antipode))])
    for _ in range(20):      # the defect lane near -e_2, partly cancelling
        turn = rng.uniform()
        cases["minus_ref"].append([
            near_minus_ref(10.0 ** rng.uniform(-2.0, -1.0), turn + t)
            for t in (0.0, 0.5)])
    for eps in (1e-6, 3e-7, 1e-7):   # an expansion that cancels: involution
        turn = rng.uniform()
        cases["cancel"].append([near_minus_ref(eps, turn),
                                near_minus_ref(eps * rng.uniform(0.5, 2.0),
                                               turn + 0.1)])
    for _ in range(20):
        cases["close"].append(close_pair())
    tolerance = {"deep": (1e-12, 0.0), "moderate": (1e-12, 0.0),
                 "mixed": (1e-12, 0.0), "minus_ref": (1e-12, 0.0),
                 "close": (0.0, 1e-15)}
    for name, pairs in cases.items():
        zs = [z for (z, _), _ in pairs]
        ws = [w for _, (w, _) in pairs]
        one_call = geo.kob_dist(zs, ws)
        for ((z, z_mp), (w, w_mp)), d_seq in zip(pairs, one_call):
            d = geo.kob_dist(z, w)
            assert d == d_seq, name
            truth = float(oracle(z_mp, w_mp))
            if name == "cancel":
                # coordinates this close to the sphere resolve the distance
                # to about 1e-16 / margin, and the involution reads them
                rel, abs_ = 0.0, 1e-15 / min(z.margin, w.margin)
            else:
                rel, abs_ = tolerance[name]
            assert abs(d - truth) <= rel * truth + abs_, (name, d, truth)
    # a PointBatch is a sequence too
    deep_z = [z for (z, _), _ in cases["deep"]]
    deep_w = [w for _, (w, _) in cases["deep"]]
    batch = geo.PointBatch(ref=e2.coords,
                           delta=np.array([p.delta for p in deep_z]),
                           tail=np.array([p.tail() for p in deep_z]),
                           margin=np.array([p.margin for p in deep_z]))
    assert np.array_equal(geo.kob_dist(batch, deep_w),
                          geo.kob_dist(deep_z, deep_w))


# ---------------------------------------------------------------------------
# involutions and automorphisms
# ---------------------------------------------------------------------------

def test_mobius_involution_swaps(rng):
    for _ in range(50):
        a = random_interior(rng, 3, scale=0.8)
        phi = geo.mobius_involution(a)
        assert np.linalg.norm(geo.apply_raw(phi, a.coords)) < 1e-13
        back = geo.apply_raw(phi, np.zeros(3, dtype=complex))
        assert np.linalg.norm(back - a.coords) < 1e-13


def test_mobius_involution_is_involutive(rng):
    for _ in range(50):
        a = random_interior(rng, 2, scale=0.8)
        z = random_interior(rng, 2)
        phi = geo.mobius_involution(a)
        zz = geo.apply_raw(phi, geo.apply_raw(phi, z.coords))
        assert np.linalg.norm(zz - z.coords) < 1e-12


def test_mobius_involution_at_zero_is_antipodal():
    # phi_0 = -id, the continuous limit of the family (the swap conditions
    # hold trivially at a = 0 either way)
    phi = geo.mobius_involution(bp(0, 0))
    z = np.array([0.3 + 0.1j, -0.2j])
    assert np.linalg.norm(geo.apply_raw(phi, z) + z) < 1e-15


def test_involution_is_isometry(rng):
    for _ in range(100):
        a = random_interior(rng, 2, scale=0.7)
        z = random_interior(rng, 2)
        w = random_interior(rng, 2)
        phi = geo.mobius_involution(a)
        d0 = geo.kob_dist(z, w)
        d1 = geo.kob_dist(geo.apply(phi, z), geo.apply(phi, w))
        assert abs(d0 - d1) < 1e-10


def _random_automorphism(rng, q):
    a = random_interior(rng, q, scale=0.7)
    m = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    u = geo.project_unitary(m)
    return geo.compose(geo.unitary_automorphism(u), geo.mobius_involution(a))


def test_automorphism_normal_form_invariants(rng):
    for _ in range(20):
        g = _random_automorphism(rng, 3)
        q = 3
        assert np.abs(g.unitary.conj().T @ g.unitary
                      - np.eye(q)).max() < 1e-12
        z = random_interior(rng, q)
        w = random_interior(rng, q)
        assert abs(geo.kob_dist(geo.apply(g, z), geo.apply(g, w))
                   - geo.kob_dist(z, w)) < 1e-10


def test_automorphism_inverse_and_compose(rng):
    for _ in range(20):
        g = _random_automorphism(rng, 2)
        h = _random_automorphism(rng, 2)
        z = random_interior(rng, 2)
        gi = geo.inverse(g)
        assert np.linalg.norm(
            geo.apply_raw(gi, geo.apply_raw(g, z.coords)) - z.coords) < 1e-12
        gh = geo.compose(g, h)
        direct = geo.apply_raw(g, geo.apply_raw(h, z.coords))
        assert np.linalg.norm(geo.apply_raw(gh, z.coords) - direct) < 1e-12


def test_identity_automorphism():
    g = geo.identity_automorphism(2)
    z = np.array([0.2 + 0.3j, -0.1j])
    assert np.linalg.norm(geo.apply_raw(g, z) - z) < 1e-15


# ---------------------------------------------------------------------------
# horofunction and horospheres
# ---------------------------------------------------------------------------

def test_horofunction_examples(e1, e1_q2):
    assert geo.horofunction(bp(0), e1) == 0.0
    assert geo.horofunction(bp(0.5), e1) == pytest.approx(-np.log(3),
                                                          abs=1e-14)
    # direct evaluation of the closed formula at (0, 0.5)
    assert geo.horofunction(bp(0, 0.5), e1_q2) == pytest.approx(
        np.log(4.0 / 3.0), abs=1e-14)


def test_horofunction_matches_limit_form(rng, e1_q2):
    # the two defining formulas agree within 1e-10 on 10^4 random points,
    # the limit form truncated along the radius at s = 30
    worst = 0.0
    for _ in range(10000):
        z = random_interior(rng, 2)
        worst = max(worst, abs(geo.horofunction(z, e1_q2)
                               - geo.horofunction_limit(z, e1_q2, s=30.0)))
    assert worst < 1e-10


def test_horosphere_membership(e1):
    # anchors lie on the horosphere boundary
    for k in (1, 2, 5):
        r = geo.geodesic_point(e1, k * LOG3)
        sphere = geo.Horosphere(center=e1, radius=3.0 ** (-k))
        inside, margin = geo.horosphere_contains(r, sphere)
        assert abs(margin) < 1e-12
    # the origin lies on the boundary of the unit horosphere
    _, m0 = geo.horosphere_contains(bp(0), geo.Horosphere(e1, 1.0))
    assert abs(m0) < 1e-14
    # (-0.3, 0) lies outside: horofunction = log(1.69/0.91) > 0
    inside, margin = geo.horosphere_contains(bp(-0.3),
                                             geo.Horosphere(e1, 1.0))
    assert not inside
    assert margin == pytest.approx(-np.log(1.69 / 0.91), abs=1e-12)


def test_koranyi_functional(e1):
    # radial points cancel exactly: inside every K(zeta, M)
    for s in (0.5, 2.0, 9.0):
        z = geo.geodesic_point(e1, s)
        assert abs(geo.koranyi_functional(z, e1)) < 1e-12
        for amp in (1.0001, 2.0, 10.0):
            inside, _ = geo.koranyi_contains(
                z, geo.KoranyiRegion(vertex=e1, amplitude=amp))
            assert inside
    assert abs(geo.koranyi_functional(bp(0), e1)) < 1e-14


def test_koranyi_amplitude_validation(e1):
    with pytest.raises(DomainError):
        geo.KoranyiRegion(vertex=e1, amplitude=1.0)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def test_geodesic_point_values(e1):
    assert np.linalg.norm(geo.geodesic_point(e1, 0.0).coords) == 0.0
    # solving log((1+r)/(1-r)) = log 3 gives r = 1/2
    g = geo.geodesic_point(e1, LOG3)
    assert g.coords[0] == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        geo.geodesic_point(e1, -0.5)


def test_geodesic_additivity(rng, e1):
    for _ in range(200):
        s, t = rng.uniform(0.0, 25.0, size=2)
        d = geo.kob_dist(geo.geodesic_point(e1, s), geo.geodesic_point(e1, t))
        assert d == pytest.approx(abs(s - t), abs=2e-7)


def test_horofunction_cocycle_on_axis(e1):
    for s in np.linspace(0.0, 40.0, 41):
        g = geo.geodesic_point(e1, float(s))
        assert geo.horofunction(g, e1) == pytest.approx(-s, abs=1e-11)
        assert geo.kob_dist_origin(g) == pytest.approx(s, abs=1e-11)


def test_dist_to_geodesic_on_axis(e1):
    d, s_star = geo.dist_to_geodesic(geo.geodesic_point(e1, 3.7), e1)
    assert d < 1e-6
    assert s_star == pytest.approx(3.7, abs=1e-4)


def test_dist_to_geodesic_against_grid_oracle(e1_q2):
    # independent oracle: dense grid over the geodesic parameter
    z = geo.ball_point([0.1 + 0.2j, 0.35 - 0.1j])
    axis = [geo.geodesic_point(e1_q2, float(s))
            for s in np.linspace(0.0, 8.0, 10000)]
    oracle = geo.kob_matrix([z], axis).min()
    d, s_star = geo.dist_to_geodesic(z, e1_q2)
    assert d <= oracle + 1e-9
    assert abs(d - oracle) < 1e-6


def test_dist_to_geodesic_monotone_off_axis(e1_q2):
    # for z = (0, t) the distance grows with t; grid oracle cross-check
    prev = -1.0
    axis = [geo.geodesic_point(e1_q2, float(s))
            for s in np.linspace(0.0, 6.0, 10000)]
    for t in (0.1, 0.3, 0.5, 0.7):
        z = geo.ball_point([0.0, t])
        d, _ = geo.dist_to_geodesic(z, e1_q2)
        oracle = geo.kob_matrix([z], axis).min()
        assert abs(d - oracle) < 1e-6
        assert d > prev
        prev = d


def test_dist_to_geodesic_exact_on_axis(e1, e1_q2):
    for zeta in (e1, e1_q2):
        for s in np.linspace(0.0, 40.0, 161):
            d, s_star = geo.dist_to_geodesic(geo.geodesic_point(zeta, s), zeta)
            assert d < 1e-12
            assert abs(s_star - s) < 1e-12


def test_dist_to_geodesic_transported_points(e1_q2):
    # u = tanh(w/2) e_2 is at distance w from 0, the foot of the axis on
    # e_2's complex line; translating by s along the axis moves the foot
    # to gamma(s)
    for w in (0.05, 0.3, 1.0, 2.5):
        u = sampling.adapted_at(e1_q2, np.array([0.0, np.tanh(w / 2.0)]))
        for s in (0.0, 0.5, 2.0, 5.0, 10.0, 20.0, 30.0, 38.0, 60.0):
            d, s_star = geo.dist_to_geodesic(
                sampling._axial_transport(e1_q2, s, u), e1_q2)
            assert d == pytest.approx(w, rel=1e-12)
            assert abs(s_star - s) < 1e-12
    # deeper, the same translate in closed form in u = e^{-s}
    for w in (0.05, 0.3, 1.0, 2.5):
        r = np.tanh(w / 2.0)
        for s in np.linspace(10.0, 40.0, 31):
            eu = np.exp(-s)
            p = geo.boundary_adapted_point(
                e1_q2.coords, 2.0 * eu / (1.0 + eu),
                tail=[0.0, 2.0 * np.sqrt(eu) * r / (1.0 + eu)],
                margin=4.0 * eu * (1.0 - r * r) / (1.0 + eu) ** 2)
            d, s_star = geo.dist_to_geodesic(p, e1_q2)
            assert d == pytest.approx(w, rel=1e-12)
            assert abs(s_star - s) < 1e-12


def test_dist_to_geodesic_mpmath_oracle(e1_q2):
    mp = mpmath.mp
    mp.dps = 50
    rng = np.random.default_rng(11)

    def oracle(z, zeta):
        # golden-section minimisation over s of the 50-digit distance from
        # the point with coordinates z (mpc) to gamma(s) = tanh(s/2) zeta
        a = sum(x * mp.conj(mp.mpc(y)) for x, y in zip(z, zeta))
        m = 1 - sum(abs(x) ** 2 for x in z)

        def dist(s):
            t = mp.tanh(s / 2)
            return 2 * mp.atanh(mp.sqrt(1 - m * (1 - t * t)
                                        / abs(1 - t * a) ** 2))

        lo, hi, g = mp.mpf(0), mp.mpf(60), (mp.sqrt(5) - 1) / 2
        for _ in range(240):
            c, d = hi - g * (hi - lo), lo + g * (hi - lo)
            lo, hi = (lo, d) if dist(c) < dist(d) else (c, hi)
        return dist((lo + hi) / 2), (lo + hi) / 2

    cases = []
    for _ in range(6):   # off-axis points against a random zeta
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = random_interior(rng, 2, scale=0.95)
        cases.append((z, geo.boundary_point(v / np.linalg.norm(v)),
                      [mp.mpc(c) for c in z.coords]))
    for e in (4, 8, 12, 16):   # deep off-axis points in defect form at e_1
        delta = 10.0 ** (-e) * np.exp(1j * rng.uniform(-1.2, 1.2))
        tail = 0.5 * np.sqrt(delta.real) * np.exp(2j * np.pi * rng.uniform())
        z = geo.boundary_adapted_point(e1_q2.coords, delta, tail=[0.0, tail])
        cases.append((z, e1_q2, [1 - mp.mpc(delta), mp.mpc(tail)]))
    for z, zeta, z_mp in cases:
        d, s_star = geo.dist_to_geodesic(z, zeta)
        d_mp, s_mp = oracle(z_mp, zeta.coords)
        assert d > 0.01
        assert abs(d - float(d_mp)) <= 1e-12 * d
        assert abs(s_star - float(s_mp)) <= 1e-10 * max(1.0, float(s_mp))


# ---------------------------------------------------------------------------
# boundary-fixing automorphisms
# ---------------------------------------------------------------------------

def test_hyperbolic_automorphism_disc(e1):
    # dilation 3 at +1 means (1+c)/(1-c) = 3, i.e. the map (z-1/2)/(1-z/2)
    g = geo.hyperbolic_automorphism(e1, 3.0)
    z = np.array([0.3 + 0.0j])
    expect = (0.3 - 0.5) / (1 - 0.3 * 0.5)
    assert abs(geo.apply_raw(g, z)[0] - expect) < 1e-14
    assert geo.fixes_boundary_point(g, e1)
    assert geo.fixes_boundary_point(g, geo.boundary_point([-1.0]))
    assert geo.automorphism_dilation(g, e1) == pytest.approx(3.0, abs=1e-14)
    # translation length along the axis
    origin = bp(0)
    assert geo.kob_dist(origin, geo.apply(g, origin)) == pytest.approx(
        LOG3, abs=1e-12)


def test_hyperbolic_near_identity(e1):
    g = geo.hyperbolic_automorphism(e1, 1.0 + 1e-12)
    z = np.array([0.4 + 0.2j])
    assert np.linalg.norm(geo.apply_raw(g, z) - z) < 1e-11


def test_hyperbolic_horosphere_shift(rng, e1):
    g = geo.hyperbolic_automorphism(e1, 3.0)
    for _ in range(100):
        z = random_interior(rng, 1)
        assert (geo.horofunction(geo.apply(g, z), e1)
                - geo.horofunction(z, e1)) == pytest.approx(LOG3, abs=1e-11)


def test_parabolic_automorphism(rng, e1_q2):
    g = geo.parabolic_automorphism(e1_q2, [0.3 - 0.2j], 0.7)
    assert geo.fixes_boundary_point(g, e1_q2)
    assert geo.automorphism_dilation(g, e1_q2) == pytest.approx(1.0,
                                                                abs=1e-12)
    for _ in range(50):
        z = random_interior(rng, 2)
        # horospheres at the fixed point are preserved
        assert geo.horofunction(geo.apply(g, z), e1_q2) == pytest.approx(
            geo.horofunction(z, e1_q2), abs=1e-10)
        w = random_interior(rng, 2)
        assert abs(geo.kob_dist(geo.apply(g, z), geo.apply(g, w))
                   - geo.kob_dist(z, w)) < 1e-10


def test_normalizing_automorphism_identity_case(e1_q2):
    g, mu = geo.normalizing_automorphism(bp(0, 0), e1_q2)
    assert mu == pytest.approx(1.0, abs=1e-14)
    z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    assert np.linalg.norm(geo.apply_raw(g, z) - z) < 1e-12


def test_normalizing_automorphism_radial_is_hyperbolic(rng, e1):
    s = 0.9
    a = geo.geodesic_point(e1, s)
    g, mu = geo.normalizing_automorphism(geo.ball_point(a.coords), e1)
    assert mu == pytest.approx(np.exp(s), rel=1e-12)
    h = geo.hyperbolic_automorphism(e1, np.exp(s))
    for _ in range(20):
        z = random_interior(rng, 1)
        assert np.linalg.norm(geo.apply_raw(g, z.coords)
                              - geo.apply_raw(h, z.coords)) < 1e-12


def test_normalizing_automorphism_general(rng, e1_q2):
    for _ in range(10):
        a = random_interior(rng, 2, scale=0.8)
        g, mu = geo.normalizing_automorphism(a, e1_q2)
        assert np.linalg.norm(geo.apply_raw(g, a.coords)) < 1e-10
        assert geo.fixes_boundary_point(g, e1_q2)
        assert mu == pytest.approx(np.exp(-geo.horofunction(a, e1_q2)),
                                   rel=1e-10)
        # radial-limit test of the boundary fixing
        probe = geo.apply(g, geo.geodesic_point(e1_q2, 20.0))
        assert geo.dist_to_zeta(probe, e1_q2) < 1e-6


def test_normalizing_automorphism_horosphere_image(rng, e1):
    # a in the closed unit horosphere but outside E_1 gives 1 <= mu < 3,
    # and g maps E_0-bar into E_{-1}-bar
    lam = 3.0
    a = geo.geodesic_point(e1, 0.4)   # horofunction -0.4 in (-log 3, 0]
    g, mu = geo.normalizing_automorphism(geo.ball_point(a.coords), e1)
    assert 1.0 <= mu < lam
    for _ in range(200):
        z = random_interior(rng, 1)
        if geo.horofunction(z, e1) <= 0.0:
            assert geo.horofunction(geo.apply(g, z), e1) <= np.log(lam) + 1e-10


def test_geodesic_tube_membership(e1_q2):
    tube = geo.GeodesicTube(target=e1_q2, width=0.5)
    on_axis = geo.geodesic_point(e1_q2, 2.0)
    inside, margin = geo.tube_contains(on_axis, tube)
    assert inside and margin == pytest.approx(0.5, abs=1e-5)
    far = geo.ball_point([0.0, 0.8])
    inside_far, margin_far = geo.tube_contains(far, tube)
    assert not inside_far and margin_far < 0.0
    with pytest.raises(DomainError):
        geo.GeodesicTube(target=e1_q2, width=0.0)


def test_unitary_taking(rng):
    for _ in range(30):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        r = geo.unitary_taking(u, v)
        assert np.linalg.norm(r @ u - v) < 1e-12
        assert np.abs(r.conj().T @ r - np.eye(3)).max() < 1e-12
