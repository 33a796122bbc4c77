"""Unit-ball geometry: distances, horofunctions, regions, automorphisms."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballorbits import catalog as cat
from ballorbits import geometry as geo
from ballorbits import orbits as orb
from ballorbits import sampling
from ballorbits.errors import DimensionMismatch, DomainError

from conftest import apart, random_interior

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


@pytest.mark.parametrize("coords", [[np.nan], [1.0, np.nan], [np.inf],
                                    [complex(np.nan, 0.0)]])
def test_boundary_point_refuses_a_norm_that_is_not_finite(coords):
    # |n - 1| > tol is False for a NaN norm, which once let NaN through
    with pytest.raises(DomainError, match="is not on the unit sphere"):
        geo.boundary_point(coords)


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
    slack = (geo.kob_dist(*apart(a, b)) + geo.kob_dist(*apart(b, c))
             - geo.kob_dist(*apart(a, c)))
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


def test_references_refuse_another_dimension(e1):
    # a q = 2 point against a q = 1 boundary point is refused, not broadcast
    p = geo.ball_point([0.3, 0.4j])
    with pytest.raises(DimensionMismatch, match="dimensions 2 != 1"):
        geo.with_reference(p, e1)
    with pytest.raises(DimensionMismatch, match="dimensions 2 != 1"):
        geo.held([p], e1)


def test_held_keeps_defects_and_coordinates(e1_q2):
    """A point held against zeta keeps its stored defect, any other takes
    `with_reference`'s; every point keeps its coordinates and margin."""
    other = geo.boundary_point([0.6, 0.8j])
    pts = [geo.boundary_adapted_point(e1_q2.coords, 1e-9, tail=[0, 1e-6j]),
           bp(0.3 + 0.1j, 0.2),
           geo.with_reference(bp(0.1, -0.5j), other)]
    batch = geo.held(pts, e1_q2)
    assert batch.ref.tobytes() == e1_q2.coords.tobytes()
    assert geo.held(batch, e1_q2) is batch
    for p, row, want in zip(pts, batch, [pts[0]] + [
            geo.with_reference(p, e1_q2) for p in pts[1:]]):
        assert row.coords.tobytes() == p.coords.tobytes()
        assert ((row.margin, row.delta, row.tail().tobytes())
                == (want.margin, want.delta, want.tail().tobytes()))
    assert batch.coords.tobytes() == np.array(
        [p.coords for p in pts]).tobytes()
    assert batch.take([2, 0]).coords.tobytes() == np.array(
        [pts[2].coords, pts[0].coords]).tobytes()


def test_kob_matrix_resolves_close_pairs(e1_q2):
    # margins far from 0 and a pair 2e-8 apart: the defect quotient rounds
    # to 1, so the pair must take kob_dist's involution path, not read 0
    z = geo.with_reference(bp(0.3 + 0.1j, 0.2), e1_q2)
    w = geo.with_reference(bp(0.3 + 0.1j + 2e-8, 0.2), e1_q2)
    d = geo.kob_dist(z, w)
    assert d == pytest.approx(4.557e-8, rel=1e-3)
    assert geo.kob_matrix([z], [w])[0, 0] == d


def test_kob_matrix_matches_kob_dist(rng, e1_q2):
    # one batch held against e_1 and one against another reference: shared
    # lanes within each, coordinate lanes between them
    other = geo.boundary_point([0.6, 0.8j])
    pts = [random_interior(rng, 2) for _ in range(12)]
    # a deep point, and a repeated point: a collapsed pair off the sphere
    mine = geo.held(pts[:6] + [geo.geodesic_point(e1_q2, 12.0), pts[1]],
                    e1_q2)
    theirs = geo.held(pts[6:], other)
    for a in (mine, theirs):
        for b in (mine, theirs):
            dmat = geo.kob_matrix(a, b)
            for i, z in enumerate(a):
                for j, w in enumerate(b):
                    assert dmat[i, j] == pytest.approx(
                        geo.kob_dist(z, w), rel=1e-12, abs=1e-15)
    # a batch of tube samples on e_1 gives what its points give, pair for pair
    batch = sampling.tube_samples(e1_q2, 1.0, s_values=np.arange(0.5, 8.0),
                                  n_angles=6)
    as_points = [batch.point(i) for i in range(len(batch))]
    for b in (mine, theirs):
        assert np.array_equal(geo.kob_matrix(batch, b),
                              geo.kob_matrix(as_points, b))
        assert np.array_equal(geo.kob_matrix(b, batch),
                              geo.kob_matrix(b, as_points))


def test_kob_dist_of_a_point_with_itself_is_zero(e1, e1_q2):
    # both margins >= 1e-6 send the collapsed pair to the involution, whose
    # roundoff (about 1e-16 / margin) was 1.8e-10 at gamma(15)
    for s in range(41):
        assert geo.kob_dist(geo.geodesic_point(e1, s),
                            geo.geodesic_point(e1, s)) == 0.0
    e2 = geo.boundary_point([0, 1])
    pts = [geo.geodesic_point(e1_q2, float(s)) for s in range(41)]
    pts.append(geo.with_reference(bp(0.3 + 0.1j, 0.2), e2))
    for p in pts:
        assert geo.kob_dist(p, p) == 0.0
    for b in (geo.held(pts[:-1], e1_q2), geo.held(pts[-1:], e2)):
        assert np.all(geo.kob_dist(b, b) == 0.0)
    # deep axis points and a point at e_2 share no reference, and the
    # saturated axis points cannot centre the involution: one matrix each
    assert np.all(np.diag(geo.kob_matrix(pts[:-1], pts[:-1])) == 0.0)
    assert geo.kob_matrix(pts[-1:], pts[-1:])[0, 0] == 0.0


def test_kob_dist_sequences(e1_q2):
    pts = [geo.geodesic_point(e1_q2, float(s)) for s in range(6)]
    out = geo.kob_dist(pts[:-1], pts[1:])
    assert isinstance(out, np.ndarray) and out.shape == (5,)
    assert out.tolist() == [geo.kob_dist(z, w) for z, w in zip(pts, pts[1:])]
    none = geo.held([], e1_q2)
    assert geo.kob_dist(none, none).shape == (0,)
    with pytest.raises(DimensionMismatch):
        geo.kob_dist(pts[:2], pts[:3])
    with pytest.raises(DimensionMismatch):
        geo.kob_dist(pts[:1], geo.held([bp(0.1)], geo.basis_boundary_point(1)))
    # an involution lane whose centre has left the ball fails as
    # mobius_shift does, in a sequence as for one pair
    on_sphere = geo.BallPoint(coords=np.array([1.0, 0.0], dtype=complex),
                              margin=1e-20)
    with pytest.raises(DomainError, match="mobius center"):
        geo.kob_dist(on_sphere, pts[1])
    e2 = geo.boundary_point([0, 1])
    with pytest.raises(DomainError, match="mobius center"):
        geo.kob_dist(geo.held([pts[1], on_sphere], e2), [pts[2], pts[1]])


def test_kob_matrix_of_no_points(e1_q2):
    pts = geo.held([geo.geodesic_point(e1_q2, float(s)) for s in range(3)],
                   e1_q2)
    assert geo.kob_matrix(pts[:0], pts).shape == (0, 3)
    assert geo.kob_matrix(pts, pts[:0]).shape == (3, 0)
    assert geo.kob_matrix(pts[:0], pts[:0]).shape == (0, 0)


def test_lane_routines_refuse_lists_without_one_reference(e1_q2):
    """A list whose points hold different references, points without one,
    or no points at all is refused: hold them with `held` first."""
    other = geo.boundary_point([0.6, 0.8j])
    axis = [geo.geodesic_point(e1_q2, float(s)) for s in range(3)]
    raw = [bp(0.1, 0.2j), bp(-0.3, 0.1)]
    mixed = axis[:2] + [geo.with_reference(raw[0], other)]
    partly_raw = axis[:2] + raw[:1]
    for bad in (mixed, raw, partly_raw, []):
        pair = axis[:len(bad)]
        for call in (lambda: geo.kob_dist(bad, pair),
                     lambda: geo.kob_dist(pair, bad),
                     lambda: geo.kob_matrix(bad, axis),
                     lambda: geo.kob_matrix(axis, bad),
                     lambda: geo.kob_dist_origin(bad)):
            with pytest.raises(DomainError, match="held"):
                call()


@pytest.mark.parametrize("q", [1, 2, 3])
def test_coordinate_lanes_through_two_references(q):
    """Two batches held against different references give each pair the
    distance of its two points without a reference, bit for bit, down to
    1 - |z| = 1e-9, where the involution's far branch keeps the quotient."""
    rng = np.random.default_rng(q)
    zs = [random_interior(rng, q, scale=1.0 - 1e-9) for _ in range(600)]
    ws = [random_interior(rng, q, scale=1.0 - 1e-9) for _ in range(600)]
    zb, wb = apart(zs, ws)
    alone = [geo.kob_dist(z, w) for z, w in zip(zs, ws)]
    assert geo.kob_dist(zb, wb).tolist() == alone
    assert np.diag(geo.kob_matrix(zb, wb)).tolist() == alone


def test_far_pair_has_no_warning():
    # rho rounds to 1 on this involution lane: the far branch keeps the
    # coordinate quotient and divides by nothing (the suite's filter turns
    # a RuntimeWarning into an error)
    z, w = bp(0.9999999999999), bp(-0.9999999999999)
    assert geo.kob_dist(z, w) == 61.25288498525722
    assert geo.kob_matrix(z, w)[0, 0] == 61.25288498525722


def test_batch_and_point_arrays_are_read_only(rng, e1_q2):
    tail = np.array([0.0, 0.01j])
    p = geo.boundary_adapted_point(e1_q2.coords, 1e-3, tail=tail)
    tail[1] = 0.5   # the caller's array: the point keeps its own copy
    assert p.tail().tolist() == [0.0, 0.01j]
    assert p.coords.tolist() == [1.0 - 1e-3, 0.01j]
    batch = sampling.tube_samples(e1_q2, 1.0, s_values=np.arange(1.0, 5.0))
    raw = [random_interior(rng, 2) for _ in range(4)]
    record = orb.stopping_time(cat.hyperbolic_selfmap(e1_q2, 3.0),
                               orb.radial_anchors(e1_q2, 3.0, [2, 3]),
                               e1_q2, k=[2, 3])[0]
    assert isinstance(record.grid, geo.PointBatch)   # the stopping grid
    batches = [batch, batch.take([0, 2]), batch[batch.margin > 0.1],
               batch[1:3], geo.held(raw, e1_q2),
               orb.radial_anchors(e1_q2, 3.0, range(4)), record.grid[0]]
    for a in (record.grid.delta, record.grid.tail, record.grid.margin):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.5
    for b in batches:
        arrays = [b.delta, b.tail, b.margin, b.coords]
        point = b.point(0)
        arrays += [point.coords, point.tail()]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        p.coords[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        p.tail()[0] = 0.5


def test_kob_dist_alike_in_every_layout(rng):
    # one pair gives the same bits alone, in a sequence and in a matrix:
    # on shared-reference lanes through one batch, deep adapted points with
    # their stored tails among them, and on coordinate lanes through two
    # batches held against different references, alone as points without
    # a reference
    ref = geo.boundary_point([0.6, 0.48j, 0.64])
    raw = [random_interior(rng, 3, scale=0.97) for _ in range(200)]
    pts = [geo.with_reference(p, ref) for p in raw]
    pts = [geo.boundary_adapted_point(ref.coords, 1e-6 * p.delta,
                                      tail=1e-3 * p.tail())
           if i % 2 else p for i, p in enumerate(pts)]
    for (z, w), (z1, w1) in [
            ((geo.held(pts[:100], ref), geo.held(pts[100:], ref)),
             (pts[:100], pts[100:])),
            (apart(raw[:100], raw[100:]), (raw[:100], raw[100:]))]:
        alone = [geo.kob_dist(a, b) for a, b in zip(z1, w1)]
        assert geo.kob_dist(z, w).tolist() == alone
        dmat = geo.kob_matrix(z, w)
        assert np.diag(dmat).tolist() == alone
        assert dmat[:10, 50:60].tolist() == [
            [geo.kob_dist(a, b) for b in w1[50:60]] for a in z1[:10]]


def test_kob_dist_mpmath_oracle(rng, e1_q2):
    """kob_dist against the 50-digit distance on every lane of the kernel,
    pair by pair and as one sequence call, which agree bit for bit."""
    mp = mpmath.mp
    mp.dps = 50
    e2 = geo.boundary_point([0, 1])
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
        cases["mixed"].append([interior(0.95, e2), interior(0.95, other)])
    for _ in range(4):       # the involution's far branch, rho >= 0.95
        p = random_interior(rng, 2, scale=1.0 - 1e-3)
        antipode = geo.ball_point(-p.coords)
        cases["mixed"].append([
            (geo.with_reference(p, e2), from_coords(p)),
            (geo.with_reference(antipode, other), from_coords(antipode))])
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


def test_point_batch_indexing(rng):
    """A batch indexed by an index (negative ones too), a slice, a mask or
    a (row, column) pair of a grid, and iterated, gives the points of
    `point(i)`, as bytes."""
    zeta = geo.boundary_point([0.6, 0.8j])
    n = 7
    delta = 10.0 ** rng.uniform(-12, -1, n) * np.exp(1j * rng.uniform(-1, 1, n))
    tail = (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))) * 1e-3
    tail = (tail - geo.herm(tail, zeta.coords)[:, None] * zeta.coords) \
        * np.abs(delta)[:, None]
    margin = 2.0 * delta.real - geo.abs_sq(delta) - geo.sq_norm(tail)
    batch = geo.PointBatch(zeta.coords, delta, tail, margin)

    def as_bytes(p):
        return (p.coords.tobytes(), p.ref.tobytes(),
                np.complex128(p.delta).tobytes(), p.tail().tobytes(),
                np.float64(p.margin).tobytes())

    points = [as_bytes(batch.point(i)) for i in range(n)]
    assert [as_bytes(p) for p in batch] == points
    assert [as_bytes(batch[i]) for i in range(-n, 0)] == points
    for rows in (slice(2, 6), slice(None, None, -1), delta.real > 1e-6):
        part = batch[rows]
        assert isinstance(part, geo.PointBatch)
        assert [as_bytes(p) for p in part] == [
            points[i] for i in np.arange(n)[rows]]
    grid = geo.PointBatch(zeta.coords, np.stack([delta, delta[::-1]]),
                          np.stack([tail, tail[::-1]]),
                          np.stack([margin, margin[::-1]]))
    assert as_bytes(grid[1, 0]) == points[-1]
    assert [as_bytes(p) for p in grid[1, 2:4]] == points[4:2:-1]
    # a grid's coordinates, built once, are its points' at (row, column)
    alone = [grid[i, j].coords for i in range(2) for j in range(n)]
    assert grid.coords.shape == (2, n, 2)
    assert grid.coords.reshape(-1, 2).tobytes() == np.array(alone).tobytes()


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
    return geo._aut(a.coords, u, a.margin)   # z -> u phi_a(z)


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
        z = random_interior(rng, 2)
        gi = geo.inverse(g)
        assert np.linalg.norm(
            geo.apply_raw(gi, geo.apply_raw(g, z.coords)) - z.coords) < 1e-12


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


def horofunction_limit(z, zeta, s):
    """The defining limit form lim_{w->zeta} [k(z,w) - k(0,w)], truncated at
    the axis point gamma(s): the closed form's cross-check."""
    return geo.kob_dist(z, geo.geodesic_point(zeta, s)) - s


def test_horofunction_matches_limit_form(rng, e1_q2):
    # the two defining formulas agree within 1e-10 on 10^4 random points,
    # the limit form truncated along the radius at s = 30
    worst = 0.0
    for _ in range(10000):
        z = random_interior(rng, 2)
        worst = max(worst, abs(geo.horofunction(z, e1_q2)
                               - horofunction_limit(z, e1_q2, s=30.0)))
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
    oracle = geo.kob_matrix(z, axis).min()
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
        oracle = geo.kob_matrix(z, axis).min()
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


def test_unitary_taking(rng):
    for _ in range(30):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        r = geo.unitary_taking(u, v)
        assert np.linalg.norm(r @ u - v) < 1e-12
        assert np.abs(r.conj().T @ r - np.eye(3)).max() < 1e-12


# ---------------------------------------------------------------------------
# one lane body per routine
# ---------------------------------------------------------------------------

LANE_ROUTINES = {
    "horofunction": geo.horofunction,
    "dist_to_zeta": geo.dist_to_zeta,
    "dist_to_geodesic": lambda z, zeta: geo.dist_to_geodesic(z, zeta)[0],
    "s_star": lambda z, zeta: geo.dist_to_geodesic(z, zeta)[1],
    "koranyi_functional": geo.koranyi_functional,
    "kob_dist_origin": lambda z, zeta: geo.kob_dist_origin(z),
}


def mixed_lanes(rng, zeta, other, n=80):
    """Points of every lane kind, interleaved: coordinate-only, held
    against zeta (every other one deep), held against another reference."""
    pts = []
    for i in range(n):
        p = random_interior(rng, zeta.q, scale=0.97)
        if i % 4 == 0:
            pts.append(p)
        elif i % 4 == 1:
            pts.append(geo.with_reference(p, other))
        else:
            p = geo.with_reference(p, zeta)
            pts.append(p if i % 4 == 2 else geo.boundary_adapted_point(
                zeta.coords, 1e-6 * p.delta, tail=1e-3 * p.tail()))
    return pts


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("name", LANE_ROUTINES)
def test_routines_alike_on_mixed_lanes(name, q, rng):
    """One call over a list of mixed lanes, held against the vertex, or
    over a batch held against the vertex or against another, equals the
    one-point calls bit for bit; a point gives a float and no points an
    empty array.  kob_dist_origin, the one without a vertex, takes the
    list as one batch (`held`)."""
    fn = LANE_ROUTINES[name]
    v = rng.normal(size=q) + 1j * rng.normal(size=q)
    zeta = geo.boundary_point(v / np.linalg.norm(v))
    other = geo.boundary_point(-zeta.coords if q == 1
                               else np.roll(zeta.coords, 1))
    pts = mixed_lanes(rng, zeta, other)
    alone = [fn(p, zeta) for p in pts]
    assert all(type(a) is float for a in alone)
    as_one = name == "kob_dist_origin"
    many, none = (geo.held(pts, zeta), geo.held([], zeta)) if as_one \
        else (pts, [])
    assert fn(many, zeta).tobytes() == np.array(alone).tobytes()
    batch = sampling.tube_samples(zeta, 1.0, s_values=np.arange(0.0, 20, 4))
    for vertex in (zeta, other):
        assert fn(batch, vertex).tobytes() == np.array(
            [fn(batch.point(i), vertex) for i in range(len(batch))]).tobytes()
    assert fn(none, zeta).shape == (0,)
    if name != "kob_dist_origin":   # the one without a vertex
        with pytest.raises(DimensionMismatch):
            fn(pts, geo.basis_boundary_point(q + 1))

