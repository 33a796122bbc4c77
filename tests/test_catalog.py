"""Map catalog: construction, checks, dilation estimation, dynamics."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ballorbits import catalog as cat
from ballorbits import cli
from ballorbits import geometry as geo
from ballorbits import orbits as orb
from ballorbits import sampling
from ballorbits.errors import (ConfigError, DilationOutOfScope,
                               DimensionMismatch, DomainError, NumericalError)
from ballorbits.sampling import sample_horodisc

from conftest import (apart, count_calls, fixed_blaschke, jacobian_fd,
                      offaxis_conjugate, preimage_cases, random_interior)

LOG3 = np.log(3.0)


# ---------------------------------------------------------------------------
# construction and self-map checks
# ---------------------------------------------------------------------------

def test_blaschke_is_self_map(blaschke, rng):
    ok, worst, _ = cat.self_map_check(blaschke, 10000, rng)
    assert ok and worst > 0.0


def test_blaschke_fixes_zero_and_one(blaschke):
    assert abs(cat.evaluate(blaschke, np.zeros(1, complex))[0]) == 0.0
    # |b| = 1 on the circle: max-modulus sampling oracle
    theta = np.linspace(0.0, 2 * np.pi, 500)
    on_circle = np.exp(1j * theta)[:, None]
    assert np.abs(np.abs(cat.evaluate(blaschke, on_circle)[..., 0])
                  - 1.0).max() < 1e-12


class _Expanding(cat.SelfMap):
    """z -> 1.01 z, which leaves the ball: a map no catalog kind gives."""
    kind = "expanding"

    def _evaluate(self, z):
        return 1.01 * z


def test_expanding_map_fails_check(rng):
    bad = _Expanding(q=1, label="1.01z")
    ok, worst, witness = cat.self_map_check(bad, 2000, rng)
    assert not ok
    assert np.linalg.norm(cat.evaluate(bad, witness)) > 1.0


def test_identity_passes_check(rng):
    ident = cat.ball_automorphism(geo.identity_automorphism(2))
    ok, _, _ = cat.self_map_check(ident, 2000, rng)
    assert ok


def test_blaschke_factor_validation():
    with pytest.raises(ConfigError):
        cat.blaschke_product([1.0])
    with pytest.raises(ConfigError):
        cat.blaschke_product([])


def test_warped_product_admissibility(e1, blaschke):
    # phi(0) = 0 makes every |c| < 1 admissible
    cat.warped_product(blaschke, 0.5, q=2)
    # phi(0) = -1/2 caps |c|^2 at 1/3
    hyp = cat.hyperbolic_selfmap(e1, 3.0)
    cat.warped_product(hyp, 0.5, q=2)
    with pytest.raises(ConfigError):
        cat.warped_product(hyp, 0.7, q=2)


def test_catalog_build_dispatch(e1):
    m = cat.catalog_build("mobius", a=0.5)
    assert m.q == 1
    it = cat.catalog_build("iterate", base=m, power=2)
    z = np.array([0.3 + 0.1j])
    assert np.allclose(cat.evaluate(it, z),
                       cat.evaluate(m, cat.evaluate(m, z)))
    with pytest.raises(ConfigError):
        cat.catalog_build("nope")


# ---------------------------------------------------------------------------
# Schwarz-Pick and Jacobians
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: cat.blaschke_product([0.0, 1.0 / 3.0]),
    lambda: cat.hyperbolic_selfmap(geo.basis_boundary_point(1), 3.0),
    lambda: cat.warped_product(cat.blaschke_product([0.0, 1.0 / 3.0]), 0.5),
])
def test_schwarz_pick(make, rng):
    f = make()
    zs, ws = [], []
    for _ in range(10000):
        zs.append(random_interior(rng, f.q))
        ws.append(random_interior(rng, f.q))
    fzs = [geo.ball_point(v)
           for v in cat.evaluate(f, np.array([z.coords for z in zs]))]
    fws = [geo.ball_point(v)
           for v in cat.evaluate(f, np.array([w.coords for w in ws]))]
    worst = (geo.kob_dist(*apart(fzs, fws))
             - geo.kob_dist(*apart(zs, ws))).max()
    assert worst <= 1e-10


def _conjugated_blaschke(e1):
    h = geo.hyperbolic_automorphism(e1, np.exp(0.2))
    return cat.conjugate_map(cat.blaschke_product([0.0, 1.0 / 3.0]), h)


JACOBIAN_CASES = [
    lambda: cat.blaschke_product([0.0, 1.0 / 3.0, -1.0 / 3.0]),
    lambda: cat.disc_mobius(0.3 + 0.2j, theta=0.4),
    lambda: cat.hyperbolic_selfmap(geo.basis_boundary_point(2), 2.0),
    lambda: cat.parabolic_selfmap(geo.basis_boundary_point(2), [0.2j], 0.5),
    lambda: cat.warped_product(cat.blaschke_product([0.0, 1.0 / 3.0]), 0.4),
    lambda: _conjugated_blaschke(geo.basis_boundary_point(1)),
    lambda: cat.compose_maps(cat.disc_mobius(0.2), cat.disc_mobius(-0.1j)),
    lambda: cat.iterate_map(cat.blaschke_product([0.0, 1.0 / 3.0]), 3),
]


def _offaxis_hyperbolic():
    return cat.hyperbolic_selfmap(geo.boundary_point([0.6, 0.8j]), 3.0)


def _turned_blaschke():
    """The golden Blaschke map [0, 1/3] turned by e^{0.7i}: it fixes
    e^{0.7i} with dilation 3."""
    return cat.blaschke_product([0.0, np.exp(0.7j) / 3.0], -0.7)


def _mobius_repelling():
    """disc_mobius(0.3 + 0.2i, theta=0.4) and its repelling fixed point, the
    root of conj(a) z^2 + (e^{i theta} - 1) z - e^{i theta} a nearer a
    (dilation 1.886)."""
    a, turn = 0.3 + 0.2j, np.exp(0.4j)
    roots = np.roots([np.conj(a), turn - 1.0, -turn * a])
    return (cat.disc_mobius(a, theta=0.4),
            geo.boundary_point([roots[np.argmin(np.abs(roots - a))]]))


def _complex_disc_hyperbolic():
    """A q = 1 automorphism with a complex centre."""
    return cat.hyperbolic_selfmap(geo.boundary_point([np.exp(0.5j)]), 3.0)


@pytest.mark.parametrize("make", JACOBIAN_CASES)
def test_jacobian_matches_finite_differences(make, rng):
    f = make()
    for _ in range(5):
        z = random_interior(rng, f.q, scale=0.6)
        err = np.abs(cat.jacobian(f, z.coords)
                     - jacobian_fd(f, z.coords)).max()
        assert err < 1e-6


@pytest.mark.parametrize("make", JACOBIAN_CASES + [
    _offaxis_hyperbolic,
    _complex_disc_hyperbolic,
    lambda: offaxis_conjugate(),
])
def test_jacobian_alike_in_every_layout(make, rng):
    """Row i of the Jacobian (and of the map) at 200 points equals the
    single-point one at row i bit for bit: the coordinate Newton lanes
    reproduce the per-seed solves only because of this."""
    f = make()
    zs = np.array([random_interior(rng, f.q).coords for _ in range(200)])
    jac = cat.jacobian(f, zs)
    vals = cat.evaluate(f, zs)
    assert jac.shape == (200, f.q, f.q)
    for z, j, v in zip(zs, jac, vals):
        assert j.tobytes() == cat.jacobian(f, z).tobytes()
        assert v.tobytes() == cat.evaluate(f, z).tobytes()
        assert np.abs(j - jacobian_fd(f, z)).max() < 1e-6


def _random_zeta(seed):
    v = np.random.default_rng(seed).normal(size=(2, 2)) @ [1.0, 1j]
    return geo.boundary_point(v / np.linalg.norm(v))


def _adapted_lanes(zeta, rng, n=200):
    """n defect-form points against zeta, from |delta| = 1e-12 to 0.5,
    with random tails within their margin; in q = 1 the tails are 0."""
    delta = 10.0 ** rng.uniform(-12, -0.3, n) * np.exp(1j * rng.uniform(
        -1.2, 1.2, n))
    room = 2.0 * delta.real - np.abs(delta) ** 2
    tail = rng.normal(size=(n, zeta.q)) + 1j * rng.normal(size=(n, zeta.q))
    tail -= geo.herm(tail, zeta.coords)[:, None] * zeta.coords
    tail *= np.sqrt(rng.uniform(0.0, 0.9, n) * room
                    / np.maximum(geo.sq_norm(tail), 1e-300))[:, None]
    if zeta.q == 1:   # the projection leaves roundoff, which scaling inflates
        tail[:] = 0.0
    return geo.PointBatch(zeta.coords, delta, tail, room - geo.sq_norm(tail))


ADAPTED_CASES = [
    (make, geo.basis_boundary_point(make().q)) for make in JACOBIAN_CASES] + [
    (_offaxis_hyperbolic, geo.boundary_point([0.6, 0.8j])),
    (lambda: cat.parabolic_selfmap(_random_zeta(3), [0.3 - 0.1j], -0.7),
     _random_zeta(3)),
    (JACOBIAN_CASES[0], geo.boundary_point([-1.0])),
    (lambda: cat.conjugate_map(cat.blaschke_product([0.0, 1.0 / 3.0]),
                               geo.unitary_automorphism([[np.exp(0.5j)]])),
     geo.boundary_point([np.exp(0.5j)])),
    (_complex_disc_hyperbolic, geo.boundary_point([np.exp(0.5j)])),
    (_turned_blaschke, geo.boundary_point([np.exp(0.7j)])),
    (lambda: _mobius_repelling()[0], _mobius_repelling()[1]),
    (lambda: fixed_blaschke(np.random.default_rng(5))[1],
     fixed_blaschke(np.random.default_rng(5))[2]),
    (offaxis_conjugate, geo.basis_boundary_point(1)),
]


@pytest.mark.parametrize("make, zeta", ADAPTED_CASES)
def test_adapted_step_alike_in_every_layout(make, zeta, rng):
    """Row i of one adapted step of a 200-point batch equals the step of
    the batch's point i alone, as bytes; every case has an adapted step."""
    f = make()
    batch = _adapted_lanes(zeta, rng)
    out = cat.adapted_step(f, batch)
    assert isinstance(cat.step_point(f, batch), geo.PointBatch)
    assert len(out) == len(batch)
    for i in range(len(batch)):
        one = cat.adapted_step(f, batch.point(i))
        row = out.point(i)
        assert one.ref.tobytes() == row.ref.tobytes()
        assert one.coords.tobytes() == row.coords.tobytes()
        assert one.tail().tobytes() == out.tail[i].tobytes()
        assert np.complex128(one.delta).tobytes() == out.delta[i].tobytes()
        assert np.float64(one.margin).tobytes() == out.margin[i].tobytes()


def _planned(fixes):
    """The layout cases but the last whose images keep zeta as their
    reference (within FIX_TOL), or those whose images leave it."""
    return [(make, zeta) for make, zeta in ADAPTED_CASES[:-1]
            if fixes == geo._same_direction(make()._plan(zeta.coords).ref,
                                            zeta.coords, geo.FIX_TOL)]


# the last layout case, the off-axis conjugate, comes last here too, so the
# cases before it keep their ids
@pytest.mark.parametrize("make, zeta", _planned(True) + _planned(False)
                         + ADAPTED_CASES[-1:])
def test_adapted_step_agrees_with_evaluate(make, zeta, rng):
    """The defect recursion against raw evaluation, the two paths to an
    image, on the lanes with margin >= 1e-6 of every layout case, at a
    reference the map fixes or moves: coordinates within 1e-14, and each
    margin within 1e-14 of 1 - |f(z)|^2."""
    f = make()
    batch = _adapted_lanes(zeta, rng)
    out = cat.adapted_step(f, batch)
    keep = batch.margin >= 1e-6
    image = cat.evaluate(f, batch.coords[keep])
    assert np.abs(out.coords[keep] - image).max() <= 1e-14
    assert np.abs(out.margin[keep] - (1.0 - geo.sq_norm(image))).max() \
        <= 1e-14


# every kind that has an adapted step, with the boundary point it steps at.
# The iterate is b^2: the b^3 of JACOBIAN_CASES carries the coordinates'
# roundoff 27-fold (b'(1)^3) through raw evaluation, and the paths differ by
# up to 1.05e-14 on the margin in 3,000 draws, the adapted step exact.
ADAPTED_KINDS = {
    "blaschke+1": (lambda: cat.blaschke_product([0.0, 1.0 / 3.0]), [1.0]),
    "blaschke-1": (lambda: cat.blaschke_product([0.0, 0.2, -0.5]), [-1.0]),
    "axial": (_offaxis_hyperbolic, [0.6, 0.8j]),
    "parabolic": (lambda: cat.parabolic_selfmap(
        _random_zeta(3), [0.3 - 0.1j], -0.7), _random_zeta(3).coords),
    "warped": (JACOBIAN_CASES[4], [1.0, 0.0]),
    "compose": (lambda: cat.compose_maps(
        cat.blaschke_product([0.0, 0.3]),
        cat.hyperbolic_selfmap(geo.basis_boundary_point(1), 2.0)), [1.0]),
    "conjugate": (JACOBIAN_CASES[5], [1.0]),
    "iterate": (lambda: cat.iterate_map(
        cat.blaschke_product([0.0, 1.0 / 3.0]), 2), [1.0]),
    "turned": (_turned_blaschke, [np.exp(0.7j)]),
    "mobius": (lambda: _mobius_repelling()[0], _mobius_repelling()[1].coords),
}


@pytest.mark.parametrize("kind", ADAPTED_KINDS)
@given(st.floats(-6.0, -0.3), st.floats(-1.2, 1.2), st.floats(0.0, 0.9),
       st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_adapted_step_agrees_with_evaluate_everywhere(kind, log_delta, phase,
                                                      fill, turn):
    """The defect recursion against raw evaluation at a drawn point with
    margin >= 1e-6: |delta| from 1e-6 to 0.5, and in q = 2 a tail filling
    part of its room, turned in the complex line orthogonal to zeta.  The
    bounds are the fixed-seed test's: 1e-14 on coordinates and on the
    margin against 1 - |f(z)|^2."""
    make, zeta = ADAPTED_KINDS[kind]
    f, zeta = make(), np.asarray(zeta, dtype=complex)
    delta = 10.0 ** log_delta * np.exp(1j * phase)
    room = 2.0 * delta.real - abs(delta) ** 2
    tail = np.zeros_like(zeta)
    if f.q == 2:
        perp = np.array([-np.conj(zeta[1]), np.conj(zeta[0])])
        tail = np.sqrt(fill * room) * np.exp(2j * np.pi * turn) * perp
    p = geo.boundary_adapted_point(zeta, delta, tail=tail)
    assume(p.margin >= 1e-6)
    out = cat.adapted_step(f, p)
    image = cat.evaluate(f, p.coords)
    assert np.abs(out.coords - image).max() <= 1e-14
    assert abs(out.margin - (1.0 - geo.sq_norm(image))) <= 1e-14


def test_jacobian_checks_its_shape():
    f = _offaxis_hyperbolic()
    with pytest.raises(DimensionMismatch):
        cat.jacobian(f, np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch):
        cat.jacobian(f, np.zeros(3))
    with pytest.raises(DomainError):
        cat.jacobian(f, np.zeros((2, 3, 2)))


@pytest.mark.parametrize("make, z", [
    (lambda: cat.blaschke_product([0.0, 1 / 3]), np.zeros((2, 3))),
    (lambda: cat.blaschke_product([0.0, 1 / 3]), 0.5),
    (_offaxis_hyperbolic, np.zeros(3)),
    (_offaxis_hyperbolic, np.zeros((4, 1))),
], ids=["q1-rows-of-3", "q1-scalar", "q2-vector-of-3", "q2-rows-of-1"])
def test_evaluate_checks_its_shape(make, z):
    # numpy would broadcast the wrong last axis into a wrong answer
    with pytest.raises(DimensionMismatch):
        cat.evaluate(make(), z)


# ---------------------------------------------------------------------------
# closed-form preimages
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", preimage_cases())
def test_preimages_count_and_map_onto_the_target(name):
    """Each kind gives its count of distinct roots in the ball: d for a
    Blaschke product of degree d, one for an automorphism, the factor's for
    a warped product, the product of the parts' counts for a compose,
    conjugate or iterate (`test_oracle` checks that each maps onto the
    target)."""
    f, w, count = preimage_cases()[name]
    roots = cat.preimages(f, w)
    assert roots.shape == (count, f.q)
    assert np.all(1.0 - np.linalg.norm(roots, axis=1) >= geo.BOUNDARY_GUARD)
    gaps = np.linalg.norm(roots[:, None] - roots[None], axis=2)
    assert np.all(gaps[~np.eye(count, dtype=bool)] > 1e-3)


def test_automorphism_preimage_is_its_inverse_image():
    for name in ("automorphism", "automorphism_q1"):
        f, w, _ = preimage_cases()[name]
        want = geo.apply_raw(geo.inverse(f.params[0]), np.array(w, complex))
        assert cat.preimages(f, w).tobytes() == want.tobytes()


def test_warped_preimages_need_a_tangent_root():
    # none where c = 0 (every z' maps onto w' = 0, the Jacobian is
    # singular) or where z' = w'/c leaves the ball
    b = cat.blaschke_product([0.0, 0.5])
    flat = cat.warped_product(b, 0.0, q=2)
    assert cat.preimages(flat, [0.3, 0.0]).shape == (0, 2)
    half = cat.warped_product(b, 0.5, q=3)
    assert cat.preimages(half, [0.1, 0.3, 0.4j]).shape == (0, 3)
    assert cat.preimages(half, [0.1, 0.3, 0.2j]).shape == (2, 3)


def test_preimages_drop_roots_at_the_sphere():
    # a Blaschke factor sends the boundary to itself: the root of a target
    # within the guard of the sphere is dropped, as `ball_point` refuses it
    f = cat.disc_mobius(0.3)
    assert len(cat.preimages(f, [0.9])) == 1
    assert len(cat.preimages(f, [1.0 - 1e-16])) == 0
    with pytest.raises(DimensionMismatch):
        cat.preimages(f, [0.1, 0.2])


# ---------------------------------------------------------------------------
# boundary fixed points and dilation
# ---------------------------------------------------------------------------

def test_is_boundary_fixed(blaschke, e1):
    assert cat.is_boundary_fixed(blaschke, e1)
    # b(-1) = (-1)(-4/3)/(4/3) = 1 != -1
    assert not cat.is_boundary_fixed(blaschke, geo.boundary_point([-1.0]))
    ident = cat.ball_automorphism(geo.identity_automorphism(1))
    assert cat.is_boundary_fixed(ident, e1)


def test_estimate_dilation_disc_automorphism():
    # (z + 1/2)/(1 + z/2) repels at -1 with (1+a)/(1-a) = 3
    f = cat.blaschke_product([-0.5])
    est = cat.estimate_dilation(f, geo.boundary_point([-1.0]))
    assert est.lam_hat == pytest.approx(3.0, abs=1e-6)
    # one-factor product (z-a)/(1-az) is exactly the mobius kind
    m = cat.disc_mobius(-0.5)
    z = np.array([0.37 - 0.11j])
    assert np.allclose(cat.evaluate(m, z), cat.evaluate(f, z))


def test_estimate_dilation_matches_the_closed_form():
    """Blaschke products with complex zeros at random unimodular fixed
    points: the estimate within 1e-12 relative of the dilation
    sum_j (1 - |a_j|^2) / |zeta - a_j|^2 (Garnett, *Bounded Analytic
    Functions*)."""
    rng = np.random.default_rng(7)
    for _ in range(127):
        _, f, zeta, lam = fixed_blaschke(rng, lam_min=1.05)
        assert abs(cat.estimate_dilation(f, zeta).lam_hat - lam) <= 1e-12 * lam


def test_estimate_dilation_blaschke(blaschke, e1):
    # angular derivative b'(1) = 1 + (1+a)/(1-a) = 3
    est = cat.estimate_dilation(blaschke, e1)
    assert est.lam_hat == pytest.approx(3.0, abs=1e-4)
    assert cat.jacobian_check(blaschke, e1) == pytest.approx(3.0, abs=1e-3)


def test_estimate_dilation_exact_for_automorphisms(e1):
    for lam in (1.7, 3.0, 8.5):
        f = cat.hyperbolic_selfmap(e1, lam)
        est = cat.estimate_dilation(f, e1)
        assert abs(est.lam_hat - lam) < 1e-8


def test_estimate_dilation_identity_out_of_scope(e1):
    ident = cat.ball_automorphism(geo.identity_automorphism(1))
    with pytest.raises(DilationOutOfScope):
        cat.estimate_dilation(ident, e1)


def test_estimate_dilation_attracting_side_out_of_scope(e1):
    f = cat.hyperbolic_selfmap(e1, 3.0)
    with pytest.raises(DilationOutOfScope):
        cat.estimate_dilation(f, geo.boundary_point([-1.0]))


@pytest.mark.parametrize("make, zeta", [
    (lambda: cat.ensure_pole_clearance(
        cat.blaschke_product([0.0, 1.0 / 3.0]), geo.basis_boundary_point(1))[0],
     geo.basis_boundary_point(1)),
    (_offaxis_hyperbolic, geo.boundary_point([0.6, 0.8j])),
    (lambda: cat.warped_product(cat.hyperbolic_selfmap(
        geo.basis_boundary_point(1), 3.0), 0.3 + 0.2j),
     geo.basis_boundary_point(2)),
    (lambda: offaxis_conjugate(), geo.basis_boundary_point(1)),
])
def test_dilation_profile_matches_per_point_steps(make, zeta):
    # the radial grid steps as one batch, the Jacobian probes as one call:
    # the profile and the cross-check equal the point-by-point ones as bytes
    f = make()
    est = cat.estimate_dilation(f, zeta)
    prof = [s - geo.kob_dist_origin(cat.step_point(f, geo._axis_point(zeta, s)))
            for s in est.s_grid]
    assert est.profile.tobytes() == np.array(prof).tobytes()
    vals = [abs(geo.herm(cat.jacobian(f, geo._axis_point(zeta, s).coords)
                         @ zeta.coords, zeta.coords)) for s in (8.0, 10.0, 12.0)]
    r = np.exp(-2.0)
    assert cat.jacobian_check(f, zeta) == float(
        (vals[2] - r * vals[1]) / (1.0 - r))


@pytest.mark.parametrize("make, zeta", [
    (lambda: cat.blaschke_product([0.0, 1.0 / 3.0]),
     geo.basis_boundary_point(1)),
    (_offaxis_hyperbolic, geo.boundary_point([0.6, 0.8j])),
    (lambda: cat.conjugate_map(cat.blaschke_product([0.0, 1.0 / 3.0]),
                               geo.axis_translation(
                                   geo.basis_boundary_point(1), 0.2)),
     geo.basis_boundary_point(1)),
])
def test_estimate_dilation_plans_once(make, zeta, monkeypatch):
    """A structured map is planned at zeta once per estimate, and its
    whole radial grid steps through that plan."""
    f = make()
    plans = []
    plan = type(f)._plan
    monkeypatch.setattr(type(f), "_plan",
                        lambda self, ref: plans.append(ref) or plan(self, ref))
    for n in (1, 2):
        est = cat.estimate_dilation(f, zeta)
        assert len(plans) == n
    assert plans[0].tobytes() == zeta.coords.tobytes()
    assert est.s_grid[-1] == 30.0


def test_certify_brfp(blaschke, e1):
    rep = cat.certify_brfp(blaschke, e1)
    assert 1.0 < rep.dilation < np.inf
    assert rep.residuals[-1] < rep.residuals[0]
    with pytest.raises(DomainError):
        cat.certify_brfp(blaschke, geo.boundary_point([-1.0]))


def reference_probes(zeta, s_values):
    """`koranyi_probes` one point at a time: the axis point at each s, and
    each tangentially displaced start moved by `_axial_transport`."""
    probes = [[geo._axis_point(zeta, float(s)) for s in s_values]]
    for off in (0.15, -0.15):
        if zeta.q == 1:
            u_vec = 1j * off * zeta.coords
        else:
            direction = np.zeros(zeta.q, dtype=complex)
            direction[1] = 1.0
            frame = geo.unitary_taking(
                geo.basis_boundary_point(zeta.q).coords, zeta.coords)
            u_vec = off * (frame @ direction)
        start = sampling.adapted_at(zeta, u_vec)
        probes.append([sampling._axial_transport(zeta, float(s), start)
                       for s in s_values])
    return probes


def _state_bytes(p):
    return (np.complex128(p.delta).tobytes(), p.tail().tobytes(),
            np.float64(p.margin).tobytes(), p.coords.tobytes())


@pytest.mark.parametrize("q", [1, 2, 3])
def test_koranyi_probes_match_reference(q):
    rng = np.random.default_rng(100 + q)
    s_values = np.arange(0.0, 200.001, 2.5)
    zetas = [geo.basis_boundary_point(q)] + [
        geo.boundary_point(v / np.linalg.norm(v))
        for v in rng.normal(size=(4, q)) + 1j * rng.normal(size=(4, q))]
    for zeta in zetas:
        probes = cat.koranyi_probes(zeta, s_values)
        ref = reference_probes(zeta, s_values)
        assert len(probes) == len(ref) == 3
        for seq, seq_ref in zip(probes, ref):
            assert isinstance(seq, geo.PointBatch)
            assert len(seq) == len(s_values)
            assert ([_state_bytes(p) for p in seq]
                    == [_state_bytes(p) for p in seq_ref])
            assert seq.coords.tobytes() == np.array(
                [p.coords for p in seq_ref]).tobytes()


@pytest.mark.parametrize("make, zeta, sequences", [
    (lambda: cat.blaschke_product([0.0, 1.0 / 3.0]),
     geo.basis_boundary_point(1), 3),
    # b(-1) = 1: the radius already fails
    (lambda: cat.blaschke_product([0.0, 1.0 / 3.0]),
     geo.boundary_point([-1.0]), 1),
    (lambda: cat.conjugate_map(cat.blaschke_product([0.0, 1.0 / 3.0]),
                               geo.axis_translation(
                                   geo.basis_boundary_point(1), 0.2)),
     geo.basis_boundary_point(1), 3),
    (_offaxis_hyperbolic, geo.boundary_point([0.6, 0.8j]), 3),
    (lambda: offaxis_conjugate(), geo.basis_boundary_point(1), 3),
])
def test_k_limit_plans_once_per_probe_sequence(make, zeta, sequences,
                                               monkeypatch):
    """The map is planned at zeta once for all its probe sequences, and
    each sequence up to the first that fails steps as one batch through
    that plan.  An estimate plans once.  certify_brfp builds and steps the
    probes once, and plans once more for its estimate."""
    f = make()
    plans = []
    plan = type(f)._plan
    monkeypatch.setattr(type(f), "_plan", lambda self, ref: (
        plans.append(ref) if self is f else None) or plan(self, ref))
    steps = count_calls(monkeypatch, (geo.Plan, "step"))
    fixed = cat.is_boundary_fixed(f, zeta)
    assert fixed == (sequences == 3)
    assert len(plans) == 1
    assert plans[0].tobytes() == zeta.coords.tobytes()
    assert steps["step"] == sequences
    plans.clear()
    cat.estimate_dilation(f, zeta)
    assert len(plans) == 1
    if fixed:
        plans.clear()
        rep = cat.certify_brfp(f, zeta)
        assert len(plans) == 1 + 1
        radius = cat.koranyi_probes(zeta, np.arange(4.0, 24.01, 2.0))[0]
        per_point = geo.dist_to_zeta([cat.step_point(f, p) for p in radius],
                                     zeta)
        assert rep.residuals.tobytes() == per_point.tobytes()


@pytest.mark.parametrize("q", [1, 2, 3])
def test_k_limit_test_is_relative_in_every_dimension(q):
    """Random hyperbolic and parabolic maps are certified fixed at their
    fixed point (a hyperbolic map at -zeta too), and refused at a random
    boundary point they move.  In q >= 2 the tangential probes approach
    zeta only like the square root of their margin, to about 3e-6 at
    s = 24: each sequence's images are compared with its own probes."""
    rng = np.random.default_rng(270 + q)

    def unit():
        v = rng.normal(size=q) + 1j * rng.normal(size=q)
        return geo.boundary_point(v / np.linalg.norm(v))
    for _ in range(40):
        zeta, other = unit(), unit()
        hyper = cat.hyperbolic_selfmap(zeta, rng.uniform(1.1, 20.0))
        b = rng.normal(size=q - 1) + 1j * rng.normal(size=q - 1)
        para = cat.parabolic_selfmap(zeta, b if q > 1 else None,
                                     rng.normal())
        for f in (hyper, para):
            assert cat.is_boundary_fixed(f, zeta)
            assert not cat.is_boundary_fixed(f, other)
        assert cat.is_boundary_fixed(hyper, geo.BoundaryPoint(-zeta.coords))


def test_warped_dilation(e1, e1_q2):
    wp = cat.warped_product(cat.hyperbolic_selfmap(e1, 3.0), 0.5, q=2)
    est = cat.estimate_dilation(wp, e1_q2)
    assert est.lam_hat == pytest.approx(3.0, abs=1e-6)


# ---------------------------------------------------------------------------
# dynamics classification and pole clearance
# ---------------------------------------------------------------------------

def test_classify_blaschke(blaschke):
    dyn = cat.classify_dynamics(blaschke)
    assert dyn.tag == "interior-fixed-point"
    assert np.linalg.norm(dyn.witness) < 1e-9


def test_classify_hyperbolic(disc_auto):
    dyn = cat.classify_dynamics(disc_auto)
    assert dyn.tag == "denjoy-wolff-boundary"
    assert np.linalg.norm(dyn.witness - np.array([-1.0])) < 1e-4


def test_classify_rotation():
    rot = cat.ball_automorphism(
        geo.unitary_automorphism(np.array([[np.exp(0.7j)]])))
    dyn = cat.classify_dynamics(rot)
    assert dyn.tag == "interior-fixed-point"
    assert np.linalg.norm(dyn.witness) < 1e-9


def test_pole_clearance_blaschke(cleared_blaschke, e1):
    cleared, conj = cleared_blaschke
    # the fixed point 0 moves to -tanh(0.1) with horofunction exactly 0.2
    moved = geo.apply_raw(conj, np.zeros(1, complex))
    assert moved[0] == pytest.approx(-np.tanh(0.1), abs=1e-14)
    assert geo.horo_raw(moved[None, :], e1.coords)[0] == pytest.approx(
        0.2, abs=1e-12)
    dyn = cat.classify_dynamics(cleared)
    assert geo.horo_raw(dyn.witness[None, :], e1.coords)[0] > 0.1
    # dilation at zeta is preserved
    est = cat.estimate_dilation(cleared, e1)
    assert est.lam_hat == pytest.approx(3.0, abs=1e-6)


def test_pole_clearance_warped_tie_is_closed_form(monkeypatch):
    """The warped golden's witness sits on horofunction 0 at zeta = (1, 0),
    an exact tie with the first translation t = 0.1: the translation adds t
    to every horofunction, so the clearance is reached at t = 0.1 exactly,
    and the witness cloud is never moved before the conjugation."""
    f = cli.parse_mapspec(str(Path(__file__).parent / "golden" / "warped.ini"))
    zeta = geo.boundary_point([1.0, 0.0])
    dyn = cat.classify_dynamics(f)
    cloud = np.concatenate([dyn.cloud, dyn.witness[None, :]])
    assert float(geo.horo_raw(cloud, zeta.coords).min()) == 0.0
    ts, moved = [], []
    translate, conjugate = geo.axis_translation, cat.conjugate_map
    raw = geo.apply_raw
    monkeypatch.setattr(geo, "axis_translation",
                        lambda z, t: ts.append(t) or translate(z, t))
    monkeypatch.setattr(geo, "apply_raw",
                        lambda *args: moved.append(1) or raw(*args))
    before_conjugation = []
    monkeypatch.setattr(cat, "conjugate_map", lambda *args: (
        before_conjugation.append(len(moved)) or conjugate(*args)))
    cat.ensure_pole_clearance(f, zeta)
    assert ts == [0.1]
    assert before_conjugation == [0]


def test_pole_clearance_takes_the_callers_estimate(blaschke, e1,
                                                  monkeypatch):
    """A caller that has estimated f's dilation hands it over, and only the
    cleared map is estimated; the check keeps its tolerance and message."""
    calls = count_calls(monkeypatch, (cat, "estimate_dilation"))
    lam = cat.estimate_dilation(blaschke, e1).lam_hat
    cleared, conj = cat.ensure_pole_clearance(blaschke, e1, lam)
    assert calls["estimate_dilation"] == 2
    alone, conj_alone = cat.ensure_pole_clearance(blaschke, e1)
    assert calls["estimate_dilation"] == 4
    assert conj.label == conj_alone.label and cleared.label == alone.label
    with pytest.raises(NumericalError, match=(
            r"pole clearance changed the dilation: 3\.1 -> 3\.0000000")):
        cat.ensure_pole_clearance(blaschke, e1, 3.1)


def _check_chains():
    """Chains with one stage that breaks the state, at each place a stage
    chain runs: a Conjugate (h, f, h^{-1}) and a Compose of two maps."""
    e1, e2 = geo.basis_boundary_point(1), geo.basis_boundary_point(2)
    aut = cat.ball_automorphism
    good, good2 = (geo.hyperbolic_automorphism(e, 3.0) for e in (e1, e2))
    # an axial stage of dilation -2 turns every margin negative, and a
    # rotation form that is not unitary turns a tail off its reference
    bad = geo._aut(np.zeros(1), -np.eye(1), 1.0,
                   stage=geo.AxialStage(e1.coords, -2.0))
    skew = geo._aut(np.zeros(2),
                    -np.array([[1.0, 0.5], [0.0, 1.0]], complex), 1.0)
    b = cat.blaschke_product([0.0, 1.0 / 3.0])

    def conj(outer, mid, inner):
        return cat.Conjugate(q=outer.q, params=(good,),
                             children=(outer, mid, inner))
    return {
        "conj_inner": conj(aut(good), b, aut(bad)),
        "conj_middle": conj(aut(good), aut(bad), aut(geo.inverse(good))),
        "conj_outer": conj(aut(bad), b, aut(geo.inverse(good))),
        "conj_input": conj(aut(good), b, aut(geo.inverse(good))),
        "conj_tail": conj(aut(good2), aut(skew), aut(geo.inverse(good2))),
        "comp_inner": cat.compose_maps(b, aut(bad)),
        "comp_outer": cat.compose_maps(aut(bad), b),
        "comp_between": cat.compose_maps(aut(good), aut(bad)),
        "comp_input": cat.compose_maps(b, aut(good)),
        "comp_tail": cat.compose_maps(aut(good2), aut(skew)),
    }


# What the stage-by-stage code raised for the anchors k = 2, 5, 9 as one
# batch and for k = 5 alone (a refused tail is named without a number), and
# for one point whose margin is -1e-3.
NEGATIVE = "adapted point has nonpositive margin "
CHECK_MESSAGES = {
    "conj_inner": (NEGATIVE + "-1.469e+00", NEGATIVE + "-3.347e-02"),
    "conj_middle": (NEGATIVE + "-3.456e-01", NEGATIVE + "-1.103e-02"),
    "conj_outer": (NEGATIVE + "-1.463e+00", NEGATIVE + "-3.347e-02"),
    "conj_input": (None, NEGATIVE + "-1.000e-03"),
    "conj_tail": ("adapted point's tail is not orthogonal to ref",) * 2,
    "comp_inner": (NEGATIVE + "-1.469e+00", NEGATIVE + "-3.347e-02"),
    "comp_outer": (NEGATIVE + "-2.132e+01", NEGATIVE + "-1.038e-01"),
    "comp_between": (NEGATIVE + "-1.469e+00", NEGATIVE + "-3.347e-02"),
    "comp_input": (None, NEGATIVE + "-1.000e-03"),
    "comp_tail": ("adapted point's tail is not orthogonal to ref",) * 2,
}


@pytest.mark.parametrize("name", CHECK_MESSAGES)
def test_broken_state_is_refused_where_it_arises(name):
    """A state that fails the margin or the tail check raises `DomainError`
    at the stage chain it enters or leaves, once, with the message the
    stage-by-stage code gave, for a batch and for one point, through
    `step_point` and `adapted_step`."""
    f = _check_chains()[name]
    e = geo.basis_boundary_point(f.q)
    batch = orb.radial_anchors(e, 3.0, [2, 5, 9])
    if f.q == 2:
        tail = np.array([[0, 0.01], [0, 0.02], [0, 0.001]], complex)
        batch = geo.PointBatch(e.coords, batch.delta, tail, 2.0 * batch.delta.real
                               - geo.abs_sq(batch.delta) - geo.sq_norm(tail))
    one = batch.point(1)
    if name.endswith("input"):
        one = geo.BallPoint(coords=np.array([0.5 + 0j]), margin=-1e-3,
                            ref=e.coords, delta=0.5 + 0j,
                            tail_vec=np.zeros(1, complex))
    for p, message in zip((batch, one), CHECK_MESSAGES[name]):
        if message is None:
            continue
        for step in (cat.step_point, cat.adapted_step):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(DomainError) as exc:
                step(f, p)
            assert str(exc.value) == message


def _map_tree(f):
    yield f
    for child in f.children:
        yield from _map_tree(child)


def test_every_stage_and_kind_plans_into_one_plan_type():
    """Each catalog kind among the golden specs' maps plans into
    `geometry.Plan` at +-e_1 of its dimension and at the spec's zeta, and
    their automorphisms carry every stage type, and no stage."""
    import test_golden
    specs = dict(test_golden.ORBIT_CASES.values())
    specs.update((spec, zeta.partition("=")[2]) for spec, zeta, *_
                 in test_golden.CLUSTER_CASES.values())
    kinds, stages = set(), set()
    for spec, zeta in specs.items():
        zeta = cli.parse_point(zeta)
        for g in _map_tree(cli.parse_mapspec(spec)):
            e = geo.basis_boundary_point(g.q).coords
            kinds.add(g.kind)
            if g.kind == "ball_automorphism":
                stages.add(type(g.params[0].stage))
            for ref in [e, -e] + [zeta] * (len(zeta) == g.q):
                assert type(g._plan(ref)) is geo.Plan
    assert kinds == {"blaschke", "ball_automorphism", "compose", "iterate",
                     "warped_product", "conjugate"}
    assert stages == {type(None)} | {v for name, v in vars(geo).items()
                                     if name.endswith("Stage")}


def test_pole_clearance_already_clear(disc_auto, e1):
    cleared, conj = cat.ensure_pole_clearance(disc_auto, e1)
    assert conj.label == "id"
    assert cleared is disc_auto


def test_pole_clearance_rejects_dw_at_zeta(disc_auto):
    with pytest.raises(DomainError):
        cat.ensure_pole_clearance(disc_auto, geo.boundary_point([-1.0]))


# ---------------------------------------------------------------------------
# horosphere contraction (the sampled inclusion f(E_k) in E_{k-1})
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["auto", "blaschke"])
def test_horosphere_contraction(which, cleared_blaschke, disc_auto, e1, rng):
    f = disc_auto if which == "auto" else cleared_blaschke[0]
    for k in range(6):
        pts = sample_horodisc(rng, e1, 3.0 ** (-k), 2000)
        h = geo.horo_raw(cat.evaluate(f, pts), e1.coords)
        assert np.all(h < -(k - 1) * LOG3 + 1e-9)


def test_adapted_step_matches_raw_evaluation(cleared_blaschke, e1, rng):
    f = cleared_blaschke[0]
    for s in (0.5, 2.0, 8.0, 14.0):
        p = geo.geodesic_point(e1, s)
        out = cat.adapted_step(f, p)
        raw = cat.evaluate(f, p.coords)
        assert np.linalg.norm(out.coords - raw) < 1e-12
        assert out.margin == pytest.approx(1.0 - abs(raw[0]) ** 2, rel=1e-9)


@given(st.floats(0.01, 0.95), st.floats(0.0, 2 * np.pi))
@settings(max_examples=60, deadline=None)
def test_adapted_step_agrees_with_evaluation(r, phi):
    # defect recursion and plain evaluation describe the same map wherever
    # coordinates can still resolve the point
    e1 = geo.basis_boundary_point(1)
    b = cat.blaschke_product([0.0, 1.0 / 3.0])
    z = geo.with_reference(geo.ball_point([r * np.exp(1j * phi)]), e1)
    out = cat.adapted_step(b, z)
    raw = cat.evaluate(b, z.coords)
    assert np.linalg.norm(out.coords - raw) < 1e-12
    assert out.margin == pytest.approx(1.0 - abs(raw[0]) ** 2,
                                       rel=1e-8, abs=1e-14)


def test_horodisc_sampler_q2(rng):
    zeta = geo.basis_boundary_point(2)
    pts = sample_horodisc(rng, zeta, 0.5, 500)
    assert len(pts) == 500
    h = geo.horo_raw(pts, zeta.coords)
    assert np.all(h < np.log(0.5))


def test_adapted_step_deep_consistency(cleared_blaschke, e1):
    # adapted stepping reproduces the exact one-step horofunction gain of
    # the linearisation at depth where raw coordinates saturate
    f = cleared_blaschke[0]
    deep = geo.boundary_adapted_point(e1.coords, 2.0 * 3.0 ** (-35),
                                      margin=4.0 * 3.0 ** (-35))
    out = cat.adapted_step(f, deep)
    gain = geo.horofunction(out, e1) - geo.horofunction(deep, e1)
    assert gain == pytest.approx(LOG3, abs=1e-10)
