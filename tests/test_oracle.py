"""High-precision oracles for the defect recursions of the axial stage, of
Blaschke factors and of the automorphisms' closed and rotation forms, the
rotation form against the unitary stage it replaced, bit for bit, the
preimage march's backward residuals, and the closed-form preimages.

Each check rebuilds a float point's image from coordinates with mpmath and
compares the float defect state (delta, tail, margin) with the image's,
each within 1e-13 relative.  The oracle works with 50 significant digits
below the deepest defect it meets (e^{-200} ~ 1e-87), so at 150 digits.
The input of a translate is the same construction at s = 0, where the
stage's dilation is 1 and the point is its input bit for bit.
"""

import contextlib
import io

import mpmath
import numpy as np
import pytest

from ballorbits import acceptance
from ballorbits import catalog as cat
from ballorbits import cli
from ballorbits import geometry as geo
from ballorbits import orbits as orb
from ballorbits import sampling
from ballorbits.errors import DomainError

from conftest import fixed_blaschke, preimage_cases, random_interior
from test_golden import COMPARE_CASES

mp = mpmath.mp
DPS = 150
REL = 1e-13
DEPTHS = (10.0, 30.0, 38.0, 60.0, 200.0)


def _unit(zeta):
    z = [mp.mpc(c) for c in zeta.coords]
    n = mp.sqrt(sum(abs(c) ** 2 for c in z))
    return [c / n for c in z]


def _dot(z, w):
    return sum(x * mp.conj(y) for x, y in zip(z, w))


def _coords(zeta, delta, tail):
    """The point (1 - delta) zeta + tail, the tail made exactly orthogonal
    to the unit zeta."""
    t = [mp.mpc(c) for c in tail]
    a = _dot(t, zeta)
    return [(1 - mp.mpc(delta)) * u + x - a * u for u, x in zip(zeta, t)]


def _translate(z, zeta, s):
    """-phi_{c zeta}(z), c = -tanh(s/2), from coordinates: the translation
    by s toward zeta along its axis."""
    c = -mp.tanh(mp.mpf(s) / 2)
    a = _dot(z, zeta)
    scale = mp.sqrt(1 - c * c)
    return [(a * u - c * u + scale * (x - a * u)) / (1 - c * a)
            for u, x in zip(zeta, z)]


def _assert_state(delta, tail, margin, z, zeta):
    """The float defect state against zeta matches the point z (mp); a
    zero tail is zero to the working precision."""
    a = _dot(z, zeta)
    want_tail = [x - a * u for u, x in zip(zeta, z)]
    want_delta = 1 - a
    want_margin = 1 - sum(abs(x) ** 2 for x in z)
    tail_err = mp.sqrt(sum(abs(mp.mpc(x) - y) ** 2
                           for x, y in zip(tail, want_tail)))
    tail_norm = mp.sqrt(sum(abs(y) ** 2 for y in want_tail))
    assert abs(mp.mpc(delta) - want_delta) <= REL * abs(want_delta)
    assert tail_err <= REL * tail_norm + 100 * mp.eps
    assert abs(mp.mpf(margin) - want_margin) <= REL * want_margin


def _off_axis_zeta(rng, q):
    v = rng.normal(size=q) + 1j * rng.normal(size=q)
    return geo.boundary_point(v / np.linalg.norm(v))


@pytest.mark.parametrize("q", [2, 3])
def test_axial_transport_matches_mobius_map(rng, q):
    with mp.workdps(DPS):
        for _ in range(3):
            zeta = _off_axis_zeta(rng, q)
            unit = _unit(zeta)
            p = sampling.adapted_at(zeta, random_interior(rng, q).coords)
            z = _coords(unit, p.delta, p.tail())
            for s in DEPTHS:
                out = sampling._axial_transport(zeta, s, p)
                _assert_state(out.delta, out.tail(), out.margin,
                              _translate(z, unit, s), unit)


@pytest.mark.parametrize("q", [2, 3])
def test_koranyi_probes_match_mobius_map(rng, q):
    with mp.workdps(DPS):
        zeta = _off_axis_zeta(rng, q)
        unit = _unit(zeta)
        starts = [seq[0] for seq in cat.koranyi_probes(zeta, [0.0])]
        probes = cat.koranyi_probes(zeta, DEPTHS)
        for p0, seq in zip(starts, probes):
            z = _coords(unit, p0.delta, p0.tail())
            for s, p in zip(DEPTHS, seq):
                _assert_state(p.delta, p.tail(), p.margin,
                              _translate(z, unit, s), unit)


def _assert_tube_translates(zeta, s_grid, dps):
    """Row r of the tube samples on `s_grid` is row r % m of the samples
    at s = 0 translated by s_grid[r // m]."""
    starts = sampling.tube_samples(zeta, 1.0, s_values=[0.0])
    batch = sampling.tube_samples(zeta, 1.0, s_values=s_grid)
    m = len(starts)
    assert len(batch) == m * len(s_grid)
    with mp.workdps(dps):
        unit = _unit(zeta)
        inputs = [_coords(unit, starts.delta[j], starts.tail[j])
                  for j in range(m)]
        for row in range(len(batch)):
            _assert_state(batch.delta[row], batch.tail[row],
                          batch.margin[row],
                          _translate(inputs[row % m], unit,
                                     s_grid[row // m]), unit)


def test_tube_samples_match_mobius_map(e1):
    """Every sample of criterion 08's tube: width 1 on the default grid."""
    s_grid = np.arange(1.0, 30.001, 1.0)
    assert np.array_equal(sampling.tube_samples(e1, 1.0).delta,
                          sampling.tube_samples(e1, 1.0, s_grid).delta)
    _assert_tube_translates(e1, s_grid, DPS)


def test_tube_samples_exact_to_the_float_range(e1_q2):
    """Translates as deep as e^{-s} stays a normal float, then a refusal."""
    # 50 digits below e^{-699} ~ 1e-304
    _assert_tube_translates(e1_q2, (100.0, 400.0, 699.0), 360)
    with pytest.raises(DomainError, match="exceeds float range"):
        sampling.tube_samples(e1_q2, 1.0, s_values=[1.0, 701.0])


def _disc_mobius(lam):
    """z |-> (z - c)/(1 - c z), c = (lam - 1)/(lam + 1): dilation lam at +1,
    evaluated at the caller's precision."""
    def f(z):
        c = (mp.mpf(lam) - 1) / (mp.mpf(lam) + 1)
        return (z - c) / (1 - c * z)
    return f


def _blaschke(zeros):
    def b(z):
        out = mp.mpc(1)
        for a in zeros:
            a = mp.mpc(a)
            out *= (z - a) / (1 - mp.conj(a) * z)
        return out
    return b


def _radial_cases():
    h_lam = float(np.exp(0.2))
    h, h_inv = _disc_mobius(h_lam), _disc_mobius(1.0 / h_lam)
    for lam in (1.5, 3.0, 10.0):
        f = _disc_mobius(lam)
        hyper = cat.hyperbolic_selfmap(geo.basis_boundary_point(1), lam)
        h_geo = geo.axis_translation(geo.basis_boundary_point(1), 0.2)
        yield (f"hyperbolic-{lam:g}", lam, hyper, f, (1.0, -1.0))
        yield (f"conjugate-{lam:g}", lam, cat.conjugate_map(hyper, h_geo),
               lambda z, f=f: h(f(h_inv(z))), (1.0, -1.0))
        for zeros, ends in (([0.0, 1.0 / 3.0], (1.0,)),
                            ([0.0, 0.2, -0.5], (1.0, -1.0))):
            yield (f"blaschke-{zeros}-{lam:g}", lam,
                   cat.blaschke_product(zeros), _blaschke(zeros), ends)
        # the deep iterate: b'(1)^3 = 27 magnifies the input's roundoff on
        # raw coordinates, so evaluate is no reference for it
        b = _blaschke([0.0, 1.0 / 3.0])
        yield (f"iterate-3-{lam:g}", lam,
               cat.iterate_map(cat.blaschke_product([0.0, 1.0 / 3.0]), 3),
               lambda z: b(b(b(z))), (1.0,))


@pytest.mark.parametrize("case", list(_radial_cases()), ids=lambda c: c[0])
def test_radial_anchor_steps_match_coordinates(case):
    """Anchors r_0..r_60 at +-1, stepped once by maps whose adapted step is
    axial stages, against the map on 50 digits below the anchor's depth."""
    _, lam, f, f_mp, ends = case
    ks = range(61)
    with mp.workdps(DPS):
        for end in ends:
            zeta = geo.boundary_point([end])
            anchors = orb.radial_anchors(zeta, lam, ks)
            out = cat.step_point(f, anchors)
            assert isinstance(out, geo.PointBatch)
            unit = _unit(zeta)
            for i in range(len(anchors)):
                z = _coords(unit, anchors.delta[i], anchors.tail[i])
                _assert_state(out.delta[i], out.tail[i], out.margin[i],
                              [f_mp(z[0])], unit)


def test_complex_zeros_at_unimodular_fixed_points():
    """Blaschke products with complex zeros and theta != 0, each at a
    random unimodular fixed point zeta with dilation lam >= 1.6: anchors
    r_0..r_60 stepped once, against the product on 50 digits below the
    anchor's depth.  The plan keeps zeta's bytes as the images' reference,
    treating zeta as fixed as `AxialStage` does, so the oracle takes zeta
    of modulus 1 and the rotation that fixes it exactly."""
    rng = np.random.default_rng(26)
    ks = range(61)
    with mp.workdps(DPS):
        for _ in range(24):
            zeros, f, zeta, lam = fixed_blaschke(rng)
            assert f._plan(zeta.coords).ref.tobytes() == zeta.coords.tobytes()
            unit = _unit(zeta)
            b = _blaschke(zeros)
            turn = unit[0] / b(unit[0])
            anchors = orb.radial_anchors(zeta, lam, ks)
            out = cat.step_point(f, anchors)
            for i in range(len(anchors)):
                z = _coords(unit, anchors.delta[i], anchors.tail[i])
                _assert_state(out.delta[i], out.tail[i], out.margin[i],
                              [turn * b(z[0])], unit)


def _phi_mp(a, z):
    """The involution phi_a at z, at the working precision."""
    aa = sum(abs(x) ** 2 for x in a)
    if aa == 0:
        return [-x for x in z]
    za, s = _dot(z, a), mp.sqrt(1 - aa)
    return [(u - za * u / aa - s * (x - za * u / aa)) / (1 - za)
            for u, x in zip(a, z)]


def _closed_form_draws(rng, q, n):
    """n automorphisms U phi_a with a reference: a hyperbolic automorphism
    at its attracting point -zeta, away from its stage's fixed point, in every
    third draw, else a random unitary and centre (|a| < 0.9, or 0 where the
    draw's index is a multiple of 5) at a random reference, which the map
    moves."""
    for i in range(n):
        ref = _off_axis_zeta(rng, q)
        if i % 3 == 2:
            g = geo.hyperbolic_automorphism(ref, rng.uniform(1.1, 20.0))
            yield g, geo.BoundaryPoint(-ref.coords)
            continue
        a = rng.normal(size=q) + 1j * rng.normal(size=q)
        a *= 0.0 if i % 5 == 0 else rng.uniform(0.0, 0.9) / np.linalg.norm(a)
        u = geo.project_unitary(rng.normal(size=(q, q))
                                + 1j * rng.normal(size=(q, q)))
        yield geo._aut(a, u, 1.0 - geo.sq_norm(a)), ref


def _deep_batch(rng, ref):
    """Points held against ref at |delta| = 1e-2 down to 1e-40, with tails
    filling 10% to 90% of their room (0 in q = 1)."""
    depths = 10.0 ** -np.arange(2.0, 40.1, 2.0)
    n, q = len(depths), ref.q
    delta = depths * np.exp(1j * rng.uniform(-1.2, 1.2, n))
    room = 2.0 * delta.real - np.abs(delta) ** 2
    tail = rng.normal(size=(n, q)) + 1j * rng.normal(size=(n, q))
    tail -= geo.herm(tail, ref.coords)[:, None] * ref.coords
    tail *= np.sqrt(rng.uniform(0.1, 0.9, n) * room
                    / np.maximum(geo.sq_norm(tail), 1e-300))[:, None]
    if q == 1:
        tail[:] = 0.0
    return geo.PointBatch(ref.coords, delta, tail, room - geo.sq_norm(tail))


def _assert_steps_as_the_map(g, ref, batch, a=None):
    """g's plan at ref steps the batch as g = U phi_a does on 150 digits,
    a the float centre of g unless given.  The oracle normalises ref and
    projects the tail orthogonal to it, and takes delta and the margin from
    phi_a before U, which a float U keeps unitary only to 1e-16."""
    out = g.plan(ref.coords).step(batch)
    unit = _unit(ref)
    a = [mp.mpc(x) for x in g.center] if a is None else a
    u = mp.matrix([[mp.mpc(x) for x in row] for row in g.unitary])
    image = _phi_mp(a, unit)
    eta = u * mp.matrix(image)
    eta = [x / mp.norm(eta) for x in eta]
    for i in range(len(batch)):
        w = _phi_mp(a, _coords(unit, batch.delta[i], batch.tail[i]))
        want_delta = 1 - _dot(w, image)
        want_margin = 1 - sum(abs(x) ** 2 for x in w)
        gw = list(u * mp.matrix(w))
        c = _dot(gw, eta)
        want_tail = [x - c * e for x, e in zip(gw, eta)]
        tail_err = mp.sqrt(sum(abs(mp.mpc(x) - y) ** 2
                               for x, y in zip(out.tail[i], want_tail)))
        tail_norm = mp.sqrt(sum(abs(y) ** 2 for y in want_tail))
        assert abs(mp.mpc(out.delta[i]) - want_delta) \
            <= REL * abs(want_delta)
        assert abs(mp.mpf(out.margin[i]) - want_margin) <= REL * want_margin
        assert tail_err <= REL * tail_norm + 100 * mp.eps


@pytest.mark.parametrize("q", [1, 2, 3])
def test_automorphism_closed_form_matches_the_map(rng, q):
    """`Automorphism.plan` away from its stage's fixed point, on deep
    points (`_deep_batch`), against g = U phi_a on 150 digits: the closed
    form, and the rotation form on the draws with centre 0."""
    with mp.workdps(DPS):
        for g, ref in _closed_form_draws(rng, q, 30):
            assert g.stage is None or not geo._same_direction(
                g.stage.zeta, ref.coords, geo.FIX_TOL)
            _assert_steps_as_the_map(g, ref, _deep_batch(rng, ref))


def _unitary_stage_plan(v, ref):
    """The unitary stage z |-> V z that centre-0 automorphisms stepped by
    before their rotation form: delta and margin kept, tail V tail, held
    against V ref normalised."""
    image = v @ ref
    return geo.Plan(image / np.linalg.norm(image), lambda d, t, m: (
        d, np.einsum("ij,...j->...i", v, t), m))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_centre_zero_steps_as_the_unitary_stage(rng, q):
    """Every centre-0 automorphism, `unitary_automorphism(v)` and its
    inverse, steps deep points bit for bit as the unitary stage of v or
    v^H did."""
    for _ in range(20):
        v = geo.project_unitary(rng.normal(size=(q, q))
                                + 1j * rng.normal(size=(q, q)))
        g = geo.unitary_automorphism(v)
        for aut, mat in ((g, v), (geo.inverse(g), v.conj().T)):
            batch = _deep_batch(rng, _off_axis_zeta(rng, q))
            plan = aut.plan(batch.ref)
            want = _unitary_stage_plan(mat, batch.ref).step(batch)
            out = plan.step(batch)
            assert plan.check_in and plan.check_out
            for name in ("ref", "delta", "tail", "margin"):
                assert getattr(out, name).tobytes() \
                    == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("q", [1, 2, 3])
def test_identity_and_antipodal_maps_step_exactly(rng, q):
    """The identity and the involution at 0 (-id) take the rotation form:
    delta and the margin keep their bytes and the tail is itself or its
    negative, exactly, against ref or -ref (the closed form gave a tail
    exact only to roundoff)."""
    zero = geo.ball_point(np.zeros(q))
    for g, sign in ((geo.identity_automorphism(q), 1.0),
                    (geo.mobius_involution(zero), -1.0)):
        batch = _deep_batch(rng, _off_axis_zeta(rng, q))
        out = g.plan(batch.ref).step(batch)
        want_ref = batch.ref if sign > 0 \
            else -batch.ref / np.linalg.norm(batch.ref)
        assert np.array_equal(out.ref, want_ref)
        assert out.delta.tobytes() == batch.delta.tobytes()
        assert out.margin.tobytes() == batch.margin.tobytes()
        assert np.array_equal(out.tail, sign * batch.tail)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_tiny_centre_takes_the_closed_form(rng, q):
    """A centre of modulus 1e-9 is past the rotation form's 1e-16: the
    closed form steps it, which moves delta by about 1e-9 relative, and
    agrees with 150 digits."""
    with mp.workdps(DPS):
        for _ in range(10):
            ref = _off_axis_zeta(rng, q)
            a = 1e-9 * _off_axis_zeta(rng, q).coords
            u = geo.project_unitary(rng.normal(size=(q, q))
                                    + 1j * rng.normal(size=(q, q)))
            g = geo._aut(a, u, 1.0 - geo.sq_norm(a))
            batch = _deep_batch(rng, ref)
            out = g.plan(ref.coords).step(batch)
            assert (out.delta != batch.delta).all()
            _assert_steps_as_the_map(g, ref, batch)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_hyperbolic_map_takes_its_stage_at_zeta_only(rng, q):
    """A hyperbolic automorphism plans by its stage's kernel at zeta, held
    against zeta's own bytes, and by the closed form at -zeta; both agree
    with 150 digits."""
    with mp.workdps(DPS):
        for _ in range(5):
            zeta = _off_axis_zeta(rng, q)
            g = geo.hyperbolic_automorphism(zeta, rng.uniform(1.1, 20.0))
            at, away = g.plan(zeta.coords), g.plan(-zeta.coords)
            assert at.kernel == g.stage.kernel and at.ref is zeta.coords
            assert away.kernel != g.stage.kernel
            for ref in (zeta, geo.BoundaryPoint(-zeta.coords)):
                _assert_steps_as_the_map(g, ref, _deep_batch(rng, ref))


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("lam", [1e3, 1e6, 1e8])
def test_large_dilations_step_as_the_exact_map(rng, q, lam):
    """A hyperbolic automorphism of dilation up to 1e8 steps deep points at
    zeta and at -zeta as the exact map -phi_{c zeta}, c = (lam - 1)/(lam +
    1) on 150 digits, within 1e-13 relative: its centre lies within 2/lam
    of the sphere, so the closed form at -zeta reads 1 - |c|^2 from the
    automorphism's spread, not from its float centre."""
    with mp.workdps(DPS):
        zeta = _off_axis_zeta(rng, q)
        g = geo.hyperbolic_automorphism(zeta, lam)
        c = (mp.mpf(lam) - 1) / (mp.mpf(lam) + 1)
        exact = [c * x for x in _unit(zeta)]
        for ref in (zeta, geo.BoundaryPoint(-zeta.coords)):
            _assert_steps_as_the_map(g, ref, _deep_batch(rng, ref), exact)


def test_deep_iterate_off_axis_matches_coordinates(rng):
    """b^3, b the Blaschke product [0, 1/3], on q = 1 points held against
    +1 off the radius, margin m from 1e-12 to 0.5, against b(b(b(z))).
    The angle is at most sqrt(m), so |1 - z|^2 = O(m): the horofunction is
    bounded and the image's delta is well conditioned in the input (far
    from +1 an image near it has no relative accuracy to check).  Each
    margin is the exact one of its float delta, rounded once."""
    b = _blaschke([0.0, 1.0 / 3.0])
    f = cat.iterate_map(cat.blaschke_product([0.0, 1.0 / 3.0]), 3)
    zeta = geo.boundary_point([1.0])
    unit = _unit(zeta)
    n = 1000
    margins = 10.0 ** rng.uniform(-12.0, np.log10(0.5), n)
    angles = rng.uniform(-1.0, 1.0, n) * np.sqrt(margins)
    with mp.workdps(DPS):
        delta = np.array([complex(1 - mp.sqrt(1 - mp.mpf(m)) * mp.expj(t))
                          for m, t in zip(margins, angles)])
        margin = np.array([float(2 * mp.mpf(d.real) - abs(mp.mpc(d)) ** 2)
                           for d in delta])
        out = cat.step_point(f, geo.PointBatch(
            zeta.coords, delta, np.zeros((n, 1), dtype=complex), margin))
        for i in range(n):
            z = _coords(unit, delta[i], [0.0])
            _assert_state(out.delta[i], out.tail[i], out.margin[i],
                          [b(b(b(z[0])))], unit)


def _horofunction_mp(z, zeta):
    return mp.log(abs(1 - _dot(z, zeta)) ** 2
                  / (1 - sum(abs(x) ** 2 for x in z)))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_horofunction_on_every_lane_kind(rng, q):
    """One call over mixed lanes against the horofunction of each point:
    held lanes deep toward zeta (defects to 1e-40), lanes held against
    another reference and coordinate-only lanes, each within 1e-13
    relative (absolute below 1).  A held point is its defect state and a
    coordinate-only point its coordinates."""
    zeta = _off_axis_zeta(rng, q)
    other = _off_axis_zeta(rng, q)
    pts, exact = [], []
    with mp.workdps(DPS):
        unit, unit_other = _unit(zeta), _unit(other)
        for i in range(60):
            u = random_interior(rng, q, scale=0.97)
            if i % 3 == 0:
                pts.append(u)
                exact.append([mp.mpc(c) for c in u.coords])
                continue
            ref, ref_unit = (zeta, unit) if i % 3 == 1 else (other, unit_other)
            p = sampling.adapted_at(ref, u.coords)
            if ref is zeta:
                scale = 10.0 ** -rng.uniform(0, 40)
                p = geo.boundary_adapted_point(
                    zeta.coords, scale * p.delta,
                    tail=np.sqrt(scale) * p.tail())
            pts.append(p)
            exact.append(_coords(ref_unit, p.delta, p.tail()))
        got = geo.horofunction(pts, zeta)
        for h, z in zip(got, exact):
            want = _horofunction_mp(z, unit)
            assert abs(h - want) <= REL * max(1, abs(want))


def _kob_mp(z, w):
    n = 1 - _dot(z, w)
    mz, mw = (1 - sum(abs(x) ** 2 for x in p) for p in (z, w))
    return 2 * mp.atanh(mp.sqrt(1 - mz * mw / abs(n) ** 2))


def test_kob_dist_of_close_pairs(rng):
    """`with_reference` pairs at |z| = 0.6 against e_2, from 1e-4 down to
    1e-12 apart: each distance, alone and in a matrix, within 1e-12
    relative of the distance of the points their defect states define."""
    e2 = geo.boundary_point([0, 1])
    with mp.workdps(DPS):
        unit = _unit(e2)
        for sep in 10.0 ** -np.arange(4.0, 12.5, 0.5):
            z, w = [], []
            for _ in range(4):
                v, u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                c = 0.6 * v / np.linalg.norm(v)
                for pts, x in ((z, c), (w, c + sep * u / np.linalg.norm(u))):
                    pts.append(geo.with_reference(geo.ball_point(x), e2))
            got = [geo.kob_dist(a, b) for a, b in zip(z, w)]
            assert np.diag(geo.kob_matrix(z, w)).tolist() == got
            for d, a, b in zip(got, z, w):
                want = _kob_mp(_coords(unit, a.delta, a.tail()),
                               _coords(unit, b.delta, b.tail()))
                assert abs(d - want) <= 1e-12 * want



def _map_mp(f):
    """f on coordinates at the working precision, built from its kind and
    children: a Blaschke product (`_blaschke`) turned by e^{i theta}, an
    automorphism U phi_a (`_phi_mp`), a warped product, a composition."""
    if isinstance(f, cat.Blaschke):
        zeros, theta = f.params
        b = _blaschke(zeros)
        return lambda z: [mp.expj(theta) * b(z[0])]
    if isinstance(f, cat.BallAutomorphism):
        g = f.params[0]
        a = [mp.mpc(x) for x in g.center]
        u = mp.matrix([[mp.mpc(x) for x in row] for row in g.unitary])
        return lambda z: list(u * mp.matrix(_phi_mp(a, z)))
    if isinstance(f, cat.WarpedProduct):
        phi, c = _map_mp(f.children[0]), mp.mpc(f.params[0])
        return lambda z: phi(z[:1]) + [c * x for x in z[1:]]
    parts = [_map_mp(g) for g in reversed(f.children)]

    def composed(z):
        for part in parts:
            z = part(z)
        return z
    return composed


@pytest.mark.parametrize("name", ["criterion_06", "blaschke", "conjugate",
                                  "warped", "hyperbolic_offaxis"])
def test_march_points_map_onto_their_predecessors(name, monkeypatch):
    """Each point z_{j+1} of a preimage march, rebuilt from its defect
    state, maps under f on 150 digits onto z_j within 1e-13 relative in
    delta: criterion 06's march and four `compare` marches.  The image is
    held against f's image eta of the unit zeta, as the plan holds it
    against zeta."""
    marches, march = [], orb.backward_orbit_via_preimages
    monkeypatch.setattr(orb, "backward_orbit_via_preimages",
                        lambda f, *args, **kwargs: marches.append(
                            (f, march(f, *args, **kwargs))) or marches[-1][1])
    if name == "criterion_06":
        assert acceptance.criterion_06_finite_distance(
            12345, acceptance.PassFixtures()).passed
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["compare", *COMPARE_CASES[name]]) == 0
    (f, res), = marches
    pts, f_mp = res.orbit.points, _map_mp(f)
    assert len(pts) == 42
    with mp.workdps(DPS):
        unit = _unit(res.orbit.zeta)
        eta = f_mp(unit)
        eta = [x / mp.sqrt(_dot(eta, eta).real) for x in eta]
        for j in range(1, len(pts)):
            w = f_mp(_coords(unit, pts.delta[j], pts.tail[j]))
            want = pts.delta[j - 1]
            assert abs(1 - _dot(w, eta) - mp.mpc(want)) <= REL * abs(want)


@pytest.mark.parametrize("name", preimage_cases())
def test_preimages_map_onto_their_target(name):
    """Each closed-form root of every kind maps on 150 digits onto the
    target within 1e-14 relative."""
    f, w, _ = preimage_cases()[name]
    roots, f_mp = cat.preimages(f, w), _map_mp(f)
    assert len(roots)
    with mp.workdps(DPS):
        want = [mp.mpc(x) for x in w]
        for z in roots:
            gap = [x - y for x, y in zip(f_mp([mp.mpc(x) for x in z]), want)]
            assert mp.sqrt(_dot(gap, gap).real) <= 1e-14 * mp.sqrt(
                _dot(want, want).real)
