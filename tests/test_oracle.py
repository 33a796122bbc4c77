"""High-precision oracles for the defect recursions of the axial stage.

Each check rebuilds a float point's image from coordinates with mpmath and
compares the float defect state (delta, tail, margin) with the image's,
each within 1e-13 relative.  The oracle works with 50 significant digits
below the deepest defect it meets (e^{-200} ~ 1e-87), so at 150 digits.
The input of a translate is the same construction at s = 0, where the
stage's dilation is 1 and the point is its input bit for bit.
"""

import mpmath
import numpy as np
import pytest

from ballorbits import catalog as cat
from ballorbits import geometry as geo
from ballorbits import orbits as orb
from ballorbits import sampling
from ballorbits.errors import DomainError

from conftest import random_interior

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
            out *= (z - mp.mpf(a)) / (1 - mp.mpf(a) * z)
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
