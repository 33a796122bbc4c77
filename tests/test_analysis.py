"""Orbit comparison, region equivalence, tube covering, pre-model checks."""

import numpy as np
import pytest

from ballorbits import analysis as ana
from ballorbits import catalog as cat
from ballorbits import geometry as geo
from ballorbits import orbits as orb
from ballorbits.errors import DimensionMismatch, DomainError

LOG3 = np.log(3.0)


def _perturbed_newton_orbit(cleared, orbit_result, e1, offset=0.05):
    x0 = orbit_result.orbit.points[0]
    seed = geo.apply(geo.mobius_involution(geo.ball_point(x0.coords)),
                     geo.ball_point([np.tanh(offset / 2.0) * 1j]))
    return orb.backward_orbit_via_preimages(
        cleared, seed, e1, len(orbit_result.orbit) - 1, lam_hint=3.0)


@pytest.fixture(scope="module")
def newton_orbit(cleared_blaschke, blaschke_orbit, e1):
    cleared, _ = cleared_blaschke
    return _perturbed_newton_orbit(cleared, blaschke_orbit, e1)


# ---------------------------------------------------------------------------
# distance profiles
# ---------------------------------------------------------------------------

def test_profile_of_orbit_with_itself(blaschke_orbit):
    comp = ana.orbit_distance_profile(blaschke_orbit.orbit,
                                      blaschke_orbit.orbit)
    assert comp.direct.max() < 1e-6
    assert comp.plateau


def test_profile_shifted_by_one(blaschke_orbit):
    seg = blaschke_orbit.orbit
    shifted = orb.OrbitSegment(points=seg.points[1:], zeta=seg.zeta,
                               lam=seg.lam, map_label=seg.map_label)
    comp = ana.orbit_distance_profile(shifted, seg)
    sigma = blaschke_orbit.steps.max()
    assert comp.direct.max() <= sigma + 1e-10
    assert comp.plateau


def test_profile_construction_vs_newton(blaschke_orbit, newton_orbit):
    comp = ana.orbit_distance_profile(blaschke_orbit.orbit,
                                      newton_orbit.orbit)
    assert comp.plateau
    assert np.isfinite(comp.c_bound)
    # shifted <= direct pointwise; shifted nondecreasing
    assert np.all(comp.shifted <= comp.direct + 1e-12)
    assert np.all(np.diff(comp.shifted) >= -1e-12)


def test_profile_refuses_different_targets(blaschke_orbit, e1):
    seg = blaschke_orbit.orbit
    other = orb.OrbitSegment(points=seg.points, zeta=geo.boundary_point(
        [-1.0]), lam=seg.lam, map_label=seg.map_label)
    with pytest.raises(DomainError):
        ana.orbit_distance_profile(seg, other)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
def test_profile_refuses_a_plateau_tolerance_not_positive(blaschke_orbit, eps):
    seg = blaschke_orbit.orbit
    with pytest.raises(DomainError, match="eps_plateau"):
        ana.orbit_distance_profile(seg, seg, eps_plateau=eps)


# ---------------------------------------------------------------------------
# shift recovery
# ---------------------------------------------------------------------------

def test_shift_recovery_known_shift(blaschke_orbit):
    seg = blaschke_orbit.orbit
    shifted = orb.OrbitSegment(points=seg.points[3:], zeta=seg.zeta,
                               lam=seg.lam, map_label=seg.map_label)
    res = ana.shift_recovery(ana.orbit_distance_profile(shifted, seg), seg)
    assert res.alpha == 3
    assert res.c_star < 1e-6


def test_shift_recovery_independent_orbits(blaschke_orbit, newton_orbit):
    xi, eta = blaschke_orbit.orbit, newton_orbit.orbit
    res = ana.shift_recovery(ana.orbit_distance_profile(xi, eta), eta)
    sigma = newton_orbit.steps.max()
    assert res.certified_bound <= res.c_star + abs(res.alpha) * sigma + 1e-12
    assert res.direct_max <= res.certified_bound + 1e-9


def test_shift_recovery_refuses_mismatched(blaschke_orbit):
    seg = blaschke_orbit.orbit
    other = orb.OrbitSegment(points=seg.points, zeta=geo.boundary_point(
        [-1.0]), lam=seg.lam, map_label=seg.map_label)
    with pytest.raises(DomainError):
        ana.shift_recovery(ana.orbit_distance_profile(seg, other), other)
    shorter = orb.OrbitSegment(points=seg.points[:-1], zeta=seg.zeta,
                               lam=seg.lam, map_label=seg.map_label)
    with pytest.raises(DomainError, match="measured"):
        ana.shift_recovery(ana.orbit_distance_profile(seg, seg), shorter)


# ---------------------------------------------------------------------------
# region equivalence
# ---------------------------------------------------------------------------

def test_region_equivalence_radial_sequence(e1):
    radial = [geo.geodesic_point(e1, s) for s in np.arange(1.0, 15.0)]
    rep = ana.region_equivalence_check(radial, e1, 1.0, 2.0)
    assert rep.violations == 0
    assert rep.tail_start == 0
    assert rep.l_hat < 1e-5


def test_region_equivalence_orbit(blaschke_orbit, e1):
    rep = ana.region_equivalence_check(list(blaschke_orbit.orbit.points),
                                       e1, 1.0, 2.0)
    assert rep.violations == 0
    assert rep.tail_start is not None
    assert np.isfinite(rep.l_hat)


def test_point_outside_tube_has_large_functional(e1_q2):
    # a point with Koranyi functional > 2L demonstrates the implication's
    # hypothesis set correctly: it cannot lie in A(gamma, L)
    width = 0.5
    z = geo.ball_point([0.0, 0.8])
    functional = geo.koranyi_functional(z, e1_q2)
    assert functional > 2.0 * width + 1.0
    d, _ = geo.dist_to_geodesic(z, e1_q2)
    assert d > width


# ---------------------------------------------------------------------------
# tube covering
# ---------------------------------------------------------------------------

def _ray_part(segment):
    return orb.OrbitSegment(points=segment.points[1:], zeta=segment.zeta,
                            lam=segment.lam, map_label=segment.map_label)


def test_tube_covering_automorphism(auto_orbit, e1):
    rep = ana.tube_covering_check(_ray_part(auto_orbit.orbit), e1, 1.0)
    assert rep.c_hat < 1e-6
    assert rep.r_hat <= 1.0 + rep.sigma_hat + 1e-6


def test_tube_covering_on_axis_samples(auto_orbit, e1):
    rep = ana.tube_covering_check(_ray_part(auto_orbit.orbit), e1, 0.0)
    assert rep.r_hat <= 3.0 * rep.c_hat + rep.sigma_hat + 1e-6


def test_tube_covering_blaschke(blaschke_orbit, e1):
    rep = ana.tube_covering_check(_ray_part(blaschke_orbit.orbit), e1, 1.0)
    assert rep.ok
    assert np.isfinite(rep.r_hat)
    assert rep.r_hat <= 1.0 + 3.0 * rep.c_hat + rep.sigma_hat + 1e-6


# ---------------------------------------------------------------------------
# intertwining triples
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def warped_setup():
    e1 = geo.basis_boundary_point(1)
    wp = cat.warped_product(cat.hyperbolic_selfmap(e1, 3.0), 0.5, q=2)
    pm = ana.embedded_disc_premodel(geo.hyperbolic_automorphism(e1, 3.0),
                                    2, e1)
    return wp, pm


def test_premodel_identity_case(disc_auto, e1):
    pm = ana.identity_premodel(disc_auto, e1, 3.0)
    rep = ana.premodel_validate(disc_auto, pm, e1, lam=3.0)
    assert rep.passed
    assert "CHECK intertwining PASS" in rep.render()


def test_premodel_warped_product(warped_setup, e1_q2):
    wp, pm = warped_setup
    rep = ana.premodel_validate(wp, pm, e1_q2, lam=3.0)
    assert rep.passed
    for line in rep.lines:
        assert line.passed


@pytest.mark.parametrize("lam", [1.0, 0.5, float("nan")])
def test_premodel_refuses_a_dilation_not_above_1(warped_setup, e1_q2, lam):
    wp, pm = warped_setup
    with pytest.raises(DomainError, match="dilation > 1"):
        ana.premodel_validate(wp, pm, e1_q2, lam=lam)


def test_premodel_refuses_a_base_of_another_dimension(disc_auto, e1):
    # a q = 1 map, tau on the disc, and samples drawn in B^3: numpy would
    # broadcast every check into a pass
    pm = ana.PreModel(base_dim=3, ell=lambda w: w,
                      tau=geo.hyperbolic_automorphism(e1, 3.0), repelling=e1)
    with pytest.raises(DimensionMismatch, match="base_dim"):
        ana.premodel_validate(disc_auto, pm, e1, lam=3.0)


def test_premodel_corrupted_dilation_fails(warped_setup, e1_q2):
    wp, pm = warped_setup
    e1 = geo.basis_boundary_point(1)
    bad = ana.PreModel(base_dim=1, ell=pm.ell,
                       tau=geo.hyperbolic_automorphism(e1, 3.0 * 1.1),
                       repelling=e1)
    rep = ana.premodel_validate(wp, bad, e1_q2, lam=3.0)
    assert not rep.passed
    assert not rep.lines[1].passed          # the dilation check
    assert "CHECK base_dilation FAIL" in rep.render()


def test_premodel_conjugation_equivariance(warped_setup, e1_q2, rng):
    # conjugating the map and the intertwiner by the same automorphism
    # leaves every residual at the same (zero) level
    wp, pm = warped_setup
    g = geo.hyperbolic_automorphism(e1_q2, 2.0)
    conj = cat.conjugate_map(wp, g)
    pm_conj = ana.PreModel(
        base_dim=1,
        ell=lambda w: geo.apply_raw(g, np.asarray(pm.ell(w))),
        tau=pm.tau, repelling=pm.repelling)
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    rep = ana.premodel_validate(wp, pm, e1_q2, lam=3.0, rng=rng_a)
    rep_conj = ana.premodel_validate(conj, pm_conj, e1_q2, lam=3.0,
                                     rng=rng_b)
    r0 = 1e-8 - rep.lines[0].margin
    r1 = 1e-8 - rep_conj.lines[0].margin
    assert abs(r0 - r1) < 1e-10
    assert rep_conj.passed
