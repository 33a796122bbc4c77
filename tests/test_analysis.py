"""Orbit comparison, region equivalence, tube covering, pre-model checks."""

import math

import numpy as np
import pytest

from ballorbits import analysis as ana
from ballorbits import catalog as cat
from ballorbits import geometry as geo
from ballorbits import orbits as orb
from ballorbits.errors import DimensionMismatch, DomainError
from ballorbits.sampling import tube_samples

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


@pytest.mark.parametrize("width", [float("nan"), float("inf"), -1.0])
def test_region_check_refuses_a_width_not_finite_and_nonnegative(e1, width):
    # a nan width passed with a nan functional max, and -1 read as a
    # violated invariant
    with pytest.raises(DomainError, match="tube width"):
        ana.region_equivalence_check([], e1, width, 2.0)


def test_tube_covering_refuses_an_empty_orbit(e1):
    empty = orb.OrbitSegment(points=(), zeta=e1, lam=3.0)
    with pytest.raises(DomainError, match="orbit with points"):
        ana.tube_covering_check(empty, e1, 1.0)


def reference_covering(eta, zeta, width, s_values=None):
    """`tube_covering_check` from the full matrix: every sample's distance
    to every orbit point, the row minima and their max."""
    eta = ana._with_refs(eta)
    samples = tube_samples(zeta, width, s_values=s_values,
                           radius_fractions=(1.0, 0.5) if width > 0.0 else ())
    r_hat = float(geo.kob_matrix(samples, eta.points).min(axis=1).max())
    c_hat = geo.dist_to_geodesic(eta.points, zeta)[0].max()
    steps, _, _ = orb.orbit_diagnostics(eta)
    sigma = float(steps.max()) if len(steps) else 0.0
    bound = width + 3.0 * c_hat + sigma + 1e-6
    return ana.TubeCoveringReport(r_hat=r_hat, c_hat=float(c_hat),
                                  sigma_hat=sigma, bound=float(bound),
                                  ok=r_hat <= bound, n_samples=len(samples))


def _assert_covering_matches(seg, zeta, width, s_values=None):
    rep = ana.tube_covering_check(seg, zeta, width, s_values=s_values)
    # repr keeps every bit of a float
    assert repr(rep) == repr(reference_covering(seg, zeta, width, s_values))


@pytest.fixture(scope="module")
def offaxis_chains():
    """A backward orbit of the hyperbolic map of dilation 3 at an off-axis
    zeta, for q = 1, 2, 3."""
    chains = {}
    for q in (1, 2, 3):
        v = np.array([1.0, 1j]) @ np.random.default_rng(q).normal(size=(2, q))
        zeta = geo.boundary_point(v / np.linalg.norm(v))
        res = orb.construct_backward_orbit(cat.hyperbolic_selfmap(zeta, 3.0),
                                           zeta, 3.0)
        chains[q] = _ray_part(res.orbit)
    return chains


@pytest.mark.parametrize("form", ["batch", "tuple"])
@pytest.mark.parametrize("width", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_tube_covering_matches_full_matrix(offaxis_chains, q, width, form):
    seg = offaxis_chains[q]
    assert isinstance(seg.points, geo.PointBatch)
    if form == "tuple":
        seg = orb.OrbitSegment(points=tuple(seg.points), zeta=seg.zeta,
                               lam=seg.lam)
    _assert_covering_matches(seg, seg.zeta, width)


def test_tube_covering_matches_full_matrix_on_coordinate_points(e1):
    auto = cat.hyperbolic_selfmap(e1, 3.0)
    # no structured step: every point but the deepest, its anchor, holds
    # coordinates alone
    raw = cat.callable_map(lambda z: cat.evaluate(auto, z), 1)
    res = orb.construct_backward_orbit(
        raw, e1, 3.0, orb.OrbitParams(k_max=6, dist_target=1e-2))
    assert all(p.ref is None for p in res.orbit.points[:-1])
    for width in (0.0, 0.5, 2.0):
        _assert_covering_matches(res.orbit, e1, width, np.arange(1.0, 6.0))


@pytest.fixture(scope="module")
def criterion_08_chains(auto_orbit, blaschke_orbit):
    return [_ray_part(auto_orbit.orbit), _ray_part(blaschke_orbit.orbit)]


def test_tube_covering_matches_full_matrix_on_criterion_08(
        criterion_08_chains, e1):
    for seg in criterion_08_chains:
        _assert_covering_matches(seg, e1, 1.0)


def test_tube_covering_measures_few_pairs(criterion_08_chains, e1,
                                          monkeypatch):
    """The rows that cannot set the covering radius are not measured: the
    distance kernel sees under a quarter of the sample-orbit pairs."""
    shapes = []
    kob = geo._kob

    def counted(z_lanes, w_lanes):
        shapes.append(np.broadcast_shapes(z_lanes[1].shape,
                                          w_lanes[1].shape))
        return kob(z_lanes, w_lanes)

    monkeypatch.setattr(geo, "_kob", counted)
    for seg in criterion_08_chains:
        shapes.clear()
        rep = ana.tube_covering_check(seg, e1, 1.0)
        assert rep.n_samples == 510
        assert sum(math.prod(shape) for shape in shapes) < 510 * len(seg) / 4


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


def reference_premodel_tail(pm, zeta):
    """`premodel_validate`'s backward-orbit and K-limit lines point by
    point: one `ell` call and one `np.linalg.norm` per backward tau-iterate
    and per probe point."""
    def residual(w):
        return float(np.linalg.norm(np.asarray(pm.ell(w[None, :]))[0]
                                    - zeta.coords))

    tau_inv = geo.inverse(pm.tau)
    x = np.full(pm.base_dim, 0.25 + 0.1j, dtype=complex)
    res_seq = []
    for _ in range(30):
        x = geo.apply_raw(tau_inv, x)
        res_seq.append(residual(x))
    lines = [ana.CheckLine("backward_orbit_to_zeta",
                           res_seq[-1] < 1e-5 and res_seq[-1] < res_seq[0],
                           1e-5 - res_seq[-1])]
    klim_ok = True
    worst = 0.0
    for seq in cat.koranyi_probes(pm.repelling, np.arange(4.0, 20.01, 2.0)):
        res = [residual(p.coords) for p in seq]
        worst = max(worst, res[-1])
        if res[-1] > 1e-5 or res[-1] > res[0]:
            klim_ok = False
    lines.append(ana.CheckLine("intertwiner_k_limit", klim_ok, 1e-5 - worst))
    return ana.render_report(lines)


def test_premodel_lines_match_per_point_reference(warped_setup, e1_q2):
    """Criterion 09's good and bad triples, and identity triples."""
    wp, good = warped_setup
    bad = ana.PreModel(base_dim=1, ell=good.ell,
                       tau=geo.hyperbolic_automorphism(
                           geo.basis_boundary_point(1), 3.3),
                       repelling=good.repelling)
    cases = [(wp, good, e1_q2), (wp, bad, e1_q2)]
    for zeta in (geo.basis_boundary_point(1), geo.boundary_point([0.6, 0.8j])):
        auto = cat.hyperbolic_selfmap(zeta, 3.0)
        cases.append((auto, ana.identity_premodel(auto, zeta, 3.0), zeta))
    for f, pm, target in cases:
        rep = ana.premodel_validate(f, pm, target, lam=3.0,
                                    rng=np.random.default_rng(12345))
        assert (ana.render_report(rep.lines[2:])
                == reference_premodel_tail(pm, target))
