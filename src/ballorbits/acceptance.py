"""The acceptance battery: ten quantitative criteria on catalog maps.

Each criterion renders exactly one line `CHECK <name> PASS|FAIL
margin=<float>`; `run_suite` is deterministic for a fixed seed, byte for
byte, which criterion 10 itself verifies.  A pass (`run_criteria`) builds
what several criteria use, the pole-cleared Blaschke map and two orbits,
once, in a `PassFixtures` it hands to each criterion.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

import numpy as np

from . import analysis as ana
from . import catalog as cat
from . import geometry as geo
from . import orbits as orb
from .analysis import CheckLine
from .sampling import rng_from_seed, sample_horodisc, tube_samples

LOG3 = float(np.log(3.0))


def _e1():
    return geo.basis_boundary_point(1)


def _disc_automorphism():
    return cat.hyperbolic_selfmap(_e1(), 3.0)


class PassFixtures:
    """What the criteria of one pass share, each built on first use: the
    pole-cleared Blaschke map [0, 1/3] with its conjugator, and its and the
    disc automorphism's backward orbits at e_1 with lam = 3, anchor runs
    (`records`) included.  A pass makes one for every criterion."""

    @cached_property
    def cleared_blaschke(self):
        b = cat.blaschke_product([0.0, 1.0 / 3.0])
        return cat.ensure_pole_clearance(b, _e1())

    @cached_property
    def blaschke_orbit(self) -> orb.BackwardOrbitResult:
        return orb.construct_backward_orbit(self.cleared_blaschke[0], _e1(),
                                            3.0)

    @cached_property
    def auto_orbit(self) -> orb.BackwardOrbitResult:
        return orb.construct_backward_orbit(_disc_automorphism(), _e1(), 3.0)


def criterion_01_anchor_on_horosphere(seed, fx):
    """horofunction(r_k) = -k log(lam) to 1e-12 for lam in {1.5, 3, 10}."""
    worst = 0.0
    e1 = _e1()
    ks = np.arange(21)
    for lam in (1.5, 3.0, 10.0):
        h = geo.horofunction(orb.radial_anchors(e1, lam, ks), e1)
        worst = max(worst, float(np.abs(h + ks * np.log(lam)).max()))
    return CheckLine("criterion_01_anchor_on_horosphere", worst < 1e-12,
                     1e-12 - worst)


def criterion_02_step_limit_k40(seed, fx):
    """|kob(r_40, f(r_40)) - log 3| < 1e-3 on both orbits' k = 40 runs."""
    worst = 0.0
    for res in (fx.auto_orbit, fx.blaschke_orbit):
        r = next(rec for rec in res.records if rec.k == 40)
        worst = max(worst, abs(geo.kob_dist(r.point(0), r.point(1)) - LOG3))
    return CheckLine("criterion_02_step_limit_k40", worst < 1e-3,
                     1e-3 - worst)


def criterion_03_horosphere_contraction(seed, fx):
    """10^4 samples of E_k land in E_{k-1}, k = 0..5, no violations."""
    rng = rng_from_seed(seed)
    e1 = _e1()
    cleared, _ = fx.cleared_blaschke
    worst = -np.inf
    violations = 0
    for f in (_disc_automorphism(), cleared):
        for k in range(6):
            radius = 3.0 ** (-k)
            pts = sample_horodisc(rng, e1, radius, 10000)
            img = cat.evaluate(f, pts)
            h = geo.horo_raw(img, e1.coords)
            excess = h - (-(k - 1) * LOG3)
            worst = max(worst, float(excess.max()))
            violations += int(np.sum(excess >= 1e-9))
    return CheckLine("criterion_03_horosphere_contraction", violations == 0,
                     1e-9 - worst)


def criterion_04_stopping_times(seed, fx):
    """n(k) > k on both maps for k = 1..30; exactly k+1 for the automorphism."""
    ks = range(1, 31)
    n_a, n_b = ([rec.n for rec in res.records if rec.k in ks]
                for res in (fx.auto_orbit, fx.blaschke_orbit))
    ok = all(n == k + 1 for n, k in zip(n_a, ks)) \
        and all(n > k for n, k in zip(n_b, ks))
    margin = min(n - k for n, k in zip(n_b, ks))
    return CheckLine("criterion_04_stopping_times", ok, float(margin))


def criterion_05_backward_orbit(seed, fx):
    """Constructed orbit: zero chain residual, step tail in log3 +- 1e-3,
    monotone steps, |z_25 - zeta| < 1e-4."""
    cleared, _ = fx.cleared_blaschke
    res = fx.blaschke_orbit
    resid = orb.verify_backward(res.orbit, cleared)
    checks = [
        res.accepted,
        resid < 1e-10,
        abs(res.sigma_hat - LOG3) < 1e-3,
        bool(np.all(np.diff(res.steps) > -1e-12)),
        len(res.dist_zeta) > 25 and res.dist_zeta[25] < 1e-4,
    ]
    margin = min(1e-10 - resid, 1e-3 - abs(res.sigma_hat - LOG3),
                 1e-4 - res.dist_zeta[25])
    return CheckLine("criterion_05_backward_orbit", all(checks),
                     float(margin))


def criterion_06_finite_distance(seed, fx):
    """Construction vs Newton-preimage orbit from a seed offset by 0.05:
    direct profile flat in its last quarter, with a certified shift bound."""
    cleared, _ = fx.cleared_blaschke
    res = fx.blaschke_orbit
    newton = orb.offset_preimage_orbit(cleared, res.orbit, 3.0, 0.05)
    comp = ana.orbit_distance_profile(res.orbit, newton.orbit)
    quarter = max(len(comp.direct) // 4, 2)
    window = comp.direct[-quarter:]
    increase = float(window.max() - window.min())
    shift = ana.shift_recovery(comp, newton.orbit)
    ok = (increase < 1e-2
          and abs(geo.kob_dist(geo.ball_point(res.orbit.points[0].coords),
                               newton.orbit.points[0]) - 0.05) < 1e-12
          and shift.direct_max <= shift.certified_bound + 1e-9)
    return CheckLine("criterion_06_finite_distance", ok, 1e-2 - increase)


def criterion_07_tube_in_koranyi(seed, fx):
    """At least 10^4 graded tube samples per width, all satisfying the
    Koranyi functional bound 2L."""
    e1 = _e1()
    worst = -np.inf
    enough = True
    for width in (0.5, 1.0, 2.0):
        samples = tube_samples(
            e1, width, s_values=np.arange(0.25, 30.001, 0.25), n_angles=28,
            radius_fractions=(1.0, 0.75, 0.5))
        enough = enough and len(samples) >= 10000
        vals = geo.koranyi_functional(samples, e1) - 2.0 * width
        worst = max(worst, float(vals.max()))
    return CheckLine("criterion_07_tube_in_koranyi", enough and worst < 1e-9,
                     1e-9 - worst)


def criterion_08_tube_covering(seed, fx):
    """Orbit neighborhoods cover the tube: R <= L + sigma for the axial
    orbit (C = 0), R <= L + 3C + sigma for the cleared Blaschke orbit."""
    e1 = _e1()
    width = 1.0
    res_a = fx.auto_orbit
    seg_a = replace(res_a.orbit, points=res_a.orbit.points[1:])
    rep_a = ana.tube_covering_check(seg_a, e1, width)
    ok_a = rep_a.r_hat <= width + rep_a.sigma_hat + 1e-6
    res_b = fx.blaschke_orbit
    seg_b = replace(res_b.orbit, points=res_b.orbit.points[1:])
    rep_b = ana.tube_covering_check(seg_b, e1, width)
    ok_b = rep_b.r_hat <= width + 3.0 * rep_b.c_hat + rep_b.sigma_hat + 1e-6
    margin = min(width + rep_a.sigma_hat + 1e-6 - rep_a.r_hat,
                 width + 3.0 * rep_b.c_hat + rep_b.sigma_hat + 1e-6
                 - rep_b.r_hat)
    return CheckLine("criterion_08_tube_covering", ok_a and ok_b,
                     float(margin))


def criterion_09_intertwining_triple(seed, fx):
    """Warped product with its embedded-disc triple passes all four checks;
    corrupting the base dilation by 10% fails the dilation check."""
    e1 = _e1()
    e1_2 = geo.basis_boundary_point(2)
    wp = cat.warped_product(cat.hyperbolic_selfmap(e1, 3.0), 0.5, q=2)
    good = ana.embedded_disc_premodel(geo.hyperbolic_automorphism(e1, 3.0),
                                      2, e1)
    rep = ana.premodel_validate(wp, good, e1_2, lam=3.0,
                                rng=rng_from_seed(seed))
    bad = ana.PreModel(base_dim=1, ell=good.ell,
                       tau=geo.hyperbolic_automorphism(e1, 3.3),
                       repelling=e1)
    rep_bad = ana.premodel_validate(wp, bad, e1_2, lam=3.0,
                                    rng=rng_from_seed(seed))
    ok = rep.passed and not rep_bad.lines[1].passed
    margin = min(l.margin for l in rep.lines)
    return CheckLine("criterion_09_intertwining_triple", ok, float(margin))


_CRITERIA = [
    criterion_01_anchor_on_horosphere,
    criterion_02_step_limit_k40,
    criterion_03_horosphere_contraction,
    criterion_04_stopping_times,
    criterion_05_backward_orbit,
    criterion_06_finite_distance,
    criterion_07_tube_in_koranyi,
    criterion_08_tube_covering,
    criterion_09_intertwining_triple,
]


def run_criteria(seed: int) -> list[CheckLine]:
    """One pass: every criterion, sharing one `PassFixtures`."""
    fx = PassFixtures()
    return [crit(seed, fx) for crit in _CRITERIA]


def criterion_10_determinism(seed) -> CheckLine:
    """Two full passes with the same seed render byte-identical reports."""
    first = "\n".join(l.render() for l in run_criteria(seed))
    second = "\n".join(l.render() for l in run_criteria(seed))
    return CheckLine("criterion_10_determinism", first == second,
                     1.0 if first == second else -1.0)


def run_suite(seed: int):
    """(report text, all passed). The report embeds the seed so reruns are
    comparable."""
    lines = run_criteria(seed)
    lines.append(criterion_10_determinism(seed))
    passed = all(l.passed for l in lines)
    head = f"acceptance suite seed={seed}"
    text = head + "\n" + "\n".join(l.render() for l in lines) + "\n" \
        + ("SUITE PASS" if passed else "SUITE FAIL") + "\n"
    return text, passed
