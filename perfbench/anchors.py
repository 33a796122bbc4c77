"""Untraced per-call times of the operations the ROADMAP baseline quotes.

    python3 perfbench/anchors.py

Each figure is the minimum over a few repeats, without the tracer, so it
can be set beside the baseline and beside the traced per-call times that
`run.py --trace 1` prints.  Not part of the benchmark runs.
"""

import time

import run  # pins the BLAS threads before numpy loads

run.load_program()

import numpy as np  # noqa: E402

from ballorbits import catalog, geometry, orbits, sampling  # noqa: E402


def best(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def per_call(fn, args, repeats=5):
    return best(lambda: [fn(*a) for a in args], repeats) / len(args)


def main():
    e1 = geometry.basis_boundary_point(1)
    blaschke = catalog.blaschke_product([0.0, 1.0 / 3.0])
    cleared, _ = catalog.ensure_pole_clearance(blaschke, e1)
    res = orbits.construct_backward_orbit(cleared, e1, 3.0)
    x0 = res.orbit.points[0]
    seed_pt = geometry.apply(
        geometry.mobius_involution(geometry.ball_point(x0.coords)),
        geometry.ball_point([np.tanh(0.025) * 1j]))
    pts = res.orbit.points
    anchors = [orbits.radial_anchor(e1, 3.0, k) for k in range(1, 41)]
    rows = [
        ("construct (cleared Blaschke, k <= 40)", 0.236,
         best(lambda: orbits.construct_backward_orbit(cleared, e1, 3.0))),
        (f"{len(pts) - 1}-step preimage march", 0.476,
         best(lambda: orbits.backward_orbit_via_preimages(
             cleared, seed_pt, e1, len(pts) - 1, lam_hint=3.0), 3)),
        ("tube_samples, 10,200 points", 0.468,
         best(lambda: sampling.tube_samples(
             e1, 1.0, s_values=np.arange(0.25, 30.001, 0.25), n_angles=28,
             radius_fractions=(1.0, 0.75, 0.5)), 3)),
        ("dist_to_geodesic per call", 2.1e-3,
         per_call(geometry.dist_to_geodesic, [(p, e1) for p in pts], 3)),
        ("kob_dist per call", 25e-6,
         per_call(geometry.kob_dist, list(zip(pts, pts[1:])))),
        ("step_point per call, Blaschke", 33e-6,
         per_call(catalog.step_point, [(blaschke, a) for a in anchors])),
        ("step_point per call, its conjugate", 135e-6,
         per_call(catalog.step_point, [(cleared, a) for a in anchors])),
    ]
    for label, baseline, t in rows:
        print(f"{label:40s} {t:.4g} s  (baseline {baseline:.3g} s, "
              f"ratio {t / baseline:.2f})")


if __name__ == "__main__":
    main()
