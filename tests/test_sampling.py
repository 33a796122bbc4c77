"""Batched tube samples against the per-sample construction."""

import numpy as np
import pytest

from ballorbits import geometry as geo
from ballorbits import sampling
from ballorbits.errors import DomainError

# criterion 07's grid
S_GRID = np.arange(0.25, 30.001, 0.25)


def reference_samples(zeta, width, s_values, n_angles, fractions):
    """`tube_samples` one point at a time: adapted_at, AxialStage.apply,
    then the axis point."""
    q = zeta.q
    dirs = []
    for j in range(2 * q):
        d = np.zeros(q, dtype=complex)
        d[j // 2] = 1.0 if j % 2 == 0 else 1j
        dirs.append(d)
    pts = []
    for s in s_values:
        stage = geo.AxialStage(zeta.coords, -np.tanh(float(s) / 2.0))
        for frac in fractions:
            rho = np.tanh(frac * width / 2.0)
            for i in range(n_angles):
                direction = dirs[i % len(dirs)] * np.exp(2j * np.pi * i
                                                         / n_angles)
                u = sampling.adapted_at(zeta, rho * direction)
                ref, delta, tail, margin = stage.apply(u.ref, u.delta,
                                                       u.tail(), u.margin)
                pts.append(geo.boundary_adapted_point(ref, delta, tail=tail,
                                                      margin=margin))
        pts.append(geo._axis_point(zeta, float(s)))
    return pts


def _compare(zeta, width, s_values, n_angles, fractions, tail_tol):
    batch = sampling.tube_samples(zeta, width, s_values=s_values,
                                  n_angles=n_angles,
                                  radius_fractions=fractions)
    ref = reference_samples(zeta, width, s_values, n_angles, fractions)
    assert len(batch) == len(ref)
    assert np.array_equal(batch.delta, [p.delta for p in ref])
    assert np.array_equal(batch.margin, [p.margin for p in ref])
    assert np.array_equal(geo.koranyi_functional(batch, zeta),
                          [geo.koranyi_functional(p, zeta) for p in ref])
    tails = np.array([p.tail() for p in ref])
    if tail_tol == 0.0:
        assert np.array_equal(batch.tail, tails)
    else:
        assert np.max(np.abs(batch.tail - tails)) <= tail_tol
    return batch, ref


@pytest.mark.parametrize("width", [0.5, 2.0])
def test_tube_samples_match_reference_disc(e1, width):
    _compare(e1, width, S_GRID, 28, (1.0, 0.75, 0.5), 0.0)


@pytest.mark.parametrize("fractions", [(1.0, 0.5), ()])
def test_tube_samples_match_reference_e1_q2(e1_q2, fractions):
    _compare(e1_q2, 1.3, np.arange(0.0, 30.001, 0.5), 8, fractions, 0.0)


def test_tube_samples_match_reference_off_axis():
    # the batch keeps the stage's tails; the reference recomputes each tail
    # from the coordinates, which rounds differently off the axes
    zeta = geo.boundary_point([0.6, 0.8j])
    batch, ref = _compare(zeta, 1.0, np.arange(0.5, 30.001, 0.5), 8,
                          (1.0, 0.5), 1e-15)
    i = len(batch) // 3
    assert batch.point(i).delta == ref[i].delta
    # an off-vertex batch takes the per-point path
    other = geo.boundary_point([0.8, 0.6])
    assert np.array_equal(geo.koranyi_functional(batch, other),
                          [geo.koranyi_functional(p, other) for p in ref])


def test_abs_sq_matches_scalar_rounding():
    # np.abs(z) ** 2 rounds differently from the scalar path on about a
    # third of these values; abs_sq must not
    rng = np.random.default_rng(11)
    z = (10.0 ** rng.uniform(-13.0, 0.0, 100_000)
         * np.exp(2j * np.pi * rng.uniform(size=100_000)))
    expected = np.array([abs(complex(v)) ** 2 for v in z])
    assert np.array_equal(geo.abs_sq(z), expected)
    assert geo.abs_sq(complex(z[0])) == expected[0]


def test_point_batch_rejects_nonpositive_margin(e1):
    with pytest.raises(DomainError):
        geo.PointBatch(ref=e1.coords, delta=np.array([0.5, 1e-3]),
                       tail=np.zeros((2, 1), dtype=complex),
                       margin=np.array([0.75, 0.0]))
