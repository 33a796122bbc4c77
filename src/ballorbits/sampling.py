"""Deterministic samplers for balls, horospheres and geodesic tubes.

Everything either takes an explicit numpy Generator or is fully
deterministic; no module-level random state.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import (AxialStage, BallPoint, BoundaryPoint, PointBatch,
                       _lanes, boundary_adapted_point, herm)


def rng_from_seed(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(12345 if seed is None else int(seed))


def unit_directions(rng, q: int, n: int) -> np.ndarray:
    v = rng.normal(size=(n, q)) + 1j * rng.normal(size=(n, q))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def sample_ball(rng, q: int, n: int, r_max: float = 0.999) -> np.ndarray:
    """n points with radius uniform in (0, r_max)."""
    r = rng.uniform(0.0, r_max, size=n)
    return unit_directions(rng, q, n) * r[:, None]


def sample_shell(rng, q: int, n_per: int) -> np.ndarray:
    """Near-sphere samples at radii 1 - gap, gap = 1e-2, 1e-4, 1e-6, 1e-8."""
    blocks = [unit_directions(rng, q, n_per) * (1.0 - g)
              for g in (1e-2, 1e-4, 1e-6, 1e-8)]
    return np.concatenate(blocks, axis=0)


def sample_horodisc(rng, zeta: BoundaryPoint, radius: float,
                    n: int) -> np.ndarray:
    """Uniform samples of the horosphere E_0(zeta, R), drawn without
    rejection.

    E_0 = {|1 - <z, zeta>|^2 < R (1 - |z|^2)} is an ellipsoid.  With
    w = F^H z in a frame F taking e_1 to zeta it reads

        |w_1 - c|^2 / a^2 + |w'|^2 / b^2 < 1,
        c = 1/(1+R),  a = R/(1+R),  b^2 = R/(1+R),

    so w_1 = c + a v_1, w' = b v' carries a uniform point v of the real
    2q-ball onto a uniform sample.  In the disc E_0 is the round disc of
    centre c zeta and radius a.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise DomainError("horosphere radius must be finite and positive")
    q = zeta.q
    c = 1.0 / (1.0 + radius)
    a = radius / (1.0 + radius)
    if q == 1:
        u = np.sqrt(rng.uniform(0.0, 1.0 - 1e-12, size=n))
        phi = rng.uniform(0.0, 2 * np.pi, size=n)
        return (c + a * u * np.exp(1j * phi))[:, None] * zeta.coords[None, :]
    u = rng.uniform(0.0, 1.0 - 1e-12, size=n) ** (1.0 / (2 * q))
    w = unit_directions(rng, q, n) * u[:, None]
    w[:, 0] = c + a * w[:, 0]
    w[:, 1:] *= np.sqrt(a)  # b = sqrt(a)
    return w @ _frame(zeta).T


def _frame(zeta: BoundaryPoint) -> np.ndarray:
    from .geometry import basis_boundary_point, unitary_taking
    return unitary_taking(basis_boundary_point(zeta.q).coords, zeta.coords)


def tube_samples(zeta: BoundaryPoint, width: float,
                 s_values=None, n_angles: int = 8,
                 radius_fractions=(1.0, 0.5)) -> PointBatch:
    """Deterministic graded samples of the tube A(gamma, width).

    Each sample is an axial translate of a point at exact Kobayashi
    distance f*width from the origin, so its distance to gamma is <= f*width
    by construction, and the grading pushes samples toward zeta as s grows.
    For each s the batch holds the translates, angle by angle within each
    fraction, then the axis point gamma(s), the translate of the origin;
    with no fractions it holds the axis points alone.  One broadcast
    `AxialStage` of dilation e^{-s} at zeta makes every row.
    """
    q = zeta.q
    if not (np.isfinite(width) and width >= 0.0):
        raise DomainError(f"tube width must be finite and >= 0, got {width}")
    if s_values is None:
        s_values = np.arange(1.0, 30.001, 1.0)
    dirs = []
    for j in range(2 * q):
        d = np.zeros(q, dtype=complex)
        d[j // 2] = 1.0 if j % 2 == 0 else 1j
        dirs.append(d)
    offsets = []
    for frac in radius_fractions:
        rho = np.tanh(frac * width / 2.0)
        for i in range(n_angles):
            direction = dirs[i % len(dirs)] * np.exp(2j * np.pi * i / n_angles)
            offsets.append(adapted_at(zeta, rho * direction))
    offsets.append(adapted_at(zeta, np.zeros(q, dtype=complex)))
    delta, tail, margin = _axial_translates(zeta, s_values, offsets)
    return PointBatch(ref=zeta.coords, delta=delta.reshape(-1),
                      tail=tail.reshape(-1, q), margin=margin.reshape(-1))


def _axial_translates(zeta: BoundaryPoint, s_values, points):
    """The state (delta[k, n], tail[k, n, q], margin[k, n]) of n points
    adapted against zeta, each translated by every s_values[k] toward zeta
    along the axis: one broadcast `AxialStage` of dilation e^{-s}, whose
    row (k, i) is `_axial_transport(zeta, s_values[k], points[i])`."""
    s = np.asarray(s_values, dtype=float)
    if np.any(np.abs(s) > 700.0):   # e^{-s} leaves the normal floats
        raise DomainError(f"axis parameter s = {s} exceeds float range")
    _, margin, delta, _, tail = _lanes(points)
    # the (k, 1) translations broadcast against the n points
    stage = AxialStage(zeta.coords, np.exp(-s)[:, None])
    return stage.plan(zeta.coords)[1](delta, tail, margin)


def adapted_at(zeta: BoundaryPoint, u) -> BallPoint:
    """The point with coordinates u, in defect form against zeta."""
    a = herm(u, zeta.coords)
    return boundary_adapted_point(zeta.coords, 1.0 - a,
                                  tail=u - a * zeta.coords)


def _axial_transport(zeta: BoundaryPoint, s: float, p: BallPoint) -> BallPoint:
    """Translate p (adapted against zeta) by s toward zeta along the axis."""
    stage = AxialStage(zeta.coords, np.exp(-s))
    ref, kernel = stage.plan(p.ref)
    delta, tail, margin = kernel(p.delta, p.tail(), p.margin)
    return boundary_adapted_point(ref, delta, tail=tail, margin=margin)
