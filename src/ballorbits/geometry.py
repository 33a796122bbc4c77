"""Hyperbolic geometry of the complex unit ball B^q.

Distance normalisation: every routine here uses the Kobayashi distance
scaled so that

    kob_dist(0, z) = log((1 + |z|) / (1 - |z|)).

Under this scaling the horofunction of a boundary point zeta has the closed
form log(|1 - <z, zeta>|^2 / (1 - |z|^2)), the radial points
((L^k - 1)/(L^k + 1)) zeta sit exactly on the horosphere boundary
{horofunction = -k log L}, and the axial automorphism with boundary
dilation L translates its axis by log L.  See README "Metric convention"
for why these three facts pin the scaling down.

Points very close to the sphere are the whole reason this module exists,
so `BallPoint` can carry, next to raw coordinates, the defect form

    delta  = 1 - <z, ref>      (complex defect against a boundary point)
    tail   = z - <z, ref> ref  (the part orthogonal to ref)
    margin = 1 - |z|^2         (squared distance to the sphere)

computed without subtractive cancellation.  The tail is stored, not read
back from coordinates, which round toward the sphere.  All
distance/horofunction routines prefer those fields when available;
coordinates alone stop being usable roughly at 1 - |z| ~ 1e-14 and are
rejected there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericalError

# Coordinate-only points closer to the sphere than this are rejected: every
# formula divides by 1 - |z|^2, which subtraction can no longer resolve.
BOUNDARY_GUARD = 1e-14
# |1 - |zeta|| tolerance for boundary points.
BOUNDARY_TOL = 1e-12
# "This automorphism fixes zeta" tolerance used by adapted code paths.
FIX_TOL = 1e-10
# Horofunction values inside this band count as "on the horosphere".
HOROSPHERE_BAND = 1e-13


# ---------------------------------------------------------------------------
# raw vector helpers (broadcast over leading axes, complex dtype)
# ---------------------------------------------------------------------------

def herm(z, w):
    """Hermitian inner product sum_i z_i conj(w_i), linear in the first slot;
    einsum rounds it alike in every array layout (numpy's `*` may not)."""
    return np.einsum("...k,...k->...", np.asarray(z), np.conj(w))


def sq_norm(z):
    return herm(z, z).real


def abs_sq(x):
    """|x|^2 rounded as libm computes it for one number: hypot, then pow.

    Arrays take the same two libm calls, so an array result equals the
    scalar one element for element.  `np.abs` on a complex array and
    `x * x` round differently (in 34% and 0.08% of values, numpy 2.4).
    """
    if not isinstance(x, np.ndarray):
        return abs(x) ** 2
    return np.float_power(np.hypot(x.real, x.imag), 2.0)


def _cmul(x, y):
    """x * y on complex arrays, rounded as for two complex scalars (numpy's
    array loop may fuse its multiply-adds)."""
    return ((x.real * y.real - x.imag * y.imag)
            + 1j * (x.real * y.imag + x.imag * y.real))


def as_vector(coords, q=None):
    v = np.atleast_1d(np.asarray(coords, dtype=complex))
    if v.ndim != 1:
        raise DomainError(f"expected a coordinate vector, got shape {v.shape}")
    if q is not None and v.shape[0] != q:
        raise DimensionMismatch(f"expected dimension {q}, got {v.shape[0]}")
    return v


def mobius_shift(a, z):
    """The involutive automorphism phi_a applied to z, broadcast in z and
    in the centre a.  phi_a exchanges a and 0; phi_0 is the antipodal map
    -id, which is its continuous limit as a -> 0."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    aa = sq_norm(a)
    if (aa >= 1.0).any():
        raise DomainError("mobius center must lie strictly inside the ball")
    near0 = aa < 1e-32
    if near0.all():
        return -z
    za = herm(z, a)
    # a centre at 0 divides by 1 here and takes -z below
    proj = (za / (aa + near0))[..., None] * a
    out = ((a - proj - np.sqrt(1.0 - aa)[..., None] * (z - proj))
           / (1.0 - za)[..., None])
    return np.where(near0[..., None], -z, out) if near0.any() else out


def unitary_taking(u, v):
    """A unitary mapping unit vector u to unit vector v.

    Acts as the identity on the orthogonal complement of span{u, v}; when u
    is a unimodular multiple c*v it multiplies the complex line C v by 1/c.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    q = u.shape[0]
    if np.linalg.norm(u - v) < 1e-14:
        return np.eye(q, dtype=complex)
    c = herm(u, v)
    u_perp = u - c * v
    s2 = np.linalg.norm(u_perp)
    if s2 < 1e-14:
        return np.eye(q, dtype=complex) + (1.0 / c - 1.0) * np.outer(v, np.conj(v))
    b2 = u_perp / s2
    basis = np.stack([v, b2], axis=1)  # q x 2
    m = np.array([[np.conj(c), s2], [-s2, c]], dtype=complex)
    return np.eye(q, dtype=complex) + basis @ (m - np.eye(2)) @ basis.conj().T


def project_unitary(w):
    """Nearest unitary matrix (polar factor)."""
    u, _, vt = np.linalg.svd(w)
    return u @ vt


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallPoint:
    """A point of B^q: coordinates plus a trusted margin 1 - |z|^2.

    `ref`/`delta`/`tail_vec`, when set, make the point usable arbitrarily
    close to the boundary point `ref`: delta = 1 - <z, ref> and the tail,
    the part of z orthogonal to ref, held without cancellation.
    """

    coords: np.ndarray
    margin: float
    ref: np.ndarray | None = None
    delta: complex | None = None
    tail_vec: np.ndarray | None = None

    @property
    def q(self) -> int:
        return self.coords.shape[0]

    def norm(self) -> float:
        return float(np.sqrt(max(1.0 - self.margin, 0.0)))

    def tail(self) -> np.ndarray | None:
        """The stored component orthogonal to `ref`; None without a ref."""
        return self.tail_vec


def ball_point(coords) -> BallPoint:
    """Validated interior point from raw coordinates."""
    v = as_vector(coords)
    n = np.linalg.norm(v)
    if not np.isfinite(n):
        raise DomainError("non-finite coordinates")
    if 1.0 - n < BOUNDARY_GUARD:
        raise DomainError(
            f"point with 1 - |z| = {1.0 - n:.3e} is numerically on the sphere"
        )
    v = v.copy()
    v.flags.writeable = False
    return BallPoint(coords=v, margin=float(1.0 - n * n))


def boundary_adapted_point(ref, delta, tail=None, margin=None) -> BallPoint:
    """Interior point given by its defect against a boundary point.

    coords = (1 - delta) * ref + tail with tail orthogonal to ref: a tail
    with |<tail, ref>| > 1e-12 is refused.  The margin is derived
    cancellation-free as 2 Re delta - |delta|^2 - |tail|^2 unless supplied.
    No sphere guard: that is the point of this constructor.
    """
    refv = as_vector(np.asarray(ref.coords if isinstance(ref, BoundaryPoint) else ref))
    delta = complex(delta)
    if tail is None:
        tail = np.zeros_like(refv)
    else:
        tail = as_vector(tail, refv.shape[0]).copy()
        if abs(np.vdot(refv, tail)) > 1e-12:   # |<tail, ref>|
            raise DomainError("adapted point's tail is not orthogonal to ref")
    if margin is None:
        margin = 2.0 * delta.real - abs(delta) ** 2 - sq_norm(tail)
    margin = float(margin)
    if margin <= 0.0:
        raise DomainError(f"adapted point has nonpositive margin {margin:.3e}")
    coords = (1.0 - delta) * refv + tail
    coords.flags.writeable = False
    tail.flags.writeable = False
    return BallPoint(coords=coords, margin=margin, ref=refv, delta=delta,
                     tail_vec=tail)


@dataclass(frozen=True)
class PointBatch:
    """n points in defect form against one boundary point `ref`: the array
    form of `boundary_adapted_point`, with delta[n], tail[n, q] and
    margin[n] (or a grid: delta[n, m], indexed by (row, column)).  `point(i)`
    and `batch[i]` are the i-th point as a `BallPoint`, and `batch[rows]`
    the batch of a slice, mask or index array."""

    ref: np.ndarray
    delta: np.ndarray
    tail: np.ndarray
    margin: np.ndarray

    def __post_init__(self):
        if (self.margin <= 0.0).any():
            raise DomainError("adapted point has nonpositive margin "
                              f"{self.margin.min():.3e}")
        if (np.abs(herm(self.tail, self.ref)) > 1e-12).any():
            raise DomainError("adapted point's tail is not orthogonal to ref")

    @property
    def q(self) -> int:
        return self.ref.shape[0]

    def __len__(self) -> int:
        return len(self.delta)

    def point(self, i: int) -> BallPoint:
        return boundary_adapted_point(self.ref, self.delta[i],
                                      tail=self.tail[i], margin=self.margin[i])

    def __getitem__(self, i):
        return self.point(i) if np.ndim(self.delta[i]) == 0 else self.take(i)

    def __iter__(self):
        return (self.point(i) for i in range(len(self)))

    @property
    def coords(self) -> np.ndarray:
        """coords[n, q]; row i equals `point(i).coords`."""
        return _defect_coords(self.ref, self.delta, self.tail)

    def take(self, rows) -> "PointBatch":
        """The points at `rows` (indices, a mask or a slice), in order: rows
        of a checked batch, which are not checked again."""
        batch = object.__new__(PointBatch)
        batch.__dict__.update(ref=self.ref, delta=self.delta[rows],
                              tail=self.tail[rows], margin=self.margin[rows])
        return batch


def _defect_coords(ref, delta, tail):
    """(1 - delta) ref + tail for delta[n] and tail[n, q], row i equal to
    the coordinates `boundary_adapted_point` gives the row's point.  Each
    row of the product is rounded as the complex scalar 1 - delta[i] times
    the vector ref: numpy's complex product fuses multiply-adds except for
    one row against a one-entry ref left to broadcast, so ref gets its row
    axis here."""
    return (1.0 - delta)[:, None] * ref[None, :] + tail


def point_state(p: BallPoint):
    """The defect state (ref, delta[1], tail[1, q], margin[1]) of one
    point, with its stored tail."""
    return p.ref, np.array([p.delta]), p.tail()[None], np.array([p.margin])


def with_reference(p: BallPoint, zeta: "BoundaryPoint") -> BallPoint:
    """Attach boundary-adapted data to a point, computed once from its
    coordinates, which are the point's truth here."""
    a = herm(p.coords, zeta.coords)
    tail = p.coords - a * zeta.coords
    tail.flags.writeable = False
    return BallPoint(coords=p.coords, margin=p.margin, ref=zeta.coords,
                     delta=complex(1.0 - a), tail_vec=tail)


@dataclass(frozen=True)
class BoundaryPoint:
    coords: np.ndarray

    @property
    def q(self) -> int:
        return self.coords.shape[0]


def boundary_point(coords, q=None) -> BoundaryPoint:
    v = as_vector(coords, q)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > BOUNDARY_TOL:
        raise DomainError(f"|zeta| = {n!r} is not on the unit sphere")
    v = (v / n).copy()
    v.flags.writeable = False
    return BoundaryPoint(coords=v)


def basis_boundary_point(q: int, axis: int = 0) -> BoundaryPoint:
    e = np.zeros(q, dtype=complex)
    e[axis] = 1.0
    return boundary_point(e)


def _same_direction(u, v, tol=1e-12) -> bool:
    return bool(np.linalg.norm(np.asarray(u) - np.asarray(v)) <= tol)


# ---------------------------------------------------------------------------
# Kobayashi distance and horofunctions
# ---------------------------------------------------------------------------

def _lanes(points, axis=None):
    """(coords, margin, delta, ref, tail) of a point, a sequence of points
    or a `PointBatch`, one row per point, on `axis` of an outer pairing if
    given.  ref is one vector when all points hold the same, else one row
    per point; tail is each point's stored tail; delta, ref and tail are
    nan for a point without a reference.  An empty sequence has no rows."""
    if isinstance(points, BallPoint):
        points = (points,)
    if isinstance(points, PointBatch):
        ref, delta, margin, tail, coords = (points.ref, points.delta,
                                            points.margin, points.tail,
                                            points.coords)
    else:
        coords = np.array([p.coords for p in points])
        margin = np.array([p.margin for p in points])
        delta = np.array([np.nan if p.ref is None else p.delta
                          for p in points], dtype=complex)
        nan = np.full(coords.shape[-1], np.nan)
        ref = np.array([nan if p.ref is None else p.ref for p in points],
                       dtype=complex)
        tail = np.array([nan if p.ref is None else p.tail() for p in points],
                        dtype=complex)
        ref = ref[0] if len(ref) and (ref == ref[0]).all() else ref
    if axis is not None:
        coords, margin, delta, tail = (np.expand_dims(x, axis)
                                       for x in (coords, margin, delta, tail))
        ref = ref if ref.ndim == 1 else np.expand_dims(ref, axis)
    return coords, margin, delta, ref, tail


def _against(z, zeta: BoundaryPoint):
    """The lanes of z (see `_lanes`) and the mask of those held against
    zeta, whose reference lies within 1e-12 of it (`_same_direction`): exact
    in their defect form, where the others are as exact as coordinates."""
    if not isinstance(z, BallPoint) and not len(z):
        z = PointBatch(zeta.coords, np.zeros(0, dtype=complex),
                       np.zeros((0, zeta.q), dtype=complex), np.zeros(0))
    if (isinstance(z, PointBatch) and z.q == zeta.q
            and _same_direction(z.ref, zeta.coords)):
        # every lane held: none reads the coordinates a batch would build
        return (None, z.margin, z.delta, z.ref, z.tail), np.ones(len(z), bool)
    lanes = _lanes(z)
    if lanes[0].shape[-1] != zeta.q:
        raise DimensionMismatch(f"dimensions {lanes[0].shape[-1]} != {zeta.q}")
    held = np.linalg.norm(lanes[3] - zeta.coords, axis=-1) <= 1e-12
    return lanes, np.full(lanes[1].shape, held)


def _one(z, out):
    """A routine's lane values: a float for a point, else the array."""
    return float(out[0]) if isinstance(z, BallPoint) else out


def _row_norms(z):
    """np.linalg.norm of each row of z[n, q], rounded alike: the same
    strided dot products of the real and of the imaginary parts."""
    return np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))


def _at(pairs, *lanes):
    """Each lane array at `pairs` (np.nonzero over the pairing), read
    through its broadcast axes; a tail or coordinate keeps its last axis."""
    return [x[tuple(i * (n > 1) for i, n in zip(pairs, x.shape))]
            for x in lanes]


def _kob(z_lanes, w_lanes) -> np.ndarray:
    """The Kobayashi distance on broadcastable lanes from `_lanes`.

    Lanes whose points share a reference take the defect expansion of
    1 - <z,w>, exact arbitrarily close to the sphere.  Close pairs among
    them, 1 - d_quot < 1e-2 for d_quot = m_z m_w / |1 - <z,w>|^2, take
    1 - d_quot = (m_z |w - z|^2 + |<z, w - z>|^2) / |1 - <z,w>|^2 with
    w - z from the defects, which does not cancel.  The Mobius involution
    centred at z, applied to w, takes the rest: no shared reference, or an
    expansion that cancels (near -ref, where coordinates are accurate);
    identical coordinates there are at distance 0."""
    zc, mz, dz, ref, tz = z_lanes
    wc, mw, dw, ref_w, tw = w_lanes
    shape = np.broadcast_shapes(mz.shape, mw.shape)
    if 0 in shape:
        return np.zeros(shape)
    if zc.shape[-1] != wc.shape[-1]:
        raise DimensionMismatch(f"dimensions {zc.shape[-1]} != {wc.shape[-1]}")
    share = sq_norm(ref - ref_w) <= 1e-24
    if not np.array_equal(ref_w, ref):
        # a w tail holds against w's own reference: rebuild it against z's
        # from coordinates where w has none or another
        own = (ref_w == ref).all(axis=-1)[..., None]
        tw = np.where(own, tw, wc - herm(wc, ref)[..., None] * ref)
    # herm, _cmul, abs_sq and float_power round a lane as the pair alone
    with np.errstate(divide="ignore", invalid="ignore"):
        dwc = np.conj(dw)
        n_val = dz + dwc - _cmul(dz, dwc) - herm(tz, tw)
        scale = (np.abs(dz) + np.abs(dw) + np.abs(dz * dw)
                 + np.sqrt(sq_norm(tz) * sq_norm(tw)) + 1e-300)
        expand = share & (np.abs(n_val) >= 1e-6 * scale)
        if not expand.all():
            n_val = np.where(expand, n_val, 1.0 - herm(zc, wc))
        d_quot = mz * mw / abs_sq(n_val)
        rho = np.sqrt(1.0 - d_quot)
        out = np.log(np.float_power(1.0 + rho, 2.0) / d_quot)
    close = np.nonzero(expand & (d_quot > 1.0 - 1e-2))
    if len(close[0]):
        dz, dw, tz, tw, mz, n_val = _at(close, dz, dw, tz, tw, mz, n_val)
        dd, dt = dz - dw, tw - tz   # w - z = (dz - dw) ref + dt
        dot = _cmul(1.0 - dz, np.conj(dd)) + herm(tz, dt)   # <z, w - z>
        rho = np.sqrt((mz * (abs_sq(dd) + sq_norm(dt)) + abs_sq(dot))
                      / abs_sq(n_val))
        out[close] = np.log1p(2.0 * rho / (1.0 - rho))
    inv = np.nonzero(~expand)
    if len(inv[0]):
        zc, wc = _at(inv, zc, wc)
        rho = np.sqrt(sq_norm(mobius_shift(zc, wc)))
        rho[(zc == wc).all(axis=-1)] = 0.0
        # far pairs keep the quotient of 1 - <z,w> from coordinates
        out[inv] = np.where(rho < 0.95, np.log1p(2.0 * rho / (1.0 - rho)),
                            out[inv])
    return out


def kob_dist(z, w):
    """Kobayashi distance, kob_dist(0, z) = log((1+|z|)/(1-|z|)), of two
    points as a float, or of the pairs of two equal-length sequences (lists
    of points or `PointBatch`es) as an array; see `_kob` for its lanes."""
    z_lanes, w_lanes = _lanes(z), _lanes(w)
    if (n := len(z_lanes[1])) != len(w_lanes[1]):
        raise DimensionMismatch(f"sequence lengths {n} != {len(w_lanes[1])}")
    return _one(z, _kob(z_lanes, w_lanes))


def kob_dist_origin(z):
    """kob_dist(0, z) of a point as a float, or of a sequence of points or
    a `PointBatch` as an array."""
    margin = _lanes(z)[1]
    norm = np.sqrt(np.maximum(1.0 - margin, 0.0))
    return _one(z, np.log(abs_sq(1.0 + norm) / margin))


def kob_matrix(points_a, points_b) -> np.ndarray:
    """`kob_dist` over every pair of two lists of points or `PointBatch`es:
    entry (i, j) is kob_dist(points_a[i], points_b[j])."""
    return _kob(_lanes(points_a, 1), _lanes(points_b, 0))


def horofunction(z, zeta: BoundaryPoint):
    """log(|1 - <z, zeta>|^2 / (1 - |z|^2)); z in E_0(zeta, R) iff < log R.
    A float for a point, or an array for a sequence of points or a
    `PointBatch`: the defect form on held lanes, coordinates elsewhere."""
    (coords, margin, delta, _, _), held = _against(z, zeta)
    out = np.log(abs_sq(delta) / margin)
    if not held.all():
        out[~held] = horo_raw(coords[~held], zeta.coords, margin[~held])
    return _one(z, out)


def horo_raw(z, zeta_coords, margin=None):
    """Vectorised horofunction on raw coordinate arrays (..., q), each value
    rounded as alone: squared by pow, as `**` squares a scalar."""
    z = np.asarray(z, dtype=complex)
    if margin is None:
        margin = 1.0 - sq_norm(z)
    d = 1.0 - herm(z, zeta_coords)
    return np.log(np.float_power(np.abs(d), 2.0) / margin)


def dist_to_zeta(z, zeta: BoundaryPoint):
    """Euclidean distance |z - zeta|, stable for adapted points: a float
    for a point, or an array for a sequence of points or a `PointBatch`."""
    (coords, _, delta, _, tail), held = _against(z, zeta)
    out = np.sqrt(abs_sq(delta) + sq_norm(tail))
    if not held.all():
        out[~held] = _row_norms(coords[~held] - zeta.coords)
    return _one(z, out)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Horosphere:
    """E_0(center, R) = {horofunction(., center) < log R}, pole at 0."""

    center: BoundaryPoint
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise DomainError("horosphere radius must be positive")


@dataclass(frozen=True)
class KoranyiRegion:
    """K(vertex, M) = {kob(0,z) + horofunction(z, vertex) < 2 log M}."""

    vertex: BoundaryPoint
    amplitude: float

    def __post_init__(self):
        if not self.amplitude > 1.0:
            raise DomainError("Koranyi amplitude must exceed 1")


@dataclass(frozen=True)
class GeodesicTube:
    """A(gamma, L): points within distance L of the ray from 0 to `target`."""

    target: BoundaryPoint
    width: float

    def __post_init__(self):
        if not self.width > 0.0:
            raise DomainError("tube width must be positive")


def horosphere_contains(z: BallPoint, sphere: Horosphere):
    """(inside, margin): margin = log R - horofunction, positive inside."""
    m = np.log(sphere.radius) - horofunction(z, sphere.center)
    return bool(m > 0.0), float(m)


def koranyi_functional(z, vertex: BoundaryPoint):
    """kob(0, z) + horofunction(z, vertex) for a point, or as an array for
    a `PointBatch`, equal element for element to the per-point value."""
    return kob_dist_origin(z) + horofunction(z, vertex)


def koranyi_contains(z: BallPoint, region: KoranyiRegion):
    """(inside, margin): margin = 2 log M - [kob(0,z) + horofunction]."""
    m = 2.0 * np.log(region.amplitude) - koranyi_functional(z, region.vertex)
    return bool(m > 0.0), float(m)


def tube_contains(z: BallPoint, tube: GeodesicTube):
    d, _ = dist_to_geodesic(z, tube.target)
    m = tube.width - d
    return bool(m > 0.0), float(m)


# ---------------------------------------------------------------------------
# the radial geodesic
# ---------------------------------------------------------------------------

def _axis_defect(s):
    """(delta, margin) of the point of the complete axis geodesic through
    +-zeta at signed arclength s, for a float or an array of them."""
    if np.any(np.abs(s) > 700.0):
        raise DomainError(f"axis parameter s = {s} exceeds float range")
    u = np.exp(-s)
    return 2.0 * u / (1.0 + u), 4.0 * u / abs_sq(1.0 + u)


def _axis_point(zeta: BoundaryPoint, s: float) -> BallPoint:
    """Point of the complete axis geodesic through +-zeta at signed arclength s."""
    delta, margin = _axis_defect(s)
    return boundary_adapted_point(zeta.coords, delta, margin=margin)


def _axis_batch(zeta: BoundaryPoint, s) -> PointBatch:
    """The points `_axis_point(zeta, s[i])` as one batch."""
    delta, margin = _axis_defect(np.asarray(s, dtype=float))
    return PointBatch(zeta.coords, delta.astype(complex),
                      np.zeros((len(delta), zeta.q), dtype=complex), margin)


def geodesic_point(zeta: BoundaryPoint, s: float) -> BallPoint:
    """gamma(s) = ((e^s - 1)/(e^s + 1)) zeta; kob(0, gamma(s)) = s, s >= 0."""
    if s < 0.0:
        raise DomainError("geodesic parameter must be nonnegative")
    return _axis_point(zeta, s)


def dist_to_geodesic(z, zeta: BoundaryPoint):
    """inf_{s >= 0} kob(z, gamma(s)) with its argmin s*, in closed form: a
    pair of floats for a point, or of arrays for a sequence of points or a
    `PointBatch`.

    With a = <z, zeta> = 1 - delta, kob(z, t zeta) grows with
    |1 - t a|^2 / (1 - t^2), whose minimiser on [0, 1) is the root below 1
    of Re(a) t^2 - (1 + |a|^2) t + Re(a) = 0.  In arclength, t = tanh(s/2),
    that root is e^{-s*} = |delta| / |2 - delta|; s* = 0 when Re(a) <= 0.
    At the root, with w = delta conj(2 - delta) and D = |w| + Re(w), the
    quotient (1 - |z|^2)(1 - t^2) / |1 - t a|^2 of the distance formula is
    2 (1 - |z|^2) / D and one minus it is (2 |tail|^2 + Im(w)^2 / D) / D,
    so neither cancels for points deep toward zeta or on the axis.  Lanes
    not held against zeta take their defect from coordinates, as
    `with_reference` does.
    """
    (coords, margin, delta, _, tail), held = _against(z, zeta)
    if not held.all():
        a = herm(coords[~held], zeta.coords)
        delta, tail = delta.copy(), tail.copy()
        delta[~held] = 1.0 - a
        # zeta with its row axis rounds a row as alone (`_defect_coords`)
        tail[~held] = coords[~held] - a[:, None] * zeta.coords[None, :]
    d2 = 2.0 - delta
    mod, mod2 = np.hypot(delta.real, delta.imag), np.hypot(d2.real, d2.imag)
    w = _cmul(delta, np.conj(d2))
    den = np.hypot(w.real, w.imag) + w.real
    inner = mod < mod2
    s_star = np.where(inner, np.log(mod2 / mod), 0.0)
    d_quot = np.where(inner, 2.0 * margin / den, margin)
    rho = np.where(inner, np.sqrt((2.0 * sq_norm(tail)
                                   + np.float_power(w.imag, 2.0) / den) / den),
                   np.sqrt(np.maximum(1.0 - margin, 0.0)))
    return (_one(z, np.log1p(2.0 * rho * (1.0 + rho) / d_quot)),
            _one(z, s_star))


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

# Stages let structured automorphisms act on boundary-adapted points by exact
# recursions on the state (delta[n], tail[n, q], margin[n]) of n points held
# against one ref.  `plan(ref)` makes every decision that depends on ref
# once: it returns the images' ref and a kernel on the state, or None when
# the stage cannot keep the representation exact.  `inverse` is the stage
# of the inverse map.  A row rounds as the point alone: one point is the
# batch of one, and matrices act through einsum.

@dataclass(frozen=True)
class AxialStage:
    """z |-> -phi_{c zeta}(z), c = (lam - 1)/(lam + 1): fixes +-zeta, with
    boundary dilation lam at zeta and 1/lam at -zeta.

    With den = 1 + (lam - 1) delta / 2 the state moves to

        delta' = lam delta / den,  tail' = sqrt(lam) tail / den,
        margin' = lam margin / |den|^2,

    and no term cancels near zeta however deep the translation.  `lam` may
    be an array: a (k, 1) array moves n points by k translations at once,
    into delta[k, n], tail[k, n, q] and margin[k, n].
    """

    zeta: np.ndarray
    lam: float

    def plan(self, ref):
        if _same_direction(self.zeta, ref, FIX_TOL):
            lam = self.lam
        elif _same_direction(-self.zeta, ref, FIX_TOL):
            lam = 1.0 / self.lam
        else:
            return None

        def kernel(delta, tail, margin):
            den = 1.0 + (lam - 1.0) * delta / 2.0
            return (lam * delta / den,
                    np.sqrt(lam)[..., None] * tail / den[..., None],
                    lam * margin / abs_sq(den))
        return ref, kernel

    def inverse(self):
        return AxialStage(self.zeta, 1.0 / self.lam)


@dataclass(frozen=True)
class UnitaryStage:
    """z |-> V z."""

    v: np.ndarray

    def plan(self, ref):
        new_ref = self.v @ ref
        return new_ref / np.linalg.norm(new_ref), lambda delta, tail, margin: (
            delta, np.einsum("ij,...j->...i", self.v, tail), margin)

    def inverse(self):
        return UnitaryStage(self.v.conj().T)


@dataclass(frozen=True)
class MobiusStage:
    """z |-> phi_a(z); exact on adapted points only for phi_0 = -id."""

    a: np.ndarray

    def plan(self, ref):
        if sq_norm(self.a) < 1e-32:
            return -ref, lambda delta, tail, margin: (delta, -tail, margin)
        return None

    def inverse(self):
        return self


@dataclass(frozen=True)
class ParabolicStage:
    """Heisenberg translation (b, t) fixing zeta; `rot` rotates zeta to e_1
    for Siegel coordinates."""

    zeta: np.ndarray
    b: np.ndarray
    t: float
    rot: np.ndarray

    def plan(self, ref):
        fixed = _same_direction(self.zeta, ref, FIX_TOL)
        return (ref, self._kernel) if fixed else None

    def _kernel(self, delta, tail, margin):
        tail_e1 = np.einsum("ij,...j->...i", self.rot, tail)
        w_tan = tail_e1[..., 1:] / delta[..., None]
        w1 = 1j * (2.0 - delta) / delta
        w1n = w1 + self.t + 2j * herm(w_tan, self.b) + 1j * sq_norm(self.b)
        delta_new = 2j / (w1n + 1j)
        margin = margin * abs_sq(delta_new / delta)
        tail_e1 = np.concatenate([np.zeros(delta.shape + (1,), dtype=complex),
                                  (w_tan + self.b) * delta_new[..., None]],
                                 axis=-1)
        return (delta_new,
                np.einsum("ij,...j->...i", self.rot.conj().T, tail_e1), margin)

    def inverse(self):
        return ParabolicStage(self.zeta, -self.b, -self.t, self.rot)


@dataclass(frozen=True)
class Automorphism:
    """Ball automorphism in normal form z -> unitary @ phi_center(z)."""

    center: np.ndarray
    unitary: np.ndarray
    stages: tuple = ()
    label: str = ""

    @property
    def q(self) -> int:
        return self.center.shape[0]

    def plan(self, ref):
        """The stage chain planned against ref (the images' ref, a kernel),
        or None without a chain or where a stage cannot stay exact."""
        kernels = []
        for st in self.stages:
            plan = st.plan(ref)
            if plan is None:
                return None
            ref, kernel = plan
            kernels.append(kernel)

        def chain(delta, tail, margin):
            for kernel in kernels:
                delta, tail, margin = kernel(delta, tail, margin)
            return delta, tail, margin
        return (ref, chain) if kernels else None


def _aut(center, unitary, stages=(), label="") -> Automorphism:
    center = np.asarray(center, dtype=complex).copy()
    unitary = np.asarray(unitary, dtype=complex).copy()
    center.flags.writeable = False
    unitary.flags.writeable = False
    return Automorphism(center=center, unitary=unitary, stages=tuple(stages),
                        label=label)


def identity_automorphism(q: int) -> Automorphism:
    # phi_0 = -id, so the identity's unitary part is -I.
    return _aut(np.zeros(q, dtype=complex), -np.eye(q, dtype=complex),
                label="id")


def mobius_involution(a: BallPoint) -> Automorphism:
    """The involution exchanging a and 0 (phi_0 is the antipodal map)."""
    if 1.0 - a.norm() < BOUNDARY_GUARD:
        raise DomainError("involution center numerically on the sphere")
    return _aut(a.coords, np.eye(a.q, dtype=complex),
                stages=(MobiusStage(a.coords),), label="involution")


def unitary_automorphism(v) -> Automorphism:
    v = np.asarray(v, dtype=complex)
    q = v.shape[0]
    return _aut(np.zeros(q, dtype=complex), -v, stages=(UnitaryStage(v),),
                label="unitary")


def hyperbolic_automorphism(zeta: BoundaryPoint, lam: float) -> Automorphism:
    """Automorphism fixing +-zeta with boundary dilation lam at zeta.

    It translates the axis geodesic by log(lam) away from zeta (toward
    -zeta, its attracting fixed point) and maps each horosphere E(zeta, R)
    onto E(zeta, lam R).
    """
    if not lam > 1.0:
        raise DomainError("hyperbolic automorphism needs dilation > 1")
    return _axial(zeta, lam, f"hyperbolic(lam={lam:g})")


def _axial(zeta: BoundaryPoint, lam: float, label: str) -> Automorphism:
    """The axial automorphism of dilation lam at zeta as a one-stage
    automorphism: z |-> -phi_{c zeta}(z), c = (lam - 1)/(lam + 1)."""
    c = (lam - 1.0) / (lam + 1.0)
    return _aut(c * zeta.coords, -np.eye(zeta.q, dtype=complex),
                stages=(AxialStage(zeta.coords, lam),), label=label)


def axis_translation(zeta: BoundaryPoint, t: float) -> Automorphism:
    """Axial automorphism moving 0 to gamma(-t): horofunction shifts by +t."""
    if t == 0.0:
        return identity_automorphism(zeta.q)
    if t > 0.0:
        return hyperbolic_automorphism(zeta, float(np.exp(t)))
    return _axial(zeta, float(np.exp(t)), f"axial(t={t:g})")


# --- Siegel half-space model, used for parabolic automorphisms ------------

def _cayley(z):
    z = np.asarray(z, dtype=complex)
    return np.concatenate([
        np.atleast_1d(1j * (1.0 + z[0]) / (1.0 - z[0])),
        z[1:] / (1.0 - z[0]),
    ])


def _inv_cayley(w):
    w = np.asarray(w, dtype=complex)
    return np.concatenate([
        np.atleast_1d((w[0] - 1j) / (w[0] + 1j)),
        2j * w[1:] / (w[0] + 1j),
    ])


def _heisenberg(w, b, t):
    w = np.asarray(w, dtype=complex)
    return np.concatenate([
        np.atleast_1d(w[0] + t + 2j * herm(w[1:], b) + 1j * sq_norm(b)),
        w[1:] + b,
    ])


def parabolic_automorphism(zeta: BoundaryPoint, b, t: float) -> Automorphism:
    """Heisenberg translation fixing only zeta (dilation 1 there).

    Parameters are the Siegel-model translation (b, t) in the frame where
    zeta sits at e_1; each horosphere E(zeta, R) is mapped onto itself.
    """
    q = zeta.q
    b = np.zeros(max(q - 1, 0), dtype=complex) if b is None \
        else as_vector(b, q - 1) if q > 1 else np.zeros(0, dtype=complex)
    t = float(t)
    rot = unitary_taking(zeta.coords, basis_boundary_point(q).coords)

    def action(z, sign):   # sign -1: the inverse translation
        return rot.conj().T @ _inv_cayley(
            _heisenberg(_cayley(rot @ z), sign * b, sign * t))

    center = action(np.zeros(q, dtype=complex), -1.0)
    unitary = _linear_part(lambda v: action(mobius_shift(center, v), 1.0), q)
    return _aut(center, unitary,
                stages=(ParabolicStage(zeta.coords, b, t, rot),),
                label=f"parabolic(|b|={np.linalg.norm(b):g}, t={t:g})")


def _linear_part(fn, q):
    """Matrix of a map known to be linear, sampled on the basis."""
    cols = []
    for i in range(q):
        e = np.zeros(q, dtype=complex)
        e[i] = 0.5
        cols.append(fn(e) / 0.5)
    return project_unitary(np.stack(cols, axis=1))


# --- applying automorphisms ------------------------------------------------

def apply_raw(g: Automorphism, z):
    """Action on raw coordinate arrays (..., q)."""
    out = mobius_shift(g.center, z)
    return np.einsum("ij,...j->...i", g.unitary, out)


def _margin_through(g: Automorphism, coords, margin):
    return float((1.0 - sq_norm(g.center)) * margin
                 / abs(1.0 - herm(coords, g.center)) ** 2)


def apply(g: Automorphism, p: BallPoint) -> BallPoint:
    """Apply an automorphism to a point, preserving boundary-adapted data
    whenever the stage chain supports it."""
    if p.q != g.q:
        raise DimensionMismatch(f"dimensions {p.q} != {g.q}")
    plan = None if p.ref is None else g.plan(p.ref)
    if plan is not None:
        return PointBatch(plan[0], *plan[1](*point_state(p)[1:])).point(0)
    coords = apply_raw(g, p.coords)
    coords.flags.writeable = False
    return BallPoint(coords=coords, margin=_margin_through(g, p.coords, p.margin))


def inverse(g: Automorphism) -> Automorphism:
    stages = tuple(st.inverse() for st in reversed(g.stages))
    return _aut(g.unitary @ g.center, g.unitary.conj().T, stages=stages,
                label=f"inv({g.label})" if g.label else "")


def compose(g2: Automorphism, g1: Automorphism) -> Automorphism:
    """Normal form of z -> g2(g1(z))."""
    if g1.q != g2.q:
        raise DimensionMismatch("cannot compose automorphisms of different q")
    q = g1.q
    center = mobius_shift(g1.center, g1.unitary.conj().T @ g2.center)
    unitary = _linear_part(
        lambda v: apply_raw(g2, apply_raw(g1, mobius_shift(center, v))), q)
    return _aut(center, unitary, stages=g1.stages + g2.stages,
                label=f"{g2.label}*{g1.label}" if g1.label or g2.label else "")


def boundary_image(g: Automorphism, zeta: BoundaryPoint) -> np.ndarray:
    """Continuous extension of g to the sphere (the formulas are rational
    with nonvanishing denominator on the closed ball)."""
    return apply_raw(g, zeta.coords)


def fixes_boundary_point(g: Automorphism, zeta: BoundaryPoint,
                         tol: float = FIX_TOL) -> bool:
    return bool(np.linalg.norm(boundary_image(g, zeta) - zeta.coords) <= tol)


def automorphism_dilation(g: Automorphism, zeta: BoundaryPoint) -> float:
    """Exact boundary dilation of g at a fixed boundary point.

    For g = U phi_a,   lim (1-|g z|)/(1-|z|) = (1-|a|^2)/|1-<zeta,a>|^2,
    i.e. exp(-horofunction(a, zeta)); independent of the unitary part.
    """
    if not fixes_boundary_point(g, zeta, tol=1e-8):
        raise DomainError("dilation requested at a non-fixed boundary point")
    return float((1.0 - sq_norm(g.center))
                 / abs(1.0 - herm(zeta.coords, g.center)) ** 2)


def normalizing_automorphism(a: BallPoint, zeta: BoundaryPoint):
    """Automorphism g with g(a) = 0 and g(zeta) = zeta, plus its dilation.

    Built as axial-hyperbolic composed with a Heisenberg parabolic: the
    parabolic slides a along its horosphere onto the axis through zeta, the
    hyperbolic then pulls that axis point to the origin.  The dilation at
    zeta is exp(-horofunction(a, zeta)) exactly.
    """
    q = zeta.q
    if a.q != q:
        raise DimensionMismatch(f"dimensions {a.q} != {q}")
    rot = unitary_taking(zeta.coords, basis_boundary_point(q).coords)
    w = _cayley(rot @ a.coords)
    b = -w[1:]
    t = -float(w[0].real)
    if np.linalg.norm(b) < 1e-15 and abs(t) < 1e-15:
        parab = identity_automorphism(q)
    else:
        parab = parabolic_automorphism(zeta, b, t)
    mu = float(np.exp(-horofunction(a, zeta)))
    if abs((mu - 1.0) / (mu + 1.0)) < 1e-16:
        hyper = identity_automorphism(q)
    else:
        hyper = _axial(zeta, mu, "axial")
    g = compose(hyper, parab)
    resid = np.linalg.norm(apply_raw(g, a.coords))
    if resid > 1e-10:
        raise NumericalError(
            f"normalizing automorphism residual |g(a)| = {resid:.3e}")
    return g, mu
