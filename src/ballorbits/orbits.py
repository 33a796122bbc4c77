"""Backward orbits against a boundary repelling fixed point.

Two independent builders:

* the anchor construction: forward-iterate the radial anchor points r_k
  until they first leave the closed unit horosphere, then read the stored
  iterates backward (an exact backward chain of f);
* a damped-Newton preimage march, used as the cross-check orbit.

All deep work runs on boundary-adapted points (see geometry), so anchors
like r_40 for dilation 3 -- whose raw coordinates round to the sphere --
stay exactly representable.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import catalog as cat
from . import geometry as geo
from .errors import DomainError, NumericalError
from .geometry import BallPoint, BoundaryPoint, PointBatch, _row_norms


@dataclass(frozen=True)
class StoppingRecord:
    """The stopping time of one lane of a `stopping_time` run.  The run's
    iterates stay in `frames`, one (points, lanes) pair per step: the points
    still running (a `PointBatch` or a tuple of points) and the lane of each
    row.  Points of this lane are built only when asked for."""

    k: int
    n: int                      # first index with f^n(r_k) outside closed E_0
    exit_margin: float          # horofunction of the exit point (> 0)
    capped: bool
    lane: int = 0
    frames: tuple = ()

    def point(self, j: int) -> BallPoint:
        """f^j(r_k), j = 0..n."""
        points, lanes = self.frames[j]
        row = int(np.searchsorted(lanes, self.lane))
        return points.point(row) if isinstance(points, PointBatch) \
            else points[row]

    @property
    def exit_point(self) -> BallPoint:
        return self.point(self.n)

    @property
    def iterates(self) -> tuple:
        """r_k, f(r_k), ..., f^n(r_k); none if capped."""
        return () if self.capped else tuple(
            self.point(j) for j in range(self.n + 1))


@dataclass(frozen=True)
class OrbitSegment:
    """Finite backward orbit: f(points[j+1]) = points[j] (+ base_index for
    bilateral extensions; index n = base_index + j, larger = deeper)."""

    points: tuple
    zeta: BoundaryPoint
    lam: float
    map_label: str = ""
    base_index: int = 0
    chain_tol: float = 0.0

    def __len__(self):
        return len(self.points)

    @property
    def indices(self):
        return range(self.base_index, self.base_index + len(self.points))

    def point(self, n: int) -> BallPoint:
        return self.points[n - self.base_index]


@dataclass(frozen=True)
class OrbitParams:
    k_min: int = 1
    k_max: int = 40
    n_max: int = 100000
    eps_sigma: float = 1e-3
    dist_depth: int = 25
    dist_target: float = 1e-4
    mode: str = "single-tail"

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise DomainError("k_min must not exceed k_max")
        if self.n_max < 1:
            raise DomainError(f"n_max must be at least 1, got {self.n_max}")
        if self.dist_depth < 0:
            raise DomainError(
                f"dist_depth must be nonnegative, got {self.dist_depth}")
        if not (self.eps_sigma > 0.0 and self.dist_target > 0.0):   # NaN too
            raise DomainError("orbit tolerances must be positive")
        if self.mode not in ("single-tail", "cluster"):
            raise DomainError(f"unknown orbit mode {self.mode!r}")


@dataclass(frozen=True)
class BackwardOrbitResult:
    orbit: OrbitSegment
    steps: np.ndarray              # d_j = kob(z_j, z_{j+1})
    sigma_hat: float               # tail step
    horos: np.ndarray
    dist_zeta: np.ndarray
    mode: str
    accepted: bool
    report: tuple = ()


# ---------------------------------------------------------------------------
# anchors and stopping times
# ---------------------------------------------------------------------------

def radial_anchor(zeta: BoundaryPoint, lam: float, k: int) -> BallPoint:
    """r_k = ((lam^k - 1)/(lam^k + 1)) zeta, carried in defect form so that
    horofunction(r_k, zeta) = -k log(lam) holds to machine precision."""
    return radial_anchors(zeta, lam, [k]).point(0)


def radial_anchors(zeta: BoundaryPoint, lam: float, ks) -> PointBatch:
    """The anchors r_k for k in `ks` as one batch; row i is
    `radial_anchor(zeta, lam, ks[i])`."""
    if not lam > 1.0:
        raise DomainError("anchors need dilation > 1")
    ks = np.asarray(ks, dtype=float)
    if (ks < 0).any():
        raise DomainError("anchor index must be nonnegative")
    # the margin's denominator (lam^k + 1)^2 must stay a double
    if (ks * np.log(lam) >= np.log(np.finfo(float).max) / 2.0).any():
        raise DomainError("anchor leaves double precision: k log(lam) > 354.89")
    lk = np.float_power(lam, ks)
    return PointBatch(zeta.coords, (2.0 / (lk + 1.0)).astype(complex),
                      np.zeros((len(ks), zeta.q), dtype=complex),
                      4.0 * lk / geo.abs_sq(lk + 1.0))


def stopping_time(f: cat.SelfMap, r_k, zeta: BoundaryPoint,
                  n_max: int = 100000, k=None):
    """First n with f^n(r_k) outside the closed horosphere E_0(zeta, 1).

    Exit is strict: horofunction values within 1e-13 of zero count as
    inside, so automorphism chains stop at exactly n = k + 1.  The record
    keeps the iterates up to the exit for `harvest_chain`.

    `r_k` is one point, with `k` its anchor index, or a `PointBatch` of
    anchors, with `k` the index of each: every lane then steps in one
    kernel call per step, and one record per lane comes back.  A lane
    retires when it leaves the horosphere or reaches `n_max` (capped).  If
    a step raises, the anchors rerun alone, lowest first, until one raises.
    """
    batch = isinstance(r_k, PointBatch)
    if batch:
        points, ks = r_k, [-1] * len(r_k) if k is None else list(k)
    else:
        points, ks = (r_k,), [-1 if k is None else k]
    lanes = np.arange(len(ks))
    frames, exits = [], {}
    for n in range(n_max + 1):
        frames.append((points, lanes))
        h = geo.horofunction(points, zeta)
        if n == n_max:
            exits.update((lane, (n, float(h_i), True))
                         for lane, h_i in zip(lanes, h))
            break
        out = h > geo.HOROSPHERE_BAND
        exits.update((lane, (n, float(h_i), False))
                     for lane, h_i in zip(lanes[out], h[out]))
        points, lanes = _take(points, ~out), lanes[~out]
        if not len(lanes):
            break
        try:
            # points without a structured step step in coordinates, alone
            points = (cat.step_point(f, points)
                      if isinstance(points, PointBatch)
                      else tuple(cat.step_point(f, p) for p in points))
        except Exception:
            if len(ks) == 1:
                raise
            return [stopping_time(f, r_k.take([i]), zeta, n_max, [ks[i]])[0]
                    for i in range(len(ks))]
    frames = tuple(frames)
    records = [StoppingRecord(k=ks[lane], n=n, exit_margin=h_exit,
                              capped=capped, lane=lane, frames=frames)
               for lane, (n, h_exit, capped) in sorted(exits.items())]
    return records if batch else records[0]


def _take(points, rows):
    if isinstance(points, PointBatch):
        return points.take(rows)
    return tuple(p for p, keep in zip(points, rows) if keep)


def harvest_chain(f: cat.SelfMap, record: StoppingRecord,
                  zeta: BoundaryPoint, lam: float) -> OrbitSegment:
    """The backward chain z_j = f^{n(k)-j}(r_k), j = 0..n(k).

    Points are the stored forward iterates, so re-evaluating f on z_{j+1}
    reproduces z_j bit for bit; the chain tolerance is exactly zero.
    """
    if record.capped:
        raise DomainError("cannot harvest a capped stopping record")
    return OrbitSegment(points=tuple(reversed(record.iterates)), zeta=zeta,
                        lam=lam, map_label=f.label, chain_tol=0.0)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def orbit_diagnostics(seg: OrbitSegment):
    """(steps, horofunctions, distances to zeta) of a chain, as arrays;
    equal element for element to the per-point functions."""
    pts = seg.points
    return (geo.kob_dist(pts[:-1], pts[1:]), geo.horofunction(pts, seg.zeta),
            geo.dist_to_zeta(pts, seg.zeta))


def verify_backward(seg: OrbitSegment, f: cat.SelfMap) -> float:
    """Max Euclidean residual |f(z_{j+1}) - z_j| over the chain; the points
    step as one batch when they form one."""
    pts = seg.points
    if len(pts) < 2:
        return 0.0
    batch = _batch_of(pts[1:])
    images = (cat.step_point(f, batch) if batch is not None
              else [cat.step_point(f, p) for p in pts[1:]])
    return float(_row_norms(geo._lanes(images)[0] - geo._lanes(pts[:-1])[0])
                 .max())


def _batch_of(points):
    """The `PointBatch` whose point i is points[i], coordinates included,
    or None: when the points do not share a reference, or when their
    stored defects do not rebuild their coordinates bit for bit."""
    coords, margin, delta, ref, tail = geo._lanes(points)
    if ref.ndim > 1:
        return None
    batch = PointBatch(ref, delta, tail, margin)
    return batch if batch.coords.tobytes() == coords.tobytes() else None


def analyze_orbit(seg: OrbitSegment, lam: float, params: OrbitParams,
                  mode: str) -> BackwardOrbitResult:
    steps, horos, dz = orbit_diagnostics(seg)
    report = []
    ok = True
    if len(steps) == 0:
        return BackwardOrbitResult(seg, steps, float("nan"), horos, dz, mode,
                                   False, ("empty chain",))
    if np.any(np.diff(steps) < -1e-12):
        ok = False
        report.append("step profile not monotone")
    sigma = float(steps[-1])
    if abs(sigma - np.log(lam)) > params.eps_sigma:
        ok = False
        report.append(f"step tail {sigma:.6g} vs log lam {np.log(lam):.6g}")
    if np.any(np.diff(horos) > 1e-12):
        ok = False
        report.append("horofunction not decreasing with depth")
    depth = min(params.dist_depth, len(dz) - 1)
    if dz[depth] > params.dist_target:
        ok = False
        report.append(
            f"distance to zeta at depth {depth} is "
            f"{dz[depth]:.3g} (target {params.dist_target:g})")
    return BackwardOrbitResult(orbit=seg, steps=steps, sigma_hat=sigma,
                               horos=horos, dist_zeta=dz, mode=mode,
                               accepted=ok, report=tuple(report))


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------

def construct_backward_orbit(f: cat.SelfMap, zeta: BoundaryPoint, lam: float,
                             params: OrbitParams | None = None
                             ) -> BackwardOrbitResult:
    """Backward orbit with step -> log(lam) converging to zeta.

    single-tail mode returns the longest anchor chain whose diagnostics
    pass; cluster mode mimics the depthwise limit extraction: for each
    depth j it clusters the candidates f^{n(k)-j}(r_k) over k in the
    Kobayashi metric and takes the largest cluster's medoid, falling back
    to single-tail when the medoid chain is not backward within tolerance.
    """
    if params is None:
        params = OrbitParams()
    if not lam > 1.0:
        raise DomainError("construction needs dilation > 1")

    ks = range(params.k_min, params.k_max + 1)
    records = {}
    per_k = []
    for rec in stopping_time(f, radial_anchors(zeta, lam, ks), zeta,
                             params.n_max, k=ks):
        if rec.capped:
            per_k.append((rec.k, "capped"))
        elif rec.n <= rec.k:
            per_k.append((rec.k, f"stopping time {rec.n} <= k"))
        else:
            records[rec.k] = rec
            per_k.append((rec.k, f"n(k)={rec.n}"))

    if not records:
        raise NumericalError(
            "no anchor chain could be harvested; per-k report: "
            + "; ".join(f"k={k}: {msg}" for k, msg in per_k))

    chains: dict[int, OrbitSegment] = {}

    def chain(k):
        if k not in chains:
            chains[k] = harvest_chain(f, records[k], zeta, lam)
        return chains[k]

    if params.mode == "cluster":
        result = _cluster_orbit({k: chain(k) for k in records}, zeta, lam,
                                params, f)
        if result is not None:
            return result
        per_k.append((-1, "cluster residual too large; fell back to single-tail"))

    # the longest chain that passes, the deepest anchor among equals: the
    # first to pass in descending (length, k) order
    best, k_deepest = None, max(records)
    for k in sorted(records, key=lambda k: (records[k].n, k), reverse=True):
        res = analyze_orbit(chain(k), lam, params, "single-tail")
        if k == k_deepest:
            deepest = res
        if res.accepted:
            best = res
            break
    if best is None:
        raise NumericalError(
            "no chain passed the orbit diagnostics; deepest chain report: "
            + "; ".join(deepest.report)
            + " | per-k: " + "; ".join(f"k={k}: {m}" for k, m in per_k))
    return BackwardOrbitResult(orbit=best.orbit, steps=best.steps,
                               sigma_hat=best.sigma_hat, horos=best.horos,
                               dist_zeta=best.dist_zeta, mode=best.mode,
                               accepted=True,
                               report=tuple(f"k={k}: {m}" for k, m in per_k))


def _cluster_orbit(chains, zeta, lam, params, f):
    tol = 1e-6   # how far f(medoid j) may land from medoid j - 1
    k_all = sorted(chains)
    depth_max = min(len(chains[k]) - 1 for k in k_all[-5:])
    medoids = []
    for j in range(depth_max + 1):
        cands = [chains[k].points[j] for k in k_all
                 if k >= j and len(chains[k]) > j]
        if len(cands) < 2:
            return None
        dmat = geo.kob_matrix(cands, cands)
        clusters: list[list[int]] = []
        for i in range(len(cands)):
            for cl in clusters:
                if dmat[i, cl[0]] < 0.1:
                    cl.append(i)
                    break
            else:
                clusters.append([i])
        big = max(clusters, key=len)
        medoids.append(cands[big[int(np.argmin(
            dmat[np.ix_(big, big)].sum(axis=1)))]])
    for j in range(1, len(medoids)):
        img = cat.step_point(f, medoids[j])
        if np.linalg.norm(img.coords - medoids[j - 1].coords) > tol:
            return None
    seg = OrbitSegment(points=tuple(medoids), zeta=zeta, lam=lam,
                       map_label=f.label, chain_tol=tol)
    res = analyze_orbit(seg, lam, params, "cluster")
    return res if res.accepted else None


# ---------------------------------------------------------------------------
# Newton preimages
# ---------------------------------------------------------------------------

def newton_preimage(f: cat.SelfMap, target: BallPoint,
                    seed: BallPoint) -> BallPoint:
    """Solve f(z) = target by damped Newton (complex q x q solve).

    With boundary-adapted targets the solve runs in defect coordinates
    against the target's reference, so deep preimages keep relative
    accuracy.  Otherwise, or when that solve stalls, Newton runs in
    coordinates from the seed, its iterates retracted to radius 1 - 1e-12;
    on stall a coarse polar grid reseeds it, all grid seeds as lanes of one
    solve, and the first converged lane in seed order is the preimage.
    """
    tol, max_iter = 1e-12, 100
    out = _newton_adapted(f, target, seed, tol, max_iter)
    if out is not None:
        return out
    out, = _newton_coords(f, target.coords, seed.coords[None], tol, max_iter)
    if out is None:
        out = next((z for z in _newton_coords(f, target.coords,
                                              _grid_seeds(f.q), tol, max_iter)
                    if z is not None), None)
    if out is None:
        raise NumericalError("no preimage found near the seed")
    return geo.ball_point(out)


def _solve_lanes(jac, rhs):
    """np.linalg.solve(jac[i], rhs[i]) for each lane, and a mask of the
    lanes whose Jacobian is not singular; the others get no step."""
    ok = np.ones(len(rhs), dtype=bool)
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(rhs)
    for i in range(len(rhs)):
        try:
            step[i] = np.linalg.solve(jac[i], rhs[i])
        except np.linalg.LinAlgError:
            ok[i] = False
    return step, ok


# The line search's trial scales 2**-m, m = 0..39: the full step, then the
# halvings in blocks of up to 8 evaluated together.
_TRIAL_SCALES = tuple(np.split(np.ldexp(1.0, -np.arange(40)),
                               [1, 9, 17, 25, 33]))


def _damped_newton(x, res, tol, max_iter, jacobian, trials):
    """Damped Newton from each row of x, whose residual is that row of res,
    the rows running as lanes of one solve; returns the solved rows, NaN
    where a lane gave up.

    `jacobian(x)` gives each lane's Jacobian of its residual; `trials(x,
    scales, step)` gives the points x + scales * step and their residuals,
    inf where a trial is no point.  A lane is solved once its residual is
    below `tol`; it gives up when its Jacobian is singular, after 40
    halvings that do not lower its residual, or after `max_iter` steps.  A
    lane that rejects the full step tries its next 8 halvings with one
    evaluation and takes the first that lowers its residual; the scales are
    powers of 2, so each trial rounds as the one-at-a-time halving's.
    """
    found, lanes = np.full_like(x, np.nan), np.arange(len(x))
    for _ in range(max_iter):
        rnorm = _row_norms(res)
        done = rnorm < tol
        if done.any():
            found[lanes[done]] = x[done]
            lanes, x, res, rnorm = (a[~done] for a in (lanes, x, res, rnorm))
        if not len(lanes):
            break
        step, ok = _solve_lanes(jacobian(x), -res)
        if not ok.all():
            lanes, x, res, rnorm, step = (a[ok] for a in
                                          (lanes, x, res, rnorm, step))
        pending = np.arange(len(lanes))
        for scales in _TRIAL_SCALES:
            rows = pending.repeat(len(scales))
            x_new, r_new = trials(x[rows], np.tile(scales, len(pending)),
                                  step[rows])
            better = (_row_norms(r_new) < rnorm[rows]).reshape(-1, len(scales))
            if len(scales) == 1 and better.all():   # all take the full step
                x, res = x_new, r_new
                break
            hit = better.any(axis=1)
            pick = better.argmax(1)[hit] + np.flatnonzero(hit) * len(scales)
            took = pending[hit]
            x[took], res[took] = x_new[pick], r_new[pick]
            pending = pending[~hit]
            if not len(pending):
                break
        else:   # the stalled lanes retire
            lanes, x, res = (np.delete(a, pending, 0) for a in (lanes, x, res))
    return found


def _newton_coords(f, target, seeds, tol, max_iter):
    """`_damped_newton` for f(z) = target from each row of seeds[n, q], where
    target is one point[q] for every seed or one row of target[n, q] per
    seed.  Each lane is (z, its target), so a retiring lane takes its target
    with it.  Trial points are retracted to radius 1 - 1e-12, and a lane
    converging inside the boundary guard gives None."""
    z = np.array(seeds, dtype=complex)
    q = z.shape[1]

    def trials(x, scales, step):
        z_new = x[:, :q] + scales[:, None] * step
        n = _row_norms(z_new)
        out = n > 1.0 - 1e-12
        z_new[out] = z_new[out] * ((1.0 - 1e-12) / n[out])[:, None]
        return (np.concatenate([z_new, x[:, q:]], 1),
                cat.evaluate(f, z_new) - x[:, q:])

    w = np.broadcast_to(np.asarray(target, dtype=complex), z.shape)
    x = _damped_newton(np.concatenate([z, w], 1), cat.evaluate(f, z) - w,
                       tol, max_iter,
                       lambda x: cat.jacobian(f, x[:, :q].copy()), trials)
    z = x[:, :q]
    ok = 1.0 - _row_norms(z) >= geo.BOUNDARY_GUARD   # False on NaN rows
    return [zi if k else None for zi, k in zip(z, ok)]


def _newton_adapted(f, target: BallPoint, seed: BallPoint, tol, max_iter):
    """`_damped_newton` in defect coordinates against target.ref: exact deep
    residuals.  Its one lane is (delta, tail, coords); steps solve for delta
    and the last q - 1 tail components in the frame `rot` taking e_1 to ref.
    A seed without target.ref takes it, and a seed that solves is kept."""
    if target.ref is None:
        return None
    ref, q = target.ref, f.q
    if seed.ref is None or not np.array_equal(seed.ref, ref):
        seed = geo.with_reference(seed, geo.BoundaryPoint(ref))
    img = cat.adapted_step(f, PointBatch(*geo.point_state(seed)))
    if img is None:
        return None
    rot = geo.unitary_taking(geo.basis_boundary_point(q).coords, ref)
    rot_h = rot.conj().T
    sign = np.array([-1.0] + [1.0] * (q - 1))   # d(delta)/d(z_1) = -1

    def residual(img):
        rt = (rot_h @ (img.tail - target.tail())[..., None])[:, 1:, 0]
        return np.concatenate([(img.delta - target.delta)[:, None], rt], 1)

    def jacobian(x):   # of the residual in (delta, rotated tail)
        jw = sign[:, None] * (rot_h @ cat.jacobian(f, x[0, q + 1:]) @ rot)
        return (jw * sign)[None]

    def trials(x, scales, step):
        lift = scales[:, None] * step
        delta = x[:, 0] + lift[:, 0]
        lift[:, 0] = 0.0
        tail = x[:, 1:q + 1] + (rot @ lift[..., None])[..., 0]
        margin = 2.0 * delta.real - geo.abs_sq(delta) - geo.sq_norm(tail)
        ok = margin > 0.0   # a trial outside the ball is no point
        res = np.full((len(x), q), np.inf, dtype=complex)
        if ok.any():
            res[ok] = residual(cat.adapted_step(f, PointBatch(
                ref, delta[ok], tail[ok], margin[ok])))
        coords = geo._defect_coords(ref, delta, tail)
        return np.concatenate([delta[:, None], tail, coords], 1), res

    x0 = np.concatenate([[seed.delta], seed.tail(), seed.coords])[None]
    scale = abs(target.delta) + float(np.linalg.norm(target.tail())) + 1e-300
    out, = _damped_newton(x0.copy(), residual(img), tol * scale, max_iter,
                          jacobian, trials)
    if np.isnan(out[0]) or np.array_equal(out, x0[0]):   # none, or the seed
        return None if np.isnan(out[0]) else seed
    return geo.boundary_adapted_point(ref, out[0], tail=out[1:q + 1])


def _grid_seeds(q: int):
    radii = (0.15, 0.45, 0.75, 0.9)
    angles = np.arange(8) * (np.pi / 4.0)
    if q == 1:
        return np.array([[r * np.exp(1j * t)] for r in radii for t in angles])
    return np.array([[r * np.exp(1j * t) * 0.8, r * np.exp(1j * t2) * 0.5]
                     + [0.0] * (q - 2) for r in radii
                     for t in angles[::2] for t2 in angles[::2]])


def _adapted_preimage(f, cur: BallPoint, lam_guess: float) -> BallPoint:
    """The march's adapted candidate: the preimage of cur solved from the
    seed with cur's reference and tail and delta cur.delta / lam_guess."""
    return newton_preimage(f, cur, geo.boundary_adapted_point(
        cur.ref, cur.delta / lam_guess, tail=cur.tail()))


def _walk_ahead(f, cur: BallPoint, lam_guess: float, n: int, steps_adapted):
    """The march's first n steps as they go when each step's adapted
    candidate wins: one (point, lam_guess, candidate) per walked step.  The
    walk stops at the first step without an adapted candidate and after a
    candidate without a reference.  It never raises: a step that raises ends
    it, and the march then takes that step itself and raises there."""
    walk = []
    try:
        for _ in range(n):
            if not steps_adapted(cur):
                break
            cand = _adapted_preimage(f, cur, lam_guess)
            walk.append((cur, lam_guess, cand))
            if cand.ref is None:
                break
            lam_guess = max(float(np.exp(geo.kob_dist(cur, cand))), 1.01)
            cur = cand
    except Exception:
        # any error: the march takes this step itself after the checks of
        # the steps before it, so what it raises surfaces at its own step
        pass
    return walk


def backward_orbit_via_preimages(f: cat.SelfMap, z0: BallPoint,
                                 zeta: BoundaryPoint, n_steps: int,
                                 lam_hint: float | None = None
                                 ) -> BackwardOrbitResult:
    """Backward orbit by repeated preimage solving with branch selection.

    Among candidate preimages the branch minimising
        kob(current, candidate) + max(horofunction(candidate), 0)
    is taken: the branch staying inside the unit horosphere and moving
    toward zeta.  Two candidates scoring within 0.05 of each other
    is an ambiguity error listing both.  The winner's distance is the step
    whose exponential seeds the next adapted solve.  Each of the first 8
    steps also solves f(z) = current from every grid seed.

    Those grid solves run as one `_newton_coords` call: the march first
    walks its first min(8, n_steps) steps on the adapted candidates alone
    (`_walk_ahead`), then solves the grids of all walked points together.
    A step takes its walked candidate and grid solutions only when its
    current point is the walked one and its lam_guess equals the walked
    value; otherwise, and from step 8 on, it solves them itself.  So every
    step sees the candidates a step-by-step march sees.

    Whether f steps adapted depends on the map and the point's reference
    alone (every kind's `_astep` decides from `ref`), so it is probed once
    per reference: every point after z_0 holds zeta, or z_0's reference
    where the adapted solve carried it on.  Grid solutions equal to an
    earlier candidate (within 1e-8) are dropped before points are built.
    """
    if n_steps < 1:
        raise DomainError(f"n_steps must be at least 1, got {n_steps}")
    grid = _grid_seeds(f.q)
    cur = z0 if z0.ref is not None else geo.with_reference(z0, zeta)
    pts = [cur]
    lam_guess = lam_hint if lam_hint is not None else 3.0
    adapted = {}   # ref bytes -> whether f steps adapted there

    def steps_adapted(p):
        key = p.ref.tobytes()
        if key not in adapted:
            adapted[key] = cat.adapted_step(f, p) is not None
        return adapted[key]

    walk = _walk_ahead(f, cur, lam_guess, min(8, n_steps), steps_adapted)
    grids = []   # each walked step's grid solutions
    if walk:
        targets = np.array([p.coords for p, _, _ in walk]).repeat(len(grid), 0)
        solved = _newton_coords(f, targets, np.tile(grid, (len(walk), 1)),
                                1e-12, 60)
        grids = [solved[i:i + len(grid)]
                 for i in range(0, len(solved), len(grid))]
    for step_idx in range(n_steps):
        if (step_idx < len(walk) and walk[step_idx][0] is cur
                and walk[step_idx][1] == lam_guess):
            uniq, outs = [walk[step_idx][2]], grids[step_idx]
        else:
            uniq = []
            if steps_adapted(cur):
                try:
                    uniq.append(_adapted_preimage(f, cur, lam_guess))
                except (NumericalError, DomainError):
                    pass
            outs = (_newton_coords(f, cur.coords, grid, 1e-12, 60)
                    if not uniq or step_idx < 8 else ())
        kept = [c.coords for c in uniq]
        for out in outs:
            if out is not None and all(np.linalg.norm(out - u) > 1e-8
                                       for u in kept):
                kept.append(out)
                uniq.append(geo.with_reference(geo.ball_point(out), zeta))
        if not uniq:
            raise NumericalError(
                f"no preimage found at backward step {step_idx}")
        # all points of a backward chain past the start live in the closed
        # unit horosphere, so candidates inside it take hard precedence
        horos = geo.horofunction(uniq, zeta)
        inside = horos <= geo.HOROSPHERE_BAND
        if inside.any():
            uniq = [c for c, keep in zip(uniq, inside) if keep]
            horos = horos[inside]
        dists = geo.kob_dist([cur] * len(uniq), uniq)
        scores = dists + np.maximum(horos, 0.0)
        order = np.argsort(scores, kind="stable")
        if len(order) > 1 and scores[order[1]] - scores[order[0]] < 0.05:
            a, b = uniq[order[0]], uniq[order[1]]
            raise NumericalError(
                "ambiguous backward branch: candidates "
                f"{np.round(a.coords, 6)} and {np.round(b.coords, 6)} score "
                "within 0.05")
        nxt, step = uniq[order[0]], dists[order[0]]
        if nxt.ref is None:
            nxt = geo.with_reference(nxt, zeta)
            step = geo.kob_dist(cur, nxt)
        lam_guess = max(float(np.exp(step)), 1.01)
        pts.append(nxt)
        cur = nxt
    seg = OrbitSegment(points=tuple(pts), zeta=zeta,
                       lam=lam_hint if lam_hint is not None else float("nan"),
                       map_label=f.label, chain_tol=1e-10)
    lam_for_check = lam_hint if lam_hint is not None else float(np.exp(step))
    return analyze_orbit(seg, lam_for_check, OrbitParams(), "preimage")


def offset_preimage_orbit(f: cat.SelfMap, orbit: OrbitSegment, lam: float,
                          offset: float) -> BackwardOrbitResult:
    """The cross-check orbit for `orbit`: the preimage march, as long as
    `orbit`, from the image of tanh(offset/2) i e_1 under the involution
    exchanging 0 and the orbit's start, at distance `offset` from it."""
    x0 = geo.ball_point(orbit.points[0].coords)
    shift = geo.ball_point([np.tanh(offset / 2.0) * 1j]
                           + [0.0] * (orbit.zeta.q - 1))
    seed = geo.apply(geo.mobius_involution(x0), shift)
    return backward_orbit_via_preimages(f, seed, orbit.zeta, len(orbit) - 1,
                                        lam_hint=lam)


# ---------------------------------------------------------------------------
# bilateral extension and CSV dump
# ---------------------------------------------------------------------------

def extend_to_bilateral(seg: OrbitSegment, f: cat.SelfMap) -> OrbitSegment:
    """Prepend the forward iterates x_{-n} = f^n(x_0); the seam satisfies
    the same backward identity as the harvested part.

    Extension stops once the iterates either settle (interior limit) or
    fall below margin 1e-9 near the sphere (Denjoy-Wolff side), where a
    shared-reference representation against zeta stops helping.
    """
    fwd = []
    p = seg.points[0]
    for _ in range(60):
        nxt = cat.step_point(f, p)
        if nxt.margin < 1e-9:
            break
        p = nxt
        fwd.append(p)
        if len(fwd) >= 2 and np.linalg.norm(
                fwd[-1].coords - fwd[-2].coords) < 1e-13:
            break
    pts = tuple(reversed(fwd)) + seg.points
    return OrbitSegment(points=pts, zeta=seg.zeta, lam=seg.lam,
                        map_label=seg.map_label,
                        base_index=seg.base_index - len(fwd),
                        chain_tol=seg.chain_tol)


def orbit_csv(seg: OrbitSegment) -> str:
    """CSV dump: j, re(z_1..q), im(z_1..q), horofunction, step_to_next,
    dist_to_zeta -- one row per depth."""
    steps, horos, dz = orbit_diagnostics(seg)
    q = seg.points[0].q
    cols = (["j"] + [f"re_z{i+1}" for i in range(q)]
            + [f"im_z{i+1}" for i in range(q)]
            + ["horofunction", "step_to_next", "dist_to_zeta"])
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for j, p in enumerate(seg.points):
        step = steps[j] if j < len(steps) else float("nan")
        row = ([seg.base_index + j]
               + [f"{p.coords[i].real:.15g}" for i in range(q)]
               + [f"{p.coords[i].imag:.15g}" for i in range(q)]
               + [f"{horos[j]:.15g}", f"{step:.15g}", f"{dz[j]:.15g}"])
        buf.write(",".join(str(c) for c in row) + "\n")
    return buf.getvalue()


def write_orbit_csv(seg: OrbitSegment, path) -> None:
    with open(path, "w") as fh:
        fh.write(orbit_csv(seg))


def orbit_svg(seg: OrbitSegment) -> str:
    """Orbit trace in the first-coordinate plane, 480 pixels square: unit
    circle, the radial geodesic toward zeta, and one dot per orbit point."""
    half = 240.0

    def xy(c):
        return (half + half * 0.95 * c.real, half - half * 0.95 * c.imag)

    zeta1 = complex(seg.zeta.coords[0])
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" '
        'height="480" viewBox="0 0 480 480">',
        f'<circle cx="{half}" cy="{half}" r="{half * 0.95}" fill="none" '
        'stroke="black" stroke-width="1"/>',
        '<line x1="{:.2f}" y1="{:.2f}" x2="{:.2f}" y2="{:.2f}" '
        'stroke="#bbbbbb" stroke-width="1"/>'.format(
            *xy(0j), *xy(zeta1)),
    ]
    n = len(seg.points)
    for j, p in enumerate(seg.points):
        x, y = xy(complex(p.coords[0]))
        shade = int(200 * (1.0 - j / max(n - 1, 1)))
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                     f'fill="rgb({shade},{shade // 2},{200 - shade})"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
