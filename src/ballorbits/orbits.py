"""Backward orbits against a boundary repelling fixed point.

Two independent builders:

* the anchor construction: forward-iterate the radial anchor points r_k
  until they first leave the closed unit horosphere, then read the stored
  iterates backward (an exact backward chain of f);
* a preimage march, used as the cross-check orbit: damped-Newton chain
  solves in defect coordinates, its branches checked against the
  closed-form roots of its first steps, which re-seed it where they win.

All deep work runs on boundary-adapted points (see geometry), so anchors
like r_40 for dilation 3 -- whose raw coordinates round to the sphere --
stay exactly representable.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, replace

import numpy as np

from . import catalog as cat
from . import geometry as geo
from .errors import DomainError, NumericalError
from .geometry import BallPoint, BoundaryPoint, PointBatch, _row_norms


@dataclass(frozen=True)
class StoppingRecord:
    """The stopping time of one lane of a `stopping_time` run.  The run's
    iterates stay in `grid`, one `PointBatch` held against zeta that every
    record of the run shares: point (lane, j) is f^j(r_k).  A point is built
    only when `point(j)` asks for it; `point(n)` is the exit point."""

    k: int
    n: int                      # first index with f^n(r_k) outside closed E_0
    exit_margin: float          # horofunction of the exit point (> 0)
    capped: bool
    lane: int
    grid: PointBatch

    def point(self, j: int) -> BallPoint:
        """f^j(r_k), j = 0..n, held against zeta."""
        if not 0 <= j <= self.n:
            raise DomainError(f"iterate {j} is outside 0..{self.n}")
        return self.grid[self.lane, j]


@dataclass(frozen=True)
class OrbitSegment:
    """Finite backward orbit: f(points[j+1]) = points[j]; point n is
    points[n - base_index] (larger = deeper).  `points` is one `PointBatch`
    held against zeta: a sequence of points given here becomes one
    (`geo.held`).  `base_index` is the first row's `j` when
    `cli.read_orbit_csv` reads the orbit back from a CSV."""

    points: PointBatch
    zeta: BoundaryPoint
    lam: float
    map_label: str = ""
    base_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", geo.held(self.points, self.zeta))

    def __len__(self):
        return len(self.points)

    def point(self, n: int) -> BallPoint:
        i = n - self.base_index
        if not 0 <= i < len(self):
            raise DomainError(f"orbit index {n} is outside {self.base_index}"
                              f"..{self.base_index + len(self) - 1}")
        return self.points.point(i)


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
    """An analysed orbit; `records` are its own anchor run's `StoppingRecord`s
    in order of k, in either mode (none for the preimage march)."""

    orbit: OrbitSegment
    steps: np.ndarray              # d_j = kob(z_j, z_{j+1})
    sigma_hat: float               # tail step
    horos: np.ndarray
    dist_zeta: np.ndarray
    mode: str
    accepted: bool
    report: tuple = ()
    records: tuple = ()


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


def stopping_time(f: cat.SelfMap, anchors: PointBatch, zeta: BoundaryPoint,
                  n_max: int = 100000, *, k):
    """First n with f^n(r_k) outside the closed horosphere E_0(zeta, 1), for
    each anchor r_k of the `PointBatch` anchors, `k` the index of each: one
    `StoppingRecord` per anchor, in order.

    Exit is strict: horofunction values within 1e-13 of zero count as
    inside, so automorphism chains stop at exactly n = k + 1.  The records
    keep the iterates up to the exit for `harvest_chain`.

    Every lane steps in one kernel call per step, f planned once per
    reference the batch holds (`cat.plan_at`).  A lane retires when it
    leaves the horosphere or reaches `n_max` (capped).  If a step raises,
    the anchors rerun alone, lowest first, so that the lowest anchor's
    error comes out; if none raises alone, the batch's own error does.
    """
    points, ks = anchors, list(k)
    lanes = np.arange(len(ks))
    frames, exits = [], {}
    planned = None   # the ref bytes f is planned against, as `plan`
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
        points, lanes = points.take(~out), lanes[~out]
        if not len(lanes):
            break
        try:
            if points.ref.tobytes() != planned:
                planned = points.ref.tobytes()
                plan = cat.plan_at(f, points.ref)
            points = plan.step(points)
        except Exception:
            if len(ks) > 1:   # the lowest anchor to raise alone raises here
                for i in range(len(ks)):
                    stopping_time(f, anchors.take([i]), zeta, n_max,
                                  k=[ks[i]])
            raise
    grid = _grid(frames, len(ks), zeta)
    return [StoppingRecord(k=ks[lane], n=n, exit_margin=h_exit,
                           capped=capped, lane=lane, grid=grid)
            for lane, (n, h_exit, capped) in sorted(exits.items())]


def _grid(frames, n_lanes, zeta):
    """The frames held against zeta (`held`) as one `PointBatch` grid, point
    (lane, j) the lane's j-th iterate (nan once retired).  The grid keeps
    coordinates when a held frame has its own (a plan whose images hold a
    reference other than zeta's bytes)."""
    frames = [(geo.held(p, zeta), lanes) for p, lanes in frames]
    first = frames[0][0]
    grid = {name: np.full((n_lanes, len(frames)) + a.shape[1:], np.nan,
                          a.dtype)
            for name in {name for p, _ in frames for name in vars(p)} - {"ref"}
            for a in [getattr(first, name)]}
    for j, (p, lanes) in enumerate(frames):
        for name, g in grid.items():
            g[lanes, j] = getattr(p, name)
    batch = object.__new__(PointBatch)   # rows of checked batches
    batch.__dict__.update(grid, ref=zeta.coords)
    return geo._freeze(batch)


def harvest_chain(f: cat.SelfMap, record: StoppingRecord,
                  zeta: BoundaryPoint, lam: float) -> OrbitSegment:
    """The backward chain z_j = f^{n(k)-j}(r_k), j = 0..n(k).

    Points are the stored forward iterates, so re-evaluating f on z_{j+1}
    reproduces z_j bit for bit; the chain tolerance is exactly zero.
    """
    if record.capped:
        raise DomainError("cannot harvest a capped stopping record")
    points = record.grid.take((record.lane, np.arange(record.n, -1, -1)))
    return OrbitSegment(points=points, zeta=zeta, lam=lam, map_label=f.label)


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
    """Max Euclidean residual |f(z_{j+1}) - z_j| over the chain, stepped
    as one batch."""
    images = cat.step_point(f, seg.points[1:]).coords
    return float(_row_norms(images - seg.points[:-1].coords).max(initial=0.0))


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
    run = tuple(stopping_time(f, radial_anchors(zeta, lam, ks), zeta,
                              params.n_max, k=ks))
    records, per_k = {}, []
    for rec in run:
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

    if params.mode == "cluster":
        result = _cluster_orbit(records, zeta, lam, params, f)
        if result is not None:
            return replace(result, records=run)
        per_k.append((-1, "cluster residual too large; fell back to single-tail"))

    # the longest chain that passes, the deepest anchor among equals: the
    # first to pass in descending (length, k) order
    best, k_deepest = None, max(records)
    for k in sorted(records, key=lambda k: (records[k].n, k), reverse=True):
        res = analyze_orbit(harvest_chain(f, records[k], zeta, lam), lam,
                            params, "single-tail")
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
    return replace(best, report=tuple(f"k={k}: {m}" for k, m in per_k),
                   records=run)


def _cluster_orbit(records, zeta, lam, params, f):
    tol = 1e-6   # how far f(medoid j) may land from medoid j - 1
    k_all = sorted(records)
    depth_max = min(records[k].n for k in k_all[-5:])
    grid = records[k_all[0]].grid   # the run's, shared by every record
    picks = []   # (lane, iterate) of each depth's medoid
    for j in range(depth_max + 1):
        recs = [records[k] for k in k_all if k >= j and records[k].n >= j]
        if len(recs) < 2:
            return None
        cands = grid.take(([r.lane for r in recs], [r.n - j for r in recs]))
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
        rec = recs[big[int(np.argmin(dmat[np.ix_(big, big)].sum(axis=1)))]]
        picks.append((rec.lane, rec.n - j))
    seg = OrbitSegment(points=grid.take(tuple(zip(*picks))),
                       zeta=zeta, lam=lam, map_label=f.label)
    if verify_backward(seg, f) > tol:
        return None
    res = analyze_orbit(seg, lam, params, "cluster")
    return res if res.accepted else None


# ---------------------------------------------------------------------------
# Newton preimages
# ---------------------------------------------------------------------------

def newton_preimage(f: cat.SelfMap, target: BallPoint,
                    seeds: PointBatch) -> PointBatch:
    """The backward chain of f from `target` that damped Newton in defect
    coordinates (`_newton_adapted`) solves from `seeds`, a `PointBatch`
    held against the target's reference: row 0 maps onto target, row j + 1
    onto row j.  `DomainError` for other seeds, `NumericalError` where the
    solve fails; `catalog.preimages` gives the roots, which need no seeds."""
    if not (isinstance(seeds, PointBatch) and target.ref is not None
            and np.array_equal(seeds.ref, target.ref)):
        raise DomainError("seeds not held against the target's reference")
    out = _newton_adapted(f, target, seeds, 1e-12, 100)
    if out is None:
        raise NumericalError("no backward chain found from the seeds")
    return out


# The line search's trial scales 2**-m, m = 0..39: the full step, then the
# halvings in blocks of up to 8 evaluated together.
_TRIAL_SCALES = tuple(np.split(np.ldexp(1.0, -np.arange(40)),
                               [1, 9, 17, 25, 33]))


def _newton_adapted(f, target: BallPoint, seeds: PointBatch, tol, max_iter):
    """Newton for a backward chain of f in defect coordinates against
    target.ref, from the n rows of `seeds` held against it: row 0 solves
    f(z) = target, row j + 1 solves f(z) = row j.  A row's unknowns are its
    delta and last q - 1 tail components in the frame `rot` taking e_1 to
    ref; the block bidiagonal Jacobian (each row's on the diagonal, -I
    below) is solved by forward substitution.  An iteration makes one
    `Plan.step` and one batched Jacobian of all rows.  A row is solved when
    its residual is below tol (|delta| + |tail|) of its target, the chain
    when all are.  All rows take one scale: the full step, or the first of
    40 halvings (8 a batch) that lowers the worst row's residual against
    its bound; a trial with a row of nonpositive margin is no point.  A
    solved chain of several rows takes one more full step, kept if every
    row stays solved: each row's residual carries to the chain's end.  None
    where f has no plan at ref or its images leave ref, a Jacobian is
    singular, 40 halvings or `max_iter` steps fail; `seeds` if they solve."""
    ref, q, n = target.ref, f.q, len(seeds)
    plan = f._plan(ref)
    if plan is None or not geo._same_direction(plan.ref, ref, geo.FIX_TOL):
        return None
    rot = geo.unitary_taking(geo.basis_boundary_point(q).coords, ref)
    rot_h = rot.conj().T
    sign = np.array([-1.0] + [1.0] * (q - 1))   # d(delta)/d(z_1) = -1

    def residual(delta, tail, img):
        """Residuals and bounds of chains of n rows laid end to end: each
        row against the row before it, a chain's first against target."""
        t_delta, t_tail = np.roll(delta, 1), np.roll(tail, 1, 0)
        t_delta[::n], t_tail[::n] = target.delta, target.tail()
        rt = (rot_h @ (img.tail - t_tail)[..., None])[:, 1:, 0]
        return (np.concatenate([(img.delta - t_delta)[:, None], rt], 1),
                tol * (np.hypot(t_delta.real, t_delta.imag)
                       + _row_norms(t_tail) + 1e-300))

    delta, tail, coords = seeds.delta, seeds.tail, seeds.coords
    res, bound = residual(delta, tail, plan.step(seeds))
    polished = n == 1   # several rows take one more step once solved
    for it in range(max_iter + (n > 1)):
        worst = (_row_norms(res) / bound).max()
        if worst < 1.0 and (polished or it == 0):
            return seeds if it == 0 else PointBatch(
                ref, delta, tail,
                2.0 * delta.real - geo.abs_sq(delta) - geo.sq_norm(tail))
        jac = sign[:, None] * (rot_h @ cat.jacobian(f, coords) @ rot) * sign
        try:
            step = np.linalg.solve(jac, -res[..., None])[..., 0]
            below = np.linalg.inv(jac[1:])
        except np.linalg.LinAlgError:
            return None
        for j in range(1, n):   # the -I below the diagonal
            step[j] += below[j - 1] @ step[j - 1]
        polished = polished or worst < 1.0
        for scales in _TRIAL_SCALES[:1] if worst < 1.0 else _TRIAL_SCALES:
            k = len(scales)
            lift = np.repeat(scales, n)[:, None] * np.tile(step, (k, 1))
            d = np.tile(delta, k) + lift[:, 0]
            lift[:, 0] = 0.0
            t = np.tile(tail, (k, 1)) + (rot @ lift[..., None])[..., 0]
            m = 2.0 * d.real - geo.abs_sq(d) - geo.sq_norm(t)
            ok = (m > 0.0).reshape(-1, n).all(1).repeat(n)
            r, b = np.full((len(d), q), np.inf, complex), np.ones(len(d))
            if ok.any():
                r[ok], b[ok] = residual(d[ok], t[ok], plan.step(
                    PointBatch(ref, d[ok], t[ok], m[ok])))
            hit = np.flatnonzero((_row_norms(r) / b).reshape(-1, n).max(1)
                                 < max(worst, 1.0))
            if len(hit):
                rows = slice(hit[0] * n, hit[0] * n + n)
                delta, tail, res, bound = d[rows], t[rows], r[rows], b[rows]
                coords = geo._defect_coords(ref, delta, tail)
                break
        else:   # a stall, or an extra step that would unsolve a row
            if worst >= 1.0:
                return None
    return None


def backward_orbit_via_preimages(f: cat.SelfMap, z0: BallPoint,
                                 zeta: BoundaryPoint, n_steps: int,
                                 lam_hint: float | None = None
                                 ) -> BackwardOrbitResult:
    """Backward orbit by preimage solving with branch selection.

    Among candidate preimages the branch minimising
        kob(current, candidate) + max(horofunction(candidate), 0)
    is taken: the branch staying inside the unit horosphere and moving
    toward zeta.  Two candidates scoring within 0.05 of each other
    is an ambiguity error listing both.  Each of the first 8 steps also
    takes every root of f(z) = current in the ball (`catalog.preimages`),
    and so does a step with no adapted candidate.

    A step's adapted candidate is the next row of a backward chain solved
    at once (`newton_preimage`) for all the steps left, from the step's
    point z_s, row j - 1 seeded along the axial model of dilation lam:
    delta_s lam^-j, tail_s lam^(-j/2), margin_s lam^-j.  The first chain
    starts at z_0 with lam = lam_hint (3.0 without one).  A step whose
    winner is not the chain's row, or whose chain solve raised, has the
    next step solve a new chain from that winner, with lam = max(exp(d),
    1.01) for the distance d it scored the winner with.  Every point, z_0
    included, and every candidate is held against zeta (`geo.held`);
    roots within 1e-8 of an earlier candidate are dropped.
    """
    if n_steps < 1:
        raise DomainError(f"n_steps must be at least 1, got {n_steps}")
    cur = geo.held(z0, zeta).point(0)
    pts = [cur]
    lam_guess = lam_hint if lam_hint is not None else 3.0
    rows = []   # the current chain's rows for the steps to come
    for step_idx in range(n_steps):
        if not rows:
            j = np.arange(1.0, n_steps - step_idx + 1)
            scale = np.float_power(lam_guess, -j)
            with contextlib.suppress(NumericalError, DomainError):
                rows = list(newton_preimage(f, cur, PointBatch(
                    cur.ref, cur.delta * scale,
                    np.float_power(lam_guess, -j / 2.0)[:, None] * cur.tail(),
                    cur.margin * scale)))
        uniq = rows[:1]
        kept = [c.coords for c in uniq]
        if not uniq or step_idx < 8:
            for out in cat.preimages(f, cur.coords):
                if all(np.linalg.norm(out - u) > 1e-8 for u in kept):
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
        rows = rows[1:] if rows and nxt is rows[0] else []
        lam_guess = max(float(np.exp(step)), 1.01)
        pts.append(nxt)
        cur = nxt
    seg = OrbitSegment(points=pts, zeta=zeta,
                       lam=lam_hint if lam_hint is not None else float("nan"),
                       map_label=f.label)
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
# CSV and SVG dumps
# ---------------------------------------------------------------------------

def orbit_csv(res: BackwardOrbitResult) -> str:
    """CSV dump of an analysed orbit: j, re(z_1..q), im(z_1..q),
    horofunction, step_to_next, dist_to_zeta -- one row per depth, with the
    diagnostics its analysis measured."""
    seg, steps, horos, dz = res.orbit, res.steps, res.horos, res.dist_zeta
    coords = seg.points.coords
    q = coords.shape[1]
    cols = (["j"] + [f"re_z{i+1}" for i in range(q)]
            + [f"im_z{i+1}" for i in range(q)]
            + ["horofunction", "step_to_next", "dist_to_zeta"])
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for j, z in enumerate(coords):
        step = steps[j] if j < len(steps) else float("nan")
        row = ([seg.base_index + j]
               + [f"{z[i].real:.15g}" for i in range(q)]
               + [f"{z[i].imag:.15g}" for i in range(q)]
               + [f"{horos[j]:.15g}", f"{step:.15g}", f"{dz[j]:.15g}"])
        buf.write(",".join(str(c) for c in row) + "\n")
    return buf.getvalue()


def write_orbit_csv(res: BackwardOrbitResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(orbit_csv(res))


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
    for j, z1 in enumerate(seg.points.coords[:, 0]):
        x, y = xy(complex(z1))
        shade = int(200 * (1.0 - j / max(n - 1, 1)))
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                     f'fill="rgb({shade},{shade // 2},{200 - shade})"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
