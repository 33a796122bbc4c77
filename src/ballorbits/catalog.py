"""Catalog of holomorphic self-maps of B^q.

Maps are immutable descriptions.  Each map kind is one `SelfMap` subclass
that defines evaluation, the Jacobian, its preimages in closed form and the
boundary-adapted step.  The adapted step is what lets forward iteration run
exactly against a boundary fixed point: each structured kind plans a closed
cancellation-free recursion on (delta, tail, margin) into a `geometry.Plan`,
and a compose chains its children's plans with `geometry.chain`.

Kinds
-----
mobius           disc automorphism e^{i theta} (z - a)/(1 - conj(a) z)
blaschke         finite product z^(m) prod (z - a_i)/(1 - conj(a_i) z)
ball_automorphism  wraps a geometry.Automorphism (hyperbolic/parabolic/unitary)
warped_product   (z1, z') -> (phi(z1), c z') for a disc map phi
compose          children[0] o children[1] o ...: the last child applies first
conjugate        h o f o h^{-1}: a compose of the children (h, f, h^{-1})
iterate          f^n: a compose of n children f
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geometry as geo
from .errors import (ConfigError, DilationOutOfScope, DomainError,
                     DimensionMismatch, NumericalError)
from .geometry import BoundaryPoint, herm, sq_norm
from .sampling import (_axial_translates, adapted_at, sample_ball,
                       sample_shell)


@dataclass(frozen=True)
class SelfMap:
    """A self-map of B^q.  Each subclass is one map kind, with `params` its
    numbers and `children` its sub-maps.  It names its `kind` and defines
    `_evaluate(z)` and `_jacobian(z)` on complex coordinate arrays z[..., q]
    (broadcasting over leading axes; the Jacobian is [..., q, q]),
    `_preimages(w)`: every root of f(z) = w for one point w[q] in closed
    form, as rows z[m, q], roots outside the ball included, and
    `_plan(ref)`: the map planned against one boundary reference (a
    `geometry.Plan`), made at every ref but by a warped product off its
    invariant circle (None).  A plan depends on ref alone, and a row of its
    kernel rounds as the point alone.  Callers use `evaluate`, `jacobian`,
    `preimages`, `adapted_step`, `step_point` and `plan_at`."""

    q: int
    params: tuple = ()
    children: tuple = ()
    label: str = ""


class Blaschke(SelfMap):
    kind = "blaschke"

    def _evaluate(self, z):
        facs, theta = self.params
        z1 = z[..., 0]
        out = np.full_like(z1, np.exp(1j * theta))
        for a in facs:
            out = geo._cmul(out, z1 - a) / (1.0 - geo._cmul(np.conj(a), z1))
        return out[..., None]

    def _jacobian(self, z):
        """b' = e^{i theta} sum_i u_i' prod_{j != i} u_j over the factors
        u_j; row i of the factor matrix holds u_j off and 1 on the diagonal."""
        facs, theta = self.params
        a = np.array(facs)
        z1 = z[..., :1]
        den = 1.0 - geo._cmul(np.conj(a), z1)
        vals = np.where(np.eye(len(a), dtype=bool), 1.0,
                        ((z1 - a) / den)[..., None, :])
        prods = (1.0 - geo.abs_sq(a)) / geo._cmul(den, den)
        for j in range(len(a)):
            prods = geo._cmul(prods, vals[..., j])
        total = 0.0
        for i in range(len(a)):
            total = total + prods[..., i]
        return geo._cmul(np.exp(1j * theta), total)[..., None, None]

    def _preimages(self, w):
        """The d roots of e^{i theta} prod (z - a) - w prod (1 - conj(a) z)."""
        facs, theta = self.params
        num, den = np.array([np.exp(1j * theta)]), np.ones(1)
        for a in facs:
            num = np.convolve(num, [1.0, -a])
            den = np.convolve(den, [-np.conj(a), 1.0])
        return np.roots(num - w[0] * den)[:, None]

    def _plan(self, ref):
        """Defect recursion at any unimodular ref (Rudin, *Function Theory
        in the Unit Ball of C^n*, 2.2).  The factor u_a = (z - a)/(1 - conj(a)
        z) maps ref to eta = (ref - a)/(1 - b), b = conj(a) ref, and with
        c = (1 + b)/(1 - b) and den = 1 + (c - 1) delta / 2 its image holds

            delta' = Re(c) delta / den,   margin' = Re(c) margin / |den|^2

        against eta, with no cancellation near ref; a real c - 1 is a float,
        so a real zero at +1 steps as `AxialStage` of dilation c does, bit for
        bit.  One-minus values and margins multiply as om(uv) = om_u + om_v -
        om_u om_v, against e^{i theta} prod eta, or ref within FIX_TOL of it.
        """
        facs, theta = self.params
        r, image, steps = complex(ref[0]), np.exp(1j * theta), []
        for a in facs:
            b = a.conjugate() * r
            c = (1.0 + b) / (1.0 - b)
            steps.append((c.real, c - 1.0 if c.imag else c.real - 1.0))
            image *= (r - a) / (1.0 - b)
        image = np.array([image / abs(image)])
        if geo._same_direction(image, ref, geo.FIX_TOL):
            image = ref

        def kernel(delta, tail, margin):
            om_prod = m_prod = None
            for re_c, c_1 in steps:
                den = 1.0 + geo._cmul(c_1, delta) / 2.0
                om, m_fac = re_c * delta / den, re_c * margin / geo.abs_sq(den)
                if om_prod is None:
                    om_prod, m_prod = om, m_fac
                else:
                    om_prod = om_prod + om - geo._cmul(om_prod, om)
                    m_prod = m_prod + m_fac - m_prod * m_fac
            return om_prod, np.zeros_like(tail), m_prod
        return geo.Plan(image, kernel)


class Mobius(Blaschke):
    kind = "mobius"


class BallAutomorphism(SelfMap):
    kind = "ball_automorphism"

    def _evaluate(self, z):
        return geo.apply_raw(self.params[0], z)

    def _jacobian(self, z):
        """d(U phi_a)/dz = U (phi_a(z) a* - P - s (I - P)) / (1 - <z,a>),
        with P = a a* / |a|^2 and s = sqrt(1 - |a|^2)."""
        g = self.params[0]
        a = g.center
        aa = sq_norm(a)
        u = np.asarray(g.unitary)
        if aa < 1e-32:
            return np.broadcast_to(-u, z.shape[:-1] + u.shape).copy()
        s = np.sqrt(1.0 - aa)
        # every product is of arrays, so it rounds alike for one point and
        # for a batch (Blaschke's scalar factors need `_cmul` instead); the
        # row vector gets its row axis, as in `geometry._defect_coords`
        proj = (np.conj(a) / aa) * a[:, None]
        num = (geo.mobius_shift(a, z)[..., :, None] * np.conj(a)[None, :]
               - proj - s * (np.eye(g.q) - proj))
        return u @ (num / (1.0 - herm(z, a))[..., None, None])

    def _preimages(self, w):
        return geo.apply_raw(geo.inverse(self.params[0]), w)[None]

    def _plan(self, ref):
        return self.params[0].plan(ref)


class WarpedProduct(SelfMap):
    kind = "warped_product"

    def _evaluate(self, z):
        c, = self.params
        first = evaluate(self.children[0], z[..., :1])
        return np.concatenate([first, c * z[..., 1:]], axis=-1)

    def _jacobian(self, z):
        c, = self.params
        j = np.zeros(z.shape + (self.q,), dtype=complex)
        j[..., :1, :1] = self.children[0]._jacobian(z[..., :1])
        tangent = np.arange(1, self.q)
        j[..., tangent, tangent] = c
        return j

    def _preimages(self, w):
        """The factor's roots of w_1, each with z' = w'/c; none for c = 0,
        where the Jacobian is singular."""
        c, = self.params
        if not c:
            return np.empty((0, self.q), complex)
        first = self.children[0]._preimages(w[:1])
        return np.concatenate([first, np.tile(w[1:] / c, (len(first), 1))], 1)

    def _plan(self, ref):
        """The factor's plan, with its checks on the product's state, on the
        invariant circle |z_1| = 1, z' = 0; None off it, where |c| < 1
        sends ref into the ball."""
        c, = self.params
        if np.abs(ref[1:]).max() > 1e-14:
            return None
        sub = self.children[0]._plan(ref[:1])   # every disc map plans

        def kernel(delta, tail, margin):
            tail_sq = sq_norm(tail)
            delta1, _, m1 = sub.kernel(delta, np.zeros(delta.shape + (1,),
                                                       complex),
                                       margin + tail_sq)
            return delta1, c * tail, m1 - abs(c) ** 2 * tail_sq
        return geo.Plan(np.append(sub.ref, np.zeros(self.q - 1, complex)),
                        kernel, sub.check_in, sub.check_out)


class Compose(SelfMap):
    kind = "compose"

    def _evaluate(self, z):
        for g in reversed(self.children):
            z = evaluate(g, z)
        return z

    def _jacobian(self, z):
        # the chain rule, multiplied from the outermost factor inward
        points = [z]
        for g in reversed(self.children[1:]):
            points.append(evaluate(g, points[-1]))
        j = self.children[0]._jacobian(points[-1])
        for g, w in zip(self.children[1:], reversed(points[:-1])):
            j = j @ g._jacobian(w)
        return j

    def _preimages(self, w):
        # the parts' roots, outermost first: a root outside the ball is no
        # image of the next part, a self-map of the ball
        roots = w[None]
        for g in self.children:
            roots = np.array([z for v in roots if sq_norm(v) < 1.0
                              for z in g._preimages(v)]).reshape(-1, self.q)
        return roots

    def _plan(self, ref):
        return geo.chain([g._plan for g in reversed(self.children)], ref)


class Conjugate(Compose):
    kind = "conjugate"


class Iterate(Compose):
    kind = "iterate"


@dataclass(frozen=True)
class BrfpReport:
    zeta: BoundaryPoint
    dilation: float
    residuals: np.ndarray          # |f(probe) - zeta| along Koranyi probes
    step_profile: np.ndarray       # d(s) samples whose tail gives log(dilation)


@dataclass(frozen=True)
class DynamicsClass:
    tag: str                       # "interior-fixed-point" | "denjoy-wolff-boundary"
    witness: np.ndarray
    cloud: np.ndarray              # forward-iterate accumulation samples


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _freeze(arr):
    a = np.asarray(arr, dtype=complex).copy()
    a.flags.writeable = False
    return a


def disc_mobius(a, theta: float = 0.0) -> SelfMap:
    a = complex(a)
    if abs(a) >= 1.0:
        raise ConfigError("mobius parameter must satisfy |a| < 1")
    return _finish_blaschke((a,), float(theta), Mobius)


def blaschke_product(factors, theta: float = 0.0) -> SelfMap:
    facs = tuple(complex(a) for a in factors)
    if not facs:
        raise ConfigError("blaschke product needs at least one factor")
    if any(abs(a) >= 1.0 for a in facs):
        raise ConfigError("blaschke factors must satisfy |a| < 1")
    return _finish_blaschke(facs, float(theta), Blaschke)


def _finish_blaschke(facs, theta, cls) -> SelfMap:
    return cls(q=1, params=(facs, theta),
               label=f"{cls.kind}({', '.join(f'{a:g}' for a in facs)})")


def ball_automorphism(aut: geo.Automorphism) -> SelfMap:
    return BallAutomorphism(q=aut.q, params=(aut,),
                            label=aut.label or "automorphism")


def hyperbolic_selfmap(zeta: BoundaryPoint, lam: float) -> SelfMap:
    return ball_automorphism(geo.hyperbolic_automorphism(zeta, lam))


def parabolic_selfmap(zeta: BoundaryPoint, b, t: float) -> SelfMap:
    return ball_automorphism(geo.parabolic_automorphism(zeta, b, t))


def warped_product(phi: SelfMap, c, q: int = 2) -> SelfMap:
    """(z1, z') -> (phi(z1), c z'); Schwarz-Pick admissibility enforced."""
    if phi.q != 1:
        raise ConfigError("warped product needs a disc map in the first slot")
    if q < 2:
        raise ConfigError("warped product needs q >= 2")
    c = complex(c)
    phi0 = abs(complex(evaluate(phi, np.zeros(1, dtype=complex))[0]))
    bound = (1.0 - phi0) / (1.0 + phi0)
    if abs(c) ** 2 > bound + 1e-15:
        raise ConfigError(
            f"warped factor |c|^2 = {abs(c)**2:.6g} exceeds admissible "
            f"bound {bound:.6g}")
    return WarpedProduct(q=q, params=(c,), children=(phi,),
                         label=f"warped({phi.label}, c={c:g})")


def conjugate_map(f: SelfMap, h: geo.Automorphism) -> SelfMap:
    """h o f o h^{-1}."""
    if f.q != h.q:
        raise DimensionMismatch("conjugator dimension mismatch")
    return Conjugate(q=f.q, params=(h,),
                     children=(ball_automorphism(h), f,
                               ball_automorphism(geo.inverse(h))),
                     label=f"conj({f.label})")


def compose_maps(outer: SelfMap, inner: SelfMap) -> SelfMap:
    if outer.q != inner.q:
        raise DimensionMismatch("composition dimension mismatch")
    return Compose(q=outer.q, children=(outer, inner),
                   label=f"{outer.label}o{inner.label}")


def iterate_map(base: SelfMap, power: int) -> SelfMap:
    if power < 1:
        raise ConfigError("iterate power must be >= 1")
    return Iterate(q=base.q, params=(int(power),),
                   children=(base,) * int(power),
                   label=f"{base.label}^{power}")


# ---------------------------------------------------------------------------
# map specs
# ---------------------------------------------------------------------------

REQUIRED = object()   # the default of a spec key that must be given


@dataclass(frozen=True)
class SpecForm:
    """How a spec names a map: the kind it builds, its constructor, and the
    constructor's keyword arguments: keys with defaults, then child roles."""

    cls: type
    build: Callable
    keys: dict = field(default_factory=dict)
    roles: tuple = ()


def _blaschke_spec(factors, a, theta):
    if a is not None:   # shorthand for z (z - a)/(1 - a z)
        factors = (0.0, a)
    if factors is None:
        raise ConfigError("blaschke spec needs key 'factors' (or 'a')")
    return blaschke_product(factors, theta)


def _conjugate_spec(inner, conjugator):
    if not isinstance(conjugator, BallAutomorphism):
        raise ConfigError("conjugator must be a ball_automorphism")
    return conjugate_map(inner, conjugator.params[0])


_E1 = geo.basis_boundary_point(1)
SPEC_FORMS = {
    "mobius": SpecForm(Mobius, disc_mobius, {"a": 0.0, "theta": 0.0}),
    "blaschke": SpecForm(Blaschke, _blaschke_spec,
                         {"factors": None, "a": None, "theta": 0.0}),
    "hyperbolic": SpecForm(BallAutomorphism, hyperbolic_selfmap,
                           {"zeta": _E1, "lam": REQUIRED}),
    "parabolic": SpecForm(BallAutomorphism, parabolic_selfmap,
                          {"zeta": _E1, "b": None, "t": 0.0}),
    "unitary": SpecForm(
        BallAutomorphism,
        lambda matrix: ball_automorphism(geo.unitary_automorphism(matrix)),
        {"matrix": REQUIRED}),
    "warped_product": SpecForm(WarpedProduct, warped_product,
                               {"c": 0.5, "q": 2}, ("phi",)),
    "conjugate": SpecForm(Conjugate, _conjugate_spec,
                          roles=("inner", "conjugator")),
    "compose": SpecForm(Compose, compose_maps, roles=("outer", "inner")),
    "iterate": SpecForm(Iterate, iterate_map, {"power": REQUIRED}, ("base",)),
}
# a ball_automorphism spec without a subtype is hyperbolic
SPEC_FORMS[BallAutomorphism.kind] = SPEC_FORMS["hyperbolic"]


def spec_form(kind: str, subtype: str | None = None) -> SpecForm:
    """The spec form a kind names, or the one its subtype names."""
    form = SPEC_FORMS.get(kind if subtype is None else subtype)
    if form is None or subtype is not None and form.cls.kind != kind:
        raise ConfigError(f"unknown map kind {kind!r}" if subtype is None
                          else f"map kind {kind!r} has no subtype {subtype!r}")
    return form


def catalog_build(kind: str, subtype: str | None = None, **params) -> SelfMap:
    """Uniform keyword entry point used by the CLI spec parser: `params`
    holds the form's keys and child maps; absent keys take their defaults."""
    form = spec_form(kind, subtype)
    missing = [key for key, default in form.keys.items()
               if default is REQUIRED and key not in params]
    if missing:
        raise ConfigError(f"{kind} spec needs key {missing[0]!r}")
    return form.build(**{**form.keys, **params})


# ---------------------------------------------------------------------------
# evaluation / Jacobian
# ---------------------------------------------------------------------------

def evaluate(f: SelfMap, z):
    """f on raw coordinates z[..., q], broadcasting over the leading axes."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != (f.q,):
        raise DimensionMismatch(f"expected dimension {f.q}, got {z.shape}")
    return f._evaluate(z)


def jacobian(f: SelfMap, z) -> np.ndarray:
    """Complex q x q Jacobian at one point z[q], or one per row of z[n, q]
    ([n, q, q]); a row's Jacobian equals its single-point one bit for bit."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2:
        z = geo.as_vector(z, f.q)
    elif z.shape[1] != f.q:
        raise DimensionMismatch(f"expected dimension {f.q}, got {z.shape[1]}")
    return f._jacobian(z)


def preimages(f: SelfMap, w) -> np.ndarray:
    """Every z in the ball with f(z) = w, one point w[q], as rows z[m, q]: the
    kind's closed-form roots, dropping those with 1 - |z| < BOUNDARY_GUARD."""
    roots = f._preimages(geo.as_vector(w, f.q))
    return roots[1.0 - geo._row_norms(roots) >= geo.BOUNDARY_GUARD]


# ---------------------------------------------------------------------------
# boundary-adapted stepping
# ---------------------------------------------------------------------------

def adapted_step(f: SelfMap, p):
    """f on a point held against a reference, or on every point of a
    `PointBatch`, in one kernel call of f's plan there (`plan_at`).  Row i
    of a batch's image is the image of `p.point(i)`, bit for bit: one
    point is the batch of one."""
    if p.ref is None:
        raise DomainError("a point without a reference has no planned step")
    out = plan_at(f, p.ref).step(geo.held(p, BoundaryPoint(p.ref)))
    return out if isinstance(p, geo.PointBatch) else out.point(0)


def step_point(f: SelfMap, p):
    """f(p) for a point held against a reference, or for every point of a
    `PointBatch`: the `adapted_step`, which every map takes."""
    return adapted_step(f, p)


def plan_at(f: SelfMap, ref) -> geo.Plan:
    """f planned against the boundary reference ref, or a DomainError where
    it has no plan (a warped product off its invariant circle)."""
    plan = f._plan(ref)
    if plan is None:
        norm = float(np.linalg.norm(evaluate(f, ref)))
        raise DomainError(f"the map sends zeta = {np.round(ref, 6)} to norm "
                          f"{norm:.6g}{', into the ball' * (norm < 1.0)}, "
                          "and has no plan there")
    return plan


# ---------------------------------------------------------------------------
# checks and estimates
# ---------------------------------------------------------------------------

def self_map_check(f: SelfMap, n_samples: int, rng):
    """(ok, worst_margin, witness): n_samples points uniform in radius, drawn
    from rng, plus a near-sphere shell; reports min(1 - |f(z)|)."""
    n_shell = max(n_samples // 10, 8)
    pts = np.concatenate([sample_ball(rng, f.q, n_samples),
                          sample_shell(rng, f.q, n_shell)], axis=0)
    vals = evaluate(f, pts)
    margins = 1.0 - np.sqrt(sq_norm(vals))
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return worst > 0.0, worst, pts[i]


def koranyi_probes(zeta: BoundaryPoint, s_values):
    """Probe sequences approaching zeta inside K(zeta, 2), one `PointBatch`
    each, row i at s_values[i]: the radius (`geo._axis_point`), plus two
    tangentially displaced copies (complex-tangent displacement for q = 1),
    whose starts move toward zeta by one broadcast `AxialStage.kernel`,
    row for row `_axial_transport`."""
    offsets = (0.15, -0.15)
    if zeta.q == 1:
        u_vecs = [1j * off * zeta.coords for off in offsets]
    else:
        direction = np.zeros(zeta.q, dtype=complex)
        direction[1] = 1.0
        frame = geo.unitary_taking(geo.basis_boundary_point(zeta.q).coords,
                                   zeta.coords)
        u_vecs = [off * (frame @ direction) for off in offsets]
    starts = [adapted_at(zeta, u_vec) for u_vec in u_vecs]
    delta, tail, margin = _axial_translates(zeta, s_values, starts)
    return [geo._axis_batch(zeta, s_values)] + [
        geo.PointBatch(zeta.coords, delta[:, i], tail[:, i], margin[:, i])
        for i in range(len(starts))]


def _k_limit_residuals(f: SelfMap, zeta: BoundaryPoint):
    """|f(z_i) - zeta| along each of the three Koranyi probe sequences, each
    one batch stepped by f's plan at zeta; None without a plan, or at the
    first sequence whose last-to-first ratio exceeds 10 times its probes'
    own: a test relative to how fast the probes approach zeta."""
    plan = f._plan(zeta.coords)
    if plan is None:
        return None
    residuals = []
    for seq in koranyi_probes(zeta, np.arange(4.0, 24.01, 2.0)):
        res = geo.dist_to_zeta(plan.step(seq), zeta)
        probe = geo.dist_to_zeta(seq, zeta)
        if not res[-1] * probe[0] <= 10.0 * res[0] * probe[-1]:
            return None
        residuals.append(res)
    return residuals


def is_boundary_fixed(f: SelfMap, zeta: BoundaryPoint) -> bool:
    """K-limit test: |f(z_i) - zeta| -> 0 along three Koranyi probe
    sequences, as fast as the probes approach zeta."""
    return _k_limit_residuals(f, zeta) is not None


@dataclass(frozen=True)
class DilationEstimate:
    lam_hat: float
    s_grid: np.ndarray
    profile: np.ndarray
    tail_infimum: float
    extrapolated: float


def estimate_dilation(f: SelfMap, zeta: BoundaryPoint) -> DilationEstimate:
    """Radial estimate of the boundary dilation at a fixed point zeta.

    Samples d(s) = kob(0, gamma(s)) - kob(0, f(gamma(s))) on a grid, takes
    the tail infimum and sharpens it by Richardson extrapolation in e^{-s}
    (the decay rate of every catalog map).  The liminf defining the dilation
    is over all approaches to zeta but is attained radially for the maps
    built here; `jacobian_check` guards that assumption.  f is planned at
    zeta once (`plan_at`), and the grid, out to s = 30, steps through the
    plan's kernel as one batch.
    """
    # planned against the reference its radial points hold, read off one
    # built point: the `orbit` path's last call of boundary_adapted_point,
    # a name perfbench's traced construct run must reach (ROADMAP item 9)
    plan = plan_at(f, geo._axis_point(zeta, 1.0).ref)
    grid = np.arange(1.0, 30.0 + 1e-9, 0.5)
    prof = grid - geo.kob_dist_origin(plan.step(geo._axis_batch(zeta, grid)))
    if prof[-1] > 23.0 and prof[-1] - prof[-4] > 1.0:
        raise DilationOutOfScope(
            "radial profile diverges: super-repelling point (dilation = inf)")
    tail = prof[-8:]
    tail_inf = float(tail.min())
    rho = np.exp(-0.5)
    extrap = float((prof[-1] - rho * prof[-2]) / (1.0 - rho))
    extrap_prev = float((prof[-2] - rho * prof[-3]) / (1.0 - rho))
    log_lam = extrap
    if abs(extrap - tail_inf) > 0.05 * (1.0 + abs(tail_inf)) \
            or abs(extrap - extrap_prev) > 0.01 * (1.0 + abs(extrap)):
        log_lam = tail_inf
    if log_lam <= 1e-6:
        raise DilationOutOfScope(
            f"dilation log = {log_lam:.3e} is not distinguishable from a "
            "non-repelling point")
    return DilationEstimate(lam_hat=float(np.exp(log_lam)), s_grid=grid,
                            profile=prof, tail_infimum=tail_inf,
                            extrapolated=extrap)


def jacobian_check(f: SelfMap, zeta: BoundaryPoint) -> float:
    """The dilation from the Jacobian, an independent cross-check of
    `estimate_dilation`: |<f'(z) zeta, zeta>| at the axis points s = 10
    and 12, extrapolated in e^{-s}."""
    probes = np.array([geo._axis_point(zeta, s).coords for s in (10.0, 12.0)])
    near, far = (abs(herm(j @ zeta.coords, zeta.coords))
                 for j in jacobian(f, probes))
    r = np.exp(-2.0)
    return float((far - r * near) / (1.0 - r))


def certify_brfp(f: SelfMap, zeta: BoundaryPoint) -> BrfpReport:
    residuals = _k_limit_residuals(f, zeta)
    if residuals is None:
        raise DomainError("zeta is not a K-limit fixed point of this map")
    est = estimate_dilation(f, zeta)
    return BrfpReport(zeta=zeta, dilation=est.lam_hat, residuals=residuals[0],
                      step_profile=est.profile)


# ---------------------------------------------------------------------------
# forward dynamics
# ---------------------------------------------------------------------------

def _seed_cloud(q: int) -> np.ndarray:
    pts = []
    for i in range(6):
        v = np.zeros(q, dtype=complex)
        v[i % q] = (0.25 + 0.08 * i) * np.exp(1j * (0.9 * i + 0.3))
        if q > 1:
            v[(i + 1) % q] += 0.15 * np.exp(-1j * 0.7 * i)
        pts.append(v)
    return np.stack(pts)


def _interior_fixed_newton(f: SelfMap, seed):
    z = geo.as_vector(seed, f.q).astype(complex)
    eye = np.eye(f.q, dtype=complex)
    for _ in range(60):
        r = evaluate(f, z) - z
        if np.linalg.norm(r) < 1e-12:
            if np.linalg.norm(z) < 1.0 - 1e-9:
                return z
            return None
        try:
            step = np.linalg.solve(jacobian(f, z) - eye, -r)
        except np.linalg.LinAlgError:
            return None
        z_new = z + step
        n = np.linalg.norm(z_new)
        if n > 1.0 - 1e-12:
            z_new *= (1.0 - 1e-9) / n
        z = z_new
    return None


def classify_dynamics(f: SelfMap) -> DynamicsClass:
    """Iterate a deterministic sample cloud forward and classify the limit.

    The returned `cloud` is an accumulation-set proxy (the iterate tail),
    standing in for the forward limit manifold; transients are discarded.
    """
    cloud = _seed_cloud(f.q)
    history = [cloud.copy()]
    for it in range(2000):
        cloud = evaluate(f, cloud)
        history.append(cloud.copy())
        if len(history) > 60:
            history.pop(0)
        mean = cloud.mean(axis=0)
        spread = np.max(np.sqrt(sq_norm(cloud - mean)))
        if spread < 1e-10 and np.linalg.norm(mean) < 1.0 - 1e-6:
            stationary = np.linalg.norm(evaluate(f, mean) - mean)
            if stationary < 1e-8:
                refined = _interior_fixed_newton(f, mean)
                witness = refined if refined is not None else mean
                return DynamicsClass("interior-fixed-point", _freeze(witness),
                                     _freeze(cloud))
        norms = np.sqrt(sq_norm(cloud))
        if norms.min() > 1.0 - 1e-9:
            dirs = cloud / norms[:, None]
            if np.max(np.sqrt(sq_norm(dirs - dirs[0]))) < 1e-5:
                return DynamicsClass("denjoy-wolff-boundary",
                                     _freeze(dirs.mean(axis=0)),
                                     _freeze(cloud))
    for seed in [np.zeros(f.q, dtype=complex)] + list(_seed_cloud(f.q)):
        fixed = _interior_fixed_newton(f, seed)
        if fixed is not None:
            # recurrent but bounded dynamics (e.g. elliptic rotations): the
            # iterate tail is the best available stand-in for the limit set
            return DynamicsClass("interior-fixed-point", _freeze(fixed),
                                 _freeze(np.concatenate(history)))
    raise NumericalError(
        f"dynamics undecided after 2000 iterations: cloud spread "
        f"{np.max(np.sqrt(sq_norm(cloud - cloud.mean(axis=0)))):.3e}")


def ensure_pole_clearance(f: SelfMap, zeta: BoundaryPoint, lam_hat=None):
    """Conjugate f so that its forward-limit witness set stays outside the
    closed unit horosphere at zeta.

    Returns (conjugated map, conjugating automorphism); the conjugator is an
    axial translation fixing +-zeta, so zeta stays fixed with the same
    dilation, checked against `lam_hat`, f's `estimate_dilation` at zeta
    (made here if the caller has not).  The translation by t adds t to
    every horofunction at zeta, so its length doubles from 0.1 until the
    witness cloud's least horofunction plus t is at least 0.1, at most 20
    times; a cloud already above 0.1 needs none.
    """
    dyn = classify_dynamics(f)
    if dyn.tag == "denjoy-wolff-boundary":
        if np.linalg.norm(np.asarray(dyn.witness) - zeta.coords) < 1e-6:
            raise DomainError(
                "the Denjoy-Wolff point coincides with zeta; zeta cannot be "
                "repelling there")
        return f, geo.identity_automorphism(f.q)
    witness_pts = np.concatenate([dyn.cloud, dyn.witness[None, :]])
    witness_pts = witness_pts[np.sqrt(sq_norm(witness_pts)) < 1.0 - 1e-9]
    if len(witness_pts) == 0:
        return f, geo.identity_automorphism(f.q)
    clearance = 0.1
    min_h = float(geo.horo_raw(witness_pts, zeta.coords).min())
    if min_h > clearance:
        return f, geo.identity_automorphism(f.q)
    t = 0.1
    for _ in range(20):
        if min_h + t >= clearance:
            break
        t *= 2.0
    else:
        raise NumericalError("pole clearance not achieved after 20 doublings")
    h = geo.axis_translation(zeta, t)
    cleared = conjugate_map(f, h)
    lam_before = estimate_dilation(f, zeta).lam_hat if lam_hat is None \
        else lam_hat
    lam_after = estimate_dilation(cleared, zeta).lam_hat
    if abs(lam_after - lam_before) > 1e-6 * max(1.0, lam_before):
        raise NumericalError(
            f"pole clearance changed the dilation: {lam_before!r} "
            f"-> {lam_after!r}")
    return cleared, h
