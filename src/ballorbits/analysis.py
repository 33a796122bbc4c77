"""Orbit comparison, region equivalence, tube covering, pre-model checks.

Report convention: every check renders as one line
    CHECK <name> PASS|FAIL margin=<float>
with margin > 0 meaning the check passed with that much room.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog as cat
from . import geometry as geo
from .errors import (DimensionMismatch, DomainError, InvariantViolation,
                     NumericalError)
from .geometry import BoundaryPoint
from .orbits import OrbitSegment, orbit_diagnostics
from .sampling import tube_samples


def fmt(x) -> str:
    return f"{float(x):.15g}"


@dataclass(frozen=True)
class CheckLine:
    name: str
    passed: bool
    margin: float

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {status} margin={fmt(self.margin)}"


def render_report(lines) -> str:
    return "\n".join(line.render() for line in lines)


# ---------------------------------------------------------------------------
# orbit comparison (finite-distance property)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitComparison:
    indices: np.ndarray
    direct: np.ndarray             # kob(x_n, y_n)
    shifted: np.ndarray            # inf_m kob(x_n, y_m)
    plateau: bool
    c_bound: float                 # max of the shifted profile
    eps_plateau: float
    dmat: np.ndarray               # kob(x_n, y_m): n in indices, all of eta


def _require_same_target(xi: OrbitSegment, eta: OrbitSegment):
    if np.linalg.norm(xi.zeta.coords - eta.zeta.coords) > 1e-9:
        raise DomainError(
            "orbits converge to different boundary points: "
            f"{np.round(xi.zeta.coords, 6)} vs {np.round(eta.zeta.coords, 6)}")
    for seg in (xi, eta):
        _, _, dz = orbit_diagnostics(seg)
        if not (dz[-1] < 0.2 and dz[-1] <= dz[0] + 1e-12):
            raise DomainError(
                f"orbit {seg.map_label!r} shows no convergence toward its "
                f"boundary point (tail distance {dz[-1]:.3g})")


def orbit_distance_profile(xi: OrbitSegment, eta: OrbitSegment,
                           eps_plateau: float = 1e-2) -> OrbitComparison:
    """Direct and shifted distance profiles over the common index window.

    The shifted profile inf_m kob(x_n, y_m) runs over all available indices
    of eta; it is nondecreasing in n and bounded by the direct profile.
    The plateau verdict holds when the last quarter of the direct profile
    moves by less than eps_plateau.
    """
    if not eps_plateau > 0.0:
        raise DomainError(f"eps_plateau must be positive, got {eps_plateau}")
    _require_same_target(xi, eta)
    lo = max(xi.base_index, eta.base_index)
    hi = min(xi.base_index + len(xi) - 1, eta.base_index + len(eta) - 1)
    if hi - lo < 3:
        raise DomainError("orbits share too short an index window")
    idx = np.arange(lo, hi + 1)
    dmat = geo.kob_matrix(xi.points.take(idx - xi.base_index), eta.points)
    direct = dmat[np.arange(len(idx)), idx - eta.base_index]
    shifted = dmat.min(axis=1)
    quarter = max(len(direct) // 4, 2)
    window = direct[-quarter:]
    plateau = bool(window.max() - window.min() < eps_plateau)
    return OrbitComparison(indices=idx, direct=direct, shifted=shifted,
                           plateau=plateau, c_bound=float(shifted.max()),
                           eps_plateau=eps_plateau, dmat=dmat)


@dataclass(frozen=True)
class ShiftResult:
    alpha: int
    c_star: float                  # sup_n kob(x_n, y_{n+alpha})
    certified_bound: float         # c_star + |alpha| * step tail of eta
    direct_max: float


def shift_recovery(comp: OrbitComparison, eta: OrbitSegment) -> ShiftResult:
    """Recover an index shift alpha with kob(x_n, y_{n+alpha}) < C for all n
    in the window, certifying direct <= C + |alpha| * step(eta).

    `comp` is `orbit_distance_profile(xi, eta)`, made by the caller; its
    plateau verdict, the one field that depends on `eps_plateau`, is not
    read here.
    """
    if comp.dmat.shape[1] != len(eta):
        raise DomainError(
            f"the comparison measured {comp.dmat.shape[1]} points of eta, "
            f"this orbit has {len(eta)}")
    c = comp.c_bound + 1e-12
    idx = comp.indices
    eta_steps, _, _ = orbit_diagnostics(eta)
    sigma = float(eta_steps.max()) if len(eta_steps) else 0.0
    span = len(eta) - 1
    best = None
    for alpha in range(-span, span + 1):
        cols = idx + alpha - eta.base_index
        inside = (cols >= 0) & (cols < len(eta))
        if inside.sum() < max(len(idx) // 2, 2):
            continue
        sup = comp.dmat[inside, cols[inside]].max()
        if sup < c + 1e-9 and (best is None or sup < best[1]
                               or (sup == best[1] and abs(alpha) < abs(best[0]))):
            best = (alpha, sup)
    if best is None:
        raise NumericalError(
            f"no index shift keeps the orbits within C = {c:.6g}; the "
            "shifted-profile bound does not transfer, check the inputs")
    alpha, c_star = best
    certified = c_star + abs(alpha) * sigma
    direct_max = float(comp.direct.max())
    if direct_max > certified + 1e-9:
        raise InvariantViolation(
            f"direct profile max {direct_max:.6g} exceeds certified bound "
            f"{certified:.6g}")
    return ShiftResult(alpha=alpha, c_star=float(c_star),
                       certified_bound=float(certified),
                       direct_max=direct_max)


# ---------------------------------------------------------------------------
# region equivalence and tube covering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionReport:
    tube_functional_max: float     # max Koranyi functional over tube samples
    violations: int                # samples with functional > 2L + 1e-9
    n_samples: int
    tail_start: int | None         # first index with the sequence in K(zeta,M)
    l_hat: float | None            # empirical tube width containing the tail
    lines: tuple


def region_equivalence_check(seq_points, zeta: BoundaryPoint, width: float,
                             amplitude: float,
                             s_values=None) -> RegionReport:
    """Forward implication of the region equivalence, plus an empirical
    converse constant.

    (a) every sample of A(gamma, width) has Koranyi functional <= 2*width
        (+1e-9 slack); a violation is an invariant failure;
    (b) for a sequence eventually inside K(zeta, amplitude), reports the
        empirical width containing its tail (the converse direction's
        constant is not computed analytically; see README).
    """
    samples = tube_samples(zeta, width, s_values=s_values)
    functional = geo.koranyi_functional(samples, zeta)
    bound = 2.0 * width + 1e-9
    violations = int(np.sum(functional > bound))
    lines = [CheckLine("tube_in_koranyi", violations == 0,
                       float(bound - functional.max()))]
    if violations:
        raise InvariantViolation(
            f"{violations} tube samples violate the Koranyi functional "
            f"bound 2L: worst {functional.max():.9g} vs {2 * width:.9g}")
    tail_start = None
    l_hat = None
    if len(seq_points):
        seq = geo.held(seq_points, zeta)
        region = geo.KoranyiRegion(vertex=zeta, amplitude=amplitude)
        inside = (2.0 * np.log(region.amplitude)
                  - geo.koranyi_functional(seq, zeta)) > 0.0
        # the tail starts after the last point outside K(zeta, M)
        start = len(inside) - int(np.cumprod(inside[::-1]).sum())
        if start < len(inside):
            tail_start = start
            l_hat = float(geo.dist_to_geodesic(seq[start:], zeta)[0].max())
            lines.append(CheckLine("sequence_tail_in_tube", True, l_hat))
    return RegionReport(tube_functional_max=float(functional.max()),
                        violations=violations, n_samples=len(samples),
                        tail_start=tail_start, l_hat=l_hat,
                        lines=tuple(lines))


@dataclass(frozen=True)
class TubeCoveringReport:
    r_hat: float                   # empirical covering radius
    c_hat: float                   # max distance of orbit points to gamma
    sigma_hat: float               # orbit step tail
    bound: float                   # width + 3*c_hat + sigma_hat
    ok: bool
    n_samples: int


def tube_covering_check(eta: OrbitSegment, zeta: BoundaryPoint, width: float,
                        s_values=None) -> TubeCoveringReport:
    """Checks that the tube A(gamma, width) lies within a bounded Kobayashi
    distance of the orbit: R_hat <= width + 3*C_hat + sigma_hat (+1e-6).

    R_hat, the max over samples of the distance to the nearest orbit point,
    is read from the rows that can set it.  The orbit point nearest a
    sample in horofunction and its two chain neighbours give a distance
    m_i >= the sample's row minimum, as a pair rounds as its matrix entry;
    the row minimum of the sample with the largest m_i is a lower bound L
    of R_hat, so a row with m_i <= L cannot exceed L and only the others
    are measured in full."""
    if not len(eta):
        raise DomainError("tube covering needs an orbit with points")
    # width 0 samples the axis alone
    samples = tube_samples(zeta, width, s_values=s_values,
                           radius_fractions=(1.0, 0.5) if width > 0.0 else ())
    pts = eta.points
    steps, horos, _ = orbit_diagnostics(eta)
    gap = np.abs(geo.horofunction(samples, zeta)[:, None] - horos[None, :])
    near = np.clip(gap.argmin(axis=1)[:, None] + np.arange(-1, 2), 0,
                   len(pts) - 1)
    # the pairs (i, near[i, c])
    m = geo._kob(geo._lanes(samples, 1),
                 (pts.coords[near], pts.margin[near], pts.delta[near], pts.ref,
                  pts.tail[near])).min(axis=1)
    top = int(np.argmax(m))
    low = geo.kob_matrix(samples.take([top]), pts).min()
    rows = samples.take(~(m <= low))   # a nan m_i keeps its row
    r_hat = float(geo.kob_matrix(rows, pts).min(axis=1).max(initial=low))
    c_hat = geo.dist_to_geodesic(pts, zeta)[0].max()
    sigma = float(steps.max()) if len(steps) else 0.0
    bound = width + 3.0 * c_hat + sigma + 1e-6
    ok = r_hat <= bound
    if not ok:
        raise InvariantViolation(
            f"tube covering radius {r_hat:.6g} exceeds bound {bound:.6g}")
    return TubeCoveringReport(r_hat=r_hat, c_hat=float(c_hat),
                              sigma_hat=sigma, bound=float(bound), ok=ok,
                              n_samples=len(samples))


# ---------------------------------------------------------------------------
# bounded-step intertwining triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreModel:
    """Triple (base dimension, intertwiner, base automorphism).

    `ell` maps B^k holomorphically into B^q, `tau` is a hyperbolic
    automorphism of B^k with repelling boundary point `repelling`, and the
    triple claims f o ell = ell o tau with backward tau-orbits carried to
    the target boundary point.
    """

    base_dim: int
    ell: object                    # callable (..., k) -> (..., q)
    tau: geo.Automorphism
    repelling: BoundaryPoint
    label: str = ""


@dataclass(frozen=True)
class PremodelReport:
    lines: tuple
    passed: bool

    def render(self) -> str:
        return render_report(self.lines)


def premodel_validate(f: cat.SelfMap, pm: PreModel, zeta: BoundaryPoint,
                      lam: float | None = None, *, rng) -> PremodelReport:
    """Four checks: (i) the square commutes on samples, (ii) the base
    dilation matches the dilation of f at zeta, (iii) backward base orbits
    are carried to zeta, (iv) the intertwiner has K-limit zeta at the
    repelling point."""
    if pm.base_dim != pm.tau.q:
        raise DimensionMismatch(f"premodel base_dim {pm.base_dim} is not "
                                f"the dimension {pm.tau.q} of its tau")
    if lam is not None and not lam > 1.0:
        raise DomainError(f"premodel check needs dilation > 1, got {lam}")
    if lam is None:
        lam = cat.estimate_dilation(f, zeta).lam_hat
    lines = []

    from .sampling import sample_ball
    w = sample_ball(rng, pm.base_dim, 1000, r_max=0.95)
    lhs = cat.evaluate(f, np.asarray(pm.ell(w)))
    rhs = np.asarray(pm.ell(geo.apply_raw(pm.tau, w)))
    resid = float(np.max(np.sqrt(geo.sq_norm(lhs - rhs))))
    intertwine_tol, dilation_tol = 1e-8, 1e-4
    lines.append(CheckLine("intertwining", resid < intertwine_tol,
                           intertwine_tol - resid))

    lam_tau = geo.automorphism_dilation(pm.tau, pm.repelling)
    lines.append(CheckLine("base_dilation", abs(lam_tau - lam) < dilation_tol,
                           dilation_tol - abs(lam_tau - lam)))

    tau_inv = geo.inverse(pm.tau)
    x = np.full(pm.base_dim, 0.25 + 0.1j, dtype=complex)
    iterates = []
    for _ in range(30):
        x = geo.apply_raw(tau_inv, x)
        iterates.append(x)
    res_seq = _residuals(pm.ell(np.array(iterates)), zeta)
    backward_ok = res_seq[-1] < 1e-5 and res_seq[-1] < res_seq[0]
    lines.append(CheckLine("backward_orbit_to_zeta", backward_ok,
                           1e-5 - res_seq[-1]))

    klim_ok = True
    worst = 0.0
    for seq in cat.koranyi_probes(pm.repelling, np.arange(4.0, 20.01, 2.0)):
        res = _residuals(pm.ell(seq.coords), zeta)
        worst = max(worst, float(res[-1]))
        if res[-1] > 1e-5 or res[-1] > res[0]:
            klim_ok = False
    lines.append(CheckLine("intertwiner_k_limit", klim_ok, 1e-5 - worst))

    return PremodelReport(lines=tuple(lines),
                          passed=all(l.passed for l in lines))


def _residuals(images, zeta: BoundaryPoint) -> np.ndarray:
    """|ell(w_i) - zeta| for the rows of ell's image, each rounded as
    `np.linalg.norm` of the row alone."""
    return geo._row_norms(np.asarray(images) - zeta.coords)


def identity_premodel(f: cat.SelfMap, zeta: BoundaryPoint,
                      lam: float) -> PreModel:
    """(B^q, id, f) for f itself an automorphism: the trivial valid triple."""
    if not isinstance(f, cat.BallAutomorphism):
        raise DomainError("identity premodel needs an automorphism map")
    return PreModel(base_dim=f.q, ell=lambda w: w, tau=f.params[0],
                    repelling=zeta, label="identity")


def embedded_disc_premodel(phi_aut: geo.Automorphism, q: int,
                           repelling: BoundaryPoint) -> PreModel:
    """ell(w) = (w, 0, ..., 0) with a disc automorphism base."""
    def ell(w):
        w = np.asarray(w, dtype=complex)
        pad = np.zeros(w.shape[:-1] + (q - 1,), dtype=complex)
        return np.concatenate([w, pad], axis=-1)

    return PreModel(base_dim=1, ell=ell, tau=phi_aut, repelling=repelling,
                    label="embedded-disc")
