import numpy as np
import pytest

from ballorbits import catalog as cat
from ballorbits import geometry as geo
from ballorbits import orbits as orb


@pytest.fixture(scope="session")
def e1():
    return geo.basis_boundary_point(1)


@pytest.fixture(scope="session")
def e1_q2():
    return geo.basis_boundary_point(2)


@pytest.fixture(scope="session")
def disc_auto(e1):
    """Disc automorphism with repelling point +1, dilation 3."""
    return cat.hyperbolic_selfmap(e1, 3.0)


@pytest.fixture(scope="session")
def blaschke():
    """b(z) = z (z - 1/3)/(1 - z/3): fixes 0 and 1, dilation 3 at 1."""
    return cat.blaschke_product([0.0, 1.0 / 3.0])


@pytest.fixture(scope="session")
def cleared_blaschke(blaschke, e1):
    cleared, conj = cat.ensure_pole_clearance(blaschke, e1)
    return cleared, conj


@pytest.fixture(scope="session")
def blaschke_orbit(cleared_blaschke, e1):
    cleared, _ = cleared_blaschke
    return orb.construct_backward_orbit(cleared, e1, 3.0)


@pytest.fixture(scope="session")
def auto_orbit(disc_auto, e1):
    return orb.construct_backward_orbit(disc_auto, e1, 3.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


def random_interior(rng, q, scale=0.85):
    v = rng.normal(size=q) + 1j * rng.normal(size=q)
    v *= rng.uniform(0.05, scale) / np.linalg.norm(v)
    return geo.ball_point(v)


def offaxis_conjugate():
    """A map with dilation 3 at e_1 whose outer parts fix no reference they
    meet: the hyperbolic map of dilation 3 at zeta0, conjugated by the
    hyperbolic automorphism h of dilation 2 along the axis through i,
    zeta0 = h^{-1}(e_1).  Its plan at e_1 runs h^{-1} and h by their closed
    form (`geometry.Automorphism.plan`), and the map's own stage."""
    e1 = geo.basis_boundary_point(1)
    h = geo.hyperbolic_automorphism(geo.boundary_point([1j]), 2.0)
    zeta0 = geo.boundary_point(geo.apply_raw(geo.inverse(h), e1.coords))
    return cat.conjugate_map(cat.hyperbolic_selfmap(zeta0, 3.0), h)


def fixed_blaschke(rng, lam_min=1.6):
    """A Blaschke product with one to three complex zeros, |a| < 0.8, turned
    to fix a random unimodular zeta where its dilation, the closed form
    lam = sum_j (1 - |a_j|^2) / |zeta - a_j|^2, is at least lam_min:
    (zeros, f, zeta, lam)."""
    while True:
        n = rng.integers(1, 4)
        zeros = 0.8 * np.sqrt(rng.uniform(size=n)) * np.exp(
            2j * np.pi * rng.uniform(size=n))
        zeta = geo.boundary_point([np.exp(2j * np.pi * rng.uniform())])
        lam = float(np.sum((1.0 - np.abs(zeros) ** 2)
                           / np.abs(zeta.coords[0] - zeros) ** 2))
        if lam >= lam_min:
            break
    image = np.prod((zeta.coords[0] - zeros)
                    / (1.0 - np.conj(zeros) * zeta.coords[0]))
    theta = float(np.angle(zeta.coords[0] / image))
    return zeros, cat.blaschke_product(zeros, theta), zeta, lam


def preimage_cases():
    """Maps of every kind with an interior target and the number of its
    preimages in the ball: name -> (f, w, count).  The Blaschke product has
    complex zeros and theta != 0; a compose, conjugate or iterate has the
    product of its parts' counts."""
    b3 = cat.blaschke_product([0.3 + 0.2j, -0.1j, 0.5], 0.4)
    b2 = cat.blaschke_product([0.0, -0.4 + 0.3j], -1.1)
    g = geo.hyperbolic_automorphism(geo.boundary_point([0.6, 0.8j]), 2.5)
    h = geo.hyperbolic_automorphism(geo.boundary_point([np.exp(0.5j)]), 3.0)
    warped = cat.warped_product(b2, 0.3 - 0.4j, q=2)
    return {
        "blaschke": (b3, [0.2 - 0.3j], 3),
        "square": (cat.blaschke_product([0.0, 0.0]), [0.25], 2),
        "automorphism": (cat.ball_automorphism(g), [0.3 - 0.1j, 0.2j], 1),
        "automorphism_q1": (cat.ball_automorphism(h), [0.3 - 0.5j], 1),
        "warped": (warped, [0.5 + 0.1j, 0.2 - 0.1j], 2),
        "compose": (cat.compose_maps(b3, b2), [0.1 + 0.4j], 6),
        "compose_q2": (cat.compose_maps(warped, cat.ball_automorphism(g)),
                       [0.4, -0.1 + 0.2j], 2),
        "conjugate": (cat.conjugate_map(b3, h), [-0.3 + 0.2j], 3),
        "iterate": (cat.iterate_map(b2, 3), [0.45j], 8),
    }


def jacobian_fd(f, z):
    """Central finite differences, the independent cross-check for
    `catalog.jacobian`."""
    z = geo.as_vector(z, f.q)
    h = 1e-6
    cols = []
    for i in range(f.q):
        e = np.zeros(f.q, dtype=complex)
        e[i] = h
        cols.append((cat.evaluate(f, z + e) - cat.evaluate(f, z - e))
                    / (2.0 * h))
    return np.stack(cols, axis=1)


def apart(zs, ws):
    """Two lists of points as two batches held against different
    references, e_1 and -e_1: every pair of them takes kob_dist's coordinate
    lane, as a pair of points without a reference does."""
    e = geo.basis_boundary_point(zs[0].q)
    return geo.held(zs, e), geo.held(ws, geo.BoundaryPoint(-e.coords))


def count_calls(monkeypatch, *targets):
    """Wrap each (module, name) so that its calls are counted; returns the
    dict of counts by name, filled as the wrapped functions run."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for mod, name in targets:
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls
