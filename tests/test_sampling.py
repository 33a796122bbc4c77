"""Batched tube samples against the per-sample construction."""

import numpy as np
import pytest

from ballorbits import geometry as geo
from ballorbits import sampling
from ballorbits.errors import DomainError

# criterion 07's grid
S_GRID = np.arange(0.25, 30.001, 0.25)


def reference_samples(zeta, width, s_values, n_angles, fractions):
    """`tube_samples` one point at a time: adapted_at, then the AxialStage's
    kernel on each offset and on the origin."""
    q = zeta.q
    dirs = []
    for j in range(2 * q):
        d = np.zeros(q, dtype=complex)
        d[j // 2] = 1.0 if j % 2 == 0 else 1j
        dirs.append(d)
    pts = []
    for s in s_values:
        stage = geo.AxialStage(zeta.coords, np.exp(-float(s)))
        offsets = []
        for frac in fractions:
            rho = np.tanh(frac * width / 2.0)
            for i in range(n_angles):
                direction = dirs[i % len(dirs)] * np.exp(2j * np.pi * i
                                                         / n_angles)
                offsets.append(rho * direction)
        for u in offsets + [np.zeros(q, dtype=complex)]:
            u = sampling.adapted_at(zeta, u)
            ref, kernel = stage.plan(u.ref)
            delta, tail, margin = kernel(u.delta, u.tail(),
                                                   u.margin)
            pts.append(geo.boundary_adapted_point(ref, delta, tail=tail,
                                                  margin=margin))
    return pts


def _compare(zeta, width, s_values, n_angles, fractions):
    batch = sampling.tube_samples(zeta, width, s_values=s_values,
                                  n_angles=n_angles,
                                  radius_fractions=fractions)
    ref = reference_samples(zeta, width, s_values, n_angles, fractions)
    assert len(batch) == len(ref)
    assert np.array_equal(batch.delta, [p.delta for p in ref])
    assert np.array_equal(batch.margin, [p.margin for p in ref])
    assert np.array_equal(geo.koranyi_functional(batch, zeta),
                          [geo.koranyi_functional(p, zeta) for p in ref])
    assert np.array_equal(batch.tail, [p.tail() for p in ref])
    return batch, ref


@pytest.mark.parametrize("width", [0.5, 2.0])
def test_tube_samples_match_reference_disc(e1, width):
    _compare(e1, width, S_GRID, 28, (1.0, 0.75, 0.5))


@pytest.mark.parametrize("fractions", [(1.0, 0.5), ()])
def test_tube_samples_match_reference_e1_q2(e1_q2, fractions):
    _compare(e1_q2, 1.3, np.arange(0.0, 30.001, 0.5), 8, fractions)


def test_tube_samples_match_reference_off_axis():
    zeta = geo.boundary_point([0.6, 0.8j])
    batch, ref = _compare(zeta, 1.0, np.arange(0.5, 30.001, 0.5), 8,
                          (1.0, 0.5))
    i = len(batch) // 3
    assert batch.point(i).delta == ref[i].delta
    # an off-vertex batch takes its coordinates, lane for lane as alone
    other = geo.boundary_point([0.8, 0.6])
    assert np.array_equal(geo.koranyi_functional(batch, other),
                          [geo.koranyi_functional(p, other) for p in ref])


@pytest.mark.parametrize("width", [float("nan"), float("inf"),
                                   float("-inf"), -1.0, -1e-300])
def test_tube_samples_refuse_a_width_not_finite_and_nonnegative(e1, width):
    with pytest.raises(DomainError, match="tube width"):
        sampling.tube_samples(e1, width)


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


def test_point_batch_refuses_a_tail_along_ref():
    # the row boundary_adapted_point refuses: as a batch it had coords of
    # modulus 1.2 and horofunction -2.30
    ref = np.exp(0.5j)
    with pytest.raises(DomainError,
                       match="adapted point's tail is not orthogonal to ref"):
        geo.PointBatch(np.array([ref]), np.array([0.1 + 0j]),
                       np.array([[0.3 * ref]]), np.array([0.1]))
    ok = geo.PointBatch(np.array([1.0 + 0j, 0.0]), np.array([0.1 + 0j]),
                        np.array([[1e-13, 0.2]]), np.array([0.1]))
    assert ok.tail[0, 0] == 1e-13


# ---------------------------------------------------------------------------
# horosphere samples E_0(zeta, R)
# ---------------------------------------------------------------------------

def reference_horodisc_q1(rng, zeta, radius, n):
    """The disc sampler written out: the round disc of centre zeta/(1+R)
    and radius R/(1+R), radius drawn before angle.  Criterion 03's samples
    depend on this arithmetic and draw order."""
    c0 = 1.0 / (1.0 + radius)
    rad = radius / (1.0 + radius)
    u = np.sqrt(rng.uniform(0.0, 1.0 - 1e-12, size=n))
    phi = rng.uniform(0.0, 2 * np.pi, size=n)
    return (c0 + rad * u * np.exp(1j * phi))[:, None] * zeta.coords[None, :]


def _off_axis(q, seed=7):
    return geo.boundary_point(
        sampling.unit_directions(np.random.default_rng(seed), q, 1)[0])


def _normalised_radius(pts, zeta, radius):
    """rho^2 = |w_1 - c|^2/a^2 + |w'|^2/b^2, b^2 = a, read without a frame:
    w_1 = <z, zeta> and |w'|^2 = |z|^2 - |w_1|^2."""
    c = 1.0 / (1.0 + radius)
    a = radius / (1.0 + radius)
    w1 = pts @ np.conj(zeta.coords)
    rest = np.sum(np.abs(pts) ** 2, axis=-1) - np.abs(w1) ** 2
    return np.abs(w1 - c) ** 2 / a ** 2 + rest / a


@pytest.mark.parametrize("radius", [3.0 ** -5, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("off_axis", [False, True])
def test_horodisc_q1_matches_reference(radius, off_axis):
    zeta = (geo.boundary_point([np.exp(0.7j)]) if off_axis
            else geo.basis_boundary_point(1))
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    pts = sampling.sample_horodisc(rng, zeta, radius, 10_000)
    assert np.array_equal(pts,
                          reference_horodisc_q1(ref_rng, zeta, radius, 10_000))
    # the generator is left where the reference leaves it
    assert rng.uniform() == ref_rng.uniform()


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("radius", [-0.5, 0.0, -0.0, np.nan, np.inf, -np.inf])
def test_horodisc_refuses_invalid_radius(q, radius):
    with pytest.raises(DomainError, match="horosphere radius"):
        sampling.sample_horodisc(np.random.default_rng(0),
                                 geo.basis_boundary_point(q), radius, 100)


@pytest.mark.parametrize("q,n", [(4, 10_000), (5, 500)])
@pytest.mark.parametrize("off_axis", [False, True])
def test_horodisc_high_dimension(q, n, off_axis):
    # box rejection starved here: the 2q-ball fills pi^q/(q! 4^q) of its box
    zeta = _off_axis(q) if off_axis else geo.basis_boundary_point(q)
    for radius in (0.04, 0.5, 3.0):
        pts = sampling.sample_horodisc(np.random.default_rng(q), zeta,
                                       radius, n)
        assert pts.shape == (n, q)
        assert np.all(geo.horo_raw(pts, zeta.coords) < np.log(radius))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("radius", [0.04, 0.5, 3.0])
@pytest.mark.parametrize("off_axis", [False, True])
def test_horodisc_is_uniform(q, radius, off_axis):
    """Uniform in the ellipsoid: the normalised radius rho^2 of a uniform
    point of the real 2q-ball has P(rho^2 < t) = t^q."""
    n = 20_000
    zeta = _off_axis(q) if off_axis else geo.basis_boundary_point(q)
    pts = sampling.sample_horodisc(np.random.default_rng(99), zeta, radius, n)
    assert pts.shape == (n, q)
    assert np.all(geo.horo_raw(pts, zeta.coords) < np.log(radius))
    rho2 = _normalised_radius(pts, zeta, radius)
    assert rho2.max() < 1.0 + 1e-9
    for t in (0.25, 0.5, 0.75):
        p = t ** q
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(np.mean(rho2 < t) - p) < 5.0 * se, t
    again = sampling.sample_horodisc(np.random.default_rng(99), zeta,
                                     radius, n)
    assert np.array_equal(pts, again)
