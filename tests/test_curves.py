"""Quadrature engines and curve geometry."""

import json

import numpy as np
import pytest

from monalg.curves import (
    Circle2D,
    Polyline,
    Triangle,
    TriangleSampler,
    coordinate_plane,
    triangle_quality,
)
from monalg.io import load_curve
from monalg.quadrature import (
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    gauss_segment,
    trapezoid_periodic,
)


# The node counts a quadrature takes, named by keyword and engine: a
# circle's cap and a segment's cap.
_NODE_COUNTS = {"cap-trapezoid_periodic": (trapezoid_periodic, "cap"),
                "cap-gauss_segment": (gauss_segment, "cap")}


@pytest.mark.parametrize("count", list(_NODE_COUNTS))
@pytest.mark.parametrize("value", [0, 1.0, True, "64", -1, 2.5])
def test_quadrature_options_refuse_anything_but_counts_of_at_least_one(count, value):
    engine, keyword = _NODE_COUNTS[count]
    ones = lambda tau: np.ones((len(tau), 1))  # noqa: E731
    with pytest.raises(ValueError, match=f"{value!r}") as exc:
        engine(ones, **{keyword: value})
    assert "integer of at least 1" in str(exc.value)
    assert engine(ones, **{keyword: 1}).nodes >= 1


def test_trapezoid_pure_harmonics_vanish():
    for k in (1, 2, 5):
        res = trapezoid_periodic(lambda tau: np.exp(1j * k * tau)[:, None])
        assert np.abs(res.value[0]) <= 1e-12
        assert res.converged


def test_trapezoid_known_value():
    # integral of dtau / (a - cos tau) = 2 pi / sqrt(a^2 - 1)
    a = 1.5
    res = trapezoid_periodic(lambda tau: (1.0 / (a - np.cos(tau)))[:, None])
    expected = 2.0 * np.pi / np.sqrt(a * a - 1.0)
    assert abs(res.value[0] - expected) <= 1e-10
    assert res.converged
    # refinement history shows geometric decay until the plateau
    deltas = [d for _, d in res.history if d > 0]
    assert deltas == sorted(deltas, reverse=True)


def test_gauss_segment_polynomial_exact():
    res = gauss_segment(lambda tau: (tau**7)[:, None])
    assert abs(res.value[0] - 1.0 / 8.0) <= 1e-14
    assert res.converged


def test_gauss_segment_smooth_function():
    res = gauss_segment(lambda tau: np.exp(tau)[:, None])
    assert abs(res.value[0] - (np.e - 1.0)) <= 1e-12


def test_kronrod_panel_exactness():
    # K15 is exact for monomials up to degree 23 on [0, 1], its embedded G7
    # up to degree 13 and no further
    for degree in range(24):
        kronrod = _KRONROD_WEIGHTS @ _KRONROD_NODES**degree
        assert abs(kronrod - 1.0 / (degree + 1)) <= 1e-15
    gauss_nodes = _KRONROD_NODES[1::2]
    for degree in range(14):
        assert abs(_GAUSS_WEIGHTS @ gauss_nodes**degree - 1.0 / (degree + 1)) <= 1e-15
    assert abs(_GAUSS_WEIGHTS @ gauss_nodes**14 - 1.0 / 15) > 1e-10
    assert np.all(np.diff(_KRONROD_NODES) > 0)


def test_kronrod_panel_embeds_gauss_legendre_7():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(_KRONROD_NODES[1::2], 0.5 * (nodes + 1.0), rtol=0, atol=1e-15)
    assert np.allclose(_GAUSS_WEIGHTS, 0.5 * weights, rtol=0, atol=1e-15)


def test_gauss_segment_level_zero_uses_the_embedded_estimate():
    # exact for both sums: accepted after one level of 15 nodes
    res = gauss_segment(lambda tau: (tau**13)[:, None])
    assert (res.nodes, res.converged, res.history) == (15, True, [])
    assert res.error_estimate <= 1e-15
    # K15 is still exact at degree 20, but G7 is not, so level 0 is not
    # accepted and level 1 confirms the value
    res = gauss_segment(lambda tau: (tau**20)[:, None])
    assert res.nodes == 30 and res.converged and len(res.history) == 1
    assert abs(res.value[0] - 1.0 / 21) <= 1e-15


def test_gauss_segment_near_singular_converges():
    res = gauss_segment(lambda tau: np.sqrt(tau + 1e-3)[:, None], tol=1e-10)
    expected = 2.0 / 3.0 * ((1.0 + 1e-3) ** 1.5 - 1e-3**1.5)
    assert res.converged
    assert abs(res.value[0] - expected) <= 1e-10


def test_gauss_segment_disagreeing_sums_refine_past_level_zero():
    def f(tau):
        return (1.0 / (tau + 0.01))[:, None]

    one_level = gauss_segment(f, cap=15)
    assert one_level.nodes == 15 and not one_level.converged
    assert one_level.error_estimate > 1e-10  # |K15 - G7| at level 0
    res = gauss_segment(f)
    assert res.converged and res.nodes > 15 and res.history
    assert abs(res.value[0] - np.log(101.0)) <= 1e-10


def _segment_integrands():
    """Forty easy integrands, one that needs many levels, one that hits the cap."""
    def slow(t):
        return np.stack([np.sqrt(t + 1e-3), 1j * np.sqrt(t + 1e-3)], axis=1)

    def stuck(t):
        return np.stack([np.sqrt(t + 1e-8), np.abs(t - 1 / 3)], axis=1)

    easy = [lambda t, a=a: np.stack([np.exp(a * t), np.cos(3 * a * t) + 1j * t**5], axis=1)
            for a in np.linspace(-2.0, 2.0, 40)]
    return easy[:20] + [slow] + easy[20:] + [stuck]


class _Stack:
    """A stack over ``integrands`` that records the points it receives."""

    def __init__(self, integrands):
        self.integrands = integrands
        self.points = 0
        self.calls = []  # (points, segments) of each call

    def __len__(self):
        return len(self.integrands)

    def __call__(self, tau, seg):
        self.points += len(tau)
        self.calls.append((len(tau), len(np.unique(seg))))
        out = np.empty((len(tau), 2), dtype=np.complex128)
        for s in np.unique(seg):
            out[seg == s] = self.integrands[s](tau[seg == s])
        return out


@pytest.mark.parametrize("cap", [4096, 64])
def test_gauss_stack_matches_single_segment_calls(cap):
    integrands = _segment_integrands()
    stacked = gauss_segment(_Stack(integrands), cap=cap)
    singles = [gauss_segment(f, cap=cap) for f in integrands]
    assert stacked.value.shape == (len(integrands), 2)
    for s, single in enumerate(singles):
        scale = np.abs(single.value)
        assert np.all(np.abs(stacked.value[s] - single.value) <= 1e-14 * scale)
        assert stacked.segment_nodes[s] == single.nodes
        assert stacked.segment_converged[s] == single.converged
        assert stacked.segment_deltas[s] == pytest.approx(single.error_estimate, rel=1e-12)
    assert stacked.nodes == sum(single.nodes for single in singles)
    assert stacked.converged is False
    # the mix exercises every stopping rule: converged on the embedded test
    # of level 0, early, late, at the cap (the last level of 15 * 2^l <= cap)
    nodes = [single.nodes for single in singles]
    last = {4096: 3840, 64: 60}[cap]
    assert singles[10].converged and nodes[10] == 15 and singles[10].history == []
    assert singles[0].converged and nodes[0] == 30
    assert nodes[-1] == last and not singles[-1].converged
    if cap == 4096:
        assert singles[20].converged and nodes[20] >= 480
    else:
        assert nodes[20] == last and not singles[20].converged
    # one history entry per level after the first, carrying the largest
    # delta of the level
    assert len(stacked.history) == max(len(single.history) for single in singles)
    assert stacked.history[0][1] == pytest.approx(
        max(single.history[0][1] for single in singles if single.history), rel=1e-12)


def test_gauss_stack_history_counts_the_evaluated_points():
    stack = _Stack(_segment_integrands())
    res = gauss_segment(stack)
    history = res.history
    # level 0 evaluates every segment; history counts the levels after it
    assert len(stack) * 15 + sum(nodes for nodes, _ in history) == stack.points
    # a level evaluates only the segments that have not converged
    assert history[-1][0] < history[0][0] * 2 ** (len(history) - 1)


def test_gauss_stack_streams_blocks_of_whole_segments():
    stack = _Stack(_segment_integrands())
    gauss_segment(stack)
    # a call holds whole segments and at most 512 points, unless a single
    # segment is larger
    for points, segments in stack.calls:
        assert points % segments == 0
        assert points <= 512 or segments == 1
    # the first level of 42 segments of 15 nodes streams as 34 + 8 segments
    assert stack.calls[:2] == [(510, 34), (120, 8)]


def _periodic_integrands(a=1.01):
    """Harmonics, ``1 / (a - cos tau)``, an alias of the first two levels and a rough one."""
    harmonics = [lambda t, k=k: np.stack([np.exp(1j * k * t), np.cos(k * t) ** 2], axis=1)
                 for k in range(1, 9)]

    def pole(t):
        return np.stack([1.0 / (a - np.cos(t)), 1j * np.sin(t) / (a - np.cos(t))], axis=1)

    def alias(t):
        # sums to 2 pi on 64 and 128 nodes, to its integral 0 from 256 on
        return np.stack([np.cos(128 * t), np.zeros_like(t)], axis=1).astype(complex)

    def rough(t):
        return np.stack([np.abs(np.sin(t)), 1j * np.abs(np.cos(t)) ** 3], axis=1)

    return harmonics[:4] + [pole] + harmonics[4:] + [alias, rough]


@pytest.mark.parametrize("cap", [2**16, 256])
def test_trapezoid_stack_matches_single_calls(cap):
    integrands = _periodic_integrands()
    stacked = trapezoid_periodic(_Stack(integrands), cap=cap)
    singles = [trapezoid_periodic(f, cap=cap) for f in integrands]
    assert stacked.value.shape == (len(integrands), 2)
    for s, single in enumerate(singles):
        assert np.array_equal(stacked.value[s], single.value)
        assert stacked.segment_nodes[s] == single.nodes
        assert stacked.segment_converged[s] == single.converged
    assert stacked.nodes == sum(single.nodes for single in singles)
    assert stacked.converged is False
    # harmonics converge on the first level that may stop, the rough one never
    nodes = [single.nodes for single in singles]
    assert nodes[0] == 256 and singles[0].converged
    assert nodes[-1] == cap and not singles[-1].converged
    # the pole near the circle needs 512 nodes
    expected = 2.0 * np.pi / np.sqrt(1.01**2 - 1.0)
    assert singles[4].converged == (cap > 256)
    if cap > 256:
        assert nodes[4] == 512
        assert abs(singles[4].value[0] - expected) <= 1e-12 * expected
    assert len(stacked.history) == max(len(single.history) for single in singles)


def test_trapezoid_waits_two_doublings_before_converging():
    alias = _periodic_integrands()[-2]
    res = trapezoid_periodic(alias)
    # levels 0 and 1 agree on the aliased sum 2 pi; level 2 shows the change
    assert res.history[0] == (128, 0.0)
    assert res.history[1][1] == pytest.approx(2.0 * np.pi)
    assert res.converged and res.nodes == 512
    assert abs(res.value[0]) <= 1e-12
    stack = _Stack([alias] * 3)
    stacked = trapezoid_periodic(stack)
    assert list(stacked.segment_nodes) == [512] * 3
    assert stacked.history[0] == (3 * 128, 0.0)


def test_trapezoid_stack_history_counts_the_evaluated_points():
    for cap in (2**16, 256):
        stack = _Stack(_periodic_integrands())
        history = trapezoid_periodic(stack, cap=cap).history
        assert history[0][0] // 2 + sum(nodes for nodes, _ in history) == stack.points
        # whole integrands of at most 512 points per call
        for points, integrands in stack.calls:
            assert points % integrands == 0
            assert points <= 512 or integrands == 1


def test_circle_geometry():
    circle = Circle2D(np.zeros(3), 2.0, coordinate_plane(3, 1, 2))
    tau = np.array([0.0, np.pi / 2])
    pts = circle.points(tau)
    assert np.allclose(pts[0], [2, 0, 0])
    assert np.allclose(pts[1], [0, 2, 0], atol=1e-15)
    assert circle.length() == pytest.approx(4 * np.pi)
    vel = circle.tangents(tau)
    assert np.allclose(vel[0], [0, 2, 0], atol=1e-15)


def test_circle_validation():
    with pytest.raises(ValueError, match="radius"):
        Circle2D(np.zeros(2), -1.0, np.eye(2))
    with pytest.raises(ValueError, match="orthonormal"):
        Circle2D(np.zeros(2), 1.0, np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_polyline_segments_and_length():
    poly = Polyline(np.array([[0, 0], [1, 0], [1, 1]]), closed=True)
    assert len(poly.segments()) == 3
    assert poly.length() == pytest.approx(2 + np.sqrt(2))
    open_poly = Polyline(np.array([[0, 0], [1, 0], [1, 1]]), closed=False)
    assert len(open_poly.segments()) == 2


def test_triangle_quality():
    equilateral = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    assert triangle_quality(equilateral) == pytest.approx(1.0)
    thin = np.array([[0, 0], [1, 0], [0.5, 1e-3]])
    assert triangle_quality(thin) < 0.01
    with pytest.raises(ValueError, match="dependent"):
        Triangle(np.array([[0.0, 0], [1, 0], [2, 0]]))


def test_triangle_is_a_closed_polyline(tmp_path):
    tri = Triangle(np.array([[0.0, 0], [1, 0], [0, 1]]))
    assert isinstance(tri, Polyline) and tri.closed
    assert len(tri.segments()) == 3
    back = tri.reversed()
    assert isinstance(back, Triangle) and back.closed and back.orientation == -1
    with pytest.raises(TypeError):
        Triangle(tri.vertices, closed=False)
    drawn = Triangle(TriangleSampler(np.zeros(3), 1.0).sample(np.random.default_rng(5), 1)[0])
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"kind": "triangle", "vertices": [[0, 0], [1, 0], [0, 1]]}))
    for curve in (drawn, load_curve(path)):
        assert isinstance(curve, Triangle) and curve.closed


@pytest.mark.parametrize("vertices", [[[0.0, 0], [1, 0]], [[0.0, 0], [1, 0], [1, 1], [0, 1]]],
                         ids=["two", "four"])
def test_triangle_needs_three_vertices(vertices):
    with pytest.raises(ValueError, match="exactly three"):
        Triangle(np.array(vertices))


def test_triangle_sampler_respects_constraints():
    sampler = TriangleSampler(np.zeros(3), 1.0, min_quality=0.1)
    rng = np.random.default_rng(71)
    for row in sampler.sample(rng, 50):
        tri = Triangle(row)
        assert tri.quality() >= 0.1
        assert np.all(np.linalg.norm(tri.vertices, axis=1) <= 1.0 + 1e-12)


def _quality_by_cross_product(a, b, c):
    """Reference quality of one triangle in R^3: the area from a cross product."""
    area = np.linalg.norm(np.cross(b - a, c - a)) / 2.0
    return 4.0 * np.sqrt(3.0) * area / sum(np.dot(s, s) for s in (b - a, c - b, a - c))


def test_triangle_quality_of_a_stack_is_each_triangles_quality():
    verts = TriangleSampler(np.zeros(3), 1.0).sample(np.random.default_rng(3), 20)
    stacked = triangle_quality(verts)
    assert stacked.shape == (20,)
    reference = [_quality_by_cross_product(*row) for row in verts]
    assert np.allclose(stacked, reference, rtol=0, atol=1e-12)
    assert np.array_equal(stacked, [Triangle(row).quality() for row in verts])
    assert triangle_quality(np.zeros((2, 3, 2))).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("k", [2, 3])
def test_triangle_sampler_draws_one_array_of_admissible_triangles(k):
    center = np.full(k, 0.25)
    sampler = TriangleSampler(center, 0.7, min_quality=0.3)
    verts = sampler.sample(np.random.default_rng(11), 1500)
    assert verts.shape == (1500, 3, k)
    assert np.all(np.linalg.norm(verts - center, axis=2) <= 0.7)
    assert np.all(triangle_quality(verts) >= 0.3)
    # triangles on random planes through random points are not repeats of one
    assert len(np.unique(verts[:, 0, 0])) == 1500


def test_triangle_sampler_is_reproducible():
    sampler = TriangleSampler(np.zeros(3), 1.0)
    first = sampler.sample(np.random.default_rng(19), 30)
    again = sampler.sample(np.random.default_rng(19), 30)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, sampler.sample(np.random.default_rng(20), 30))


def test_triangle_sampler_gives_up_on_an_unreachable_quality():
    # no triangle has quality above 1, so every candidate is dropped
    sampler = TriangleSampler(np.zeros(3), 1.0, min_quality=1.01)
    with pytest.raises(RuntimeError, match="admissible triangle"):
        sampler.sample(np.random.default_rng(0), 3)


@pytest.mark.parametrize("count", [0, -2, 1.0, True])
def test_triangle_sampler_refuses_counts_below_one(count):
    with pytest.raises(ValueError, match="at least 1"):
        TriangleSampler(np.zeros(3), 1.0).sample(np.random.default_rng(0), count)


def test_reversal_flips_orientation_flag():
    circle = Circle2D(np.zeros(2), 1.0, np.eye(2))
    assert circle.reversed().orientation == -1
    poly = Polyline(np.array([[0, 0], [1, 1]]), closed=False)
    assert poly.reversed().orientation == -1
