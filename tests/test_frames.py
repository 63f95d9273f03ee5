"""Frame validation, embedding, and spectral data."""

import numpy as np
import pytest

from monalg.algebra import AlgebraSpec, functional
from monalg.curves import Circle2D, coordinate_plane
from monalg.errors import FrameError
from monalg.frames import (
    Frame,
    _nearest_point,
    embed,
    kernel_lines,
    spectral,
    validate_frame,
    widest_plane,
)
from monalg.integrals import compute_lambda, winding_certificate


@pytest.fixture
def spec():
    return AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 4, 5): 1})


@pytest.fixture
def frame(spec):
    # e2 = i I1 + I2 + I4, e3 = I3 + i I5
    return Frame.from_rows(spec, [1j, 1, 0, 1, 0], [0, 0, 1, 0, 1j])


def test_validate_default_frame(spec, frame):
    validate_frame(frame, spec)


def test_embed_unit_direction(spec, frame):
    out = embed(frame, [1.0, 0.0, 0.0], spec)
    assert np.allclose(out.coords, spec.unit_coords())


def test_embed_zero(spec, frame):
    assert embed(frame, [0.0, 0.0, 0.0], spec).norm() == 0.0


def test_embed_second_row(spec, frame):
    out = embed(frame, [0.0, 1.0, 0.0], spec)
    assert np.allclose(out.coords, frame.a[1])


def test_embed_is_linear(spec, frame):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    lhs = embed(frame, 2.0 * x - 0.5 * y, spec).coords
    rhs = 2.0 * embed(frame, x, spec).coords - 0.5 * embed(frame, y, spec).coords
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_spectral_matches_functional(spec, frame):
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.standard_normal(3)
        data = spectral(frame, x, spec)
        direct = functional(1, embed(frame, x, spec), spec)
        assert abs(data.xi[0] - direct) <= 1e-14 * max(1.0, abs(direct))


def test_spectral_on_noninvertible_locus(spec, frame):
    # xi_1 = x_1 + i x_2 vanishes iff x_1 = x_2 = 0
    data = spectral(frame, [0.0, 0.0, 1.0], spec)
    assert abs(data.xi[0]) == 0.0
    assert not data.invertible


def test_spectral_at_unit(spec, frame):
    data = spectral(frame, [1.0, 0.0, 0.0], spec)
    assert data.xi == (1 + 0j,)
    assert data.invertible
    assert data.min_abs_xi == 1.0


def test_frame_rejects_real_dependence(spec):
    # e2 = 2 e1 is really dependent on the unit row
    frame = Frame.from_rows(spec, [2.0, 0, 0, 0, 0])
    with pytest.raises(FrameError, match="dependent"):
        validate_frame(frame, spec)


def test_frame_rejects_real_functional_image(spec):
    # no imaginary part anywhere in the idempotent column
    frame = Frame.from_rows(spec, [0, 1, 0, 0, 0])
    with pytest.raises(FrameError, match="imaginary"):
        validate_frame(frame, spec)


def test_frame_rejects_bad_unit_row(spec):
    frame = Frame(np.array([[0, 1, 0, 0, 0], [1j, 0, 0, 0, 0]], dtype=complex))
    with pytest.raises(FrameError, match="unit"):
        validate_frame(frame, spec)


def test_frame_rejects_k_bounds(spec):
    frame = Frame(spec.unit_coords().reshape(1, 5))
    with pytest.raises(FrameError, match="2 <= k"):
        validate_frame(frame, spec)


# -- the plane of widest margin ---------------------------------------------------


def _independent_margin(lines):
    """The widest margin of the lines and its normal, or ``None``, by least
    distance programming (Lawson and Hanson, ch. 23): the least ``|x|``
    with ``d_u . x >= 1`` for every unit line ``d_u`` is ``normal / margin``,
    from one non-negative least-squares solve."""
    from scipy.optimize import nnls

    unit = lines / np.linalg.norm(lines, axis=1)[:, None]
    system = np.vstack([unit.T, np.ones(len(unit))])
    target = np.array([0.0, 0.0, 0.0, 1.0])
    weights, _ = nnls(system, target)
    residual = system @ weights - target
    if residual[3] >= -1e-12:  # the constraints admit no x
        return None
    x = -residual[:3] / residual[3]
    return 1.0 / np.linalg.norm(x), x / np.linalg.norm(x)


def _random_frames(count, seed=11):
    """``count`` admissible random ``k = 3`` frames, of example1 and of
    ``semisimple:m=2/3/5/8``, with standard complex normal rows."""
    from monalg.catalog import builtin_algebra

    rng = np.random.default_rng(seed)
    names = ["example1", "semisimple:m=2", "semisimple:m=3", "semisimple:m=5", "semisimple:m=8"]
    out = []
    while len(out) < count:
        spec = builtin_algebra(names[len(out) % len(names)])
        rows = rng.standard_normal((2, 2, spec.n))
        frame = Frame.from_rows(spec, *(rows[:, 0] + 1j * rows[:, 1]))
        try:
            validate_frame(frame, spec)
        except FrameError:
            continue
        out.append((spec, frame))
    return out


@pytest.mark.parametrize("m, margin", [(3, 0.8507), (8, 0.7555), (12, 0.7384), (20, 0.7255)])
def test_widest_margin_of_the_semisimple_frames(m, margin):
    from monalg.catalog import builtin_algebra, builtin_frames

    spec = builtin_algebra(f"semisimple:m={m}")
    frame = builtin_frames(spec)["default"]
    widest = widest_plane(frame, spec)
    expected, normal = _independent_margin(kernel_lines(frame, spec))
    assert abs(widest.margin - expected) <= 1e-9 and round(widest.margin, 4) == margin
    assert np.abs(widest.normal - normal).max() <= 1e-7


def test_widest_margin_of_random_frames():
    feasible = 0
    for spec, frame in _random_frames(30):
        lines = kernel_lines(frame, spec)
        widest, expected = widest_plane(frame, spec), _independent_margin(lines)
        if expected is None:
            assert widest is None
            continue
        feasible += 1
        assert abs(widest.margin - expected[0]) <= 1e-9
        unit = lines / np.linalg.norm(lines, axis=1)[:, None]
        assert widest.margin == pytest.approx(np.min(unit @ widest.normal), abs=1e-15)
        if spec.m == 1:  # the one line is its own normal
            assert widest.margin == pytest.approx(1.0, abs=1e-15)
            assert np.abs(widest.normal - unit[0]).max() <= 1e-15
        p, q = widest.plane
        assert np.abs(widest.plane @ widest.plane.T - np.eye(2)).max() <= 1e-14
        assert np.abs(np.cross(p, q) - widest.normal).max() <= 1e-14
        # a circle in the plane winds once in every image
        circle = Circle2D(np.zeros(3), 1.0, widest.plane)
        assert winding_certificate(circle, frame, np.zeros(3), spec).embraces_once
    assert 10 <= feasible < 30  # both kinds occur


def test_nearest_point_of_unit_lines():
    # Wolfe's algorithm against least distance programming on 400 sets of
    # 1 to 40 unit lines: spread over the sphere (mostly no plane), in a
    # cap, in a thin band above a great circle, and with repeated and
    # opposed lines
    rng = np.random.default_rng(5)
    feasible = 0
    for trial in range(400):
        lines = rng.standard_normal((int(rng.integers(1, 41)), 3))
        if trial % 4 == 1:
            lines[:, 2] = np.abs(lines[:, 2]) + rng.uniform(0, 2)
        elif trial % 4 == 2:
            lines[:, 2] = 0.01 * np.abs(lines[:, 2])
        elif trial % 4 == 3:
            lines[:, 2] = np.abs(lines[:, 2]) + 0.5
            lines = np.concatenate([lines, lines[: len(lines) // 2]])
            if trial % 8 == 7:
                lines = np.concatenate([lines, -lines[:1]])
        unit = lines / np.linalg.norm(lines, axis=1)[:, None]
        nearest = _nearest_point(unit)
        size = np.sqrt(nearest @ nearest)
        margin = np.min(unit @ nearest) / size if size else 0.0
        expected = _independent_margin(lines)
        if expected is None:
            assert margin <= 1e-12
        else:
            feasible += 1
            assert abs(margin - expected[0]) <= 1e-9
    assert 200 <= feasible < 400


@pytest.mark.parametrize("name", ["example1", "example4", "chain12"])
def test_one_line_gives_its_own_direction(name):
    from verdicts import _inputs

    spec, frames, _ = _inputs(name)
    frame = frames["default"]
    (line,) = kernel_lines(frame, spec)
    widest = widest_plane(frame, spec)
    assert widest.margin == 1.0
    assert np.array_equal(widest.normal, line / np.linalg.norm(line))
    # the normal e_3 keeps coordinate plane (1,2), bit for bit
    assert np.array_equal(widest.plane, coordinate_plane(3, 1, 2))


def _opposed_frame():
    """A ``semisimple:m=3`` frame whose first two kernel lines are opposed."""
    from monalg.catalog import builtin_algebra

    spec = builtin_algebra("semisimple:m=3")
    frame = Frame.from_rows(spec, [1j, 2 - 1j, 1j], [1 + 1j, 3 - 1j, 0])
    validate_frame(frame, spec)
    return spec, frame


def test_opposed_lines_have_no_widest_plane():
    from monalg.errors import EmbracingError
    from monalg.suites import suite_formula, suite_lambda

    spec, frame = _opposed_frame()
    lines = kernel_lines(frame, spec)
    assert np.array_equal(lines[0], -lines[1])
    assert widest_plane(frame, spec) is None
    # the formula suite stays in plane (1,2), whose circle winds -1 in one image
    center = np.array([0.2, 0.1, 0.0])
    x1x2 = winding_certificate(Circle2D(center, 0.3, coordinate_plane(3, 1, 2)), frame, center,
                               spec)
    with pytest.raises(EmbracingError) as raised:
        suite_formula(spec, {"default": frame}, 1, {})
    assert raised.value.certificate == x1x2 and not x1x2.embraces_once
    # lambda on the unit circle in plane (1,2), with no margin
    (deviation,) = [r for r in suite_lambda(spec, {"default": frame}, 1, {})
                    if r.name.startswith("lambda/deviation")]
    lam = compute_lambda(spec, frame, Circle2D(np.zeros(3), 1.0, coordinate_plane(3, 1, 2)))
    assert deviation.value.coords.tobytes() == lam.value.coords.tobytes()
    assert "margin" not in deviation.diagnostics


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4",
                                  "semisimple:m=2", "semisimple:m=3", "semisimple:m=8",
                                  "semisimple:m=12", "semisimple:m=20", "chain12"])
def test_formula_and_lambda_curves_wind_once(name):
    from verdicts import _inputs

    from monalg.suites import run_suites

    spec, frames, options = _inputs(name)
    widest = widest_plane(frames["default"], spec)
    reports = run_suites(["formula", "lambda"], spec, frames, 1, options)
    wound = [r for r in reports if "windings" in r.diagnostics]
    assert len(wound) == 9 + len(frames)
    for rep in wound:
        assert rep.diagnostics["windings"] == (1,) * spec.m, rep.name
        if rep.name.startswith("formula/"):
            assert rep.diagnostics["margin"] == widest.margin
