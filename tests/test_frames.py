"""Frame validation, embedding, and spectral data."""

import numpy as np
import pytest

from monalg.algebra import AlgebraSpec, functional
from monalg.errors import FrameError
from monalg.frames import Frame, embed, spectral, validate_frame


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
