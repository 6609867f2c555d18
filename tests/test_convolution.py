"""``SameConvolution`` is bit-identical to ``scipy.signal.fftconvolve``.

Hybrid PEC and the exposure simulator convolve through
:class:`~repro.physics.convolution.SameConvolution`; the PEC doses, and
so the job bytes, stay what they were with ``fftconvolve`` only if every
output element is the same float.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from repro.fracture.base import Shot
from repro.geometry.trapezoid import Trapezoid
from repro.pec.operator import HybridExposureOperator
from repro.physics.convolution import SameConvolution
from repro.physics.psf import DoubleGaussianPSF

sizes = st.integers(min_value=1, max_value=41)


def _reference(image, kernel):
    return fftconvolve(image, kernel, mode="same")


@settings(max_examples=150, deadline=None)
@given(
    image_shape=st.tuples(sizes, sizes),
    kernel_shape=st.tuples(sizes, sizes),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_fftconvolve_same(image_shape, kernel_shape, seed):
    rng = np.random.default_rng(seed)
    image = rng.standard_normal(image_shape)
    kernel = rng.random(kernel_shape)
    convolve = SameConvolution(kernel)
    out = convolve(image)
    assert out.shape == image.shape
    assert np.array_equal(out, _reference(image, kernel))
    # Second image of the same shape: the cached kernel spectrum.
    image2 = rng.standard_normal(image_shape) * 1e3
    assert np.array_equal(convolve(image2), _reference(image2, kernel))


@pytest.mark.parametrize(
    "image_shape, kernel_shape",
    [
        ((1, 37), (7, 7)),
        ((37, 1), (7, 7)),
        ((1, 16), (1, 5)),
        ((16, 1), (4, 1)),
        ((1, 1), (3, 3)),
        ((9, 1), (1, 6)),
        ((1, 1), (1, 1)),
        ((6, 8), (9, 11)),
        ((7, 9), (4, 4)),
    ],
)
def test_degenerate_and_parity_shapes(image_shape, kernel_shape):
    rng = np.random.default_rng(7)
    image = rng.random(image_shape)
    kernel = rng.random(kernel_shape)
    assert np.array_equal(SameConvolution(kernel)(image), _reference(image, kernel))


def test_spectrum_follows_the_image_shape():
    """Alternating shapes replan; each answer is still the reference."""
    rng = np.random.default_rng(3)
    kernel = rng.random((5, 6))
    convolve = SameConvolution(kernel)
    for shape in [(10, 12), (10, 12), (11, 3), (1, 20), (10, 12)]:
        image = rng.random(shape)
        assert np.array_equal(convolve(image), _reference(image, kernel))


def test_integer_image_and_one_dimension():
    kernel = np.array([1.0, 2.5, 0.25, 4.0])
    image = np.arange(11)
    assert np.array_equal(SameConvolution(kernel)(image), _reference(image, kernel))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimensionality"):
        SameConvolution(np.ones((3, 3)))(np.ones(5))


def test_hybrid_operator_convolution_is_fftconvolve():
    """The hybrid operator's grid pass, on its own kernel and grid."""
    psf = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)
    shots = [
        Shot(Trapezoid(0.0, 2.0, 0.0, 3.0, 0.0, 3.0), 1.0),
        Shot(Trapezoid(5.0, 9.0, 1.0, 2.0, 1.0, 2.0), 1.3),
    ]
    points = np.array([[1.5, 1.0], [1.5, 6.0]])
    operator = HybridExposureOperator(points, shots, psf)
    grid = np.random.default_rng(1).random(operator._grid_shape)
    kernel = operator._convolve.kernel
    for _ in range(2):
        assert np.array_equal(operator._convolve(grid), _reference(grid, kernel))
