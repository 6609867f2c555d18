"""'Same'-size FFT convolution with a fixed kernel.

:class:`SameConvolution` returns exactly what
``scipy.signal.fftconvolve(image, kernel, mode="same")`` returns: the
same ``scipy.fft`` calls on the same padded lengths, the same product
and the same centred slice.  It does not import ``scipy.signal``, whose
import alone takes longer than a whole small PEC run.  The kernel's
spectrum depends only on the padded FFT size, so it is computed once per
image shape and reused: an iterative corrector convolves the same grid
tens of times per solve.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class SameConvolution:
    """``image ↦ fftconvolve(image, kernel, mode="same")`` for real arrays.

    Args:
        kernel: real kernel with as many dimensions as the images it
            convolves.
    """

    __slots__ = ("kernel", "_plan")

    def __init__(self, kernel: np.ndarray) -> None:
        self.kernel = np.asarray(kernel)
        #: ``(image shape, FFT axes, padded lengths, kernel spectrum)``
        #: for the last image shape convolved.
        self._plan: Optional[tuple] = None

    def _plan_for(self, shape: Tuple[int, ...]) -> tuple:
        if self._plan is None or self._plan[0] != shape:
            from scipy import fft

            kshape = self.kernel.shape
            # Along an axis where either operand has length 1 the
            # convolution is a broadcast product; only the others are
            # transformed.
            axes = [a for a in range(len(shape)) if shape[a] != 1 and kshape[a] != 1]
            fshape = [fft.next_fast_len(shape[a] + kshape[a] - 1, True) for a in axes]
            spectrum = fft.rfftn(self.kernel, fshape, axes=axes) if axes else None
            self._plan = (shape, axes, fshape, spectrum)
        return self._plan

    def __call__(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        kshape = self.kernel.shape
        if image.ndim != len(kshape):
            raise ValueError("image and kernel should have the same dimensionality")
        _, axes, fshape, spectrum = self._plan_for(image.shape)
        full = [max(n, k) for n, k in zip(image.shape, kshape)]
        for a in axes:
            full[a] = image.shape[a] + kshape[a] - 1
        if axes:
            from scipy import fft

            product = fft.rfftn(image, fshape, axes=axes) * spectrum
            out = fft.irfftn(product, fshape, axes=axes)
            out = out[tuple(slice(n) for n in full)]
        else:
            out = image * self.kernel
        centred = tuple(
            slice((f - n) // 2, (f - n) // 2 + n) for f, n in zip(full, image.shape)
        )
        return out[centred].copy()
