"""Grayscale rendering of complex pixel arrays to PGM."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError
from .imageio import pixels_to_gray, write_pgm
from .mode_basis import _finite
from .special_functions import _integer, _Value

__all__ = ["RenderSpec", "render"]

_CHANNELS = ("real", "imag", "abs", "phase")
_SCALINGS = ("fixed", "adaptive")
_DEPTHS = (8, 16)


class RenderSpec(_Value):
    """How a complex array is turned into gray levels.

    scaling:
        'fixed'    - map the value range (-1, 1) to black..white, clipping
                     anything outside;
        'adaptive' - map the smallest pixel to black and the largest to
                     white; a constant image degenerates to mid-gray.
    depth:
        8 or 16 bits per sample (maxval 255 or 65535), an int or a NumPy
        integer, stored as an int.
    channel:
        'real', 'imag', 'abs', or 'phase'.  Phase is wrapped to [-pi, pi)
        and always mapped over that full range, regardless of scaling.
        So that rounding noise cannot flip a phase pixel across the gray
        scale, a pixel of at most 1e-9 times the image's largest amplitude
        renders as phase 0, and an angle within 1e-6 of the +-pi wrap as
        -pi.
    """

    def __init__(self, scaling: str = "fixed", depth: int = 8,
                 channel: str = "real"):
        if scaling not in _SCALINGS:
            raise DomainError(f"scaling must be one of {_SCALINGS}")
        depth = _integer(depth, "depth", -math.inf)
        if depth not in _DEPTHS:
            raise DomainError(f"depth must be 8 or 16, got {depth}")
        if channel not in _CHANNELS:
            raise DomainError(f"channel must be one of {_CHANNELS}")
        self.__dict__.update(scaling=scaling, depth=depth, channel=channel)

    @property
    def maxval(self) -> int:
        return 255 if self.depth == 8 else 65535


# Relative amplitude at or below which a pixel's phase renders as 0, and
# the distance from the +-pi wrap within which an angle renders as -pi.
_PHASE_FLOOR = 1e-9
_WRAP_WINDOW = 1e-6


def _select_channel(pixels: np.ndarray, channel: str) -> np.ndarray:
    if channel == "real":
        return np.real(pixels)
    if channel == "imag":
        return np.imag(pixels)
    if channel == "abs":
        return np.abs(pixels)
    amplitude = np.abs(pixels)
    angles = np.angle(pixels)
    # np.angle returns (-pi, pi]; folding the wrap's neighbourhood to -pi
    # keeps [-pi, pi) and renders a real negative pixel black whatever the
    # sign of its rounding-noise imaginary part.
    angles = np.where(np.abs(angles) >= math.pi - _WRAP_WINDOW, -math.pi,
                      angles)
    return np.where(amplitude <= _PHASE_FLOOR * amplitude.max(initial=0.0),
                    0.0, angles)


def scale_to_unit(values: np.ndarray, spec: RenderSpec) -> np.ndarray:
    """Map channel values to [0, 1] according to the render spec."""
    if spec.channel == "phase":
        return (values + math.pi) / (2.0 * math.pi)
    if spec.scaling == "fixed":
        return np.clip((values + 1.0) / 2.0, 0.0, 1.0)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


def render(pixels: np.ndarray, spec: RenderSpec, path):
    """Render a pixel array to a binary PGM file and return the path.

    The array must be 2-D and non-empty (else ``DimensionError``) and hold
    finite numbers (else ``DomainError``)."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or not pixels.size:
        raise DimensionError(f"image must be 2-D and non-empty, got shape "
                             f"{pixels.shape}")
    values = _select_channel(_finite(pixels), spec.channel)
    gray = pixels_to_gray(scale_to_unit(values, spec), spec.maxval)
    return write_pgm(path, gray, spec.maxval)
