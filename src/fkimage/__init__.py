"""Unitary Fourier-group transforms of images on finite rectangular screens.

The pixel screen is modelled as a pair of finite oscillators: an N_x x N_y
array carries an orthonormal basis of two-dimensional Kravchuk modes, and
rotations, gyrations, and fractional Fourier transforms are elements of one
Fourier group acting on mode coefficients: mode-number phases, and a mix of
each level in the eigenbasis of J_y of its spin, the quarter-turn little-d
block up to diagonal phases.  Every transform is exactly unitary, so
arbitrary compositions are lossless and invertible.
"""

from .errors import (DimensionError, DomainError, FkimageError, FormatError,
                     ValidationError)
from .special_functions import Spin, kravchuk_function, wigner_little_d
from .mode_basis import (CartesianBasis, ScreenShape, build_basis,
                         cartesian_mode, level_spectrum, lk_coefficients,
                         lk_mode)
from .group_algebra import (FourierGroupElement, compose, element_from_json,
                            element_to_json, from_matrix, inverse, to_matrix)
from .fourier_transforms import (analyze, apply_element, apply_element_coeffs,
                                 fractional_fourier_image, gyrate_coeffs,
                                 gyrate_image, ka_coeffs, ks_coeffs,
                                 rotate_coeffs, rotate_image, synthesize)
from .imageio import (load_complex, load_image, read_pgm, save_complex,
                      write_pgm)
from .render import RenderSpec, render
from .glyph import F_GLYPH_SHAPE, f_glyph

__version__ = "0.1.0"

# Served on first use (PEP 562), so that importing the package, and every
# CLI command but ``verify``, does not load the verification suite.  The
# import path loads no ``dataclasses``, ``json`` or ``fractions`` either:
# the value types are plain classes, and the element wire format and
# ``cli.parse_shape`` import ``json`` and ``fractions`` when first called.
_FROM_VERIFY = ("CheckResult", "run_verification")


def __getattr__(name):
    if name in _FROM_VERIFY:
        from . import verify
        value = getattr(verify, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FkimageError", "DomainError", "DimensionError", "ValidationError",
    "FormatError",
    "Spin", "kravchuk_function", "wigner_little_d",
    "ScreenShape", "CartesianBasis", "level_spectrum", "build_basis",
    "cartesian_mode", "lk_coefficients", "lk_mode",
    "FourierGroupElement", "to_matrix", "from_matrix", "compose", "inverse",
    "element_to_json", "element_from_json",
    "analyze", "synthesize", "rotate_coeffs", "ks_coeffs", "ka_coeffs",
    "gyrate_coeffs", "apply_element",
    "apply_element_coeffs", "rotate_image", "gyrate_image",
    "fractional_fourier_image",
    "read_pgm", "write_pgm", "save_complex", "load_complex", "load_image",
    "RenderSpec", "render",
    "f_glyph", "F_GLYPH_SHAPE",
    "CheckResult", "run_verification",
    "__version__",
]
