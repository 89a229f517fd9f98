"""Unitary Fourier-group action on mode coefficients and images.

All transforms act on coefficient arrays indexed (n_x, n_y); image-level
entry points are thin analyze/transform/synthesize wrappers.  Rotations and
gyrations act block-diagonally on the total-mode levels and never move
amplitude between levels; the fractional Fourier transforms are pure
mode-number phases.

Operator composition is written right-to-left: ``A o B`` means B acts
first.  The general group element

    D(chi; psi, theta, phi) = K_S(chi/2) K_A(psi/2) G(theta/2) K_A(phi/2)

is applied with the rightmost factor first.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .group_algebra import FourierGroupElement
from .mode_basis import CartesianBasis
from .special_functions import _finite_angle, _little_d_entries

__all__ = [
    "analyze",
    "synthesize",
    "rotate_coeffs",
    "ks_coeffs",
    "ka_coeffs",
    "gyrate_coeffs",
    "gyrate_coeffs_sandwich",
    "apply_element_coeffs",
    "apply_element",
    "rotate_image",
    "gyrate_image",
    "fractional_fourier_image",
]


def analyze(basis: CartesianBasis, image: np.ndarray) -> np.ndarray:
    """Mode coefficients F_{n_x,n_y} = sum_q F(q) Psi_{n_x,n_y}(q)."""
    return basis.analyze(image)


def synthesize(basis: CartesianBasis, coeffs: np.ndarray) -> np.ndarray:
    """Image F(q) = sum_n F_{n_x,n_y} Psi_{n_x,n_y}(q)."""
    return basis.synthesize(coeffs)


def rotate_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                  theta: float) -> np.ndarray:
    """Rotation by theta: each level-n block is mixed by the real orthogonal
    little-d matrix d^{lambda(n)}(2*theta) in the level's mu ordering.

    Real input stays exactly real (the blocks are real), the Euclidean norm
    is preserved, and levels do not mix.
    """
    coeffs = basis.check_image(coeffs)
    out = np.empty(coeffs.shape, np.result_type(coeffs.dtype, np.float64))
    angle = 2.0 * float(theta)
    for two_l, nx, ny in basis.spin_groups:
        d = _little_d_entries(two_l, angle)
        out[nx, ny] = coeffs[nx, ny] @ d.T
    return out


def ks_coeffs(coeffs: np.ndarray, chi: float) -> np.ndarray:
    """Symmetric fractional Fourier transform: phases exp(-i chi (n_x+n_y)).

    Diagonal in the mode basis, hence it commutes with every transform in
    the group.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2:
        raise DimensionError(f"coefficients must be 2-D, got shape {coeffs.shape}")
    nx = np.arange(coeffs.shape[0])[:, None]
    ny = np.arange(coeffs.shape[1])[None, :]
    return coeffs * np.exp(-1j * _finite_angle(chi) * (nx + ny))


def ka_coeffs(coeffs: np.ndarray, beta: float) -> np.ndarray:
    """Antisymmetric fractional Fourier transform: phases exp(-i beta (n_x-n_y))."""
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2:
        raise DimensionError(f"coefficients must be 2-D, got shape {coeffs.shape}")
    nx = np.arange(coeffs.shape[0])[:, None]
    ny = np.arange(coeffs.shape[1])[None, :]
    return coeffs * np.exp(-1j * _finite_angle(beta) * (nx - ny))


def gyrate_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                  gamma: float) -> np.ndarray:
    """Gyration by gamma, applied directly as the per-level sandwich

        exp(-i pi (n_x-n_y)/4) . d^{lambda(n)}(2*gamma) . exp(+i pi (n'_x-n'_y)/4)

    which agrees with conjugating a rotation by the antisymmetric Fourier
    transform at +-pi/4 (see ``gyrate_coeffs_sandwich``).
    """
    coeffs = basis.check_image(coeffs)
    angle = 2.0 * float(gamma)
    n_x, n_y = np.indices(coeffs.shape)
    ph = np.exp(1j * math.pi * (n_x - n_y) / 4.0)
    work = ph * coeffs
    out = np.empty_like(work)
    for two_l, nx, ny in basis.spin_groups:
        out[nx, ny] = work[nx, ny] @ _little_d_entries(two_l, angle).T
    return np.conj(ph) * out


def gyrate_coeffs_sandwich(basis: CartesianBasis, coeffs: np.ndarray,
                           gamma: float) -> np.ndarray:
    """Gyration composed from its definition: K_A(pi/4) R(gamma) K_A(-pi/4),
    rightmost factor first.  Numerically cross-checks ``gyrate_coeffs``."""
    step = ka_coeffs(coeffs, -math.pi / 4.0)
    step = rotate_coeffs(basis, step, float(gamma))
    return ka_coeffs(step, math.pi / 4.0)


def apply_element_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                         element: FourierGroupElement) -> np.ndarray:
    """Coefficient-space action of D(chi; psi, theta, phi)."""
    out = ka_coeffs(coeffs, element.phi / 2.0)
    out = gyrate_coeffs(basis, out, element.theta / 2.0)
    out = ka_coeffs(out, element.psi / 2.0)
    return ks_coeffs(out, element.chi / 2.0)


def apply_element(basis: CartesianBasis, image: np.ndarray,
                  element: FourierGroupElement) -> np.ndarray:
    """Apply a general group element to an image (analyze, act, synthesize)."""
    coeffs = basis.analyze(image)
    return basis.synthesize(apply_element_coeffs(basis, coeffs, element))


def rotate_image(basis: CartesianBasis, image: np.ndarray,
                 theta: float) -> np.ndarray:
    """Unitary rotation of an image by theta."""
    return basis.synthesize(rotate_coeffs(basis, basis.analyze(image), theta))


def gyrate_image(basis: CartesianBasis, image: np.ndarray,
                 gamma: float) -> np.ndarray:
    """Unitary gyration of an image by gamma."""
    return basis.synthesize(gyrate_coeffs(basis, basis.analyze(image), gamma))


def fractional_fourier_image(basis: CartesianBasis, image: np.ndarray,
                             chi: float = 0.0, beta: float = 0.0) -> np.ndarray:
    """Symmetric (chi) and antisymmetric (beta) fractional Fourier transform."""
    coeffs = basis.analyze(image)
    return basis.synthesize(ka_coeffs(ks_coeffs(coeffs, chi), beta))
