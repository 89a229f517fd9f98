"""Unitary Fourier-group action on mode coefficients and images.

All transforms act on coefficient arrays indexed (n_x, n_y); image-level
entry points are thin analyze/transform/synthesize wrappers.  Rotations and
gyrations act block-diagonally on the total-mode levels and never move
amplitude between levels: the levels that share a spin are projected onto
that spin's cached J_y eigenbasis, multiplied by the eigen-phases
exp(-i beta mu) and projected back.  The fractional Fourier transforms are
pure mode-number phases.

Operator composition is written right-to-left: ``A o B`` means B acts
first.  The general group element

    D(chi; psi, theta, phi; omega) = exp(-i c (omega - (psi + phi)/2))
                                     K_S(chi/2) K_A(psi/2) G(theta/2) K_A(phi/2)

is applied in one pass: its diagonal factors fold into one phase before
and one after the eigenbasis mix of the gyration.  ``c`` is the per-level
integer ``CartesianBasis.c``; the leading phase is 1 for a plain element,
whose omega is (psi + phi)/2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .group_algebra import FourierGroupElement
from .mode_basis import CartesianBasis
from .special_functions import _finite_angle, _jy_eigenvectors

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


def _mode_phases(shape, a: float, b: float) -> np.ndarray:
    """exp(-i a n_x) * exp(-i b n_y) on an (N_x, N_y) grid, built as the
    outer product of two 1-D exponentials.  Both angles zero give exact
    ones."""
    return np.outer(np.exp(-1j * a * np.arange(shape[0])),
                    np.exp(-1j * b * np.arange(shape[1])))


def _spin_mix(basis: CartesianBasis, coeffs: np.ndarray,
              beta: float) -> np.ndarray:
    """Mix every level by d^{lambda(n)}(beta), in each spin's J_y eigenbasis.

    For the stacked levels x of a spin, ``x d^T`` is computed as
    ``conj(conj(x) W) * exp(-i beta mu) @ W^T`` with the cached eigenvectors
    W, so no dense little-d block is formed.  One ``exp`` vector over the
    doubled projections of the largest spin serves every spin as a strided
    slice.  The operator is real, so real input gives the real part, and
    ``beta == 0`` returns an exact copy.
    """
    out = coeffs.astype(np.result_type(coeffs.dtype, np.float64))
    if beta == 0.0:
        return out
    real = not np.iscomplexobj(out)
    top = basis.spin_groups[-1][0]
    phases = np.exp(-0.5j * beta * np.arange(-top, top + 1))
    for two_l, nx, ny in basis.spin_groups:
        W = _jy_eigenvectors(two_l)
        eig = np.conj(np.conj(coeffs[nx, ny]) @ W)
        eig *= phases[top - two_l:top + two_l + 1:2]
        mixed = eig @ W.T
        out[nx, ny] = mixed.real if real else mixed
    return out


def rotate_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                  theta: float) -> np.ndarray:
    """Rotation by theta: each level-n block is mixed by the real orthogonal
    little-d matrix d^{lambda(n)}(2*theta) in the level's mu ordering.

    The coefficients of each spin are projected onto its cached J_y
    eigenbasis, multiplied by the eigen-phases and projected back; see
    ``_spin_mix``.  Real input stays exactly real, the Euclidean norm is
    preserved, levels do not mix, and theta = 0 is an exact identity.
    """
    coeffs = basis.check_image(coeffs)
    return _spin_mix(basis, coeffs, 2.0 * _finite_angle(theta))


def _checked_coeffs(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2:
        raise DimensionError(f"coefficients must be 2-D, got shape {coeffs.shape}")
    return coeffs


def ks_coeffs(coeffs: np.ndarray, chi: float) -> np.ndarray:
    """Symmetric fractional Fourier transform: phases exp(-i chi (n_x+n_y)).

    Diagonal in the mode basis, hence it commutes with every transform in
    the group.
    """
    coeffs = _checked_coeffs(coeffs)
    chi = _finite_angle(chi)
    return coeffs * _mode_phases(coeffs.shape, chi, chi)


def ka_coeffs(coeffs: np.ndarray, beta: float) -> np.ndarray:
    """Antisymmetric fractional Fourier transform: phases exp(-i beta (n_x-n_y))."""
    coeffs = _checked_coeffs(coeffs)
    beta = _finite_angle(beta)
    return coeffs * _mode_phases(coeffs.shape, beta, -beta)


def gyrate_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                  gamma: float) -> np.ndarray:
    """Gyration by gamma, applied directly as the per-level sandwich

        exp(-i pi (n_x-n_y)/4) . d^{lambda(n)}(2*gamma) . exp(+i pi (n'_x-n'_y)/4)

    which agrees with conjugating a rotation by the antisymmetric Fourier
    transform at +-pi/4 (see ``gyrate_coeffs_sandwich``).  The middle
    factor is applied in each spin's J_y eigenbasis, as in
    ``rotate_coeffs``; gamma = 0 is an exact identity.
    """
    coeffs = basis.check_image(coeffs)
    angle = 2.0 * _finite_angle(gamma)
    # Without the quarter phases at gamma = 0 the identity is exact.
    quarter = math.pi / 4.0 if angle else 0.0
    out = _spin_mix(basis, _mode_phases(coeffs.shape, -quarter, quarter)
                    * coeffs, angle)
    out *= _mode_phases(coeffs.shape, quarter, -quarter)
    return out


def gyrate_coeffs_sandwich(basis: CartesianBasis, coeffs: np.ndarray,
                           gamma: float) -> np.ndarray:
    """Gyration composed from its definition: K_A(pi/4) R(gamma) K_A(-pi/4),
    rightmost factor first.  Numerically cross-checks ``gyrate_coeffs``."""
    step = ka_coeffs(coeffs, -math.pi / 4.0)
    step = rotate_coeffs(basis, step, float(gamma))
    return ka_coeffs(step, math.pi / 4.0)


def apply_element_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                         element: FourierGroupElement) -> np.ndarray:
    """Coefficient-space action of D(chi; psi, theta, phi; omega) in one pass.

    The diagonal factors fold into one pre-multiplier, K_A(phi/2) and the
    gyration's exp(+i pi (n_x-n_y)/4), and one post-multiplier, the
    conjugate gyration phase, K_A(psi/2), K_S(chi/2) and the omega phase
    exp(-i c (omega - (psi + phi)/2)).  Between them the levels are mixed by
    d^lambda(theta) in each spin's J_y eigenbasis (skipped at theta = 0).
    """
    coeffs = basis.check_image(coeffs)
    # At theta = 0 the gyration's quarter phases cancel; without them the
    # identity element is an exact identity.
    quarter = math.pi / 4.0 if element.theta else 0.0
    half_chi, half_psi, half_phi = (0.5 * element.chi, 0.5 * element.psi,
                                    0.5 * element.phi)
    pre = _mode_phases(coeffs.shape, half_phi - quarter, quarter - half_phi)
    post = _mode_phases(coeffs.shape, half_chi + half_psi + quarter,
                        half_chi - half_psi - quarter)
    shift = element.omega - element.default_omega
    if shift:
        post *= np.exp(-1j * shift * basis.c)
    out = _spin_mix(basis, pre * coeffs, element.theta)
    out *= post
    return out


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
