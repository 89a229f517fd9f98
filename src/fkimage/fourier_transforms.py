"""Unitary Fourier-group action on mode coefficients and images.

All transforms act on coefficient arrays indexed (n_x, n_y); image-level
entry points are thin analyze/transform/synthesize wrappers.  Operator
composition is written right-to-left: ``A o B`` means B acts first.  The
general group element

    D(chi; psi, theta, phi; omega) = exp(-i c (omega - (psi + phi)/2))
                                     K_S(chi/2) K_A(psi/2) G(theta/2) K_A(phi/2)

is applied by ``apply_element_coeffs``, the only code that mixes levels:
its diagonal factors fold into one phase before and one after a mix of the
levels in each spin's J_y eigenbasis ``diag(i^-k) d^lambda(pi/2)``.  The
``i^-k`` fold into those two phases, as ``i^(n_y)`` before and
``i^(-n_y)`` after, so the mix itself reads only the basis' real
quarter-turn tables: the levels are gathered once into the basis' batched
layout, each batch of spins is mixed by two stacked real matrix products,
and one scatter restores the (n_x, n_y) layout.  ``c`` is the per-level
integer ``CartesianBasis.c``; the leading phase is 1 for a plain element,
whose omega is (psi + phi)/2.  Rotation by theta is the element
D(0; -pi/2, 2 theta, pi/2) and gyration by gamma is D(0; 0, 2 gamma, 0);
both act block-diagonally on the total-mode levels and never move
amplitude between levels.  The fractional Fourier transforms K_S and K_A
are pure mode-number phases.  Angles are reduced into (-4 pi, 4 pi)
before use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .group_algebra import FourierGroupElement
from .mode_basis import CartesianBasis
from .special_functions import _finite_angle

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


def _mode_phases(shape, a: float, b: float):
    """exp(-i a n_x) * exp(-i b n_y) on an (N_x, N_y) grid, built as the
    outer product of two 1-D exponentials.  Both angles zero give the
    scalar 1.0, which callers never multiply into an array."""
    if a == 0.0 and b == 0.0:
        return 1.0
    return np.outer(np.exp(-1j * a * np.arange(shape[0])),
                    np.exp(-1j * b * np.arange(shape[1])))


def rotate_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                  theta: float) -> np.ndarray:
    """Rotation by theta, the group element D(0; -pi/2, 2 theta, pi/2).

    Each level-n block is mixed by the real orthogonal little-d matrix
    d^{lambda(n)}(2*theta) in the level's mu ordering: the quarter-turn
    phases of psi and phi cancel those of the gyration, so both diagonal
    phases of ``apply_element_coeffs`` are exactly one.  Real input stays
    exactly real, the Euclidean norm is preserved, levels do not mix, and
    theta = 0 is an exact identity.
    """
    return apply_element_coeffs(basis, coeffs, FourierGroupElement(
        0.0, -0.5 * math.pi, 2.0 * _finite_angle(theta), 0.5 * math.pi))


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
    """Gyration by gamma, the group element D(0; 0, 2 gamma, 0).

    On each level this is the sandwich

        exp(-i pi (n_x-n_y)/4) . d^{lambda(n)}(2*gamma) . exp(+i pi (n'_x-n'_y)/4)

    which agrees with conjugating a rotation by the antisymmetric Fourier
    transform at +-pi/4 (see ``gyrate_coeffs_sandwich``); gamma = 0 is an
    exact identity.
    """
    return apply_element_coeffs(basis, coeffs, FourierGroupElement(
        0.0, 0.0, 2.0 * _finite_angle(gamma), 0.0))


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

    The only code that mixes levels; rotations and gyrations are elements
    applied here.  Each angle is first reduced into (-4 pi, 4 pi).  The
    diagonal factors fold into one pre-multiplier, K_A(phi/2) and the
    gyration's exp(+i pi (n_x-n_y)/4), and one post-multiplier, the
    conjugate gyration phase, K_A(psi/2), K_S(chi/2) and the omega phase
    exp(-i c (omega - (psi + phi)/2)).  Between them the levels of each
    spin are projected onto its J_y eigenbasis ``diag(i^-k) V``, multiplied
    by the eigen-phases exp(-i theta mu) and projected back.  Member k of a
    level has n_y = k + (the level's lowest n_y), so ``i^k`` differs from
    ``i^(n_y)`` by a constant per level, which cancels between projection
    and back-projection: ``i^(n_y)`` joins the pre-multiplier and
    ``i^(-n_y)`` the post-multiplier, and only the real quarter-turn table
    ``V = basis.quarter_turns[2 lambda]`` is left.  The pre-multiplied
    coefficients are gathered once into the layout of ``basis.batches``:
    each batch of spins is a ``(spins, k_max, levels)`` block beside a
    stack of the spins' tables, zero-padded to ``k_max``.  The block's
    real and imaginary parts are mixed together by two stacked real
    matrix products, ``V^T`` and then ``V`` for every spin of the batch
    at once, in place, and one scatter puts the buffer back; the zero
    padding adds nothing to the sums.  One ``exp`` vector over the doubled
    J_y eigenvalues of the largest spin serves every batch through an
    index.

    At theta = 0 nothing is mixed and the element is one diagonal multiply,
    K_S(chi/2) K_A((psi + phi)/2) times the omega phase, so the identity
    element gives an exact copy; a phase that is exactly one never touches
    the array.  Real input gives real output wherever the action is real:
    at theta = 0 with both phases one, and for a rotation's element
    D(0; -pi/2, theta, pi/2), where the real part of the mixed buffer is
    returned.
    """
    coeffs = basis.check_image(coeffs)
    chi, psi, theta, phi = map(_finite_angle, (
        element.chi, element.psi, element.theta, element.phi))
    shift = element.omega - element.default_omega
    if theta == 0.0:
        post = _mode_phases(coeffs.shape, 0.5 * (chi + psi + phi),
                            0.5 * (chi - psi - phi))
        if shift:
            post = post * np.exp(-1j * shift * basis.c)
        out = coeffs.astype(np.result_type(coeffs, np.float64, post))
        if isinstance(post, np.ndarray):
            out *= post
        return out
    # The gyration's quarter-turn phases with i^(n_y) folded in: the n_y
    # angles are pi/2 past the unfolded pi/4 - phi/2 and (chi - psi)/2 - pi/4.
    quarter = 0.25 * math.pi
    pre = _mode_phases(coeffs.shape, 0.5 * phi - quarter,
                       -0.5 * phi - quarter)
    post = _mode_phases(coeffs.shape, 0.5 * (chi + psi) + quarter,
                        0.5 * (chi - psi) + quarter)
    # Unfolded, both phases are one exactly when the action is real.
    real = (0.5 * phi == quarter and 0.5 * (chi + psi) == -quarter
            and 0.5 * (chi - psi) == quarter and not shift
            and not np.iscomplexobj(coeffs))
    if shift:
        post = post * np.exp(-1j * shift * basis.c)
    # The buffer's padding rows gather the zero kept past the last mode.
    size = coeffs.size
    src = np.zeros(size + 1, dtype=np.complex128)
    np.multiply(coeffs, pre, out=src[:size].reshape(coeffs.shape))
    buf = src[basis.gather]
    top = len(basis.quarter_turns) - 1
    phases = np.exp(-0.5j * theta * np.arange(-top, top + 1))
    for start, stop, stack, two_mu in basis.batches:
        x = buf[start:stop].view(np.float64).reshape(*stack.shape[:2], -1)
        eig = np.matmul(stack.transpose(0, 2, 1), x).view(np.complex128)
        eig *= phases[top + two_mu]
        np.matmul(stack, eig.view(np.float64), out=x)
    out = buf[basis.scatter].reshape(coeffs.shape)
    if isinstance(post, np.ndarray):
        out *= post
    return out.real.copy() if real else out


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
