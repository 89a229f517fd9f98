"""Unitary Fourier-group action on mode coefficients and images.

All transforms act on coefficient arrays indexed (n_x, n_y); image-level
entry points are thin analyze/transform/synthesize wrappers.  Operator
composition is written right-to-left: ``A o B`` means B acts first.  The
general group element

    D(chi; psi, theta, phi; omega) = exp(-i c (omega - (psi + phi)/2))
                                     K_S(chi/2) K_A(psi/2) G(theta/2) K_A(phi/2)

is applied by ``apply_element_coeffs``; it, ``rotate_coeffs`` and
``gyrate_coeffs`` share one private action, which mixes levels only
through ``CartesianBasis._mix``.  ``c`` is the per-level integer
``CartesianBasis.level_c``; the leading phase is 1 for a plain element,
whose omega is (psi + phi)/2.  Rotation by theta is the element
D(0; -pi/2, 2 theta, pi/2) and gyration by gamma is D(0; 0, 2 gamma, 0);
both act block-diagonally on the total-mode levels and never mix them.
The fractional Fourier transforms K_S and K_A are pure mode-number phases.
Angles are checked once and reduced into (-4 pi, 4 pi) before use.

Every diagonal factor of an element is an n_y phase or a phase of the
levels n = n_x + n_y, and every action takes all its phases from one
``exp``: an element's from ``CartesianBasis._phases``, the ``exp`` of the
basis' complex table ``ramps`` (i times each phase's integer ramp) times
the angles, while a rotation's n_y phases are the exact frozen
``CartesianBasis.quarter_turns``.  K_S and K_A are each one phase of one
diagonal index, n_x + n_y and n_x - n_y: ``_fourier_phases`` takes it from
one ``exp`` over that index and multiplies once by a strided view of it
(``_level_grid``), the view through which a level phase also multiplies
an element's output in place.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .group_algebra import FourierGroupElement, _element
from .mode_basis import CartesianBasis, _finite
from .special_functions import _finite_angle, _reduced

__all__ = [
    "analyze",
    "synthesize",
    "rotate_coeffs",
    "ks_coeffs",
    "ka_coeffs",
    "gyrate_coeffs",
    "apply_element_coeffs",
    "apply_element",
    "rotate_image",
    "gyrate_image",
    "fractional_fourier_image",
]

# psi and phi of a rotation's element D(0; -pi/2, 2 theta, pi/2).
_HALF_PI = 0.5 * np.pi


def analyze(basis: CartesianBasis, image: np.ndarray) -> np.ndarray:
    """Mode coefficients F_{n_x,n_y} = sum_q F(q) Psi_{n_x,n_y}(q)."""
    return basis.analyze(image)


def synthesize(basis: CartesianBasis, coeffs: np.ndarray) -> np.ndarray:
    """Image F(q) = sum_n F_{n_x,n_y} Psi_{n_x,n_y}(q)."""
    return basis.synthesize(coeffs)


def _level_grid(phases: np.ndarray, shape: tuple[int, int],
                sign: int = 1) -> np.ndarray:
    """``phases`` of the diagonals d = n_x + sign n_y, sign 1 or -1, read
    as a grid of ``shape`` through strides (step, sign step), so no
    full-grid phase is formed.  Entry k holds d = k for the levels
    n = n_x + n_y and d = k + 1 - N_y for n_x - n_y, which starts there."""
    step = phases.strides[0]
    offset = max(shape[1] - 1, 0) * step if sign < 0 else 0
    return np.ndarray(shape, phases.dtype, phases, offset, (step, sign * step))


def rotate_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                  theta: float) -> np.ndarray:
    """Rotation by theta, the group element D(0; -pi/2, 2 theta, pi/2).

    Each level-n block is mixed by the real orthogonal little-d matrix
    d^{lambda(n)}(2*theta) in the level's mu ordering: its only diagonal
    phases are the i^(n_y) and i^(-n_y) around the J_y eigenbasis, and it
    has no level phase.  Real input stays exactly real, the Euclidean norm
    is preserved, levels do not mix, and theta = 0 is an exact identity.
    theta is checked once; 2 theta of the reduced angle is finite and is
    reduced again.
    """
    return _act(basis, coeffs, 0.0, -_HALF_PI,
                _reduced(2.0 * _finite_angle(theta)), _HALF_PI, 0.0)


def _fourier_phases(coeffs: np.ndarray, angle: float,
                    sign: int) -> np.ndarray:
    """K_S (sign 1) and K_A (sign -1): ``coeffs``, 2-D and finite as
    ``check_image`` requires, times exp(i angle (n_x + sign n_y)), one
    ``exp`` over the diagonals of the array's own shape, multiplied once
    through ``_level_grid``.  A zero angle gives an exact copy (float64 for
    real input)."""
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2:
        raise DimensionError(f"coefficients must be 2-D, got shape {coeffs.shape}")
    coeffs = _finite(coeffs)
    if not angle:
        return coeffs.astype(np.result_type(coeffs, np.float64))
    low = 0 if sign > 0 else 1 - coeffs.shape[1]
    phases = np.exp(1j * angle * np.arange(low, low + sum(coeffs.shape) - 1))
    return coeffs * _level_grid(phases, coeffs.shape, sign)


def ks_coeffs(coeffs: np.ndarray, chi: float) -> np.ndarray:
    """Symmetric fractional Fourier transform: phases exp(-i chi (n_x+n_y)).

    A level phase, one ``exp`` and one multiply by a vector over the
    levels n = n_x + n_y, which needs only the coefficients' shape.
    Diagonal in the mode basis, hence it commutes with every transform in
    the group.
    """
    return _fourier_phases(coeffs, -_finite_angle(chi), 1)


def ka_coeffs(coeffs: np.ndarray, beta: float) -> np.ndarray:
    """Antisymmetric fractional Fourier transform: phases exp(-i beta (n_x-n_y)),
    one ``exp`` and one multiply by a vector over the diagonals n_x - n_y."""
    return _fourier_phases(coeffs, -_finite_angle(beta), -1)


def gyrate_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                  gamma: float) -> np.ndarray:
    """Gyration by gamma, the group element D(0; 0, 2 gamma, 0).

    On each level this is the sandwich

        exp(-i pi (n_x-n_y)/4) . d^{lambda(n)}(2*gamma) . exp(+i pi (n'_x-n'_y)/4)

    which agrees with conjugating a rotation by the antisymmetric Fourier
    transform at +-pi/4, K_A(pi/4) R(gamma) K_A(-pi/4): ``fkimage verify``
    and the tests check the two against each other.  Written with the
    J_y eigenbasis it has no diagonal phase at all.  gamma = 0 is an exact
    identity.
    """
    return _act(basis, coeffs, 0.0, 0.0,
                _reduced(2.0 * _finite_angle(gamma)), 0.0, 0.0)


def _act(basis: CartesianBasis, coeffs: np.ndarray, chi: float, psi: float,
         theta: float, phi: float, shift: float) -> np.ndarray:
    """D(chi; psi, theta, phi; omega) on coefficients, the angles already
    reduced and ``shift = omega - (psi + phi)/2``; see
    ``apply_element_coeffs``.  Its phases are slices of one ``exp``
    (``_phases``), but a rotation's element, psi = -pi/2 and phi = pi/2,
    takes its n_y phases from the exact ``quarter_turns``, full grids, so
    its pre- and post-phase run elementwise.  At theta = 0 nothing is
    mixed: the n_y phase, if any, multiplies the input into a new array.
    After the mix, or that phase, the post-phase and any level phase
    multiply the array in place."""
    coeffs = basis.check_image(coeffs)
    # Correctly rounded, so odd under negation: the level phase of
    # inverse(e) is the exact conjugate of e's.
    level = 0.5 * math.fsum((chi, psi, phi))
    rotation = psi == -_HALF_PI and phi == _HALF_PI
    if theta == 0.0:
        pre, post, levels, _ = basis._phases(0.0, level, shift, psi + phi)
        if pre is None and levels is None:
            return coeffs.astype(np.result_type(coeffs, np.float64))
        if pre is None:
            return coeffs * _level_grid(levels, coeffs.shape)
        out = coeffs * pre
    else:
        if rotation:
            pre, post = basis.quarter_turns
            levels, eigen = basis._phases(theta, level, shift)[2:]
        else:
            pre, post, levels, eigen = basis._phases(theta, level, shift,
                                                     phi, psi)
        out = basis._mix(coeffs, eigen, pre)
    if post is not None:
        out *= post
    if levels is not None:
        out *= _level_grid(levels, out.shape)
    if rotation and levels is None and not np.iscomplexobj(coeffs):
        return out.real.copy()
    return out


def apply_element_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                         element: FourierGroupElement) -> np.ndarray:
    """Coefficient-space action of D(chi; psi, theta, phi; omega) in one pass.

    ``element`` must be a ``FourierGroupElement`` (``ValidationError``
    otherwise), whose constructor has already checked its angles, so each
    is only reduced into (-4 pi, 4 pi); rotations and gyrations take the
    same private action.  On level n the element is the Wigner
    D^lambda(psi, theta, phi) between constant phases, and since
    n_x = n - n_y every diagonal factor is an n_y phase times a constant on
    the level, which commutes with the level's mix:

        L(n) . exp(i psi n_y) . Mix(theta) . exp(i phi n_y),
        L(n) = exp(-i n (chi + psi + phi)/2) exp(-i c (omega - (psi + phi)/2)),

    with ``c`` = ``CartesianBasis.level_c``.  These phases and the
    eigen-phases of the mix are slices of one ``exp`` (``_phases``); a
    phase exactly one is not multiplied, so a gyration has only its
    eigen-phases and a rotation adds its frozen ``quarter_turns``,
    i^(+-n_y) over the whole screen, each entry exactly 1, i, -1 or -i.
    The pre-phase multiplies inside the mix, the post-phase after it, in
    place.  Mix(theta) projects each
    spin's levels onto its J_y eigenbasis ``diag(i^-k) V``, multiplies by
    exp(-i theta mu) and projects back.  Member k of a level has
    n_y = k + (its lowest n_y), so ``i^k`` and ``i^(n_y)`` differ by a
    constant per level, which cancels, as do the quarter-turn phases of the
    gyration's sandwich: only the real table ``V = d^lambda(pi/2)`` is left.

    At theta = 0 nothing is mixed and the element is the n_y phase
    exp(i (psi + phi) n_y) and the level phase, each multiplied once, so
    the identity gives an exact copy.  Real input gives real output where
    the action is real: at theta = 0 with every phase one, and for a
    rotation's element D(0; -pi/2, theta, pi/2), which returns the real
    part of its buffer.
    """
    _element(element)
    return _act(basis, coeffs, _reduced(element.chi), _reduced(element.psi),
                _reduced(element.theta), _reduced(element.phi),
                element.omega - element.default_omega)


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
