"""Unitary Fourier-group action on mode coefficients and images.

All transforms act on coefficient arrays indexed (n_x, n_y); image-level
entry points are thin analyze/transform/synthesize wrappers.  Operator
composition is written right-to-left: ``A o B`` means B acts first.  The
general group element

    D(chi; psi, theta, phi; omega) = exp(-i c (omega - (psi + phi)/2))
                                     K_S(chi/2) K_A(psi/2) G(theta/2) K_A(phi/2)

is applied by ``apply_element_coeffs``, the only code that mixes levels.
``c`` is the per-level integer ``CartesianBasis.c``; the leading phase is 1
for a plain element, whose omega is (psi + phi)/2.  Rotation by theta is
the element D(0; -pi/2, 2 theta, pi/2) and gyration by gamma is
D(0; 0, 2 gamma, 0); both act block-diagonally on the total-mode levels
and never move amplitude between levels.  The fractional Fourier
transforms K_S and K_A are pure mode-number phases.  Angles are reduced
into (-4 pi, 4 pi) before use.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def _mode_phases(coeffs: np.ndarray, a: float, b: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``coeffs`` times exp(-i a n_x) exp(-i b n_y), written to ``out``,
    which may be ``coeffs`` itself, or to a new array.

    The phase is applied as two broadcast multiplies by 1-D exponentials
    over n_x and n_y, so no full-grid phase array is formed.  A zero
    angle's factor is exactly one and never touches the array, so both
    angles zero give an exact copy (float64 for real input).
    """
    if out is None:
        kind = np.float64 if a == 0.0 and b == 0.0 else np.complex128
        out = np.empty(coeffs.shape, np.result_type(coeffs, kind))
    if a != 0.0:
        np.multiply(coeffs, np.exp(-1j * a * np.arange(coeffs.shape[0]))[:, None],
                    out=out)
    elif out is not coeffs:
        out[...] = coeffs
    if b != 0.0:
        out *= np.exp(-1j * b * np.arange(coeffs.shape[1]))
    return out


def _level_phases(basis: CartesianBasis, out: np.ndarray,
                  shift: float) -> np.ndarray:
    """Multiply ``out`` in place by the omega phase exp(-i shift c).

    ``c`` is constant on each level n = n_x + n_y, so one vector of phases
    over the levels serves the whole grid: read with equal strides along
    both axes, its (N_x, N_y) view holds the phase of level n_x + n_y at
    [n_x, n_y], and no full-grid phase array is formed.
    """
    c = basis.c
    per_level = np.exp(-1j * shift * np.concatenate((c[:, 0], c[-1, 1:])))
    step = per_level.strides[0]
    out *= as_strided(per_level, c.shape, (step, step), writeable=False)
    return out


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
    return _mode_phases(coeffs, chi, chi)


def ka_coeffs(coeffs: np.ndarray, beta: float) -> np.ndarray:
    """Antisymmetric fractional Fourier transform: phases exp(-i beta (n_x-n_y))."""
    coeffs = _checked_coeffs(coeffs)
    beta = _finite_angle(beta)
    return _mode_phases(coeffs, beta, -beta)


def gyrate_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                  gamma: float) -> np.ndarray:
    """Gyration by gamma, the group element D(0; 0, 2 gamma, 0).

    On each level this is the sandwich

        exp(-i pi (n_x-n_y)/4) . d^{lambda(n)}(2*gamma) . exp(+i pi (n'_x-n'_y)/4)

    which agrees with conjugating a rotation by the antisymmetric Fourier
    transform at +-pi/4, K_A(pi/4) R(gamma) K_A(-pi/4): ``fkimage verify``
    and the tests check the two against each other.  gamma = 0 is an exact
    identity.
    """
    return apply_element_coeffs(basis, coeffs, FourierGroupElement(
        0.0, 0.0, 2.0 * _finite_angle(gamma), 0.0))


def _mixed(basis: CartesianBasis, coeffs: np.ndarray, theta: float,
           a: float, b: float) -> np.ndarray:
    """``coeffs`` times the pre-phase exp(-i a n_x) exp(-i b n_y), each
    spin's levels then mixed in its J_y eigenbasis by the eigen-phases
    exp(-i theta mu), as a new complex array (see ``apply_element_coeffs``).

    The pre-phase is written straight into the gather source, whose one
    slot past the last mode holds the zero that the padding rows gather.
    The source goes before the scatter allocates the output, and the
    gathered buffer on return, so no more than two full-size arrays are
    alive at once.
    """
    src = np.empty(coeffs.size + 1, dtype=np.complex128)
    src[-1] = 0.0
    _mode_phases(coeffs, a, b, src[:-1].reshape(coeffs.shape))
    buf = src[basis.gather]
    del src
    top = len(basis.quarter_turns) - 1
    phases = np.exp(-0.5j * theta * np.arange(-top, top + 1))
    for start, stop, stack, two_mu in basis.batches:
        x = buf[start:stop].view(np.float64).reshape(*stack.shape[:2], -1)
        eig = np.matmul(stack.transpose(0, 2, 1), x).view(np.complex128)
        eig *= phases[top + two_mu]
        np.matmul(stack, eig.view(np.float64), out=x)
    return buf[basis.scatter].reshape(coeffs.shape)


def apply_element_coeffs(basis: CartesianBasis, coeffs: np.ndarray,
                         element: FourierGroupElement) -> np.ndarray:
    """Coefficient-space action of D(chi; psi, theta, phi; omega) in one pass.

    The only code that mixes levels; rotations and gyrations are elements
    applied here.  Each angle is first reduced into (-4 pi, 4 pi).  The
    diagonal factors fold into one pre-phase, K_A(phi/2) and the
    gyration's exp(+i pi (n_x-n_y)/4), and one post-phase, the conjugate
    gyration phase, K_A(psi/2), K_S(chi/2) and the omega phase
    exp(-i c (omega - (psi + phi)/2)).  Between them the levels of each
    spin are projected onto its J_y eigenbasis ``diag(i^-k) V``, multiplied
    by the eigen-phases exp(-i theta mu) and projected back.  Member k of a
    level has n_y = k + (the level's lowest n_y), so ``i^k`` differs from
    ``i^(n_y)`` by a constant per level, which cancels between projection
    and back-projection: ``i^(n_y)`` joins the pre-phase and ``i^(-n_y)``
    the post-phase, and only the real quarter-turn table
    ``V = basis.quarter_turns[2 lambda]`` is left.  The pre-phased
    coefficients are gathered once into the layout of ``basis.batches``:
    each batch of spins is a ``(spins, k_max, levels)`` block beside a
    stack of the spins' tables, zero-padded to ``k_max``.  The block's
    real and imaginary parts are mixed together by two stacked real
    matrix products, ``V^T`` and then ``V`` for every spin of the batch
    at once, in place, and one scatter puts the buffer back; the zero
    padding adds nothing to the sums.  One ``exp`` vector over the doubled
    J_y eigenvalues of the largest spin serves every batch through an
    index.

    No phase is formed on the full grid (see ``_mixed``, ``_mode_phases``
    and ``_level_phases``), so an op allocates three full-size arrays and
    holds at most two at once.  Full-size temporaries cost more than their
    arithmetic: a complex grid on (64,48) is 200 KB, above the C
    allocator's 128 KiB mmap threshold, so its pages can fault afresh on
    every op.

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
        a, b = 0.5 * (chi + psi + phi), 0.5 * (chi - psi - phi)
        if not shift:
            return _mode_phases(coeffs, a, b)
        out = np.empty(coeffs.shape, np.result_type(coeffs, np.complex128))
        return _level_phases(basis, _mode_phases(coeffs, a, b, out), shift)
    quarter = 0.25 * math.pi
    # Unfolded, both phases are one exactly when the action is real.
    real = (0.5 * phi == quarter and 0.5 * (chi + psi) == -quarter
            and 0.5 * (chi - psi) == quarter and not shift
            and not np.iscomplexobj(coeffs))
    # The gyration's quarter-turn phases with i^(n_y) folded in: the n_y
    # angles are pi/2 past the unfolded pi/4 - phi/2 and (chi - psi)/2 - pi/4.
    out = _mixed(basis, coeffs, theta, 0.5 * phi - quarter,
                 -0.5 * phi - quarter)
    _mode_phases(out, 0.5 * (chi + psi) + quarter, 0.5 * (chi - psi) + quarter,
                 out)
    if shift:
        _level_phases(basis, out, shift)
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
