"""Seeded draws and independent references shared by ``fkimage verify``
and the tests; only ``verify`` and the tests import this module."""

from __future__ import annotations

import math

import numpy as np

from .fourier_transforms import ka_coeffs, rotate_coeffs
from .group_algebra import FourierGroupElement
from .special_functions import _ladder, _reduced


def random_image(rng, basis) -> np.ndarray:
    """Complex Gaussian image on the basis' screen."""
    return (rng.standard_normal(basis.shape.pixels)
            + 1j * rng.standard_normal(basis.shape.pixels))


def random_element(rng) -> FourierGroupElement:
    """Plain group element with angles drawn from the canonical ranges."""
    return FourierGroupElement(chi=rng.uniform(0.0, 4.0 * math.pi),
                               psi=rng.uniform(0.0, 2.0 * math.pi),
                               theta=rng.uniform(0.0, math.pi),
                               phi=rng.uniform(0.0, 2.0 * math.pi))


def wide_element(rng) -> FourierGroupElement:
    """All five angles from (-20, 20), far outside the canonical ranges,
    so that a dropped or mistracked omega shows."""
    return FourierGroupElement(*rng.uniform(-20.0, 20.0, 5))


def interval_levels(two_jx, two_jy, n):
    """{(n_x, n_y): (2 lambda, 2 mu)} on level n from the interval formulas
    written out separately, in either orientation: lower triangle
    lambda = n/2, upper triangle lambda = j_x + j_y - n/2, and on the mid
    rhomboid lambda = j_min with mu counted from the shorter axis."""
    lo, hi = min(two_jx, two_jy), max(two_jx, two_jy)
    out = {}
    if n <= lo:                      # lower triangle
        for ny in range(0, n + 1):
            out[(n - ny, ny)] = (n, (n - 2 * ny))
    elif n >= hi:                    # upper triangle
        for ny in range(n - two_jx, two_jy + 1):
            out[(n - ny, ny)] = (two_jx + two_jy - n,
                                 (n - 2 * ny) - two_jx + two_jy)
    else:                            # mid rhomboid
        if two_jx >= two_jy:
            for ny in range(0, two_jy + 1):
                out[(n - ny, ny)] = (two_jy, two_jy - 2 * ny)
        else:
            for ny in range(n - two_jx, n + 1):
                out[(n - ny, ny)] = (two_jx, 2 * (n - ny) - two_jx)
    return out


def level_action(basis, coeffs, element: FourierGroupElement) -> np.ndarray:
    """D(chi; psi, theta, phi; omega) on coefficients, assembled level by
    level from dense little-d blocks and full-grid phases, with ``c`` from
    each level's members and projections (``level_arrays``).  Rotation by
    theta is D(0; -pi/2, 2 theta, pi/2); gyration is D(0; 0, 2 gamma, 0).
    ``level_arrays`` and ``CartesianBasis.level_c`` read the same n_y range
    (``mode_basis._ny_bounds``), so this reference checks the mix and the
    phases, not the layout: ``interval_levels`` is the independent oracle
    for the layout.

    The blocks are the rungs of one ladder walk at theta, which the levels
    of each spin read in turn, not the basis' tables; rung 2*lambda is
    ``wigner_little_d(lambda, theta)`` bit for bit, an exact identity at a
    theta that reduces to zero.
    """
    e = element
    n_x, n_y = np.indices(coeffs.shape)
    quarter = np.exp(1j * math.pi * (n_x - n_y) / 4)
    x = quarter * np.exp(-0.5j * e.phi * (n_x - n_y)) * coeffs
    act = np.empty_like(x)
    c = np.empty(coeffs.shape)
    spins = {}
    for n in range(basis.shape.max_total_mode + 1):
        lev, nx, ny = basis.level_arrays(n)
        spins.setdefault(lev.spin.two_j, []).append((nx, ny))
        c[nx, ny] = nx - ny - np.asarray(lev.two_mu)
    theta, top = _reduced(e.theta), len(spins) - 1
    rungs = (_ladder(top, theta) if theta
             else (np.eye(two_l + 1) for two_l in range(top + 1)))
    for two_l, d in enumerate(rungs):
        for nx, ny in spins[two_l]:
            act[nx, ny] = d @ x[nx, ny]
    act *= np.conj(quarter) * np.exp(-0.5j * e.psi * (n_x - n_y)
                                     - 0.5j * e.chi * (n_x + n_y))
    return act * np.exp(-1j * (e.omega - e.default_omega) * c)


def gyrate_coeffs_sandwich(basis, coeffs: np.ndarray,
                           gamma: float) -> np.ndarray:
    """Gyration composed from its definition: K_A(pi/4) R(gamma) K_A(-pi/4),
    rightmost factor first.  Numerically cross-checks ``gyrate_coeffs``."""
    step = ka_coeffs(coeffs, -math.pi / 4.0)
    step = rotate_coeffs(basis, step, float(gamma))
    return ka_coeffs(step, math.pi / 4.0)
