"""Independent reference implementations used only by the tests; the
seeded draws and the references that ``fkimage verify`` shares live in
``fkimage._reference``.

Each oracle takes a different computational route from the production code:
Kravchuk values come from exact rational Pochhammer ratios, little-d
matrices come from the dense matrix exponential of J_y, and the group
algebra's 2x2 matrices are products and decompositions of numpy arrays.
``check_split_quarter_turns`` reads a basis' mixing tables against the
little-d ladder itself.
"""

import cmath
import math
from fractions import Fraction
from math import comb

import numpy as np
from scipy.linalg import expm

from fkimage import FourierGroupElement
from fkimage.special_functions import _ladder


def kravchuk_fraction(n, s, two_j):
    """2F1(-n, -s; -2j; 2) as an exact Fraction via term ratios."""
    total = Fraction(0)
    term = Fraction(1)
    for k in range(min(n, s) + 1):
        if k > 0:
            term *= Fraction((-n + k - 1) * (-s + k - 1) * 2, (-two_j + k - 1) * k)
        total += term
    return total


def psi_reference(two_j, n, two_q):
    """Kravchuk function from the exact polynomial and a rational prefactor."""
    jq = (two_j + two_q) // 2
    kval = kravchuk_fraction(n, jq, two_j)
    pref = math.sqrt(comb(two_j, n) * comb(two_j, jq) / 2.0 ** two_j)
    return (-1) ** n * pref * float(kval)


def little_d_expm(two_l, beta):
    """exp(-i beta J_y) via scipy.linalg.expm, descending-mu layout."""
    dim = two_l + 1
    lam = two_l / 2.0
    jy = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        m = lam - i
        lower = math.sqrt((lam + m) * (lam - m + 1.0))
        jy[i + 1, i] = 1j * lower / 2.0
        jy[i, i + 1] = -1j * lower / 2.0
    d = expm(-1j * beta * jy)
    assert np.max(np.abs(d.imag)) < 1e-11
    return d.real


def check_split_quarter_turns(basis):
    """Assert that every batch of ``basis`` stacks the even-column and
    odd-column halves ``d[:ceil(k/2), 0::2]`` and ``d[:floor(k/2), 1::2]``
    of its spins' quarter-turn rungs ``d = d^lambda(pi/2)`` bit for bit,
    zero-padded, and that its phase index holds ``2j_min + 2 mu`` of each
    half's columns and ``2j_min`` on the padding.  Returns the spins'
    counts per batch."""
    two_jmin = min(basis.shape.j_x.two_j, basis.shape.j_y.two_j)
    rungs = list(_ladder(two_jmin, math.pi / 2))
    spins, counts, stop = iter(range(two_jmin + 1)), [], 0
    for start, stop_b, stack, index in basis.batches:
        assert start == stop
        stop = stop_b
        assert stack.dtype == np.float64 and not stack.flags.writeable
        assert index.dtype == np.intp and not index.flags.writeable
        count, rows = stack.shape[1:3]
        assert stack.shape == (2, count, rows, rows)
        assert index.shape[:3] == (2, count, rows)
        assert stop - start == index.size // 2
        for i in range(count):
            two_l = next(spins)
            d = rungs[two_l]
            for half in (0, 1):
                valid = (two_l + 2 - half) // 2
                block = stack[half, i]
                assert np.array_equal(block[:valid, :valid],
                                      d[:valid, half::2])
                assert not block[valid:].any() and not block[:, valid:].any()
                two_mu = np.zeros(rows, dtype=int)
                two_mu[:valid] = 4 * np.arange(valid) + 2 * half - two_l
                assert np.array_equal(index[half, i], np.repeat(
                    two_jmin + two_mu[:, None], index.shape[3], axis=1))
        # The widest spin of a batch sets its rows.
        assert rows == (two_l + 2) // 2
        counts.append(count)
    assert next(spins, None) is None
    assert 2 * stop == basis.gather.size
    return counts


def element_matrix(element):
    """e^{-i chi/2} Rz(psi) Ry(theta) Rz(phi) as a product of numpy 2x2
    arrays, Rz(alpha) = diag(e^{-i alpha/2}, e^{+i alpha/2})."""
    def rz(alpha):
        return np.diag([cmath.exp(-0.5j * alpha), cmath.exp(0.5j * alpha)])
    c, s = math.cos(element.theta / 2.0), math.sin(element.theta / 2.0)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    return cmath.exp(-0.5j * element.chi) * (rz(element.psi) @ ry
                                             @ rz(element.phi))


def euler_angles(u):
    """Canonical (chi, psi, theta, phi) of a 2x2 unitary numpy array: chi
    from the determinant, theta, psi and phi from the first column of the
    SU(2) part, phi = 0 at the gimbal angles, and chi moved by 2 pi when
    folding psi and phi into [0, 2 pi) flipped the SU(2) sign."""
    two_pi = 2.0 * math.pi
    chi = (-cmath.phase(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])) % two_pi
    su = u * cmath.exp(0.5j * chi)
    a00, a10 = np.abs(su[:, 0])
    theta = 2.0 * math.atan2(a10, a00)
    if a10 < 1e-12:
        theta, phi = 0.0, 0.0
        psi = (-2.0 * cmath.phase(su[0, 0])) % two_pi
    elif a00 < 1e-12:
        theta, phi = math.pi, 0.0
        psi = (2.0 * cmath.phase(su[1, 0])) % two_pi
    else:
        half_sum, half_diff = -cmath.phase(su[0, 0]), cmath.phase(su[1, 0])
        psi, phi = (half_sum + half_diff) % two_pi, (half_sum - half_diff) % two_pi
    if np.max(np.abs(element_matrix(
            FourierGroupElement(chi, psi, theta, phi)) - u)) > 1e-8:
        chi = (chi + two_pi) % (2.0 * two_pi)
    return chi, psi, theta, phi
