"""Independent reference implementations used only by the tests; the
seeded draws and the references that ``fkimage verify`` shares live in
``fkimage._reference``.

Each oracle takes a different computational route from the production code:
Kravchuk values come from exact rational Pochhammer ratios, little-d
matrices come from the dense matrix exponential of J_y, and the group
algebra's 2x2 matrices are products and decompositions of numpy arrays.
``fold_layout`` writes out the fold rule of the mix layout without
``mode_basis``.  ``mode_basis._layout`` is the one owner of that layout, a
pure function of the two spins, and the tests check it against
``fold_layout`` with no basis; ``check_split_quarter_turns`` asserts that a
built basis holds that layout and reads its mixing tables against the
little-d ladder itself.
"""

import cmath
import math
from fractions import Fraction
from math import comb

import numpy as np
from scipy.linalg import expm

from fkimage import FourierGroupElement
from fkimage.mode_basis import _layout
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


def fold_layout(two_jmin, two_jmax, width, whole):
    """The spins of each slot of each batch, each as ``(2 lambda, levels)``,
    by the fold rule, written out without ``mode_basis``: a spin
    s < 2j_min mixes the levels s and n_max - s, and the top spin 2j_min
    every level 2j_min .. 2j_max.  Below F = min(2j_min, 2 width) spin s
    shares a slot with F - 1 - s, and the middle spin of an odd F has its
    own; then runs of ``width`` spins, one to a slot; then the top spin
    alone.  On ``whole`` rungs, when the top spin's levels taken two at a
    time need no more slots than the fold has, they follow the fold's
    slots in its batch instead, two levels to a slot, the last one alone
    when their count is odd.  Whole rungs and even/odd halves otherwise
    share these slots and differ only in the second spin's offset."""
    n_max = two_jmin + two_jmax
    fold = min(two_jmin, 2 * width)
    folded = [tuple((t, (t, n_max - t)) for t in sorted({s, fold - 1 - s}))
              for s in range((fold + 1) // 2)]
    flat = tuple(range(two_jmin, two_jmax + 1))
    if whole and folded and math.ceil(len(flat) / 2) <= len(folded):
        return [folded + [((two_jmin, flat[n:n + 2]),)
                          for n in range(0, len(flat), 2)]]
    batches = [folded] if fold else []
    for lo in range(fold, two_jmin, width):
        batches.append([((s, (s, n_max - s)),)
                        for s in range(lo, min(lo + width, two_jmin))])
    return batches + [[((two_jmin, flat),)]]


def check_split_quarter_turns(basis):
    """Assert that ``basis`` holds the layout ``mode_basis._layout`` gives
    its two spins, and in every slot of every batch its spins' tables, at
    their offsets, with exact zeros off those blocks and on the padding.
    On halves the tables are the even-column and odd-column halves
    ``d[:ceil(k/2), 0::2]`` and ``d[:floor(k/2), 1::2]`` of the
    quarter-turn rungs ``d = d^lambda(pi/2)``, bit for bit.  On whole rungs
    they are ``U = d diag((-1)^c)``, exactly symmetric, with the upper
    triangle bit for bit the rung's, and the batch applies the one
    transposed view both ways.  Returns each slot's ``(2 lambda, levels)``
    per spin, batch by batch."""
    two_jx, two_jy = basis.shape.j_x.two_j, basis.shape.j_y.two_j
    two_jmin = min(two_jx, two_jy)
    halves, spots, layout, *indices = _layout(two_jx, two_jy)
    assert basis.halves == halves
    assert basis.places == tuple(spots[two_l][0]
                                 for two_l in range(two_jmin + 1))
    for got, expected in zip((basis.gather, basis.scatter, basis.middles),
                             indices):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert not got.flags.writeable
    rungs = list(_ladder(two_jmin, math.pi / 2))
    assert len(layout) == len(basis.batches)
    for (lo, hi, view, stack_t, stack, index), (slots, *expected) in zip(
            basis.batches, layout):
        assert (lo, hi, view) == tuple(expected[:3])
        assert index.dtype == np.intp and not index.flags.writeable
        assert np.array_equal(index, expected[3])
        assert stack.dtype == np.float64 and not stack.flags.writeable
        assert np.array_equal(stack_t, stack.transpose(0, 1, 3, 2))
        if halves == 1:
            assert stack is stack_t
        rows = view[2]
        assert stack.shape == (halves, len(slots), rows, rows)
        for i, slot in enumerate(slots):
            for half in range(halves):
                block = np.zeros((rows, rows))
                for two_l, at, _ in slot:
                    valid = (two_l + halves - half) // halves
                    d = rungs[two_l]
                    if halves == 1:
                        d = d * (-1.0) ** np.arange(two_l + 1)
                        upper = np.triu_indices(two_l + 1)
                        u = stack[0, i, at:at + valid, at:at + valid]
                        assert np.array_equal(u[upper], d[upper])
                        assert np.array_equal(u, u.T)
                        block[at:at + valid, at:at + valid] = u
                    else:
                        block[at:at + valid, at:at + valid] = \
                            d[:valid, half::halves]
                assert np.array_equal(stack[half, i], block)
    return [[tuple((two_l, ns) for two_l, _, ns in slot) for slot in slots]
            for slots, *_ in layout]


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
    # An entry below 4e-13 moves theta by less than 1e-12 when zeroed.
    if a10 < 4e-13:
        theta, phi = 0.0, 0.0
        psi = (-2.0 * cmath.phase(su[0, 0])) % two_pi
    elif a00 < 4e-13:
        theta, phi = math.pi, 0.0
        psi = (2.0 * cmath.phase(su[1, 0])) % two_pi
    else:
        half_sum, half_diff = -cmath.phase(su[0, 0]), cmath.phase(su[1, 0])
        psi, phi = (half_sum + half_diff) % two_pi, (half_sum - half_diff) % two_pi
    if np.max(np.abs(element_matrix(
            FourierGroupElement(chi, psi, theta, phi)) - u)) > 1e-8:
        chi = (chi + two_pi) % (2.0 * two_pi)
    return chi, psi, theta, phi
