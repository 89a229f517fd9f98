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
from fkimage.mode_basis import _WHOLE_BELOW, _batch_slots
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


def fold_layout(two_jmin, width):
    """The spins of each slot of each batch by the fold rule, written out
    without ``mode_basis``: below F = min(2j_min, 2 width) spin s shares a
    slot with F - 1 - s, and the middle spin of an odd F has its own; then
    runs of ``width`` spins, one to a slot; then the top spin alone.  Whole
    rungs and even/odd halves share these slots and differ only in the
    second spin's offset."""
    fold = min(two_jmin, 2 * width)
    batches = [[tuple(sorted({s, fold - 1 - s}))
                for s in range((fold + 1) // 2)]] if fold else []
    for lo in range(fold, two_jmin, width):
        batches.append([(s,) for s in range(lo, min(lo + width, two_jmin))])
    return batches + [[(two_jmin,)]]


def check_split_quarter_turns(basis):
    """Assert that ``basis`` keeps whole rungs when 2j_min is below
    ``mode_basis._WHOLE_BELOW`` and even/odd halves from it up, and that
    every slot of every batch, as ``mode_basis._batch_slots`` lists them,
    holds bit for bit its spins' quarter-turn rungs ``d = d^lambda(pi/2)``
    on whole rungs, or their even-column and odd-column halves
    ``d[:ceil(k/2), 0::2]`` and ``d[:floor(k/2), 1::2]`` on halves: the
    first spin at row and column 0 and a second one just past the first's
    rung, or its even half, with exact zeros off those blocks and on the
    padding; that ``basis.places`` records each spin's batch, slot and
    offset; and that its phase index holds ``2j_min + 2 mu`` of each
    block's columns and ``2j_min`` elsewhere.  Returns the spins of each
    slot of each batch."""
    two_jmin = min(basis.shape.j_x.two_j, basis.shape.j_y.two_j)
    halves = 1 if two_jmin < _WHOLE_BELOW else 2
    assert basis.halves == halves
    rungs = list(_ladder(two_jmin, math.pi / 2))
    layout = _batch_slots(two_jmin, halves)
    assert len(layout) == len(basis.batches)
    stop = 0
    for b, ((lo, hi, shape, stack_t, stack, index), slots) in enumerate(
            zip(basis.batches, layout)):
        assert lo == stop
        stop = hi
        assert stack.dtype == np.float64 and not stack.flags.writeable
        assert index.dtype == np.intp and not index.flags.writeable
        assert np.array_equal(stack_t, stack.transpose(0, 1, 3, 2))
        rows = stack.shape[2]
        assert stack.shape == (halves, len(slots), rows, rows)
        assert index.shape[:3] == (halves, len(slots), rows)
        assert shape == index.shape[:3] + (2 * index.shape[3],)
        assert hi - lo == 2 * index.size // halves
        for i, slot in enumerate(slots):
            for two_l, at in slot:
                assert basis.places[two_l] == (b, i, at)
            offsets = [0, slot[0][0] // halves + 1][:len(slot)]
            assert [at for _, at in slot] == offsets
            for half in range(halves):
                block = np.zeros((rows, rows))
                two_mu = np.zeros(rows, dtype=int)
                for two_l, at in slot:
                    valid = (two_l + halves - half) // halves
                    block[at:at + valid, at:at + valid] = \
                        rungs[two_l][:valid, half::halves]
                    two_mu[at:at + valid] = (2 * halves * np.arange(valid)
                                             + 2 * half - two_l)
                assert np.array_equal(stack[half, i], block)
                assert np.array_equal(index[half, i], np.repeat(
                    two_jmin + two_mu[:, None], index.shape[3], axis=1))
        # The highest slot sets the batch's rows.
        assert rows == max(at + two_l // halves + 1
                           for slot in slots for two_l, at in slot)
    assert sorted(two_l for slots in layout for slot in slots
                  for two_l, _ in slot) == list(range(two_jmin + 1))
    assert stop == 2 * basis.gather.size // halves
    assert len(basis.places) == two_jmin + 1
    return [[tuple(two_l for two_l, _ in slot) for slot in slots]
            for slots in layout]


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
