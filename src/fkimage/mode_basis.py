"""Two-dimensional Cartesian mode basis on a rectangular screen, the level
(multiplet) structure that organizes it, and the angular-momentum-like
Laguerre-Kravchuk modes.

A screen with spins (j_x, j_y) carries N_x*N_y = (2j_x+1)(2j_y+1) real
orthonormal Cartesian modes, products of one-dimensional Kravchuk functions.
Grouped by total mode number n = n_x + n_y they form multiplets of effective
spin lambda(n): lambda grows as n/2 up to min(j_x, j_y), stays flat at
min(j_x, j_y) across the middle of the rhomboid, and shrinks symmetrically
at the top.  Within a level the projection mu is the half-difference
(n_x - n_y)/2 recentred on the level, so mu always runs over
{-lambda, ..., +lambda} in unit steps.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DimensionError, DomainError
from .special_functions import MAX_PIXELS, Spin, _integer, _ladder, _Value

__all__ = [
    "MAX_PIXELS",
    "ScreenShape",
    "LevelSpectrum",
    "CartesianBasis",
    "level_spectrum",
    "build_basis",
    "cartesian_mode",
    "lk_coefficients",
    "lk_mode",
]


# psi and phi of a rotation's element D(0; -pi/2, 2 theta, pi/2).
_HALF_PI = 0.5 * math.pi


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _finite(array: np.ndarray) -> np.ndarray:
    """``array``; DomainError unless it holds numbers, none NaN or inf.
    One sum of squares ``vdot(x, x)`` settles finiteness; the entrywise
    test runs only when that sum is not finite, so huge finite entries,
    whose sum overflows, pass."""
    if array.dtype.kind not in "biufc":
        raise DomainError(f"array must hold numbers, not {array.dtype}")
    if (not cmath.isfinite(np.vdot(array, array))
            and not np.isfinite(array).all()):
        raise DomainError("array holds NaN or infinite values")
    return array


def _real_products(left: np.ndarray, pixels: np.ndarray,
                   right: np.ndarray) -> np.ndarray:
    """``left @ pixels @ right.T`` for complex128 ``pixels``, as two real
    products over float views, with no complex copy of a table.

    The first product, on the transposed float view, fills the output with
    rows ``(k, re/im)``; read as rows k, they give the second product both
    planes at once, and one pass interleaves them: two arrays of the
    output's size, not three.
    """
    n_x, n_y = pixels.shape
    out = np.empty(pixels.shape, np.complex128)
    rows = out.view(np.float64).reshape(2 * n_y, n_x)
    np.matmul(np.ascontiguousarray(pixels).view(np.float64).T, left.T,
              out=rows)
    planes = np.matmul(rows.reshape(n_y, 2 * n_x).T, right.T)
    out.real = planes[:n_x]
    out.imag = planes[n_x:]
    return out


class ScreenShape(_Value):
    """Rectangular pixel screen fixed by two spins.

    Pixel coordinates run q_k in {-j_k, ..., j_k} in unit steps, so the
    screen has N_x x N_y = (2j_x+1) x (2j_y+1) pixels.  Either orientation
    (j_x >= j_y or j_x < j_y) is accepted; the level formulas below are
    symmetric in the two axes.
    """

    def __init__(self, j_x: Spin, j_y: Spin):
        self.__dict__.update(j_x=Spin.from_j(j_x), j_y=Spin.from_j(j_y))

    @classmethod
    def of(cls, j_x, j_y) -> "ScreenShape":
        return cls(j_x, j_y)

    @classmethod
    def from_pixels(cls, n_x: int, n_y: int) -> "ScreenShape":
        return cls(Spin(_integer(n_x, "pixel count n_x", 1) - 1),
                   Spin(_integer(n_y, "pixel count n_y", 1) - 1))

    @property
    def n_x(self) -> int:
        return self.j_x.dimension

    @property
    def n_y(self) -> int:
        return self.j_y.dimension

    @property
    def pixels(self) -> tuple[int, int]:
        return (self.n_x, self.n_y)

    @property
    def mode_count(self) -> int:
        return self.n_x * self.n_y

    @property
    def max_total_mode(self) -> int:
        return self.j_x.two_j + self.j_y.two_j

    def q_x(self) -> np.ndarray:
        """Pixel x-coordinates, ascending."""
        return (np.arange(self.n_x) - self.j_x.two_j / 2.0)

    def q_y(self) -> np.ndarray:
        return (np.arange(self.n_y) - self.j_y.two_j / 2.0)

    def __repr__(self):
        return f"ScreenShape(j_x={self.j_x.j:g}, j_y={self.j_y.j:g})"


class LevelSpectrum(_Value):
    """One total-mode level: its effective spin and its members.

    The members are the modes ``(n - n_y, n_y)`` for ``n_y`` in the range
    ``n_y``, ascending, so by descending projection mu; the doubled
    projections ``two_mu`` run from +2*lambda down to -2*lambda in steps
    of 2.
    """

    def __init__(self, n: int, spin: Spin, n_y: range,
                 two_mu: tuple[int, ...]):
        self.__dict__.update(n=n, spin=spin, n_y=n_y, two_mu=two_mu)

    @property
    def size(self) -> int:
        return len(self.n_y)


def _ny_bounds(shape: ScreenShape, n):
    """Lowest and highest n_y of level n, an int or an array of levels.

    Level n holds the modes ``(n - n_y, n_y)`` with
    ``n_y = max(0, n - 2j_x) .. min(n, 2j_y)``, and its spin 2*lambda is the
    width of that range.  This is the one statement of the level layout:
    ``level_spectrum``, the basis build and ``CartesianBasis.level_c``
    read it.
    """
    return np.maximum(n - shape.j_x.two_j, 0), np.minimum(n, shape.j_y.two_j)


def level_spectrum(shape: ScreenShape, n: int) -> LevelSpectrum:
    """Level structure of total mode n: effective spin lambda(n) and the
    (n_x, n_y) <-> mu assignment.

    For j_x >= j_y this realizes the three intervals
      lower triangle  0 <= n <= 2j_y:        lambda = n/2,        mu = (n_x-n_y)/2
      mid rhomboid    2j_y < n < 2j_x:       lambda = j_y,        mu = j_y - n_y
      upper triangle  2j_x <= n:             lambda = j_x+j_y-n/2, mu = (n_x-n_y)/2 - j_x + j_y
    in one formula (recentring (n_x-n_y)/2 on the level), which also covers
    j_x < j_y and the boundary levels, where adjacent formulas agree.
    """
    n = _integer(n, "total mode n", 0, shape.max_total_mode)
    lo, hi = map(int, _ny_bounds(shape, n))
    return LevelSpectrum(n, Spin(hi - lo), range(lo, hi + 1),
                         tuple(range(hi - lo, lo - hi - 1, -2)))


# Spins from 2*_BATCH_SPINS up to the top one are mixed in runs of this
# many consecutive spins; the spins below are folded two to a slot.
_BATCH_SPINS = 24


def _batch_slots(two_jmin: int) -> list[list[tuple[tuple[int, int], ...]]]:
    """The slots of each batch, each slot a tuple of ``(2*lambda, offset)``
    of the spins it holds, ``offset`` being the row and column of the
    spin's half blocks in the slot.

    Below ``F = min(2j_min, 2*_BATCH_SPINS)`` spin s shares a slot with
    spin ``F - 1 - s``, whose half blocks sit at offset ``s//2 + 1``, just
    past the even-column half of s; when F is odd, the middle spin
    ``(F - 1)/2`` has a slot of its own.  So every pair of this first
    batch is ``F/2 + 1`` rows high for an even F, and ``(F + 1)/2`` or
    ``(F + 3)/2`` for an odd one.  Spins ``F .. 2j_min - 1`` follow in runs
    of ``_BATCH_SPINS``, one to a slot, and the top spin ``2j_min`` is a
    batch of its own.
    """
    fold = min(two_jmin, 2 * _BATCH_SPINS)
    folded = [((s, 0), (fold - 1 - s, s // 2 + 1)) for s in range(fold // 2)]
    if fold % 2:
        folded.append((((fold - 1) // 2, 0),))
    runs = [[((s, 0),) for s in range(lo, min(lo + _BATCH_SPINS, two_jmin))]
            for lo in range(fold, two_jmin, _BATCH_SPINS)]
    return ([folded] if folded else []) + runs + [[((two_jmin, 0),)]]


def _butterfly(t: np.ndarray, b: np.ndarray) -> None:
    """(t, b) <- (t + b, t - b), in place."""
    t += b
    b *= -2.0
    b += t


class CartesianBasis:
    """One-dimensional Kravchuk tables, halved quarter-turn tables and level
    bookkeeping of a screen, and the level mix that reads them.

    The basis holds only what the transforms read, as frozen arrays, and
    is safe to share between threads.  ``phi_x[n, i]`` is Psi_n^(j_x) at
    pixel i (q_x = i - j_x), likewise ``phi_y``; both are orthogonal, so
    analysis/synthesis is a pair of small matrix products.  They are two
    rungs, reversed, of one walk of the half-spin ladder at pi/2 up to
    ``max(2j_x, 2j_y)``: ``Psi_n(q) = d^j_{n-j,q}(pi/2)``.  The rungs
    ``V = d^lambda(pi/2)``, ``2*lambda <= 2j_min``, are the quarter-turn
    tables: rows in the level's mu order, and column k of ``diag(i^-k) V``
    an eigenvector of J_y with eigenvalue ``k - lambda``.  By the reflection
    law ``V[2*lambda - r, c] = (-1)^c V[r, c]`` only the half blocks
    ``E = V[:ceil(k/2), 0::2]`` and ``O = V[:floor(k/2), 1::2]`` are kept,
    k = 2*lambda + 1; ``_quarter_turn`` rebuilds V.  A spin below 2j_min
    holds the levels 2*lambda and n_max - 2*lambda, the top spin 2j_min
    every level 2j_min .. 2j_max.

    ``_batch_slots`` lays the spins out in batches of slots (2 batches on
    (20,12), 4 on (64,48)); ``places[2*lambda]`` is a spin's
    ``(batch, slot, offset)``, and ``batches[b]`` is
    ``(lo, hi, shape, stack_t, stack, index)``:

    * ``stack``, shape ``(2, slots, h, h)``, h the rows of the highest
      slot: each spin's ``E`` and ``O`` at its offset, zero elsewhere;
      ``stack_t`` is its transposed view.
    * ``index``, shape ``(2, slots, h, levels)``: ``2j_min + 2*mu`` of row r
      of a spin's blocks, ``2*mu = 4r - 2*lambda`` for ``E`` and
      ``4r + 2 - 2*lambda`` for ``O`` (columns 2r and 2r + 1), ``2j_min`` on
      the padding; it indexes the eigen-phases over
      ``2*mu = -2j_min .. 2j_min``.
    * ``lo:hi``: the batch's float columns of each half of the gathered
      buffer, read as ``shape``, ``(2, slots, h, 2*levels)``.

    Entries ``lo/2 .. hi/2`` of the first half of ``gather``, read as
    ``(slots, h, levels)``, hold the flat mode index ``n_x*N_y + n_y`` of
    member r of each of a spin's levels (ascending n) in row r past its
    offset, and of the second half, member ``2*lambda - r``.  Padding
    rows, and the second half's row at the middle of an odd level, hold
    ``N_x*N_y``, where ``_mix`` keeps a zero.  ``scatter`` is the gathered
    position of each mode.

    ``_mix`` writes the pre-phased coefficients straight into the gather
    source and frees it before the scatter allocates the output: at most
    two full-size arrays are alive at once.  The gathered buffer holds
    each level's top rows t in its first half and its mirrored bottom rows
    b in the second.  By the reflection law, ``V^T x`` is ``E^T (t + b)``
    on the even columns and ``O^T (t - b)`` on the odd ones, and ``V y`` is
    ``a + c`` on the top rows and ``a - c`` on the bottom ones, with
    ``a = E y_even`` and ``c = O y_odd``.  So one in-place butterfly
    ``(t, b) <- (t + b, t - b)`` goes before the batches and one after, and
    each batch applies ``E^T`` and ``O^T``, its eigen-phases (one gather)
    and ``E`` and ``O`` as two stacked real products on both parts at once:
    half the bytes and flops of whole rungs.  Padding adds exact zeros.

    The other call constants: ``pixels``; ``quarter_turns``, a rotation's
    ``exp(+-i pi/2 n_y)``, the only complex arrays; and ``ramps``, whose odd
    rows hold the ramps of every phase of an action for ``_phases``, in
    five columns: n_y (pre-phase), n_y (post-phase), the levels n and
    their ``level_c``, and 2*mu (eigen-phases).  ``level_c`` is the integer
    ``(n_x - n_y) - 2*mu`` of each level, ``n - lo - hi`` with ``lo .. hi``
    its n_y range (``_ny_bounds``), so zero on the lower triangle and
    ``2*(j_x - j_y)`` on the upper one: the offset of the antisymmetric
    Fourier phases from the level projection, which carries a group
    element's fifth parameter ``omega``.

    ``levels`` and ``level_arrays(n)`` (the level, its n_x and its n_y)
    come on demand from ``level_spectrum`` for the Laguerre-Kravchuk modes,
    the figures and the references of ``verify`` and the tests, which check
    the layout against ``_reference.interval_levels``.
    """

    def __init__(self, shape: ScreenShape):
        self.shape = shape
        self.pixels = shape.pixels
        two_jx, two_jy = shape.j_x.two_j, shape.j_y.two_j
        top, two_jmin = max(two_jx, two_jy), min(two_jx, two_jy)
        layout = _batch_slots(two_jmin)
        # A slot's rows end with the even-column half of its last spin.
        stacks = [np.zeros((2, len(slots)) + (max(
            slot[-1][1] + slot[-1][0] // 2 + 1 for slot in slots),) * 2)
            for slots in layout]
        places = {two_l: (b, i, offset) for b, slots in enumerate(layout)
                  for i, slot in enumerate(slots) for two_l, offset in slot}
        self.places = tuple(places[two_l] for two_l in range(two_jmin + 1))
        for two_l, d in enumerate(_ladder(top, math.pi / 2.0)):
            if two_l <= two_jmin:
                b, i, at = self.places[two_l]
                even, odd = two_l // 2 + 1, (two_l + 1) // 2
                stacks[b][0, i, at:at + even, at:at + even] = d[:even, 0::2]
                stacks[b][1, i, at:at + odd, at:at + odd] = d[:odd, 1::2]
            if two_l == two_jx:
                self.phi_x = _frozen(d[::-1, ::-1].copy())
            if two_l == two_jy:
                self.phi_y = _frozen(d[::-1, ::-1].copy())
        # A level's spin 2*lambda is the width of its n_y range (_ny_bounds):
        # levels 2*lambda and n_max - 2*lambda below 2j_min, and every level
        # 2j_min .. top at it.
        size = shape.mode_count
        batches, gather, lo = [], [], 0
        half = np.arange(2, dtype=np.intp)[:, None, None, None]
        for slots, stack in zip(layout, map(_frozen, stacks)):
            # Axes (slot, row, level): the spin 2*lambda of each row, the row
            # r of that spin's blocks, and the levels of the spin.  A slot's
            # last spin starts at its offset, and a lone spin at 0.
            first, _, last, offset = np.array(
                [slot[0] + slot[-1] for slot in slots], dtype=np.intp
            ).T[:, :, None, None]
            row = np.arange(stack.shape[2], dtype=np.intp)[:, None]
            later = row >= offset
            two_l = np.where(later, last, first)
            r = np.where(later, row - offset, row)
            ns = (np.arange(two_jmin, top + 1, dtype=np.intp)
                  if first[0, 0, 0] == two_jmin else np.concatenate(
                      (two_l, shape.max_total_mode - two_l), axis=2))
            # Axes (half, slot, row, level): half 0 holds member r of each
            # level, its column k = 2r of V, while r <= 2*lambda - r; half 1
            # holds the mirror 2*lambda - r, column k = 2r + 1, while
            # r < 2*lambda - r.
            k = 2 * r + half
            padding = k > two_l
            ny = _ny_bounds(shape, ns)[0] + np.where(half, two_l - r, r)
            index = np.where(padding, size, (ns - ny) * shape.n_y + ny)
            gather.append(index.reshape(2, -1))
            two_mu = np.where(padding, 0, 2 * k - two_l)
            batches.append((lo, lo + index.size, index.shape[:3] + (
                2 * index.shape[3],), stack.transpose(0, 1, 3, 2), stack,
                _frozen((two_jmin + two_mu).repeat(ns.shape[-1], axis=3))))
            lo += index.size
        self.batches = tuple(batches)
        self.gather = _frozen(np.concatenate(gather, axis=1).ravel())
        scatter = np.empty(size + 1, dtype=np.intp)
        scatter[self.gather] = np.arange(self.gather.size, dtype=np.intp)
        self.scatter = _frozen(scatter[:size])
        # The constants of every transform call (see the class docstring).
        ny = np.arange(shape.n_y)
        self.quarter_turns = tuple(_frozen(np.exp(1j * angle * ny))
                                   for angle in (_HALF_PI, -_HALF_PI))
        n = np.arange(shape.max_total_mode + 1)
        lo, hi = _ny_bounds(shape, n)
        p, q = ny.size, 2 * ny.size
        r = q + n.size
        ramps = np.zeros((r + 2 * two_jmin + 1, 2, 5))
        ramps[:p, 1, 0] = ramps[p:q, 1, 1] = ny
        ramps[q:r, 1, 2:4] = np.stack((n, n - lo - hi), axis=1)
        ramps[r:, 1, 4] = np.arange(-two_jmin, two_jmin + 1)
        self.ramps, self._ends = _frozen(ramps.reshape(-1, 5)), (p, q, r)
        self.level_c = self.ramps[2 * q + 1:2 * r:2, 3]

    def _phases(self, theta: float, level: float = 0.0, shift: float = 0.0,
                pre: float = 0.0, post: float = 0.0):
        """The phases ``(pre, post, level, eigen)`` of an action, slices of
        one ``exp`` of ``ramps @ (pre, post, -level, -shift, -theta/2)``,
        which read as complex is i times their angles; a block whose angles
        are zero is None, and with theta alone nonzero only ``eigen`` is
        evaluated."""
        p, q, r = self._ends
        if not (level or shift or pre or post):
            return None, None, None, np.exp(
                (self.ramps[2 * r:, 4] * (-0.5 * theta)).view(np.complex128))
        v = np.exp(self.ramps.dot((pre, post, -level, -shift, -0.5 * theta))
                   .view(np.complex128))
        return (v[:p] if pre else None, v[p:q] if post else None,
                v[q:r] if level or shift else None, v[r:])

    def _mix(self, coeffs: np.ndarray, phases: np.ndarray,
             turn: np.ndarray | None) -> np.ndarray:
        """``coeffs`` times the n_y pre-phase ``turn``, if any, each spin's
        levels then mixed in its J_y eigenbasis by the eigen-phases
        ``phases``, as a new complex array; see the class docstring."""
        # One slot past the last mode holds the zero the padding gathers.
        src = np.empty(coeffs.size + 1, dtype=np.complex128)
        src[-1] = 0.0
        grid = src[:-1].reshape(coeffs.shape)
        if turn is None:
            grid[...] = coeffs
        else:
            np.multiply(coeffs, turn, out=grid)
        buf = src[self.gather]
        del src, grid
        halves = buf.view(np.float64).reshape(2, -1)
        _butterfly(*halves)
        for lo, hi, shape, stack_t, stack, index in self.batches:
            x = halves[:, lo:hi].reshape(shape)
            eig = np.matmul(stack_t, x).view(np.complex128)
            eig *= phases[index]
            np.matmul(stack, eig.view(np.float64), out=x)
        _butterfly(*halves)
        return buf[self.scatter].reshape(coeffs.shape)

    @property
    def levels(self) -> tuple[LevelSpectrum, ...]:
        return tuple(level_spectrum(self.shape, n)
                     for n in range(self.shape.max_total_mode + 1))

    def level_arrays(self, n: int):
        """(LevelSpectrum, n_x indices, n_y indices) for fancy indexing."""
        lev = level_spectrum(self.shape, n)
        ny = np.arange(lev.n_y.start, lev.n_y.stop, dtype=np.intp)
        return lev, _frozen(lev.n - ny), _frozen(ny)

    def check_image(self, pixels: np.ndarray) -> np.ndarray:
        """``pixels`` as an array of the screen's shape and finite (see
        ``_finite``)."""
        pixels = np.asarray(pixels)
        if pixels.shape != self.pixels:
            raise DimensionError(
                f"array shape {pixels.shape} does not match screen "
                f"{self.pixels}")
        return _finite(pixels)

    def analyze(self, pixels: np.ndarray) -> np.ndarray:
        """Expand an image over the Cartesian modes."""
        pixels = self.check_image(pixels)
        if pixels.dtype == np.complex128:
            return _real_products(self.phi_x, pixels, self.phi_y)
        return self.phi_x @ pixels @ self.phi_y.T

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Rebuild an image from its mode coefficients."""
        coeffs = self.check_image(coeffs)
        if coeffs.dtype == np.complex128:
            return _real_products(self.phi_x.T, coeffs, self.phi_y.T)
        return self.phi_x.T @ coeffs @ self.phi_y


def build_basis(shape) -> CartesianBasis:
    """Construct the Cartesian basis tables for a screen shape.

    Screens of more than ``MAX_PIXELS`` pixels raise ``DomainError`` before
    anything is built: the quarter-turn tables grow as the cube of the
    shorter side.  At 512x512 the basis' arrays hold 182.6 MiB of batch
    stacks, 8.2 MiB of index arrays and 4.0 MiB of ``phi_x``/``phi_y``
    (their ``nbytes``), and the build peaks at 236 MiB RSS.
    """
    if not isinstance(shape, ScreenShape):
        try:
            j_x, j_y = shape
        except (TypeError, ValueError):
            raise DomainError(f"screen shape must be a pair of spins, "
                              f"got {shape!r}") from None
        shape = ScreenShape.of(j_x, j_y)
    if shape.mode_count > MAX_PIXELS:
        raise DomainError(
            f"screen {shape.n_x}x{shape.n_y} has {shape.mode_count} pixels, "
            f"more than the limit of {MAX_PIXELS}")
    return CartesianBasis(shape)


def cartesian_mode(basis: CartesianBasis, idx) -> np.ndarray:
    """Real image of the Cartesian mode Psi_{n_x} (x) Psi_{n_y}, idx being
    the pair (n_x, n_y)."""
    try:
        n_x, n_y = idx
    except (TypeError, ValueError):
        raise DomainError(f"mode index {idx!r} is not a pair") from None
    n_x = _integer(n_x, "mode index n_x", 0, basis.shape.j_x.two_j)
    n_y = _integer(n_y, "mode index n_y", 0, basis.shape.j_y.two_j)
    return np.outer(basis.phi_x[n_x], basis.phi_y[n_y])


def _quarter_turn(basis: CartesianBasis, two_l: int) -> np.ndarray:
    """The quarter-turn table ``V = d^lambda(pi/2)`` of a spin
    ``2*lambda <= 2j_min``, rebuilt from its half blocks ``E`` and ``O`` by
    the reflection law ``V[2*lambda - r, c] = (-1)^c V[r, c]``."""
    b, i, at = basis.places[two_l]
    even, odd = (two_l + 2) // 2, (two_l + 1) // 2
    e, o = basis.batches[b][4][:, i, at:at + even, at:at + even]
    v = np.empty((two_l + 1, two_l + 1))
    v[:even, 0::2] = e
    v[:even, 1::2] = o[:, :odd]
    v[even:] = (v[:odd] * (-1.0) ** np.arange(two_l + 1))[::-1]
    return v


def _lk_level_phase(two_lambda: int) -> complex:
    # Canonical per-level phase exp(-i pi lambda / 2).  It makes the family
    # closed under conjugation, Lambda_{n,-m} = conj(Lambda_{n,m}), and the
    # m = 0 members real; without it the J_y eigenvectors leave a stray
    # factor exp(i pi lambda) between the +m and -m members.
    return cmath.exp(-1j * math.pi * two_lambda / 4.0)


def lk_coefficients(basis: CartesianBasis, n: int, m: int) -> np.ndarray:
    """Cartesian-basis coefficients of the Laguerre-Kravchuk mode (n, m).

    ``m = 2*mu`` labels the member of level n; it must have the parity of
    2*lambda(n) and satisfy |m| <= 2*lambda(n).  The LK modes are the J_y
    eigenvectors of the level: column ``row`` of the real quarter-turn
    table ``V = d^lambda(pi/2)``, where ``row = (2*lambda - m)/2`` is m's
    index in the level's mu order, times ``i^k`` on member k, ``(-i)^row``
    and the canonical level phase.
    """
    lev, nx, ny = basis.level_arrays(n)
    two_l = lev.spin.two_j
    m = _integer(m, "m", -two_l, two_l)
    if (two_l - m) % 2:
        raise DomainError(
            f"m={m} not an angular label of level n={n} "
            f"(allowed: {lev.two_mu})")
    row = (two_l - m) // 2
    amp = (_lk_level_phase(two_l) * (-1j) ** (row % 4)
           * (1j ** (np.arange(two_l + 1) % 4)
              * _quarter_turn(basis, two_l)[:, row]))
    out = np.zeros(basis.shape.pixels, dtype=complex)
    out[nx, ny] = amp
    return out


def lk_mode(basis: CartesianBasis, n: int, m: int) -> np.ndarray:
    """Complex image of the Laguerre-Kravchuk mode Lambda_{n,m}.

    These are the quarter-turn gyrations of the Cartesian multiplets, the
    rectangular-screen analogue of Laguerre-Gauss beams.  The family is
    orthonormal, complete, and conjugation-symmetric:
    Lambda_{n,-m} = conj(Lambda_{n,m}), so the m = 0 modes are real.
    """
    return basis.synthesize(lk_coefficients(basis, n, m))
