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
from .special_functions import (MAX_PIXELS, Spin, _check_walk, _integer,
                                _ladder, _short, _Value)

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


def _ny_bounds(two_jx: int, two_jy: int, n):
    """Lowest and highest n_y of level n of the screen of sides 2j_x, 2j_y,
    n an int or an array of levels.

    Level n holds the modes ``(n - n_y, n_y)`` with
    ``n_y = max(0, n - 2j_x) .. min(n, 2j_y)``, and its spin 2*lambda is the
    width of that range.  This is the one statement of the level layout:
    ``level_spectrum``, the mix layout ``_layout`` and
    ``CartesianBasis.level_c`` read it.  The max and min are integer
    arithmetic, so an int gives ints and an array an array of its dtype,
    with no numpy call on a Python int.
    """
    return (n - two_jx) * (n > two_jx), n - (n - two_jy) * (n > two_jy)


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
    lo, hi = _ny_bounds(shape.j_x.two_j, shape.j_y.two_j, n)
    return LevelSpectrum(n, Spin(hi - lo), range(lo, hi + 1),
                         tuple(range(hi - lo, lo - hi - 1, -2)))


# Spins from _WHOLE_BELOW up to the top one are mixed in runs of this many
# consecutive spins; the spins below are folded two to a slot.
_BATCH_SPINS = 24

# Screens whose shorter side 2j_min is below this mix on whole quarter-turn
# rungs, from it up on their even/odd halves: on small screens the halves'
# butterflies and second product cost more numpy calls than their halved
# flops save.  Whole rungs measured faster up to 2j_min = 50 and slower
# from 56.  It is also where the fold ends, so a whole-rung basis is the
# fold batch and the top spin (``_batch_slots``).
_WHOLE_BELOW = 2 * _BATCH_SPINS


def _batch_slots(two_jmin: int, two_jmax: int, halves: int
                 ) -> list[list[tuple[tuple[int, int, tuple[int, ...]], ...]]]:
    """The slots of each batch, each a tuple of ``(2*lambda, offset,
    levels)`` of its spins: the row and column of the spin's blocks in the
    slot and the levels n it mixes there; ``halves`` is 1 for whole rungs,
    2 for even/odd halves.

    Spin s below 2j_min holds the levels s and n_max - s.  Below
    ``F = min(2j_min, _WHOLE_BELOW)`` it shares a slot with spin
    ``F - 1 - s`` at offset ``s//halves + 1``, just past its rung or even
    half; the middle spin of an odd F has a slot of its own.  So the
    fold's slots are ``F + 1`` rows high on whole rungs, and on halves
    ``F/2 + 1`` for an even F, ``(F + 1)/2`` or ``(F + 3)/2`` for an odd
    one.  Spins ``F .. 2j_min - 1`` follow in runs of ``_BATCH_SPINS``, one
    to a slot, and the top spin 2j_min, holding every level 2j_min ..
    2j_max, is a batch of its own; on whole rungs, where those levels two
    to a slot need no more slots than the fold has, they join the fold's
    batch instead, and the screen mixes in one batch.
    """
    fold = min(two_jmin, _WHOLE_BELOW)

    def spin(s, offset=0):
        return s, offset, (s, two_jmin + two_jmax - s)

    folded = [(spin(s), spin(fold - 1 - s, s // halves + 1))
              for s in range(fold // 2)]
    if fold % 2:
        folded.append((spin((fold - 1) // 2),))
    runs = [[(spin(s),) for s in range(lo, min(lo + _BATCH_SPINS, two_jmin))]
            for lo in range(fold, two_jmin, _BATCH_SPINS)]
    flat = tuple(range(two_jmin, two_jmax + 1))
    if halves == 1 and len(flat) <= 2 * len(folded):
        return [folded + [((two_jmin, 0, flat[n:n + 2]),)
                          for n in range(0, len(flat), 2)]]
    return ([folded] if folded else []) + runs + [[((two_jmin, 0, flat),)]]


def _layout(two_jx: int, two_jy: int):
    """The mix layout of the screen of sides 2j_x, 2j_y: ``(halves, spots,
    batches, gather, scatter, middles)``.

    It is the one owner of every layout decision of ``CartesianBasis``, a
    pure function of the two spins that walks no ladder and fills no
    table.  ``halves`` is 1 below 2j_min = ``_WHOLE_BELOW``, 2 from it up.
    ``spots[2*lambda]`` lists every ``(batch, slot, offset)`` that holds
    the blocks of a spin ``2*lambda <= 2j_min``; the first is its
    ``places`` entry.  ``batches[b]`` is ``(slots, lo, hi, shape, index)``:
    the batch's ``_batch_slots`` slots, its float columns ``lo:hi`` of the
    gathered buffer read as ``shape``, and its frozen phase index.  The
    batch stack is ``shape[:3] + shape[2:3]``.  ``gather``, ``scatter``
    and ``middles`` are frozen, as the class docstring of
    ``CartesianBasis`` describes them.
    """
    top, two_jmin = max(two_jx, two_jy), min(two_jx, two_jy)
    halves = 1 if two_jmin < _WHOLE_BELOW else 2
    spots, batches, gather, pads, lo = {}, [], [], [], 0
    half = np.arange(halves, dtype=np.intp)[:, None, None, None]
    for b, slots in enumerate(_batch_slots(two_jmin, top, halves)):
        for i, slot in enumerate(slots):
            for two_l, at, _ in slot:
                spots.setdefault(two_l, []).append((b, i, at))
        # Axes (slot, row, level): the spin 2*lambda of each row, the row r
        # of its blocks, and the levels it mixes there, -1 past the slot's
        # last.  A slot's last spin starts at its offset, and its rows end
        # with the rung, or the even-column half, of that spin.
        wide = max(len(slot[-1][2]) for slot in slots)
        spins = np.array([[(two_l, at) + (ns + (-1,))[:wide]
                           for two_l, at, ns in (slot[0], slot[-1])]
                          for slot in slots], dtype=np.intp)[:, :, None]
        row = np.arange(max(slot[-1][1] + slot[-1][0] // halves + 1
                            for slot in slots), dtype=np.intp)[:, None]
        spin = np.where(row >= spins[:, 1, :, 1:2], spins[:, 1], spins[:, 0])
        two_l, r, ns = spin[..., :1], row - spin[..., 1:2], spin[..., 2:]
        # Axes (half, slot, row, level): on whole rungs, member r of each
        # level, column k = r of V.  On halves, half 0 holds member r,
        # column k = 2r, while r <= 2*lambda - r; half 1 holds the mirror
        # 2*lambda - r, column k = 2r + 1, while r < 2*lambda - r.
        k = halves * r + half
        ny = _ny_bounds(two_jx, two_jy, ns)[0] + np.where(half, two_l - r, r)
        padding = (k > two_l) | (ns < 0)
        index = np.where(padding, 0, (ns - ny) * (two_jy + 1) + ny)
        gather.append(index.reshape(halves, -1))
        pads.append(padding.reshape(halves, -1))
        two_mu = np.where(k > two_l, 0, 2 * k - two_l)
        width = 2 * index.size // halves
        batches.append((slots, lo, lo + width, index.shape[:3] + (
            2 * index.shape[3],), _frozen((two_jmin + two_mu).repeat(
                ns.shape[-1], axis=3))))
        lo += width
    gather = _frozen(np.concatenate(gather, axis=1).ravel())
    kept = ~np.concatenate(pads, axis=1)
    scatter = np.empty((two_jx + 1) * (two_jy + 1), dtype=np.intp)
    scatter[gather[kept.ravel()]] = np.flatnonzero(kept)
    # Part-1 padding beside a kept part-0 row: the partner r = lambda of an
    # even 2*lambda's middle member, which the butterfly adds in.
    middles = kept[0].size + np.flatnonzero(kept[0] > kept[-1])
    return (halves, spots, batches, gather, _frozen(scatter),
            _frozen(middles))


def _butterfly(t: np.ndarray, b: np.ndarray) -> None:
    """(t, b) <- (t + b, t - b), in place."""
    t += b
    b *= -2.0
    b += t


class CartesianBasis:
    """One-dimensional Kravchuk tables, quarter-turn tables and level
    bookkeeping of a screen, and the level mix that reads them.

    ``CartesianBasis(shape)`` takes a ``ScreenShape`` or a pair of spins,
    and raises ``DomainError`` before it allocates anything when a side
    passes 512 pixels, where its ladder walk would pass the ``MAX_PIXELS``
    block (``special_functions._check_walk``).  The 512x512 basis holds
    182.6 MiB of batch stacks, 6.2 MiB of index arrays, 8.0 MiB of
    quarter-turn grids and 4.0 MiB of 1-D tables, and its build peaks at
    240 MiB RSS.

    The basis holds only what the transforms read, as frozen arrays, and
    is safe to share between threads.  ``phi_x[n, i]`` is Psi_n^(j_x) at
    pixel i (q_x = i - j_x), likewise ``phi_y``: two orthogonal rungs,
    reversed, of one walk of the half-spin ladder at pi/2,
    ``Psi_n(q) = d^j_{n-j,q}(pi/2)``.  The rungs ``V = d^lambda(pi/2)``,
    ``2*lambda <= 2j_min``, are the quarter-turn tables: rows in the
    level's mu order, and column k of ``diag(i^-k) V`` an eigenvector of
    J_y with eigenvalue ``k - lambda``.  Below 2j_min = ``_WHOLE_BELOW``
    (``halves = 1``) a table is kept whole as ``U = V diag((-1)^c)``,
    symmetric by ``d_{m'm} = (-1)^(m-m') d_{mm'}`` and made exactly so from
    its upper triangle.  From it up (``halves = 2``), by the reflection law
    ``V[2*lambda - r, c] = (-1)^c V[r, c]``, only ``E = V[:ceil(k/2), 0::2]``
    and ``O = V[:floor(k/2), 1::2]`` are kept, k = 2*lambda + 1.
    ``_quarter_turn`` returns V either way.

    ``_layout``, a pure function of the two spins, is the one owner of the
    mix layout: every index below, ``places``, ``halves`` and each batch's
    shape come from it, and the build adds one walk that fills the tables.
    ``_batch_slots`` lays the spins out in batches of slots (1 batch on
    (20,12), 4 on (64,48)); ``places[2*lambda]`` is a spin's first
    ``(batch, slot, offset)``, and ``batches[b]`` is
    ``(lo, hi, shape, stack_t, stack, index)``:

    * ``stack``, ``(halves, slots, h, h)``: each spin's U, or its E and O,
      at its offset, zero elsewhere; ``stack_t`` is its transposed view,
      and on whole rungs ``stack`` is that view too.
    * ``index``, ``(halves, slots, h, levels)``: ``2j_min + 2*mu`` of row r
      of a spin's blocks, column ``k = halves*r + half`` of V,
      ``2*mu = 2k - 2*lambda``, and ``2j_min`` on the padding.
    * ``lo:hi``: the batch's float columns of each part of the gathered
      buffer, read as ``shape``, ``(halves, slots, h, 2*levels)``.

    ``gather`` holds, read as ``(halves, slots, h, levels)``, the mode
    ``n_x*N_y + n_y`` of member r of each level a slot lists for a spin in
    row r past its offset, on halves member ``2*lambda - r`` in part 1.
    Padding names mode 0: it meets zero table rows or fills a merged top
    spin's spare level, mixed and never read.  ``middles`` lists the
    padding a butterfly would add into a member: part 1's row
    r = lambda of an even 2*lambda, beside the middle member, in each
    level column the spin uses (none on whole rungs); ``_mix`` zeroes
    them.  ``scatter`` is each mode's gathered position.

    ``_mix`` applies ``V^T``, the eigen-phases D and ``V`` to each batch as
    stacked real products on both planes at once; on whole rungs as
    ``U D U = V D V^T``.  It gathers straight from the coefficients, or
    their n_y-phased copy, and a lone batch frees the gathered buffer
    after its first product.  At most two full-size arrays
    are alive at once.  On halves the buffer holds a level's top rows t in
    part 0 and its mirrored bottom rows b in part 1: ``V^T x`` is
    ``E^T (t + b)`` on the even columns and ``O^T (t - b)`` on the odd ones,
    and ``V y`` is ``a + c`` on top and ``a - c`` below, ``a = E y_even``,
    ``c = O y_odd``.  So an in-place butterfly ``(t, b) <- (t + b, t - b)``
    goes before the products and one after: half the bytes and flops, for
    six more ufunc calls and twice the products, which cost more on small
    screens.

    The other call constants: ``pixels``; ``quarter_turns``, a rotation's
    n_y phases ``i^(+-n_y)``, built exactly from ``1j ** (n_y % 4)`` and
    its conjugate, so each entry is 1, i, -1 or -i, as full grids, which
    its pre- and post-phase multiply elementwise (numpy runs a broadcast
    n_y vector one row at a time through its iterator's buffer, about
    1.9x slower); and ``ramps``, the complex ``(R, 5)`` table of i times
    the ramps of every phase of an action, each in a column of its own and
    zero elsewhere, for ``_phases``, its one ``exp``: n_y (pre-phase), n_y
    (post-phase), the levels n and their c (level phase and omega shift),
    and 2*mu (eigen-phases).  ``level_c``, the c column read as real, is the
    integer ``(n_x - n_y) - 2*mu`` of each level, ``n - lo - hi`` with
    ``lo .. hi`` its n_y range (``_ny_bounds``): zero on the lower triangle,
    ``2*(j_x - j_y)`` on the upper one, the offset of the antisymmetric
    Fourier phases from the level projection that carries ``omega``.

    ``levels`` and ``level_arrays(n)`` come on demand from
    ``level_spectrum``.
    """

    def __init__(self, shape):
        if not isinstance(shape, ScreenShape):
            try:
                j_x, j_y = shape
            except (TypeError, ValueError):
                raise DomainError(f"screen shape must be a pair of spins, "
                                  f"got {shape!r}") from None
            shape = ScreenShape.of(j_x, j_y)
        _check_walk(max(shape.pixels),
                    f"screen {_short(shape.n_x)}x{_short(shape.n_y)}")
        self.shape = shape
        self.pixels = shape.pixels
        two_jx, two_jy = shape.j_x.two_j, shape.j_y.two_j
        two_jmin = min(two_jx, two_jy)
        (self.halves, spots, layout, self.gather, self.scatter,
         self.middles) = _layout(two_jx, two_jy)
        halves = self.halves
        self.places = tuple(spots[two_l][0] for two_l in range(two_jmin + 1))
        stacks = [np.zeros(view[:3] + view[2:3])
                  for _, _, _, view, _ in layout]
        for two_l, d in enumerate(_ladder(max(two_jx, two_jy),
                                          math.pi / 2.0)):
            if halves == 1 and two_l <= two_jmin:
                c = np.arange(two_l + 1)
                u = d * (-1.0) ** c
                u = np.where(c[:, None] <= c, u, u.T)
            for b, i, at in spots.get(two_l, ()):
                for half in range(halves):
                    k = (two_l + halves - half) // halves
                    stacks[b][half, i, at:at + k, at:at + k] = \
                        u if halves == 1 else d[:k, half::halves]
            if two_l == two_jx:
                self.phi_x = _frozen(d[::-1, ::-1].copy())
            if two_l == two_jy:
                self.phi_y = _frozen(d[::-1, ::-1].copy())
        batches = []
        for (_, lo, hi, view, index), stack in zip(layout, stacks):
            stack_t = _frozen(stack).transpose(0, 1, 3, 2)
            batches.append((lo, hi, view, stack_t,
                            stack_t if halves == 1 else stack, index))
        self.batches = tuple(batches)
        # The constants of every transform call (see the class docstring).
        ny = np.arange(shape.n_y)
        turn = np.broadcast_to(1j ** (ny % 4), shape.pixels)
        self.quarter_turns = (_frozen(turn.copy()), _frozen(np.conj(turn)))
        n = np.arange(shape.max_total_mode + 1)
        lo, hi = _ny_bounds(two_jx, two_jy, n)
        p, q = ny.size, 2 * ny.size
        r = q + n.size
        ramps = np.zeros((r + 2 * two_jmin + 1, 5), np.complex128)
        ramps.imag[:p, 0] = ramps.imag[p:q, 1] = ny
        ramps.imag[q:r, 2:4] = np.stack((n, n - lo - hi), axis=1)
        ramps.imag[r:, 4] = np.arange(-two_jmin, two_jmin + 1)
        self.ramps, self._ends = _frozen(ramps), (p, q, r)
        self.level_c = self.ramps[q:r, 3].imag

    def _phases(self, theta: float, level: float = 0.0, shift: float = 0.0,
                pre: float = 0.0, post: float = 0.0):
        """The phases ``(pre, post, level, eigen)`` of an action, slices of
        one ``exp`` of ``ramps @ (pre, post, -level, -shift, -theta/2)``,
        i times their angles: the product adds only exact zeros to a row's
        ramp terms.  A block whose angles are zero is None, and with theta
        alone nonzero only ``eigen`` is evaluated."""
        p, q, r = self._ends
        if not (level or shift or pre or post):
            return None, None, None, np.exp(self.ramps[r:, 4] * (-0.5 * theta))
        v = np.exp(self.ramps.dot((pre, post, -level, -shift, -0.5 * theta)))
        return (v[:p] if pre else None, v[p:q] if post else None,
                v[q:r] if level or shift else None, v[r:])

    def _mix(self, coeffs: np.ndarray, phases: np.ndarray,
             turn: np.ndarray | None) -> np.ndarray:
        """``coeffs`` times the n_y pre-phase ``turn``, if any, each spin's
        levels then mixed in its J_y eigenbasis by the eigen-phases
        ``phases``, as a new complex array; see the class docstring."""
        src = coeffs if turn is None else coeffs * turn
        buf = src.reshape(-1)[self.gather]
        del src
        if buf.dtype != np.complex128:
            buf = buf.astype(np.complex128)
        if len(self.batches) == 1:
            # Whole rungs only (``_batch_slots``): free the gathered buffer
            # before the phases' temporary, and the first product before
            # the scatter.
            (_, _, shape, stack_t, stack, index), = self.batches
            x = np.matmul(stack_t, buf.view(np.float64).reshape(shape))
            del buf
            eig = x.view(np.complex128)
            eig *= phases[index]
            y = np.matmul(stack, x)
            del x, eig
            return y.view(np.complex128).ravel()[self.scatter].reshape(
                coeffs.shape)
        parts = buf.view(np.float64).reshape(self.halves, -1)
        if self.halves == 2:
            buf[self.middles] = 0.0
            _butterfly(*parts)
        for lo, hi, shape, stack_t, stack, index in self.batches:
            x = parts[:, lo:hi].reshape(shape)
            eig = np.matmul(stack_t, x).view(np.complex128)
            eig *= phases[index]
            np.matmul(stack, eig.view(np.float64), out=x)
        if self.halves == 2:
            _butterfly(*parts)
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
    """``CartesianBasis(shape)``: the basis of a ``ScreenShape`` or a pair
    of spins, refused with ``DomainError`` when a side passes 512 pixels."""
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
    ``2*lambda <= 2j_min``, a new array: the stored U times
    ``diag((-1)^c)``, or on halves rebuilt from ``E`` and ``O`` by the
    reflection law ``V[2*lambda - r, c] = (-1)^c V[r, c]``."""
    b, i, at = basis.places[two_l]
    stack = basis.batches[b][4]
    if basis.halves == 1:
        return (stack[0, i, at:at + two_l + 1, at:at + two_l + 1]
                * (-1.0) ** np.arange(two_l + 1))
    even, odd = (two_l + 2) // 2, (two_l + 1) // 2
    e, o = stack[:, i, at:at + even, at:at + even]
    v = np.empty((two_l + 1, two_l + 1))
    v[:even, 0::2] = e
    v[:even, 1::2] = o[:, :odd]
    v[even:] = (v[:odd] * (-1.0) ** np.arange(two_l + 1))[::-1]
    return v


def _lk_block(basis: CartesianBasis, two_l: int,
              rows: slice = slice(None)) -> np.ndarray:
    """The LK coefficients of a level n of spin ``2*lambda = two_l`` on
    its members, the block's ``rows``: row r = (2*lambda - m)/2 is mode
    (n, m), column r of ``V = d^lambda(pi/2)`` times ``i^k`` on member k
    and ``(-i)^r``."""
    # Canonical level phase exp(-i pi lambda / 2).  It makes the family
    # closed under conjugation, Lambda_{n,-m} = conj(Lambda_{n,m}), and the
    # m = 0 members real; without it the J_y eigenvectors leave a stray
    # factor exp(i pi lambda) between the +m and -m members.
    level = cmath.exp(-1j * math.pi * two_l / 4.0)
    members = 1j ** (np.arange(two_l + 1) % 4)
    phases = np.array([level * (-1j) ** (r % 4)
                       for r in range(two_l + 1)[rows]])
    return phases[:, None] * (
        members[:, None] * _quarter_turn(basis, two_l)[:, rows]).T


def lk_coefficients(basis: CartesianBasis, n: int, m: int) -> np.ndarray:
    """Cartesian-basis coefficients of the Laguerre-Kravchuk mode (n, m).

    ``m = 2*mu`` labels the member of level n; it must have the parity of
    2*lambda(n) and satisfy |m| <= 2*lambda(n).  The LK modes are the J_y
    eigenvectors of the level, the rows of ``_lk_block``.
    """
    lev, nx, ny = basis.level_arrays(n)
    two_l = lev.spin.two_j
    m = _integer(m, "m", -two_l, two_l)
    if (two_l - m) % 2:
        raise DomainError(
            f"m={m} not an angular label of level n={n} "
            f"(allowed: {lev.two_mu})")
    out = np.zeros(basis.shape.pixels, dtype=complex)
    row = (two_l - m) // 2
    out[nx, ny] = _lk_block(basis, two_l, slice(row, row + 1))[0]
    return out


def lk_mode(basis: CartesianBasis, n: int, m: int) -> np.ndarray:
    """Complex image of the Laguerre-Kravchuk mode Lambda_{n,m}.

    These are the quarter-turn gyrations of the Cartesian multiplets, the
    rectangular-screen analogue of Laguerre-Gauss beams.  The family is
    orthonormal, complete, and conjugation-symmetric:
    Lambda_{n,-m} = conj(Lambda_{n,m}), so the m = 0 modes are real.
    """
    return basis.synthesize(lk_coefficients(basis, n, m))
