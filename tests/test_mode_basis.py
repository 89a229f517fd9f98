import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fkimage import (CartesianBasis, DomainError, FourierGroupElement,
                     ScreenShape, Spin, apply_element_coeffs, build_basis,
                     cartesian_mode, gyrate_coeffs, level_spectrum,
                     lk_coefficients, lk_mode, rotate_coeffs)
from fkimage import mode_basis, special_functions
from fkimage._reference import interval_levels
from fkimage.special_functions import _ladder
from fkimage.verify import DEFAULT_SHAPES

from oracles import check_split_quarter_turns, fold_layout

SQ2 = math.sqrt(0.5)


# ------------------------------------------------------------- levels

@pytest.mark.parametrize("n,lam,size", [(4, 2, 5), (18, 7, 15), (32, 2, 5)])
def test_level_values_on_11_7(n, lam, size):
    lev = level_spectrum(ScreenShape.of(11, 7), n)
    assert lev.spin == Spin.from_j(lam)
    assert lev.size == size


def test_levels_match_interval_formulas(rng):
    # Both orientations, half-integer spins included.
    for _ in range(30):
        two_jx, two_jy = (int(k) for k in rng.integers(0, 41, size=2))
        shape = ScreenShape(Spin(two_jx), Spin(two_jy))
        for n in range(two_jx + two_jy + 1):
            lev = level_spectrum(shape, n)
            oracle = interval_levels(two_jx, two_jy, n)
            got = {(n - ny, ny): (lev.spin.two_j, tm)
                   for ny, tm in zip(lev.n_y, lev.two_mu)}
            assert got == oracle, (two_jx, two_jy, n)


def test_boundary_levels_agree_between_formulas():
    # at n = 2 j_y the lower-triangle and mid-rhomboid formulas coincide,
    # at n = 2 j_x the mid-rhomboid and upper-triangle formulas coincide
    for (two_jx, two_jy) in ((10, 6), (22, 14), (9, 4), (7, 7)):
        shape = ScreenShape(Spin(two_jx), Spin(two_jy))
        for n, mid_mu in ((two_jy, lambda nx, ny: two_jy - 2 * ny),
                          (two_jx, lambda nx, ny: two_jy - 2 * ny)):
            lev = level_spectrum(shape, n)
            for ny, tm in zip(lev.n_y, lev.two_mu):
                assert tm == mid_mu(n - ny, ny)
            assert lev.spin.two_j == min(two_jy, 2 * (two_jx + two_jy) - 2 * n,
                                         n, two_jx)


def test_mode_count_identity(rng):
    shapes = [(0, 0), (1, 0), (0, 3), (4, 4), (3, 5)]
    shapes += [(int(rng.integers(0, 41)), int(rng.integers(0, 41)))
               for _ in range(45)]
    for two_jx, two_jy in shapes:
        shape = ScreenShape(Spin(two_jx), Spin(two_jy))
        total = sum(level_spectrum(shape, n).size
                    for n in range(shape.max_total_mode + 1))
        assert total == shape.mode_count


def test_mu_coverage_and_ordering(rng):
    for _ in range(10):
        shape = ScreenShape(Spin(int(rng.integers(0, 25))),
                            Spin(int(rng.integers(0, 25))))
        for n in range(shape.max_total_mode + 1):
            lev = level_spectrum(shape, n)
            assert lev.two_mu == tuple(
                range(lev.spin.two_j, -lev.spin.two_j - 1, -2))
            n_ys = list(lev.n_y)
            assert n_ys == sorted(n_ys)
            assert all(0 <= n - ny <= shape.j_x.two_j
                       and 0 <= ny <= shape.j_y.two_j for ny in lev.n_y)


def test_level_domain_errors():
    shape = ScreenShape.of(5, 3)
    with pytest.raises(DomainError):
        level_spectrum(shape, -1)
    with pytest.raises(DomainError):
        level_spectrum(shape, 17)
    with pytest.raises(DomainError):
        level_spectrum(shape, 4.5)


@pytest.mark.parametrize("label", [True, False, 1.5, np.float64(1.0), "1",
                                   None])
def test_integer_labels_reject_bool_and_non_integers(label):
    basis = build_basis((5, 3))
    calls = (lambda: level_spectrum(basis.shape, label),
             lambda: lk_coefficients(basis, label, 0),
             lambda: lk_coefficients(basis, 1, label),
             lambda: cartesian_mode(basis, (label, 0)),
             lambda: cartesian_mode(basis, (0, label)))
    for call in calls:
        with pytest.raises(DomainError):
            call()


# -------------------------------------------------------------- basis

def test_build_basis_5_3():
    basis = build_basis((5, 3))
    assert basis.phi_x.shape == (11, 11)
    assert basis.phi_y.shape == (7, 7)
    assert basis.shape.mode_count == 77
    assert len(basis.levels) == 17


def test_basis_ground_row_shape_1_1():
    basis = build_basis((1, 1))
    assert basis.phi_x[0] == pytest.approx([0.5, SQ2, 0.5], abs=1e-15)


def test_basis_gram_20_12():
    basis = build_basis((20, 12))
    for phi in (basis.phi_x, basis.phi_y):
        assert np.max(np.abs(phi @ phi.T - np.eye(phi.shape[0]))) < 1e-10


def test_basis_tables_frozen():
    basis = build_basis((2, 1))
    with pytest.raises(ValueError):
        basis.phi_x[0, 0] = 7.0


def test_phase_constants_held_on_basis_are_read_only():
    basis = build_basis((3, 4.5))
    n_y, levels = basis.shape.n_y, basis.shape.max_total_mode + 1
    rows = 2 * n_y + levels + 2 * 6 + 1
    constants = {"ramps": (rows, 5), "level_c": (levels,)}
    for name, shape in constants.items():
        array = getattr(basis, name)
        assert array.shape == shape and not array.flags.writeable, name
    assert not hasattr(basis, "c") and not hasattr(basis, "mix_batches")
    # The ramps are a plain complex table, i times each ramp in a column of
    # its own and zero elsewhere, with no zero rows between: n_y
    # (pre-phase), n_y (post-phase), the levels n with their c, and 2 mu.
    # The only zero rows are the four whose ramps read 0.  level_c is the
    # c column, real.
    ny, n = np.arange(n_y), np.arange(levels)
    expected = np.zeros((rows, 5))
    expected[:n_y, 0] = expected[n_y:2 * n_y, 1] = ny
    expected[2 * n_y:2 * n_y + levels, 2] = n
    expected[2 * n_y:2 * n_y + levels, 3] = basis.level_c
    expected[2 * n_y + levels:, 4] = np.arange(-6, 7)
    assert basis.ramps.dtype == np.complex128
    assert np.array_equal(basis.ramps, 1j * expected)
    assert np.flatnonzero(~basis.ramps.any(axis=1)).tolist() == [
        0, n_y, 2 * n_y, 2 * n_y + levels + 6]
    assert basis.level_c.dtype == np.float64
    assert np.array_equal(basis.level_c,
                          basis.ramps[2 * n_y:2 * n_y + levels, 3].imag)
    # A rotation's n_y phases are full grids, so its pre- and post-phase
    # multiply elementwise, with no broadcast operand: exactly i^(+-n_y),
    # each entry 1, i, -1 or -i, broadcast over n_x.
    turns = basis.quarter_turns
    for turn in turns:
        assert turn.shape == basis.pixels and turn.flags.c_contiguous
    assert np.array_equal(turns[0], np.broadcast_to(1j ** (ny % 4),
                                                    basis.pixels))
    assert np.array_equal(turns[1], np.conj(turns[0]))
    for lo, hi, shape, stack_t, stack, index in basis.batches:
        assert hi - lo == np.prod(shape[1:])
        assert np.array_equal(stack_t, stack.transpose(0, 1, 3, 2))
        for array in (turns[0], turns[1], stack_t, stack, index):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0


def _check_layout(two_jx, two_jy):
    """Assert ``mode_basis._layout`` of one screen, with no basis and no
    walk.  Its slots are ``fold_layout``'s, and each level a slot lists
    for a spin has that spin.  The level's members fill the rows past the
    spin's offset by ascending n_y, on halves part 1 from the top member
    down.  The phase index holds 2j_min + 2 mu on those rows, and 2j_min
    elsewhere.  Padding names mode 0, and ``scatter`` finds every mode at
    its member's position.  ``middles`` and the padding of whole rungs are
    counted in closed form, as are each level's spin and lowest n_y."""
    two_jmin, two_jmax = min(two_jx, two_jy), max(two_jx, two_jy)
    halves, spots, batches, gather, scatter, middles = mode_basis._layout(
        two_jx, two_jy)
    assert halves == (1 if two_jmin < mode_basis._WHOLE_BELOW else 2)
    assert [[tuple((two_l, ns) for two_l, _, ns in slot) for slot in slots]
            for slots, *_ in batches] == fold_layout(
        two_jmin, two_jmax, mode_basis._BATCH_SPINS, halves == 1)
    for array in (gather, scatter, middles):
        assert array.dtype == np.intp and not array.flags.writeable
    # Level n has spin 2 lambda(n) = min(n, 2j_min, n_max - n) and holds
    # the modes (n - n_y, n_y) from n_y = max(0, n - 2j_x) up.
    n = np.arange(two_jx + two_jy + 1)
    spin_of = np.minimum(np.minimum(n, two_jmin), n[::-1])
    low_of = np.maximum(n - two_jx, 0)
    part = gather.size // halves
    modes = np.zeros(gather.size, dtype=np.intp)
    kept = np.zeros(gather.size, dtype=bool)
    middle = np.zeros(gather.size, dtype=bool)
    placed, stop = {}, 0
    for b, (slots, lo, hi, view, index) in enumerate(batches):
        assert lo == stop
        stop = hi
        # The second spin of a slot starts just past the first's rung, or
        # its even half, and the highest spin sets the batch's rows.
        rows = max(at + two_l // halves + 1
                   for slot in slots for two_l, at, _ in slot)
        levels = max(len(ns) for slot in slots for *_, ns in slot)
        assert view == (halves, len(slots), rows, 2 * levels)
        assert index.shape == view[:3] + (levels,)
        assert index.dtype == np.intp and not index.flags.writeable
        for i, slot in enumerate(slots):
            assert [at for _, at, _ in slot] == [
                0, slot[0][0] // halves + 1][:len(slot)]
            for two_l, at, _ in slot:
                placed.setdefault(two_l, []).append((b, i, at))
        # One entry per level a slot lists for a spin: the slot, the spin's
        # offset and 2 lambda, and the level's column and n; base is the
        # part-0 position of the entry's first row.
        i, at, two_l, column, n = np.array([
            (i, at, two_l, column, n) for i, slot in enumerate(slots)
            for two_l, at, ns in slot for column, n in enumerate(ns)]).T
        assert np.array_equal(spin_of[n], two_l)
        base = lo // 2 + (i * rows + at) * levels + column
        two_mu = np.zeros(view[:3], dtype=np.intp)
        for half in range(halves):
            # Row r of an entry holds member r of its level, on part 1
            # member 2 lambda - r, while that is a row of the half.
            count = (two_l + halves - half) // halves
            e = np.repeat(np.arange(count.size), count)
            r = np.arange(e.size) - np.repeat(np.cumsum(count) - count, count)
            ny = low_of[n[e]] + (two_l[e] - r if half else r)
            cell = half * part + base[e] + r * levels
            modes[cell] = (n[e] - ny) * (two_jy + 1) + ny
            kept[cell] = True
            two_mu[half, i[e], at[e] + r] = (2 * halves * r + 2 * half
                                             - two_l[e])
        assert np.all(index == two_jmin + two_mu[..., None])
        if halves == 2:
            even = two_l % 2 == 0
            middle[part + base[even] + two_l[even] // 2 * levels] = True
    assert stop == 2 * gather.size // halves
    assert sorted(placed) == list(range(two_jmin + 1))
    assert spots == placed
    assert np.array_equal(gather, modes)
    assert np.array_equal(gather[scatter], np.arange(scatter.size))
    assert scatter.size == (two_jx + 1) * (two_jy + 1)
    assert np.array_equal(np.sort(scatter), np.flatnonzero(kept))
    assert np.array_equal(middles, np.flatnonzero(middle))
    # The butterfly reads one padding entry per level of even spin, the
    # partner of its middle member.
    assert middles.size == (halves - 1) * np.count_nonzero(spin_of % 2 == 0)
    if halves == 1:
        # A folded pair of whole rungs fills its F + 1 rows exactly: only
        # the lone middle spin of an odd 2j_min pads, by F + 1 entries,
        # when other slots are higher (2j_min > 1, or the top spin's merged
        # slots), and a merged top spin with an odd count of levels by one
        # level column.
        merged = len(batches) == 1 and two_jmin > 0
        odd_fold = two_jmin % 2 and (two_jmin > 1 or merged)
        odd_top = merged and (abs(two_jx - two_jy) + 1) % 2
        assert gather.size - scatter.size == (two_jmin + 1) * (
            odd_fold + odd_top)


def test_layout_of_every_screen_up_to_2j_52(monkeypatch):
    # All 2809 screens with 2j_x, 2j_y <= 52: both orientations,
    # half-integer spins, zero-width axes, every fold and merge edge of
    # whole rungs, and halves from 2j_min = _WHOLE_BELOW = 48.  The sweep
    # walks no ladder and builds no basis.
    _forbid_the_walk(monkeypatch)
    failed = {}
    for two_j in itertools.product(range(53), repeat=2):
        try:
            _check_layout(*two_j)
        except AssertionError as fault:
            failed[two_j] = fault
    assert not failed, (sorted(failed), next(iter(failed.values())))


def _arrays(value):
    """Every array in a value, looking into nested tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(two_jx=st.integers(0, 40), two_jy=st.integers(0, 40))
@example(two_jx=10, two_jy=6)
@example(two_jx=6, two_jy=9)
@example(two_jx=0, two_jy=8)
@example(two_jx=12, two_jy=0)
@example(two_jx=17, two_jy=16)
@example(two_jx=47, two_jy=52)
@example(two_jx=51, two_jy=48)
@example(two_jx=0, two_jy=0)
@example(two_jx=1, two_jy=1)
@example(two_jx=1, two_jy=2)
@example(two_jx=2, two_jy=1)
def test_level_ordered_layout_and_quarter_turn_tables(two_jx, two_jy):
    # Both orientations, half-integer spins, zero-width axes, and both
    # layouts: whole rungs below 2j_min = _WHOLE_BELOW = 48, halves from it.
    basis = build_basis(ScreenShape(Spin(two_jx), Spin(two_jy)))
    two_jmin = min(two_jx, two_jy)
    # The basis holds the layout of _layout, which the sweep over every
    # screen up to 2j = 52 checks, and each slot its spins' whole
    # quarter-turn tables, or their even and odd halves.
    check_split_quarter_turns(basis)
    # level_c is each level's (n_x - n_y) - 2 mu.
    for n in range(basis.shape.max_total_mode + 1):
        lev, nx, ny = basis.level_arrays(n)
        assert np.all(basis.level_c[n] == nx - ny - np.asarray(lev.two_mu))
    # Each table is stored once, whole or as its halves: V rebuilt from
    # the halves by the reflection law has the rung's top rows bit for bit
    # (the odd columns of a middle row are the law's exact zeros), V read
    # from a whole rung's symmetric U = V diag((-1)^c) has the rung's
    # upper triangle bit for bit and is within 1e-15 of it, and V is
    # orthogonal.
    for two_l, d in enumerate(_ladder(two_jmin, math.pi / 2)):
        v = mode_basis._quarter_turn(basis, two_l)
        even, odd = (two_l + 2) // 2, (two_l + 1) // 2
        if basis.halves == 1:
            upper = np.triu_indices(two_l + 1)
            assert np.array_equal(v[upper], d[upper]) and v.flags.writeable
            assert np.max(np.abs(v - d)) <= 1e-15
        else:
            assert np.array_equal(v[:odd], d[:odd])
            assert np.array_equal(v[:even, 0::2], d[:even, 0::2])
        assert np.max(np.abs(v - d)) <= 1e-14
        assert np.max(np.abs(v @ v.T - np.eye(two_l + 1))) < 1e-13
    # No complex table per spin: the J_y phases live in the transforms.
    # The complex constants are a rotation's pair of n_y phase grids and
    # the phase ramps of every action.
    assert not any(np.iscomplexobj(table)
                   for name, value in vars(basis).items()
                   if name not in ("quarter_turns", "ramps")
                   for table in _arrays(value))
    assert [turn.shape for turn in basis.quarter_turns] == [basis.pixels] * 2


def test_layout_is_a_function_of_the_shorter_side():
    # Whole rungs below 2j_min = _WHOLE_BELOW, halves from it up, in both
    # orientations, whatever the longer side, half-integer spins included.
    # A whole-rung layout is one batch while the top spin's levels, two to
    # a slot, need no more slots than the fold batch has, and the fold
    # batch and the top spin's past that.  Verify's default screens hold
    # every layout, so a later crossover cannot drop one of them from it.
    whole_below = mode_basis._WHOLE_BELOW
    assert 0 < whole_below <= 2 * mode_basis._BATCH_SPINS

    def layout(spins):
        return mode_basis._layout(*(Spin.from_j(j).two_j for j in spins))

    for two_jmin in (whole_below - 2, whole_below - 1, whole_below,
                     whole_below + 1):
        halves = 1 if two_jmin < whole_below else 2
        fold_slots = (two_jmin + 1) // 2
        for longer in (two_jmin, two_jmin + 1, two_jmin + 6,
                       two_jmin + 2 * fold_slots - 1,
                       two_jmin + 2 * fold_slots):
            for two_j in ((two_jmin, longer), (longer, two_jmin)):
                got, _, batches, *_ = mode_basis._layout(*two_j)
                assert got == halves, two_j
                assert {view[0] for _, _, _, view, _ in batches} == {halves}
                if halves == 1:
                    merged = (longer - two_jmin + 2) // 2 <= fold_slots
                    assert len(batches) == 2 - merged, two_j
    layouts = {(halves, len(batches) == 1)
               for halves, _, batches, *_ in map(layout, DEFAULT_SHAPES)}
    assert layouts == {(1, True), (1, False), (2, False)}
    for shape, merged in (((5, 3), True), ((20, 12), True),
                          ((2.5, 1), False)):
        assert (len(layout(shape)[2]) == 1) == merged
    # (20,12) on whole rungs: 21 slots of 25 rows and two levels, the
    # last level column, past the top spin's 17 levels, the only padding.
    assert layout((20, 12))[3].size == 41 * 25 + 25


def test_class_docstring_states_the_built_batch_counts():
    # A drift guard: the batch counts the CartesianBasis docstring states
    # for (20,12) and (64,48) are the ones the layout builds.
    doc = " ".join(CartesianBasis.__doc__.split())
    stated = re.search(r"\((\d+) batch(?:es)? on \((\d+),(\d+)\), "
                       r"(\d+) on \((\d+),(\d+)\)\)", doc)
    assert stated, "no batch counts in the CartesianBasis docstring"
    count, x, y, other, u, v = map(int, stated.groups())
    assert {(x, y): count, (u, v): other} == {
        shape: len(build_basis(shape).batches)
        for shape in ((20, 12), (64, 48))}


def _forbid_the_walk(monkeypatch):
    """Patch the half-spin ladder to raise, under both names it is looked
    up by: a screen that reaches the walk raises AssertionError, and
    nothing is walked."""
    def walk(*args):
        raise AssertionError("the ladder ran")

    for module in (special_functions, mode_basis):
        monkeypatch.setattr(module, "_ladder", walk)


def test_build_basis_rejects_screens_above_pixel_limit(monkeypatch):
    assert mode_basis.MAX_PIXELS == 512 * 512
    for spins in ((400, 300), (256, 255.5)):
        with pytest.raises(DomainError, match="pixels"):
            build_basis(spins)
    assert build_basis((100, 100)).shape.mode_count == 40401
    # The accepted boundary, 512x512, is checked without building it: it
    # passes the size check and reaches the walk, and its layout is worked
    # out with no walk.
    _forbid_the_walk(monkeypatch)
    with pytest.raises(AssertionError, match="ladder"):
        build_basis((255.5, 255.5))
    assert mode_basis._layout(511, 511)[4].size == 512 * 512
    with pytest.raises(DomainError):
        build_basis(ScreenShape.from_pixels(513, 512))


@pytest.mark.parametrize("construct", [build_basis, CartesianBasis])
def test_a_side_above_512_pixels_is_refused_before_the_walk(monkeypatch,
                                                           construct):
    # A basis walks the ladder up to the block of its longer side, so that
    # side, not the pixel count, is held to the MAX_PIXELS block of
    # wigner_little_d: 513x1 is refused as 801x601 is.
    _forbid_the_walk(monkeypatch)
    for spins in ((256, 0), (0, 256), (1200, 0), (131071, 0), (400, 300),
                  (256, 255.5)):
        with pytest.raises(DomainError) as refused:
            construct(spins)
        assert all(word in str(refused.value)
                   for word in ("pixels", "entries", "limit")), spins
    for spins in ((255.5, 255.5), (255.5, 0), (0, 255.5)):
        with pytest.raises(AssertionError, match="ladder"):
            construct(spins)


def test_the_constructor_and_build_basis_build_the_same_basis():
    one, other = CartesianBasis((5, 3)), build_basis(ScreenShape.of(5, 3))
    assert one.shape == other.shape and one.halves == other.halves
    assert vars(one).keys() == vars(other).keys()
    for name, value in vars(one).items():
        arrays, others = list(_arrays(value)), list(_arrays(vars(other)[name]))
        assert len(arrays) == len(others)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(arrays, others)), name
        if not arrays:
            assert value == vars(other)[name], name


def test_basis_and_transforms_build_no_level_objects(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-level object built")

    monkeypatch.setattr(mode_basis, "level_spectrum", forbidden)
    element = FourierGroupElement(0.3, 1.9, 2.2, -0.7, 0.4)
    for spins in ((5, 3), (3, 4.5), (20, 12)):
        basis = build_basis(spins)
        coeffs = np.ones(basis.shape.pixels)
        for out in (rotate_coeffs(basis, coeffs, 0.9),
                    gyrate_coeffs(basis, coeffs, -1.3),
                    apply_element_coeffs(basis, coeffs, element)):
            assert np.linalg.norm(out) == pytest.approx(
                np.linalg.norm(coeffs), rel=1e-12)


def test_half_integer_screen():
    basis = build_basis((1.5, 1))
    assert basis.shape.pixels == (4, 3)
    total = sum(lev.size for lev in basis.levels)
    assert total == 12


# -------------------------------------------------------------- modes

def test_ground_mode_positive():
    basis = build_basis((5, 3))
    assert np.all(cartesian_mode(basis, (0, 0)) > 0)


def test_cartesian_checkerboard_5_3():
    basis = build_basis((5, 3))
    qx = basis.shape.q_x()[:, None]
    qy = basis.shape.q_y()[None, :]
    checker = (-1.0) ** (qx + qy)      # j_x + j_y even, constant drops out
    for (nx, ny) in ((0, 0), (3, 2), (10, 6), (7, 1)):
        a = cartesian_mode(basis, (10 - nx, 6 - ny))
        b = cartesian_mode(basis, (nx, ny))
        assert np.max(np.abs(a - checker * b)) < 1e-12


def test_cartesian_orthonormality_random_pairs(rng):
    basis = build_basis((5, 3))
    for _ in range(10):
        a = (int(rng.integers(0, 11)), int(rng.integers(0, 7)))
        b = (int(rng.integers(0, 11)), int(rng.integers(0, 7)))
        inner = np.sum(cartesian_mode(basis, a) * cartesian_mode(basis, b))
        assert inner == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


def test_cartesian_mode_rejects_bad_index():
    basis = build_basis((5, 3))
    with pytest.raises(DomainError):
        cartesian_mode(basis, (11, 0))
    with pytest.raises(DomainError):
        cartesian_mode(basis, (0, -1))
    for idx in (3, (1, 0, 0), (1,)):
        with pytest.raises(DomainError):
            cartesian_mode(basis, idx)
    assert np.array_equal(cartesian_mode(basis, [4, np.int64(2)]),
                          cartesian_mode(basis, (4, 2)))


# ----------------------------------------------------------- LK modes

def test_lk_ground_equals_cartesian_ground():
    basis = build_basis((5, 3))
    assert np.max(np.abs(lk_mode(basis, 0, 0)
                         - cartesian_mode(basis, (0, 0)))) < 1e-15


def test_lk_conjugation_symmetry_5_3():
    basis = build_basis((5, 3))
    for lev in basis.levels:
        for m in lev.two_mu:
            a = lk_mode(basis, lev.n, m)
            b = lk_mode(basis, lev.n, -m)
            assert np.max(np.abs(b - np.conj(a))) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(two_jx=st.integers(0, 40), two_jy=st.integers(0, 40))
@example(two_jx=9, two_jy=16)
@example(two_jx=17, two_jy=17)
@example(two_jx=0, two_jy=0)
@example(two_jx=1, two_jy=1)
@example(two_jx=1, two_jy=2)
@example(two_jx=2, two_jy=1)
def test_lk_conjugation_symmetry_on_random_screens(two_jx, two_jy):
    # Lambda_{n,-m} = conj(Lambda_{n,m}) on every level, in both
    # orientations and for half-integer spins.
    basis = build_basis(ScreenShape(Spin(two_jx), Spin(two_jy)))
    for lev in basis.levels:
        for m in lev.two_mu[:(len(lev.two_mu) + 1) // 2]:
            a = lk_mode(basis, lev.n, m)
            b = lk_mode(basis, lev.n, -m)
            assert np.max(np.abs(b - np.conj(a))) < 1e-13


def test_lk_m0_modes_are_real():
    basis = build_basis((5, 3))
    for lev in basis.levels:
        if 0 in lev.two_mu:
            assert np.max(np.abs(np.imag(lk_mode(basis, lev.n, 0)))) < 1e-13


def test_lk_gram_identity_5_3():
    basis = build_basis((5, 3))
    stack = np.array([lk_mode(basis, lev.n, m).ravel()
                      for lev in basis.levels for m in lev.two_mu])
    gram = stack.conj() @ stack.T
    assert np.max(np.abs(gram - np.eye(77))) < 1e-10
    completeness = stack.T @ stack.conj()
    assert np.max(np.abs(completeness - np.eye(77))) < 1e-10


def test_lk_coefficients_support():
    basis = build_basis((5, 3))
    coeffs = lk_coefficients(basis, 8, 4)
    lev, = [l for l in basis.levels if l.n == 8]
    support = {(8 - ny, ny) for ny in lev.n_y}
    nz = {tuple(idx) for idx in np.argwhere(np.abs(coeffs) > 0)}
    assert nz <= support
    assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-12)


def test_lk_rejects_bad_labels():
    basis = build_basis((5, 3))
    with pytest.raises(DomainError):
        lk_mode(basis, 4, 3)        # parity mismatch (level mu spacing)
    with pytest.raises(DomainError):
        lk_mode(basis, 4, 6)        # |m| beyond 2 lambda
    with pytest.raises(DomainError):
        lk_mode(basis, 8, 8)        # mid-rhomboid level: natural difference
    with pytest.raises(DomainError):  # but not a mu label
        lk_mode(basis, 17, 0)
