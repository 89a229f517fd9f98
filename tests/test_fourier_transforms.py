import ast
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fkimage import (DimensionError, DomainError, FourierGroupElement,
                     ScreenShape, Spin, ValidationError, analyze,
                     apply_element, apply_element_coeffs, build_basis,
                     cartesian_mode, fractional_fourier_image, gyrate_coeffs,
                     gyrate_image, ka_coeffs, ks_coeffs, lk_coefficients,
                     rotate_coeffs, rotate_image, synthesize, wigner_little_d)
from fkimage import fourier_transforms, mode_basis
from fkimage._reference import (interval_levels, level_action, random_image,
                                wide_element)

from oracles import check_split_quarter_turns, fold_layout, little_d_expm


@pytest.fixture(scope="module")
def basis53():
    return build_basis((5, 3))


@pytest.fixture(scope="module")
def basis117():
    return build_basis((11, 7))


# --------------------------------------------------- analyze/synthesize

def test_analyze_mode_is_delta(basis53):
    coeffs = analyze(basis53, cartesian_mode(basis53, (2, 1)))
    expected = np.zeros((11, 7))
    expected[2, 1] = 1.0
    assert np.max(np.abs(coeffs - expected)) < 1e-12


def test_synthesize_delta_is_mode(basis53):
    coeffs = np.zeros((11, 7))
    coeffs[4, 2] = 1.0
    assert np.max(np.abs(synthesize(basis53, coeffs)
                         - cartesian_mode(basis53, (4, 2)))) < 1e-12


def test_roundtrip_and_parseval(basis53, rng):
    img = random_image(rng, basis53)
    coeffs = analyze(basis53, img)
    assert np.max(np.abs(synthesize(basis53, coeffs) - img)) < 1e-12
    assert np.linalg.norm(coeffs) == pytest.approx(np.linalg.norm(img),
                                                   rel=1e-12)


def test_linearity(basis53, rng):
    c1, c2 = random_image(rng, basis53), random_image(rng, basis53)
    a, b = 0.7 - 0.2j, 1.1 + 0.9j
    lhs = synthesize(basis53, a * c1 + b * c2)
    rhs = a * synthesize(basis53, c1) + b * synthesize(basis53, c2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_shape_mismatch_raises(basis53):
    with pytest.raises(DimensionError):
        analyze(basis53, np.zeros((7, 11)))
    with pytest.raises(DimensionError):
        ks_coeffs(np.zeros(5), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_pixels_raise(basis53, bad):
    # One NaN pixel would otherwise turn every output pixel into NaN.
    image = np.ones(basis53.shape.pixels, dtype=complex)
    image[4, 2] = bad
    element = FourierGroupElement(0.3, 1.9, 2.2, -0.7)
    for op in (lambda: analyze(basis53, image),
               lambda: synthesize(basis53, image),
               lambda: apply_element_coeffs(basis53, image, element),
               lambda: rotate_image(basis53, image, 0.4),
               lambda: ks_coeffs(image, 0.3),
               lambda: ka_coeffs(image, 0.3)):
        with pytest.raises(DomainError):
            op()


@pytest.mark.parametrize("huge", [1e200, 1e300 + 1e300j])
def test_huge_finite_entries_pass(basis53, huge):
    # Their sum of squares overflows, so the finiteness check falls back
    # to the entrywise test, which passes them.
    coeffs = np.ones(basis53.shape.pixels, dtype=type(huge))
    coeffs[4, 2] = huge
    element = FourierGroupElement(0.3, 1.9, 2.2, -0.7)
    for op in (lambda: analyze(basis53, coeffs),
               lambda: synthesize(basis53, coeffs),
               lambda: rotate_coeffs(basis53, coeffs, 0.4),
               lambda: apply_element_coeffs(basis53, coeffs, element),
               lambda: ks_coeffs(coeffs, 0.3),
               lambda: ka_coeffs(coeffs, 0.3)):
        assert np.isfinite(op()).all()


def test_complex_analysis_is_the_map_of_each_plane(basis117, rng):
    # Complex input runs on real tables as two real products; real input
    # keeps the plain product, bit for bit.
    a = random_image(rng, basis117).real
    b = random_image(rng, basis117).real
    for f in (analyze, synthesize):
        assert np.max(np.abs(f(basis117, a + 1j * b)
                             - (f(basis117, a) + 1j * f(basis117, b)))) < 1e-13
    px, py = basis117.phi_x, basis117.phi_y
    assert np.array_equal(analyze(basis117, a), px @ a @ py.T)
    assert np.array_equal(synthesize(basis117, a), px.T @ a @ py)
    # A transposed view and single precision take the same results.
    image = np.ascontiguousarray((a + 1j * b).T).T
    assert not image.flags.c_contiguous
    assert np.max(np.abs(analyze(basis117, image)
                         - px @ image @ py.T)) < 1e-13
    single = (a + 1j * b).astype(np.complex64)
    assert np.max(np.abs(synthesize(basis117, single)
                         - px.T @ single @ py)) < 1e-5


# ------------------------------------------------------------ rotation

def test_rotate_zero_is_identity(basis53, rng):
    coeffs = analyze(basis53, random_image(rng, basis53))
    assert np.max(np.abs(rotate_coeffs(basis53, coeffs, 0.0) - coeffs)) == 0.0


def test_rotation_preserves_realness(basis53, rng):
    img = rng.standard_normal(basis53.shape.pixels)
    out = rotate_image(basis53, img, 0.83)
    assert not np.iscomplexobj(out)


def test_rotate_pi_is_pixel_inversion_on_square(rng):
    basis = build_basis((3, 3))
    img = random_image(rng, basis)
    out = rotate_image(basis, img, math.pi)
    assert np.max(np.abs(out - img[::-1, ::-1])) < 1e-9


def test_rotate_pi_mid_rhomboid_phase_on_rectangle():
    # On a rectangular screen the flat-spin levels between 2*j_y and 2*j_x
    # are multiplied by (-1)^(2*j_y) under a half-turn instead of the
    # (-1)^n of an exact pixel inversion.  The mode (n_x, n_y) = (3, 0) on
    # the (2, 1) screen sits in such a level (n = 3, lambda = 1): a pixel
    # inversion negates it, while the half-turn rotation leaves it fixed.
    basis = build_basis((2, 1))
    mode = cartesian_mode(basis, (3, 0))
    out = rotate_image(basis, mode, math.pi)
    assert np.max(np.abs(out - mode)) < 1e-12            # fixed by R(pi)
    assert np.max(np.abs(mode[::-1, ::-1] + mode)) < 1e-12   # odd under parity


# -------------------------------------------- fractional Fourier phases

@pytest.mark.parametrize("spins", [(5, 3), (3, 4.5), (2.5, 1), (13, 12.5),
                                   (0, 4), (4, 0)], ids=str)
def test_each_fourier_factor_is_one_phase_per_diagonal(spins):
    # K_S is a phase of n_x + n_y and K_A one of n_x - n_y, so unit
    # coefficients on one diagonal all get exactly the same phase.
    ones = np.ones(ScreenShape(*spins).pixels)
    n_x, n_y = np.indices(ones.shape)
    for transform, diagonal in ((ks_coeffs, n_x + n_y), (ka_coeffs, n_x - n_y)):
        for angle in (0.37, -2.9, 11.3, math.pi):
            phases = transform(ones, angle)
            for d in np.unique(diagonal):
                line = phases[diagonal == d]
                assert np.array_equal(line, np.full_like(line, line[0]))
        zero = transform(ones, 0.0)
        assert zero.dtype == np.float64 and np.array_equal(zero, ones)
        assert not np.shares_memory(zero, ones)
        complex_ones = ones + 0j
        assert np.array_equal(transform(complex_ones, 0.0), complex_ones)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (1, 1)], ids=str)
def test_fourier_factors_keep_degenerate_shapes(shape):
    for transform in (ks_coeffs, ka_coeffs):
        for coeffs in (np.ones(shape), np.ones(shape, dtype=complex)):
            for angle in (0.0, 0.7, -3.1):
                out = transform(coeffs, angle)
                assert out.shape == shape
                assert np.array_equal(np.abs(out), coeffs.real)
        # The 2-D check comes first: a 3-D array of NaN is not 2-D.
        with pytest.raises(DimensionError):
            transform(np.full((2, 2, 2), np.nan), 0.7)


# ------------------------------------------------------------ gyration

def test_gyrate_zero_is_identity(basis53, rng):
    coeffs = analyze(basis53, random_image(rng, basis53))
    assert np.max(np.abs(gyrate_coeffs(basis53, coeffs, 0.0) - coeffs)) < 1e-15


def test_quarter_gyration_of_delta_matches_lk_up_to_level_phase(basis53):
    # gyrating a Cartesian mode by pi/4 lands on the Laguerre-Kravchuk mode
    # of the same (n, m) label, up to the constant exp(i pi lambda/2) that
    # normalizes the LK family to be conjugation-symmetric
    for n, m in ((2, 2), (8, 4), (12, -2)):
        lev, nx, ny = basis53.level_arrays(n)
        k = lev.two_mu.index(m)
        delta = np.zeros(basis53.shape.pixels, dtype=complex)
        delta[nx[k], ny[k]] = 1.0
        gyr = gyrate_coeffs(basis53, delta, math.pi / 4)
        phase = np.exp(1j * math.pi * lev.spin.two_j / 4.0)
        assert np.max(np.abs(gyr - phase * lk_coefficients(basis53, n, m))) < 1e-12


# ------------------------------------------------------- group element

def test_gyration_and_element_keep_the_norm(basis117, rng):
    img = random_image(rng, basis117)
    for out in (gyrate_image(basis117, img, 0.77),
                apply_element(basis117, img,
                              FourierGroupElement(3.3, 1.2, 2.0, 5.1))):
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(img),
                                                    rel=1e-12)


@pytest.mark.parametrize("reduction", ["gyration", "rotation"])
def test_apply_reduces_to_gyration_and_rotation(basis53, rng, reduction):
    # Gyration by theta is D(0; 0, 2 theta, 0) and rotation by theta is
    # D(0; -pi/2, 2 theta, pi/2), whose diagonal phases cancel exactly: real
    # coefficients stay float64 and match rotate_coeffs bit for bit.
    img = random_image(rng, basis53)
    theta = 0.9
    if reduction == "gyration":
        a = apply_element(basis53, img, FourierGroupElement(0, 0, 2 * theta, 0))
        assert np.max(np.abs(a - gyrate_image(basis53, img, theta))) < 1e-12
    else:
        coeffs = analyze(basis53, img.real)
        element = FourierGroupElement(0, -math.pi / 2, 2 * theta, math.pi / 2)
        a = apply_element_coeffs(basis53, coeffs, element)
        assert a.dtype == np.float64
        assert np.array_equal(a, rotate_coeffs(basis53, coeffs, theta))


def test_fractional_fourier_image_wrapper(basis53, rng):
    img = random_image(rng, basis53)
    out = fractional_fourier_image(basis53, img, chi=0.7, beta=-0.3)
    coeffs = analyze(basis53, img)
    ref = synthesize(basis53, ka_coeffs(ks_coeffs(coeffs, 0.7), -0.3))
    assert np.max(np.abs(out - ref)) < 1e-13


# ---------------------------------------------------- dense-operator oracle

def _dense_block_operator(two_jx, two_jy, angle, gyration):
    """Rotation/gyration operator on coefficient vectors, assembled from the
    interval formulas of the level structure and the matrix exponential of
    J_y; independent of the library's level bookkeeping and kernel."""
    n_y = two_jy + 1
    dim = (two_jx + 1) * n_y
    flat = lambda nx, ny: nx * n_y + ny
    op = np.zeros((dim, dim), dtype=complex)
    for n in range(two_jx + two_jy + 1):
        members = interval_levels(two_jx, two_jy, n)
        two_lam = next(iter(members.values()))[0]
        d = little_d_expm(two_lam, angle)
        for (nx1, ny1), (_, tm1) in members.items():
            row = (two_lam - tm1) // 2
            for (nx2, ny2), (_, tm2) in members.items():
                col = (two_lam - tm2) // 2
                entry = d[row, col]
                if gyration:
                    entry = (np.exp(-1j * math.pi * (nx1 - ny1) / 4)
                             * entry
                             * np.exp(1j * math.pi * (nx2 - ny2) / 4))
                op[flat(nx1, ny1), flat(nx2, ny2)] = entry
    return op


@pytest.mark.parametrize(
    "screen,gyration",
    [((5, 3), False), ((5, 3), True), ((2.5, 1), False), ((2.5, 1), True),
     ((3, 4.5), False), ((3, 4.5), True)],
    ids=["False", "True", "2.5x1-False", "2.5x1-True", "3x4.5-False",
         "3x4.5-True"])
def test_block_transforms_match_dense_oracle(rng, screen, gyration):
    basis = build_basis(screen)
    coeffs = analyze(basis, random_image(rng, basis))
    for angle in (0.37, math.pi / 6, 2.8):
        op = _dense_block_operator(basis.shape.j_x.two_j, basis.shape.j_y.two_j,
                                   2 * angle, gyration)
        expected = (op @ coeffs.ravel()).reshape(coeffs.shape)
        if gyration:
            got = gyrate_coeffs(basis, coeffs, angle)
        else:
            got = rotate_coeffs(basis, coeffs, angle)
        assert np.max(np.abs(got - expected)) < 1e-12


# ------------------------------------------- eigenbasis vs little-d blocks

def _level_reference(basis, coeffs, element):
    """Rotation and gyration by ``element.theta``, and the element itself,
    assembled level by level from dense little-d blocks."""
    theta = element.theta
    return [level_action(basis, coeffs, e) for e in (
        FourierGroupElement(0, -math.pi / 2, 2 * theta, math.pi / 2),
        FourierGroupElement(0, 0, 2 * theta, 0), element)]


@pytest.mark.parametrize("key", [(5, 3), (1.5, 4)])
def test_level_reference_mixes_with_wigner_little_d_blocks(key):
    # level_action takes its blocks from one ladder walk per call; each is
    # wigner_little_d of the level's spin bit for bit, and theta = 4 pi
    # reduces to an exact identity.
    basis = build_basis(key)
    coeffs = random_image(np.random.default_rng(3), basis)
    n_x, n_y = np.indices(basis.pixels)
    quarter = np.exp(1j * math.pi * (n_x - n_y) / 4)
    for theta in (1.3, -9.0, 4 * math.pi):
        expected = np.empty_like(coeffs)
        for n in range(basis.shape.max_total_mode + 1):
            lev, nx, ny = basis.level_arrays(n)
            expected[nx, ny] = (wigner_little_d(lev.spin, theta).entries
                                @ (quarter * coeffs)[nx, ny])
        expected *= np.conj(quarter)
        got = level_action(basis, coeffs, FourierGroupElement(0, 0, theta, 0))
        assert np.array_equal(got, expected)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(two_jx=st.integers(0, 40), two_jy=st.integers(0, 40),
       angles=st.lists(st.floats(-20, 20), min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(two_jx=0, two_jy=0, angles=[0.3, 1.9, 2.2, -0.7, 0.4], seed=0)
@example(two_jx=1, two_jy=1, angles=[-4.0, 7.5, 13.0, 19.0, -3.0], seed=1)
@example(two_jx=1, two_jy=2, angles=[2.0, -16.0, 8.5, 12.0, -9.0], seed=2)
@example(two_jx=2, two_jy=1, angles=[11.0, 0.6, -1.7, 5.5, 17.0], seed=3)
def test_eigenbasis_transforms_match_little_d_blocks(two_jx, two_jy, angles,
                                                     seed):
    # Random screens with 2j <= 40 in both orientations, half-integer spins
    # included; theta doubles as the rotation and gyration angle.
    basis = build_basis(ScreenShape(Spin(two_jx), Spin(two_jy)))
    coeffs = analyze(basis, random_image(np.random.default_rng(seed), basis))
    element = FourierGroupElement(*angles)
    theta = element.theta
    rotated, gyrated, applied = _level_reference(basis, coeffs, element)
    scale = np.max(np.abs(coeffs))
    for got, expected in ((rotate_coeffs(basis, coeffs, theta), rotated),
                          (gyrate_coeffs(basis, coeffs, theta), gyrated),
                          (apply_element_coeffs(basis, coeffs, element),
                           applied)):
        assert np.max(np.abs(got - expected)) < 1e-12 * scale
    real = rotate_coeffs(basis, coeffs.real, theta)
    assert real.dtype == np.float64
    assert np.max(np.abs(real - rotated.real)) < 1e-12 * scale


# Elements on the edges of the action's branches, which random angles
# never draw: a rotation's psi and phi (frozen quarter turns) with a level
# phase or an omega phase, a gyration's with a level phase, one of psi and
# phi zero, and theta = 0 with an omega phase.
_EDGE_ELEMENTS = [
    FourierGroupElement(0.7, -math.pi / 2, 1.3, math.pi / 2),
    FourierGroupElement(0.0, -math.pi / 2, 1.3, math.pi / 2, omega=0.9),
    FourierGroupElement(-2.1, -math.pi / 2, 4.0, math.pi / 2, omega=5.0),
    FourierGroupElement(0.7, 0.0, 1.3, 0.0),
    FourierGroupElement(0.0, 0.0, 2.6, 0.0, omega=1.1),
    FourierGroupElement(0.0, 1.9, 1.3, 0.0),
    FourierGroupElement(0.4, 0.0, 1.3, -0.8),
    FourierGroupElement(0.0, 0.0, 0.0, 0.0, omega=1.1),
    FourierGroupElement(0.3, 0.9, 0.0, -0.4, omega=2.0),
]


@pytest.mark.parametrize("screen", [(5, 3), (3, 4.5), (2.5, 1)], ids=str)
def test_action_branch_edges_match_little_d_blocks(rng, screen):
    basis = build_basis(screen)
    coeffs = analyze(basis, random_image(rng, basis))
    scale = np.max(np.abs(coeffs))
    for element in _EDGE_ELEMENTS:
        for x in (coeffs, coeffs.real.copy()):
            got = apply_element_coeffs(basis, x, element)
            expected = level_action(basis, x, element)
            assert np.max(np.abs(got - expected)) < 1e-12 * scale, element


@pytest.mark.parametrize("screen", [(20, 12), (64, 48)], ids=str)
def test_rotation_shaped_elements_keep_their_level_phase(rng, screen):
    # A rotation's psi and phi run the frozen quarter-turn grids, with chi,
    # omega or both adding a level phase after the mix: one whole-rung
    # batch on (20,12), halves on (64,48).  The dense reference takes most
    # of a second per call on (64,48), so there it sees complex input only.
    basis = build_basis(screen)
    coeffs = analyze(basis, random_image(rng, basis))
    scale = np.max(np.abs(coeffs))
    inputs = (coeffs, coeffs.real.copy())[:2 if screen == (20, 12) else 1]
    for element in _EDGE_ELEMENTS[:3]:
        for x in inputs:
            got = apply_element_coeffs(basis, x, element)
            expected = level_action(basis, x, element)
            assert np.max(np.abs(got - expected)) < 1e-12 * scale, element


@pytest.mark.parametrize("element", [
    (0.0, -math.pi / 2, 1.3, math.pi / 2), None, "rotation",
    {"chi": 0.0, "psi": 0.0, "theta": 1.3, "phi": 0.0}], ids=repr)
def test_apply_element_coeffs_takes_only_elements(basis53, element):
    # The constructor checked the element's angles; anything else is
    # refused before they are read.
    coeffs = np.ones(basis53.pixels)
    with pytest.raises(ValidationError, match="FourierGroupElement"):
        apply_element_coeffs(basis53, coeffs, element)


@pytest.mark.parametrize("spins", [(5, 3), (20, 12), (2.5, 1), (24, 24),
                                   (64, 48)], ids=str)
def test_real_rotations_stay_float64(spins):
    basis = build_basis(spins)
    coeffs = random_image(np.random.default_rng(31), basis)
    for theta in (0.7, -2.9, 0.0):
        real = rotate_coeffs(basis, coeffs.real, theta)
        assert real.dtype == np.float64
        assert np.array_equal(real, rotate_coeffs(basis, coeffs.real.copy(),
                                                  theta))
        assert np.max(np.abs(real - rotate_coeffs(
            basis, coeffs, theta).real)) < 1e-12 * np.max(np.abs(coeffs))


def test_an_action_evaluates_at_most_one_exp(basis117, rng, monkeypatch):
    # Every diagonal phase of an action, its eigen-phases included, comes
    # from one exp over the basis' ramps; a rotation's n_y phases are
    # frozen on the basis.  K_S and K_A take their one diagonal phase from
    # one exp over the diagonals of the array's own shape.
    coeffs = analyze(basis117, random_image(rng, basis117))
    ops = [lambda: rotate_coeffs(basis117, coeffs, 0.9),
           lambda: gyrate_coeffs(basis117, coeffs, -1.3),
           lambda: ks_coeffs(coeffs, 0.8), lambda: ka_coeffs(coeffs, -2.3),
           lambda: ka_coeffs(coeffs.real, 1.1)]
    elements = _EDGE_ELEMENTS + [FourierGroupElement(0.3, 1.9, 2.2, -0.7)]
    ops += [lambda e=e: apply_element_coeffs(basis117, coeffs, e)
            for e in elements]
    before = [op() for op in ops]
    calls = []
    exp = np.exp

    def counted(*args, **kwargs):
        calls.append(args)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    for op, expected in zip(ops, before):
        calls.clear()
        assert np.array_equal(op(), expected)
        assert len(calls) <= 1
    assert len(calls) == 1


def _batch_edge_screens():
    """(2j_x, 2j_y) whose shorter side 2j_min sits one below, at and one
    past an edge of the runs of w spins, and past two; the square ones give
    a top batch of one level.  Both orientations and half-integer spins,
    for runs of w = _BATCH_SPINS and of 8, whose edges fall inside the
    folded spins.  Then the fold's own edges: 2j_min = 2 _BATCH_SPINS - 1,
    an odd fold whose middle spin has a slot of its own, and
    3 _BATCH_SPINS + 1, one past the first run after the fold.  Then the
    layout's crossover X = _WHOLE_BELOW: 2j_min = X - 1 on whole rungs and
    X on halves, in both orientations, each with one half-integer spin.
    Last, whole-rung screens on both sides of the merge of the top spin
    into the fold batch, in both orientations: (100,12), (255,3), (12,3)
    and (2.5,1) keep the top spin apart, (0,7) has no fold, and (5,3),
    (23.5,20) and (11.5,12) merge it."""
    width, x = mode_basis._BATCH_SPINS, mode_basis._WHOLE_BELOW
    runs = [pair for w in (8, width) for pair in (
        (w - 1, w + 4), (w + 3, w), (w + 1, w + 1), (w + 6, w + 1),
        (2 * w, 2 * w + 5), (2 * w + 1, 2 * w + 1), (2 * w + 2, 2 * w + 1))]
    merge = [pair for two_j in ((200, 24), (510, 6), (24, 6), (5, 2),
                                (0, 14), (10, 6), (47, 40), (23, 24))
             for pair in (two_j, two_j[::-1])]
    return runs + [(2 * width + 2, 2 * width - 1),
                   (3 * width + 1, 3 * width + 4),
                   (x - 1, x + 2), (x + 4, x - 1), (x, x + 3),
                   (x + 3, x)] + merge


@pytest.mark.parametrize("two_j", _batch_edge_screens(), ids=str)
def test_batched_mix_matches_little_d_blocks_across_batch_edges(two_j):
    basis = build_basis(ScreenShape(Spin(two_j[0]), Spin(two_j[1])))
    two_jmin, two_jmax = min(two_j), max(two_j)
    width, whole = mode_basis._BATCH_SPINS, basis.halves == 1
    layout = check_split_quarter_turns(basis)
    assert layout == fold_layout(two_jmin, two_jmax, width, whole)
    # One folded batch below F = min(2j_min, 2 width), runs of width spins
    # up to 2j_min, then the top spin alone; on whole rungs, where its
    # levels fit two to a slot of the fold batch, that batch alone.
    fold = min(two_jmin, 2 * width)
    flat = tuple(range(two_jmin, two_jmax + 1))
    if whole and 0 < len(flat) <= 2 * ((fold + 1) // 2):
        assert len(layout) == 1
        assert layout[0][(fold + 1) // 2:] == [
            ((two_jmin, flat[n:n + 2]),) for n in range(0, len(flat), 2)]
    else:
        assert len(layout) == (fold > 0) + -(-(two_jmin - fold) // width) + 1
        assert layout[-1] == [((two_jmin, flat),)]
    for *_, index in basis.batches:
        assert index.min() >= 0 and index.max() <= 2 * two_jmin
    rng = np.random.default_rng(sum(two_j))
    coeffs = random_image(rng, basis)
    scale = np.max(np.abs(coeffs))
    for angles in rng.uniform(-20, 20, (3, 5)):
        element = FourierGroupElement(*angles)
        rotated, gyrated, applied = _level_reference(basis, coeffs, element)
        for got, expected in (
                (rotate_coeffs(basis, coeffs, element.theta), rotated),
                (gyrate_coeffs(basis, coeffs, element.theta), gyrated),
                (apply_element_coeffs(basis, coeffs, element), applied)):
            assert np.max(np.abs(got - expected)) < 1e-12 * scale


@pytest.mark.parametrize("constants", [
    (mode_basis._BATCH_SPINS, mode_basis._WHOLE_BELOW), (2, 4)], ids=str)
def test_every_action_matches_little_d_blocks_on_every_small_screen(
        constants, monkeypatch):
    # Every screen with 2j_x, 2j_y <= 24, under the layout constants and
    # under lowered ones, (2, 4), which put 441 of them on even/odd halves,
    # with their butterflies, middles and run edges; _layout and
    # _batch_slots read the constants at call time.  The error model: an
    # entry's phase is a sum of angle x mode-number terms, at most
    # A (N + 1) with N = 2j_x + 2j_y and A = 100 bounding |chi| + |psi| +
    # |theta| + |phi| + |omega| (each in (-20, 20), and 2 theta < 40 for a
    # rotation or gyration), and the action and the reference each round
    # it to eps of its size.  The worst entry read 6.4e-14 max |x| on
    # (8.5,11), 1/28 of its tolerance, and 10.7 eps (N + 1) max |x| on
    # (0,9.5), 1/19.
    width, whole = constants
    monkeypatch.setattr(mode_basis, "_BATCH_SPINS", width)
    monkeypatch.setattr(mode_basis, "_WHOLE_BELOW", whole)
    for two_jx in range(25):
        for two_jy in range(25):
            basis = build_basis(ScreenShape(Spin(two_jx), Spin(two_jy)))
            two_jmin = min(two_jx, two_jy)
            assert basis.halves == 1 + (two_jmin >= whole)
            assert check_split_quarter_turns(basis) == fold_layout(
                two_jmin, max(two_jx, two_jy), width, basis.halves == 1)
            rng = np.random.default_rng([two_jx, two_jy])
            x = random_image(rng, basis)
            theta = rng.uniform(-20, 20)
            cases = [(rotate_coeffs(basis, x, theta), FourierGroupElement(
                        0, -math.pi / 2, 2 * theta, math.pi / 2)),
                     (gyrate_coeffs(basis, x, theta),
                      FourierGroupElement(0, 0, 2 * theta, 0))]
            cases += [(apply_element_coeffs(basis, x, e), e)
                      for e in (wide_element(rng), wide_element(rng))]
            tolerance = (2 * 100 * np.finfo(float).eps
                         * (two_jx + two_jy + 1) * np.max(np.abs(x)))
            for got, element in cases:
                error = np.max(np.abs(got - level_action(basis, x, element)))
                assert error < tolerance, (two_jx, two_jy, element)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(two_jx=st.integers(0, 40), two_jy=st.integers(0, 40),
       a=st.floats(-20, 20), b=st.floats(-20, 20),
       seed=st.integers(0, 2 ** 32 - 1))
@example(two_jx=0, two_jy=0, a=1.3, b=-19.0, seed=0)
@example(two_jx=1, two_jy=1, a=-7.5, b=2.2, seed=1)
@example(two_jx=1, two_jy=2, a=13.0, b=0.4, seed=2)
@example(two_jx=2, two_jy=1, a=-0.9, b=16.5, seed=3)
def test_rotations_and_gyrations_are_one_parameter_groups(two_jx, two_jy,
                                                          a, b, seed):
    # R(a) R(b) = R(a + b) and G(a) G(b) = G(a + b) on random screens with
    # 2j <= 40, both orientations and half-integer spins included.
    basis = build_basis(ScreenShape(Spin(two_jx), Spin(two_jy)))
    coeffs = random_image(np.random.default_rng(seed), basis)
    scale = np.max(np.abs(coeffs))
    for transform in (rotate_coeffs, gyrate_coeffs):
        twice = transform(basis, transform(basis, coeffs, b), a)
        once = transform(basis, coeffs, a + b)
        assert np.max(np.abs(twice - once)) < 1e-12 * scale


@pytest.mark.parametrize("spins", [(5, 3), (3, 4.5), (20, 12), (64, 48)])
def test_real_rotation_is_real_part_of_complex_path(spins):
    # Real coefficients take the complex path and keep its real part, so
    # the result is float64, bit for bit the real part of the same
    # rotation of x + 0j, whose imaginary part is rounding noise.
    basis = build_basis(spins)
    x = analyze(basis, np.random.default_rng(17).standard_normal(
        basis.shape.pixels))
    scale = np.max(np.abs(x))
    for theta in (0.37, math.pi / 6, -2.8, 11.0):
        real = rotate_coeffs(basis, x, theta)
        full = rotate_coeffs(basis, x + 0j, theta)
        assert real.dtype == np.float64
        assert np.array_equal(real, full.real)
        assert np.max(np.abs(full.imag)) < 1e-12 * scale


def _traced_peak(op):
    """Peak bytes that numpy and Python allocate during ``op()``, and its
    result."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = op()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("real", [False, True])
def test_action_allocates_few_full_size_arrays(real):
    # No op forms a full-grid phase, and every mix gathers from the
    # caller's array or from its n_y-phased copy.  On halves, (64,48), the
    # gathered buffer, 9 % padding, lives until the scatter into the
    # output: a traced peak of 2.37 complex grids, 2.41 with the omega
    # phase.  On whole rungs, (20,12), the gathered buffer goes before the
    # second product: 2.15 grids for a rotation or a gyration, 2.29 for
    # the element.  A real rotation on (64,48) also copies out the float64
    # real part, 4.75 of its float64 outputs.  The bounds leave room for
    # small temporaries only.
    element = FourierGroupElement(1.0, 0.3, 0.8, 2.0, omega=0.2)
    for spins in ((64, 48),) if real else ((64, 48), (20, 12)):
        basis = build_basis(spins)
        coeffs = random_image(np.random.default_rng(23), basis)
        if real:
            coeffs = coeffs.real.copy()
        for op, bound in (
                (lambda: apply_element_coeffs(basis, coeffs, element), 3.25),
                (lambda: rotate_coeffs(basis, coeffs, 0.7),
                 5.0 if real else 3.25),
                (lambda: gyrate_coeffs(basis, coeffs, 0.7), 3.25)):
            op()        # first calls may allocate once for good
            peak, out = _traced_peak(op)
            assert peak <= bound * out.nbytes, (spins, peak / out.nbytes,
                                                out.dtype)


@pytest.mark.parametrize("spins", [(20, 12), (2.5, 1), (24, 24)])
@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_transforms_leave_their_input_alone(spins, dtype):
    # The mix gathers straight from the caller's array on both layouts:
    # every transform leaves its input unchanged and still writeable, on a
    # merged whole-rung screen, an unmerged one and on halves.
    basis = build_basis(spins)
    coeffs = random_image(np.random.default_rng(29), basis)
    if dtype is np.float64:
        coeffs = coeffs.real.copy()
    kept = coeffs.copy()
    element = FourierGroupElement(1.0, 0.3, 0.8, 2.0, omega=0.2)
    for op in (lambda c: rotate_coeffs(basis, c, 0.7),
               lambda c: gyrate_coeffs(basis, c, -1.1),
               lambda c: apply_element_coeffs(basis, c, element),
               lambda c: apply_element_coeffs(
                   basis, c, FourierGroupElement(0.4, 0.0, 2.1, 0.0)),
               lambda c: ks_coeffs(c, 0.4), lambda c: ka_coeffs(c, 0.9),
               lambda c: analyze(basis, c), lambda c: synthesize(basis, c)):
        out = op(coeffs)
        assert out is not coeffs and not np.shares_memory(out, coeffs)
        assert np.array_equal(coeffs, kept) and coeffs.dtype == kept.dtype
        assert coeffs.flags.writeable


def test_transforms_leave_the_mix_layout_to_the_basis():
    # CartesianBasis owns the batched layout of the level mix, so the
    # transforms name none of its parts.
    tree = ast.parse(Path(fourier_transforms.__file__).read_text())
    names = {getattr(node, field) for node in ast.walk(tree)
             for field in ("id", "attr", "arg", "name")
             if isinstance(getattr(node, field, None), str)}
    assert "_mix" in names
    assert not names & {"gather", "scatter", "batches", "two_mu_ramp",
                        "places"}


def test_transforms_form_no_dense_little_d_block(basis117, rng, monkeypatch):
    coeffs = analyze(basis117, random_image(rng, basis117))
    element = FourierGroupElement(0.3, 1.9, 2.2, -0.7, 0.4)
    ops = (lambda: rotate_coeffs(basis117, coeffs, 0.9),
           lambda: gyrate_coeffs(basis117, coeffs, -1.3),
           lambda: apply_element_coeffs(basis117, coeffs, element))
    before = [op() for op in ops]

    def forbidden(*args):
        raise AssertionError("a transform formed a dense little-d block")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] == "fkimage":
            for name in ("_little_d_entries", "wigner_little_d", "_ladder",
                         "_half_step"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
    for op, expected in zip(ops, before):
        assert np.array_equal(op(), expected)


# ------------------------------------------------------ non-finite angles

@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("transform", [
    lambda basis, c, a: rotate_coeffs(basis, c, a),
    lambda basis, c, a: gyrate_coeffs(basis, c, a),
    lambda basis, c, a: ks_coeffs(c, a),
    lambda basis, c, a: ka_coeffs(c, a)],
    ids=["rotate_coeffs", "gyrate_coeffs", "ks_coeffs", "ka_coeffs"])
def test_nonfinite_angle_raises_domain_error(basis53, transform, angle):
    with pytest.raises(DomainError):
        transform(basis53, np.ones(basis53.shape.pixels), angle)


# ------------------------------------------------------------ huge angles

@pytest.mark.parametrize("angle", [1e308, -1e308])
@pytest.mark.parametrize("transform", [
    lambda basis, c, a: rotate_coeffs(basis, c, a),
    lambda basis, c, a: gyrate_coeffs(basis, c, a),
    lambda basis, c, a: ks_coeffs(c, a),
    lambda basis, c, a: ka_coeffs(c, a),
    lambda basis, c, a: apply_element_coeffs(
        basis, c, FourierGroupElement(0.3, a, 1.1, 0.2)),
    lambda basis, c, a: apply_element_coeffs(
        basis, c, FourierGroupElement(a, a, a, a))],
    ids=["rotate_coeffs", "gyrate_coeffs", "ks_coeffs", "ka_coeffs",
         "apply_psi", "apply_all"])
def test_huge_angle_acts_as_its_reduction_mod_4pi(basis53, rng, transform,
                                                  angle):
    # 4 pi is a multiple of every period, so a huge finite angle acts as its
    # remainder: finite, norm-preserving, and equal to the reduced angle.
    coeffs = analyze(basis53, random_image(rng, basis53))
    out = transform(basis53, coeffs, angle)
    assert np.all(np.isfinite(out))
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(coeffs),
                                                rel=1e-12)
    reduced = transform(basis53, coeffs, math.fmod(angle, 4 * math.pi))
    assert np.array_equal(out, reduced)
