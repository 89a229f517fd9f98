"""Gallery and figure generation: mode rhomboids, multiplet rows under
rotation and gyration, and the glyph rotation sequence.

Contact sheets arrange the modes of a screen on axes of total mode number n
(left to right) and mode difference m (bottom to top), the rhomboid layout.
All output is monochrome PGM.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import fourier_transforms as ft
from .errors import DomainError
from .glyph import F_GLYPH_SHAPE, f_glyph
from .imageio import pixels_to_gray, write_pgm
from .mode_basis import CartesianBasis, build_basis, cartesian_mode, lk_mode
from .render import RenderSpec, render, scale_to_unit

__all__ = [
    "mode_gallery",
    "rotation_rows",
    "gyration_rows",
    "glyph_rotation_sequence",
    "regenerate_all",
]

_PAD = 2


def _sheet(cells, n_cols, n_rows, cell_shape):
    """Assemble unit-interval tiles into one sheet array indexed [ix, iy]."""
    w, h = cell_shape
    sheet = np.zeros((n_cols * (w + _PAD) + _PAD, n_rows * (h + _PAD) + _PAD))
    for (col, row), tile in cells.items():
        x0 = _PAD + col * (w + _PAD)
        y0 = _PAD + row * (h + _PAD)
        sheet[x0:x0 + w, y0:y0 + h] = tile
    return sheet


def _write_sheet(sheet01, path):
    write_pgm(path, pixels_to_gray(sheet01, 255), 255)
    return path


def mode_gallery(basis: CartesianBasis, out_dir, kind="cartesian",
                 depth=8) -> dict:
    """Render every mode of a screen plus a rhomboid contact sheet.

    kind='cartesian' renders the real Cartesian modes on the fixed (-1, 1)
    gray range.  kind='lk' renders the Laguerre-Kravchuk modes with the
    real part on the m >= 0 side and the imaginary part of the m > 0 mode
    on the m < 0 side (those are the same arrays up to sign, since the
    family is conjugation-symmetric).
    """
    if kind not in ("cartesian", "lk"):
        raise DomainError(f"unknown gallery kind {kind!r}")
    os.makedirs(out_dir, exist_ok=True)
    shape = basis.shape
    spec = RenderSpec(scaling="fixed", depth=depth, channel="real")
    files = []
    cells = {}
    if kind == "cartesian":
        m_hi = shape.j_x.two_j
        m_lo = -shape.j_y.two_j
        for nx in range(shape.n_x):
            for ny in range(shape.n_y):
                mode = cartesian_mode(basis, (nx, ny))
                name = os.path.join(out_dir, f"mode_nx{nx:02d}_ny{ny:02d}.pgm")
                files.append(render(mode, spec, name))
                cells[(nx + ny, m_hi - (nx - ny))] = scale_to_unit(mode, spec)
        n_rows = m_hi - m_lo + 1
    else:
        m_hi = min(shape.j_x.two_j, shape.j_y.two_j)
        for lev in basis.levels:
            # Each m >= 0 mode once; the m < 0 cells show its conjugate's.
            modes = {m: lk_mode(basis, lev.n, m)
                     for m in lev.two_mu if m >= 0}
            for m in lev.two_mu:
                shown = np.real(modes[m]) if m >= 0 else np.imag(modes[-m])
                name = os.path.join(out_dir, f"lk_n{lev.n:02d}_m{m:+03d}.pgm")
                files.append(render(shown, spec, name))
                cells[(lev.n, m_hi - m)] = scale_to_unit(shown, spec)
        n_rows = 2 * m_hi + 1
    sheet_path = os.path.join(out_dir, f"sheet_{kind}.pgm")
    _write_sheet(_sheet(cells, shape.max_total_mode + 1, n_rows, shape.pixels),
                 sheet_path)
    return {"kind": kind, "count": len(files), "files": files,
            "sheet": sheet_path}


# The levels whose members rotation_rows and gyration_rows show.
_ROW_LEVELS = (4, 18, 32)


def _pick_five(lev):
    """Five evenly spread members of a level (all of them when size <= 5)."""
    if lev.size <= 5:
        return list(range(lev.size))
    picks = np.linspace(0, lev.size - 1, 5)
    return sorted({int(round(p)) for p in picks})


def _multiplet_rows(basis, out_dir, transform, angles, dtype, stage) -> dict:
    """Apply ``transform(basis, coeffs, angle)`` at each angle to five
    members of levels 4, 18 and 32, each a unit coefficient of ``dtype``;
    ``stage(image, member, angle)`` renders one stage, ``member`` naming
    it as ``n04_m+02``, and returns the files it wrote."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"levels": {}, "files": []}
    for n in _ROW_LEVELS:
        lev, nx, ny = basis.level_arrays(n)
        manifest["levels"][int(n)] = {"two_lambda": lev.spin.two_j,
                                      "size": lev.size}
        for k in _pick_five(lev):
            coeffs = np.zeros(basis.shape.pixels, dtype=dtype)
            coeffs[nx[k], ny[k]] = 1.0
            for angle in angles:
                img = ft.synthesize(basis, transform(basis, coeffs, angle))
                manifest["files"] += stage(
                    img, f"n{n:02d}_m{lev.two_mu[k]:+03d}", angle)
    return manifest


def rotation_rows(basis: CartesianBasis, out_dir) -> dict:
    """Rotate five members of levels 4, 18 and 32 by 0, pi/4 and pi/2 and
    render each stage (real gray)."""
    spec = RenderSpec(scaling="fixed", channel="real")

    def stage(img, member, theta):
        name = os.path.join(out_dir, f"rot_{member}_t{theta:.3f}.pgm")
        return [render(np.real(img), spec, name)]

    return _multiplet_rows(basis, out_dir, ft.rotate_coeffs,
                           (0.0, math.pi / 4, math.pi / 2), float, stage)


def gyration_rows(basis: CartesianBasis, out_dir) -> dict:
    """Gyrate five members of levels 4, 18 and 32 by 0 .. pi/4 in steps of
    pi/16; render |.| per stage and the phase of the pi/4 stage."""
    abs_spec = RenderSpec(scaling="adaptive", channel="abs")
    phase_spec = RenderSpec(scaling="adaptive", channel="phase")

    def stage(img, member, gamma):
        stem = os.path.join(out_dir, f"gyr_{member}_g{gamma:.4f}")
        files = [render(img, abs_spec, stem + "_abs.pgm")]
        if gamma == math.pi / 4:
            files.append(render(img, phase_spec, stem + "_phase.pgm"))
        return files

    return _multiplet_rows(basis, out_dir, ft.gyrate_coeffs,
                           (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16,
                            math.pi / 4), complex, stage)


def glyph_rotation_sequence(out_dir) -> dict:
    """Six successive rotations of the F glyph by pi/6 on the 41x25 screen,
    rendered with adaptive gray scaling at each stage."""
    os.makedirs(out_dir, exist_ok=True)
    basis = build_basis(F_GLYPH_SHAPE)
    spec = RenderSpec(scaling="adaptive", channel="real")
    img = f_glyph()
    coeffs = ft.analyze(basis, img)
    manifest = {"files": [render(img, spec, os.path.join(out_dir, "rot_0of6.pgm"))]}
    for k in range(1, 7):
        coeffs = ft.rotate_coeffs(basis, coeffs, math.pi / 6.0)
        stage = ft.synthesize(basis, coeffs)
        manifest["files"].append(render(
            np.real(stage), spec, os.path.join(out_dir, f"rot_{k}of6.pgm")))
    return manifest


def regenerate_all(out_dir) -> dict:
    """Desk-scale analogues of the standard gallery set; returns a manifest
    (also written as manifest.json) with programmatically checkable counts."""
    os.makedirs(out_dir, exist_ok=True)
    basis53 = build_basis((5, 3))
    basis117 = build_basis((11, 7))
    manifest = {
        "cartesian_rhomboid_5_3": mode_gallery(
            basis53, os.path.join(out_dir, "cartesian_rhomboid_5_3")),
        "rotation_rows_11_7": rotation_rows(
            basis117, os.path.join(out_dir, "rotation_rows_11_7")),
        "glyph_rotation_20_12": glyph_rotation_sequence(
            os.path.join(out_dir, "glyph_rotation_20_12")),
        "gyration_rows_11_7": gyration_rows(
            basis117, os.path.join(out_dir, "gyration_rows_11_7")),
        "lk_gallery_5_3": mode_gallery(
            basis53, os.path.join(out_dir, "lk_gallery_5_3"), kind="lk"),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
