"""Self-contained verification suite aggregating the numerical invariants of
every module: special functions, basis construction, transforms, group
algebra, and file round trips.  Its seeded draws and independent references
come from ``fkimage._reference``, which the tests share.

Each check is a generator, registered in run order by ``@_check(name,
tolerance, detail)``, that yields its differences as arrays or numbers; a
counting check yields its count.  ``run_verification`` measures them by
one rule: the deviation is the largest absolute value yielded, NaN if any
is NaN, and a check passes when its deviation is at most its tolerance,
so a NaN fails.  ``verify`` renders the results as the text table or
JSON object of ``fkimage verify``, with its exit code.

A randomized check draws from ``ctx["rng"]``, a generator of its own,
seeded from the run's seed and the check's name,
``np.random.default_rng([seed, *name.encode()])``.  So a check's result
depends only on the seed, its name, the screens and ``images``: it reads
the same run alone as in the full suite, and adding, removing or
reordering checks changes no other check's samples.

The checks of the mode basis follow its structure, so that the suite
runs on screens as large as (100,100) in seconds.
``cartesian_basis_gram`` measures the orthogonality of the one-dimensional
tables, so of the synthesis.  Each Laguerre-Kravchuk mode is the
synthesis of coefficients on one level, so ``lk_basis_gram`` measures,
level by level, ``B B^H - I`` for the square block B of the level's LK
coefficients, not a Gram of every mode image.
``quarter_turn_reflection`` compares the stored quarter-turn tables with
the rungs of one ladder walk at pi/2 per screen.

The paper's claim that the group acts unitarily is measured op by op in
coefficient space: ``coefficient_unitarity`` yields |norm(y) - 1| of each
rotation, gyration, element, K_S and K_A of unit-norm coefficients in
units of eps (sqrt(N_x N_y) + 8), with a tolerance of 1.  Inner-product
rounding grows like sqrt(n) eps in the probabilistic model of Higham and
Mary (SIAM J. Sci. Comput. 41(5), 2019), and the floor of 8 pays for the
norm's own rounding, 1.5 to 2 eps, which reads above 1 in the bare unit
eps sqrt(N_x N_y) on screens of a few pixels.  Clean code reads at most
0.16 on screens from (0,0) to (255,3), and a per-op norm bias of 1e-13
fails from (5,3) to (100,100).  Analyze and
synthesize are left out: ``cartesian_basis_gram`` checks their law.
``littled_kravchuk_crosscheck`` checks the exact Kravchuk tables it reads
for orthonormality as well.

One check, ``rotation_pi_is_pixel_inversion``, fails on genuinely
rectangular screens and is reported as a known limitation, a property of
the construction: the mid-rhomboid levels carry the flat spin
min(j_x, j_y) instead of n/2, so a half-turn multiplies them by
(-1)^{2 j_min} rather than the (-1)^n of an exact pixel inversion, and
when 2 j_x + 2 j_y is odd the upper-triangle levels disagree too.  The
check measures that deviation; it vanishes on square screens (see the
README).  ``rotation_pi_half_turn_law`` checks the exact law the
construction gives instead, and passes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
import time

import numpy as np

from . import fourier_transforms as ft
from . import group_algebra as ga
from ._reference import (gyrate_coeffs_sandwich, interval_levels,
                         level_action, random_element, random_image,
                         wide_element)
from .glyph import f_glyph
from .imageio import load_complex, load_image, pixels_to_gray, read_pgm, \
    save_complex, write_pgm
from .mode_basis import _WHOLE_BELOW, ScreenShape, _frozen, _lk_block, \
    _quarter_turn, build_basis, cartesian_mode, level_spectrum, lk_mode
from .render import RenderSpec, scale_to_unit
from .special_functions import Spin, _integer, _ladder, _Value, \
    kravchuk_function, wigner_little_d

__all__ = ["CheckResult", "run_verification", "DEFAULT_SHAPES", "KNOWN_LIMITATIONS"]

# (5,3), (11,7) and (20,12): integer spins with j_x > j_y, their low spins
# folded two to a slot, (20,12) at the even fold 2 j_min = 24.  (2.5,1) and
# (3,4.5): half-integer spins, the latter in the j_x < j_y orientation.
# (13,12.5): the odd fold 2 j_min = 25, whose middle spin has a slot of
# its own.  These mix on whole quarter-turn rungs, all but (2.5,1) in one
# batch, the top spin's levels two to a slot of the fold's batch; (2.5,1)
# keeps its top spin apart.  (24,24), the smallest screen with
# 2 j_min = mode_basis._WHOLE_BELOW = 48, mixes on even/odd halves.
DEFAULT_SHAPES = ((5, 3), (11, 7), (20, 12), (2.5, 1), (3, 4.5),
                  (13, 12.5), (24, 24))

# Element pairs drawn by the randomized group-action checks.
_PAIRS = 25

# Checks that cannot pass on rectangular screens; kept in the suite so the
# behavior is measured and reported rather than hidden.
KNOWN_LIMITATIONS = ("rotation_pi_is_pixel_inversion",)


class CheckResult(_Value):
    """One check's outcome: it passes when ``deviation <= tolerance``."""

    def __init__(self, name: str, passed: bool, detail: str, seconds: float,
                 deviation: float, tolerance: float,
                 known_limitation: bool = False, error: str = ""):
        # error: "Type: message" of the exception, if the check raised
        self.__dict__.update(
            name=name, passed=passed, detail=detail, seconds=seconds,
            deviation=deviation, tolerance=tolerance,
            known_limitation=known_limitation, error=error)

    @property
    def headroom(self) -> float:
        """tolerance / deviation; infinite for a deviation of zero."""
        return self.tolerance / self.deviation if self.deviation else math.inf

    def as_dict(self) -> dict:
        """The fields ``fkimage verify --json`` prints for each check; an
        infinite or NaN deviation, tolerance or headroom becomes None, so
        the output stays valid JSON."""
        def number(value):
            return value if math.isfinite(value) else None

        return {"name": self.name, "passed": self.passed,
                "deviation": number(self.deviation),
                "tolerance": number(self.tolerance),
                "headroom": number(self.headroom),
                "seconds": self.seconds,
                "known_limitation": self.known_limitation}


# ---------------------------------------------------------------------------
# individual checks: generators of differences, registered in run order
# ---------------------------------------------------------------------------

# (name, tolerance, detail, check) in the order the suite runs them.
_CHECKS = []


def _check(name, tolerance, detail):
    """Register the decorated generator as the check ``name``."""
    def register(fn):
        _CHECKS.append((name, tolerance, detail, fn))
        return fn
    return register


@functools.cache
def _kravchuk_table(two_j: int) -> np.ndarray:
    """Psi_n(q) of spin two_j/2: row n, column q ascending, frozen and
    built once per process for each integer ``two_j``.

    ``kravchuk_function`` runs only for n <= i, i the column: its
    polynomial K_n(i) = K_i(n) is an exact integer sum and its prefactor is
    symmetric, so ``T[i, n] = (-1)^(n + i) T[n, i]`` bit for bit."""
    n, i = np.triu_indices(two_j + 1)
    table = np.empty((two_j + 1, two_j + 1))
    table[n, i] = [kravchuk_function(Spin(two_j), a, (2 * b - two_j) / 2.0)
                   for a, b in zip(n.tolist(), i.tolist())]
    table[i, n] = (-1.0) ** (n + i) * table[n, i]
    return _frozen(table)


@_check("littled_orthogonality", 1e-9, "max |d d^T - I| over 2*lambda <= 80")
def _check_littled_orthogonality(ctx):
    # One walk of the ladder per beta yields every rung the check reads,
    # each bit for bit wigner_little_d's: the angles are inside (0, 4 pi).
    spins = set(range(0, 21)) | {25, 31, 40, 61, 80}
    for beta in (0.21, math.pi / 2, 1.0, math.pi, 2.5, 4.0, 5.9, 7.3, 11.0):
        for two_l, d in enumerate(_ladder(80, beta)):
            if two_l in spins:
                yield d @ d.T - np.eye(two_l + 1)


@_check("littled_group_law", 1e-10,
        "d(b1) d(b2) = d(b1+b2), and at b2 = 2 pi and 4 pi, where d(b2) = "
        "(-1)^(2 lambda) I and I")
def _check_littled_group_law(ctx):
    rng = ctx["rng"]
    for two_l in (1, 2, 5, 7, 14, 24, 31, 33, 40):
        def d(beta):
            return wigner_little_d(Spin(two_l), beta).entries
        for _ in range(4):
            b1, b2 = rng.uniform(-7, 7, size=2)
            yield d(b1) @ d(b2) - d(b1 + b2)
            yield d(b1 + 2 * math.pi) - (-1.0) ** two_l * d(b1)
            yield d(b1 + 4 * math.pi) - d(b1)


@_check("littled_kravchuk_crosscheck", 1e-10,
        "d^j_{n-j,q}(pi/2) vs Kravchuk function, and sum_q Psi_n Psi_n' "
        "= delta, 2j <= 40")
def _check_littled_kravchuk(ctx):
    # Row n of the reversed block is mu = n - j, column q ascending.  One
    # walk yields every rung, each bit for bit wigner_little_d's.
    for two_j, d in enumerate(_ladder(40, math.pi / 2)):
        table = _kravchuk_table(two_j)
        yield d[::-1, ::-1] - table
        yield table @ table.T - np.eye(two_j + 1)


@_check("level_boundary_consistency", 0.5,
        "each level's members by ascending n_y, with their 2 lambda and "
        "2 mu, vs the triangle and mid-rhomboid formulas; level sizes sum "
        "to N_x N_y; 50 shapes")
def _check_interval_levels(ctx):
    # The oracle lists a level's members by ascending n_y, 2 mu falling by
    # 2 from 2 lambda, so the ordered comparison checks the order too.
    rng = ctx["rng"]
    bad = 0
    for _ in range(50):
        two_jx = int(rng.integers(0, 41))
        two_jy = int(rng.integers(0, 41))
        shape = ScreenShape(Spin(two_jx), Spin(two_jy))
        total = 0
        for n in range(shape.max_total_mode + 1):
            lev = level_spectrum(shape, n)
            total += lev.size
            got = [((n - ny, ny), (lev.spin.two_j, tm))
                   for ny, tm in zip(lev.n_y, lev.two_mu)]
            bad += got != list(interval_levels(two_jx, two_jy, n).items())
        bad += total != shape.mode_count
    yield bad


@_check("checkerboard_relation", 1e-12,
        "antipodal-mode checkerboard relation (integer spins)")
def _check_checkerboard(ctx):
    # mode (2jx-nx, 2jy-ny) = (-1)^(jx+jy) * (-1)^(qx+qy) * mode (nx, ny)
    # for integer spins; the constant drops out when jx+jy is even.
    for (jx, jy) in ((5, 3), (4, 4), (6, 2), (2, 1)):
        basis = ctx["get_basis"]((jx, jy))
        qx = basis.shape.q_x()[:, None]
        qy = basis.shape.q_y()[None, :]
        checker = (-1.0) ** (jx + jy) * (-1.0) ** (qx + qy)
        for _ in range(6):
            nx = int(ctx["rng"].integers(0, basis.shape.n_x))
            ny = int(ctx["rng"].integers(0, basis.shape.n_y))
            a = cartesian_mode(basis, (basis.shape.j_x.two_j - nx,
                                       basis.shape.j_y.two_j - ny))
            b = cartesian_mode(basis, (nx, ny))
            yield a - checker * b


@_check("cartesian_basis_gram", 1e-10, "1-D Gram and completeness on all screens")
def _check_basis_gram(ctx):
    for basis in ctx["screens"]():
        for phi in (basis.phi_x, basis.phi_y):
            eye = np.eye(phi.shape[0])
            yield phi @ phi.T - eye
            yield phi.T @ phi - eye


@_check("quarter_turn_reflection", 1e-14,
        "max |V - d(pi/2)|, V read from the stored whole table below "
        f"2 j_min = {_WHOLE_BELOW}, and from it up rebuilt from its even/odd "
        "half blocks by V[2 lambda - r, c] = (-1)^c V[r, c]")
def _check_quarter_turn_reflection(ctx):
    # Below 2 j_min = _WHOLE_BELOW a basis stores each quarter-turn rung
    # whole, as the symmetric U = V diag((-1)^c), and this measures V read
    # from the stored U against the rung.  From it up, a basis keeps
    # only the top rows of each rung's even and odd columns, and the mix
    # takes the bottom rows from the reflection law
    # V[2 lambda - r, c] = (-1)^c V[r, c]; the rung rebuilt that way is
    # measured against the whole rung.
    for basis in ctx["screens"]():
        two_jmin = min(basis.shape.j_x.two_j, basis.shape.j_y.two_j)
        for two_l, d in enumerate(_ladder(two_jmin, math.pi / 2)):
            yield _quarter_turn(basis, two_l) - d


@_check("lk_basis_gram", 1e-10, "max |B B^H - I|, B a level's LK mode coefficients")
def _check_lk_basis(ctx):
    # Each LK mode is the synthesis of coefficients on its own level, and
    # cartesian_basis_gram checks that the synthesis is orthogonal.  So the
    # modes are orthonormal and complete when each level's square block B
    # of coefficients, row m the mode (n, m) on the level's members, is
    # unitary.
    for basis in ctx["screens"]():
        for lev in basis.levels:
            b = _lk_block(basis, lev.spin.two_j)
            yield b @ b.conj().T - np.eye(lev.size)


@_check("lk_conjugation_symmetry", 1e-12, "Lambda_{n,-m} = conj(Lambda_{n,m}) on (5,3)")
def _check_lk_conjugation(ctx):
    basis = ctx["get_basis"]((5, 3))
    for lev in basis.levels:
        for two_mu in lev.two_mu:
            a = lk_mode(basis, lev.n, two_mu)
            b = lk_mode(basis, lev.n, -two_mu)
            yield b - np.conj(a)


@_check("coefficient_unitarity", 1.0,
        "|norm(y) - 1| / (eps (sqrt(N_x N_y) + 8)), y = R, G, D, K_S and "
        "K_A of unit-norm coefficients")
def _check_coefficient_unitarity(ctx):
    # Each op on its own, in coefficient space, so the analyze/synthesize
    # shrink that cartesian_basis_gram bounds cannot hide a per-op norm
    # bias; the unit is the module docstring's.
    rng = ctx["rng"]
    for basis in ctx["screens"]():
        unit = np.finfo(float).eps * (math.sqrt(basis.shape.mode_count) + 8)
        for _ in range(ctx["images"]):
            x = random_image(rng, basis)
            x /= np.linalg.norm(x)
            for y in (ft.rotate_coeffs(basis, x, rng.uniform(0, 7)),
                      ft.gyrate_coeffs(basis, x, rng.uniform(0, 7)),
                      ft.apply_element_coeffs(basis, x, wide_element(rng)),
                      ft.ks_coeffs(x, rng.uniform(0, 7)),
                      ft.ka_coeffs(x, rng.uniform(0, 7))):
                yield (np.linalg.norm(y) - 1.0) / unit


@_check("one_parameter_subgroups", 1e-9,
        "R(a) R(b) = R(a+b) and R(a) R(2 pi - a) = identity, the same for "
        "G; six R(pi/6) = R(pi) on the (20,12) glyph")
def _check_one_parameter_subgroups(ctx):
    # a in (0, 3): 2 (2 pi - a) lies in (2 pi, 4 pi), so an angle reduced
    # mod 2 pi, not 4 pi, breaks the identity on half-integer levels.
    rng = ctx["rng"]
    for basis in ctx["screens"]():
        coeffs = ft.analyze(basis, random_image(rng, basis))
        for act in (ft.rotate_coeffs, ft.gyrate_coeffs):
            a, b = rng.uniform(0, 3, size=2)
            once = act(basis, coeffs, a)
            yield act(basis, once, b) - act(basis, coeffs, a + b)
            yield act(basis, once, 2.0 * math.pi - a) - coeffs
    basis = ctx["get_basis"]((20, 12))
    coeffs = ft.analyze(basis, f_glyph().astype(complex))
    six = coeffs.copy()
    for _ in range(6):
        six = ft.rotate_coeffs(basis, six, math.pi / 6.0)
    one = ft.rotate_coeffs(basis, coeffs, math.pi)
    yield ft.synthesize(basis, six - one)


@_check("rotation_pi_is_pixel_inversion", 1e-9,
        "rotate(pi) vs pixel map (q_x,q_y) -> (-q_x,-q_y)")
def _check_rotation_pi_parity(ctx):
    for basis in ctx["screens"]():
        img = random_image(ctx["rng"], basis)
        yield ft.rotate_image(basis, img, math.pi) - img[::-1, ::-1]


@_check("rotation_pi_half_turn_law", 1e-9,
        "rotate(pi) = pixel inversion + 2 (-1)^(2 lambda) "
        "x the mismatched-parity levels; the rest inverted")
def _check_rotation_pi_half_turn_law(ctx):
    # A half-turn multiplies level n by (-1)^(2 lambda(n)) and the pixel
    # inversion by (-1)^n.  On the levels where the two parities differ
    # (flat levels whose n has the other parity from 2 j_min, and every
    # upper-triangle level when 2 j_x + 2 j_y is odd) rotate(pi) adds twice
    # the level's content times (-1)^(2 lambda); the rest of the image is
    # inverted exactly.
    for basis in ctx["screens"]():
        img = random_image(ctx["rng"], basis)
        sign = np.zeros(basis.shape.pixels)
        for n in range(basis.shape.max_total_mode + 1):
            lev, nx, ny = basis.level_arrays(n)
            if (lev.spin.two_j - n) % 2:
                sign[nx, ny] = (-1.0) ** lev.spin.two_j
        coeffs = ft.analyze(basis, img)
        content = ft.synthesize(basis, sign * coeffs)
        rot = ft.rotate_image(basis, img, math.pi)
        yield rot - img[::-1, ::-1] - 2.0 * content
        rest = ft.synthesize(basis, np.where(sign == 0.0, coeffs, 0.0))
        yield ft.rotate_image(basis, rest, math.pi) - rest[::-1, ::-1]


@_check("level_invariance", 0.0,
        "rotation/gyration amplitude never leaves a level (exact)")
def _check_level_invariance(ctx):
    basis = ctx["get_basis"]((11, 7))
    rng = ctx["rng"]
    for _ in range(5):
        n = int(rng.integers(0, basis.shape.max_total_mode + 1))
        lev, nx, ny = basis.level_arrays(n)
        coeffs = np.zeros(basis.shape.pixels, dtype=complex)
        coeffs[nx[0], ny[0]] = 1.0
        for out in (ft.rotate_coeffs(basis, coeffs, 0.7),
                    ft.gyrate_coeffs(basis, coeffs, 1.1)):
            mask = np.ones(basis.shape.pixels, dtype=bool)
            mask[nx, ny] = False
            yield out[mask]


@_check("rotation_realness", 1e-10,
        "max |Im R(theta) x| / max |x|, x the real coefficients of a real "
        "image, rotated as complex data")
def _check_rotation_realness(ctx):
    # rotate_coeffs returns the real part of a real input's rotation, so
    # the real coefficients go in as complex to show what the mix gives.
    rng = ctx["rng"]
    for basis in ctx["screens"]():
        x = ft.analyze(basis, rng.standard_normal(basis.shape.pixels))
        out = ft.rotate_coeffs(basis, x + 0j, rng.uniform(0, 7))
        yield out.imag / np.max(np.abs(x))


@_check("fourier_phase_laws", 1e-12, "fractional Fourier phase laws")
def _check_fourier_phases(ctx):
    rng = ctx["rng"]
    basis = ctx["get_basis"]((5, 3))
    coeffs = ft.analyze(basis, random_image(rng, basis))
    # identity and 2 pi periodicity (integer mode numbers)
    yield ft.ks_coeffs(coeffs, 0.0) - coeffs
    yield ft.ks_coeffs(coeffs, 2 * math.pi) - coeffs
    # additivity
    b1, b2 = rng.uniform(-4, 4, size=2)
    a = ft.ka_coeffs(ft.ka_coeffs(coeffs, b1), b2)
    yield a - ft.ka_coeffs(coeffs, b1 + b2)
    # K_A at pi is the (-1)^(n_x - n_y) checker
    nx = np.arange(basis.shape.n_x)[:, None]
    ny = np.arange(basis.shape.n_y)[None, :]
    yield ft.ka_coeffs(coeffs, math.pi) - coeffs * (-1.0) ** (nx - ny)
    # K_S commutes with rotation
    t, chi = rng.uniform(0, 4, size=2)
    a = ft.ks_coeffs(ft.rotate_coeffs(basis, coeffs, t), chi)
    yield a - ft.rotate_coeffs(basis, ft.ks_coeffs(coeffs, chi), t)


@_check("gyration_direct_vs_sandwich", 1e-10,
        "direct gyration and K_A(pi/4) R K_A(-pi/4) vs "
        "per-level little-d blocks")
def _check_gyration_sandwich(ctx):
    rng = ctx["rng"]
    basis = ctx["get_basis"]((11, 7))
    coeffs = ft.analyze(basis, random_image(rng, basis))
    for gamma in (math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4):
        ref = level_action(basis, coeffs,
                           ga.FourierGroupElement(0, 0, 2 * gamma, 0))
        yield ft.gyrate_coeffs(basis, coeffs, gamma) - ref
        yield gyrate_coeffs_sandwich(basis, coeffs, gamma) - ref


@_check("apply_element_reductions", 1e-12,
        "Euler element reduces to its factors; gyration, rotation and "
        "omega-carrying elements vs per-level little-d blocks on (5,3) "
        "and (3,4.5), rotate_coeffs and wide elements on every screen")
def _check_apply_reductions(ctx):
    rng = ctx["rng"]
    basis = ctx["get_basis"]((5, 3))
    img = random_image(rng, basis)
    coeffs = ft.analyze(basis, img)
    yield ft.apply_element(basis, img, ga.FourierGroupElement.identity()) - img
    theta = rng.uniform(0, 2)
    for element in (ga.FourierGroupElement(0, 0, 2 * theta, 0),
                    ga.FourierGroupElement(0, -math.pi / 2, 2 * theta,
                                           math.pi / 2)):
        yield (ft.apply_element_coeffs(basis, coeffs, element)
               - level_action(basis, coeffs, element))
    chi, psi, phi = rng.uniform(0, 4, size=3)
    b = ft.apply_element(basis, img, ga.FourierGroupElement(chi, psi, 0, phi))
    yield b - ft.synthesize(basis, ft.ks_coeffs(
        ft.ka_coeffs(coeffs, (psi + phi) / 2), chi / 2))
    # Elements with an explicit omega, in both orientations.
    for key in ((5, 3), (3, 4.5)):
        screen = ctx["get_basis"](key)
        for _ in range(_PAIRS):
            element = wide_element(rng)
            x = random_image(rng, screen)
            yield (ft.apply_element_coeffs(screen, x, element)
                   - level_action(screen, x, element))
    # Every screen of the run, so both mix layouts: rotate_coeffs and a few
    # wide elements against the per-level blocks, on an image of unit
    # norm.  The phases' rounding grows with mode number times angle: on
    # images of max |x| about 4.5, elements read 1.1e-12 on (64,48) and
    # 2.6e-12 on (100,100), so here the deviation is relative to |x|.
    for basis in ctx["screens"]():
        x = random_image(rng, basis)
        x /= np.linalg.norm(x)
        theta = rng.uniform(-7, 7)
        yield (ft.rotate_coeffs(basis, x, theta) - level_action(
            basis, x, ga.FourierGroupElement(0, -math.pi / 2, 2 * theta,
                                             math.pi / 2)))
        for _ in range(3):
            element = wide_element(rng)
            yield (ft.apply_element_coeffs(basis, x, element)
                   - level_action(basis, x, element))


@_check("matrix_homomorphism", 1e-12,
        "to_matrix(compose(a,b)) = to_matrix(a) to_matrix(b)")
def _check_matrix_homomorphism(ctx):
    rng = ctx["rng"]
    for _ in range(50):
        a, b = random_element(rng), random_element(rng)
        yield ga.to_matrix(ga.compose(a, b)) - ga.to_matrix(a) @ ga.to_matrix(b)


@_check("from_matrix_roundtrip", 1e-10,
        "to_matrix(from_matrix(U)) = U, canonical ranges; random and scalar U")
def _check_from_matrix_roundtrip(ctx):
    rng = ctx["rng"]
    bad_range = 0
    # Random elements, then the scalar matrices exp(-i chi/2) I, whose
    # Euler angles fold next to 0 and 2 pi.
    matrices = [ga.to_matrix(random_element(rng)) for _ in range(200)]
    matrices += [np.exp(-0.5j * chi) * np.eye(2)
                 for chi in np.linspace(-20.0, 20.0, 4001)]
    for u in matrices:
        r = ga.from_matrix(u)
        yield ga.to_matrix(r) - u
        bad_range += not (0 <= r.chi < 4 * math.pi and 0 <= r.psi < 2 * math.pi
                          and 0 <= r.theta <= math.pi and 0 <= r.phi < 2 * math.pi)
    yield bad_range


@_check("image_action_group_law", 1e-9,
        "apply(compose(a,b)) = apply(a) after apply(b), and apply(inverse(b)) "
        "undoes apply(b); angles in (-20, 20)")
def _check_image_action_group_law(ctx):
    rng = ctx["rng"]
    basis = ctx["get_basis"]((5, 3))
    for _ in range(_PAIRS):
        a, b = wide_element(rng), wide_element(rng)
        img = random_image(rng, basis)
        after_b = ft.apply_element(basis, img, b)
        yield (ft.apply_element(basis, img, ga.compose(a, b))
               - ft.apply_element(basis, after_b, a))
        yield ft.apply_element(basis, after_b, ga.inverse(b)) - img


@_check("file_roundtrips", 0.5 / 255.0, "complex files bit-exact; PGM to quantization")
def _check_file_roundtrips(ctx):
    rng = ctx["rng"]
    with tempfile.TemporaryDirectory() as tmp:
        arr = (rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6)))
        path = os.path.join(tmp, "x.fkimg")
        save_complex(path, arr)
        back = load_complex(path)
        yield not np.array_equal(back.view(np.float64), arr.view(np.float64))
        gray = rng.integers(0, 256, size=(7, 5))
        for binary in (True, False):
            p = os.path.join(tmp, f"g{binary}.pgm")
            write_pgm(p, gray, 255, binary=binary)
            g2, mv = read_pgm(p)
            yield mv != 255 or not np.array_equal(gray, g2)
        values = rng.uniform(0, 1, size=(8, 4))
        p = os.path.join(tmp, "q.pgm")
        write_pgm(p, pixels_to_gray(values, 65535), 65535)
        _, pix = load_image(p)
        yield pix - values


@_check("render_rules", 1e-12,
        "fixed-range positivity; constant image maps to mid-gray")
def _check_render_rules(ctx):
    basis = ctx["get_basis"]((5, 3))
    unit = scale_to_unit(cartesian_mode(basis, (0, 0)),
                         RenderSpec(scaling="fixed"))
    yield not np.all(unit > 0.5)
    flat = scale_to_unit(np.full((4, 4), 2.7), RenderSpec(scaling="adaptive"))
    yield flat - 0.5


def run_verification(shapes=DEFAULT_SHAPES, images=20, seed=2024):
    """Run every invariant check, each at its own tolerance, and return a
    list of CheckResult.  ``images``, a positive integer, sets the sample
    count of the randomized per-screen checks, and ``seed``, a
    non-negative integer, fixes every check's draws: each check gets a
    generator seeded from ``seed`` and its name (see the module
    docstring).  Anything else raises ``DomainError``.

    A check's deviation is the largest absolute value it yields, NaN if
    any is NaN; a NaN deviation fails.  The bases are built on first use,
    inside the checks.  A check that raises, in its own code or in a basis
    build, fails: its ``error`` and detail hold the exception's type and
    message, its deviation is infinite and its tolerance NaN, and the other
    checks still run.
    """
    images, seed = _integer(images, "images", 1), _integer(seed, "seed")
    cache = {}

    def get_basis(key):
        if key not in cache:
            cache[key] = build_basis(key)
        return cache[key]

    def screens():
        return map(get_basis, map(tuple, shapes))

    ctx = {"screens": screens, "images": images, "get_basis": get_basis}
    results = []
    for name, tol, detail, check in _CHECKS:
        t0 = time.monotonic()
        ctx["rng"] = np.random.default_rng([seed, *name.encode()])
        error, deviation = "", 0.0
        try:
            for value in check(ctx):    # np.maximum keeps a NaN
                deviation = np.maximum(deviation, np.max(np.abs(value)))
        except Exception as exc:        # reported as this check's failure
            deviation, tol = math.inf, math.nan
            error = f"{type(exc).__name__}: {exc}"
            detail = f"raised {error}"
        else:
            detail = (f"{detail}: deviation {deviation:.3e} "
                      f"(tolerance {tol:.1e})")
        results.append(CheckResult(
            name, passed=bool(deviation <= tol), detail=detail,
            seconds=time.monotonic() - t0, deviation=float(deviation),
            tolerance=float(tol), error=error,
            known_limitation=name in KNOWN_LIMITATIONS and not error))
    return results


def verify(shapes, images, seed, as_json):
    """Run the suite and return ``(report, exit_code)`` for ``fkimage
    verify``: the text table, or with ``as_json`` one JSON object, and 3
    if any check failed, known limitations included, else 0."""
    results = run_verification(shapes, images, seed)
    failed = [r for r in results if not r.passed]
    unexpected = [r for r in failed if not r.known_limitation]
    code = 3 if failed else 0
    if as_json:
        return json.dumps({
            "checks": [r.as_dict() for r in results],
            "passed": len(results) - len(failed),
            "total": len(results),
            "unexpected_failures": len(unexpected),
            "errors": {r.name: r.error for r in results if r.error}},
            indent=1), code
    width = max(len(r.name) for r in results)
    lines = [f"{'check':<{width}}  {'':4}  {'seconds':>7}  {'headroom':>8}  detail"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        note = "  [known limitation]" if not r.passed and r.known_limitation else ""
        lines.append(f"{r.name:<{width}}  {status}  {r.seconds:7.3f}  "
                     f"{r.headroom:8.2g}  {r.detail}{note}")
    known = len(failed) - len(unexpected)
    lines.append(f"\n{len(results) - len(failed)}/{len(results)} checks passed"
                 + (f"; {known} known limitation(s)" if known else ""))
    if unexpected:
        lines.append(f"{len(unexpected)} unexpected failure(s)")
    return "\n".join(lines), code
