import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fkimage
from fkimage import (DomainError, FourierGroupElement, Spin, analyze,
                     apply_element_coeffs, build_basis, gyrate_coeffs,
                     kravchuk_function, lk_coefficients, rotate_coeffs,
                     wigner_little_d)
from fkimage.special_functions import _ladder, kravchuk_polynomial

from oracles import kravchuk_fraction, little_d_expm, psi_reference

SQ2 = math.sqrt(0.5)


# ---------------------------------------------------------------- Spin

def test_spin_basic():
    s = Spin.from_j(2.5)
    assert s.two_j == 5
    assert s.j == 2.5
    assert s.dimension == 6
    assert Spin.from_j(3) == Spin(6)


@pytest.mark.parametrize("bad", [-1, 0.3, -0.5])
def test_spin_rejects_bad_values(bad):
    with pytest.raises(DomainError):
        Spin.from_j(bad)


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_bool_is_not_an_integer_label(flag):
    # A bool is an int to Python, but no spin, mode or position.
    calls = (lambda: Spin(flag), lambda: Spin.from_j(flag),
             lambda: fkimage.ScreenShape.of(flag, 1),
             lambda: fkimage.ScreenShape.of(1, flag),
             lambda: fkimage.ScreenShape.from_pixels(flag, 3),
             lambda: kravchuk_function(2, flag, 0),
             lambda: kravchuk_function(flag, 0, 0),
             lambda: kravchuk_function(2, 0, flag),
             lambda: kravchuk_polynomial(flag, 0, 2))
    for call in calls:
        with pytest.raises(DomainError):
            call()
    assert Spin(np.int64(3)).two_j == 3
    assert kravchuk_function(2, np.int64(1), 0) == kravchuk_function(2, 1, 0)


# ------------------------------------------------- Kravchuk polynomial

def test_degree_zero_is_one():
    for s in range(5):
        assert kravchuk_polynomial(0, s, 4) == 1.0


def test_hand_values_two_j_one():
    # 2F1(-1, -s; -1; 2) = 1 - 2 s
    assert kravchuk_polynomial(1, 0, 1) == 1.0
    assert kravchuk_polynomial(1, 1, 1) == -1.0


def test_symmetry_n_s():
    assert kravchuk_polynomial(2, 3, 4) == kravchuk_polynomial(3, 2, 4)
    for two_j in (3, 6, 9):
        for n in range(two_j + 1):
            for s in range(n, two_j + 1):
                assert kravchuk_polynomial(n, s, two_j) == pytest.approx(
                    kravchuk_polynomial(s, n, two_j), abs=0.0)


def test_matches_exact_fraction_oracle():
    for two_j in range(0, 13):
        for n in range(two_j + 1):
            for s in range(two_j + 1):
                exact = float(kravchuk_fraction(n, s, two_j))
                got = kravchuk_polynomial(n, s, two_j)
                assert got == pytest.approx(exact, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("n,s,two_j", [(-1, 0, 4), (5, 0, 4), (0, -2, 4),
                                       (0, 5, 4), (1, 1, -2)])
def test_polynomial_domain_errors(n, s, two_j):
    with pytest.raises(DomainError):
        kravchuk_polynomial(n, s, two_j)


# --------------------------------------------------- Kravchuk function

def test_ground_state_spin_one():
    values = [kravchuk_function(1, 0, q) for q in (-1, 0, 1)]
    assert values == pytest.approx([0.5, SQ2, 0.5], abs=1e-15)


def test_half_spin_values():
    assert kravchuk_function(0.5, 0, -0.5) == pytest.approx(SQ2, abs=1e-15)
    assert kravchuk_function(0.5, 0, 0.5) == pytest.approx(SQ2, abs=1e-15)
    assert kravchuk_function(0.5, 1, -0.5) == pytest.approx(-SQ2, abs=1e-15)
    assert kravchuk_function(0.5, 1, 0.5) == pytest.approx(SQ2, abs=1e-15)


def test_matches_rational_reference():
    for two_j in (1, 2, 5, 9, 16, 40):
        for n in range(two_j + 1):
            for col in range(two_j + 1):
                two_q = two_j - 2 * col
                assert kravchuk_function(Spin(two_j), n, two_q / 2.0) == \
                    pytest.approx(psi_reference(two_j, n, two_q), abs=5e-14)


def test_sign_change_integer_spin():
    # Psi_{2j-n}(q) = (-1)^(j+q) Psi_n(q) for integer j; the (-1)^j constant
    # follows from the K_n(s) <-> K_s(n) symmetry plus the argument
    # reflection K_n(2j-s) = (-1)^n K_n(s). For even j this is the familiar
    # plain (-1)^q alternation.
    for j in (1, 2, 3, 5):
        for n in range(2 * j + 1):
            for q in range(-j, j + 1):
                lhs = kravchuk_function(j, 2 * j - n, q)
                rhs = (-1) ** (j + q) * kravchuk_function(j, n, q)
                assert lhs == pytest.approx(rhs, abs=1e-12)


def test_spatial_parity():
    # Psi_n(-q) = (-1)^n Psi_n(q) for every spin
    for two_j in (3, 4, 7):
        for n in range(two_j + 1):
            for col in range(two_j + 1):
                q = (two_j - 2 * col) / 2.0
                assert kravchuk_function(Spin(two_j), n, -q) == pytest.approx(
                    (-1) ** n * kravchuk_function(Spin(two_j), n, q), abs=1e-13)


def test_ground_state_positive():
    for two_j in (1, 2, 9, 24):
        for col in range(two_j + 1):
            assert kravchuk_function(Spin(two_j), 0, (two_j - 2 * col) / 2.0) > 0


def test_orthonormality():
    for two_j in (1, 2, 3, 8, 21, 40):
        dim = two_j + 1
        table = np.array([[kravchuk_function(Spin(two_j), n, (2 * i - two_j) / 2.0)
                           for i in range(dim)] for n in range(dim)])
        assert np.max(np.abs(table @ table.T - np.eye(dim))) < 1e-10


def test_function_domain_errors():
    with pytest.raises(DomainError):
        kravchuk_function(1, 3, 0)       # n out of range
    with pytest.raises(DomainError):
        kravchuk_function(1, 0, 2)       # q out of range
    with pytest.raises(DomainError):
        kravchuk_function(1, 0, 0.5)     # q parity mismatch
    with pytest.raises(DomainError):
        kravchuk_function(0.5, 0, 0)     # q parity mismatch, half spin


# ------------------------------------------------------ Wigner little-d

def test_identity_at_zero_angle_exact():
    for lam in (0.5, 7, 20):
        d = wigner_little_d(lam, 0.0)
        assert np.array_equal(d.entries, np.eye(d.spin.dimension))


def test_half_spin_quarter_turn_matrix():
    d = wigner_little_d(0.5, math.pi / 2)
    expected = np.array([[SQ2, -SQ2], [SQ2, SQ2]])
    assert np.max(np.abs(d.entries - expected)) < 1e-15


def test_half_spin_half_turn_matrix():
    d = wigner_little_d(0.5, math.pi)
    expected = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(d.entries - expected)) < 1e-15


def test_orthogonality_sweep():
    for two_l in list(range(0, 21)) + [27, 40, 61, 80]:
        for beta in (0.3, 0.7, math.pi / 2, 2.0, 4.4, 6.9):
            d = wigner_little_d(Spin(two_l), beta).entries
            assert np.max(np.abs(d @ d.T - np.eye(two_l + 1))) < 1e-10, \
                (two_l, beta)


def test_group_law(rng):
    # d(b1) d(b2) = d(b1 + b2), and d(b + 2 pi) = (-1)^(2 lambda) d(b),
    # d(b + 4 pi) = d(b).
    for two_l in (1, 2, 4, 9, 13, 24, 33, 40):
        def d(beta):
            return wigner_little_d(Spin(two_l), beta).entries
        b1, b2 = rng.uniform(-6, 6, size=2)
        assert np.max(np.abs(d(b1) @ d(b2) - d(b1 + b2))) < 1e-9, two_l
        sign = -1.0 if two_l % 2 else 1.0
        for beta in (0.4, 2.7):
            assert np.max(np.abs(d(beta + 2 * math.pi) - sign * d(beta))) \
                < 1e-11, (two_l, beta)
            assert np.max(np.abs(d(beta + 4 * math.pi) - d(beta))) < 1e-11, \
                (two_l, beta)


def test_matches_expm_oracle():
    for two_l in (1, 2, 3, 8, 15, 22, 30, 41, 96, 200):
        for beta in (0.21, math.pi / 2, math.pi, 2.0, 5.5, 9.0):
            got = wigner_little_d(Spin(two_l), beta).entries
            ref = little_d_expm(two_l, beta)
            assert np.max(np.abs(got - ref)) < 2e-11, (two_l, beta)


def test_route_seam_consistency():
    # spins around 2*lambda = 24, where an earlier terminating-sum route
    # handed over to the spectral kernel
    for two_l in (23, 24, 25, 26):
        for beta in (0.9, 2.3):
            got = wigner_little_d(Spin(two_l), beta).entries
            ref = little_d_expm(two_l, beta)
            assert np.max(np.abs(got - ref)) < 1e-11


def test_quarter_turn_reflection_law():
    # V[2 lambda - r, c] = (-1)^c V[r, c] on every rung of the ladder at
    # pi/2, so a basis keeps only the top rows of the even and odd columns.
    worst = 0.0
    for two_l, d in enumerate(_ladder(200, math.pi / 2)):
        sign = (-1.0) ** np.arange(two_l + 1)
        worst = max(worst, float(np.max(np.abs(d[::-1] - sign * d))))
    assert worst <= 1e-14


def test_value_accessor():
    d = wigner_little_d(1, 0.8)
    assert d.value(1, 0) == pytest.approx(d.entries[0, 1])
    assert d.value(-1, -1) == pytest.approx(d.entries[2, 2])
    with pytest.raises(DomainError):
        d.value(0.5, 0)             # parity mismatch for integer spin
    with pytest.raises(DomainError):
        d.value(2, 0)               # projection out of range


def test_rejects_nonfinite_angle():
    with pytest.raises(DomainError):
        wigner_little_d(1, math.inf)


@pytest.mark.parametrize("beta", ["x", None, [0.3], 1j])
def test_rejects_non_numeric_angle(beta):
    # The angle goes through the same check as a non-finite one, so a
    # string or None is a package error, not a raw ValueError or TypeError.
    with pytest.raises(DomainError, match="real number"):
        wigner_little_d(1, beta)


def test_rejects_blocks_above_the_pixel_limit(monkeypatch):
    # The size check comes before the ladder walk, so a huge spin fails at
    # once; 512 x 512 entries, the largest screen's, still reach the walk.
    from fkimage import special_functions

    def walk(*args):
        raise AssertionError("the ladder ran")

    monkeypatch.setattr(special_functions, "_ladder", walk)
    assert special_functions.MAX_PIXELS == 512 * 512
    for lam, beta in ((1e9, 0.3), (256, 0.3), (256, 0.0)):
        with pytest.raises(DomainError, match="entries"):
            wigner_little_d(lam, beta)
    with pytest.raises(AssertionError, match="ladder"):
        wigner_little_d(255.5, 0.3)
    # Past a million a size prints to three exact digits: one short line
    # for any spin, and no float noise from a spin such as 1e30.
    for lam, rows in ((10 ** 400, "2.00e+400"), (1e30, "2.00e+30"),
                      (300, "601")):
        with pytest.raises(DomainError) as refused:
            wigner_little_d(lam, 0.3)
        message = str(refused.value)
        assert f" {rows}-row block: " in message and len(message) < 100
    for k in range(7, 400):
        assert special_functions._short(10 ** k) == f"1.00e+{k}"
        assert special_functions._short(10 ** k - 1) == f"9.99e+{k - 1}"


def test_no_eigensolver_runs(rng, monkeypatch):
    # Every little-d value comes from the half-spin ladder: building a
    # basis, transforming at fresh angles, the LK modes and a dense block at
    # a spin no other test asks for never call a numpy eigensolver.
    def forbidden(*args, **kwargs):
        raise AssertionError("a numpy eigensolver ran")

    for name in ("eigh", "eig", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    element = FourierGroupElement(0.3, 1.9, 2.2, -0.7, 0.4)
    for shape in ((5, 3), (2.5, 1), (3, 4.5)):
        basis = build_basis(shape)
        coeffs = analyze(basis, rng.standard_normal(basis.shape.pixels))
        for angle in rng.uniform(-4 * math.pi, 4 * math.pi, 3):
            rotate_coeffs(basis, coeffs, angle)
            gyrate_coeffs(basis, coeffs, angle)
        apply_element_coeffs(basis, coeffs, element)
        for lev in basis.levels:
            lk_coefficients(basis, lev.n, lev.two_mu[0])
    for two_l in (5, 9, 203):
        wigner_little_d(Spin(two_l), rng.uniform(0.1, 6.0))


def test_import_loads_no_scipy():
    src = str(Path(fkimage.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, fkimage; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
