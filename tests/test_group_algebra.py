import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fkimage import (FourierGroupElement, ScreenShape, Spin, ValidationError,
                     apply_element, apply_element_coeffs, build_basis,
                     compose, element_from_json, element_to_json,
                     from_matrix, inverse, to_matrix, wigner_little_d)
from fkimage._reference import random_element, random_image, wide_element

from oracles import element_matrix, euler_angles

TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi


# ------------------------------------------------------------ matrices

def test_identity_matrix():
    u = to_matrix(FourierGroupElement.identity())
    assert np.max(np.abs(u - np.eye(2))) == 0.0


def test_theta_pi_matches_spin_half_little_d():
    # the SU(2) convention is pinned by the little-d matrices
    u = to_matrix(FourierGroupElement(0, 0, math.pi, 0))
    ref = wigner_little_d(0.5, math.pi).entries
    assert np.max(np.abs(u - ref)) < 1e-15


def test_to_matrix_unitary(rng):
    for _ in range(20):
        u = to_matrix(random_element(rng))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14


# ---------------------------------------------------------- extraction

def test_from_identity():
    e = from_matrix(np.eye(2))
    assert (e.chi, e.psi, e.theta, e.phi) == (0.0, 0.0, 0.0, 0.0)


def test_from_central_element():
    alpha = 0.77
    u = np.exp(-1j * alpha) * np.eye(2)
    e = from_matrix(u)
    assert e.chi == pytest.approx(2 * alpha, abs=1e-12)
    assert e.theta == 0.0 and e.phi == 0.0
    assert min(e.psi, TWO_PI - e.psi) < 1e-12


def test_gimbal_convention():
    for theta in (0.0, math.pi):
        e0 = FourierGroupElement(0.0, 1.1, theta, 0.7)
        r = from_matrix(to_matrix(e0))
        assert r.phi == 0.0
        assert np.max(np.abs(to_matrix(r) - to_matrix(e0))) < 1e-12


def test_rejects_nonunitary():
    with pytest.raises(ValidationError):
        from_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        from_matrix(np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0, math.nan)])
def test_rejects_nonfinite_matrix(bad):
    # Rejected up front, with no RuntimeWarning from the unitarity check.
    u = np.eye(2, dtype=complex)
    u[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            from_matrix(u)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(chi=st.floats(-20, 20, exclude_min=True, exclude_max=True))
@example(chi=16.77)
def test_scalar_matrices_extract_into_the_documented_ranges(chi):
    # Each angle is taken mod 2 pi, which rounds a tiny negative angle up
    # to 2 pi itself; from_matrix must return 0 there.
    u = np.exp(-0.5j * chi) * np.eye(2)
    e = from_matrix(u)
    assert 0 <= e.chi < FOUR_PI and 0 <= e.psi < TWO_PI
    assert e.theta == 0.0 and e.phi == 0.0
    assert np.max(np.abs(to_matrix(e) - u)) < 1e-14
    assert json.loads(element_to_json(e)) == {
        "chi": e.chi, "psi": e.psi, "theta": 0.0, "phi": 0.0}


def _assert_angles_close(element, u):
    # The element's matrix is u to rounding, and its angles are the
    # oracle's.  A matrix fixes theta, psi and phi mod 2 pi, and
    # chi - psi - phi mod 4 pi: moving psi or phi by 2 pi flips the SU(2)
    # sign, which chi absorbs, so two routes may fold an angle next to 0
    # to either end.  Within 1e-3 of theta = 0 (pi), psi and phi alone
    # carry rounding of up to about 1.6 eps / |theta| (eps / |pi - theta|),
    # past 1e-12 below theta = 4e-4, so there the angles are compared
    # through alpha = psi + phi (psi - phi) mod 2 pi and chi - alpha mod
    # 4 pi, and the matrix, compared to 1e-14, fixes the split of alpha.
    # The routes' gimbal windows differ, too: at theta = 1e-14 the oracle
    # reads (0; 0, 0, 0) and from_matrix (2 pi; pi, 1e-14, pi), the same
    # matrix to 1e-14.
    assert np.max(np.abs(to_matrix(element) - u)) < 1e-14, (element, u)
    chi, psi, theta, phi = want = euler_angles(u)
    e = element
    pairs = [(e.theta, theta, None)]
    for point, sign in ((0.0, 1.0), (math.pi, -1.0)):
        if abs(theta - point) < 1e-3 and abs(e.theta - point) < 1e-3:
            alpha, want_alpha = e.psi + sign * e.phi, psi + sign * phi
            pairs += [(alpha, want_alpha, TWO_PI),
                      (e.chi - alpha, chi - want_alpha, FOUR_PI)]
            break
    else:
        pairs += [(e.psi, psi, TWO_PI), (e.phi, phi, TWO_PI),
                  (e.chi - e.psi - e.phi, chi - psi - phi, FOUR_PI)]
    for x, y, period in pairs:
        gap = abs(x - y)
        if period is not None:
            gap = min(gap % period, period - gap % period)
        assert gap < 1e-12, (e, want)


_ELEMENT = st.lists(st.floats(-20, 20, exclude_min=True, exclude_max=True),
                    min_size=5, max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_ELEMENT, b=_ELEMENT)
@example(a=[1.0, 2.0, 0.0, 3.0, 0.5], b=[4.0, -1.0, math.pi, 2.5, -6.0])
@example(a=[-3.0, 5.0, math.pi, 0.7, 1.0], b=[2.0, 9.0, 0.0, -4.0, 3.0])
@example(a=[1.0, 7.0, 1.0, 0.5, 2.0], b=[0.5, 3.0, 2.0, -1.0, 0.0])
def test_scalar_group_algebra_matches_numpy_oracle(a, b):
    # compose, inverse and from_matrix against numpy 2x2 products and
    # decompositions; theta in {0, pi} and the sign flip as examples.
    # inverse negates the angles, so its canonical form is from_matrix's.
    a, b = FourierGroupElement(*a), FourierGroupElement(*b)
    ua, ub = element_matrix(a), element_matrix(b)
    assert np.max(np.abs(to_matrix(a) - ua)) < 1e-14
    e = from_matrix(ua)
    _assert_angles_close(e, ua)
    assert e.omega == e.default_omega
    ab = compose(a, b)
    _assert_angles_close(ab, ua @ ub)
    assert ab.omega == FourierGroupElement(
        ab.chi, ab.psi, ab.theta, ab.phi,
        a.omega + b.omega + 0.5 * (ab.chi - a.chi - b.chi)).omega
    inv = inverse(a)
    assert (inv.chi, inv.psi, inv.theta, inv.phi) == (
        0.0 - a.chi, 0.0 - a.phi, 0.0 - a.theta, 0.0 - a.psi)
    assert inv.omega == FourierGroupElement(
        inv.chi, inv.psi, inv.theta, inv.phi, 0.0 - a.omega).omega
    assert np.max(np.abs(to_matrix(inv) @ ua - np.eye(2))) < 1e-14
    _assert_angles_close(from_matrix(to_matrix(inv)), ua.conj().T)
    for bad in (1.001 * ua, ua[:1], np.kron(np.eye(2), ua)):
        with pytest.raises(ValidationError):
            from_matrix(bad)


# --------------------------------------------------------- composition

_IDENTITY = FourierGroupElement.identity()


@pytest.mark.parametrize("entry", [
    to_matrix, inverse, element_to_json,
    lambda e: compose(e, _IDENTITY), lambda e: compose(_IDENTITY, e)],
    ids=["to_matrix", "inverse", "element_to_json", "compose first",
         "compose second"])
@pytest.mark.parametrize("value", [None, "rotation", (0, 0, 1.3, 0),
                                   {"theta": 1.3}], ids=repr)
def test_every_element_entry_point_takes_only_elements(entry, value):
    # apply_element_coeffs's rule (test_fourier_transforms): anything but
    # a FourierGroupElement is a ValidationError, not an AttributeError
    # from reading its angles.
    with pytest.raises(ValidationError, match="must be a FourierGroupElement"):
        entry(value)


def test_compose_with_identity(rng):
    e = random_element(rng)
    for c in (compose(e, FourierGroupElement.identity()),
              compose(FourierGroupElement.identity(), e)):
        assert np.max(np.abs(to_matrix(c) - to_matrix(e))) < 1e-12


def test_compose_with_inverse_is_identity(rng):
    e = random_element(rng)
    c = compose(e, inverse(e))
    assert np.max(np.abs(to_matrix(c) - np.eye(2))) < 1e-10


def test_pure_gyration_angles_add():
    a = FourierGroupElement(0, 0, 0.5, 0)
    b = FourierGroupElement(0, 0, 0.9, 0)
    c = compose(a, b)
    assert np.max(np.abs(to_matrix(c)
                         - to_matrix(FourierGroupElement(0, 0, 1.4, 0)))) < 1e-12
    assert c.theta == pytest.approx(1.4, abs=1e-12)


def test_inverse_of_central_element():
    # Negated angles, with +0.0 where the element has a zero angle.
    inv = inverse(FourierGroupElement(1.3, 0, 0, 0))
    assert inv.as_dict() == {"chi": -1.3, "psi": 0.0, "theta": 0.0,
                             "phi": 0.0}
    assert all(math.copysign(1.0, x) == 1.0
               for x in (inv.psi, inv.theta, inv.phi, inv.omega))
    assert inverse(FourierGroupElement.identity()) == \
        FourierGroupElement.identity()


def test_inverse_forms_no_matrix(rng, monkeypatch):
    import fkimage.group_algebra as ga

    def refused(*args):
        raise AssertionError("inverse formed a matrix")

    elements = [FourierGroupElement(*rng.uniform(-20.0, 20.0, 5))
                for _ in range(10)]
    monkeypatch.setattr(ga, "_entries", refused)
    monkeypatch.setattr(ga, "_from_entries", refused)
    for e in elements:
        inverse(e)


# ------------------------------------------------------- action images

def test_image_homomorphism_on_square_screen(rng):
    basis = build_basis((2, 2))
    for _ in range(10):
        a, b = random_element(rng), random_element(rng)
        img = random_image(rng, basis)
        lhs = apply_element(basis, img, compose(a, b))
        rhs = apply_element(basis, apply_element(basis, img, b), a)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_image_homomorphism_breaks_on_rectangles():
    # The antisymmetric Fourier phases carry a central offset on the
    # flat-spin levels of a rectangular screen (the mode-number difference
    # n_x - n_y is not twice the level projection there), so the image
    # action is a representation of a five-parameter central extension,
    # not of the four-parameter matrix group.  This pair maps onto a gimbal
    # configuration whose canonical Euler angles redistribute psi + phi,
    # which the flat levels can detect: the four-parameter projection of
    # the product breaks the homomorphism, and the fifth parameter omega
    # restores it.
    basis = build_basis((5, 3))
    a = FourierGroupElement(0, math.pi / 2, math.pi / 2, 0)
    b = FourierGroupElement(0, 0, math.pi / 2, math.pi / 2)
    rng = np.random.default_rng(5)
    img = random_image(rng, basis)
    c = compose(a, b)
    rhs = apply_element(basis, apply_element(basis, img, b), a)
    projected = apply_element(basis, img,
                              FourierGroupElement(c.chi, c.psi, c.theta, c.phi))
    assert np.max(np.abs(projected - rhs)) > 1e-2
    assert np.max(np.abs(apply_element(basis, img, c) - rhs)) < 1e-9


@pytest.mark.parametrize("spins", [(5, 3), (2.5, 1), (3, 4.5)])
def test_inverse_and_compose_exact_for_any_angles(spins):
    # Angles far outside the canonical ranges (theta > pi, psi and phi
    # beyond [0, 2 pi)) on both orientations and with half-integer spins.
    rng = np.random.default_rng(31)
    basis = build_basis(spins)
    for _ in range(20):
        a = FourierGroupElement(*rng.uniform(-20, 20, 4))
        b = FourierGroupElement(*rng.uniform(-20, 20, 4))
        img = random_image(rng, basis)
        once = apply_element(basis, img, b)
        back = apply_element(basis, once, inverse(b))
        assert np.max(np.abs(back - img)) < 1e-9
        lhs = apply_element(basis, img, compose(a, b))
        rhs = apply_element(basis, once, a)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("spins", [(5, 3), (20, 12), (24, 24), (64, 48)])
def test_theta_zero_chain_and_back_is_exact(spins):
    # At theta = 0 an element is the n_y phase and the level phase.  The
    # level angle (chi + psi + phi)/2 is summed correctly rounded, so its
    # negation is exact: 50 wide elements and their inverses in reverse
    # order leave 2.2e-15 of max |x| at most, where the sum in a fixed
    # order leaves 3.7e-14 to 4.3e-13.
    basis = build_basis(spins)
    rng = np.random.default_rng(5)
    x = random_image(rng, basis)
    chain = []
    for _ in range(50):
        e = wide_element(rng)
        chain.append(FourierGroupElement(e.chi, e.psi, 0.0, e.phi, e.omega))
    y = x
    for e in chain:
        y = apply_element_coeffs(basis, y, e)
    for e in reversed(chain):
        y = apply_element_coeffs(basis, y, inverse(e))
    assert np.max(np.abs(y - x)) < 1e-14 * np.max(np.abs(x))


@pytest.mark.parametrize("spins", [(20, 12), (64, 48)])
def test_compose_keeps_rotations_next_to_the_gimbal_points(spins):
    # b = compose(inverse(a), d) makes compose(a, b) the element d, whose
    # theta lies eps from 0 or from pi.  A composition that rounds such a
    # theta to the gimbal point drops a rotation of eps, an image error of
    # about eps * lambda_max; the error must stay at the floor that a
    # generic theta gives.
    basis = build_basis(spins)
    rng = np.random.default_rng(7)
    cases = [(wide_element(rng), random_image(rng, basis),
              rng.uniform(-20.0, 20.0, 3)) for _ in range(4)]

    def error(theta):
        worst = 0.0
        for a, img, (chi, psi, phi) in cases:
            b = compose(inverse(a), FourierGroupElement(chi, psi, theta, phi))
            lhs = apply_element(basis, img, compose(a, b))
            rhs = apply_element(basis, apply_element(basis, img, b), a)
            worst = max(worst, np.max(np.abs(lhs - rhs)) / np.max(np.abs(img)))
        return worst

    floor = error(1.0)
    for eps in [k * 10.0 ** e for e in range(-16, -10) for k in (1, 3)] + [1e-10]:
        for theta in (eps, math.pi - eps):
            assert error(theta) < 4.0 * floor, (eps, theta)


_ANGLES = st.lists(st.floats(-20, 20, exclude_min=True, exclude_max=True),
                   min_size=5, max_size=5)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(two_jx=st.integers(0, 40), two_jy=st.integers(0, 40),
       a=_ANGLES, b=_ANGLES, seed=st.integers(0, 2 ** 32 - 1))
@example(two_jx=10, two_jy=6, a=[1.0, -7.5, 13.0, 19.0, -3.0],
         b=[-19.5, 2.0, -11.0, 5.5, 17.0], seed=1)
@example(two_jx=5, two_jy=9, a=[0.3, 1.9, 2.2, -0.7, 0.4],
         b=[4.0, -16.0, 8.5, 12.0, -9.0], seed=2)
@example(two_jx=0, two_jy=0, a=[2.5, -1.0, 6.0, 0.7, 1.0],
         b=[-3.0, 5.0, -2.2, 9.5, 3.0], seed=3)
@example(two_jx=1, two_jy=1, a=[1.0, 7.0, 1.0, 0.5, 2.0],
         b=[0.5, 3.0, -12.0, -1.0, 0.0], seed=4)
@example(two_jx=1, two_jy=2, a=[-6.0, 18.0, 4.4, -8.0, -5.5],
         b=[14.0, -0.3, 2.9, 1.1, 7.0], seed=5)
@example(two_jx=2, two_jy=1, a=[0.0, -13.0, 19.5, 3.3, -2.0],
         b=[-9.0, 1.6, -4.1, -17.0, 6.0], seed=6)
def test_group_laws_on_random_screens(two_jx, two_jy, a, b, seed):
    # Both orientations and half-integer spins, elements far outside the
    # canonical ranges, explicit omega included: the action is unitary,
    # inverse undoes it, and compose is an exact homomorphism.
    basis = build_basis(ScreenShape(Spin(two_jx), Spin(two_jy)))
    coeffs = random_image(np.random.default_rng(seed), basis)
    a, b = FourierGroupElement(*a), FourierGroupElement(*b)
    once = apply_element_coeffs(basis, coeffs, b)
    assert np.linalg.norm(once) == pytest.approx(np.linalg.norm(coeffs),
                                                 rel=1e-12)
    back = apply_element_coeffs(basis, once, inverse(b))
    assert np.max(np.abs(back - coeffs)) < 1e-9
    lhs = apply_element_coeffs(basis, coeffs, compose(a, b))
    rhs = apply_element_coeffs(basis, once, a)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_default_omega_leaves_action_unchanged(rng):
    basis = build_basis((5, 3))
    e = random_element(rng)
    img = random_image(rng, basis)
    plain = apply_element(basis, img, e)
    explicit = FourierGroupElement(e.chi, e.psi, e.theta, e.phi,
                                   (e.psi + e.phi) / 2)
    assert explicit == e
    assert np.array_equal(apply_element(basis, img, explicit), plain)
    shifted = FourierGroupElement(e.chi, e.psi, e.theta, e.phi,
                                  (e.psi + e.phi) / 2 + 4 * math.pi)
    assert np.max(np.abs(apply_element(basis, img, shifted) - plain)) < 1e-12


def test_omega_within_ulps_of_default_is_default():
    # 1.8 + 4 pi reduces to 1.8000000000000007, a few ulps off (psi+phi)/2
    e = FourierGroupElement(1.0, 0.7, 1.1, 2.9, 1.8 + 4 * math.pi)
    assert e == FourierGroupElement(1.0, 0.7, 1.1, 2.9)
    assert "omega" not in json.loads(element_to_json(e))


@pytest.mark.parametrize("psi", [1e17, -3e200])
def test_explicit_omega_survives_huge_psi(psi):
    # The default-omega window must stay narrow however large psi is: at
    # |psi| = 1e17 an ulp of psi is wider than the whole circle.
    e = FourierGroupElement(0.0, psi, 1.0, 0.5, omega=1.0)
    assert e.omega == 1.0
    assert e != FourierGroupElement(0.0, psi, 1.0, 0.5)
    assert element_from_json(element_to_json(e)) == e


# ----------------------------------------------------------------- JSON

def test_json_roundtrip(rng):
    e = random_element(rng)
    text = element_to_json(e)
    decoded = element_from_json(text)
    assert decoded == e
    assert set(json.loads(text)) == {"chi", "psi", "theta", "phi"}


def test_json_defaults_and_errors():
    assert element_from_json('{"theta": 1.0}') == \
        FourierGroupElement(0, 0, 1.0, 0)
    with pytest.raises(ValidationError):
        element_from_json("not json")
    with pytest.raises(ValidationError):
        element_from_json('{"chi": 1, "bogus": 2}')
    with pytest.raises(ValidationError):
        element_from_json('{"chi": "NaN"}')
    with pytest.raises(ValidationError):
        element_from_json('[1, 2, 3]')


def test_json_carries_omega():
    e = FourierGroupElement(1.0, 0.5, 1.2, 2.0, omega=0.3)
    text = element_to_json(e)
    assert json.loads(text)["omega"] == 0.3
    assert element_from_json(text) == e
    assert element_from_json('{"theta": 1.0, "omega": 7.0}').omega == \
        pytest.approx(7.0 - TWO_PI, abs=1e-15)
    with pytest.raises(ValidationError):
        element_from_json('{"omega": "inf"}')


@pytest.mark.parametrize("key", ["chi", "psi", "theta", "phi", "omega"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_json_rejects_non_finite_angles(key, literal):
    # Python's json reads these literals as floats.
    with pytest.raises(ValidationError, match="finite"):
        element_from_json(f'{{"{key}": {literal}}}')


@pytest.mark.parametrize("data", [
    b"\xff", b'{"chi": \xff}',
    b'{"chi": 1' + b"0" * 5000 + b"}",     # beyond int's digit limit
    b"[" * 100000,                           # nested beyond the stack
], ids=["not utf-8", "not utf-8 in a value", "too many digits",
        "nested too deep"])
def test_json_that_does_not_decode_is_a_validation_error(data):
    with pytest.raises(ValidationError, match="invalid element JSON"):
        element_from_json(data)
