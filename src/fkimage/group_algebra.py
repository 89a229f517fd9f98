"""Parameter-space composition and inversion of Fourier-group elements.

An element is parametrized by a central phase angle chi, three Euler
angles (psi, theta, phi) taken about the 3-2-3 axes of the group's SU(2)
part, and a fifth angle omega.  The first four are carried by a faithful
2x2 unitary matrix, in the convention pinned by the little-d matrices:

    U = exp(-i chi/2) * Rz(psi) * Ry(theta) * Rz(phi)

with ``Ry(theta)`` equal to the spin-1/2 little-d matrix d^{1/2}(theta) and
``Rz(alpha) = diag(exp(-i alpha/2), exp(+i alpha/2))``.  Canonical ranges
after extraction are theta in [0, pi], psi and phi in [0, 2 pi), and chi in
[0, 4 pi); chi has period 4 pi because half-integer multiplet spins make
chi and chi + 2 pi act differently on images.

On level n of a rectangular screen the image action is

    exp(-i chi n/2) * exp(-i c_n omega) * D^lambda(psi, theta, phi)

where ``c_n = (n_x - n_y) - 2 mu`` is a per-level integer (see
``CartesianBasis.level_c``), nonzero on the flat levels and the upper
triangle of a rectangular screen.  The action is therefore
a representation of a five-parameter central extension of the matrix
group.  A plain four-parameter element has omega = (psi + phi)/2 (mod
2 pi), which is the default; ``compose`` and ``inverse`` track omega
exactly, so ``apply(compose(a, b))`` equals ``apply(a)`` after
``apply(b)`` and ``apply(inverse(e))`` undoes ``apply(e)`` for any real
angles.  omega only matters mod 2 pi and is stored in [0, 2 pi).

``compose`` and ``from_matrix`` work on the four matrix entries as Python
complex numbers: ``_entries`` gives the entries of four angles and
``_from_entries`` checks entries and returns their angles, so each builds
one element.  ``inverse`` forms no matrix: it negates the five angles.
``to_matrix`` and ``from_matrix`` are thin ``ndarray`` wrappers of the
same two helpers; at 2x2, numpy's per-call overhead would cost several
times the arithmetic.
"""

from __future__ import annotations

import cmath
import math
from operator import attrgetter

import numpy as np

from .errors import ValidationError
from .special_functions import _angle, _Value

__all__ = [
    "FourierGroupElement",
    "to_matrix",
    "from_matrix",
    "compose",
    "inverse",
    "element_to_json",
    "element_from_json",
]

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
# The largest unitarity defect ``from_matrix`` accepts.
_UNITARY_TOL = 1e-10


class FourierGroupElement(_Value):
    """Parameters (chi; psi, theta, phi; omega), all in radians.

    Any finite real angles are accepted, as ``special_functions._angle``
    defines them, and stored as floats; anything else, an int too large
    for a float included, raises ``ValidationError``.  ``from_matrix``
    always returns the canonical representative of the first four.
    ``omega`` defaults to ``default_omega`` = (psi + phi)/2 and is stored
    reduced to [0, 2 pi); a value within a few ulps of the default
    (mod 2 pi) is stored as the default.
    """

    def __init__(self, chi: float = 0.0, psi: float = 0.0,
                 theta: float = 0.0, phi: float = 0.0,
                 omega: float | None = None):
        self.__dict__.update(
            chi=_angle(chi, ValidationError, "angle chi"),
            psi=_angle(psi, ValidationError, "angle psi"),
            theta=_angle(theta, ValidationError, "angle theta"),
            phi=_angle(phi, ValidationError, "angle phi"))
        stored = self.default_omega
        if omega is not None:
            raw = _angle(omega, ValidationError, "angle omega")
            gap = abs(raw % TWO_PI - stored)
            # Reducing mod 2 pi rounds: an omega within a few ulps of the
            # default is the default, so equality and the wire format agree.
            # The ulps are those of the angles reduced mod 4 pi, so the
            # window stays far narrower than the circle at any magnitude.
            scale = max(abs(math.fmod(raw, FOUR_PI)), TWO_PI,
                        abs(math.fmod(self.psi, FOUR_PI))
                        + abs(math.fmod(self.phi, FOUR_PI)))
            if min(gap, TWO_PI - gap) > 4.0 * math.ulp(scale):
                stored = raw % TWO_PI
        self.__dict__["omega"] = stored

    @classmethod
    def identity(cls) -> "FourierGroupElement":
        return cls(0.0, 0.0, 0.0, 0.0)

    @property
    def default_omega(self) -> float:
        """The omega of the plain four-parameter element, (psi + phi)/2."""
        return (0.5 * self.psi + 0.5 * self.phi) % TWO_PI

    def as_dict(self) -> dict:
        """Wire format; ``omega`` appears only when it is not the default."""
        out = {"chi": self.chi, "psi": self.psi,
               "theta": self.theta, "phi": self.phi}
        if self.omega != self.default_omega:
            out["omega"] = self.omega
        return out


_angles = attrgetter("chi", "psi", "theta", "phi")


def _element(value) -> FourierGroupElement:
    """``value``, or ``ValidationError`` unless it is a
    ``FourierGroupElement``: the one element rule of ``compose``,
    ``inverse``, ``to_matrix``, ``element_to_json`` and
    ``fourier_transforms.apply_element_coeffs``."""
    if not isinstance(value, FourierGroupElement):
        raise ValidationError(
            f"element must be a FourierGroupElement, got {value!r}")
    return value


def _entries(chi: float, psi: float, theta: float, phi: float):
    """The entries (u00, u01, u10, u11) of ``to_matrix`` of an element with
    these angles as Python complexes, with Rz(alpha) = diag(p, conj(p)),
    p = exp(-i alpha/2)."""
    g = cmath.exp(-0.5j * chi)
    p = cmath.exp(-0.5j * psi)
    f = cmath.exp(-0.5j * phi)
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    pc, fc = p.conjugate(), f.conjugate()
    return (g * (p * c * f), g * (-p * s * fc),
            g * (pc * s * f), g * (pc * c * fc))


def _from_entries(u00: complex, u01: complex, u10: complex,
                  u11: complex) -> tuple[float, float, float, float]:
    """Canonical (chi, psi, theta, phi) of the matrix [[u00, u01],
    [u10, u11]]; the checks and the extraction of ``from_matrix``."""
    if not (cmath.isfinite(u00) and cmath.isfinite(u01)
            and cmath.isfinite(u10) and cmath.isfinite(u11)):
        raise ValidationError("matrix is non-finite")
    m00, m01, m10, m11 = abs(u00), abs(u01), abs(u10), abs(u11)
    defect = max(abs(m00 * m00 + m01 * m01 - 1.0),
                 abs(u00 * u10.conjugate() + u01 * u11.conjugate()),
                 abs(m10 * m10 + m11 * m11 - 1.0))
    if defect > _UNITARY_TOL:
        raise ValidationError(f"matrix is not unitary (defect {defect:.2e})")

    chi = (-cmath.phase(u00 * u11 - u01 * u10)) % TWO_PI
    h = cmath.exp(0.5j * chi)               # u * h is in SU(2) up to a sign
    s00, s10 = u00 * h, u10 * h

    a00, a10 = abs(s00), abs(s10)
    theta = 2.0 * math.atan2(a10, a00)
    # An entry within 4 (defect + ulp) of zero counts as zero: the rounding
    # of compose(a, inverse(a)) leaves |s10| below 1.7 (defect + ulp) in
    # 400 000 draws of random and wide elements.
    tiny = 4.0 * (defect + math.ulp(1.0))
    if a10 < tiny:                           # theta ~ 0: only psi+phi matters
        theta, phi = 0.0, 0.0
        psi = (-2.0 * cmath.phase(s00)) % TWO_PI
    elif a00 < tiny:                         # theta ~ pi: only psi-phi matters
        theta, phi = math.pi, 0.0
        psi = (2.0 * cmath.phase(s10)) % TWO_PI
    else:
        half_sum = -cmath.phase(s00)
        half_diff = cmath.phase(s10)
        psi = (half_sum + half_diff) % TWO_PI
        phi = (half_sum - half_diff) % TWO_PI
    # x % TWO_PI rounds a tiny negative x up to 2 pi itself: fold it to 0.
    if psi == TWO_PI:
        psi = 0.0
    if phi == TWO_PI:
        phi = 0.0

    # Folding psi, phi into [0, 2 pi) can silently flip the SU(2) sign; the
    # flip is absorbed by the central phase, chi -> chi + 2 pi, whose
    # entries are the negated ones, so one rebuild serves both signs.
    e0, e1, e2, e3 = _entries(chi, psi, theta, phi)
    residual = max(abs(e0 - u00), abs(e1 - u01), abs(e2 - u10),
                   abs(e3 - u11))
    flipped = max(abs(e0 + u00), abs(e1 + u01), abs(e2 + u10),
                  abs(e3 + u11))
    if flipped < residual:
        chi, residual = (chi + TWO_PI) % FOUR_PI, flipped
    if residual > 1e-9:
        raise ValidationError(
            f"Euler extraction failed to reproduce the matrix "
            f"(residual {residual:.2e})")
    return chi, psi, theta, phi


def to_matrix(element: FourierGroupElement) -> np.ndarray:
    """2x2 unitary matrix U = e^{-i chi/2} Rz(psi) Ry(theta) Rz(phi).

    omega does not enter: the matrix represents the four-parameter
    quotient of the group."""
    u00, u01, u10, u11 = _entries(*_angles(_element(element)))
    return np.array([[u00, u01], [u10, u11]])


def from_matrix(matrix) -> FourierGroupElement:
    """Extract canonical Euler parameters from a 2x2 unitary matrix.

    The result is a plain element (default omega).  Gimbal cases
    theta in {0, pi} are resolved by the convention phi = 0.
    Raises ValidationError when the input is not a finite 2x2 matrix
    unitary to 1e-10 (``_UNITARY_TOL``).
    """
    try:
        u = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix is not numeric: {exc}") from None
    if u.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {u.shape}")
    return FourierGroupElement(*_from_entries(*u.ravel().tolist()))


def compose(a: FourierGroupElement, b: FourierGroupElement) -> FourierGroupElement:
    """Group product a*b (b acts first on images, matching right-to-left
    operator composition).

    The four matrix parameters come from the matrix product, formed entry
    by entry.  Its SU(2) part is the product of the factors' SU(2) parts
    up to a sign s = exp(-i (chi_ab - chi_a - chi_b)/2), which
    ``from_matrix`` folds into chi.  Level n sees that sign as
    s^(2 lambda) in D^lambda but as s^n in the chi phase; n - 2 lambda has
    the parity of c_n, so

        omega_ab = omega_a + omega_b + (chi_ab - chi_a - chi_b)/2

    makes up the difference.
    """
    a00, a01, a10, a11 = _entries(*_angles(_element(a)))
    b00, b01, b10, b11 = _entries(*_angles(_element(b)))
    chi, psi, theta, phi = _from_entries(
        a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
    return FourierGroupElement(chi, psi, theta, phi,
                               a.omega + b.omega + 0.5 * (chi - a.chi - b.chi))


def inverse(a: FourierGroupElement) -> FourierGroupElement:
    """Group inverse D(-chi; -phi, -theta, -psi; -omega): every angle
    negated, with no matrix formed.

    U^-1 = exp(+i chi/2) Rz(-phi) Ry(-theta) Rz(-psi), and -omega undoes
    the level phase exp(-i c_n omega), so ``apply(inverse(e))`` undoes
    ``apply(e)`` to the rounding of the two actions.  The angles are not
    in the canonical ranges; ``from_matrix(to_matrix(inverse(a)))`` gives
    the canonical form.  ``0.0 - x`` keeps a zero angle +0.0, so the wire
    format never prints -0.0.
    """
    a = _element(a)
    return FourierGroupElement(0.0 - a.chi, 0.0 - a.phi, 0.0 - a.theta,
                               0.0 - a.psi, 0.0 - a.omega)


def element_to_json(element: FourierGroupElement) -> str:
    """Serialize to the wire format {"chi":..., "psi":..., "theta":...,
    "phi":...}, with an "omega" key only when omega is not the default."""
    import json
    return json.dumps(_element(element).as_dict())


def element_from_json(data) -> FourierGroupElement:
    """Parse an element from JSON text, as str or bytes, or from an
    already-decoded mapping.

    Text that does not decode, a non-object, an unknown key and an angle
    that ``FourierGroupElement`` refuses (a string, a bool, null, NaN,
    Infinity, a number too large for a float) raise ``ValidationError``.
    """
    if isinstance(data, (str, bytes)):
        import json
        try:
            data = json.loads(data)
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"invalid element JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"element JSON must be an object, got {type(data)}")
    unknown = set(data) - {"chi", "psi", "theta", "phi", "omega"}
    if unknown:
        raise ValidationError(
            f"unknown element fields: {sorted(unknown, key=repr)}")
    if data.get("omega", 0.0) is None:      # None is the constructor's default
        raise ValidationError("angle omega must be a real number, got None")
    return FourierGroupElement(**data)
