"""Kravchuk polynomials, finite-oscillator wavefunctions and Wigner little-d
matrices for integer and half-integer spin.

Conventions
-----------
The little-d matrix implemented here is the representation of ``exp(-i beta
J_y)`` in the standard angular-momentum basis with Condon-Shortley phases.
Rows and columns are stored with the projection index *descending*, i.e.
``entries[i, k] = d_{mu, mu'}(beta)`` with ``mu = lam - i`` and
``mu' = lam - k``.  With this convention the quarter-turn matrix reproduces
the finite-oscillator wavefunctions row by row::

    d^j_{n-j, q}(pi/2) == kravchuk_function(j, n, q)

which pins every sign and index choice in this module.

Evaluation
----------
One kernel serves the library: Risbo's half-spin recursion (``_half_step``),
which turns d^{j-1/2}(beta) into d^j(beta) by coupling a spin 1/2.  Walking
it from d^0 = [[1]] (``_ladder``) yields every spin up to the top in one
sweep.  ``wigner_little_d`` walks it at beta, uncached.  Each
``CartesianBasis`` walks it once at ``beta = pi/2``: two rungs, reversed,
are its one-dimensional Kravchuk tables, and the rungs up to the shorter
side are its real quarter-turn tables V.  ``diag(i^-k) V`` is the
eigenbasis of ``J_y`` in which the transforms in ``fourier_transforms``
mix each level, with the ``i^-k`` folded into their phases (they form no
block).  Nothing is cached at module level.  ``kravchuk_polynomial`` and
``kravchuk_function`` evaluate the exact terminating sum instead; they are
the reference the tests and ``verify`` compare the kernel against.

Half-integer bookkeeping is done with doubled integers (``two_j = 2j``)
throughout, so no floating-point values are ever used as indices.
"""

from __future__ import annotations

import math
import numbers
from functools import total_ordering
from math import comb, factorial, lgamma

import numpy as np

from .errors import DomainError

__all__ = [
    "Spin",
    "kravchuk_polynomial",
    "kravchuk_function",
    "LittleDMatrix",
    "wigner_little_d",
]

# The most entries of a little-d block a walk of the half-spin ladder may
# reach: 512 rows.  ``_check_walk`` holds the rule for ``wigner_little_d``
# and for ``CartesianBasis``, whose walk goes up to the screen's longer
# side, so no side may pass 512 pixels and the largest screen is 512x512.
# A walk to N rows costs O(N^3): one BLAS thread on a 2-core Xeon took 35 s
# to build the 1601x1 screen and did not finish the 2401x1 one in 120 s.
MAX_PIXELS = 1 << 18


def _check_walk(rows: int, what: str) -> None:
    """DomainError if a ladder walk up to a block of ``rows`` rows passes
    ``MAX_PIXELS`` entries; ``what`` names the walker."""
    if rows * rows > MAX_PIXELS:
        raise DomainError(f"{what} walks to a {rows}-row block: {rows * rows} "
                          f"entries, over the limit of 512x512 pixels")


class _Value:
    """Base of the package's value types.  A subclass's ``__init__``
    validates its arguments and sets each field once, in order, through
    ``__dict__``; the value compares, hashes and prints by those fields,
    and assigning or deleting an attribute raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in self.__dict__.items())
        return f"{type(self).__name__}({fields})"


def _angle(value, error=DomainError, what="angle") -> float:
    """``value`` as a finite float; ``error`` unless it is a real number: a
    ``numbers.Real`` other than bool, or a 0-d integer or float array.

    ``float`` also reads a bool, a string, bytes, a bytearray, a memoryview
    and a ``Decimal``, none of them accepted; a conversion that fails, an
    int too large for a float among them, raises ``error`` too.
    """
    if type(value) is not float:
        # float and int first: the ABC test of numbers.Real is slower.
        if not ((isinstance(value, (float, int, numbers.Real))
                 and not isinstance(value, bool))
                or (isinstance(value, np.ndarray) and value.ndim == 0
                    and value.dtype.kind in "iuf")):
            raise error(f"{what} must be a real number, got {value!r}")
        try:
            value = float(value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise error(f"{what} cannot be a float: {exc}") from None
    if not math.isfinite(value):
        raise error(f"{what} must be finite, got {value}")
    return value


def _integer(value, what, lo=0, hi=math.inf, error=DomainError) -> int:
    """``value`` as an int; ``error`` unless it is an int or a NumPy
    integer, not a bool, in ``lo..hi``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not lo <= value <= hi):
        raise error(f"{what} must be an integer in {lo}..{hi}, got {value!r}")
    return int(value)


def _as_two(value, what="value"):
    """Coerce an integer or half-integer to its doubled-integer form; a bool
    raises DomainError."""
    if isinstance(value, Spin):
        return value.two_j
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        doubled, den = 2 * int(value.numerator), int(value.denominator)
        if doubled % den:
            raise DomainError(f"{what} must be an integer or half-integer, got {value}")
        return doubled // den
    if isinstance(value, float):
        doubled = 2.0 * value
        if not math.isfinite(doubled) or doubled != round(doubled):
            raise DomainError(f"{what} must be an integer or half-integer, got {value}")
        return int(round(doubled))
    raise DomainError(f"cannot interpret {value!r} as a half-integer {what}")


@total_ordering
class Spin(_Value):
    """A non-negative integer or half-integer spin, stored as ``2j``."""

    def __init__(self, two_j: int):
        self.__dict__["two_j"] = _integer(two_j, "2j")

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.two_j < other.two_j
        return NotImplemented

    @classmethod
    def from_j(cls, j) -> "Spin":
        return cls(_as_two(j, "spin"))

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dimension(self) -> int:
        """Number of states, N = 2j + 1."""
        return self.two_j + 1

    def __repr__(self):
        if self.two_j % 2 == 0:
            return f"Spin(j={self.two_j // 2})"
        return f"Spin(j={self.two_j}/2)"


def kravchuk_polynomial(n: int, s: int, two_j: int) -> float:
    """Symmetric Kravchuk polynomial K_n(s; 1/2, 2j) = 2F1(-n, -s; -2j; 2).

    The terminating hypergeometric sum is accumulated in exact integer
    arithmetic and divided out once at the end by ``int / int``, which
    Python rounds correctly, so the returned double is correctly rounded.
    The polynomial is symmetric under n <-> s.
    """
    two_j = _integer(two_j, "two_j")
    n = _integer(n, "degree n", 0, two_j)
    s = _integer(s, "argument s", 0, two_j)
    # sum_k (-1)^k C(n,k) C(s,k) k! 2^k (2j-k)!  /  (2j)!
    acc = 0
    for k in range(min(n, s) + 1):
        term = comb(n, k) * comb(s, k) * factorial(k) * (2 ** k) * factorial(two_j - k)
        acc = acc - term if k % 2 else acc + term
    return acc / factorial(two_j)


def _log_binomial(two_j: int, k: int) -> float:
    return lgamma(two_j + 1) - lgamma(k + 1) - lgamma(two_j - k + 1)


def kravchuk_function(j, n: int, q) -> float:
    """Finite-oscillator wavefunction Psi_n^(j)(q) on the 2j+1 point lattice.

    Equals ``(-1)^n / 2^j * sqrt(C(2j,n) C(2j,j+q)) * K_n(j+q; 1/2, 2j)``.
    The square-root prefactor is accumulated with log-binomials so large
    spins do not overflow; the polynomial part is exact.

    Parameters
    ----------
    j : Spin or number
        Lattice spin; the screen axis has N = 2j+1 points.
    n : int
        Mode number, 0 <= n <= 2j.
    q : number
        Position, q in {-j, ..., j} in unit steps (half-integer when j is).
    """
    spin = Spin.from_j(j)
    two_j = spin.two_j
    n = _integer(n, "mode n", 0, two_j)
    two_q = _as_two(q, "position q")
    if abs(two_q) > two_j or (two_q - two_j) % 2 != 0:
        raise DomainError(f"position q={q} not in the spin-{spin.j} lattice")
    jq = (two_j + two_q) // 2
    kpoly = kravchuk_polynomial(n, jq, two_j)
    logpref = 0.5 * (_log_binomial(two_j, n) + _log_binomial(two_j, jq)) \
        - 0.5 * two_j * math.log(2.0)
    sign = -1.0 if n % 2 else 1.0
    return sign * math.exp(logpref) * kpoly


# ---------------------------------------------------------------------------
# Wigner little-d
# ---------------------------------------------------------------------------

# The period ``_reduced`` takes every angle modulo.
_ANGLE_PERIOD = 4.0 * math.pi


def _reduced(angle: float) -> float:
    """A finite float angle reduced by ``math.fmod`` into (-4 pi, 4 pi).

    4 pi is a multiple of every period of the library's kernel and
    transforms, so the reduction changes no result but keeps a huge angle
    from overflowing the phases; an angle already inside the interval is
    returned bit for bit.
    """
    return math.fmod(angle, _ANGLE_PERIOD)


def _finite_angle(angle) -> float:
    """The angle as a float, ``_reduced``; ``DomainError`` unless
    ``_angle`` accepts it."""
    return _reduced(_angle(angle))


def _half_step(d: np.ndarray, c: float, s: float) -> np.ndarray:
    """d^j(beta) from d^{j-1/2}(beta), with ``c, s = cos, sin(beta/2)``.

    Risbo's recursion couples spin j - 1/2 to spin 1/2 through the
    Clebsch-Gordan factors ``a_m = sqrt((j+m)/2j)``, ``b_m = sqrt((j-m)/2j)``:

        d^j_{m,m'} = a_m a_m' c d_{m-1/2,m'-1/2} - a_m b_m' s d_{m-1/2,m'+1/2}
                   + b_m a_m' s d_{m+1/2,m'-1/2} + b_m b_m' c d_{m+1/2,m'+1/2}

    applied as one pass over the columns, which couples m' for each of the
    two spin-1/2 rows, and one over the rows.  In the descending layout
    index k of the new spin has ``a = sqrt((2j-k)/2j)`` and
    ``b = sqrt(k/2j)``, and m -/+ 1/2 are old indices k and k - 1.
    """
    two_j = d.shape[0]
    k = np.arange(two_j + 1)
    a = np.sqrt((two_j - k) / two_j)
    b = np.sqrt(k / two_j)
    left = d * a[:-1]
    right = d * b[1:]
    up = np.zeros((two_j, two_j + 1))
    down = np.zeros((two_j, two_j + 1))
    up[:, :-1] = c * left
    up[:, 1:] -= s * right
    down[:, :-1] = s * left
    down[:, 1:] += c * right
    out = np.zeros((two_j + 1, two_j + 1))
    out[:-1] = a[:-1, None] * up
    out[1:] += b[1:, None] * down
    return out


def _ladder(top: int, beta: float):
    """Yield d^lam(beta) for 2*lam = 0, 1, ..., top, one half-step apart."""
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    d = np.ones((1, 1))
    yield d
    for _ in range(top):
        d = _half_step(d, c, s)
        yield d


class LittleDMatrix(_Value):
    """Real orthogonal rotation matrix d^lam(beta) in the spin-lam irrep.

    ``entries[i, k] = d_{mu, mu'}(beta)`` with mu = lam - i, mu' = lam - k
    (both indices descending from +lam to -lam).  Its entries are an
    array, so it compares by identity and is unhashable.
    """

    __eq__ = object.__eq__

    def __init__(self, spin: Spin, beta: float, entries: np.ndarray):
        self.__dict__.update(spin=spin, beta=beta, entries=entries)

    def index_of(self, mu) -> int:
        two_mu = _as_two(mu, "projection mu")
        two_l = self.spin.two_j
        if abs(two_mu) > two_l or (two_mu - two_l) % 2 != 0:
            raise DomainError(f"mu={mu} not a projection of spin {self.spin.j}")
        return (two_l - two_mu) // 2

    def value(self, mu, mu_prime) -> float:
        """Entry d_{mu, mu'}(beta) addressed by (half-)integer projections."""
        return float(self.entries[self.index_of(mu), self.index_of(mu_prime)])


def wigner_little_d(lam, beta: float) -> LittleDMatrix:
    """Full Wigner little-d matrix for spin ``lam`` at angle ``beta``.

    Evaluated by the half-spin recursion from spin 0 up to ``lam``, fresh
    on every call and independent of any basis, in the convention pinned by
    ``d^j_{n-j,q}(pi/2) == kravchuk_function(j, n, q)``.  A non-finite
    ``beta``, or a block of more than ``MAX_PIXELS`` entries, raises
    ``DomainError``; ``beta == 0`` gives an exact identity.
    """
    spin = Spin.from_j(lam)
    _check_walk(spin.dimension, f"spin {spin.j:g}")
    beta = _finite_angle(beta)
    if beta == 0.0:
        return LittleDMatrix(spin, beta, np.eye(spin.dimension))
    for d in _ladder(spin.two_j, beta):     # keeps the last rung
        pass
    return LittleDMatrix(spin, beta, d)
