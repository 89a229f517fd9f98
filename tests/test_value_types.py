"""The contract of the package's value types: construction, equality, hash,
repr, ordering, pickle and deepcopy round trips, and immutability."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from fkimage import (DomainError, FourierGroupElement, RenderSpec,
                     ScreenShape, Spin)
from fkimage.mode_basis import LevelSpectrum, level_spectrum
from fkimage.special_functions import LittleDMatrix, wigner_little_d
from fkimage.verify import CheckResult


# (positional construction, keyword construction, a different value, repr)
_CASES = {
    "Spin": (lambda: Spin(3), lambda: Spin(two_j=3), lambda: Spin(4),
             "Spin(j=3/2)"),
    "ScreenShape": (lambda: ScreenShape(5, 2.5),
                    lambda: ScreenShape(j_x=Spin(10), j_y=Spin(5)),
                    lambda: ScreenShape(2.5, 5),
                    "ScreenShape(j_x=5, j_y=2.5)"),
    "LevelSpectrum": (lambda: LevelSpectrum(2, Spin(2), range(0, 3),
                                            (2, 0, -2)),
                      lambda: level_spectrum(ScreenShape(2, 1), 2),
                      lambda: level_spectrum(ScreenShape(2, 1), 1),
                      "LevelSpectrum(n=2, spin=Spin(j=1), n_y=range(0, 3), "
                      "two_mu=(2, 0, -2))"),
    "FourierGroupElement": (
        lambda: FourierGroupElement(0.5, 0.0, 0.25, 0.0, 1.0),
        lambda: FourierGroupElement(chi=0.5, theta=0.25, omega=1.0),
        lambda: FourierGroupElement(0.5, 0.0, 0.25),
        "FourierGroupElement(chi=0.5, psi=0.0, theta=0.25, phi=0.0, "
        "omega=1.0)"),
    "RenderSpec": (lambda: RenderSpec("adaptive", 16, "abs"),
                   lambda: RenderSpec(scaling="adaptive", depth=16,
                                      channel="abs"),
                   lambda: RenderSpec(),
                   "RenderSpec(scaling='adaptive', depth=16, channel='abs')"),
    "CheckResult": (lambda: CheckResult("a", True, "d", 0.5, 1e-12, 1e-9),
                    lambda: CheckResult(name="a", passed=True, detail="d",
                                        seconds=0.5, deviation=1e-12,
                                        tolerance=1e-9,
                                        known_limitation=False, error=""),
                    lambda: CheckResult("a", True, "d", 0.5, 1e-12, 1e-9,
                                        True),
                    "CheckResult(name='a', passed=True, detail='d', "
                    "seconds=0.5, deviation=1e-12, tolerance=1e-09, "
                    "known_limitation=False, error='')"),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_construction_equality_and_repr(case):
    positional, keyword, other, text = _CASES[case]
    value = positional()
    assert value == keyword() and not value != keyword()
    assert value != other() and not value == other()
    assert value != tuple(vars(value).values())
    assert repr(value) == text
    assert type(value).__name__ == case


@pytest.mark.parametrize("case", list(_CASES))
def test_pickle_and_deepcopy_round_trip(case):
    value = _CASES[case][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                 copy.copy(value)):
        assert twin == value and twin is not value
        assert type(twin) is type(value) and repr(twin) == repr(value)


@pytest.mark.parametrize("case", list(_CASES))
def test_frozen_types_hash_and_refuse_assignment(case):
    positional, keyword, other, _ = _CASES[case]
    value = positional()
    assert hash(value) == hash(keyword())
    assert len({value, keyword(), other()}) == 2
    field = next(iter(vars(value)))
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other(), field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_spins_sort_and_compare():
    spins = [Spin(4), Spin(1), Spin(3), Spin(0)]
    assert sorted(spins) == [Spin(0), Spin(1), Spin(3), Spin(4)]
    assert Spin(1) < Spin(2) <= Spin(2) < Spin(3)
    assert Spin(3) > Spin(2) >= Spin(2)
    assert max(spins) == Spin(4) and min(spins) == Spin(0)
    with pytest.raises(TypeError):
        Spin(1) < 2
    assert Spin(2) != 2 and Spin(2) != 1.0


def test_fields_are_validated_once_and_keep_their_types():
    assert type(Spin(np.int64(3)).two_j) is int
    shape = ScreenShape(2.5, 1)
    assert shape.j_x == Spin(5) and shape.j_y == Spin(2)
    assert ScreenShape(Fraction(5, 2), Fraction(2, 2)) == shape
    for bad in (Fraction(1, 3), True, np.True_, "1"):
        with pytest.raises(DomainError):
            ScreenShape(bad, 1)
    element = FourierGroupElement(1, 2, 3, 4)
    assert all(type(a) is float for a in vars(element).values())
    assert element.omega == element.default_omega


def test_little_d_matrix_round_trips_but_compares_by_identity():
    d = wigner_little_d(1, 0.3)
    assert d == d
    # A distinct matrix with equal fields is another matrix, not an error.
    other = wigner_little_d(1, 0.3)
    assert (d == other) is False and (d != other) is True
    assert d not in [other] and d in [other, d]
    assert repr(wigner_little_d(0.5, 0.0)) == (
        "LittleDMatrix(spin=Spin(j=1/2), beta=0.0, entries=array([[1., 0.],\n"
        "       [0., 1.]]))")
    with pytest.raises(TypeError):
        hash(d)
    with pytest.raises(AttributeError):
        d.beta = 0.5
    keyword = LittleDMatrix(spin=d.spin, beta=d.beta, entries=d.entries)
    assert keyword.spin == d.spin and keyword.entries is d.entries
    for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert type(twin) is LittleDMatrix
        assert (twin.spin, twin.beta) == (d.spin, d.beta)
        np.testing.assert_array_equal(twin.entries, d.entries)
        assert twin.value(1, 0) == d.value(1, 0)
