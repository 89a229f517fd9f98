"""The package's public names, and every name the benchmark under bench/
reaches into; bench/tracing.py skips a missing boundary without a word."""

import ast
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import fkimage
from fkimage import (CartesianBasis, DimensionError, DomainError,
                     FourierGroupElement, RenderSpec, ValidationError,
                     analyze, build_basis,
                     element_from_json, fractional_fourier_image, from_matrix,
                     gyrate_coeffs, ka_coeffs, ks_coeffs, mode_basis, render,
                     rotate_coeffs, special_functions, wigner_little_d)
from fkimage.special_functions import LittleDMatrix

BENCH = Path(__file__).resolve().parents[1] / "bench"
# The names bench/ binds to parts of the package.
ALIASES = {alias: importlib.import_module("fkimage" + module) for alias, module
           in (("fkimage", ""), ("cli", ".cli"), ("imageio", ".imageio"),
               ("ft", ".fourier_transforms"), ("ga", ".group_algebra"),
               ("mode_basis", ".mode_basis"), ("render", ".render"),
               ("special_functions", ".special_functions"))}
# Boundaries that bench/tracing.py wraps but the program no longer has.
STALE = {("ft", "_little_d_entries"), ("mode_basis", "kravchuk_function")}


def test_all_lists_exactly_the_exported_names():
    # Names served on first use join the namespace once resolved.
    for name in fkimage.__all__:
        getattr(fkimage, name)
    exported = {name for name, value in vars(fkimage).items()
                if not name.startswith("_")
                and not isinstance(value, ModuleType)}
    assert sorted(fkimage.__all__) == sorted(exported | {"__version__"})
    assert all(hasattr(fkimage, name) for name in fkimage.__all__)
    for name in ("as_spin", "LittleDMatrix", "LevelSpectrum", "ModeIndex",
                 "kravchuk_polynomial", "gyrate_coeffs_sandwich"):
        assert not hasattr(fkimage, name), name
    assert not hasattr(special_functions, "as_spin")
    assert not hasattr(mode_basis, "ModeIndex")


def test_every_submodule_all_resolves():
    # A stale entry would break ``from fkimage.<module> import *``.
    for info in pkgutil.iter_modules(fkimage.__path__):
        module = importlib.import_module(f"fkimage.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"


def test_cli_import_leaves_verification_and_figures_unloaded():
    code = ("import sys, fkimage.cli\n"
            "print(sorted(m for m in ('fkimage.verify', 'fkimage._reference',"
            " 'fkimage.figures') if m in sys.modules))\n"
            "import fkimage\n"
            "print(fkimage.run_verification.__module__,"
            " fkimage.CheckResult.__module__)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         cwd=Path(fkimage.__file__).parents[1]).stdout
    assert out.split("\n")[:2] == ["[]", "fkimage.verify fkimage.verify"]


def test_cli_import_leaves_dataclasses_json_and_fractions_unloaded(tmp_path):
    # A command that needs json or fractions loads it on first use.
    code = ("import sys, fkimage, fkimage.cli\n"
            "print(sorted(m for m in ('dataclasses', 'json', 'fractions',"
            " 'decimal') if m in sys.modules))\n"
            "from fkimage.cli import main\n"
            "e = '{\"chi\": 0.5, \"theta\": 1.0, \"omega\": 2.0}'\n"
            "codes = [main(['compose', '--a', e, '--b', e]),\n"
            "         main(['invert', '--element', e]),\n"
            "         main(['modes', '--shape', '5/2,1', '--out', 'm']),\n"
            "         main(['apply', '--element', e, '--in', 'm/sheet_cartesian.pgm',"
            " '--out', 'a.fkimg'])]\n"
            "print(codes, 'json' in sys.modules, 'fractions' in sys.modules)\n")
    src = Path(fkimage.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    lines = out.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[0, 0, 0, 0] True True"
    composed, inverted = (json.loads(line) for line in lines[1:3])
    assert set(composed) == set(inverted) == {"chi", "psi", "theta", "phi",
                                              "omega"}
    assert (tmp_path / "a.fkimg").stat().st_size > 0


def _chain(node):
    """('alias', 'attr', ...) of a dotted name rooted at an alias."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in ALIASES:
        return (node.id, *parts)
    return None


def test_every_name_bench_calls_resolves():
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names.add(_chain(node))
            if (isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", "") == "BOUNDARIES"):
                names |= {_chain(t.elts[0]) + (t.elts[1].value,)
                          for t in node.value.elts}
    names.discard(None)
    assert {("mode_basis", "ScreenShape", "of"), ("ga", "inverse"),
            ("cli", "render")} <= names
    for chain in names - STALE:
        value = ALIASES[chain[0]]
        for attr in chain[1:]:
            assert hasattr(value, attr), ".".join(chain)
            value = getattr(value, attr)
    # What the bench reads off the level structure.
    screen = fkimage.ScreenShape.of(5, 3.5)
    basis = mode_basis.build_basis((5, 3.5))
    spins = [fkimage.level_spectrum(screen, n).spin.two_j
             for n in range(screen.max_total_mode + 1)]
    assert [lev.spin.two_j for lev in basis.levels] == spins
    assert [lev.size for lev in basis.levels] == [s + 1 for s in spins]
    assert basis.shape.pixels == screen.pixels == (11, 8)
    assert special_functions.kravchuk_function(48, 0, -48) > 0.0


# Bad input at each public entry point, and the package error it raises at
# the one place that converts it.
_BAD_INPUT = {
    "angle str": (lambda b, x: rotate_coeffs(b, x, "x"), DomainError),
    "angle None": (lambda b, x: rotate_coeffs(b, x, None), DomainError),
    "angle complex": (lambda b, x: rotate_coeffs(b, x, 1j), DomainError),
    # float() reads a bool, a numeric string and bytes; none is an angle.
    "angle bool": (lambda b, x: rotate_coeffs(b, x, True), DomainError),
    "angle numpy bool": (lambda b, x: rotate_coeffs(b, x, np.True_),
                         DomainError),
    "angle numeric str": (lambda b, x: rotate_coeffs(b, x, "0.5"),
                          DomainError),
    "angle bytes": (lambda b, x: rotate_coeffs(b, x, b"0.5"), DomainError),
    "ks numeric str": (lambda b, x: ks_coeffs(x, "1"), DomainError),
    "ka bool": (lambda b, x: ka_coeffs(x, False), DomainError),
    "little-d bool": (lambda b, x: wigner_little_d(1, True), DomainError),
    "element angle str": (lambda b, x: FourierGroupElement("a"),
                          ValidationError),
    "element angle numeric str": (
        lambda b, x: FourierGroupElement(theta="1"), ValidationError),
    "element omega bool": (lambda b, x: FourierGroupElement(omega=True),
                           ValidationError),
    "element omega numpy bool": (
        lambda b, x: FourierGroupElement(omega=np.False_), ValidationError),
    "element JSON bool": (lambda b, x: element_from_json('{"chi": true}'),
                          ValidationError),
    "element JSON str": (lambda b, x: element_from_json('{"chi": "1.5"}'),
                         ValidationError),
    "element JSON bytes omega": (
        lambda b, x: element_from_json({"omega": b"1"}), ValidationError),
    "element mapping with mixed keys": (
        lambda b, x: element_from_json({1: 0.5, "x": 0.5}), ValidationError),
    "matrix str": (lambda b, x: from_matrix("ab"), ValidationError),
    # Each shape case runs through build_basis and through the constructor.
    **{f"{prefix}shape {case}": (
        lambda b, x, construct=construct, spins=spins: construct(spins),
        DomainError)
       for prefix, construct in (("", build_basis),
                                 ("CartesianBasis ", CartesianBasis))
       for case, spins in (("of one spin", (1,)),
                           ("of three spins", (1, 2, 3)),
                           ("None", None), ("bool", (True, 1)),
                           ("nan", (float("nan"), 1)),
                           ("inf", (1, float("inf"))))},
    "analyze str": (lambda b, x: analyze(b, x.astype(str)), DomainError),
    "analyze object": (lambda b, x: analyze(b, x.astype(object)),
                       DomainError),
    "rotate str": (lambda b, x: rotate_coeffs(b, x.astype(str), 0.3),
                   DomainError),
    "rotate object": (lambda b, x: rotate_coeffs(b, x.astype(object), 0.3),
                      DomainError),
    "ks str": (lambda b, x: ks_coeffs(x.astype(str), 0.3), DomainError),
    "ks object": (lambda b, x: ks_coeffs(x.astype(object), 0.3),
                  DomainError),
    # render checks its array before any cast; nothing reaches the file.
    "render nan": (lambda b, x: render(x * math.nan, RenderSpec(),
                                       os.devnull), DomainError),
    "render empty adaptive": (
        lambda b, x: render(np.zeros((0, 3)), RenderSpec("adaptive"),
                            os.devnull), DimensionError),
    "render str": (lambda b, x: render(x.astype(str), RenderSpec(),
                                       os.devnull), DomainError),
    "render 1-D": (lambda b, x: render(x[0], RenderSpec(), os.devnull),
                   DimensionError),
}


@pytest.mark.parametrize("case", list(_BAD_INPUT))
def test_bad_input_raises_a_package_error(case):
    call, error = _BAD_INPUT[case]
    basis = build_basis((2, 1))
    with pytest.raises(error):
        call(basis, np.ones(basis.pixels))


# Every entry point that takes an angle, and the package error it raises.
_FIELDS = ("chi", "psi", "theta", "phi", "omega")
_ANGLE_ENTRY_POINTS = {
    "rotate_coeffs": (lambda b, x, a: rotate_coeffs(b, x, a), DomainError),
    "gyrate_coeffs": (lambda b, x, a: gyrate_coeffs(b, x, a), DomainError),
    "ks_coeffs": (lambda b, x, a: ks_coeffs(x, a), DomainError),
    "ka_coeffs": (lambda b, x, a: ka_coeffs(x, a), DomainError),
    "fractional_fourier_image chi": (
        lambda b, x, a: fractional_fourier_image(b, x, chi=a), DomainError),
    "fractional_fourier_image beta": (
        lambda b, x, a: fractional_fourier_image(b, x, beta=a), DomainError),
    "wigner_little_d": (lambda b, x, a: wigner_little_d(1.5, a), DomainError),
    **{f"FourierGroupElement {key}": (
        lambda b, x, a, key=key: FourierGroupElement(**{key: a}),
        ValidationError) for key in _FIELDS},
    **{f"element_from_json {key}": (
        lambda b, x, a, key=key: element_from_json({key: a}),
        ValidationError) for key in _FIELDS},
}
# What float() may read but is no angle, and what is no finite float.
_REFUSED_ANGLES = {
    "bool": True,
    "numpy bool": np.True_,
    "str": "0.5",
    "bytes": b"0.5",
    "bytearray": bytearray(b"0.5"),
    "memoryview": memoryview(b"0.5"),
    "0-d str array": np.array("0.5"),
    "0-d bool array": np.array(True),
    "Decimal": Decimal("0.5"),
    "int above the float range": 10 ** 400,
    "nan": math.nan,
    "inf": math.inf,
    "complex": 1j,
    "None": None,
}
_ACCEPTED_ANGLES = {
    "float": 0.7,
    "int": 2,
    "numpy float64": np.float64(0.7),
    "numpy float32": np.float32(0.7),
    "numpy int64": np.int64(2),
    "Fraction": Fraction(1, 3),
    "0-d float array": np.array(0.7),
}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in _ANGLE_ENTRY_POINTS for value in _REFUSED_ANGLES
    # None is the constructor's default omega, not a refused value.
    if (entry, value) != ("FourierGroupElement omega", "None")])
def test_every_angle_entry_point_refuses_what_is_no_angle(entry, value):
    call, error = _ANGLE_ENTRY_POINTS[entry]
    basis = build_basis((2, 1))
    with pytest.raises(error):
        call(basis, np.ones(basis.pixels), _REFUSED_ANGLES[value])


@pytest.mark.parametrize("value", list(_ACCEPTED_ANGLES))
@pytest.mark.parametrize("entry", list(_ANGLE_ENTRY_POINTS))
def test_every_angle_entry_point_reads_a_real_number_as_its_float(entry,
                                                                  value):
    call, _ = _ANGLE_ENTRY_POINTS[entry]
    basis = build_basis((2, 1.5))
    x = np.random.default_rng(5).standard_normal(basis.pixels)
    angle = _ACCEPTED_ANGLES[value]
    got, want = call(basis, x, angle), call(basis, x, float(angle))
    if isinstance(got, LittleDMatrix):      # compares by identity
        assert got.beta == want.beta
        got, want = got.entries, want.entries
    if isinstance(got, FourierGroupElement):
        assert all(type(field) is float for field in vars(got).values())
        assert got == want
    else:
        assert np.array_equal(got, want)
