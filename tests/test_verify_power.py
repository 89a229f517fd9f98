"""Every check of ``fkimage verify`` must be able to fail, and each reads
the same alone as in the full suite.

Each named defect is monkeypatched into the library, and
``run_verification`` runs on a screen that mixes on whole quarter-turn
rungs in one batch, (5,3), and one that mixes on even/odd halves,
(24,24).  The test asserts the exact set of checks that fail: the ones
the defect names, and the known limitation, which fails on every
rectangular screen.  Every registered check but the known limitation is
named by at least one defect.  On the same screens each check, run as the
only registered check, gives the deviation it gives in the full suite:
its draws come from its own name.

That alone run also records, under ``sys.setprofile``, the code of every
function each check calls.  A defect that replaces a function reruns
only the checks that called it, and takes the clean results for the
rest; a defect that replaces anything else, a constant or a class,
reruns every check.  For defects in three modules a test asserts that
this run equals a full run under the defect, check by check.  The last
tests show that the 2 pi identity of ``one_parameter_subgroups`` alone
catches angles reduced mod 2 pi, that ``image_action_group_law`` and
``chain_roundtrip`` each alone catch a defect in their own group
operation, and why the unit of ``coefficient_unitarity`` has a floor.
"""

import cmath
import itertools
import math
import os
import sys
import types

import numpy as np
import pytest

from fkimage import ScreenShape, fourier_transforms, group_algebra, \
    mode_basis, special_functions, verify
from fkimage.verify import KNOWN_LIMITATIONS, run_verification

_SCREENS = ((5, 3), (24, 24))
_quarter_turn = mode_basis._quarter_turn


def _scaled_column(basis, two_l):
    # Spin 3: the top spin of (5,3), so lk_conjugation_symmetry sees it too.
    v = _quarter_turn(basis, two_l)
    if two_l == 6:
        v[:, 1] *= 1.0 + 1e-9
    return v


def _duplicated_column(basis, two_l):
    v = _quarter_turn(basis, two_l)
    if two_l == 6:
        v[:, 1] = v[:, 0]
    return v


def _scaled_stacks(key):
    # A per-op norm bias of 2e-13: every batch stack scaled after the build.
    basis = mode_basis.build_basis(key)
    basis.batches = tuple(
        (lo, hi, shape, stack.transpose(0, 1, 3, 2), stack, index)
        for lo, hi, shape, _, old, index in basis.batches
        for stack in [old * (1.0 - 1e-13)])
    return basis


def _unzeroed_middles(key):
    # No middles: the padding beside an even spin's middle member keeps
    # mode 0's value, which the butterfly adds into that member.  Halves
    # only, so (24,24) alone.
    basis = mode_basis.build_basis(key)
    basis.middles = np.empty(0, dtype=np.intp)
    return basis


def _flipped_phi_x_row(key):
    # Row 1 of phi_x, the Kravchuk function Psi_1 of the x axis, negated
    # after the build: the table stays orthogonal.
    basis = mode_basis.build_basis(key)
    basis.phi_x = basis.phi_x.copy()
    basis.phi_x[1] *= -1.0
    return basis


def _pre_turn_of_ones(key):
    # A rotation's pre quarter turn i^(n_y) replaced by ones: rotations
    # leave the real line.
    basis = mode_basis.build_basis(key)
    basis.quarter_turns = (np.ones(basis.shape.pixels, dtype=complex),
                           basis.quarter_turns[1])
    return basis


_mix = mode_basis.CartesianBasis._mix


def _biased_mix(self, coeffs, phases, turn):
    # F's per-op norm bias of 2e-13 inside the mix, where no stored table
    # shows it.
    return _mix(self, coeffs, phases, turn) * (1.0 - 1e-13)


def _conjugated_halves_mix(self, coeffs, phases, turn):
    # Every eigen-phase conjugated on even/odd halves: each action with
    # 2j_min >= 48 runs at -theta.  Whole rungs, so (5,3), are untouched.
    return _mix(self, coeffs, np.conj(phases) if self.halves == 2 else phases,
                turn)


def _perturbed_whole_rung(key):
    # One off-diagonal entry of the top spin's U, in its first slot, moved
    # by 1e-12 after the build: the table is no longer symmetric.
    basis = mode_basis.build_basis(key)
    if basis.halves == 1:
        b, i, at = basis.places[-1]
        batches = list(basis.batches)
        lo, hi, shape, _, old, index = batches[b]
        u = old.copy()
        u[0, i, at, at + 1] += 1e-12
        batches[b] = (lo, hi, shape, u, u, index)
        basis.batches = tuple(batches)
    return basis


_phases = mode_basis.CartesianBasis._phases


def _phases_without_shift(self, theta, level=0.0, shift=0.0, pre=0.0,
                          post=0.0):
    return _phases(self, theta, level, 0.0, pre, post)


def _phases_of_scaled_theta(self, theta, level=0.0, shift=0.0, pre=0.0,
                            post=0.0):
    return _phases(self, theta * (1.0 + 1e-9), level, shift, pre, post)


_fourier_phases = fourier_transforms._fourier_phases


def _fourier_phases_of_scaled_ka_angle(coeffs, angle, sign):
    # K_A's angle scaled by 1 + 1e-9; K_S (sign 1) is left alone.
    return _fourier_phases(coeffs, angle * (1.0 if sign > 0 else 1.0 + 1e-9),
                           sign)


_scale_to_unit = verify.scale_to_unit


def _flat_to_black(values, spec):
    # A constant image mapped to 0, not to mid-gray.
    unit = _scale_to_unit(values, spec)
    return np.zeros_like(unit) if np.ptp(values) == 0 else unit


_save_complex = verify.save_complex


def _last_bit_flipped(path, pixels):
    # The last bit of the payload, the lowest of its last byte, flipped.
    _save_complex(path, pixels)
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)[0]
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last ^ 1]))
    return path


_lk_block = mode_basis._lk_block


def _conjugated_level_phase(basis, two_l, rows=slice(None)):
    # The LK level phase exp(+i pi lambda/2) in place of exp(-i pi lambda/2).
    return _lk_block(basis, two_l, rows) * cmath.exp(0.5j * math.pi * two_l)


_LevelSpectrum = mode_basis.LevelSpectrum


def _reversed_mu(n, spin, n_y, two_mu):
    # Every level's members listed with 2 mu ascending, not descending.
    return _LevelSpectrum(n, spin, n_y, two_mu[::-1])


def _last_member_dropped(n, spin, n_y, two_mu):
    # Every level of two or more members served without its last one.
    if len(n_y) > 1:
        n_y, two_mu = n_y[:-1], two_mu[:-1]
    return _LevelSpectrum(n, spin, n_y, two_mu)


_half_step = special_functions._half_step


def _scaled_rung_30(d, c, s):
    # Rung 2j = 30 of every ladder walk scaled by 1 + 1e-9, and so every
    # rung the walk makes from it.
    d = _half_step(d, c, s)
    return d * (1.0 + 1e-9) if len(d) == 31 else d


_to_matrix = group_algebra.to_matrix


def _transposed_matrix(element):
    return _to_matrix(element).T


def _inverse_through_the_matrix(a):
    # Euler angles extracted from the conjugate transpose, and omega from
    # compose(a, inverse(a)) == identity.
    u00, u01, u10, u11 = group_algebra._entries(a.chi, a.psi, a.theta, a.phi)
    chi, psi, theta, phi = group_algebra._from_entries(
        u00.conjugate(), u10.conjugate(), u01.conjugate(), u11.conjugate())
    return group_algebra.FourierGroupElement(chi, psi, theta, phi,
                                             0.5 * (a.chi + chi) - a.omega)


def _biased_butterfly(t, b):
    # A per-op norm bias of about 1e-12 on halves; whole rungs have no
    # butterflies.
    t += b
    b *= -2.0 * (1.0 + 1e-12)
    b += t


# name: (module, attribute, replacement, the checks that must fail)
_DEFECTS = {
    "angles reduced mod 2 pi, not 4 pi": (
        special_functions, "_ANGLE_PERIOD", 2.0 * math.pi,
        {"apply_element_reductions", "image_action_group_law",
         "littled_group_law", "one_parameter_subgroups",
         "rotation_pi_half_turn_law"}),
    "the LK level phase conjugated in _lk_block": (
        mode_basis, "_lk_block", _conjugated_level_phase,
        {"lk_conjugation_symmetry"}),
    "a column of the spin-3 V scaled by 1 + 1e-9": (
        mode_basis, "_quarter_turn", _scaled_column,
        {"lk_basis_gram", "lk_conjugation_symmetry"}),
    "a column of the spin-3 V replaced by its neighbour": (
        mode_basis, "_quarter_turn", _duplicated_column,
        {"lk_basis_gram", "lk_conjugation_symmetry"}),
    "every batch stack scaled by 1 - 1e-13": (
        verify, "build_basis", _scaled_stacks,
        {"chain_roundtrip", "coefficient_unitarity",
         "quarter_turn_reflection"}),
    "every mix output scaled by 1 - 1e-13": (
        mode_basis.CartesianBasis, "_mix", _biased_mix,
        {"chain_roundtrip", "coefficient_unitarity"}),
    "every eigen-phase conjugated on even/odd halves": (
        mode_basis.CartesianBasis, "_mix", _conjugated_halves_mix,
        {"apply_element_reductions"}),
    "the middle members' partners left unzeroed": (
        verify, "build_basis", _unzeroed_middles,
        {"apply_element_reductions", "chain_roundtrip",
         "coefficient_unitarity",
         "one_parameter_subgroups", "rotation_pi_half_turn_law",
         "rotation_realness"}),
    "the omega shift dropped in _phases": (
        mode_basis.CartesianBasis, "_phases", _phases_without_shift,
        {"apply_element_reductions", "image_action_group_law"}),
    "theta scaled by 1 + 1e-9 in _phases": (
        mode_basis.CartesianBasis, "_phases", _phases_of_scaled_theta,
        {"apply_element_reductions", "gyration_direct_vs_sandwich",
         "image_action_group_law", "one_parameter_subgroups",
         "rotation_pi_half_turn_law"}),
    "K_A's angle scaled by 1 + 1e-9": (
        fourier_transforms, "_fourier_phases",
        _fourier_phases_of_scaled_ka_angle,
        {"apply_element_reductions", "fourier_phase_laws",
         "gyration_direct_vs_sandwich"}),
    "one off-diagonal entry of a whole-rung U moved by 1e-12": (
        verify, "build_basis", _perturbed_whole_rung,
        {"apply_element_reductions", "chain_roundtrip",
         "coefficient_unitarity",
         "quarter_turn_reflection"}),
    "the butterfly's b *= -2 biased by 1e-12": (
        mode_basis, "_butterfly", _biased_butterfly,
        {"chain_roundtrip", "coefficient_unitarity"}),
    "ladder rung 2j = 30 scaled by 1 + 1e-9 in _half_step": (
        special_functions, "_half_step", _scaled_rung_30,
        {"apply_element_reductions", "cartesian_basis_gram",
         "chain_roundtrip", "coefficient_unitarity", "littled_group_law",
         "littled_kravchuk_crosscheck", "littled_orthogonality",
         "lk_basis_gram", "one_parameter_subgroups",
         "rotation_pi_half_turn_law"}),
    "inverse through the matrix": (
        group_algebra, "inverse", _inverse_through_the_matrix,
        {"chain_roundtrip"}),
    "to_matrix returning the transpose": (
        group_algebra, "to_matrix", _transposed_matrix,
        {"from_matrix_roundtrip", "matrix_homomorphism"}),
    "row 1 of phi_x negated after the build": (
        verify, "build_basis", _flipped_phi_x_row, {"checkerboard_relation"}),
    "a rotation's pre quarter turn replaced by ones": (
        verify, "build_basis", _pre_turn_of_ones,
        {"apply_element_reductions", "gyration_direct_vs_sandwich",
         "one_parameter_subgroups", "rotation_pi_half_turn_law",
         "rotation_realness"}),
    "a constant image rendered black": (
        verify, "scale_to_unit", _flat_to_black, {"render_rules"}),
    "the last payload bit of a complex file flipped": (
        verify, "save_complex", _last_bit_flipped, {"file_roundtrips"}),
    "every level's 2 mu reversed in level_spectrum": (
        mode_basis, "LevelSpectrum", _reversed_mu,
        {"apply_element_reductions", "level_boundary_consistency"}),
    "every level's last member dropped in level_spectrum": (
        mode_basis, "LevelSpectrum", _last_member_dropped,
        {"apply_element_reductions", "gyration_direct_vs_sandwich",
         "level_boundary_consistency", "level_invariance", "lk_basis_gram",
         "lk_conjugation_symmetry", "rotation_pi_half_turn_law"}),
}

def _failures(results):
    return {r.name for r in results if not r.passed}


def test_verify_at_its_defaults_fails_only_the_known_limitation(
        monkeypatch):
    builds = []

    def build(shape, build_basis=verify.build_basis):
        builds.append(shape)
        return build_basis(shape)

    monkeypatch.setattr(verify, "build_basis", build)
    results = run_verification()
    # Each distinct screen, the seven default ones and the checks' own, is
    # built once.
    assert len(builds) == len(set(builds)) == 10
    assert [r.name for r in results] == [name for name, *_ in verify._CHECKS]
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == list(KNOWN_LIMITATIONS)
    assert all(r.known_limitation and not r.error for r in failed)


def test_every_defect_names_registered_checks():
    registered = {name for name, *_ in verify._CHECKS}
    for defect, (module, attribute, _, names) in _DEFECTS.items():
        assert hasattr(module, attribute), defect
        assert names and names <= registered - set(KNOWN_LIMITATIONS), defect


def test_no_defect_patches_the_exact_kravchuk_reference():
    # verify builds each exact Kravchuk table once per process, so a defect
    # in the code that builds them would be masked by a table built clean.
    cached = {"kravchuk_function", "kravchuk_polynomial", "_log_binomial"}
    for defect, (_, attribute, _, _) in _DEFECTS.items():
        assert attribute not in cached, defect


def test_every_check_is_named_by_a_defect():
    named = set().union(*(names for *_, names in _DEFECTS.values()))
    registered = {name for name, *_ in verify._CHECKS}
    assert registered - set(KNOWN_LIMITATIONS) == named


@pytest.fixture(scope="module")
def full_suite():
    """The results of the clean suite on the screens, run once."""
    return run_verification(_SCREENS)


@pytest.fixture(scope="module")
def alone():
    """Each check run as the only registered check on the screens: its
    result, and the code of every function it called, recorded under
    ``sys.setprofile``.  Alone, no basis built for an earlier check hides
    a build from it."""
    out = {}
    for check in verify._CHECKS:
        codes = set()

        def record(frame, event, arg):
            if event == "call":
                codes.add(frame.f_code)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_CHECKS", [check])
            sys.setprofile(record)
            try:
                [result] = run_verification(_SCREENS)
            finally:
                sys.setprofile(None)
        out[check[0]] = result, codes
    return out


def _defect_run(defect, full_suite, alone):
    """The suite on the screens under ``defect``.  A check reruns when it
    called the function the defect replaces, and every check reruns for
    a replaced non-function; the clean result stands for the rest.  Each
    check's result depends only on the seed, its name, the screens and
    the code it runs (``test_each_check_reads_the_same_alone``)."""
    module, attribute, replacement, _ = _DEFECTS[defect]
    original = getattr(module, attribute)
    reached = [check for check in verify._CHECKS
               if not isinstance(original, types.FunctionType)
               or original.__code__ in alone[check[0]][1]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, attribute, replacement)
        patch.setattr(verify, "_CHECKS", reached)
        rerun = {r.name: r for r in run_verification(_SCREENS)}
    return [rerun.get(r.name, r) for r in full_suite]


@pytest.mark.parametrize("defect", [None, *_DEFECTS])
def test_each_defect_fails_the_checks_it_names(defect, full_suite, alone):
    names, results = set(), full_suite
    if defect is not None:
        names = _DEFECTS[defect][3]
        results = _defect_run(defect, full_suite, alone)
    assert _failures(results) == names | set(KNOWN_LIMITATIONS)


def _outcomes(results):
    return [(r.name, r.deviation, r.error) for r in results]


@pytest.mark.parametrize("defect", [
    "inverse through the matrix", "K_A's angle scaled by 1 + 1e-9",
    "the LK level phase conjugated in _lk_block"])
def test_a_defect_run_equals_a_full_run(defect, full_suite, alone,
                                        monkeypatch):
    # One defect each of group_algebra, fourier_transforms and mode_basis.
    subset = _defect_run(defect, full_suite, alone)
    module, attribute, replacement, _ = _DEFECTS[defect]
    monkeypatch.setattr(module, attribute, replacement)
    assert _outcomes(subset) == _outcomes(run_verification(_SCREENS))


def test_a_screen_shape_reads_as_its_pair_of_spins(full_suite):
    results = run_verification([ScreenShape.of(5, 3), (24, 24)])
    assert [r.deviation for r in results] == [
        r.deviation for r in full_suite]


@pytest.mark.parametrize("check", verify._CHECKS, ids=lambda check: check[0])
def test_each_check_reads_the_same_alone(check, full_suite, alone):
    assert alone[check[0]][0].deviation == {
        r.name: r.deviation for r in full_suite}[check[0]]


def test_the_two_pi_identity_alone_catches_angles_reduced_mod_2_pi(
        monkeypatch):
    # Per screen one_parameter_subgroups yields R(a) R(b) - R(a+b), then
    # R(a) R(2 pi - a) - x, then the same for G.  Under the defect each
    # identity reads above 1 on every default screen, while rotate(2 pi) - x
    # reads exactly 0: 2 theta = 4 pi reduces to 0 mod 2 pi as mod 4 pi.
    [check] = [fn for name, _, _, fn in verify._CHECKS
               if name == "one_parameter_subgroups"]
    bases = [mode_basis.build_basis(shape) for shape in verify.DEFAULT_SHAPES]

    def identities(basis):
        ctx = {"screens": lambda: [basis], "rng": np.random.default_rng(7)}
        values = [np.max(np.abs(v)) for v in itertools.islice(check(ctx), 4)]
        return values[1], values[3]

    clean = [identities(basis) for basis in bases]
    monkeypatch.setattr(special_functions, "_ANGLE_PERIOD", 2.0 * math.pi)
    for basis, before in zip(bases, clean):
        assert max(before) < 1e-12 < 1.0 < min(identities(basis))
        x = np.ones(basis.shape.pixels, dtype=complex)
        assert np.array_equal(
            fourier_transforms.rotate_coeffs(basis, x, 2.0 * math.pi), x)


def _omega_shifted(operation):
    def shifted(*elements):
        e = operation(*elements)
        return group_algebra.FourierGroupElement(
            e.chi, e.psi, e.theta, e.phi, e.omega + 1e-6)
    return shifted


@pytest.mark.parametrize("operation, law", [
    ("compose", "image_action_group_law"), ("inverse", "chain_roundtrip")])
def test_each_group_law_alone_catches_its_own_operation(
        operation, law, monkeypatch):
    # image_action_group_law measures the compose law and chain_roundtrip
    # the inverse law.  Shifting omega by 1e-6 in one operation fails
    # every yield of its law's check and leaves the other's bit for bit.
    checks = {name: (tolerance, check)
              for name, tolerance, _, check in verify._CHECKS
              if name in ("image_action_group_law", "chain_roundtrip")}

    def laws():
        values = {}
        for name, (_, check) in checks.items():
            ctx = {"get_basis": mode_basis.build_basis,
                   "screens": lambda: [mode_basis.build_basis((5, 3))],
                   "rng": np.random.default_rng(7)}
            values[name] = [np.max(np.abs(v)) for v in check(ctx)]
        return values

    clean = laws()
    monkeypatch.setattr(group_algebra, operation,
                        _omega_shifted(getattr(group_algebra, operation)))
    broken = laws()
    [other] = set(checks) - {law}
    assert all(max(clean[name]) < checks[name][0] for name in checks)
    assert min(broken[law]) > checks[law][0]
    assert broken[other] == clean[other]


def test_coefficient_unitarity_needs_its_floor_on_tiny_screens(monkeypatch):
    # The unit is eps (sqrt(N_x N_y) + 8): the norm's own rounding, 1.5 to
    # 2 eps, would fail clean code on the screens of 1 to 9 pixels in the
    # bare unit eps sqrt(N_x N_y).
    monkeypatch.setattr(verify, "_CHECKS", [
        check for check in verify._CHECKS
        if check[0] == "coefficient_unitarity"])
    tiny = ((0, 0), (0.5, 0), (0, 0.5), (0.5, 0.5), (1, 1))
    monkeypatch.setattr(verify, "_IMAGES", 50)
    for shape in tiny + ((255, 3),):
        [result] = run_verification([shape])
        assert result.passed, shape
    monkeypatch.setattr(verify, "_IMAGES", 300)
    bare = []
    for shape in tiny:
        [result] = run_verification([shape])
        assert result.passed, shape
        root = math.sqrt((2 * shape[0] + 1) * (2 * shape[1] + 1))
        bare.append(result.deviation * (root + 8) / root)
    assert max(bare) > 1.0
