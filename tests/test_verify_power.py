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
its draws come from its own name.  The last tests show that the 2 pi
identity of ``one_parameter_subgroups`` alone catches angles reduced mod
2 pi, that each law of ``image_action_group_law`` alone catches a defect
in its own group operation, and why the unit of ``coefficient_unitarity``
has a floor.
"""

import cmath
import itertools
import math
import os

import numpy as np
import pytest

from fkimage import fourier_transforms, group_algebra, mode_basis, \
    special_functions, verify
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
        {"coefficient_unitarity", "quarter_turn_reflection"}),
    "every mix output scaled by 1 - 1e-13": (
        mode_basis.CartesianBasis, "_mix", _biased_mix,
        {"coefficient_unitarity"}),
    "every eigen-phase conjugated on even/odd halves": (
        mode_basis.CartesianBasis, "_mix", _conjugated_halves_mix,
        {"apply_element_reductions"}),
    "the middle members' partners left unzeroed": (
        verify, "build_basis", _unzeroed_middles,
        {"apply_element_reductions", "coefficient_unitarity",
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
        {"apply_element_reductions", "coefficient_unitarity",
         "quarter_turn_reflection"}),
    "the butterfly's b *= -2 biased by 1e-12": (
        mode_basis, "_butterfly", _biased_butterfly,
        {"coefficient_unitarity"}),
    "ladder rung 2j = 30 scaled by 1 + 1e-9 in _half_step": (
        special_functions, "_half_step", _scaled_rung_30,
        {"apply_element_reductions", "cartesian_basis_gram",
         "coefficient_unitarity", "littled_group_law",
         "littled_kravchuk_crosscheck", "littled_orthogonality",
         "lk_basis_gram", "one_parameter_subgroups",
         "rotation_pi_half_turn_law"}),
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


def test_verify_at_its_defaults_fails_only_the_known_limitation():
    results = run_verification()
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
    return run_verification(_SCREENS, images=2)


@pytest.mark.parametrize("defect", [None, *_DEFECTS])
def test_each_defect_fails_the_checks_it_names(defect, full_suite,
                                               monkeypatch):
    names, results = set(), full_suite
    if defect is not None:
        module, attribute, replacement, names = _DEFECTS[defect]
        monkeypatch.setattr(module, attribute, replacement)
        results = run_verification(_SCREENS, images=2)
    assert _failures(results) == names | set(KNOWN_LIMITATIONS)


@pytest.mark.parametrize("check", verify._CHECKS, ids=lambda check: check[0])
def test_each_check_reads_the_same_alone(check, full_suite, monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", [check])
    [alone] = run_verification(_SCREENS, images=2)
    assert alone.deviation == {r.name: r.deviation
                               for r in full_suite}[check[0]]


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


@pytest.mark.parametrize("operation", ["compose", "inverse"])
def test_each_image_action_law_alone_catches_its_own_operation(
        operation, monkeypatch):
    # image_action_group_law yields the compose law, then the inverse law,
    # on each draw.  Shifting omega by 1e-6 in one operation fails that
    # law's yields by ~1e-5 and leaves the other law's bit for bit.
    [check] = [fn for name, _, _, fn in verify._CHECKS
               if name == "image_action_group_law"]

    def laws():
        ctx = {"get_basis": mode_basis.build_basis,
               "rng": np.random.default_rng(7)}
        values = [np.max(np.abs(v)) for v in check(ctx)]
        return {"compose": values[0::2], "inverse": values[1::2]}

    clean = laws()
    monkeypatch.setattr(group_algebra, operation,
                        _omega_shifted(getattr(group_algebra, operation)))
    broken = laws()
    [other] = {"compose", "inverse"} - {operation}
    assert max(max(clean["compose"]), max(clean["inverse"])) < 1e-12
    assert min(broken[operation]) > 1e-9
    assert broken[other] == clean[other]


def test_coefficient_unitarity_needs_its_floor_on_tiny_screens(monkeypatch):
    # The unit is eps (sqrt(N_x N_y) + 8): the norm's own rounding, 1.5 to
    # 2 eps, would fail clean code on the screens of 1 to 9 pixels in the
    # bare unit eps sqrt(N_x N_y).
    monkeypatch.setattr(verify, "_CHECKS", [
        check for check in verify._CHECKS
        if check[0] == "coefficient_unitarity"])
    tiny = ((0, 0), (0.5, 0), (0, 0.5), (0.5, 0.5), (1, 1))
    for shape in tiny + ((255, 3),):
        [result] = run_verification([shape], images=50)
        assert result.passed, shape
    bare = []
    for shape in tiny:
        [result] = run_verification([shape], images=300)
        assert result.passed, shape
        root = math.sqrt((2 * shape[0] + 1) * (2 * shape[1] + 1))
        bare.append(result.deviation * (root + 8) / root)
    assert max(bare) > 1.0
