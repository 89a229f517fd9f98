import argparse
import inspect
import json
import math
import os

import numpy as np
import pytest

from fkimage import f_glyph, load_complex, load_image, save_complex
from fkimage.cli import main, parse_angle, parse_shape
from fkimage.verify import KNOWN_LIMITATIONS


# ------------------------------------------------------------- parsing

@pytest.mark.parametrize("text,value", [
    ("pi", math.pi),
    ("-pi/6", -math.pi / 6),
    ("3pi/4", 3 * math.pi / 4),
    ("2*pi/3", 2 * math.pi / 3),
    ("0.5235987755982988", 0.5235987755982988),
    ("-1.25", -1.25),
    ("+pi", math.pi),
    ("2.5E-1", 0.25),
    ("1e-3pi", 1e-3 * math.pi),
    ("-3E+2*pi/2.5e1", -300 * math.pi / 25),
])
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("value", [1e-05, 9.87e-05, 0.25, 4 * math.pi,
                                   5e-324])
def test_parse_angle_reads_what_repr_prints(value):
    # repr() writes every angle below 1e-4 with an exponent.
    assert parse_angle(repr(value)) == value
    assert parse_angle(repr(-value)) == -value


@pytest.mark.parametrize("bad", ["", "pi/0", "two", "1..2", "pi*pi", "1e",
                                 "e5", "1e5e5", "1.5e2.5", "pi/1e-400"])
def test_parse_angle_rejects(bad):
    from fkimage.cli import UsageError
    with pytest.raises(UsageError):
        parse_angle(bad)


@pytest.mark.parametrize("text", ["1e400", "-1e400", "1e308*pi", "9" * 400],
                         ids=["1e400", "-1e400", "1e308*pi", "400 digits"])
def test_parse_angle_refuses_values_beyond_the_floats(tmp_path, capsys,
                                                      text):
    from fkimage.cli import UsageError
    with pytest.raises(UsageError, match="finite"):
        parse_angle(text)
    # A usage error, exit 1, before any file is read.
    assert main(["rotate", f"--theta={text}", "--in", str(tmp_path / "no"),
                 "--out", str(tmp_path / "o.pgm")]) == 1
    assert "finite" in capsys.readouterr().err


def test_transform_commands_take_exponent_angles(tmp_path, rng):
    arr = rng.standard_normal((7, 5)) + 0j
    src = tmp_path / "src.fkimg"
    save_complex(src, arr)
    for command, flag in (("rotate", "--theta"), ("gyrate", "--gamma"),
                          ("fourier", "--chi")):
        out = tmp_path / f"{command}.fkimg"
        assert main([command, flag, "1e-05", "--in", str(src),
                     "--out", str(out)]) == 0
        assert np.max(np.abs(load_complex(out) - arr)) < 1e-3


def test_parse_shape():
    s = parse_shape("5,3")
    assert s.j_x.j == 5 and s.j_y.j == 3
    s = parse_shape("2.5, 1.5")
    assert s.j_x.two_j == 5 and s.j_y.two_j == 3
    s = parse_shape("5/2,3/2")
    assert s.j_x.two_j == 5 and s.j_y.two_j == 3
    from fkimage.cli import UsageError
    for bad in ("5", "5,3,1", "a,b", "0.3,1", "-1,2"):
        with pytest.raises(UsageError):
            parse_shape(bad)


# ------------------------------------------------------------ commands

def test_modes_command(tmp_path):
    out = tmp_path / "modes"
    assert main(["modes", "--shape", "5,3", "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    mode_files = [f for f in files if f.startswith("mode_")]
    assert len(mode_files) == 77
    assert "sheet_cartesian.pgm" in files


def test_modes_lk_command(tmp_path):
    out = tmp_path / "lk"
    assert main(["modes", "--shape", "2,1", "--lk", "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    lk_files = [f for f in files if f.startswith("lk_")]
    assert len(lk_files) == 15
    assert "sheet_lk.pgm" in files


def test_rotate_chain_matches_single_half_turn(tmp_path):
    start = tmp_path / "glyph.fkimg"
    save_complex(start, f_glyph().astype(complex))
    current = start
    for k in range(6):
        nxt = tmp_path / f"step{k}.fkimg"
        code = main(["rotate", "--theta", "0.5235987755982988",
                     "--in", str(current), "--out", str(nxt)])
        assert code == 0
        current = nxt
    single = tmp_path / "single.fkimg"
    assert main(["rotate", "--theta", "pi",
                 "--in", str(start), "--out", str(single)]) == 0
    chained = load_complex(current)
    direct = load_complex(single)
    assert np.max(np.abs(chained - direct)) < 1e-8


def test_rotate_pgm_output(tmp_path):
    start = tmp_path / "g.fkimg"
    save_complex(start, f_glyph().astype(complex))
    out = tmp_path / "rot.pgm"
    assert main(["rotate", "--theta", "pi/3", "--in", str(start),
                 "--out", str(out)]) == 0
    shape, pixels = load_image(out)
    assert pixels.shape == (41, 25)


def test_gyrate_and_fourier_commands(tmp_path, rng):
    arr = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    src = tmp_path / "src.fkimg"
    save_complex(src, arr)
    out1 = tmp_path / "gyr.fkimg"
    assert main(["gyrate", "--gamma", "pi/8", "--in", str(src),
                 "--out", str(out1)]) == 0
    out2 = tmp_path / "frf.fkimg"
    # negative angles need the --flag=value spelling (argparse limitation)
    assert main(["fourier", "--chi", "pi/2", "--beta=-pi/4",
                 "--in", str(src), "--out", str(out2)]) == 0
    for out in (out1, out2):
        result = load_complex(out)
        assert np.linalg.norm(result) == pytest.approx(np.linalg.norm(arr),
                                                       rel=1e-10)


def test_apply_and_invert_round_trip(tmp_path, rng, capsys):
    arr = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    src = tmp_path / "a.fkimg"
    save_complex(src, arr)
    element = json.dumps({"chi": 1.0, "psi": 0.5, "theta": 1.2, "phi": 2.0})
    mid = tmp_path / "mid.fkimg"
    assert main(["apply", "--element", element, "--in", str(src),
                 "--out", str(mid)]) == 0
    assert main(["invert", "--element", element]) == 0
    inv = capsys.readouterr().out.strip().splitlines()[-1]
    back = tmp_path / "back.fkimg"
    assert main(["apply", "--element", inv, "--in", str(mid),
                 "--out", str(back)]) == 0
    assert np.max(np.abs(load_complex(back) - arr)) < 1e-9


def test_invert_prints_the_negated_angles(capsys):
    # The README's example: each angle negated, and a zero angle +0.0.
    assert main(["invert", "--element", '{"chi":1.2,"theta":0.9}']) == 0
    out = capsys.readouterr().out.strip()
    assert out == '{"chi": -1.2, "psi": 0.0, "theta": -0.9, "phi": 0.0}'


def test_apply_element_from_file(tmp_path, rng):
    arr = rng.standard_normal((4, 4)) + 0j
    src = tmp_path / "s.fkimg"
    save_complex(src, arr)
    elem_file = tmp_path / "e.json"
    elem_file.write_text(json.dumps({"theta": 0.4}))
    assert main(["apply", "--element", f"@{elem_file}", "--in", str(src),
                 "--out", str(tmp_path / "o.fkimg")]) == 0


def test_compose_command(capsys):
    a = json.dumps({"chi": 0.0, "psi": 0.0, "theta": 0.5, "phi": 0.0})
    b = json.dumps({"chi": 0.0, "psi": 0.0, "theta": 0.9, "phi": 0.0})
    assert main(["compose", "--a", a, "--b", b]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["theta"] == pytest.approx(1.4, abs=1e-12)


def test_apply_composed_element_equals_two_applies(tmp_path, rng, capsys):
    arr = rng.standard_normal((11, 7)) + 1j * rng.standard_normal((11, 7))
    src = tmp_path / "r.fkimg"
    save_complex(src, arr)
    a = json.dumps({"chi": 2.0, "psi": 5.5, "theta": 4.0, "phi": -3.0})
    b = json.dumps({"chi": -1.0, "psi": 7.0, "theta": 2.5, "phi": 0.3})
    assert main(["compose", "--a", a, "--b", b]) == 0
    ab = capsys.readouterr().out.strip().splitlines()[-1]
    assert "omega" in json.loads(ab)
    mid, seq, once = (tmp_path / f"{k}.fkimg" for k in ("mid", "seq", "once"))
    assert main(["apply", "--element", b, "--in", str(src),
                 "--out", str(mid)]) == 0
    assert main(["apply", "--element", a, "--in", str(mid),
                 "--out", str(seq)]) == 0
    assert main(["apply", "--element", ab, "--in", str(src),
                 "--out", str(once)]) == 0
    assert np.max(np.abs(load_complex(once) - load_complex(seq))) < 1e-9


def test_verify_json_reports_each_check(capsys):
    code = main(["verify", "--shape", "5,3", "--seed", "7", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    checks = report["checks"]
    assert report["total"] == len(checks) and report["unexpected_failures"] == 0
    assert report["passed"] == sum(c["passed"] for c in checks)
    assert sorted(c["name"] for c in checks if not c["passed"]) == \
        sorted(KNOWN_LIMITATIONS)
    for c in checks:
        assert set(c) == {"name", "passed", "deviation", "tolerance",
                          "headroom", "seconds", "known_limitation"}
        assert c["passed"] == (c["deviation"] <= c["tolerance"])
        assert c["known_limitation"] == (c["name"] in KNOWN_LIMITATIONS)
        assert c["seconds"] >= 0.0
        if c["deviation"]:
            assert c["headroom"] == pytest.approx(c["tolerance"]
                                                  / c["deviation"])
        else:
            assert c["headroom"] is None
    # The text table: the known-impossible checks fail, and only they.
    assert main(["verify", "--shape", "5,3", "--seed", "7"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["check", "seconds", "headroom", "detail"]
    failing = [line.split()[0] for line in lines if "  FAIL  " in line]
    assert sorted(failing) == sorted(KNOWN_LIMITATIONS)
    assert not any("unexpected failure" in line for line in lines)


def _strict_json(text):
    """JSON that parses without NaN or Infinity, which JSON lacks."""
    def reject(constant):
        raise AssertionError(f"{constant} in JSON output")
    return json.loads(text, parse_constant=reject)


def test_verify_reports_a_raising_check_and_runs_the_others(monkeypatch,
                                                             capsys):
    from fkimage import verify

    def raising(ctx):
        raise ValueError("a check that raises")

    checks = {check[0]: check for check in verify._CHECKS}
    monkeypatch.setattr(verify, "_CHECKS", [
        checks["cartesian_basis_gram"],
        ("raising_check", 1.0, "raises", raising),
        checks["littled_group_law"]])
    argv = ["verify", "--shape", "5,3"]
    assert main(argv + ["--json"]) == 3
    report = _strict_json(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == [
        "cartesian_basis_gram", "raising_check", "littled_group_law"]
    assert [c["passed"] for c in report["checks"]] == [True, False, True]
    raised = report["checks"][1]
    assert raised["deviation"] is None and raised["tolerance"] is None
    assert not raised["known_limitation"]
    assert report["errors"] == {"raising_check":
                                "ValueError: a check that raises"}
    assert report["unexpected_failures"] == 1
    assert main(argv) == 3
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines()
                if line.startswith("raising_check"))
    assert "  FAIL  " in line
    assert "raised ValueError: a check that raises" in line
    assert "2/3 checks passed" in out and "1 unexpected failure" in out

    # A basis build that raises fails the checks that need the basis.
    def broken_build(key):
        raise IndexError("a broken basis build")

    monkeypatch.setattr(verify, "build_basis", broken_build)
    assert main(argv + ["--json"]) == 3
    report = _strict_json(capsys.readouterr().out)
    assert [c["passed"] for c in report["checks"]] == [False, False, True]
    assert report["errors"]["cartesian_basis_gram"] == \
        "IndexError: a broken basis build"


def test_verify_rejects_seeds_other_than_non_negative_integers(monkeypatch):
    from fkimage import DomainError, verify
    monkeypatch.setattr(verify, "_CHECKS", [
        ("samples", 1.0, "no samples", lambda ctx: iter([0.0]))])
    for seed in ("-1", "1.5", "x"):
        assert main(["verify", "--shape", "5,3", "--seed", seed]) == 1
    assert main(["verify", "--shape", "5,3", "--seed", "0"]) == 0
    for seed in (-1, 1.5, "x", True, None):
        with pytest.raises(DomainError, match="seed"):
            verify.run_verification(shapes=((5, 3),), seed=seed)
    assert verify.run_verification(shapes=((5, 3),), seed=np.int64(3))[0].passed


def test_verify_registry_holds_each_check_once():
    from fkimage import verify
    names = [name for name, _, _, _ in verify._CHECKS]
    assert len(names) == len(set(names)) == 24
    for name, tolerance, detail, check in verify._CHECKS:
        assert math.isfinite(tolerance) and tolerance >= 0.0, name
        assert detail.strip() and callable(check), name
    assert set(KNOWN_LIMITATIONS) <= set(names)


def test_verify_merged_group_laws_keep_their_parts_tightest_tolerance():
    # littled_group_law merges littled_addition_law (1e-9) and
    # littled_periodicity (1e-10); one_parameter_subgroups merges
    # rotation_group_law, gyration_group_law (1e-9) and rotation_six_sixths
    # (1e-8); image_action_group_law keeps image_action_homomorphism's
    # 1e-9, and inverse_image_roundtrip's law is chain_roundtrip's.
    from fkimage import verify
    tolerances = {name: tol for name, tol, _, _ in verify._CHECKS}
    assert {name: tolerances[name] for name in (
        "littled_group_law", "one_parameter_subgroups",
        "image_action_group_law")} == {
        "littled_group_law": 1e-10, "one_parameter_subgroups": 1e-9,
        "image_action_group_law": 1e-9}


def test_verify_cli_defaults_are_the_suites():
    # The CLI passes every argument of verify.verify, so its defaults are
    # the suite's defaults, and its --shape help lists DEFAULT_SHAPES.
    from fkimage import cli, verify
    parser = cli.build_parser()
    args = parser.parse_args(["verify"])
    defaults = inspect.signature(verify.run_verification).parameters
    assert args.seed == defaults["seed"].default
    [subs] = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    [shape] = [a for a in subs.choices["verify"]._actions if a.dest == "shape"]
    listed = shape.help.split("default ", 1)[1].rstrip(")").split(" / ")
    assert [(s.j_x.j, s.j_y.j) for s in map(parse_shape, listed)] == \
        list(verify.DEFAULT_SHAPES)


def test_verify_takes_no_image_count(capsys):
    # coefficient_unitarity draws a fixed sample per screen, so a run
    # depends only on its screens and its seed.
    from fkimage import verify
    assert main(["verify", "--shape", "5,3", "--images", "3"]) == 1
    assert "--images" in capsys.readouterr().err
    for run in (verify.run_verification, verify.verify):
        assert "images" not in inspect.signature(run).parameters


def test_verify_fails_a_check_whose_result_goes_nan(monkeypatch, capsys):
    # The 7th rotation, on the second screen, returns NaN: the largest
    # deviation is then NaN, which fails and prints as null.  Four
    # rotations per screen, then seven on the (20,12) glyph.
    from fkimage import fourier_transforms, verify
    rotate_coeffs, calls = fourier_transforms.rotate_coeffs, []

    def rotate(basis, coeffs, theta):
        calls.append(theta)
        out = rotate_coeffs(basis, coeffs, theta)
        return out * math.nan if len(calls) == 7 else out

    monkeypatch.setattr(fourier_transforms, "rotate_coeffs", rotate)
    monkeypatch.setattr(verify, "_CHECKS", [
        c for c in verify._CHECKS if c[0] == "one_parameter_subgroups"])
    assert main(["verify", "--shape", "5,3", "--shape", "11,7",
                 "--json"]) == 3
    assert len(calls) == 15
    report = _strict_json(capsys.readouterr().out)
    [check] = report["checks"]
    assert not check["passed"] and check["deviation"] is None
    assert check["headroom"] is None and check["tolerance"] == 1e-9
    assert report["unexpected_failures"] == 1 and report["errors"] == {}


def test_figures_command(tmp_path):
    out = tmp_path / "figs"
    assert main(["figures", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cartesian_rhomboid_5_3"]["count"] == 77
    assert manifest["lk_gallery_5_3"]["count"] == 77
    levels = manifest["rotation_rows_11_7"]["levels"]
    assert {k: v["two_lambda"] for k, v in levels.items()} == \
        {"4": 4, "18": 14, "32": 4}


# ---------------------------------------------------------- exit codes

def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["rotate", "--theta", "nonsense", "--in", "x", "--out", "y"]) == 1
    assert main(["modes", "--shape", "bad"]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["rotate"]) == 1         # missing required flags
    capsys.readouterr()
    # A refused spin prints in one short line, its terms to three digits.
    for command in ("modes", "verify"):
        assert main([command, "--shape", "1e-300,1"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.endswith("got 1/1.00e+300") and len(line) < 120


def test_data_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.fkimg"
    assert main(["rotate", "--theta", "pi", "--in", str(missing),
                 "--out", str(tmp_path / "o.fkimg")]) == 2
    corrupt = tmp_path / "c.pgm"
    corrupt.write_bytes(b"P5\n2 2\n255\nxy")
    assert main(["rotate", "--theta", "pi", "--in", str(corrupt),
                 "--out", str(tmp_path / "o2.fkimg")]) == 2
    assert main(["apply", "--element", "{bad json", "--in", str(corrupt),
                 "--out", "x"]) == 2


@pytest.mark.parametrize("element", [
    "@missing.json", "@.", "@latin1.json", '{"chi": 1' + "0" * 400 + "}",
], ids=["missing file", "directory", "not utf-8", "int above float range"])
def test_bad_element_arguments_exit_2(tmp_path, monkeypatch, capsys,
                                      element):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes(b'{"chi": \xff}')
    assert main(["compose", "--a", element, "--b", "{}"]) == 2
    assert main(["invert", "--element", element]) == 2
    assert capsys.readouterr().err.count("data error") == 2


def test_screen_above_pixel_limit_exits_2(tmp_path, capsys):
    # A 513x512 PGM is rejected before any table is built, and so are
    # 513x1 and 1x513: 513 pixels, but the basis would walk the ladder to
    # a 513-row block, past the one wigner_little_d refuses.
    for width, height in ((512, 513), (513, 1), (1, 513)):
        big = tmp_path / "big.pgm"
        big.write_bytes(b"P5\n%d %d\n255\n" % (width, height)
                        + bytes(width * height))
        assert main(["rotate", "--theta", "pi", "--in", str(big),
                     "--out", str(tmp_path / "o.pgm")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 3 and all("limit" in line and len(line) < 120
                                    for line in errors)
    # verify refuses a screen as modes does, with the same one line,
    # before its first check.
    lines = []
    for shape in ("400,300", "1e300,1", "1" + "0" * 399 + ",1"):
        assert main(["modes", "--shape", shape,
                     "--out", str(tmp_path / "m")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert main(["verify", "--shape", shape]) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [line] and out == ""
        lines.append(line)
    assert all("limit" in line and len(line) < 120 for line in lines)
    # The 1e300 side prints to three digits, not its 301.
    assert lines[1].startswith("data error: screen 2.00e+300x3 walks")
