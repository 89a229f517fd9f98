import hashlib
import math
import re

import numpy as np
import pytest

from fkimage import (DomainError, F_GLYPH_SHAPE, FormatError, RenderSpec,
                     ScreenShape, build_basis, cartesian_mode, f_glyph,
                     lk_mode, load_complex, load_image, read_pgm, render,
                     save_complex, write_pgm)
from fkimage.cli import main
from fkimage import figures, imageio
from fkimage.imageio import pixels_to_gray
from fkimage.render import _select_channel, scale_to_unit


# ----------------------------------------------------------------- PGM

@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_roundtrip(tmp_path, rng, binary, maxval):
    gray = rng.integers(0, maxval + 1, size=(9, 13))
    path = tmp_path / "img.pgm"
    write_pgm(path, gray, maxval, binary=binary)
    back, mv = read_pgm(path)
    assert mv == maxval
    assert np.array_equal(back, gray)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 3\n# another\n255\n1 2\n3 4\n5 6\n")
    gray, maxval = read_pgm(path)
    assert maxval == 255
    assert gray.shape == (3, 2)
    assert gray.tolist() == [[1, 2], [3, 4], [5, 6]]


def test_pgm_orientation(tmp_path):
    # file rows are top to bottom; q_y runs bottom to top, so the top-left
    # file sample lands at pixel (q_x, q_y) = (-j_x, +j_y)
    path = tmp_path / "o.pgm"
    path.write_bytes(b"P2\n2 2\n255\n10 20\n30 40\n")
    shape, pixels = load_image(path)
    assert shape == ScreenShape.of(0.5, 0.5)
    assert pixels[0, 1] == pytest.approx(10 / 255)
    assert pixels[1, 1] == pytest.approx(20 / 255)
    assert pixels[0, 0] == pytest.approx(30 / 255)
    assert pixels[1, 0] == pytest.approx(40 / 255)


def test_pgm_zero_image(tmp_path):
    path = tmp_path / "z.pgm"
    path.write_bytes(b"P2\n3 3\n255\n" + b"0 " * 9)
    _, pixels = load_image(path)
    assert np.linalg.norm(pixels) == 0.0


@pytest.mark.parametrize("payload", [
    b"P7\n2 2\n255\n" + bytes(4),            # unknown magic
    b"P5\n0 2\n255\n",                       # zero dimension
    b"P5\n2 2\n70000\n" + bytes(8),          # maxval out of range
    b"P5\n2 2\n255\n" + bytes(3),            # truncated payload
    b"P2\n2 2\n255\n1 2 3\n",                # too few samples
    b"P2\n2 x\n255\n1 2 3 4\n",              # non-numeric header
    b"P5x 2 3 255\n" + bytes(6),             # magic longer than two bytes
    b"P5 2 3 255#c\n" + bytes(6),            # comment right after maxval
    b"P5 2 3 255",                           # no terminating whitespace byte
    b"P5 2 3 # runs to the end",             # comment up to end of file
    b"P5 2 3 #x 255\n" + bytes(6),           # the comment holds the maxval
    b"P2\n2 2\n255\n1 2 x 4\n",              # non-numeric sample
    b"P2\n2 2\n255\n1 2 3 256\n",            # sample above maxval
])
def test_pgm_malformed(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(FormatError):
        load_image(path)
    with pytest.raises(FormatError):
        read_pgm(path)


def test_pgm_sixteen_bit_is_big_endian(tmp_path):
    path = tmp_path / "be.pgm"
    write_pgm(path, np.array([[258]]), 65535)
    raw = path.read_bytes()
    assert raw.endswith(b"\x01\x02")


def test_write_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(FormatError):
        write_pgm(tmp_path / "x.pgm", np.array([[300]]), 255)


def test_pgm_header_pattern_compiles_on_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; possessive quantifiers
    # and atomic groups compile only from Python 3.11 on
    assert not re.search(rb"[*+?}]\+|\(\?>", imageio._PGM_HEADER.pattern)


@pytest.mark.parametrize("header", [
    b"P2 #a\n2 #b\n3 #c\n255\n",        # a comment between every pair
    b"P2#a\n2#b\n3#c\n255\n",           # a comment right after a token
    b"P2\r\n2 3\r\n255\r\n",            # CRLF line ends
    b"P2\v2\f3\v255\f",                 # vertical tab and form feed
])
def test_pgm_header_separators_accepted(tmp_path, header):
    path = tmp_path / "h.pgm"
    path.write_bytes(header + b"1 2\n3 4\n5 6\n")
    gray, maxval = read_pgm(path)
    assert maxval == 255
    assert gray.tolist() == [[1, 2], [3, 4], [5, 6]]


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("gray, maxval", [
    (np.array([[1]]), True),                 # bool maxval
    (np.array([[1]]), 255.0),                # float maxval
    (np.zeros((0, 5), dtype=int), 255),      # zero-size raster
    (np.array([[1.7]]), 255),                # float samples
])
def test_write_pgm_rejects_what_read_pgm_rejects(tmp_path, binary, gray,
                                                 maxval):
    path = tmp_path / "w.pgm"
    with pytest.raises(FormatError):
        write_pgm(path, gray, maxval, binary=binary)
    assert not path.exists()


def test_each_load_opens_its_file_once(tmp_path, monkeypatch):
    pgm, fkimg = tmp_path / "a.pgm", tmp_path / "a.fkimg"
    write_pgm(pgm, np.ones((3, 5), dtype=int), 255)
    save_complex(fkimg, np.ones((5, 3)))
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(imageio, "open", counting_open, raising=False)
    for load, path in ((load_image, pgm), (load_image, fkimg),
                       (read_pgm, pgm), (load_complex, fkimg)):
        opened.clear()
        load(path)
        assert opened == [path], load.__name__
    with pytest.raises(FileNotFoundError):
        load_image(tmp_path / "missing.pgm")


# ------------------------------------------------------- complex array

def test_complex_roundtrip_bit_exact(tmp_path, rng):
    arr = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
    arr[0, 0] = -0.0 + 1e-300j          # awkward values survive verbatim
    path = tmp_path / "x.fkimg"
    save_complex(path, arr)
    back = load_complex(path)
    assert np.array_equal(back.view(np.float64), arr.view(np.float64))


def test_complex_header_and_payload(tmp_path, rng):
    arr = rng.standard_normal((4, 3)) + 0j
    path = tmp_path / "h.fkimg"
    save_complex(path, arr)
    raw = path.read_bytes()
    assert raw.startswith(b"FKIMG1\n4 3\n")
    assert len(raw) == len(b"FKIMG1\n4 3\n") + 16 * 12


def test_complex_malformed(tmp_path):
    path = tmp_path / "bad.fkimg"
    path.write_bytes(b"FKIMG1\n2 2\n" + bytes(10))
    with pytest.raises(FormatError):
        load_complex(path)
    path.write_bytes(b"FKIMGX\n2 2\n" + bytes(64))
    with pytest.raises(FormatError):
        load_complex(path)
    path.write_bytes(b"FKIMG1\n2 -2\n" + bytes(64))
    with pytest.raises(FormatError):
        load_complex(path)
    path.write_bytes(b"FKIMG1\n2 x\n" + bytes(64))    # non-integer dimension
    with pytest.raises(FormatError):
        load_complex(path)


@pytest.mark.parametrize("dtype", [str, object])
def test_save_complex_rejects_non_numeric_arrays(tmp_path, dtype):
    path = tmp_path / "bad.fkimg"
    with pytest.raises(FormatError, match="numbers"):
        save_complex(path, np.zeros((2, 2), dtype=dtype))
    assert not path.exists()
    # The format is lossless, so NaN and inf are stored as they are.
    arr = np.array([[np.nan, np.inf], [1.0, -2.5j]])
    save_complex(path, arr)
    assert np.array_equal(load_complex(path), arr, equal_nan=True)


def test_save_complex_rejects_zero_size_arrays(tmp_path):
    path = tmp_path / "z.fkimg"
    with pytest.raises(FormatError):
        save_complex(path, np.zeros((0, 5), dtype=complex))
    assert not path.exists()


def test_load_image_autodetects(tmp_path, rng):
    arr = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    path = tmp_path / "auto.fkimg"
    save_complex(path, arr)
    shape, pixels = load_image(path)
    assert shape == ScreenShape.of(2, 1.5)
    assert np.array_equal(pixels, arr)
    with pytest.raises(FileNotFoundError):
        load_image(tmp_path / "missing.fkimg")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_image_rejects_non_finite_values(tmp_path, bad):
    arr = np.ones((5, 3), dtype=complex)
    arr[2, 1] = bad
    path = tmp_path / "bad.fkimg"
    save_complex(path, arr)
    with pytest.raises(FormatError):
        load_image(path)
    assert main(["rotate", "--theta", "pi", "--in", str(path),
                 "--out", str(tmp_path / "out.fkimg")]) == 2
    assert not (tmp_path / "out.fkimg").exists()


def test_even_dimensions_are_half_integer_screens(tmp_path):
    path = tmp_path / "even.pgm"
    write_pgm(path, np.zeros((4, 6), dtype=int), 255)
    shape, _ = load_image(path)
    assert shape.j_x.j == 2.5 and shape.j_y.j == 1.5


# ------------------------------------------------------------- render

def test_mode_gallery_rejects_unknown_kind_before_writing(tmp_path):
    out = tmp_path / "gallery"
    with pytest.raises(DomainError):
        figures.mode_gallery(build_basis((1, 1)), out, kind="polar")
    assert not out.exists()


def _tree_sha256(root):
    """One digest of every file under ``root``: relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_lk_gallery_computes_each_mode_once(tmp_path, monkeypatch):
    # One lk_mode call per member with m >= 0; the m < 0 cells show the
    # imaginary part of the m > 0 mode, and the files are pinned byte for
    # byte.
    calls = []

    def counted(basis, n, m):
        calls.append((n, m))
        return lk_mode(basis, n, m)

    monkeypatch.setattr(figures, "lk_mode", counted)
    basis = build_basis((5, 3))
    out = tmp_path / "lk"
    assert figures.mode_gallery(basis, out, kind="lk")["count"] == 77
    assert sorted(calls) == [(lev.n, m) for lev in basis.levels
                             for m in sorted(lev.two_mu) if m >= 0]
    assert _tree_sha256(out) == (
        "a81ecfca92551fcf99a5dfd75ec3478b299170e9bd7af12f9780692299a8faf7")


def test_ground_mode_fixed_range_is_bright(tmp_path):
    basis = build_basis((5, 3))
    path = render(cartesian_mode(basis, (0, 0)),
                  RenderSpec(scaling="fixed"), tmp_path / "g.pgm")
    gray, maxval = read_pgm(path)
    assert maxval == 255
    assert np.all(gray > 127)           # all mode values are positive


def test_constant_image_adaptive_is_mid_gray(tmp_path):
    path = render(np.full((4, 4), 2.5), RenderSpec(scaling="adaptive"),
                  tmp_path / "c.pgm")
    gray, _ = read_pgm(path)
    assert np.all(gray == 128)


def test_phase_channel_wraps(tmp_path):
    basis = build_basis((11, 7))
    mode = lk_mode(basis, 4, 2)
    path = render(mode, RenderSpec(channel="phase"), tmp_path / "p.pgm")
    gray, _ = read_pgm(path)
    assert gray.min() >= 0 and gray.max() <= 255
    # phase of -pi maps to black, +pi to white
    values = scale_to_unit(np.array([[-math.pi], [0.0]]),
                           RenderSpec(channel="phase"))
    assert values[0, 0] == pytest.approx(0.0)
    assert values[1, 0] == pytest.approx(0.5)


def test_phase_images_are_stable_under_rounding_noise(tmp_path,
                                                      monkeypatch):
    # Each phase image of gyration_rows on (11,7), with 1e-16 complex noise
    # added, renders within one gray level of the clean image.
    images = []

    def recording_render(pixels, spec, path, *args, **kwargs):
        if spec.channel == "phase":
            images.append((pixels, spec))
        return render(pixels, spec, path, *args, **kwargs)

    monkeypatch.setattr(figures, "render", recording_render)
    figures.gyration_rows(build_basis((11, 7)), tmp_path)
    assert len(images) == 15
    noise_rng = np.random.default_rng(3)

    def gray(pixels, spec):
        return pixels_to_gray(scale_to_unit(
            _select_channel(pixels, spec.channel), spec), spec.maxval)

    for pixels, spec in images:
        clean = gray(pixels, spec)
        for _ in range(4):
            noise = 1e-16 * (noise_rng.standard_normal(pixels.shape)
                             + 1j * noise_rng.standard_normal(pixels.shape))
            assert np.max(np.abs(gray(pixels + noise, spec) - clean)) <= 1


def test_phase_floor_and_wrap():
    pixels = np.array([[1.0, -1.0, -1.0 + 1e-9j, -1.0 - 1e-9j, 1e-12j,
                        0.0, 1j]])
    assert _select_channel(pixels, "phase").tolist() == [
        [0.0, -math.pi, -math.pi, -math.pi, 0.0, 0.0, math.pi / 2]]


def test_sixteen_bit_render(tmp_path, rng):
    img = rng.standard_normal((6, 5))
    path = render(img, RenderSpec(scaling="adaptive", depth=16),
                  tmp_path / "d16.pgm")
    gray, maxval = read_pgm(path)
    assert maxval == 65535
    assert gray.min() == 0 and gray.max() == 65535


def test_imag_channel_renders_the_imaginary_part(tmp_path):
    pixels = np.array([[0.5 - 1.0j, 2.0 + 0.0j], [-3.0 + 1.0j, 0.25j]])
    path = render(pixels, RenderSpec(scaling="fixed", channel="imag"),
                  tmp_path / "i.pgm")
    gray, _ = read_pgm(path)
    # imag [[-1, 0], [1, 0.25]] maps to 255 * (v + 1)/2; the file's top row
    # is q_y = +j_y.
    assert gray.tolist() == [[128, 159], [0, 255]]


def test_fixed_scaling_clips(tmp_path):
    values = scale_to_unit(np.array([[-3.0, 0.0, 3.0]]), RenderSpec())
    assert values.tolist() == [[0.0, 0.5, 1.0]]


def test_render_spec_validation():
    with pytest.raises(DomainError):
        RenderSpec(scaling="weird")
    with pytest.raises(DomainError):
        RenderSpec(depth=12)
    with pytest.raises(DomainError):
        RenderSpec(channel="hue")


@pytest.mark.parametrize("depth", [8.0, 16.0, np.float64(8), True, "8",
                                   None, np.int64(12)], ids=repr)
def test_render_spec_depth_is_an_integer_8_or_16(depth):
    with pytest.raises(DomainError, match="depth"):
        RenderSpec(depth=depth)


@pytest.mark.parametrize("depth", [8, 16, np.int64(16), np.uint8(8)],
                         ids=repr)
def test_render_spec_stores_an_integer_depth_as_int(depth):
    spec = RenderSpec(depth=depth)
    assert type(spec.depth) is int and spec.depth == depth
    assert spec.maxval == (255 if depth == 8 else 65535)


def test_quantization_error_bound(tmp_path, rng):
    values = rng.uniform(0, 1, size=(8, 4))
    path = tmp_path / "q.pgm"
    write_pgm(path, pixels_to_gray(values, 255), 255)
    _, pixels = load_image(path)
    assert np.max(np.abs(pixels - values)) <= 0.5 / 255 + 1e-12


# -------------------------------------------------------------- glyph

def test_glyph_shape_and_binarity():
    glyph = f_glyph()
    assert glyph.shape == (41, 25)
    assert F_GLYPH_SHAPE.j_x.j == 20 and F_GLYPH_SHAPE.j_y.j == 12
    assert set(np.unique(glyph)) == {0.0, 1.0}
    assert glyph.sum() > 50             # the letter is actually drawn


def test_glyph_has_no_accidental_symmetry():
    glyph = f_glyph()
    for flipped in (glyph[::-1, :], glyph[:, ::-1], glyph[::-1, ::-1]):
        assert np.any(flipped != glyph)


def test_glyph_pgm_round_trip_recovers_screen(tmp_path):
    path = render(f_glyph(), RenderSpec(scaling="fixed"), tmp_path / "f.pgm")
    shape, pixels = load_image(path)
    assert shape == F_GLYPH_SHAPE
    assert pixels.shape == (41, 25)
