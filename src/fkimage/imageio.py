"""File formats: PGM (P2/P5) rasters and the lossless complex-array format.

Images in memory are arrays indexed ``pixels[ix, iy]`` with pixel
coordinates q_x = ix - j_x (left to right) and q_y = iy - j_y (bottom to
top); the top-left pixel of a PGM file is therefore (q_x, q_y) =
(-j_x, +j_y).

The complex-array container ("FKIMG1") stores a header line with the pixel
counts followed by raw little-endian float64 (re, im) pairs in C order with
q_y fastest; it round-trips bit-exactly.

Each format has one rule, shared by its reader and its writer; each reader
opens its file once.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError
from .mode_basis import ScreenShape

__all__ = [
    "read_pgm",
    "write_pgm",
    "save_complex",
    "load_complex",
    "load_image",
    "COMPLEX_MAGIC",
]

COMPLEX_MAGIC = b"FKIMG1\n"

# The netpbm header: the magic and three fields, separated by whitespace and
# by '#' comments up to and including a newline; one whitespace byte ends it.
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P([25])" + (_SEP + rb"([^\s#]+)") * 3 + rb"\s")


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _require_positive(what, n_1, n_2):
    if n_1 <= 0 or n_2 <= 0:
        raise FormatError(f"{what} dimensions must be positive, got {n_1}x{n_2}")


def _pgm_sample_dtype(maxval, width, height) -> np.dtype:
    """The PGM rule shared by reader and writer: an integer maxval in
    1..65535 and positive dimensions; samples are one byte or big-endian two."""
    if (isinstance(maxval, bool) or not isinstance(maxval, (int, np.integer))
            or not 0 < maxval < 65536):
        raise FormatError(f"PGM maxval {maxval!r} is not an integer in 1..65535")
    _require_positive("PGM", width, height)
    return np.dtype(">u2" if maxval > 255 else "u1")


def _parse_pgm(data: bytes):
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FormatError(f"not a P2/P5 PGM header: {data[:16]!r}")
    try:
        width, height, maxval = (int(t) for t in header.group(2, 3, 4))
    except ValueError as exc:
        raise FormatError(f"non-numeric PGM header field: {exc}") from exc
    dtype = _pgm_sample_dtype(maxval, width, height)
    npix, offset = width * height, header.end()
    if header[1] == b"5":
        if len(data) - offset < npix * dtype.itemsize:
            raise FormatError("PGM payload shorter than promised by header")
        gray = np.frombuffer(data, dtype, npix, offset=offset).astype(np.int64)
    else:
        fields = data[offset:].split()
        if len(fields) < npix:
            raise FormatError("PGM payload shorter than promised by header")
        try:
            gray = np.array([int(f) for f in fields[:npix]], dtype=np.int64)
        except ValueError as exc:
            raise FormatError(f"non-numeric PGM sample: {exc}") from exc
    if gray.min() < 0 or gray.max() > maxval:
        raise FormatError("PGM sample outside 0..maxval")
    return gray.reshape(height, width), maxval


def read_pgm(path):
    """Read a P2 or P5 PGM file.

    Returns (gray, maxval) where ``gray`` is an integer array of shape
    (rows, cols) exactly as stored in the file.
    """
    return _parse_pgm(_read(path))


def write_pgm(path, gray: np.ndarray, maxval: int, binary: bool = True):
    """Write integer samples of shape (rows, cols) as P5 (default) or P2."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype.kind not in "iu":
        raise FormatError(f"PGM data must be 2-D integers, got shape "
                          f"{gray.shape} of {gray.dtype}")
    height, width = gray.shape
    dtype = _pgm_sample_dtype(maxval, width, height)
    if gray.min() < 0 or gray.max() > maxval:
        raise FormatError("PGM sample outside 0..maxval")
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(gray.astype(dtype).tobytes())
        else:
            np.savetxt(fh, gray, fmt="%d")
    return path


def pixels_to_gray(pixels01: np.ndarray, maxval: int) -> np.ndarray:
    """Quantize unit-interval pixel values to file orientation samples."""
    clipped = np.clip(np.asarray(pixels01, dtype=float), 0.0, 1.0)
    gray = np.rint(clipped * maxval).astype(np.int64)
    return np.ascontiguousarray(gray[:, ::-1].T)


def save_complex(path, pixels: np.ndarray):
    """Write a complex pixel array losslessly (bit-exact round trip).

    Any numeric array with positive dimensions is stored, NaN and inf
    included; anything else raises ``FormatError`` and nothing is written."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.dtype.kind not in "biufc":
        raise FormatError(f"complex image must be 2-D and hold numbers, got "
                          f"shape {pixels.shape} of {pixels.dtype}")
    n_x, n_y = pixels.shape
    _require_positive("complex-array", n_x, n_y)
    with open(path, "wb") as fh:
        fh.write(COMPLEX_MAGIC + f"{n_x} {n_y}\n".encode("ascii"))
        fh.write(pixels.astype("<c16", copy=False).tobytes())
    return path


def _parse_complex(data: bytes) -> np.ndarray:
    start = len(COMPLEX_MAGIC)
    if not data.startswith(COMPLEX_MAGIC):
        raise FormatError(f"bad complex-array magic {data[:start]!r}")
    offset = data.find(b"\n", start) + 1 or len(data)
    dims = data[start:offset]
    try:
        n_x, n_y = (int(t) for t in dims.split())
    except ValueError as exc:
        raise FormatError(f"bad complex-array dimensions {dims!r}") from exc
    _require_positive("complex-array", n_x, n_y)
    size, expected = len(data) - offset, 16 * n_x * n_y
    if size != expected:
        raise FormatError(
            f"complex-array payload is {size} bytes, expected {expected}")
    pixels = np.frombuffer(data, "<c16", n_x * n_y, offset=offset)
    return pixels.reshape(n_x, n_y).copy()


def load_complex(path) -> np.ndarray:
    return _parse_complex(_read(path))


def load_image(path):
    """Load a PGM or complex-array file.

    Returns (shape, pixels): PGM grayscale becomes real amplitudes in
    [0, 1]; complex arrays are loaded verbatim, and rejected if any value
    is NaN or infinite.  The format is detected from the file's magic
    bytes.
    """
    data = _read(path)
    if data[:2] in (b"P2", b"P5"):
        gray, maxval = _parse_pgm(data)
        # file rows run top to bottom; q_y runs bottom to top
        pixels = np.ascontiguousarray(gray.T[:, ::-1] / float(maxval))
    elif data.startswith(COMPLEX_MAGIC):
        pixels = _parse_complex(data)
        if not np.isfinite(pixels).all():
            raise FormatError(f"{path} holds NaN or infinite values")
    else:
        raise FormatError(f"unrecognized image format in {path}")
    return ScreenShape.from_pixels(*pixels.shape), pixels
