"""File formats: PGM (P2/P5) rasters and the lossless complex-array format.

Images in memory are arrays indexed ``pixels[ix, iy]`` with pixel
coordinates q_x = ix - j_x (left to right) and q_y = iy - j_y (bottom to
top); the top-left pixel of a PGM file is therefore (q_x, q_y) =
(-j_x, +j_y).

The complex-array container ("FKIMG1") stores a header line with the pixel
counts followed by raw little-endian float64 (re, im) pairs in C order with
q_y fastest; it round-trips bit-exactly.
"""

from __future__ import annotations

import os

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


def _tokenize_pgm_header(data: bytes, count: int):
    """Yield `count` whitespace-separated header tokens, honoring comments.

    Returns (tokens, offset of the first payload byte).  Per the netpbm
    spec a single whitespace byte terminates the last header token.
    """
    tokens = []
    pos = 0
    length = len(data)
    while len(tokens) < count:
        while pos < length and data[pos:pos + 1].isspace():
            pos += 1
        if pos < length and data[pos:pos + 1] == b"#":
            while pos < length and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < length and not data[pos:pos + 1].isspace():
            if data[pos:pos + 1] == b"#":
                break
            pos += 1
        if start == pos:
            raise FormatError("truncated PGM header")
        tokens.append(data[start:pos])
    if pos >= length or not data[pos:pos + 1].isspace():
        raise FormatError("PGM header not terminated by whitespace")
    return tokens, pos + 1


def read_pgm(path):
    """Read a P2 or P5 PGM file.

    Returns (gray, maxval) where ``gray`` is an integer array of shape
    (rows, cols) exactly as stored in the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM file (magic {data[:2]!r})")
    binary = data[:2] == b"P5"
    tokens, payload_at = _tokenize_pgm_header(data, 4)
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise FormatError(f"non-numeric PGM header field: {exc}") from exc
    if width <= 0 or height <= 0:
        raise FormatError(f"PGM dimensions must be positive, got {width}x{height}")
    if not 0 < maxval < 65536:
        raise FormatError(f"PGM maxval {maxval} outside 1..65535")
    npix = width * height
    if binary:
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        payload = data[payload_at:payload_at + npix * dtype.itemsize]
        if len(payload) != npix * dtype.itemsize:
            raise FormatError("PGM payload shorter than promised by header")
        gray = np.frombuffer(payload, dtype=dtype).astype(np.int64)
    else:
        fields = data[payload_at:].split()
        if len(fields) < npix:
            raise FormatError("PGM payload shorter than promised by header")
        try:
            gray = np.array([int(f) for f in fields[:npix]], dtype=np.int64)
        except ValueError as exc:
            raise FormatError(f"non-numeric PGM sample: {exc}") from exc
    if gray.min() < 0 or gray.max() > maxval:
        raise FormatError("PGM sample outside 0..maxval")
    return gray.reshape(height, width), maxval


def write_pgm(path, gray: np.ndarray, maxval: int, binary: bool = True):
    """Write integer samples of shape (rows, cols) as P5 (default) or P2."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise FormatError(f"PGM data must be 2-D, got shape {gray.shape}")
    if not 0 < maxval < 65536:
        raise FormatError(f"PGM maxval {maxval} outside 1..65535")
    if gray.min() < 0 or gray.max() > maxval:
        raise FormatError("PGM sample outside 0..maxval")
    height, width = gray.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
            fh.write(np.ascontiguousarray(gray, dtype=dtype).tobytes())
        else:
            lines = "\n".join(" ".join(str(v) for v in row) for row in gray)
            fh.write(lines.encode("ascii") + b"\n")
    return path


def _gray_to_pixels(gray: np.ndarray, maxval: int) -> np.ndarray:
    # file rows run top to bottom; q_y runs bottom to top
    return np.ascontiguousarray(gray.T[:, ::-1] / float(maxval))


def pixels_to_gray(pixels01: np.ndarray, maxval: int) -> np.ndarray:
    """Quantize unit-interval pixel values to file orientation samples."""
    clipped = np.clip(np.asarray(pixels01, dtype=float), 0.0, 1.0)
    gray = np.rint(clipped * maxval).astype(np.int64)
    return np.ascontiguousarray(gray[:, ::-1].T)


def save_complex(path, pixels: np.ndarray):
    """Write a complex pixel array losslessly (bit-exact round trip).

    Any numeric array is stored, NaN and inf included; a non-numeric one
    (str, object) raises ``FormatError`` and nothing is written."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise FormatError(f"complex image must be 2-D, got shape {pixels.shape}")
    if pixels.dtype.kind not in "biufc":
        raise FormatError(f"complex image must hold numbers, not {pixels.dtype}")
    n_x, n_y = pixels.shape
    payload = np.ascontiguousarray(pixels.astype("<c16", copy=False)).tobytes()
    with open(path, "wb") as fh:
        fh.write(COMPLEX_MAGIC)
        fh.write(f"{n_x} {n_y}\n".encode("ascii"))
        fh.write(payload)
    return path


def load_complex(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(len(COMPLEX_MAGIC))
        if magic != COMPLEX_MAGIC:
            raise FormatError(f"bad complex-array magic {magic!r}")
        dims = fh.readline()
        try:
            n_x, n_y = (int(t) for t in dims.split())
        except ValueError as exc:
            raise FormatError(f"bad complex-array dimensions {dims!r}") from exc
        if n_x <= 0 or n_y <= 0:
            raise FormatError(f"dimensions must be positive, got {n_x}x{n_y}")
        payload = fh.read()
    expected = 16 * n_x * n_y
    if len(payload) != expected:
        raise FormatError(
            f"complex-array payload is {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype="<c16").reshape(n_x, n_y).copy()


def load_image(path):
    """Load a PGM or complex-array file.

    Returns (shape, pixels): PGM grayscale becomes real amplitudes in
    [0, 1]; complex arrays are loaded verbatim, and rejected if any value
    is NaN or infinite.  The format is detected from the file's magic
    bytes.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "rb") as fh:
        magic = fh.read(7)
    if magic.startswith(b"P2") or magic.startswith(b"P5"):
        gray, maxval = read_pgm(path)
        pixels = _gray_to_pixels(gray, maxval)
    elif magic == COMPLEX_MAGIC:
        pixels = load_complex(path)
        if not np.isfinite(pixels).all():
            raise FormatError(f"{path} holds NaN or infinite values")
    else:
        raise FormatError(f"unrecognized image format in {path}")
    shape = ScreenShape.from_pixels(*pixels.shape)
    return shape, pixels
