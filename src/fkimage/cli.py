"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/file error, 3 verification
failure.  Angles are radians and accept simple pi expressions such as
``pi``, ``-pi/6``, ``3pi/4`` or ``2*pi/3``, each number with an optional
exponent as ``repr`` prints it (``1e-05``, ``2.5e-3pi``); screen shapes
are given as ``--shape JX,JY`` with integer, decimal half-integer
(``2.5``) or fractional (``5/2``) spins per axis.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import __version__
from . import fourier_transforms as ft
from .errors import FkimageError, FormatError
from .group_algebra import (FourierGroupElement, compose, element_from_json,
                            element_to_json, inverse)
from .imageio import load_image, save_complex
from .mode_basis import ScreenShape, build_basis
from .render import _CHANNELS, _DEPTHS, _SCALINGS, RenderSpec, render

_ANGLE_RE = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?P<coef>(?:\d+(?:\.\d*)?|\.\d+)(?:e[+-]?\d+)?)?"
    r"\s*\*?\s*(?P<pi>pi)?\s*(?:/\s*(?P<den>\d+(?:\.\d*)?(?:e[+-]?\d+)?))?\s*$")


class UsageError(Exception):
    pass


def parse_angle(text: str) -> float:
    """Parse a radian value, optionally as a multiple or fraction of pi;
    UsageError unless it reads as a finite float, a zero denominator
    giving none."""
    match = _ANGLE_RE.match(str(text).lower())
    if not match or (match.group("coef") is None and match.group("pi") is None):
        raise UsageError(f"cannot parse angle {text!r}")
    value = float(match.group("coef") or 1.0)
    if match.group("pi"):
        value *= math.pi
    den = float(match.group("den") or 1.0)
    value = value / den if den else math.inf
    if not math.isfinite(value):
        raise UsageError(f"angle {text!r} is not a finite float")
    return -value if match.group("sign") == "-" else value


def parse_shape(text: str) -> ScreenShape:
    from fractions import Fraction
    parts = str(text).split(",")
    if len(parts) != 2:
        raise UsageError(f"shape must be 'JX,JY', got {text!r}")
    try:
        return ScreenShape.of(*(Fraction(p.strip()) for p in parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad shape {text!r}: {exc}") from None


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _element_arg(text: str) -> FourierGroupElement:
    if text.startswith("@"):
        try:
            with open(text[1:], "rb") as fh:
                text = fh.read()
        except OSError as exc:
            raise FormatError(f"cannot read element file: {exc}") from exc
    return element_from_json(text)


def _write_output(pixels, path, args):
    if path.lower().endswith(".pgm"):
        spec = RenderSpec(scaling=args.scaling, depth=args.depth,
                          channel=args.channel)
        render(pixels, spec, path)
    else:
        save_complex(path, pixels)


def _transform_command(args, action):
    shape, pixels = load_image(args.input)
    basis = build_basis(shape)
    out = action(basis, pixels)
    _write_output(out, args.output, args)
    print(f"wrote {args.output}")
    return 0


def _add_io_options(sub):
    sub.add_argument("--in", dest="input", required=True, help="input image "
                     "(PGM or .fkimg complex array)")
    sub.add_argument("--out", dest="output", required=True, help="output file; "
                     ".pgm renders, anything else stores the complex array")
    sub.add_argument("--channel", default="real", choices=_CHANNELS,
                     help="channel for PGM output")
    sub.add_argument("--scaling", default="adaptive", choices=_SCALINGS,
                     help="gray scaling for PGM")
    sub.add_argument("--depth", type=int, default=8, choices=_DEPTHS,
                     help="PGM bit depth")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="fkimage",
                     description="Unitary Fourier-group transforms of images "
                                 "on finite rectangular screens.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("modes", help="render the mode galleries of a screen")
    p.add_argument("--shape", required=True, help="spins 'JX,JY'")
    p.add_argument("--out", default="modes_out", help="output directory")
    p.add_argument("--lk", action="store_true",
                   help="render the Laguerre-Kravchuk gallery instead of the "
                        "Cartesian one")
    p.add_argument("--depth", type=int, default=8, choices=_DEPTHS)

    p = subs.add_parser("rotate", help="rotate an image")
    p.add_argument("--theta", required=True, help="rotation angle (radians)")
    _add_io_options(p)

    p = subs.add_parser("gyrate", help="gyrate an image")
    p.add_argument("--gamma", required=True, help="gyration angle (radians)")
    _add_io_options(p)

    p = subs.add_parser("fourier", help="fractional Fourier transform")
    p.add_argument("--chi", default="0", help="symmetric angle (radians)")
    p.add_argument("--beta", default="0", help="antisymmetric angle (radians)")
    _add_io_options(p)

    p = subs.add_parser("apply", help="apply a general group element")
    p.add_argument("--element", required=True,
                   help='JSON {"chi":..,"psi":..,"theta":..,"phi":..} with '
                        'an optional "omega", or @file')
    _add_io_options(p)

    p = subs.add_parser("compose", help="compose two group elements (b first); "
                        "prints JSON with \"omega\" when it is not the default")
    p.add_argument("--a", required=True, help="element JSON or @file")
    p.add_argument("--b", required=True, help="element JSON or @file")

    p = subs.add_parser("invert", help="invert a group element; prints JSON "
                        "with \"omega\" when it is not the default")
    p.add_argument("--element", required=True, help="element JSON or @file")

    p = subs.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--shape", action="append", default=None,
                   help="screen shape 'JX,JY' (repeatable; default "
                        "5,3 / 11,7 / 20,12 / 2.5,1 / 3,4.5 / 13,12.5 / "
                        "24,24)")
    p.add_argument("--seed", type=_int_at_least(0), default=2024,
                   help="fixes every check's draws; each check seeds its own "
                        "generator from it and its name")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object instead of the table")

    p = subs.add_parser("figures", help="regenerate the figure galleries")
    p.add_argument("--out", default="figures_out", help="output directory")

    return parser


def _run(args) -> int:
    # The figures and the verification suite load only for the commands
    # that run them, so the other commands do not pay for their imports.
    if args.command == "modes":
        from .figures import mode_gallery
        basis = build_basis(parse_shape(args.shape))
        manifest = mode_gallery(basis, args.out, depth=args.depth,
                                kind="lk" if args.lk else "cartesian")
        print(f"{manifest['count']} modes -> {args.out} "
              f"(sheet: {manifest['sheet']})")
        return 0

    if args.command == "rotate":
        theta = parse_angle(args.theta)
        return _transform_command(
            args, lambda basis, pix: ft.rotate_image(basis, pix, theta))

    if args.command == "gyrate":
        gamma = parse_angle(args.gamma)
        return _transform_command(
            args, lambda basis, pix: ft.gyrate_image(basis, pix, gamma))

    if args.command == "fourier":
        chi, beta = parse_angle(args.chi), parse_angle(args.beta)
        return _transform_command(
            args,
            lambda basis, pix: ft.fractional_fourier_image(basis, pix, chi, beta))

    if args.command == "apply":
        element = _element_arg(args.element)
        return _transform_command(
            args, lambda basis, pix: ft.apply_element(basis, pix, element))

    if args.command == "compose":
        result = compose(_element_arg(args.a), _element_arg(args.b))
        print(element_to_json(result))
        return 0

    if args.command == "invert":
        print(element_to_json(inverse(_element_arg(args.element))))
        return 0

    if args.command == "verify":
        from .verify import DEFAULT_SHAPES, verify
        shapes = [parse_shape(s) for s in args.shape or ()] or DEFAULT_SHAPES
        text, code = verify(shapes, args.seed, args.json)
        print(text)
        return code

    if args.command == "figures":
        from .figures import regenerate_all
        manifest = regenerate_all(args.out)
        total = sum(m.get("count", len(m.get("files", [])))
                    for m in manifest.values())
        print(f"figures written to {args.out} ({total} images)")
        return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FkimageError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
