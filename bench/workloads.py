"""The benchmark's three op families, their seeded inputs and output checks.

Each family runs as a closed loop with one client inside one fresh worker
process: the next op starts only when the previous one has finished and
been checked.  Only the library call itself is timed; input generation and
the checks run outside the timed region.  A failed check or an exception is
counted, never raised, so one bad op cannot hide the rest of the run.

Families:

* ``sweep``: fresh random angles and elements on a warm (64,48) basis.
* ``chain``: the README's lossless chain, with repeated angles, on a warm
  (20,12) basis.
* ``cli``: one ``python -m fkimage.cli`` process per command, on a small
  PGM and a large ``.fkimg`` input.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from fkimage import cli, imageio, mode_basis
from fkimage import fourier_transforms as ft
from fkimage import group_algebra as ga

FOUR_PI = 4.0 * math.pi
NORM_TOL = 1e-10        # relative change of the Euclidean norm
INVERSE_TOL = 1e-9      # max abs error after the inverse, per unit amplitude

SWEEP_SHAPE = (64, 48)
CHAIN_SHAPE = (20, 12)          # the built-in glyph's screen
CLI_SHAPES = {"small": (20, 12), "large": (64, 48)}
SMOKE_SHAPE = (5, 3)
CLI_COMMANDS = ("rotate", "gyrate", "fourier", "apply")
CHAIN_BATCH = 32
# Fixed chain parameters: the angles repeat on every image, so the
# little-d blocks they need come from the cache once it is warm.  The
# elements are in the canonical ranges that ``from_matrix`` returns.
CHAIN_KS_CHI = 0.4
CHAIN_KA_BETA = 0.9
CHAIN_ELEMENTS = (
    ga.FourierGroupElement(chi=1.0, psi=0.3, theta=0.8, phi=2.0),
    ga.FourierGroupElement(chi=2.5, psi=1.2, theta=2.0, phi=0.4),
    ga.FourierGroupElement(chi=9.1, psi=5.0, theta=0.2, phi=3.3),
    ga.FourierGroupElement(chi=7.0, psi=2.2, theta=2.9, phi=5.9),
)


def shape_name(shape) -> str:
    return f"{shape[0]}x{shape[1]}"


class Clock:
    """Times library calls into named sample lists.

    Each sample is ``(mid-point time, seconds)``.  With a ``Speed``, its
    probe runs before and after timed calls, at most once per interval, so
    every sample has a probe timing on each side.
    """

    def __init__(self, speed=None):
        self.samples = defaultdict(list)
        self.busy = 0.0
        self.speed = speed

    def call(self, metric, fn, *args):
        if self.speed is not None:
            self.speed.maybe_sample()
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        if self.speed is not None:
            self.speed.maybe_sample()
        self.busy += end - start
        if metric is not None:
            self.samples[metric].append((0.5 * (start + end), end - start))
        return out


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {detail}")

    def raised(self, what, exc):
        self.check(what, False, f"{type(exc).__name__}: {exc}")


def norm_preserved(out, ref) -> bool:
    n_out, n_ref = np.linalg.norm(out), np.linalg.norm(ref)
    return bool(np.isfinite(n_out)) and abs(n_out - n_ref) <= NORM_TOL * n_ref


def restored(back, ref) -> bool:
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(back - ref))) <= INVERSE_TOL * scale


def random_image(rng, pixels):
    return rng.standard_normal(pixels) + 1j * rng.standard_normal(pixels)


def peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- sweep

def fresh_param(rng, kind):
    if kind == "apply":
        return ga.FourierGroupElement(*rng.uniform(0.0, FOUR_PI, 4))
    return float(rng.uniform(0.0, FOUR_PI))


def _sweep_forward(basis, kind, coeffs, param):
    if kind == "rotate":
        return ft.rotate_coeffs(basis, coeffs, param)
    if kind == "gyrate":
        return ft.gyrate_coeffs(basis, coeffs, param)
    return ft.apply_element_coeffs(basis, coeffs, param)


def _sweep_inverse(basis, kind, coeffs, param):
    # The exact inverse operator, factor by factor.  It does not go through
    # group_algebra.inverse, whose parameters only undo apply() for elements
    # in the canonical ranges.
    if kind == "rotate":
        return ft.rotate_coeffs(basis, coeffs, -param)
    if kind == "gyrate":
        return ft.gyrate_coeffs(basis, coeffs, -param)
    out = ft.ks_coeffs(coeffs, -param.chi / 2.0)
    out = ft.ka_coeffs(out, -param.psi / 2.0)
    out = ft.gyrate_coeffs(basis, out, -param.theta / 2.0)
    return ft.ka_coeffs(out, -param.phi / 2.0)


def _little_d_angle(kind, param) -> float:
    """The little-d angle the op requests at every level."""
    return param.theta if kind == "apply" else 2.0 * param


def sweep_setup(shape):
    basis = mode_basis.build_basis(shape)
    warm = np.ones(basis.shape.pixels)
    ft.synthesize(basis, ft.rotate_coeffs(basis, ft.analyze(basis, warm), 0.1))
    return basis


def sweep_loop(basis, rng, clock, tally, deadline=None, images=None,
               requests=None):
    """Per image: analyze, then rotate, gyrate and apply at fresh angles, each
    on the previous result, then synthesize.  ``requests`` collects the
    (2*lambda, angle) little-d keys the ops ask for."""
    spins = [lev.spin.two_j for lev in basis.levels]
    done = 0
    while (images is None or done < images) and (
            deadline is None or time.monotonic() < deadline):
        done += 1
        img = random_image(rng, basis.shape.pixels)
        try:
            coeffs = clock.call(None, ft.analyze, basis, img)
        except Exception as exc:            # counted, the loop goes on
            tally.raised("sweep analyze", exc)
            continue
        for kind in ("rotate", "gyrate", "apply"):
            param = fresh_param(rng, kind)
            try:
                out = clock.call("sweep_op", _sweep_forward, basis, kind,
                                 coeffs, param)
                back = _sweep_inverse(basis, kind, out, param)
                ok = norm_preserved(out, coeffs) and restored(back, coeffs)
                tally.check(f"sweep {kind}", ok, f"param {param!r}")
            except Exception as exc:
                tally.raised(f"sweep {kind}", exc)
                break
            if requests is not None:
                angle = _little_d_angle(kind, param)
                requests.extend((two_l, angle) for two_l in spins)
            coeffs = out
        else:
            try:
                clock.call(None, ft.synthesize, basis, coeffs)
            except Exception as exc:
                tally.raised("sweep synthesize", exc)
    return done


# ---------------------------------------------------------------- chain

def chain(basis, image):
    """The README's lossless chain on one image."""
    coeffs = ft.analyze(basis, image)
    for _ in range(6):
        coeffs = ft.rotate_coeffs(basis, coeffs, math.pi / 6.0)
    coeffs = ft.gyrate_coeffs(basis, coeffs, math.pi / 8.0)
    coeffs = ft.gyrate_coeffs(basis, coeffs, -math.pi / 8.0)
    coeffs = ft.ks_coeffs(coeffs, CHAIN_KS_CHI)
    coeffs = ft.ka_coeffs(coeffs, CHAIN_KA_BETA)
    for element in CHAIN_ELEMENTS:
        coeffs = ft.apply_element_coeffs(basis, coeffs, element)
        coeffs = ft.apply_element_coeffs(basis, coeffs, ga.inverse(element))
    return ft.synthesize(basis, coeffs)


def chain_angles():
    """Little-d angles one chain requests at every level."""
    angles = [2.0 * (math.pi / 6.0)] * 6 + [2.0 * (math.pi / 8.0),
                                             2.0 * (-math.pi / 8.0)]
    for element in CHAIN_ELEMENTS:
        angles += [element.theta, ga.inverse(element).theta]
    return angles


def chain_undo(basis, out):
    """Invert the chain: six sixth-turns are one half-turn, the gyration and
    element pairs cancel, and the Fourier phases are undone explicitly."""
    coeffs = ft.analyze(basis, out)
    coeffs = ft.ka_coeffs(coeffs, -CHAIN_KA_BETA)
    coeffs = ft.ks_coeffs(coeffs, -CHAIN_KS_CHI)
    return ft.rotate_coeffs(basis, coeffs, -math.pi)


def chain_setup(shape):
    basis = mode_basis.build_basis(shape)
    warm = np.ones(basis.shape.pixels)
    chain_undo(basis, chain(basis, warm))
    return basis


def chain_loop(basis, rng, clock, tally, deadline=None, images=None,
               requests=None):
    spins = [lev.spin.two_j for lev in basis.levels]
    angles = chain_angles()
    done = 0
    while (images is None or done < images) and (
            deadline is None or time.monotonic() < deadline):
        batch = [random_image(rng, basis.shape.pixels)
                 for _ in range(CHAIN_BATCH)]
        for img in batch:
            if (images is not None and done >= images) or (
                    deadline is not None and time.monotonic() >= deadline):
                break
            done += 1
            try:
                out = clock.call("chain", chain, basis, img)
                back = chain_undo(basis, out)
                ok = norm_preserved(out, img) and restored(
                    back, ft.analyze(basis, img))
                tally.check("chain", ok, "norm or inverse off tolerance")
            except Exception as exc:
                tally.raised("chain", exc)
                continue
            if requests is not None:
                requests.extend((two_l, a) for a in angles for two_l in spins)
    return done


# ------------------------------------------------------------------ cli

class CliInputs:
    """Seeded input files for the CLI commands, in a private work dir."""

    def __init__(self, workdir, rng, shapes):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.paths, self.pixels = {}, {}
        self.peak_rss_mb = 0.0          # of the largest command process
        small = mode_basis.ScreenShape.of(*shapes["small"]).pixels
        gray = rng.integers(0, 256, size=(small[1], small[0]))
        self.paths["small"] = imageio.write_pgm(
            os.path.join(workdir, "small.pgm"), gray, 255)
        large = mode_basis.ScreenShape.of(*shapes["large"]).pixels
        self.paths["large"] = imageio.save_complex(
            os.path.join(workdir, "large.fkimg"), random_image(rng, large))
        for size, path in self.paths.items():
            self.pixels[size] = imageio.load_image(path)[1]

    def output(self, size):
        return os.path.join(self.workdir,
                            "out.pgm" if size == "small" else "out.fkimg")

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def cli_round(rng):
    """Four commands, one of each kind in a seeded order; one of them, at a
    seeded position, uses the large input."""
    kinds = rng.permutation(CLI_COMMANDS)
    large_at = int(rng.integers(len(kinds)))
    plan = []
    for i, kind in enumerate(kinds):
        size = "large" if i == large_at else "small"
        if kind == "rotate":
            args = ["--theta", repr(float(rng.uniform(0.0, FOUR_PI)))]
        elif kind == "gyrate":
            args = ["--gamma", repr(float(rng.uniform(0.0, FOUR_PI)))]
        elif kind == "fourier":
            chi, beta = rng.uniform(0.0, FOUR_PI, 2)
            args = ["--chi", repr(float(chi)), "--beta", repr(float(beta))]
        else:
            element = ga.FourierGroupElement(*rng.uniform(0.0, FOUR_PI, 4))
            args = ["--element", ga.element_to_json(element)]
        plan.append((str(kind), size, args))
    return plan


def cli_argv(inputs, kind, size, args):
    return [kind, *args, "--in", inputs.paths[size],
            "--out", inputs.output(size)]


def cli_output_ok(inputs, size) -> tuple[bool, str]:
    path = inputs.output(size)
    try:
        _, pixels = imageio.load_image(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    if pixels.shape != inputs.pixels[size].shape:
        return False, f"shape {pixels.shape}"
    if size == "large" and not norm_preserved(pixels, inputs.pixels[size]):
        return False, "norm not preserved"
    return True, ""


def run_cli_subprocess(argv, env):
    """Run one command process; returns (exit code, stderr, peak RSS MiB).

    The process is reaped with ``os.wait4`` to read its own peak RSS, which
    the other processes this worker starts cannot inflate.
    """
    proc = subprocess.Popen([sys.executable, "-m", "fkimage.cli", *argv],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err, usage.ru_maxrss / 1024.0


def run_cli_inprocess(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_loop(inputs, rng, clock, tally, env=None, deadline=None, rounds=None,
             run=None, requests=None, spins=None):
    """Whole rounds of commands until the deadline or the round count.

    ``run(argv)`` returns an exit code; by default each command is a fresh
    ``python -m fkimage.cli`` process with ``env``.
    """
    if run is None:
        def run(argv):
            code, err, rss = run_cli_subprocess(argv, env)
            inputs.peak_rss_mb = max(inputs.peak_rss_mb, rss)
            if code and len(tally.errors) < 5:
                tally.errors.append(err.strip()[-300:])
            return code
    done = 0
    while (rounds is None or done < rounds) and (
            deadline is None or time.monotonic() < deadline):
        done += 1
        for kind, size, args in cli_round(rng):
            what = f"cli {kind} {size}"
            try:
                code = clock.call(f"cli_{size}", run,
                                  cli_argv(inputs, kind, size, args))
                ok, detail = (cli_output_ok(inputs, size) if code == 0
                              else (False, f"exit code {code}"))
                tally.check(what, ok, detail)
            except Exception as exc:
                tally.raised(what, exc)
                continue
            if requests is not None:
                requests.extend(cli_requests(kind, args, spins[size],
                                             command=len(requests)))
    return done


def cli_requests(kind, args, spins, command):
    """Little-d keys one command asks for.  Every command is a fresh
    process with an empty cache, so each key carries a command number."""
    if kind in ("rotate", "gyrate"):
        angles = [2.0 * float(args[1])]
    elif kind == "apply":
        angles = [ga.element_from_json(args[1]).theta]
    else:
        angles = []
    return [(command, two_l, a) for a in angles for two_l in spins]
