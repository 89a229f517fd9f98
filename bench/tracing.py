"""Spans around the library's layer boundaries, and the per-layer suite.

The spans come from this file, not from the program: ``install`` swaps each
boundary function for a wrapper that records a span while tracing is on,
and ``restore`` puts the originals back.  A span holds its name, layer,
start, end, parent span and op id.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from fkimage import cli, imageio, mode_basis, special_functions
from fkimage import fourier_transforms as ft
from fkimage import group_algebra as ga

import workloads as wl

render = importlib.import_module("fkimage.render")   # the package exports a
                                                    # function of that name

LAYERS = ("special_functions", "mode_basis", "fourier_transforms",
          "group_algebra", "imageio", "render", "cli", "bench")
LADDER = ((5, 3), (20, 12), (64, 48), (100, 100))
LITTLE_D_BUCKETS = {"small": (0, 24), "mid": (25, 96), "large": (97, 200)}
# Metrics that are counted from the schedule or from sizes, not timed.
COMPUTED = ("special_functions.little_d_requests",
            "special_functions.little_d_distinct",
            "special_functions.little_d_reuse",
            "fourier_transforms.rotate_flops.",
            "fourier_transforms.rotate_bytes.",
            "imageio.bytes_")

# (owner, attribute, layer).  Each owner is the namespace the caller looks
# the name up in, so ``fourier_transforms._little_d_entries`` is the kernel
# as the transforms call it, and ``cli.load_image`` the reader as the CLI
# calls it.
BOUNDARIES = (
    (ft, "_little_d_entries", "special_functions"),
    (mode_basis, "kravchuk_function", "special_functions"),
    (mode_basis, "level_spectrum", "mode_basis"),
    (mode_basis.CartesianBasis, "analyze", "mode_basis"),
    (mode_basis.CartesianBasis, "synthesize", "mode_basis"),
    (cli, "main", "cli"),
    (cli, "build_basis", "mode_basis"),
    (ft, "analyze", "fourier_transforms"),
    (ft, "synthesize", "fourier_transforms"),
    (ft, "rotate_coeffs", "fourier_transforms"),
    (ft, "gyrate_coeffs", "fourier_transforms"),
    (ft, "ks_coeffs", "fourier_transforms"),
    (ft, "ka_coeffs", "fourier_transforms"),
    (ft, "apply_element_coeffs", "fourier_transforms"),
    (ft, "rotate_image", "fourier_transforms"),
    (ft, "gyrate_image", "fourier_transforms"),
    (ft, "apply_element", "fourier_transforms"),
    (ft, "fractional_fourier_image", "fourier_transforms"),
    (ga, "inverse", "group_algebra"),
    (ga, "compose", "group_algebra"),
    (ga, "from_matrix", "group_algebra"),
    (ga, "to_matrix", "group_algebra"),
    (cli, "element_from_json", "group_algebra"),
    (cli, "load_image", "imageio"),
    (cli, "save_complex", "imageio"),
    (imageio, "read_pgm", "imageio"),
    (imageio, "load_complex", "imageio"),
    (render, "write_pgm", "imageio"),
    (cli, "render", "render"),
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []         # [name, layer, start, end, parent, op]
        self._stack = []
        self.op = -1

    def begin(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def install(self):
        """Wrap every boundary the program has; returns the originals for
        ``restore``.  A boundary that a later version renames or removes is
        skipped, and its time shows up in the caller's self time."""
        saved = []
        for owner, attr, layer in BOUNDARIES:
            original = vars(owner).get(attr)
            if not callable(original):
                continue
            module = getattr(original, "__module__", "") or ""
            name = f"{module.rsplit('.', 1)[-1]}.{attr}"
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, layer))
        return saved

    @staticmethod
    def restore(saved):
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    def write(self, path, t_origin):
        """Spans as JSON rows, times in microseconds from ``t_origin``."""
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "layer", "start_us", "end_us",
                                   "parent", "op"],
                       "spans": [[n, l, round((s - t_origin) * 1e6, 1),
                                  round((e - t_origin) * 1e6, 1), p, o]
                                 for n, l, s, e, p, o in self.spans]}, fh)


class TracedClock(wl.Clock):
    """A Clock whose every timed call is a root span with a new op id."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def call(self, metric, fn, *args):
        self.tracer.op += 1
        index = self.tracer.begin(f"op.{metric or fn.__name__}", "bench")
        try:
            return super().call(metric, fn, *args)
        finally:
            self.tracer.end(index)


def self_shares(spans):
    """Each layer's self time over the op (root span) time.  Self time is a
    span's duration minus the part its child spans cover."""
    child_time = {}
    for name, layer, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    own = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for i, (name, layer, start, end, parent, op) in enumerate(spans):
        own[layer] += end - start - child_time.get(i, 0.0)
        if parent < 0:
            total += end - start
    return {f"self_share.{layer}": (own[layer] / total if total else 0.0)
            for layer in LAYERS}


def little_d_counts(requests):
    """Computed from the schedule: little-d requests, distinct keys, reuse."""
    distinct = len(set(requests))
    return {
        "special_functions.little_d_requests": float(len(requests)),
        "special_functions.little_d_distinct": float(distinct),
        "special_functions.little_d_reuse": (
            1.0 - distinct / len(requests) if requests else 0.0),
    }


# ------------------------------------------------------- per-layer suite

def _median_time(fn, repeat, *args):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _child_seconds(code, env, repeat=3):
    """Median of a timing printed by ``repeat`` fresh interpreters."""
    values = []
    for _ in range(repeat):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        values.append(float(out.stdout.split()[-1]))
    return statistics.median(values)


def import_layer(env):
    template = ("import time; t = time.perf_counter(); import {mod}; "
                "print(time.perf_counter() - t)")
    return {
        "import.fkimage_s": _child_seconds(
            template.format(mod="fkimage"), env),
        "import.scipy_linalg_s": _child_seconds(
            template.format(mod="scipy.linalg"), env),
    }


def special_functions_layer(rng):
    out = {}
    for bucket, (lo, hi) in LITTLE_D_BUCKETS.items():
        times = []
        for _ in range(24):
            spin = special_functions.Spin(int(rng.integers(lo, hi + 1)))
            beta = float(rng.uniform(0.0, wl.FOUR_PI))     # never repeats
            start = time.perf_counter()
            special_functions.wigner_little_d(spin, beta)
            times.append(time.perf_counter() - start)
        out[f"special_functions.little_d_us.{bucket}"] = (
            statistics.median(times) * 1e6)
    times = []
    for _ in range(200):
        n, s = (int(v) for v in rng.integers(0, 97, 2))
        start = time.perf_counter()
        special_functions.kravchuk_function(48, n, s - 48)
        times.append(time.perf_counter() - start)
    out["special_functions.kravchuk_function_us"] = (
        statistics.median(times) * 1e6)
    return out


def rotate_counts(basis):
    """Computed flops (sum of 2*size^2 over levels) and bytes touched (the
    float64 block plus complex input and output) of one rotate."""
    sizes = np.array([lev.size for lev in basis.levels], dtype=float)
    return (float(np.sum(2.0 * sizes ** 2)),
            float(np.sum(8.0 * sizes ** 2 + 32.0 * sizes)))


def ladder_layer(rng, ladder):
    out = {}
    for shape in ladder:
        key = wl.shape_name(shape)
        screen = mode_basis.ScreenShape.of(*shape)
        builds = []
        for _ in range(1 if shape[0] * shape[1] > 1000 else 5):
            start = time.perf_counter()
            basis = mode_basis.build_basis(shape)
            builds.append(time.perf_counter() - start)
        build = statistics.median(builds)
        levels = _median_time(
            lambda: [mode_basis.level_spectrum(screen, n)
                     for n in range(screen.max_total_mode + 1)], 5)
        out[f"mode_basis.build_basis_s.{key}"] = build
        out[f"mode_basis.levels_s.{key}"] = levels
        out[f"mode_basis.tables_s.{key}"] = build - levels

        coeffs = ft.analyze(basis, wl.random_image(rng, basis.shape.pixels))
        out[f"fourier_transforms.analyze_us.{key}"] = 1e6 * _median_time(
            ft.analyze, 20, basis, coeffs)
        out[f"fourier_transforms.synthesize_us.{key}"] = 1e6 * _median_time(
            ft.synthesize, 20, basis, coeffs)
        repeat = 3 if shape == (100, 100) else 5
        fixed = {"rotate": 0.7, "gyrate": 0.7,
                 "apply": ga.FourierGroupElement(1.0, 0.3, 0.8, 2.0)}
        for kind, fn in (("rotate", ft.rotate_coeffs),
                         ("gyrate", ft.gyrate_coeffs),
                         ("apply", ft.apply_element_coeffs)):
            fresh = []
            for _ in range(repeat):
                param = wl.fresh_param(rng, kind)
                start = time.perf_counter()
                fn(basis, coeffs, param)
                fresh.append(time.perf_counter() - start)
            fn(basis, coeffs, fixed[kind])                      # warm
            again = _median_time(fn, repeat, basis, coeffs, fixed[kind])
            name = f"fourier_transforms.{fn.__name__}_ms"
            out[f"{name}.fresh.{key}"] = 1e3 * statistics.median(fresh)
            out[f"{name}.repeat.{key}"] = 1e3 * again
            if kind == "rotate":
                flops, nbytes = rotate_counts(basis)
                out[f"fourier_transforms.rotate_flops.{key}"] = flops
                out[f"fourier_transforms.rotate_bytes.{key}"] = nbytes
                out[f"fourier_transforms.rotate_gflops.{key}"] = (
                    flops / again / 1e9)
    return out


def phases_and_group_layer(rng, shape):
    basis = mode_basis.build_basis(shape)
    coeffs = ft.analyze(basis, wl.random_image(rng, basis.shape.pixels))
    out = {"fourier_transforms.ks_coeffs_us": 1e6 * _median_time(
               ft.ks_coeffs, 50, coeffs, 0.4),
           "fourier_transforms.ka_coeffs_us": 1e6 * _median_time(
               ft.ka_coeffs, 50, coeffs, 0.9)}
    elements = [ga.FourierGroupElement(rng.uniform(0, wl.FOUR_PI),
                                       rng.uniform(0, 2 * np.pi),
                                       rng.uniform(0, np.pi),
                                       rng.uniform(0, 2 * np.pi))
                for _ in range(201)]
    matrices = [ga.to_matrix(e) for e in elements]
    for name, fn, args in (
            ("compose", ga.compose, list(zip(elements, elements[1:]))),
            ("inverse", ga.inverse, [(e,) for e in elements[:200]]),
            ("from_matrix", ga.from_matrix, [(m,) for m in matrices[:200]])):
        times = []
        for a in args:
            start = time.perf_counter()
            fn(*a)
            times.append(time.perf_counter() - start)
        out[f"group_algebra.{name}_us"] = statistics.median(times) * 1e6
    return out


def io_and_cli_layer(rng, workdir, cli_shapes, env):
    inputs = wl.CliInputs(workdir, rng, cli_shapes)
    try:
        small, large = inputs.paths["small"], inputs.paths["large"]
        rendered = os.path.join(workdir, "render.pgm")
        saved = os.path.join(workdir, "save.fkimg")
        pixels = inputs.pixels["large"]
        out = {
            "imageio.load_image_ms.pgm": 1e3 * _median_time(
                imageio.load_image, 20, small),
            "imageio.load_image_ms.fkimg": 1e3 * _median_time(
                imageio.load_image, 20, large),
            "imageio.save_complex_ms": 1e3 * _median_time(
                imageio.save_complex, 20, saved, pixels),
            "render.render_ms": 1e3 * _median_time(
                render.render, 20, inputs.pixels["small"],
                render.RenderSpec(scaling="adaptive"), rendered),
            "imageio.bytes_read.small": float(os.path.getsize(small)),
            "imageio.bytes_read.large": float(os.path.getsize(large)),
            "imageio.bytes_written.small": float(os.path.getsize(rendered)),
            "imageio.bytes_written.large": float(os.path.getsize(saved)),
        }
        args = {"rotate": ["--theta", "0.7"], "gyrate": ["--gamma", "0.7"],
                "fourier": ["--chi", "0.4", "--beta", "0.9"],
                "apply": ["--element", '{"chi":1.0,"psi":0.3,'
                                       '"theta":0.8,"phi":2.0}']}
        for kind, extra in args.items():
            for size in ("small", "large"):
                argv = wl.cli_argv(inputs, kind, size, extra)
                out[f"cli.main_s.{kind}.{size}"] = _median_time(
                    wl.run_cli_inprocess, 3 if size == "small" else 1, argv)
        argv = wl.cli_argv(inputs, "rotate", "small", args["rotate"])
        process = _median_time(wl.run_cli_subprocess, 3, argv, env)
        out["cli.process_overhead_s"] = (
            process - out["cli.main_s.rotate.small"])
        return out
    finally:
        inputs.close()


def layer_suite(tracer, rng, env, workdir, ladder, cli_shapes):
    """Every per-layer timing, each section one root span of the trace."""
    out = {}
    sections = (
        ("import", import_layer, (env,)),
        ("special_functions", special_functions_layer, (rng,)),
        ("mode_basis+fourier_transforms", ladder_layer, (rng, ladder)),
        ("fourier_transforms+group_algebra", phases_and_group_layer,
         (rng, ladder[min(1, len(ladder) - 1)])),
        ("imageio+render+cli", io_and_cli_layer,
         (rng, workdir, cli_shapes, env)),
    )
    for name, fn, args in sections:
        tracer.op += 1
        index = tracer.begin(f"suite.{name}", "bench")
        try:
            out.update(fn(*args))
        finally:
            tracer.end(index)
    return out
