"""One fresh process of the fkimage benchmark.

    python bench/worker.py '<json parameters>'

Runs one op family (``sweep``, ``chain`` or ``cli``), the traced run, or
the environment probe, and prints its result as one JSON line.  ``run.py``
starts it; it is not meant to be called by hand.  Setup time is measured
from ``t0``, the orchestrator's monotonic clock just before this process
was started, so it includes interpreter start and ``import fkimage``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

PARAMS = json.loads(sys.argv[1])
# One core for the worker and every process it starts, so that the speed
# probe (speed.py) runs on the core the timed work runs on.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import numpy as np                                   # noqa: E402

import fkimage                                       # noqa: E402

if not os.path.abspath(fkimage.__file__).startswith(PARAMS["src"] + os.sep):
    sys.exit(f"fkimage imported from {fkimage.__file__}, not {PARAMS['src']}")

import speed                                         # noqa: E402
import workloads as wl                               # noqa: E402

FAMILY_STREAM = {"sweep": 1, "chain": 2, "cli": 3}
MAX_TRACED_UNITS = 128          # bounds the span count of a traced run
# The little-d counts cover exactly this many traced loop units (images or
# CLI rounds), so that one seed always gives the same counts.
COUNTED_UNITS = {"sweep": 8, "chain": 32, "cli": 2}


def shapes(params):
    if params.get("smoke"):
        small = wl.SMOKE_SHAPE
        return {"sweep": small, "chain": small,
                "cli": {"small": small, "large": small}}
    return {"sweep": wl.SWEEP_SHAPE, "chain": wl.CHAIN_SHAPE,
            "cli": wl.CLI_SHAPES}


def level_spins(shape):
    screen = fkimage.ScreenShape.of(*shape)
    return [fkimage.level_spectrum(screen, n).spin.two_j
            for n in range(screen.max_total_mode + 1)]


def setup(family, params, rng):
    shape = shapes(params)[family]
    if family == "sweep":
        return wl.sweep_setup(shape)
    if family == "chain":
        return wl.chain_setup(shape)
    return wl.CliInputs(params["workdir"], rng, shape)


def loop(family, state, rng, clock, tally, deadline=None, count=None,
         requests=None, run=None, params=None):
    if family == "sweep":
        return wl.sweep_loop(state, rng, clock, tally, deadline, count,
                             requests)
    if family == "chain":
        return wl.chain_loop(state, rng, clock, tally, deadline, count,
                             requests)
    spins = None if requests is None else {
        size: level_spins(shape)
        for size, shape in shapes(params)["cli"].items()}
    return wl.cli_loop(state, rng, clock, tally, env=dict(os.environ),
                       deadline=deadline, rounds=count, run=run,
                       requests=requests, spins=spins)


def family_run(params):
    family = params["family"]
    rng = np.random.default_rng(
        [params["seed"], FAMILY_STREAM[family], params["rep"]])
    tracker = (speed.Speed(speed.process_seconds, speed.PROCESS_SECONDS,
                           interval=1.0)
               if family == "cli" else speed.Speed())
    state = setup(family, params, rng)
    setup_s = time.monotonic() - params["t0"]
    setup_probe = tracker.probe()
    clock, tally = wl.Clock(tracker), wl.Tally()
    deadline = (time.monotonic() + params["seconds"]
                if "seconds" in params else None)
    try:
        loop(family, state, rng, clock, tally, deadline, params.get("count"),
             params=params)
    finally:
        if family == "cli":
            state.close()
    tracker.sample()
    rss = state.peak_rss_mb if family == "cli" else wl.peak_rss_mb()
    return {"setup_s": setup_s,
            "setup_scaled_s": setup_s * tracker.reference / setup_probe,
            "peak_rss_mb": rss,
            "attempted": tally.attempted, "failed": tally.failed,
            "errors": tally.errors,
            "samples": {name: [s for _, s in values]
                        for name, values in clock.samples.items()},
            "scaled": {name: [tracker.scale(at, s) for at, s in values]
                       for name, values in clock.samples.items()}}


def traced_run(params):
    """The workload's family with tracing off and on, one loop unit each in
    turn, then the per-layer suite.  Alternating units see the same cache
    and machine state, so their time difference is the tracing overhead."""
    import tracing

    family = params["family"]
    env = dict(os.environ)
    tracer = tracing.Tracer()
    t_origin = time.perf_counter()
    rng = np.random.default_rng([params["seed"], FAMILY_STREAM[family], 99])
    kernel = [speed.kernel_seconds()]
    state = setup(family, params, rng)
    run = wl.run_cli_inprocess if family == "cli" else None
    tally, plain = wl.Tally(), wl.Clock()
    clock = tracing.TracedClock(tracer)
    requests = []
    deadline = time.monotonic() + params["seconds"]
    units = 0
    try:
        loop(family, state, rng, wl.Clock(), tally, count=1, run=run,
             params=params)                              # warm-up, untimed
        counted = COUNTED_UNITS[family]
        while units < counted or (units < MAX_TRACED_UNITS
                                  and time.monotonic() < deadline):
            loop(family, state, rng, plain, tally, count=1, run=run,
                 params=params)
            saved = tracer.install()
            try:
                loop(family, state, rng, clock, tally, count=1,
                     requests=requests if units < counted else None,
                     run=run, params=params)
            finally:
                tracer.restore(saved)
            units += 1
    finally:
        if family == "cli":
            state.close()
    kernel.append(speed.kernel_seconds())
    metrics = tracing.self_shares(tracer.spans)
    metrics["trace_overhead_frac"] = clock.busy / plain.busy - 1.0
    metrics.update(tracing.little_d_counts(requests))

    sizes = shapes(params)
    ladder = [wl.SMOKE_SHAPE] if params.get("smoke") else tracing.LADDER
    metrics.update(tracing.layer_suite(
        tracer, rng, env, params["workdir"] + "-suite", ladder,
        sizes["cli"]))
    kernel.append(speed.kernel_seconds())
    # Per-layer times are raw; the kernel's time says how fast the machine
    # was while they were taken (speed.KERNEL_SECONDS on an unloaded core).
    metrics["speed.reference_kernel_us"] = 1e6 * statistics.median(kernel)
    tracer.write(params["spans"], t_origin)
    return {"metrics": metrics, "attempted": tally.attempted,
            "failed": tally.failed, "errors": tally.errors,
            "traced_units": units, "spans": len(tracer.spans),
            "computed": sorted(name for name in metrics
                               if name.startswith(tracing.COMPUTED))}


def environment():
    import platform

    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {"python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "platform": platform.platform()}


def main():
    mode = PARAMS["mode"]
    if mode == "family":
        result = family_run(PARAMS)
    elif mode == "trace":
        result = traced_run(PARAMS)
    else:
        result = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
