"""fkimage benchmark: run one workload and print every metric.

    python3 bench/run.py --workload {cli_cold,sweep_fresh,chain_repeat}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source tree that holds ``src/fkimage``.  Every
workload runs in fresh worker processes, one at a time, with BLAS pinned
to one thread.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it list the same metrics as a table, and the
environment record.  The full result, with the environment record and the
sample counts, is also written under ``.bench_out/``.  The exit code is 1
when any output check fails, and 2 when the tree has no program to run.
``--smoke`` runs everything on the smallest screen, (5,3), as a quick
self-test; its figures are not the benchmark's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
TIME_LIMIT = 170.0

FAMILY = {"cli_cold": "cli", "sweep_fresh": "sweep", "chain_repeat": "chain"}
# The op each workload times; its samples give op_ms and ops_per_s.
OPS = {"cli": ("cli_small", "cli_large"), "sweep": ("sweep_op",),
       "chain": ("chain",)}
OP_NAME = {"cli": "one CLI command process", "sweep": "one transform",
           "chain": "one image through the chain"}
# Each run executes its workload's op family in REPS fresh processes, each
# for a third of --seconds, so setup_s is a median of REPS set-ups.
REPS = 3


class WorkerError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(params, started):
    params = dict(params, src=str(SRC), t0=time.monotonic())
    timeout = max(5.0, TIME_LIMIT - (time.monotonic() - started))
    # A session of its own, so that a timeout also stops the processes the
    # worker started.
    with subprocess.Popen([sys.executable, str(WORKER), json.dumps(params)],
                          env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            raise WorkerError(f"worker {params['mode']} timed out") from exc
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker {params['mode']} exited "
                          f"{proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def untraced(args, base, started):
    family = FAMILY[args.workload]
    runs = [run_worker(dict(base, mode="family", family=family, rep=rep,
                            seconds=args.seconds / REPS), started)
            for rep in range(REPS)]

    def pooled(kind, names):
        return [v for r in runs for n in names for v in r[kind].get(n, [])]

    ops = pooled("scaled", OPS[family])
    if not ops:
        raise WorkerError("no op completed")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "setup_s": statistics.median(r["setup_scaled_s"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        "op_ms.p50": 1e3 * statistics.median(ops),
        "ops_per_s": len(ops) / sum(ops),
    }
    info = {"op": OP_NAME[family],
            "setup_raw_s": [r["setup_s"] for r in runs]}
    for kind, label in (("samples", "raw"), ("scaled", "scaled")):
        for name in sorted({n for r in runs for n in r[kind]}):
            ms = [1e3 * v for v in pooled(kind, [name])]
            info[f"{name}_ms.{label}"] = {"n": len(ms),
                                          "p50": statistics.median(ms),
                                          "p90": p90(ms)}
    detail = {"info": info, "errors": [e for r in runs for e in r["errors"]]}
    return metrics, attempted, failed, detail


def traced(args, base, started):
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    result = run_worker(dict(base, mode="trace", family=FAMILY[args.workload],
                             seconds=args.seconds, spans=str(spans)), started)
    detail = {k: result[k]
              for k in ("errors", "traced_units", "spans", "computed")}
    detail["spans_file"] = str(spans.relative_to(ROOT))
    return result["metrics"], result["attempted"], result["failed"], detail


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "fkimage").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(args, started):
    record = run_worker({"mode": "env"}, started)   # also warms the import
    record.update({
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
    })
    return record


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FAMILY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "fkimage" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'fkimage'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = {"seed": args.seed, "smoke": args.smoke,
            "workdir": str(OUT / f"work-{os.getpid()}")}
    try:
        env = environment(args, started)
        measure = traced if args.trace else untraced
        metrics, attempted, failed, detail = measure(args, base, started)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not args.smoke:
        print(f"benchmark failed: metrics not measured: {missing}",
              file=sys.stderr)
        return 1
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted if m["name"] in metrics}
    correct = failed == 0 and attempted > 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": report}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        dict(result, environment=env, detail=detail), indent=1))

    width = max(len(name) for name in report)
    computed = set(detail.get("computed", ()))
    for name, m in report.items():
        note = "  (computed)" if name in computed else ""
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}{note}")
    for name, value in detail.get("info", {}).items():
        print(f"info {name}: {json.dumps(value)}")
    for error in detail["errors"]:
        print(f"check failed: {error}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
