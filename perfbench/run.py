#!/usr/bin/env python3
"""heatoc benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload s1-grid|s2-grid|exact-ref \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory and never from an installed copy.  With ``--trace 0`` the run
repeats whole passes of the workload while the next one still fits in
``--seconds`` (at least one), and reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
print every metric by name with its unit.  See README.md in this directory.
"""

import os
import sys

# BLAS must be pinned before numpy is first imported, here and in the
# set-up probes that inherit this environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: set up once, print 'ready' and exit")
    return ap.parse_args(argv)


def import_program():
    """Import heatoc from SRC; exit with status 2 when the sources are absent."""
    if not (SRC / "heatoc" / "__init__.py").is_file():
        print(f"error: heatoc sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import heatoc
    if not Path(heatoc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported heatoc from {heatoc.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads
    return workloads


def probe_setup(args) -> float:
    """Wall time from starting a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                found[Path(lib).name] = int(fn())
                break
    return found


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "jobs": 1,
        "git_commit": git_commit(),
    }


def run_passes(workload, seconds: float):
    """Whole passes while the next one (at the median pass time) still fits."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


def print_cells(label: str, result) -> None:
    print(f"# {label}: wall {result.wall_s:.3f} s, {len(result.cells)} cells, "
          f"{result.failed} failed")
    for c in result.cells:
        if not c.ok:
            print(f"#   FAIL {c.cell}: {c.detail}")


def end_to_end_metrics(passes, setup: list[float], peak_rss_mb: float) -> dict:
    """The BENCHMARK.json end_to_end metrics {name: (value, unit)}."""
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cells_total": (float(len(passes[0].cells)), "count"),
    }


def trace_extras(untraced, traced, hits: int, misses: int) -> dict:
    """Per-layer metrics that come from the passes rather than the spans."""
    return {
        "opt.kkt_max": (traced.kkt_max, "1"),
        "bench.instance_hits": (float(hits), "count"),
        "bench.instance_misses": (float(misses), "count"),
        "report.bytes": (float(traced.report_bytes), "B"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }


def measure_end_to_end(args, workload):
    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload.setup()
    passes = run_passes(workload, args.seconds)
    for k, p in enumerate(passes, 1):
        print_cells(f"pass {k}", p)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "passes": (float(len(passes)), "count"),
        "cells_failed": (float(max(p.failed for p in passes)), "count"),
        "kkt_max": (max(p.kkt_max for p in passes), "1"),
    }
    return passes, end_to_end_metrics(passes, setup, rss_mb), info


def measure_layers(args, workload):
    """Set up traced, run one untraced and one traced pass."""
    import heatoc.bench
    from tracer import Tracer, layer_metrics
    cache = heatoc.bench.benchmark_instance
    tracer = Tracer()
    tracer.install()
    workload.setup()
    tracer.uninstall()
    after_setup = cache.cache_info()
    untraced = workload.run_pass()
    before = cache.cache_info()
    tracer.install()
    traced = workload.run_pass()
    tracer.uninstall()
    after = cache.cache_info()
    print_cells("untraced pass", untraced)
    print_cells("traced pass", traced)
    # the spans cover set-up and the traced pass; count cache use the same way
    hits = after_setup.hits + after.hits - before.hits
    misses = after_setup.misses + after.misses - before.misses
    metrics = {**layer_metrics(tracer), **trace_extras(untraced, traced, hits, misses)}
    info = {"untraced_wall_s": (untraced.wall_s, "s"),
            "cells_failed": (float(traced.failed), "count")}
    trace_file = OUT / f"trace-{args.workload}.npz"
    tracer.save(trace_file)
    print(f"# spans written to {trace_file.relative_to(ROOT)}")
    return [untraced, traced], metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    workload = wl.Workload(args.workload, args.seed, OUT / args.workload)
    if args.probe_setup:
        workload.setup()
        print("ready", flush=True)
        return 0

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# deltas={workload.deltas}")
    print(f"# env {json.dumps(run_environment())}")
    measure = measure_layers if args.trace else measure_end_to_end
    passes, metrics, info = measure(args, workload)
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:32s} {value:16.6g} {unit}")
    result = {
        "correct": all(c.values_ok for p in passes for c in p.cells),
        "attempted": sum(len(p.cells) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
