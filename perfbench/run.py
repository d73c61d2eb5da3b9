#!/usr/bin/env python3
"""detgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process: set-up, then whole request cycles until
S seconds of request time have passed, then output checks.  `--trace 0`
reports the end-to-end metrics; `--trace 1` runs a fixed number of cycles
untraced and then again with every wrapped library function traced, and
reports the per-layer metrics and the tracing overhead.  `--workload all`
(the default) runs the four workloads one after another, each in its own
process.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the run record (machine, BLAS, seed,
latencies, per-layer table) is written under perfbench/results/.  See
perfbench/README.md for the workloads and the metric -> layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One BLAS thread: within about 5% of two threads on figure-15x15 on a
# 2-core machine, and steadier when other processes share the cores.
BLAS_THREADS = 1
SETUP_REPEATS = 5
# Nominal seconds per request cycle; a traced run replays
# max(1, round(seconds / (2 * nominal))) cycles twice (untraced, traced), a
# count fixed by --seconds so that the exact counters repeat between runs.
CYCLE_SECONDS = {"figure-15x15": 14.0, "mc-small": 0.8,
                 "verify-small": 7.0, "poly-grid": 9.0}
WORKLOAD_NAMES = tuple(CYCLE_SECONDS)

# request_p90_s is printed and recorded but not listed: on figure-15x15 a run
# has about 10 requests, too few for 10 samples beyond a p90, and every listed
# metric must be reported by every workload.
TAIL_MIN_REQUESTS = 100
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("request_p50_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# spans whose inclusive time is reported next to their self time
BUSY_SPANS = ("cli.main", "measures.build_kernel",
              "oracle.compare_measure", "oracle.compare_polynomial")
TRACE_EXTRAS = (
    ("oracle.family_hit_ratio", "ratio", "higher"),
    ("request.calls", "count", "higher"),
    ("request.wall_s", "s", "lower"),
    ("request.other_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.errors", "count", "lower"),
    ("trace.spans", "count", "lower"),
)


def span_specs(span_names) -> list[tuple[str, str, str]]:
    out = []
    for name in span_names:
        out.append((f"{name}.calls", "count", "lower"))
        if name in BUSY_SPANS:
            out.append((f"{name}.busy_s", "s", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out


def per_layer_specs(span_names) -> list[tuple[str, str, str]]:
    return span_specs(span_names) + list(TRACE_EXTRAS)


class Loop:
    """Closed loop, one client: each request starts when the previous ends."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.items = 0
        self.failed = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def run(self, requests) -> None:
        for req in requests:
            rid = len(self.latencies)
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    out = req.call()
                else:
                    with self.tracer.request(rid):
                        out = req.call()
                ok = True
            except Exception:
                traceback.print_exc()
                ok = False
            self.latencies.append(time.perf_counter() - start)
            self.kinds.append(req.kind)
            if ok:
                try:
                    ok = bool(req.check(out))
                except Exception:
                    traceback.print_exc()
                    ok = False
            if ok:
                self.items += req.items
            else:
                self.failed += 1
                print(f"request {rid} ({req.kind}) failed", file=sys.stderr)


def setup_repeats(tiny: bool) -> int:
    return 1 if tiny else SETUP_REPEATS


def import_seconds(repeats: int) -> float:
    """Median time to import numpy and detgraph (with its CLI) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import numpy, detgraph, detgraph.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, tiny: bool = False) -> dict:
    """One workload run; returns the result record (metrics under "metrics")."""
    import spans
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix=f".work-{name}-") as tmp:
        setup_times = []
        for _ in range(setup_repeats(tiny)):
            start = time.perf_counter()
            workload = cls(seed, tiny, Path(tmp))
            first = workload.cycle(0)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "tiny": tiny, "import_s": import_s, "setup_times_s": setup_times}
        if not trace:
            loop = Loop()
            c = 0
            while c == 0 or loop.busy < seconds:
                loop.run(first if c == 0 else workload.cycle(c))
                c += 1
            record["cycles"] = c
            record["metrics"] = end_to_end(loop, setup_s)
        else:
            cycles = max(1, round(seconds / (2 * CYCLE_SECONDS[name])))
            base = Loop()
            for c in range(cycles):
                base.run(first if c == 0 else workload.cycle(c))
            tracer = spans.Tracer()
            tracer.install()
            try:
                loop = Loop(tracer)
                for c in range(cycles):
                    loop.run(workload.cycle(c))
            finally:
                tracer.uninstall()
            record["cycles"] = cycles
            record["untraced_latencies_s"] = base.latencies
            record["layers"] = tracer.table()
            record["metrics"] = per_layer(tracer, loop, base)
            loop.failed += base.failed
            trace_path = RESULTS / f"spans-{name}-seed{seed}.npz"
            tracer.save(trace_path)
            record["spans_file"] = str(trace_path.relative_to(ROOT))
    record["attempted"] = len(loop.latencies) + (len(base.latencies) if trace else 0)
    record["failed"] = loop.failed
    record["latencies_s"] = loop.latencies
    record["kinds"] = loop.kinds
    return record


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    lat = loop.latencies
    busy = loop.busy
    return {
        "setup_s": setup_s,
        "requests_per_s": len(lat) / busy,
        "request_p50_s": statistics.median(lat),
        "request_p90_s": statistics.quantiles(lat, n=10)[8],
        "samples_per_s": loop.items / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, loop: Loop, base: Loop) -> dict[str, float]:
    table = tracer.table()
    out = {}
    for metric, _, _ in span_specs(tracer.names[1:]):
        span, _, field = metric.rpartition(".")
        out[metric] = table[span][field]
    root = table["request"]
    out["oracle.family_hit_ratio"] = (tracer.family_members / tracer.family_subsets
                                      if tracer.family_subsets else 0.0)
    out["request.calls"] = root["calls"]
    out["request.wall_s"] = root["busy_s"]
    out["request.other_s"] = root["self_s"]
    out["trace.untraced_wall_s"] = base.busy
    out["trace.overhead_frac"] = loop.busy / base.busy - 1.0
    out["trace.errors"] = sum(row["errors"] for row in table.values())
    out["trace.spans"] = len(tracer.span_start)
    return out


def run_record_env() -> dict:
    import numpy as np
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas_config": np.show_config(mode="dicts"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(record: dict, specs) -> None:
    """Human-readable lines; the machine-readable line comes last."""
    m = record["metrics"]
    n = len(record["latencies_s"])
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"cycles {record['cycles']}  requests {n}")
    notes = {
        "setup_s": f"import {record['import_s']:.3f} s + median of "
                   f"{len(record['setup_times_s'])} set-ups",
        "request_p50_s": f"median of {n} requests",
        "requests_per_s": f"{n} requests in {sum(record['latencies_s']):.2f} s of request time",
    }
    for name, unit, _ in specs:
        if name in m:
            print(f"  {name:42s} {m[name]:>14.6g} {unit:6s} {notes.get(name, '')}")
    if not record["trace"]:
        if n >= TAIL_MIN_REQUESTS:
            print(f"  {'request_p90_s':42s} {m['request_p90_s']:>14.6g} s      "
                  f"p90 of {n} requests, {n - int(0.9 * n)} beyond it")
        else:
            print(f"  {'request_p90_s':42s} {'-':>14s}        "
                  f"not reported: {n} requests, fewer than {TAIL_MIN_REQUESTS}")
    print(f"  {'failed_frac':42s} {record['failed'] / max(record['attempted'], 1):>14.6g} "
          f"       {record['failed']} of {record['attempted']} requests")
    if record["trace"]:
        layers = record["layers"]
        total_self = sum(row["self_s"] for row in layers.values())
        print(f"  self times + request.other_s = {total_self:.6f} s; "
              f"traced request wall = {layers['request']['busy_s']:.6f} s; "
              f"no layer waits on a queue, lock or other process")


def result_line(record: dict, specs) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit, _ in specs},
    })


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def main(argv=None, tiny: bool = False) -> int:
    args = parse_args(argv)
    if not (SRC / "detgraph" / "__init__.py").is_file():
        print(f"error: detgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)   # read when numpy loads BLAS
    sys.path[:0] = [str(SRC), str(HERE)]
    import detgraph
    import spans
    if not Path(detgraph.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported detgraph from {detgraph.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          import_s=import_seconds(setup_repeats(tiny)), tiny=tiny)
    record["environment"] = run_record_env()
    specs = per_layer_specs(spans.Tracer().names[1:]) if args.trace else END_TO_END
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    report(record, specs)
    print(f"record: {path.relative_to(ROOT)}")
    print(result_line(record, specs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
