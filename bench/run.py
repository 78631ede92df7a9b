"""Benchmark of rigidori: one command, three seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload duality --seed 1 --seconds 30 --trace 0

One client, no threads: each op starts when the previous one has
returned. The package is imported from ``src/`` of this checkout.

``--trace 0`` times a fixed number of ops, ``OPS_PER_SECOND`` for each
second of ``--seconds`` (more if fewer than ``MIN_OK`` succeeded, so the
p90 has ten samples beyond it), and reports the end-to-end metrics of
BENCHMARK.json. The op count depends on the seed alone, not on the
machine's speed, so two runs with one seed attempt the same inputs and
fail on the same ones; at the seed's speed a run lasts about
``--seconds``. Set-up time is the median of ``SETUP_REPEATS`` fresh
interpreters, each importing the package, drawing inputs and building
what the workload needs.

``--trace 1`` runs a fixed list of ``TRACE_OPS`` inputs twice, first as
is and then with every layer wrapped in spans (see spans.py), and
reports the per-layer metrics of BENCHMARK.json summed over the traced
pass. The fixed list makes every count repeat exactly.

Every op's output is checked (see workloads.py). The last line of stdout
is one JSON object: ``correct`` (no op delivered a wrong result),
``attempted``, ``failed`` (error or wrong) and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ".bench_out"  # relative to ROOT, so file contents do not depend on it

if __name__ == "__main__" and not (SRC / "rigidori" / "__init__.py").is_file():
    sys.exit(f"bench: no package source at {SRC}")
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy  # noqa: E402
import rigidori  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OPS_PER_SECOND = 5  # about the throughput of every workload at the seed
MIN_OK = 100
MAX_BUSY_S = 150.0
SETUP_REPEATS = 5
TRACE_OPS = 32

_PROBE = """
import sys, time
t0 = time.perf_counter()
src, bench, name, seed, scratch = sys.argv[1:]
sys.path[:0] = [src, bench]
import workloads
w = workloads.WORKLOADS[name]
next(w.inputs(int(seed)))
w.setup(scratch)
print(time.perf_counter() - t0)
"""


class Tally:
    """Outcome of a sequence of ops: latencies of the successful ones,
    failures by kind and reason, and the summed op time."""

    def __init__(self):
        self.ok_s: list[float] = []
        self.attempted = 0
        self.busy_s = 0.0
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return self.attempted - len(self.ok_s)

    @property
    def wrong(self) -> int:
        return sum(n for (kind, _), n in self.failures.items() if kind == "wrong")

    @property
    def ops_per_s(self) -> float:
        return len(self.ok_s) / self.busy_s

    def run(self, workload, ctx, inp, op) -> None:
        """One op, timed; its output is checked outside the timed region."""
        t0 = time.perf_counter()
        try:
            out = op(ctx, inp)
        except Exception as exc:  # any raise is a failed op, never a crash
            dt = time.perf_counter() - t0
            verdict = workloads.Failure("error", f"{type(exc).__name__}: {exc}")
        else:
            dt = time.perf_counter() - t0
            verdict = workload.check(inp, out)
        self.attempted += 1
        self.busy_s += dt
        if verdict is None:
            self.ok_s.append(dt)
        else:
            # numbers stripped, so failures group by cause
            self.failures[(verdict.kind, re.sub(r"-?\d[\d.e+-]*", "#", verdict.reason))] += 1


def setup_seconds(name: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), name, str(seed), SCRATCH],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def end_to_end(w, seed: int, seconds: float, min_ok: int = MIN_OK) -> tuple[Tally, dict]:
    setup_s = setup_seconds(w.name, seed)
    inputs = w.inputs(seed)
    ctx = w.setup(SCRATCH)
    n_ops = math.ceil(seconds * OPS_PER_SECOND)
    tally = Tally()
    while tally.attempted < n_ops or len(tally.ok_s) < min_ok:
        if tally.busy_s > MAX_BUSY_S:
            raise RuntimeError(f"{tally.attempted} ops took over {MAX_BUSY_S:.0f} s")
        tally.run(w, ctx, next(inputs), w.op)
    if len(tally.ok_s) < 2:
        raise RuntimeError(f"{len(tally.ok_s)} successful ops in {tally.busy_s:.0f} s")
    ms = [1e3 * s for s in tally.ok_s]
    return tally, {
        "ops_per_s": tally.ops_per_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(w, seed: int, n_ops: int = TRACE_OPS) -> tuple[Tally, dict]:
    ops = list(itertools.islice(w.inputs(seed), n_ops))
    untraced = Tally()
    ctx = w.setup(SCRATCH)
    for inp in ops:
        untraced.run(w, ctx, inp, w.op)

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_op = tracer.wrap(spans.OP_SPAN, w.op)
        ctx = w.setup(SCRATCH)  # again, so set-up work shows in its spans
        traced = Tally()
        for inp in ops:
            traced.run(w, ctx, inp, traced_op)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans)
    # traced / untraced ops per second over the same op list
    m["bench.trace_overhead"] = untraced.busy_s / traced.busy_s
    m["bench.error_rate"] = traced.failed / traced.attempted
    return traced, m


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            sha = out.stdout.strip() or sha
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "nproc": os.cpu_count(),
    }


def report(tally: Tally, values: dict, section: str) -> dict:
    """The result object; metric names and units come from BENCHMARK.json,
    which must list exactly the metrics computed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(names) ^ set(values))}")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main(argv=None) -> int:
    if Path(rigidori.__file__).resolve().parent != SRC / "rigidori":
        print(f"bench: imported rigidori from {rigidori.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload]
        if args.trace:
            tally, values = per_layer(w, args.seed)
            result = report(tally, values, "per_layer")
        else:
            tally, values = end_to_end(w, args.seed, args.seconds)
            result = report(tally, values, "end_to_end")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print("env " + json.dumps(environment()))
    print(f"workload {w.name}: {w.why}")
    print(f"ops attempted {tally.attempted}, failed {tally.failed} "
          f"(error_rate {tally.failed / tally.attempted:.4f}), wrong {tally.wrong}")
    for (kind, reason), n in sorted(tally.failures.items()):
        print(f"  {kind}: {reason} x{n}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
