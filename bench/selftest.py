"""Self-test of the benchmark itself (not of the library). Run from the
repository root:

    python3 bench/selftest.py

It checks that
  * a small run of every workload passes its output checks and emits
    exactly the metric names and units of BENCHMARK.json;
  * corrupted outputs (a theta off by 1e-6, a perturbed fold-state
    mismatch, a glue residual above bound, a zero-branch report) count as
    failures, so the checks are not vacuous;
  * two traced runs give identical values for every count metric, and the
    layer separation holds: no kinematics work on `stack`, no
    tessellation, embedding or cli work on `duality`;
  * the command exits non-zero, printing no result, in a directory that
    holds only BENCHMARK.json and the benchmark.
Takes about a minute on one core.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402

SEED = 7
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def is_count(name: str) -> bool:
    return not name.endswith(".self_ms") and name != "bench.trace_overhead"


def test_spec_matches_workloads():
    expect(
        [(w["name"], w["why"]) for w in SPEC["workloads"]]
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()],
        "BENCHMARK.json workloads and reasons are those of workloads.py",
    )


def test_small_runs():
    for w in workloads.WORKLOADS.values():
        tally, values = run.end_to_end(w, SEED, seconds=0.2, min_ok=2)
        res = run.report(tally, values, "end_to_end")
        expect(res["correct"] and len(tally.ok_s) >= 2,
               f"{w.name}: small run passes its checks")
        expect(list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]],
               f"{w.name}: end-to-end metric names are those of BENCHMARK.json")
        expect(all(m["value"] > 0 for m in res["metrics"].values()),
               f"{w.name}: every end-to-end metric is positive")


def _first_ok(w):
    """First generated input whose real output passes, with that output."""
    ctx = w.setup(run.SCRATCH)
    for inp in w.inputs(SEED):
        out = w.op(ctx, inp)
        if w.check(inp, out) is None:
            return inp, out


def test_corrupted_outputs_fail():
    d = workloads.WORKLOADS["duality"]
    alphas, rep = _first_ok(d)
    bad = dataclasses.replace(rep.branches[0], max_abs_rho_mismatch=1e-5)
    perturbed = dataclasses.replace(rep, branches=(bad, *rep.branches[1:]))
    expect(d.check(alphas, perturbed).kind == "error", "duality: perturbed fold state fails")
    flipped = dataclasses.replace(rep.branches[0], sign_pattern_ok=False)
    expect(d.check(alphas, dataclasses.replace(rep, branches=(flipped,))).kind == "error",
           "duality: wrong sign pattern fails")
    expect(d.check(alphas, dataclasses.replace(rep, branches=())).kind == "error",
           "duality: zero-branch report fails")

    s = workloads.WORKLOADS["stack"]
    rho, cx = _first_ok(s)
    expect(s.check(rho, dataclasses.replace(cx, glue_residual=1e-6)).kind == "wrong",
           "stack: glue residual 1e-6 fails")
    expect(s.check(rho, dataclasses.replace(cx, meshes=cx.meshes[:2])).kind == "wrong",
           "stack: missing layer fails")
    expect(s.check(rho, dataclasses.replace(cx, bbox=(1.0, float("nan"), 1.0))).kind == "wrong",
           "stack: non-finite bbox fails")

    c = workloads.WORKLOADS["combine"]
    (alphas, theta, variant), out = _first_ok(c)
    off = (alphas, theta + 1e-6, variant)
    expect(c.check(off, out).kind == "wrong", "combine: theta off by 1e-6 fails")
    expect(c.check((alphas, theta, variant), (1, out[1], "error")).kind == "error",
           "combine: non-zero exit fails")

    tally = run.Tally()
    tally.run(c, None, off, lambda ctx, inp: out)
    res = run.report(tally, {m["name"]: 1.0 for m in SPEC["end_to_end"]}, "end_to_end")
    expect((res["failed"], res["correct"]) == (1, False),
           "a wrong output counts as failed and makes the run incorrect")


def test_traced_counts_repeat_and_separate():
    for w in workloads.WORKLOADS.values():
        first = run.per_layer(w, SEED, n_ops=3)[1]
        second = run.per_layer(w, SEED, n_ops=3)[1]
        expect(sorted(first) == sorted(m["name"] for m in SPEC["per_layer"]),
               f"{w.name}: per-layer metric names are those of BENCHMARK.json")
        differ = [n for n in first if is_count(n) and first[n] != second[n]]
        expect(not differ, f"{w.name}: two traced runs give identical counts {differ}")
        if w.name == "stack":
            busy = [n for n in first if n.startswith("kinematics.") and is_count(n) and first[n]]
            expect(not busy, f"stack: every kinematics count is zero {busy}")
        if w.name == "duality":
            busy = [n for n in first if n.split(".")[0] in ("tessellation", "embedding", "cli")
                    and is_count(n) and first[n]]
            expect(not busy, f"duality: every tessellation/embedding/cli count is zero {busy}")
        if w.name == "combine":
            expect(first["embedding.synchronize.calls"] == 3 and first["cli.write_obj.bytes"] > 0,
                   "combine: embedding and cli are traced")


def test_fails_without_package():
    bare = Path(run.SCRATCH, "selftest_bare").resolve()
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "stack", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "exits non-zero without a result when the package source is absent")


def main() -> int:
    os.chdir(run.ROOT)
    os.makedirs(run.SCRATCH, exist_ok=True)
    try:
        test_spec_matches_workloads()
        test_small_runs()
        test_corrupted_outputs_fail()
        test_traced_counts_repeat_and_separate()
        test_fails_without_package()
    finally:
        shutil.rmtree(run.SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
