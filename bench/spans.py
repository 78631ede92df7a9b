"""Per-layer spans timed from outside the library.

``Tracer.install`` wraps public names of the layers ``closure``,
``kinematics``, ``embedding``, ``tessellation`` and ``cli`` in place: a
function is patched at every module that binds it, a method once on its
class. Each call appends one span record (name, parent span, start, end,
raised flag, counts) to an in-memory list; ``uninstall``
restores the originals. Private helpers are deliberately not wrapped, so
that rewriting them does not change which spans exist.

``layer_metrics`` folds the spans into per-name totals: self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import rigidori
from rigidori import cli, closure, embedding, kinematics, tessellation

# span name -> (class, methods)
METHODS = {
    "closure.residual": (closure.LoopEvaluator, ("residual", "residual_vector")),
    "kinematics.certified_candidates": (kinematics.VertexKinematics, ("certified_candidates",)),
    "kinematics.folding_range": (kinematics.VertexKinematics, ("folding_range",)),
    "kinematics.trace_curve": (kinematics.VertexKinematics, ("trace_curve",)),
    "embedding.FoldedMesh": (embedding.FoldedMesh, ("__post_init__",)),
}

# span name -> (attribute, every module that binds it)
FUNCTIONS = {
    "closure.oracle_solve": ("oracle_solve", (closure, kinematics, embedding, cli, rigidori)),
    "embedding.synchronize": ("synchronize", (embedding, cli, rigidori)),
    "embedding.combined_mesh": ("combined_mesh", (embedding, cli, rigidori)),
    "tessellation.build_square_twist_sheet": (
        "build_square_twist_sheet", (tessellation, cli, rigidori),
    ),
    "tessellation.stack_complex": ("stack_complex", (tessellation, cli, rigidori)),
    "cli.run": ("run", (cli,)),
    "cli.write_obj": ("write_obj", (cli,)),
}

#: root span around each benchmark op; its self time is the op's time
#: outside every wrapped layer
OP_SPAN = "bench.op"

# span name -> (count names, function(args, result) -> count values)
COUNTS = {
    "kinematics.certified_candidates": (("returned",), lambda args, res: (len(res),)),
    "kinematics.trace_curve": (("samples",), lambda args, res: (len(res.samples),)),
    "closure.oracle_solve": (
        ("iterations", "nonconverged"),
        lambda args, res: (res.iterations, int(not res.converged)),
    ),
    "embedding.FoldedMesh": (("faces_validated",), lambda args, res: (len(args[0].faces),)),
    "cli.write_obj": (("bytes",), lambda args, res: (os.path.getsize(args[1]),)),
}

# fields of a span record
NAME, PARENT, START, END, RAISED, COUNTS_ = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        count = COUNTS.get(name, (None, None))[1]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, open_[-1] if open_ else -1, clock(), 0.0, False, None]
            open_.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                open_.pop()
            if count is not None:
                rec[COUNTS_] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, (cls, methods) in METHODS.items():
            for meth in methods:
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
        for name, (attr, modules) in FUNCTIONS.items():
            original = getattr(modules[0], attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr) is not original:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not the patched {name}")
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Totals per span name: ``calls``, ``self_ms`` and the summed counts,
    plus ``kinematics.certified_candidates.yield`` (certified states
    returned per call) and ``kinematics.trace_curve.failed`` (calls that
    raised).
    Every wrapped name appears, with zeros where nothing called it."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls, raised, totals = Counter(), Counter(), Counter()
    self_s = {n: 0.0 for n in (*METHODS, *FUNCTIONS, OP_SPAN)}
    for k, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] += 1
        raised[name] += rec[RAISED]
        self_s[name] += rec[END] - rec[START] - child[k]
        if rec[COUNTS_] is not None:
            for key, value in zip(COUNTS[name][0], rec[COUNTS_]):
                totals[f"{name}.{key}"] += value

    m = {}
    for name, seconds in self_s.items():
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_ms"] = 1e3 * seconds
    for name, (keys, _) in COUNTS.items():
        for key in keys:
            m[f"{name}.{key}"] = totals[f"{name}.{key}"]
    cc = "kinematics.certified_candidates"
    m[f"{cc}.yield"] = m[f"{cc}.returned"] / calls[cc] if calls[cc] else 0.0
    m["kinematics.trace_curve.failed"] = raised["kinematics.trace_curve"]
    return m
