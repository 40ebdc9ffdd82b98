"""Spans recorded from outside the library, around its public functions.

A wrapper installed by :meth:`Tracer.install` records one span per call:
name, start, end and the span that was open when the call began (its
parent).  Spans live in flat arrays in memory and are written out once, at
the end of a run.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute path) for every traced public function.
TARGETS = [
    ("semiring.residual", "maxplus.semiring", "residual"),
    ("linalg.left_residual", "maxplus.linalg", "left_residual"),
    ("linalg.project", "maxplus.linalg", "project"),
    ("linalg.combine", "maxplus.linalg", "combine"),
    ("cones.Cone.member", "maxplus.cones", "Cone.member"),
    ("cones.Cone.extract_basis", "maxplus.cones", "Cone.extract_basis"),
    ("cones.Cone.decompose", "maxplus.cones", "Cone.decompose"),
    ("convex_sets.ConvexSet.homogenize", "maxplus.convex_sets", "ConvexSet.homogenize"),
    ("convex_sets.ConvexSet.member", "maxplus.convex_sets", "ConvexSet.member"),
    ("convex_sets.ConvexSet.extreme_points", "maxplus.convex_sets", "ConvexSet.extreme_points"),
    ("convex_sets.ConvexSet.decompose", "maxplus.convex_sets", "ConvexSet.decompose"),
    ("halfspaces.HalfSpace.contains", "maxplus.halfspaces", "HalfSpace.contains"),
    ("halfspaces.HalfSpace.contains_set", "maxplus.halfspaces", "HalfSpace.contains_set"),
    ("render.render_set_svg", "maxplus.render", "render_set_svg"),
    ("cli.main", "maxplus.cli", "main"),
]


def _size(obj) -> int:
    return sum(1 for _ in obj)


def _count_residual_evals(counters, args, result):
    matrix, x = args[0], args[1]
    counters["residual_evals"] += _size(matrix) * _size(x)


def _count_basis(counters, args, result):
    counters["basis_in"] += _size(args[0].generators)
    counters["basis_kept"] += _size(result.generators)


# Called after a traced call returns, to count work from argument sizes.
HOOKS = {
    "linalg.left_residual": _count_residual_evals,
    "cones.Cone.extract_basis": _count_basis,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self.skipped: list = []
        self._open: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, names, parents, open_ = self.start, self.end, self.name, self.parent, self._open
        counters, clock = self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return traced

    def install(self, targets=TARGETS, hooks=HOOKS) -> None:
        """Wrap each target where callers look it up.

        A method is replaced on its class.  A module-level function is
        replaced in every loaded maxplus module that binds it, since
        ``from .linalg import project`` makes a binding of its own.
        A target the library no longer has is listed in ``skipped``.
        """
        for name, module, path in targets:
            owner = sys.modules.get(module)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.skipped.append(name)
                continue
            traced = self.wrap(name, fn, hooks.get(name))
            if owners:
                self._patch(owner, attr, traced)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "maxplus" or mod_name.startswith("maxplus."):
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, key, traced)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path: str) -> None:
        """One JSON header line, then the start, end, name and parent arrays."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.start),
                "arrays": [["start", "d"], ["end", "d"], ["name", "i"], ["parent", "i"]],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)


def self_times(start, end, parent) -> array:
    """Duration minus the union of child intervals, per span.

    Spans must be in order of start time, as the tracer records them; then
    each parent precedes its children and siblings arrive sorted.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)  # per parent: end of the child coverage so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        s = max(start[i], reach[p])
        e = min(end[i], end[p])
        if e > s:
            covered[p] += e - s
            reach[p] = e
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def under(names: array, parent: array, ancestor: int) -> bytearray:
    """Flags the spans that have a span named `ancestor` above them."""
    flags = bytearray(len(names))
    for i, p in enumerate(parent):
        if p >= 0 and (names[p] == ancestor or flags[p]):
            flags[i] = 1
    return flags


def summary(tracer: Tracer) -> dict:
    """Calls and self seconds per span name, plus nested counts and ratios."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    calls = Counter()
    self_s = Counter()
    for nid, t in zip(tracer.name, own):
        calls[nid] += 1
        self_s[nid] += t
    out = {}
    ids = {}
    for name, _, _ in TARGETS:
        nid = tracer.names.index(name) if name in tracer.names else -1
        ids[name] = nid
        out[f"{name}.calls"] = calls[nid]
        out[f"{name}.self_s"] = self_s[nid]

    def nested(child, ancestor):
        c, a = ids[child], ids[ancestor]
        if c < 0 or a < 0:
            return 0
        flags = under(tracer.name, tracer.parent, a)
        return sum(1 for nid, f in zip(tracer.name, flags) if f and nid == c)

    def per(num, den):
        return num / den if den else 0.0

    k = tracer.counters
    out["linalg.residual_evals_computed"] = k["residual_evals"]
    out["cones.project_per_basis"] = per(
        nested("linalg.project", "cones.Cone.extract_basis"), calls[ids["cones.Cone.extract_basis"]]
    )
    out["cones.project_per_decompose"] = per(
        nested("linalg.project", "cones.Cone.decompose"), calls[ids["cones.Cone.decompose"]]
    )
    out["cones.basis_kept_ratio"] = per(k["basis_kept"], k["basis_in"])
    set_queries = sum(
        calls[ids[f"convex_sets.ConvexSet.{m}"]] for m in ("member", "decompose", "extreme_points")
    )
    out["convex_sets.homogenize_per_set_query"] = per(
        calls[ids["convex_sets.ConvexSet.homogenize"]], set_queries
    )
    out["render.member_per_render"] = per(
        nested("convex_sets.ConvexSet.member", "render.render_set_svg"),
        calls[ids["render.render_set_svg"]],
    )
    return out
