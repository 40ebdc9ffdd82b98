"""The benchmark's three workloads, as rounds of checked operations.

Every workload runs every operation kind, so each end-to-end metric is
measured on each workload; what differs is how the library is loaded:

* ``query``: fixed geometries, built once in set-up, answer a seeded stream
  of reads.  Many reads per geometry, so derived data (basis, homogenized
  cone) is reused and the residuation kernel dominates.
* ``build``: every operation parses a fresh geometry from its document and
  uses it once, so nothing derived can be reused; basis extraction
  dominates.
* ``cli``: every operation is a ``python -m maxplus.cli`` subprocess over
  generated files, as a user runs it; start-up dominates each call, except
  ``render`` at the default grid, which opens every round.

An :class:`Op` is timed around ``call`` only; ``check`` compares the result
with the exact oracle afterwards.  Decimal operations use geometries with
one-decimal coordinates.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import gen
import oracle


@dataclass
class Op:
    kind: str
    group: str  # the geometry or command within the kind; latencies differ by group
    call: Callable[[], object]
    check: Callable[[object], bool]
    decimal: bool = False
    cli: bool = False


class Lib:
    """The library as set-up imported it, and how documents are read for it."""

    def __init__(self, mp, cli, render):
        self.mp, self.cli, self.render = mp, cli, render

    @staticmethod
    def load(text: str):
        """A document as the CLI reads it: decimals become floats."""
        return json.loads(text)

    def vector(self, text: str):
        return self.mp.TropVector.from_json(self.load(text))

    def main(self, argv) -> tuple:
        """maxplus.cli.main in this process: (exit code, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()


# ---------------------------------------------------------------- geometries


class ConeGeo:
    """A generated cone: document text, exact generators, and pools of
    (vector text, exact vector, oracle answer) member and non-member queries."""

    def __init__(self, rng, name, n, m, scale=1, pool=0, **shape):
        self.name, self.scale = name, scale
        units = gen.cone(rng, n, m, scale, **shape)
        self.text = gen.cone_text(units, scale)
        self.gens = [oracle.vec(g) for g in oracle.load(self.text)["generators"]]
        self.members = [self._query(gen.cone_member(rng, units, scale)) for _ in range(pool)]
        self.non_members = [
            self._query(gen.cone_non_member(rng, units, scale)) for _ in range(pool)
        ]

    def _query(self, units):
        text = gen.vector_text(units, self.scale)
        x = oracle.vec(oracle.load(text))
        return text, x, oracle.cone_member(self.gens, x)


class SetGeo:
    """A generated set with member, non-member and half-space point pools, and
    a half-space that holds the whole set."""

    def __init__(self, rng, name, n, p, r, scale=1, pool=0, **shape):
        self.name, self.scale = name, scale
        points, rays = gen.convex_set(rng, n, p, r, scale, **shape)
        self.text = gen.set_text(points, rays, scale)
        doc = oracle.load(self.text)
        self.points = [oracle.vec(v) for v in doc["points"]]
        self.rays = [oracle.vec(v) for v in doc["rays"]]
        self.members = [self._query(gen.set_member(rng, points, rays, scale)) for _ in range(pool)]
        self.non_members = [
            self._query(gen.set_non_member(rng, points, rays, scale)) for _ in range(pool)
        ]
        hs = gen.halfspace(rng, n, points, rays, scale)
        self.hs_text = gen.halfspace_text(hs, scale)
        self.hs = oracle.halfspace_of(oracle.load(self.hs_text))
        self.hs_points = [self._point(gen.vector(rng, n, scale, 0.1)) for _ in range(pool)]
        self.hs_set_truth = oracle.halfspace_contains_set(self.hs, self.points, self.rays, "plus")

    def _query(self, units):
        text = gen.vector_text(units, self.scale)
        x = oracle.vec(oracle.load(text))
        return text, x, oracle.set_member(self.points, self.rays, x)

    def _point(self, units):
        text = gen.vector_text(units, self.scale)
        x = oracle.vec(oracle.load(text))
        return text, x, oracle.halfspace_contains(self.hs, x, "plus")


# -------------------------------------------------------------------- checks


def member_ok(truth):
    return lambda doc: doc["member"] is truth


def cone_cert_ok(g: ConeGeo, x):
    return lambda doc: oracle.cone_certificate_ok(g.gens, x, doc)


def set_cert_ok(g: SetGeo, x):
    return lambda doc: oracle.set_certificate_ok(g.points, g.rays, x, doc)


def basis_ok(gens):
    return lambda doc: oracle.basis_ok(gens, [oracle.vec(v) for v in doc["generators"]])


def extreme_ok(g: SetGeo):
    return lambda doc: oracle.extreme_points_ok(
        g.points, g.rays, [oracle.vec(v) for v in doc["extreme_points"]]
    )


def minkowski_ok(g: SetGeo):
    def check(doc):
        return (
            doc["holds"] is True
            and extreme_ok(g)(doc)
            and oracle.basis_ok(g.rays, [oracle.vec(v) for v in doc["recession_basis"]])
        )

    return check


def svg_ok(g: SetGeo):
    """Well-formed, with one highlighted circle per extreme point."""
    expected = len(oracle.extreme_points(g.points, g.rays))
    return lambda svg: (
        svg.startswith("<?xml")
        and svg.endswith("</svg>\n")
        and svg.count('stroke="#cc2222"') == expected
    )


def cli_output_ok(check, counters, parse=json.loads):
    """Exit code 0 and the parsed stdout passing `check`."""

    def ok(result):
        code, out = result
        if code != 0:
            counters["exit_unexpected"] += 1
            return False
        return check(parse(out))

    return ok


# --------------------------------------------------- in-process library ops


def minkowski_doc(mp, s) -> dict:
    """What ``maxplus minkowski-verify`` computes, called in-process."""
    ext = s.extreme_points()
    rec = s.recession()
    rebuilt = mp.ConvexSet.from_vectors(ext, list(rec.generators))
    return {
        "holds": mp.sets_equal(s, rebuilt),
        "extreme_points": [p.to_json() for p in ext],
        "recession_basis": rec.to_json()["generators"],
    }


def cone_ops(lib, g: ConeGeo, make, members, non_members, decompose: int, basis: bool):
    """Member, non-member, decompose and basis ops on cone `g`.

    `make()` returns the library cone: a prebuilt one, or one parsed afresh.
    """
    ops = []
    for text, x, truth in members + non_members:
        v = lib.vector(text)
        ops.append(Op("cone_member", g.name, lambda v=v: {"member": make().member(v)},
                      member_ok(truth), g.scale > 1))
    for text, x, _ in members[:decompose]:
        v = lib.vector(text)
        ops.append(Op("cone_decompose", g.name, lambda v=v: make().decompose(v).to_json(),
                      cone_cert_ok(g, x), g.scale > 1))
    if basis:
        ops.append(Op("basis", g.name, lambda: make().extract_basis().to_json(),
                      basis_ok(g.gens), g.scale > 1))
    return ops


def set_ops(lib, g: SetGeo, make, make_hs, members, non_members, decompose: int, hs_points):
    """Member, decompose, half-space, extreme-point and Minkowski ops on set `g`."""
    dec = g.scale > 1
    ops = []
    for text, x, truth in members + non_members:
        v = lib.vector(text)
        ops.append(Op("set_member", g.name, lambda v=v: {"member": make().member(v)},
                      member_ok(truth), dec))
    for text, x, _ in members[:decompose]:
        v = lib.vector(text)
        ops.append(Op("set_decompose", g.name, lambda v=v: make().decompose(v).to_json(),
                      set_cert_ok(g, x), dec))
    for text, x, truth in hs_points:
        v = lib.vector(text)
        ops.append(Op("halfspace_check", g.name + " point",
                      lambda v=v: make_hs().contains(v, "plus"), lambda r, t=truth: r is t, dec))
    return ops + [
        Op("halfspace_check", g.name + " set", lambda: make_hs().contains_set(make(), "plus"),
           lambda r, t=g.hs_set_truth: r is t, dec),
        Op("extreme_points", g.name,
           lambda: {"extreme_points": [p.to_json() for p in make().extreme_points()]},
           extreme_ok(g), dec),
        Op("minkowski_verify", g.name, lambda: minkowski_doc(lib.mp, make()),
           minkowski_ok(g), dec),
    ]


def _cycle(pool, r, k):
    return [pool[(r * k + j) % len(pool)] for j in range(k)]


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


# --------------------------------------------------------------------- query


class Query:
    """Fixed geometries and a seeded mix of reads against them.

    Each size class has a few geometries; round r reads from the r-th of
    each class in turn, so one run does not hinge on a single random shape.
    """

    POOL = 16
    SHAPES = 3
    RENDER_GRID = 40
    # (class, dimension, generators, scale); decompose and basis of c10 cost
    # about a second each today, so c10 serves membership only.
    CONES = [("c4", 4, 20, 1), ("c6", 6, 60, 1), ("c10", 10, 200, 1), ("c5d", 5, 20, 10)]
    # (class, dimension, points, rays, scale)
    SETS = [("s3", 3, 8, 2, 1), ("s5", 5, 24, 4, 1), ("s4d", 4, 12, 3, 10)]

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{seed}:query")
        p = self.POOL
        self.shapes = []
        for k in range(self.SHAPES):
            cones = [ConeGeo(rng, name, n, m, scale, pool=p) for name, n, m, scale in self.CONES]
            sets = [SetGeo(rng, name, n, q, r, scale, pool=p) for name, n, q, r, scale in self.SETS]
            plane = SetGeo(rng, "r2", 2, 5, 2, neg=0.0, ray_neg=0.0)
            files = (
                _write(os.path.join(workdir, f"c4-{k}.json"), cones[0].text),
                _write(os.path.join(workdir, f"s3-{k}.json"), sets[0].text),
            )
            self.shapes.append((cones, sets, plane, files))
        self.seed = seed
        self.counters = {"exit_unexpected": 0}

    def build(self, lib):
        """Set-up: the library objects of every geometry."""
        mp = lib.mp
        state = {"lib": lib}
        for k, (cones, sets, plane, _) in enumerate(self.shapes):
            for g in cones:
                state[k, g.name] = mp.Cone.from_json(lib.load(g.text))
            for g in sets:
                state[k, g.name] = mp.ConvexSet.from_json(lib.load(g.text))
                state[k, g.name, "hs"] = mp.HalfSpace.from_json(lib.load(g.hs_text))
            state[k, plane.name] = mp.ConvexSet.from_json(lib.load(plane.text))
        return state

    def rounds(self, state):
        lib = state["lib"]
        r = 0
        while True:
            k = r % self.SHAPES
            cones, sets, plane, (cone_file, set_file) = self.shapes[k]
            u = r // self.SHAPES  # how often this shape has been read before
            ops = []
            for g in cones:
                obj = state[k, g.name]
                big = g.name == "c10"
                ops += cone_ops(lib, g, lambda o=obj: o, _cycle(g.members, u, 4),
                                _cycle(g.non_members, u, 4), 0 if big else 2, not big)
            for g in sets:
                obj, hs = state[k, g.name], state[k, g.name, "hs"]
                ops += set_ops(lib, g, lambda o=obj: o, lambda h=hs: h, _cycle(g.members, u, 4),
                               _cycle(g.non_members, u, 4), 2, _cycle(g.hs_points, u, 6))
            c4, s3 = cones[0], sets[0]
            (ctext, _, ctruth), = _cycle(c4.members + c4.non_members, u, 1)
            (stext, sx, _), = _cycle(s3.members, u, 1)
            ops += [
                Op("cli_call", "member c4",
                   lambda: lib.main(["member", "--cone", cone_file, "--x", ctext]),
                   cli_output_ok(member_ok(ctruth), self.counters), cli=True),
                Op("cli_call", "decompose s3",
                   lambda: lib.main(["decompose", "--set", set_file, "--x", stext]),
                   cli_output_ok(set_cert_ok(s3, sx), self.counters), cli=True),
                Op("render", "r2",
                   lambda o=state[k, "r2"]: lib.render.render_set_svg(o, grid=self.RENDER_GRID),
                   svg_ok(plane)),
            ]
            random.Random(f"{self.seed}:query:{r}").shuffle(ops)
            yield ops
            r += 1


# --------------------------------------------------------------------- build


class Build:
    """A stream of fresh geometries, each parsed and used once per operation."""

    CONES = [(4, 30), (7, 70), (10, 120)]
    SETS = [(3, 10, 2), (5, 24, 4), (6, 40, 6)]
    RENDER_GRID = 40

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cone_file = os.path.join(workdir, "cone.json")
        self.counters = {"exit_unexpected": 0}

    def _geometries(self, r: int):
        rng = random.Random(f"{self.seed}:build:{r}")
        cones = [ConeGeo(rng, f"c{n}", n, m, pool=1, duplicates=0.25, combinations=0.25)
                 for n, m in self.CONES]
        sets = [SetGeo(rng, f"s{n}", n, p, k, pool=1, combinations=0.25)
                for n, p, k in self.SETS]
        plane = SetGeo(rng, "r2", 2, 5, 2, neg=0.0, ray_neg=0.0)
        return rng, cones, sets, plane

    def build(self, lib):
        """Set-up: the library objects of one round's geometries."""
        _, cones, sets, plane = self._geometries(-1)
        for g in cones:
            lib.mp.Cone.from_json(lib.load(g.text))
        for g in sets:
            lib.mp.ConvexSet.from_json(lib.load(g.text))
            lib.mp.HalfSpace.from_json(lib.load(g.hs_text))
        lib.mp.ConvexSet.from_json(lib.load(plane.text))
        return {"lib": lib}

    def rounds(self, state):
        lib = state["lib"]
        mp = lib.mp
        r = 0
        while True:
            rng, cones, sets, plane = self._geometries(r)
            ops = []
            for g in cones:
                doc = lib.load(g.text)
                ops += cone_ops(lib, g, lambda d=doc: mp.Cone.from_json(d),
                                g.members, g.non_members, 1, True)
            for g in sets:
                doc, hs = lib.load(g.text), lib.load(g.hs_text)
                make = lambda d=doc: mp.ConvexSet.from_json(d)  # noqa: E731
                ops += set_ops(lib, g, make, lambda h=hs: mp.HalfSpace.from_json(h),
                               g.members, g.non_members, 1, g.hs_points)
                ops.append(Op("recession", g.name, lambda m=make: m().recession().to_json(),
                              basis_ok(g.rays)))
            small = cones[0]
            _write(self.cone_file, small.text)
            plane_doc = lib.load(plane.text)
            ops += [
                Op("cli_call", "basis c4", lambda: lib.main(["basis", "--cone", self.cone_file]),
                   cli_output_ok(basis_ok(small.gens), self.counters), cli=True),
                Op("render", "r2",
                   lambda: lib.render.render_set_svg(mp.ConvexSet.from_json(plane_doc),
                                                     grid=self.RENDER_GRID),
                   svg_ok(plane)),
            ]
            rng.shuffle(ops)
            yield ops
            r += 1


# ----------------------------------------------------------------------- cli


class Cli:
    """Sequential ``python -m maxplus.cli`` calls over generated files.

    With ``in_process`` the same argument lists go to ``maxplus.cli.main``
    in this process instead (the traced run, so spans see the library).
    """

    POOL = 16
    # Sets of calls per round, each round starting with one render.  A run
    # stops only after a whole round, so every run has the same mix of
    # renders (seconds each) and calls (a tenth of a second each).
    CALL_SETS = 3

    def __init__(self, seed: int, workdir: str, src: str, in_process: bool = False):
        rng = random.Random(f"{seed}:cli")
        p = self.POOL
        self.cone = ConeGeo(rng, "c5", 5, 30, pool=p)
        self.cone_dec = ConeGeo(rng, "c4d", 4, 12, scale=10, pool=p)
        self.set = SetGeo(rng, "s4", 4, 12, 3, pool=p)
        self.plane = SetGeo(rng, "r2", 2, 5, 2, neg=0.0, ray_neg=0.0)
        self.files = {
            g.name: _write(os.path.join(workdir, g.name + ".json"), g.text)
            for g in (self.cone, self.cone_dec, self.set, self.plane)
        }
        self.files["h4"] = _write(os.path.join(workdir, "h4.json"), self.set.hs_text)
        self.env = dict(os.environ, PYTHONPATH=src)
        self.in_process = in_process
        self.seed = seed
        self.counters = {"exit_unexpected": 0}

    def build(self, lib):
        """Set-up: the library objects of every document the CLI reads."""
        for g in (self.cone, self.cone_dec):
            lib.mp.Cone.from_json(lib.load(g.text))
        for g in (self.set, self.plane):
            lib.mp.ConvexSet.from_json(lib.load(g.text))
        lib.mp.HalfSpace.from_json(lib.load(self.set.hs_text))
        return {"lib": lib}

    def _run(self, lib, argv):
        if self.in_process:
            return lib.main(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "maxplus.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=120,
        )
        return proc.returncode, proc.stdout

    def rounds(self, state):
        lib = state["lib"]
        f = self.files
        c, cd, s = self.cone, self.cone_dec, self.set

        def op(kind, group, argv, check, dec=False, parse=json.loads):
            return Op(kind, group, lambda: self._run(lib, argv),
                      cli_output_ok(check, self.counters, parse), dec, cli=True)

        def calls(r):
            ops = []
            for g, dec in ((c, False), (cd, True)):
                for text, _, truth in _cycle(g.members, r, 1) + _cycle(g.non_members, r, 1):
                    ops.append(op("cone_member", g.name,
                                  ["member", "--cone", f[g.name], "--x", text],
                                  member_ok(truth), dec))
            for text, _, truth in _cycle(s.members, r, 1) + _cycle(s.non_members, r, 1):
                ops.append(op("set_member", "s4", ["member", "--set", f["s4"], "--x", text],
                              member_ok(truth)))
            (ctext, cx, _), = _cycle(c.members, r, 1)
            (stext, sx, _), = _cycle(s.members, r, 1)
            (htext, _, htruth), = _cycle(s.hs_points, r, 1)
            ops += [
                op("cone_decompose", "c5", ["decompose", "--cone", f["c5"], "--x", ctext],
                   cone_cert_ok(c, cx)),
                op("set_decompose", "s4", ["decompose", "--set", f["s4"], "--x", stext],
                   set_cert_ok(s, sx)),
                op("basis", "c5", ["basis", "--cone", f["c5"]], basis_ok(c.gens)),
                op("extreme_points", "s4", ["extreme-points", "--set", f["s4"]], extreme_ok(s)),
                op("minkowski_verify", "s4", ["minkowski-verify", "--set", f["s4"]],
                   minkowski_ok(s)),
                op("halfspace_check", "point", ["halfspace-check", "--halfspace", f["h4"],
                                                "--x", htext],
                   lambda d, t=htruth: d["contains"] is t),
                op("halfspace_check", "set", ["halfspace-check", "--halfspace", f["h4"],
                                              "--set", f["s4"]],
                   lambda d, t=s.hs_set_truth: d["contains_set"] is t),
            ]
            random.Random(f"{self.seed}:cli:{r}").shuffle(ops)
            return ops

        r = 0
        while True:
            ops = [op("render", "r2", ["render", "--set", f["r2"]], svg_ok(self.plane), parse=str)]
            for j in range(self.CALL_SETS):
                ops += calls(r * self.CALL_SETS + j)
            yield ops
            r += 1
