"""Command-line front end: JSON in, JSON (or SVG) out."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

from .cones import Cone, NotMember
from .convex_sets import ConvexSet, sets_equal
from .halfspaces import HalfSpace
from .linalg import DimensionMismatch, TropVector, vectors_equal
from .render import render_set_svg

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_SELF_CHECK = 3


class ParseFailure(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other parse failure (argparse uses 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseFailure(message)


def _tolerance(text: str) -> float:
    """--tolerance: finite and >= 0 (float() also reads nan and inf)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _load(flag: str, path: str, from_json):
    """Build the object of a file flag (--cone, --set, --halfspace) from its JSON."""
    try:
        with open(path) as fh:
            return from_json(json.load(fh))
    except OSError as exc:
        raise ParseFailure(f"{flag}: cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{flag}: {path!r} is not valid JSON: {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ParseFailure(f"{flag}: {exc}") from None
    except RecursionError:
        raise ParseFailure(f"{flag}: {path!r} is nested too deeply") from None


def _parse_vector(text: str) -> TropVector:
    try:
        return TropVector.from_json(json.loads(text))
    except (ValueError, TypeError) as exc:
        raise ParseFailure(f"--x: {exc}") from None
    except RecursionError:
        raise ParseFailure("--x: the array is nested too deeply") from None


def _write(text: str, out: str | None) -> None:
    """Write to --out when given, else to stdout."""
    if not out:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter flushes stdout again at exit; send what is left
            # in its buffer to the null device instead of a second failure
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ParseFailure(f"cannot write to stdout: {exc}") from None
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseFailure(f"--out: cannot write {out!r}: {exc}") from None


def _emit(doc: dict, out: str | None) -> None:
    _write(json.dumps(doc, indent=2) + "\n", out)


def _geometry(args):
    """Resolve --cone/--set into (cone, convex_set); exactly one may be given."""
    cone = _load("--cone", args.cone, Cone.from_json) if args.cone else None
    cset = _load("--set", args.set, ConvexSet.from_json) if args.set else None
    if (cone is None) == (cset is None):
        raise ParseFailure("exactly one of --cone or --set is required")
    return cone, cset


def _cmd_member(args) -> int:
    cone, cset = _geometry(args)
    x = _parse_vector(args.x)
    n = x.dim
    try:
        if cset is not None:
            # a set holds x when its homogenization holds (x, 0)
            cone, x = cset.homogenize(), cset.lift(x)
        proj = cone.project(x)
    except DimensionMismatch as exc:
        raise ParseFailure(f"--x: {exc}") from None
    member = vectors_equal(proj, x, args.tolerance)
    _emit({"member": member, "projection": proj.to_json()[:n]}, args.out)
    return EXIT_OK


def _cmd_basis(args) -> int:
    cone = _load("--cone", args.cone, Cone.from_json)
    _emit(cone.extract_basis().to_json(), args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    cone, cset = _geometry(args)
    x = _parse_vector(args.x)
    try:
        if cone is not None:
            dec = cone.decompose(x)
            ok = dec.recombine(cone) == x and len(dec.terms) <= cone.dim
            doc = dec.to_json()
        else:
            dec = cset.decompose(x)
            ok = (
                dec.recombine(cset) == x
                and len(dec.point_terms) + len(dec.ray_terms) <= cset.dim + 1
                and max((c.as_float() for _, c in dec.point_terms), default=-math.inf) == 0.0
            )
            doc = dec.to_json()
    except DimensionMismatch as exc:
        raise ParseFailure(f"--x: {exc}") from None
    except ArithmeticError:
        ok = False
    except NotMember as exc:
        _emit(
            {"error": "not a member", "projection": exc.projection.to_json()},
            args.out,
        )
        return EXIT_PRECONDITION
    if not ok:
        sys.stderr.write("internal error: decomposition failed self-verification\n")
        return EXIT_SELF_CHECK
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_extreme_points(args) -> int:
    cset = _load("--set", args.set, ConvexSet.from_json)
    _emit({"extreme_points": [p.to_json() for p in cset.extreme_points()]}, args.out)
    return EXIT_OK


def _cmd_recession(args) -> int:
    cset = _load("--set", args.set, ConvexSet.from_json)
    _emit(cset.recession().to_json(), args.out)
    return EXIT_OK


def _cmd_homogenize(args) -> int:
    cset = _load("--set", args.set, ConvexSet.from_json)
    _emit(cset.homogenize().to_json(), args.out)
    return EXIT_OK


def _cmd_minkowski_verify(args) -> int:
    cset = _load("--set", args.set, ConvexSet.from_json)
    ext = cset.extreme_points()
    reconstructed = ConvexSet.from_vectors(ext, list(cset.recession().generators))
    holds = sets_equal(cset, reconstructed)
    _emit(
        {
            "holds": holds,
            "extreme_points": [p.to_json() for p in ext],
            "recession_basis": reconstructed.rays.to_json(),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_halfspace_check(args) -> int:
    hs = _load("--halfspace", args.halfspace, HalfSpace.from_json)
    if args.x is not None and args.set is not None:
        raise ParseFailure("give either --x or --set, not both")
    if args.x is not None:
        flag, key, test = "--x", "contains", hs.contains
        arg = _parse_vector(args.x)
    elif args.set is not None:
        flag, key, test = "--set", "contains_set", hs.contains_set
        arg = _load("--set", args.set, ConvexSet.from_json)
    else:
        raise ParseFailure("one of --x or --set is required")
    try:
        verdict = test(arg, args.side, args.tolerance)
    except DimensionMismatch as exc:
        raise ParseFailure(f"{flag}: {exc}") from None
    except ValueError as exc:
        # a term too large for a float, as render refuses such a frame
        raise ParseFailure(str(exc)) from None
    _emit({key: verdict}, args.out)
    return EXIT_OK


def _cmd_render(args) -> int:
    if args.grid < 1:
        raise ParseFailure(f"--grid must be at least 1, got {args.grid}")
    cone, cset = _geometry(args)
    if cset is None:
        # a cone is the convex set generated by the zero point plus its rays
        cset = ConvexSet.from_vectors([TropVector.zero(cone.dim)], list(cone.generators))
    try:
        svg = render_set_svg(cset, grid=args.grid)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from None
    _write(svg, args.out)
    return EXIT_OK


# add_argument settings per flag; each subcommand picks the flags it reads
_FLAGS = {
    "cone": dict(metavar="FILE"),
    "set": dict(metavar="FILE"),
    "x": dict(metavar="JSON-ARRAY"),
    "halfspace": dict(metavar="FILE"),
    "side": dict(choices=["plus", "minus"], default="plus"),
    "grid": dict(type=int, default=200),
    "tolerance": dict(type=_tolerance, default=0.0),
    "out": dict(metavar="FILE"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="maxplus",
        description="Exact max-plus (tropical) convexity: membership, bases, "
        "extreme points and Minkowski-type decompositions over JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *flags, required=()):
        p = sub.add_parser(name)
        for flag in flags + ("out",):
            p.add_argument(f"--{flag}", required=flag in required, **_FLAGS[flag])
        p.set_defaults(fn=fn)

    add("member", _cmd_member, "cone", "set", "x", "tolerance", required=("x",))
    add("basis", _cmd_basis, "cone", required=("cone",))
    add("decompose", _cmd_decompose, "cone", "set", "x", required=("x",))
    add("extreme-points", _cmd_extreme_points, "set", required=("set",))
    add("recession", _cmd_recession, "set", required=("set",))
    add("homogenize", _cmd_homogenize, "set", required=("set",))
    add("minkowski-verify", _cmd_minkowski_verify, "set", required=("set",))
    add("halfspace-check", _cmd_halfspace_check, "halfspace", "set", "x", "side", "tolerance",
        required=("halfspace",))
    add("render", _cmd_render, "cone", "set", "grid")
    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # a library warning is one stderr line, like the error lines, whatever -W says
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
        try:
            args = build_parser().parse_args(argv)
            return args.fn(args)
        except ParseFailure as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
