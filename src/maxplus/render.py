"""Deterministic SVG rendering of 2D convex sets."""

from __future__ import annotations

import bisect
import math

from .convex_sets import ConvexSet

PX_PER_UNIT = 40.0
PAD_UNITS = 2.0
# coordinates at -inf live on a clipped margin band just outside the box
BAND_UNITS = 1.0
# the largest finite coordinate that renders: up to it the frame's padding,
# band offset and band centre add exactly, and every pixel is finite
MAX_COORD = 2.0**51
NEG = -math.inf


class _Frame:
    """Affine chart -> pixel mapping with a margin band for -inf coordinates."""

    def __init__(self, A: ConvexSet):
        coords = [v.sort_key() for v in (*A.points, *A.rays)]
        xs = [x for x, _ in coords if x != NEG] or [0.0, 1.0]
        ys = [y for _, y in coords if y != NEG] or [0.0, 1.0]
        self.x0 = min(xs) - PAD_UNITS
        self.x1 = max(xs) + PAD_UNITS
        self.y0 = min(ys) - PAD_UNITS
        self.y1 = max(ys) + PAD_UNITS
        self.width = (self.x1 - self.x0 + BAND_UNITS) * PX_PER_UNIT
        self.height = (self.y1 - self.y0 + BAND_UNITS) * PX_PER_UNIT

    def px(self, x: float) -> float:
        if x == -math.inf:
            x = self.x0 - BAND_UNITS / 2
        return (x - (self.x0 - BAND_UNITS)) * PX_PER_UNIT

    def py(self, y: float) -> float:
        # y axis flipped: larger y is higher on screen
        if y == -math.inf:
            y = self.y0 - BAND_UNITS / 2
        return (self.y1 - y) * PX_PER_UNIT

    def point_px(self, xy: tuple[float, float]) -> tuple[float, float]:
        """Pixel of the ``sort_key()`` coordinates of a point."""
        x, y = xy
        return self.px(x), self.py(y)


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _shading_rects(A: ConvexSet, frame: _Frame, grid: int) -> list[str]:
    """One run rectangle per row: the cells whose centre is a member.

    A convex set meets each line {y = c} in a closed interval, as the lifted
    target (x, y, 0) needs a generator g attaining each coordinate.  The
    last: a point with g_y <= y and x >= g_x (lo_3).  y: a finite g_y and
    x >= g_x + y - g_y, for a point also y <= g_y (lo_y).  x: a finite g_x
    and x <= g_x + y - g_y, for a point also x <= g_x (hi).  Each comparison
    is exact: every float is read as its binary value, scaled to an int on
    the largest denominator among them.
    """
    dx = (frame.x1 - frame.x0) / grid
    dy = (frame.y1 - frame.y0) / grid
    xs = [frame.x0 + (col + 0.5) * dx for col in range(grid)]
    ys = [frame.y1 - (row + 0.5) * dy for row in range(grid)]
    gens = [(g.sort_key(), True) for g in A.points] + [(g.sort_key(), False) for g in A.rays]
    finite = xs + ys + [c for g, _ in gens for c in g if c != NEG]
    scale = max(c.as_integer_ratio()[1] for c in finite)

    def exact(c: float):
        if c == NEG:
            return c
        num, den = c.as_integer_ratio()
        return num * (scale // den)

    gens = [(exact(gx), exact(gy), point) for (gx, gy), point in gens]
    cells = [exact(x) for x in xs]
    rects = []
    for y in ys:
        yy = exact(y)
        lo_3 = lo_y = math.inf
        hi = NEG
        for gx, gy, point in gens:
            # g_x + y - g_y, with -inf apart: an int past float range cannot add to one
            diag = gx - gy + yy if gx != NEG and gy != NEG else (NEG if gx == NEG else math.inf)
            if point and gy <= yy and gx < lo_3:
                lo_3 = gx
            if gy != NEG and (not point or yy <= gy) and diag < lo_y:
                lo_y = diag
            if point and gx < diag:
                diag = gx
            if gx != NEG and diag > hi:
                hi = diag
        start = bisect.bisect_left(cells, max(lo_3, lo_y))
        end = bisect.bisect_right(cells, hi)
        if start < end:
            x_left = frame.px(frame.x0 + start * dx)
            x_right = frame.px(frame.x0 + end * dx)
            y_top = frame.py(y + dy / 2)
            rects.append(
                f'<rect x="{_fmt(x_left)}" y="{_fmt(y_top)}" '
                f'width="{_fmt(x_right - x_left)}" height="{_fmt(dy * PX_PER_UNIT)}" '
                f'fill="#c8d8f0"/>'
            )
    return rects


def render_set_svg(A: ConvexSet, grid: int = 200) -> str:
    """SVG 1.1 picture of a 2D set: shaded region, rays, points, extreme points."""
    if isinstance(grid, bool) or not isinstance(grid, int) or grid < 1:
        raise ValueError(f"grid must be an int of at least 1, got {grid!r}")
    if A.dim != 2:
        raise ValueError(f"rendering needs a 2-dimensional set, got dim {A.dim}")
    if any(MAX_COORD < abs(c) < math.inf for v in (*A.points, *A.rays) for c in v.sort_key()):
        raise ValueError("set is too large to render: a finite coordinate is above 2**51 in size")
    frame = _Frame(A)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
        f'<rect x="0" y="0" width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" fill="white"/>',
    ]
    parts.extend(_shading_rects(A, frame, grid))

    # margin band separator for coordinates at -inf
    band_x = frame.px(frame.x0)
    band_y = frame.py(frame.y0)
    parts.append(
        f'<line x1="{_fmt(band_x)}" y1="0" x2="{_fmt(band_x)}" y2="{_fmt(frame.height)}" '
        f'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<line x1="0" y1="{_fmt(band_y)}" x2="{_fmt(frame.width)}" y2="{_fmt(band_y)}" '
        f'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<text x="2" y="{_fmt(frame.height - 4)}" font-size="10" fill="#888888">-inf</text>'
    )

    # origin cross
    ox, oy = frame.px(0.0), frame.py(0.0)
    parts.append(
        f'<path d="M {_fmt(ox - 6)} {_fmt(oy)} H {_fmt(ox + 6)} '
        f'M {_fmt(ox)} {_fmt(oy - 6)} V {_fmt(oy + 6)}" stroke="black" stroke-width="1"/>'
    )

    # rays drawn as arrows anchored at the join of all points (a member)
    ax, ay = frame.point_px(tuple(map(max, zip(*(p.sort_key() for p in A.points)))))
    for rx, ry in (r.sort_key() for r in A.rays):
        # direction of travel in the affine chart as the scale grows: the
        # all-ones shift of the finite support (not empty: no zero rays)
        dirx = 0.0 if rx == -math.inf else 1.0
        diry = 0.0 if ry == -math.inf else 1.0
        norm = math.hypot(dirx, diry)
        length = 1.5 * PX_PER_UNIT
        tipx = ax + dirx / norm * length
        tipy = ay - diry / norm * length
        parts.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(tipx)}" y2="{_fmt(tipy)}" '
            f'stroke="#336699" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(tipx)}" cy="{_fmt(tipy)}" r="3" fill="#336699"/>'
        )

    for p in A.points:
        x, y = frame.point_px(p.sort_key())
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="#777777"/>')
    for p in A.extreme_points():
        x, y = frame.point_px(p.sort_key())
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="none" '
            f'stroke="#cc2222" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
