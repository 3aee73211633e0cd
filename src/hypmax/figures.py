"""Deterministic SVG renderings of the half-plane set families: the
infinite rectangle with its labeled base and sides, and the packed rows
of half balls with their bounding geodesics."""

from __future__ import annotations

import math

from . import hyp2
from .experiments import packing_construct
from .hyp2 import HPoint


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Canvas:
    """Maps world coordinates (y up) onto a fixed SVG viewport."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi
        # a 640 x 480 viewport with a 50-pixel margin
        self.w, self.h, self.m = 640, 480, 50
        self.sx = (self.w - 2 * self.m) / (x_hi - x_lo)
        self.sy = (self.h - 2 * self.m) / (y_hi - y_lo)
        self.parts = []

    def px(self, x, y):
        return (
            self.m + (x - self.x_lo) * self.sx,
            self.h - self.m - (y - self.y_lo) * self.sy,
        )

    def line(self, x1, y1, x2, y2, dash=None, width=1.0):
        a, b = self.px(x1, y1)
        c, d = self.px(x2, y2)
        extra = f' stroke-dasharray="6,4"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(a)}" y1="{_fmt(b)}" x2="{_fmt(c)}" y2="{_fmt(d)}" '
            f'stroke="black" stroke-width="{width}"{extra} />'
        )

    def polygon(self, pts, fill, stroke="none", opacity=1.0):
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (self.px(x, y) for x, y in pts))
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" opacity="{opacity}" />'
        )

    def dot(self, x, y):
        a, b = self.px(x, y)
        self.parts.append(f'<circle cx="{_fmt(a)}" cy="{_fmt(b)}" r="3.5" fill="red" />')

    def text(self, x, y, s, dy=-8, anchor="middle", size=14):
        a, b = self.px(x, y)
        self.parts.append(
            f'<text x="{_fmt(a)}" y="{_fmt(b + dy)}" text-anchor="{anchor}" '
            f'font-size="{size}" font-family="serif">{s}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" height="{self.h}" '
            f'viewBox="0 0 {self.w} {self.h}">\n{body}\n</svg>\n'
        )


def _halfball_outline(z: HPoint, R: float, n: int = 64):
    """Closed boundary of the half ball: lower ball arc between the two
    crossing markers, then the geodesic arc back over the vertex."""
    m = hyp2.boundary_markers(z, R)
    cx, cy = m.euclid_center
    th_minus = math.atan2(m.q_minus.y - cy, m.q_minus.x - cx)
    th_plus = math.atan2(m.q_plus.y - cy, m.q_plus.x - cx)
    # sweep from q- down under the south pole (-pi/2) to q+
    lo = th_minus - 2 * math.pi if th_minus > -math.pi / 2 else th_minus
    pts = []
    for k in range(n + 1):
        th = lo + (th_plus - lo) * k / n
        pts.append((cx + m.euclid_radius * math.cos(th), cy + m.euclid_radius * math.sin(th)))
    # geodesic arc (circle of radius Im z around (Re z, 0)) from q+ back to q-
    ph_plus = math.atan2(m.q_plus.y, m.q_plus.x - z.x)
    ph_minus = math.atan2(m.q_minus.y, m.q_minus.x - z.x)
    for k in range(n + 1):
        ph = ph_plus + (ph_minus - ph_plus) * k / n
        pts.append((z.x + z.y * math.cos(ph), z.y * math.sin(ph)))
    return pts


def _rectangle_figure(params) -> str:
    z = HPoint(*params.get("z", (1.5, 2.0)))
    R = float(params.get("R", 1.0))
    base = math.exp(-R) * z.y
    x_lo, x_hi = z.x - 2.0 * z.y, z.x + 2.0 * z.y
    y_hi = z.y * 2.5
    cv = _Canvas(x_lo, x_hi, 0.0, y_hi)
    cv.polygon(
        [(z.x - z.y, base), (z.x + z.y, base), (z.x + z.y, y_hi), (z.x - z.y, y_hi)],
        fill="#cfe0f5",
        opacity=0.9,
    )
    cv.line(x_lo, 0.0, x_hi, 0.0, width=1.5)
    cv.line(z.x - z.y, 0.0, z.x - z.y, y_hi, dash=True)
    cv.line(z.x + z.y, 0.0, z.x + z.y, y_hi, dash=True)
    cv.line(x_lo, base, x_hi, base, dash=True)
    cv.dot(z.x, z.y)
    cv.text(z.x, z.y, "z", dy=-10, anchor="start")
    cv.text(z.x - z.y, 0.0, "Re z - Im z", dy=22)
    cv.text(z.x + z.y, 0.0, "Re z + Im z", dy=22)
    cv.text(x_hi, base, "e^-R Im z", dy=-6, anchor="end")
    cv.text(z.x, z.y * 1.8, "Q_R(z)")
    return cv.render()


def _halfballs_figure(params) -> str:
    level = int(params.get("level", 0))
    lv = packing_construct(level)[level]
    height = lv.center_height
    R = lv.radius
    n = lv.n_count
    # rows longer than 64 are thinned to every stride-th centre plus the last
    idx = [*range(0, n, n // 64 + 1), n - 1] if n > 64 else range(n)
    centers = [lv.center(i) for i in idx]
    pad = height * math.sinh(R) * 0.2
    x_lo = centers[0] - height - pad
    x_hi = centers[-1] + height + pad
    y_hi = height * 1.8
    cv = _Canvas(x_lo, x_hi, 0.0, y_hi)
    cv.line(x_lo, height, x_hi, height, width=1.0)
    for c in centers:
        z = HPoint(c, height)
        cv.polygon(_halfball_outline(z, R), fill="#bcd2ee", stroke="#3b6ea5", opacity=0.85)
    cv.dot(centers[0], height)
    cv.dot(centers[-1], height)
    cv.text(centers[0], height, f"-1+ie^-{2**level}", dy=-10)
    cv.text(centers[-1], height, f"1+ie^-{2**level}", dy=-10)
    return cv.render()


def _packing_figure(params) -> str:
    max_level = int(params.get("levels", 2))
    levels = packing_construct(max_level)
    # log-height rendering keeps the exponentially sinking rows visible
    u_lo = -(2.0**max_level) * 2.0 - 0.5
    cv = _Canvas(-1.6, 1.6, u_lo, 1.0)
    for lv in levels:
        n = lv.n_count
        # rows longer than 48 are thinned to every stride-th centre
        idx = range(0, n, n // 48 + 1) if n > 48 else range(n)
        u_c = -(2.0**lv.level)
        cv.line(-1.6, u_c, 1.6, u_c, dash=True)
        for i in idx:
            z = HPoint(lv.center(i), lv.center_height)
            pts = [(x, math.log(max(y, 1e-300))) for x, y in _halfball_outline(z, lv.radius, 32)]
            pts = [(x, u) for x, u in pts if u >= u_lo]
            if len(pts) > 2:
                cv.polygon(pts, fill="#bcd2ee", stroke="#3b6ea5", opacity=0.7)
        cv.text(1.45, u_c, f"e^-{2**lv.level}", dy=-4, size=11)
    return cv.render()


def _axes_figure() -> str:
    cv = _Canvas(-1.0, 1.0, 0.0, 1.0)
    cv.line(-1.0, 0.0, 1.0, 0.0, width=1.5)
    cv.line(0.0, 0.0, 0.0, 1.0, width=1.0, dash=True)
    return cv.render()


# the figure kinds: 'rectangle' (the infinite rectangle with labeled
# markers), 'halfballs' (one packed row), 'packing' (log-height view of
# several rows)
FIGURES = {"rectangle": _rectangle_figure, "halfballs": _halfballs_figure, "packing": _packing_figure}


def emit_figure(kind: str = "", params: dict = None) -> str:
    """SVG document for one of the kinds of ``FIGURES``; empty kind gives
    bare axes."""
    if not kind:
        return _axes_figure()
    if kind not in FIGURES:
        raise ValueError(f"unknown figure kind {kind!r}")
    return FIGURES[kind](params or {})
