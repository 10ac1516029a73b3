"""Standalone SVG diagrams of ring systems and displacement fields.

One filled circle per point with radius proportional to |mass|^(1/3) and one
arrow per nonzero displacement vector; the longest arrow is scaled to 15% of
the bounding circle diameter.  Elements are written in point order and all
coordinates use fixed six-decimal formatting, so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .geometry import RingSystem

#: point radius for the heaviest mass, as a fraction of the bounding radius
_DOT_FRACTION = 0.07
#: longest arrow as a fraction of the bounding circle diameter
_ARROW_FRACTION = 0.15
#: displacements below this relative size draw no arrow
_ZERO_RTOL = 1e-12


def _fmt(x: float) -> str:
    s = "%.6f" % float(x)
    return "0.000000" if s == "-0.000000" else s


def _arrow(x: float, y: float, dx: float, dy: float, width: float) -> str:
    """Shaft plus solid triangular head; head size tied to stroke width."""
    length = float(np.hypot(dx, dy))
    ux, uy = dx / length, dy / length
    head = min(3.5 * width, 0.35 * length)
    bx, by = x + dx - head * ux, y + dy - head * uy
    px, py = -uy, ux
    half = 0.6 * head
    parts = [
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#1a5fb4" stroke-width="%s"/>'
        % (_fmt(x), _fmt(y), _fmt(bx), _fmt(by), _fmt(width)),
        '<polygon points="%s,%s %s,%s %s,%s" fill="#1a5fb4"/>'
        % (_fmt(x + dx), _fmt(y + dy),
           _fmt(bx + half * px), _fmt(by + half * py),
           _fmt(bx - half * px), _fmt(by - half * py)),
    ]
    return "\n".join(parts)


def render_svg(sys: RingSystem, displacement: np.ndarray | None = None,
               title: str | None = None) -> str:
    """The SVG document as a string; emit_svg writes it to a file."""
    pos = sys.positions
    if displacement is None:
        disp = np.zeros(2 * sys.npoints)
    else:
        disp = np.asarray(displacement, dtype=float).reshape(-1)
        if disp.shape != (2 * sys.npoints,):
            raise ValueError("displacement length %d does not match 2N = %d"
                             % (disp.size, 2 * sys.npoints))
    vecs = disp.reshape(-1, 2)

    rbound = float(np.max(np.linalg.norm(pos, axis=1)))
    if rbound == 0.0:
        rbound = 1.0
    mmax = float(np.max(np.abs(sys.masses)))
    dots = _DOT_FRACTION * rbound * np.cbrt(np.abs(sys.masses) / mmax)

    lengths = np.linalg.norm(vecs, axis=1)
    lmax = float(np.max(lengths))
    if lmax > 0.0:
        scale = _ARROW_FRACTION * 2.0 * rbound / lmax
    else:
        scale = 0.0
    draw = lengths > _ZERO_RTOL * max(lmax, 1.0) if lmax > 0.0 else np.zeros(len(pos), dtype=bool)

    xs = [pos[i, 0] + s for i in range(len(pos)) for s in (-dots[i], dots[i])]
    ys = [pos[i, 1] + s for i in range(len(pos)) for s in (-dots[i], dots[i])]
    for i in range(len(pos)):
        if draw[i]:
            xs.append(pos[i, 0] + scale * vecs[i, 0])
            ys.append(pos[i, 1] + scale * vecs[i, 1])
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    margin = 0.10 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1 = x0 - margin, x1 + margin
    y0, y1 = y0 - margin, y1 + margin

    width = 0.012 * rbound
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%s %s %s %s" width="480" height="480">'
        % (_fmt(x0), _fmt(-y1), _fmt(x1 - x0), _fmt(y1 - y0)),
    ]
    if title:
        lines.append("<title>%s</title>" % title)
    # SVG y grows downward; flip so the drawing matches plane coordinates
    lines.append('<g transform="scale(1,-1)">')
    for i in range(len(pos)):
        lines.append('<circle cx="%s" cy="%s" r="%s" fill="#241f31"/>'
                     % (_fmt(pos[i, 0]), _fmt(pos[i, 1]), _fmt(dots[i])))
    for i in range(len(pos)):
        if draw[i]:
            lines.append(_arrow(pos[i, 0], pos[i, 1],
                                scale * vecs[i, 0], scale * vecs[i, 1], width))
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(sys: RingSystem, displacement: np.ndarray | None, path: str,
             title: str | None = None) -> str:
    """Write the diagram of one 2N displacement vector (None: the bare
    system) to path; returns the path written."""
    text = render_svg(sys, displacement, title=title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
