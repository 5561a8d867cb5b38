"""Static SVG rendering: labeled vertices clockwise on a circle, one chord
per bond, parallel bonds bowed apart.  Output bytes are deterministic for a
given diagram: coordinates are formatted to fixed precision and edges are
drawn in canonical order."""
from __future__ import annotations

import math
from collections import Counter

from .diagrams import ValenceScheme


def _fmt(value: float) -> str:
    # normalize -0.00 so byte output is stable across platforms
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def render_svg(diagram: ValenceScheme, size: int = 360) -> str:
    """Render a scheme, such as a Rumer diagram, as a standalone SVG document string."""
    n = diagram.n
    center = size / 2.0
    radius = size * 0.38
    label_radius = size * 0.46

    def on_circle(vertex: int, rad: float) -> tuple[float, float]:
        theta = math.radians(-90.0 + 360.0 * (vertex - 1) / n)
        return center + rad * math.cos(theta), center + rad * math.sin(theta)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'  <circle cx="{_fmt(center)}" cy="{_fmt(center)}" r="{_fmt(radius)}" '
        'fill="none" stroke="#cccccc" stroke-width="1"/>',
    ]

    for edge, count in sorted(Counter(diagram.edges).items()):
        x1, y1 = on_circle(edge.i, radius)
        x2, y2 = on_circle(edge.j, radius)
        chord = math.hypot(x2 - x1, y2 - y1) or 1.0
        ux, uy = (y2 - y1) / chord, -(x2 - x1) / chord  # unit normal
        for copy in range(count):
            offset = (copy - (count - 1) / 2.0) * size * 0.06
            if offset == 0:
                parts.append(
                    f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                    'stroke="#222222" stroke-width="1.5"/>'
                )
            else:
                cx = (x1 + x2) / 2.0 + ux * 2.0 * offset
                cy = (y1 + y2) / 2.0 + uy * 2.0 * offset
                parts.append(
                    f'  <path d="M {_fmt(x1)} {_fmt(y1)} Q {_fmt(cx)} {_fmt(cy)} '
                    f'{_fmt(x2)} {_fmt(y2)}" fill="none" stroke="#222222" stroke-width="1.5"/>'
                )

    dot = size * 0.012
    font = size * 0.05
    for vertex in range(1, n + 1):
        px, py = on_circle(vertex, radius)
        lx, ly = on_circle(vertex, label_radius)
        parts.append(
            f'  <circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(dot)}" fill="#222222"/>'
        )
        parts.append(
            f'  <text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="{_fmt(font)}" '
            'font-family="monospace" text-anchor="middle" dominant-baseline="middle">'
            f"{vertex}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
