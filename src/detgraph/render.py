"""Deterministic SVG rendering of a graph with one sampled subgraph.

Vertices are laid out on a grid when the caller states the grid shape,
otherwise on a circle.  Sampled edges are drawn solid; edges passing the
thickening predicate (the 2-core of the sample, equivalently its cycles for
the measures at hand) are drawn wider.  Output is plain text SVG, so
renders are diffable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInput
from .graph import WeightedGraph
from .measures import _two_core_edges


@dataclass(frozen=True)
class RenderStyle:
    canvas: int = 640
    margin: int = 24
    vertex_radius: float = 2.0
    stroke: float = 1.2
    thick_stroke: float = 3.6
    background_color: str = "#dddddd"
    edge_color: str = "#3465a4"
    thick_color: str = "#cc0000"
    vertex_color: str = "#222222"
    thicken: str = "2-core"  # one of "2-core", "cycles", "none"


def grid_positions(rows: int, cols: int, style: RenderStyle) -> list[tuple[float, float]]:
    span = style.canvas - 2 * style.margin
    dx = span / max(cols - 1, 1)
    dy = span / max(rows - 1, 1)
    return [(style.margin + c * dx, style.margin + r * dy)
            for r in range(rows) for c in range(cols)]


def circle_positions(n: int, style: RenderStyle) -> list[tuple[float, float]]:
    import math
    r = (style.canvas - 2 * style.margin) / 2
    cx = cy = style.canvas / 2
    return [(cx + r * math.cos(2 * math.pi * i / n - math.pi / 2),
             cy + r * math.sin(2 * math.pi * i / n - math.pi / 2))
            for i in range(n)]


def thick_edges(g: WeightedGraph, sample_edges, style: RenderStyle) -> set[int]:
    if style.thicken == "none":
        return set()
    if style.thicken in ("2-core", "cycles"):
        return _two_core_edges(g, sample_edges)
    raise ValueError(f"unknown thickening predicate {style.thicken!r}")


def render_svg(g: WeightedGraph, sample_edges, style: RenderStyle | None = None,
               rows: int | None = None, cols: int | None = None) -> str:
    style = style or RenderStyle()
    sample_edges = set(int(i) for i in sample_edges)
    if not all(0 <= i < g.num_edges for i in sample_edges):
        raise MalformedInput(f"sample edge indices must lie in [0, {g.num_edges})")
    if rows and cols and rows * cols == g.num_vertices:
        pos = grid_positions(rows, cols, style)
    else:
        pos = circle_positions(g.num_vertices, style)
    thick = thick_edges(g, sample_edges, style)

    def line(i: int, color: str, width: float) -> str:
        (x1, y1), (x2, y2) = pos[g.edges[i][0]], pos[g.edges[i][1]]
        return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{color}" stroke-width="{width}" stroke-linecap="round"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{style.canvas}" '
        f'height="{style.canvas}" viewBox="0 0 {style.canvas} {style.canvas}">',
        f'<rect width="{style.canvas}" height="{style.canvas}" fill="white"/>',
    ]
    for i in range(g.num_edges):
        if i not in sample_edges:
            parts.append(line(i, style.background_color, style.stroke * 0.6))
    for i in sorted(sample_edges - thick):
        parts.append(line(i, style.edge_color, style.stroke))
    for i in sorted(thick):
        parts.append(line(i, style.thick_color, style.thick_stroke))
    for x, y in pos:
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{style.vertex_radius}" '
                     f'fill="{style.vertex_color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
