"""Deterministic SVG rendering of word lattice paths.

The drawing is computed with integer arithmetic only, so a given
:class:`RenderSpec` always produces byte-identical output.  World
coordinates follow :func:`ckgeo.core.lattice_path` (y grows upward); the
screen y-axis is flipped at the last moment.

Layers, back to front: unit grid, rectangle + deviation shading
(``show_young``), the path polyline with start/end markers, and per-cell
orientation glyphs (``show_cells``): a circle with an arrowhead showing the
direction in which the positive contour of that cell is traversed —
rightward along the top edge in even columns, leftward in odd columns.
"""

from __future__ import annotations

from collections import Counter

from .core import evaluate, lattice_path
from .errors import MAX_GRID_POINTS, ResourceError
from .moves import young_rectangle
from .words import Word, format_word, syllables

_GRID = "#d8d8d8"
_PATH = "#1f77b4"
_START = "#2ca02c"
_END = "#d62728"
_RECT = "#9467bd"
_SHADE = "#ffd97a"
_GLYPH = "#8a8a8a"


class RenderSpec:
    """What to draw: a word plus layer toggles and the cell pixel size."""

    __slots__ = ("word", "cell_size", "show_cells", "show_young")

    def __init__(
        self,
        word: Word,
        cell_size: int = 24,
        show_cells: bool = False,
        show_young: bool = False,
    ) -> None:
        if cell_size < 4:
            raise ValueError("cell_size must be at least 4 pixels")
        self.word = word
        self.cell_size = cell_size
        self.show_cells = show_cells
        self.show_young = show_young


def _vertical_edges(points, sign: int) -> list[tuple[int, int, int]]:
    """(x, lower_y, direction·sign) for each vertical unit step of a path."""
    edges = []
    for p, q in zip(points, points[1:]):
        if p.x == q.x:
            edges.append((p.x, min(p.y, q.y), sign * (1 if q.y > p.y else -1)))
    return edges


def _run_ends(w: Word) -> tuple[list[int], list[int]]:
    """The x and y coordinates of the lattice path of ``w`` at the ends of
    its runs, the start included.

    A run moves along one axis in one direction (a b-run's direction is set
    by the parity of its column), so these points span the same box as the
    whole path of :func:`ckgeo.core.lattice_path`.
    """
    x = y = 0
    xs, ys = [0], [0]
    for base, e in syllables(w):
        if base == "a":
            x += e
        else:
            y += -e if x & 1 else e
        xs.append(x)
        ys.append(y)
    return xs, ys


def render_svg(spec: RenderSpec) -> str:
    """Render a word's lattice path as a standalone SVG document.

    Raises :class:`ckgeo.errors.ResourceError` before any path or SVG text is
    built when the drawing's grid (the bounding box of the path, and with
    ``show_young`` of the rectangle and the standard path) has more than
    :data:`ckgeo.errors.MAX_GRID_POINTS` lattice points.  The boxes come
    from the ends of the words' runs.
    """
    xs, ys = _run_ends(spec.word)
    if spec.show_young:
        g = evaluate(spec.word)
        if g.m < 0 or g.n < 0:
            raise ValueError(
                f"the rectangle layer needs a normalized element; {g.format()}"
                f" has m < 0 or n < 0 (apply the flip letter maps first)"
            )
        from .geodesics import std_rep

        rect_corners = young_rectangle(g)
        std_word = std_rep(g)
        std_xs, std_ys = _run_ends(std_word)
        xs += [c[0] for c in rect_corners] + std_xs
        ys += [c[1] for c in rect_corners] + std_ys
    bounds = min(xs), max(xs), min(ys), max(ys)
    grid_points = (bounds[1] - bounds[0] + 1) * (bounds[3] - bounds[2] + 1)
    if grid_points > MAX_GRID_POINTS:
        raise ResourceError(
            f"drawing spans {grid_points} grid points, over the budget of"
            f" {MAX_GRID_POINTS}"
        )
    young = (rect_corners, lattice_path(std_word)) if spec.show_young else None
    return _svg(spec, lattice_path(spec.word), young, bounds)


def _svg(spec: RenderSpec, points, young, bounds) -> str:
    """The SVG text of a drawing whose geometry :func:`render_svg` checked."""
    min_x, max_x, min_y, max_y = bounds
    cell = spec.cell_size
    margin = cell
    width = 2 * margin + (max_x - min_x) * cell
    height = 2 * margin + (max_y - min_y) * cell

    def sx(x: int) -> int:
        return margin + (x - min_x) * cell

    def sy(y: int) -> int:
        return margin + (max_y - y) * cell

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>{format_word(spec.word)}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for x in range(min_x, max_x + 1):
        out.append(
            f'<line x1="{sx(x)}" y1="{sy(max_y)}" x2="{sx(x)}" y2="{sy(min_y)}"'
            f' stroke="{_GRID}" stroke-width="1"/>'
        )
    for y in range(min_y, max_y + 1):
        out.append(
            f'<line x1="{sx(min_x)}" y1="{sy(y)}" x2="{sx(max_x)}" y2="{sy(y)}"'
            f' stroke="{_GRID}" stroke-width="1"/>'
        )
    if young is not None:
        rect_corners, std_points = young
        # Shade cells with nonzero winding of (path followed by reversed
        # standard path): the region the word's diagrams deviate by.  A
        # cell's winding is the signed sum of the vertical edges in its row
        # at or left of it, so each row is one sweep from the left.
        steps: Counter[tuple[int, int]] = Counter()
        for ex, ey, d in _vertical_edges(points, 1) + _vertical_edges(std_points, -1):
            steps[ex, ey] += d
        for cy in range(min_y, max_y):
            wind = 0
            for cx in range(min_x, max_x):
                wind += steps[cx, cy]
                if wind != 0:
                    out.append(
                        f'<rect x="{sx(cx)}" y="{sy(cy + 1)}" width="{cell}"'
                        f' height="{cell}" fill="{_SHADE}" fill-opacity="0.7"/>'
                    )
        rect_xs = [c[0] for c in rect_corners]
        rect_ys = [c[1] for c in rect_corners]
        rx0, rx1 = min(rect_xs), max(rect_xs)
        ry0, ry1 = min(rect_ys), max(rect_ys)
        out.append(
            f'<rect x="{sx(rx0)}" y="{sy(ry1)}" width="{(rx1 - rx0) * cell}"'
            f' height="{(ry1 - ry0) * cell}" fill="none" stroke="{_RECT}"'
            f' stroke-width="2" stroke-dasharray="6,4"/>'
        )
    if spec.show_cells:
        r = max(2, cell // 3)
        t = max(2, cell // 8)
        for cy in range(min_y, max_y):
            for cx in range(min_x, max_x):
                ccx = sx(cx) + cell // 2
                ccy = sy(cy + 1) + cell // 2
                out.append(
                    f'<circle cx="{ccx}" cy="{ccy}" r="{r}" fill="none"'
                    f' stroke="{_GLYPH}" stroke-width="1"/>'
                )
                tip = t if cx % 2 == 0 else -t
                top = ccy - r
                out.append(
                    f'<path d="M {ccx + tip} {top} L {ccx - tip} {top - t}'
                    f' L {ccx - tip} {top + t} Z" fill="{_GLYPH}"/>'
                )
    polyline = " ".join(f"{sx(p.x)},{sy(p.y)}" for p in points)
    out.append(
        f'<polyline points="{polyline}" fill="none" stroke="{_PATH}"'
        f' stroke-width="3" stroke-linecap="round" stroke-linejoin="round"/>'
    )
    first, last = points[0], points[-1]
    out.append(
        f'<circle cx="{sx(first.x)}" cy="{sy(first.y)}" r="5" fill="{_START}"/>'
    )
    out.append(
        f'<circle cx="{sx(last.x)}" cy="{sy(last.y)}" r="4" fill="{_END}"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(spec: RenderSpec, path: str) -> None:
    """Render and write to ``path`` (UTF-8, byte-deterministic)."""
    svg = render_svg(spec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
