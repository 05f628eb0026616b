"""Arc-diagram rendering of certificates, as DOT or standalone SVG.

Vertices sit on a horizontal number line; every edge becomes an arc above the
line whose height is proportional to its length, with one stroke class per
Hamilton path.  Output is a pure function of the inputs: identical calls
produce byte-identical text.
"""
from __future__ import annotations

from .errors import WindowTooLarge
from .model import MAX_WINDOW_EDGES, DecompositionCertificate, materialize_edges

FORMATS = ("dot", "svg")


def path_edges_in_range(cert: DecompositionCertificate, lo: int, hi: int
                        ) -> list[list[tuple[int, int]]]:
    """Edges of each Hamilton path with both endpoints in [lo, hi], sorted.

    The figures draw one vertex per integer of the range, so a range of more
    than ``MAX_WINDOW_EDGES`` integers raises WindowTooLarge first.
    """
    if hi - lo + 1 > MAX_WINDOW_EDGES:
        raise WindowTooLarge(
            f"range {lo}..{hi} has {hi - lo + 1} vertices, more than the cap of {MAX_WINDOW_EDGES}")
    return [sorted(edges) for edges in materialize_edges(cert, lo, hi)]


def _stroke_color(j: int, total: int) -> str:
    hue = (j * 360) // max(total, 1)
    return f"hsl({hue},65%,38%)"


def render_figure(cert: DecompositionCertificate, lo: int, hi: int, fmt: str) -> str:
    """The arc diagram of [lo, hi], which must cover one period, as ``fmt`` text."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if hi - lo < cert.period:
        raise ValueError(f"range {lo}..{hi} is smaller than one period ({cert.period})")
    per_path = path_edges_in_range(cert, lo, hi)
    if fmt == "dot":
        return _dot(lo, hi, per_path)
    return _svg(cert.period, lo, hi, per_path)


def _svg(period: int, lo: int, hi: int, per_path: list[list[tuple[int, int]]]) -> str:
    total = len(per_path)

    unit = 24
    margin = 40
    max_len = max((v - u for edges in per_path for u, v in edges), default=1)
    arc_height = max_len * unit // 2
    width = (hi - lo) * unit + 2 * margin
    baseline = arc_height + margin
    height = baseline + margin

    def x(v: int) -> int:
        return margin + (v - lo) * unit

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<style>",
        "path { fill: none; stroke-width: 1.6; }",
        "text { font-family: monospace; font-size: 10px; text-anchor: middle; }",
    ]
    for j in range(total):
        lines.append(f".h{j} {{ stroke: {_stroke_color(j, total)}; }}")
    lines.append("</style>")
    lines.append(f'<line x1="{x(lo)}" y1="{baseline}" x2="{x(hi)}" y2="{baseline}" '
                 'stroke="#999" stroke-width="1"/>')

    label_step = 1 if hi - lo <= 60 else period
    for v in range(lo, hi + 1):
        lines.append(f'<circle cx="{x(v)}" cy="{baseline}" r="2" fill="#333"/>')
        if (v - lo) % label_step == 0:
            lines.append(f'<text x="{x(v)}" y="{baseline + 14}">{v}</text>')

    for j, edges in enumerate(per_path):
        for u, v in edges:
            r = (v - u) * unit / 2
            lines.append(
                f'<path class="h{j}" d="M {x(u)} {baseline} '
                f'A {r:.1f} {r:.1f} 0 0 1 {x(v)} {baseline}"/>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _dot(lo: int, hi: int, per_path: list[list[tuple[int, int]]]) -> str:
    total = len(per_path)

    lines = [
        "graph decomposition {",
        "  layout=neato;",
        "  splines=curved;",
        '  node [shape=point, width=0.06, xlabel="\\N"];',
    ]
    for v in range(lo, hi + 1):
        lines.append(f'  "{v}" [pos="{v - lo},0!"];')
    for j, edges in enumerate(per_path):
        color = _stroke_color(j, total)
        for u, v in edges:
            lines.append(f'  "{u}" -- "{v}" [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
