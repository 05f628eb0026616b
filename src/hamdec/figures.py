"""Arc-diagram rendering of certificates, as DOT or standalone SVG.

Vertices sit on a horizontal number line; every edge becomes an arc above the
line whose height is proportional to its length, with one stroke class per
Hamilton path.  Output is a pure function of the inputs: identical calls
produce byte-identical text.
"""
from __future__ import annotations

from itertools import chain

from .errors import WindowTooLarge
from .model import MAX_WINDOW_EDGES, DecompositionCertificate, materialize_edges

FORMATS = ("dot", "svg")


def path_edges_in_range(cert: DecompositionCertificate, lo: int, hi: int) -> list[list[int]]:
    """Edges of each Hamilton path with both endpoints in [lo, hi], as sorted integer keys.

    The edge ``(u, u + d)`` is the key ``(u - lo) * (hi - lo + 1) + d``: every
    edge of the range is shorter than ``hi - lo + 1``, so keys sort like the
    pairs.  They are expanded from ``materialize_edges``' progressions.  The
    figures draw one vertex per integer of the range, so a range of more than
    ``MAX_WINDOW_EDGES`` integers raises WindowTooLarge first.
    """
    if hi - lo + 1 > MAX_WINDOW_EDGES:
        raise WindowTooLarge(
            f"range {lo}..{hi} has {hi - lo + 1} vertices, more than the cap of {MAX_WINDOW_EDGES}")
    m = hi - lo + 1
    return [sorted(chain.from_iterable(
                range((r.start - lo) * m + d, (r.stop - lo) * m + d, r.step * m) for r, d in progs))
            for progs in materialize_edges(cert, lo, hi)]


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


def _svg(period: int, lo: int, hi: int, per_path: list[list[int]]) -> str:
    total = len(per_path)
    m = hi - lo + 1

    unit = 24
    margin = 40
    lengths = set(map(m.__rmod__, chain.from_iterable(per_path)))
    max_len = max(lengths, default=1)
    arc_height = max_len * unit // 2
    width = (hi - lo) * unit + 2 * margin
    baseline = arc_height + margin
    height = baseline + margin

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
    lines.append(f'<line x1="{margin}" y1="{baseline}" x2="{margin + (hi - lo) * unit}" '
                 f'y2="{baseline}" stroke="#999" stroke-width="1"/>')

    # Every x coordinate, and the middle of an arc of each length present
    # (which fixes its radius), is formatted once; an edge's element is then
    # concatenated from them.
    xs = [str(margin + i * unit) for i in range(hi - lo + 1)]
    label_step = 1 if hi - lo <= 60 else period
    circle = f'" cy="{baseline}" r="2" fill="#333"/>'
    for i, x in enumerate(xs):
        lines.append('<circle cx="' + x + circle)
        if i % label_step == 0:
            lines.append(f'<text x="{x}" y="{baseline + 14}">{lo + i}</text>')

    arcs = {d: f" {baseline} A {d * unit / 2:.1f} {d * unit / 2:.1f} 0 0 1 " for d in lengths}
    end = f' {baseline}"/>'
    for j, keys in enumerate(per_path):
        start = f'<path class="h{j}" d="M '
        for key in keys:
            i, d = divmod(key, m)
            lines.append(start + xs[i] + arcs[d] + xs[i + d] + end)

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _dot(lo: int, hi: int, per_path: list[list[int]]) -> str:
    total = len(per_path)
    m = hi - lo + 1

    lines = [
        "graph decomposition {",
        "  layout=neato;",
        "  splines=curved;",
        '  node [shape=point, width=0.06, xlabel="\\N"];',
    ]
    names = [str(v) for v in range(lo, hi + 1)]
    for i, name in enumerate(names):
        lines.append(f'  "{name}" [pos="{i},0!"];')
    for j, keys in enumerate(per_path):
        end = f'" [color="{_stroke_color(j, total)}"];'
        for key in keys:
            i, d = divmod(key, m)
            lines.append('  "' + names[i] + '" -- "' + names[i + d] + end)
    lines.append("}")
    return "\n".join(lines) + "\n"
