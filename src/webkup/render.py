"""Deterministic SVG pictures of ladder webs.

Vertical strands: label 1 is a single line (oriented up), label 2 a
doubled line (oriented down), labels 0 and 3 are erased.  Rungs follow
the slice direction for power 1, the opposite way for power 2, and a
power-3 rung is erased like a label-3 edge.  A flow is overlaid as
dashed strands in one fixed color per flow color.  Boundary markers
use the weight alphabet at the top and, for open bottoms, below.

The output is a pure function of the web and flow: elements are emitted
in a fixed order with fixed formatting, so files are byte-reproducible.
"""

from __future__ import annotations

from .webs import LadderWeb
from .flows import Flow, walk_moves

COL_W = 60
ROW_H = 40
MARGIN = 40

MARKER = {0: "&#9702;", 1: "+", 2: "&#8722;", 3: "&#215;"}

# overlay offsets and strokes, one per flow color
FLOW_DX = {1: -5, 0: 0, -1: 5}
FLOW_STROKE = {1: "#c23", 0: "#173", -1: "#26c"}

STYLE = (
    "line.e1{stroke:#111;stroke-width:1.6;fill:none}"
    "line.e2{stroke:#111;stroke-width:1.6;fill:none}"
    "line.fl{stroke-width:1.1;stroke-dasharray:4 3;fill:none}"
    "text{font:13px monospace;text-anchor:middle;fill:#111}"
)


def _fmt(x: float) -> str:
    return f"{x:.1f}".rstrip("0").rstrip(".")


class _Doc:
    def __init__(self, width, height):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f"<style>{STYLE}</style>",
            '<defs><marker id="a" viewBox="0 0 6 6" refX="5" refY="3" '
            'markerWidth="5" markerHeight="5" orient="auto">'
            '<path d="M0,0 L6,3 L0,6 z" fill="#111"/></marker></defs>',
        ]

    def line(self, x1, y1, x2, y2, cls, stroke=None, arrow=False):
        extra = f' stroke="{stroke}"' if stroke else ""
        if arrow:
            extra += ' marker-end="url(#a)"'
        self.parts.append(
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"{extra}/>'
        )

    def text(self, x, y, s):
        self.parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}">{s}</text>')

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def render(web: LadderWeb, flow: Flow | None = None) -> str:
    if flow is not None and flow.web != web:
        raise ValueError("flow belongs to a different web")
    cfgs = walk_moves(flow.web, flow.moves)[0] if flow is not None else None
    n = web.n_cols
    m = len(web.slices)
    width = 2 * MARGIN + (n - 1) * COL_W
    height = 2 * MARGIN + m * ROW_H
    doc = _Doc(width, height)

    def x_of(col):
        return MARGIN + col * COL_W

    def y_level(t):  # level 0 at the bottom of the canvas
        return MARGIN + (m - t) * ROW_H

    def y_rung(k):
        return y_level(k) - ROW_H / 2

    # vertical runs, cut at the slices touching their column
    for col, lo, hi, w in web.runs():
        if w not in (1, 2):
            continue
        y_lo = y_level(0) if lo is None else y_rung(lo)
        y_hi = y_level(m) if hi is None else y_rung(hi)
        x = x_of(col)
        if w == 1:  # single strand, oriented up
            doc.line(x, y_lo, x, y_hi, "e1", arrow=True)
        else:  # double strand, oriented down
            doc.line(x - 2, y_hi, x - 2, y_lo, "e2", arrow=True)
            doc.line(x + 2, y_lo, x + 2, y_hi, "e2")
        if cfgs is not None:
            lvl = m if hi is None else hi  # a level inside the run
            for color in sorted(cfgs[lvl][col], reverse=True):
                doc.line(
                    x + FLOW_DX[color],
                    y_lo,
                    x + FLOW_DX[color],
                    y_hi,
                    "fl",
                    stroke=FLOW_STROKE[color],
                )

    # rungs
    for k, s in enumerate(web.slices):
        if s.power == 3:
            continue
        y = y_rung(k)
        tail, head = s.rung()
        xa, xb = x_of(tail), x_of(head)
        if s.power == 1:
            doc.line(xa, y, xb, y, "e1", arrow=True)
        else:
            doc.line(xa, y - 2, xb, y - 2, "e2", arrow=True)
            doc.line(xa, y + 2, xb, y + 2, "e2")
        if cfgs is not None:
            for color in sorted(flow.moves[k], reverse=True):
                doc.line(
                    xa,
                    y + FLOW_DX[color],
                    xb,
                    y + FLOW_DX[color],
                    "fl",
                    stroke=FLOW_STROKE[color],
                )

    # boundary markers: top always, bottom only when the web is open there
    for col in range(n):
        doc.text(x_of(col), y_level(m) - 10, MARKER[web.top_weight[col]])
    if not web.has_closed_bottom():
        for col in range(n):
            doc.text(x_of(col), y_level(0) + 20, MARKER[web.bottom_weight[col]])
    return doc.finish()
