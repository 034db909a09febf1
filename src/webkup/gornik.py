"""Specialization at a primitive cube root of unity.

At q = 1 a closed web counts its Tait colorings: the colorings of the
edges of its planar trivalent graph by three colors such that the three
edges at every junction carry all three, with 3 colorings for each free
loop.  A Tait coloring is exactly a flow whose junctions each carry the
three roots of x^3 - 1, so the count equals the bracket at q = 1; it is
computed here from the graph alone, without flows or their transition
table.

The resulting algebra is semisimple and splits into one block per
balanced state string; the number of blocks matches the balanced
filling count of the boundary.
"""

from __future__ import annotations

from .planar import PlanarWeb


def coloring_count(pw: PlanarWeb) -> int:
    """Number of Tait colorings of a closed web's graph, which it leaves
    as it was."""
    nxt, twin = pw.nxt, pw.twin
    # depth-first edge order, one dart per edge: every edge after a
    # component's first meets an earlier one, so a bad partial coloring
    # is cut early
    order: list[int] = []
    pos: dict[int, int] = {}  # dart -> position of its edge
    for start in nxt:
        stack = [start]
        while stack:
            d = stack.pop()
            for e in (d, nxt[d], nxt[nxt[d]]):
                if e not in pos:
                    pos[e] = pos[twin[e]] = len(order)
                    order.append(e)
                    stack.append(twin[e])
    earlier = [
        [
            pos[other]
            for end in (e, twin[e])
            for other in (nxt[end], nxt[nxt[end]])
            if pos[other] < i
        ]
        for i, e in enumerate(order)
    ]
    colors = [0] * len(order)

    def extend(i: int) -> int:
        if i == len(order):
            return 1
        used = {colors[j] for j in earlier[i]}
        total = 0
        for c in range(3):
            if c not in used:
                colors[i] = c
                total += extend(i + 1)
        return total

    return extend(0) * 3**pw.loops

