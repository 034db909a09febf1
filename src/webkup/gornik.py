"""Specialization at a primitive cube root of unity.

At q = 1 a flow on a closed web is the same thing as a coloring of its
edges by Eisenstein units: a strand of color c carries the root zeta^c,
and at every trivalent junction the three incident roots are exactly
{1, zeta, zeta^2}, so they sum to zero and multiply to one.  The count
of colorings of any closure is the bracket evaluated at q = 1.

The resulting algebra is semisimple and splits into one block per
balanced state string; the number of blocks matches the balanced
filling count of the boundary.
"""

from __future__ import annotations

from .webs import LadderWeb, close
from .flows import FULL, Flow, bracket, flow_configs
from .growth import flow_census, web_space
from .tableaux import enumerate_fillings, filling_to_state

# Eisenstein integers a + b*zeta as pairs, zeta^2 = -1 - zeta
Eis = tuple[int, int]

OMEGA: dict[int, Eis] = {0: (1, 0), 1: (0, 1), -1: (-1, -1)}


def eis_add(x: Eis, y: Eis) -> Eis:
    return (x[0] + y[0], x[1] + y[1])


def eis_mul(x: Eis, y: Eis) -> Eis:
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def junction_triples(flow: Flow) -> list[tuple[int, int, int]]:
    """Color triples at the trivalent vertices a flow passes through.

    A vertex of the ladder is trivalent when its three incident edge
    labels are two singles and a double; the triple consists of the two
    single colors plus the color missing from the double."""
    web = flow.web
    cfgs = flow_configs(flow)
    out = []
    for k, s in enumerate(web.slices):
        c = s.index - 1
        X = flow.moves[k]
        below, above = cfgs[k], cfgs[k + 1]
        for col in (c, c + 1):
            sets = [below[col], above[col], X]
            sizes = sorted(len(t) for t in sets)
            if sizes != [1, 1, 2]:
                continue
            singles = [t for t in sets if len(t) == 1]
            double = next(t for t in sets if len(t) == 2)
            (x,), (y,) = (tuple(t) for t in singles)
            (z,) = tuple(FULL - double)
            out.append((x, y, z))
    return out


def junctions_satisfy_root_relations(flow: Flow) -> bool:
    """Each junction triple consists of all three roots of x^3 - 1."""
    for triple in junction_triples(flow):
        roots = [OMEGA[c] for c in triple]
        total = (0, 0)
        prod = (1, 0)
        for r in roots:
            total = eis_add(total, r)
            prod = eis_mul(prod, r)
        if total != (0, 0) or prod != (1, 0):
            return False
        if len(set(triple)) != 3:
            return False
    return True


def coloring_count(web: LadderWeb) -> int:
    """Number of Eisenstein colorings of a closed web."""
    return bracket(web).eval_at_one()


def block_states(signs: str) -> list[tuple[int, ...]]:
    """Balanced state strings, one block each."""
    return [filling_to_state(signs, f) for f in enumerate_fillings(signs)]


def pairwise_coloring_counts(signs: str) -> dict:
    """Coloring counts of all closures of basis web pairs."""
    space = web_space(signs)
    out = {}
    for Ju, u in space.basis.items():
        for Jv, v in space.basis.items():
            out[(Ju, Jv)] = coloring_count(close(u, v))
    return out


def sum_of_squares_identity(signs: str) -> tuple[int, int]:
    """Both sides of: total colorings over all closures equals the sum of
    squared state multiplicities."""
    lhs = sum(pairwise_coloring_counts(signs).values())
    rhs = sum(m * m for m in flow_census(signs).values())
    return lhs, rhs
