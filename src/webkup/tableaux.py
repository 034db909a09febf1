"""Column fillings encoding boundary states.

A boundary state string is the same data as a filling of three columns,
one per color in the order (1, 0, -1): visible strand i sits in the
columns of the colors it carries (one column for a single strand, two
for a double).  The filling is balanced, with all three columns of equal
length, exactly when every color is used equally often, which is the
condition for the state string to bound a flow at all.  Columns are
strictly increasing by construction.

The semistandard fillings (rows weakly increasing in column order) pick
out the dominant state strings, the ones indexing basis webs: this module
is where that is decided, and growth.dominant_states reads them from here.
semistandard_states decides it by a walk over the strands that prunes on
prefix color counts and builds no other filling; enumerate_fillings
filtered by is_semistandard is its reference in the tests.
"""

from __future__ import annotations

from itertools import combinations

from .flows import colorset_for, colorset_state
from .webs import weight_of_signs

COLOR_ORDER = (1, 0, -1)

# a filling is a triple of strictly increasing index tuples, one per color
Filling = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def hat_weights(signs: str) -> tuple[int, ...]:
    """Multiplicities of the visible strands only."""
    return tuple(v for v in weight_of_signs(signs) if v in (1, 2))


def state_to_filling(signs: str, states) -> Filling:
    mus = hat_weights(signs)
    states = tuple(states)
    if len(states) != len(mus):
        raise ValueError("state string length must match visible strands")
    cols: dict[int, list[int]] = {c: [] for c in COLOR_ORDER}
    for i, (mu, j) in enumerate(zip(mus, states), start=1):
        for c in colorset_for(mu, j):
            cols[c].append(i)
    return tuple(tuple(cols[c]) for c in COLOR_ORDER)


def filling_to_state(signs: str, filling: Filling) -> tuple[int, ...]:
    mus = hat_weights(signs)
    out = []
    for i, mu in enumerate(mus, start=1):
        colors = frozenset(
            c for c, col in zip(COLOR_ORDER, filling) if i in col
        )
        if len(colors) != mu:
            raise ValueError(f"filling gives strand {i} the wrong multiplicity")
        out.append(colorset_state(colors))
    return tuple(out)


def is_balanced(filling: Filling) -> bool:
    return len({len(col) for col in filling}) == 1


def is_semistandard(filling: Filling) -> bool:
    """Balanced with weakly increasing rows in the color order."""
    if not is_balanced(filling):
        return False
    for row in zip(*filling):
        if not (row[0] <= row[1] <= row[2]):
            return False
    return True


def enumerate_fillings(signs: str) -> list[Filling]:
    """All balanced fillings for a boundary, by direct column assembly."""
    mus = hat_weights(signs)
    if sum(mus) % 3:
        return []
    load = sum(mus) // 3
    out: list[Filling] = []
    cols: dict[int, list[int]] = {c: [] for c in COLOR_ORDER}

    def rec(i):
        if i > len(mus):
            if all(len(cols[c]) == load for c in COLOR_ORDER):
                out.append(tuple(tuple(cols[c]) for c in COLOR_ORDER))
            return
        for chosen in combinations(COLOR_ORDER, mus[i - 1]):
            if any(len(cols[c]) >= load for c in chosen):
                continue
            for c in chosen:
                cols[c].append(i)
            rec(i + 1)
            for c in chosen:
                cols[c].pop()

    rec(1)
    return out


# (state, increments of the counts of colors 1, 0, -1) of a visible strand
# of each multiplicity, in descending state order
_COLOR_STEPS = {
    mu: tuple((j, tuple(int(c in colorset_for(mu, j)) for c in COLOR_ORDER)) for j in COLOR_ORDER)
    for mu in (1, 2)
}


def semistandard_states(signs: str) -> list[tuple[int, ...]]:
    """The states of the semistandard fillings, building no other filling.

    Columns increase strictly, so the rows increase weakly exactly when
    the prefix counts n1, n0, n-1 of each color keep n1 >= n0 >= n-1
    after every strand; with n1 <= load throughout the filling is also
    balanced.  The walk over the strands cuts a branch once either fails."""
    mus = hat_weights(signs)
    if sum(mus) % 3:
        return []
    load = sum(mus) // 3
    out: list[tuple[int, ...]] = []
    path: list[int] = []

    def rec(i, n1, n0, nm):
        if i == len(mus):
            out.append(tuple(path))
            return
        for j, (d1, d0, dm) in _COLOR_STEPS[mus[i]]:
            a, b, c = n1 + d1, n0 + d0, nm + dm
            if a <= load and a >= b >= c:
                path.append(j)
                rec(i + 1, a, b, c)
                path.pop()

    rec(0, 0, 0, 0)
    return out


def center_dim(signs: str) -> int:
    """Number of balanced fillings of the boundary."""
    return len(enumerate_fillings(signs))
