"""Second, independent evaluator for closed webs: diagram rewriting.

A closed ladder web is converted to a planar trivalent graph.  Edges are
oriented (single strands point up, double strands point down, rungs
follow the slice direction, doubled rungs the opposite way); each graph
vertex is then forced to be a pure sink or a pure source, and every
2-valent point is smoothed away.  Valueless label-3 segments disappear,
which can smooth a single strand into a double strand; orientation
consistency at every smoothing is asserted, so a convention error would
crash rather than give wrong numbers.

The graph is a rotation system on integer darts, one dart per end of an
edge: `twin` maps each dart to the dart at the other end of its edge,
`nxt` to the next dart counterclockwise around its node, and `out`
holds the darts whose edge leaves their node.

The value is computed by the closed-web rewriting rules: a free loop
contributes the quantum integer [3]; a 2-sided face contracts and
contributes [2]; a 4-sided face splits into the sum of its two parallel
smoothings.  A counting argument guarantees a 2- or 4-sided face always
exists while vertices remain, and faces are even, so this terminates.
"""

from __future__ import annotations

from .qlaurent import LaurentPoly, ONE, qint
from .webs import LadderWeb


class PlanarWeb:
    __slots__ = ("twin", "nxt", "out", "loops", "digons")

    def __init__(self, twin: dict[int, int] | None = None, nxt: dict[int, int] | None = None,
                 out: set[int] | None = None):
        self.twin = {} if twin is None else twin
        self.nxt = {} if nxt is None else nxt
        self.out = set() if out is None else out
        self.loops = 0
        self.digons = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def from_ladder(cls, web: LadderWeb) -> "PlanarWeb":
        if not web.is_closed():
            raise ValueError("planar evaluation needs a closed web")
        pw = cls()
        twin, nxt, out = pw.twin, pw.nxt, pw.out
        n = web.n_cols
        points: dict[int, list] = {}  # slice * n + column -> darts by angle / 90

        def add_edge(tail, tail_slot, head, head_slot):
            d = len(twin)
            twin[d], twin[d + 1] = d + 1, d
            out.add(d)
            for key, slot, dart in ((tail, tail_slot, d), (head, head_slot, d + 1)):
                darts = points.get(key)
                if darts is None:
                    darts = points[key] = [None, None, None, None]
                assert darts[slot] is None, f"two edges share an angle at {divmod(key, n)}"
                darts[slot] = dart

        # vertical edges: visible runs, single strands up, double strands down
        for col, lo, hi, w in web.runs():
            if w in (0, 3):
                continue
            # closed web: a visible run ends at a slice on both sides
            assert lo is not None and hi is not None, "visible strand reaches the boundary"
            if w == 1:
                add_edge(lo * n + col, 1, hi * n + col, 3)
            else:
                add_edge(hi * n + col, 3, lo * n + col, 1)

        # rung edges
        for k, s in enumerate(web.slices):
            if s.power == 3:
                continue
            tail, head = s.rung()
            slot = 0 if head > tail else 2
            add_edge(k * n + tail, slot, k * n + head, 2 - slot)

        # link each point's darts counterclockwise; smooth the 2-valent ones
        for key, slots in points.items():
            darts = [d for d in slots if d is not None]
            if len(darts) == 1:
                raise AssertionError("dangling edge in closed web")
            for a, b in zip(darts, darts[1:] + darts[:1]):
                nxt[a] = b
            if len(darts) == 2:
                pw._smooth(*darts)
            elif len({d in out for d in darts}) != 1:
                raise AssertionError(f"mixed orientation at trivalent node {divmod(key, n)}")
        return pw

    def _smooth(self, a: int, b: int) -> None:
        """Remove the 2-valent node {a, b}: splice the far ends of its two
        edges into one edge, or count a free loop if they are one edge."""
        assert (a in self.out) != (b in self.out), (
            f"orientation clash while smoothing darts {a}, {b}"
        )
        ta, tb = self.twin.pop(a), self.twin.pop(b)
        if ta == b:
            self.loops += 1
        else:
            self.twin[ta], self.twin[tb] = tb, ta
        del self.nxt[a], self.nxt[b]
        self.out -= {a, b}

    @property
    def nodes(self) -> list[tuple[int, int, int]]:
        """Each node's three darts, counterclockwise."""
        nxt, seen, nodes = self.nxt, set(), []
        for d in nxt:
            if d not in seen:
                node = (d, nxt[d], nxt[nxt[d]])
                seen.update(node)
                nodes.append(node)
        return nodes

    # -- faces -----------------------------------------------------------

    def faces(self) -> list[list[int]]:
        """Faces as dart cycles: each dart is followed by the dart after
        its twin counterclockwise, d -> nxt[twin[d]]."""
        seen = set()
        faces = []
        for d in self.twin:
            cyc = []
            while d not in seen:
                seen.add(d)
                cyc.append(d)
                d = self.nxt[self.twin[d]]
            if cyc:
                faces.append(cyc)
        return faces

    def euler_check(self) -> None:
        """Every node is trivalent, and V - E + F equals twice the
        component count."""
        nxt, twin = self.nxt, self.twin
        assert all(nxt[nxt[nxt[d]]] == d for d in nxt), "a node is not trivalent"
        seen: set[int] = set()
        comps = 0
        for start in nxt:
            if start in seen:
                continue
            comps += 1
            stack = [start]
            while stack:
                d = stack.pop()
                if d not in seen:
                    seen.add(d)
                    stack += (nxt[d], twin[d])
        v, e, f = len(nxt) // 3, len(twin) // 2, len(self.faces())
        if v == 0:
            return
        assert v - e + f == 2 * comps, f"euler check failed: {v}-{e}+{f} != 2*{comps}"

    # -- rewriting -------------------------------------------------------

    def _corners(self, cyc):
        """The darts by which a face enters its corners, in face order, or
        None unless its edges and corners are distinct and sink and source
        alternate around it: the faces the rewriting rules may cut."""
        nxt = self.nxt
        corners = [self.twin[d] for d in cyc]
        distinct = (
            len(set(cyc) | set(corners)) == 2 * len(cyc)
            # a node is named by its least dart
            and len({min(t, nxt[t], nxt[nxt[t]]) for t in corners}) == len(cyc)
        )
        kinds = [t in self.out for t in corners]
        if distinct and all(a != b for a, b in zip(kinds, kinds[1:] + kinds[:1])):
            return corners
        return None

    def square_faces(self) -> list[list[int]]:
        """The 4-faces resolve_square may cut, in faces() order."""
        return [cyc for cyc in self.faces() if len(cyc) == 4 and self._corners(cyc)]

    def _cut_face(self, cyc, pairs) -> None:
        """Delete a face and its corners, then join the corners' external
        darts in the given pairs of face positions."""
        assert len(cyc) == 2 * len(pairs), (
            f"cannot join the ends of a {len(cyc)}-face in {len(pairs)} pairs"
        )
        corners = self._corners(cyc)
        assert corners is not None, (
            f"cannot cut a {len(cyc)}-face: its edges or corners repeat, "
            "or sink and source do not alternate around it"
        )
        ext = [self.nxt[self.nxt[t]] for t in corners]
        for d in cyc + corners:
            del self.twin[d], self.nxt[d]
            self.out.discard(d)
        for a, b in pairs:
            x_a, x_b = ext[a], ext[b]
            self.nxt[x_a], self.nxt[x_b] = x_b, x_a
            self._smooth(x_a, x_b)

    def contract_digon(self, cyc) -> None:
        self._cut_face(cyc, [(0, 1)])
        self.digons += 1

    def resolve_square(self, cyc, which: int) -> None:
        self._cut_face(cyc, [(0, 1), (2, 3)] if which == 0 else [(1, 2), (3, 0)])

    def clone_bare(self) -> "PlanarWeb":
        return PlanarWeb(dict(self.twin), dict(self.nxt), set(self.out))

    def evaluate(self) -> LaurentPoly:
        """Consume the graph, returning its closed-web value."""
        acc = ONE
        while True:
            acc = acc * (qint(3) ** self.loops) * (qint(2) ** self.digons)
            self.loops = 0
            self.digons = 0
            if not self.nxt:
                return acc
            smallest = min(self.faces(), key=lambda c: (len(c), min(c)))
            assert len(smallest) % 2 == 0, "odd face in a sink/source graph"
            if len(smallest) == 2:
                self.contract_digon(smallest)
                continue
            assert len(smallest) == 4, (
                f"no reducible face: smallest has {len(smallest)} sides"
            )
            a = self.clone_bare()
            a.resolve_square(smallest, 0)
            b = self.clone_bare()
            b.resolve_square(smallest, 1)
            return acc * (a.evaluate() + b.evaluate())


def rewrite_bracket(pw: PlanarWeb) -> LaurentPoly:
    """Consume the graph of a closed web, returning its value by diagram
    rewriting (independent of state sums)."""
    pw.euler_check()
    return pw.evaluate()
