"""Second, independent evaluator for closed webs: diagram rewriting.

A closed ladder web is converted to a planar trivalent graph.  Edges are
oriented (single strands point up, double strands point down, rungs
follow the slice direction, doubled rungs the opposite way); each graph
vertex is then forced to be a pure sink or a pure source, and every
2-valent point is smoothed away.  Valueless label-3 segments disappear,
which can smooth a single strand into a double strand; orientation
consistency at every smoothing is asserted, so a convention error would
crash rather than give wrong numbers.

The value is computed by the closed-web rewriting rules: a free loop
contributes the quantum integer [3]; a 2-sided face contracts and
contributes [2]; a 4-sided face splits into the sum of its two parallel
smoothings.  A counting argument guarantees a 2- or 4-sided face always
exists while vertices remain, and faces are even, so this terminates.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .qlaurent import LaurentPoly, ONE, qint
from .webs import LadderWeb


@dataclass
class _Edge:
    tail: int | None  # node the edge leaves
    head: int | None  # node the edge enters


@dataclass
class _Node:
    inc: list  # (eid, endkind) pairs; endkind 'head' means the edge arrives
    kind: str = ""  # 'sink' | 'source' once classified


@dataclass
class PlanarWeb:
    nodes: dict[int, _Node] = field(default_factory=dict)
    edges: dict[int, _Edge] = field(default_factory=dict)
    loops: int = 0
    digons: int = 0
    _next_eid: int = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def from_ladder(cls, web: LadderWeb) -> "PlanarWeb":
        if not web.is_closed():
            raise ValueError("planar evaluation needs a closed web")
        pw = cls()
        raw_inc: dict[tuple, dict] = {}  # node key -> {angle: (eid, endkind)}

        def add_end(nkey, angle, eid, endkind):
            slot = raw_inc.setdefault(nkey, {})
            assert angle not in slot, f"two edges share an angle at {nkey}"
            slot[angle] = (eid, endkind)

        def add_edge(n_tail_key, tail_angle, n_head_key, head_angle):
            eid = pw._next_eid
            pw._next_eid += 1
            pw.edges[eid] = _Edge(tail=None, head=None)
            add_end(n_tail_key, tail_angle, eid, "tail")
            add_end(n_head_key, head_angle, eid, "head")

        # vertical edges: visible runs, single strands up, double strands down
        for col, lo, hi, w in web.runs():
            if w in (0, 3):
                continue
            # closed web: a visible run ends at a slice on both sides
            assert lo is not None and hi is not None, "visible strand reaches the boundary"
            if w == 1:
                add_edge((lo, col), 90, (hi, col), 270)
            else:
                add_edge((hi, col), 270, (lo, col), 90)

        # rung edges
        for k, s in enumerate(web.slices):
            if s.power == 3:
                continue
            tail, head = s.rung()
            out = 0 if head > tail else 180
            add_edge((k, tail), out, (k, head), 180 - out)

        # materialize nodes with counterclockwise incidence order
        for slot in raw_inc.values():
            nid = len(pw.nodes)
            inc = [slot[a] for a in sorted(slot)]
            pw.nodes[nid] = _Node(inc=inc)
            for eid, endkind in inc:
                setattr(pw.edges[eid], endkind, nid)
        for nid, node in pw.nodes.items():
            if len(node.inc) == 1:
                raise AssertionError("dangling edge in closed web")

        pw._classify()
        pw._normalize()
        return pw

    def _classify(self) -> None:
        for nid, node in self.nodes.items():
            if len(node.inc) != 3:
                continue
            kinds = {endkind for _, endkind in node.inc}
            if kinds == {"head"}:
                node.kind = "sink"
            elif kinds == {"tail"}:
                node.kind = "source"
            else:
                raise AssertionError(f"mixed orientation at trivalent node {nid}")

    def _normalize(self) -> None:
        """Smooth all 2-valent nodes, collecting free loops."""
        todo = [nid for nid, nd in self.nodes.items() if len(nd.inc) != 3]
        while todo:
            nid = todo.pop()
            node = self.nodes.get(nid)
            if node is None or len(node.inc) == 3:
                continue
            if len(node.inc) == 0:
                del self.nodes[nid]
                continue
            assert len(node.inc) == 2, "dangling edge while smoothing"
            (e1, k1), (e2, k2) = node.inc
            if e1 == e2:
                # both ends of one edge meet here: a free loop
                self.loops += 1
                del self.edges[e1]
                del self.nodes[nid]
                continue
            assert {k1, k2} == {"head", "tail"}, (
                f"orientation clash while smoothing node {nid}"
            )
            e_in, e_out = (e1, e2) if k1 == "head" else (e2, e1)
            new = self._next_eid
            self._next_eid += 1
            tail, head = self.edges[e_in].tail, self.edges[e_out].head
            self.edges[new] = _Edge(tail=tail, head=head)
            self._replace_ref(tail, e_in, "tail", new)
            self._replace_ref(head, e_out, "head", new)
            del self.edges[e_in]
            del self.edges[e_out]
            del self.nodes[nid]
        for node in self.nodes.values():
            assert len(node.inc) == 3

    def _replace_ref(self, nid, old_eid, endkind, new_eid) -> None:
        node = self.nodes[nid]
        for pos, (eid, kind) in enumerate(node.inc):
            if eid == old_eid and kind == endkind:
                node.inc[pos] = (new_eid, endkind)
                return
        raise AssertionError("missing incidence reference")

    # -- faces -----------------------------------------------------------

    def faces(self) -> list[list[tuple]]:
        """Faces as dart cycles; a dart (eid, endkind) sits at the node
        holding that end.  Faces are orbits of: twin, then next dart
        counterclockwise around the node."""
        darts = []
        for eid in self.edges:
            darts.append((eid, "tail"))
            darts.append((eid, "head"))
        pos_at = {}
        for nid, node in self.nodes.items():
            for pos, ref in enumerate(node.inc):
                pos_at[ref] = (nid, pos)

        def step(d):
            eid, kind = d
            twin = (eid, "head" if kind == "tail" else "tail")
            nid, pos = pos_at[twin]
            node = self.nodes[nid]
            return node.inc[(pos + 1) % len(node.inc)]

        seen = set()
        out = []
        for d in darts:
            if d in seen:
                continue
            cyc = []
            cur = d
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur)
                cur = step(cur)
            out.append(cyc)
        return out

    def euler_check(self) -> None:
        """V - E + F must equal twice the component count."""
        parent = {nid: nid for nid in self.nodes}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self.edges.values():
            ra, rb = find(e.tail), find(e.head)
            parent[ra] = rb
        comps = len({find(nid) for nid in self.nodes})
        v, e, f = len(self.nodes), len(self.edges), len(self.faces())
        if v == 0:
            return
        assert v - e + f == 2 * comps, f"euler check failed: {v}-{e}+{f} != 2*{comps}"

    # -- rewriting -------------------------------------------------------

    def _corners(self, cyc):
        """The nodes a face's darts enter, in face order, or None unless
        its edges and corners are distinct and sink and source alternate
        around it: the faces the rewriting rules may cut."""
        corners = []
        for eid, kind in cyc:
            corners.append(getattr(self.edges[eid], "head" if kind == "tail" else "tail"))
        kinds = [self.nodes[v].kind for v in corners]
        distinct = len({eid for eid, _ in cyc}) == len(set(corners)) == len(cyc)
        if distinct and all(a != b for a, b in zip(kinds, kinds[1:] + kinds[:1])):
            return corners
        return None

    def square_faces(self) -> list[list[tuple]]:
        """The 4-faces resolve_square may cut, in faces() order."""
        return [cyc for cyc in self.faces() if len(cyc) == 4 and self._corners(cyc)]

    def _external_end(self, vid, face_edges):
        node = self.nodes[vid]
        ext = [(eid, kind) for eid, kind in node.inc if eid not in face_edges]
        assert len(ext) == 1, "face corner without a unique external edge"
        return ext[0]

    def _join(self, enda, endb) -> None:
        """Connect two external edge ends through a fresh 2-valent node."""
        nid = max(self.nodes, default=-1) + 1
        self.nodes[nid] = _Node(inc=[enda, endb])
        for eid, endkind in (enda, endb):
            setattr(self.edges[eid], endkind, nid)

    def _cut_face(self, cyc, pairs) -> None:
        """Delete a face and its corners, then join the corners' external
        ends in the given pairs of face positions."""
        assert len(cyc) == 2 * len(pairs), (
            f"cannot join the ends of a {len(cyc)}-face in {len(pairs)} pairs"
        )
        corners = self._corners(cyc)
        assert corners is not None, (
            f"cannot cut a {len(cyc)}-face: its edges or corners repeat, "
            "or sink and source do not alternate around it"
        )
        face_edges = {eid for eid, _ in cyc}
        ends = [self._external_end(v, face_edges) for v in corners]
        for eid in face_edges:
            del self.edges[eid]
        for vid in corners:
            del self.nodes[vid]
        for a, b in pairs:
            self._join(ends[a], ends[b])
        self._normalize()

    def contract_digon(self, cyc) -> None:
        self._cut_face(cyc, [(0, 1)])
        self.digons += 1

    def resolve_square(self, cyc, which: int) -> None:
        self._cut_face(cyc, [(0, 1), (2, 3)] if which == 0 else [(1, 2), (3, 0)])

    def clone_bare(self) -> "PlanarWeb":
        dup = copy.deepcopy(self)
        dup.loops = 0
        dup.digons = 0
        return dup

    def evaluate(self) -> LaurentPoly:
        """Consume the graph, returning its closed-web value."""
        acc = ONE
        while True:
            acc = acc * (qint(3) ** self.loops) * (qint(2) ** self.digons)
            self.loops = 0
            self.digons = 0
            if not self.nodes:
                return acc
            faces = sorted(
                self.faces(), key=lambda c: (len(c), min(e for e, _ in c))
            )
            smallest = faces[0]
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


def rewrite_bracket(web: LadderWeb) -> LaurentPoly:
    """Closed-web value by diagram rewriting (independent of state sums)."""
    pw = PlanarWeb.from_ladder(web)
    pw.euler_check()
    return pw.evaluate()
