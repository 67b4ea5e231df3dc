"""Combinatorial diagrams of oriented singular links.

A diagram is a list of crossing records over directed semiarcs.  Classical
crossings carry ports ``ui, oi, uo, oo`` (under/over in/out); singular
crossings carry ``i1, i2, o1, o2`` where the strand entering at ``i1``
leaves at ``o2`` and the one entering at ``i2`` leaves at ``o1``.  An
optional rotation system (counterclockwise cyclic port order per crossing)
turns the diagram into a combinatorial map so the complementary regions can
be extracted as faces.

File format, one record per line, ``#`` comments::

    P <ui> <oi> <uo> <oo>
    N <ui> <oi> <uo> <oo>
    S <i1> <i2> <o1> <o2>
    rot <crossing-number> <p> <q> <r> <s>

Crossing numbers in ``rot`` lines are 1-based in file order.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence


class DiagramError(ValueError):
    def __init__(self, message: str, crossing: Optional[int] = None):
        super().__init__(message)
        self.crossing = crossing   # index of the crossing at fault, if one is


class ParseError(DiagramError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


CLASSICAL_PORTS = ("ui", "oi", "uo", "oo")
SINGULAR_PORTS = ("i1", "i2", "o1", "o2")
IN_PORTS = {"ui", "oi", "i1", "i2"}

# strand continuation across a crossing, by in-port
CONTINUATION = {"ui": "uo", "oi": "oo", "i1": "o2", "i2": "o1"}


class Crossing(NamedTuple):
    index: int
    kind: str  # 'P', 'N' or 'S'
    arcs: dict  # port -> semiarc label
    rotation: Optional[tuple] = None  # CCW cyclic order of the four ports

    @property
    def ports(self) -> tuple:
        return SINGULAR_PORTS if self.kind == "S" else CLASSICAL_PORTS


class SemiArc(NamedTuple):
    label: str
    tail: tuple  # (crossing index, out-port)
    head: tuple  # (crossing index, in-port)


class SingularDiagram:
    def __init__(self, crossings: Sequence[Crossing]):
        self.crossings = list(crossings)
        self._build_semiarcs()
        # coloring-search plans by coloring notion, made on first use
        self.plans = {}
        # the last coloring set by notion, with the objects it was made from
        self.color_sets = {}

    def _build_semiarcs(self):
        """Collect the semiarcs and compile the diagram: ``compiled`` holds
        one ``(kind, a, b, c, d)`` tuple of semiarc indices per crossing, in
        port order."""
        tails, heads = {}, {}
        order = {}
        for c in self.crossings:
            for port in c.ports:
                label = c.arcs[port]
                side = heads if port in IN_PORTS else tails
                if label in side:
                    raise DiagramError(
                        f"semiarc {label!r} has two "
                        f"{'heads' if side is heads else 'tails'}", c.index)
                side[label] = (c.index, port)
                order.setdefault(label, len(order))
        dangling = sorted(set(tails) ^ set(heads))
        if dangling:
            end = tails.get(dangling[0]) or heads[dangling[0]]
            raise DiagramError(f"dangling semiarc endpoint(s): {dangling}",
                               end[0])
        self.semiarcs = [SemiArc(lbl, tails[lbl], heads[lbl]) for lbl in order]
        self._arc_index = order
        self.compiled = [(c.kind, *(order[c.arcs[p]] for p in c.ports))
                         for c in self.crossings]

    # -- basic counts ------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_semiarcs(self) -> int:
        return len(self.semiarcs)

    def arc(self, label: str) -> SemiArc:
        return self.semiarcs[self._arc_index[label]]

    def has_rotations(self) -> bool:
        return all(c.rotation is not None for c in self.crossings)

    def component_count(self) -> int:
        seen = set()
        count = 0
        for start in self.semiarcs:
            if start.label in seen:
                continue
            count += 1
            label = start.label
            while label not in seen:
                seen.add(label)
                cid, port = self.arc(label).head
                out_port = CONTINUATION[port]
                label = self.crossings[cid].arcs[out_port]
        return count

    def graph_component_count(self) -> int:
        # connectivity of the underlying 4-valent graph
        if not self.crossings:
            return 0
        adj = {c.index: set() for c in self.crossings}
        for a in self.semiarcs:
            adj[a.tail[0]].add(a.head[0])
            adj[a.head[0]].add(a.tail[0])
        seen: set = set()
        count = 0
        for start in adj:
            if start in seen:
                continue
            count += 1
            stack = [start]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(adj[v] - seen)
        return count

    # -- combinatorial map -------------------------------------------------

    def _port_dart_away(self, cid: int, port: str) -> tuple:
        """Dart leaving crossing ``cid`` along ``port``: (arc index, direction)."""
        label = self.crossings[cid].arcs[port]
        arc = self.arc(label)
        i = self._arc_index[label]
        if arc.tail == (cid, port):
            return (i, +1)
        if arc.head == (cid, port):
            return (i, -1)
        raise DiagramError(f"port {port} of crossing {cid} inconsistent")

    def _dart_arrival(self, dart: tuple) -> tuple:
        i, direction = dart
        arc = self.semiarcs[i]
        return arc.head if direction == +1 else arc.tail

    def _next_dart_left(self, dart: tuple) -> tuple:
        # Face-to-the-left traversal: arrive at a crossing, turn to the next
        # port clockwise (= previous in the CCW rotation), leave along it.
        cid, port = self._dart_arrival(dart)
        rot = self.crossings[cid].rotation
        if rot is None:
            raise DiagramError(f"crossing {cid} has no rotation")
        k = rot.index(port)
        nxt = rot[(k - 1) % 4]
        return self._port_dart_away(cid, nxt)

    def regions(self) -> list:
        """Faces of the combinatorial map, as ``Region`` records.

        Requires rotations.  Each (semiarc, side) incidence lies in exactly
        one region; the face containing the forward dart of a semiarc is the
        region to the left of that semiarc.
        """
        if not self.has_rotations():
            raise DiagramError("regions need a rotation at every crossing")
        darts = [(i, d) for i in range(self.n_semiarcs) for d in (+1, -1)]
        seen = set()
        faces = []
        for start in darts:
            if start in seen:
                continue
            cycle = []
            d = start
            while d not in seen:
                seen.add(d)
                cycle.append(d)
                d = self._next_dart_left(d)
            faces.append(tuple(cycle))
        faces.sort(key=lambda f: min((i, -d) for i, d in f))
        return [Region(k, f) for k, f in enumerate(faces)]

    def euler_check(self) -> tuple:
        """(V, E, F, ok): ok iff V - E + F == 2 per connected component."""
        regions = self.regions()
        return (self.n_crossings, self.n_semiarcs, len(regions),
                self.euler_problem(regions) is None)

    def euler_problem(self, regions: list) -> Optional[str]:
        """Why the faces ``regions`` fail the Euler check, or None if
        V - E + F == 2 per connected component."""
        v, e, f = self.n_crossings, self.n_semiarcs, len(regions)
        components = self.graph_component_count()
        if v - e + f == 2 * components:
            return None
        return f"Euler check failed: V={v} E={e} F={f} components={components}"

    def side_regions(self, regions: Optional[list] = None) -> dict:
        """Map semiarc label -> (left region id, right region id)."""
        if regions is None:
            regions = self.regions()
        sides: dict = {}
        for r in regions:
            for i, d in r.boundary:
                label = self.semiarcs[i].label
                pair = sides.setdefault(label, [None, None])
                pair[0 if d == +1 else 1] = r.id
        return {lbl: tuple(pair) for lbl, pair in sides.items()}

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        lines = []
        for c in self.crossings:
            lines.append(" ".join([c.kind] + [c.arcs[p] for p in c.ports]))
        for c in self.crossings:
            if c.rotation is not None:
                lines.append(f"rot {c.index + 1} " + " ".join(c.rotation))
        return "\n".join(lines) + "\n"


class Region(NamedTuple):
    id: int
    boundary: tuple  # cyclic tuple of darts (semiarc index, direction)


class DiagramReport(NamedTuple):
    valid: bool
    problems: tuple = ()


def parse_diagram(text: str) -> SingularDiagram:
    records = []   # (kind, port -> semiarc label)
    record_lines = []
    rot_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("P", "N", "S"):
            if len(tokens) != 5:
                raise ParseError(line_no, f"crossing needs 4 semiarcs, got "
                                          f"{len(tokens) - 1}")
            ports = SINGULAR_PORTS if head == "S" else CLASSICAL_PORTS
            records.append((head, dict(zip(ports, tokens[1:]))))
            record_lines.append(line_no)
        elif head == "rot":
            if len(tokens) != 6:
                raise ParseError(line_no, "rot needs a crossing number and 4 ports")
            rot_lines.append((line_no, tokens[1], tuple(tokens[2:])))
        else:
            raise ParseError(line_no, f"unknown record {head!r}")
    rotations = {}   # crossing index -> its last rotation
    for line_no, idx_text, ports in rot_lines:
        try:
            idx = int(idx_text) - 1
        except ValueError:
            idx = -1
        if not 0 <= idx < len(records):
            raise ParseError(line_no, f"bad crossing number {idx_text!r}")
        expected = tuple(records[idx][1])
        if sorted(ports) != sorted(expected):
            raise ParseError(line_no, f"rotation must permute {expected}")
        rotations[idx] = ports
    crossings = [Crossing(i, kind, arcs, rotations.get(i))
                 for i, (kind, arcs) in enumerate(records)]
    try:
        return SingularDiagram(crossings)
    except DiagramError as exc:
        raise ParseError(record_lines[exc.crossing], str(exc)) from exc


def validate_diagram(d: SingularDiagram) -> DiagramReport:
    problems = []
    if d.n_semiarcs != 2 * d.n_crossings:
        problems.append(f"expected {2 * d.n_crossings} semiarcs, "
                        f"found {d.n_semiarcs}")
    problem = d.euler_problem(d.regions()) if d.has_rotations() else None
    if problem:
        problems.append(problem)
    return DiagramReport(valid=not problems, problems=tuple(problems))
