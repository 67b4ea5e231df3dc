"""Combinatorial diagrams of oriented singular links.

A diagram is a tuple of crossing records over directed semiarcs.  Classical
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

Crossing numbers in ``rot`` lines are 1-based in file order, and a crossing
has at most one ``rot`` line.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from . import SingqError
from .algebra import _ReadOnly


class DiagramError(SingqError):
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


class Crossing(NamedTuple):
    index: int
    kind: str  # 'P', 'N' or 'S'
    arcs: Mapping  # port -> semiarc label, read-only in a diagram
    rotation: Optional[tuple] = None  # CCW cyclic order of the four ports

    @property
    def ports(self) -> tuple:
        return SINGULAR_PORTS if self.kind == "S" else CLASSICAL_PORTS


class SemiArc(NamedTuple):
    label: str
    tail: tuple  # (crossing index, out-port)
    head: tuple  # (crossing index, in-port)


class SingularDiagram(_ReadOnly):
    """Crossings (each port map a read-only copy), semiarcs, the compiled
    crossing tuples and the regions, all tuples and read-only once built,
    so the plans and coloring sets kept with the diagram stay valid."""

    __slots__ = ("crossings", "semiarcs", "compiled", "faces", "sides",
                 "euler_failure")

    def __init__(self, crossings: Sequence[Crossing]):
        self.crossings = tuple(c._replace(arcs=MappingProxyType(dict(c.arcs)))
                               for c in crossings)
        self._build_semiarcs()
        self._build_regions()

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
        self.semiarcs = tuple(SemiArc(lbl, tails[lbl], heads[lbl])
                              for lbl in order)
        self.compiled = tuple((c.kind, *(order[c.arcs[p]] for p in c.ports))
                              for c in self.crossings)

    # -- basic counts ------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_semiarcs(self) -> int:
        return len(self.semiarcs)

    def has_rotations(self) -> bool:
        return all(c.rotation is not None for c in self.crossings)

    def component_count(self) -> int:
        # a strand entering a classical crossing at port position p leaves
        # at p + 2; one entering a singular crossing leaves at 3 - p
        follow = [0] * self.n_semiarcs
        for kind, a, b, c, d in self.compiled:
            follow[a], follow[b] = (d, c) if kind == "S" else (c, d)
        seen = [False] * self.n_semiarcs
        count = 0
        for i in range(self.n_semiarcs):
            if seen[i]:
                continue
            count += 1
            while not seen[i]:
                seen[i] = True
                i = follow[i]
        return count

    def graph_component_count(self) -> int:
        # connectivity of the underlying 4-valent graph
        adj = [[] for _ in self.crossings]
        for a in self.semiarcs:
            adj[a.tail[0]].append(a.head[0])
            adj[a.head[0]].append(a.tail[0])
        seen = [False] * self.n_crossings
        count = 0
        for start in range(self.n_crossings):
            if seen[start]:
                continue
            count += 1
            seen[start] = True
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        return count

    # -- combinatorial map -------------------------------------------------

    def _build_regions(self):
        """Trace the faces of the combinatorial map once, over darts: dart
        ``2*i`` runs along semiarc i and dart ``2*i + 1`` against it.
        ``faces`` keeps the ``Region`` records, ``sides`` the (left,
        right) region ids per semiarc index, and ``euler_failure`` why the
        faces fail the Euler check, or None if they pass; all three are
        None unless every crossing has a rotation."""
        if not self.has_rotations():
            self.faces = self.sides = self.euler_failure = None
            return
        turn = [0] * (2 * self.n_semiarcs)
        for c, (_, *arcs) in zip(self.crossings, self.compiled):
            if sorted(c.rotation) != sorted(c.ports):
                raise DiagramError(f"rotation must permute {c.ports}", c.index)
            # the dart leaving along each port; the one arriving there is
            # the same semiarc the other way
            away = {port: 2 * i + (port in IN_PORTS)
                    for port, i in zip(c.ports, arcs)}
            rot = [away[port] for port in c.rotation]
            # face to the left: arrive, turn to the next port clockwise (the
            # previous in the CCW rotation) and leave along it
            for k in range(4):
                turn[rot[k] ^ 1] = rot[k - 1]
        face_of = [None] * len(turn)
        faces = []
        # scanning darts upwards finds each face at its least dart, so the
        # faces come out in least-dart order, each starting there
        for start in range(len(turn)):
            if face_of[start] is not None:
                continue
            boundary = []
            dart = start
            while face_of[dart] is None:
                face_of[dart] = len(faces)
                boundary.append((dart >> 1, 1 - 2 * (dart & 1)))
                dart = turn[dart]
            faces.append(Region(len(faces), tuple(boundary)))
        self.faces = tuple(faces)
        self.sides = tuple(zip(face_of[::2], face_of[1::2]))
        v, e, f = self.n_crossings, self.n_semiarcs, len(faces)
        components = self.graph_component_count()
        self.euler_failure = None if v - e + f == 2 * components else (
            f"Euler check failed: V={v} E={e} F={f} components={components}")

    def regions(self) -> list:
        """Faces of the combinatorial map, as ``Region`` records.

        Requires rotations.  Each (semiarc, side) incidence lies in exactly
        one region; the face containing the forward dart of a semiarc is the
        region to the left of that semiarc.
        """
        if self.faces is None:
            raise DiagramError("regions need a rotation at every crossing")
        return list(self.faces)

    def side_regions(self, regions: Optional[list] = None) -> dict:
        """Map semiarc label -> (left region id, right region id), a view of
        ``sides`` by label.  The sides are those of the diagram's own
        ``regions()``, so ``regions`` is not read."""
        self.regions()   # raises without rotations
        return {a.label: side for a, side in zip(self.semiarcs, self.sides)}

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
    rotations = {}   # crossing index -> its rotation
    for line_no, idx_text, ports in rot_lines:
        try:
            idx = int(idx_text) - 1
        except ValueError:
            idx = -1
        if not 0 <= idx < len(records):
            raise ParseError(line_no, f"bad crossing number {idx_text!r}")
        if idx in rotations:
            raise ParseError(line_no, f"rot {idx + 1} is given twice")
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
    problems = (d.euler_failure,) if d.euler_failure else ()
    return DiagramReport(valid=not problems, problems=problems)
