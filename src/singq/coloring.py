"""Enumeration of diagram colorings by propagate-then-branch search.

Three coloring notions over one search core: singquandle colorings of
semiarcs, psyquandle colorings of semiarcs, and shadow colorings (semiarcs
plus regions).  Crossing rules are expressed as local inference functions;
the solver propagates all forced colors and branches on the uncolored
semiarc whose incident crossings are most constrained (fail-first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .algebra import OrientedSingquandle, Psyquandle, ShadowStructure
from .diagram import Crossing, SingularDiagram


class ColoringError(ValueError):
    pass


_CONFLICT = object()


@dataclass(frozen=True)
class Coloring:
    semiarc_colors: tuple  # colors in diagram semiarc order
    region_colors: Optional[tuple] = None  # colors in region-id order

    def color_of(self, diagram: SingularDiagram, label: str) -> int:
        return self.semiarc_colors[diagram._arc_index[label]]


@dataclass
class ColoringSet:
    diagram: SingularDiagram
    structure: object
    colorings: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.colorings)

    def __iter__(self):
        return iter(self.colorings)


# -- inference rules ---------------------------------------------------------

def _singquandle_rules(s: OrientedSingquandle):
    def infer(c: Crossing, get: Callable[[str], Optional[int]]):
        out = []
        if c.kind in ("P", "N"):
            ui, oi, uo, oo = get("ui"), get("oi"), get("uo"), get("oo")
            if oi is None and oo is not None:
                oi = oo
                out.append(("oi", oo))
            if oi is not None:
                # also when oo is colored: propagate then checks oi == oo
                out.append(("oo", oi))
            fwd = s.op if c.kind == "P" else s.op_inv
            bwd = s.op_inv if c.kind == "P" else s.op
            if oi is not None:
                if ui is not None:
                    out.append(("uo", fwd(ui, oi)))
                elif uo is not None:
                    out.append(("ui", bwd(uo, oi)))
        else:
            i1, i2 = get("i1"), get("i2")
            if i1 is not None and i2 is not None:
                out.append(("o1", s.r1(i1, i2)))
                out.append(("o2", s.r2(i1, i2)))
        return out
    return infer


def _psyquandle_rules(p: Psyquandle):
    n = p.n

    def infer(c: Crossing, get: Callable[[str], Optional[int]]):
        out = []
        if c.kind == "P":
            ui, oi, uo, oo = get("ui"), get("oi"), get("uo"), get("oo")
            if ui is not None and oi is not None:
                a, b = p.smap[ui * n + oi]
                out.append(("oo", a))
                out.append(("uo", b))
            elif oo is not None and uo is not None:
                x, y = p.smap_inv[oo * n + uo]
                out.append(("ui", x))
                out.append(("oi", y))
            else:
                if uo is not None and oi is not None:
                    out.append(("ui", p.ut_inv(uo, oi)))
                if oo is not None and ui is not None:
                    out.append(("oi", p.ot_inv(oo, ui)))
        elif c.kind == "N":
            # inputs are the S-image of the outputs
            ui, oi, uo, oo = get("ui"), get("oi"), get("uo"), get("oo")
            if uo is not None and oo is not None:
                out.append(("oi", p.ot(oo, uo)))
                out.append(("ui", p.ut(uo, oo)))
            elif oi is not None and ui is not None:
                x, y = p.smap_inv[oi * n + ui]
                out.append(("uo", x))
                out.append(("oo", y))
            else:
                if oi is not None and uo is not None:
                    out.append(("oo", p.ot_inv(oi, uo)))
                if ui is not None and oo is not None:
                    out.append(("uo", p.ut_inv(ui, oo)))
        else:
            i1, i2, o1, o2 = get("i1"), get("i2"), get("o1"), get("o2")
            if i1 is not None and i2 is not None:
                a, b = p.sprime[i1 * n + i2]
                out.append(("o1", a))
                out.append(("o2", b))
            elif o1 is not None and o2 is not None:
                x, y = p.sprime_inv[o1 * n + o2]
                out.append(("i1", x))
                out.append(("i2", y))
            else:
                if o2 is not None and i2 is not None:
                    out.append(("i1", p.ub_inv(o2, i2)))
                if o1 is not None and i1 is not None:
                    out.append(("i2", p.ob_inv(o1, i1)))
        return out
    return infer


# -- search core -------------------------------------------------------------

def _enumerate(diagram: SingularDiagram, n: int, infer) -> list:
    arcs = diagram.semiarcs
    index = diagram._arc_index
    incident = [[] for _ in arcs]
    for c in diagram.crossings:
        for port in c.ports:
            incident[index[c.arcs[port]]].append(c)

    colors: list = [None] * len(arcs)

    def propagate(dirty: list) -> Optional[list]:
        """Apply forced colors; returns the trail of set arcs, or None."""
        trail = []
        queue = list(dirty)
        while queue:
            c = queue.pop()
            get = lambda port: colors[index[c.arcs[port]]]
            for port, value in infer(c, get):
                i = index[c.arcs[port]]
                if colors[i] is None:
                    colors[i] = value
                    trail.append(i)
                    queue.extend(incident[i])
                elif colors[i] != value:
                    for j in trail:
                        colors[j] = None
                    return None
        return trail

    def pick_branch() -> Optional[int]:
        best, best_score = None, -1
        for i, v in enumerate(colors):
            if v is not None:
                continue
            score = sum(1 for c in incident[i] for port in c.ports
                        if colors[index[c.arcs[port]]] is not None)
            if score > best_score:
                best, best_score = i, score
        return best

    solutions = []

    def search():
        i = pick_branch()
        if i is None:
            solutions.append(tuple(colors))
            return
        for value in range(n):
            colors[i] = value
            trail = propagate(list(incident[i]))
            if trail is not None:
                search()
                for j in trail:
                    colors[j] = None
            colors[i] = None

    # initial propagation can only act once something is colored, so start
    # the search directly
    search()
    solutions.sort()
    return solutions


def singquandle_colorings(d: SingularDiagram,
                          s: OrientedSingquandle) -> ColoringSet:
    """All semiarc colorings satisfying the singquandle crossing rules."""
    sols = _enumerate(d, s.n, _singquandle_rules(s))
    return ColoringSet(d, s, [Coloring(v) for v in sols])


def psyquandle_colorings(d: SingularDiagram, p: Psyquandle) -> ColoringSet:
    """All semiarc colorings satisfying the psyquandle crossing rules."""
    sols = _enumerate(d, p.n, _psyquandle_rules(p))
    return ColoringSet(d, p, [Coloring(v) for v in sols])


def shadow_colorings(d: SingularDiagram, sh: ShadowStructure) -> ColoringSet:
    """All (semiarc, region) colorings for a shadow structure.

    For each base coloring the color of one region determines the rest by
    the rule left = right . f(a) across every semiarc; each choice for the
    seed region extends uniquely (or not at all on an inconsistent side
    convention, which the S-set axioms rule out).
    """
    regions = d.regions()
    sides = d.side_regions(regions)
    base = singquandle_colorings(d, sh.base)
    adjacency = []  # (left region, right region, semiarc index)
    for label, (left, right) in sides.items():
        adjacency.append((left, right, d._arc_index[label]))

    neighbors: dict = {r.id: [] for r in regions}
    for left, right, ai in adjacency:
        # crossing the semiarc from right to left applies the action
        neighbors[right].append((left, ai, +1))
        neighbors[left].append((right, ai, -1))

    out = []
    for col in base:
        for seed in range(sh.carrier):
            rc: dict = {0: seed}
            stack = [0]
            ok = True
            while stack and ok:
                r = stack.pop()
                for other, ai, direction in neighbors[r]:
                    s = col.semiarc_colors[ai]
                    value = (sh.act(rc[r], s) if direction == +1
                             else sh.act_inv(rc[r], s))
                    if other in rc:
                        if rc[other] != value:
                            ok = False
                            break
                    else:
                        rc[other] = value
                        stack.append(other)
            if ok:
                if len(rc) != len(regions):
                    raise ColoringError("region adjacency graph is disconnected")
                out.append(Coloring(col.semiarc_colors,
                                    tuple(rc[r.id] for r in regions)))
    out.sort(key=lambda c: (c.semiarc_colors, c.region_colors))
    return ColoringSet(d, sh, out)
