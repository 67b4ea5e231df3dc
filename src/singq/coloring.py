"""Enumeration of diagram colorings by propagate-then-branch search.

Three coloring notions over one search core: singquandle colorings of
semiarcs, psyquandle colorings of semiarcs, and shadow colorings (semiarcs
plus regions).  Each crossing rule is a set of propagators ``out =
table[x * n + y]`` over the crossing's ports, read from flat tables built
per call.  The search runs on the diagram's compiled crossing tuples: which
semiarcs a propagator colors or checks depends only on which are already
colored, never on their colors, so the branch order and the propagation
steps below each branch are planned once per call.

The invariants read the sorted color tuples of the ``*_tuples`` functions;
the ``*_colorings`` functions wrap them into :class:`Coloring` records.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .algebra import OrientedSingquandle, Psyquandle, ShadowStructure
from .diagram import SingularDiagram


class ColoringError(ValueError):
    pass


class Coloring(NamedTuple):
    semiarc_colors: tuple  # colors in diagram semiarc order
    region_colors: Optional[tuple] = None  # colors in region-id order


# -- crossing rules ----------------------------------------------------------
#
# A rule maps a crossing kind to propagators (x, y, table, out) over port
# positions 0..3 (``ui oi uo oo`` or ``i1 i2 o1 o2``): once ports x and y are
# colored, port out gets, or must already have, ``table[x * n + y]``.  Every
# propagator is implied by the crossing relation, and the relation itself is
# among them, so a coloring of all four ports passes every propagator
# exactly when it satisfies the crossing.

def singquandle_tuples(d: SingularDiagram, s: OrientedSingquandle) -> list:
    """Sorted semiarc color tuples of every singquandle coloring."""
    n = s.n
    star, sinv = s.star.flat(), s.star_inv.flat()
    first = [x for x in range(n) for _ in range(n)]   # oo = first[oi, oi]
    over = ((1, 1, first, 3), (3, 3, first, 1))
    return _enumerate(d, n, {
        "P": over + ((0, 1, star, 2), (2, 1, sinv, 0)),
        "N": over + ((0, 1, sinv, 2), (2, 1, star, 0)),
        "S": ((0, 1, s.r1.flat(), 2), (0, 1, s.r2.flat(), 3))})


def psyquandle_tuples(d: SingularDiagram, p: Psyquandle) -> list:
    """Sorted semiarc color tuples of every psyquandle coloring."""
    def split(pairs):
        return [a for a, _ in pairs], [b for _, b in pairs]

    # S(x, y) = (y ot x, x ut y) and S'(x, y) = (y ob x, x ub y), as flat
    # tables of their first and second components, with their inverses
    s1, s2 = split(p.smap)
    si1, si2 = split(p.smap_inv)
    sp1, sp2 = split(p.sprime)
    spi1, spi2 = split(p.sprime_inv)
    uti, oti = p.ut_inv.flat(), p.ot_inv.flat()
    # P: (oo, uo) = S(ui, oi), N: (oi, ui) = S(uo, oo),
    # S: (o1, o2) = S'(i1, i2)
    return _enumerate(d, p.n, {
        "P": ((0, 1, s1, 3), (0, 1, s2, 2), (3, 2, si1, 0), (3, 2, si2, 1),
              (2, 1, uti, 0), (3, 0, oti, 1)),
        "N": ((2, 3, s1, 1), (2, 3, s2, 0), (1, 0, si1, 2), (1, 0, si2, 3),
              (1, 2, oti, 3), (0, 3, uti, 2)),
        "S": ((0, 1, sp1, 2), (0, 1, sp2, 3), (2, 3, spi1, 0),
              (2, 3, spi2, 1), (3, 1, p.ub_inv.flat(), 0),
              (2, 0, p.ob_inv.flat(), 1))})


# -- search core -------------------------------------------------------------

def _plan(d: SingularDiagram, rules: dict) -> list:
    """Branch order and propagation steps: one (semiarc, steps) pair per
    search level, a step being (x, y, table, out, check) over semiarc
    indices.  Each propagator fires once, at the level where both its
    inputs are colored; it checks ``out`` if that is colored by then.  Each
    level branches on the semiarc whose coloring fires the most propagators
    (then the most checks, then the lowest index), which keeps the levels,
    and so the search tree, small."""
    props = []
    watch = [[] for _ in d.semiarcs]   # semiarc -> propagators reading it
    for kind, *ports in d.compiled:
        for x, y, table, out in rules[kind]:
            for i in {ports[x], ports[y]}:
                watch[i].append(len(props))
            props.append((ports[x], ports[y], table, ports[out]))

    def spread(branch: int, known: list, fired: list) -> list:
        """Color ``branch`` and propagate, updating ``known`` and ``fired``;
        returns the steps taken."""
        known[branch] = True
        steps = []
        queue = [branch]
        while queue:
            for k in watch[queue.pop()]:
                x, y, table, out = props[k]
                if fired[k] or not (known[x] and known[y]):
                    continue
                fired[k] = True
                steps.append((x, y, table, out, known[out]))
                if not known[out]:
                    known[out] = True
                    queue.append(out)
        return steps

    def score(branch: int) -> tuple:
        steps = spread(branch, list(known), list(fired))
        return len(steps), sum(step[4] for step in steps), -branch

    known = [False] * len(d.semiarcs)
    fired = [False] * len(props)
    plan = []
    while not all(known):
        branch = max((i for i, k in enumerate(known) if not k), key=score)
        plan.append((branch, spread(branch, known, fired)))
    return plan


def _enumerate(d: SingularDiagram, n: int, rules: dict) -> list:
    """Sorted color tuples of every semiarc coloring that passes ``rules``."""
    plan = _plan(d, rules)
    colors = [0] * len(d.semiarcs)
    solutions = []

    def search(level: int) -> None:
        if level == len(plan):
            solutions.append(tuple(colors))
            return
        branch, steps = plan[level]
        for value in range(n):
            colors[branch] = value
            for x, y, table, out, check in steps:
                v = table[colors[x] * n + colors[y]]
                if not check:
                    colors[out] = v
                elif colors[out] != v:
                    break
            else:
                search(level + 1)

    search(0)
    solutions.sort()
    return solutions


def shadow_tuples(d: SingularDiagram, sh: ShadowStructure) -> list:
    """Sorted (semiarc colors, region colors) pairs of every shadow
    coloring, region colors in region-id order.

    The region adjacency graph must be connected and the rotations must
    pass the Euler check (the faces of a non-planar map are not the regions
    of a diagram).  For each base coloring the color of one region
    determines the rest by the rule left = right . f(a) across every
    semiarc; each choice for the seed region extends uniquely (or not at
    all on an inconsistent side convention, which the S-set axioms rule
    out).
    """
    regions = d.regions()
    if not regions:
        raise ColoringError("diagram has no crossings, so no regions")
    neighbors = [[] for _ in regions]   # region -> (region, semiarc, table)
    for label, (left, right) in d.side_regions(regions).items():
        ai = d._arc_index[label]
        # crossing the semiarc from right to left applies the action
        neighbors[right].append((left, ai, sh.action))
        neighbors[left].append((right, ai, sh.action_inv))
    # The same steps extend every seed: each semiarc of region 0's component
    # either colors a region across it (a spanning tree) or checks one.
    steps = []   # (region, semiarc, table, other region, check)
    reached = [False] * len(regions)
    crossed = [False] * len(d.semiarcs)
    reached[0] = True
    queue = [0]
    while queue:
        r = queue.pop()
        for other, ai, table in neighbors[r]:
            if crossed[ai]:
                continue
            crossed[ai] = True
            steps.append((r, ai, table, other, reached[other]))
            if not reached[other]:
                reached[other] = True
                queue.append(other)
    if not all(reached):
        raise ColoringError("region adjacency graph is disconnected")
    v, e, f = d.n_crossings, d.n_semiarcs, len(regions)
    components = d.graph_component_count()
    if v - e + f != 2 * components:
        raise ColoringError(f"Euler check failed: V={v} E={e} F={f} "
                            f"components={components}")

    out = []
    rc = [0] * len(regions)
    for colors in singquandle_tuples(d, sh.base):
        for seed in range(sh.carrier):
            rc[0] = seed
            for r, ai, table, other, check in steps:
                v = table[rc[r]][colors[ai]]
                if not check:
                    rc[other] = v
                elif rc[other] != v:
                    break
            else:
                out.append((colors, tuple(rc)))
    out.sort()
    return out


def singquandle_colorings(d: SingularDiagram, s: OrientedSingquandle) -> list:
    """All semiarc colorings satisfying the singquandle crossing rules, as a
    sorted list."""
    return [Coloring(c) for c in singquandle_tuples(d, s)]


def psyquandle_colorings(d: SingularDiagram, p: Psyquandle) -> list:
    """All semiarc colorings satisfying the psyquandle crossing rules, as a
    sorted list."""
    return [Coloring(c) for c in psyquandle_tuples(d, p)]


def shadow_colorings(d: SingularDiagram, sh: ShadowStructure) -> list:
    """All (semiarc, region) colorings for a shadow structure, as a sorted
    list."""
    return [Coloring(*pair) for pair in shadow_tuples(d, sh)]
