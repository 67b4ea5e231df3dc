"""Enumeration of diagram colorings by propagate-then-branch search.

Three coloring notions over one search core: singquandle colorings of
semiarcs, psyquandle colorings of semiarcs, and shadow colorings (semiarcs
plus regions).  Each crossing rule is a set of propagators ``out =
table[x * n + y]`` over the crossing's ports, read from flat tables passed
per call.  The search runs on the diagram's compiled crossing tuples: which
semiarcs a propagator colors or checks depends only on which are already
colored, never on their colors, so the branch order and the propagation
steps below each branch are planned once per diagram and notion, and kept
on the diagram.  Each crossing relation is evaluated once per search node
where its ports are colored; its other solved forms are skipped.

The invariants read the sorted color tuples of the ``*_tuples`` functions;
the ``*_colorings`` functions wrap them into :class:`Coloring` records.
Every invariant of a diagram over a structure is a sum over the same
coloring set, so a diagram also keeps, per notion (``singquandle``,
``psyquandle``, ``shadow``), the last set found, as a tuple that no caller
can change, with the structure it was found for.  Structures are
read-only, so the set is reused while the same structure object is asked
for again; any other structure, even an equal one, searches again and
replaces it.  Shadow colorings take their base colorings from the
singquandle set, so the base search is shared with the singquandle
invariants of the base.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from .algebra import OrientedSingquandle, ShadowStructure
    from .diagram import SingularDiagram
    from .psyquandle import Psyquandle


class ColoringError(ValueError):
    pass


class Coloring(NamedTuple):
    semiarc_colors: tuple  # colors in diagram semiarc order
    region_colors: Optional[tuple] = None  # colors in region-id order


# -- crossing rules ----------------------------------------------------------
#
# A rule maps a crossing kind to propagators (x, y, slot, out, relation)
# over port positions 0..3 (``ui oi uo oo`` or ``i1 i2 o1 o2``): once ports x
# and y are colored, port out gets, or must already have,
# ``tables[slot][x * n + y]``, the tables being passed per call.  Every
# propagator is a solved form of one crossing relation, tagged by a bit:
# each crossing imposes two equations, E1 and E2, and a psyquandle crossing
# also has the two halves H1 and H2 of its inverse pair map, which together
# are E1 and E2.  Each relation is among the propagators, so a coloring of
# all four ports passes every propagator exactly when it satisfies the
# crossing.

E1, E2, H1, H2 = 1, 2, 4, 8
ALL = E1 | E2 | H1 | H2


def _establish(have: int, relation: int) -> int:
    """Relations established at a crossing once ``relation`` holds too."""
    have |= relation
    if have & (E1 | E2) == E1 | E2 or have & (H1 | H2) == H1 | H2:
        return ALL
    return have


# tables by slot: 0 first (oo = first[oi, oi]), 1 star, 2 star^-1, 3 R1,
# 4 R2.  Over-arc (oo = oi) is E1, star (uo = ui * oi, resp. ui *^-1 oi) E2.
_OVER = ((1, 1, 0, 3, E1), (3, 3, 0, 1, E1))
SINGQUANDLE_RULES = {
    "P": _OVER + ((0, 1, 1, 2, E2), (2, 1, 2, 0, E2)),
    "N": _OVER + ((0, 1, 2, 2, E2), (2, 1, 1, 0, E2)),
    "S": ((0, 1, 3, 2, E1), (0, 1, 4, 3, E2))}

# tables by slot: the first and second components of S (0, 1) and S' (2,
# 3), of S^-1 (4, 5) and S'^-1 (6, 7), then 8 ot^-1, 9 ut^-1, 10 ob^-1,
# 11 ub^-1.  P: (oo, uo) = S(ui, oi), N: (oi, ui) = S(uo, oo), S: (o1, o2) =
# S'(i1, i2); E1 is the first component's equation, E2 the second's.
PSYQUANDLE_RULES = {
    "P": ((0, 1, 0, 3, E1), (0, 1, 1, 2, E2), (3, 2, 4, 0, H1),
          (3, 2, 5, 1, H2), (2, 1, 9, 0, E2), (3, 0, 8, 1, E1)),
    "N": ((2, 3, 0, 1, E1), (2, 3, 1, 0, E2), (1, 0, 4, 2, H1),
          (1, 0, 5, 3, H2), (1, 2, 8, 3, E1), (0, 3, 9, 2, E2)),
    "S": ((0, 1, 2, 2, E1), (0, 1, 3, 3, E2), (2, 3, 6, 0, H1),
          (2, 3, 7, 1, H2), (3, 1, 11, 0, E2), (2, 0, 10, 1, E1))}


def _shared(store: dict, name: str, owner, make):
    """The value kept in ``store`` under ``name`` if it was made for
    ``owner``, by ``is``; otherwise ``make()``, kept in its place."""
    kept = store.get(name)
    if kept is not None and kept[0] is owner:
        return kept[1]
    made = make()
    store[name] = owner, made
    return made


def singquandle_tuples(d: SingularDiagram, s: OrientedSingquandle) -> tuple:
    """Sorted semiarc color tuples of every singquandle coloring."""
    def search():
        n = s.n
        first = [x for x in range(n) for _ in range(n)]
        return _enumerate(d, n, "singquandle", (
            first, s.star.flat(), s.star_inv.flat(), s.r1.flat(),
            s.r2.flat()))

    return _shared(d.color_sets, "singquandle", s, search)


def psyquandle_tuples(d: SingularDiagram, p: Psyquandle) -> tuple:
    """Sorted semiarc color tuples of every psyquandle coloring."""
    def split(pairs):
        return [a for a, _ in pairs], [b for _, b in pairs]

    # S(x, y) = (y ot x, x ut y) and S'(x, y) = (y ob x, x ub y)
    def search():
        return _enumerate(d, p.n, "psyquandle", (
            *split(p.smap), *split(p.sprime), *split(p.smap_inv),
            *split(p.sprime_inv), p.ot_inv.flat(), p.ut_inv.flat(),
            p.ob_inv.flat(), p.ub_inv.flat()))

    return _shared(d.color_sets, "psyquandle", p, search)


RULES = {"singquandle": SINGQUANDLE_RULES, "psyquandle": PSYQUANDLE_RULES}


# -- search core -------------------------------------------------------------

def _plan(d: SingularDiagram, rules: dict) -> list:
    """Branch order and propagation steps: one (semiarc, steps) pair per
    search level, a step being (x, y, slot, out, check) over semiarc
    indices.  Each propagator fires once, at the level where both its
    inputs are colored, and becomes a step unless its relation is already
    established at its crossing (an exact inverse of a step taken, which
    cannot fail); a step checks ``out`` if that is colored by then.  Each
    level branches on the semiarc whose coloring fires the most propagators
    (then the most checks, then the lowest index), which keeps the levels,
    and so the search tree, small."""
    props = []
    watch = [[] for _ in d.semiarcs]   # semiarc -> (k, x, y, out) reading it
    for c, (kind, *ports) in enumerate(d.compiled):
        for x, y, slot, out, relation in rules[kind]:
            x, y, out = ports[x], ports[y], ports[out]
            for i in {x, y}:
                watch[i].append((len(props), x, y, out))
            props.append((slot, c, relation))

    DONE = sys.maxsize
    # colored[i] and fired[k]: the trial that colored semiarc i or fired
    # propagator k, or DONE once the plan has; trials count up from 1, so a
    # mark of an earlier trial reads as unmarked.
    colored = [0] * len(d.semiarcs)
    fired = [0] * len(props)
    have = [0] * len(d.compiled)   # relations established per crossing
    trial = 0

    def score(branch: int) -> tuple:
        """(propagators fired, checks among them, -branch) if ``branch``
        were colored next.  Both counts depend only on the closure, not on
        the order of propagation: a propagator that is not a check colors
        exactly one semiarc (one whose relation is established has all its
        ports colored), so checks = fired - newly colored semiarcs, the branch
        not counted."""
        nonlocal trial
        trial += 1
        t = trial
        colored[branch] = t
        count = new = 0
        queue = [branch]
        while queue:
            for k, x, y, out in watch[queue.pop()]:
                if fired[k] >= t or colored[x] < t or colored[y] < t:
                    continue
                fired[k] = t
                count += 1
                if colored[out] < t:
                    colored[out] = t
                    new += 1
                    queue.append(out)
        return count, count - new, -branch

    def spread(branch: int) -> list:
        """Color ``branch`` and propagate, marking what is colored and
        fired DONE and updating ``have``; returns the steps taken."""
        colored[branch] = DONE
        steps = []
        queue = [branch]
        while queue:
            for k, x, y, out in watch[queue.pop()]:
                if fired[k] == DONE or colored[x] != DONE or colored[y] != DONE:
                    continue
                fired[k] = DONE
                slot, c, relation = props[k]
                if have[c] & relation:
                    continue
                have[c] = _establish(have[c], relation)
                check = colored[out] == DONE
                steps.append((x, y, slot, out, check))
                if not check:
                    colored[out] = DONE
                    queue.append(out)
        return steps

    plan = []
    while True:
        free = [i for i, mark in enumerate(colored) if mark != DONE]
        if not free:
            return plan
        branch = max(free, key=score)
        plan.append((branch, spread(branch)))


def _enumerate(d: SingularDiagram, n: int, notion: str, tables: tuple) -> tuple:
    """Sorted color tuples of every semiarc coloring that passes the rules
    of ``notion``, reading ``tables`` by slot.  The plan is kept on the
    diagram, per notion."""
    plan = d.plans.get(notion)
    if plan is None:
        plan = d.plans[notion] = _plan(d, RULES[notion])
    plan = [(branch, [(x, y, tables[slot], out, check)
                      for x, y, slot, out, check in steps])
            for branch, steps in plan]
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
    return tuple(solutions)


def shadow_tuples(d: SingularDiagram, sh: ShadowStructure) -> tuple:
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
    return _shared(d.color_sets, "shadow", sh, lambda: _shadow_search(d, sh))


def _shadow_search(d: SingularDiagram, sh: ShadowStructure) -> tuple:
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
    problem = d.euler_problem(regions)
    if problem:
        raise ColoringError(problem)

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
    return tuple(out)


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
