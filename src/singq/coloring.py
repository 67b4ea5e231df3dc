"""Enumeration of diagram colorings by propagate-then-branch search.

Three coloring notions over one search core: singquandle colorings of
semiarcs, psyquandle colorings of semiarcs, and shadow colorings (semiarcs
plus regions).  ``RELATIONS`` declares once how each crossing kind reads
its ports through the structure's tables, as two equations per kind and
notion.  The search rules are derived from it: propagators ``out =
table[x * n + y]`` over the crossing's ports, each a solved form of one
relation, reading flat tables passed per call.  The search runs on the
diagram's compiled crossing tuples: which semiarcs a propagator colors or
checks depends only on which are already colored, never on their colors,
so the branch order and the propagation steps below each branch are
planned once per diagram and notion, and kept on the diagram.  Each
crossing relation is evaluated once per search node where its ports are
colored; its other solved forms are skipped.

The search also uses the symmetry of the structure.  A permutation g of the
colors that preserves every table the rules read maps a coloring c to a
coloring g.c (each crossing relation holds at c's colors, so at their
images), and its inverse maps back.  Each structure object keeps, once its
first search has run, generators of a group of such permutations, its
orbits on the colors and a Schreier transversal: per color v, one group
element taking the least color of v's orbit to v.  The first search level
then tries only the least color of each orbit, and the colorings found
there are mapped through the transversal onto the rest of the orbit: a
bijection onto the colorings with that first color, so the set is exact
with no deduplication.  Any subgroup is sound, the trivial one included;
the generator search has a fixed budget, and running out of it only finds
fewer generators.

The invariants read the sorted color tuples of the ``*_tuples`` functions;
the ``*_colorings`` functions wrap them into :class:`Coloring` records.  A
diagram keeps, per notion (``singquandle``, ``psyquandle``, ``shadow``),
the last set found, a tuple, with the structure object it was found for:
every invariant over that object reuses it, and any other structure, even
an equal one, searches again.  Shadow colorings take their base colorings
from the singquandle set.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import SingqError
from .algebra import _map_codec, kept, table_profile

if TYPE_CHECKING:
    from .algebra import OrientedSingquandle, ShadowStructure
    from .diagram import SingularDiagram
    from .psyquandle import Psyquandle


class ColoringError(SingqError):
    pass


class Coloring(NamedTuple):
    semiarc_colors: tuple  # colors in diagram semiarc order
    region_colors: Optional[tuple] = None  # colors in region-id order


# -- crossing relations ------------------------------------------------------
#
# RELATIONS[notion][kind]: the equations E1 and E2 of a crossing, each
# (out, block, x, y) over port positions 0..3 (``ui oi uo oo`` at P and N,
# ``i1 i2 o1 o2`` at S): out = block(x, y), or out = x when block is None.
# E2 is the under strand's equation; a crossing's weight is read at E2's
# x and y: +phi(ui, oi) at P, -phi(uo, oi) at N (-phi(uo, oo) for a
# psyquandle) and +phi' or psi(i1, i2) at S.
# RULES[notion][kind]: propagators (x, y, table, out, relation), each a
# solved form of one relation, tagged by a bit (E1, E2, or a half H1 or H2
# of a psyquandle's inverse crossing map): once ports x and y are colored,
# port out gets, or must already have, ``tables[table][x * n + y]``.  Each
# equation is among them, so a coloring of the four ports passes every
# propagator exactly when it satisfies the crossing.

RELATIONS = {
    "singquandle": {
        "P": ((3, None, 1, None), (2, "star", 0, 1)),      # oo = oi, uo = ui * oi
        "N": ((3, None, 1, None), (0, "star", 2, 1)),      # ui = uo * oi
        "S": ((2, "r1", 0, 1), (3, "r2", 0, 1))},   # o1 = R1(i1, i2), o2 = R2(i1, i2)
    "psyquandle": {
        "P": ((3, "ot", 1, 0), (2, "ut", 0, 1)),   # oo = oi ot ui, uo = ui ut oi
        "N": ((1, "ot", 3, 2), (0, "ut", 2, 3)),   # oi = oo ot uo, ui = uo ut oo
        "S": ((2, "ob", 1, 0), (3, "ub", 0, 1))}}  # o1 = i2 ob i1, o2 = i1 ub i2

# tables with bijective columns (axiom I) -> their right inverses
_RIGHT_INVERSE = {"star": "star_inv", "ot": "ot_inv", "ut": "ut_inv",
                  "ob": "ob_inv", "ub": "ub_inv"}

E1, E2, H1, H2 = 1, 2, 4, 8


def _establish(have: int, relation: int) -> int:
    """Relations established at a crossing once ``relation`` holds too."""
    have |= relation
    if have & (E1 | E2) == E1 | E2 or have & (H1 | H2) == H1 | H2:
        return E1 | E2 | H1 | H2
    return have


def _derive(notion: str) -> dict:
    """The rules of ``notion``: each equation in its forward form (out = x
    both ways), then for a psyquandle the halves of the inverse of the
    crossing map (x, y) -> (E1, E2), x < y (axiom III), then each equation
    over a table with bijective columns solved for its x (axiom I).  A
    table is None (t[x, y] = x), a table of the structure by name, or
    (shape, half) for a half of an inverse crossing map, of shape (block1,
    swapped1, block2, swapped2): swapped if the equation reads y first."""
    rules = {}
    for kind, equations in RELATIONS[notion].items():
        props = []
        for (out, block, x, y), bit in zip(equations, (E1, E2)):
            props.append((x, x if block is None else y, block, out, bit))
            if block is None:
                props.append((out, out, None, x, bit))
        if notion == "psyquandle":
            (o1, b1, x1, y1), (o2, b2, x2, y2) = equations
            shape = (b1, x1 > y1, b2, x2 > y2)
            for half, (port, bit) in enumerate(zip(sorted((x1, y1)), (H1, H2))):
                props.append((o1, o2, (shape, half), port, bit))
        for (out, block, x, y), bit in zip(equations, (E1, E2)):
            if block in _RIGHT_INVERSE:
                props.append((out, y, _RIGHT_INVERSE[block], x, bit))
        rules[kind] = tuple(props)
    return rules


RULES = {notion: _derive(notion) for notion in RELATIONS}


def _tables(s: OrientedSingquandle | Psyquandle, notion: str) -> dict:
    """The flat table of each key ``RULES[notion]`` reads, in order of
    first reading, built once per structure object."""
    keys = dict.fromkeys(key for props in RULES[notion].values()
                         for _, _, key, _, _ in props)
    return kept(s, "tables", lambda: {key: _table(s, key) for key in keys})


def _table(s: OrientedSingquandle | Psyquandle, key) -> tuple:
    """The flat table of one key of the rules (see :func:`_derive`)."""
    n = s.n
    if key is None:
        return tuple(x for x in range(n) for _ in range(n))
    if isinstance(key, str):
        return getattr(s, key).flat()
    (b1, swap1, b2, swap2), half = key
    t1, t2 = getattr(s, b1).rows, getattr(s, b2).rows
    inverse = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            u = t1[y][x] if swap1 else t1[x][y]
            inverse[u * n + (t2[y][x] if swap2 else t2[x][y])] = (x, y)[half]
    return tuple(inverse)


def singquandle_tuples(d: SingularDiagram, s: OrientedSingquandle) -> tuple:
    """Sorted semiarc color tuples of every singquandle coloring."""
    return kept(d, "singquandle", lambda: _enumerate(d, s, "singquandle"), s)


def psyquandle_tuples(d: SingularDiagram, p: Psyquandle) -> tuple:
    """Sorted semiarc color tuples of every psyquandle coloring."""
    return kept(d, "psyquandle", lambda: _enumerate(d, p, "psyquandle"), p)


# -- search core -------------------------------------------------------------

def _plan(d: SingularDiagram, rules: dict) -> list:
    """Branch order and propagation steps: one (semiarc, steps) pair per
    search level, a step being (x, y, table, out, check) over semiarc
    indices.  Each propagator fires once, at the level where both its
    inputs are colored, and becomes a step unless its relation is already
    established at its crossing (an exact inverse of a step taken, which
    cannot fail); a step checks ``out`` if that is colored by then.  Each
    level branches on the semiarc whose coloring fires the most propagators
    (then the most checks, then the lowest index), which keeps the levels,
    and so the search tree, small.

    A level scores its free semiarcs in ascending order, each by a trial
    closure, and skips every semiarc an earlier trial of the level colored:
    it cannot win.  The closure is monotone, so if the trial of b colors
    b', b fires every propagator b' fires.  Either the closures are equal
    and b wins on its lower index, or b' fires none of the propagators that
    read b, while b fires at least one (the plan so far has fired every
    propagator whose inputs it colored), so b' fires fewer."""
    props = []
    watch = [[] for _ in d.semiarcs]   # semiarc -> (k, other input, out)
    for c, (kind, *ports) in enumerate(d.compiled):
        for x, y, table, out, relation in rules[kind]:
            x, y, out = ports[x], ports[y], ports[out]
            watch[x].append((len(props), y, out))
            if y != x:
                watch[y].append((len(props), x, out))
            props.append((x, y, table, c, relation))

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
        were colored next.  A propagator that is not a check colors exactly
        one semiarc, so checks = fired - newly colored semiarcs (the branch
        not counted): both counts depend only on the closure."""
        nonlocal trial
        trial += 1
        t = trial
        colored[branch] = t
        count = new = 0
        queue = [branch]
        while queue:
            for k, other, out in watch[queue.pop()]:
                if fired[k] >= t or colored[other] < t:
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
            for k, other, out in watch[queue.pop()]:
                if fired[k] == DONE or colored[other] != DONE:
                    continue
                fired[k] = DONE
                x, y, table, c, relation = props[k]
                if have[c] & relation:
                    continue
                have[c] = _establish(have[c], relation)
                check = colored[out] == DONE
                steps.append((x, y, table, out, check))
                if not check:
                    colored[out] = DONE
                    queue.append(out)
        return steps

    plan = []
    while True:
        free = [i for i, mark in enumerate(colored) if mark != DONE]
        if not free:
            return plan
        first = trial + 1   # the first trial of this level
        best = (-1,)
        for b in free:
            if colored[b] < first:   # no trial of this level colored b
                best = max(best, score(b))
        branch = -best[2]
        plan.append((branch, spread(branch)))


def _enumerate(d: SingularDiagram, owner: OrientedSingquandle | Psyquandle,
               notion: str) -> tuple:
    """Sorted color tuples of every semiarc coloring by the structure
    ``owner`` that passes the rules of ``notion``.  The plan is kept on the
    diagram, per notion, and the tables and their symmetry on ``owner``.
    The first level runs over the least value of each orbit only; the
    colorings found there are mapped onto each value of the orbit by its
    transversal element, a bijection onto the colorings with that first
    value."""
    n, tables = owner.n, _tables(owner, notion)
    symmetry = kept(owner, "symmetry",
                    lambda: _symmetry(n, tuple(tables.values())))
    plan = kept(d, ("plan", notion), lambda: _plan(d, RULES[notion]))
    if not plan:
        return ((),)   # no semiarcs: the one empty coloring
    plan = [(branch, [(x, y, tables[key], out, check)
                      for x, y, key, out, check in steps])
            for branch, steps in plan]
    colors = [0] * len(d.semiarcs)
    every = range(n)
    last = len(plan) - 1
    found = []   # the colorings of one orbit's least value, concatenated

    def search(first) -> None:
        """Depth first over the plan, the first level over ``first``: one
        iterator of values left per level, so no level recurses."""
        stack = [iter(first)]   # stack[level]: the values left to try there
        while stack:
            level = len(stack) - 1
            branch, steps = plan[level]
            for value in stack[level]:
                colors[branch] = value
                for x, y, table, out, check in steps:
                    v = table[colors[x] * n + colors[y]]
                    if not check:
                        colors[out] = v
                    elif colors[out] != v:
                        break
                else:
                    if level == last:
                        found.extend(colors)
                    else:
                        stack.append(iter(every))
                        break   # descend; this level resumes after
            else:
                stack.pop()

    # an orbit's colorings are mapped as one concatenated vector per value,
    # then cut into tuples
    encode, compose = _map_codec(n)
    _, images = encode(symmetry.transversal)
    solutions = []
    for orbit in symmetry.orbits:
        found.clear()
        search(orbit[:1])
        if found:
            (block,), _ = encode([found])
            for value in orbit:
                mapped = compose(block, images[value])
                solutions += zip(*[iter(mapped)] * len(colors))
    solutions.sort()
    return tuple(solutions)


# -- symmetry of the tables (see the module docstring) -----------------------

class Symmetry(NamedTuple):
    """Generators (permutations as tuples, each preserving every table),
    the orbits of the group they generate, each ascending, and per value a
    group element taking the least value of its orbit to it."""
    generators: tuple
    orbits: tuple
    transversal: tuple


# binding steps the generator search may take per set of tables, over all
# the maps it tries; a search that runs out finds fewer generators, which
# gives smaller orbits and the same colorings
_BUDGET = 2000


def _symmetry(n: int, tables: tuple) -> Symmetry:
    """Generators of a group of permutations that preserve ``tables``,
    flat n x n tables, with its orbits and a Schreier transversal.  For
    each value x least in its orbit so far, and each larger y of the same
    profile outside it, a generator taking x to y is searched for; one
    found merges the orbits, and each is checked entry by entry."""
    sig = table_profile(n, tables)
    budget = [_BUDGET]
    generators = []
    least, transversal = _schreier(n, generators)
    for x in range(n):
        if least[x] != x:
            continue
        outside = set()   # orbits known to hold no image of x
        for y in range(x + 1, n):
            if least[y] == x or least[y] in outside or sig[y] != sig[x]:
                continue
            g = _isomorphism(n, tables, sig, tables, sig, x, y, budget)
            if g is None or not _preserves(g, n, tables, n, tables):
                outside.add(least[y])
                continue
            generators.append(g)
            least, transversal = _schreier(n, generators)
    orbits = {}
    for v in range(n):
        orbits.setdefault(least[v], []).append(v)
    return Symmetry(tuple(generators), tuple(map(tuple, orbits.values())),
                    transversal)


def _schreier(n: int, generators: list) -> tuple:
    """(least, transversal): per value, the least value of its orbit under
    ``generators``, and a product of generators taking that value to it."""
    least = [-1] * n
    transversal = [None] * n
    for x in range(n):
        if least[x] >= 0:
            continue
        least[x] = x
        transversal[x] = tuple(range(n))
        orbit = [x]
        for u in orbit:   # grows as it is read: breadth first
            for g in generators:
                w = g[u]
                if least[w] < 0:
                    least[w] = x
                    transversal[w] = tuple(g[i] for i in transversal[u])
                    orbit.append(w)
    return least, tuple(transversal)


def _isomorphism(n: int, src: tuple, src_sig: list, dst: tuple,
                 dst_sig: list, x: int, y: int, budget: list) -> Optional[tuple]:
    """A bijection g taking x to y with g(s[u, v]) == t[g(u), g(v)] for
    each pair (s, t) of flat n x n tables in ``src`` and ``dst`` (profiles
    ``src_sig`` and ``dst_sig``), by backtracking: map the least unmapped
    value to each unused one of the same profile in ascending order, and
    extend the map through the tables, which fixes the image of every table
    entry over mapped values.  The first map found is the least in
    lexicographic order.  None if there is none, or if the ``budget[0]``
    binding steps left run out first."""
    g = [-1] * n     # value -> image, -1 while unmapped
    inv = [-1] * n   # image -> value
    mapped = []      # values in the order they were mapped

    def bind(a: int, b: int) -> bool:
        """Map a to b and close the map through the tables; False on a
        clash or with no budget left (``undo`` takes back what was
        mapped)."""
        if not budget[0] or inv[b] >= 0 or src_sig[a] != dst_sig[b]:
            return False
        budget[0] -= 1
        g[a], inv[b] = b, a
        mapped.append(a)
        k = len(mapped) - 1
        while k < len(mapped):
            u = mapped[k]
            k += 1
            gu = g[u]
            for v in mapped[:k]:
                gv = g[v]
                for s, t in zip(src, dst):
                    for z, w in ((s[u * n + v], t[gu * n + gv]),
                                 (s[v * n + u], t[gv * n + gu])):
                        if g[z] < 0:
                            if inv[w] >= 0 or src_sig[z] != dst_sig[w]:
                                return False
                            g[z], inv[w] = w, z
                            mapped.append(z)
                        elif g[z] != w:
                            return False
        return True

    def undo(mark: int) -> None:
        while len(mapped) > mark:
            a = mapped.pop()
            inv[g[a]] = g[a] = -1

    if not bind(x, y):
        return None
    stack = []   # per level: (value mapped there, images left, trail mark)
    while len(mapped) < n:
        a = g.index(-1)
        stack.append((a, iter(range(n)), len(mapped)))
        while True:
            a, images, mark = stack[-1]
            undo(mark)
            for b in images:
                if bind(a, b):
                    break
                undo(mark)
            else:
                stack.pop()
                if not stack:
                    return None
                continue
            break
    return tuple(g)


def _preserves(g: Sequence[int], n: int, src: tuple, m: int,
               dst: tuple) -> bool:
    """Whether g(s[x, y]) == t[g(x), g(y)] at every entry of each pair (s,
    t) of flat tables in ``src`` (n x n) and ``dst`` (m x m)."""
    return all(t[g[x] * m + g[y]] == g[s[x * n + y]]
               for s, t in zip(src, dst) for x in range(n) for y in range(n))


def shadow_tuples(d: SingularDiagram, sh: ShadowStructure) -> tuple:
    """Sorted (semiarc colors, region colors) pairs of every shadow
    coloring, region colors in region-id order.  The region adjacency graph
    must be connected and the rotations must pass the Euler check (the
    faces of a non-planar map are not the regions of a diagram).  For each
    base coloring the color of one region determines the rest, if any, by
    the rule left = right . f(a) across every semiarc."""
    return kept(d, "shadow", lambda: _shadow_search(d, sh), sh)


def _shadow_search(d: SingularDiagram, sh: ShadowStructure) -> tuple:
    regions = d.faces
    if not regions:   # None without rotations, () without crossings
        d.regions()   # raises without rotations
        raise ColoringError("diagram has no crossings, so no regions")
    neighbors = [[] for _ in regions]   # region -> (region, semiarc, table)
    for ai, (left, right) in enumerate(d.sides):
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
    if d.euler_failure:
        raise ColoringError(d.euler_failure)

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
