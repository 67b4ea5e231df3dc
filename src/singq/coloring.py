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


def singquandle_tuples(d: SingularDiagram, s: OrientedSingquandle) -> tuple:
    """Sorted semiarc color tuples of every singquandle coloring."""
    return kept(d, "singquandle", lambda: _enumerate(
        d, s, "singquandle", _singquandle_tables(s)), s)


def psyquandle_tuples(d: SingularDiagram, p: Psyquandle) -> tuple:
    """Sorted semiarc color tuples of every psyquandle coloring."""
    return kept(d, "psyquandle", lambda: _enumerate(
        d, p, "psyquandle", _psyquandle_tables(p)), p)


def _singquandle_tables(s: OrientedSingquandle) -> tuple:
    """The flat tables of ``SINGQUANDLE_RULES``, by slot, built once per
    structure object."""
    n = s.n
    return kept(s, "tables", lambda: (
        tuple(x for x in range(n) for _ in range(n)), s.star.flat(),
        s.star_inv.flat(), s.r1.flat(), s.r2.flat()))


def _psyquandle_tables(p: Psyquandle) -> tuple:
    """The flat tables of ``PSYQUANDLE_RULES``, by slot, built once per
    structure object: the two components of S(x, y) = (y ot x, x ut y)
    and S'(x, y) = (y ob x, x ub y), then of their inverses, then the
    right inverses."""
    def make() -> tuple:
        n = p.n
        maps, inverses = [], []
        for a, b in ((p.ot, p.ut), (p.ob, p.ub)):
            a_flat, second = a.flat(), b.flat()
            first = tuple(a_flat[y * n + x] for x in range(n) for y in range(n))
            inv_x, inv_y = [0] * (n * n), [0] * (n * n)
            for i, (u, v) in enumerate(zip(first, second)):
                inv_x[u * n + v], inv_y[u * n + v] = divmod(i, n)
            maps += first, second
            inverses += tuple(inv_x), tuple(inv_y)
        return (*maps, *inverses, p.ot_inv.flat(), p.ut_inv.flat(),
                p.ob_inv.flat(), p.ub_inv.flat())
    return kept(p, "tables", make)


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
    and so the search tree, small.

    A level scores its free semiarcs in ascending order, each by a trial
    closure, and skips every semiarc that an earlier trial of the level
    colored (its mark is that trial's): it cannot win.  The closure is
    forward chaining over two-premise rules, so it is monotone.  Say the
    trial of b colors b'.  Then the closure of b' lies inside that of b,
    and every propagator b' fires, b fires too.  If the closure of b' holds
    b, the two closures are equal, so both counts are equal and b wins on
    its lower index.  If it does not, b' fires none of the propagators that
    read b, and b fires at least one (the first propagator of any trial
    reads the branch, as the plan so far has fired every propagator whose
    inputs it colored), so b' fires fewer.  Either way b' ranks below b, so
    the plan is unchanged."""
    props = []
    watch = [[] for _ in d.semiarcs]   # semiarc -> (k, other input, out)
    for c, (kind, *ports) in enumerate(d.compiled):
        for x, y, slot, out, relation in rules[kind]:
            x, y, out = ports[x], ports[y], ports[out]
            watch[x].append((len(props), y, out))
            if y != x:
                watch[y].append((len(props), x, out))
            props.append((x, y, slot, c, relation))

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
                x, y, slot, c, relation = props[k]
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
        first = trial + 1   # the first trial of this level
        best = (-1,)
        for b in free:
            if colored[b] < first:   # no trial of this level colored b
                best = max(best, score(b))
        branch = -best[2]
        plan.append((branch, spread(branch)))


def _enumerate(d: SingularDiagram, owner: OrientedSingquandle | Psyquandle,
               notion: str, tables: tuple) -> tuple:
    """Sorted color tuples of every semiarc coloring by the structure
    ``owner`` that passes the rules of ``notion``, reading ``tables`` by
    slot.  The plan is kept on the diagram, per notion, and the symmetry of
    the tables on ``owner``.  The first level runs over the least value of
    each orbit only; the colorings found there are mapped onto each value
    of the orbit by its transversal element, a bijection onto the colorings
    with that first value."""
    n = owner.n
    symmetry = kept(owner, "symmetry", lambda: _symmetry(n, tables))
    plan = kept(d, ("plan", notion), lambda: _plan(d, RULES[notion]))
    if not plan:
        return ((),)   # no semiarcs: the one empty coloring
    plan = [(branch, [(x, y, tables[slot], out, check)
                      for x, y, slot, out, check in steps])
            for branch, steps in plan]
    colors = [0] * len(d.semiarcs)
    every = range(n)
    found = []   # the colorings of one orbit's least value, concatenated

    def search(level: int, values) -> None:
        if level == len(plan):
            found.extend(colors)
            return
        branch, steps = plan[level]
        for value in values:
            colors[branch] = value
            for x, y, table, out, check in steps:
                v = table[colors[x] * n + colors[y]]
                if not check:
                    colors[out] = v
                elif colors[out] != v:
                    break
            else:
                search(level + 1, every)

    # an orbit's colorings are mapped as one concatenated vector per value,
    # then cut into tuples
    encode, compose = _map_codec(n)
    _, images = encode(symmetry.transversal)
    solutions = []
    for orbit in symmetry.orbits:
        found.clear()
        search(0, orbit[:1])
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
    coloring, region colors in region-id order.

    The region adjacency graph must be connected and the rotations must
    pass the Euler check (the faces of a non-planar map are not the regions
    of a diagram).  For each base coloring the color of one region
    determines the rest by the rule left = right . f(a) across every
    semiarc; each choice for the seed region extends uniquely (or not at
    all on an inconsistent side convention, which the S-set axioms rule
    out).
    """
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
