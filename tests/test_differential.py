"""Differential tests on generated closed singular braids.

Seeded braids on 2 to 4 strands with at most 12 semiarcs and P, N and S
letters mixed freely (so mixed-sign chains too), written out by the
benchmark's generator ``bench/gen.py``, imported read-only.  Every search
is compared with a brute-force oracle from ``conftest.py``, each coloring
it emits is checked against every crossing relation, and every
aggregation with the per-coloring loop it replaced, kept below as the
reference and run over the oracle's colorings.  The search planner is
compared with the planner that fired every propagator as a step, on these
braids, the benchmark's braid pool and link family, every bundled corpus
diagram (the pokes too) and two kink diagrams, where one semiarc feeds both
inputs of a propagator.  On the same diagrams, and on large braids too, it
is required to give the very plans of the planner that scored every free
branch by a trial propagation over copies of its state.  The weight of
each coloring, read at each crossing's E2 in ``RELATIONS``, is compared
with the weight read at the ports written out by hand.  The tags that
phi-ssqp and SP keep per structure object are compared, with the diagrams
in either order, with the per-coloring aggregation they replaced.  The
search that tries one first-branch value per orbit of the structure's
symmetry is compared with the search over every value, kept below as the
reference, and the orbits and permutations it keeps are pinned.
"""

import importlib.util
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from singq import coloring, invariants
from singq.algebra import (OperationTable, OrientedSingquandle,
                           affine_singquandle, kept,
                           profile, shadow_closure, substructure_closure)
from singq.coloring import (RULES, _enumerate, _establish, _plan,
                            _symmetry, _tables, psyquandle_colorings,
                            psyquandle_tuples,
                            shadow_colorings, shadow_tuples,
                            singquandle_colorings, singquandle_tuples)
from singq.data import fixture_names, load_algebra
from singq.diagram import parse_diagram
from singq.invariants import (InvariantValue, WeightPair, _profile_sum,
                              boltzmann_single, boltzmann_two, phi_ssqp,
                              shadow_polynomial_invariant, ssqp, state_sum,
                              subsp)
from singq.solver import solve_cocycle_space

from conftest import (STRUCTURES, assert_colorings_satisfy,
                      brute_force_psyquandle,
                      brute_force_shadow, brute_force_singquandle)

_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

BRAIDS = 40


def braid(seed: int):
    """A closed braid word on 2-4 strands with at most 6 crossings, every
    strand position used."""
    rng = random.Random(seed)
    strands = rng.randint(2, 4)
    positions = list(range(strands - 1))
    positions += [rng.randrange(strands - 1)
                  for _ in range(rng.randint(0, 6 - len(positions)))]
    rng.shuffle(positions)
    return strands, [(rng.choice("PNS"), j) for j in positions]


@pytest.fixture(scope="module")
def braids():
    return [parse_diagram(gen.closure_text(*braid(seed)))
            for seed in range(BRAIDS)]


@pytest.fixture(scope="module")
def z8k_cocycle(z8k):
    """A seeded combination of the generators of the z8_k cocycle space."""
    space = solve_cocycle_space(z8k, 8)
    rng = random.Random(0)
    phi = [[0] * 8 for _ in range(8)]
    php = [[0] * 8 for _ in range(8)]
    for g in space.generators:
        k = rng.randrange(8)
        for x in range(8):
            for y in range(8):
                phi[x][y] += k * g.phi[x][y]
                php[x][y] += k * g.singular[x][y]
    return WeightPair.from_rows("cocycle", 8, phi, php)


def test_braids_are_mixed(braids):
    kinds = {c.kind for d in braids for c in d.crossings}
    assert kinds == {"P", "N", "S"}
    assert all(d.n_semiarcs <= 12 for d in braids)
    assert any({"P", "N"} <= {c.kind for c in d.crossings} for d in braids)


# -- searches against the brute-force oracles --------------------------------

@pytest.mark.parametrize("name", ["z6", "z8k", "z8_z6_base", "Z9(4,0,1)"])
def test_singquandle_search(braids, name, request):
    """Over the bundled singquandles, each its own right inverse, and over
    Z9(4,0,1), which is not, so that N crossings read star_inv."""
    if name == "Z9(4,0,1)":
        s = STRUCTURES[name]()
    elif name == "z8_z6_base":
        s = request.getfixturevalue("z8_z6_shadow").base
    else:
        s = request.getfixturevalue(name)
    for k, d in enumerate(braids):
        found = [c.semiarc_colors for c in singquandle_colorings(d, s)]
        assert_colorings_satisfy(d, s, found)
        assert found == brute_force_singquandle(d, s), k


def test_psyquandle_search(braids, psy6):
    for k, d in enumerate(braids):
        found = [c.semiarc_colors for c in psyquandle_colorings(d, psy6)]
        assert_colorings_satisfy(d, psy6, found)
        assert found == brute_force_psyquandle(d, psy6), k


def test_shadow_search(braids, z8_z6_shadow):
    for k, d in enumerate(braids):
        found = [(c.semiarc_colors, c.region_colors)
                 for c in shadow_colorings(d, z8_z6_shadow)]
        assert_colorings_satisfy(d, z8_z6_shadow, found)
        assert found == brute_force_shadow(d, z8_z6_shadow), k


# -- aggregations against the per-coloring loops ----------------------------

def _arc_index(d) -> dict:
    return {a.label: i for i, a in enumerate(d.semiarcs)}


def _ports(index, colors, c, *ports):
    return [colors[index[c.arcs[port]]] for port in ports]


def reference_state_sum(d, s, cp):
    index = _arc_index(d)
    red = (lambda v: v % cp.modulus) if cp.modulus else (lambda v: v)
    exponents = []
    for colors in brute_force_singquandle(d, s):
        total = 0
        for c in d.crossings:
            if c.kind == "P":
                x, y = _ports(index, colors, c, "ui", "oi")
                total += cp.phi[x][y]
            elif c.kind == "N":
                x, y = _ports(index, colors, c, "uo", "oi")
                total -= cp.phi[x][y]
            else:
                x, y = _ports(index, colors, c, "i1", "i2")
                total += cp.singular[x][y]
        exponents.append(red(total))
    return InvariantValue(Counter(exponents))


def reference_phi_ssqp(d, s):
    return InvariantValue(Counter(
        ssqp(substructure_closure(s, set(colors)), s)
        for colors in brute_force_singquandle(d, s)))


def reference_SP(d, sh):
    exponents = []
    for colors, region_colors in brute_force_shadow(d, sh):
        image = substructure_closure(sh.base, set(colors))
        shadow_image = shadow_closure(sh, set(region_colors), image)
        exponents.append(subsp(shadow_image, image, sh))
    return InvariantValue(Counter(exponents))


def reference_boltzmann_totals(d, p, bp):
    index = _arc_index(d)
    for colors in brute_force_psyquandle(d, p):
        tphi = tpsi = 0
        for c in d.crossings:
            if c.kind == "P":
                x, y = _ports(index, colors, c, "ui", "oi")
                tphi += bp.phi[x][y]
            elif c.kind == "N":
                x, y = _ports(index, colors, c, "uo", "oo")
                tphi -= bp.phi[x][y]
            else:
                x, y = _ports(index, colors, c, "i1", "i2")
                tpsi += bp.singular[x][y]
        yield tphi, tpsi


def test_state_sum(braids, z6, z6_cocycle, z8k, z8k_cocycle):
    for s, cp in ((z6, z6_cocycle), (z8k, z8k_cocycle)):
        for k, d in enumerate(braids):
            assert state_sum(d, s, cp) == reference_state_sum(d, s, cp), \
                (s.n, k)


def test_phi_ssqp(braids, z6, z8k, z8_z6_shadow):
    for s in (z6, z8k, z8_z6_shadow.base):
        for k, d in enumerate(braids):
            assert phi_ssqp(d, s) == reference_phi_ssqp(d, s), (s.n, k)


def test_SP(braids, z8_z6_shadow, z8_z4_shadow_a, z8_z4_shadow_b):
    for sh in (z8_z6_shadow, z8_z4_shadow_a, z8_z4_shadow_b):
        for k, d in enumerate(braids):
            assert (shadow_polynomial_invariant(d, sh)
                    == reference_SP(d, sh)), (sh.carrier, k)


def test_boltzmann(braids, psy6, psy6_boltzmann, psy6_boltzmann_strong):
    for k, d in enumerate(braids):
        m = psy6_boltzmann.modulus
        one = InvariantValue(Counter(
            (a + b) % m
            for a, b in reference_boltzmann_totals(d, psy6, psy6_boltzmann)))
        assert boltzmann_single(d, psy6, psy6_boltzmann) == one, k
        m = psy6_boltzmann_strong.modulus
        two = InvariantValue(Counter(
            (a % m, b % m) for a, b
            in reference_boltzmann_totals(d, psy6, psy6_boltzmann_strong)))
        assert boltzmann_two(d, psy6, psy6_boltzmann_strong) == two, k


# -- the planner against the planner that took every propagator as a step ----

def reference_plan(d, rules: dict) -> list:
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


@pytest.fixture(scope="module")
def planned(braids):
    """The 40 braids, the benchmark's braid pool and its link family, each
    diagram parsed afresh."""
    members = gen.braid_pool() + gen.link_family()
    return braids + [parse_diagram(gen.closure_text(*m)) for m in members]


# one semiarc on both inputs of a propagator: the over-arc rule of a kink
# reads its over arc twice, and the trial of that arc re-derives it
KINKS = ["P a b b a\nP c d d c", "S a b b a\nN c d d c"]


@pytest.fixture(scope="module")
def exact(planned, corpus):
    """The diagrams of ``planned``, every bundled corpus diagram (the
    pokes too) and the two kink diagrams of ``KINKS``."""
    return (planned + list(corpus.values())
            + [parse_diagram(text) for text in KINKS])


def fits(sources: list, most: int) -> bool:
    """Whether each step can be given one of its ``sources`` (the crossings
    it can come from) with no crossing given more than ``most`` steps; by
    augmenting paths, as two crossings can share every semiarc of a step."""
    owner = {}   # (crossing, place) -> step

    def give(step: int, seen: set) -> bool:
        for spot in ((c, j) for c in sources[step] for j in range(most)):
            if spot not in seen:
                seen.add(spot)
                if spot not in owner or give(owner[spot], seen):
                    owner[spot] = step
                    return True
        return False

    return all(give(step, set()) for step in range(len(sources)))


@pytest.mark.parametrize("notion, most", [("singquandle", 2),
                                          ("psyquandle", 3)])
def test_plan_drops_only_implied_steps(exact, notion, most):
    """Same branch order as the reference planner, so the same search tree;
    each level's steps a subsequence of the reference's; at most ``most``
    steps per crossing and two per crossing on the whole (one per
    equation)."""
    rules = RULES[notion]
    untagged = {kind: [prop[:4] for prop in props]
                for kind, props in rules.items()}
    for k, d in enumerate(exact):
        plan, ref = _plan(d, rules), reference_plan(d, untagged)
        assert [b for b, _ in plan] == [b for b, _ in ref], k
        for (_, steps), (_, ref_steps) in zip(plan, ref):
            rest = iter(ref_steps)
            assert all(step in rest for step in steps), k
        sources = {}
        for c, (kind, *ports) in enumerate(d.compiled):
            for x, y, slot, out, _ in rules[kind]:
                key = ports[x], ports[y], slot, ports[out]
                sources.setdefault(key, set()).add(c)
        steps = [step[:4] for _, level in plan for step in level]
        assert len(steps) >= 2 * d.n_crossings, k
        assert fits([sources[step] for step in steps], most), k


# -- the planner against the planner that scored branches on state copies ---

def parent_plan(d, rules: dict) -> list:
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
    watch = [[] for _ in d.semiarcs]   # semiarc -> propagators reading it
    for c, (kind, *ports) in enumerate(d.compiled):
        for x, y, slot, out, relation in rules[kind]:
            for i in {ports[x], ports[y]}:
                watch[i].append(len(props))
            props.append((ports[x], ports[y], slot, ports[out], c, relation))

    def spread(branch: int, known: list, fired: list, have: list) -> tuple:
        """Color ``branch`` and propagate, updating ``known``, ``fired`` and
        the relations ``have`` established per crossing; returns the steps
        taken, and the propagators fired and checks among them, implied
        ones included."""
        known[branch] = True
        steps = []
        count = checks = 0
        queue = [branch]
        while queue:
            for k in watch[queue.pop()]:
                x, y, slot, out, c, relation = props[k]
                if fired[k] or not (known[x] and known[y]):
                    continue
                fired[k] = True
                count += 1
                checks += known[out]
                if have[c] & relation:
                    continue
                have[c] = _establish(have[c], relation)
                steps.append((x, y, slot, out, known[out]))
                if not known[out]:
                    known[out] = True
                    queue.append(out)
        return steps, count, checks

    def score(branch: int) -> tuple:
        _, count, checks = spread(branch, list(known), list(fired), list(have))
        return count, checks, -branch

    known = [False] * len(d.semiarcs)
    fired = [False] * len(props)
    have = [0] * len(d.compiled)
    plan = []
    while not all(known):
        branch = max((i for i, k in enumerate(known) if not k), key=score)
        plan.append((branch, spread(branch, known, fired, have)[0]))
    return plan


def large_braid(seed: int):
    """A closed braid on 5-7 strands with 40-100 crossings, every strand
    position used."""
    rng = random.Random(seed)
    strands, crossings = rng.randint(5, 7), rng.randint(40, 100)
    positions = gen._covering_positions(rng, strands, crossings)
    return strands, [(rng.choice("PNS"), j) for j in positions]


@pytest.mark.parametrize("notion", ["singquandle", "psyquandle"])
def test_plan_equals_parent_plan(exact, notion):
    """Scoring a branch by one marking pass over its closure gives the very
    plans of scoring it by a trial propagation over copies of the state."""
    rules = RULES[notion]
    large = [parse_diagram(gen.closure_text(*large_braid(seed)))
             for seed in range(12)]
    for k, d in enumerate(exact + large):
        assert _plan(d, rules) == parent_plan(d, rules), k


# -- the derived rules against the rules written out by hand -----------------
#
# The rules and tables as written out by hand before they were derived from
# ``RELATIONS``: propagators (x, y, slot, out, relation) over the ports, and
# the flat tables by slot.  Singquandle slots: 0 first (t[x, y] = x), 1
# star, 2 star^-1, 3 R1, 4 R2.  Psyquandle slots: the first and second
# components of S(x, y) = (y ot x, x ut y) (0, 1) and S'(x, y) = (y ob x,
# x ub y) (2, 3), of S^-1 (4, 5) and S'^-1 (6, 7), then 8 ot^-1, 9 ut^-1,
# 10 ob^-1, 11 ub^-1.

E1, E2, H1, H2 = 1, 2, 4, 8
_OVER = ((1, 1, 0, 3, E1), (3, 3, 0, 1, E1))
LITERAL_RULES = {
    "singquandle": {
        "P": _OVER + ((0, 1, 1, 2, E2), (2, 1, 2, 0, E2)),
        "N": _OVER + ((0, 1, 2, 2, E2), (2, 1, 1, 0, E2)),
        "S": ((0, 1, 3, 2, E1), (0, 1, 4, 3, E2))},
    "psyquandle": {
        "P": ((0, 1, 0, 3, E1), (0, 1, 1, 2, E2), (3, 2, 4, 0, H1),
              (3, 2, 5, 1, H2), (2, 1, 9, 0, E2), (3, 0, 8, 1, E1)),
        "N": ((2, 3, 0, 1, E1), (2, 3, 1, 0, E2), (1, 0, 4, 2, H1),
              (1, 0, 5, 3, H2), (1, 2, 8, 3, E1), (0, 3, 9, 2, E2)),
        "S": ((0, 1, 2, 2, E1), (0, 1, 3, 3, E2), (2, 3, 6, 0, H1),
              (2, 3, 7, 1, H2), (3, 1, 11, 0, E2), (2, 0, 10, 1, E1))}}


def literal_tables(s, notion: str) -> tuple:
    """The flat tables of ``LITERAL_RULES[notion]`` by slot."""
    n = s.n
    if notion == "singquandle":
        return (tuple(x for x in range(n) for _ in range(n)), s.star.flat(),
                s.star_inv.flat(), s.r1.flat(), s.r2.flat())
    maps, inverses = [], []
    for a, b in ((s.ot, s.ut), (s.ob, s.ub)):
        a_flat, second = a.flat(), b.flat()
        first = tuple(a_flat[y * n + x] for x in range(n) for y in range(n))
        inv_x, inv_y = [0] * (n * n), [0] * (n * n)
        for i, (u, v) in enumerate(zip(first, second)):
            inv_x[u * n + v], inv_y[u * n + v] = divmod(i, n)
        maps += first, second
        inverses += tuple(inv_x), tuple(inv_y)
    return (*maps, *inverses, s.ot_inv.flat(), s.ut_inv.flat(),
            s.ob_inv.flat(), s.ub_inv.flat())


def read_the_same_way(props, tables, n: int) -> list:
    """Propagators or plan steps (x, y, table, out, flag) with each table
    key replaced by the flat table it reads, x and y in ascending order and
    the table transposed where they were swapped: two lists are equal
    exactly when they compute the same outs in the same order."""
    out = []
    for x, y, key, o, flag in props:
        table = tables[key]
        if x > y:
            x, y = y, x
            table = tuple(table[v * n + u] for u in range(n) for v in range(n))
        out.append((x, y, table, o, flag))
    return out


# the structures each notion's tables are compared over: every bundled
# singquandle has star == star_inv, so Z9(4,0,1), which does not, keeps the
# two from standing in for each other
REFERENCE_STRUCTURES = {
    "singquandle": (STRUCTURES["z6"], STRUCTURES["Z9(4,0,1)"],
                    lambda: load_algebra("z8_k.alg").structure),
    "psyquandle": (lambda: load_algebra("psy6.alg").structure,)}


# the kinds whose last two rules, the E2 forms of a singquandle's N crossing
# and the right-inverse forms of a psyquandle's P and S crossings, are
# derived in the other order than they were written out
SWAPPED = {("singquandle", "N"), ("psyquandle", "P"), ("psyquandle", "S")}


@pytest.mark.parametrize("notion", ["singquandle", "psyquandle"])
def test_derived_rules_equal_literal_rules(notion):
    """Each kind's rules, read through their tables, are the hand-written
    ones, in order, but for the last two of the kinds of ``SWAPPED``.  The
    singquandle N crossing is declared ``ui = star(uo, oi)``, mirroring P,
    so its forward form is the hand-written inverse one and the other way
    round.  The two psyquandle forms read no common port, so they can meet
    in one watch list only on a crossing whose ports share a semiarc; the
    plan test below covers such kinks."""
    for j, load in enumerate(REFERENCE_STRUCTURES[notion]):
        s = load()
        ours, theirs = _tables(s, notion), literal_tables(s, notion)
        for kind, props in RULES[notion].items():
            literal = list(LITERAL_RULES[notion][kind])
            if (notion, kind) in SWAPPED:
                literal[-2:] = literal[:-3:-1]
            assert read_the_same_way(props, ours, s.n) == \
                read_the_same_way(literal, theirs, s.n), (j, kind)


@pytest.mark.parametrize("notion", ["singquandle", "psyquandle"])
def test_derived_plans_equal_literal_plans(exact, notion):
    """On every diagram of ``exact`` and the 12 large braids the plans of
    the derived rules have the branches and the number of steps per level
    of the plans of the hand-written ones, and for a psyquandle their
    outs, checks and table contents too.  A singquandle's steps may
    differ: the two E2 forms of an N crossing both read oi, and where both
    fire at once the one watched first is the one taken."""
    large = [parse_diagram(gen.closure_text(*large_braid(seed)))
             for seed in range(12)]
    structures = [load() for load in REFERENCE_STRUCTURES[notion]]
    for k, d in enumerate(exact + large):
        ours = _plan(d, RULES[notion])
        theirs = _plan(d, LITERAL_RULES[notion])
        assert [(b, len(steps)) for b, steps in ours] == \
            [(b, len(steps)) for b, steps in theirs], k
        if notion == "singquandle":
            continue
        for s in structures:
            tables, literal = _tables(s, notion), literal_tables(s, notion)
            for (_, steps), (_, literal_steps) in zip(ours, theirs):
                assert read_the_same_way(steps, tables, s.n) == \
                    read_the_same_way(literal_steps, literal, s.n), k


# the weight ports as written out by hand: +phi(ui, oi) at P, -phi(uo, oo)
# at N and +singular(i1, i2) at S
def literal_weight_parts(d, colorings, pair) -> tuple:
    """The classical and the singular parts of the weight of each of
    ``colorings``, summed crossing by crossing."""
    phi, table, first, second = pair.phi, pair.singular, [], []
    for col in colorings:
        u = v = 0
        for kind, a, b, c, e in d.compiled:
            if kind == "P":
                u += phi[col[a]][col[b]]
            elif kind == "N":
                u -= phi[col[c]][col[e]]
            else:
                v += table[col[a]][col[b]]
        first.append(u)
        second.append(v)
    return first, second


def test_weight_parts_equal_literal_weight_parts(planned, corpus, z6,
                                                 z6_cocycle, psy6,
                                                 psy6_boltzmann,
                                                 psy6_boltzmann_strong):
    """The weights read at each crossing's E2 in ``RELATIONS`` are the
    weights read at the hand-written ports, coloring by coloring, on the
    corpus, the pool and the link family: over z6 with its cocycle pair,
    over Z7(5,5,3), where star and star_inv differ, with a pair of its
    cocycle space, and over psy6 with both Boltzmann pairs."""
    z7 = affine_singquandle(7, 5, 5, 3)
    cases = [(z6, z6_cocycle, "cocycle", False, singquandle_tuples),
             (z7, solve_cocycle_space(z7, 7).generators[1], "cocycle", False,
              singquandle_tuples),
             (psy6, psy6_boltzmann, "boltzmann", False, psyquandle_tuples),
             (psy6, psy6_boltzmann_strong, "boltzmann", True,
              psyquandle_tuples)]
    for k, d in enumerate(planned[BRAIDS:] + list(corpus.values())):
        for j, (s, pair, kind, strong, search) in enumerate(cases):
            assert invariants._weight_parts(d, s, pair, kind, strong) == \
                literal_weight_parts(d, search(d, s), pair), (k, j)


def test_symmetry_equals_symmetry_of_literal_tables():
    """Every bundled structure the search serves gets the generators and
    orbits it got from the hand-written tables."""
    for name in fixture_names():
        if not name.endswith(".alg"):
            continue
        s = load_algebra(name).structure
        s = getattr(s, "base", s)
        notion = "psyquandle" if hasattr(s, "ot") else "singquandle"
        assert _symmetry(s.n, tuple(_tables(s, notion).values())) == \
            _symmetry(s.n, literal_tables(s, notion)), name


# -- kept tags against the per-coloring aggregation, in both orders ----------

def parent_tally(keys, tag_of) -> InvariantValue:
    """Multiset of ``tag_of(key)`` over ``keys``, building one tag per
    distinct key."""
    counts: dict = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return InvariantValue((tag_of(key), k) for key, k in counts.items())


def parent_phi_ssqp(d, s) -> InvariantValue:
    """Multiset of ssqp(image of f) over all colorings f, rendered in u.
    The image, and so the tag, depends only on the set of colors used."""
    full = profile(s)
    images: dict = {}   # set of colors used -> its closure, the image

    def image(colors: tuple) -> frozenset:
        used = frozenset(colors)
        if used not in images:
            images[used] = substructure_closure(s, used)
        return images[used]

    return parent_tally(map(image, singquandle_tuples(d, s)),
                        lambda img: _profile_sum(img, full))


def parent_SP(d, sh) -> InvariantValue:
    """SP(L): multiset of subsp over the shadow image of each shadow
    coloring.  The image depends only on the sets of semiarc and region
    colors used."""
    images: dict = {}   # (semiarc colors, region colors) -> shadow image

    def image(pair: tuple) -> tuple:
        used = (frozenset(pair[0]), frozenset(pair[1]))
        if used not in images:
            acting = substructure_closure(sh.base, used[0])
            images[used] = (shadow_closure(sh, used[1], acting), acting)
        return images[used]

    return parent_tally(
        map(image, shadow_tuples(d, sh)),
        lambda img: subsp(*img, sh))


def tagged_structures() -> list:
    """(label, structure, shadow) for phi-ssqp over z6, z8_k and the base
    of z8_z6_shadow, and for SP (``shadow``) over z8_z6_shadow, each loaded
    into new objects."""
    z6, z8k, sh = (load_algebra(name).structure for name in
                   ("z6_singquandle.alg", "z8_k.alg", "z8_z6_shadow.alg"))
    return [("z6", z6, False), ("z8k", z8k, False), ("base", sh.base, False),
            ("shadow", sh, True)]


@pytest.fixture(scope="module")
def searched(planned):
    """The diagrams of ``planned`` and the 12 large braids, and the
    coloring set of each over each tagged structure, searched once: brute
    force is infeasible at these sizes, so both sides aggregate the
    searched tuples."""
    diagrams = planned + [parse_diagram(gen.closure_text(*large_braid(seed)))
                          for seed in range(12)]
    found = {}
    for label, s, shadow in tagged_structures():
        search = shadow_tuples if shadow else singquandle_tuples
        for k, d in enumerate(diagrams):
            found[k, label] = search(d, s)
    return diagrams, found


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_kept_tags_equal_parent_aggregation(searched, monkeypatch, order):
    """phi-ssqp and SP with the tags kept per structure object, read by
    the diagrams in either order, equal the per-coloring aggregation.
    Each order starts from fresh structure objects, and every call reads
    the tuples of ``searched``."""
    diagrams, found = searched
    structures = tagged_structures()
    label = {id(s): name for name, s, _ in structures}
    index = {id(d): k for k, d in enumerate(diagrams)}

    def lookup(d, s):
        return found[index[id(d)], label[id(s)]]

    for namespace in (vars(invariants), globals()):
        monkeypatch.setitem(namespace, "singquandle_tuples", lookup)
        monkeypatch.setitem(namespace, "shadow_tuples", lookup)
    ks = range(len(diagrams))
    for k in (ks if order == "forward" else reversed(ks)):
        d = diagrams[k]
        for name, s, shadow in structures:
            if shadow:
                assert (shadow_polynomial_invariant(d, s)
                        == parent_SP(d, s)), (k, name)
            else:
                assert phi_ssqp(d, s) == parent_phi_ssqp(d, s), (k, name)


# -- the orbit search against the search over every first value --------------

def parent_enumerate(d, n: int, notion: str, tables: dict) -> tuple:
    """Sorted color tuples of every semiarc coloring that passes the rules
    of ``notion``, reading ``tables`` by key.  The plan is kept on the
    diagram, per notion."""
    plan = kept(d, ("plan", notion), lambda: _plan(d, RULES[notion]))
    plan = [(branch, [(x, y, tables[key], out, check)
                      for x, y, key, out, check in steps])
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


def rigid():
    """A singquandle of order 3 whose tables no permutation but the
    identity preserves: the trivial quandle, with R2 the transpose of an
    R1 that has no symmetry (the axioms then hold for any R1).  Every
    element has the same profile, so the generator search, not the
    profile, has to rule the other permutations out."""
    r1 = [[1, 0, 2], [0, 0, 1], [2, 1, 1]]
    return OrientedSingquandle(OperationTable([[x] * 3 for x in range(3)]),
                               OperationTable(r1),
                               OperationTable(list(zip(*r1))))


def searched_structures() -> dict:
    """Label -> (structure, notion, its tables), each loaded afresh."""
    found = {"z6": load_algebra("z6_singquandle.alg").structure,
             "z8k": load_algebra("z8_k.alg").structure,
             "psy6": load_algebra("psy6.alg").structure,
             "z8_z6_base": load_algebra("z8_z6_shadow.alg").structure.base,
             "z8_z4_base": load_algebra("z8_z4_shadow_a.alg").structure.base,
             "rigid": rigid()}
    notions = {label: "psyquandle" if label == "psy6" else "singquandle"
               for label in found}
    return {label: (s, notions[label], _tables(s, notions[label]))
            for label, s in found.items()}


@pytest.mark.parametrize("label", ["z6", "z8k", "psy6", "z8_z6_base",
                                   "z8_z4_base", "rigid"])
def test_enumerate_equals_parent_enumerate(planned, label):
    """The 40 braids, the pool and the link family give the very tuples of
    the search over every first-branch value."""
    s, notion, tables = searched_structures()[label]
    for k, d in enumerate(planned):
        assert _enumerate(d, s, notion) == \
            parent_enumerate(d, s.n, notion, tables), k


def test_orbits(planned):
    """The orbits the kept symmetry gives, once a search has run: z6 is
    transitive, and the rigid structure has the trivial group."""
    structures = searched_structures()
    for s, notion, _ in structures.values():
        _enumerate(planned[0], s, notion)
    orbits = {label: kept(s, "symmetry", pytest.fail).orbits
              for label, (s, _, _) in structures.items()}
    assert orbits == {
        "z6": ((0, 1, 2, 3, 4, 5),),
        "z8k": ((0, 4), (1, 3, 5, 7), (2, 6)),
        "psy6": ((0, 3), (1, 2), (4, 5)),
        "z8_z6_base": ((0, 2, 4, 6), (1, 3, 5, 7)),
        "z8_z4_base": ((0, 4), (1, 3, 5, 7), (2, 6)),
        "rigid": ((0,), (1,), (2,))}


def test_kept_permutations_preserve_every_table(planned):
    """Every generator and every transversal element is a permutation that
    maps each entry of each table the search reads to an entry; each takes
    its orbit's least value to its own value."""
    for label, (s, notion, tables) in searched_structures().items():
        _enumerate(planned[0], s, notion)
        n, symmetry = s.n, kept(s, "symmetry", pytest.fail)
        for g in symmetry.generators + symmetry.transversal:
            assert sorted(g) == list(range(n)), label
            for t in tables.values():
                for x in range(n):
                    for y in range(n):
                        assert t[g[x] * n + g[y]] == g[t[x * n + y]], label
        for orbit in symmetry.orbits:
            for v in orbit:
                assert symmetry.transversal[v][orbit[0]] == v, label


def test_rigid_structure_gives_the_plain_set(braids):
    """The identity is the only permutation preserving the rigid tables
    (by trying all six), and its colorings are the brute-force oracle's."""
    s, _, tables = searched_structures()["rigid"]
    assert [g for g in itertools.permutations(range(3))
            if all(t[g[x] * 3 + g[y]] == g[t[x * 3 + y]]
                   for t in tables.values() for x in range(3)
                   for y in range(3))] \
        == [(0, 1, 2)]
    for k, d in enumerate(braids):
        found = list(singquandle_tuples(d, s))
        assert kept(s, "symmetry", pytest.fail).generators == ()
        assert_colorings_satisfy(d, s, found)
        assert found == brute_force_singquandle(d, s), k


def test_symmetry_built_once_per_structure_object(planned, monkeypatch):
    """One group per structure object, whatever the diagrams searched, the
    base of a shadow structure included; an equal but distinct object
    builds its own."""
    build = coloring._symmetry
    built = []

    def counted(n, tables):
        built.append(n)
        return build(n, tables)

    monkeypatch.setattr(coloring, "_symmetry", counted)
    z6, again = (load_algebra("z6_singquandle.alg").structure
                 for _ in range(2))
    psy6 = load_algebra("psy6.alg").structure
    shadow = load_algebra("z8_z6_shadow.alg").structure
    assert z6 == again and z6 is not again
    diagrams = [parse_diagram(d.serialize()) for d in planned[40:44]]
    for d in diagrams:
        singquandle_tuples(d, z6)
        psyquandle_tuples(d, psy6)
    assert built == [6, 6]
    for d in diagrams:
        singquandle_tuples(d, again)
    assert built == [6, 6, 6]
    symmetry = kept(again, "symmetry", pytest.fail)
    for d in diagrams:
        shadow_tuples(d, shadow)
        singquandle_tuples(d, shadow.base)
    assert built == [6, 6, 6, 8]
    assert kept(again, "symmetry", pytest.fail) is symmetry
