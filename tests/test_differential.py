"""Differential tests on generated closed singular braids.

Each property is checked against one reference that does not run the code
it checks.

- Seeded braids on 2 to 4 strands with at most 12 semiarcs, P, N and S
  letters mixed freely (so mixed-sign chains too), written out by the
  benchmark's generator ``bench/gen.py``: each search is compared with a
  brute-force oracle of ``conftest.py``, and each aggregation with its
  per-coloring loop, written below and run over the oracle's colorings.
- Those braids, the benchmark's braid pool and its link family, each kept
  beside its braid word: the search, over every bundled structure it
  serves and ten singquandles of order 3 from conftest's enumeration, is
  compared with ``verify.braid_colorings``, which derives the colorings of
  a closed braid from its word alone.  phi-ssqp and SP, with
  their tags kept per structure object and the diagrams read in either
  order, are compared with the per-coloring loops over those colorings.
- The same diagrams, every bundled corpus diagram (the pokes too), two
  kink diagrams and twelve large braids: the search planner is compared
  with ``reference_plan``, which fires every propagator as a step, less
  the steps whose relation is already established at their crossing.

The benchmark's checker ``bench/verify.py`` holds the one written-out check
of a crossing's relations that the tests and the benchmark share: the
oracles read crossings through it, each coloring a search emits is checked
by it, and the search's propagators, derived from ``RELATIONS``, are
required to hold, over every coloring of a crossing's ports, exactly where
it accepts.  The weight of each coloring, read at each crossing's E2 in
``RELATIONS``, is compared with the weight read at conftest's
``WEIGHT_PORTS``.  A change of how a crossing is read edits ``RELATIONS``,
that checker and ``WEIGHT_PORTS``, and no copy of earlier search code.
The orbits and permutations the search keeps are pinned for every bundled
structure.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from singq import coloring, invariants
from singq.algebra import (OperationTable, OrientedSingquandle,
                           affine_singquandle, kept, shadow_closure,
                           substructure_closure)
from singq.coloring import (E1, E2, H1, H2, RULES, _enumerate, _establish,
                            _plan, _tables, psyquandle_colorings,
                            psyquandle_tuples, shadow_colorings,
                            shadow_tuples, singquandle_colorings,
                            singquandle_tuples)
from singq.data import fixture_names, load_algebra
from singq.diagram import parse_diagram
from singq.invariants import (InvariantValue, WeightPair, boltzmann_single,
                              boltzmann_two, phi_ssqp,
                              shadow_polynomial_invariant, ssqp, state_sum,
                              subsp)
from singq.solver import solve_cocycle_space

from conftest import (STRUCTURES, accepted, assert_colorings_satisfy,
                      brute_force_psyquandle, brute_force_shadow,
                      brute_force_singquandle, checker_tables, class_sample,
                      gen, singquandle, verify, weight_parts)

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

def reference_state_sum(d, s, cp):
    red = (lambda v: v % cp.modulus) if cp.modulus else (lambda v: v)
    return InvariantValue(Counter(
        red(u + v)
        for u, v in zip(*weight_parts(d, brute_force_singquandle(d, s), cp))))


def reference_phi_ssqp(s, colorings):
    """phi-ssqp over ``colorings``, semiarc color tuples."""
    return InvariantValue(Counter(
        ssqp(substructure_closure(s, set(colors)), s) for colors in colorings))


def reference_SP(sh, colorings):
    """SP over ``colorings``, (semiarc colors, region colors) pairs."""
    exponents = []
    for colors, region_colors in colorings:
        image = substructure_closure(sh.base, set(colors))
        shadow_image = shadow_closure(sh, set(region_colors), image)
        exponents.append(subsp(shadow_image, image, sh))
    return InvariantValue(Counter(exponents))


def reference_boltzmann_totals(d, p, bp):
    return zip(*weight_parts(d, brute_force_psyquandle(d, p), bp))


def test_state_sum(braids, z6, z6_cocycle, z8k, z8k_cocycle):
    for s, cp in ((z6, z6_cocycle), (z8k, z8k_cocycle)):
        for k, d in enumerate(braids):
            assert state_sum(d, s, cp) == reference_state_sum(d, s, cp), \
                (s.n, k)


def test_phi_ssqp(braids, z6, z8k, z8_z6_shadow):
    for s in (z6, z8k, z8_z6_shadow.base):
        for k, d in enumerate(braids):
            assert phi_ssqp(d, s) == \
                reference_phi_ssqp(s, brute_force_singquandle(d, s)), (s.n, k)


def test_SP(braids, z8_z6_shadow, z8_z4_shadow_a, z8_z4_shadow_b):
    for sh in (z8_z6_shadow, z8_z4_shadow_a, z8_z4_shadow_b):
        for k, d in enumerate(braids):
            assert shadow_polynomial_invariant(d, sh) == \
                reference_SP(sh, brute_force_shadow(d, sh)), (sh.carrier, k)


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
    search level, a step being (x, y, table, out, check, crossing,
    relation) over semiarc indices.  Each propagator fires once, at the
    level where both its inputs are colored; it checks ``out`` if that is
    colored by then.  Each level branches on the semiarc whose coloring
    fires the most propagators (then the most checks, then the lowest
    index), which keeps the levels, and so the search tree, small."""
    props = []
    watch = [[] for _ in d.semiarcs]   # semiarc -> propagators reading it
    for c, (kind, *ports) in enumerate(d.compiled):
        for x, y, table, out, relation in rules[kind]:
            for i in {ports[x], ports[y]}:
                watch[i].append(len(props))
            props.append((ports[x], ports[y], table, ports[out], c, relation))

    def spread(branch: int, known: list, fired: list) -> list:
        """Color ``branch`` and propagate, updating ``known`` and ``fired``;
        returns the steps taken."""
        known[branch] = True
        steps = []
        queue = [branch]
        while queue:
            for k in watch[queue.pop()]:
                x, y, table, out, c, relation = props[k]
                if fired[k] or not (known[x] and known[y]):
                    continue
                fired[k] = True
                steps.append((x, y, table, out, known[out], c, relation))
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


def drop_implied(plan: list) -> list:
    """``plan`` of :func:`reference_plan` less each step whose relation is
    already established at its crossing (an exact inverse of a step kept,
    which checks ports already colored and cannot fail), each step kept
    without its crossing and relation."""
    have = Counter()   # crossing -> relations established there
    pruned = []
    for branch, steps in plan:
        level = []
        for *step, c, relation in steps:
            if not have[c] & relation:
                have[c] = _establish(have[c], relation)
                level.append(tuple(step))
        pruned.append((branch, level))
    return pruned


@pytest.fixture(scope="module")
def words():
    """(strands, word) of the 40 braids, then of the benchmark's braid pool
    and its link family."""
    return ([braid(seed) for seed in range(BRAIDS)]
            + gen.braid_pool() + gen.link_family())


@pytest.fixture(scope="module")
def planned(braids, words):
    """The closures of ``words``: the 40 braids, then the pool and the link
    family, each parsed afresh."""
    return braids + [parse_diagram(gen.closure_text(*w))
                     for w in words[BRAIDS:]]


# one semiarc on both inputs of a propagator: the over-arc rule of a kink
# reads its over arc twice, and the trial of that arc re-derives it
KINKS = ["P a b b a\nP c d d c", "S a b b a\nN c d d c"]


@pytest.fixture(scope="module")
def exact(planned, corpus):
    """The diagrams of ``planned``, every bundled corpus diagram (the
    pokes too) and the two kink diagrams of ``KINKS``."""
    return (planned + list(corpus.values())
            + [parse_diagram(text) for text in KINKS])


def large_braid(seed: int):
    """A closed braid on 5-7 strands with 40-100 crossings, every strand
    position used."""
    rng = random.Random(seed)
    strands, crossings = rng.randint(5, 7), rng.randint(40, 100)
    positions = gen._covering_positions(rng, strands, crossings)
    return strands, [(rng.choice("PNS"), j) for j in positions]


@pytest.fixture(scope="module")
def large():
    """The closures of ``large_braid`` for seeds 0 to 11."""
    return [parse_diagram(gen.closure_text(*large_braid(seed)))
            for seed in range(12)]


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
def test_plan_drops_only_implied_steps(exact, large, notion, most):
    """On ``exact`` and the large braids, at most ``most`` steps per
    crossing and two per crossing on the whole (one per equation)."""
    rules = RULES[notion]
    for k, d in enumerate(exact + large):
        plan = _plan(d, rules)
        sources = {}
        for c, (kind, *ports) in enumerate(d.compiled):
            for x, y, slot, out, _ in rules[kind]:
                key = ports[x], ports[y], slot, ports[out]
                sources.setdefault(key, set()).add(c)
        steps = [step[:4] for _, level in plan for step in level]
        assert len(steps) >= 2 * d.n_crossings, k
        assert fits([sources[step] for step in steps], most), k


@pytest.mark.parametrize("notion", ["singquandle", "psyquandle"])
def test_plan_equals_reference_plan(exact, large, notion):
    """On ``exact`` and the large braids, the plan is the reference plan
    less its implied steps, so it has the same branch order and search
    tree as the planner that fires every propagator as a step."""
    rules = RULES[notion]
    for k, d in enumerate(exact + large):
        assert _plan(d, rules) == drop_implied(reference_plan(d, rules)), k


# -- the derived rules against the bench checker -----------------------------

# per notion, structures whose tables tell the readings apart: every bundled
# singquandle has star == star_inv, and Z9(4,0,1) and Z7(5,5,3) do not
CHECKED = {
    "singquandle": {"z6": STRUCTURES["z6"],
                    "Z9(4,0,1)": STRUCTURES["Z9(4,0,1)"],
                    "Z7(5,5,3)": lambda: affine_singquandle(7, 5, 5, 3),
                    "z8_k": lambda: load_algebra("z8_k.alg").structure},
    "psyquandle": {"psy6": lambda: load_algebra("psy6.alg").structure}}


@pytest.mark.parametrize("notion", ["singquandle", "psyquandle"])
def test_rules_hold_exactly_where_the_checker_does(notion):
    """Over every coloring of the four ports of each crossing kind, each
    propagator of ``RULES`` holds exactly where its equation does (a tag E1
    or E2), or with the other half of the inverse crossing map exactly
    where both equations do (H1, H2), and the equations hold together
    exactly where ``verify._satisfies`` accepts.  The tables are built once
    per structure object."""
    for label, load in CHECKED[notion].items():
        s = load()
        n, tables = s.n, _tables(s, notion)
        ports = np.indices((n,) * 4).reshape(4, -1)
        for kind, props in RULES[notion].items():
            holds = {}   # tag -> where each propagator of that tag holds
            for x, y, key, out, tag in props:
                got = np.array(tables[key])[ports[x] * n + ports[y]] == ports[out]
                holds.setdefault(tag, []).append(got)
            checker = accepted(s)[kind].reshape(-1)
            for tag in (E1, E2):
                assert all((got == holds[tag][0]).all() for got in holds[tag]), \
                    (label, kind, tag)
            assert (holds[E1][0] & holds[E2][0] == checker).all(), (label, kind)
            if notion == "psyquandle":
                assert (holds[H1][0] & holds[H2][0] == checker).all(), \
                    (label, kind)
        assert _tables(s, notion) is tables, label


def test_weight_parts_equal_literal_weight_parts(planned, corpus, z6,
                                                 z6_cocycle, psy6,
                                                 psy6_boltzmann,
                                                 psy6_boltzmann_strong):
    """The weights read at each crossing's E2 in ``RELATIONS`` are the
    weights read at the ports of conftest's ``WEIGHT_PORTS``, coloring by
    coloring, on the corpus, the pool and the link family: over z6 with its
    cocycle pair, over Z7(5,5,3), where star and star_inv differ, with a
    pair of its cocycle space, and over psy6 with both Boltzmann pairs."""
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
                weight_parts(d, search(d, s), pair), (k, j)


# -- kept tags against the per-coloring loops, in both orders ----------------

def braid_oracle(strands: int, word, d, s) -> list:
    """The colorings ``verify.braid_colorings`` derives from the word of
    ``d`` over the singquandle or psyquandle ``s``."""
    return verify.braid_colorings(strands, word, checker_tables(s),
                                  [a.label for a in d.semiarcs])


def tagged_structures() -> list:
    """(label, structure, shadow) for phi-ssqp over z6, z8_k and the base
    of z8_z6_shadow, and for SP (``shadow``) over z8_z6_shadow, each loaded
    into new objects."""
    z6, z8k, sh = (load_algebra(name).structure for name in
                   ("z6_singquandle.alg", "z8_k.alg", "z8_z6_shadow.alg"))
    return [("z6", z6, False), ("z8k", z8k, False), ("base", sh.base, False),
            ("shadow", sh, True)]


@pytest.fixture(scope="module")
def tag_references(words, planned):
    """(diagram index, label) -> the per-coloring phi-ssqp or SP of each
    diagram of ``planned`` over each tagged structure, read from the braid
    oracle's colorings (for SP, those of the base extended over the
    regions)."""
    references = {}
    for label, s, shadow in tagged_structures():
        for k, ((strands, word), d) in enumerate(zip(words, planned)):
            colorings = braid_oracle(strands, word, d,
                                     s.base if shadow else s)
            references[k, label] = (
                reference_SP(s, brute_force_shadow(d, s, colorings))
                if shadow else reference_phi_ssqp(s, colorings))
    return references


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_kept_tags_equal_reference_aggregation(planned, tag_references,
                                               order):
    """phi-ssqp and SP with the tags kept per structure object, read by
    the diagrams of ``planned`` in either order, equal the per-coloring
    loops over the braid oracle's colorings.  Each order starts from fresh
    structure objects."""
    structures = tagged_structures()
    ks = range(len(planned))
    for k in (ks if order == "forward" else reversed(ks)):
        d = planned[k]
        for label, s, shadow in structures:
            value = (shadow_polynomial_invariant(d, s) if shadow
                     else phi_ssqp(d, s))
            assert value == tag_references[k, label], (k, label)


# -- the orbit search against the braid oracle -------------------------------

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
             "z8_z4_b_base": load_algebra("z8_z4_shadow_b.alg").structure.base,
             "one": load_algebra("one.alg").structure,
             "rigid": rigid()}
    notions = {label: "psyquandle" if label == "psy6" else "singquandle"
               for label in found}
    return {label: (s, notions[label], _tables(s, notions[label]))
            for label, s in found.items()}


ORDER_THREE = 10


@pytest.fixture(scope="module")
def order_three(small_singquandles) -> list:
    """Ten classes of order 3: the six that every permutation preserves,
    three over the trivial quandle and three over the dihedral one, and two
    seeded classes over each of the trivial quandle and the one with a
    fixed point."""
    classes = small_singquandles[3]
    symmetric = {rep for rep, members in classes.items() if len(members) == 1}
    sample = sorted(symmetric | set(class_sample(classes, 2, seed=39)))
    assert len(symmetric) == 6 and len(sample) == ORDER_THREE
    return sample


@pytest.mark.parametrize("label", ["z6", "z8k", "psy6", "z8_z6_base",
                                   "z8_z4_base", "z8_z4_b_base", "one",
                                   "rigid",
                                   *(f"order3-{k}" for k in range(ORDER_THREE))])
def test_enumerate_equals_braid_colorings(words, planned, label, request):
    """The 40 braids, the pool and the link family give the colorings the
    braid oracle derives from their words, over every bundled structure
    the search serves and over ten singquandles of order 3."""
    if label.startswith("order3-"):
        k = int(label.removeprefix("order3-"))
        s = singquandle(request.getfixturevalue("order_three")[k])
        notion = "singquandle"
    else:
        s, notion, _ = searched_structures()[label]
    for k, ((strands, word), d) in enumerate(zip(words, planned)):
        assert list(_enumerate(d, s, notion)) == \
            braid_oracle(strands, word, d, s), k


def test_orbits(planned):
    """The orbits the kept symmetry gives, once a search has run, for every
    bundled structure the search serves: z6 is transitive, and the rigid
    structure has the trivial group."""
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
        "z8_z4_b_base": ((0, 4), (1, 3, 5, 7), (2, 6)),
        "one": ((0,),),
        "rigid": ((0,), (1,), (2,))}


def test_symmetry_equals_symmetry_of_literal_tables():
    """Every bundled structure the search serves gets the generators and
    orbits of its own operation tables as loaded, star, r1 and r2 or ot,
    ut, ob and ub, read with no crossing relation: the tables the rules
    read are built from these, and a permutation preserves the one set
    exactly when it preserves the other."""
    operations = {"singquandle": ("star", "r1", "r2"),
                  "psyquandle": ("ot", "ut", "ob", "ub")}
    for name in fixture_names():
        if not name.endswith(".alg"):
            continue
        s = load_algebra(name).structure
        s = getattr(s, "base", s)
        notion = "psyquandle" if hasattr(s, "ot") else "singquandle"
        literal = tuple(getattr(s, op).flat() for op in operations[notion])
        assert coloring._symmetry(s.n, tuple(_tables(s, notion).values())) \
            == coloring._symmetry(s.n, literal), name


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
