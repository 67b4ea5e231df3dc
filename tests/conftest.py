"""Shared fixtures and independent oracles for the test suite."""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from singq.algebra import ShadowStructure, affine_singquandle, parse_algebra
from singq.data import (corpus_names, load_algebra, load_diagram,
                        load_weights)
from singq.psyquandle import Psyquandle


@pytest.fixture(scope="session")
def z6():
    return load_algebra("z6_singquandle.alg").structure


@pytest.fixture(scope="session")
def z6_cocycle():
    return load_weights("z6_cocycle.wgt")


@pytest.fixture(scope="session")
def z8k():
    return load_algebra("z8_k.alg").structure


@pytest.fixture(scope="session")
def z8_z6_shadow():
    return load_algebra("z8_z6_shadow.alg").structure


@pytest.fixture(scope="session")
def z8_z4_shadow_a():
    return load_algebra("z8_z4_shadow_a.alg").structure


@pytest.fixture(scope="session")
def z8_z4_shadow_b():
    return load_algebra("z8_z4_shadow_b.alg").structure


@pytest.fixture(scope="session")
def psy6():
    return load_algebra("psy6.alg").structure


@pytest.fixture(scope="session")
def psy6_boltzmann():
    return load_weights("psy6_boltzmann.wgt")


@pytest.fixture(scope="session")
def psy6_boltzmann_strong():
    return load_weights("psy6_boltzmann_strong.wgt")


@pytest.fixture(scope="session")
def one_element():
    return load_algebra("one.alg").structure


@pytest.fixture(scope="session")
def corpus():
    return {name: load_diagram(name) for name in corpus_names()}


MOVE_PAIRS = [("5k6.dgm", "5k6_poke.dgm"),
              ("4_1k.dgm", "4_1k_poke.dgm"),
              ("1l1.dgm", "1l1_poke.dgm")]


# -- singquandles for the cocycle solver ----------------------------------------

_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def bench_affine(n):
    rng = random.Random(n)
    return parse_algebra(gen.affine_alg_text(n, *gen.affine_params(rng, n))).structure


STRUCTURES = {
    "z6": lambda: load_algebra("z6_singquandle.alg").structure,
    "Z8(3,0,1)": lambda: affine_singquandle(8, 3, 0, 1),
    "Z9(4,0,1)": lambda: affine_singquandle(9, 4, 0, 1),
    "Z10(7,6,5)": lambda: affine_singquandle(10, 7, 6, 5),
    "Z11(4,1,0)": lambda: affine_singquandle(11, 4, 1, 0),
    **{f"gen{n}": (lambda n=n: bench_affine(n)) for n in range(5, 10)},
}


# -- brute-force coloring oracle ----------------------------------------------
#
# Enumerates the full n^{#semiarcs} assignment space as a progressively
# filtered cartesian product: arcs are added one at a time and every
# crossing constraint is applied as soon as its four ports are assigned.
# The surviving rows are exactly the constraint-satisfying assignments, so
# the result equals naive generate-and-test while staying tractable.

def _oracle(diagram, n, predicates):
    order = []
    for _, *arcs in diagram.compiled:
        for i in arcs:
            if i not in order:
                order.append(i)
    pos = {arc: k for k, arc in enumerate(order)}

    pending = []
    for c, (_, *arcs) in zip(diagram.crossings, diagram.compiled):
        cols = {port: pos[i] for port, i in zip(c.ports, arcs)}
        ready_at = max(cols.values())
        pending.append((ready_at, c, cols))

    rows = np.zeros((1, 0), dtype=np.int64)
    for k in range(len(order)):
        m = rows.shape[0]
        rows = np.repeat(rows, n, axis=0)
        new_col = np.tile(np.arange(n), m).reshape(-1, 1)
        rows = np.hstack([rows, new_col])
        for ready_at, c, cols in pending:
            if ready_at != k:
                continue
            mask = predicates(c, {p: rows[:, i] for p, i in cols.items()})
            rows = rows[mask]
    # back to diagram arc order
    solutions = set()
    for row in rows:
        colors = [0] * len(order)
        for arc, k in pos.items():
            colors[arc] = int(row[k])
        solutions.add(tuple(colors))
    return sorted(solutions)


def brute_force_singquandle(diagram, s):
    star = np.array(s.star.rows)
    sinv = np.array(s.star_inv.rows)
    r1 = np.array(s.r1.rows)
    r2 = np.array(s.r2.rows)

    def predicates(c, v):
        if c.kind == "P":
            return (v["oo"] == v["oi"]) & (v["uo"] == star[v["ui"], v["oi"]])
        if c.kind == "N":
            return (v["oo"] == v["oi"]) & (v["uo"] == sinv[v["ui"], v["oi"]])
        return ((v["o1"] == r1[v["i1"], v["i2"]])
                & (v["o2"] == r2[v["i1"], v["i2"]]))

    return _oracle(diagram, s.n, predicates)


def brute_force_psyquandle(diagram, p):
    ut = np.array(p.ut.rows)
    ot = np.array(p.ot.rows)
    ub = np.array(p.ub.rows)
    ob = np.array(p.ob.rows)

    def predicates(c, v):
        if c.kind == "P":
            return ((v["oo"] == ot[v["oi"], v["ui"]])
                    & (v["uo"] == ut[v["ui"], v["oi"]]))
        if c.kind == "N":
            return ((v["oi"] == ot[v["oo"], v["uo"]])
                    & (v["ui"] == ut[v["uo"], v["oo"]]))
        return ((v["o1"] == ob[v["i2"], v["i1"]])
                & (v["o2"] == ub[v["i1"], v["i2"]]))

    return _oracle(diagram, p.n, predicates)


def brute_force_shadow(diagram, sh):
    """Sorted (semiarc colors, region colors) pairs: the base oracle's
    colorings extended by a filtered product over the regions, with
    left == right . s across every semiarc of color s."""
    m = diagram.n_semiarcs
    rows = np.array(brute_force_singquandle(diagram, sh.base),
                    dtype=np.int64).reshape(-1, m)
    action = np.array(sh.action)
    for k in range(len(diagram.regions())):
        new_col = np.tile(np.arange(sh.carrier), rows.shape[0]).reshape(-1, 1)
        rows = np.hstack([np.repeat(rows, sh.carrier, axis=0), new_col])
        for i, (left, right) in enumerate(diagram.sides):
            if max(left, right) == k:
                rows = rows[rows[:, m + left]
                            == action[rows[:, m + right], rows[:, i]]]
    return sorted((tuple(r[:m]), tuple(r[m:])) for r in rows.tolist())


# -- crossing relations of emitted colorings ------------------------------------

def _relations(structure):
    """Per crossing kind, a predicate on the four port colors (in the
    compiled diagram's port order) that holds when the relation does."""
    if isinstance(structure, Psyquandle):
        ut, ot, ub, ob = structure.ut, structure.ot, structure.ub, structure.ob
        return {"P": lambda ui, oi, uo, oo: oo == ot(oi, ui) and uo == ut(ui, oi),
                "N": lambda ui, oi, uo, oo: oi == ot(oo, uo) and ui == ut(uo, oo),
                "S": lambda i1, i2, o1, o2: o1 == ob(i2, i1) and o2 == ub(i1, i2)}
    star, sinv, r1, r2 = (structure.star, structure.star_inv,
                          structure.r1, structure.r2)
    return {"P": lambda ui, oi, uo, oo: oo == oi and uo == star(ui, oi),
            "N": lambda ui, oi, uo, oo: oo == oi and uo == sinv(ui, oi),
            "S": lambda i1, i2, o1, o2: o1 == r1(i1, i2) and o2 == r2(i1, i2)}


def assert_colorings_satisfy(diagram, structure, colorings):
    """Assert that every coloring satisfies every crossing relation of the
    compiled diagram.  Singquandle and psyquandle colorings are tuples of
    semiarc colors; shadow colorings are (semiarc colors, region colors)
    pairs whose regions also satisfy left == right . s across each semiarc
    of color s."""
    shadow = isinstance(structure, ShadowStructure)
    relations = _relations(structure.base if shadow else structure)
    for coloring in colorings:
        colors, regions = coloring if shadow else (coloring, None)
        assert len(colors) == diagram.n_semiarcs, coloring
        for kind, *arcs in diagram.compiled:
            assert relations[kind](*(colors[i] for i in arcs)), (coloring, kind, arcs)
        if shadow:
            for i, (left, right) in enumerate(diagram.sides):
                assert regions[left] == structure.action[regions[right]][colors[i]], \
                    (coloring, left, right, i)
