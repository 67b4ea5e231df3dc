"""Shared fixtures and independent oracles for the test suite."""

import functools
import importlib.util
import itertools
import math
import random
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from singq.algebra import (OperationTable, OrientedSingquandle, Psyquandle,
                           ShadowStructure, affine_singquandle, parse_algebra)
from singq.data import (corpus_names, load_algebra, load_diagram,
                        load_weights)
from singq.invariants import (WeightPair, _cocycle_rows,
                              validate_cocycle_pair)


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


# -- the benchmark's generator and checker, loaded read-only --------------------

def _bench(name: str):
    """``bench/<name>.py`` as a module, executed from the checkout."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen, verify = _bench("gen"), _bench("verify")


# -- singquandles for the cocycle solver ----------------------------------------

def bench_affine(n):
    rng = random.Random(n)
    return parse_algebra(gen.affine_alg_text(n, *gen.affine_params(rng, n))).structure


STRUCTURES = {
    "z6": lambda: load_algebra("z6_singquandle.alg").structure,
    **{f"Z{n}({a},{b},{c})": (lambda args=(n, a, b, c):
                              affine_singquandle(*args))
       for n, a, b, c in [(4, 3, 0, 1), (6, 5, 1, 0), (8, 3, 0, 1),
                          (8, 7, 0, 1), (9, 4, 0, 1), (10, 7, 6, 5),
                          (11, 4, 1, 0)]},
    **{f"gen{n}": (lambda n=n: bench_affine(n))
       for n in (*range(5, 10), 12)},
}


# -- Smith-form oracle of the cocycle solver -------------------------------------

def prime_powers(m: int) -> list:
    """(p, e) for each prime power p^e exactly dividing m, trying every p up
    to m: slow, and sharing no code with the solver's factorisation."""
    out = []
    for p in range(2, m + 1):
        if m % p == 0 and all(p % d for d in range(2, p)):
            e = 0
            while m % p ** (e + 1) == 0:
                e += 1
            out.append((p, e))
    return out


def smith_kernel_size(rows, width, modulus):
    """|{v in Z_modulus^width : A v = 0}| for the sparse rows of A, from the
    Smith form of A over each prime-power factor of the modulus.

    Over Z_{p^e} an entry of least p-adic valuation v divides every other
    entry, so it clears its row and column and contributes p^v solutions;
    each column left all zero contributes p^e.  This shares no code with the
    solver's elimination.
    """
    size = 1
    for p, e in prime_powers(modulus):
        q = p ** e
        a = np.zeros((len(rows), width), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, c in row.items():
                a[i, j] = (a[i, j] + c) % q
        while True:
            a = a[a.any(axis=1)]
            for low in range(e):
                off = a % p ** (low + 1) != 0
                if off.any():
                    break
            else:
                break
            i, j = divmod(int(off.argmax()), a.shape[1])
            unit = int(a[i, j]) // p ** low
            pivot_row = a[i] * pow(unit, -1, q) % q       # a[i, j] -> p^low
            hit = np.flatnonzero(a[:, j])                 # rows to clear
            a[hit] = (a[hit] - np.outer(a[hit, j] // p ** low, pivot_row)) % q
            a = np.delete(a, j, axis=1)
            size *= p ** low
        size *= q ** a.shape[1]
    return size


@functools.cache
def _cocycle_kernel_size(s, q: int) -> int:
    return smith_kernel_size(_cocycle_rows(s), 2 * s.n * s.n, q)


def cocycle_kernel_size(s, modulus: int) -> int:
    """The number of valid (phi, phi') pairs of ``s`` mod ``modulus`` by
    ``smith_kernel_size`` of its cocycle rows, computed once per equal
    structure and prime power."""
    return math.prod(_cocycle_kernel_size(s, p ** e)
                     for p, e in prime_powers(modulus))


@functools.cache
def cocycle_verdicts_mod_2(tables: tuple) -> dict:
    """Every (phi, phi') pair mod 2 of ``singquandle(tables)``, all
    2^(2n^2) of them, mapped to whether ``validate_cocycle_pair`` accepts
    it."""
    s = singquandle(tables)
    n = s.n
    verdicts = {}
    for bits in itertools.product((0, 1), repeat=2 * n * n):
        rows = [bits[i * n:(i + 1) * n] for i in range(2 * n)]
        pair = WeightPair.from_rows("cocycle", 2, rows[:n], rows[n:])
        verdicts[pair] = validate_cocycle_pair(s, pair).valid
    return verdicts


# -- every oriented singquandle of order 1, 2 and 3 ---------------------------
#
# An oriented singquandle is a quandle (X, *) with maps R1, R2: X x X -> X
# such that, with x/y the right inverse of * ((x/y)*y == x), for all x, y, z
# (Bataineh, Elhamdadi, Hajij and Youmans, JKTR 2018):
#   (1) R1(x/y, z) * y == R1(x, z*y)
#   (2) R2(x/y, z) == R2(x, z*y) / y
#   (3) (y / R1(x, z)) * x == (y * R2(x, z)) / z
#   (4) R2(x, y) == R1(y, x*y)
#   (5) R1(x, y) * R2(x, y) == R2(y, x*y)
# Axiom (4) fixes R2 by R1, so the enumeration backtracks over * and R1
# alone.  A structure is three flat n x n tables (star, r1, r2), entry (x,
# y) at x*n + y, and its class is keyed by its least relabelled tables.

AXIOMS = (
    lambda S, I, R1, R2, x, y, z: S(R1(I(x, y), z), y) == R1(x, S(z, y)),
    lambda S, I, R1, R2, x, y, z: R2(I(x, y), z) == I(R2(x, S(z, y)), y),
    lambda S, I, R1, R2, x, y, z: S(I(y, R1(x, z)), x) == I(S(y, R2(x, z)), z),
    lambda S, I, R1, R2, x, y, z: S(R1(x, y), R2(x, y)) == R2(y, S(x, y)),
)


def quandles(n: int):
    """Flat tables of every quandle on 0..n-1: idempotent, each column a
    bijection, and (x*y)*z == (x*z)*(y*z)."""
    off = [x * n + y for x in range(n) for y in range(n) if x != y]
    for values in itertools.product(range(n), repeat=len(off)):
        t = [x for x in range(n) for _ in range(n)]   # t[x*n + y] = x
        for k, v in zip(off, values):
            t[k] = v
        if (all(len(set(t[y::n])) == n for y in range(n))
                and all(t[t[x * n + y] * n + z]
                        == t[t[x * n + z] * n + t[y * n + z]]
                        for x in range(n) for y in range(n) for z in range(n))):
            yield tuple(t)


def singquandles(n: int) -> list:
    """(star, r1, r2) of every oriented singquandle on 0..n-1: per quandle,
    R1 is chosen cell by cell, and each axiom instance is checked as soon as
    every cell of R1 it reads is chosen.  Every argument of R1 and R2 in
    the axioms is made from x, y and z by * and / alone, so the cells an
    instance reads depend on the quandle only."""
    found = []
    for star in quandles(n):
        inv = [0] * (n * n)
        for x in range(n):
            for y in range(n):
                inv[star[x * n + y] * n + y] = x
        S = lambda a, b: star[a * n + b]
        I = lambda a, b: inv[a * n + b]
        # R1(a, b) is cell a*n + b of r1, and R2(a, b) = R1(b, a*b)
        due = [[] for _ in range(n * n)]   # instances by the last cell read
        for axiom in AXIOMS:
            for x, y, z in itertools.product(range(n), repeat=3):
                read = []
                axiom(S, I, lambda a, b: read.append(a * n + b) or 0,
                      lambda a, b: read.append(b * n + S(a, b)) or 0, x, y, z)
                due[max(read)].append((axiom, x, y, z))
        r1 = [0] * (n * n)
        R1 = lambda a, b: r1[a * n + b]
        R2 = lambda a, b: r1[b * n + star[a * n + b]]

        def extend(k: int) -> None:
            if k == n * n:
                found.append((star, tuple(r1),
                              tuple(R2(x, y) for x in range(n)
                                    for y in range(n))))
                return
            for v in range(n):
                r1[k] = v
                if all(axiom(S, I, R1, R2, x, y, z)
                       for axiom, x, y, z in due[k]):
                    extend(k + 1)

        extend(0)
    return found


def relabelled(tables: tuple, g) -> tuple:
    """The tables moved along the permutation g: entry (g(x), g(y)) of each
    is g of entry (x, y)."""
    n = len(g)
    source = [0] * (n * n)   # new cell -> the cell it is moved from
    for x in range(n):
        for y in range(n):
            source[g[x] * n + g[y]] = x * n + y
    return tuple(tuple(g[t[k]] for k in source) for t in tables)


def singquandle_classes(n: int) -> dict:
    """Every oriented singquandle of order n by class: the least relabelled
    tables of a class -> {member: the least permutation g, in lexicographic
    order, with relabelled(representative, g) == member}."""
    labelled = singquandles(n)
    perms = list(itertools.permutations(range(n)))
    classes = {}
    seen = set()
    for s in labelled:
        if s in seen:
            continue
        rep = min(relabelled(s, g) for g in perms)
        members = {}
        for g in perms:   # ascending, so each member keeps its least g
            members.setdefault(relabelled(rep, g), list(g))
        classes[rep] = members
        seen.update(members)
    assert seen == set(labelled)
    return classes


@pytest.fixture(scope="session")
def small_singquandles():
    """{n: singquandle_classes(n)} for n = 1, 2, 3, with its counts pinned:
    labelled structures, classes, and at order 3 the structures over each
    labelled quandle."""
    found = {n: singquandle_classes(n) for n in (1, 2, 3)}
    assert [sum(map(len, found[n].values())) for n in found] == [1, 16, 19794]
    assert [len(found[n]) for n in found] == [1, 10, 3369]
    per_quandle = Counter(member[0] for members in found[3].values()
                          for member in members)
    assert sorted(per_quandle.values(), reverse=True) == [19683, 36, 36, 36, 3]
    return found


def class_sample(classes: dict, per_quandle: int, seed: int) -> list:
    """``per_quandle`` seeded representatives of ``classes`` over each
    quandle, or all where it has fewer, in ascending order.  A
    representative's star is the least labelling of its quandle, so the
    representatives over one quandle share it."""
    by_quandle = defaultdict(list)
    for rep in classes:
        by_quandle[rep[0]].append(rep)
    rng = random.Random(seed)
    return sorted(rep for reps in by_quandle.values()
                  for rep in rng.sample(reps, min(per_quandle, len(reps))))


@functools.cache
def singquandle(tables: tuple) -> OrientedSingquandle:
    """The ``OrientedSingquandle`` of plain (star, r1, r2) flat tables, one
    object per tables."""
    n = math.isqrt(len(tables[0]))
    return OrientedSingquandle(*(OperationTable([t[i * n:(i + 1) * n]
                                                 for i in range(n)])
                                 for t in tables))


# -- brute-force coloring oracle ----------------------------------------------
#
# ``verify._satisfies`` in ``bench/verify.py`` is the one written-out check
# of a crossing's relations that the tests and the benchmark share; these
# oracles read crossings only through it.  A change of how a crossing is
# read edits ``coloring.RELATIONS``, that checker and ``WEIGHT_PORTS``.
#
# The oracle enumerates the full n^{#semiarcs} assignment space as a
# progressively filtered cartesian product: arcs are added one at a time and
# every crossing is applied as soon as its four ports are assigned, by
# looking their colors up in the n^4 table of the port colorings the checker
# accepts.  The surviving rows are exactly the assignments the checker
# accepts, so the result equals naive generate-and-test while staying
# tractable.

def checker_tables(s) -> dict:
    """The checker's plain tables of a singquandle or psyquandle."""
    if isinstance(s, Psyquandle):
        return verify.psyquandle_tables(s)
    return verify.singquandle_tables(s)


@functools.cache
def accepted(s) -> dict:
    """Per crossing kind, the boolean array, indexed by the colors of the
    four ports in port order (``ui oi uo oo`` or ``i1 i2 o1 o2``), of the
    port colorings ``verify._satisfies`` accepts for ``s``.  Built once per
    structure (per equal singquandle, per psyquandle object)."""
    tables, shape = checker_tables(s), (s.n,) * 4
    return {kind: np.array([verify._satisfies(tables, kind, range(4), col)
                            for col in itertools.product(range(s.n), repeat=4)]
                           ).reshape(shape)
            for kind in "PNS"}


def _oracle(diagram, s):
    crossings = verify._crossing_indices(diagram)
    order = list(dict.fromkeys(i for _, ports in crossings for i in ports))
    pos = {arc: k for k, arc in enumerate(order)}
    pending = [(max(pos[i] for i in ports), kind, [pos[i] for i in ports])
               for kind, ports in crossings]

    tables, n = accepted(s), s.n
    rows = np.zeros((1, 0), dtype=np.int64)
    for k in range(len(order)):
        new_col = np.tile(np.arange(n), rows.shape[0]).reshape(-1, 1)
        rows = np.hstack([np.repeat(rows, n, axis=0), new_col])
        for ready_at, kind, cols in pending:
            if ready_at == k:
                rows = rows[tables[kind][tuple(rows[:, cols].T)]]
    # back to diagram arc order
    return sorted(map(tuple, rows[:, [pos[arc] for arc in sorted(pos)]].tolist()))


def brute_force_singquandle(diagram, s):
    """Sorted semiarc color tuples of every singquandle coloring."""
    return _oracle(diagram, s)


def brute_force_psyquandle(diagram, p):
    """Sorted semiarc color tuples of every psyquandle coloring."""
    return _oracle(diagram, p)


def brute_force_shadow(diagram, sh, base_colorings=None):
    """Sorted (semiarc colors, region colors) pairs: ``base_colorings``
    (semiarc color tuples; by default the base oracle's colorings) extended
    by a filtered product over the regions, with left == right . s across
    every semiarc of color s."""
    m = diagram.n_semiarcs
    if base_colorings is None:
        base_colorings = brute_force_singquandle(diagram, sh.base)
    rows = np.array(base_colorings, dtype=np.int64).reshape(-1, m)
    action = np.array(sh.action)
    for k in range(len(diagram.regions())):
        new_col = np.tile(np.arange(sh.carrier), rows.shape[0]).reshape(-1, 1)
        rows = np.hstack([np.repeat(rows, sh.carrier, axis=0), new_col])
        for i, (left, right) in enumerate(diagram.sides):
            if max(left, right) == k:
                rows = rows[rows[:, m + left]
                            == action[rows[:, m + right], rows[:, i]]]
    return sorted((tuple(r[:m]), tuple(r[m:])) for r in rows.tolist())


def assert_colorings_satisfy(diagram, structure, colorings):
    """Assert that the checker accepts every crossing of every coloring.
    Singquandle and psyquandle colorings are tuples of semiarc colors;
    shadow colorings are (semiarc colors, region colors) pairs whose regions
    also satisfy left == right . s across each semiarc of color s."""
    shadow = isinstance(structure, ShadowStructure)
    semiarc_colors = [c[0] for c in colorings] if shadow else colorings
    assert all(len(c) == diagram.n_semiarcs for c in semiarc_colors)
    tables = checker_tables(structure.base if shadow else structure)
    assert verify.bad_colorings(diagram, tables, semiarc_colors) == 0
    if shadow:
        for colors, regions in colorings:
            for i, (left, right) in enumerate(diagram.sides):
                assert regions[left] == structure.action[regions[right]][colors[i]], \
                    (colors, regions, left, right, i)


# -- weight oracle --------------------------------------------------------------

# per crossing kind, the ports its weight term is read at and its sign:
# +phi(ui, oi) at P, -phi(uo, oo) at N and +singular(i1, i2) at S
WEIGHT_PORTS = {"P": ("ui", "oi", 1), "N": ("uo", "oo", -1),
                "S": ("i1", "i2", 1)}


def weight_parts(diagram, colorings, pair) -> tuple:
    """The classical and the singular parts of the weight of each of
    ``colorings`` (semiarc color tuples), as two lists, summed crossing by
    crossing at the ports of ``WEIGHT_PORTS``, read by label."""
    index = {a.label: i for i, a in enumerate(diagram.semiarcs)}
    terms = []   # (singular part?, x semiarc, y semiarc, sign)
    for c in diagram.crossings:
        x, y, sign = WEIGHT_PORTS[c.kind]
        terms.append((c.kind == "S", index[c.arcs[x]], index[c.arcs[y]], sign))
    first, second = [], []
    for col in colorings:
        parts = [0, 0]
        for singular, x, y, sign in terms:
            table = pair.singular if singular else pair.phi
            parts[singular] += sign * table[col[x]][col[y]]
        first.append(parts[0])
        second.append(parts[1])
    return first, second
