"""Shared fixtures and independent oracles for the test suite."""

import functools
import importlib.util
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from singq.algebra import ShadowStructure, affine_singquandle, parse_algebra
from singq.data import (corpus_names, load_algebra, load_diagram,
                        load_weights)
from singq.psyquandle import Psyquandle
from singq.solver import _cocycle_rows


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
