"""Differential tests of the exhaustive axiom validators.

The validators compose rows and columns of the operation tables as whole
maps.  The per-instance loops they replaced are kept below as references;
every report, witnesses included, must equal the reference's, on the
bundled structures, on generated affine singquandles up to order 67 and on
seeded random and perturbed tables of orders 1 to 7.
"""

import math
import random
from pathlib import Path

import pytest

from singq.algebra import (OperationTable, OrientedSingquandle, Psyquandle,
                           ShadowStructure, ValidationReport, parse_algebra,
                           validate_psyquandle, validate_quandle,
                           validate_shadow, validate_singquandle)
from singq.data import fixture_names, load_algebra
from singq.morphisms import validate_group

from conftest import gen

ROOT = Path(__file__).resolve().parent.parent


# -- reference validators: one instance at a time -------------------------------

def ref_quandle(table):
    n = table.n
    vs = []
    for x in range(n):
        if table(x, x) != x:
            vs.append(("quandle.idempotency", (x,)))
    for y in range(n):
        if not table.column_is_bijective(y):
            vs.append(("quandle.right_invertibility", (y,)))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table(table(x, y), z) != table(table(x, z), table(y, z)):
                    vs.append(("quandle.self_distributivity", (x, y, z)))
    return ValidationReport(tuple(sorted(vs)))


def ref_singquandle(star, r1, r2):
    base = ref_quandle(star)
    if not base.valid:
        return ValidationReport(tuple(sorted(
            base.violations + (("singquandle.prerequisite_quandle", ()),))))
    n = star.n
    sinv = star.right_inverse()
    vs = []
    for x in range(n):
        for y in range(n):
            if r1(x, y) >= n or r2(x, y) >= n:
                vs.append(("singquandle.range", (x, y)))
    for x in range(n):
        for y in range(n):
            if r2(x, y) != r1(y, star(x, y)):
                vs.append(("singquandle.axiom4", (x, y)))
            if star(r1(x, y), r2(x, y)) != r2(y, star(x, y)):
                vs.append(("singquandle.axiom5", (x, y)))
            for z in range(n):
                if star(r1(sinv(x, y), z), y) != r1(x, star(z, y)):
                    vs.append(("singquandle.axiom1", (x, y, z)))
                if r2(sinv(x, y), z) != sinv(r2(x, star(z, y)), y):
                    vs.append(("singquandle.axiom2", (x, y, z)))
                if star(sinv(y, r1(x, z)), x) != sinv(star(y, r2(x, z)), z):
                    vs.append(("singquandle.axiom3", (x, y, z)))
    return ValidationReport(tuple(sorted(vs)))


def ref_group(mult):
    n = mult.n
    vs = []
    identity = None
    for e in range(n):
        if all(mult(e, x) == x and mult(x, e) == x for x in range(n)):
            identity = e
            break
    if identity is None:
        vs.append(("group.identity", ()))
    else:
        for x in range(n):
            if not any(mult(x, y) == identity and mult(y, x) == identity
                       for y in range(n)):
                vs.append(("group.inverse", (x,)))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mult(mult(x, y), z) != mult(x, mult(y, z)):
                    vs.append(("group.associativity", (x, y, z)))
    return ValidationReport(tuple(sorted(vs)))


def ref_psyquandle(ut, ot, ub, ob):
    n = ut.n
    vs = []
    for name, t in (("ut", ut), ("ot", ot), ("ub", ub), ("ob", ob)):
        for y in range(n):
            if not t.column_is_bijective(y):
                vs.append((f"psyquandle.I.{name}", (y,)))
    if vs:
        return ValidationReport(tuple(sorted(vs)))
    ubi, obi = ub.right_inverse(), ob.right_inverse()
    for x in range(n):
        if ut(x, x) != ot(x, x):
            vs.append(("psyquandle.II", (x,)))
    for name, a, b in (("S", ot, ut), ("Sprime", ob, ub)):
        seen = set()
        for x in range(n):
            for y in range(n):
                seen.add((a(y, x), b(x, y)))
        if len(seen) != n * n:
            vs.append((f"psyquandle.III.{name}", ()))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if ut(ut(x, y), ut(z, y)) != ut(ut(x, z), ot(y, z)):
                    vs.append(("psyquandle.IV.1", (x, y, z)))
                if ot(ut(x, y), ut(z, y)) != ut(ot(x, z), ot(y, z)):
                    vs.append(("psyquandle.IV.2", (x, y, z)))
                if ot(ot(x, y), ot(z, y)) != ot(ot(x, z), ut(y, z)):
                    vs.append(("psyquandle.IV.3", (x, y, z)))
                if ot(ot(x, y), ob(z, y)) != ot(ot(x, z), ub(y, z)):
                    vs.append(("psyquandle.VI.1", (x, y, z)))
                if ut(ut(x, y), ob(z, y)) != ut(ut(x, z), ub(y, z)):
                    vs.append(("psyquandle.VI.2", (x, y, z)))
                if ob(ot(x, y), ot(z, y)) != ot(ob(x, z), ut(y, z)):
                    vs.append(("psyquandle.VI.3", (x, y, z)))
                if ub(ut(x, y), ut(z, y)) != ut(ub(x, z), ot(y, z)):
                    vs.append(("psyquandle.VI.4", (x, y, z)))
                if ub(ot(x, y), ot(z, y)) != ot(ub(x, z), ut(y, z)):
                    vs.append(("psyquandle.VI.5", (x, y, z)))
                if ob(ut(x, y), ut(z, y)) != ut(ob(x, z), ot(y, z)):
                    vs.append(("psyquandle.VI.6", (x, y, z)))
    for x in range(n):
        for y in range(n):
            lhs = ub(x, obi(ot(y, x), x))
            rhs = ot(obi(ut(x, y), y), ubi(ot(y, x), x))
            if lhs != rhs:
                vs.append(("psyquandle.V.1", (x, y)))
            lhs = ub(y, obi(ut(x, y), y))
            rhs = ut(obi(ot(y, x), x), obi(ut(x, y), y))
            if lhs != rhs:
                vs.append(("psyquandle.V.2", (x, y)))
    return ValidationReport(tuple(sorted(vs)))


def ref_shadow(base, action):
    carrier = len(action)
    nS = base.n
    vs = []
    for s in range(nS):
        if len({action[x][s] for x in range(carrier)}) != carrier:
            vs.append(("shadow.bijectivity", (s,)))
    for x in range(carrier):
        for s1 in range(nS):
            for s2 in range(nS):
                lhs = action[action[x][s1]][s2]
                if lhs != action[action[x][s2]][base.star(s1, s2)]:
                    vs.append(("shadow.classical", (x, s1, s2)))
                if lhs != action[action[x][base.r1(s1, s2)]][base.r2(s1, s2)]:
                    vs.append(("shadow.singular", (x, s1, s2)))
    return ValidationReport(tuple(sorted(vs)))


# -- helpers ----------------------------------------------------------------------

def check_structure(structure):
    """Run every validator that applies to a loaded structure against its
    reference."""
    if isinstance(structure, OperationTable):
        assert validate_quandle(structure) == ref_quandle(structure)
    elif isinstance(structure, Psyquandle):
        tables = (structure.ut, structure.ot, structure.ub, structure.ob)
        assert validate_psyquandle(*tables) == ref_psyquandle(*tables)
    elif isinstance(structure, ShadowStructure):
        action = structure.action
        assert (validate_shadow(structure.base, action)
                == ref_shadow(structure.base, action))
        check_structure(structure.base)
    else:
        tables = (structure.star, structure.r1, structure.r2)
        assert validate_singquandle(*tables) == ref_singquandle(*tables)
        assert validate_quandle(structure.star) == ref_quandle(structure.star)


def affine(n, a):
    """x*y = ax + (1-a)y over Z_n, an Alexander quandle for a unit a."""
    return [[(a * x + (1 - a) * y) % n for y in range(n)] for x in range(n)]


def perturb(rows, rng, hits=1):
    """A copy of ``rows`` with ``hits`` entries moved to another value."""
    rows = [list(r) for r in rows]
    width = max(max(r) for r in rows) + 1
    for _ in range(hits):
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows[i]))
        if width > 1:
            rows[i][j] = (rows[i][j] + rng.randrange(1, width)) % width
    return rows


def random_rows(rng, n, cols=None, values=None):
    cols = n if cols is None else cols
    values = n if values is None else values
    return [[rng.randrange(values) for _ in range(cols)] for _ in range(n)]


def permutation_columns(rng, n):
    """An n x n table whose every column is a random permutation."""
    cols = []
    for _ in range(n):
        c = list(range(n))
        rng.shuffle(c)
        cols.append(c)
    return [[cols[y][x] for y in range(n)] for x in range(n)]


def quandle_star(rng, n):
    """A valid quandle table of order n: trivial or an Alexander quandle."""
    units = [a for a in range(2, n) if math.gcd(a, n) == 1]
    if not units or rng.random() < 0.2:
        return [[x] * n for x in range(n)]
    return affine(n, rng.choice(units))


def affine_base(rng, n):
    """A valid singquandle of order n (trivial maps when n < 3)."""
    if n < 3:
        first = OperationTable([[x] * n for x in range(n)])
        second = OperationTable([list(range(n))] * n)
        return OrientedSingquandle(first, second, first)
    return parse_algebra(gen.affine_alg_text(n, *gen.affine_params(rng, n))).structure


# -- bundled and generated structures ---------------------------------------------

ALGS = [name for name in fixture_names() if name.endswith(".alg")]


@pytest.mark.parametrize("name", ALGS)
def test_bundled_structure(name):
    check_structure(load_algebra(name).structure)


def test_bench_base_fixture():
    text = (ROOT / "bench" / "fixtures" / "z8_z6_base.alg").read_text()
    check_structure(parse_algebra(text).structure)


# Every order up to 20, then the orders the structures benchmark loads.
AFFINE_ORDERS = list(range(5, 21)) + [31, 47, 67]


@pytest.mark.parametrize("n", AFFINE_ORDERS)
def test_affine_singquandle(n):
    rng = random.Random(n)
    s = parse_algebra(gen.affine_alg_text(n, *gen.affine_params(rng, n))).structure
    check_structure(s)


def test_order_31_mutations_are_all_reported():
    """Exhaustive means no single changed entry goes unnoticed: a change
    to star breaks a column bijection, one to R1 or R2 breaks axiom 4."""
    rng = random.Random(31)
    s = parse_algebra(gen.affine_alg_text(31, *gen.affine_params(rng, 31))).structure
    tables = [[list(r) for r in t.rows] for t in (s.star, s.r1, s.r2)]
    for trial in range(60):
        k = trial % 3
        mutated = list(tables)
        mutated[k] = perturb(tables[k], rng)
        report = validate_singquandle(*map(OperationTable, mutated))
        assert not report.valid
        if trial < 6:
            assert report == ref_singquandle(*map(OperationTable, mutated))


# -- seeded random and perturbed tables of orders 1 to 7 ------------------------

SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_quandle_and_group_tables(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    cyclic = [[(x + y) % n for y in range(n)] for x in range(n)]
    for rows in (random_rows(rng, n), permutation_columns(rng, n),
                 quandle_star(rng, n), perturb(quandle_star(rng, n), rng),
                 cyclic, perturb(cyclic, rng, hits=rng.randint(1, 3))):
        t = OperationTable(rows)
        assert validate_quandle(t) == ref_quandle(t)
        assert validate_group(t) == ref_group(t)


@pytest.mark.parametrize("seed", SEEDS)
def test_singquandle_tables(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    valid = affine_base(rng, n)
    star = [list(r) for r in valid.star.rows]
    r1 = [list(r) for r in valid.r1.rows]
    r2 = [list(r) for r in valid.r2.rows]
    cases = [
        (star, r1, r2),
        (star, perturb(r1, rng), r2),
        (star, r1, perturb(r2, rng, hits=2)),
        (quandle_star(rng, n), random_rows(rng, n), random_rows(rng, n)),
        (perturb(star, rng), r1, r2),          # prerequisite fails
        (random_rows(rng, n), r1, r2),
    ]
    for tables in cases:
        tables = [OperationTable(t) for t in tables]
        assert validate_singquandle(*tables) == ref_singquandle(*tables)


@pytest.mark.parametrize("seed", SEEDS)
def test_psyquandle_tables(seed, psy6):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    bijective = [permutation_columns(rng, n) for _ in range(4)]
    trivial = [[x] * n for x in range(n)]
    star = quandle_star(rng, n)
    psy = [[list(r) for r in t.rows] for t in (psy6.ut, psy6.ot, psy6.ub, psy6.ob)]
    k = rng.randrange(4)
    cases = [
        bijective,
        [star, trivial, star, trivial],            # a quandle as biquandle
        [star, trivial, trivial, star],
        psy,
        [perturb(t, rng) if i == k else t for i, t in enumerate(psy)],
        # a non-bijective column stops validation after axiom (I)
        [random_rows(rng, n) if i == k else t for i, t in enumerate(bijective)],
    ]
    for tables in cases:
        tables = [OperationTable(t) for t in tables]
        assert validate_psyquandle(*tables) == ref_psyquandle(*tables)


@pytest.mark.parametrize("seed", SEEDS)
def test_shadow_tables(seed):
    rng = random.Random(seed)
    base = affine_base(rng, rng.randint(1, 7))
    n = base.n
    carrier = rng.choice([c for c in range(1, 8) if c != n])
    shift = [[(x + rng.randrange(carrier)) % carrier] * n for x in range(carrier)]
    rotate = [[(x + 1) % carrier] * n for x in range(carrier)]
    for action in (random_rows(rng, carrier, n, carrier),
                   [[x] * n for x in range(carrier)],
                   rotate, perturb(rotate, rng), shift):
        assert validate_shadow(base, action) == ref_shadow(base, action)


def test_empty_carrier_shadow(z6):
    assert validate_shadow(z6, []) == ref_shadow(z6, []) == ValidationReport()


# -- orders above 256 ---------------------------------------------------------------

def test_order_257_quandle():
    """Order 257 composes maps as tuples, not bytes.  An Alexander quandle
    is valid; with one entry changed, the reported instances are exactly
    those that read the changed entry and then fail, as the unchanged
    table satisfies every instance."""
    n = 257
    rows = affine(n, 3)
    assert validate_quandle(OperationTable(rows)) == ValidationReport()

    p, q = 5, 7
    rows[p][q] = (rows[p][q] + 1) % n
    t = OperationTable(rows)

    # every instance (x, y, z) that reads entry (p, q): z == q, or
    # (x, y) == (p, q), or (x*z, y*z) == (p, q)
    candidates = {(x, y, q) for x in range(n) for y in range(n)}
    candidates |= {(p, q, z) for z in range(n)}
    for z in range(n):
        column = [rows[x][z] for x in range(n)]
        candidates |= {(x, y, z) for x in range(n) if column[x] == p
                       for y in range(n) if column[y] == q}
    expected = sorted(
        [("quandle.self_distributivity", (x, y, z)) for x, y, z in candidates
         if rows[rows[x][y]][z] != rows[rows[x][z]][rows[y][z]]]
        + [("quandle.right_invertibility", (q,))])
    report = validate_quandle(t)
    assert report.violations == tuple(expected)
    assert len(report.violations) > 1
