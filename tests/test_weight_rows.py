"""Differential test of the weight-pair axiom systems.

Each system is written once, as tagged rows that the validators evaluate.
The loop validators those rows replaced are kept below, verbatim, as the
reference: on bundled pairs, solver generators, seeded random pairs and
one-entry perturbations of them, the reports must be equal element for
element and the axiom (IV) verdicts must agree.
"""

import random

import pytest

from singq.algebra import ValidationReport, affine_singquandle
from singq.data import load_algebra, load_weights
from singq.invariants import (InvariantError, WeightPair,
                              solve_cocycle_space, strongly_compatible,
                              validate_boltzmann, validate_cocycle_pair)


# -- reference: the loop validators -------------------------------------------

def _check_tables(n: int, *tables) -> None:
    for t in tables:
        if len(t) != n or any(len(row) != n for row in t):
            raise InvariantError(f"weight table is not {n}x{n}")


def ref_validate_cocycle_pair(s, cp) -> ValidationReport:
    """Exhaustive check of the classical 2-cocycle condition and the three
    conditions imposed by the singular moves (written additively)."""
    n = s.n
    _check_tables(n, cp.phi, cp.singular)
    m = cp.modulus
    red = (lambda v: v % m) if m else (lambda v: v)
    phi, php = cp.phi, cp.singular
    # flat tables: op(x, y) is op[x * n + y]
    star, sinv = s.star.flat(), s.star_inv.flat()
    r1, r2 = s.r1.flat(), s.r2.flat()
    vs = []
    for x in range(n):
        if red(phi[x][x]) != 0:
            vs.append(("cocycle.diagonal", (x,)))
        for y in range(n):
            xy = x * n + y
            # move O5a
            lhs = php[x][y] + phi[r1[xy]][r2[xy]]
            rhs = phi[x][y] + php[y][star[xy]]
            if red(lhs - rhs) != 0:
                vs.append(("cocycle.O5a", (x, y)))
            x_y = sinv[xy]
            for z in range(n):
                xz = x * n + z
                lhs = phi[x][y] + phi[star[xy]][z]
                rhs = phi[x][z] + phi[star[xz]][star[y * n + z]]
                if red(lhs - rhs) != 0:
                    vs.append(("cocycle.RIII", (x, y, z)))
                # move O4a
                zy = star[z * n + y]
                lhs = -phi[x_y][y] + php[x_y][z] + phi[r1[x_y * n + z]][y]
                rhs = (phi[z][y] + php[x][zy]
                       - phi[sinv[r2[x * n + zy] * n + y]][y])
                if red(lhs - rhs) != 0:
                    vs.append(("cocycle.O4a", (x, y, z)))
                # move O4e
                a, b = r1[xz], r2[xz]
                w = sinv[y * n + a]
                lhs = phi[w][x] - phi[w][a]
                rhs = -phi[sinv[star[y * n + b] * n + z]][z] + phi[y][b]
                if red(lhs - rhs) != 0:
                    vs.append(("cocycle.O4e", (x, y, z)))
    return ValidationReport(tuple(sorted(vs)))


def ref_validate_boltzmann(p, bp) -> ValidationReport:
    """Boltzmann weight axioms (I)-(III); axiom (IV) only sets the
    strong-compatibility flag, via :func:`strongly_compatible`."""
    n = p.n
    _check_tables(n, bp.phi, bp.singular)
    m = bp.modulus
    red = (lambda v: v % m) if m else (lambda v: v)
    phi, psi = bp.phi, bp.singular
    # flat tables: op(x, y) is op[x * n + y]
    ut, ot, ub, ob = p.ut.flat(), p.ot.flat(), p.ub.flat(), p.ob.flat()
    obi = p.ob_inv.flat()
    vs = []
    for x in range(n):
        if red(phi[x][x]) != 0:
            vs.append(("boltzmann.I", (x,)))
        for y in range(n):
            xy, yx = x * n + y, y * n + x
            a = obi[ot[yx] * n + x]   # (y ot x) ob^-1 x
            b = obi[ut[xy] * n + y]   # (x ut y) ob^-1 y
            lhs = phi[x][y] + psi[y][b]
            rhs = phi[a][b] + psi[x][a]
            if red(lhs - rhs) != 0:
                vs.append(("boltzmann.II", (x, y)))
            for z in range(n):
                xz, yz, zy, zx = x * n + z, y * n + z, z * n + y, z * n + x
                lhs = phi[x][y] + phi[y][z] + phi[ut[xy]][ot[zy]]
                rhs = (phi[ut[xz]][ut[yz]] + phi[x][z]
                       + phi[ot[yx]][ot[zx]])
                if red(lhs - rhs) != 0:
                    vs.append(("boltzmann.III.1", (x, y, z)))
                lhs = psi[x][y] + phi[y][z] + phi[ub[xy]][ot[zy]]
                rhs = (psi[ut[xz]][ut[yz]] + phi[x][z]
                       + phi[ob[yx]][ot[zx]])
                if red(lhs - rhs) != 0:
                    vs.append(("boltzmann.III.2", (x, y, z)))
                lhs = psi[z][y] - phi[x][y] - phi[ut[xy]][ub[zy]]
                rhs = (psi[ot[zx]][ot[yx]] - phi[x][z]
                       - phi[ut[xz]][ob[yz]])
                if red(lhs - rhs) != 0:
                    vs.append(("boltzmann.III.3", (x, y, z)))
    return ValidationReport(tuple(sorted(vs)))


def ref_strongly_compatible(p, bp) -> bool:
    """Axiom (IV): psi is invariant under the two translation actions."""
    n = p.n
    m = bp.modulus
    red = (lambda v: v % m) if m else (lambda v: v)
    psi = bp.singular
    ut, ot = p.ut.flat(), p.ot.flat()
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if red(psi[x][y] - psi[ut[x * n + z]][ut[y * n + z]]) != 0:
                    return False
                if red(psi[z][y] - psi[ot[z * n + x]][ot[y * n + x]]) != 0:
                    return False
    return True


# -- comparison -------------------------------------------------------------

def assert_same(s, pair) -> bool:
    """Assert that the row validators agree with the reference on ``pair``
    and return whether it is valid (for a Boltzmann pair: axioms I-III)."""
    if pair.kind == "cocycle":
        report = validate_cocycle_pair(s, pair)
        assert report == ref_validate_cocycle_pair(s, pair)
    else:
        report = validate_boltzmann(s, pair)
        assert report == ref_validate_boltzmann(s, pair)
        assert strongly_compatible(s, pair) == ref_strongly_compatible(s, pair)
    return report.valid


def perturbed(pair, rng):
    """``pair`` with one seeded entry of one table shifted by a nonzero
    amount (mod the modulus, if any)."""
    m = pair.modulus
    tables = [[list(row) for row in t] for t in (pair.phi, pair.singular)]
    n = len(tables[0])
    t, x, y = rng.randrange(2), rng.randrange(n), rng.randrange(n)
    tables[t][x][y] += rng.randrange(1, m) if m else rng.choice((-2, -1, 1, 2))
    return WeightPair.from_rows(pair.kind, m, *tables)


def random_pair(kind, n, m, rng):
    def entry():
        return rng.randrange(m) if m else rng.randrange(-3, 4)
    return WeightPair.from_rows(kind, m, *[
        [[entry() for _ in range(n)] for _ in range(n)] for _ in range(2)])


def combination(space, rng):
    """A seeded member of ``space``: a random combination of its
    generators."""
    m, n = space.modulus, space.structure.n
    tables = [[[0] * n for _ in range(n)] for _ in range(2)]
    for g in space.generators:
        c = rng.randrange(m)
        for t, gt in zip(tables, (g.phi, g.singular)):
            for row, grow in zip(t, gt):
                for y, v in enumerate(grow):
                    row[y] += c * v
    return WeightPair.from_rows("cocycle", m, *tables)


STRUCTURES = {
    "z6": lambda: load_algebra("z6_singquandle.alg").structure,
    "z8_k": lambda: load_algebra("z8_k.alg").structure,
    "Z8(3,0,1)": lambda: affine_singquandle(8, 3, 0, 1),
    "psy6": lambda: load_algebra("psy6.alg").structure,
}

MODULI = (0, 2, 3, 6)


# -- cases ------------------------------------------------------------------

@pytest.mark.parametrize("structure, weights", [
    ("z6", "z6_cocycle.wgt"), ("psy6", "psy6_boltzmann.wgt"),
    ("psy6", "psy6_boltzmann_strong.wgt")])
def test_bundled_pairs(structure, weights):
    s, pair = STRUCTURES[structure](), load_weights(weights)
    assert assert_same(s, pair)
    rng = random.Random(weights)
    assert not all(assert_same(s, perturbed(pair, rng)) for _ in range(12))


@pytest.mark.parametrize("s, modulus", [
    (STRUCTURES["z6"], 6), (lambda: affine_singquandle(10, 7, 6, 5), 10)])
def test_solver_generators(s, modulus):
    s = s()
    space = solve_cocycle_space(s, modulus)
    assert space.generators
    rng = random.Random(modulus)
    for g in space.generators:
        assert assert_same(s, g)
        assert_same(s, perturbed(g, rng))


@pytest.mark.parametrize("structure", sorted(STRUCTURES))
@pytest.mark.parametrize("modulus", MODULI)
def test_random_pairs_and_perturbations(structure, modulus):
    """Seeded pairs at one modulus, each also with one entry shifted:
    the zero pair, phi = 0 with a constant second table (valid for both
    systems), random pairs, and for a singquandle seeded members of the
    solved cocycle space, or for psy6 the bundled Boltzmann pairs scaled
    into Z_modulus."""
    s = STRUCTURES[structure]()
    n = s.n
    kind = "boltzmann" if structure == "psy6" else "cocycle"
    rng = random.Random(f"{structure}/{modulus}")
    zero = [[0] * n for _ in range(n)]
    pairs = [WeightPair.zero(kind, n, modulus),
             WeightPair.from_rows(kind, modulus, zero,
                                  [[1] * n for _ in range(n)])]
    pairs += [random_pair(kind, n, modulus, rng) for _ in range(4)]
    if modulus and kind == "cocycle":
        space = solve_cocycle_space(s, modulus)
        pairs += [combination(space, rng) for _ in range(3)]
    elif modulus and modulus % 2 == 0:
        for name in ("psy6_boltzmann.wgt", "psy6_boltzmann_strong.wgt"):
            w = load_weights(name)
            pairs.append(WeightPair.from_rows(kind, modulus, *[
                [[v * modulus // 2 for v in row] for row in t]
                for t in (w.phi, w.singular)]))
    outcomes = set()
    for pair in pairs:
        outcomes.add(assert_same(s, pair))
        for _ in range(2):
            outcomes.add(assert_same(s, perturbed(pair, rng)))
    assert outcomes == {False, True}
