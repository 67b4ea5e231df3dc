"""Differential test of the sparse cocycle-kernel elimination.

The solver eliminates on the sparse condition rows and keeps only the
solution halves of ``[A^T | I]``.  The dense elimination it replaced is kept
below as a reference; for every prime power of every modulus the two must
return equal generators, element for element and in the same order, and
each generator must satisfy every condition row.  Membership, decided by the
annihilator rows that the same routine finds, must agree with the exhaustive
validator.
"""

import random

import pytest

from singq.invariants import WeightPair, validate_cocycle_pair
from singq.solver import (_cocycle_rows, _kernel_prime_power, _prime_powers,
                          solve_cocycle_space)

from conftest import STRUCTURES


# -- reference: elimination on the dense [A^T | I] -------------------------------

def ref_kernel_prime_power(rows: list, width: int, p: int, e: int) -> list:
    """Generators of {x in Z_q^width : Ax = 0}, q = p^e.

    Eliminates on [A^T | I]; a pivot with p-valuation v also spawns the
    annihilator row q/p^(e-v) so that non-unit pivots keep their full
    solution sets.
    """
    q = p ** e
    ncols = len(rows)
    work = []
    for i in range(width):
        left = [rows[j].get(i, 0) % q for j in range(ncols)]
        right = [0] * width
        right[i] = 1
        work.append((left, right))

    def valuation(a):
        v = 0
        while a % p == 0 and v < e:
            a //= p
            v += 1
        return v

    for col in range(ncols):
        best, bestv = None, e
        for idx, (left, _) in enumerate(work):
            if left[col] % q:
                v = valuation(left[col] % q)
                if v < bestv:
                    best, bestv = idx, v
        if best is None:
            continue
        left, right = work.pop(best)
        unit = (left[col] % q) // (p ** bestv)
        inv = pow(unit, -1, q)
        left = [(a * inv) % q for a in left]
        right = [(a * inv) % q for a in right]
        for other_left, other_right in work:
            a = other_left[col] % q
            if a:
                f = a // (p ** bestv)
                for k in range(ncols):
                    other_left[k] = (other_left[k] - f * left[k]) % q
                for k in range(width):
                    other_right[k] = (other_right[k] - f * right[k]) % q
        if bestv > 0:
            ann = p ** (e - bestv)
            work.append(([(a * ann) % q for a in left],
                         [(a * ann) % q for a in right]))
    return [tuple(right) for left, right in work
            if not any(a % q for a in left) and any(right)]


# -- cases ------------------------------------------------------------------------

CASES = ([("z6", m) for m in (2, 3, 4, 6, 12)]
         + [("Z8(3,0,1)", 8), ("Z8(3,0,1)", 24), ("Z9(4,0,1)", 9),
            ("Z10(7,6,5)", 10), ("Z11(4,1,0)", 11)]
         + [(f"gen{n}", m) for n in range(5, 10) for m in (n, n * n)])


@pytest.mark.parametrize("name, modulus", CASES)
def test_sparse_kernel_matches_dense_reference(name, modulus):
    s = STRUCTURES[name]()
    rows = _cocycle_rows(s)
    width = 2 * s.n * s.n
    for p, e in _prime_powers(modulus):
        q = p ** e
        kernel = [tuple(g.get(k, 0) for k in range(width))
                  for g in _kernel_prime_power(rows, width, p, e)[0]]
        assert kernel == ref_kernel_prime_power(rows, width, p, e)
        for g in kernel:
            assert len(g) == width and any(g)
            assert all(sum(c * g[k] for k, c in row.items()) % q == 0
                       for row in rows)


@pytest.mark.parametrize("name, modulus", CASES)
def test_contains_agrees_with_validator(name, modulus):
    """Membership by the annihilator rows against the exhaustive check of
    every condition: seeded members (random combinations of the generators)
    and near-members (one entry of such a combination shifted)."""
    s = STRUCTURES[name]()
    n = s.n
    space = solve_cocycle_space(s, modulus)
    flats = [[v for row in g.phi + g.singular for v in row]
             for g in space.generators]
    rng = random.Random(modulus * 100 + n)
    outcomes = set()
    for trial in range(12):
        vec = [0] * (2 * n * n)
        for flat in flats:
            c = rng.randrange(modulus)
            vec = [(a + c * b) % modulus for a, b in zip(vec, flat)]
        if trial % 2:
            k = rng.randrange(len(vec))
            vec[k] = (vec[k] + rng.randrange(1, modulus)) % modulus
        rows = [vec[i * n:(i + 1) * n] for i in range(2 * n)]
        cp = WeightPair.from_rows("cocycle", modulus, rows[:n], rows[n:])
        member = space.contains(cp)
        assert member == validate_cocycle_pair(s, cp).valid
        outcomes.add(member)
    assert outcomes == {False, True}
