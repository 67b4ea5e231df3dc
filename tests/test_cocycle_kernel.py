"""Tests of the cocycle solver over Z_m by what it computes.

Each property of a solved space is checked against one reference that
shares no code with ``src/singq/solver.py``:

- the size, the span of the generators and, at prime and square-free
  moduli, where it is canonical, the generator count, against
  ``smith_kernel_size`` of ``tests/conftest.py``, the Smith form of the
  condition rows over each prime power (and of the generator matrix for
  the span);
- that every generator dots to 0 with every condition row, computed
  directly;
- membership, decided by the condition rows that cut the space, against
  the exhaustive ``validate_cocycle_pair``;
- on tiny systems with zero-divisor entries, every answer of ``_kernel``
  against an enumeration of Z_m^width;
- the factorisation of the modulus against trial division by every p.

No test compares the generators or the cutting rows with another
elimination element for element: neither is canonical, so a change of
the pivot rule or of the rows edits no test here.
"""

import functools
import itertools
import random
from math import gcd

import numpy as np
import pytest

from singq import SingqError, solver
from singq.invariants import (WeightPair, _cocycle_rows, solve_cocycle_space,
                              validate_cocycle_pair)
from singq.solver import _kernel, _prime_powers

from conftest import (STRUCTURES, cocycle_kernel_size, prime_powers,
                      smith_kernel_size)


# prime, prime-power, square-free and mixed moduli; at gen12 mod 12 and 24
# the pivot rule decides the fill-in, and mod 30 a pivot gcd can be the
# product of two primes
CASES = sorted({("z6", m) for m in (2, 3, 4, 6, 12, 30)}
               | {("Z4(3,0,1)", 4), ("Z6(5,1,0)", 6), ("Z6(5,1,0)", 30),
                  ("Z8(3,0,1)", 8), ("Z8(3,0,1)", 24), ("Z8(7,0,1)", 8),
                  ("Z9(4,0,1)", 9), ("Z10(7,6,5)", 10), ("Z11(4,1,0)", 11)}
               | {(f"gen{n}", m) for n in range(5, 10)
                  for m in (n, 2 * n, n * n)}
               | {("gen12", 12), ("gen12", 24)})

# the Smith oracle takes over 1 s per prime power on the rows of gen12
ORACLE_CASES = [case for case in CASES if case[0] != "gen12"]


@functools.cache
def solved(name: str, modulus: int) -> tuple:
    """(structure, its cocycle rows, its space mod ``modulus``)."""
    s = STRUCTURES[name]()
    return s, _cocycle_rows(s), solve_cocycle_space(s, modulus)


def _flat(g: WeightPair) -> list:
    return [v for row in g.phi + g.singular for v in row]


def _log(size: int, p: int) -> int:
    k = 0
    while size > 1:
        size, r = divmod(size, p)
        assert r == 0
        k += 1
    return k


@pytest.mark.parametrize("name, modulus", ORACLE_CASES)
def test_size_and_canonical_count_match_smith_oracle(name, modulus):
    """The size; and at a prime or square-free modulus, where the solver
    keeps a basis per prime p, the generator count is the sum of the
    dimensions of the kernels mod p."""
    s, _, space = solved(name, modulus)
    assert space.size == cocycle_kernel_size(s, modulus)
    factors = prime_powers(modulus)
    if all(e == 1 for _, e in factors):
        assert len(space.generators) == sum(
            _log(cocycle_kernel_size(s, p), p) for p, _ in factors)


@pytest.mark.parametrize("name, modulus", CASES)
def test_generators_span_exactly_the_kernel(name, modulus):
    """Every generator is nonzero and dots to 0 with every condition row
    (each nonempty, with no zero coefficient), and the span of the k
    generators, m^k over the size of the kernel of the k x width generator
    matrix's transpose, has ``space.size`` elements."""
    s, rows, space = solved(name, modulus)
    width = 2 * s.n * s.n
    gens = np.array([_flat(g) for g in space.generators],
                    dtype=np.int64).reshape(-1, width)
    assert gens.any(axis=1).all()
    assert all(rows) and all(all(row.values()) for row in rows)
    a = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        for k, c in row.items():
            a[i, k] = c
    assert not (a @ gens.T % modulus).any()
    columns = [{i: int(c) for i, c in enumerate(gens[:, k]) if c}
               for k in range(width)]
    k = len(gens)
    assert modulus ** k == space.size * smith_kernel_size(columns, k,
                                                          modulus)


@pytest.mark.parametrize("name, modulus", CASES)
def test_contains_agrees_with_validator(name, modulus):
    """Membership by the rows that cut the space against the exhaustive
    check of every condition: seeded members (random combinations of the
    generators), near-members (one entry of such a combination shifted),
    uniformly random pairs, and random combinations of the solutions of
    every cutting row but the last, some of which that row excludes, so a
    ``contains`` that skips it shows."""
    s, _, space = solved(name, modulus)
    n = s.n
    width = 2 * n * n
    rng = random.Random(modulus * 100 + n)

    def combination(gens):
        vec = [0] * width
        for g in gens:
            c = rng.randrange(modulus)
            vec = [(a + c * b) % modulus for a, b in zip(vec, g)]
        return vec

    flats = [_flat(g) for g in space.generators]
    vecs = []
    for trial in range(12):
        vec = combination(flats)
        if trial % 2:
            k = rng.randrange(width)
            vec[k] = (vec[k] + rng.randrange(1, modulus)) % modulus
        vecs.append(vec)
    vecs += [[rng.randrange(modulus) for _ in range(width)]
             for _ in range(4)]
    cut = {}
    for k, refs in space.cutting.items():
        for r, c in refs:
            cut.setdefault(r, {})[k] = c
    cut = [cut[r] for r in sorted(cut)]
    assert cut
    near = [[g.get(k, 0) for k in range(width)]
            for g in _kernel(cut[:-1], width, modulus)[0]]
    vecs += [combination(near) for _ in range(8)]
    outcomes = []
    for vec in vecs:
        rows = [vec[i * n:(i + 1) * n] for i in range(2 * n)]
        cp = WeightPair.from_rows("cocycle", modulus, rows[:n], rows[n:])
        member = space.contains(cp)
        assert member == validate_cocycle_pair(s, cp).valid
        outcomes.append(member)
    assert set(outcomes[:16]) == {False, True}
    assert not all(outcomes[16:])


def test_prime_powers_match_trial_division():
    """Below 2000 against trial division by every p; above, a prime near
    10^18 is found at once, also as a cofactor, and a strong pseudoprime to
    the bases 2..23 is still factored.  Seeded products of primes above the
    trial-division bound, squares and cubes among them, and products of
    two and of three primes near 10^9 are split too.  The strong
    pseudoprimes to the bases 2..37 and 2..41 are not taken for primes."""
    for m in range(1, 2000):
        assert _prime_powers(m) == prime_powers(m)
    big = 10 ** 18 + 3
    assert _prime_powers(big) == [(big, 1)]
    assert _prime_powers(96 * big) == [(2, 5), (3, 1), (big, 1)]
    assert _prime_powers(3825123056546413051) == [
        (149491, 1), (747451, 1), (34233211, 1)]
    assert _prime_powers((10 ** 9 + 7) * (10 ** 9 + 9)) == [
        (10 ** 9 + 7, 1), (10 ** 9 + 9, 1)]
    primes = [p for p in range(1000, 5000) if all(p % d for d in range(2, 71))]
    rng = random.Random(35)
    for _ in range(200):
        small = rng.choice([1, 2, 12, 997])
        factors = sorted((p, rng.randint(1, 3))
                         for p in rng.sample(primes, rng.randint(1, 3)))
        m = small
        for p, e in factors:
            m *= p ** e
        assert _prime_powers(m) == prime_powers(small) + factors
    assert not solver._known_prime(399165290221 * 798330580441)
    assert not solver._known_prime(3317044064679887385961981)
    # at or above the bound a factor with a witness is split, and one with
    # none (a Mersenne prime, the pseudoprime) is refused by name
    assert _prime_powers((10 ** 9 + 7) * (10 ** 9 + 9) * (10 ** 9 + 21)) == [
        (10 ** 9 + 7, 1), (10 ** 9 + 9, 1), (10 ** 9 + 21, 1)]
    for m in (2 ** 89 - 1, 3317044064679887385961981):
        with pytest.raises(SingqError, match=f"its factor {m} ") as err:
            _prime_powers(6 * m)
        assert type(err.value) is SingqError


# -- brute force on tiny systems with zero-divisor pivots ----------------------------

def _holds(x: tuple, rows: list, m: int) -> bool:
    return all(sum(c * x[k] for k, c in row.items()) % m == 0 for row in rows)


def _span(gens: list, m: int, width: int) -> set:
    span = {(0,) * width}
    for g in gens:
        span = {tuple((a + c * b) % m for a, b in zip(x, g))
                for x in span for c in range(m)}
    return span


def test_kernel_matches_enumeration_with_zero_divisors(monkeypatch):
    """Random systems of at most 5 rows in at most 4 unknowns whose entries
    are mostly zero divisors of m: the size, the generators, their span and
    membership by the cutting rows against all of Z_m^width."""
    mixes = []
    mix = solver._mix

    def counted(*args):
        mixes.append(args)
        return mix(*args)

    monkeypatch.setattr(solver, "_mix", counted)
    rng = random.Random(26)
    annihilated = 0
    for m in (4, 6, 8, 9, 10, 12, 18, 36):
        units = [a for a in range(1, m) if gcd(a, m) == 1]
        divisors = [a for a in range(m) if gcd(a, m) > 1]
        widest = max(w for w in range(1, 5) if m ** w <= 10 ** 4)
        for _ in range(12):
            width = rng.randint(1, widest)
            rows = []
            for _ in range(rng.randint(1, 5)):
                row = {k: rng.choice(units if rng.random() < 0.15
                                     else divisors) for k in range(width)}
                row = {k: c for k, c in row.items() if c}
                if row:
                    rows.append(row)
            kernel, size, cut = _kernel(rows, width, m)
            solutions = set()
            for x in itertools.product(range(m), repeat=width):
                assert _holds(x, cut, m) == _holds(x, rows, m)
                if _holds(x, rows, m):
                    solutions.add(x)
            assert size == len(solutions)
            gens = [tuple(g.get(k, 0) for k in range(width)) for g in kernel]
            assert all(g in solutions for g in gens)
            assert _span(gens, m, width) == solutions
            # only a pivot with g > 1, which adds an annihilator row, divides
            # the size by less than m
            annihilated += size > m ** (width - len(cut))
    assert mixes and annihilated
