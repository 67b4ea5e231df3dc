"""Differential tests of the sparse cocycle-kernel elimination over Z_m.

The solver eliminates on the sparse condition rows and keeps only the
solution halves of ``[A^T | I]``.  Two earlier eliminations are kept below as
references:

- the dense elimination over Z_{p^e}: at every prime power of every modulus
  ``_kernel`` must return equal generators, element for element and in the
  same order, and each generator must satisfy every condition row;
- the sparse solver that eliminated once per prime power and recombined by
  the CRT: both must give the same sizes and membership answers, the same
  generators, sizes and cutting rows at every prime power, and the same
  generator counts at prime-power and square-free moduli.

Membership, decided by the condition rows that cut the space in the same
elimination, must agree with the exhaustive validator, and on tiny systems
with zero-divisor entries every answer is checked against an enumeration of
Z_m^width.
"""

import itertools
import random
from math import gcd

import pytest

from singq import solver
from singq.invariants import WeightPair, validate_cocycle_pair
from singq.solver import (_cocycle_rows, _kernel, _prime_powers,
                          solve_cocycle_space)

from conftest import STRUCTURES


# -- reference: elimination on the dense [A^T | I] -------------------------------

def ref_kernel_prime_power(rows: list, width: int, p: int, e: int) -> list:
    """Generators of {x in Z_q^width : Ax = 0}, q = p^e.

    Eliminates on [A^T | I], pivoting on the last work row of least
    p-valuation, as ``_kernel`` does; a pivot with p-valuation v also spawns
    the annihilator row q/p^(e-v) so that non-unit pivots keep their full
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
                if v <= bestv:
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
                  for g in _kernel(rows, width, p ** e)[0]]
        assert kernel == ref_kernel_prime_power(rows, width, p, e)
        for g in kernel:
            assert len(g) == width and any(g)
            assert all(sum(c * g[k] for k, c in row.items()) % q == 0
                       for row in rows)


@pytest.mark.parametrize("name, modulus", CASES)
def test_contains_agrees_with_validator(name, modulus):
    """Membership by the rows that cut the space against the exhaustive
    check of every condition: seeded members (random combinations of the
    generators) and near-members (one entry of such a combination
    shifted)."""
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


# -- reference: the sparse solver that eliminated once per prime power ----------

def ref_valuation(a: int, p: int, e: int) -> int:
    """p-adic valuation of a mod p^e, capped at e."""
    v = 0
    while a % p == 0 and v < e:
        a //= p
        v += 1
    return v


def ref_sparse_kernel_prime_power(rows: list, width: int, p: int,
                                  e: int) -> tuple:
    """(generators, log_p of the size, cutting rows) of the kernel of A
    over Z_q, q = p^e, the generators as sparse dicts ``{unknown: coef}``;
    the pivot is the last work row of least p-valuation."""
    q = p ** e
    work = {i: {i: 1} for i in range(width)}
    touching = [{i} for i in range(width)]
    next_id = width
    log_size = e * width
    cutting = []
    for row in rows:
        acc = {}
        for k, c in row.items():
            for idx in touching[k]:
                acc[idx] = acc.get(idx, 0) + c * work[idx][k]
        entries = sorted((idx, a % q) for idx, a in acc.items() if a % q)
        if not entries:
            continue
        cutting.append(row)
        best, bestv, unit = None, e, 0
        for idx, a in entries:
            v = ref_valuation(a, p, e)
            if v <= bestv:
                best, bestv, unit = idx, v, a
        log_size -= e - bestv
        pv = p ** bestv
        inv = pow(unit // pv, -1, q)
        pivot = {k: a * inv % q for k, a in work.pop(best).items()}
        for k in pivot:
            touching[k].discard(best)
        for idx, a in entries:
            if idx == best:
                continue
            f = a // pv
            other = work[idx]
            for k, c in pivot.items():
                a = (other.get(k, 0) - f * c) % q
                if a:
                    if k not in other:
                        touching[k].add(idx)
                    other[k] = a
                elif k in other:
                    del other[k]
                    touching[k].discard(idx)
        if bestv > 0:
            ann = p ** (e - bestv)
            scaled = {k: a * ann % q for k, a in pivot.items()
                      if a * ann % q}
            if scaled:
                work[next_id] = scaled
                for k in scaled:
                    touching[k].add(next_id)
                next_id += 1
    return [right for right in work.values() if right], log_size, cutting


def ref_solve(rows: list, width: int, m: int) -> tuple:
    """(generators as flat vectors, size, [(q, columns of the rows that cut
    mod q)]): one elimination per prime power q of m, the generators lifted
    by the CRT idempotent of q."""
    gens = []
    size = 1
    cutting = []
    for p, e in _prime_powers(m):
        q = p ** e
        kq, log_size, cut = ref_sparse_kernel_prime_power(rows, width, p, e)
        size *= p ** log_size
        columns = {}
        for r, row in enumerate(cut):
            for k, c in row.items():
                columns.setdefault(k, []).append((r, c))
        cutting.append((q, columns))
        cofactor = m // q
        lift = cofactor * pow(cofactor, -1, q)  # 1 mod q, 0 mod m/q
        for g in kq:
            gens.append([g.get(k, 0) * lift % m for k in range(width)])
    return gens, size, cutting


def ref_contains(cutting: list, vec: list) -> bool:
    nonzero = [(k, v) for k, v in enumerate(vec) if v]
    for q, columns in cutting:
        dots = {}
        for k, v in nonzero:
            for r, c in columns.get(k, ()):
                dots[r] = dots.get(r, 0) + c * v
        if any(dot % q for dot in dots.values()):
            return False
    return True


def _pair(n: int, m: int, vec: list) -> WeightPair:
    rows = [vec[i * n:(i + 1) * n] for i in range(2 * n)]
    return WeightPair.from_rows("cocycle", m, rows[:n], rows[n:])


def _flat(g: WeightPair) -> list:
    return [v for row in g.phi + g.singular for v in row]


# gen12 at 12 and 24, where the pivot rule decides the fill-in; the dense
# reference of CASES is too slow there
EQUIVALENCE_CASES = sorted(set(CASES) | {(f"gen{n}", 2 * n)
                                         for n in range(5, 10)}
                           | {("gen12", 12), ("gen12", 24)})


@pytest.mark.parametrize("name, modulus", EQUIVALENCE_CASES)
def test_one_elimination_matches_per_prime_power_solver(name, modulus):
    s = STRUCTURES[name]()
    n, m = s.n, modulus
    rows = _cocycle_rows(s)
    width = 2 * n * n
    ref_gens, ref_size, ref_cutting = ref_solve(rows, width, m)
    space = solve_cocycle_space(s, m)
    gens = [_flat(g) for g in space.generators]
    assert space.size == ref_size
    factors = _prime_powers(m)
    for p, e in factors:
        kernel, size, cut = _kernel(rows, width, p ** e)
        ref_kernel, log_size, ref_cut = ref_sparse_kernel_prime_power(
            rows, width, p, e)
        assert (kernel, size, cut) == (ref_kernel, p ** log_size, ref_cut)
    if len(factors) == 1 or all(e == 1 for _, e in factors):
        assert len(gens) == len(ref_gens)
    assert all(ref_contains(ref_cutting, g) for g in gens)
    assert all(space.contains(_pair(n, m, g)) for g in ref_gens)
    rng = random.Random(m * 1000 + n)
    outcomes = set()
    for trial in range(24):
        kind = trial % 3
        if kind == 2:       # a random pair
            vec = [rng.randrange(m) for _ in range(width)]
        else:               # a seeded member of one side, or one entry off
            vec = [0] * width
            for g in (gens, ref_gens)[trial % 2]:
                c = rng.randrange(m)
                vec = [(a + c * b) % m for a, b in zip(vec, g)]
            if kind:
                k = rng.randrange(width)
                vec[k] = (vec[k] + rng.randrange(1, m)) % m
        member = space.contains(_pair(n, m, vec))
        assert member == ref_contains(ref_cutting, vec)
        outcomes.add(member)
    assert outcomes == {False, True}


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
