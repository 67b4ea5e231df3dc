"""The cocycle solver: all valid (phi, phi') pairs mod n for one
singquandle, as a :class:`CocycleSpace`.

The validity conditions are Z-linear in the entries of (phi, phi'),
so the valid pairs mod n form the kernel of an integer matrix.  The kernel
is computed per prime-power factor of n (elimination with p-adic pivots
and annihilator rows, so nothing is lost to zero divisors) and the factors
are recombined by the Chinese remainder theorem.  The same routine, run on
the generators, gives the annihilator rows that decide membership.
"""

from __future__ import annotations

from .algebra import OrientedSingquandle
from .invariants import (InvariantError, WeightPair, _cocycle_system,
                         _flat_pair, _require_kind)


def _cocycle_rows(s: OrientedSingquandle) -> list:
    """The rows of ``_cocycle_system(s)`` as sparse coefficient dicts, in
    emission order: each row's terms merged, zero rows and repeated rows
    dropped.  In the elimination a zero row is a zero column, and a repeated
    row a column its first copy's pivot has already cleared, so dropping
    them leaves the kernel generators unchanged."""
    rows = {}   # frozenset of a row's items -> its first copy
    for _, _, terms in _cocycle_system(s):
        row = {}
        for idx, coef in terms:
            row[idx] = row.get(idx, 0) + coef
        row = {idx: coef for idx, coef in row.items() if coef}
        if row:
            rows.setdefault(frozenset(row.items()), row)
    return list(rows.values())


def _prime_powers(m: int) -> list:
    """(p, e) for each prime power p^e exactly dividing m >= 1, by trial
    division, primes ascending."""
    out = []
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def _valuation(a: int, p: int, e: int) -> int:
    """p-adic valuation of a mod p^e, capped at e."""
    v = 0
    while a % p == 0 and v < e:
        a //= p
        v += 1
    return v


def _kernel_prime_power(rows: list, width: int, p: int, e: int) -> tuple:
    """(generators, log_p of the size) of {x in Z_q^width : Ax = 0},
    q = p^e, the generators as sparse dicts ``{unknown: coef}``.

    Eliminates on [A^T | I] keeping only the right halves, as sparse dicts:
    the left half of a work row is A times its right half, so its entry at a
    column is the sparse row of A dotted with the right half.  ``touching``
    maps each unknown to the work rows nonzero there, so a column visits
    only rows that can be nonzero at it, in insertion order; the pivot is
    the first of least p-valuation.  A pivot with valuation v also spawns
    the annihilator row q/p^(e-v) so that non-unit pivots keep their full
    solution sets.  Every column ends cleared, so each remaining nonzero
    row is a solution.  The work rows span the solutions of the columns
    seen so far, and a pivot of valuation v maps them onto p^v Z_q, so it
    divides the kernel's size by p^(e-v).
    """
    q = p ** e
    work = {i: {i: 1} for i in range(width)}
    touching = [{i} for i in range(width)]
    next_id = width
    log_size = e * width
    for row in rows:
        acc = {}
        for k, c in row.items():
            for idx in touching[k]:
                acc[idx] = acc.get(idx, 0) + c * work[idx][k]
        entries = sorted((idx, a % q) for idx, a in acc.items() if a % q)
        if not entries:
            continue
        best, bestv, unit = None, e, 0
        for idx, a in entries:
            v = _valuation(a, p, e)
            if v < bestv:
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
    return [right for right in work.values() if right], log_size


class CocycleSpace:
    """All valid (phi, phi') pairs mod ``modulus`` for one singquandle: the
    span of ``generators``, a tuple of cocycle WeightPair (the zero pair is
    always a member).  ``annihilators`` holds (q, rows spanning the
    annihilator of the space mod q) for each prime power q exactly dividing
    the modulus, the rows transposed as ``{unknown: [(row, coef)]}``; over
    Z_q a submodule is the annihilator of its annihilator, so a pair is a
    member when every row dots to 0 mod q with it.  Two spaces are equal
    when their other fields are."""

    __slots__ = ("structure", "modulus", "generators", "size", "annihilators")

    def __init__(self, structure: OrientedSingquandle, modulus: int,
                 generators: tuple, size: int, annihilators: list):
        self.structure, self.modulus = structure, modulus
        self.generators, self.size = generators, size
        self.annihilators = annihilators

    def _key(self) -> tuple:
        return self.structure, self.modulus, self.generators, self.size

    def __eq__(self, other) -> bool:
        return type(other) is CocycleSpace and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def contains(self, cp: WeightPair) -> bool:
        _require_kind(cp, "cocycle")
        if cp.modulus != self.modulus:
            raise InvariantError("modulus mismatch")
        vec = _flat_pair(self.structure.n, cp, "cocycle")
        nonzero = [(k, v) for k, v in enumerate(vec) if v]
        for q, columns in self.annihilators:
            dots = {}   # row -> its dot product with the pair so far
            for k, v in nonzero:
                for r, c in columns.get(k, ()):
                    dots[r] = dots.get(r, 0) + c * v
            if any(dot % q for dot in dots.values()):
                return False
        return True


def solve_cocycle_space(s: OrientedSingquandle, modulus: int) -> CocycleSpace:
    """Solve the homogeneous cocycle system over Z_modulus."""
    if modulus < 2:
        raise InvariantError("modulus must be >= 2")
    n = s.n
    width = 2 * n * n
    rows = _cocycle_rows(s)
    m = modulus
    pairs = []
    size = 1
    annihilators = []
    for p, e in _prime_powers(m):
        q = p ** e
        kq, log_size = _kernel_prime_power(rows, width, p, e)
        size *= p ** log_size
        columns = {}
        for r, row in enumerate(_kernel_prime_power(kq, width, p, e)[0]):
            for k, c in row.items():
                columns.setdefault(k, []).append((r, c))
        annihilators.append((q, columns))
        cofactor = m // q
        lift = cofactor * pow(cofactor, -1, q)  # 1 mod q, 0 mod m/q
        for g in kq:
            vec = [g.get(k, 0) * lift % m for k in range(width)]
            tables = [vec[i * n:(i + 1) * n] for i in range(2 * n)]
            pairs.append(WeightPair("cocycle", m, tables[:n], tables[n:]))
    return CocycleSpace(s, m, tuple(pairs), size, annihilators)
