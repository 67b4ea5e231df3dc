"""The cocycle solver: all valid (phi, phi') pairs mod n for one
singquandle, as a :class:`CocycleSpace`.

The validity conditions are Z-linear in the entries of (phi, phi'),
so the valid pairs mod n form the kernel of an integer matrix.  The kernel
is computed by one elimination over Z_n, with gcd pivots and annihilator
rows so that nothing is lost to zero divisors.  The condition rows that cut
the space in that elimination decide membership mod n.  The generators are
chosen per prime-power factor of n and recombined by the Chinese remainder
theorem.
"""

from __future__ import annotations

from math import gcd

from .algebra import OrientedSingquandle
from .invariants import (InvariantError, WeightPair, _cocycle_system,
                         _flat_pair)


def _cocycle_rows(s: OrientedSingquandle) -> list:
    """The rows of ``_cocycle_system(s)`` as sparse coefficient dicts, in
    emission order: each row's terms merged and zero rows dropped."""
    rows = []
    for _, _, terms in _cocycle_system(s):
        row = {}
        for idx, coef in terms:
            row[idx] = row.get(idx, 0) + coef
        row = {idx: coef for idx, coef in row.items() if coef}
        if row:
            rows.append(row)
    return rows


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


def _mix(work: dict, touching: list, m: int, i: int, j: int,
         s: int, t: int, u: int, v: int) -> None:
    """Work rows i, j become s*i + t*j and u*i + v*j mod m, keeping their
    places and ``touching``; with s*v - t*u = 1 their span is kept."""
    ri, rj = work[i], work[j]
    for idx, x, y in ((i, s, t), (j, u, v)):
        row = {}
        for k in ri.keys() | rj.keys():
            c = (x * ri.get(k, 0) + y * rj.get(k, 0)) % m
            if c:
                row[k] = c
                touching[k].add(idx)
            else:
                touching[k].discard(idx)
        work[idx] = row


def _kernel(rows: list, width: int, m: int) -> tuple:
    """(generators, size, cutting rows) of the kernel of A over Z_m, the
    generators as sparse dicts ``{unknown: coef}``.

    Eliminates on [A^T | I] keeping only the right halves, as sparse dicts:
    the left half of a work row is A times its right half, so its entry at a
    column is the sparse row of A dotted with the right half.  ``touching``
    maps each unknown to the work rows nonzero there, so a column visits
    only rows that can be nonzero at it, in insertion order.  With g the gcd
    of m and the column's entries, the pivot is the first entry a with
    gcd(a, m) = g (at a prime power, the first of least valuation); when
    there is none, unimodular extended-gcd steps fold the entries into the
    first until it is one.  Scaled by a unit to g, the pivot clears every
    other entry, and a pivot with g > 1 also spawns the annihilator row
    (m/g) * pivot so that zero divisors keep their full solution sets.
    Every column ends cleared, so each remaining nonzero row is a solution.
    The work rows span the solutions of the columns seen so far, and the
    pivot maps them onto gZ_m, so it divides the kernel's size by m/g.  A
    row of A that is 0 on every work row holds on all solutions of the rows
    before it, so by induction a vector that satisfies the other rows, those
    that cut, is a solution.
    """
    work = {i: {i: 1} for i in range(width)}
    touching = [{i} for i in range(width)]
    next_id = width
    size = m ** width
    cutting = []
    for row in rows:
        acc = {}
        for k, c in row.items():
            for idx in touching[k]:
                acc[idx] = acc.get(idx, 0) + c * work[idx][k]
        entries = sorted((idx, a % m) for idx, a in acc.items() if a % m)
        if not entries:
            continue
        cutting.append(row)
        best, a = entries[0]
        g = gcd(a, m)
        if g > 1:
            g = gcd(g, *(b for _, b in entries))
            best, a = next(((i, b) for i, b in entries if gcd(b, m) == g),
                           (best, a))
        j = 0
        while gcd(a, m) != g:   # fold the next entry into the first
            j += 1
            i, b = entries[j]
            h = gcd(a, b)
            s = pow(a // h, -1, b // h)
            _mix(work, touching, m, best, i, s, (h - s * a) // b,
                 -b // h, a // h)
            entries[j], a = (i, 0), h
        size //= m // g
        u = a // g      # a unit mod m/g; lift its inverse to a unit mod m
        unit = pow(u, -1, m if gcd(u, m) == 1 else m // g)
        while gcd(unit, m) > 1:
            unit += m // g
        pivot = {k: c * unit % m for k, c in work.pop(best).items()}
        for k in pivot:
            touching[k].discard(best)
        for idx, a in entries:
            if idx == best or not a:
                continue
            f = a // g
            other = work[idx]
            for k, c in pivot.items():
                a = (other.get(k, 0) - f * c) % m
                if a:
                    if k not in other:
                        touching[k].add(idx)
                    other[k] = a
                elif k in other:
                    del other[k]
                    touching[k].discard(idx)
        if g > 1:
            scaled = {k: a * (m // g) % m for k, a in pivot.items()
                      if a * (m // g) % m}
            if scaled:
                work[next_id] = scaled
                for k in scaled:
                    touching[k].add(next_id)
                next_id += 1
    return [right for right in work.values() if right], size, cutting


class CocycleSpace:
    """All valid (phi, phi') pairs mod ``modulus`` for one singquandle: the
    span of ``generators``, a tuple of cocycle WeightPair (the zero pair is
    always a member).  ``cutting`` holds the condition rows that cut the
    space mod the modulus, transposed as ``{unknown: [(row, coef)]}``; a
    pair is a member when every row dots to 0 with it."""

    __slots__ = ("structure", "modulus", "generators", "size", "cutting")

    def __init__(self, structure: OrientedSingquandle, modulus: int,
                 generators: tuple, size: int, cutting: dict):
        self.structure, self.modulus = structure, modulus
        self.generators, self.size = generators, size
        self.cutting = cutting

    def contains(self, cp: WeightPair) -> bool:
        vec = _flat_pair(self.structure.n, cp, "cocycle")
        if cp.modulus != self.modulus:
            raise InvariantError("modulus mismatch")
        dots = {}   # row -> its dot product with the pair
        for k, v in enumerate(vec):
            if v:
                for r, c in self.cutting.get(k, ()):
                    dots[r] = dots.get(r, 0) + c * v
        return not any(dot % self.modulus for dot in dots.values())


def solve_cocycle_space(s: OrientedSingquandle, modulus: int) -> CocycleSpace:
    """Solve the homogeneous cocycle system over Z_modulus.  At a prime
    power the generators are the kernel's rows; otherwise, for each prime
    power q of the modulus, those of them that cut in an elimination mod q
    (a basis at a prime), lifted by the CRT idempotent of q."""
    if modulus < 2:
        raise InvariantError("modulus must be >= 2")
    n, m = s.n, modulus
    width = 2 * n * n
    kernel, size, cut = _kernel(_cocycle_rows(s), width, m)
    cutting = {}
    for r, row in enumerate(cut):
        for k, c in row.items():
            cutting.setdefault(k, []).append((r, c))
    pairs = []
    for p, e in _prime_powers(m):
        q = p ** e
        cofactor = m // q
        lift = cofactor * pow(cofactor, -1, q)  # 1 mod q, 0 mod m/q
        for g in kernel if q == m else _kernel(kernel, width, q)[2]:
            vec = [g.get(k, 0) * lift % m for k in range(width)]
            tables = [vec[i * n:(i + 1) * n] for i in range(2 * n)]
            pairs.append(WeightPair("cocycle", m, tables[:n], tables[n:]))
    return CocycleSpace(s, m, tuple(pairs), size, cutting)
