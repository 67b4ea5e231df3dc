"""The cocycle solver: all valid (phi, phi') pairs mod n for one
singquandle, as a :class:`CocycleSpace`.

The validity conditions are Z-linear in the entries of (phi, phi'),
so the valid pairs mod n form the kernel of an integer matrix.  The kernel
is computed by one elimination over Z_n, with gcd pivots and annihilator
rows so that nothing is lost to zero divisors.  The condition rows that cut
the space in that elimination decide membership mod n.  For each prime
power q of n, its kernel rows nonzero mod q, lifted by the Chinese remainder
theorem, generate; mod a prime each step keeps those rows independent.
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


# Miller-Rabin with the primes up to 41 as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015);
# without 41 it would be 318665857834031151167461
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_EXACT_BELOW = 3317044064679887385961981


def _probable_prime(m: int) -> bool:
    """True when m >= 2 and no base of ``_BASES`` shows by Miller-Rabin
    that m is composite; below ``_BASES_EXACT_BELOW`` that proves m
    prime."""
    if m < 2:
        return False
    for a in _BASES:
        if m % a == 0:
            return m == a
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _known_prime(m: int) -> bool:
    """True when m is a prime below ``_BASES_EXACT_BELOW``, by
    deterministic Miller-Rabin; False for every other m."""
    return m < _BASES_EXACT_BELOW and _probable_prime(m)


def _rho(n: int, c: int) -> int:
    """A divisor of the composite n found by Pollard's rho in Brent's
    form, walking y -> y^2 + c from y = 2: a proper one, or n itself when
    this walk fails.  The gcd is taken over batches of 128 steps, and a
    batch whose product reaches n is walked again one step at a time."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g


def _prime_factors(n: int) -> list:
    """The prime factors of n > 1, repeated by multiplicity: a composite n
    is split by ``_rho`` with c = 1, 2, ... in turn until a walk gives a
    proper divisor.  A factor at or above ``_BASES_EXACT_BELOW`` that no
    base shows composite can be proved neither prime nor composite here,
    so it is refused."""
    if _probable_prime(n):
        if n < _BASES_EXACT_BELOW:
            return [n]
        raise InvariantError(
            f"cannot factor the modulus: no Miller-Rabin base up to 41 "
            f"shows its factor {n} composite, and at or above "
            f"{_BASES_EXACT_BELOW} that does not prove it prime")
    c = 1
    while (d := _rho(n, c)) == n:
        c += 1
    return _prime_factors(d) + _prime_factors(n // d)


# the primes trial division tries before ``_rho`` takes over
_TRIAL_BELOW = 1000


def _prime_powers(m: int) -> list:
    """(p, e) for each prime power p^e exactly dividing m >= 1, primes
    ascending: by trial division, which stops once the cofactor is a known
    prime (tested at the start and after each factor divided out).  A
    cofactor left once p reaches ``_TRIAL_BELOW`` is split by
    ``_prime_factors``, which refuses a factor it can prove neither prime
    nor composite (an InvariantError)."""
    out = []
    p = 2
    prime = _known_prime(m)
    while not prime and p * p <= m:
        if p >= _TRIAL_BELOW:
            factors = _prime_factors(m)
            return out + [(q, factors.count(q)) for q in sorted(set(factors))]
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
            prime = _known_prime(m)
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
    of m and the column's entries, the pivot is the last entry a, the
    newest work row, with gcd(a, m) = g (at a prime power, the last of least
    valuation): the newest rows tend to be the sparsest, so clearing with
    one of them fills in least.  When there is none, unimodular extended-gcd
    steps fold the entries into the first until it is one.  Scaled by a unit
    to g, the pivot clears every other entry, and a pivot with g > 1 also
    spawns the annihilator row (m/g) * pivot so that zero divisors keep
    their full solution sets.
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
        g = gcd(m, *(b for _, b in entries))
        best, a = next(((i, b) for i, b in reversed(entries)
                        if gcd(b, m) == g), entries[0])
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
    """The span of ``generators``, cocycle WeightPairs from one elimination:
    all valid (phi, phi') pairs mod ``modulus`` for one singquandle.  A pair
    is a member when it dots to 0 with every condition row that cut the
    space, ``cutting`` holding them as ``{unknown: [(row, coef)]}``."""

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
    """Solve the homogeneous cocycle system over Z_modulus by one
    elimination: for each prime power q of the modulus, the kernel rows
    nonzero mod q, lifted by the CRT idempotent of q, are generators (a
    basis when q is prime, but not always a least set otherwise)."""
    if modulus < 2:
        raise InvariantError("modulus must be >= 2")
    n, m = s.n, modulus
    width = 2 * n * n
    powers = _prime_powers(m)   # refuses a modulus it cannot factor first
    kernel, size, cut = _kernel(_cocycle_rows(s), width, m)
    cutting = {}
    for r, row in enumerate(cut):
        for k, c in row.items():
            cutting.setdefault(k, []).append((r, c))
    pairs = []
    for q in (p ** e for p, e in powers):
        lift = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod m/q
        for g in kernel:
            if any(c % q for c in g.values()):
                tables = [[0] * n for _ in range(2 * n)]
                for k, c in g.items():
                    tables[k // n][k % n] = c * lift % m
                pairs.append(WeightPair("cocycle", m, tables[:n], tables[n:]))
    return CocycleSpace(s, m, tuple(pairs), size, cutting)
