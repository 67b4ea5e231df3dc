"""Maps between finite structures: group tables and the quandles built
from them, homomorphism checks and isomorphism search between
singquandles.  None of this is needed to compute an invariant, so it is
kept apart from :mod:`singq.algebra`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import (AlgebraError, OperationTable, OrientedSingquandle,
                      ParameterError, ValidationReport, _differences,
                      _map_codec, profile)


def validate_group(mult: OperationTable) -> ValidationReport:
    n = mult.n
    rows = mult.rows
    vs = []
    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        vs.append(("group.identity", ()))
    else:
        for x in range(n):
            if not any(rows[x][y] == identity and rows[y][x] == identity
                       for y in range(n)):
                vs.append(("group.inverse", (x,)))
    encode, compose = _map_codec(n)
    col, col_t = encode(zip(*rows))
    # (xy)z == x(yz), over x at each (y, z)
    for y in range(n):
        for z in range(n):
            for x in _differences(compose(col[y], col_t[z]), col[rows[y][z]]):
                vs.append(("group.associativity", (x, y, z)))
    return ValidationReport(tuple(sorted(vs)))


def quandle_from_group(mult: OperationTable, mode: str) -> OperationTable:
    """Conjugation (``a*b = b^-1 a b``) or core (``a*b = b a^-1 b``) quandle."""
    report = validate_group(mult)
    if not report.valid:
        raise AlgebraError("input is not a group table:\n" + report.summary())
    n = mult.n
    identity = next(e for e in range(n)
                    if all(mult(e, x) == x == mult(x, e) for x in range(n)))
    inv = [next(y for y in range(n) if mult(x, y) == identity) for x in range(n)]
    if mode == "conj":
        fn = lambda a, b: mult(mult(inv[b], a), b)
    elif mode == "core":
        fn = lambda a, b: mult(mult(b, inv[a]), b)
    else:
        raise ParameterError(f"unknown mode {mode!r}, expected 'conj' or 'core'")
    return OperationTable.from_function(n, fn)


def is_homomorphism(f: Sequence[int], src: OrientedSingquandle,
                    dst: OrientedSingquandle) -> bool:
    if len(f) != src.n or any(not (0 <= v < dst.n) for v in f):
        raise AlgebraError("mapping is not total on the source elements")
    for x in range(src.n):
        for y in range(src.n):
            if f[src.op(x, y)] != dst.op(f[x], f[y]):
                return False
            if f[src.r1(x, y)] != dst.r1(f[x], f[y]):
                return False
            if f[src.r2(x, y)] != dst.r2(f[x], f[y]):
                return False
    return True


def are_isomorphic(a: OrientedSingquandle,
                   b: OrientedSingquandle) -> Optional[list]:
    """Search for an isomorphism a -> b; returns the bijection or None.

    Candidates are pruned by the trivial-action count profile, which any
    isomorphism must preserve.
    """
    if a.n != b.n:
        return None
    n = a.n
    pa = profile(a)
    pb = profile(b)
    if sorted(pa) != sorted(pb):
        return None
    candidates = [[y for y in range(n) if pb[y] == pa[x]] for x in range(n)]

    f = [-1] * n
    used = [False] * n

    def consistent(x: int) -> bool:
        for u in range(n):
            if f[u] < 0:
                continue
            for (p, q) in ((x, u), (u, x), (x, x)):
                if f[p] < 0 or f[q] < 0:
                    continue
                for op_a, op_b in ((a.op, b.op), (a.r1, b.r1), (a.r2, b.r2)):
                    img = f[op_a(p, q)]
                    if img >= 0 and img != op_b(f[p], f[q]):
                        return False
        return True

    def extend(x: int) -> bool:
        if x == n:
            return True
        for y in candidates[x]:
            if used[y]:
                continue
            f[x] = y
            used[y] = True
            if consistent(x) and extend(x + 1):
                return True
            f[x] = -1
            used[y] = False
        return False

    if extend(0):
        return list(f)
    return None
