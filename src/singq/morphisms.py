"""Maps between finite structures: group tables and the quandles built
from them, homomorphism checks and isomorphism search between
singquandles.  None of this is needed to compute an invariant, so it is
kept apart from :mod:`singq.algebra`.  The map search and the map check
are the ones the coloring search finds a structure's symmetries with.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import (AlgebraError, OperationTable, OrientedSingquandle,
                      ParameterError, ValidationReport, _differences,
                      _map_codec, table_profile)
from .coloring import _isomorphism, _preserves


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


def _tables(s: OrientedSingquandle) -> tuple:
    return (s.star.flat(), s.r1.flat(), s.r2.flat())


def is_homomorphism(f: Sequence[int], src: OrientedSingquandle,
                    dst: OrientedSingquandle) -> bool:
    if len(f) != src.n or any(not (0 <= v < dst.n) for v in f):
        raise AlgebraError("mapping is not total on the source elements")
    return _preserves(f, src.n, _tables(src), dst.n, _tables(dst))


def are_isomorphic(a: OrientedSingquandle,
                   b: OrientedSingquandle) -> Optional[list]:
    """The least isomorphism a -> b in lexicographic order, or None.
    Images are pruned by the trivial-action count profile, which any
    isomorphism preserves, and each partial map is closed through the
    tables."""
    n = a.n
    if n != b.n:
        return None
    src, dst = _tables(a), _tables(b)
    pa, pb = table_profile(n, src), table_profile(n, dst)
    if sorted(pa) != sorted(pb):
        return None
    for y in range(n):   # no budget: the search is complete
        f = _isomorphism(n, src, pa, dst, pb, 0, y, [float("inf")])
        if f is not None and _preserves(f, n, src, n, dst):
            return list(f)
    return None
