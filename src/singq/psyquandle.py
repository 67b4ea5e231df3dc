"""Psyquandles: four-operation structures that color the semiarcs of
singular links and pseudoknots, with their exhaustive axiom validator.

:func:`singq.algebra.parse_algebra` imports it for biquandle and psyquandle
files only, so commands over other structures never compile it.
"""

from __future__ import annotations

from .algebra import (AlgebraError, InvalidStructureError, OperationTable,
                      ValidationReport, _ReadOnly, _differences, _map_codec)


def _pair_map(n: int, a: OperationTable, b: OperationTable) -> tuple:
    """Forward and inverse tables of (x, y) -> (a(y, x), b(x, y)), both
    flat tuples of pairs indexed ``x * n + y``."""
    fwd = tuple((a(y, x), b(x, y)) for x in range(n) for y in range(n))
    inv = [None] * (n * n)
    for i, (u, v) in enumerate(fwd):
        inv[u * n + v] = divmod(i, n)
    if None in inv:
        raise AlgebraError("pair map is not invertible")
    return fwd, tuple(inv)


class Psyquandle(_ReadOnly):
    """Four-operation structure coloring semiarcs of singular diagrams.

    Operation order follows the usual block-matrix listing: under-crossing
    ``ut`` (x goes under y), over-crossing ``ot``, singular-under ``ub``,
    singular-over ``ob``.  Right inverses and the crossing pair maps
    S(x, y) = (y ot x, x ut y), S'(x, y) = (y ob x, x ub y) and their
    inverses are precomputed as flat tuples indexed ``x * n + y``.
    ``_symmetry`` keeps the permutations the coloring search found to
    preserve the tables, once it first runs.
    """

    __slots__ = ("n", "ut", "ot", "ub", "ob",
                 "ut_inv", "ot_inv", "ub_inv", "ob_inv",
                 "smap", "smap_inv", "sprime", "sprime_inv", "pI_adequate",
                 "_symmetry")

    def __init__(self, ut: OperationTable, ot: OperationTable,
                 ub: OperationTable, ob: OperationTable, _checked: bool = False):
        if not (ut.n == ot.n == ub.n == ob.n):
            raise AlgebraError("tables have mismatched orders")
        if not _checked:
            report = validate_psyquandle(ut, ot, ub, ob)
            if not report.valid:
                raise InvalidStructureError(report)
        self.n = ut.n
        self.ut, self.ot, self.ub, self.ob = ut, ot, ub, ob
        self.ut_inv = ut.right_inverse()
        self.ot_inv = ot.right_inverse()
        self.ub_inv = ub.right_inverse()
        self.ob_inv = ob.right_inverse()
        self.smap, self.smap_inv = _pair_map(self.n, ot, ut)
        self.sprime, self.sprime_inv = _pair_map(self.n, ob, ub)
        self.pI_adequate = all(ub(x, x) == ob(x, x) for x in range(self.n))
        self._symmetry = None

    @classmethod
    def from_biquandle(cls, ut: OperationTable, ot: OperationTable) -> "Psyquandle":
        """Lift a biquandle by reusing its two operations at singular crossings."""
        return cls(ut, ot, ut, ot)

    def elements(self) -> range:
        return range(self.n)


# Axioms (IV) and (VI), each A(B(x, y), C(z, y)) == D(E(x, z), F(y, z)):
# (name, A, B, C, D, E, F).
_PSYQUANDLE_AXIOMS = (
    ("IV.1", "ut", "ut", "ut", "ut", "ut", "ot"),
    ("IV.2", "ot", "ut", "ut", "ut", "ot", "ot"),
    ("IV.3", "ot", "ot", "ot", "ot", "ot", "ut"),
    ("VI.1", "ot", "ot", "ob", "ot", "ot", "ub"),
    ("VI.2", "ut", "ut", "ob", "ut", "ut", "ub"),
    ("VI.3", "ob", "ot", "ot", "ot", "ob", "ut"),
    ("VI.4", "ub", "ut", "ut", "ut", "ub", "ot"),
    ("VI.5", "ub", "ot", "ot", "ot", "ub", "ut"),
    ("VI.6", "ob", "ut", "ut", "ut", "ob", "ot"),
)


def validate_psyquandle(ut: OperationTable, ot: OperationTable,
                        ub: OperationTable, ob: OperationTable) -> ValidationReport:
    """Exhaustive check of psyquandle axioms (I)-(VI)."""
    n = ut.n
    vs = []
    for name, t in (("ut", ut), ("ot", ot), ("ub", ub), ("ob", ob)):
        for y in range(n):
            if not t.column_is_bijective(y):
                vs.append((f"psyquandle.I.{name}", (y,)))
    if vs:
        # right inverses are needed below; bail out with what we have
        return ValidationReport(tuple(sorted(vs)))
    T = {"ut": ut.rows, "ot": ot.rows, "ub": ub.rows, "ob": ob.rows}
    UT, OT, UB, OB = T["ut"], T["ot"], T["ub"], T["ob"]
    UBI, OBI = ub.right_inverse().rows, ob.right_inverse().rows
    for x in range(n):
        if UT[x][x] != OT[x][x]:
            vs.append(("psyquandle.II", (x,)))
    for name, a, b in (("S", OT, UT), ("Sprime", OB, UB)):
        seen = {(a[y][x], b[x][y]) for x in range(n) for y in range(n)}
        if len(seen) != n * n:
            vs.append((f"psyquandle.III.{name}", ()))
    encode, compose = _map_codec(n)
    col, col_t = {}, {}
    for name, rows in T.items():
        col[name], col_t[name] = encode(zip(*rows))
    for y in range(n):
        for z in range(n):
            for name, A, B, C, D, E, F in _PSYQUANDLE_AXIOMS:
                for x in _differences(
                        compose(col[B][y], col_t[A][T[C][z][y]]),
                        compose(col[E][z], col_t[D][T[F][y][z]])):
                    vs.append((f"psyquandle.{name}", (x, y, z)))
    for x in range(n):
        for y in range(n):
            lhs = UB[x][OBI[OT[y][x]][x]]
            rhs = OT[OBI[UT[x][y]][y]][UBI[OT[y][x]][x]]
            if lhs != rhs:
                vs.append(("psyquandle.V.1", (x, y)))
            lhs = UB[y][OBI[UT[x][y]][y]]
            rhs = UT[OBI[OT[y][x]][x]][OBI[UT[x][y]][y]]
            if lhs != rhs:
                vs.append(("psyquandle.V.2", (x, y)))
    return ValidationReport(tuple(sorted(vs)))
