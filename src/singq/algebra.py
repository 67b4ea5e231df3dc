"""Finite algebraic structures given by operation tables.

Quandles, oriented singquandles and shadow structures (a singquandle acting
on a set), together with exhaustive axiom validators that report a witness
tuple for every violated axiom instance, and the ``.alg`` file parser;
psyquandles are in :mod:`singq.psyquandle`.  Tables and structures are
read-only once built, so whatever is kept for one stays valid.  Elements
are indices ``0..n-1`` internally; the text file format is 1-indexed to
match how finite structures are usually tabulated.
"""

from __future__ import annotations

import math
from operator import eq, itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from . import SingqError


class AlgebraError(SingqError):
    pass


class ParameterError(AlgebraError):
    """Constructor parameters violate a stated precondition."""


class InvalidStructureError(AlgebraError):
    """Construction produced a table that fails its axioms."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(report.summary())
        self.report = report


class ValidationReport(NamedTuple):
    violations: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.violations

    def summary(self, limit: int = 5) -> str:
        if self.valid:
            return "valid"
        lines = [f"{len(self.violations)} axiom violation(s):"]
        for axiom, witness in self.violations[:limit]:
            lines.append(f"  {axiom} at {witness}")
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)


class _ReadOnly:
    """Base of objects whose fields are set once: setting one again, or
    deleting any, raises AttributeError; a copy is the object itself.  What is
    derived from an object is kept in its one private dict ``_kept``, which
    only :func:`kept` reads and writes; equality and hashing ignore it."""

    __slots__ = ("_kept",)

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def kept(owner: _ReadOnly, key, make: Callable, source=None):
    """The value kept on ``owner`` under ``key`` if it was made from
    ``source``, by ``is``; otherwise ``make()``, kept in its place.  A
    ``make`` that raises keeps nothing."""
    try:
        store = owner._kept
    except AttributeError:
        store = owner._kept = {}
    entry = store.get(key)
    if entry is not None and entry[0] is source:
        return entry[1]
    value = make()
    store[key] = source, value
    return value


class OperationTable(_ReadOnly):
    """An n x n table of element indices encoding one binary operation."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows)
        if n < 1:
            raise AlgebraError("table must have order >= 1")
        frozen = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != n:
                raise AlgebraError(f"row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not (0 <= v < n):
                    raise AlgebraError(f"entry {v} out of range [0, {n})")
            frozen.append(row)
        self.n = n
        self.rows = tuple(frozen)

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int, int], int]) -> "OperationTable":
        return cls([[fn(x, y) % n for y in range(n)] for x in range(n)])

    def __call__(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def flat(self) -> tuple:
        """The entries row by row: entry (x, y) at index ``x * n + y``.
        Built on the first call and kept with the table."""
        return kept(self, "flat",
                    lambda: tuple(v for row in self.rows for v in row))

    def __eq__(self, other) -> bool:
        return isinstance(other, OperationTable) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def column_is_bijective(self, y: int) -> bool:
        return len({row[y] for row in self.rows}) == self.n

    def right_inverse(self) -> "OperationTable":
        """Table ``inv`` with ``inv[t[x][y]][y] == x``; needs bijective
        columns.  Computed on the first call and kept with the table."""
        def invert() -> OperationTable:
            n = self.n
            inv = [[-1] * n for _ in range(n)]
            for y in range(n):
                for x in range(n):
                    z = self.rows[x][y]
                    if inv[z][y] != -1:
                        raise AlgebraError(f"column {y} is not a bijection")
                    inv[z][y] = x
            return OperationTable(inv)
        return kept(self, "inverse", invert)

    def __repr__(self) -> str:
        return f"OperationTable({[list(r) for r in self.rows]})"


# -- exhaustive validation on whole maps ---------------------------------------
#
# Every three-variable identity below reads op1(op2(x, a), b) on each side for
# one free variable x, so at fixed (a, b) each side is the composition of two
# unary maps (a row or a column of a table).  The validators compose and
# compare such maps as whole vectors, and look at single elements only where
# two vectors differ; every instance is still checked.


def _map_codec(size: int) -> tuple:
    """``(encode, compose)`` for maps of ``range(size)`` into itself.

    ``encode(maps)`` turns sequences of images into two lists, the maps as
    vectors and the same maps as tables; ``compose(v, t)`` is the vector of
    ``t[v[x]]``.  Up to 256 elements a vector is ``bytes`` and a table is
    the vector padded to the 256 bytes ``bytes.translate`` takes; larger
    sets use tuples for both, composed by ``operator.itemgetter``.
    """
    if size <= 256:
        pad = bytes(256 - size)

        def encode(maps):
            vectors = [bytes(m) for m in maps]
            return vectors, [v + pad for v in vectors]
        return encode, bytes.translate

    def encode(maps):
        vectors = [tuple(m) for m in maps]
        return vectors, vectors
    return encode, lambda v, t: itemgetter(*v)(t)


def _differences(lhs, rhs) -> list:
    """Elements at which two encoded maps differ."""
    if lhs == rhs:
        return []
    return [x for x, (u, v) in enumerate(zip(lhs, rhs)) if u != v]


def validate_quandle(table: OperationTable) -> ValidationReport:
    """Idempotency, right-invertibility, right self-distributivity."""
    n = table.n
    rows = table.rows
    vs = [("quandle.idempotency", (x,)) for x in range(n) if rows[x][x] != x]
    vs += [("quandle.right_invertibility", (y,)) for y in range(n)
           if not table.column_is_bijective(y)]
    encode, compose = _map_codec(n)
    col, col_t = encode(zip(*rows))
    # (x*y)*z == (x*z)*(y*z), over x at each (y, z)
    for y in range(n):
        for z in range(n):
            for x in _differences(compose(col[y], col_t[z]),
                                  compose(col[z], col_t[rows[y][z]])):
                vs.append(("quandle.self_distributivity", (x, y, z)))
    return ValidationReport(tuple(sorted(vs)))


class OrientedSingquandle(_ReadOnly):
    """A quandle with singular-crossing maps R1, R2.

    ``star_inv`` is always derived from ``star`` so the pair of tables can
    never disagree.  Instances are validated on construction, by
    :func:`validate_singquandle`.
    """

    __slots__ = ("n", "star", "star_inv", "r1", "r2")

    def __init__(self, star: OperationTable, r1: OperationTable,
                 r2: OperationTable):
        report = validate_singquandle(star, r1, r2)
        if not report.valid:
            raise InvalidStructureError(report)
        self.n = star.n
        self.star = star
        self.star_inv = star.right_inverse()
        self.r1 = r1
        self.r2 = r2

    def relabel(self, perm: Sequence[int]) -> "OrientedSingquandle":
        """Transport of structure along a permutation of the elements."""
        if sorted(perm) != list(range(self.n)):
            raise ParameterError(f"relabel needs a permutation of "
                                 f"0..{self.n - 1}, got {list(perm)!r}")
        inv = [0] * self.n
        for i, p in enumerate(perm):
            inv[p] = i
        def move(t: OperationTable) -> OperationTable:
            return OperationTable.from_function(
                self.n, lambda x, y: perm[t(inv[x], inv[y])])
        return OrientedSingquandle(move(self.star), move(self.r1), move(self.r2))

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrientedSingquandle)
                and (self.star, self.r1, self.r2) == (other.star, other.r1, other.r2))

    def __hash__(self) -> int:
        return hash((self.star, self.r1, self.r2))


def validate_singquandle(star: OperationTable, r1: OperationTable,
                         r2: OperationTable) -> ValidationReport:
    """Exhaustive check of the five oriented-singquandle identities.

    The quandle axioms on ``star`` are a prerequisite; if they fail the
    report carries those violations and the five identities are skipped
    (they need the derived inverse operation).  Tables of different orders
    are an AlgebraError.
    """
    if not (star.n == r1.n == r2.n):
        raise AlgebraError("tables have mismatched orders")
    base = validate_quandle(star)
    if not base.valid:
        return ValidationReport(tuple(sorted(
            base.violations + (("singquandle.prerequisite_quandle", ()),))))
    n = star.n
    sinv = star.right_inverse()
    S, I, R1, R2 = star.rows, sinv.rows, r1.rows, r2.rows
    vs = []
    for x in range(n):
        for y in range(n):
            # two-variable axioms (4) and (5)
            if R2[x][y] != R1[y][S[x][y]]:
                vs.append(("singquandle.axiom4", (x, y)))
            if S[R1[x][y]][R2[x][y]] != R2[y][S[x][y]]:
                vs.append(("singquandle.axiom5", (x, y)))
    encode, compose = _map_codec(n)
    Scol, Scol_t = encode(zip(*S))
    Icol, Icol_t = encode(zip(*I))
    R1row, R1row_t = encode(R1)
    R2row, R2row_t = encode(R2)
    for x in range(n):
        for y in range(n):
            i = I[x][y]
            # (1) R1(x/y, z)*y == R1(x, z*y), over z
            for z in _differences(compose(R1row[i], Scol_t[y]),
                                  compose(Scol[y], R1row_t[x])):
                vs.append(("singquandle.axiom1", (x, y, z)))
            # (2) R2(x/y, z) == R2(x, z*y)/y, over z
            for z in _differences(
                    R2row[i], compose(compose(Scol[y], R2row_t[x]), Icol_t[y])):
                vs.append(("singquandle.axiom2", (x, y, z)))
    for x in range(n):
        for z in range(n):
            a, b = R1[x][z], R2[x][z]
            # (3) (y/R1(x, z))*x == (y*R2(x, z))/z, over y
            for y in _differences(compose(Icol[a], Scol_t[x]),
                                  compose(Scol[b], Icol_t[z])):
                vs.append(("singquandle.axiom3", (x, y, z)))
    return ValidationReport(tuple(sorted(vs)))


def affine_singquandle(n: int, a: int, b: int, c: int) -> OrientedSingquandle:
    """x*y = ax+(1-a)y, R1 = bx+cy, R2 = acx+[b+c(1-a)]y over Z_n.

    Requires ``a`` invertible mod n and ``(1-a)(1-b-c) == 0 (mod n)``.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if math.gcd(a, n) != 1:
        raise ParameterError(f"a={a} is not invertible mod {n}")
    if (1 - a) * (1 - b - c) % n != 0:
        raise ParameterError(f"(1-a)(1-b-c) != 0 mod {n} for a={a}, b={b}, c={c}")
    star = OperationTable.from_function(n, lambda x, y: a * x + (1 - a) * y)
    r1 = OperationTable.from_function(n, lambda x, y: b * x + c * y)
    r2 = OperationTable.from_function(n, lambda x, y: a * c * x + (b + c * (1 - a)) * y)
    return OrientedSingquandle(star, r1, r2)


def eval_table(formula: str, modulus: int, var_names: Sequence[str],
               cols: int | None = None) -> list:
    """Tabulate an integer-polynomial formula in the two variables
    ``var_names`` over ``modulus x cols`` inputs (``cols`` defaults to
    ``modulus``), exactly and reduced mod ``modulus``."""
    from .polynomial import PolynomialError, parse_polynomial
    if modulus < 1:
        raise AlgebraError("modulus must be >= 1")
    try:
        poly = parse_polynomial(formula)
    except PolynomialError as exc:
        raise AlgebraError(f"cannot parse formula {formula!r}: "
                           f"{exc}") from None
    unknown = sorted(set(poly.variables()) - set(var_names))
    if unknown:
        raise AlgebraError(f"formula {formula!r} uses unknown "
                           f"variable(s) {unknown}")
    u, v = var_names
    cols = modulus if cols is None else cols
    terms = []   # (coefficient, exponent of u, column values of v^exponent)
    for mono, c in poly.terms:
        exps = dict(mono)
        e = exps.get(v, 0)
        terms.append((c, exps.get(u, 0),
                      [pow(j, e, modulus) for j in range(cols)]))
    table = []
    for i in range(modulus):
        row = [0] * cols
        for c, a, powers in terms:
            k = c * pow(i, a, modulus)
            row = [r + k * p for r, p in zip(row, powers)]
        table.append([r % modulus for r in row])
    return table


def formula_structure(n: int, star_expr: str, r1_expr: str,
                      r2_expr: str) -> OrientedSingquandle:
    """Build a singquandle from integer-polynomial formulas in x, y mod n.

    Raises :class:`InvalidStructureError` (with the witness report attached)
    when the tables fail the axioms.
    """
    star = OperationTable(eval_table(star_expr, n, ("x", "y")))
    r1 = OperationTable(eval_table(r1_expr, n, ("x", "y")))
    r2 = OperationTable(eval_table(r2_expr, n, ("x", "y")))
    return OrientedSingquandle(star, r1, r2)


class ShadowStructure(_ReadOnly):
    """A singquandle S acting on a carrier set X (region colors): row x of
    ``action`` lists x.s for each s in S."""

    __slots__ = ("base", "carrier", "action", "action_inv")

    def __init__(self, base: OrientedSingquandle, action: Sequence):
        rows = tuple(map(tuple, action))
        report = validate_shadow(base, rows)
        if not report.valid:
            raise InvalidStructureError(report)
        carrier = len(rows)
        self.base = base
        self.carrier = carrier
        self.action = rows
        # per-s inverse of the bijection x -> x.s
        inv = []
        for x in range(carrier):
            inv.append([0] * base.n)
        for s in range(base.n):
            for x in range(carrier):
                inv[rows[x][s]][s] = x
        self.action_inv = tuple(tuple(r) for r in inv)


def validate_shadow(base: OrientedSingquandle, action: Sequence) -> ValidationReport:
    """Column bijectivity plus the classical and singular action identities.
    A row of other than ``base.n`` entries, or an entry outside the carrier
    ``range(len(action))``, is an AlgebraError."""
    carrier = len(action)
    nS = base.n
    for i, row in enumerate(action):
        if len(row) != nS:
            raise AlgebraError(f"action row {i} has {len(row)} entries, "
                               f"expected {nS}")
        for v in row:
            if not 0 <= v < carrier:
                raise AlgebraError(f"action entry {v} out of range [0, {carrier})")
    vs = []
    for s in range(nS):
        if len({action[x][s] for x in range(carrier)}) != carrier:
            vs.append(("shadow.bijectivity", (s,)))
    encode, compose = _map_codec(carrier)
    col, col_t = encode([row[s] for row in action] for s in range(nS))
    S, R1, R2 = base.star.rows, base.r1.rows, base.r2.rows
    for s1 in range(nS):
        for s2 in range(nS):
            # (x.s1).s2 == (x.s2).(s1*s2) == (x.R1(s1, s2)).R2(s1, s2), over x
            lhs = compose(col[s1], col_t[s2])
            for x in _differences(lhs, compose(col[s2], col_t[S[s1][s2]])):
                vs.append(("shadow.classical", (x, s1, s2)))
            for x in _differences(
                    lhs, compose(col[R1[s1][s2]], col_t[R2[s1][s2]])):
                vs.append(("shadow.singular", (x, s1, s2)))
    return ValidationReport(tuple(sorted(vs)))


def formula_shadow(base: OrientedSingquandle, carrier: int,
                   action_expr: str) -> ShadowStructure:
    """Shadow with action given by a formula in x (carrier) and s (base)."""
    rows = eval_table(action_expr, carrier, ("x", "s"), cols=base.n)
    return ShadowStructure(base, rows)


def profile(s: OrientedSingquandle) -> list:
    """Per-element trivial-action counts ``(r1, c1, r2, c2, r3, c3)``: for
    each of *, R1, R2 in turn, the number of y with ``op(x, y) == x`` (r)
    and with ``op(y, x) == y`` (c).  Any isomorphism preserves them."""
    return table_profile(s.n, (s.star.flat(), s.r1.flat(), s.r2.flat()))


def table_profile(n: int, flats) -> list:
    """Per-element trivial-action counts over the flat n x n tables
    ``flats``: for each table in turn, the number of y with ``t(x, y) ==
    x`` and with ``t(y, x) == y``.  A permutation that preserves every
    table preserves them."""
    out = []
    for x in range(n):
        counts = []
        for t in flats:
            # row x is t[x * n:(x + 1) * n], column x is t[x::n]
            counts.append(t[x * n:(x + 1) * n].count(x))
            counts.append(sum(map(eq, t[x::n], range(n))))
        out.append(tuple(counts))
    return out


def _elements(elements: Iterable[int], size: int) -> set:
    """``elements`` as a set, refusing one outside ``0..size-1`` (a
    negative one would index the tables from the end)."""
    found = set(elements)
    outside = sorted(x for x in found if not 0 <= x < size)
    if outside:
        raise AlgebraError(f"elements {outside} outside 0..{size - 1}")
    return found


def substructure_closure(s: OrientedSingquandle, seed: Iterable[int]) -> frozenset:
    """Smallest superset of ``seed`` closed under *, its inverse, R1 and R2."""
    tables = (s.star.rows, s.star_inv.rows, s.r1.rows, s.r2.rows)
    current = _elements(seed, s.n)
    while True:
        new = current | {t[x][y] for t in tables for x in current
                         for y in current}
        if new == current:
            return frozenset(current)
        current = new


def shadow_closure(sh: ShadowStructure, region_seed: Iterable[int],
                   acting: Iterable[int]) -> frozenset:
    """Close a set of carrier elements under the action of ``acting``, a
    set of base elements."""
    acting = _elements(acting, sh.base.n)
    current = _elements(region_seed, sh.carrier)
    while True:
        new = set(current)
        for x in current:
            for s in acting:
                new.add(sh.action[x][s])
        if new == current:
            return frozenset(current)
        current = new


# -- algebra file format -------------------------------------------------------
#
# Text format, '#' comments.  Header lines:
#
#     type: quandle | singquandle | biquandle | psyquandle | shadow
#     order: n
#     modulus: m          (optional; it must equal order)
#     carrier: k          (shadow only)
#
# Structure is given either by formula lines
#
#     formula: star <expr in x,y>      formula: r1 <expr>
#     formula: r2 <expr>               formula: action <expr in x,s>
#
# or by named blocks of whitespace-separated 1-indexed entries:
#
#     star: / r1: / r2:   n rows of n entries
#     ops:                n rows; 2 (biquandle) or 4 (psyquandle) n-blocks
#                         left-to-right: under, over[, singular-under,
#                         singular-over]
#     action:             carrier rows of n entries (1-indexed carrier values)
#
# Each header and each table is given at most once, a table by a formula
# line or by a block, and a file gives only the tables (and the carrier:
# header) its type reads.  Weight files (singq.invariants) have the same line
# format, without formulas, and are read by the same section reader.

# type -> the tables and the carrier: header it reads
_READS = {"quandle": ("star",), "singquandle": ("star", "r1", "r2"),
          "biquandle": ("ops",), "psyquandle": ("ops",),
          "shadow": ("star", "r1", "r2", "action", "carrier")}
# the tables a formula line may give
_FORMULAS = ("star", "r1", "r2", "action")


def _read_sections(text: str, heads: tuple, blocks: tuple, formulas: tuple,
                   error: type) -> dict:
    """The sections of an ``.alg`` or ``.wgt`` text, as ``{key: (line
    number, value)}`` in file order.

    ``#`` comments and blank lines are skipped.  A ``head: value`` line,
    for each of ``heads``, gives that head its text; a ``formula: name
    expr`` line, for each of ``formulas``, gives the table ``name`` its
    expression; a ``name:`` line, for each of ``blocks``, gives that table
    the list of the integer rows that follow it.  A key given twice, a row
    that is not integers and any other line raise ``error``, naming the
    line.
    """
    sections: dict = {}
    rows = None   # the block being read, if any
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        value = value.strip()
        if colon and key == "formula" and formulas:
            parts = value.split(None, 1)
            if len(parts) != 2:
                raise error(f"line {line_no}: formula needs a name and an "
                            f"expression")
            key, value = parts
            if key not in formulas:
                raise error(f"line {line_no}: no type reads a formula "
                            f"named {key!r}")
        elif colon and key in heads:
            pass
        elif colon and not value and key in blocks:
            value = []
        elif rows is not None:
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError:
                raise error(f"line {line_no}: bad integer row "
                            f"{line!r}") from None
            continue
        else:
            raise error(f"line {line_no}: unexpected line {line!r}")
        if key in sections:
            raise error(f"line {line_no}: {key} is given twice")
        sections[key] = (line_no, value)
        rows = value if isinstance(value, list) else None
    return sections


class LoadedAlgebra(NamedTuple):
    kind: str
    structure: object  # OperationTable (quandle) or a structure class

    @property
    def n(self) -> int:
        if isinstance(self.structure, ShadowStructure):
            return self.structure.base.n
        return self.structure.n


def parse_algebra(text: str) -> LoadedAlgebra:
    sections = _read_sections(text, ("type", "order", "modulus", "carrier"),
                              ("star", "r1", "r2", "ops", "action"),
                              _FORMULAS, AlgebraError)

    def where(key: str) -> str:
        """``line N: `` for a header given at line N, else nothing."""
        return f"line {sections[key][0]}: " if key in sections else ""

    kind = sections.get("type", (0, None))[1]
    if kind not in _READS:
        raise AlgebraError(f"{where('type')}type: must be one of "
                           f"{tuple(_READS)}, got {kind!r}")
    for name, (line_no, _) in sections.items():
        if name not in ("type", "order", "modulus") + _READS[kind]:
            raise AlgebraError(f"line {line_no}: a {kind} does not read "
                               f"{name}")

    def number(key: str, default=None) -> int:
        text = sections[key][1] if key in sections else default
        if text is None:
            raise AlgebraError(f"missing {key}: header")
        try:
            value = int(text)
        except ValueError:
            raise AlgebraError(f"{where(key)}{key}: must be an integer, "
                               f"got {text!r}") from None
        if value < 1:
            raise AlgebraError(f"{where(key)}{key}: must be >= 1, "
                               f"got {value}")
        return value

    n = number("order")
    modulus = number("modulus", n)
    if modulus != n:
        raise AlgebraError(f"{where('modulus')}modulus: {modulus} differs "
                           f"from order: {n}")

    def rows(name: str, height: int = n, width: int = n,
             variables: tuple = ("x", "y")) -> list:
        """Table ``name`` as ``height`` rows of ``width`` 0-based entries
        below ``height``: its formula tabulated, or its block checked and
        made 0-based."""
        if name not in sections:
            raise AlgebraError(f"missing {name} (block or formula)")
        line_no, given = sections[name]
        if isinstance(given, str):
            try:
                return eval_table(given, height, variables, cols=width)
            except AlgebraError as exc:
                raise AlgebraError(f"line {line_no}: {exc}") from None
        if len(given) != height or any(len(r) != width for r in given):
            raise AlgebraError(f"line {line_no}: {name} block must be "
                               f"{height}x{width}")
        for r in given:
            for v in r:
                if not 1 <= v <= height:
                    raise AlgebraError(f"line {line_no}: {name} entry {v} "
                                       f"outside 1..{height}")
        return [[v - 1 for v in r] for r in given]

    def table(name: str) -> OperationTable:
        return OperationTable(rows(name))

    if kind == "quandle":
        star = table("star")
        report = validate_quandle(star)
        if not report.valid:
            raise InvalidStructureError(report)
        return LoadedAlgebra(kind, star)

    if kind == "singquandle":
        return LoadedAlgebra(kind, OrientedSingquandle(
            table("star"), table("r1"), table("r2")))

    if kind in ("biquandle", "psyquandle"):
        from .psyquandle import Psyquandle
        if "ops" not in sections:
            raise AlgebraError(f"{kind} needs an ops: block")
        parts = 2 if kind == "biquandle" else 4
        ops = rows("ops", width=parts * n)
        tables = [OperationTable([r[k * n:(k + 1) * n] for r in ops])
                  for k in range(parts)]
        if kind == "biquandle":
            return LoadedAlgebra(kind, Psyquandle.from_biquandle(*tables))
        return LoadedAlgebra(kind, Psyquandle(*tables))

    # shadow
    base = OrientedSingquandle(table("star"), table("r1"), table("r2"))
    action = rows("action", number("carrier"), n, ("x", "s"))
    return LoadedAlgebra(kind, ShadowStructure(base, action))
