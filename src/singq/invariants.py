"""Invariant computations over coloring sets.

Cocycle state sums and the space of cocycle pairs mod n, the six-variable
singquandle polynomial and its subsingquandle refinement, shadow
polynomials, and the Boltzmann-enhanced psyquandle polynomials.  All values
are exact; multisets of per-coloring weights are packaged as
:class:`InvariantValue`, whose elements, the exponents, are all of one
type: ``int`` (a ring element, reduced by the invariant that made it), an
``(int, int)`` pair (two-variable Boltzmann values) or a
:class:`BasePolynomial` with integer coefficients.  Values are
immutable and hashable, so they compare, deduplicate and render byte-stably.

The polynomial exponent (the tag) of a phi-ssqp or SP coloring depends
only on the structure and the set of colors the coloring uses (for SP,
the semiarc set and the region set), so both count colorings by used set
and keep, on the structure object, a map from used set to tag that fills
as diagrams use new sets.  Structures are read-only, so the map never
goes stale; an equal but distinct structure builds its own.
"""

from __future__ import annotations

from collections import Counter
from operator import add
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import SingqError
from .algebra import (OperationTable, OrientedSingquandle, Psyquandle,
                      ShadowStructure, ValidationReport, _ReadOnly,
                      _read_sections, kept, profile, substructure_closure,
                      shadow_closure)
from .coloring import (RELATIONS, psyquandle_tuples, shadow_tuples,
                       singquandle_tuples)
from .polynomial import BasePolynomial, PolynomialError

if TYPE_CHECKING:
    from .diagram import SingularDiagram


class InvariantError(SingqError):
    pass


# -- invariant values ---------------------------------------------------------

def _order_key(exponent):
    """Ints and pairs in their natural order, polynomials by ``sort_key``."""
    if isinstance(exponent, BasePolynomial):
        return exponent.sort_key()
    return exponent


def _power(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


class InvariantValue:
    """Finite multiset of exponents of one type, with positive
    multiplicities.

    Renders as a formal sum ``sum a_i u^{e_i}`` in a chosen variable.
    """

    __slots__ = ("_mult",)

    def __init__(self, multiplicities: Mapping | Iterable | None = None):
        acc: dict = {}
        if multiplicities is not None:
            items = (multiplicities.items()
                     if isinstance(multiplicities, Mapping) else multiplicities)
            for exponent, m in items:
                if m < 0:
                    raise PolynomialError("multiplicities must be positive")
                if m:
                    acc[exponent] = acc.get(exponent, 0) + m
        if len({type(e) for e in acc}) > 1:
            raise PolynomialError("mixed exponent types in one invariant value")
        self._mult = acc

    @property
    def multiplicities(self) -> dict:
        return dict(self._mult)

    def total(self) -> int:
        return sum(self._mult.values())

    def items_sorted(self):
        return sorted(self._mult.items(), key=lambda kv: _order_key(kv[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, InvariantValue) and self._mult == other._mult

    def __hash__(self) -> int:
        return hash(frozenset(self._mult.items()))

    def render(self, var: str = "u") -> str:
        """Canonical text, e.g. ``6u^3``, ``24u^{t^2} + 24u^{t} + 48u^{2}``;
        a pair exponent reads its second part in v, as in ``18 + 6uv``."""
        if not self._mult:
            return "0"
        parts = []
        for e, mult in self.items_sorted():
            if isinstance(e, BasePolynomial):
                body = f"{var}^{{{e}}}"
            elif isinstance(e, tuple):
                body = _power(var, e[0]) + _power("v", e[1])
            else:
                body = _power(var, e)
            coeff = "" if mult == 1 else str(mult)
            parts.append(f"{coeff}{body}" if body else str(mult))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"InvariantValue({self.render()!r})"


def _reduce(m: int):
    """Reduction of integers mod ``m``, or the identity when ``m`` is 0."""
    return (lambda v: v % m) if m else (lambda v: v)


def _require_kind(pair: WeightPair, kind: str) -> None:
    if pair.kind != kind:
        raise InvariantError(f"needs a {kind} pair, got a {pair.kind} pair")


def _flat_pair(n: int, pair: WeightPair, kind: str) -> list:
    """A pair of ``kind`` with two n x n tables as one list: entry (x, y)
    of phi at x * n + y, of the singular table at n * n + x * n + y."""
    _require_kind(pair, kind)
    rows = pair.phi + pair.singular
    if {len(pair.phi), len(pair.singular), *map(len, rows)} != {n}:
        raise InvariantError(f"weight table is not {n}x{n}")
    return [v for row in rows for v in row]


class WeightPair(_ReadOnly):
    """Two n x n weight tables valued in Z_modulus (0 means Z), read-only
    and equal to a pair with equal fields: ``phi`` at classical crossings,
    ``singular`` at singular ones.  ``kind`` names the axiom system:
    ``"cocycle"`` (``singular`` is phi') or ``"boltzmann"`` (it is psi)."""

    __slots__ = ("kind", "modulus", "phi", "singular")

    def __init__(self, kind: str, modulus: int, phi: Sequence,
                 singular: Sequence):
        if kind not in ("cocycle", "boltzmann"):
            raise InvariantError(f"kind must be 'cocycle' or 'boltzmann', "
                                 f"got {kind!r}")
        if modulus < 0:
            raise InvariantError(f"modulus must be >= 0, got {modulus}")
        self.kind, self.modulus = kind, modulus
        self.phi = tuple(map(tuple, phi))
        self.singular = tuple(map(tuple, singular))

    def _key(self) -> tuple:
        return self.kind, self.modulus, self.phi, self.singular

    def __eq__(self, other) -> bool:
        return type(other) is WeightPair and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def from_rows(cls, kind: str, modulus: int, phi: Sequence,
                  singular: Sequence) -> WeightPair:
        red = _reduce(modulus)
        return cls(kind, modulus, [map(red, row) for row in phi],
                   [map(red, row) for row in singular])

    @classmethod
    def zero(cls, kind: str, n: int, modulus: int) -> WeightPair:
        return cls(kind, modulus, ((0,) * n,) * n, ((0,) * n,) * n)


# -- weight-pair axiom systems ------------------------------------------------
#
# Each system is written once, as instances ``(axiom, witness, terms)``: the
# instance holds when ``sum(coef * vec[idx] for idx, coef in terms)`` is 0,
# ``vec`` being the flattened pair (see ``_flat_pair``).  The validators
# evaluate every instance; ``solve_cocycle_space`` solves the same rows.

def _cocycle_system(s: OrientedSingquandle):
    """Instances over (phi, phi') of the classical 2-cocycle condition
    (the diagonal and move RIII) and of the conditions imposed by the
    singular moves O5a, O4a and O4e, written additively."""
    n = s.n
    nn = n * n
    # flat tables: op(x, y) is op[x * n + y]
    star, sinv = s.star.flat(), s.star_inv.flat()
    r1, r2 = s.r1.flat(), s.r2.flat()
    for x in range(n):
        yield "cocycle.diagonal", (x,), ((x * n + x, 1),)
        for y in range(n):
            xy = x * n + y
            yield "cocycle.O5a", (x, y), (
                (nn + xy, 1), (r1[xy] * n + r2[xy], 1),
                (xy, -1), (nn + y * n + star[xy], -1))
            x_y = sinv[xy]
            for z in range(n):
                xz = x * n + z
                yield "cocycle.RIII", (x, y, z), (
                    (xy, 1), (star[xy] * n + z, 1),
                    (xz, -1), (star[xz] * n + star[y * n + z], -1))
                zy = star[z * n + y]
                yield "cocycle.O4a", (x, y, z), (
                    (x_y * n + y, -1), (nn + x_y * n + z, 1),
                    (r1[x_y * n + z] * n + y, 1),
                    (z * n + y, -1), (nn + x * n + zy, -1),
                    (sinv[r2[x * n + zy] * n + y] * n + y, 1))
                a, b = r1[xz], r2[xz]
                w = sinv[y * n + a]
                yield "cocycle.O4e", (x, y, z), (
                    (w * n + x, 1), (w * n + a, -1),
                    (sinv[star[y * n + b] * n + z] * n + z, 1),
                    (y * n + b, -1))


def _evaluate(n: int, pair: WeightPair, kind: str, system) -> ValidationReport:
    """The report listing, sorted, ``(axiom, witness)`` of every instance of
    ``system`` that ``pair``, of ``kind``, fails, each sum reduced mod the
    pair's modulus (0 means Z)."""
    vec, m = _flat_pair(n, pair, kind), pair.modulus
    vs = []
    for axiom, witness, terms in system:
        total = 0
        for k, c in terms:
            total += c * vec[k]
        if total % m if m else total:
            vs.append((axiom, witness))
    return ValidationReport(tuple(sorted(vs)))


def validate_cocycle_pair(s: OrientedSingquandle, cp: WeightPair) -> ValidationReport:
    """Exhaustive check of the classical 2-cocycle condition and the three
    conditions imposed by the singular moves: every instance of
    ``_cocycle_system(s)``, each violation listed."""
    return _evaluate(s.n, cp, "cocycle", _cocycle_system(s))


# -- the cocycle space --------------------------------------------------------

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


class CocycleSpace:
    """The span of ``generators``, cocycle WeightPairs: all valid (phi,
    phi') pairs mod ``modulus`` for one singquandle.  A pair is a member
    when it dots to 0 with every condition row that cut the space,
    ``cutting`` holding them as ``{unknown: [(row, coef)]}``."""

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
    """All valid pairs mod ``modulus`` >= 2, by one elimination of
    ``_cocycle_rows(s)`` over Z_modulus (``singq.solver.solve``)."""
    from .solver import solve
    if modulus < 2:
        raise InvariantError("modulus must be >= 2")
    n = s.n
    vecs, size, cutting = solve(_cocycle_rows(s), 2 * n * n, modulus)
    pairs = []
    for vec in vecs:
        rows = [vec[i:i + n] for i in range(0, len(vec), n)]
        pairs.append(WeightPair("cocycle", modulus, rows[:n], rows[n:]))
    return CocycleSpace(s, modulus, tuple(pairs), size, cutting)


def _tally(keys: Iterable, exponent_of) -> InvariantValue:
    """Multiset of ``exponent_of(key)`` over ``keys``, building one exponent
    per distinct key."""
    return InvariantValue((exponent_of(key), k)
                          for key, k in Counter(keys).items())


def _require_valid(s, pair: WeightPair, kind: str,
                   strong: bool = False) -> None:
    """Raise InvariantError unless ``pair`` is of ``kind`` and passes that
    kind's exhaustive check against ``s`` (axiom IV too when ``strong``).

    Passes are kept on the pair, one set per structure object it is used
    with, so each check runs once per such object; a failing pair is
    checked again, and rejected, on every call."""
    _require_kind(pair, kind)
    passed = kept(pair, id(s), set, s)
    if kind not in passed:
        if kind == "cocycle":
            report, what = validate_cocycle_pair(s, pair), "cocycle"
        else:
            report, what = validate_boltzmann(s, pair), "Boltzmann"
        if not report.valid:
            raise InvariantError(f"invalid {what} pair:\n" + report.summary())
        passed.add(kind)
    if strong and "IV" not in passed:
        if not strongly_compatible(s, pair):
            raise InvariantError("Boltzmann pair is not strongly compatible")
        passed.add("IV")


def _weight_parts(d: SingularDiagram, s, pair: WeightPair, kind: str,
                  strong: bool = False) -> tuple:
    """The classical and the singular parts of the weight of each coloring
    of ``d`` by ``s``, as two lists in coloring order, each term read at the
    x and y of its crossing's E2 in ``RELATIONS``: the sums of +phi(ui, oi)
    at P and -phi(uo, oi) at N (uo, oo for a psyquandle; so that a direct
    poke cancels exactly), and of singular(i1, i2) at S, once ``pair``
    passes ``_require_valid``."""
    _require_valid(s, pair, kind, strong)
    relations = RELATIONS["singquandle" if kind == "cocycle" else "psyquandle"]
    read = {"P": [], "N": [], "S": []}   # crossing kind -> E2's x, y semiarcs
    for c in d.compiled:   # (crossing kind, semiarcs at ports 0..3)
        _, _, x, y = relations[c[0]][1]
        read[c[0]].append((c[x + 1], c[y + 1]))
    search = singquandle_tuples if kind == "cocycle" else psyquandle_tuples
    phi, table, first, second = pair.phi, pair.singular, [], []
    for col in search(d, s):
        u = v = 0
        for x, y in read["P"]:
            u += phi[col[x]][col[y]]
        for x, y in read["N"]:
            u -= phi[col[x]][col[y]]
        for x, y in read["S"]:
            v += table[col[x]][col[y]]
        first.append(u)
        second.append(v)
    return first, second


def state_sum(d: SingularDiagram, s: OrientedSingquandle,
              cp: WeightPair) -> InvariantValue:
    """Multiset of per-coloring total Boltzmann weights, rendered in u; in
    a singquandle coloring over_out has the color of over_in.  ``cp`` must
    be a cocycle pair, checked exhaustively against ``s`` once per
    structure it is used with; an invalid pair is rejected on every call."""
    return _tally(map(add, *_weight_parts(d, s, cp, "cocycle")),
                  _reduce(cp.modulus))


# -- singquandle polynomials --------------------------------------------------

def _profile_sum(elems: Iterable[int], full: tuple) -> BasePolynomial:
    """Sum of the profile monomials of ``elems``, given the profile."""
    names = ("s1", "t1", "s2", "t2", "s3", "t3")
    counts: dict = {}
    for x in elems:
        key = tuple(zip(names, full[x]))
        counts[key] = counts.get(key, 0) + 1
    return BasePolynomial(counts)


def sqp(s: OrientedSingquandle) -> BasePolynomial:
    """Six-variable singquandle polynomial: sum of profile monomials."""
    return _profile_sum(range(s.n), profile(s))


def _closed_elements(s: OrientedSingquandle, sub: Iterable) -> list:
    """Sorted elements of ``sub``, which must be closed under the
    operations."""
    elems = sorted(set(sub))
    if substructure_closure(s, elems) != frozenset(elems):
        raise InvariantError(f"{elems} is not closed under the operations")
    return elems


def restrict(s: OrientedSingquandle, sub: Iterable[int]) -> OrientedSingquandle:
    """Induced structure on a subset closed under *, its inverse, R1, R2."""
    elems = _closed_elements(s, sub)
    pos = {e: i for i, e in enumerate(elems)}
    def table(op):
        return OperationTable([[pos[op(x, y)] for y in elems] for x in elems])
    return OrientedSingquandle(table(s.star), table(s.r1), table(s.r2))


def ssqp(sub: Iterable[int], s: OrientedSingquandle) -> BasePolynomial:
    """Subsingquandle polynomial: the contribution of the substructure to
    sqp(s).  Counting stays in the ambient structure; only the summation
    range shrinks."""
    elems = _closed_elements(s, sub)
    return _profile_sum(elems, profile(s))


def phi_ssqp(d: SingularDiagram, s: OrientedSingquandle) -> InvariantValue:
    """Multiset of ssqp(image of f) over all colorings f, rendered in u.
    The image, and so the tag, depends only on the set of colors used; the
    tags are kept on ``s`` by that set."""
    tags = kept(s, "tags", dict)

    def tag(used: frozenset) -> BasePolynomial:
        if used not in tags:
            image = substructure_closure(s, used)
            tags[used] = _profile_sum(image, profile(s))
        return tags[used]

    return _tally(map(frozenset, singquandle_tuples(d, s)), tag)


# -- shadow polynomials -------------------------------------------------------

def sp(sh: ShadowStructure) -> BasePolynomial:
    """Shadow polynomial: sum over carrier elements of t^(fixing count)."""
    return subsp(range(sh.carrier), range(sh.base.n), sh)


def subsp(region_subset: Iterable[int], acting: Iterable[int],
          sh: ShadowStructure) -> BasePolynomial:
    """Subshadow polynomial, with the fixing count taken against ``acting``."""
    ys = sorted(set(region_subset))
    ss = sorted(set(acting))
    if substructure_closure(sh.base, ss) != frozenset(ss):
        raise InvariantError("acting set is not a subsingquandle")
    if shadow_closure(sh, ys, ss) != frozenset(ys):
        raise InvariantError("region subset is not closed under the action")
    fixing: dict = {}   # fixing count -> number of region colors
    for x in ys:
        row = sh.action[x]
        r = sum(1 for s in ss if row[s] == x)
        fixing[r] = fixing.get(r, 0) + 1
    return BasePolynomial({(("t", r),): k for r, k in fixing.items()})


def shadow_polynomial_invariant(d: SingularDiagram,
                                sh: ShadowStructure) -> InvariantValue:
    """SP(L): multiset of subsp over the shadow image of each shadow
    coloring.  The image depends only on the sets of semiarc and region
    colors used; the tags are kept on ``sh`` by that pair of sets."""
    tags = kept(sh, "tags", dict)

    def tag(used: tuple) -> BasePolynomial:
        if used not in tags:
            acting = substructure_closure(sh.base, used[0])
            image = shadow_closure(sh, used[1], acting)
            tags[used] = subsp(image, acting, sh)
        return tags[used]

    colorings = shadow_tuples(d, sh)
    return _tally(((frozenset(c), frozenset(r)) for c, r in colorings), tag)


# -- psyquandle Boltzmann weights ---------------------------------------------

def _boltzmann_system(p: Psyquandle, axiom_iv: bool = False):
    """Instances over (phi, psi) of the Boltzmann weight axioms I, II and
    III.1-III.3, or with ``axiom_iv`` of axiom IV: psi is invariant under
    the two translation actions."""
    n = p.n
    nn = n * n
    # flat tables: op(x, y) is op[x * n + y]
    ut, ot, ub, ob = p.ut.flat(), p.ot.flat(), p.ub.flat(), p.ob.flat()
    obi = p.ob_inv.flat()
    for x in range(n):
        if not axiom_iv:
            yield "boltzmann.I", (x,), ((x * n + x, 1),)
        for y in range(n):
            xy, yx = x * n + y, y * n + x
            if not axiom_iv:
                a = obi[ot[yx] * n + x]   # (y ot x) ob^-1 x
                b = obi[ut[xy] * n + y]   # (x ut y) ob^-1 y
                yield "boltzmann.II", (x, y), (
                    (xy, 1), (nn + y * n + b, 1),
                    (a * n + b, -1), (nn + x * n + a, -1))
            for z in range(n):
                xz, yz, zy, zx = x * n + z, y * n + z, z * n + y, z * n + x
                if axiom_iv:
                    yield "boltzmann.IV.1", (x, y, z), (
                        (nn + xy, 1), (nn + ut[xz] * n + ut[yz], -1))
                    yield "boltzmann.IV.2", (x, y, z), (
                        (nn + zy, 1), (nn + ot[zx] * n + ot[yx], -1))
                    continue
                yield "boltzmann.III.1", (x, y, z), (
                    (xy, 1), (yz, 1), (ut[xy] * n + ot[zy], 1),
                    (ut[xz] * n + ut[yz], -1), (xz, -1),
                    (ot[yx] * n + ot[zx], -1))
                yield "boltzmann.III.2", (x, y, z), (
                    (nn + xy, 1), (yz, 1), (ub[xy] * n + ot[zy], 1),
                    (nn + ut[xz] * n + ut[yz], -1), (xz, -1),
                    (ob[yx] * n + ot[zx], -1))
                yield "boltzmann.III.3", (x, y, z), (
                    (nn + zy, 1), (xy, -1), (ut[xy] * n + ub[zy], -1),
                    (nn + ot[zx] * n + ot[yx], -1), (xz, 1),
                    (ut[xz] * n + ob[yz], 1))


def validate_boltzmann(p: Psyquandle, bp: WeightPair) -> ValidationReport:
    """Boltzmann weight axioms (I)-(III): every instance of
    ``_boltzmann_system(p)``, each violation listed.  Axiom (IV) only sets
    the strong-compatibility flag, via :func:`strongly_compatible`."""
    return _evaluate(p.n, bp, "boltzmann", _boltzmann_system(p))


def strongly_compatible(p: Psyquandle, bp: WeightPair) -> bool:
    """Axiom (IV): psi is invariant under the two translation actions;
    every instance of ``_boltzmann_system(p, axiom_iv=True)`` holds.
    Raises InvariantError unless ``bp`` is a Boltzmann pair with both
    tables n x n."""
    return _evaluate(p.n, bp, "boltzmann",
                     _boltzmann_system(p, axiom_iv=True)).valid


def boltzmann_single(d: SingularDiagram, p: Psyquandle,
                     bp: WeightPair) -> InvariantValue:
    """Single-variable enhanced polynomial: multiset of total weights in w.
    ``bp`` must be a Boltzmann pair, and is checked exhaustively against
    ``p`` (axioms I-III) once per structure it is used with; an invalid
    pair is rejected on every call."""
    return _tally(map(add, *_weight_parts(d, p, bp, "boltzmann")),
                  _reduce(bp.modulus))


def boltzmann_two(d: SingularDiagram, p: Psyquandle,
                  bp: WeightPair) -> InvariantValue:
    """Two-variable enhanced polynomial: multiset of (phi, psi) part totals.
    ``bp`` must be a Boltzmann pair, and is checked exhaustively against
    ``p`` (axioms I-IV) once per structure it is used with; an invalid or
    not strongly compatible pair is rejected on every call."""
    red = _reduce(bp.modulus)
    return _tally(zip(*_weight_parts(d, p, bp, "boltzmann", strong=True)),
                  lambda ab: (red(ab[0]), red(ab[1])))


# -- weight file parsing ------------------------------------------------------
#
# Format, comments starting with '#':
#
#     modulus: n
#     phi:
#     <n rows of n integers>
#     phiprime:        (or psi:)
#     <n rows of n integers>

def parse_weights(text: str):
    """Parse a weight file into a WeightPair, a cocycle pair with a
    ``phiprime:`` block or a Boltzmann pair with a ``psi:`` block.

    Rows and columns follow the 1-indexed element order of the companion
    algebra file; the entries themselves are ring values.
    """
    sections = _read_sections(text, ("modulus",), ("phi", "phiprime", "psi"),
                              (), InvariantError)
    if "modulus" not in sections:
        raise InvariantError("missing modulus: header")
    line_no, given = sections["modulus"]
    try:
        modulus = int(given)
    except ValueError:
        raise InvariantError(f"line {line_no}: modulus must be an integer, "
                             f"got {given!r}") from None
    if modulus < 0:
        raise InvariantError(f"line {line_no}: modulus must be >= 0")
    if "phi" not in sections:
        raise InvariantError("missing phi block")
    line_no, phi = sections["phi"]
    n = len(phi)
    if not n or any(len(r) != n for r in phi):
        raise InvariantError(f"line {line_no}: phi block must be a square "
                             f"table")
    if ("phiprime" in sections) == ("psi" in sections):
        raise InvariantError("need exactly one of phiprime:/psi: besides phi:")
    key = "phiprime" if "phiprime" in sections else "psi"
    line_no, rows = sections[key]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvariantError(f"line {line_no}: {key} block must be {n}x{n}, "
                             f"like phi")
    kind = "cocycle" if key == "phiprime" else "boltzmann"
    return WeightPair.from_rows(kind, modulus, phi, rows)
