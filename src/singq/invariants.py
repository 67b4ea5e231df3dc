"""Invariant computations over coloring sets.

Cocycle state sums, the six-variable singquandle polynomial and its
subsingquandle refinement, shadow polynomials, and the Boltzmann-enhanced
psyquandle polynomials.  All values are exact; multisets of per-coloring
weights are packaged as :class:`~singq.polynomial.InvariantValue`.

The tag of a phi-ssqp or SP coloring depends only on the structure and
the set of colors the coloring uses (for SP, the semiarc set and the
region set), so both count colorings by used set and keep, on the
structure object, a map from used set to tag that fills as diagrams use
new sets.  Structures are read-only, so the map never goes stale; an
equal but distinct structure builds its own.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .algebra import (OperationTable, OrientedSingquandle, Psyquandle,
                      ShadowStructure, ValidationReport, _ReadOnly, profile,
                      substructure_closure, shadow_closure)
from .coloring import psyquandle_tuples, shadow_tuples, singquandle_tuples
from .diagram import SingularDiagram
from .polynomial import BasePolynomial, ExponentTag, InvariantValue


class InvariantError(ValueError):
    pass


def _flat_pair(n: int, pair: _WeightPair) -> list:
    """A weight pair's two tables, which must be n x n, as one list: entry
    (x, y) of the first at x * n + y, of the second at n * n + x * n + y."""
    tables = pair._values()[1:]
    for t in tables:
        if len(t) != n or any(len(row) != n for row in t):
            raise InvariantError(f"weight table is not {n}x{n}")
    return [v for t in tables for row in t for v in row]


def _frozen(rows: Sequence) -> tuple:
    return tuple(tuple(row) for row in rows)


class _WeightPair(_ReadOnly):
    """A modulus and two n x n weight tables, the fields named by the
    subclass's ``__slots__``; equal to a pair of the same class with equal
    fields.  The pair is read-only and its tables are tuples of tuples.

    ``_passed`` maps ``id(structure)`` to ``(structure, strong)`` for each
    structure the pair has passed the exhaustive weight check against
    (``strong``: axiom IV too); an entry counts only for that structure
    object itself.  It is not a field: equality and hashing ignore it."""

    __slots__ = ("_passed",)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self) -> int:
        return hash(self._values())

    @classmethod
    def from_rows(cls, modulus: int, phi: Sequence, second: Sequence):
        red = (lambda v: v % modulus) if modulus else (lambda v: v)
        return cls(modulus, [map(red, row) for row in phi],
                   [map(red, row) for row in second])

    @classmethod
    def zero(cls, n: int, modulus: int):
        z = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        return cls(modulus, z, z)


class CocyclePair(_WeightPair):
    """Boltzmann weights for a singquandle: phi at classical crossings,
    phi_prime at singular ones, valued in Z_modulus (0 means Z)."""

    __slots__ = ("modulus", "phi", "phi_prime")

    def __init__(self, modulus: int, phi: Sequence, phi_prime: Sequence):
        self.modulus, self.phi = modulus, _frozen(phi)
        self.phi_prime, self._passed = _frozen(phi_prime), {}


# -- weight-pair axiom systems ------------------------------------------------
#
# Each system is written once, as instances ``(axiom, witness, terms)``: the
# instance holds when ``sum(coef * vec[idx] for idx, coef in terms)`` is 0,
# ``vec`` being the flattened pair (see ``_flat_pair``).  The validators
# evaluate every instance; the cocycle solver reads the same rows.

def _cocycle_system(s: OrientedSingquandle):
    """Instances over (phi, phi_prime) of the classical 2-cocycle condition
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


def _evaluate(n: int, pair: _WeightPair, system) -> ValidationReport:
    """The report listing, sorted, ``(axiom, witness)`` of every instance of
    ``system`` that ``pair`` fails, each sum reduced mod the pair's modulus
    (0 means Z)."""
    vec, m = _flat_pair(n, pair), pair.modulus
    vs = []
    for axiom, witness, terms in system:
        total = 0
        for k, c in terms:
            total += c * vec[k]
        if total % m if m else total:
            vs.append((axiom, witness))
    return ValidationReport(tuple(sorted(vs)))


def validate_cocycle_pair(s: OrientedSingquandle, cp: CocyclePair) -> ValidationReport:
    """Exhaustive check of the classical 2-cocycle condition and the three
    conditions imposed by the singular moves: every instance of
    ``_cocycle_system(s)``, each violation listed."""
    return _evaluate(s.n, cp, _cocycle_system(s))


def _weight_sums(d: SingularDiagram, colorings: list, weights: dict) -> list:
    """Per coloring (a tuple of semiarc colors), the sum over crossings of
    ``sign * table[c_x][c_y]``, where ``weights[kind] = (table, sign, x, y)``
    names ports x and y by their position in the compiled crossing tuple;
    crossings of a kind missing from ``weights`` add nothing."""
    terms = []
    for kind, *arcs in d.compiled:
        if kind in weights:
            table, sign, x, y = weights[kind]
            terms.append((table, sign, arcs[x], arcs[y]))
    sums = []
    for c in colorings:
        total = 0
        for table, sign, x, y in terms:
            total += sign * table[c[x]][c[y]]
        sums.append(total)
    return sums


def _tally(keys: Iterable, tag_of) -> InvariantValue:
    """Multiset of ``tag_of(key)`` over ``keys``, building one tag per
    distinct key."""
    return InvariantValue((tag_of(key), k) for key, k in Counter(keys).items())


def _require_valid(s, pair: _WeightPair, strong: bool = False) -> None:
    """Raise InvariantError unless ``pair`` passes the exhaustive cocycle
    or Boltzmann check against ``s`` (and axiom IV too when ``strong``).

    Passes are recorded on the pair, so each check runs once per structure
    object the pair is used with; a failing pair is checked again, and
    rejected, on every call."""
    entry = pair._passed.get(id(s))
    if entry is None or entry[0] is not s:
        if isinstance(pair, CocyclePair):
            report, what = validate_cocycle_pair(s, pair), "cocycle"
        else:
            report, what = validate_boltzmann(s, pair), "Boltzmann"
        if not report.valid:
            raise InvariantError(f"invalid {what} pair:\n" + report.summary())
        pair._passed[id(s)] = entry = (s, False)
    if strong and not entry[1]:
        if not strongly_compatible(s, pair):
            raise InvariantError("Boltzmann pair is not strongly compatible")
        pair._passed[id(s)] = (s, True)


def state_sum(d: SingularDiagram, s: OrientedSingquandle,
              cp: CocyclePair) -> InvariantValue:
    """Multiset of per-coloring total Boltzmann weights, rendered in u.

    Classical contributions are +phi(under_in, over_in) at a positive
    crossing and -phi(under_out, over_in) at a negative one (so that a
    direct poke cancels exactly); a singular crossing contributes
    phi_prime(in1, in2).  ``cp`` is checked exhaustively against ``s``
    once per structure it is used with; an invalid pair is rejected on
    every call.
    """
    _require_valid(s, cp)
    totals = _weight_sums(d, singquandle_tuples(d, s),
                          {"P": (cp.phi, 1, 0, 1), "N": (cp.phi, -1, 2, 1),
                           "S": (cp.phi_prime, 1, 0, 1)})
    return _tally(totals, lambda t: ExponentTag.ring(t, cp.modulus))


# -- singquandle polynomials --------------------------------------------------

def _profile_sum(elems: Iterable[int], full: list) -> BasePolynomial:
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
    return OrientedSingquandle(table(s.op), table(s.r1), table(s.r2),
                               _checked=True)


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
    tags = s._tags

    def tag(used: frozenset) -> ExponentTag:
        if used not in tags:
            image = substructure_closure(s, used)
            tags[used] = ExponentTag.poly(_profile_sum(image, profile(s)))
        return tags[used]

    return _tally(map(frozenset, singquandle_tuples(d, s)), tag)


# -- shadow polynomials -------------------------------------------------------

def sp(sh: ShadowStructure) -> BasePolynomial:
    """Shadow polynomial: sum over carrier elements of t^(fixing count)."""
    return subsp(range(sh.carrier), range(sh.base.n), sh, _checked=True)


def subsp(region_subset: Iterable[int], acting: Iterable[int],
          sh: ShadowStructure, _checked: bool = False) -> BasePolynomial:
    """Subshadow polynomial, with the fixing count taken against ``acting``."""
    ys = sorted(set(region_subset))
    ss = sorted(set(acting))
    if not _checked:
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
    tags = sh._tags

    def tag(used: tuple) -> ExponentTag:
        if used not in tags:
            acting = substructure_closure(sh.base, used[0])
            image = shadow_closure(sh, used[1], acting)
            tags[used] = ExponentTag.poly(
                subsp(image, acting, sh, _checked=True))
        return tags[used]

    colorings = shadow_tuples(d, sh)
    return _tally(((frozenset(c), frozenset(r)) for c, r in colorings), tag)


SP = shadow_polynomial_invariant


# -- psyquandle Boltzmann weights ---------------------------------------------

class BoltzmannPair(_WeightPair):
    """phi (classical) and psi (singular) weights for a psyquandle,
    valued in Z_modulus (0 means Z)."""

    __slots__ = ("modulus", "phi", "psi")

    def __init__(self, modulus: int, phi: Sequence, psi: Sequence):
        self.modulus, self.phi = modulus, _frozen(phi)
        self.psi, self._passed = _frozen(psi), {}


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


def validate_boltzmann(p: Psyquandle, bp: BoltzmannPair) -> ValidationReport:
    """Boltzmann weight axioms (I)-(III): every instance of
    ``_boltzmann_system(p)``, each violation listed.  Axiom (IV) only sets
    the strong-compatibility flag, via :func:`strongly_compatible`."""
    return _evaluate(p.n, bp, _boltzmann_system(p))


def strongly_compatible(p: Psyquandle, bp: BoltzmannPair) -> bool:
    """Axiom (IV): psi is invariant under the two translation actions;
    every instance of ``_boltzmann_system(p, axiom_iv=True)`` holds.
    Raises InvariantError unless both tables are n x n."""
    return _evaluate(p.n, bp, _boltzmann_system(p, axiom_iv=True)).valid


def _boltzmann_totals(d: SingularDiagram, p: Psyquandle,
                      bp: BoltzmannPair) -> list:
    """Per psyquandle coloring, the (phi part, psi part) of its weight."""
    colorings = psyquandle_tuples(d, p)
    phi = _weight_sums(d, colorings, {"P": (bp.phi, 1, 0, 1),
                                      "N": (bp.phi, -1, 2, 3)})
    psi = _weight_sums(d, colorings, {"S": (bp.psi, 1, 0, 1)})
    return list(zip(phi, psi))


def boltzmann_single(d: SingularDiagram, p: Psyquandle,
                     bp: BoltzmannPair) -> InvariantValue:
    """Single-variable enhanced polynomial: multiset of total weights in w.
    ``bp`` is checked exhaustively against ``p`` (axioms I-III) once per
    structure it is used with; an invalid pair is rejected on every call."""
    _require_valid(p, bp)
    return _tally((a + b for a, b in _boltzmann_totals(d, p, bp)),
                  lambda t: ExponentTag.ring(t, bp.modulus))


def boltzmann_two(d: SingularDiagram, p: Psyquandle,
                  bp: BoltzmannPair) -> InvariantValue:
    """Two-variable enhanced polynomial: multiset of (phi, psi) part totals.
    ``bp`` is checked exhaustively against ``p`` (axioms I-IV) once per
    structure it is used with; an invalid or not strongly compatible pair
    is rejected on every call."""
    _require_valid(p, bp, strong=True)
    m = bp.modulus
    red = (lambda v: v % m) if m else (lambda v: v)
    return _tally(_boltzmann_totals(d, p, bp),
                  lambda ab: ExponentTag.pair(red(ab[0]), red(ab[1])))


# -- cocycle space search -----------------------------------------------------
#
# The validity conditions are Z-linear in the entries of (phi, phi_prime),
# so the valid pairs mod n form the kernel of an integer matrix.  The kernel
# is computed per prime-power factor of n (elimination with p-adic pivots
# and annihilator rows, so nothing is lost to zero divisors) and the factors
# are recombined by the Chinese remainder theorem.  The same routine, run on
# the generators, gives the annihilator rows that decide membership.

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
    """All valid (phi, phi_prime) pairs mod ``modulus`` for one singquandle:
    the span of ``generators``, a tuple of CocyclePair (the zero pair is
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

    def contains(self, cp: CocyclePair) -> bool:
        if cp.modulus != self.modulus:
            raise InvariantError("modulus mismatch")
        vec = _flat_pair(self.structure.n, cp)
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
            pairs.append(CocyclePair.from_rows(m, tables[:n], tables[n:]))
    return CocycleSpace(s, m, tuple(pairs), size, annihilators)


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
    """Parse a weight file into a CocyclePair or BoltzmannPair.

    Rows and columns follow the 1-indexed element order of the companion
    algebra file; the entries themselves are ring values.
    """
    modulus = None
    blocks: dict = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("modulus:"):
            text_m = line.split(":", 1)[1].strip()
            try:
                modulus = int(text_m)
            except ValueError:
                raise InvariantError(f"line {line_no}: modulus must be an "
                                     f"integer, got {text_m!r}") from None
            if modulus < 0:
                raise InvariantError(f"line {line_no}: modulus must be >= 0")
            continue
        key = line.rstrip(":")
        if line.endswith(":") and key in ("phi", "phiprime", "psi"):
            if key in blocks:
                raise InvariantError(f"line {line_no}: duplicate block {key!r}")
            current = blocks.setdefault(key, [])
            continue
        if current is None:
            raise InvariantError(f"line {line_no}: data outside a block")
        try:
            current.append([int(tok) for tok in line.split()])
        except ValueError:
            raise InvariantError(f"line {line_no}: bad integer row {line!r}")
    if modulus is None:
        raise InvariantError("missing modulus: header")
    n = len(blocks.get("phi", []))
    if not n or any(len(r) != n for r in blocks["phi"]):
        raise InvariantError("phi block must be a square table")
    if ("phiprime" in blocks) == ("psi" in blocks):
        raise InvariantError("need exactly one of phiprime:/psi: besides phi:")
    key = "phiprime" if "phiprime" in blocks else "psi"
    if len(blocks[key]) != n or any(len(r) != n for r in blocks[key]):
        raise InvariantError(f"{key} block must be {n}x{n}, like phi")
    pair = CocyclePair if key == "phiprime" else BoltzmannPair
    return pair.from_rows(modulus, blocks["phi"], blocks[key])
