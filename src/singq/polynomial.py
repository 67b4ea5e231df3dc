"""Exact polynomial values and canonical multiset invariants.

Invariant values computed from coloring sets are multisets whose elements
("exponent tags") are either residues, integer pairs, or small multivariate
polynomials with integer coefficients.  Everything here is immutable and
hashable so values can be compared, deduplicated and rendered byte-stably.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterable, Mapping


class PolynomialError(ValueError):
    pass


def _canon_terms(terms: Mapping[tuple, int]) -> tuple:
    """Drop zero coefficients and freeze the term map.

    Keys are exponent vectors given as tuples of (variable, exponent) pairs;
    pairs with exponent 0 are removed and the rest sorted by variable name.
    """
    out = {}
    for key, coeff in terms.items():
        if coeff == 0:
            continue
        mono = tuple(sorted((v, e) for v, e in key if e != 0))
        for v, e in mono:
            if e < 0:
                raise PolynomialError(f"negative exponent on {v}")
            if not isinstance(e, int):
                raise PolynomialError("exponents must be integers")
        out[mono] = out.get(mono, 0) + coeff
    return tuple(sorted(((m, c) for m, c in out.items() if c != 0),
                        key=lambda mc: _mono_sort_key(mc[0])))


def _mono_sort_key(mono: tuple) -> tuple:
    # Descending graded-lex: higher total degree first, then the exponent
    # vector (over all variables, alphabetical) descending.
    deg = sum(e for _, e in mono)
    return (-deg, tuple((v, -e) for v, e in mono))


class BasePolynomial:
    """Multivariate polynomial with integer coefficients, canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, int] | Iterable | None = None):
        if terms is None:
            terms = {}
        if not isinstance(terms, Mapping):
            terms = dict(terms)
        self._terms = _canon_terms(terms)

    @classmethod
    def zero(cls) -> "BasePolynomial":
        return cls()

    @classmethod
    def const(cls, c: int) -> "BasePolynomial":
        return cls({(): c})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: int = 1) -> "BasePolynomial":
        return cls({tuple(exps.items()): coeff})

    @property
    def terms(self) -> tuple:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> tuple:
        return tuple(sorted({v for m, _ in self._terms for v, _ in m}))

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e for _, e in m) for m, _ in self._terms)

    def __add__(self, other: "BasePolynomial") -> "BasePolynomial":
        acc = {m: c for m, c in self._terms}
        for m, c in other._terms:
            acc[m] = acc.get(m, 0) + c
        return BasePolynomial(acc)

    def __neg__(self) -> "BasePolynomial":
        return BasePolynomial({m: -c for m, c in self._terms})

    def __sub__(self, other: "BasePolynomial") -> "BasePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "BasePolynomial":
        if isinstance(other, int):
            other = BasePolynomial.const(other)
        acc: dict = {}
        for m1, c1 in self._terms:
            e1 = dict(m1)
            for m2, c2 in other._terms:
                e = dict(e1)
                for v, k in m2:
                    e[v] = e.get(v, 0) + k
                key = tuple(e.items())
                acc[key] = acc.get(key, 0) + c1 * c2
        return BasePolynomial(acc)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, BasePolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def sort_key(self) -> tuple:
        # Graded-lex on the canonical term sequence; used for the total order
        # on Poly exponent tags.  Leading high-degree terms compare first.
        return tuple((_mono_sort_key(m), c) for m, c in self._terms)

    def render(self) -> str:
        """Deterministic text form, e.g. ``s1^4 t1^4 s3 t3`` or ``2 + 4t^4``.

        Variables inside a monomial are alphabetical; monomials are ordered
        descending graded-lex.  The empty polynomial renders as ``0``.
        """
        if not self._terms:
            return "0"
        out = []
        for mono, coeff in self._terms:
            factors = []
            for v, e in mono:
                factors.append(v if e == 1 else f"{v}^{e}")
            body = " ".join(factors)
            mag = abs(coeff)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                sep = " " if " " in body else ""
                piece = f"{mag}{sep}{body}"
            if not out:
                out.append(piece if coeff > 0 else f"-{piece}")
            else:
                out.append(f"{'+' if coeff > 0 else '-'} {piece}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"BasePolynomial({self.render()!r})"


# A variable is one letter plus optional digits, so ``6xy`` is 6*x*y while
# ``s1^4 t1`` keeps its indexed names; ``**`` is matched before ``*``.
_TOKEN = re.compile(
    r"\s*(?:(\d+)|([A-Za-z]\d*)|(\^|\*\*)|(\+)|([-\u2212])|(\*)|(\()|(\)))")


def parse_polynomial(text: str) -> BasePolynomial:
    """Parse ``+``/``-`` separated products of integers and powered variables.

    Accepts implicit multiplication (``6xy``, ``2 s1^2 t1``), parentheses,
    a sign before any factor (``x*-y``) and ``^`` or ``**`` with a
    non-negative integer exponent.  There is no division.
    """
    pos = 0
    n = len(text)

    def error(msg):
        return PolynomialError(f"{msg} at position {pos} in {text!r}")

    def peek():
        nonlocal pos
        m = _TOKEN.match(text, pos)
        if m is None:
            return None
        return m

    def take():
        nonlocal pos
        m = peek()
        if m is None:
            raise error("unexpected character")
        pos = m.end()
        return m

    def parse_sum():
        acc = parse_product()
        while True:
            m = peek()
            if m is None or not (m.group(4) or m.group(5)):
                return acc
            take()
            term = parse_product()
            acc = acc + (term if m.group(4) else -term)

    def parse_product():
        acc = parse_factor()
        while True:
            m = peek()
            if m is None:
                return acc
            if m.group(6):  # explicit *
                take()
                acc = acc * parse_factor()
            elif m.group(1) or m.group(2) or m.group(7):  # implicit
                acc = acc * parse_factor()
            else:
                return acc

    def parse_factor():
        m = take()
        if m.group(4) or m.group(5):  # unary sign, binds looser than ^
            factor = parse_factor()
            return -factor if m.group(5) else factor
        if m.group(1):
            base = BasePolynomial.const(int(m.group(1)))
        elif m.group(2):
            base = BasePolynomial.monomial({m.group(2): 1})
        elif m.group(7):
            inner = parse_sum()
            closing = take()
            if not closing.group(8):
                raise error("expected ')'")
            base = inner
        else:
            raise error("expected a factor")
        m = peek()
        if m and m.group(3):
            take()
            em = take()
            if not em.group(1):
                raise error("expected integer exponent")
            return _power(base, int(em.group(1)))
        return base

    result = parse_sum()
    if pos != n and text[pos:].strip():
        raise error("trailing input")
    return result


def _power(base: BasePolynomial, e: int) -> BasePolynomial:
    """``base ** e`` by repeated squaring."""
    out = BasePolynomial.const(1)
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


@total_ordering
class ExponentTag:
    """One element of an invariant multiset.

    Exactly one of three shapes: a residue (mod ``n``, or a plain integer
    when ``n == 0``), a :class:`BasePolynomial`, or an integer pair used by
    two-variable Boltzmann values.
    """

    __slots__ = ("kind", "value")

    RING = "ring"
    POLY = "poly"
    PAIR = "pair"

    def __init__(self, kind: str, value):
        if kind == self.RING:
            v, mod = value
            if mod < 0:
                raise PolynomialError("modulus must be >= 0")
            if mod:
                v %= mod
            value = (v, mod)
        elif kind == self.POLY:
            if not isinstance(value, BasePolynomial):
                raise PolynomialError("poly tag needs a BasePolynomial")
        elif kind == self.PAIR:
            a, b = value
            value = (a, b)
        else:
            raise PolynomialError(f"unknown tag kind {kind!r}")
        self.kind = kind
        self.value = value

    @classmethod
    def ring(cls, value: int, modulus: int = 0) -> "ExponentTag":
        return cls(cls.RING, (value, modulus))

    @classmethod
    def poly(cls, p: BasePolynomial) -> "ExponentTag":
        return cls(cls.POLY, p)

    @classmethod
    def pair(cls, a: int, b: int) -> "ExponentTag":
        return cls(cls.PAIR, (a, b))

    def _order_key(self):
        if self.kind == self.RING:
            return (0, self.value[0])
        if self.kind == self.POLY:
            return (1, self.value.sort_key())
        return (2, self.value)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExponentTag)
                and self.kind == other.kind and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    def __lt__(self, other) -> bool:
        if self.kind != other.kind:
            raise PolynomialError("cannot order tags of different kinds")
        return self._order_key() < other._order_key()

    def render_exponent(self) -> str:
        if self.kind == self.RING:
            return str(self.value[0])
        if self.kind == self.POLY:
            return self.value.render()
        return str(self.value)

    def __repr__(self) -> str:
        return f"ExponentTag({self.kind}, {self.render_exponent()})"


class InvariantValue:
    """Finite multiset of exponent tags with positive multiplicities.

    Renders as a formal sum ``sum a_i u^{tag_i}`` in a chosen variable.
    """

    __slots__ = ("_mult",)

    def __init__(self, multiplicities: Mapping[ExponentTag, int] | Iterable | None = None):
        acc: dict = {}
        if multiplicities is not None:
            items = (multiplicities.items()
                     if isinstance(multiplicities, Mapping) else multiplicities)
            for tag, m in items:
                if m < 0:
                    raise PolynomialError("multiplicities must be positive")
                if m:
                    acc[tag] = acc.get(tag, 0) + m
        kinds = {t.kind for t in acc}
        if len(kinds) > 1:
            raise PolynomialError("mixed tag kinds in one invariant value")
        if kinds == {ExponentTag.RING}:
            mods = {t.value[1] for t in acc}
            if len(mods) > 1:
                raise PolynomialError("mixed moduli in one invariant value")
        self._mult = dict(acc)

    @classmethod
    def from_tags(cls, tags: Iterable[ExponentTag]) -> "InvariantValue":
        acc: dict = {}
        for t in tags:
            acc[t] = acc.get(t, 0) + 1
        return cls(acc)

    @property
    def multiplicities(self) -> dict:
        return dict(self._mult)

    def total(self) -> int:
        return sum(self._mult.values())

    def items_sorted(self):
        return sorted(self._mult.items(), key=lambda kv: kv[0]._order_key())

    def __eq__(self, other) -> bool:
        return isinstance(other, InvariantValue) and self._mult == other._mult

    def __hash__(self) -> int:
        return hash(frozenset(self._mult.items()))

    def render(self, var: str = "u", second_var: str = "v") -> str:
        """Canonical text, e.g. ``6u^3``, ``24u^{t^2} + 24u^{t} + 48u^{2}``."""
        if not self._mult:
            return "0"
        parts = []
        for tag, mult in self.items_sorted():
            coeff = "" if mult == 1 else str(mult)
            if tag.kind == ExponentTag.RING:
                e = tag.value[0]
                if e == 0:
                    parts.append(str(mult))
                elif e == 1:
                    parts.append(f"{coeff}{var}")
                else:
                    parts.append(f"{coeff}{var}^{e}")
            elif tag.kind == ExponentTag.POLY:
                parts.append(f"{coeff}{var}^{{{tag.value.render()}}}")
            else:
                a, b = tag.value
                ub = "" if a == 0 else (var if a == 1 else f"{var}^{a}")
                vb = "" if b == 0 else (second_var if b == 1 else f"{second_var}^{b}")
                body = ub + vb
                parts.append(str(mult) if not body else f"{coeff}{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"InvariantValue({self.render()!r})"
