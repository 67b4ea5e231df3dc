"""Invariant values: exponent tags and their canonical multisets.

Invariant values computed from coloring sets are multisets whose elements
("exponent tags") are either residues, integer pairs, or small multivariate
polynomials with integer coefficients.  Everything here is immutable and
hashable so values can be compared, deduplicated and rendered byte-stably.
Only the invariants build these, so counting a diagram's colorings loads
none of it.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Mapping

from .polynomial import BasePolynomial, PolynomialError


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
