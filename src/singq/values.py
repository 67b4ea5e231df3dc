"""Invariant values: canonical multisets of exponents.

Invariant values computed from coloring sets are multisets whose elements,
the exponents, are all of one type: ``int`` (a ring element, reduced by
the invariant that made it), an ``(int, int)`` pair (two-variable
Boltzmann values) or a :class:`BasePolynomial` with integer coefficients.
Everything here is immutable and hashable so values can be compared,
deduplicated and rendered byte-stably.  Only the invariants build these,
so counting a diagram's colorings loads none of it.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .polynomial import BasePolynomial, PolynomialError


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

    def render(self, var: str = "u", second_var: str = "v") -> str:
        """Canonical text, e.g. ``6u^3``, ``24u^{t^2} + 24u^{t} + 48u^{2}``."""
        if not self._mult:
            return "0"
        parts = []
        for e, mult in self.items_sorted():
            if isinstance(e, BasePolynomial):
                body = f"{var}^{{{e}}}"
            elif isinstance(e, tuple):
                body = _power(var, e[0]) + _power(second_var, e[1])
            else:
                body = _power(var, e)
            coeff = "" if mult == 1 else str(mult)
            parts.append(f"{coeff}{body}" if body else str(mult))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"InvariantValue({self.render()!r})"
