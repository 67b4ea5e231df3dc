"""Exact multivariate polynomials with integer coefficients.

:class:`BasePolynomial` is immutable and hashable, with a canonical term
order, so polynomials compare and render byte-stably; ``parse_polynomial``
reads the formulas of ``.alg`` files.  The invariant values built from
them are in :mod:`singq.invariants`.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from . import SingqError


class PolynomialError(SingqError):
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
    def const(cls, c: int) -> "BasePolynomial":
        return cls({(): c})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: int = 1) -> "BasePolynomial":
        return cls({tuple(exps.items()): coeff})

    @property
    def terms(self) -> tuple:
        return self._terms

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
        # on polynomial exponents.  Leading high-degree terms compare first.
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

    __str__ = render

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
    non-negative integer exponent.  There is no division.  Text nested
    deeper than the interpreter's recursion limit allows is refused.
    """
    pos = 0
    n = len(text)

    def error(msg):
        return PolynomialError(f"{msg} at position {pos} in {text!r}")

    def peek():
        return _TOKEN.match(text, pos)

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

    try:
        result = parse_sum()
    except RecursionError:
        raise error("nested too deeply") from None
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
