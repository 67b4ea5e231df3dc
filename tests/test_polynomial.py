from collections import Counter

import pytest

from singq.polynomial import BasePolynomial, PolynomialError, parse_polynomial
from singq.values import InvariantValue


def P(text):
    return parse_polynomial(text)


class TestBasePolynomial:
    def test_add_disjoint_supports(self):
        assert P("t^2") + P("t") == P("t^2 + t")

    def test_add_cancellation(self):
        assert (P("t^2") + P("-t^2")).is_zero()

    def test_add_merges_shadow_values(self):
        assert P("4t^4") + P("2+2t^8") == P("2 + 4t^4 + 2t^8")

    def test_mul_monomials(self):
        assert P("s1^2") * P("t1^3") == P("s1^2 t1^3")

    def test_mul_identity(self):
        p = P("3 + 2x y - y^2")
        assert p * P("1") == p

    def test_mul_schoolbook(self):
        assert P("1+t") * P("1+t") == P("1 + 2t + t^2")

    def test_zero_coefficients_dropped(self):
        p = BasePolynomial({(("t", 1),): 0, (("t", 2),): 3})
        assert p.terms == ((( ("t", 2),), 3),)

    @pytest.mark.parametrize("text", ["(" * 3000 + "x" + ")" * 3000,
                                      "-" * 3000 + "x"])
    def test_deep_nesting_rejected(self, text):
        with pytest.raises(PolynomialError, match="nested too deeply"):
            P(text)

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolynomialError):
            BasePolynomial({(("t", -1),): 1})

    def test_render_zero(self):
        assert BasePolynomial.zero().render() == "0"

    def test_render_is_deterministic_and_parseable(self):
        for text in ("4t^4", "2t^8 + 2", "s1^4 s2^2 s3 t1^4 t2^2 t3",
                     "2 s1^4 s2^2 s3 t1^4 t2^2 t3", "t^2", "t"):
            assert P(P(text).render()) == P(text)
            assert P(text).render() == P(P(text).render()).render()

    def test_str_is_render(self):
        for text in ("0", "2t^8 + 2", "s1^4 s2^2 s3 t1^4 t2^2 t3"):
            assert str(P(text)) == P(text).render()

    def test_total_degree_and_variables(self):
        p = P("2 x^3 y + 5")
        assert p.total_degree() == 4
        assert p.variables() == ("x", "y")


class TestExponentTag:
    """Exponents of invariant values: ring ints, int pairs, polynomials."""

    def test_canonicalize_idempotent(self):
        # a ring exponent reduced once is reduced, and rebuilding a value
        # from its own multiplicities changes nothing, for every type
        from singq.invariants import _reduce
        red = _reduce(5)
        assert red(7) == red(red(7)) == 2
        for exponent in (red(7), P("1+t"), (2, 3)):
            once = InvariantValue({exponent: 1})
            assert InvariantValue(once.multiplicities) == once
            assert InvariantValue(once.items_sorted()) == once

    def test_mixed_kind_order_rejected(self):
        # a ring exponent and a pair never share a value, so they are
        # never ordered against each other
        with pytest.raises(PolynomialError):
            InvariantValue({1: 1, (1, 2): 1})


class TestInvariantValue:
    def test_render_state_sum_forms(self):
        assert InvariantValue({3: 6}).render() == "6u^3"
        assert InvariantValue({0: 6}).render() == "6"
        assert InvariantValue({1: 1, -2: 3}).render() == "3u^-2 + u"
        assert InvariantValue().render() == "0"

    def test_render_poly_tags(self):
        v = InvariantValue({P("t^2"): 24, P("t"): 24, P("2"): 48})
        assert v.render() == "24u^{t^2} + 24u^{t} + 48u^{2}"

    def test_render_pair_tags(self):
        v = InvariantValue({(0, 0): 18, (1, 1): 6})
        assert v.render() == "18 + 6uv"
        assert v.render(var="a", second_var="b") == "18 + 6ab"
        v = InvariantValue({(2, 0): 1, (0, 3): 2, (1, 0): 4})
        assert v.render() == "2v^3 + 4u + u^2"

    def test_total_multiplicity(self):
        assert InvariantValue({1: 3, 0: 5}).total() == 8

    def test_mixed_kinds_rejected(self):
        for a, b in ((0, P("t")), (0, (0, 1)), ((0, 1), P("t"))):
            with pytest.raises(PolynomialError):
                InvariantValue({a: 1, b: 1})

    def test_polynomial_exponents_compare_by_value(self):
        # the two rows name one exponent, so their multiplicities add
        v = InvariantValue([(P("t^2 + t"), 1), (P("t + t^2"), 1)])
        assert v == InvariantValue({P("t + t^2"): 2})
        assert len(v.multiplicities) == 1

    def test_equality_is_multiset_equality(self):
        a = InvariantValue(Counter([1, 1]))
        b = InvariantValue({1: 2})
        assert a == b and hash(a) == hash(b)
        assert a != InvariantValue({1: 1})
