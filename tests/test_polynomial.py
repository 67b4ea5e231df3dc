import pytest

from singq.polynomial import BasePolynomial, PolynomialError, parse_polynomial
from singq.values import ExponentTag, InvariantValue


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

    def test_total_degree_and_variables(self):
        p = P("2 x^3 y + 5")
        assert p.total_degree() == 4
        assert p.variables() == ("x", "y")


class TestExponentTag:
    def test_ring_reduction(self):
        assert ExponentTag.ring(9, 6) == ExponentTag.ring(3, 6)
        assert ExponentTag.ring(-2, 6) == ExponentTag.ring(4, 6)

    def test_ring_modulus_zero_is_integers(self):
        assert ExponentTag.ring(-2, 0).value == (-2, 0)

    def test_poly_commutativity(self):
        assert ExponentTag.poly(P("t + t^2")) == ExponentTag.poly(P("t^2 + t"))

    def test_canonicalize_idempotent(self):
        for tag in (ExponentTag.ring(7, 5), ExponentTag.poly(P("1+t")),
                    ExponentTag.pair(2, 3)):
            # construction normalizes, so rebuilding changes nothing
            once = ExponentTag(tag.kind, tag.value)
            assert ExponentTag(once.kind, once.value) == once == tag

    def test_mixed_kind_order_rejected(self):
        with pytest.raises(PolynomialError):
            ExponentTag.ring(1, 2) < ExponentTag.pair(1, 2)


class TestInvariantValue:
    def test_render_state_sum_forms(self):
        six_u3 = InvariantValue({ExponentTag.ring(3, 6): 6})
        assert six_u3.render() == "6u^3"
        six = InvariantValue({ExponentTag.ring(0, 6): 6})
        assert six.render() == "6"
        assert InvariantValue().render() == "0"

    def test_render_poly_tags(self):
        v = InvariantValue({ExponentTag.poly(P("t^2")): 24,
                            ExponentTag.poly(P("t")): 24,
                            ExponentTag.poly(P("2")): 48})
        assert v.render() == "24u^{t^2} + 24u^{t} + 48u^{2}"

    def test_render_pair_tags(self):
        v = InvariantValue({ExponentTag.pair(0, 0): 18,
                            ExponentTag.pair(1, 1): 6})
        assert v.render() == "18 + 6uv"
        assert v.render(var="a", second_var="b") == "18 + 6ab"

    def test_total_multiplicity(self):
        v = InvariantValue({ExponentTag.ring(1, 2): 3,
                            ExponentTag.ring(0, 2): 5})
        assert v.total() == 8

    def test_mixed_kinds_rejected(self):
        with pytest.raises(PolynomialError):
            InvariantValue({ExponentTag.ring(0, 2): 1,
                            ExponentTag.poly(P("t")): 1})

    def test_mixed_moduli_rejected(self):
        with pytest.raises(PolynomialError):
            InvariantValue({ExponentTag.ring(0, 2): 1,
                            ExponentTag.ring(0, 3): 1})

    def test_equality_is_multiset_equality(self):
        a = InvariantValue.from_tags([ExponentTag.ring(5, 4),
                                      ExponentTag.ring(1, 4)])
        b = InvariantValue({ExponentTag.ring(1, 4): 2})
        assert a == b
