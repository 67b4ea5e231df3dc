"""Property-based and randomized suites."""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from singq.algebra import (ParameterError, ShadowStructure,
                           affine_singquandle, substructure_closure,
                           validate_shadow)
from singq.coloring import (psyquandle_colorings, shadow_colorings,
                            singquandle_colorings)
from singq.invariants import (_reduce, boltzmann_single, boltzmann_two,
                              phi_ssqp, shadow_polynomial_invariant, sp,
                              state_sum)
from singq.morphisms import are_isomorphic, is_homomorphism
from singq.polynomial import BasePolynomial, parse_polynomial

from conftest import MOVE_PAIRS


# -- polynomial arithmetic ----------------------------------------------------

monomials = st.dictionaries(st.sampled_from("xyz"), st.integers(0, 4),
                            max_size=3)
polys = st.lists(st.tuples(monomials, st.integers(-5, 5)), max_size=5).map(
    lambda terms: sum((BasePolynomial.monomial(m, c) for m, c in terms),
                     BasePolynomial()))


def naive_product(p, q):
    """Term-list product without canonicalization shortcuts."""
    acc = BasePolynomial()
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            acc = acc + BasePolynomial.monomial(exps, c1 * c2)
    return acc


class TestPolynomialProperties:
    @given(polys, polys)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    def test_product_matches_naive_oracle(self, p, q):
        assert p * q == naive_product(p, q)

    @given(polys)
    def test_render_parse_round_trip(self, p):
        text = p.render()
        assert parse_polynomial(text).render() == text

    @given(st.integers(-20, 20), st.integers(0, 12))
    def test_ring_tag_canonicalization(self, v, m):
        # a ring exponent reduced once is reduced: reducing it again, or
        # reducing v plus a multiple of m, gives it back
        red = _reduce(m)
        e = red(v)
        assert red(e) == e == red(v + 3 * m)
        if m:
            assert 0 <= e < m
        else:
            assert e == v


# -- affine family ------------------------------------------------------------

class TestAffineFamily:
    def test_every_triple_up_to_order_twelve(self, small_singquandles):
        """For every n <= 12 and a, b, c in Z_n (6 084 triples), the family
        accepts exactly when a is invertible mod n and (1-a)(1-b-c) == 0
        mod n; what it accepts passes the axioms (construction validates),
        and for n <= 3 the tables it builds are among the enumerated
        singquandles."""
        accepted = 0
        for n in range(1, 13):
            labelled = {member for members in small_singquandles.get(n, {})
                        .values() for member in members}
            for a, b, c in itertools.product(range(n), repeat=3):
                if gcd(a, n) == 1 and (1 - a) * (1 - b - c) % n == 0:
                    s = affine_singquandle(n, a, b, c)
                    assert n > 3 or (s.star.flat(), s.r1.flat(),
                                     s.r2.flat()) in labelled
                    accepted += 1
                else:
                    with pytest.raises(ParameterError):
                        affine_singquandle(n, a, b, c)
        assert accepted == 1171


# -- isomorphism transport ----------------------------------------------------

class TestIsomorphismTransport:
    def test_relabeling_always_isomorphic(self, z6, z8k):
        rng = random.Random(7)
        for s in (z6, z8k):
            for _ in range(10):
                perm = list(range(s.n))
                rng.shuffle(perm)
                moved = s.relabel(perm)
                f = are_isomorphic(s, moved)
                assert f is not None
                assert is_homomorphism(f, s, moved)

    def test_witness_inverts(self, z6):
        moved = z6.relabel([5, 4, 3, 2, 1, 0])
        f = are_isomorphic(z6, moved)
        inv = [0] * 6
        for i, v in enumerate(f):
            inv[v] = i
        assert is_homomorphism(inv, moved, z6)


# -- closure properties -------------------------------------------------------

class TestClosureProperties:
    def test_extensive_idempotent_monotone(self, z6, z8k):
        rng = random.Random(11)
        for s in (z6, z8k):
            for _ in range(25):
                seed = set(rng.sample(range(s.n), rng.randint(0, s.n)))
                closed = substructure_closure(s, seed)
                assert seed <= closed
                assert substructure_closure(s, closed) == closed
                bigger = seed | {rng.randrange(s.n)}
                assert closed <= substructure_closure(s, bigger)


# -- shadow relabeling invariance ---------------------------------------------

def relabel_shadow(sh, px, ps):
    base = sh.base.relabel(ps)
    rows = [[0] * sh.base.n for _ in range(sh.carrier)]
    for x in range(sh.carrier):
        for s in range(sh.base.n):
            rows[px[x]][ps[s]] = px[sh.action[x][s]]
    return ShadowStructure(base, rows)


class TestShadowRelabeling:
    def test_sp_invariant_under_100_relabelings(self, z8_z6_shadow,
                                                z8_z4_shadow_a,
                                                z8_z4_shadow_b):
        rng = random.Random(13)
        for sh in (z8_z6_shadow, z8_z4_shadow_a, z8_z4_shadow_b):
            expected = sp(sh)
            for _ in range(34):
                px = list(range(sh.carrier))
                ps = list(range(sh.base.n))
                rng.shuffle(px)
                rng.shuffle(ps)
                moved = relabel_shadow(sh, px, ps)
                assert validate_shadow(moved.base, moved.action).valid
                assert sp(moved) == expected


# -- move invariance ----------------------------------------------------------

class TestMoveInvariance:
    @pytest.mark.parametrize("pair", MOVE_PAIRS, ids=lambda p: p[0])
    def test_all_five_invariant_kinds(self, pair, corpus, z6, z6_cocycle,
                                      z8_z6_shadow, psy6, psy6_boltzmann,
                                      psy6_boltzmann_strong):
        a, b = corpus[pair[0]], corpus[pair[1]]
        assert (len(singquandle_colorings(a, z6))
                == len(singquandle_colorings(b, z6)))
        assert state_sum(a, z6, z6_cocycle) == state_sum(b, z6, z6_cocycle)
        assert phi_ssqp(a, z6) == phi_ssqp(b, z6)
        assert (len(shadow_colorings(a, z8_z6_shadow))
                == len(shadow_colorings(b, z8_z6_shadow)))
        assert (shadow_polynomial_invariant(a, z8_z6_shadow)
                == shadow_polynomial_invariant(b, z8_z6_shadow))
        assert (len(psyquandle_colorings(a, psy6))
                == len(psyquandle_colorings(b, psy6)))
        assert (boltzmann_single(a, psy6, psy6_boltzmann)
                == boltzmann_single(b, psy6, psy6_boltzmann))
        assert (boltzmann_two(a, psy6, psy6_boltzmann_strong)
                == boltzmann_two(b, psy6, psy6_boltzmann_strong))
