import copy
import itertools
import pickle
from collections import Counter

import pytest

from singq.algebra import (AlgebraError, OrientedSingquandle,
                           affine_singquandle, formula_shadow,
                           formula_structure, kept, profile)
from singq import coloring
from singq.coloring import singquandle_colorings, psyquandle_colorings
from singq.data import load_algebra
from singq import invariants, solver
from singq.invariants import (InvariantError, InvariantValue, WeightPair,
                              boltzmann_single, boltzmann_two,
                              parse_weights, phi_ssqp, restrict,
                              shadow_polynomial_invariant, sp, sqp, ssqp,
                              state_sum, strongly_compatible, subsp,
                              validate_boltzmann, validate_cocycle_pair)
from singq.polynomial import BasePolynomial, parse_polynomial
from singq.solver import _cocycle_rows, solve_cocycle_space

from conftest import (STRUCTURES, class_sample, cocycle_kernel_size,
                      cocycle_verdicts_mod_2, singquandle)


class TestCocycleValidation:
    def test_bundled_pair_is_valid(self, z6, z6_cocycle):
        assert validate_cocycle_pair(z6, z6_cocycle).valid

    def test_zero_pair_always_valid(self, z6, z8k):
        for s in (z6, z8k):
            zero = WeightPair.zero("cocycle", s.n, 6)
            assert validate_cocycle_pair(s, zero).valid

    def test_dropping_phi_prime_breaks_validity(self, z6, z6_cocycle):
        broken = WeightPair.from_rows("cocycle", 6, z6_cocycle.phi,
                                      [[0] * 6 for _ in range(6)])
        report = validate_cocycle_pair(z6, broken)
        assert not report.valid

    def test_size_mismatch(self, z6):
        with pytest.raises(InvariantError):
            validate_cocycle_pair(z6, WeightPair.zero("cocycle", 3, 6))


class TestStateSum:
    def test_published_values(self, corpus, z6, z6_cocycle):
        assert state_sum(corpus["5k6.dgm"], z6, z6_cocycle).render() == "6u^3"
        assert state_sum(corpus["5k7.dgm"], z6, z6_cocycle).render() == "6"

    def test_zero_pair_counts_colorings(self, corpus, z6):
        zero = WeightPair.zero("cocycle", 6, 6)
        for name, d in corpus.items():
            value = state_sum(d, z6, zero)
            count = len(singquandle_colorings(d, z6))
            assert value.render() == str(count), name
            assert value.total() == count, name

    def test_invalid_pair_rejected(self, corpus, z6):
        bad = WeightPair.from_rows("cocycle", 6, [[1] * 6 for _ in range(6)],
                                   [[0] * 6 for _ in range(6)])
        with pytest.raises(InvariantError):
            state_sum(corpus["5k6.dgm"], z6, bad)


class TestProfilesAndPolynomials:
    def test_one_element_profile(self, one_element):
        assert profile(one_element) == [(1, 1, 1, 1, 1, 1)]
        assert sqp(one_element).render() == "s1 s2 s3 t1 t2 t3"

    def test_trivial_quandle_profile(self):
        n = 4
        s = formula_structure(n, "x", "x", "y")
        expected = (n, n, n, n, 1, 1)   # (r1, c1, r2, c2, r3, c3)
        assert profile(s) == [expected] * n
        assert sqp(s) == parse_polynomial("4 s1^4 s2^4 s3 t1^4 t2^4 t3")

    def test_ssqp_full_set_is_sqp(self, z8k):
        assert ssqp(range(8), z8k) == sqp(z8k)

    def test_ssqp_empty_set(self, z8k):
        assert not ssqp((), z8k).terms

    def test_ssqp_requires_closure(self, z8k):
        with pytest.raises(InvariantError):
            ssqp({0, 1}, z8k)

    def test_restrict_builds_substructure(self, z8k):
        from singq.algebra import substructure_closure
        sub = substructure_closure(z8k, {0})
        small = restrict(z8k, sub)
        assert small.n == len(sub)
        with pytest.raises(InvariantError):
            restrict(z8k, {0, 1})

    def test_phi_ssqp_published_values(self, corpus, z8k):
        assert phi_ssqp(corpus["k1.dgm"], z8k).render() == (
            "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3}"
            " + 4u^{2 s1^4 s2^2 s3 t1^4 t2^2 t3}")
        assert phi_ssqp(corpus["k2.dgm"], z8k).render() == (
            "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3} + 4u^{4 s1^4 s3 t1^4 t3}")

    def test_phi_ssqp_one_element(self, corpus, one_element):
        value = phi_ssqp(corpus["5k6.dgm"], one_element)
        assert value.render() == "u^{s1 s2 s3 t1 t2 t3}"


class TestShadowPolynomials:
    def test_published_sp_values(self, z8_z4_shadow_a, z8_z4_shadow_b):
        assert sp(z8_z4_shadow_a).render() == "4t^4"
        assert sp(z8_z4_shadow_b).render() == "2t^8 + 2"

    def test_trivial_action(self, z6):
        sh = formula_shadow(z6, 5, "x")
        assert sp(sh) == parse_polynomial("5t^6")

    def test_subsp_full_is_sp(self, z8_z6_shadow):
        sh = z8_z6_shadow
        assert subsp(range(sh.carrier), range(sh.base.n), sh) == sp(sh)

    def test_subsp_empty(self, z8_z6_shadow):
        assert not subsp((), (), z8_z6_shadow).terms

    def test_subsp_requires_closed_inputs(self, z8_z6_shadow):
        with pytest.raises(InvariantError):
            subsp({0}, {1}, z8_z6_shadow)

    def test_published_SP_values(self, corpus, z8_z6_shadow):
        value = shadow_polynomial_invariant(corpus["4_1k.dgm"], z8_z6_shadow)
        assert value.render() == "24u^{t^2} + 24u^{t} + 48u^{2}"
        value = shadow_polynomial_invariant(corpus["5_4k.dgm"], z8_z6_shadow)
        assert value.render() == "48u^{t^4} + 24u^{t^2} + 24u^{t}"

    def test_equal_phi_ssqp_distinct_SP(self, corpus, z8_z6_shadow):
        base = z8_z6_shadow.base
        d1, d2 = corpus["4_1k.dgm"], corpus["5_4k.dgm"]
        assert phi_ssqp(d1, base) == phi_ssqp(d2, base)
        assert (shadow_polynomial_invariant(d1, z8_z6_shadow)
                != shadow_polynomial_invariant(d2, z8_z6_shadow))

    def test_distinct_phi_ssqp(self, corpus, z8k):
        assert phi_ssqp(corpus["k1.dgm"], z8k) != phi_ssqp(corpus["k2.dgm"], z8k)


class TestBoltzmann:
    def test_bundled_pairs_valid(self, psy6, psy6_boltzmann,
                                 psy6_boltzmann_strong):
        assert validate_boltzmann(psy6, psy6_boltzmann).valid
        assert validate_boltzmann(psy6, psy6_boltzmann_strong).valid

    def test_axiom_four_outcomes(self, psy6, psy6_boltzmann,
                                 psy6_boltzmann_strong):
        # the first bundled pair satisfies (I)-(III) but not (IV)
        assert not strongly_compatible(psy6, psy6_boltzmann)
        assert strongly_compatible(psy6, psy6_boltzmann_strong)

    def test_flipped_entry_invalid(self, psy6, psy6_boltzmann):
        phi = [list(r) for r in psy6_boltzmann.phi]
        phi[0][1] ^= 1
        broken = WeightPair.from_rows("boltzmann", 2, phi,
                                      psy6_boltzmann.singular)
        assert not validate_boltzmann(psy6, broken).valid

    @pytest.mark.parametrize("n", [3, 7])
    def test_strong_check_rejects_wrong_size(self, psy6, n):
        with pytest.raises(InvariantError, match="weight table is not 6x6"):
            strongly_compatible(psy6, WeightPair.zero("boltzmann", n, 2))

    def test_zero_pair(self, corpus, psy6):
        zero = WeightPair.zero("boltzmann", 6, 2)
        assert validate_boltzmann(psy6, zero).valid
        assert strongly_compatible(psy6, zero)
        d = corpus["1l1.dgm"]
        count = len(psyquandle_colorings(d, psy6))
        assert boltzmann_single(d, psy6, zero).render(var="w") == str(count)
        assert boltzmann_two(d, psy6, zero).render() == str(count)

    def test_published_bouquet_row(self, corpus, psy6, psy6_boltzmann):
        d = corpus["1l1.dgm"]
        assert len(psyquandle_colorings(d, psy6)) == 24
        value = boltzmann_single(d, psy6, psy6_boltzmann)
        assert value.render(var="w") == "6 + 18w"

    def test_two_variable_needs_strong_compatibility(self, corpus, psy6,
                                                     psy6_boltzmann):
        with pytest.raises(InvariantError):
            boltzmann_two(corpus["1l1.dgm"], psy6, psy6_boltzmann)

    def test_two_variable_value_and_collapse(self, corpus, psy6,
                                             psy6_boltzmann_strong):
        d = corpus["1l1.dgm"]
        two = boltzmann_two(d, psy6, psy6_boltzmann_strong)
        assert two.render() == "18 + 6uv"
        single = boltzmann_single(d, psy6, psy6_boltzmann_strong)
        collapsed = Counter()
        for (a, b), m in two.multiplicities.items():
            collapsed[(a + b) % 2] += m
        assert collapsed == single.multiplicities


class TestExponents:
    """Ring exponents of the three weighted invariants.  A pair with phi = 0
    and every singular entry ``c`` is a cocycle pair, and a strongly
    compatible Boltzmann pair, over any modulus, so every coloring's total
    is ``c`` times the diagram's singular crossing count."""

    @staticmethod
    def values(d, s, kind, modulus, c, exponent):
        """(value, expected value) of each weighted invariant of ``kind``
        over ``s``, for that pair: every coloring has the ring exponent
        ``exponent``, given the unreduced total."""
        n = s.n
        pair = WeightPair(kind, modulus, [[0] * n] * n, [[c] * n] * n)
        e = exponent(c * sum(x.kind == "S" for x in d.crossings))
        if kind == "cocycle":
            count = len(singquandle_colorings(d, s))
            expected = [(state_sum, e)]
        else:
            count = len(psyquandle_colorings(d, s))
            expected = [(boltzmann_single, e), (boltzmann_two, (0, e))]
        return [(call(d, s, pair), InvariantValue({want: count}))
                for call, want in expected]

    def test_ring_exponents_reduced_mod_modulus(self, corpus, z6, psy6):
        for (s, kind), modulus, c in itertools.product(
                ((z6, "cocycle"), (psy6, "boltzmann")), (2, 5, 6),
                (7, -7, 13)):
            for name, d in corpus.items():
                for value, want in self.values(d, s, kind, modulus, c,
                                               lambda t: t % modulus):
                    assert value == want, name

    def test_modulus_zero_keeps_integers(self, corpus, z6, psy6):
        for (s, kind), c in itertools.product(
                ((z6, "cocycle"), (psy6, "boltzmann")), (7, -7)):
            for name, d in corpus.items():
                for value, want in self.values(d, s, kind, 0, c, lambda t: t):
                    assert value == want, name

    @pytest.mark.parametrize("kind, call, s", [
        ("cocycle", state_sum, "z6"), ("boltzmann", boltzmann_single, "psy6"),
        ("boltzmann", boltzmann_two, "psy6")])
    def test_negative_modulus_refused(self, request, corpus, kind, call, s):
        s = request.getfixturevalue(s)
        zero = [[0] * s.n] * s.n
        with pytest.raises(InvariantError, match="modulus must be >= 0"):
            call(corpus["1l1.dgm"], s, WeightPair(kind, -2, zero, zero))
        with pytest.raises(InvariantError, match="modulus must be >= 0"):
            WeightPair.from_rows(kind, -6, zero, zero)


def test_unknown_kind_refused():
    with pytest.raises(InvariantError, match="^kind must be 'cocycle' or "
                                             "'boltzmann', got 'foo'$"):
        WeightPair("foo", 2, [[0]], [[0]])


@pytest.mark.parametrize("kind", ["cocycle", "boltzmann"])
def test_constructor_freezes_rows(kind):
    rows = [[0, 1], [1, 0]]
    pair = WeightPair(kind, 2, rows, [[0, 0], [0, 0]])
    assert pair.kind == kind and pair.phi == ((0, 1), (1, 0))
    same = WeightPair.from_rows(kind, 2, rows, [[0, 0], [0, 0]])
    assert pair == same and hash(pair) == hash(same)
    zero = WeightPair(kind, 2, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert zero == WeightPair.zero(kind, 2, 2)
    assert hash(zero) == hash(WeightPair.zero(kind, 2, 2))
    other = "boltzmann" if kind == "cocycle" else "cocycle"
    assert zero != WeightPair.zero(other, 2, 2)


def other_kind(pair):
    """``pair``'s modulus and tables, as a pair of the other kind."""
    kind = "boltzmann" if pair.kind == "cocycle" else "cocycle"
    return WeightPair.from_rows(kind, pair.modulus, pair.phi, pair.singular)


@pytest.mark.parametrize("kind, call", [
    pytest.param("cocycle", lambda d, s, w: state_sum(d, s, w),
                 id="state_sum"),
    pytest.param("cocycle", lambda d, s, w: validate_cocycle_pair(s, w),
                 id="validate_cocycle_pair"),
    pytest.param("cocycle",
                 lambda d, s, w: solve_cocycle_space(s, w.modulus).contains(w),
                 id="contains"),
    pytest.param("boltzmann", lambda d, s, w: boltzmann_single(d, s, w),
                 id="boltzmann_single"),
    pytest.param("boltzmann", lambda d, s, w: boltzmann_two(d, s, w),
                 id="boltzmann_two"),
    pytest.param("boltzmann", lambda d, s, w: validate_boltzmann(s, w),
                 id="validate_boltzmann"),
    pytest.param("boltzmann", lambda d, s, w: strongly_compatible(s, w),
                 id="strongly_compatible"),
])
def test_wrong_kind_rejected(kind, call, corpus, z6, z6_cocycle, psy6,
                             psy6_boltzmann_strong):
    """The structure's own valid pair, as a pair of the other kind, is
    refused by name: the invariant, not the pair, picks the axiom system."""
    s, pair = ((z6, z6_cocycle) if kind == "cocycle"
               else (psy6, psy6_boltzmann_strong))
    wrong = other_kind(pair)
    with pytest.raises(InvariantError, match=f"^needs a {kind} pair, "
                                             f"got a {wrong.kind} pair$"):
        call(corpus["1l1.dgm"], s, wrong)


def test_pass_does_not_cover_the_other_kind(corpus, z6, z6_cocycle, psy6,
                                            psy6_boltzmann_strong):
    """A recorded pass is for the pair's own kind: used as the other kind
    with the same structure object, the pair is refused all the same."""
    d = corpus["1l1.dgm"]
    cp, bp = fresh(z6_cocycle), fresh(psy6_boltzmann_strong)
    state_sum(d, z6, cp)
    boltzmann_two(d, psy6, bp)
    for call in (lambda: boltzmann_single(d, z6, cp),
                 lambda: boltzmann_two(d, z6, cp),
                 lambda: state_sum(d, psy6, bp)):
        with pytest.raises(InvariantError, match="^needs a "):
            call()


def fresh(pair):
    """An equal pair that no invariant has used yet."""
    return WeightPair.from_rows(pair.kind, pair.modulus, pair.phi,
                                pair.singular)


@pytest.fixture
def calls(monkeypatch):
    """Counts of validator calls per (validator, structure, pair) object."""
    counts = {}
    for name in ("validate_cocycle_pair", "validate_boltzmann",
                 "strongly_compatible"):
        def counted(s, pair, _name=name, _real=getattr(invariants, name)):
            key = (_name, id(s), id(pair))
            counts[key] = counts.get(key, 0) + 1
            return _real(s, pair)
        monkeypatch.setattr(invariants, name, counted)
    return counts


class TestWeightChecksOnce:
    def test_each_check_runs_once_per_structure_and_pair(
            self, calls, corpus, z6, z6_cocycle, psy6, psy6_boltzmann,
            psy6_boltzmann_strong):
        cp, bp, strong = (fresh(z6_cocycle), fresh(psy6_boltzmann),
                          fresh(psy6_boltzmann_strong))
        for name in ("1l1.dgm", "5k6.dgm", "5k7.dgm", "4_1k.dgm"):
            d = corpus[name]
            state_sum(d, z6, cp)
            boltzmann_single(d, psy6, bp)
            boltzmann_single(d, psy6, strong)
            boltzmann_two(d, psy6, strong)
        assert calls == {
            ("validate_cocycle_pair", id(z6), id(cp)): 1,
            ("validate_boltzmann", id(psy6), id(bp)): 1,
            ("validate_boltzmann", id(psy6), id(strong)): 1,
            ("strongly_compatible", id(psy6), id(strong)): 1,
        }

    def test_invalid_pair_rejected_on_every_call(self, calls, corpus, z6,
                                                 psy6):
        d = corpus["5k6.dgm"]
        ones, zeros = [[1] * 6 for _ in range(6)], [[0] * 6 for _ in range(6)]
        bad = WeightPair.from_rows("cocycle", 6, ones, zeros)
        bad_b = WeightPair.from_rows("boltzmann", 2, ones, zeros)
        for call, prefix in ((lambda: state_sum(d, z6, bad),
                              "invalid cocycle pair:\n"),
                             (lambda: boltzmann_single(d, psy6, bad_b),
                              "invalid Boltzmann pair:\n"),
                             (lambda: boltzmann_two(d, psy6, bad_b),
                              "invalid Boltzmann pair:\n")):
            messages = set()
            for _ in range(3):
                with pytest.raises(InvariantError) as err:
                    call()
                messages.add(str(err.value))
            assert len(messages) == 1
            assert messages.pop().startswith(prefix)
        assert calls == {("validate_cocycle_pair", id(z6), id(bad)): 3,
                         ("validate_boltzmann", id(psy6), id(bad_b)): 6}

    def test_pass_does_not_cover_another_structure(self, calls, corpus, z6,
                                                   z6_cocycle):
        d = corpus["5k6.dgm"]
        cp = fresh(z6_cocycle)
        assert state_sum(d, z6, cp).render() == "6u^3"
        other = affine_singquandle(6, 5, 0, 1)   # z6's star, other R1, R2
        for _ in range(2):
            with pytest.raises(InvariantError, match="invalid cocycle pair"):
                state_sum(d, other, cp)
        # an equal structure object is checked on its own
        twin = OrientedSingquandle(z6.star, z6.r1, z6.r2)
        assert state_sum(d, twin, cp).render() == "6u^3"
        assert calls == {("validate_cocycle_pair", id(z6), id(cp)): 1,
                         ("validate_cocycle_pair", id(other), id(cp)): 2,
                         ("validate_cocycle_pair", id(twin), id(cp)): 1}

    def test_single_pass_does_not_cover_axiom_four(self, calls, corpus, psy6,
                                                   psy6_boltzmann):
        d = corpus["1l1.dgm"]
        bp = fresh(psy6_boltzmann)
        assert boltzmann_single(d, psy6, bp).render(var="w") == "6 + 18w"
        for _ in range(2):
            with pytest.raises(InvariantError,
                               match="^Boltzmann pair is not strongly "
                                     "compatible$"):
                boltzmann_two(d, psy6, bp)
        assert calls == {("validate_boltzmann", id(psy6), id(bp)): 1,
                         ("strongly_compatible", id(psy6), id(bp)): 2}

    def test_copied_record_is_not_a_pass(self, calls, corpus, z6,
                                          z6_cocycle):
        # a pickled pair carries the old ids, now pointing at copies of the
        # structures they were recorded for
        cp = fresh(z6_cocycle)
        state_sum(corpus["5k6.dgm"], z6, cp)
        copy = pickle.loads(pickle.dumps(cp))
        assert copy == cp
        state_sum(corpus["5k6.dgm"], z6, copy)
        assert calls == {("validate_cocycle_pair", id(z6), id(cp)): 1,
                         ("validate_cocycle_pair", id(z6), id(copy)): 1}

    def test_tables_cannot_change_under_a_pass(self, calls, corpus, z6,
                                               z6_cocycle):
        """Neither the structure's tables nor the pair's can be swapped
        after a pass, so no value comes from an unchecked pair."""
        d = corpus["5k6.dgm"]
        s, cp = copy.copy(z6), fresh(z6_cocycle)
        assert state_sum(d, s, cp).render() == "6u^3"
        relabelled = z6.relabel([0, 1, 2, 3, 5, 4])
        with pytest.raises(InvariantError, match="invalid cocycle pair"):
            state_sum(d, relabelled, cp)
        for name in ("star", "star_inv", "r1", "r2"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(s, name, getattr(relabelled, name))
        ones = tuple((1,) * 6 for _ in range(6))
        with pytest.raises(AttributeError, match="read-only"):
            cp.phi = ones
        assert state_sum(d, s, cp).render() == "6u^3"
        with pytest.raises(InvariantError, match="invalid cocycle pair"):
            state_sum(d, s, WeightPair("cocycle", 6, ones, cp.singular))
        assert calls[("validate_cocycle_pair", id(s), id(cp))] == 1

    def test_invariants_fill_private_caches(self, corpus, z6, z6_cocycle):
        s, cp = copy.copy(z6), fresh(z6_cocycle)
        sh = load_algebra("z8_z6_shadow.alg").structure
        state_sum(corpus["5k6.dgm"], s, cp)
        assert cp._kept == {id(s): (s, {"cocycle"})}
        phi_ssqp(corpus["4_1k.dgm"], sh.base)
        shadow_polynomial_invariant(corpus["4_1k.dgm"], sh)
        # each structure's tags map is kept on it alone, with no other key
        base_tags, tags = (kept(x, "tags", pytest.fail) for x in (sh.base, sh))
        assert base_tags and tags
        assert all(type(used) is frozenset for used in base_tags)
        assert all(type(s) is type(r) is frozenset for s, r in tags)
        for tags in (base_tags, tags):
            assert all(isinstance(t, BasePolynomial) for t in tags.values())

    def test_use_leaves_equality_and_hash(self, corpus, z6, z6_cocycle, psy6,
                                          psy6_boltzmann_strong):
        cp, strong = fresh(z6_cocycle), fresh(psy6_boltzmann_strong)
        before = (hash(cp), hash(strong))
        d = corpus["1l1.dgm"]
        state_sum(d, z6, cp)
        boltzmann_two(d, psy6, strong)
        assert (hash(cp), hash(strong)) == before
        assert cp == fresh(z6_cocycle) and strong == fresh(strong)


def test_invariants_build_no_coloring_records(monkeypatch, corpus, z6,
                                              z6_cocycle, z8k, z8_z6_shadow,
                                              psy6, psy6_boltzmann,
                                              psy6_boltzmann_strong):
    """Every invariant reads the search's color tuples: with Coloring
    unusable, only the public coloring lists fail."""
    def refuse(*args):
        raise AssertionError("built a Coloring")

    monkeypatch.setattr(coloring, "Coloring", refuse)
    with pytest.raises(AssertionError):
        singquandle_colorings(corpus["5k6.dgm"], z6)
    assert state_sum(corpus["5k6.dgm"], z6, z6_cocycle).render() == "6u^3"
    assert phi_ssqp(corpus["k1.dgm"], z8k).render() == (
        "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3} + 4u^{2 s1^4 s2^2 s3 t1^4 t2^2 t3}")
    value = shadow_polynomial_invariant(corpus["4_1k.dgm"], z8_z6_shadow)
    assert value.render() == "24u^{t^2} + 24u^{t} + 48u^{2}"
    d = corpus["1l1.dgm"]
    assert boltzmann_single(d, psy6, psy6_boltzmann).render(var="w") == (
        "6 + 18w")
    assert boltzmann_two(d, psy6, psy6_boltzmann_strong).render() == (
        "18 + 6uv")


class TestCocycleSolver:
    @pytest.mark.parametrize("build, modulus", [
        *(pytest.param(lambda args=args: affine_singquandle(*args), m,
                       id="-".join(map(str, (*args, m))))
          for *args, m in [(6, 5, 1, 0, 6), (4, 3, 0, 1, 4), (8, 3, 0, 1, 8),
                           (8, 7, 0, 1, 8), (9, 4, 0, 1, 9)]),
        *(pytest.param(STRUCTURES[name], m, id=f"{name}-{m}")
          for name, m in [("z6", 4), ("z6", 12), ("Z8(3,0,1)", 24),
                          ("gen5", 25), ("gen6", 36), ("gen7", 49)])])
    def test_generators_contained_and_size_matches_smith_oracle(
            self, build, modulus):
        # at non-square-free moduli the echelon form once kept two pivots on
        # one column: contains() rejected generators and size was too large
        s = build()
        space = solve_cocycle_space(s, modulus)
        assert all(space.contains(g) for g in space.generators)
        assert space.size == cocycle_kernel_size(s, modulus)

    def test_membership_sweep_runs_no_elimination(self, monkeypatch):
        """The solve eliminates once over Z_10 on the rows, then once per
        prime power on the generators; the rows that cut the space then
        serve every membership test without eliminating again."""
        s = affine_singquandle(10, 7, 6, 5)
        rows = _cocycle_rows(s)
        calls = []
        kernel = solver._kernel

        def counted(rows, width, m):
            calls.append((rows, m))
            return kernel(rows, width, m)

        monkeypatch.setattr(solver, "_kernel", counted)
        space = solve_cocycle_space(s, 10)
        assert [m for _, m in calls] == [10, 2, 5]
        assert calls[0][0] == rows and calls[1][0] is calls[2][0]
        assert all(space.contains(g) for g in space.generators)
        assert not space.contains(WeightPair.from_rows(
            "cocycle", 10, [[1] * 10 for _ in range(10)], [[0] * 10 for _ in range(10)]))
        assert len(calls) == 3

    def test_generators_validate_and_contain_bundled_pair(self, z6,
                                                          z6_cocycle):
        space = solve_cocycle_space(z6, 6)
        for g in space.generators:
            assert validate_cocycle_pair(z6, g).valid
        assert space.contains(WeightPair.zero("cocycle", 6, 6))
        assert space.contains(z6_cocycle)

    def test_modulus_mismatch(self, z6, z6_cocycle):
        space = solve_cocycle_space(z6, 6)
        with pytest.raises(InvariantError):
            space.contains(WeightPair.from_rows("cocycle", 5, z6_cocycle.phi,
                                                z6_cocycle.singular))

    @pytest.mark.parametrize("k", [2, 5, 7])
    def test_contains_rejects_wrong_size_tables(self, z6, k):
        # zip once truncated: 5x5 and 7x7 zero tables were members, and a
        # 2x2 table raised IndexError
        space = solve_cocycle_space(z6, 6)
        with pytest.raises(InvariantError, match="weight table is not 6x6"):
            space.contains(WeightPair.zero("cocycle", k, 6))

    def test_small_modulus_rejected(self, z6):
        with pytest.raises(InvariantError):
            solve_cocycle_space(z6, 1)

    def test_complete_at_orders_two_and_three(self, small_singquandles):
        """Every singquandle of order 2: mod 2 its size, and its answer on
        each of the 2^8 pairs, are those of ``validate_cocycle_pair``; mod 4
        its size is the Smith oracle's.  Seeded classes of order 3, every
        affine one among them, mod 3 and mod 9 against the Smith oracle.
        Every generator is a valid pair."""
        two = [member for members in small_singquandles[2].values()
               for member in members]
        classes = small_singquandles[3]
        affine = set()
        for a, b, c in itertools.product(range(3), repeat=3):
            try:
                s = affine_singquandle(3, a, b, c)
            except AlgebraError:
                continue
            tables = (s.star.flat(), s.r1.flat(), s.r2.flat())
            affine.add(next(rep for rep, members in classes.items()
                            if tables in members))
        three = sorted(affine | set(class_sample(classes, 3, seed=38)))
        for tables in two:
            verdicts = cocycle_verdicts_mod_2(tables)
            space = solve_cocycle_space(singquandle(tables), 2)
            assert space.size == sum(verdicts.values())
            assert all(space.contains(pair) == valid
                       for pair, valid in verdicts.items())
        for tables, modulus in ([(t, 4) for t in two]
                                + [(t, m) for t in three for m in (3, 9)]):
            s = singquandle(tables)
            space = solve_cocycle_space(s, modulus)
            assert space.size == cocycle_kernel_size(s, modulus)
            for g in space.generators:
                assert validate_cocycle_pair(s, g).valid


class TestWeightParsing:
    def test_round_trip(self, z6_cocycle):
        text = ("modulus: 6\nphi:\n"
                + "\n".join(" ".join(map(str, r)) for r in z6_cocycle.phi)
                + "\nphiprime:\n"
                + "\n".join(" ".join(map(str, r))
                            for r in z6_cocycle.singular) + "\n")
        assert parse_weights(text) == z6_cocycle

    def test_missing_modulus(self):
        with pytest.raises(InvariantError):
            parse_weights("phi:\n0\n")

    @pytest.mark.parametrize("text", ["modulus: 2\npsi:\n0\n",
                                      "modulus: 2\nphiprime:\n0\n",
                                      "modulus: 2\n"],
                             ids=["psi", "phiprime", "no-block"])
    def test_missing_phi_block(self, text):
        with pytest.raises(InvariantError) as err:
            parse_weights(text)
        assert str(err.value) == "missing phi block"

    def test_both_blocks_rejected(self):
        with pytest.raises(InvariantError):
            parse_weights("modulus: 2\nphi:\n0\nphiprime:\n0\npsi:\n0\n")

    def test_ragged_table_rejected(self):
        with pytest.raises(InvariantError):
            parse_weights("modulus: 2\nphi:\n0 1\n0\nphiprime:\n0 0\n0 0\n")

    @pytest.mark.parametrize("text, line, key", [
        ("modulus: 6\nphi:\n0\nmodulus: 2\npsi:\n0\n", 4, "modulus"),
        ("modulus: 2\nphi:\n0\n# again\nphi:\n1\npsi:\n0\n", 5, "phi"),
        ("modulus: 2\nphi:\n0\npsi:\n0\npsi:\n0\n", 6, "psi"),
    ], ids=["modulus", "phi", "psi"])
    def test_given_twice_rejected(self, text, line, key):
        with pytest.raises(InvariantError,
                           match=f"^line {line}: {key} is given twice$"):
            parse_weights(text)

    @pytest.mark.parametrize("text, message", [
        ("modulus: 2\n\nphi:\n0 1\n0\npsi:\n0\n",
         "line 3: phi block must be a square table"),
        ("modulus: 2\nphi:\n0 1\n0 0\n# the second block\nphiprime:\n0 0\n",
         "line 6: phiprime block must be 2x2, like phi"),
        ("modulus: 2\npsi:\n0 0 0\nphi:\n0 1\n0 0\n",
         "line 2: psi block must be 2x2, like phi"),
    ], ids=["phi", "phiprime", "psi"])
    def test_block_error_names_its_line(self, text, message):
        with pytest.raises(InvariantError) as err:
            parse_weights(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("block", ["phiprime", "psi"])
    @pytest.mark.parametrize("rows", ["1 2 3\n4\n", "0 0\n", "0 0\n0 0\n0 0\n"],
                             ids=["ragged", "short", "long"])
    def test_ragged_second_block_rejected(self, block, rows):
        with pytest.raises(InvariantError, match=f"{block} block must be 2x2"):
            parse_weights(f"modulus: 2\nphi:\n0 1\n0 0\n{block}:\n{rows}")
