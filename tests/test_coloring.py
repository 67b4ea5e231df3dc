import copy
import inspect
import sys

import pytest

from singq import coloring, data, invariants
from singq.algebra import (OperationTable, parse_algebra,
                           substructure_closure)
from singq.coloring import (RULES, ColoringError, psyquandle_colorings,
                            psyquandle_tuples, shadow_colorings,
                            shadow_tuples, singquandle_colorings,
                            singquandle_tuples)
from singq.data import load_diagram, read_bundled
from singq.diagram import parse_diagram, validate_diagram
from singq.invariants import (boltzmann_single, boltzmann_two, phi_ssqp,
                              shadow_polynomial_invariant, state_sum)
from singq.psyquandle import Psyquandle

from conftest import brute_force_psyquandle, brute_force_singquandle

KINK = "P b a a b\nrot 1 ui oi uo oo\n"

# A closed three-strand singular braid on which the z8_k search returned 8
# colorings, 4 of them with oi != oo at a classical crossing: the rule only
# checked oi == oo when oo was still uncolored.
OVER_ARC_REPRO = """\
P s1_0 s2_0 s2_1 s1_1
N s1_1 s0_0 s0_1 s1_2
S s1_2 s2_1 s1_3 s2_2
P s0_1 s1_3 s1_4 s0_2
P s0_2 s1_4 s1_5 s0_0
P s1_5 s2_2 s2_3 s1_6
N s2_3 s1_6 s1_0 s2_0
"""


class TestCounting:
    def test_one_element_structure(self, corpus, one_element):
        for d in corpus.values():
            assert len(singquandle_colorings(d, one_element)) == 1

    def test_monochromatic_colorings_present(self, corpus, z6, z8k):
        for s in (z6, z8k):
            fixed = [x for x in range(s.n)
                     if s.r1(x, x) == x and s.r2(x, x) == x]
            for name, d in corpus.items():
                if name.startswith("1l1"):
                    continue
                found = {c.semiarc_colors for c in singquandle_colorings(d, s)}
                for x in fixed:
                    assert (x,) * d.n_semiarcs in found, (name, x)

    def test_colorings_sorted_deterministically(self, corpus, z6):
        cols = [c.semiarc_colors
                for c in singquandle_colorings(corpus["5k6.dgm"], z6)]
        assert cols == sorted(cols)


class TestSolverVersusBruteForce:
    def test_singquandle_small_corpus(self, corpus, z6, one_element):
        for s in (one_element, z6):
            for name, d in corpus.items():
                if d.n_semiarcs > 12:
                    continue
                solver = [c.semiarc_colors for c in singquandle_colorings(d, s)]
                assert solver == brute_force_singquandle(d, s), (name, s.n)

    def test_psyquandle_small_corpus(self, corpus, psy6):
        for name, d in corpus.items():
            if d.n_semiarcs > 12:
                continue
            solver = [c.semiarc_colors for c in psyquandle_colorings(d, psy6)]
            assert solver == brute_force_psyquandle(d, psy6), name

    def test_over_arc_checked_when_both_ends_colored(self, z8k):
        d = parse_diagram(OVER_ARC_REPRO)
        solver = [c.semiarc_colors for c in singquandle_colorings(d, z8k)]
        assert len(solver) == 4
        assert solver == brute_force_singquandle(d, z8k)

    def test_psyquandle_kink(self, psy6):
        d = parse_diagram(KINK)
        solver = [c.semiarc_colors for c in psyquandle_colorings(d, psy6)]
        assert solver == brute_force_psyquandle(d, psy6)


def test_search_depth_is_not_bounded_by_the_recursion_limit(one_element):
    """The search once recursed once per plan level, so a diagram with more
    levels than the recursion limit raised RecursionError (exit 1 from the
    CLI).  Here 300 kinks, one level each, are searched by both engines
    under a limit 100 frames above the caller's depth."""
    d = parse_diagram("".join(f"P a{i} b{i} b{i} a{i}\n" for i in range(300)))
    t = OperationTable([[0]])
    psy = Psyquandle(t, t, t, t)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        found = (singquandle_tuples(d, one_element),
                 psyquandle_tuples(d, psy))
    finally:
        sys.setrecursionlimit(limit)
    assert found == (((0,) * 600,),) * 2


class TestPlanReuse:
    def test_one_plan_per_diagram_and_notion(
            self, monkeypatch, z6, z6_cocycle, z8_z6_shadow, psy6,
            psy6_boltzmann, psy6_boltzmann_strong):
        plan = coloring._plan
        made = []

        def counted(d, rules):
            made.append(rules)
            return plan(d, rules)

        monkeypatch.setattr(coloring, "_plan", counted)
        d = load_diagram("4_1k.dgm")
        singquandle_colorings(d, z6)
        state_sum(d, z6, z6_cocycle)
        phi_ssqp(d, z6)
        shadow_colorings(d, z8_z6_shadow)
        shadow_polynomial_invariant(d, z8_z6_shadow)
        assert made == [RULES["singquandle"]]
        psyquandle_colorings(d, psy6)
        boltzmann_single(d, psy6, psy6_boltzmann)
        boltzmann_two(d, psy6, psy6_boltzmann_strong)
        assert made == [RULES["singquandle"], RULES["psyquandle"]]


class TestSetReuse:
    @pytest.fixture
    def searches(self, monkeypatch):
        """The notions of the searches run, in order."""
        enumerate_ = coloring._enumerate
        made = []

        def counted(d, owner, notion):
            made.append(notion)
            return enumerate_(d, owner, notion)

        monkeypatch.setattr(coloring, "_enumerate", counted)
        return made

    def test_one_search_per_notion_and_structure(
            self, searches, z6, z6_cocycle, z8_z6_shadow, psy6,
            psy6_boltzmann, psy6_boltzmann_strong):
        d = load_diagram("4_1k.dgm")
        singquandle_colorings(d, z6)
        state_sum(d, z6, z6_cocycle)
        phi_ssqp(d, z6)
        shadow_colorings(d, z8_z6_shadow)
        shadow_polynomial_invariant(d, z8_z6_shadow)
        psyquandle_colorings(d, psy6)
        boltzmann_single(d, psy6, psy6_boltzmann)
        boltzmann_two(d, psy6, psy6_boltzmann_strong)
        assert searches == ["singquandle", "singquandle", "psyquandle"]

    def test_other_structure_replaces_the_set(self, searches, z6, z8k):
        d = load_diagram("k1.dgm")
        found = [singquandle_colorings(d, s) for s in (z6, z8k, z6)]
        assert searches == ["singquandle"] * 3
        for s, colorings in zip((z6, z8k, z6), found):
            assert colorings == singquandle_colorings(load_diagram("k1.dgm"), s)

    def test_equal_structure_searches_again(self, searches):
        text = read_bundled("z6_singquandle.alg")
        one, two = (parse_algebra(text).structure for _ in range(2))
        d = load_diagram("5k6.dgm")
        assert singquandle_colorings(d, one) == singquandle_colorings(d, two)
        assert searches == ["singquandle"] * 2

    def test_tables_cannot_be_reassigned_under_a_kept_set(
            self, searches, z6, z8k):
        s = copy.copy(z6)
        d = load_diagram("k1.dgm")
        first = singquandle_colorings(d, s)
        for name in ("n", "star", "star_inv", "r1", "r2"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(s, name, getattr(z8k, name))
        # the kept set still belongs to the object's unchanged tables
        assert singquandle_colorings(d, s) == first
        assert searches == ["singquandle"]
        assert first == singquandle_colorings(load_diagram("k1.dgm"), z6)

    def test_returned_sets_cannot_change_the_kept_one(self, z6):
        d = load_diagram("5k6.dgm")
        first = singquandle_colorings(d, z6)
        expected = list(first)
        first.clear()
        assert singquandle_colorings(d, z6) == expected
        assert isinstance(singquandle_tuples(d, z6), tuple)


def fresh(name: str):
    """The structure of a bundled fixture, parsed into new objects."""
    return data.load_algebra(name).structure


class TestTagReuse:
    @pytest.fixture
    def closures(self, monkeypatch):
        """The seeds of the substructure closures the invariants compute,
        in order."""
        closure = invariants.substructure_closure
        seeds = []

        def counted(s, seed):
            seeds.append(frozenset(seed))
            return closure(s, seed)

        monkeypatch.setattr(invariants, "substructure_closure", counted)
        return seeds

    def test_seen_sets_are_not_closed_again(self, closures):
        s = fresh("z8_k.alg")
        seen = set()
        for name in ("k1.dgm", "k2.dgm", "k1.dgm"):
            d = load_diagram(name)
            del closures[:]
            value = phi_ssqp(d, s)
            used = {frozenset(c) for c in singquandle_tuples(d, s)}
            new = sorted(used - seen, key=sorted)
            assert sorted(closures, key=sorted) == new
            seen |= used
            assert value == phi_ssqp(load_diagram(name), fresh("z8_k.alg"))
        assert len(seen) > len(used)

    def test_equal_structure_builds_its_own_map(self, closures):
        text = read_bundled("z8_k.alg")
        one, two = (parse_algebra(text).structure for _ in range(2))
        d = load_diagram("k2.dgm")
        first = phi_ssqp(d, one)
        half = len(closures)
        assert half > 0
        assert phi_ssqp(d, two) == first
        assert len(closures) == 2 * half
        # each keeps its own map
        assert phi_ssqp(load_diagram("k2.dgm"), one) == first
        assert len(closures) == 2 * half

    @pytest.mark.parametrize("name,invariant,field", [
        ("z8_k.alg", phi_ssqp, "star"), ("z8_k.alg", phi_ssqp, "r1"),
        ("z8_k.alg", phi_ssqp, "r2"),
        ("z8_z4_shadow_a.alg", shadow_polynomial_invariant, "action"),
        ("z8_z4_shadow_a.alg", shadow_polynomial_invariant, "action_inv")],
        ids=["star", "r1", "r2", "action", "action_inv"])
    def test_tables_cannot_be_reassigned_under_a_kept_map(
            self, closures, name, invariant, field):
        s = fresh(name)
        d = load_diagram("4_1k.dgm")
        expected = invariant(d, s)
        before = len(closures)
        assert before > 0
        # an equal table, but another object
        table = getattr(s, field)
        equal = (OperationTable(table.rows) if isinstance(table, OperationTable)
                 else tuple(map(tuple, table)))
        with pytest.raises(AttributeError, match="read-only"):
            setattr(s, field, equal)
        assert invariant(d, s) == expected
        assert len(closures) == before

    def test_base_and_shadow_keep_separate_maps(self, closures):
        sh = fresh("z8_z6_shadow.alg")
        d = load_diagram("4_1k.dgm")
        phi = phi_ssqp(d, sh.base)
        base_sets = set(closures)
        del closures[:]
        value = shadow_polynomial_invariant(d, sh)
        # SP closes the same semiarc sets again, in its own map, and subsp
        # closes each closure once more to check that it is closed
        assert set(closures) == base_sets | {
            substructure_closure(sh.base, used) for used in base_sets}
        del closures[:]
        assert phi_ssqp(d, sh.base) == phi
        assert shadow_polynomial_invariant(d, sh) == value
        assert not closures
        assert value == shadow_polynomial_invariant(load_diagram("4_1k.dgm"),
                                                   fresh("z8_z6_shadow.alg"))
        assert phi == phi_ssqp(load_diagram("4_1k.dgm"),
                               fresh("z8_z6_shadow.alg").base)


class TestShadowColorings:
    def test_factorization_everywhere(self, corpus, z8_z6_shadow,
                                      z8_z4_shadow_a, z8_z4_shadow_b):
        for sh in (z8_z6_shadow, z8_z4_shadow_a, z8_z4_shadow_b):
            for name, d in corpus.items():
                base = len(singquandle_colorings(d, sh.base))
                assert len(shadow_colorings(d, sh)) == sh.carrier * base, name

    def test_region_rule_holds(self, corpus, z8_z6_shadow):
        sh = z8_z6_shadow
        d = corpus["4_1k.dgm"]
        sides = d.side_regions()
        for col in shadow_colorings(d, sh):
            for k, arc in enumerate(d.semiarcs):
                left, right = sides[arc.label]
                acted = sh.action[col.region_colors[right]][
                    col.semiarc_colors[k]]
                assert col.region_colors[left] == acted

    def test_euler_failure_rejected(self, z8_z6_shadow):
        """A rotation that makes the map non-planar once gave half the
        shadow colorings (48 of 96) and a wrong SP; the faces of such a map
        are not regions, so the search refuses it."""
        text = read_bundled("4_1k.dgm")
        text = text.replace("rot 1 uo oo ui oi", "rot 1 oo uo ui oi")
        d = parse_diagram(text)
        assert not validate_diagram(d).valid
        with pytest.raises(ColoringError, match="Euler check failed"):
            shadow_tuples(d, z8_z6_shadow)

    def test_trivial_action_constant_regions(self, corpus, z6):
        from singq.algebra import formula_shadow
        sh = formula_shadow(z6, 4, "x")
        d = corpus["5k6.dgm"]
        cols = shadow_colorings(d, sh)
        assert len(cols) == 4 * len(singquandle_colorings(d, z6))
        for col in cols:
            assert len(set(col.region_colors)) == 1
