import copy
import hashlib
import itertools
import math
import random
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from singq.algebra import (AlgebraError, InvalidStructureError,
                           OperationTable, OrientedSingquandle,
                           ParameterError, ShadowStructure, _ReadOnly,
                           affine_singquandle, eval_table, formula_shadow,
                           formula_structure, kept, parse_algebra,
                           shadow_closure, substructure_closure,
                           table_profile, validate_quandle, validate_shadow,
                           validate_singquandle)
from singq.coloring import H1, H2, RULES, _tables, singquandle_tuples
from singq.data import (fixture_names, load_algebra, load_diagram,
                        load_weights, read_bundled)
from singq.invariants import WeightPair, restrict, ssqp, subsp
from singq.morphisms import (are_isomorphic, is_homomorphism,
                             quandle_from_group)
from singq.psyquandle import Psyquandle, validate_psyquandle

from conftest import class_sample, gen, singquandle


def table(n, fn):
    return OperationTable.from_function(n, fn)


class TestQuandleValidation:
    def test_dihedral_is_valid(self):
        assert validate_quandle(table(5, lambda x, y: -x + 2 * y)).valid

    def test_one_element(self):
        assert validate_quandle(OperationTable([[0]])).valid

    def test_addition_fails_idempotency(self):
        report = validate_quandle(table(3, lambda x, y: x + y))
        assert not report.valid
        assert ("quandle.idempotency", (1,)) in report.violations


class TestSingquandleValidation:
    def test_z6_structure(self, z6):
        assert validate_singquandle(z6.star, z6.r1, z6.r2).valid

    def test_projection_maps_are_valid(self):
        star = table(5, lambda x, y: -x + 2 * y)
        r1 = table(5, lambda x, y: x)
        r2 = table(5, lambda x, y: y)
        assert validate_singquandle(star, r1, r2).valid

    def test_zero_maps_fail_with_witness(self):
        star = table(3, lambda x, y: 2 * y - x)
        zero = table(3, lambda x, y: 0)
        report = validate_singquandle(star, zero, zero)
        assert not report.valid
        assert ("singquandle.axiom1", (0, 1, 0)) in report.violations

    def test_quandle_prerequisite_reported(self):
        bad = table(3, lambda x, y: x + y)
        report = validate_singquandle(bad, bad, bad)
        assert ("singquandle.prerequisite_quandle", ()) in report.violations

    @pytest.mark.parametrize("k", [3, 8])
    def test_mismatched_orders_rejected(self, z6, k):
        other = table(k, lambda x, y: x)
        for r1, r2 in ((other, other), (other, z6.r2), (z6.r1, other)):
            with pytest.raises(AlgebraError,
                               match="^tables have mismatched orders$"):
                validate_singquandle(z6.star, r1, r2)

    def test_star_inverse_is_two_sided(self, z6, z8k):
        for s in (z6, z8k):
            for x in range(s.n):
                for y in range(s.n):
                    assert s.star_inv(s.star(x, y), y) == x
                    assert s.star(s.star_inv(x, y), y) == x


class TestAffineFamily:
    def test_valid_parameters(self):
        s = affine_singquandle(6, 5, 1, 0)
        assert validate_singquandle(s.star, s.r1, s.r2).valid

    def test_non_invertible_a(self):
        with pytest.raises(ParameterError):
            affine_singquandle(4, 2, 1, 0)

    def test_compatibility_condition(self):
        s = affine_singquandle(4, 1, 2, 2)
        assert validate_singquandle(s.star, s.r1, s.r2).valid
        with pytest.raises(ParameterError):
            affine_singquandle(6, 5, 1, 1)


class TestFormulaStructure:
    def test_z8_structures(self):
        formula_structure(8, "5x+4y", "6+5x+6x y", "6+5y+6x y")
        formula_structure(8, "3x-2y", "7x+6y", "2x+3y")

    def test_invalid_formula_reports_witnesses(self):
        with pytest.raises(InvalidStructureError) as exc:
            formula_structure(6, "x", "x", "x")
        assert exc.value.report.violations

    def test_malformed_expression(self):
        with pytest.raises(AlgebraError):
            formula_structure(6, "x +* y", "x", "y")


@st.composite
def written_polynomials(draw):
    """(text, terms) for a random integer polynomial in x and y: terms are
    (coefficient, x exponent, y exponent) and the text writes them with
    implicit or explicit multiplication, spaces, ^ or ** and parentheses."""
    terms = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 3),
                                    st.integers(0, 3)), min_size=1, max_size=4))
    text = ""
    for k, (c, a, b) in enumerate(terms):
        factors = [] if abs(c) == 1 and (a or b) and draw(st.booleans()) else [str(abs(c))]
        for var, e in (("x", a), ("y", b)):
            if e:
                base = draw(st.sampled_from([var, f"({var})"]))
                power = draw(st.sampled_from(["^", "**", " ^ "]))
                factors.append(base if e == 1 else f"{base}{power}{e}")
        body = draw(st.sampled_from(["", " ", "*", " * "])).join(factors)
        if k == 0:
            text = ("-" if c < 0 else "") + body
        else:
            sign = draw(st.sampled_from(["-", "+-", "+ -"])) if c < 0 else "+"
            text += draw(st.sampled_from([" ", ""])).join(["", sign, body])
    if draw(st.booleans()):
        text = f"({text})"
    return text, terms


# SHA-256 of the tables of every bundled .alg, recorded while formulas were
# still evaluated by sympy: any drift in formula evaluation fails here.
GOLDEN_TABLES = {
    "one.alg": "764d7cb4dc2b9e9350c0546748d42e8692d9f1caf59593746807c8c36c705715",
    "psy6.alg": "187dc15025f8c93f8a6384b93779dfeae69772ecffb3e76742d6bf4fac2c4ad2",
    "z6_singquandle.alg": "d20923b62695f4aa9483e8848ef41974e4c69e3393569b82f4dec2c9c101ea95",
    "z8_k.alg": "73886bad66c8ac79a6363d22f0236015fa0b4eebe9b65582df9cc0fbbab282cf",
    "z8_z4_shadow_a.alg": "b59462b7311a27bfcf0ce61fcb000d2037e6d33d0695326a83558fcedbccd715",
    "z8_z4_shadow_b.alg": "dfdc27238565d0faccee7b2e7ff1d8ce1f570304c1b9e2c3d656a837333a5bef",
    "z8_z6_shadow.alg": "d6c02f2625d67a20a460d3756133a02ec2a78aeab72c55e0cb4272f91f3450ce",
}


def tables_of(structure):
    """Row tuples of every table of a loaded structure, base tables first."""
    if isinstance(structure, ShadowStructure):
        return tables_of(structure.base) + (structure.action,)
    if isinstance(structure, Psyquandle):
        return tuple(t.rows for t in (structure.ut, structure.ot,
                                      structure.ub, structure.ob))
    return tuple(t.rows for t in (structure.star, structure.r1, structure.r2))


class TestFormulaEvaluation:
    @given(written_polynomials(), st.integers(1, 12))
    def test_matches_direct_evaluation(self, formula, n):
        text, terms = formula
        expected = [[sum(c * x ** a * y ** b for c, a, b in terms) % n
                     for y in range(n)] for x in range(n)]
        assert eval_table(text, n, ("x", "y")) == expected

    @pytest.mark.parametrize("text, variables", [
        ("x/2", ("x", "y")), ("x+s1", ("x", "s")), ("2.5x", ("x", "y")),
        ("sin(x)", ("x", "y")), ("x^y", ("x", "y")), ("xz", ("x", "y"))])
    def test_rejected(self, text, variables):
        with pytest.raises(AlgebraError):
            eval_table(text, 4, variables)

    def test_huge_exponent_is_cheap(self):
        # powers are built by squaring and tabulated with pow(j, e, n)
        n = 7
        expected = [[(pow(x, 100000000, n) + y) % n for y in range(n)]
                    for x in range(n)]
        assert eval_table("x^100000000 + y", n, ("x", "y")) == expected

    def test_every_bundled_structure_has_a_golden_hash(self):
        assert sorted(GOLDEN_TABLES) == [name for name in fixture_names()
                                         if name.endswith(".alg")]

    @pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
    def test_bundled_tables_unchanged(self, name):
        tables = tables_of(load_algebra(name).structure)
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == GOLDEN_TABLES[name]


class TestGroupQuandles:
    def test_abelian_conjugation_is_trivial(self):
        add3 = table(3, lambda x, y: x + y)
        q = quandle_from_group(add3, "conj")
        assert q == table(3, lambda x, y: x)

    def test_core_of_z4_is_dihedral(self):
        add4 = table(4, lambda x, y: x + y)
        q = quandle_from_group(add4, "core")
        assert q == table(4, lambda x, y: 2 * y - x)

    def test_s3_conjugation_quandle(self):
        # elements of S3 as permutation tuples, composed left-to-right
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1),
                 (0, 2, 1), (2, 1, 0), (1, 0, 2)]
        index = {p: i for i, p in enumerate(perms)}
        mult = OperationTable(
            [[index[tuple(q[p[i]] for i in range(3))] for q in perms]
             for p in perms])
        q = quandle_from_group(mult, "conj")
        assert validate_quandle(q).valid

    def test_non_group_rejected(self):
        with pytest.raises(AlgebraError):
            quandle_from_group(table(3, lambda x, y: 0), "conj")

    def test_unknown_mode(self):
        add3 = table(3, lambda x, y: x + y)
        with pytest.raises(ParameterError):
            quandle_from_group(add3, "other")


class TestPsyquandle:
    def test_bundled_six_element_structure(self, psy6):
        report = validate_psyquandle(psy6.ut, psy6.ot, psy6.ub, psy6.ob)
        assert report.valid

    def test_biquandle_lift(self, psy6):
        lifted = Psyquandle.from_biquandle(psy6.ut, psy6.ot)
        assert validate_psyquandle(lifted.ut, lifted.ot,
                                   lifted.ub, lifted.ob).valid
        assert lifted.pI_adequate

    def test_constant_action_biquandle(self):
        # x < y = x < y = sigma(x) for a cyclic shift sigma
        n = 4
        shift = table(n, lambda x, y: x + 1)
        lifted = Psyquandle.from_biquandle(shift, shift)
        assert validate_psyquandle(lifted.ut, lifted.ot,
                                   lifted.ub, lifted.ob).valid

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_mismatched_orders_rejected(self, psy6, k):
        """Orders 2 and 3 once raised a bare ValueError or IndexError."""
        other = table(k, lambda x, y: x)
        tables = [psy6.ut, psy6.ot, psy6.ub, psy6.ob]
        for i in range(4):
            mixed = tables[:i] + [other] + tables[i + 1:]
            for check in (validate_psyquandle, Psyquandle):
                with pytest.raises(AlgebraError,
                                   match="^tables have mismatched orders$"):
                    check(*mixed)

    def test_corrupted_table_reports_witness(self, psy6):
        rows = [list(r) for r in psy6.ub.rows]
        rows[0][0] = (rows[0][0] + 1) % psy6.n
        report = validate_psyquandle(psy6.ut, psy6.ot,
                                     OperationTable(rows), psy6.ob)
        assert not report.valid

    def test_pairings_are_bijections(self, psy6):
        """The search's inverse crossing-map halves: at each kind, the H1
        and H2 tables, read together, take the n^2 pairs of colors leaving
        a crossing one to one onto the n^2 pairs entering it.  Which pairs
        they match is checked against ``bench/verify.py`` in
        ``test_differential.py``.  The tables are built once per structure
        object."""
        n = psy6.n
        tables = _tables(psy6, "psyquandle")
        for kind, props in RULES["psyquandle"].items():
            halves = {tag: tables[key] for _, _, key, _, tag in props
                      if tag in (H1, H2)}
            assert sorted(zip(halves[H1], halves[H2])) == \
                [(x, y) for x in range(n) for y in range(n)], kind
        assert _tables(psy6, "psyquandle") is tables


@pytest.mark.parametrize("name,inverted", [("z6_singquandle.alg", 1),
                                           ("psy6.alg", 4)])
def test_load_inverts_each_table_once(monkeypatch, name, inverted):
    """Validator and constructor share one right inverse per table: star
    for a singquandle, all four operations for a psyquandle."""
    calls = []   # (table, its inverse); holding them keeps their ids apart
    invert = OperationTable.right_inverse

    def recorded(self):
        inverse = invert(self)
        calls.append((self, inverse))
        return inverse

    monkeypatch.setattr(OperationTable, "right_inverse", recorded)
    load_algebra(name)
    assert len({id(t) for t, _ in calls}) == inverted
    assert len({id(inverse) for _, inverse in calls}) == inverted


def public_fields(cls) -> list:
    return [name for c in cls.__mro__ for name in getattr(c, "__slots__", ())
            if not name.startswith("_")]


READ_ONLY = (   # each class, named, with a maker of a fresh instance
    ("OperationTable", OperationTable,
     lambda: load_algebra("z6_singquandle.alg").structure.star),
    ("OrientedSingquandle", OrientedSingquandle,
     lambda: load_algebra("z6_singquandle.alg").structure),
    ("Psyquandle", Psyquandle, lambda: load_algebra("psy6.alg").structure),
    ("ShadowStructure", ShadowStructure,
     lambda: load_algebra("z8_z6_shadow.alg").structure),
    ("WeightPair(cocycle)", WeightPair,
     lambda: load_weights("z6_cocycle.wgt")),
    ("WeightPair(boltzmann)", WeightPair,
     lambda: load_weights("psy6_boltzmann.wgt")),
)


@pytest.mark.parametrize("cls,make,field", [
    pytest.param(cls, make, field, id=f"{name}.{field}")
    for name, cls, make in READ_ONLY for field in public_fields(cls)])
def test_public_fields_are_read_only(cls, make, field):
    obj = make()
    assert type(obj) is cls
    value = getattr(obj, field)
    with pytest.raises(AttributeError, match="read-only"):
        setattr(obj, field, value)
    with pytest.raises(AttributeError, match="read-only"):
        delattr(obj, field)
    assert getattr(obj, field) is value


def test_private_caches_still_fill():
    s = load_algebra("z8_k.alg").structure
    table = OperationTable(s.star.rows)
    assert not hasattr(table, "_kept")
    flat, inverse = table.flat(), table.right_inverse()
    assert table._kept == {"flat": (None, flat), "inverse": (None, inverse)}
    assert table.flat() is flat and table.right_inverse() is inverse
    with pytest.raises(AttributeError, match="read-only"):
        table._kept = {}
    with pytest.raises(AttributeError, match="read-only"):
        del table._kept


def test_kept_makes_once_per_source_object():
    """A value is made once per source object, by ``is``, and replaced
    when another object, even an equal one, is asked for; a ``make`` that
    raises keeps nothing."""
    table = OperationTable([[0]])
    a, b = [1], [1]
    made = []

    def make():
        made.append(1)
        return len(made)

    assert kept(table, "k", make, a) == kept(table, "k", make, a) == 1
    assert kept(table, "k", make, b) == 2
    assert kept(table, "k", make, a) == 3
    assert kept(table, "other", make) == kept(table, "other", make) == 4

    def fail():
        raise ValueError("no")

    for _ in range(2):
        with pytest.raises(ValueError):
            kept(table, "failed", fail)
    assert "failed" not in table._kept
    assert kept(table, "k", make, a) == 3


def test_only_the_base_declares_a_private_slot():
    """Every derived value lives in ``_ReadOnly._kept``: no subclass
    declares a private slot of its own."""
    from singq.diagram import SingularDiagram
    classes, found = [_ReadOnly], set()
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        found.add(cls)
        private = [name for name in cls.__dict__.get("__slots__", ())
                   if name.startswith("_")]
        assert private == (["_kept"] if cls is _ReadOnly else []), cls
    assert {OperationTable, OrientedSingquandle, ShadowStructure, Psyquandle,
            SingularDiagram, WeightPair} < found


def test_copies_are_the_object_itself(z6, psy6, z8_z6_shadow, z6_cocycle):
    """Read-only objects copy as tuples do: a copy is the object itself,
    so no two objects share one ``_kept``.  A copy once shared it, and a
    deep copy of a diagram raised TypeError on its port maps."""
    d = load_diagram("5k6.dgm")
    singquandle_tuples(d, z6)
    for x in (z6.star, z6, psy6, z8_z6_shadow, z6_cocycle, d):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x


class TestShadow:
    def test_bundled_shadows_are_valid(self, z8_z6_shadow, z8_z4_shadow_a,
                                       z8_z4_shadow_b):
        for sh in (z8_z6_shadow, z8_z4_shadow_a, z8_z4_shadow_b):
            assert validate_shadow(sh.base, sh.action).valid

    def test_trivial_action(self, z6):
        sh = formula_shadow(z6, 4, "x")
        assert validate_shadow(sh.base, sh.action).valid

    def test_invalid_action_witnessed(self, z8_z4_shadow_a):
        base = z8_z4_shadow_a.base
        rows = eval_table("x+s", 4, ("x", "s"), cols=8)
        report = validate_shadow(base, rows)
        assert not report.valid

    @pytest.mark.parametrize("action, message", [
        ([[0] * 6, [1] * 6, [7] * 6], r"action entry 7 out of range \[0, 3\)"),
        ([[0] * 6, [-1] * 6], r"action entry -1 out of range \[0, 2\)"),
        ([[0] * 6, [1] * 5], "action row 1 has 5 entries, expected 6"),
        ([[0] * 7, [1] * 7], "action row 0 has 7 entries, expected 6"),
    ], ids=["outside", "negative", "short", "long"])
    def test_action_outside_carrier_rejected(self, z6, action, message):
        """Entries outside the carrier once validated, and a short row
        raised IndexError."""
        for check in (validate_shadow, ShadowStructure):
            with pytest.raises(AlgebraError, match=f"^{message}$"):
                check(z6, action)

    def test_action_inverse(self, z8_z6_shadow):
        sh = z8_z6_shadow
        for x in range(sh.carrier):
            for s in range(sh.base.n):
                assert sh.action_inv[sh.action[x][s]][s] == x


class TestHomomorphisms:
    def test_identity(self, z6):
        assert is_homomorphism(list(range(6)), z6, z6)

    def test_agrees_with_every_entry_over_all_maps(self, small_singquandles):
        """Over every map between two classes of order at most 2, and
        between three seeded order-3 classes over each quandle, each class
        of order at most 2 and themselves, both ways: constant maps,
        bijections and maps between orders 1, 2 and 3 among them."""
        small = [rep for n in (1, 2) for rep in small_singquandles[n]]
        sample = class_sample(small_singquandles[3], 3, seed=37)
        pairs = list(itertools.product(small, repeat=2))
        for a, b in zip(sample, sample[1:] + sample[:1]):
            pairs += [(a, a), (a, b), *((a, c) for c in small),
                      *((c, a) for c in small)]
        verdicts = Counter()
        for src, dst in pairs:
            n, m = math.isqrt(len(src[0])), math.isqrt(len(dst[0]))
            for f in itertools.product(range(m), repeat=n):
                verdict = all(f[s[x * n + y]] == t[f[x] * m + f[y]]
                              for s, t in zip(src, dst)
                              for x in range(n) for y in range(n))
                assert is_homomorphism(
                    list(f), singquandle(src), singquandle(dst)) == verdict
                verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]

    def test_partial_map_rejected(self, z6):
        for f in ([0, 1], [0] * 7, [6] * 6, [-1] * 6):
            with pytest.raises(AlgebraError):
                is_homomorphism(f, z6, z6)


class TestIsomorphism:
    def test_reflexive(self, z6):
        f = are_isomorphic(z6, z6)
        assert f is not None and is_homomorphism(f, z6, z6)

    def test_relabeling(self, z6):
        perm = [3, 1, 4, 0, 5, 2]
        moved = z6.relabel(perm)
        f = are_isomorphic(z6, moved)
        assert f is not None and is_homomorphism(f, z6, moved)

    def test_symmetric(self, z8k, z6):
        assert are_isomorphic(z6, z8k) is None
        assert are_isomorphic(z8k, z6) is None

    def test_splits_small_singquandles_into_their_classes(
            self, small_singquandles):
        """From each class's representative to a seeded member of it, the
        map found is the least permutation that moves the representative's
        tables onto the member's; between two classes whose profile
        multisets are equal there is none.  Classes with unequal multisets
        are told apart by the profile, which every isomorphism keeps (and
        which the first check would catch if it did not)."""
        rng = random.Random(36)
        for n, classes in small_singquandles.items():
            by_profile = defaultdict(list)
            for rep, members in classes.items():
                member = rng.choice(sorted(members))
                assert are_isomorphic(singquandle(rep), singquandle(member)) \
                    == members[member]
                by_profile[tuple(sorted(table_profile(n, rep)))].append(rep)
            for reps in by_profile.values():
                for a, b in itertools.combinations(reps, 2):
                    assert are_isomorphic(singquandle(a), singquandle(b)) \
                        is None

    def test_order_47_relabeling(self):
        # a search that never closes the map through the tables took
        # 13.6 s here (Python 3.11, 2-CPU machine)
        s = affine_singquandle(47, 26, 26, 22)
        perm = list(range(47))
        random.Random(1).shuffle(perm)
        moved = s.relabel(perm)
        f = are_isomorphic(s, moved)
        assert sorted(f) == list(range(47))
        assert is_homomorphism(f, s, moved)
        assert f <= perm   # perm is an isomorphism too, and f the least


class TestRelabel:
    @pytest.mark.parametrize("perm", [
        [0, 1, 2],                 # too short
        [0, 1, 2, 3, 4, 5, 6],     # too long
        [0, 0, 1, 2, 3, 4],        # a repeated value
        [1, 2, 3, 4, 5, 6],        # a value out of range
    ])
    def test_non_permutation_rejected(self, z6, perm):
        with pytest.raises(ParameterError, match="permutation"):
            z6.relabel(perm)


class TestClosures:
    def test_empty_and_full(self, z6):
        assert substructure_closure(z6, ()) == frozenset()
        assert substructure_closure(z6, range(6)) == frozenset(range(6))

    def test_z8_seed_matches_naive_fixpoint(self, z8k):
        seed = {0}
        closure = substructure_closure(z8k, seed)
        naive = set(seed)
        changed = True
        while changed:
            changed = False
            for x in list(naive):
                for y in list(naive):
                    for v in (z8k.star(x, y), z8k.star_inv(x, y),
                              z8k.r1(x, y), z8k.r2(x, y)):
                        if v not in naive:
                            naive.add(v)
                            changed = True
        assert closure == frozenset(naive)

    def test_shadow_closure(self, z8_z6_shadow):
        assert shadow_closure(z8_z6_shadow, {0}, ()) == frozenset({0})
        assert shadow_closure(z8_z6_shadow, {0}, range(8)) == frozenset({0, 3})

    def test_elements_outside_the_structure_are_refused(
            self, z6, z8_z6_shadow):
        """A negative element once indexed the tables from the end (z6 gave
        {2, 5, -1} for [-1]) and one past the order raised IndexError;
        both are AlgebraErrors, and so through ssqp, restrict and subsp."""
        sh = z8_z6_shadow   # base order 8, carrier 6
        refusals = [
            (lambda: substructure_closure(z6, [-1]), r"\[-1\] outside 0\.\.5"),
            (lambda: substructure_closure(z6, [0, 7, 6]), r"\[6, 7\] outside"),
            (lambda: shadow_closure(sh, [6], [0]), r"\[6\] outside 0\.\.5"),
            (lambda: shadow_closure(sh, [-1], [0]), r"\[-1\] outside 0\.\.5"),
            (lambda: shadow_closure(sh, [0], [8]), r"\[8\] outside 0\.\.7"),
            (lambda: shadow_closure(sh, [0], [-2]), r"\[-2\] outside 0\.\.7"),
            (lambda: ssqp([-1], z6), "outside"),
            (lambda: restrict(z6, [6]), "outside"),
            (lambda: subsp([0], [-1], sh), "outside"),
            (lambda: subsp([6], range(8), sh), "outside"),
        ]
        for refuse, message in refusals:
            with pytest.raises(AlgebraError, match=message):
                refuse()


TYPES = ('quandle', 'singquandle', 'biquandle', 'psyquandle', 'shadow')

# the bundled psyquandle with a star formula, which no psyquandle reads
PSY6_STAR = read_bundled("psy6.alg") + "formula: star 7\n"


class TestFileFormat:
    def test_round_trip_verdicts(self):
        text = ("type: singquandle\norder: 6\n"
                "formula: star -x+2y\nformula: r1 3+2x-y\nformula: r2 3+x\n")
        loaded = parse_algebra(text)
        s = loaded.structure
        again = ("type: singquandle\norder: 6\nstar:\n"
                 + "\n".join(" ".join(str(v + 1) for v in row)
                             for row in s.star.rows)
                 + "\nr1:\n"
                 + "\n".join(" ".join(str(v + 1) for v in row)
                             for row in s.r1.rows)
                 + "\nr2:\n"
                 + "\n".join(" ".join(str(v + 1) for v in row)
                             for row in s.r2.rows) + "\n")
        assert parse_algebra(again).structure == s

    def test_unknown_type_rejected(self):
        with pytest.raises(AlgebraError):
            parse_algebra("type: magma\norder: 2\n")

    def test_missing_block_rejected(self):
        with pytest.raises(AlgebraError):
            parse_algebra("type: quandle\norder: 2\n")

    @pytest.mark.parametrize("body, line", [
        ("formula: star x\nformula: star y\n", 4),      # formula twice
        ("star:\n1 1\n2 2\nstar:\n1 1\n2 2\n", 6),   # block twice
        ("formula: star x\nstar:\n1 1\n2 2\n", 4),     # formula, then block
        ("star:\n1 1\n2 2\nformula: star x\n", 6),     # block, then formula
        ("formula: r1 x\nformula: rr x\n", 4),          # a name no type reads
        ("formula: ops x\n", 3),
        ("type: quandle\n", 3),                         # headers twice
        ("order: 3\n", 3),
        # carrier twice, refused at the first repeat before any check of
        # what a singquandle reads
        ("carrier: 2\ncarrier: 2\ncarrier: 3\n", 4),
    ])
    def test_table_given_twice_or_unread_rejected(self, body, line):
        with pytest.raises(AlgebraError, match=f"^line {line}: "):
            parse_algebra("type: singquandle\norder: 2\n" + body)

    @pytest.mark.parametrize("text, line, message", [
        ("type: quandle\norder: 2\nformula: star x\nformula: r1 y\n", 4,
         "a quandle does not read r1"),
        ("type: quandle\norder: 2\nformula: action x\nstar:\n1 1\n2 2\n",
         3, "a quandle does not read action"),
        ("type: singquandle\norder: 2\ncarrier: 3\nformula: star x\n"
         "formula: r1 x\nformula: r2 y\n", 3,
         "a singquandle does not read carrier"),
        ("type: singquandle\norder: 2\nformula: star x\nformula: r1 x\n"
         "formula: r2 y\nops:\n1 1 1 1\n2 2 2 2\n", 6,
         "a singquandle does not read ops"),
        ("type: biquandle\norder: 2\nops:\n1 1 1 1\n2 2 2 2\n"
         "formula: r1 x\n", 6, "a biquandle does not read r1"),
        ("type: shadow\norder: 2\ncarrier: 2\nformula: star x\n"
         "formula: r1 x\nformula: r2 y\nformula: action x\n"
         "ops:\n1 1 1 1\n2 2 2 2\n", 8, "a shadow does not read ops"),
        (PSY6_STAR, PSY6_STAR.count("\n"), "a psyquandle does not read star"),
    ])
    def test_what_the_type_does_not_read_rejected(self, text, line, message):
        with pytest.raises(AlgebraError, match=f"^line {line}: {message}$"):
            parse_algebra(text)

    @pytest.mark.parametrize("text, message", [
        ("type: quandle\norder: x\n",
         "line 2: order: must be an integer, got 'x'"),
        ("type: singquandle\norder: 2\n\nmodulus: two\n",
         "line 4: modulus: must be an integer, got 'two'"),
        ("# action on 2 regions\ntype: shadow\norder: 2\ncarrier: 2.5\n"
         "formula: star x\nformula: r1 x\nformula: r2 y\nformula: action x\n",
         "line 4: carrier: must be an integer, got '2.5'"),
        ("order: 2\ntype: magma\n",
         f"line 2: type: must be one of {TYPES}, got 'magma'"),
        ("type: singquandle\norder: 2\nmodulus: 3\nformula: star x\n"
         "formula: r1 x\nformula: r2 y\n",
         "line 3: modulus: 3 differs from order: 2"),
        # a header that is absent has no line to name
        ("order: 2\n", f"type: must be one of {TYPES}, got None"),
        ("type: singquandle\n", "missing order: header"),
        # block tables are read mod the order too
        ("type: quandle\norder: 2\nmodulus: 5\nstar:\n1 1\n2 2\n",
         "line 3: modulus: 5 differs from order: 2"),
        # a header value below 1 is refused at its own line, before
        # whatever reads it next
        ("type: quandle\norder: 0\nformula: star x\n",
         "line 2: order: must be >= 1, got 0"),
        ("type: singquandle\n\norder: 0\nstar:\nr1:\nr2:\n",
         "line 3: order: must be >= 1, got 0"),
        ("type: quandle\norder: -1\nstar:\n",
         "line 2: order: must be >= 1, got -1"),
        ("type: singquandle\norder: 2\nmodulus: 0\nformula: star x\n"
         "formula: r1 x\nformula: r2 y\n",
         "line 3: modulus: must be >= 1, got 0"),
        ("type: shadow\norder: 2\ncarrier: 0\nformula: star x\n"
         "formula: r1 x\nformula: r2 y\naction:\n",
         "line 3: carrier: must be >= 1, got 0"),
        ("type: shadow\norder: 2\ncarrier: 0\nformula: star x\n"
         "formula: r1 x\nformula: r2 y\nformula: action x\n",
         "line 3: carrier: must be >= 1, got 0"),
        ("type: shadow\norder: 2\ncarrier: -2\nformula: star x\n"
         "formula: r1 x\nformula: r2 y\nformula: action x\n",
         "line 3: carrier: must be >= 1, got -2"),
    ])
    def test_header_value_error_names_its_line(self, text, message):
        with pytest.raises(AlgebraError) as err:
            parse_algebra(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("type: quandle\norder: 2\n\nstar:\n1 1\n2\n",
         "line 4: star block must be 2x2"),
        ("type: singquandle\norder: 2\nformula: star x\nformula: r1 x\n"
         "r2:\n1 1\n", "line 5: r2 block must be 2x2"),
        ("type: psyquandle\norder: 2\n# under, over, sing-under, sing-over\n"
         "ops:\n1 1 1 1\n2 2 2 2\n", "line 4: ops block must be 2x8"),
        ("type: shadow\norder: 2\ncarrier: 2\nformula: star x\n"
         "formula: r1 x\nformula: r2 y\naction:\n1 3\n2 1\n",
         "line 7: action entry 3 outside 1..2"),
        ("type: quandle\norder: 2\n\nformula: star x/2\n",
         "line 4: cannot parse formula 'x/2': trailing input at position 1"),
        ("type: quandle\norder: 2\n\nformula: star z\n",
         "line 4: formula 'z' uses unknown variable(s) ['z']"),
        ("type: singquandle\norder: 2\nformula: star x\nstar:\n1 1\n2 2\n"
         "formula: r1 x\nformula: r2 x\n", "line 4: star is given twice"),
    ], ids=["block", "short-block", "ops", "action", "formula-syntax",
            "formula-variable", "formula-then-block"])
    def test_table_error_names_its_line(self, text, message):
        with pytest.raises(AlgebraError) as err:
            parse_algebra(text)
        assert str(err.value) == message

    def test_generated_and_benchmark_files_load(self):
        rng = random.Random(18)
        for n in (3, 5, 6, 8, 12, 31, 47):
            for _ in range(3):
                text = gen.affine_alg_text(n, *gen.affine_params(rng, n))
                assert parse_algebra(text).structure.n == n
        fixture = Path(__file__).resolve().parent.parent / "bench" / "fixtures"
        loaded = parse_algebra((fixture / "z8_z6_base.alg").read_text())
        assert loaded.structure == load_algebra("z8_z6_shadow.alg").structure.base

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(AlgebraError,
                           match=r"^line 3: star entry 3 outside 1\.\.2$"):
            parse_algebra("type: quandle\norder: 2\nstar:\n1 3\n2 2\n")
