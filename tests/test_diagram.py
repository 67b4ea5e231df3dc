import random

import pytest

from singq.coloring import ColoringError, shadow_tuples, singquandle_tuples
from singq.data import load_diagram
from singq.diagram import (Crossing, DiagramError, ParseError, Region,
                           SingularDiagram, parse_diagram, validate_diagram)

from conftest import gen

KINK = """\
P b a a b
rot 1 ui oi uo oo
"""

SINGULAR_LOOP = """\
S a b a b
rot 1 i1 o1 i2 o2
"""


class TestParsing:
    def test_positive_kink(self):
        d = parse_diagram(KINK)
        assert d.n_crossings == 1 and d.n_semiarcs == 2
        assert d.component_count() == 1

    def test_duplicate_head_rejected(self):
        with pytest.raises(ParseError):
            parse_diagram("P a b a b\nP a b c d\n")

    @pytest.mark.parametrize("text, line, message", [
        ("P a a b b\n", 1, "semiarc 'a' has two heads"),
        ("# two tails\nP a b c d\n\nP e f c d\n", 4,
         "semiarc 'c' has two tails"),
        ("P a b a b\nP a b c d\n", 2, "semiarc 'a' has two heads"),
        ("P a b c d\nP c d x y\nrot 1 ui oi uo oo\n", 1,
         "dangling semiarc endpoint(s): ['a', 'b', 'x', 'y']"),
        ("P e f e f\n# a comment\nS a b c d\n", 3,
         "dangling semiarc endpoint(s): ['a', 'b', 'c', 'd']"),
    ])
    def test_semiarc_errors_cite_their_record(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_diagram(text)
        assert err.value.line_no == line
        assert str(err.value) == f"line {line}: {message}"

    def test_two_semiarcs_per_crossing(self, corpus):
        """Every diagram that builds has exactly two semiarcs per crossing,
        since each label has one head and one tail and a crossing has two
        in-ports: the corpus, the benchmark's braids and links, and seeded
        diagrams with labels dealt at random over the ports, which either
        build or are refused."""
        built = list(corpus.values())
        built += [parse_diagram(gen.closure_text(*member))
                  for member in gen.braid_pool() + gen.link_family()]
        rng, refused = random.Random(5), 0
        for trial in range(2000):
            k = rng.randint(1, 6)
            n = 2 * k   # labels, and in-ports and out-ports
            if trial % 2:   # labels drawn at random: most are refused
                heads, tails = ([rng.randrange(n + 1) for _ in range(n)]
                                for _ in "ht")
            else:           # one head and one tail per label
                heads, tails = (rng.sample(range(n), n) for _ in "ht")
            text = "".join(
                f"{rng.choice('PNS')} a{heads[2 * i]} a{heads[2 * i + 1]} "
                f"a{tails[2 * i]} a{tails[2 * i + 1]}\n" for i in range(k))
            try:
                built.append(parse_diagram(text))
            except DiagramError:
                refused += 1
        assert 1000 < len(built) and refused > 500
        for d in built:
            assert d.n_semiarcs == 2 * d.n_crossings

    def test_unknown_record_rejected(self):
        with pytest.raises(ParseError):
            parse_diagram("Q a b c d\n")

    def test_port_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_diagram("P a b c\n")

    def test_bad_rotation(self):
        with pytest.raises(ParseError):
            parse_diagram("P a b c d\nrot 1 i1 i2 o1 o2\n")
        with pytest.raises(ParseError):
            parse_diagram("P a b c d\nrot 7 ui oi uo oo\n")
        for number in ("0", "-1"):   # not read from the end of the list
            with pytest.raises(ParseError):
                parse_diagram(f"P a b b a\nrot {number} ui oi uo oo\n")

    def test_rotation_given_twice(self):
        """A second rotation of one crossing is refused at its line, not
        kept in place of the first."""
        with pytest.raises(ParseError, match="^line 4: rot 1 is given twice$"):
            parse_diagram("P a b b a\nrot 1 ui oi uo oo\n# again\n"
                          "rot 1 ui uo oo oi\n")

    def test_comments_and_blank_lines(self):
        d = parse_diagram("# comment\n\nP b a a b # trailing\n")
        assert d.n_crossings == 1

    def test_serialize_round_trip(self, corpus):
        for name, d in corpus.items():
            again = parse_diagram(d.serialize())
            assert again.serialize() == d.serialize(), name


class TestRegions:
    def test_kink_has_three_regions(self):
        d = parse_diagram(KINK)
        assert len(d.regions()) == 3
        assert (d.n_crossings, d.n_semiarcs) == (1, 2)
        assert d.euler_failure is None
        assert d.regions() == [Region(0, ((0, 1),)),
                               Region(1, ((0, -1), (1, 1))),
                               Region(2, ((1, -1),))]

    def test_singular_loop_has_three_regions(self):
        d = parse_diagram(SINGULAR_LOOP)
        assert len(d.regions()) == 3

    def test_corpus_euler(self, corpus):
        for name, d in corpus.items():
            assert d.euler_failure is None, name
            assert d.n_semiarcs == 2 * d.n_crossings, name

    def test_5k6_counts(self, corpus):
        d = corpus["5k6.dgm"]
        assert (d.n_crossings, d.n_semiarcs, len(d.regions()),
                d.euler_failure) == (6, 12, 8, None)

    def test_nonplanar_rotation_detected(self):
        text = ("P a d b e\nP b e c f\nP c f a d\n"
                "rot 1 ui oi uo oo\nrot 2 ui oi uo oo\nrot 3 ui oi uo oo\n")
        d = parse_diagram(text)
        v, e, f = d.n_crossings, d.n_semiarcs, len(d.regions())
        message = f"Euler check failed: V={v} E={e} F={f} components=1"
        assert d.euler_failure == message
        assert validate_diagram(d).problems == (message,)

    def test_euler_result_is_kept(self, monkeypatch, z8_z6_shadow):
        """The Euler result is worked out once, when the diagram is built:
        validation and the shadow search read it and count no graph
        components again."""
        good = load_diagram("4_1k.dgm")
        bad = parse_diagram("P a d b e\nP b e c f\nP c f a d\n"
                            "rot 1 ui oi uo oo\nrot 2 ui oi uo oo\n"
                            "rot 3 ui oi uo oo\n")
        message = bad.euler_failure
        assert good.euler_failure is None and message.startswith("Euler")

        def recount(self):
            raise AssertionError("graph components counted again")

        monkeypatch.setattr(SingularDiagram, "graph_component_count", recount)
        assert validate_diagram(good).valid
        assert validate_diagram(bad).problems == (message,)
        assert len(shadow_tuples(good, z8_z6_shadow)) == 96
        with pytest.raises(ColoringError, match=message):
            shadow_tuples(bad, z8_z6_shadow)

    def test_missing_rotation_raises(self):
        d = parse_diagram("P b a a b\n")
        with pytest.raises(DiagramError):
            d.regions()

    @pytest.mark.parametrize("rotation", [("i1", "i2", "o1", "o2"),
                                          ("ui", "ui", "uo", "oo")])
    def test_built_rotation_must_permute_ports(self, rotation):
        """Regions are traced when a diagram is built, so a crossing built
        without the parser is refused there if its rotation is not a
        permutation of its ports, not traced into wrong faces."""
        kink = Crossing(0, "P", {"ui": "b", "oi": "a", "uo": "a", "oo": "b"},
                        rotation)
        with pytest.raises(DiagramError, match="rotation must permute"):
            SingularDiagram([kink])

    def test_every_dart_in_one_region(self, corpus):
        for name, d in corpus.items():
            darts = [dart for r in d.regions() for dart in r.boundary]
            assert len(darts) == 2 * d.n_semiarcs, name
            assert len(set(darts)) == len(darts), name

    def test_side_regions_cover_both_sides(self, corpus):
        for name, d in corpus.items():
            sides = d.side_regions()
            assert set(sides) == {a.label for a in d.semiarcs}
            for label, (left, right) in sides.items():
                assert left is not None and right is not None, (name, label)

    def test_sides_hold_their_darts(self, corpus):
        """The forward dart of semiarc i lies in region ``sides[i][0]``, the
        one to its left, and the backward dart in ``sides[i][1]``."""
        for name, d in corpus.items():
            regions = d.regions()
            assert len(d.sides) == d.n_semiarcs, name
            for i, (left, right) in enumerate(d.sides):
                assert (i, +1) in regions[left].boundary, (name, i)
                assert (i, -1) in regions[right].boundary, (name, i)


class TestComponents:
    def test_corpus_diagrams_are_connected(self, corpus):
        for name, d in corpus.items():
            assert d.graph_component_count() == 1, name
            # the bouquet diagrams trace two loops through the vertex
            expected = 2 if name.startswith("1l1") else 1
            assert d.component_count() == expected, name

    def test_two_component_link(self):
        text = "P a b c d\nP c d a b\n"
        assert parse_diagram(text).component_count() == 2


class TestReadOnly:
    FIELDS = ("crossings", "semiarcs", "compiled", "faces", "sides",
              "euler_failure")

    def test_fields_are_tuples_set_once(self):
        """Each field is a tuple, or, for the Euler result of a diagram
        that passes, None; none can be set again or deleted."""
        d, other = load_diagram("5k6.dgm"), load_diagram("5k7.dgm")
        for name in self.FIELDS:
            assert isinstance(getattr(d, name),
                              type(None) if name == "euler_failure" else tuple)
            with pytest.raises(AttributeError):
                setattr(d, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(d, name)

    def test_kept_coloring_set_cannot_go_stale(self, z6):
        """The coloring set a diagram keeps stays the set of its own
        crossings: the fields it was searched from cannot be changed in
        place, as lists once could."""
        a, b = load_diagram("5k6.dgm"), load_diagram("5k7.dgm")
        kept = singquandle_tuples(a, z6)
        assert kept != singquandle_tuples(b, z6)
        # the kept plan and coloring set still fill
        assert {"singquandle", ("plan", "singquandle")} <= a._kept.keys()
        for name in self.FIELDS:
            with pytest.raises(TypeError):
                getattr(a, name)[:] = getattr(b, name)
        assert singquandle_tuples(a, z6) == kept

    def test_crossing_ports_are_frozen(self, z8_z6_shadow):
        """A crossing's port map is a read-only copy: once it was the
        caller's dict, so swapping two of its labels left the kept shadow
        set stale, changed ``serialize()`` and broke ``regions()``."""
        d = load_diagram("4_1k.dgm")
        arcs = [dict(c.arcs) for c in d.crossings]
        d = SingularDiagram([c._replace(arcs=a)
                             for c, a in zip(d.crossings, arcs)])
        text, kept = d.serialize(), shadow_tuples(d, z8_z6_shadow)
        with pytest.raises(TypeError):
            d.crossings[0].arcs["ui"] = d.crossings[0].arcs["oi"]
        arcs[0]["ui"], arcs[0]["oi"] = arcs[0]["oi"], arcs[0]["ui"]
        assert d.serialize() == text
        assert len(d.regions()) == d.n_crossings + 2
        assert shadow_tuples(d, z8_z6_shadow) is kept
        assert len(kept) == 96
