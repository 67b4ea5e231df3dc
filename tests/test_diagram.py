import pytest

from singq.diagram import (DiagramError, ParseError, parse_diagram,
                           validate_diagram)

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
        assert d.euler_check() == (1, 2, 3, True)
        assert d.euler_problem(d.regions()) is None

    def test_singular_loop_has_three_regions(self):
        d = parse_diagram(SINGULAR_LOOP)
        assert len(d.regions()) == 3

    def test_corpus_euler(self, corpus):
        for name, d in corpus.items():
            v, e, f, ok = d.euler_check()
            assert ok, name
            assert e == 2 * v, name
            assert d.n_semiarcs == 2 * d.n_crossings, name

    def test_5k6_counts(self, corpus):
        v, e, f, ok = corpus["5k6.dgm"].euler_check()
        assert (v, e, f, ok) == (6, 12, 8, True)

    def test_nonplanar_rotation_detected(self):
        text = ("P a d b e\nP b e c f\nP c f a d\n"
                "rot 1 ui oi uo oo\nrot 2 ui oi uo oo\nrot 3 ui oi uo oo\n")
        d = parse_diagram(text)
        v, e, f, ok = d.euler_check()
        assert not ok
        message = f"Euler check failed: V={v} E={e} F={f} components=1"
        assert d.euler_problem(d.regions()) == message
        assert validate_diagram(d).problems == (message,)

    def test_missing_rotation_raises(self):
        d = parse_diagram("P b a a b\n")
        with pytest.raises(DiagramError):
            d.regions()

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
