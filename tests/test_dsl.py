from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from coxangle.diagram import (
    AutGroup,
    CoxeterDiagram,
    builtin,
    new_diagram,
    orbits,
    type_name,
)
from coxangle.dsl import SpecDocument, parse_spec, render
from coxangle.errors import CoxangleError, InvalidTitsDiagram, ParseError
from coxangle.tits import TitsDiagram, minimal_angle

EXAMPLE_FOLDED_A5 = "diagram A5\ngamma (1 5)(2 4)\nanisotropic 1 2 4 5\n"
EXAMPLE_E7 = "diagram E7\nanisotropic 2 3 4 5 6 7\n"
EXAMPLE_CUSTOM_I25 = "diagram custom\nnodes 1 2\nedge 1 2 5\n"


class TestExamples:
    def test_folded_a5(self):
        doc = parse_spec(EXAMPLE_FOLDED_A5)
        t = doc.payload
        assert isinstance(t, TitsDiagram)
        assert type_name(t.diagram) == "A5"
        assert len(t.gamma.elements()) == 2
        assert t.anisotropic == frozenset({1, 2, 4, 5})

    def test_e7_trivial_gamma(self):
        doc = parse_spec(EXAMPLE_E7)
        t = doc.payload
        assert isinstance(t, TitsDiagram)
        assert t.gamma.is_trivial
        assert t.isotropic == (1,)

    def test_custom_plain_diagram(self):
        doc = parse_spec(EXAMPLE_CUSTOM_I25)
        d = doc.payload
        assert isinstance(d, CoxeterDiagram)
        assert d.m(1, 2) == 5

    def test_tits_property_lifts_plain_diagram(self):
        doc = parse_spec(EXAMPLE_CUSTOM_I25)
        t = doc.tits
        assert isinstance(t, TitsDiagram)
        assert t.anisotropic == frozenset()
        assert doc.diagram.m(1, 2) == 5

    def test_spans_and_filename(self):
        doc = parse_spec(EXAMPLE_FOLDED_A5, filename="x.spec")
        assert doc.filename == "x.spec"
        assert doc.spans["diagram"] == (1, 1)
        assert doc.spans["gamma"] == (2, 2)
        assert doc.spans["anisotropic"] == (3, 3)


class TestSyntax:
    def test_comments_and_blank_lines(self):
        text = "# header\n\ndiagram A3  # trailing\n  \nanisotropic 1 3\n"
        t = parse_spec(text).payload
        assert t.anisotropic == frozenset({1, 3})

    def test_crlf(self):
        t = parse_spec("diagram A3\r\nanisotropic 1 3\r\n").payload
        assert t.anisotropic == frozenset({1, 3})

    def test_multiple_gamma_lines_compose(self):
        d = builtin("D4")
        text = "diagram D4\ngamma (1 3)\ngamma (3 4)\n"
        t = parse_spec(text).payload
        assert len(t.gamma.elements()) == 6

    def test_builtin_names_pass_through(self):
        for name in ("A1", "B5", "I2(9)", "H3"):
            doc = parse_spec(f"diagram {name}\n")
            assert type_name(doc.payload) == type_name(builtin(name))


class TestErrors:
    @pytest.mark.parametrize(
        "text,line,col,message",
        [
            ("frobnicate 1\n", 1, 1, "expected a diagram clause first, got 'frobnicate'"),
            ("diagram A5\nfrobnicate\n", 2, 1, "unknown key 'frobnicate'"),
            ("diagram A5\ndiagram A5\n", 2, 1, "duplicate diagram clause"),
            ("diagram A5 A6\n", 1, 1, "diagram expects exactly one name"),
            ("diagram Q9\n", 1, 1, "unrecognized builtin diagram name 'Q9'"),
            ("diagram custom\n", 1, 1, "diagram custom requires a nodes clause"),
            ("diagram A5\nnodes 1 2\n", 2, 1,
             "nodes clause is only valid after 'diagram custom'"),
            ("diagram A5\nedge 1 2 3\n", 2, 1,
             "edge clause is only valid after 'diagram custom'"),
            ("diagram custom\nnodes 1 2\nnodes 3\n", 3, 1, "duplicate nodes clause"),
            ("diagram A5\nanisotropic 1\nanisotropic 2\n", 3, 1,
             "duplicate anisotropic clause"),
            ("diagram custom\nnodes\n", 2, 1, "nodes expects at least one label"),
            ("diagram A5\nanisotropic\n", 2, 1, "anisotropic expects at least one label"),
            ("diagram custom\nnodes 1 1\n", 2, 1, "duplicate node labels"),
            ("diagram custom\nnodes 1 2\nedge 1 9 3\n", 3, 1, "edge references unknown node 9"),
            ("diagram custom\nnodes 1 2\nedge 1 2 1\n", 3, 1, "edge label must be >= 2, got 1"),
            ("diagram custom\nnodes 1 2\nedge 1 2\n", 3, 1, "edge expects: edge <i> <j> <m>"),
            ("diagram A5\ngamma (1 2\n", 2, 7,
             "gamma expects disjoint cycles in parentheses, got '(1'"),
            ("diagram A5\ngamma (1 9)\n", 2, 1, "cycle entry 9 not in domain"),
            ("diagram A5\ngamma (1 1)\n", 2, 7, "gamma expects disjoint cycles, 1 occurs twice"),
            ("diagram A5\ngamma (1 3)(3 1)\n", 2, 12,
             "gamma expects disjoint cycles, 3 occurs twice"),
            ("diagram A5\nanisotropic x\n", 2, 13, "anisotropic expects integers, got 'x'"),
            ("diagram A5\nanisotropic 9\n", 2, 1, "anisotropic node 9 is not in the diagram"),
            ("", 1, 1, "empty specification: no diagram clause"),
        ],
    )
    def test_positions(self, text, line, col, message):
        with pytest.raises(ParseError) as exc:
            parse_spec(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert str(exc.value) == f"line {line}, col {col}: {message}"

    def test_column_points_into_line(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("diagram A5\nanisotropic 1 x\n")
        assert exc.value.line == 2
        assert exc.value.col == "diagram A5\nanisotropic 1 x\n".splitlines()[1].index("x") + 1

    def test_overlapping_cycle_column(self):
        text = "diagram A5\ngamma (1 5)  (2 4)(4 2)\n"
        with pytest.raises(ParseError) as exc:
            parse_spec(text, require_valid=False)
        assert exc.value.col == text.splitlines()[1].rindex("(") + 1

    def test_validation_failure_raises_invalid(self):
        with pytest.raises(InvalidTitsDiagram):
            parse_spec("diagram A3\nanisotropic 2 3\n")

    def test_non_automorphism_gamma_raises_invalid(self):
        # (1 2) permutes A5's nodes fine, so this is a validation
        # violation rather than a parse failure
        with pytest.raises(InvalidTitsDiagram):
            parse_spec("diagram A5\ngamma (1 2)\n")

    def test_require_valid_false_returns_payload(self):
        doc = parse_spec("diagram A3\nanisotropic 2 3\n", require_valid=False)
        assert isinstance(doc.payload, TitsDiagram)
        assert doc.payload.anisotropic == frozenset({2, 3})


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text", [EXAMPLE_FOLDED_A5, EXAMPLE_E7, EXAMPLE_CUSTOM_I25])
    def test_spec_examples(self, text):
        doc = parse_spec(text)
        again = parse_spec(render(doc.payload))
        assert again.payload == doc.payload

    def test_round_trip_preserves_angle(self):
        doc = parse_spec(EXAMPLE_FOLDED_A5)
        again = parse_spec(render(doc.payload))
        assert minimal_angle(again.payload) == minimal_angle(doc.payload)

    def test_render_emits_custom_form(self):
        out = render(parse_spec("diagram B3\n").payload)
        assert out.startswith("diagram custom\n")
        assert "nodes 1 2 3" in out
        assert "edge 2 3 4" in out

    def test_trivial_gamma_payload_kind_survives(self):
        # a Tits payload with trivial gamma and empty A still reparses as
        # a Tits payload, not a bare diagram
        doc = parse_spec("diagram B3\ngamma (1)\n")
        assert isinstance(doc.payload, TitsDiagram)
        again = parse_spec(render(doc.payload))
        assert isinstance(again.payload, TitsDiagram)
        assert again.payload == doc.payload

    def test_plain_diagram_stays_plain(self):
        doc = parse_spec(EXAMPLE_CUSTOM_I25)
        again = parse_spec(render(doc.payload))
        assert isinstance(again.payload, CoxeterDiagram)

    def test_nontrivial_gamma_multiple_generators(self):
        text = "diagram D4\ngamma (1 3)\ngamma (3 4)\nanisotropic 2\n"
        doc = parse_spec(text, require_valid=False)
        again = parse_spec(render(doc.payload), require_valid=False)
        assert len(again.payload.gamma.elements()) == len(doc.payload.gamma.elements()) == 6
        assert again.payload == doc.payload


ROUND_TRIP_BUILTINS = ["A1", "A3", "A5", "B3", "D4", "D5", "E6", "E8", "F4", "G2", "H3",
                       "I2(5)", "I2(8)", "A2+A2", "D4+D4", "G2+E6", "A1+A1+A1", "I2(5)+I2(5)"]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_render_parse_round_trip(data):
    d = builtin(data.draw(st.sampled_from(ROUND_TRIP_BUILTINS)))
    labels = data.draw(st.lists(st.integers(1, 100), min_size=d.rank,
                                max_size=d.rank, unique=True))
    label = dict(zip(d.nodes, labels))
    d = new_diagram(labels, [(label[i], label[j], m) for i, j, m in d.edges])
    if data.draw(st.booleans()):
        assert parse_spec(render(d)).payload == d
        return
    elements = sorted(helpers.diagram_automorphisms(d).elements(), key=lambda p: p.mapping)
    gens = data.draw(st.lists(st.sampled_from(elements), max_size=3))
    gamma = AutGroup.generated_by(gens, d.nodes)
    chosen = data.draw(st.lists(st.sampled_from(orbits(d, gamma)), unique=True))
    t = TitsDiagram(d, gamma, frozenset(x for orbit in chosen for x in orbit))
    assert parse_spec(render(t), require_valid=False).payload == t


# mostly well-formed clauses over small labels, with junk tokens mixed in
NAMES = ["custom", "custom", "", "A3", "A5", "B3", "D4", "E6", "F4", "H3", "I2(5)", "I2(1)",
         "D4+D4", "G2+E6", "E9", "Q2", "A5+"]
junk = st.text(alphabet=" \t()#-+,.x1\r", max_size=4)
small_label = st.integers(-1, 9).map(str)
word = st.one_of(small_label, small_label, small_label, small_label, junk)
words = st.lists(word, max_size=5).map(" ".join)
cycles = st.lists(words.map(lambda w: f"({w})"), max_size=3).map("".join)
spec_line = st.one_of(
    words.map("nodes {}".format),
    st.one_of(words, st.lists(word, min_size=3, max_size=3).map(" ".join)).map(
        "edge {}".format),
    st.one_of(cycles, words).map("gamma {}".format),
    words.map("anisotropic {}".format),
    st.sampled_from(NAMES).map("diagram {}".format),
    words,
)
spec_text = st.tuples(st.sampled_from(NAMES), st.lists(spec_line, max_size=6)).map(
    lambda x: "\n".join([f"diagram {x[0]}", *x[1]]))


@settings(deadline=None, max_examples=300)
@given(spec_text, st.booleans())
def test_fuzzed_spec_text_raises_only_coxangle_errors(text, require_valid):
    try:
        parse_spec(text, require_valid=require_valid)
    except CoxangleError:
        pass
