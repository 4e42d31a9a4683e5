import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsubopt import (
    GraphParseError,
    MaskValidityError,
    SubgraphMask,
    WeightedGraph,
    compile_formula,
    dump_graph,
    dump_mask,
    forced_edges,
    is_valid,
    load_graph,
    load_mask,
    score,
    witness_mask,
)
from corrsubopt import graph as graph_module

import helpers


class TestParsing:
    def test_p3_round_trip(self, p3):
        assert p3.vertex_count == 3
        assert p3.edges == ((0, 1), (1, 2))
        assert p3.weights == (Fraction(0), Fraction(1), Fraction(2))
        assert load_graph(dump_graph(p3)) == p3

    def test_dump_is_fixed_point(self, star):
        once = dump_graph(star)
        assert dump_graph(load_graph(once)) == once

    def test_comments_and_blanks_skipped(self):
        text = "# title\n\n2 1\n0 1\n# weights above\n1 2\n\n0 1\n"
        g = load_graph(text)
        assert g.edge_count == 1
        assert g.weights == (Fraction(1), Fraction(2))

    def test_rational_weights(self):
        g = load_graph("2 1\n0 -7/3\n1 1/2\n0 1\n")
        assert g.weights == (Fraction(-7, 3), Fraction(1, 2))
        assert "-7/3" in dump_graph(g)

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("", "empty", None),
            ("2\n0 1\n1 2\n", "header", 1),
            ("x y\n", "integers", 1),
            ("0 0\n", "positive", 1),
            ("2 1\n0 1\n1 2\n", "expected 2 vertex lines", 1),
            ("2 1\n0 1 9\n1 2\n0 1\n", "vertex line", 2),
            ("2 1\n5 1\n1 2\n0 1\n", "out of range", 2),
            ("2 1\n0 1\n0 2\n0 1\n", "duplicate vertex", 3),
            ("2 1\n0 1/0\n1 2\n0 1\n", "invalid rational", 2),
            ("2 1\n0 1e400\n1 2\n0 1\n", "invalid rational", 2),
            ("2 1\n0 1\n1 2\n0 0\n", "self-loop", 4),
            ("2 1\n0 1\n1 2\n0 7\n", "out of range", 4),
            ("3 3\n0 1\n1 2\n2 3\n0 1\n1 2\n1 0\n", "duplicate edge", 7),
            ("3 1\n0 1\n1 2\n2 3\n0 1\n", "isolated vertex 2", None),
        ],
    )
    def test_diagnostics(self, text, fragment, line):
        with pytest.raises(GraphParseError) as exc:
            load_graph(text)
        assert fragment in str(exc.value)
        if line is not None:
            assert exc.value.line == line

    def test_line_numbers_skip_comments(self):
        text = "# c\n# c\n2 1\n0 1\n1 oops\n0 1\n"
        with pytest.raises(GraphParseError) as exc:
            load_graph(text)
        assert exc.value.line == 5


class TestErrorOrder:
    """The first defect in file order is reported, though ``load_graph``
    reads the lines once and keeps no set of edges."""

    def test_repeated_edge_before_a_later_defect(self):
        # (0, 1) on lines 6 and 8, not adjacent; an out-of-range edge on line 9.
        with pytest.raises(GraphParseError) as exc:
            load_graph("4 4\n0 1\n1 1\n2 1\n3 1\n0 1\n1 2\n1 0\n0 9\n")
        assert str(exc.value) == "line 8: duplicate edge (0, 1)"
        assert exc.value.line == 8

    def test_line_count_before_a_malformed_line(self):
        with pytest.raises(GraphParseError) as exc:
            load_graph("3 2\n0 1\n1 x\n2 1\n0 1\n")
        assert str(exc.value) == "line 1: expected 3 vertex lines and 2 edge lines, found 4"
        assert exc.value.line == 1
        with pytest.raises(ValueError, match="^line 1: expected 3 clause lines, found 2$"):
            helpers.make_formula("3 3\n1 2 x\n1 2 3\n")

    # Lines of either section, well formed or not, and comments and blanks.
    _LINES = st.one_of(
        st.builds("{} {}".format, st.integers(-1, 4),
                  st.sampled_from(["0", "1", "-1/2", "x", "1e5", "1/0"])),
        st.builds("{} {}".format, st.integers(-1, 4), st.integers(-1, 4)),
        st.sampled_from(["", "# c", "1 2 3", "a b", "3"]),
    )

    @given(st.integers(1, 4), st.integers(0, 5), st.lists(_LINES, max_size=11),
           st.lists(st.sampled_from(["\n", "\r", "\r\n", "\x0c", "\x1c", "\u2028"]),
                    min_size=11, max_size=11))
    @settings(deadline=None, max_examples=400)
    def test_same_graph_or_error_as_a_parser_that_lists_every_line(self, n, m, lines, breaks):
        text = f"{n} {m}\n" + "".join(map("".join, zip(lines, breaks)))

        def outcome(parse):
            try:
                return dump_graph(parse(text))
            except GraphParseError as exc:
                return str(exc), exc.line

        assert outcome(load_graph) == outcome(helpers.reference_load_graph)


class TestLineBreaks:
    """The readers split and number lines as ``str.splitlines`` does, which
    also breaks at a lone "\\r" and at "\\x0c", where a file's line iterator
    does not."""

    @pytest.mark.parametrize("text", [
        "3 2\r0 1\r1 2\r2 3\r0 1\r1 2\r",
        "3 2\r\n0 1\r\n1 2\r\n2 3\r\n0 1\r\n1 2\r\n",
        "3 2\x0c0 1\x0c1 2\x0c2 3\x0c0 1\x0c1 2",
        "# c\r\n\r3 2\x0c0 1\r1 2\n2 3\r\n0 1\x0c1 2\n",
    ])
    def test_graph(self, text):
        assert dump_graph(load_graph(text)) == "3 2\n0 1\n1 2\n2 3\n0 1\n1 2\n"

    @pytest.mark.parametrize("text, message, line", [
        ("3 2\r\n0 1\r1 x\x0c2 3\n0 1\n1 2\n", "invalid rational weight 'x'", 3),
        ("# c\r\n3 2\r\n0 1\r\n1 2\r\n2 3\r\n0 1\r\n1 0\r\n", "duplicate edge (0, 1)", 7),
        ("\r\r3 2\x0c0 1\x0c1 2\x0c2 3\x0c0 1\x0c5 2\n", "edge (5, 2) out of range", 8),
        ("\x0c3 2\r0 1\r\n1 2\r\n\r\n0 1\r1 2\r",
         "expected 3 vertex lines and 2 edge lines, found 4", 2),
    ])
    def test_graph_error_lines(self, text, message, line):
        with pytest.raises(GraphParseError) as exc:
            load_graph(text)
        assert str(exc.value) == f"line {line}: {message}"
        assert exc.value.line == line

    @pytest.mark.parametrize("text, bits", [
        ("101\r\n", "101"), ("0\r\n2\x0c", "101"), ("\x0c\r\n1\r2", "011")])
    def test_mask(self, text, bits, triangle):
        assert load_mask(text, triangle).bitstring() == bits

    @pytest.mark.parametrize("text, message", [
        ("0\r1\x0cx", "line 3: invalid edge id 'x'"),
        ("1\r\n\r\n01", "line 3: ambiguous token '01': not a length-3 bitstring "
                         "and not a canonical edge id"),
    ])
    def test_mask_error_lines(self, text, message, triangle):
        with pytest.raises(GraphParseError) as exc:
            load_mask(text, triangle)
        assert str(exc.value) == message
        assert exc.value.line == 3

    def test_formula(self):
        formula = helpers.make_formula("3 3\r1 2 3\r1 2 3\x0c1 2 3\r\n")
        assert formula == helpers.make_formula(helpers.SAT3_TEXT)

    @pytest.mark.parametrize("text, message", [
        ("3 3\r\n1 2 3\r1 2 x\x0c1 2 3", "line 3: variable ids must be integers"),
        ("# c\r3 3\r1 2 3\r1 2 3\r", "line 2: expected 3 clause lines, found 2"),
        ("3 3\x0c\x0c1 2 3\r\n1 2 3\r\r\n1 2 2", "line 6: clause variables must be distinct"),
    ])
    def test_formula_error_lines(self, text, message):
        with pytest.raises(ValueError) as exc:
            helpers.make_formula(text)
        assert str(exc.value) == message

    @given(st.text(st.sampled_from("a1 #\n\r\x0b\x0c\x1c\x85\u2028"), max_size=40),
           st.integers(1, 6))
    @settings(deadline=None, max_examples=300)
    def test_any_chunk_size_splits_as_splitlines(self, text, chunk):
        stripped = enumerate(map(str.strip, text.splitlines()), 1)
        expected = [(no, line) for no, line in stripped if line and line[0] != "#"]
        with mock.patch.object(graph_module, "_CHUNK", chunk):
            assert list(graph_module._content_lines(text)) == expected


# Equal weights spelled differently, and repeats: load_graph parses each
# distinct token once, so equal spellings must still give equal weights.
_TOKENS = st.one_of(
    st.sampled_from(["1/2", "2/4", "-0", "0", "3", "3/1", "+3", "03", "-7/3", "1.5", "-2"]),
    st.builds("{}/{}".format, st.integers(-12, 12), st.integers(1, 12)),
)


class TestDistinctWeights:
    """The graph layer handles each distinct weight once; every result must
    equal the per-vertex computation it replaces."""

    @given(st.lists(_TOKENS, min_size=2, max_size=30), st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_load_matches_a_fraction_per_token(self, tokens, reverse):
        n = len(tokens)
        ids = range(n - 1, -1, -1) if reverse else range(n)
        text = "\n".join([f"{n} {n - 1}", *(f"{i} {tokens[i]}" for i in ids),
                          *(f"0 {i}" for i in range(1, n))]) + "\n"
        g = load_graph(text)
        assert g.weights == tuple(Fraction(tok) for tok in tokens)
        scale = math.lcm(*(w.denominator for w in g.weights))
        assert g.scaled_weights == (scale, tuple(int(w * scale) for w in g.weights))
        once = dump_graph(g)
        assert once.splitlines()[1:n + 1] == [
            f"{i} {w.numerator}" + (f"/{w.denominator}" if w.denominator != 1 else "")
            for i, w in enumerate(g.weights)]
        assert load_graph(once) == g
        assert dump_graph(load_graph(once)) == once
        rebuilt = WeightedGraph.build(n, g.edges, tokens)
        assert rebuilt == g and rebuilt.scaled_weights == g.scaled_weights

    def test_equal_weights_share_one_fraction(self):
        g = load_graph("4 3\n0 1/2\n1 3\n2 1/2\n3 3\n0 1\n0 2\n0 3\n")
        assert g.weights[0] is g.weights[2] and g.weights[1] is g.weights[3]
        built = WeightedGraph.build(4, g.edges, [5, 3, 5, 3])
        assert built.weights[0] is built.weights[2] and built.weights[1] is built.weights[3]

    def test_build_refuses_exponent_strings_as_load_graph_does(self):
        with pytest.raises(ValueError, match="invalid rational weight '1e400'"):
            WeightedGraph.build(2, [(0, 1)], ["1e400", "0"])
        with pytest.raises(ValueError):
            WeightedGraph.build(2, [(0, 1)], ["0", "1E5"])
        built = WeightedGraph.build(2, [(0, 1)], ["-7/3", "1.5"])
        assert built.weights == (Fraction(-7, 3), Fraction(3, 2))
        for token in ("1e400", "1E5", "1/0", "x"):
            with pytest.raises(GraphParseError) as exc:
                load_graph(f"2 1\n0 {token}\n1 2\n0 1\n")
            assert str(exc.value) == f"line 2: invalid rational weight '{token}'"
            assert exc.value.line == 2

    def test_invalid_token_reports_its_first_line(self):
        text = "3 2\n0 1/0\n1 2\n2 1/0\n0 1\n0 2\n"
        with pytest.raises(GraphParseError, match="invalid rational weight '1/0'") as exc:
            load_graph(text)
        assert exc.value.line == 2
        with pytest.raises(GraphParseError) as exc:
            load_graph("3 2\n0 1\n1 x\n2 x\n0 1\n0 2\n")
        assert exc.value.line == 3

    @given(st.sampled_from(helpers.KERNEL_SHAPES), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=80)
    def test_degree_tables_match_the_incidence_lists(self, shape, seed):
        g = helpers.kernel_graph(random.Random(seed), shape)
        assert g.degrees == tuple(len(pairs) for pairs in g.incidence)
        _, weights = g.scaled_weights
        leaves = [(x, pairs[0][0]) for x, pairs in enumerate(g.incidence) if len(pairs) == 1]
        expected = sum((weights[x] - weights[y]) ** 2 for x, y in leaves)
        assert g.leaf_numerator == expected * g.discrepancy_scale[1][1]

    @given(st.sampled_from(helpers.KERNEL_SHAPES), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=80)
    def test_free_incidence_is_the_free_part_of_the_incidence_lists(self, shape, seed):
        g = helpers.kernel_graph(random.Random(seed), shape)
        free = [tuple(eid for _, eid in pairs if eid in g.free_edge_ids) for pairs in g.incidence]
        expected = {vtx: eids for vtx, eids in enumerate(free) if eids}
        assert list(g.free_incidence.items()) == list(expected.items())


class TestWeightedGraph:
    def test_build_normalises_edge_order(self):
        g = WeightedGraph.build(3, [(2, 1), (1, 0)], [0, 1, 2])
        assert g.edges == ((0, 1), (1, 2))

    def test_edge_ids_follow_sorted_order(self, triangle):
        assert triangle.edge_id(0, 1) == 0
        assert triangle.edge_id(2, 0) == 1
        assert triangle.edge_id(1, 2) == 2

    def test_edge_id_of_a_non_edge_is_a_key_error(self, star):
        for u, v in ((1, 2), (3, 1), (0, 4), (3, 4)):
            with pytest.raises(KeyError):
                star.edge_id(u, v)

    def test_incidence_and_degrees(self, star):
        assert star.degrees == (3, 1, 1, 1)
        assert star.incidence[0] == ((1, 0), (2, 1), (3, 2))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            WeightedGraph.build(2, [(0, 1), (1, 0)], [0, 1])

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError, match="isolated vertex"):
            WeightedGraph.build(3, [(0, 1)], [0, 1, 2])

    def test_direct_construction_checks_canonical_order(self):
        half = Fraction(1, 2)
        with pytest.raises(ValueError, match="duplicate edge"):
            WeightedGraph(3, ((0, 1), (0, 1), (1, 2)), (half,) * 3)
        with pytest.raises(ValueError, match="edges not in canonical order"):
            WeightedGraph(3, ((1, 2), (0, 1)), (half,) * 3)


class TestValueSemantics:
    """Graphs compare, hash and print by their fields, and are read-only."""

    def test_equality_and_hash_follow_the_fields(self, p3):
        again = load_graph(helpers.P3_TEXT)
        assert again == p3 and again is not p3
        assert hash(again) == hash(p3)
        assert len({p3, again}) == 1
        other = WeightedGraph(3, p3.edges, (Fraction(0), Fraction(1), Fraction(3)))
        assert other != p3
        assert p3 != (p3.vertex_count, p3.edges, p3.weights)

    def test_repr_lists_the_fields(self):
        g = load_graph("2 1\n0 1\n1 1/2\n0 1\n")
        assert repr(g) == ("WeightedGraph(vertex_count=2, edges=((0, 1),), "
                           "weights=(Fraction(1, 1), Fraction(1, 2)))")

    def test_pendants_are_a_field_of_a_graph_that_has_them(self):
        plain = WeightedGraph.build(2, [(0, 1)], [0, 1])
        folded = WeightedGraph.build(2, [(0, 1)], [0, 1], [(0, 2, "1/2")])
        assert folded != plain and folded.degrees == (3, 1)
        assert repr(folded).endswith(", pendants=((0, 2, Fraction(1, 2)),))")
        for bad in ([(2, 1, 0)], [(0, 0, 0)]):
            with pytest.raises(ValueError, match="pendant"):
                WeightedGraph.build(2, [(0, 1)], [0, 1], bad)

    def test_folded_leaves_score_as_written_out(self):
        # A triangle whose vertices carry two or three leaves each, of
        # rational weights: only the folded leaves can reach degree 1.
        pendants = [(0, 2, "1/3"), (1, 3, "5/2"), (2, 2, -1)]
        folded = WeightedGraph.build(3, [(0, 1), (1, 2), (0, 2)], [1, "2/7", 4], pendants)
        edges, weights = [(0, 1), (1, 2), (0, 2)], [1, "2/7", 4]
        for hub, count, weight in pendants:
            edges += [(hub, leaf) for leaf in range(len(weights), len(weights) + count)]
            weights += [weight] * count
        explicit = WeightedGraph.build(len(weights), edges, weights)
        assert folded.discrepancy_scale == explicit.discrepancy_scale
        assert folded.leaf_numerator == explicit.leaf_numerator
        assert folded.forced_nbr_sums == explicit.forced_nbr_sums[:3]
        for kept in ([1, 1, 1], [0, 1, 1], [1, 0, 0]):
            mask, big = SubgraphMask(folded, map(bool, kept)), SubgraphMask.full(explicit)
            for (u, v), keep in zip(folded.edges, mask.kept):
                big.set_edge(explicit.edge_id(u, v), keep)
            assert score(folded, mask, multiplier=10) == score(explicit, big)
            assert mask.degrees == big.degrees[:3]

    @pytest.mark.parametrize("field", ["vertex_count", "edges", "weights"])
    def test_fields_are_read_only(self, p3, field):
        with pytest.raises(AttributeError):
            setattr(p3, field, getattr(p3, field))
        with pytest.raises(AttributeError):
            delattr(p3, field)
        assert load_graph(helpers.P3_TEXT) == p3


class TestMask:
    def test_full_and_kept_ids(self, triangle):
        m = SubgraphMask.full(triangle)
        assert m.kept == [True, True, True]
        assert m.bitstring() == "111"
        assert m.degrees == [2, 2, 2]

    def test_set_edge_updates_degrees(self, triangle):
        m = SubgraphMask.full(triangle)
        m.set_edge(1, False)
        assert m.degrees == [1, 2, 1]
        m.set_edge(1, True)
        assert m.degrees == [2, 2, 2]

    def test_from_kept_ids_validates(self, triangle):
        with pytest.raises(ValueError):
            SubgraphMask.from_kept_ids(triangle, [0, 0])
        with pytest.raises(ValueError):
            SubgraphMask.from_kept_ids(triangle, [3])

    def test_equality_and_unhashable(self, triangle):
        a = SubgraphMask.from_kept_ids(triangle, [0, 1])
        b = SubgraphMask.full(triangle)
        b.set_edge(2, False)
        assert a == b
        with pytest.raises(TypeError):
            hash(a)

    def test_lex_key_orders_like_bitstrings(self, triangle):
        masks = [
            SubgraphMask.from_kept_ids(triangle, ids)
            for ids in ([0, 1], [0, 2], [1, 2], [0, 1, 2])
        ]
        keys = sorted(m.lex_key() for m in masks)
        bits = sorted(m.bitstring() for m in masks)
        assert [k.decode() for k in keys] == bits

    def test_is_valid(self, p3):
        assert is_valid(p3, SubgraphMask.full(p3))
        dropped = SubgraphMask.from_kept_ids(p3, [0])
        assert not is_valid(p3, dropped)

    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=40))
    @settings(deadline=None, max_examples=60)
    def test_degree_cache_matches_recount(self, ops):
        rng = random.Random(7)
        g = helpers.random_graph(rng)
        m = SubgraphMask.full(g)
        for eid, keep in ops:
            if eid < g.edge_count:
                m.set_edge(eid, keep)
        recount = [0] * g.vertex_count
        for (u, v), keep in zip(g.edges, m.kept):
            recount[u] += keep
            recount[v] += keep
        assert m.degrees == recount


class TestForcedEdges:
    def test_star_is_fully_forced(self, star):
        assert forced_edges(star) == {0, 1, 2}

    def test_triangle_has_none(self, triangle):
        assert forced_edges(triangle) == frozenset()

    def test_every_valid_mask_keeps_forced(self):
        rng = random.Random(11)
        for _ in range(10):
            g = helpers.random_graph(rng, max_vertices=6)
            forced = forced_edges(g)
            for kept in helpers.enumerate_valid_bitlists(g):
                assert all(kept[eid] for eid in forced)


class TestMaskIO:
    def test_bitstring_round_trip(self, triangle):
        m = SubgraphMask.from_kept_ids(triangle, [0, 2])
        assert dump_mask(m) == "101\n"
        assert load_mask(dump_mask(m), triangle) == m

    def test_id_list_form(self, triangle):
        m = load_mask("0 2\n", triangle)
        assert m.bitstring() == "101"

    def test_single_zero_on_one_edge_graph_is_a_bitstring(self):
        g = load_graph("2 1\n0 0\n1 1\n0 1\n")
        m = load_mask("0", g)
        assert m.bitstring() == "0"

    def test_single_zero_on_larger_graph_is_an_id(self, triangle):
        m = load_mask("0", triangle)
        assert m.kept == [True, False, False]

    @pytest.mark.parametrize("text", ["", "2 x", "abc", "01", "0 1 99"])
    def test_rejects_malformed_masks(self, text, triangle):
        with pytest.raises(GraphParseError):
            load_mask(text, triangle)

    def test_set_edge_rejects_bad_id(self, triangle):
        m = SubgraphMask.full(triangle)
        with pytest.raises(IndexError):
            m.set_edge(9, False)


# Input errors no other test reaches, each message pinned as it reads.
@pytest.mark.parametrize(
    "make, error, message",
    [
        pytest.param(lambda: load_graph("2 1\nx 1\n1 2\n0 1\n"), GraphParseError,
                     "line 2: invalid vertex id 'x'", id="vertex-id"),
        pytest.param(lambda: load_graph("2 1\n0 1\n1 2\n0 1 1\n"), GraphParseError,
                     "line 4: edge line must be '<u> <v>'", id="edge-line-shape"),
        pytest.param(lambda: load_graph("2 1\n0 1\n1 2\n0 b\n"), GraphParseError,
                     "line 4: edge endpoints must be integers", id="edge-endpoints"),
        # The line count is checked before anything sized by the header's n.
        pytest.param(lambda: load_graph("10000000000 1\n0 1\n"), GraphParseError,
                     "line 1: expected 10000000000 vertex lines and 1 edge lines, found 1",
                     id="huge-vertex-count"),
        pytest.param(lambda: WeightedGraph.build(0, [], []), ValueError,
                     "graph needs at least one vertex", id="no-vertex"),
        pytest.param(lambda: WeightedGraph.build(2, [(0, 1)], [0]), ValueError,
                     "expected 2 weights, got 1", id="weight-count"),
        pytest.param(lambda: WeightedGraph.build(2, [(0, 1), (1, 1)], [0, 1]), ValueError,
                     "self-loop at vertex 1", id="self-loop"),
        pytest.param(lambda: SubgraphMask(load_graph(helpers.TRIANGLE_TEXT), [True]),
                     ValueError, "mask length 1 != edge count 3", id="mask-length"),
        # Every item of "010" and b"010" is truthy: as booleans they keep all three.
        pytest.param(lambda: SubgraphMask(load_graph(helpers.TRIANGLE_TEXT), "010"),
                     ValueError, "kept must be booleans, not str; load_mask reads a bitstring",
                     id="mask-str"),
        pytest.param(lambda: SubgraphMask(load_graph(helpers.TRIANGLE_TEXT), b"010"),
                     ValueError, "kept must be booleans, not bytes; load_mask reads a bitstring",
                     id="mask-bytes"),
    ],
)
def test_input_errors(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


@pytest.fixture(scope="module")
def sat3_t40():
    """The sat3 instance at t = 40 (19,956 vertices), dumped: graph text and
    the text of the witness mask of assignment TFF."""
    formula = helpers.make_formula(helpers.SAT3_TEXT)
    inst = compile_formula(formula, 40)
    mask = witness_mask(formula, 40, (True, False, False), inst)
    return dump_graph(inst.graph), dump_mask(inst.explicit_mask(mask))


class TestBoundedMemory:
    """Traced peaks per vertex on the sat3 graph at t = 40.  With a list of
    every content line, a set of every edge and a set of the forced edge
    ids, ``load_graph`` peaked at 554 bytes a vertex and ``score`` under the
    witness mask at 175; read line by line, 153 and 25."""

    VERTICES = 19_956

    def test_load_graph(self, sat3_t40):
        text, _ = sat3_t40
        assert helpers.traced_peak(lambda: load_graph(text)) < 250 * self.VERTICES

    def test_score_under_the_witness_mask(self, sat3_t40):
        text, mask_text = sat3_t40
        graph = load_graph(text)
        assert graph.vertex_count == self.VERTICES
        mask = load_mask(mask_text, graph)
        assert helpers.traced_peak(lambda: score(graph, mask)) < 80 * self.VERTICES
