import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsubopt import (
    GraphParseError,
    MaskValidityError,
    SubgraphMask,
    WeightedGraph,
    dump_graph,
    dump_mask,
    forced_edges,
    is_valid,
    load_graph,
    load_mask,
)

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
    def test_unforced_incidence_is_the_incidence_lists_of_the_unforced_vertices(
            self, shape, seed):
        g = helpers.kernel_graph(random.Random(seed), shape)
        expected = {vtx: tuple(eid for _, eid in pairs) for vtx, pairs in enumerate(g.incidence)
                    if all(g.degrees[nbr] > 1 for nbr, _ in pairs) and len(pairs) > 1}
        assert list(g.unforced_incidence.items()) == list(expected.items())


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
        assert m.kept_ids() == [0, 1, 2]
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
        for eid in m.kept_ids():
            u, v = g.edges[eid]
            recount[u] += 1
            recount[v] += 1
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
        assert m.kept_ids() == [0]

    @pytest.mark.parametrize("text", ["", "2 x", "abc", "01", "0 1 99"])
    def test_rejects_malformed_masks(self, text, triangle):
        with pytest.raises(GraphParseError):
            load_mask(text, triangle)

    def test_set_edge_rejects_bad_id(self, triangle):
        m = SubgraphMask.full(triangle)
        with pytest.raises(IndexError):
            m.set_edge(9, False)
