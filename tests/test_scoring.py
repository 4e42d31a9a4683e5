import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsubopt import (
    DegenerateVertexError,
    MaskValidityError,
    ScoreState,
    ScoreValue,
    SubgraphMask,
    WeightedGraph,
    compare_scores,
    compile_formula,
    format_fraction,
    format_score,
    load_graph,
    neighbourhood_discrepancy,
    random_valid_mask,
    score,
)
from corrsubopt.scoring import gap_discrepancy

import helpers


class TestPinnedValues:
    def test_path_on_three_vertices(self, p3):
        val = score(p3, SubgraphMask.full(p3))
        assert format_score(val) == "-1.386294361120"
        assert val.discrepancy_total == 2
        assert val.log_degree_sum == math.log(2)

    def test_star(self, star):
        val = score(star, SubgraphMask.full(star))
        assert val.value == math.log(3) - 4 * math.log(6)
        assert val.discrepancy_total == 6

    def test_single_edge(self):
        g = load_graph("2 1\n0 0\n1 1\n0 1\n")
        val = score(g, SubgraphMask.full(g))
        # both endpoints have degree 1 and discrepancy 1, so S = 2
        assert val.discrepancy_total == 2
        assert val.value == -2 * math.log(2.0)

    def test_triangle_full_mask(self, triangle):
        val = score(triangle, SubgraphMask.full(triangle))
        assert val.discrepancy_total == 300

    def test_triangle_paths(self, triangle):
        best = score(triangle, SubgraphMask.from_kept_ids(triangle, [0, 2]))
        tied = score(triangle, SubgraphMask.from_kept_ids(triangle, [0, 1]))
        worst = score(triangle, SubgraphMask.from_kept_ids(triangle, [1, 2]))
        assert best.discrepancy_total == 150
        assert tied.discrepancy_total == 150
        assert worst.discrepancy_total == 400
        assert best.value == math.log(2) - 3 * math.log(150.0)
        assert compare_scores(best, tied) == 0

    @pytest.mark.parametrize("middle, exponent", [
        pytest.param("1" + "0" * 400, 800, id="10^400"),
        pytest.param("1/1" + "0" * 400, -800, id="10^-400"),
    ])
    def test_path_beyond_the_float_range(self, middle, exponent):
        # S = 4 * 10^exponent overflows or underflows a float; ln S does not.
        g = load_graph(f"3 2\n0 0\n1 {middle}\n2 0\n0 1\n1 2\n")
        val = score(g, SubgraphMask.full(g))
        assert val.discrepancy_total == 4 * Fraction(10) ** exponent
        expected = math.log(2) - 3 * (math.log(4) + exponent * math.log(10))
        assert val.value == pytest.approx(expected, rel=0, abs=1e-9)

    def test_constant_weights_score_infinite(self):
        g = load_graph("3 3\n0 5\n1 5\n2 5\n0 1\n0 2\n1 2\n")
        val = score(g, SubgraphMask.full(g))
        assert val.value is None
        assert format_score(val) == "+inf"
        assert val.discrepancy_total == 0
        assert val.log_degree_sum == pytest.approx(3 * math.log(2))


class TestFormatting:
    def test_format_fraction_always_shows_denominator(self):
        assert format_fraction(Fraction(2)) == "2/1"
        assert format_fraction(Fraction(-3, 7)) == "-3/7"

    def test_format_score_twelve_places(self):
        assert format_score(ScoreValue(1.5, 0.0, Fraction(1))) == "1.500000000000"

    def test_score_value_repr_and_read_only_fields(self):
        val = ScoreValue(None, 0.5, Fraction(0))
        assert repr(val) == ("ScoreValue(value=None, log_degree_sum=0.5, "
                             "discrepancy_total=Fraction(0, 1))")
        with pytest.raises(AttributeError):
            val.value = 1.0
        assert val == ScoreValue(None, 0.5, Fraction(0))
        assert hash(val) == hash(ScoreValue(None, 0.5, Fraction(0)))


class TestCompare:
    def test_infinite_beats_finite(self):
        inf = ScoreValue(None, 1.0, Fraction(0))
        fin = ScoreValue(99.0, 5.0, Fraction(1))
        assert compare_scores(inf, fin) > 0
        assert compare_scores(fin, inf) < 0

    def test_two_infinities_ranked_by_log_degree_sum(self):
        a = ScoreValue(None, 2.0, Fraction(0))
        b = ScoreValue(None, 1.0, Fraction(0))
        assert compare_scores(a, b) > 0
        assert compare_scores(a, ScoreValue(None, 2.0, Fraction(0))) == 0

    def test_equal_log_degrees_fall_back_to_exact_totals(self):
        # identical floats but different exact S: smaller S wins
        a = ScoreValue(-1.0, 1.0, Fraction(150))
        b = ScoreValue(-1.0, 1.0, Fraction(151))
        assert compare_scores(a, b) > 0

    def test_value_comparison_otherwise(self):
        a = ScoreValue(2.0, 1.0, Fraction(5))
        b = ScoreValue(1.0, 3.0, Fraction(2))
        assert compare_scores(a, b) > 0


class TestDiscrepancy:
    def test_p3_values(self, p3):
        full = SubgraphMask.full(p3)
        assert neighbourhood_discrepancy(p3, full, 0) == 1
        assert neighbourhood_discrepancy(p3, full, 1) == 0
        assert neighbourhood_discrepancy(p3, full, 2) == 1

    def test_degree_zero_raises(self, triangle):
        m = SubgraphMask.from_kept_ids(triangle, [2])
        with pytest.raises(DegenerateVertexError):
            neighbourhood_discrepancy(triangle, m, 0)

    @given(st.integers(-50, 50), st.integers(1, 9))
    @settings(deadline=None, max_examples=40)
    def test_shift_invariance(self, shift, seed):
        rng = random.Random(seed)
        g = helpers.random_graph(rng, max_vertices=6)
        shifted = WeightedGraph.build(
            g.vertex_count, g.edges, [w + shift for w in g.weights]
        )
        full_a = SubgraphMask.full(g)
        full_b = SubgraphMask.full(shifted)
        for v in range(g.vertex_count):
            assert neighbourhood_discrepancy(
                g, full_a, v
            ) == neighbourhood_discrepancy(shifted, full_b, v)

    @given(st.integers(2, 7), st.integers(1, 9))
    @settings(deadline=None, max_examples=40)
    def test_scaling_is_quadratic(self, factor, seed):
        rng = random.Random(seed)
        g = helpers.random_graph(rng, max_vertices=6)
        scaled = WeightedGraph.build(
            g.vertex_count, g.edges, [w * factor for w in g.weights]
        )
        full_a = SubgraphMask.full(g)
        full_b = SubgraphMask.full(scaled)
        for v in range(g.vertex_count):
            assert neighbourhood_discrepancy(
                scaled, full_b, v
            ) == factor**2 * neighbourhood_discrepancy(g, full_a, v)


class TestScore:
    def test_matches_naive_on_random_graphs(self):
        from corrsubopt import random_valid_mask

        rng = random.Random(3)
        for _ in range(25):
            g = helpers.random_graph(rng)
            masks = [SubgraphMask.full(g)]
            masks.extend(random_valid_mask(g, rng) for _ in range(6))
            for mask in masks:
                got = score(g, mask)
                is_inf, value, log_sum, total = helpers.naive_score(g, mask.kept)
                assert (got.value is None) == is_inf
                assert got.value == value
                assert got.log_degree_sum == log_sum
                assert got.discrepancy_total == total

    def test_invalid_mask_rejected(self, p3):
        m = SubgraphMask.from_kept_ids(p3, [0])
        with pytest.raises(MaskValidityError):
            score(p3, m)

    def test_multiplier_override(self, p3):
        full = SubgraphMask.full(p3)
        default = score(p3, full)
        doubled = score(p3, full, multiplier=6)
        assert doubled.value == default.log_degree_sum - 6 * math.log(2.0)


class TestMaskOwnership:
    """A ScoreState works on the mask it is given; score() leaves the
    caller's mask as it was."""

    def test_toggle_changes_the_mask_it_was_handed(self, triangle):
        mask = SubgraphMask.full(triangle)
        state = ScoreState(triangle, mask)
        state.toggle(1, False)
        assert state.mask is mask
        assert mask.kept == [True, False, True]
        assert mask.degrees == [1, 2, 1]

    def test_score_leaves_the_callers_mask(self, triangle):
        mask = SubgraphMask.full(triangle)
        score(triangle, mask)
        assert mask.kept == [True, True, True]
        assert mask.degrees == [2, 2, 2]


class TestMaskGraph:
    """A mask is scored only on the graph it was built on or an equal one."""

    @staticmethod
    def path_and_star() -> tuple[WeightedGraph, WeightedGraph]:
        weights = [0, 1, 2, 3]
        return (WeightedGraph.build(4, [(0, 1), (1, 2), (2, 3)], weights),
                WeightedGraph.build(4, [(0, 1), (0, 2), (0, 3)], weights))

    def test_mask_of_another_graph_is_refused(self):
        path, star = self.path_and_star()
        mask = SubgraphMask.full(path)
        calls = (lambda: score(star, mask), lambda: ScoreState(star, mask),
                 lambda: neighbourhood_discrepancy(star, mask, 0))
        for call in calls:
            with pytest.raises(ValueError, match="mask belongs to a different graph"):
                call()

    def test_mask_of_an_equal_graph_scores(self):
        path, _ = self.path_and_star()
        twin, _ = self.path_and_star()
        assert twin is not path and twin == path
        mask = SubgraphMask.full(twin)
        assert score(path, mask) == score(twin, mask)
        assert neighbourhood_discrepancy(path, mask, 1) == Fraction(0)


class TestScoreDelta:
    def test_remove_then_add_restores_exactly(self, triangle):
        full = SubgraphMask.full(triangle)
        base = score(triangle, full)
        state = ScoreState(triangle, full)
        assert state.toggle(1, False).discrepancy_total == 150
        back = state.toggle(1, True)
        assert back.value == base.value
        assert back.log_degree_sum == base.log_degree_sum
        assert back.discrepancy_total == base.discrepancy_total

    def test_direction_must_match_state(self, triangle):
        with pytest.raises(ValueError, match="already kept"):
            ScoreState(triangle, SubgraphMask.full(triangle)).toggle(0, True)
        dropped = SubgraphMask.from_kept_ids(triangle, [0, 1])
        with pytest.raises(ValueError, match="already dropped"):
            ScoreState(triangle, dropped).toggle(2, False)

    def test_removing_forced_edge_rejected(self, p3):
        with pytest.raises(MaskValidityError):
            ScoreState(p3, SubgraphMask.full(p3)).toggle(0, False)

    def test_peek_leaves_state_unchanged(self, triangle):
        state = ScoreState(triangle, SubgraphMask.full(triangle))
        state.toggle(1, False)
        before = state.score()
        peeked = state.peek(1, True)
        after = state.score()
        assert peeked.discrepancy_total == 300
        assert after.value == before.value
        assert after.discrepancy_total == before.discrepancy_total


def _bits(x: float | None) -> str | None:
    return None if x is None else x.hex()


def _assert_naive(got: ScoreValue, graph: WeightedGraph, kept: list[bool]) -> None:
    is_inf, value, log_sum, total = helpers.naive_score(graph, kept)
    assert (got.value is None) == is_inf
    assert _bits(got.value) == _bits(value)
    assert _bits(got.log_degree_sum) == _bits(log_sum)
    assert got.discrepancy_total == total


def _snapshot(state: ScoreState):
    return (state.score(), list(state.mask.kept), list(state.mask.degrees),
            list(state.nbr_sums), state.total)


class TestKernelDifferential:
    """ScoreState against the Fraction-exact naive oracle under random
    toggle/peek sequences: value and log-degree sum bit-equal, S equal."""

    @given(
        st.sampled_from(helpers.KERNEL_SHAPES),
        st.integers(0, 10**6),
        st.lists(st.tuples(st.booleans(), st.integers(0, 10**3)), max_size=25),
    )
    @settings(deadline=None, max_examples=150)
    def test_toggle_and_peek_match_naive(self, shape, seed, actions):
        rng = random.Random(seed)
        graph = helpers.kernel_graph(rng, shape)
        state = ScoreState(graph, random_valid_mask(graph, rng))
        _assert_naive(state.score(), graph, state.mask.kept)
        for is_peek, pick in actions:
            eid = pick % graph.edge_count
            keep = not state.mask.kept[eid]
            if not keep and not state.can_remove(eid):
                continue
            kept = list(state.mask.kept)
            kept[eid] = keep
            if is_peek:
                before = _snapshot(state)
                _assert_naive(state.peek(eid, keep), graph, kept)
                assert _snapshot(state) == before
            else:
                _assert_naive(state.toggle(eid, keep), graph, kept)
        _assert_naive(score(graph, state.mask), graph, state.mask.kept)


def _assert_delta_matches_naive(graph: WeightedGraph, rng: random.Random, toggles: int) -> None:
    """Walk ``toggles`` random legal toggles of free edges from a random
    valid mask.  Before each, (total + delta) / D must be the naive S of the
    toggled mask, and the call must leave the state as it was."""
    state = ScoreState(graph, random_valid_mask(graph, rng))
    denominator, _ = graph.discrepancy_scale
    free = graph.free_edge_ids
    for _ in range(toggles if free else 0):
        eid = rng.choice(free)
        keep = not state.mask.kept[eid]
        if not keep and not state.can_remove(eid):
            continue
        kept = list(state.mask.kept)
        kept[eid] = keep
        before = _snapshot(state)
        delta = state.delta(eid, keep)
        assert _snapshot(state) == before
        assert Fraction(state.total + delta, denominator) == helpers.naive_score(graph, kept)[3]
        state.toggle(eid, keep)
        assert state.total == before[-1] + delta


class TestDelta:
    """``ScoreState.delta`` against the Fraction-exact naive oracle on
    random and compiled graphs."""

    @given(st.sampled_from(helpers.KERNEL_SHAPES), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=100)
    def test_matches_naive_on_random_graphs(self, shape, seed):
        rng = random.Random(seed)
        _assert_delta_matches_naive(helpers.kernel_graph(rng, shape), rng, 20)

    @pytest.mark.parametrize("t", [2, 3])
    def test_matches_naive_on_compiled_graphs(self, sat3, unsat4, t):
        for formula in (sat3, unsat4):
            graph = compile_formula(formula, t).graph
            _assert_delta_matches_naive(graph, random.Random(f"delta:{t}"), 30)


class TestDiscrepancyDifferential:
    """The kernel's per-vertex ints against first principles, on every
    vertex of random valid masks: ``ScoreState.gap``'s (d, W d - s) as the
    Fraction (W d - s) / (L d) equals f(v) minus the Fraction mean of the
    kept neighbours, and its square equals neighbourhood_discrepancy;
    ``ScoreState.shares`` over D equals the Fraction sum of d * ND."""

    @given(st.sampled_from(helpers.KERNEL_SHAPES), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=150)
    def test_matches_naive_mean(self, shape, seed):
        rng = random.Random(seed)
        graph = helpers.kernel_graph(rng, shape)
        mask = random_valid_mask(graph, rng)
        state = ScoreState(graph, mask)
        scale, _ = graph.scaled_weights
        denominator, _ = graph.discrepancy_scale
        total = Fraction(0)
        for vtx in range(graph.vertex_count):
            kept = [
                graph.weights[v if u == vtx else u]
                for eid, (u, v) in enumerate(graph.edges)
                if mask.kept[eid] and vtx in (u, v)
            ]
            mean = sum(kept, Fraction(0)) / len(kept)
            d, diff = state.gap(vtx)
            assert d == len(kept)
            assert Fraction(diff, scale * d) == graph.weights[vtx] - mean
            naive = (graph.weights[vtx] - mean) ** 2
            assert Fraction(diff * diff, (scale * d) ** 2) == naive
            assert gap_discrepancy(graph, d, diff) == naive
            assert neighbourhood_discrepancy(graph, mask, vtx) == naive
            total += d * naive
        assert Fraction(state.shares(range(graph.vertex_count)), denominator) == total
