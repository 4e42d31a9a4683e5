import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrsubopt import (
    SearchSpaceError,
    SubgraphMask,
    WeightedGraph,
    compare_scores,
    compile_formula,
    forced_edges,
    is_valid,
    load_graph,
    random_valid_mask,
    score,
    solve_exact,
    solve_local,
)
from corrsubopt.solvers import CompletionBound, FreeEdgeSearch, breadth_first_order

import helpers


def _k10():
    """K10 with distinct weights: all 45 edges are free, five past the cap."""
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    return WeightedGraph.build(10, edges, list(range(10)))


def assert_matches_oracle(graph, report):
    (is_inf, value, log_sum, total), bits = helpers.brute_force_best(graph)
    assert report.best_mask.bitstring() == bits
    assert (report.best_score.value is None) == is_inf
    assert report.best_score.value == value
    assert report.best_score.log_degree_sum == log_sum
    assert report.best_score.discrepancy_total == total


class TestExact:
    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(30):
            g = helpers.random_graph(rng, max_free=10)
            report = solve_exact(g)
            assert report.optimality == "proven"
            assert is_valid(g, report.best_mask)
            assert_matches_oracle(g, report)

    def test_triangle_tie_breaks_to_lex_smallest(self, triangle):
        report = solve_exact(triangle)
        assert report.best_mask.bitstring() == "101"
        assert report.best_score.value == pytest.approx(
            math.log(2) - 3 * math.log(150.0), abs=1e-12
        )

    def test_fully_forced_graph_needs_no_search(self, star):
        report = solve_exact(star)
        assert report.nodes_explored == 0
        assert report.optimality == "proven"
        assert report.best_mask.bitstring() == "111"

    def test_constant_weights_give_infinite_optimum(self):
        g = load_graph("4 4\n0 3\n1 3\n2 3\n3 3\n0 1\n0 2\n1 3\n2 3\n")
        report = solve_exact(g)
        assert report.best_score.value is None
        # the full cycle maximises the log-degree sum among infinite scores
        assert report.best_mask.bitstring() == "1111"

    def test_cap_refusal_without_node_limit(self):
        with pytest.raises(SearchSpaceError, match="45 free edges exceed the exact-search cap"):
            solve_exact(_k10())

    def test_node_limit_lifts_cap_and_flags_heuristic(self):
        k10 = _k10()
        report = solve_exact(k10, node_limit=2)
        assert report.optimality == "heuristic"
        assert is_valid(k10, report.best_mask)

    def test_order_must_permute_the_free_edges(self, triangle, star):
        free = list(triangle.free_edge_ids)
        for order in (free[:-1], free + free[:1], free[:-1] + [3]):
            with pytest.raises(ValueError, match="permutation"):
                solve_exact(triangle, order=order)
        with pytest.raises(ValueError, match="permutation"):
            solve_exact(star, order=[0])  # a forced edge

    def test_initial_mask_is_honoured(self):
        rng = random.Random(5)
        g = helpers.random_graph(rng, max_free=8)
        best = solve_exact(g)
        warm = solve_exact(g, initial_mask=best.best_mask)
        assert warm.best_mask == best.best_mask
        assert warm.best_score.value == best.best_score.value

    def test_multiplier_threads_through(self, triangle):
        report = solve_exact(triangle, multiplier=1)
        # with C = 1 keeping all edges wins: log-degree gain dominates
        got = score(triangle, report.best_mask, multiplier=1)
        assert compare_scores(report.best_score, got) == 0
        assert report.best_mask.bitstring() == "111"

    def test_negative_multiplier_is_refused(self):
        # With C < 0 a larger S scores higher, which the bound, the
        # dominance cut and the local screen all rule out: on this graph the
        # search would report 111111 against the optimum 101111.
        graph = helpers.random_graph(random.Random(23), min_vertices=5, max_vertices=8,
                                     max_free=10)
        assert helpers.brute_force_best(graph, -3)[1] == "101111"
        for solve in (solve_exact, solve_local):
            with pytest.raises(ValueError, match="multiplier must be non-negative, got -3"):
                solve(graph, multiplier=-3)
        zero = solve_exact(graph, multiplier=0)
        assert zero.best_mask.bitstring() == helpers.brute_force_best(graph, 0)[1]


class TestRandomValidMask:
    def test_always_valid_and_keeps_forced(self):
        rng = random.Random(1)
        for _ in range(40):
            g = helpers.random_graph(rng)
            forced = forced_edges(g)
            m = random_valid_mask(g, rng)
            assert is_valid(g, m)
            assert all(m.kept[eid] for eid in forced)

    @given(st.sampled_from(helpers.KERNEL_SHAPES), st.integers(0, 10**6), st.integers(0, 99))
    @settings(deadline=None, max_examples=150)
    def test_matches_every_edge_sampler(self, shape, seed, draw_seed):
        graph = helpers.kernel_graph(random.Random(seed), shape)
        self.assert_same_draws(graph, draw_seed, 5)

    @pytest.mark.parametrize("n, t", [(3, 2), (4, 3), (6, 2)])
    def test_matches_every_edge_sampler_on_compiled_instances(self, n, t):
        inst = compile_formula(helpers.cubic_formula(random.Random(f"sampler:{n}"), n), t)
        self.assert_same_draws(inst.graph, n, 40)

    @staticmethod
    def assert_same_draws(graph, draw_seed, draws):
        """The free-edge sampler against ``helpers.plain_random_valid_mask``
        on one seed: the same kept edges and degrees at every draw, and the
        generator left in the same state."""
        fast, plain = random.Random(draw_seed), random.Random(draw_seed)
        for _ in range(draws):
            got, want = random_valid_mask(graph, fast), helpers.plain_random_valid_mask(graph, plain)
            assert got.kept == want.kept
            assert got.degrees == want.degrees
        assert fast.random() == plain.random()


class TestLocal:
    def test_never_beats_exact(self):
        rng = random.Random(77)
        for i in range(15):
            g = helpers.random_graph(rng, max_free=9)
            exact = solve_exact(g)
            local = solve_local(g, restarts=4, seed=i)
            assert compare_scores(local.best_score, exact.best_score) <= 0
            assert is_valid(g, local.best_mask)

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(9)
        g = helpers.random_graph(rng)
        a = solve_local(g, restarts=6, seed=42)
        b = solve_local(g, restarts=6, seed=42)
        assert a == b
        assert solve_exact(g) == solve_exact(g)

    def test_score_at_least_full_graph(self):
        # the first start is the full graph, so its score is a floor
        rng = random.Random(13)
        for _ in range(10):
            g = helpers.random_graph(rng)
            full = score(g, SubgraphMask.full(g))
            local = solve_local(g, restarts=0, seed=0)
            assert compare_scores(local.best_score, full) >= 0

    def test_restarts_counted(self):
        rng = random.Random(21)
        g = helpers.random_graph(rng)
        report = solve_local(g, restarts=3, seed=0)
        assert report.optimality == "heuristic"


class TestWeightsBeyondTheFloatRange:
    """Scaling every weight by 10^k scales S by 10^(2k) and leaves the
    log-degree sums alone, so both solvers find the same mask and the score
    moves by -2Ck ln 10.  At k = +-300 every S * D / D quotient overflows
    or rounds to 0.0, so ln S comes from ``scoring.log_quotient``."""

    @pytest.mark.parametrize("k", [300, -300])
    def test_same_masks_shifted_scores(self, k):
        rng = random.Random(f"scaled:{k}")
        factor = Fraction(10) ** k
        for i in range(120):
            graph = helpers.random_graph(rng, max_free=9)
            scaled = WeightedGraph.build(graph.vertex_count, graph.edges,
                                         [w * factor for w in graph.weights])
            shift = -2 * graph.vertex_count * k * math.log(10)
            for solve in (solve_exact, lambda g: solve_local(g, restarts=4, seed=i)):
                base, big = solve(graph), solve(scaled)
                assert big.best_mask.kept == base.best_mask.kept
                assert big.best_score.discrepancy_total == (
                    base.best_score.discrepancy_total * factor ** 2)
                if base.best_score.value is None:
                    assert big.best_score.value is None
                else:
                    assert big.best_score.value == pytest.approx(
                        base.best_score.value + shift, rel=0, abs=1e-8)

    def test_mixed_magnitudes_match_enumeration(self):
        """Weights near 1 beside weights near 10^400: S and the ratio of two
        nodes' totals leave the float range within one search, and the
        exact search still returns the enumeration's best mask."""
        rng = random.Random("mixed")
        huge = Fraction(10) ** 400
        pool = (0, 1, 2, 3, huge, -huge, huge + 1)
        for i in range(40):
            n = rng.randint(4, 7)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            edges.update(tuple(sorted(rng.sample(range(n), 2))) for _ in range(n))
            graph = WeightedGraph.build(n, edges, [rng.choice(pool) for _ in range(n)])
            best, best_bits = None, None
            for kept in helpers.enumerate_valid_bitlists(graph):
                mask = SubgraphMask(graph, kept)
                cand = score(graph, mask)
                if best is None or compare_scores(cand, best) > 0 or (
                        compare_scores(cand, best) == 0 and mask.bitstring() < best_bits):
                    best, best_bits = cand, mask.bitstring()
            report = solve_exact(graph)
            assert report.best_mask.bitstring() == best_bits
            assert report.best_score == best
            local = solve_local(graph, restarts=2, seed=i)
            assert compare_scores(local.best_score, report.best_score) <= 0


def _bits(x: float | None) -> str | None:
    return None if x is None else x.hex()


class TestExactDifferential:
    """solve_exact, whose nodes carry S * D as an int, against the
    Fraction-exact enumeration oracle: same mask, value and log-degree sum
    bit-equal, S equal."""

    @given(
        st.sampled_from(helpers.KERNEL_SHAPES),
        st.integers(0, 10**6),
        st.one_of(st.none(), st.integers(1, 40)),
    )
    @settings(deadline=None, max_examples=80)
    def test_matches_brute_force(self, shape, seed, multiplier):
        graph = helpers.kernel_graph(random.Random(seed), shape, max_core=5)
        self.assert_matches(graph, solve_exact(graph, multiplier=multiplier), multiplier)

    @given(
        st.sampled_from(helpers.KERNEL_SHAPES),
        st.integers(0, 10**6),
        st.one_of(st.none(), st.integers(0, 40)),
        st.integers(0, 99),
    )
    @settings(deadline=None, max_examples=80)
    def test_matches_brute_force_in_any_order(self, shape, seed, multiplier, order_seed):
        graph = helpers.kernel_graph(random.Random(seed), shape, max_core=5)
        order = list(graph.free_edge_ids)
        random.Random(order_seed).shuffle(order)
        report = solve_exact(graph, multiplier=multiplier, order=order)
        self.assert_matches(graph, report, multiplier)

    @staticmethod
    def assert_matches(graph, report, multiplier):
        (is_inf, value, log_sum, total), bits = helpers.brute_force_best(graph, multiplier)
        assert report.best_mask.bitstring() == bits
        assert (report.best_score.value is None) == is_inf
        assert _bits(report.best_score.value) == _bits(value)
        assert _bits(report.best_score.log_degree_sum) == _bits(log_sum)
        assert report.best_score.discrepancy_total == total
        # The report carries the leaf's own score, which must be the public one.
        rescored = score(graph, report.best_mask, multiplier=multiplier)
        assert report.best_score == rescored
        assert _bits(report.best_score.value) == _bits(rescored.value)
        assert _bits(report.best_score.log_degree_sum) == _bits(rescored.log_degree_sum)


class TestGrids:
    """Planar grids, with and without a diagonal per cell: no leaves, so
    every edge is free, and many equal-degree vertices."""

    @pytest.mark.parametrize("rows, cols, diagonals", [
        (2, 3, False), (2, 4, False), (3, 3, False), (2, 5, False), (2, 3, True), (2, 4, True),
    ])
    def test_exact_matches_brute_force_in_both_orders(self, rows, cols, diagonals):
        graph = helpers.grid_graph(random.Random(10 * rows + cols + 100 * diagonals), rows, cols,
                                   diagonals=diagonals)
        assert len(graph.free_edge_ids) == graph.edge_count
        (is_inf, value, _, total), bits = helpers.brute_force_best(graph)
        for order in (None, breadth_first_order(graph)):
            report = solve_exact(graph, order=order)
            assert report.optimality == "proven"
            assert report.best_mask.bitstring() == bits
            assert (report.best_score.value is None) == is_inf
            assert _bits(report.best_score.value) == _bits(value)
            assert report.best_score.discrepancy_total == total


class TestDominanceDifferential:
    """solve_exact, which also cuts nodes dominated on their frontier key,
    against the search that cuts on the completion bound alone
    (``helpers.plain_branch_and_bound``): the same mask, value, log-degree
    sum and S, bit for bit, both proven, and no more nodes."""

    @pytest.mark.parametrize("order_of", [
        pytest.param(lambda inst: inst.gadget_edge_order, id="gadget"),
        pytest.param(lambda inst: breadth_first_order(inst.core), id="breadth-first"),
    ])
    # Fixed draws: the plain search's n = 5 proofs in the gadget order take
    # tens of thousands of nodes, so fresh draws swung this test's time
    # several-fold between runs of the same tree.
    @given(st.integers(3, 5), st.integers(2, 4), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=5, derandomize=True)
    def test_matches_plain_search_on_compiled_formulas(self, order_of, n, t, seed):
        inst = compile_formula(helpers.cubic_formula(random.Random(seed), n), t)
        # A local-search warm start, as decide uses, keeps the n = 5 proofs
        # (50 free edges) short in either order.
        warm = solve_local(inst.core, restarts=2, seed=seed, multiplier=n).best_mask
        self.assert_matches(inst.core, order_of(inst), n, warm)

    @given(
        st.sampled_from(helpers.KERNEL_SHAPES),
        st.integers(0, 10**6),
        st.sampled_from(("mixed", "equal", "two")),
        st.one_of(st.none(), st.integers(0, 40)),
        st.integers(0, 99),
    )
    @settings(deadline=None, max_examples=150)
    def test_matches_plain_search_in_any_order(self, shape, seed, weights, multiplier,
                                               order_seed):
        graph = helpers.kernel_graph(random.Random(seed), shape)
        n = graph.vertex_count
        if weights == "equal":  # every S = 0: scores tie on the log-degree sum
            graph = WeightedGraph.build(n, graph.edges, [graph.weights[0]] * n)
        elif weights == "two":
            graph = WeightedGraph.build(n, graph.edges, [graph.weights[v % 2] for v in range(n)])
        order = list(graph.free_edge_ids)
        random.Random(order_seed).shuffle(order)
        self.assert_matches(graph, order, multiplier, None)

    def test_cut_fires_on_a_compiled_formula(self, sat3):
        inst = compile_formula(sat3, 2)
        report, plain_nodes = self.assert_matches(inst.core, inst.gadget_edge_order, 3, None)
        assert report.nodes_explored < plain_nodes
        for limit, optimality in ((report.nodes_explored, "proven"),
                                  (report.nodes_explored - 1, "heuristic")):
            run = solve_exact(inst.core, order=inst.gadget_edge_order, multiplier=3,
                              node_limit=limit)
            assert run.optimality == optimality

    def test_key_holds_the_neighbour_sums(self):
        # Nodes here meet whose frontier vertices have the same kept degrees
        # but different neighbour sums; cutting one for another loses the
        # optimum.
        graph = WeightedGraph.build(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)],
                                    [-1, 1, Fraction(7, 3), 5, 1])
        self.assert_matches(graph, [0, 2, 1, 3, 4, 5], 59, None)

    # Integer weights keep D small, so one unit of S * D moves the answer:
    # on A a dominance cut one unit too loose ends at 10101 (S = 3/2), and on
    # B and C a ratio cut loosened by 1e-3 ends at 1111111 (the same float,
    # lexicographically larger) and at 11101 (one ulp lower).
    @pytest.mark.parametrize("n, edges, weights, order, multiplier, best", [
        pytest.param(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)], [1, 1, 1, 2],
                     [0, 2, 4, 3, 1], 40, "10110", id="A"),
        pytest.param(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4)],
                     [0, 0, 2, 0, 1, 0], [5, 3, 4, 0, 6, 1], 1, "1011101", id="B"),
        pytest.param(6, [(0, 1), (0, 3), (0, 5), (1, 2), (2, 4)], [2, 2, 0, 2, 0, 1],
                     [3, 0], 1, "11101", id="C"),
    ])
    def test_cuts_by_one_unit_of_the_scaled_total(self, n, edges, weights, order,
                                                   multiplier, best):
        graph = WeightedGraph.build(n, edges, weights)
        report, _ = self.assert_matches(graph, order, multiplier, None)
        assert report.best_mask.bitstring() == best

    @staticmethod
    def assert_matches(graph, order, multiplier, initial_mask):
        mask, value, nodes = helpers.plain_branch_and_bound(
            graph, order, multiplier=multiplier, initial_mask=initial_mask)
        # The plain search's node count as the limit lifts the free-edge cap
        # (an n = 5 formula has 50 free edges) and keeps "proven" a proof.
        report = solve_exact(graph, order=order, multiplier=multiplier,
                             initial_mask=initial_mask, node_limit=nodes)
        assert report.best_mask.bitstring() == mask.bitstring()
        assert _bits(report.best_score.value) == _bits(value.value)
        assert _bits(report.best_score.log_degree_sum) == _bits(value.log_degree_sum)
        assert report.best_score.discrepancy_total == value.discrepancy_total
        assert report.optimality == "proven"
        assert report.nodes_explored <= nodes
        return report, nodes


class TestBreadthFirstOrder:
    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=40)
    def test_is_a_fixed_permutation_of_the_free_edges(self, seed):
        graph = helpers.random_graph(random.Random(seed), max_vertices=10, max_free=20)
        order = breadth_first_order(graph)
        assert sorted(order) == list(graph.free_edge_ids)
        assert breadth_first_order(graph) == order

    def test_restarts_at_the_lowest_unreached_vertex(self):
        # Two components: the 4-cycle 0-2-7-5 and the triangle 1-3-6 with
        # the leaf 4 on 3.  Edge ids follow the sorted edges:
        # 0 (0,2), 1 (0,5), 2 (1,3), 3 (1,6), 4 (2,7), 5 (3,4), 6 (3,6),
        # 7 (5,7); edge 5 is forced.
        edges = [(0, 2), (0, 5), (1, 3), (1, 6), (2, 7), (3, 4), (3, 6), (5, 7)]
        graph = WeightedGraph.build(8, edges, [0, 1, 2, 3, Fraction(1, 2), -1, 5, 2])
        # From 0: its edges 0 and 1, then 2's edge 4, then 5's edge 7 (7 was
        # already reached).  Then from 1: its edges 2 and 3, then 3's edge 6.
        order = breadth_first_order(graph)
        assert order == (0, 1, 4, 7, 2, 3, 6)
        report = solve_exact(graph, order=order)
        default = solve_exact(graph)
        assert report.optimality == default.optimality == "proven"
        assert report.best_mask.bitstring() == default.best_mask.bitstring()
        assert report.best_score == default.best_score


class TestScoreAwareDominance:
    """Pinned cases of the dominance cut on the ratio of two same-key nodes'
    totals (see ``solve_exact``), against the search without dominance."""

    def test_fires_where_the_plain_comparison_does_not(self):
        # On this 4-cycle no entered node is matched or beaten on both its
        # total and its log sum by an earlier one with its key, so that test
        # alone explores the plain search's 16 nodes.  An earlier node with a
        # larger total but a log sum larger by more than C ln of the totals'
        # ratio cuts two of them.
        graph = WeightedGraph.build(4, [(0, 1), (0, 3), (1, 2), (2, 3)], [1, -2, 1, 3])
        report, plain_nodes = TestDominanceDifferential.assert_matches(
            graph, [0, 1, 2, 3], None, None)
        assert (report.nodes_explored, plain_nodes) == (14, 16)
        assert report.best_mask.bitstring() == "1111"

    def test_holds_off_at_a_zero_total(self):
        # Dropping the middle edge of this path leaves two K2s of equal
        # weights: S = 0, an infinite score.  The node that keeps it has a
        # positive total and a larger log sum, but no ratio of the totals
        # bounds the other node's completions.
        graph = WeightedGraph.build(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1])
        report, _ = TestDominanceDifferential.assert_matches(graph, [1], None, None)
        assert report.best_mask.bitstring() == "101"
        assert report.best_score.value is None


class TestCompletionBound:
    """The branch and bound's S * D bound against brute force, at random
    partial decisions of a random branching order: each open vertex's bound
    is at most its share in every completion of its undecided edges, and the
    total is at most S * D of every valid mask that agrees with the
    decisions (at the root, every valid mask)."""

    @given(
        st.sampled_from(helpers.KERNEL_SHAPES),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=150)
    def test_bounds_every_completion(self, shape, seed, draw_seed, at_root):
        graph = helpers.kernel_graph(random.Random(seed), shape, max_core=5)
        rng = random.Random(draw_seed)
        order = list(graph.free_edge_ids)
        rng.shuffle(order)
        depth = 0 if at_root else rng.randint(0, len(order))
        decided = {eid: rng.random() < 0.5 for eid in order[:depth]}
        undecided = set(order[depth:])
        _, weights = graph.scaled_weights
        denominator, cofactors = graph.discrepancy_scale
        kept_deg, und_deg = [0] * graph.vertex_count, [0] * graph.vertex_count
        nbr_sum = [0] * graph.vertex_count
        open_nbrs = [[] for _ in range(graph.vertex_count)]
        forced = forced_edges(graph)
        for eid, (a, b) in enumerate(graph.edges):
            keep = decided.get(eid, eid in forced)
            for x, y in ((a, b), (b, a)):
                if eid in undecided:
                    und_deg[x] += 1
                    open_nbrs[x].append(weights[y])
                elif keep:
                    kept_deg[x] += 1
                    nbr_sum[x] += weights[y]

        bound = CompletionBound(graph, order, graph.discrepancy_scale[1])
        for x in range(graph.vertex_count):
            k, s, u = kept_deg[x], nbr_sum[x], und_deg[x]
            if k + u == 0:
                continue
            shares = [
                (weights[x] * (k + j) - s - sum(kept)) ** 2 * cofactors[k + j]
                for j in range(u + 1) if k + j
                for kept in itertools.combinations(open_nbrs[x], j)
            ]
            assert bound[x, k, s, u] <= min(shares)
            if u == 0:
                assert bound[x, k, s, u] == shares[0]

        if 0 in (k + u for k, u in zip(kept_deg, und_deg)):
            return
        discrepancy_totals = [
            helpers.naive_score(graph, kept)[3]
            for kept in helpers.enumerate_valid_bitlists(graph)
            if all(kept[eid] == keep for eid, keep in decided.items())
        ]
        if discrepancy_totals:
            total = bound.total(kept_deg, und_deg, nbr_sum)
            assert Fraction(total, denominator) <= min(discrepancy_totals)


    @staticmethod
    def terms(graph, order, cofactors, x, k, s, u):
        """c[d] * max(above, below, 0)^2 over ``ends``, j ascending."""
        ends = CompletionBound(graph, order, cofactors).ends(x, k, s, u)
        return [cofactors[d] * max(above, below, 0) ** 2 for d, above, below in ends]

    def test_share_terms_are_convex_in_j(self):
        # The bound's minimum over j can be found by binary search only if
        # its terms are convex in j.  For c = discrepancy_scale[1] = m / d
        # they are: above and below are convex in j, so g = max(above,
        # below, 0) is convex and non-negative, and g^2 / d is convex over
        # the affine d = k + j.  Check 6's 9 c^2 gives 9 m^2 (g / d)^2,
        # which is only quasi-convex: it falls, then rises.
        rng = random.Random(5)
        states = 0
        while states < 2000:
            shape = rng.choice(helpers.KERNEL_SHAPES + ("random",))
            graph = (helpers.random_graph(rng) if shape == "random"
                     else helpers.kernel_graph(rng, shape))
            order = list(graph.free_edge_ids)
            rng.shuffle(order)
            free = graph.free_incidence
            if not free:
                continue
            x = rng.choice(list(free))
            forced = graph.forced_degrees()[x]
            u = rng.randint(0, len(free[x]))
            k = rng.randint(max(forced, u == 0), forced + len(free[x]) - u)
            largest = max(map(abs, graph.scaled_weights[1]))
            s = rng.randint(-(k + 1) * largest, (k + 1) * largest)
            cofactors = graph.discrepancy_scale[1]
            terms = self.terms(graph, order, cofactors, x, k, s, u)
            assert all(a + c >= 2 * b for a, b, c in zip(terms, terms[1:], terms[2:]))
            terms = self.terms(graph, order, {d: 9 * c * c for d, c in cofactors.items()},
                               x, k, s, u)
            least = terms.index(min(terms))
            assert terms[:least + 1] == sorted(terms[:least + 1], reverse=True)
            assert terms[least:] == sorted(terms[least:])
            states += 1

    def test_check_6_terms_need_not_be_convex(self):
        # K4 less the edge 1-3, weights 1, 0, 1, 0: vertex 0 with no edge
        # kept and all three undecided has g = d - 1 at d = 1, 2, 3, and m = 6.
        graph = WeightedGraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], [1, 0, 1, 0])
        cofactors = graph.discrepancy_scale[1]
        assert cofactors == {1: 6, 2: 3, 3: 2}
        order = graph.free_edge_ids
        assert self.terms(graph, order, cofactors, 0, 0, 0, 3) == [0, 3, 8]
        squared = {d: 9 * c * c for d, c in cofactors.items()}
        assert self.terms(graph, order, squared, 0, 0, 0, 3) == [0, 81, 144]  # 81 > 144 - 81


class TestSearchLoop:
    """``FreeEdgeSearch.run``, one loop over an explicit path, against the
    recursive search it replaced (``helpers.recursive_search``): the same
    ``child`` and ``leaf`` calls in the same order, with the same kept
    degree, undecided degree and neighbour sum at both endpoints, the same
    node count, return value and lists afterwards.  The hooks cut by their
    state alone, and ``leaf`` may stop the search at its k-th call."""

    @staticmethod
    def trace(runner, graph, order, cut, stop_at, node_limit):
        dfs = FreeEdgeSearch(graph, order)
        lists = (dfs.kept_deg, dfs.und_deg, dfs.nbr_sum)
        calls = []

        def child(state, depth, u, v, keep):
            ends = tuple(values[x] for x in (u, v) for values in lists)
            calls.append(("child", depth, u, v, keep, ends))
            return cut(dfs, state, depth, u, v, keep, ends)

        def leaf(state):
            calls.append(("leaf", state, dfs.mask().bitstring()))
            return sum(call[0] == "leaf" for call in calls) == stop_at

        finished = runner(dfs, 0, child, leaf, node_limit)
        return calls, dfs.nodes, finished, [list(values) for values in (*lists, dfs.kept)]

    def assert_same(self, graph, order, cut, stop_at):
        loop = lambda dfs, *args: dfs.run(*args)  # noqa: E731
        full = self.trace(helpers.recursive_search, graph, order, cut, stop_at, None)
        nodes = full[1]
        for limit in (None, 0, nodes // 2, max(nodes - 1, 0), nodes, nodes + 1):
            expected = self.trace(helpers.recursive_search, graph, order, cut, stop_at, limit)
            assert self.trace(loop, graph, order, cut, stop_at, limit) == expected
            if limit is not None and limit < nodes:
                assert expected[1:3] == (limit + 1, False)
            else:
                assert expected[1:3] == (nodes, True)
        return full

    @staticmethod
    def hashed(modulus):
        """Cut a child whose hash of (state, depth, keep, endpoint lists)
        falls in one residue class; modulus 0 cuts nothing."""
        def cut(dfs, state, depth, u, v, keep, ends):
            h = hash((state, depth, keep, ends))
            return None if modulus and h % modulus == 0 else h
        return cut

    @given(st.integers(0, 10**6), st.sampled_from((0, 3, 5)), st.sampled_from((None, 1, 3)),
           st.integers(0, 99))
    @settings(deadline=None, max_examples=60)
    def test_matches_recursion_on_random_graphs(self, seed, modulus, stop_at, order_seed):
        graph = helpers.random_graph(random.Random(seed), max_free=10)
        order = list(graph.free_edge_ids)
        random.Random(order_seed).shuffle(order)
        self.assert_same(graph, order, self.hashed(modulus), stop_at)

    @pytest.mark.parametrize("text, t", [
        pytest.param(helpers.SAT3_TEXT, 2, id="sat3-t2"),
        pytest.param(helpers.UNSAT4_TEXT, 2, id="unsat4-t2"),
        pytest.param(helpers.UNSAT4_TEXT, 3, id="unsat4-t3"),
    ])
    @pytest.mark.parametrize("stop_at", [None, 2])
    def test_matches_recursion_on_compiled_formulas(self, text, t, stop_at):
        # Check 6's look-ahead on every vertex keeps these trees to at most
        # a few hundred nodes.
        inst = compile_formula(helpers.make_formula(text), t)
        bound, limit = helpers.low_discrepancy_bound(inst.core, inst.gadget_edge_order, t)

        def cut(dfs, state, depth, u, v, keep, ends):
            fits = all(bound[x, dfs.kept_deg[x], dfs.nbr_sum[x], dfs.und_deg[x]] < limit
                       for x in (u, v))
            return state + 1 if fits else None

        _, nodes, _, _ = self.assert_same(inst.core, inst.gadget_edge_order, cut, stop_at)
        assert nodes > 50

    def test_no_free_edge_is_one_leaf(self, star):
        calls, nodes, finished, _ = self.trace(
            lambda dfs, *args: dfs.run(*args), star, [], self.hashed(0), None, 0)
        assert (calls, nodes, finished) == ([("leaf", 0, "111")], 0, True)

    @given(st.integers(0, 10**6), st.integers(0, 99), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=40)
    def test_key_sweeps_only_the_depths_asked(self, seed, order_seed, ask_seed):
        graph = helpers.random_graph(random.Random(seed), max_free=10)
        order = list(graph.free_edge_ids)
        random.Random(order_seed).shuffle(order)
        dfs = FreeEdgeSearch(graph, order)
        depths = list(range(len(order) + 1))
        random.Random(ask_seed).shuffle(depths)
        deepest = -1
        for depth in depths:
            before, after = order[:depth], order[depth:]
            frontier = sorted({x for eid in before for x in graph.edges[eid]}
                              & {x for eid in after for x in graph.edges[eid]})
            get = itemgetter(*frontier) if frontier else lambda values: ()
            assert dfs.key(depth) == (get(dfs.kept_deg), get(dfs.nbr_sum))
            deepest = max(deepest, depth)
            assert len(dfs._frontier_values) == deepest + 1


class TestDeepAndWideSearch:
    """A node-limited exact search works at any depth, and its set-up grows
    with the part of the tree it reaches, not with the square of the free
    edges."""

    def test_cycle_deeper_than_the_recursion_limit(self):
        n = 1500
        graph = WeightedGraph.build(n, [(v, (v + 1) % n) for v in range(n)],
                                    [v % 5 for v in range(n)])
        report = solve_exact(graph, node_limit=3000)
        assert report.optimality == "heuristic"
        assert report.nodes_explored == 3001
        assert is_valid(graph, report.best_mask)

    def test_wheel_sets_up_in_little_memory(self):
        n = 2000  # a hub and a rim path: 2n - 3 free edges, n - 1 at the hub
        edges = [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)]
        graph = WeightedGraph.build(n, edges, [v % 5 for v in range(n)])
        tracemalloc.start()
        try:
            report = solve_exact(graph, node_limit=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.optimality == "heuristic"
        assert peak < 16 * 2**20

    @given(st.sampled_from(helpers.KERNEL_SHAPES), st.integers(0, 10**6), st.integers(0, 99),
           st.integers(-10**6, 10**6))
    @settings(deadline=None, max_examples=40)
    def test_ends_are_the_sorted_tail_prefix_sums(self, shape, seed, order_seed, s):
        graph = helpers.kernel_graph(random.Random(seed), shape)
        order = list(graph.free_edge_ids)
        random.Random(order_seed).shuffle(order)
        _, weights = graph.scaled_weights
        bound = CompletionBound(graph, order, graph.discrepancy_scale[1])
        for x in range(graph.vertex_count):
            across = sum(x in graph.edges[eid] for eid in order)
            for u in range(across + 1):
                lows, highs = helpers.tail_span(graph, order, x, u)
                for k, s_x in ((0, s), (1, s), (2, -abs(s) - 1), (0, -abs(s) - 1)):
                    targets = [weights[x] * (k + j) - s_x for j in range(u + 1)]
                    assert list(bound.ends(x, k, s_x, u)) == [
                        (k + j, targets[j] - highs[j], lows[j] - targets[j])
                        for j in range(u + 1) if k + j]


class TestLocalScreen:
    """solve_local scores candidates through ``ScoreState.peek`` only where
    their float estimate could win; it must end exactly where the unscreened
    scan (``helpers.plain_local_search``) ends, on graphs whose candidates
    tie (equal weights, so every S = 0 and every score is +inf) or nearly
    tie, and under the multipliers ``decide`` passes (C = n)."""

    @given(
        st.sampled_from(helpers.KERNEL_SHAPES),
        st.integers(0, 10**6),
        st.sampled_from(("mixed", "equal", "two")),
        st.one_of(st.none(), st.integers(0, 12)),
        st.integers(0, 4),
        st.integers(0, 99),
    )
    # Cases where an estimate misorders two exact near-ties, or an S = 0
    # candidate sits among finite ones: a screen without its margin, or one
    # that ranks S = 0 candidates among finite values, changes the result.
    # In the last, two starts end on equal scores, and the tie goes to the
    # lexicographically smaller mask.
    @example("leaves", 109962, "equal", 4, 3, 44)
    @example("leaves", 198034, "equal", 12, 3, 24)
    @example("core", 347180, "equal", 9, 4, 3)
    @example("core", 622694, "two", 11, 4, 78)
    @example("core", 814756, "two", 0, 4, 13)
    @example("core", 2, "two", None, 1, 2)
    @settings(deadline=None, max_examples=200)
    def test_matches_unscreened_scan(self, shape, seed, weights, multiplier, restarts, run_seed):
        graph = helpers.kernel_graph(random.Random(seed), shape, max_core=9)
        n = graph.vertex_count
        if weights == "equal":
            graph = WeightedGraph.build(n, graph.edges, [graph.weights[0]] * n)
        elif weights == "two":  # S = 0 and S > 0 candidates meet
            graph = WeightedGraph.build(n, graph.edges, [graph.weights[v % 2] for v in range(n)])
        report = solve_local(graph, restarts=restarts, seed=run_seed, multiplier=multiplier)
        mask, value, evaluations = helpers.plain_local_search(
            graph, restarts=restarts, seed=run_seed, multiplier=multiplier)
        assert report.best_mask.bitstring() == mask.bitstring()
        assert _bits(report.best_score.value) == _bits(value.value)
        assert _bits(report.best_score.log_degree_sum) == _bits(value.log_degree_sum)
        assert report.best_score.discrepancy_total == value.discrepancy_total
        assert report.nodes_explored == evaluations


# Node counts, masks and exact totals of solve_exact on seeded random graphs.
# Any change to the branching order, the bound or its float arithmetic shows
# up here; the ids name the seed only, so a node-count edit keeps the names.
@pytest.mark.parametrize(
    "seed, nodes, bits, total",
    [
        pytest.param(0, 190, "10001111010", Fraction(221, 216), id="seed0"),
        pytest.param(1, 14, "1111101", Fraction(4690, 27), id="seed1"),
        pytest.param(2, 668, "11110010110111", Fraction(551, 4), id="seed2"),
        pytest.param(3, 244, "010001111101", Fraction(43, 8), id="seed3"),
        pytest.param(4, 296, "11010110101011", Fraction(89), id="seed4"),
    ],
)
def test_exact_golden_outputs(seed, nodes, bits, total):
    graph = helpers.random_graph(
        random.Random(f"pin:{seed}"), min_vertices=7, max_vertices=10, max_free=14
    )
    report = solve_exact(graph)
    assert report.nodes_explored == nodes
    assert report.best_mask.bitstring() == bits
    assert report.best_score.discrepancy_total == total
    assert report.optimality == "proven"


# Evaluation counts, masks and exact totals of solve_local (4 restarts) on
# seeded random graphs.  A change to the screen, its S * D arithmetic or the
# order of the scan shows up here.
@pytest.mark.parametrize(
    "seed, evaluations, bits, total",
    [
        pytest.param(0, 530, "11111011110111111100", Fraction(2897, 15), id="seed0"),
        pytest.param(1, 131, "1111111111111110", Fraction(32059, 72), id="seed1"),
        pytest.param(2, 232, "11111111111111111", Fraction(8155, 48), id="seed2"),
        pytest.param(3, 237, "1011111110110", Fraction(23723, 144), id="seed3"),
        pytest.param(4, 574, "11111111101111111001", Fraction(5963, 54), id="seed4"),
    ],
)
def test_local_golden_outputs(seed, evaluations, bits, total):
    graph = helpers.random_graph(
        random.Random(f"local:{seed}"), min_vertices=10, max_vertices=16, max_free=40
    )
    report = solve_local(graph, restarts=4, seed=seed)
    assert report.nodes_explored == evaluations
    assert report.best_mask.bitstring() == bits
    assert report.best_score.discrepancy_total == total
    assert report.optimality == "heuristic"
