import functools
import importlib.util
import itertools
import math
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsubopt
import corrsubopt.cli
import corrsubopt.verification as verification
from corrsubopt import (
    ScoreState, SubgraphMask, compare_scores, compile_formula, forced_edges, random_valid_mask)
from corrsubopt.scoring import log_degree_sum, neighbourhood_discrepancy
from corrsubopt.solvers import sample_states
from corrsubopt.verification import (
    ALL_CHECKS,
    Inconclusive,
    find_low_discrepancy_mask,
    infeasible_score_bound,
    max_sampled_score,
    run_checks,
    witness_score_bound,
)

import helpers


def _leaves(graph):
    """The degree-1 vertices of an explicit graph."""
    return tuple(vid for vid, d in enumerate(graph.degrees) if d == 1)


class TestExactQuantities:
    def test_full_graph_attachment_discrepancies(self, sat3):
        inst = compile_formula(sat3, 2)
        full = SubgraphMask.full(inst.core)
        g = inst.core
        # zp keeps z plus 3t^2 leaves: deviation 3t/(3t^2+1) squared
        assert neighbourhood_discrepancy(g, full, helpers.role(inst, "zp_1")) == Fraction(36, 169)
        # ap keeps a plus t^2 leaves: deviation t/(t^2+1) squared
        assert neighbourhood_discrepancy(g, full, helpers.role(inst, "ap_1")) == Fraction(4, 25)

    def test_attachment_bound_tightens_with_t(self, sat3):
        inst = compile_formula(sat3, 4)
        full = SubgraphMask.full(inst.core)
        nd = neighbourhood_discrepancy(inst.core, full, helpers.role(inst, "zp_1"))
        assert nd == Fraction(144, 2401)
        assert nd < Fraction(1, 16)

    def test_leaf_total_is_6nt_on_full_graph(self, sat3, unsat4):
        # The explicit graph's leaves, one by one, against the core's
        # closed-form share, which check 1 reads.
        for formula, t in ((sat3, 2), (unsat4, 3)):
            inst = compile_formula(formula, t)
            g, core = inst.graph, inst.core
            full = SubgraphMask.full(g)
            total = sum(neighbourhood_discrepancy(g, full, leaf) for leaf in _leaves(g))
            assert total == 6 * formula.variable_count * t
            assert Fraction(core.leaf_numerator, core.discrepancy_scale[0]) == total

    @pytest.mark.parametrize("name, t", [("sat3", 2), ("unsat4", 3), ("unsat4", 4)])
    def test_leaf_total_matches_per_leaf_sum(self, request, name, t):
        inst = compile_formula(request.getfixturevalue(name), t)
        g = inst.graph
        rng = random.Random(f"leaf-total:{name}:{t}")
        for _ in range(5):
            mask = random_valid_mask(g, rng)
            expected = Fraction(0)
            leaves = _leaves(g)
            for leaf in leaves:
                (nbr, eid), = g.incidence[leaf]
                assert mask.kept[eid]
                expected += (g.weights[leaf] - g.weights[nbr]) ** 2
            denominator, _ = g.discrepancy_scale
            assert Fraction(ScoreState(g, mask).shares(leaves), denominator) == expected
            assert Fraction(inst.core.leaf_numerator, denominator) == expected


class TestEveryMaskBounds:
    """Checks 1 to 4 prove their bounds from per-graph facts; each random
    valid mask of a compiled cubic formula must lie inside them."""

    @given(st.integers(3, 5), st.integers(2, 5), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=25)
    def test_proofs_contain_every_mask(self, n, t, seed):
        rng = random.Random(seed)
        formula = helpers.cubic_formula(rng, n)
        ctx = verification.CheckContext(compile_formula(formula, t), search_budget=None,
                                        lemma_samples=0, assignment=None)
        # The random masks are drawn on the explicit graph, the reference.
        inst, g = ctx.inst, ctx.inst.graph
        ids = inst.explicit_ids
        zp = ids[helpers.role(inst, "zp_1")]
        attachments = [ids[vtx] for vtx in inst.attachment_vertices]
        outcomes = [verification.CHECKS[c](ctx) for c in ("1", "2", "3", "4")]
        assert [o.status for o in outcomes] == ["pass"] * 4
        attachment = dict(outcomes[1].quantities)
        max_nd = Fraction(attachment["max_nd"])
        # Checks 3 and 4 print the least log-degree sum, at degrees max(1,
        # forced degree), and the host's.  The least sum has the closed form
        # n(6 ln t + 3 ln 3): 3t, 3t and 3t^2 leaves at u, z and zp, t^2 at
        # ap, one at each w.
        core = inst.core
        least = log_degree_sum(core, [max(1, k) for k in core.forced_degrees()])
        host = log_degree_sum(core, core.degrees)
        assert dict(outcomes[2].quantities)["min_sum"] == f"{least:.9f}"
        assert dict(outcomes[3].quantities)["graph_sum"] == f"{host:.9f}"
        assert math.isclose(least, n * (6 * math.log(t) + 3 * math.log(3)))
        # The full mask attains the check-2 maximum, 9t^2/(3t^2+1)^2 at zp.
        assert max_nd == Fraction(9 * t * t, (3 * t * t + 1) ** 2)
        assert int(attachment["vertex"]) == zp
        full = SubgraphMask.full(g)
        assert neighbourhood_discrepancy(g, full, zp) == max_nd
        for mask in [full] + [random_valid_mask(g, rng) for _ in range(10)]:
            assert ScoreState(g, mask).shares(_leaves(g)) == g.leaf_numerator
            for vtx in attachments:
                assert neighbourhood_discrepancy(g, mask, vtx) <= max_nd
            mask_sum = log_degree_sum(g, mask.degrees)
            assert least <= mask_sum <= host

    @given(st.sampled_from(helpers.KERNEL_SHAPES), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=60)
    def test_attachment_bound_is_the_largest_local_discrepancy(self, shape, seed):
        # Check 2 with every vertex of a random graph an attachment vertex:
        # max_nd is the largest ND over each vertex's own ways to keep its
        # forced edges and some of its free ones, at the first such vertex.
        g = helpers.kernel_graph(random.Random(seed), shape)
        n = g.vertex_count
        inst = types.SimpleNamespace(core=g, t=2, attachment_vertices=tuple(range(n)),
                                     explicit_ids=range(n))
        got = dict(verification.check_attachment_bounds(
            types.SimpleNamespace(inst=inst)).quantities)
        local = []
        forced_ids = forced_edges(g)
        for x in range(n):
            forced = [y for y, eid in g.incidence[x] if eid in forced_ids]
            free = [y for y, eid in g.incidence[x] if eid not in forced_ids]
            kept_sets = [forced + list(kept) for j in range(len(free) + 1)
                         for kept in itertools.combinations(free, j)]
            local.append(max((g.weights[x] - sum(g.weights[y] for y in nbrs) / len(nbrs)) ** 2
                             for nbrs in kept_sets if nbrs))
        worst = max(local)
        assert Fraction(got["max_nd"]) == worst
        assert int(got["vertex"]) == local.index(worst)


class TestInfeasibilitySearch:
    def test_unsatisfiable_exhausts_without_hit(self, unsat4):
        inst = compile_formula(unsat4, 2)
        mask, nodes = find_low_discrepancy_mask(inst)
        assert mask is None
        assert nodes > 0

    def test_satisfiable_finds_counterexample(self, sat3):
        inst = compile_formula(sat3, 2)
        mask, _ = find_low_discrepancy_mask(inst)
        assert mask is not None
        threshold = Fraction(inst.t**2, 9)
        for vtx in inst.designated_vertices:
            assert neighbourhood_discrepancy(inst.core, mask, vtx) < threshold

    def test_prisms_yield_a_counterexample_exactly_when_satisfiable(self):
        """Check 6 at t = 2 against the prisms' closed form, far past the
        oracle's 20-variable cap."""
        for m in range(4, 61, 2):
            mask, _ = find_low_discrepancy_mask(compile_formula(helpers.prism_formula(m), 2))
            assert (mask is not None) == bool(helpers.prism_assignments(m)), m

    # Exact outputs of the check-6 search.  Any change to the edge order,
    # the pruning test or the node count shows up here; the ids name the
    # input only, so such a change edits a pin without renaming the test.
    @pytest.mark.parametrize(
        "name, t, nodes, dropped",
        [
            pytest.param("unsat4", 2, 224, None, id="unsat4-t2"),
            pytest.param("unsat4", 3, 776, None, id="unsat4-t3"),
            pytest.param("unsat4", 4, 1_560, None, id="unsat4-t4"),
            pytest.param("unsat6", 2, 304, None, id="unsat6-t2"),
            pytest.param("unsat6", 3, 1_360, None, id="unsat6-t3"),
            pytest.param("sat3", 2, 51,
                         (8, 9, 10, 11, 31, 33, 35, 44, 45, 46, 47, 67, 69, 71, 79),
                         id="sat3-t2"),
            pytest.param("sat3", 4, 53,
                         (14, 15, 16, 79, 81, 83, 98, 99, 100, 163, 165, 167, 181),
                         id="sat3-t4"),
        ],
    )
    def test_golden_outputs(self, request, name, t, nodes, dropped):
        inst = compile_formula(request.getfixturevalue(name), t)
        mask, got_nodes = find_low_discrepancy_mask(inst)
        assert got_nodes == nodes
        if dropped is None:
            assert mask is None
        else:  # explicit edge ids
            kept = inst.explicit_mask(mask).kept
            assert tuple(e for e, keep in enumerate(kept) if not keep) == dropped

    def test_budget_raises_instead_of_passing(self, unsat4):
        inst = compile_formula(unsat4, 2)
        with pytest.raises(Inconclusive):
            find_low_discrepancy_mask(inst, node_budget=3)

    def test_negative_budget_rejected(self, sat3):
        # An input error, not an exhausted search: run_checks refuses it too.
        inst = compile_formula(sat3, 2)
        with pytest.raises(ValueError, match="node_budget must be non-negative"):
            find_low_discrepancy_mask(inst, node_budget=-5)
        with pytest.raises(Inconclusive):  # a zero budget is a budget
            find_low_discrepancy_mask(inst, node_budget=0)


# (n, t) pairs whose finalised-only search stays under about 0.1 s; at n = 7,
# t = 4 it takes over a million nodes.
_SEARCH_SIZES = [(n, t) for n in range(3, 8) for t in (2, 3, 4) if n < 7 or t < 4]


# Thresholds of the look-ahead test: small, the scale of the past-the-cap CI
# runs, and one where t^2 and D are far beyond a float's exact integers.
_LOOKAHEAD_T = (2, 3, 10, 600, 174_700_000_000)


class TestCheck6CompletionBound:
    """The check-6 look-ahead, ``CompletionBound`` under weights 9 c[d]^2
    against (L t m)^2, against brute force over each designated vertex's
    own undecided edges, at random partial decisions along
    ``gadget_edge_order`` of compiled random cubic formulas: wherever some
    completion keeps the vertex below t^2/9 the test accepts, and on a
    finalised vertex it is the exact threshold test.  The search's own test
    is the rule that some final degree passes (``helpers.any_degree_below``)."""

    @given(st.integers(3, 7), st.integers(2, 4), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=80)
    def test_accepts_every_completion_below_threshold(self, n, t, seed):
        rng = random.Random(seed)
        inst = compile_formula(helpers.cubic_formula(rng, n), t)
        # Brute force on the explicit graph, at each core vertex's explicit id.
        g, ids, free = inst.graph, inst.explicit_ids, inst.graph.free_edge_ids
        order = inst.gadget_edge_order
        depth = rng.randint(0, len(order))
        decided = {free[eid]: rng.random() < 0.5 for eid in order[:depth]}
        undecided = {free[eid] for eid in order[depth:]}
        scale, weights = g.scaled_weights
        bound, limit = helpers.low_discrepancy_bound(inst.core, order, t)
        for x in inst.designated_vertices:
            k = s = 0
            open_nbrs = []
            for y, eid in g.incidence[ids[x]]:
                if eid in undecided:
                    open_nbrs.append(weights[y])
                elif decided.get(eid, True):  # an edge outside the order is forced
                    k += 1
                    s += weights[y]
            u = len(open_nbrs)
            assert u <= 5
            if k + u == 0:
                continue
            reachable = any(
                9 * (weights[ids[x]] * (k + j) - s - sum(kept)) ** 2 < (scale * t * (k + j)) ** 2
                for j in range(u + 1) if k + j
                for kept in itertools.combinations(open_nbrs, j)
            )
            if reachable or u == 0:
                assert (bound[x, k, s, u] < limit) == reachable

    @given(st.sampled_from((*helpers.KERNEL_SHAPES, "compiled")), st.sampled_from(_LOOKAHEAD_T),
           st.integers(0, 10**6))
    @settings(deadline=None, max_examples=60)
    def test_is_the_any_degree_rule(self, shape, t, seed):
        # States (x, k, s, u) with every final degree k..k + u one that x
        # can reach, most of them with sums no search meets: sums on the
        # boundary 3 gap = L t d at one j (when 3 divides L t d), one off it
        # on either side, and random ones.
        rng = random.Random(seed)
        if shape == "compiled":
            inst = compile_formula(helpers.cubic_formula(rng, rng.randint(3, 5)), t)
            graph, order = inst.core, inst.gadget_edge_order
        else:
            graph = helpers.kernel_graph(rng, shape)
            order = list(graph.free_edge_ids)
            rng.shuffle(order)
        scale, weights = graph.scaled_weights
        forced, free = graph.forced_degrees(), graph.free_incidence
        states = []
        for _ in range(8):
            x = rng.randrange(graph.vertex_count)
            u = rng.randint(0, len(free.get(x, ())))
            k = rng.randint(forced[x], graph.degrees[x] - u)
            if k + u == 0:
                continue
            j = rng.randint(0 if k else 1, u)
            d = k + j
            lows, highs = helpers.tail_span(graph, order, x, u)
            edge = scale * t * d
            if edge % 3 == 0:  # gap = L t d / 3 above highs[j] or below lows[j]
                s = (weights[x] * d - highs[j] - edge // 3 if rng.random() < 0.5
                     else weights[x] * d - lows[j] + edge // 3)
                states += [(x, k, s + delta, u) for delta in (-1, 0, 1)]
            states.append((x, k, weights[x] * d - rng.randint(-edge, edge), u))
            states.append((x, k, rng.randint(-10**6, 10**6), u))
        for state in states:
            assert (helpers.search_admits(graph, order, t, *state)
                    == helpers.any_degree_below(graph, order, t, *state))

    @given(st.sampled_from(_SEARCH_SIZES), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_matches_finalised_only_search(self, size, seed):
        n, t = size
        inst = compile_formula(helpers.cubic_formula(random.Random(seed), n), t)
        # Same mask (same bits, or both None) as the search that cuts only on
        # finalised vertices, in at most as many nodes.
        mask, nodes = find_low_discrepancy_mask(inst, node_budget=None)
        plain, plain_nodes = helpers.plain_low_discrepancy_search(inst)
        if plain is None:
            assert mask is None
        else:
            assert mask.kept == plain.kept
            assert mask.degrees == SubgraphMask(inst.core, mask.kept).degrees
        assert nodes <= plain_nodes


class TestScoreBounds:
    def test_bound_values(self, sat3):
        inst = compile_formula(sat3, 2)
        n, t = 3, 2
        assert witness_score_bound(inst) == 6 * n * math.log(t) - n * math.log(10 * n * t)
        assert infeasible_score_bound(inst) == (
            6 * n * math.log(t) + 20 * n - n * math.log(t * t / 9)
        )

    def test_lemmas_pass_where_t_squared_over_9_overflows_a_float(self, unsat4):
        """t^2 / 9 overflows a float above t of about 4.02e154; the bound
        takes its log through log_quotient, the same float below that."""
        t = 10**150
        assert infeasible_score_bound(compile_formula(unsat4, t)) == (
            24 * math.log(t) + 80 - 4 * math.log(t * t / 9))
        # Every check but 5 (no witness exists) at t = 10^200: check 6's
        # look-ahead limit is an int, and its search the same 1,560 nodes.
        checks = ("1", "2", "3", "4", "6", "lemmas")
        records = run_checks(unsat4, 10**200, checks, lemma_samples=10)
        assert [(r.check, r.status) for r in records] == [(c, "pass") for c in checks]
        assert dict(records[4].quantities)["nodes"] == "1560"

    def test_sampling_branch_on_compiled_instance(self, sat3):
        inst = compile_formula(sat3, 2)
        best, count = max_sampled_score(inst, samples=50, seed=1)
        # the full mask plus 50 samples
        assert count == 51
        assert best.value <= infeasible_score_bound(inst)

    def test_max_sampled_score_is_the_best_sample(self):
        """The best, by compare_scores, of the states sample_states draws from
        the same seed and multiplier; on some of these graphs a sampled mask
        beats the full one, so the full mask alone does not pass."""
        wins = 0
        for seed in range(40):
            graph = helpers.kernel_graph(random.Random(seed), "core")
            # max_sampled_score reads only the core and the variable count
            inst = types.SimpleNamespace(core=graph, variable_count=3)
            states = sample_states(graph, random.Random(seed), 50, multiplier=3)
            values = [state.score() for state in states]
            best = max(values, key=functools.cmp_to_key(compare_scores))
            assert max_sampled_score(inst, samples=50, seed=seed) == (best, 51)
            wins += compare_scores(best, values[0]) > 0
        assert wins

    def test_negative_samples_rejected(self, sat3):
        inst = compile_formula(sat3, 2)
        with pytest.raises(ValueError, match="samples must be non-negative"):
            max_sampled_score(inst, samples=-3)
        assert max_sampled_score(inst, samples=0)[1] == 1  # the full mask alone


class TestRunChecks:
    def test_all_pass_on_satisfiable(self, sat3):
        records = run_checks(sat3, 2, lemma_samples=100)
        assert [r.check for r in records] == list(ALL_CHECKS)
        assert all(r.status == "pass" for r in records)

    def test_all_pass_on_unsatisfiable(self, unsat4):
        records = run_checks(unsat4, 2, lemma_samples=100)
        by = {r.check: r for r in records}
        assert by["6"].status == "pass"
        assert "exhaustive" in by["6"].details
        assert by["5"].status == "inconclusive"
        assert by["lemmas"].status == "pass"
        for c in ("1", "2", "3", "4"):
            assert by[c].status == "pass"

    def test_unsatisfiable_with_three_dividing_n(self, unsat6):
        # No shortcut of the counting rule: the oracle and check 6 decide.
        records = run_checks(unsat6, 2, lemma_samples=100)
        by = {r.check: r.status for r in records}
        assert by == {"1": "pass", "2": "pass", "3": "pass", "4": "pass",
                      "5": "inconclusive", "6": "pass", "lemmas": "pass"}

    def test_negative_control_reported(self, sat3):
        records = run_checks(sat3, 2, checks=("6",))
        assert records[0].status == "pass"
        assert "negative control" in records[0].details

    def test_tiny_budget_goes_inconclusive(self, unsat4):
        records = run_checks(unsat4, 2, checks=("6",), search_budget=3)
        assert records[0].status == "inconclusive"

    def test_bad_assignment_fails_witness_check(self, sat3):
        records = run_checks(sat3, 2, checks=("5", "lemmas"),
                             assignment=(True, True, False))
        assert all(r.status == "fail" for r in records)

    def test_wrong_length_assignment_fails_witness_checks(self, sat3):
        records = run_checks(sat3, 2, checks=("5", "lemmas"), assignment=(True,))
        assert [r.status for r in records] == ["fail", "fail"]
        for record in records:
            assert record.quantities == (("assignment", "T"),)
            assert record.details == "assignment length 1 != 3 variables"

    def test_negative_sample_count_rejected(self, sat3):
        with pytest.raises(ValueError, match="lemma_samples must be non-negative"):
            run_checks(sat3, 2, checks=("1", "lemmas"), lemma_samples=-5)

    def test_negative_search_budget_rejected(self, sat3):
        # A negative budget is an input error, not an exhausted search.
        with pytest.raises(ValueError, match="search_budget must be non-negative"):
            run_checks(sat3, 2, checks=("6",), search_budget=-5)
        (record,) = run_checks(sat3, 2, checks=("6",), search_budget=None)
        assert record.status == "pass"

    def test_empty_selection_rejected(self, sat3):
        # A run that checks nothing must not read as a pass.
        with pytest.raises(ValueError, match="no checks selected"):
            run_checks(sat3, 2, checks=())

    def test_good_assignment_restricts_witness_check(self, sat3):
        records = run_checks(sat3, 2, checks=("5",), assignment=(True, False, False))
        assert records[0].status == "pass"
        assert ("assignments_checked", "1") in records[0].quantities

    def test_oracle_runs_once_per_context(self, unsat4, monkeypatch):
        calls = []
        oracle = verification.satisfying_assignments

        def counting(formula):
            calls.append(formula)
            return oracle(formula)

        monkeypatch.setattr(verification, "satisfying_assignments", counting)
        records = run_checks(unsat4, 2, checks=("5", "6", "lemmas"), lemma_samples=2)
        assert [r.status for r in records] == ["inconclusive", "pass", "pass"]
        assert len(calls) == 1

    def test_checks_3_and_4_sum_logs_twice(self, unsat4, monkeypatch):
        calls = []
        log_sum = verification.log_degree_sum

        def counting(graph, degrees):
            calls.append(list(degrees))
            return log_sum(graph, degrees)

        monkeypatch.setattr(verification, "log_degree_sum", counting)
        records = run_checks(unsat4, 2, checks=("3", "4"))
        assert [r.status for r in records] == ["pass", "pass"]
        # Check 3 sums the least degrees a valid mask can give, check 4 the
        # host degrees.
        graph = compile_formula(unsat4, 2).core
        assert calls == [[max(1, k) for k in graph.forced_degrees()], list(graph.degrees)]

    def test_check6_consults_oracle_despite_assignment(self, sat3):
        # a non-1-in-3 assignment fails check 5, but check 6 still learns
        # from the oracle that sat3 is satisfiable: negative control
        records = run_checks(sat3, 2, checks=("5", "6"), assignment=(True, True, False))
        assert [r.status for r in records] == ["fail", "pass"]
        assert "negative control" in records[1].details

    def test_beyond_oracle_cap_each_check_inconclusive(self):
        n = 21
        formula = helpers.make_formula(
            f"{n} {n}\n" + "".join(f"{j + 1} {(j + 1) % n + 1} {(j + 2) % n + 1}\n"
                                   for j in range(n)))
        records = run_checks(formula, 2, checks=("5", "6", "lemmas"))
        for record in records:
            assert record.status == "inconclusive"
            assert "capped at 20 variables" in record.details

    @pytest.mark.parametrize("m", [24, 30, 60])
    def test_prism_witnesses_pass_past_the_oracle_cap(self, m):
        """With a closed-form assignment, checks 5 and lemmas need no oracle."""
        formula = helpers.prism_formula(m)
        for assignment in helpers.prism_assignments(m):
            records = run_checks(formula, 2, ("5", "lemmas"), assignment=assignment)
            assert [r.status for r in records] == ["pass", "pass"], records

    def test_repeated_selector_rejected(self, sat3):
        # Two records for one check would read as two passes.
        with pytest.raises(ValueError, match="repeated checks: 1$"):
            run_checks(sat3, 2, checks=("1", "2", "1"))

    def test_unknown_selector_rejected(self, sat3):
        with pytest.raises(ValueError, match="unknown checks"):
            run_checks(sat3, 2, checks=("7",))

    @pytest.mark.parametrize("checks", ["16", "lemmas", b"16"], ids=["16", "lemmas", "bytes"])
    def test_str_selection_rejected(self, sat3, checks):
        # Each item of a str or bytes would be read as a selector.
        with pytest.raises(ValueError, match="checks must be a tuple of selectors, not "
                                             f"{type(checks).__name__}$"):
            run_checks(sat3, 2, checks)

    def test_records_carry_instance_label(self, sat3):
        records = run_checks(sat3, 2, checks=("1",))
        assert records[0].instance.startswith("n=3 t=2 formula=")


def _load_bench_spans():
    """``bench/spans.py``, imported from its file: bench is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceContract:
    """The benchmark's tracer wraps the check table and ``run_checks`` by name;
    a restructured check layer must keep every traced name reachable."""

    def test_tracer_records_every_check(self, unsat4):
        tracer = _load_bench_spans().Tracer()
        tracer.install(corrsubopt)
        try:
            records = verification.run_checks(unsat4, 2, lemma_samples=2)
        finally:
            tracer.uninstall()
        calls = {name: count for name, (count, _, _) in tracer.summary().items()}
        assert calls["verification.run_checks"] == 1
        for selector in ALL_CHECKS:
            assert calls[f"verification.check_{selector}"] == 1
        assert [r.status for r in records] == ["pass"] * 4 + ["inconclusive", "pass", "pass"]
        # Only the lemmas check samples: the full mask plus lemma_samples.
        assert tracer.op_counts()[-1]["verification.masks_sampled"] == 2 + 1
        for selector, fn in verification.CHECKS.items():
            assert getattr(verification, fn.__name__) is fn



def _no_edges(inst, assignment):
    return SubgraphMask(inst.core, [False] * inst.core.edge_count)


def _full(inst, assignment):
    return SubgraphMask.full(inst.core)


class TestCheckFailures:
    """Each way checks 5, 6 and lemmas can fail, forced by replacing one of
    the functions they read: one ``fail`` record with its quantities and
    details, and ``verify`` exits 1 with that line and no traceback."""

    @pytest.mark.parametrize(
        "text, selector, name, patch, extra, quantities, details",
        [
            pytest.param(
                helpers.SAT3_TEXT, "5", "witness_mask", _no_edges, ("--assignment", "TFF"),
                (("assignment", "TFF"),), "witness mask is invalid", id="5-invalid-witness"),
            pytest.param(
                helpers.SAT3_TEXT, "5", "witness_mask", _full, ("--assignment", "TFF"),
                (("assignment", "TFF"), ("vertex", "1"), ("nd", "36/25")), "",
                id="5-nonzero-discrepancy"),
            pytest.param(
                helpers.SAT3_TEXT, "6", "find_low_discrepancy_mask",
                lambda inst, node_budget: (None, 17), (), (("nodes", "17"),),
                "satisfiable formula but the search found no counterexample; "
                "the search is unsound", id="6-satisfiable-without-counterexample"),
            pytest.param(
                helpers.UNSAT4_TEXT, "6", "find_low_discrepancy_mask",
                lambda inst, node_budget: (SubgraphMask.full(inst.core), 17), (),
                (("nodes", "17"), ("mask", "1" * 40)),
                "found a valid mask with all designated discrepancies below the threshold",
                id="6-unsatisfiable-with-counterexample"),
            pytest.param(
                helpers.SAT3_TEXT, "lemmas", "witness_score_bound", lambda inst: 1000.0,
                ("--assignment", "TFF"),
                (("witness_bound", "1000.000000000"), ("witness_margin", "-978.966669035")),
                "witness score below its lower bound", id="lemmas-witness-below"),
            pytest.param(
                helpers.UNSAT4_TEXT, "lemmas", "infeasible_score_bound", lambda inst: -1000.0,
                ("--lemma-samples", "3"),
                (("score_upper_bound", "-1000.000000000"), ("max_observed", "38.649516670"),
                 ("masks_checked", "4")),
                "a mask exceeds the score upper bound", id="lemmas-sample-above"),
        ],
    )
    def test_fail_record_and_exit_status(self, text, selector, name, patch, extra, quantities,
                                         details, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(verification, name, patch)
        formula = helpers.make_formula(text)
        assignment = (True, False, False) if "--assignment" in extra else None
        samples = 3 if "--lemma-samples" in extra else 10_000
        records = run_checks(formula, 2, (selector,), assignment=assignment,
                             lemma_samples=samples)
        assert [(r.check, r.status, r.quantities, r.details) for r in records] == [
            (selector, "fail", quantities, details)]

        path = tmp_path / "formula.f"
        path.write_text(text)
        argv = ["verify", "-f", str(path), "-t", "2", "--checks", selector, *extra]
        assert corrsubopt.cli.main(argv) == 1
        out, err = capsys.readouterr()
        line = f"check {selector} {records[0].name}: FAIL " + " ".join(
            f"{k}={v}" for k, v in quantities) + (f" | {details}" if details else "")
        assert out.splitlines()[0] == line
        assert all(e.startswith("warning: ") for e in err.splitlines())  # n = 3 is not planar

    def test_check_6_past_the_cap_is_a_fail_record(self, monkeypatch, tmp_path, capsys):
        # At t = 600 the explicit graph is over the size cap; the failing
        # mask printed is the core's, all 10n of its edges, which are the
        # explicit graph's free edges in order (compared at t = 2).
        def pattern(inst, node_budget):
            return SubgraphMask(inst.core, [eid % 3 > 0 for eid in range(inst.core.edge_count)]), 17

        bits = "".join("0" if eid % 3 == 0 else "1" for eid in range(40))
        monkeypatch.setattr(verification, "find_low_discrepancy_mask", pattern)
        formula = helpers.make_formula(helpers.UNSAT4_TEXT)
        inst = compile_formula(formula, 2)
        explicit = inst.explicit_mask(pattern(inst, None)[0])
        assert "".join("01"[explicit.kept[eid]] for eid in inst.graph.free_edge_ids) == bits
        records = run_checks(formula, 600, ("6",))
        assert [(r.status, r.quantities) for r in records] == [
            ("fail", (("nodes", "17"), ("mask", bits)))]

        path = tmp_path / "unsat4.f"
        path.write_text(helpers.UNSAT4_TEXT)
        argv = ["verify", "-f", str(path), "-t", "600", "--checks", "6"]
        assert corrsubopt.cli.main(argv) == 1
        out, _ = capsys.readouterr()
        assert out.splitlines()[0].startswith(
            f"check 6 low-discrepancy-search: FAIL nodes=17 mask={bits} | ")
