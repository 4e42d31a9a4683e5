import functools
import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsubopt
import corrsubopt.cli
import corrsubopt.verification as verification
from corrsubopt import (
    ScoreState, SubgraphMask, compare_scores, compile_formula, random_valid_mask)
from corrsubopt.reduction import ReductionInstance
from corrsubopt.scoring import log_degree_sum, neighbourhood_discrepancy
from corrsubopt.solvers import sample_states
from corrsubopt.verification import (
    ALL_CHECKS,
    LowDiscrepancyLookahead,
    SearchBudgetExceeded,
    attachment_violations,
    find_low_discrepancy_mask,
    infeasible_score_bound,
    leaf_discrepancy_total,
    max_sampled_score,
    run_checks,
    witness_score_bound,
)

import helpers


class TestExactQuantities:
    def test_full_graph_attachment_discrepancies(self, sat3):
        inst = compile_formula(sat3, 2)
        full = SubgraphMask.full(inst.graph)
        g = inst.graph
        # zp keeps z plus 3t^2 leaves: deviation 3t/(3t^2+1) squared
        assert neighbourhood_discrepancy(g, full, inst.zp(1)) == Fraction(36, 169)
        # ap keeps a plus t^2 leaves: deviation t/(t^2+1) squared
        assert neighbourhood_discrepancy(g, full, inst.ap(1)) == Fraction(4, 25)

    def test_attachment_bound_tightens_with_t(self, sat3):
        inst = compile_formula(sat3, 4)
        full = SubgraphMask.full(inst.graph)
        nd = neighbourhood_discrepancy(inst.graph, full, inst.zp(1))
        assert nd == Fraction(144, 2401)
        assert nd < Fraction(1, 16)

    def test_leaf_total_is_6nt_on_full_graph(self, sat3, unsat4):
        for formula, t in ((sat3, 2), (unsat4, 3)):
            inst = compile_formula(formula, t)
            full = ScoreState(inst.graph, SubgraphMask.full(inst.graph))
            total = leaf_discrepancy_total(inst, full)
            assert total == 6 * formula.variable_count * t

    @pytest.mark.parametrize("name, t", [("sat3", 2), ("unsat4", 3), ("unsat4", 4)])
    def test_leaf_total_matches_per_leaf_sum(self, request, name, t):
        inst = compile_formula(request.getfixturevalue(name), t)
        g = inst.graph
        rng = random.Random(f"leaf-total:{name}:{t}")
        for _ in range(5):
            mask = random_valid_mask(g, rng)
            expected = Fraction(0)
            for leaf in inst.leaves:
                (nbr, eid), = g.incidence[leaf]
                assert mask.kept[eid]
                expected += (g.weights[leaf] - g.weights[nbr]) ** 2
            assert leaf_discrepancy_total(inst, ScoreState(g, mask)) == expected

    def test_attachment_violations_empty_on_full_graph(self, unsat4):
        inst = compile_formula(unsat4, 2)
        full = ScoreState(inst.graph, SubgraphMask.full(inst.graph))
        assert attachment_violations(inst, full) == []

    def test_attachment_violation_reports_exact_discrepancy(self, sat3):
        # The t = 2 graph held to the t = 3 bound 1/9: on the full mask
        # ND(zp_1) = 36/169 (see test_full_graph_attachment_discrepancies).
        inst = compile_formula(sat3, 2)
        loose = ReductionInstance(inst.graph, 3, inst.variable_count, inst.roles, inst.blocks,
                                  inst.clause_blocks, inst.slots)
        full = ScoreState(inst.graph, SubgraphMask.full(inst.graph))
        assert attachment_violations(inst, full) == []
        assert (inst.zp(1), Fraction(36, 169)) in attachment_violations(loose, full)


class TestEveryMaskBounds:
    """Checks 1 to 4 prove their bounds from per-graph facts; each random
    valid mask of a compiled cubic formula must lie inside them."""

    @given(st.integers(3, 5), st.integers(2, 5), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=25)
    def test_proofs_contain_every_mask(self, n, t, seed):
        rng = random.Random(seed)
        formula = helpers.cubic_formula(rng, n)
        ctx = verification.CheckContext(formula, t, seed=0, search_budget=None,
                                        lemma_samples=0, assignment=None)
        inst, g = ctx.inst, ctx.inst.graph
        outcomes = [verification.CHECKS[c](ctx) for c in ("1", "2", "3", "4")]
        assert [o.status for o in outcomes] == ["pass"] * 4
        attachment = dict(outcomes[1].quantities)
        max_nd = Fraction(attachment["max_nd"])
        logs = ctx.degree_logs
        # The least sum has the closed form n(6 ln t + 3 ln 3): 3t, 3t and
        # 3t^2 leaves at u, z and zp, t^2 at ap, one at each w.
        assert math.isclose(logs["mask_sum"], n * (6 * math.log(t) + 3 * math.log(3)))
        # The full mask attains the check-2 maximum, 9t^2/(3t^2+1)^2 at zp.
        assert max_nd == Fraction(9 * t * t, (3 * t * t + 1) ** 2)
        assert int(attachment["vertex"]) == inst.zp(1)
        full = SubgraphMask.full(g)
        assert neighbourhood_discrepancy(g, full, inst.zp(1)) == max_nd
        for mask in [full] + [random_valid_mask(g, rng) for _ in range(10)]:
            assert ScoreState(g, mask).shares(inst.leaves) == g.leaf_numerator
            for vtx in inst.attachment_vertices:
                assert neighbourhood_discrepancy(g, mask, vtx) <= max_nd
            mask_sum = log_degree_sum(g, mask.degrees)
            assert logs["mask_sum"] <= mask_sum <= logs["graph_sum"]


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
            assert neighbourhood_discrepancy(inst.graph, mask, vtx) < threshold

    # Exact outputs of the check-6 search.  Any change to the edge order,
    # the pruning test or the node count shows up here; the ids name the
    # input only, so such a change edits a pin without renaming the test.
    @pytest.mark.parametrize(
        "name, t, nodes, dropped",
        [
            pytest.param("unsat4", 2, 224, None, id="unsat4-t2"),
            pytest.param("unsat4", 3, 776, None, id="unsat4-t3"),
            pytest.param("unsat4", 4, 1_560, None, id="unsat4-t4"),
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
        else:
            assert tuple(e for e, keep in enumerate(mask.kept) if not keep) == dropped

    def test_budget_raises_instead_of_passing(self, unsat4):
        inst = compile_formula(unsat4, 2)
        with pytest.raises(SearchBudgetExceeded):
            find_low_discrepancy_mask(inst, node_budget=3)


# (n, t) pairs whose finalised-only search stays under about 0.1 s; at n = 7,
# t = 4 it takes over a million nodes.
_SEARCH_SIZES = [(n, t) for n in range(3, 8) for t in (2, 3, 4) if n < 7 or t < 4]


class TestLowDiscrepancyLookahead:
    """The check-6 look-ahead against brute force over each designated
    vertex's own undecided edges, at random partial decisions along
    ``gadget_edge_order`` of compiled random cubic formulas: wherever some
    completion keeps the vertex below t^2/9 the test accepts, and on a
    finalised vertex it is the exact threshold test."""

    @given(st.integers(3, 7), st.integers(2, 4), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=80)
    def test_accepts_every_completion_below_threshold(self, n, t, seed):
        rng = random.Random(seed)
        inst = compile_formula(helpers.cubic_formula(rng, n), t)
        g = inst.graph
        order = inst.gadget_edge_order
        depth = rng.randint(0, len(order))
        decided = {eid: rng.random() < 0.5 for eid in order[:depth]}
        undecided = set(order[depth:])
        scale, weights = g.scaled_weights
        below = LowDiscrepancyLookahead(inst, order)
        for x in inst.designated_vertices:
            k = s = 0
            open_nbrs = []
            for y, eid in g.incidence[x]:
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
                9 * (weights[x] * (k + j) - s - sum(kept)) ** 2 < (scale * t * (k + j)) ** 2
                for j in range(u + 1) if k + j
                for kept in itertools.combinations(open_nbrs, j)
            )
            if reachable or u == 0:
                assert below[x, k, s, u] == reachable

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
            assert mask.degrees == SubgraphMask(inst.graph, mask.kept).degrees
        assert nodes <= plain_nodes


class TestScoreBounds:
    def test_bound_values(self, sat3):
        inst = compile_formula(sat3, 2)
        n, t = 3, 2
        assert witness_score_bound(inst) == 6 * n * math.log(t) - n * math.log(10 * n * t)
        assert infeasible_score_bound(inst) == (
            6 * n * math.log(t) + 20 * n - n * math.log(t * t / 9)
        )

    def test_sampling_branch_on_compiled_instance(self, sat3):
        inst = compile_formula(sat3, 2)
        best, count = max_sampled_score(inst, samples=50, seed=1)
        # the full mask plus 50 samples
        assert count == 51
        assert best.value is None or best.value <= infeasible_score_bound(inst)

    def test_max_sampled_score_is_the_best_sample(self):
        """The best, by compare_scores, of the states sample_states draws from
        the same seed and multiplier; on some of these graphs a sampled mask
        beats the full one, so the full mask alone does not pass."""
        wins = 0
        for seed in range(40):
            graph = helpers.kernel_graph(random.Random(seed), "core")
            # max_sampled_score reads only the graph and the variable count
            inst = ReductionInstance(graph, 2, 3, (), (), (), ())
            states = sample_states(graph, random.Random(seed), 50, multiplier=3)
            values = [state.score() for state in states]
            best = max(values, key=functools.cmp_to_key(compare_scores))
            assert max_sampled_score(inst, samples=50, seed=seed) == (best, 51)
            wins += compare_scores(best, values[0]) > 0
        assert wins


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
        # The least degrees a valid mask can give, and the host degrees; both
        # checks share the two sums.
        graph = compile_formula(unsat4, 2).graph
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

    def test_unknown_selector_rejected(self, sat3):
        with pytest.raises(ValueError, match="unknown checks"):
            run_checks(sat3, 2, checks=("7",))

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

