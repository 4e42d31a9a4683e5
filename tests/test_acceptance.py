"""End-to-end acceptance battery.

One test per criterion; each prints a single PASS/FAIL line that the
terminal summary repeats, and asserts its stated runtime budget where one
applies.  Tolerances: exact rational equality where claimed exact, absolute
slack 1e-9 on logarithmic bounds, 1e-12 on the pinned regression value.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from corrsubopt import (
    ScoreState,
    SubgraphMask,
    compare_scores,
    compile_formula,
    is_valid,
    load_graph,
    random_valid_mask,
    satisfying_assignments,
    solve_exact,
    solve_local,
    witness_mask,
)
from corrsubopt.scoring import log_degree_sum, neighbourhood_discrepancy, score
from corrsubopt.verification import (
    attachment_violations,
    degree_log_quantities,
    find_low_discrepancy_mask,
    infeasible_score_bound,
    max_sampled_score,
    reduction_score,
    witness_score_bound,
)

import helpers
from helpers import ACCEPTANCE_LINES

SLACK = 1e-9
GRID = ((3, 2), (3, 3), (4, 2), (4, 4))
SAT_GRID = ((3, 2), (3, 3))
UNSAT_GRID = ((4, 2), (4, 4))


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def instances():
    out = {}
    for n, t in GRID:
        text = helpers.SAT3_TEXT if n == 3 else helpers.UNSAT4_TEXT
        formula = helpers.make_formula(text)
        out[(n, t)] = (formula, compile_formula(formula, t))
    return out


def sampled_masks(graph, count, tag):
    rng = random.Random(f"acceptance:{tag}")
    masks = [SubgraphMask.full(graph)]
    masks.extend(random_valid_mask(graph, rng) for _ in range(count))
    return masks


def test_criterion_1_leaf_totals_exact(instances):
    worst = 0.0
    for n, t in GRID:
        _, inst = instances[(n, t)]
        start = time.monotonic()
        g = inst.graph  # the leaves written out, one degree-1 vertex each
        leaves = [vtx for vtx, d in enumerate(g.degrees) if d == 1]
        for mask in sampled_masks(g, 10, f"c1:{n}:{t}"):
            total = sum(neighbourhood_discrepancy(g, mask, leaf) for leaf in leaves)
            if total != 6 * n * t:
                _report(1, False, f"(n={n}, t={t}): leaf total {total} != {6 * n * t}")
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        if elapsed >= 1.0:
            _report(1, False, f"(n={n}, t={t}) took {elapsed:.2f}s, budget 1s")
    _report(1, True, f"leaf ND total = 6nt exactly on all grid points "
                     f"(slowest {worst:.2f}s < 1s)")


def test_criterion_2_attachment_bounds(instances):
    start = time.monotonic()
    checked = 0
    for n, t in GRID:
        _, inst = instances[(n, t)]
        for mask in sampled_masks(inst.core, 100, f"c2:{n}:{t}"):
            bad = attachment_violations(inst, ScoreState(inst.core, mask))
            if bad:
                _report(2, False, f"(n={n}, t={t}): vertex {bad[0][0]} nd={bad[0][1]}")
            checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    _report(2, ok, f"0 <= attachment ND < 1/t^2 over {checked} masks "
                   f"({elapsed:.2f}s < 10s)")


def test_criterion_3_degree_log_bounds(instances):
    for n, t in GRID:
        _, inst = instances[(n, t)]
        q = degree_log_quantities(inst, inst.core.degrees)
        for mask in sampled_masks(inst.core, 100, f"c3:{n}:{t}"):
            mask_sum = log_degree_sum(inst.core, mask.degrees)
            if not (q["lower"] <= mask_sum + SLACK
                    and mask_sum <= q["graph_sum"] + SLACK
                    and q["graph_sum"] <= q["upper"] + SLACK):
                _report(3, False, f"(n={n}, t={t}): chain violated at {mask_sum}")
    _report(3, True, "6n ln t + 2n <= sum ln d_H <= sum ln d_G <= 6n ln t + 20n "
                     "on all grid points, slack 1e-9")


def test_criterion_4_witness_discrepancies(instances):
    formula, inst = instances[(3, 2)]
    assignments = satisfying_assignments(formula)
    if len(assignments) != 3:
        _report(4, False, f"expected exactly 3 assignments, got {len(assignments)}")
    for assignment in assignments:
        mask = witness_mask(formula, 2, assignment, inst)
        if not is_valid(inst.core, mask):
            _report(4, False, f"witness for {assignment} is invalid")
        for vtx in inst.designated_vertices:
            nd = neighbourhood_discrepancy(inst.core, mask, vtx)
            if nd != 0:
                _report(4, False, f"assignment {assignment}: vertex {vtx} nd={nd}")
    _report(4, True, "all 3 witness masks valid with designated ND exactly 0")


def test_criterion_5_infeasibility_search(instances):
    times = []
    for t in (2, 3):
        formula = helpers.make_formula(helpers.UNSAT4_TEXT)
        inst = compile_formula(formula, t)
        start = time.monotonic()
        mask, nodes = find_low_discrepancy_mask(inst)
        elapsed = time.monotonic() - start
        times.append(elapsed)
        if mask is not None:
            _report(5, False, f"t={t}: found a mask below t^2/9 on the "
                              "unsatisfiable instance")
        if elapsed > 300.0:
            _report(5, False, f"t={t}: search took {elapsed:.0f}s, budget 300s")
    # negative control: the satisfiable instance must yield a counterexample
    _, sat_inst = instances[(3, 2)]
    control, _ = find_low_discrepancy_mask(sat_inst)
    if control is None:
        _report(5, False, "negative control found no counterexample")
    _report(5, True, f"unsatisfiable t=2,3 exhausted with no hit "
                     f"({max(times):.2f}s < 300s); control found one")


def test_criterion_6_witness_score_lower_bound(instances):
    details = []
    for n, t in SAT_GRID:
        formula, inst = instances[(n, t)]
        bound = witness_score_bound(inst)
        for assignment in satisfying_assignments(formula):
            mask = witness_mask(formula, t, assignment, inst)
            value = reduction_score(inst, mask)
            got = math.inf if value.value is None else value.value
            if got < bound - SLACK:
                _report(6, False, f"(n={n}, t={t}) {assignment}: "
                                  f"{got:.6f} < {bound:.6f}")
        details.append(f"t={t}: bound {bound:.4f}")
    _report(6, True, "witness score >= 6n ln t - n ln(10nt) on the satisfiable "
                     f"grid ({'; '.join(details)})")


def test_criterion_7_score_upper_bound(instances):
    details = []
    for n, t in UNSAT_GRID:
        _, inst = instances[(n, t)]
        bound = infeasible_score_bound(inst)
        best, count = max_sampled_score(inst, samples=10_000, seed=0)
        if best.value is None or best.value > bound + SLACK:
            shown = "+inf" if best.value is None else f"{best.value:.6f}"
            _report(7, False, f"(n={n}, t={t}): max {shown} > bound {bound:.6f}")
        details.append(f"t={t}: max {best.value:.2f} <= {bound:.2f} ({count} masks)")
    _report(7, True, "; ".join(details))


def test_criterion_8_solver_oracle_equivalence():
    rng = random.Random(8)
    start = time.monotonic()
    for i in range(200):
        g = helpers.random_graph(rng, max_free=12)
        (is_inf, value, log_sum, total), bits = helpers.brute_force_best(g)
        exact = solve_exact(g)
        if (exact.best_mask.bitstring() != bits
                or (exact.best_score.value is None) != is_inf
                or exact.best_score.value != value
                or exact.best_score.discrepancy_total != total):
            _report(8, False, f"graph {i}: exact solver disagrees with enumeration")
        if exact.optimality != "proven":
            _report(8, False, f"graph {i}: expected a proven optimum")
        local = solve_local(g, restarts=4, seed=i)
        if compare_scores(local.best_score, exact.best_score) > 0:
            _report(8, False, f"graph {i}: local search beat the exact optimum")
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    _report(8, ok, f"exact = enumeration (value and mask) on 200 graphs; "
                   f"local never above ({elapsed:.1f}s < 120s)")


def test_criterion_9_incremental_scoring_bit_identical():
    rng = random.Random(99)
    toggles = 0
    for _ in range(20):
        g = helpers.random_graph(rng)
        mask = SubgraphMask.full(g)
        done = 0
        while done < 50:
            eid = rng.randrange(g.edge_count)
            kept = mask.kept[eid]
            if kept:
                u, v = g.edges[eid]
                if mask.degrees[u] <= 1 or mask.degrees[v] <= 1:
                    continue
            delta_value = ScoreState(g, mask).toggle(eid, not kept)
            fresh = score(g, mask)
            if (delta_value.value != fresh.value
                    or delta_value.log_degree_sum != fresh.log_degree_sum
                    or delta_value.discrepancy_total != fresh.discrepancy_total):
                _report(9, False, f"delta and recomputation differ on edge {eid}")
            done += 1
            toggles += 1
    _report(9, True, f"ScoreState.toggle bit-identical to recomputation over "
                     f"{toggles} toggles on 20 graphs")


def test_criterion_10_triangle_regression():
    g = load_graph(helpers.TRIANGLE_TEXT)
    report = solve_exact(g)
    expected = math.log(2) - 3 * math.log(150.0)
    value = report.best_score.value
    if value is None or abs(value - expected) > 1e-12:
        _report(10, False, f"optimum {value} != {expected}")
    if report.best_mask.bitstring() != "101":
        _report(10, False, f"optimal mask {report.best_mask.bitstring()} != 101")
    _report(10, True, f"optimum {value:.12f} within 1e-12; "
                      "tie broken to the path through the middle-weight vertex")
