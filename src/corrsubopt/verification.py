"""Self-checks for compiled instances.

Each check targets one structural property the construction relies on:

  1  the leaf discrepancies add up to exactly 6nt in every valid mask
  2  attachment vertices (zp_i, ap_j) keep discrepancy in [0, 1/t^2)
  3  the log-degree sum of any valid mask is at least 6n ln t + 2n
  4  it is at most the host graph's, which is at most 6n ln t + 20n
  5  witness masks have discrepancy exactly 0 on all designated vertices
  6  for unsatisfiable formulas, no valid mask keeps every designated
     vertex below discrepancy t^2/9 (exhaustive pruned search; a budget
     overrun reports inconclusive, never a pass)

plus the score-bound checks: a witness scores at least
6n ln t - n ln(10nt), and for unsatisfiable formulas every examined valid
mask scores at most 6n ln t + 20n - n ln(t^2/9).  Score bounds use the
reduction objective (multiplier = variable count); discrepancy checks are
exact rational arithmetic, the log bounds allow absolute slack 1e-9.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .graph import SubgraphMask, is_valid
from .reduction import (
    Formula,
    ReductionInstance,
    compile_formula,
    dump_formula,
    is_one_in_three,
    satisfying_assignments,
    witness_mask,
)
from .scoring import (
    ScoreValue,
    compare_scores,
    discrepancy_sum,
    format_fraction,
    log_degree_sum,
    neighbourhood_discrepancy,
    score,
)
from .solvers import FreeEdgeSearch, random_valid_mask

FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class CheckRecord:
    check: str  # selector: "1".."6" or "lemmas"
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    instance: str
    quantities: tuple[tuple[str, str], ...] = ()
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class SearchBudgetExceeded(RuntimeError):
    pass


def instance_label(formula: Formula, t: int) -> str:
    digest = hashlib.sha256(dump_formula(formula).encode()).hexdigest()[:8]
    return f"n={formula.variable_count} t={t} formula={digest}"


def reduction_score(inst: ReductionInstance, mask: SubgraphMask) -> ScoreValue:
    """Score under the reduction objective: multiplier = variable count."""
    return score(inst.graph, mask, multiplier=inst.variable_count)


def leaf_discrepancy_total(inst: ReductionInstance, mask: SubgraphMask) -> Fraction:
    return discrepancy_sum(inst.graph, mask, inst.leaves)


def attachment_violations(
    inst: ReductionInstance, mask: SubgraphMask
) -> list[tuple[int, Fraction]]:
    """Attachment vertices whose discrepancy leaves [0, 1/t^2)."""
    bound = Fraction(1, inst.t * inst.t)
    out = []
    for vtx in inst.attachment_vertices:
        nd = neighbourhood_discrepancy(inst.graph, mask, vtx)
        if not 0 <= nd < bound:
            out.append((vtx, nd))
    return out


def degree_log_quantities(inst: ReductionInstance, mask: SubgraphMask) -> dict[str, float]:
    n, t = inst.variable_count, inst.t
    return {
        "lower": 6 * n * math.log(t) + 2 * n,
        "mask_sum": log_degree_sum(inst.graph, mask.degrees),
        "graph_sum": log_degree_sum(inst.graph, inst.graph.degrees),
        "upper": 6 * n * math.log(t) + 20 * n,
    }


def witness_discrepancy_violations(
    inst: ReductionInstance, mask: SubgraphMask
) -> list[tuple[int, Fraction]]:
    out = []
    for vtx in inst.designated_vertices:
        nd = neighbourhood_discrepancy(inst.graph, mask, vtx)
        if nd != 0:
            out.append((vtx, nd))
    return out


def _infeasibility_edge_order(inst: ReductionInstance) -> list[int]:
    """Free edges grouped so gadget vertices finalise as early as possible."""
    g = inst.graph
    order = []
    for i in range(1, inst.variable_count + 1):
        v = inst.v(i)
        order.append(g.edge_id(v, inst.u(i)))
        order.append(g.edge_id(v, inst.z(i)))
        order.append(g.edge_id(inst.z(i), inst.zp(i)))
        for slot in (1, 2, 3):
            w = inst.w(i, slot)
            order.append(g.edge_id(v, w))
            order.append(g.edge_id(w, inst.a(inst.slot_clause(i, slot))))
    for j in range(1, inst.variable_count + 1):
        order.append(g.edge_id(inst.a(j), inst.ap(j)))
    return order


def find_low_discrepancy_mask(
    inst: ReductionInstance, *, node_budget: int | None = 5_000_000
) -> tuple[SubgraphMask | None, int]:
    """Search for a valid mask keeping every designated vertex strictly
    below discrepancy t^2/9.

    Depth-first over the free edges (:class:`FreeEdgeSearch`); a branch
    dies as soon as some vertex has all incident edges decided and either
    no kept edge or a designated discrepancy at or above the threshold.
    Exhausting the tree proves no such mask exists.  Returns (mask or None,
    nodes explored); raises :class:`SearchBudgetExceeded` when the budget
    runs out, so a truncated search can never pass as a proof.
    """
    g = inst.graph
    scale, weights = g.scaled_weights
    designated = set(inst.designated_vertices)
    dfs = FreeEdgeSearch(g, _infeasibility_edge_order(inst))
    kept_deg, und_deg, nbr_sum = dfs.kept_deg, dfs.und_deg, dfs.nbr_sum
    # ND = ((W d - s) / (L d))^2, so ND < t^2/9  <=>  9 (W d - s)^2 < (L t d)^2
    scale_t = scale * inst.t

    def finalised_ok(vtx: int) -> bool:
        d = kept_deg[vtx]
        if d == 0:
            return False
        if vtx not in designated:
            return True
        diff = weights[vtx] * d - nbr_sum[vtx]
        limit = scale_t * d
        return 9 * diff * diff < limit * limit

    if not all(finalised_ok(vtx) for vtx in range(g.vertex_count) if und_deg[vtx] == 0):
        return None, 0

    def child(state, u, v, keep):
        if (und_deg[u] or finalised_ok(u)) and (und_deg[v] or finalised_ok(v)):
            return state
        return None

    found: SubgraphMask | None = None

    def leaf(state) -> bool:
        nonlocal found
        found = dfs.mask()
        return True

    if not dfs.run(True, child, leaf, node_budget):
        raise SearchBudgetExceeded(f"budget of {node_budget} nodes exhausted")
    return found, dfs.nodes


def witness_score_bound(inst: ReductionInstance) -> float:
    n, t = inst.variable_count, inst.t
    return 6 * n * math.log(t) - n * math.log(10 * n * t)

def infeasible_score_bound(inst: ReductionInstance) -> float:
    n, t = inst.variable_count, inst.t
    return 6 * n * math.log(t) + 20 * n - n * math.log(t * t / 9)


def max_sampled_score(
    inst: ReductionInstance, *, samples: int = 10_000, seed: int = 0
) -> tuple[ScoreValue, int]:
    """Largest reduction-objective score over the full mask and ``samples``
    random valid masks drawn from ``seed``; returns (score, masks scored)."""
    rng = random.Random(seed)
    best = reduction_score(inst, SubgraphMask.full(inst.graph))
    for _ in range(samples):
        value = reduction_score(inst, random_valid_mask(inst.graph, rng))
        if compare_scores(value, best) > 0:
            best = value
    return best, samples + 1


def _fmt(x: float) -> str:
    return f"{x:.9f}"


@dataclass
class CheckContext:
    formula: Formula
    t: int
    mask_samples: int = 100
    seed: int = 0
    search_budget: int | None = 5_000_000
    lemma_samples: int = 10_000
    assignment: tuple[bool, ...] | None = None
    inst: ReductionInstance = field(init=False)

    def __post_init__(self) -> None:
        self.inst = compile_formula(self.formula, self.t)

    def sample_masks(self, tag: str) -> list[SubgraphMask]:
        rng = random.Random(f"{self.seed}:{tag}")
        masks = [SubgraphMask.full(self.inst.graph)]
        masks.extend(
            random_valid_mask(self.inst.graph, rng) for _ in range(self.mask_samples)
        )
        return masks

    @cached_property
    def degree_log_sums(self) -> list[float]:
        """Log-degree sums of the "degree-log" sample, shared by checks 3 and 4."""
        return [log_degree_sum(self.inst.graph, mask.degrees)
                for mask in self.sample_masks("degree-log")]

    @cached_property
    def _oracle(self) -> list[tuple[bool, ...]] | str:
        try:
            return satisfying_assignments(self.formula)
        except ValueError as exc:
            return str(exc)

    def satisfying(self) -> list[tuple[bool, ...]]:
        """Every 1-in-3 satisfying assignment, from one run of the exhaustive
        oracle per context; raises ValueError past the oracle's cap."""
        found = self._oracle
        if isinstance(found, str):
            raise ValueError(found)
        return found

    def assignments(self) -> list[tuple[bool, ...]]:
        if self.assignment is not None:
            return [self.assignment]
        return self.satisfying()


def check_leaf_total(ctx: CheckContext) -> CheckRecord:
    inst = ctx.inst
    expected = Fraction(6 * inst.variable_count * inst.t)
    masks = ctx.sample_masks("leaf-total")
    for mask in masks:
        got = leaf_discrepancy_total(inst, mask)
        if got != expected:
            return CheckRecord(
                "1", "leaf-discrepancy-total", "fail", instance_label(ctx.formula, ctx.t),
                (("expected", format_fraction(expected)), ("got", format_fraction(got))),
                f"mask {mask.bitstring()[:40]}...",
            )
    return CheckRecord(
        "1", "leaf-discrepancy-total", "pass", instance_label(ctx.formula, ctx.t),
        (
            ("leaf_total", format_fraction(expected)),
            ("expected", format_fraction(expected)),
            ("masks_checked", str(len(masks))),
        ),
    )


def check_attachment_bounds(ctx: CheckContext) -> CheckRecord:
    inst = ctx.inst
    masks = ctx.sample_masks("attachment")
    for mask in masks:
        violations = attachment_violations(inst, mask)
        if violations:
            vtx, nd = violations[0]
            return CheckRecord(
                "2", "attachment-discrepancy-bound", "fail",
                instance_label(ctx.formula, ctx.t),
                (("vertex", str(vtx)), ("nd", format_fraction(nd)),
                 ("bound", f"1/{inst.t * inst.t}")),
            )
    return CheckRecord(
        "2", "attachment-discrepancy-bound", "pass", instance_label(ctx.formula, ctx.t),
        (("bound", f"1/{inst.t * inst.t}"), ("masks_checked", str(len(masks)))),
    )


def _degree_log_record(ctx: CheckContext, selector: str) -> CheckRecord:
    inst = ctx.inst
    name = "degree-log-lower" if selector == "3" else "degree-log-upper"
    mask_sums = ctx.degree_log_sums
    graph_sum = log_degree_sum(inst.graph, inst.graph.degrees)
    quantities = degree_log_quantities(inst, SubgraphMask.full(inst.graph))
    for mask_sum in mask_sums:
        if selector == "3":
            ok = quantities["lower"] <= mask_sum + FLOAT_SLACK
        else:
            ok = (
                mask_sum <= graph_sum + FLOAT_SLACK
                and graph_sum <= quantities["upper"] + FLOAT_SLACK
            )
        if not ok:
            return CheckRecord(
                selector, name, "fail", instance_label(ctx.formula, ctx.t),
                (("mask_sum", _fmt(mask_sum)), ("graph_sum", _fmt(graph_sum)),
                 ("lower", _fmt(quantities["lower"])), ("upper", _fmt(quantities["upper"]))),
            )
    return CheckRecord(
        selector, name, "pass", instance_label(ctx.formula, ctx.t),
        (("lower", _fmt(quantities["lower"])), ("graph_sum", _fmt(graph_sum)),
         ("upper", _fmt(quantities["upper"])), ("masks_checked", str(len(mask_sums)))),
    )


def check_degree_log_lower(ctx: CheckContext) -> CheckRecord:
    return _degree_log_record(ctx, "3")


def check_degree_log_upper(ctx: CheckContext) -> CheckRecord:
    return _degree_log_record(ctx, "4")


def check_witness_discrepancy(ctx: CheckContext) -> CheckRecord:
    label = instance_label(ctx.formula, ctx.t)
    try:
        assignments = ctx.assignments()
    except ValueError as exc:
        return CheckRecord("5", "witness-zero-discrepancy", "inconclusive", label,
                           details=str(exc))
    if not assignments:
        return CheckRecord(
            "5", "witness-zero-discrepancy", "inconclusive", label,
            details="no 1-in-3 satisfying assignment exists",
        )
    for assignment in assignments:
        text = "".join("T" if b else "F" for b in assignment)
        if not is_one_in_three(ctx.formula, assignment):
            return CheckRecord(
                "5", "witness-zero-discrepancy", "fail", label,
                (("assignment", text),),
                "assignment does not satisfy exactly one variable per clause",
            )
        mask = witness_mask(ctx.formula, ctx.t, assignment, ctx.inst)
        if not is_valid(ctx.inst.graph, mask):
            return CheckRecord("5", "witness-zero-discrepancy", "fail", label,
                               (("assignment", text),), "witness mask is invalid")
        violations = witness_discrepancy_violations(ctx.inst, mask)
        if violations:
            vtx, nd = violations[0]
            return CheckRecord(
                "5", "witness-zero-discrepancy", "fail", label,
                (("assignment", text), ("vertex", str(vtx)),
                 ("nd", format_fraction(nd))),
            )
    return CheckRecord(
        "5", "witness-zero-discrepancy", "pass", label,
        (("assignments_checked", str(len(assignments))),),
    )


def check_infeasibility_search(ctx: CheckContext) -> CheckRecord:
    label = instance_label(ctx.formula, ctx.t)
    try:
        satisfiable = bool(ctx.satisfying())
    except ValueError as exc:
        return CheckRecord("6", "low-discrepancy-search", "inconclusive", label,
                           details=str(exc))
    try:
        mask, nodes = find_low_discrepancy_mask(ctx.inst, node_budget=ctx.search_budget)
    except SearchBudgetExceeded as exc:
        return CheckRecord("6", "low-discrepancy-search", "inconclusive", label,
                           details=str(exc))
    threshold = f"{ctx.t * ctx.t}/9"
    if satisfiable:
        # Negative control: a satisfiable formula must yield a counterexample.
        if mask is not None:
            return CheckRecord(
                "6", "low-discrepancy-search", "pass", label,
                (("nodes", str(nodes)), ("threshold", threshold)),
                "negative control: counterexample found, as expected for a "
                "satisfiable formula",
            )
        return CheckRecord(
            "6", "low-discrepancy-search", "fail", label,
            (("nodes", str(nodes)),),
            "satisfiable formula but the search found no counterexample; "
            "the search is unsound",
        )
    if mask is None:
        return CheckRecord(
            "6", "low-discrepancy-search", "pass", label,
            (("nodes", str(nodes)), ("threshold", threshold)),
            "exhaustive: every valid mask pushes some designated vertex to "
            f"discrepancy >= {threshold}",
        )
    return CheckRecord(
        "6", "low-discrepancy-search", "fail", label,
        (("nodes", str(nodes)), ("mask", mask.bitstring()[:60])),
        "found a valid mask with all designated discrepancies below the threshold",
    )


def check_score_bounds(ctx: CheckContext) -> CheckRecord:
    label = instance_label(ctx.formula, ctx.t)
    inst = ctx.inst
    quantities: list[tuple[str, str]] = []
    try:
        assignments = ctx.assignments()
    except ValueError as exc:
        return CheckRecord("lemmas", "score-bounds", "inconclusive", label, details=str(exc))
    if assignments:
        bound = witness_score_bound(inst)
        worst = None
        for assignment in assignments:
            if not is_one_in_three(ctx.formula, assignment):
                text = "".join("T" if b else "F" for b in assignment)
                return CheckRecord(
                    "lemmas", "score-bounds", "fail", label,
                    (("assignment", text),),
                    "assignment does not satisfy exactly one variable per clause",
                )
            mask = witness_mask(ctx.formula, ctx.t, assignment, inst)
            value = reduction_score(inst, mask)
            margin = math.inf if value.value is None else value.value - bound
            if worst is None or margin < worst:
                worst = margin
        assert worst is not None
        quantities += [("witness_bound", _fmt(bound)), ("witness_margin", _fmt(worst))]
        if worst < -FLOAT_SLACK:
            return CheckRecord("lemmas", "score-bounds", "fail", label,
                               tuple(quantities), "witness score below its lower bound")
    else:
        bound = infeasible_score_bound(inst)
        best, count = max_sampled_score(inst, samples=ctx.lemma_samples, seed=ctx.seed)
        high = -math.inf if best.value is None else best.value
        quantities += [
            ("score_upper_bound", _fmt(bound)),
            ("max_observed", "+inf" if best.value is None else _fmt(high)),
            ("masks_checked", str(count)),
        ]
        if best.value is None or high > bound + FLOAT_SLACK:
            return CheckRecord("lemmas", "score-bounds", "fail", label,
                               tuple(quantities), "a mask exceeds the score upper bound")
    return CheckRecord("lemmas", "score-bounds", "pass", label, tuple(quantities))


CHECKS = {
    "1": check_leaf_total,
    "2": check_attachment_bounds,
    "3": check_degree_log_lower,
    "4": check_degree_log_upper,
    "5": check_witness_discrepancy,
    "6": check_infeasibility_search,
    "lemmas": check_score_bounds,
}

ALL_CHECKS = tuple(CHECKS)


def run_checks(
    formula: Formula,
    t: int,
    checks: tuple[str, ...] = ALL_CHECKS,
    *,
    assignment: tuple[bool, ...] | None = None,
    mask_samples: int = 100,
    seed: int = 0,
    search_budget: int | None = 5_000_000,
    lemma_samples: int = 10_000,
) -> list[CheckRecord]:
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    ctx = CheckContext(
        formula,
        t,
        mask_samples=mask_samples,
        seed=seed,
        search_budget=search_budget,
        lemma_samples=lemma_samples,
        assignment=assignment,
    )
    return [CHECKS[c](ctx) for c in checks]
