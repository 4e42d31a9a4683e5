"""Self-checks for compiled instances.

Each check targets one structural property the construction relies on:

  1  the leaf discrepancies add up to exactly 6nt in every valid mask
  2  attachment vertices (zp_i, ap_j) keep discrepancy in [0, 1/t^2)
  3  the log-degree sum of any valid mask is at least 6n ln t + 2n
  4  it is at most the host graph's, which is at most 6n ln t + 20n
  5  witness masks have discrepancy exactly 0 on all designated vertices
  6  for unsatisfiable formulas, no valid mask keeps every designated
     vertex below discrepancy t^2/9 (exhaustive search in the gadget edge
     order, cutting a branch once the completion intervals of the branch
     and bound's ``CompletionBound.ends`` show that a designated vertex
     can end below the threshold in no completion; a budget overrun
     reports inconclusive, never a pass)

plus the score-bound checks: a witness scores at least
6n ln t - n ln(10nt), and for unsatisfiable formulas every examined valid
mask scores at most 6n ln t + 20n - n ln(t^2/9).  Score bounds use the
reduction objective (the core's C, the variable count); discrepancy checks are
exact.  Checks 1 to 4 prove their bounds for every valid mask at once from
per-graph facts and draw no mask (check 2, like check 6's look-ahead, from
the completion intervals of ``CompletionBound.ends``); check 5 reads the
ints of the scoring kernel from a ``ScoreState``.  The log bounds allow
absolute slack 1e-9.

Every check reads the instance's core, which scores a mask as the explicit
graph scores it with every leaf edge kept, and none builds the explicit
graph.  Printed vertex ids are the explicit graph's
(``ReductionInstance.explicit_ids``); check 6 prints a failing mask over
the core, whose 10n edges are the explicit graph's free edges in order.

A check is a function of one :class:`CheckContext`, which holds the
instance (its formula and t with it), compiled once by :func:`run_checks`,
and caches what several checks share: the 1-in-3 oracle's answer and the
witness masks of checks 5 and lemmas.
A check returns an :class:`Outcome` (pass or fail, quantities, details) or
raises :class:`Inconclusive` when it gives up without evidence either way
(the oracle's variable cap, the check-6 node budget); a rejected
``assignment`` fails checks 5 and lemmas.  :func:`run_checks` turns each
into the one :class:`CheckRecord` per selected check, and refuses a
negative budget or sample count, and a ``str`` or ``bytes`` of selectors.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple

try:  # CPython's built-in sha256 loads no OpenSSL, as ``random`` does for sha512
    from _sha256 import sha256
except ImportError:  # renamed in 3.12
    from hashlib import sha256

from .graph import SubgraphMask, is_valid
from .reduction import (
    AssignmentError,
    Formula,
    ReductionInstance,
    compile_formula,
    dump_formula,
    satisfying_assignments,
    witness_mask,
)
from .scoring import (
    ScoreState, ScoreValue, compare_scores, format_fraction, gap_discrepancy, log_degree_sum,
    log_quotient, score)
from .solvers import CompletionBound, FreeEdgeSearch, sample_states

FLOAT_SLACK = 1e-9
DEFAULT_SEARCH_BUDGET = 5_000_000  # check 6's nodes
DEFAULT_LEMMA_SAMPLES = 10_000  # the lemmas check's sampled masks


class CheckRecord(NamedTuple):
    check: str  # selector: "1".."6" or "lemmas"
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    instance: str
    quantities: tuple[tuple[str, str], ...] = ()
    details: str = ""


class Outcome(NamedTuple):
    """What a check found; :func:`run_checks` adds selector, name and instance."""

    status: str  # as in CheckRecord; a check that gives up raises Inconclusive
    quantities: tuple[tuple[str, str], ...] = ()
    details: str = ""


class Inconclusive(RuntimeError):
    """A check gave up without evidence either way; reported as inconclusive
    with this message as details."""


def instance_label(inst: ReductionInstance) -> str:
    digest = sha256(dump_formula(inst.formula).encode()).hexdigest()[:8]
    return f"n={inst.variable_count} t={inst.t} formula={digest}"


def reduction_score(inst: ReductionInstance, mask: SubgraphMask) -> ScoreValue:
    """Score under the reduction objective: the core's C is the variable count."""
    return score(inst.core, mask)


def find_low_discrepancy_mask(
    inst: ReductionInstance, *, node_budget: int | None = DEFAULT_SEARCH_BUDGET
) -> tuple[SubgraphMask | None, int]:
    """Search for a valid mask over the core keeping every designated
    vertex strictly below discrepancy t^2/9.

    Depth-first over the free edges in ``inst.gadget_edge_order``
    (:class:`FreeEdgeSearch`).  A branch dies as soon as some vertex has all
    incident edges decided and no kept edge, or some designated endpoint of
    the edge just decided can end below the threshold in no completion of
    its undecided edges.

    A vertex of final degree d has ND = ((W d - s) / (L d))^2, so
    ND < t^2/9  <=>  3 |W d - s| < L t d.  At each final degree d,
    ``CompletionBound.ends`` gives the least |W d - s| over the
    completions, max(above, below, 0); so the look-ahead passes a vertex
    exactly when some d has 3 max(above, below, 0) < L t d, as every
    completion below the threshold does at its own degree.  The cut
    removes only subtrees that hold no counterexample, the order of the
    rest is unchanged, and the first mask found is the one a search
    cutting on finalised vertices alone finds; only the node count falls.
    With u = 0 the test is the final discrepancy test, so a leaf is a
    counterexample.

    Exhausting the tree proves no such mask exists.  Returns (mask or None,
    nodes explored); raises :class:`Inconclusive` when the budget
    runs out, so a truncated search can never pass as a proof, and
    ``ValueError`` for a negative budget.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError("node_budget must be non-negative")
    order, core = inst.gadget_edge_order, inst.core
    dfs = FreeEdgeSearch(core, order)
    kept_deg, und_deg, nbr_sum = dfs.kept_deg, dfs.und_deg, dfs.nbr_sum
    ends = CompletionBound(core, order).ends
    lt = core.scaled_weights[0] * inst.t  # L t
    designated = set(inst.designated_vertices)

    @cache
    def can_pass(x: int, k: int, s: int, u: int) -> bool:
        return any(3 * max(above, below, 0) < lt * d for d, above, below in ends(x, k, s, u))

    def feasible(vtx: int) -> bool:
        return (vtx not in designated
                or can_pass(vtx, kept_deg[vtx], nbr_sum[vtx], und_deg[vtx]))

    if not all(feasible(vtx) for vtx in inst.designated_vertices):
        return None, 0

    def child(state, depth, u, v, keep):
        return state if feasible(u) and feasible(v) else None

    found: SubgraphMask | None = None

    def leaf(state) -> bool:
        nonlocal found
        found = dfs.mask()
        return True

    if not dfs.run(True, child, leaf, node_budget):
        raise Inconclusive(f"budget of {node_budget} nodes exhausted")
    return found, dfs.nodes


def witness_score_bound(inst: ReductionInstance) -> float:
    n, t = inst.variable_count, inst.t
    return 6 * n * math.log(t) - n * math.log(10 * n * t)

def infeasible_score_bound(inst: ReductionInstance) -> float:
    n, t = inst.variable_count, inst.t
    return 6 * n * math.log(t) + 20 * n - n * log_quotient(t * t, 9)


def max_sampled_score(
    inst: ReductionInstance, *, samples: int = DEFAULT_LEMMA_SAMPLES, seed: int = 0
) -> tuple[ScoreValue, int]:
    """Largest reduction-objective score over the full mask and ``samples``
    random valid masks drawn from ``seed``; returns (score, masks scored)."""
    if samples < 0:
        raise ValueError("samples must be non-negative")
    states = sample_states(inst.core, random.Random(seed), samples)
    best = next(states).score()
    for state in states:
        value = state.score()
        if compare_scores(value, best) > 0:
            best = value
    return best, samples + 1


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _text(assignment: tuple[bool, ...]) -> str:
    return "".join("T" if b else "F" for b in assignment)


class CheckContext:
    def __init__(self, inst: ReductionInstance, *, search_budget: int | None,
                 lemma_samples: int, assignment: tuple[bool, ...] | None) -> None:
        self.inst, self.search_budget, self.lemma_samples = inst, search_budget, lemma_samples
        self.assignment = assignment

    @cached_property
    def satisfying(self) -> list[tuple[bool, ...]]:
        """Every 1-in-3 satisfying assignment, from one run of the exhaustive
        oracle per context; raises :class:`Inconclusive` past its cap."""
        try:
            return satisfying_assignments(self.inst.formula)
        except ValueError as exc:  # the oracle's only error: the variable cap
            raise Inconclusive(str(exc)) from exc

    @cached_property
    def witnesses(self) -> list[tuple[str, SubgraphMask]]:
        """(assignment as T/F text, witness mask) for checks 5 and lemmas: the
        given assignment, else every satisfying one.  Raises AssignmentError
        when the given assignment has the wrong length or is not 1-in-3,
        which :func:`run_checks` reports as a fail."""
        found = self.satisfying if self.assignment is None else [self.assignment]
        return [(_text(a), witness_mask(self.inst, a)) for a in found]


def check_leaf_total(ctx: CheckContext) -> Outcome:
    """A valid mask keeps every forced edge, so the leaves' share of S * D
    is in each the core's ``leaf_numerator``, closed form over its pendants."""
    g = ctx.inst.core
    expected = Fraction(6 * ctx.inst.variable_count * ctx.inst.t)
    got = Fraction(g.leaf_numerator, g.discrepancy_scale[0])
    return Outcome("pass" if got == expected else "fail",
                   (("leaf_total", format_fraction(got)), ("expected", format_fraction(expected))))


def check_attachment_bounds(ctx: CheckContext) -> Outcome:
    """The largest attachment discrepancy over every valid mask: x keeps its
    k forced edges and some of its u free ones, and at each final degree
    |W d - s - sigma| is largest at the far end of the interval of
    ``CompletionBound.ends``."""
    inst, g = ctx.inst, ctx.inst.core
    ends = CompletionBound(g, g.free_edge_ids).ends
    forced, sums = g.forced_degrees(), g.forced_nbr_sums
    worst, vertex = Fraction(-1), -1
    for x in inst.attachment_vertices:
        k = forced[x]
        for d, above, below in ends(x, k, sums[x], g.degrees[x] - k):
            nd = gap_discrepancy(g, d, max(abs(above), abs(below)))
            if nd > worst:
                worst, vertex = nd, x
    return Outcome("pass" if worst * inst.t ** 2 < 1 else "fail",
                   (("max_nd", format_fraction(worst)),
                    ("vertex", str(inst.explicit_ids[vertex])),
                    ("bound", f"1/{inst.t * inst.t}")))


def check_degree_log_lower(ctx: CheckContext) -> Outcome:
    """The least log-degree sum of a valid mask, at degrees max(1, forced
    degree): ``math.log`` and left-to-right float addition are monotone, so
    every valid mask's sum is at least it."""
    inst, n = ctx.inst, ctx.inst.variable_count
    lower = 6 * n * math.log(inst.t) + 2 * n
    least = log_degree_sum(inst.core, [max(1, k) for k in inst.core.forced_degrees()])
    return Outcome("pass" if lower <= least + FLOAT_SLACK else "fail",
                   (("lower", _fmt(lower)), ("min_sum", _fmt(least))))


def check_degree_log_upper(ctx: CheckContext) -> Outcome:
    """The host's log-degree sum, which every valid mask's is at most."""
    inst, n = ctx.inst, ctx.inst.variable_count
    upper = 6 * n * math.log(inst.t) + 20 * n
    host = log_degree_sum(inst.core, inst.core.degrees)
    return Outcome("pass" if host <= upper + FLOAT_SLACK else "fail",
                   (("graph_sum", _fmt(host)), ("upper", _fmt(upper))))


def check_witness_discrepancy(ctx: CheckContext) -> Outcome:
    witnesses = ctx.witnesses
    if not witnesses:
        raise Inconclusive("no 1-in-3 satisfying assignment exists")
    inst = ctx.inst
    for text, mask in witnesses:
        if not is_valid(inst.core, mask):
            return Outcome("fail", (("assignment", text),), "witness mask is invalid")
        state = ScoreState(inst.core, mask)
        for vtx in inst.designated_vertices:
            d, diff = state.gap(vtx)
            if diff:  # ND = 0  <=>  W d - s = 0
                nd = gap_discrepancy(inst.core, d, diff)
                return Outcome("fail", (("assignment", text),
                                        ("vertex", str(inst.explicit_ids[vtx])),
                                        ("nd", format_fraction(nd))))
    return Outcome("pass", (("assignments_checked", str(len(witnesses))),))


def check_infeasibility_search(ctx: CheckContext) -> Outcome:
    satisfiable = bool(ctx.satisfying)
    mask, nodes = find_low_discrepancy_mask(ctx.inst, node_budget=ctx.search_budget)
    threshold = f"{ctx.inst.t ** 2}/9"
    passed = (("nodes", str(nodes)), ("threshold", threshold))
    if satisfiable:
        # Negative control: a satisfiable formula must yield a counterexample.
        if mask is not None:
            return Outcome(
                "pass", passed,
                "negative control: counterexample found, as expected for a "
                "satisfiable formula",
            )
        return Outcome(
            "fail", (("nodes", str(nodes)),),
            "satisfiable formula but the search found no counterexample; "
            "the search is unsound",
        )
    if mask is None:
        return Outcome(
            "pass", passed,
            "exhaustive: every valid mask pushes some designated vertex to "
            f"discrepancy >= {threshold}",
        )
    return Outcome(
        "fail", (("nodes", str(nodes)),
                 ("mask", mask.bitstring())),
        "found a valid mask with all designated discrepancies below the threshold",
    )


def check_score_bounds(ctx: CheckContext) -> Outcome:
    inst = ctx.inst
    witnesses = ctx.witnesses
    if witnesses:
        bound = witness_score_bound(inst)
        worst = min(reduction_score(inst, mask).value - bound for _, mask in witnesses)
        quantities = (("witness_bound", _fmt(bound)), ("witness_margin", _fmt(worst)))
        if worst < -FLOAT_SLACK:
            return Outcome("fail", quantities, "witness score below its lower bound")
        return Outcome("pass", quantities)
    bound = infeasible_score_bound(inst)
    best, count = max_sampled_score(inst, samples=ctx.lemma_samples)
    quantities = (
        ("score_upper_bound", _fmt(bound)),
        ("max_observed", "+inf" if best.value == math.inf else _fmt(best.value)),
        ("masks_checked", str(count)),
    )
    if best.value > bound + FLOAT_SLACK:
        return Outcome("fail", quantities, "a mask exceeds the score upper bound")
    return Outcome("pass", quantities)


# selector -> (record name, check); CHECKS keeps the selector order.
_TABLE = {
    "1": ("leaf-discrepancy-total", check_leaf_total),
    "2": ("attachment-discrepancy-bound", check_attachment_bounds),
    "3": ("degree-log-lower", check_degree_log_lower),
    "4": ("degree-log-upper", check_degree_log_upper),
    "5": ("witness-zero-discrepancy", check_witness_discrepancy),
    "6": ("low-discrepancy-search", check_infeasibility_search),
    "lemmas": ("score-bounds", check_score_bounds),
}
CHECKS = {selector: check for selector, (_, check) in _TABLE.items()}

ALL_CHECKS = tuple(CHECKS)


def run_checks(
    formula: Formula,
    t: int,
    checks: tuple[str, ...] = ALL_CHECKS,
    *,
    assignment: tuple[bool, ...] | None = None,
    search_budget: int | None = DEFAULT_SEARCH_BUDGET,
    lemma_samples: int = DEFAULT_LEMMA_SAMPLES,
) -> list[CheckRecord]:
    if isinstance(checks, (str, bytes)):  # every item of "16" would be a selector
        raise ValueError(f"checks must be a tuple of selectors, not {type(checks).__name__}")
    if not checks:
        raise ValueError("no checks selected")
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    repeated = sorted({c for c in checks if checks.count(c) > 1}, key=checks.index)
    if repeated:
        raise ValueError(f"repeated checks: {', '.join(repeated)}")
    if search_budget is not None and search_budget < 0:
        raise ValueError("search_budget must be non-negative")
    if lemma_samples < 0:
        raise ValueError("lemma_samples must be non-negative")
    ctx = CheckContext(compile_formula(formula, t), search_budget=search_budget,
                       lemma_samples=lemma_samples, assignment=assignment)
    label = instance_label(ctx.inst)
    records = []
    for selector in checks:
        try:
            outcome = CHECKS[selector](ctx)
        except Inconclusive as exc:
            outcome = Outcome("inconclusive", details=str(exc))
        except AssignmentError as exc:  # only the given assignment can be rejected
            outcome = Outcome("fail", (("assignment", _text(assignment)),), str(exc))
        records.append(CheckRecord(selector, _TABLE[selector][0], outcome.status, label,
                                   outcome.quantities, outcome.details))
    return records
