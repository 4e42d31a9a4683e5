"""Compiling 1-in-3 formulas into score-optimisation instances.

Formulas are monotone and cubic: every clause holds three distinct
variables, every variable sits in exactly three clauses (so the clause and
variable counts match).  ``compile_formula`` turns such a formula plus an
integer scale t >= 2 into a weighted graph whose optimisation behaviour
separates 1-in-3 satisfiable from unsatisfiable inputs as t grows.

Per variable i the graph gets a block of seven tagged vertices

    role   weight   attached leaves (weight, count)
    u_i    7t       7t+1, 3t of them
    v_i    4t       none
    z_i    t        t-1,  3t of them
    zp_i   4t       4t,   3t^2 of them
    w_i_j  3t       3t,   one each (j = 1, 2, 3)

with edges v_i u_i, v_i z_i, v_i w_i_j, and z_i zp_i.  Per clause j it gets
a_j (weight 2t) joined to ap_j (weight t), which carries t^2 leaves of
weight t.  If variable i's clauses are r_1 < r_2 < r_3, the cross edges are
w_i_l a_{r_l}.  Vertex ids follow this text order (blocks by variable, then
by clause, leaves after their block's tagged vertices), and every vertex's
role tag is recorded so checks and the roles file can address the gadget
structure by name.

The formula file format: first line ``<n> <m>``, then m lines of three
1-based variable ids; ``#`` starts a comment line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .graph import SubgraphMask, WeightedGraph
from .scoring import ScoreValue
from .solvers import (
    DEFAULT_FREE_EDGE_CAP,
    SolveReport,
    solve_exact,
    solve_local,
)


class FormulaError(ValueError):
    """Malformed or structurally invalid formula."""


class AssignmentError(ValueError):
    """An assignment failed a precondition (wrong length, not 1-in-3)."""


class IncidenceBoundWarning(UserWarning):
    """The variable/clause incidence graph cannot be planar."""


@dataclass(frozen=True)
class Formula:
    """Monotone cubic 3-uniform formula; clauses hold 1-based variable ids."""

    variable_count: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        n = self.variable_count
        if n < 3:
            raise FormulaError("a 3-uniform formula needs at least three variables")
        if len(self.clauses) != n:
            raise FormulaError(
                f"expected {n} clauses for {n} variables, got {len(self.clauses)}"
            )
        counts = {i: 0 for i in range(1, n + 1)}
        for idx, clause in enumerate(self.clauses, 1):
            if len(clause) != 3:
                raise FormulaError(f"clause {idx} must have three distinct variables")
            for var in clause:
                if var not in counts:
                    raise FormulaError(f"clause {idx}: variable {var} out of range 1..{n}")
                counts[var] += 1
        for var, c in counts.items():
            if c != 3:
                raise FormulaError(f"variable {var} occurs in {c} clauses, needs exactly 3")

    def clauses_of(self, var: int) -> tuple[int, ...]:
        """Ascending 1-based indices of the three clauses containing ``var``."""
        return tuple(j for j, cl in enumerate(self.clauses, 1) if var in cl)


def incidence_planarity_warning(formula: Formula) -> str | None:
    """Necessary-condition check only: a bipartite planar graph on ``2n``
    vertices has at most ``4n - 4`` edges, and the incidence graph has 3n."""
    n = formula.variable_count
    if 3 * n > 4 * n - 4:
        return (
            f"incidence graph has 3n = {3 * n} edges > 2|V| - 4 = {4 * n - 4}; "
            "it cannot be planar"
        )
    return None


def parse_formula(text: str) -> Formula:
    """Parse a formula file; raises :class:`FormulaError` with line numbers."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    if not lines:
        raise FormulaError("empty formula file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormulaError(f"line {lineno}: header must be '<n> <m>'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormulaError(f"line {lineno}: header counts must be integers") from None
    if len(lines) - 1 != m:
        raise FormulaError(f"line {lineno}: expected {m} clause lines, found {len(lines) - 1}")
    clauses = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise FormulaError(f"line {lineno}: clause must list three variable ids")
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise FormulaError(f"line {lineno}: variable ids must be integers") from None
        if len(set(ids)) != 3:
            raise FormulaError(f"line {lineno}: clause variables must be distinct")
        clauses.append(frozenset(ids))
    try:
        formula = Formula(n, tuple(clauses))
    except FormulaError as exc:
        raise FormulaError(str(exc)) from None
    note = incidence_planarity_warning(formula)
    if note:
        warnings.warn(note, IncidenceBoundWarning, stacklevel=2)
    return formula


def dump_formula(formula: Formula) -> str:
    out = [f"{formula.variable_count} {len(formula.clauses)}"]
    out.extend(" ".join(str(v) for v in sorted(cl)) for cl in formula.clauses)
    return "\n".join(out) + "\n"


def parse_assignment(text: str, variable_count: int) -> tuple[bool, ...]:
    """Parse a T/F string like ``TFF`` (case-insensitive) into booleans."""
    cleaned = text.strip().upper()
    if len(cleaned) != variable_count or set(cleaned) - {"T", "F"}:
        raise AssignmentError(
            f"assignment must be {variable_count} characters of T/F, got {text!r}"
        )
    return tuple(c == "T" for c in cleaned)


def is_one_in_three(formula: Formula, assignment: tuple[bool, ...]) -> bool:
    if len(assignment) != formula.variable_count:
        raise AssignmentError(
            f"assignment length {len(assignment)} != {formula.variable_count} variables"
        )
    return all(
        sum(1 for var in clause if assignment[var - 1]) == 1
        for clause in formula.clauses
    )


def satisfying_assignments(formula: Formula) -> list[tuple[bool, ...]]:
    """Exhaustive 1-in-3 oracle; guarded to small formulas."""
    n = formula.variable_count
    if n > 20:
        raise ValueError(f"exhaustive assignment search capped at 20 variables, got {n}")
    found = []
    for bits in range(1 << n):
        assignment = tuple(bool(bits >> i & 1) for i in range(n))
        if is_one_in_three(formula, assignment):
            found.append(assignment)
    return found


@dataclass(frozen=True)
class ReductionInstance:
    """A compiled formula: graph, scale, and per-vertex role tags."""

    graph: WeightedGraph
    t: int
    variable_count: int
    roles: tuple[str, ...]
    clause_slots: tuple[tuple[int, int, int], ...]  # (variable, slot 1..3, clause)

    @cached_property
    def role_index(self) -> dict[str, int]:
        # Tagged (non-leaf) roles are unique; leaves share their tag.
        return {
            role: vid
            for vid, role in enumerate(self.roles)
            if not role.startswith("leaf_")
        }

    def vertex(self, role: str) -> int:
        return self.role_index[role]

    def u(self, i: int) -> int:
        return self.vertex(f"u_{i}")

    def v(self, i: int) -> int:
        return self.vertex(f"v_{i}")

    def z(self, i: int) -> int:
        return self.vertex(f"z_{i}")

    def zp(self, i: int) -> int:
        return self.vertex(f"zp_{i}")

    def w(self, i: int, slot: int) -> int:
        return self.vertex(f"w_{i}_{slot}")

    def a(self, j: int) -> int:
        return self.vertex(f"a_{j}")

    def ap(self, j: int) -> int:
        return self.vertex(f"ap_{j}")

    def slot_clause(self, i: int, slot: int) -> int:
        for var, s, clause in self.clause_slots:
            if var == i and s == slot:
                return clause
        raise KeyError((i, slot))

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return tuple(
            vid for vid, role in enumerate(self.roles) if role.startswith("leaf_")
        )

    @cached_property
    def attachment_vertices(self) -> tuple[int, ...]:
        """The zp_i and ap_j vertices: the only non-leaves allowed nonzero
        discrepancy in a perfect solution."""
        out = [self.zp(i) for i in range(1, self.variable_count + 1)]
        out.extend(self.ap(j) for j in range(1, self.variable_count + 1))
        return tuple(out)

    @cached_property
    def gadget_edge_order(self) -> tuple[int, ...]:
        """Free edges grouped so gadget vertices finalise as early as possible."""
        g = self.graph
        order = []
        for i in range(1, self.variable_count + 1):
            v = self.v(i)
            order.append(g.edge_id(v, self.u(i)))
            order.append(g.edge_id(v, self.z(i)))
            order.append(g.edge_id(self.z(i), self.zp(i)))
            for slot in (1, 2, 3):
                w = self.w(i, slot)
                order.append(g.edge_id(v, w))
                order.append(g.edge_id(w, self.a(self.slot_clause(i, slot))))
        for j in range(1, self.variable_count + 1):
            order.append(g.edge_id(self.a(j), self.ap(j)))
        return tuple(order)

    @cached_property
    def designated_vertices(self) -> tuple[int, ...]:
        """Non-leaf vertices other than the attachment vertices; the
        infeasibility search bounds their discrepancies."""
        skip = set(self.attachment_vertices)
        return tuple(
            vid
            for vid, role in enumerate(self.roles)
            if not role.startswith("leaf_") and vid not in skip
        )


def compile_formula(formula: Formula, t: int) -> ReductionInstance:
    """Build the weighted instance for ``formula`` at scale ``t`` (>= 2)."""
    if t < 2:
        raise ValueError(f"scale t must be at least 2, got {t}")
    n = formula.variable_count
    roles: list[str] = []
    weights: list[int] = []  # WeightedGraph.build makes each one a Fraction
    edges: list[tuple[int, int]] = []

    def add_vertex(role: str, weight: int) -> int:
        roles.append(role)
        weights.append(weight)
        return len(roles) - 1

    for i in range(1, n + 1):
        u = add_vertex(f"u_{i}", 7 * t)
        v = add_vertex(f"v_{i}", 4 * t)
        z = add_vertex(f"z_{i}", t)
        zp = add_vertex(f"zp_{i}", 4 * t)
        ws = [add_vertex(f"w_{i}_{slot}", 3 * t) for slot in (1, 2, 3)]
        edges.append((v, u))
        edges.append((v, z))
        edges.extend((v, w) for w in ws)
        edges.append((z, zp))
        for _ in range(3 * t):
            edges.append((u, add_vertex(f"leaf_u_{i}", 7 * t + 1)))
        for _ in range(3 * t):
            edges.append((z, add_vertex(f"leaf_z_{i}", t - 1)))
        for _ in range(3 * t * t):
            edges.append((zp, add_vertex(f"leaf_zp_{i}", 4 * t)))
        for slot, w in enumerate(ws, 1):
            edges.append((w, add_vertex(f"leaf_w_{i}_{slot}", 3 * t)))
    for j in range(1, n + 1):
        a = add_vertex(f"a_{j}", 2 * t)
        ap = add_vertex(f"ap_{j}", t)
        edges.append((a, ap))
        for _ in range(t * t):
            edges.append((ap, add_vertex(f"leaf_ap_{j}", t)))

    role_of = {role: vid for vid, role in enumerate(roles) if not role.startswith("leaf_")}
    slots: list[tuple[int, int, int]] = []
    for i in range(1, n + 1):
        for slot, clause in enumerate(formula.clauses_of(i), 1):
            edges.append((role_of[f"w_{i}_{slot}"], role_of[f"a_{clause}"]))
            slots.append((i, slot, clause))

    graph = WeightedGraph.build(len(roles), edges, weights)
    return ReductionInstance(graph, t, n, tuple(roles), tuple(slots))


def dump_roles(inst: ReductionInstance) -> str:
    return "\n".join(f"{vid} {role}" for vid, role in enumerate(inst.roles)) + "\n"


def witness_mask(
    formula: Formula, t: int, assignment: tuple[bool, ...],
    inst: ReductionInstance | None = None,
) -> SubgraphMask:
    """The canonical perfect-solution mask for a 1-in-3 satisfying assignment.

    Keeps everything except, per true variable, the edge v_i z_i, and per
    false variable, the edges v_i w_i_j, z_i zp_i, and the cross edges of
    w_i_j.  Clause blocks stay intact; each a_j then sees exactly its one
    true neighbour.  Raises :class:`AssignmentError` unless the assignment
    is 1-in-3 satisfying.
    """
    if not is_one_in_three(formula, assignment):
        raise AssignmentError("assignment does not satisfy exactly one variable per clause")
    if inst is None:
        inst = compile_formula(formula, t)
    mask = SubgraphMask.full(inst.graph)
    g = inst.graph
    for i in range(1, formula.variable_count + 1):
        if assignment[i - 1]:
            mask.set_edge(g.edge_id(inst.v(i), inst.z(i)), False)
        else:
            for slot in (1, 2, 3):
                mask.set_edge(g.edge_id(inst.v(i), inst.w(i, slot)), False)
                clause = inst.slot_clause(i, slot)
                mask.set_edge(g.edge_id(inst.w(i, slot), inst.a(clause)), False)
            mask.set_edge(g.edge_id(inst.z(i), inst.zp(i)), False)
    return mask


@dataclass(frozen=True)
class DecisionReport:
    answer: str  # "YES" | "NO"
    optimum: ScoreValue
    threshold: float
    variable_count: int
    t: int
    optimality: str
    solver: str  # "exact" | "local"
    solve_report: SolveReport
    notes: tuple[str, ...]


# The decision threshold and the score bounds it comes from are stated in
# terms of the formula's variable count, so the optimisation here runs with
# that multiplier rather than the gadget graph's vertex count.
THRESHOLD_COEFFICIENT = Fraction(17, 2)

ASYMPTOTIC_CAVEAT = (
    "threshold separation is established only for variable counts above e^47; "
    "at this size the verdict carries no correctness claim"
)
COEFFICIENT_NOTE = (
    "threshold uses coefficient 17/2; the 13/2 variant sometimes quoted does "
    "not separate the two cases"
)


def decide(
    formula: Formula,
    *,
    node_limit: int | None = 200_000,
    restarts: int = 2,
    seed: int = 0,
    free_edge_cap: int = DEFAULT_FREE_EDGE_CAP,
) -> DecisionReport:
    """Run the full decision pipeline at scale t = n^2.

    Compiles the formula, optimises the reduction objective (multiplier =
    variable count), and answers YES iff the best score found reaches
    (17/2) n ln n.  Free-edge counts above ``free_edge_cap`` fall back to
    local search; either way the report carries the solver's optimality.
    """
    n = formula.variable_count
    t = n * n
    inst = compile_formula(formula, t)
    free_count = len(inst.graph.free_edge_ids)
    warm = solve_local(inst.graph, restarts=restarts, seed=seed, multiplier=n)
    if free_count <= free_edge_cap:
        mode = "exact"
        report = solve_exact(
            inst.graph,
            node_limit=node_limit,
            free_edge_cap=free_edge_cap,
            initial_mask=warm.best_mask,
            multiplier=n,
            order=inst.gadget_edge_order,
        )
    else:
        mode = "local"
        report = warm
    threshold = float(THRESHOLD_COEFFICIENT) * n * math.log(n)
    optimum = report.best_score
    answer = "YES" if optimum.value is None or optimum.value >= threshold else "NO"
    return DecisionReport(
        answer=answer,
        optimum=optimum,
        threshold=threshold,
        variable_count=n,
        t=t,
        optimality=report.optimality,
        solver=mode,
        solve_report=report,
        notes=(COEFFICIENT_NOTE, ASYMPTOTIC_CAVEAT),
    )
