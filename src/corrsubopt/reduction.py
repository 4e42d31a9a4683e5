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
w_i_l a_{r_l}.  A compiled instance, ``ReductionInstance(formula, t)``, is
the value of its formula and scale.  Every leaf edge is forced, so it holds
the core, built by its one gadget pass: the tagged vertices alone, in this
text order (blocks by variable, then by clause), each hub's leaves one
``WeightedGraph`` pendant.  Every check, witness and search reads the core.
The explicit graph is unfolded from it only to be written (``reduce`` files,
``witness`` masks), with each block's leaves after its tagged vertices and
tagged ``leaf_`` + the hub's tag; past ``MAX_COMPILED_VERTICES`` it is refused.

The formula file format: first line ``<n> <m>``, then m lines of three
1-based variable ids; ``#`` starts a comment line.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .graph import Immutable, SubgraphMask, WeightedGraph, _content_lines, require_same_graph

if TYPE_CHECKING:  # decide imports solvers when it runs; reduce and witness never do
    from .solvers import SolveReport


class FormulaError(ValueError):
    """Malformed or structurally invalid formula."""


class AssignmentError(ValueError):
    """An assignment failed a precondition (wrong length, not 1-in-3)."""


class IncidenceBoundWarning(UserWarning):
    """The variable/clause incidence graph cannot be planar."""


class Formula(Immutable):
    """Monotone cubic 3-uniform formula; clauses hold 1-based variable ids."""

    _fields = ("variable_count", "clauses")
    variable_count: int
    clauses: tuple[frozenset[int], ...]
    slots: tuple[tuple[int, ...], ...]  # per variable: its clauses, ascending

    def __init__(self, variable_count: int, clauses: tuple[frozenset[int], ...]) -> None:
        n = variable_count
        if n < 3:
            raise FormulaError("a 3-uniform formula needs at least three variables")
        if len(clauses) != n:
            raise FormulaError(f"expected {n} clauses for {n} variables, got {len(clauses)}")
        occurs: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}  # var -> clauses
        for idx, clause in enumerate(clauses, 1):
            if len(clause) != 3:
                raise FormulaError(f"clause {idx} must have three distinct variables")
            for var in clause:
                if var not in occurs:
                    raise FormulaError(f"clause {idx}: variable {var} out of range 1..{n}")
                occurs[var].append(idx)
        for var, js in occurs.items():
            if len(js) != 3:
                raise FormulaError(f"variable {var} occurs in {len(js)} clauses, needs exactly 3")
        self.__dict__.update(variable_count=n, clauses=clauses,
                             slots=tuple(map(tuple, occurs.values())))


def parse_formula(text: str) -> Formula:
    """Parse a formula file; raises :class:`FormulaError` with line numbers."""
    lines = _content_lines(text)
    head, header = next(lines, (0, ""))
    if not head:
        raise FormulaError("empty formula file")
    parts = header.split()
    if len(parts) != 2:
        raise FormulaError(f"line {head}: header must be '<n> <m>'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormulaError(f"line {head}: header counts must be integers") from None
    found = sum(1 for _ in _content_lines(text)) - 1  # a count error precedes any line's
    if found != m:
        raise FormulaError(f"line {head}: expected {m} clause lines, found {found}")
    clauses = []
    for lineno, line in lines:
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
    formula = Formula(n, tuple(clauses))
    # A necessary condition only: a bipartite planar graph on 2n vertices has
    # at most 4n - 4 edges, and the incidence graph has 3n.  Since n >= 3,
    # this fails only at n = 3, whose one cubic formula has every clause
    # {1, 2, 3} (instances/sat3.f): that formula alone draws the warning.
    if 3 * n > 4 * n - 4:
        warnings.warn(f"incidence graph has 3n = {3 * n} edges > 2|V| - 4 = {4 * n - 4}; "
                      "it cannot be planar", IncidenceBoundWarning, stacklevel=2)
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
    """Exhaustive 1-in-3 oracle; guarded to small formulas.  k true variables
    fill 3k clause slots, one per clause, so k = n/3: only those subsets are
    tried (none if 3 does not divide n), ascending by the sum of 2^(i-1)
    over their true variables i."""
    n = formula.variable_count
    if n > 20:
        raise ValueError(f"exhaustive assignment search capped at 20 variables, got {n}")
    found = []
    subsets = combinations(range(n), n // 3) if n % 3 == 0 else ()
    for bits in sorted(sum(1 << i for i in trues) for trues in subsets):
        assignment = tuple(bool(bits >> i & 1) for i in range(n))
        if is_one_in_three(formula, assignment):
            found.append(assignment)
    return found


class ReductionInstance(Immutable):
    """The value of a formula at scale t (``ValueError`` below 2): equal
    (formula, t) give equal instances.  Its one gadget pass builds the core
    (the graph with each hub's leaves folded into a pendant) and the tables.

    ``blocks``, ``clause_blocks``, ``tags``, the accessors (variables and
    clauses 1-based) and the vertex tables hold core ids.  ``explicit_ids``
    maps each to its id in ``graph``, the explicit graph, which
    :func:`_unfold` builds from the core together with its ``roles`` on the
    first read of either, to be written out; above ``MAX_COMPILED_VERTICES``
    that read refuses."""

    _fields = ("formula", "t")
    formula: Formula
    t: int
    variable_count: int
    core: WeightedGraph
    blocks: tuple[tuple[int, ...], ...]  # per variable: (u, v, z, zp, w_1, w_2, w_3)
    clause_blocks: tuple[tuple[int, int], ...]  # per clause: (a, ap)
    explicit_ids: tuple[int, ...]  # per core vertex: its id in graph
    tags: tuple[str, ...]  # per core vertex: its role
    gadget_edge_order: tuple[int, ...]  # the core's edge ids, in check 6's order

    def __init__(self, formula: Formula, t: int) -> None:
        if t < 2:
            raise ValueError(f"scale t must be at least 2, got {t}")
        n = formula.variable_count
        edges, weights, pendants, tags, blocks, clause_blocks, ids = _gadgets(n, t, formula.slots)
        core = WeightedGraph.build(9 * n, edges, weights, pendants)
        self.__dict__.update(formula=formula, t=t, variable_count=n, core=core,
                             blocks=blocks, clause_blocks=clause_blocks, explicit_ids=ids,
                             tags=tags,
                             gadget_edge_order=tuple(core.edge_id(u, v) for u, v in edges))

    _written = cached_property(lambda self: _unfold(self))
    graph = property(lambda self: self._written[0])
    roles = property(lambda self: self._written[1])  # a tag per vertex of graph

    def explicit_mask(self, mask: SubgraphMask) -> SubgraphMask:
        """A mask over ``core`` as the same mask over ``graph``: the core's
        edges are the explicit graph's free edges, in the same order, and
        every leaf edge is kept."""
        require_same_graph(self.core, mask)
        kept = [True] * self.graph.edge_count
        for eid, keep in zip(self.graph.free_edge_ids, mask.kept):
            kept[eid] = keep
        return SubgraphMask(self.graph, kept)

    def u(self, i: int) -> int:
        return self.blocks[i - 1][0]

    def v(self, i: int) -> int:
        return self.blocks[i - 1][1]

    def z(self, i: int) -> int:
        return self.blocks[i - 1][2]

    def zp(self, i: int) -> int:
        return self.blocks[i - 1][3]

    def w(self, i: int, slot: int) -> int:
        return self.blocks[i - 1][3 + slot]

    def a(self, j: int) -> int:
        return self.clause_blocks[j - 1][0]

    def ap(self, j: int) -> int:
        return self.clause_blocks[j - 1][1]

    @cached_property
    def attachment_vertices(self) -> tuple[int, ...]:
        """The zp_i and ap_j vertices: the only non-leaves allowed nonzero
        discrepancy in a perfect solution."""
        return tuple(b[3] for b in self.blocks) + tuple(ap for _, ap in self.clause_blocks)

    @cached_property
    def designated_vertices(self) -> tuple[int, ...]:
        """Non-leaf vertices other than the attachment vertices, in id order;
        the infeasibility search bounds their discrepancies."""
        return (tuple(vid for b in self.blocks for vid in b[:3] + b[4:])
                + tuple(a for a, _ in self.clause_blocks))


# Above this many vertices the explicit graph is refused before anything is
# allocated, so reduce and witness refuse; decide, verify and witness_mask
# read only the core and run past it.  Reading ``.graph`` and a full-mask
# score of sat3 at t = 120 (174,996 vertices) peak at 175 traced bytes a
# vertex (x86_64, Python 3.11.7): the cap is some 175 MB.  From a checkout:
#   PYTHONPATH=src python -W ignore -c "import tracemalloc as tm, corrsubopt as c;
#   f = c.parse_formula(open('instances/sat3.f').read()); tm.start();
#   g = c.compile_formula(f, 120).graph; c.score(g, c.SubgraphMask.full(g));
#   print(tm.get_traced_memory()[1] // g.vertex_count)"
MAX_COMPILED_VERTICES = 1_000_000


def compile_formula(formula: Formula, t: int) -> ReductionInstance:
    """Build the weighted instance for ``formula`` at scale ``t`` (>= 2),
    as its 9n-vertex core (see :class:`ReductionInstance`)."""
    return ReductionInstance(formula, t)


def _gadgets(n: int, t: int, slots: tuple[tuple[int, ...], ...]) -> tuple:
    """(edges, weights, pendants, tags, blocks, clause_blocks, ids): the core
    in the vertex order of the module notes, each hub's leaves one (hub,
    count, weight) pendant, and its tables; ids[x] is the explicit graph's
    id of core vertex x, which the leaves of every earlier block precede.
    The edges come in the order check 6 branches on them: per variable
    v u, v z, z zp, then v w_l and w_l a_{r_l} for each slot l; then every
    clause's a ap."""
    tags: list[str] = []
    weights: list[int] = []  # WeightedGraph.build makes each one a Fraction
    pendants: list[tuple[int, int, int]] = []
    ids: list[int] = []
    folded = 0  # leaves of the blocks laid out so far
    blocks, clause_blocks = [], []
    for i in range(1, n + 1):
        u, _, z, zp, *ws = block = tuple(range(len(tags), len(tags) + 7))
        ids.extend(x + folded for x in block)
        tags += [f"u_{i}", f"v_{i}", f"z_{i}", f"zp_{i}", f"w_{i}_1", f"w_{i}_2", f"w_{i}_3"]
        weights += [7 * t, 4 * t, t, 4 * t, 3 * t, 3 * t, 3 * t]
        blocks.append(block)
        pendants += [(u, 3 * t, 7 * t + 1), (z, 3 * t, t - 1), (zp, 3 * t * t, 4 * t),
                     *((w, 1, 3 * t) for w in ws)]
        folded += 3 * t * t + 6 * t + 3
    for j in range(1, n + 1):
        a, ap = len(tags), len(tags) + 1
        ids += [a + folded, ap + folded]
        tags += [f"a_{j}", f"ap_{j}"]
        weights += [2 * t, t]
        clause_blocks.append((a, ap))
        pendants.append((ap, t * t, t))
        folded += t * t
    edges: list[tuple[int, int]] = []
    for (u, v, z, zp, *ws), clauses in zip(blocks, slots):
        edges += [(v, u), (v, z), (z, zp)]
        for w, j in zip(ws, clauses):
            edges += [(v, w), (w, clause_blocks[j - 1][0])]
    edges += clause_blocks
    return edges, weights, pendants, tuple(tags), tuple(blocks), tuple(clause_blocks), tuple(ids)


def _unfold(inst: ReductionInstance) -> tuple[WeightedGraph, tuple[str, ...]]:
    """The explicit graph and its roles, from the core: core vertex x becomes
    ``explicit_ids[x]``, and each pendant's leaves take the ids left over,
    ascending, in pendant order, tagged ``leaf_`` + the hub's tag.  Raises
    ``ValueError``, before allocating anything, above the cap."""
    n, t, core, tags, ids = inst.variable_count, inst.t, inst.core, inst.tags, inst.explicit_ids
    size = n * (4 * t * t + 6 * t + 12)
    if size > MAX_COMPILED_VERTICES:
        raise ValueError(f"n = {n}, t = {t} compiles to n(4t^2 + 6t + 12) = {size} vertices, "
                         f"over the cap of {MAX_COMPILED_VERTICES}")
    roles, weights = [None] * size, [None] * size
    for x, tag, weight in zip(ids, tags, core.weights):
        roles[x], weights[x] = tag, weight
    edges = [(ids[u], ids[v]) for u, v in core.edges]
    taken = set(ids)
    left = (x for x in range(size) if x not in taken)
    for hub, count, weight in core.pendants:
        tag, x = "leaf_" + tags[hub], ids[hub]
        for leaf in islice(left, count):
            roles[leaf], weights[leaf] = tag, weight
            edges.append((x, leaf))
    return WeightedGraph(size, tuple(sorted(edges)), tuple(weights)), tuple(roles)


def role_lines(inst: ReductionInstance) -> Iterator[str]:
    """The lines of a roles file, one at a time: "<vertex id> <role>" and a
    newline for each vertex of the explicit graph, in vertex order."""
    return (f"{vid} {role}\n" for vid, role in enumerate(inst.roles))


def witness_mask(inst: ReductionInstance, assignment: tuple[bool, ...]) -> SubgraphMask:
    """The canonical perfect-solution mask, over the core, for a 1-in-3
    satisfying assignment of the instance's formula
    (``ReductionInstance.explicit_mask`` writes it over the explicit graph).

    Keeps everything except, per true variable, the edge v_i z_i, and per
    false variable, the edges v_i w_i_j, z_i zp_i, and the cross edges of
    w_i_j.  Clause blocks stay intact; each a_j then sees exactly its one
    true neighbour.  Raises :class:`AssignmentError` unless the assignment
    is 1-in-3 satisfying.
    """
    if not is_one_in_three(inst.formula, assignment):
        raise AssignmentError("assignment does not satisfy exactly one variable per clause")
    mask = SubgraphMask.full(inst.core)
    order = inst.gadget_edge_order
    for i, true in enumerate(assignment):
        _, vz, *rest = order[9 * i:9 * i + 9]  # v u, v z, z zp, then v w_l, w_l a_{r_l}
        for eid in [vz] if true else rest:
            mask.set_edge(eid, False)
    return mask


class DecisionReport(NamedTuple):
    answer: str  # "YES" | "NO"
    threshold: float
    variable_count: int
    t: int
    solver: str  # "exact" | "local"
    core_report: SolveReport  # the solver's report on the compiled core: optimum, optimality
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


def decide(formula: Formula) -> DecisionReport:
    """Run the full decision pipeline at scale t = n^2.

    Compiles the formula, optimises the reduction objective (multiplier =
    variable count) on the instance's core, and answers YES iff the best
    score found reaches (17/2) n ln n.  The explicit graph is never built.
    The exact search starts from a local-search warm start (two restarts,
    seed 0), branches in :func:`~corrsubopt.solvers.breadth_first_order`
    and runs to the end, so it is ``proven``.  The core has 10n free edges:
    above ``DEFAULT_FREE_EDGE_CAP`` of them (n > 4) decide reports the warm
    start.  The report is a function of the formula alone.
    """
    from .solvers import DEFAULT_FREE_EDGE_CAP, breadth_first_order, solve_exact, solve_local

    n = formula.variable_count
    t = n * n
    core = compile_formula(formula, t).core
    warm = solve_local(core, restarts=2, seed=0, multiplier=n)
    if len(core.free_edge_ids) <= DEFAULT_FREE_EDGE_CAP:
        mode = "exact"
        report = solve_exact(core, initial_mask=warm.best_mask, multiplier=n,
                             order=breadth_first_order(core))
    else:
        mode = "local"
        report = warm
    threshold = float(THRESHOLD_COEFFICIENT) * n * math.log(n)
    answer = "YES" if report.best_score.value >= threshold else "NO"
    return DecisionReport(
        answer=answer,
        threshold=threshold,
        variable_count=n,
        t=t,
        solver=mode,
        core_report=report,
        notes=(COEFFICIENT_NOTE, ASYMPTOTIC_CAVEAT),
    )
