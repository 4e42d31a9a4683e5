"""Shared fixtures-adjacent helpers: pinned inputs, generators, oracles.

The scoring oracle here is deliberately naive: adjacency rebuilt per call,
means taken with Fractions, comparison rules restated from scratch.  Solver
tests trust it, not the package internals.
"""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
import types
import unittest.mock
import warnings
from fractions import Fraction

from corrsubopt import (
    Formula,
    GraphParseError,
    IncidenceBoundWarning,
    ScoreState,
    SubgraphMask,
    WeightedGraph,
    compare_scores,
    forced_edges,
    is_one_in_three,
    parse_formula,
    random_valid_mask,
    score,
)
from corrsubopt import verification
from corrsubopt.scoring import ScoreValue, log_degree_sum
from corrsubopt.solvers import _PRUNE_EPS, CompletionBound, FreeEdgeSearch

SAT3_TEXT = "3 3\n1 2 3\n1 2 3\n1 2 3\n"
UNSAT4_TEXT = "4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n"
# Unsatisfiable although 3 divides n, so the counting rule (3 x true
# variables = n) does not settle it: cubic_formula(random.Random(7000 + 31 * 6
# + 10), 6), written out.
UNSAT6_TEXT = "6 6\n2 4 5\n1 5 6\n1 3 4\n3 5 6\n2 4 6\n1 2 3\n"

P3_TEXT = "3 2\n0 0\n1 1\n2 2\n0 1\n1 2\n"
STAR_TEXT = "4 3\n0 0\n1 1\n2 1\n3 1\n0 1\n0 2\n0 3\n"
TRIANGLE_TEXT = "3 3\n0 0\n1 0\n2 10\n0 1\n0 2\n1 2\n"


def make_formula(text: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncidenceBoundWarning)
        return parse_formula(text)


def cubic_formula(rng: random.Random, n: int) -> Formula:
    """A random monotone cubic formula on n variables: the 3n variable
    incidences shuffled into n clauses, redrawn until no clause repeats a
    variable."""
    slots = [var for var in range(1, n + 1) for _ in range(3)]
    while True:
        rng.shuffle(slots)
        clauses = [frozenset(slots[i:i + 3]) for i in range(0, 3 * n, 3)]
        if all(len(clause) == 3 for clause in clauses):
            return Formula(n, tuple(clauses))


def prism_formula(m: int) -> Formula:
    """The prism formula on m variables, m even and at least 4: clause i is
    {y_{i-1}, y_i, y_{i+1}}, indices mod m, with y_i variable i + 1.  Its
    variable/clause incidence graph is the prism C_m x K2 (the cycle y_0,
    c_1, y_2, c_3, ..., the cycle c_0, y_1, c_2, ..., and the rungs y_i c_i),
    so it is planar."""
    if m < 4 or m % 2:
        raise ValueError(f"a prism formula needs an even m >= 4, got {m}")
    return Formula(m, tuple(frozenset((i + k) % m + 1 for k in (-1, 0, 1)) for i in range(m)))


def prism_assignments(m: int) -> list[tuple[bool, ...]]:
    """Every 1-in-3 satisfying assignment of ``prism_formula(m)``, in the
    order ``satisfying_assignments`` lists them.  Each window of three
    consecutive variables holds one true one, so an assignment repeats with
    period 3: y_i = [i mod 3 = r] for r = 0, 1, 2 when 3 divides m, and
    none otherwise."""
    return [tuple(i % 3 == r for i in range(m)) for r in range(3)] if m % 3 == 0 else []


def exhaustive_assignments(formula: Formula) -> list[tuple[bool, ...]]:
    """Every 1-in-3 satisfying assignment found by trying all 2^n, ascending
    by the sum of 2^(i-1) over the true variables i: the reference for
    ``satisfying_assignments``, which tries the n/3-subsets only."""
    n = formula.variable_count
    found = []
    for bits in range(1 << n):
        assignment = tuple(bool(bits >> i & 1) for i in range(n))
        if is_one_in_three(formula, assignment):
            found.append(assignment)
    return found


_WEIGHT_POOL = (-3, -1, 0, 1, 1, 2, 3, 5, 9, Fraction(1, 2), Fraction(7, 3))


def random_graph(
    rng: random.Random,
    *,
    min_vertices: int = 4,
    max_vertices: int = 8,
    max_free: int = 12,
) -> WeightedGraph:
    """Random connected weighted graph with at most ``max_free`` free edges."""
    while True:
        n = rng.randint(min_vertices, max_vertices)
        order = list(range(n))
        rng.shuffle(order)
        edges = set()
        for i in range(1, n):
            u, v = order[i], order[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        for _ in range(rng.randint(0, n)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        weights = [rng.choice(_WEIGHT_POOL) for _ in range(n)]
        graph = WeightedGraph.build(n, edges, weights)
        if len(edges) - len(forced_edges(graph)) <= max_free:
            return graph


# The benchmark's weights (bench/gen.py), restated: numerator over denominator.
_BENCH_NUMERATORS = tuple(range(-9, 10))
_BENCH_DENOMINATORS = (1, 1, 2, 3, 4, 5)


def grid_graph(rng: random.Random, rows: int, cols: int, *,
               diagonals: bool = False) -> WeightedGraph:
    """The ``rows`` x ``cols`` grid, vertex r * cols + c (row-major), with
    the diagonal (r, c)-(r + 1, c + 1) in every cell when ``diagonals``;
    both are planar.  With two or more rows and columns no vertex is a
    leaf, so every edge is free.  Weights are drawn as the benchmark's."""
    at = lambda r, c: r * cols + c
    edges = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    if diagonals:
        edges += [(at(r, c), at(r + 1, c + 1))
                  for r in range(rows - 1) for c in range(cols - 1)]
    weights = [Fraction(rng.choice(_BENCH_NUMERATORS), rng.choice(_BENCH_DENOMINATORS))
               for _ in range(rows * cols)]
    return WeightedGraph.build(rows * cols, edges, weights)


_MIXED_WEIGHTS = (Fraction(1, 2), Fraction(7, 3), Fraction(-5, 4), -2, 0, 1, 3)

KERNEL_SHAPES = ("core", "leaves", "hubs", "k2")


def kernel_graph(rng: random.Random, shape: str, *, max_core: int = 7) -> WeightedGraph:
    """Random graph with mixed-denominator weights: a connected core of 3 to
    ``max_core`` vertices, plus a few pendant host leaves for "leaves", one
    to four leaves on every core vertex for "hubs" (so the degrees a valid
    mask can give, and with them the common denominator, vary widely), or a
    lone K2 (empty core) for "k2"."""
    if shape == "k2":
        return WeightedGraph.build(2, [(0, 1)], [rng.choice(_MIXED_WEIGHTS) for _ in range(2)])
    n = rng.randint(3, max_core)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    if shape == "leaves":
        for leaf in range(n, n + rng.randint(1, 4)):
            edges.add((rng.randrange(n), leaf))
        n = max(v for _, v in edges) + 1
    elif shape == "hubs":
        leaf = n
        for hub in range(n):
            for _ in range(rng.randint(1, 4)):
                edges.add((hub, leaf))
                leaf += 1
        n = leaf
    return WeightedGraph.build(n, edges, [rng.choice(_MIXED_WEIGHTS) for _ in range(n)])


def naive_score(graph: WeightedGraph, kept: list[bool], multiplier: int | None = None):
    """(is_inf, value, log_degree_sum, S) computed from first principles."""
    n = graph.vertex_count
    if multiplier is None:
        multiplier = n
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(graph.edges):
        if kept[eid]:
            neighbours[u].append(v)
            neighbours[v].append(u)
    assert all(neighbours[v] for v in range(n)), "mask must be valid"
    total = Fraction(0)
    log_sum = 0.0
    for v in range(n):
        deg = len(neighbours[v])
        log_sum += math.log(deg)
        mean = Fraction(sum(graph.weights[u] for u in neighbours[v]), deg)
        total += deg * (graph.weights[v] - mean) ** 2
    if total == 0:
        return True, math.inf, log_sum, total
    return False, log_sum - multiplier * math.log(float(total)), log_sum, total


def naive_compare(a, b) -> int:
    """Restates the ordering: +inf first, then log-degree sum among
    infinities; finite scores by value, with exactly equal log-degree sums
    settled by the smaller discrepancy total."""
    a_inf, a_val, a_log, a_s = a
    b_inf, b_val, b_log, b_s = b
    if a_inf or b_inf:
        if a_inf and b_inf:
            return (a_log > b_log) - (a_log < b_log)
        return 1 if a_inf else -1
    if a_log == b_log:
        return (b_s > a_s) - (b_s < a_s)
    return (a_val > b_val) - (a_val < b_val)


def enumerate_valid_bitlists(graph: WeightedGraph):
    """Every valid mask as a list[bool]; forced edges are always kept since
    dropping one isolates its leaf endpoint."""
    forced = forced_edges(graph)
    free = [eid for eid in range(graph.edge_count) if eid not in forced]
    for bits in itertools.product((True, False), repeat=len(free)):
        kept = [True] * graph.edge_count
        for eid, keep in zip(free, bits):
            kept[eid] = keep
        degs = [0] * graph.vertex_count
        for eid, (u, v) in enumerate(graph.edges):
            if kept[eid]:
                degs[u] += 1
                degs[v] += 1
        if all(d >= 1 for d in degs):
            yield kept


def brute_force_best(graph: WeightedGraph, multiplier: int | None = None):
    """(score tuple, bitstring) of the enumeration winner under the stated
    ordering, ties to the lexicographically smallest bitstring."""
    best = None
    best_bits = None
    for kept in enumerate_valid_bitlists(graph):
        cand = naive_score(graph, kept, multiplier)
        bits = "".join("1" if k else "0" for k in kept)
        if best is None:
            best, best_bits = cand, bits
            continue
        cmp = naive_compare(cand, best)
        if cmp > 0 or (cmp == 0 and bits < best_bits):
            best, best_bits = cand, bits
    assert best is not None
    return best, best_bits


def plain_local_search(graph: WeightedGraph, *, restarts: int, seed: int,
                       multiplier: int | None = None, max_passes: int = 10_000):
    """(mask, score, candidates evaluated) of steepest-ascent local search
    with every candidate scored through ``ScoreState.peek``: the unscreened
    scan that ``solve_local`` must reproduce exactly."""
    rng = random.Random(seed)
    starts = [SubgraphMask.full(graph)]
    starts.extend(random_valid_mask(graph, rng) for _ in range(restarts))
    best = None
    evaluations = 0
    for start in starts:
        state = ScoreState(graph, start, multiplier=multiplier)
        current = state.score()
        for _ in range(max_passes):
            best_eid, best_keep, best_cand = -1, False, None
            for eid in graph.free_edge_ids:
                keep = not state.mask.kept[eid]
                if not keep and not state.can_remove(eid):
                    continue
                cand = state.peek(eid, keep)
                evaluations += 1
                if best_cand is None or compare_scores(cand, best_cand) > 0:
                    best_eid, best_keep, best_cand = eid, keep, cand
            if best_cand is None or compare_scores(best_cand, current) <= 0:
                break
            current = state.toggle(best_eid, best_keep)
        key = state.mask.lex_key()
        if best is None:
            best = (state.mask.copy(), current, key)
            continue
        cmp = compare_scores(current, best[1])
        if cmp > 0 or (cmp == 0 and key < best[2]):
            best = (state.mask.copy(), current, key)
    return best[0], best[1], evaluations


def plain_random_valid_mask(graph: WeightedGraph, rng: random.Random) -> SubgraphMask:
    """The sampler drawn over every edge: a forced edge is kept without a
    draw, each other edge takes one ``rng.random()`` in ascending id, the
    mask is recounted, and every vertex left isolated is repaired in vertex
    order.  ``random_valid_mask`` must make the same draws."""
    forced = forced_edges(graph)
    kept = [eid in forced or rng.random() < 0.5 for eid in range(graph.edge_count)]
    mask = SubgraphMask(graph, kept)
    for vtx in range(graph.vertex_count):
        if mask.degrees[vtx] == 0:
            _, eid = rng.choice(graph.incidence[vtx])
            mask.set_edge(eid, True)
    return mask


def traced_peak(fn) -> int:
    """The ``tracemalloc`` peak, in bytes, of calling ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_load_graph(text: str) -> WeightedGraph:
    """``load_graph`` as a parser that first lists every content line and
    keeps a set of the edges it has read, so each diagnostic is plainly the
    first in file order: the header, then the line count, then each line in
    turn (a repeated edge at its second line), then the graph's own checks.
    ``load_graph`` reads the lines once and keeps neither list nor set; it
    must give the same graph or the same message and line."""
    lines = [(no, line) for no, line in enumerate(map(str.strip, text.splitlines()), 1)
             if line and line[0] != "#"]
    if not lines:
        raise GraphParseError("empty instance file")
    head, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphParseError("header must be '<vertex_count> <edge_count>'", head)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError("header counts must be integers", head) from None
    if n <= 0 or m < 0:
        raise GraphParseError("vertex count must be positive, edge count non-negative", head)
    if len(lines) != 1 + n + m:
        raise GraphParseError(
            f"expected {n} vertex lines and {m} edge lines, found {len(lines) - 1}", head)
    weights: list = [None] * n
    for no, line in lines[1:1 + n]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("vertex line must be '<vertex_id> <weight>'", no)
        try:
            vid = int(parts[0])
        except ValueError:
            raise GraphParseError(f"invalid vertex id {parts[0]!r}", no) from None
        if not 0 <= vid < n:
            raise GraphParseError(f"vertex id {vid} out of range 0..{n - 1}", no)
        if weights[vid] is not None:
            raise GraphParseError(f"duplicate vertex id {vid}", no)
        if "e" in parts[1] or "E" in parts[1]:
            raise GraphParseError(f"invalid rational weight {parts[1]!r}", no)
        try:
            weights[vid] = Fraction(parts[1])
        except (ValueError, ZeroDivisionError):
            raise GraphParseError(f"invalid rational weight {parts[1]!r}", no) from None
    seen: set[tuple[int, int]] = set()
    for no, line in lines[1 + n:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("edge line must be '<u> <v>'", no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("edge endpoints must be integers", no) from None
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", no)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"edge ({u}, {v}) out of range", no)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(f"duplicate edge {key}", no)
        seen.add(key)
    try:
        return WeightedGraph(n, tuple(sorted(seen)), tuple(weights))
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None


class _Abort(Exception):
    pass


def recursive_search(dfs: FreeEdgeSearch, root, child, leaf, node_limit: int | None = None) -> bool:
    """``dfs.run`` written as one recursive call per free edge, on the same
    lists: ``FreeEdgeSearch.run`` must make the same ``child`` and ``leaf``
    calls, in the same order and with the same lists, count the same nodes
    and return the same value.  Recursion caps the depth near Python's
    recursion limit, so this suits small graphs only."""
    edges, order, depth = dfs.graph.edges, dfs.order, len(dfs.order)
    _, weights = dfs.graph.scaled_weights
    kept_deg, und_deg, nbr_sum, kept = dfs.kept_deg, dfs.und_deg, dfs.nbr_sum, dfs.kept
    nodes = 0

    def search(pos: int, state) -> bool:
        nonlocal nodes
        if pos == depth:
            return leaf(state)
        eid = order[pos]
        u, v = edges[eid]
        for keep in (True, False):
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                raise _Abort
            kept[eid] = keep
            if keep:
                kept_deg[u] += 1
                kept_deg[v] += 1
                nbr_sum[u] += weights[v]
                nbr_sum[v] += weights[u]
            und_deg[u] -= 1
            und_deg[v] -= 1
            if (und_deg[u] or kept_deg[u]) and (und_deg[v] or kept_deg[v]):
                sub = child(state, pos + 1, u, v, keep)
                if sub is not None and search(pos + 1, sub):
                    return True
            und_deg[u] += 1
            und_deg[v] += 1
            if keep:
                kept_deg[u] -= 1
                kept_deg[v] -= 1
                nbr_sum[u] -= weights[v]
                nbr_sum[v] -= weights[u]
        return False

    try:
        search(0, root)
    except _Abort:
        return False
    finally:
        dfs.nodes = nodes
    return True


def plain_low_discrepancy_search(inst):
    """(mask or None, nodes) of the check-6 search that cuts only
    on finalised vertices: a designated vertex is tested once all its edges
    are decided.  ``find_low_discrepancy_mask`` must find the same mask in
    at most as many nodes."""
    g = inst.core
    scale, weights = g.scaled_weights
    designated = set(inst.designated_vertices)
    dfs = FreeEdgeSearch(g, inst.gadget_edge_order)
    kept_deg, und_deg, nbr_sum = dfs.kept_deg, dfs.und_deg, dfs.nbr_sum
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

    def child(state, depth, u, v, keep):
        if (und_deg[u] or finalised_ok(u)) and (und_deg[v] or finalised_ok(v)):
            return state
        return None

    found = None

    def leaf(state) -> bool:
        nonlocal found
        found = dfs.mask()
        return True

    dfs.run(True, child, leaf)
    return found, dfs.nodes


def low_discrepancy_bound(graph: WeightedGraph, order, t: int):
    """(bound, limit) of check 6's look-ahead, as the test side writes it: a
    vertex in state (x, k, s, u) can still end below discrepancy t^2/9 iff
    ``bound[x, k, s, u] < limit``, the completion bound under weights
    9 c[d]^2 against (L t m)^2."""
    scale, _ = graph.scaled_weights
    denominator, cofactors = graph.discrepancy_scale
    bound = CompletionBound(graph, order, {d: 9 * c * c for d, c in cofactors.items()})
    return bound, (t * denominator // scale) ** 2


def tail_span(graph: WeightedGraph, order, x: int, u: int) -> tuple[list[int], list[int]]:
    """(lows, highs) by brute force: for j = 0..u, the sums of the j smallest
    and of the j largest W weights across x's last u edges in ``order``."""
    _, weights = graph.scaled_weights
    across = [weights[a + b - x] for eid in order
              for a, b in [graph.edges[eid]] if x in (a, b)]
    rest = sorted(across[len(across) - u:])
    return ([sum(rest[:j]) for j in range(u + 1)],
            [sum(rest[len(rest) - j:]) for j in range(u + 1)])


def any_degree_below(graph: WeightedGraph, order, t: int, x: int, k: int, s: int,
                     u: int) -> bool:
    """Check 6's look-ahead rule as first stated: some final degree
    d = k + j of x has 9 gap^2 < (L t d)^2, gap being the distance from
    W_x d - s to [lows[j], highs[j]] of :func:`tail_span`."""
    scale, weights = graph.scaled_weights
    lows, highs = tail_span(graph, order, x, u)
    for j in range(u + 1):
        d = k + j
        target = weights[x] * d - s
        gap = (0 if lows[j] <= target <= highs[j]
               else min(abs(target - lows[j]), abs(target - highs[j])))
        if d and 9 * gap * gap < (scale * t * d) ** 2:
            return True
    return False


def search_admits(graph: WeightedGraph, order, t: int, x: int, k: int, s: int,
                  u: int) -> bool:
    """Whether ``find_low_discrepancy_mask`` itself lets a designated vertex
    x in state (k, s, u) go on.  The search runs on ``graph`` with x the one
    designated vertex, from a root where x has that state; its search
    engine is replaced by one that only records whether the root test let
    the search start."""
    started = []

    class Probe(FreeEdgeSearch):
        def __init__(self, graph, order):
            super().__init__(graph, order)
            self.kept_deg[x], self.nbr_sum[x], self.und_deg[x] = k, s, u

        def run(self, root, child, leaf, node_limit=None):
            started.append(True)
            return True

    inst = types.SimpleNamespace(core=graph, gadget_edge_order=order, t=t,
                                 designated_vertices=(x,))
    with unittest.mock.patch.object(verification, "FreeEdgeSearch", Probe):
        verification.find_low_discrepancy_mask(inst)
    return bool(started)


def plain_branch_and_bound(graph: WeightedGraph, order, *, multiplier: int | None = None,
                           initial_mask: SubgraphMask | None = None):
    """(mask, score, nodes) of the branch and bound that cuts on the
    completion bound alone, in ``order``, to a proof.  ``solve_exact`` must
    return the same mask and score in at most as many nodes."""
    mult = graph.vertex_count if multiplier is None else multiplier
    _, weights = graph.scaled_weights
    denominator, _ = graph.discrepancy_scale
    dfs = FreeEdgeSearch(graph, order)
    kept_deg, und_deg, nbr_sum = dfs.kept_deg, dfs.und_deg, dfs.nbr_sum
    logs = [0.0] + [math.log(d) for d in range(1, max(graph.degrees) + 1)]
    bound = CompletionBound(graph, order, graph.discrepancy_scale[1])
    inc_mask = SubgraphMask.full(graph)
    inc_score, inc_key = score(graph, inc_mask, multiplier=mult), inc_mask.lex_key()
    if initial_mask is not None:
        cand, key = score(graph, initial_mask, multiplier=mult), initial_mask.lex_key()
        cmp = compare_scores(cand, inc_score)
        if cmp > 0 or (cmp == 0 and key < inc_key):
            inc_mask, inc_score, inc_key = initial_mask.copy(), cand, key

    def child(state, depth, u, v, keep):
        total, log_sum = state
        ku, su, uu = kept_deg[u], nbr_sum[u], und_deg[u]
        kv, sv, uv = kept_deg[v], nbr_sum[v], und_deg[v]
        if keep:
            total -= (bound[u, ku - 1, su - weights[v], uu + 1]
                      + bound[v, kv - 1, sv - weights[u], uv + 1])
        else:
            total -= bound[u, ku, su, uu + 1] + bound[v, kv, sv, uv + 1]
            log_sum += logs[ku + uu] - logs[ku + uu + 1] + logs[kv + uv] - logs[kv + uv + 1]
        total += bound[u, ku, su, uu] + bound[v, kv, sv, uv]
        if total:
            if log_sum - mult * math.log(total / denominator) < inc_score.value - _PRUNE_EPS:
                return None
        elif (log_sum < inc_score.log_degree_sum - _PRUNE_EPS
              and compare_scores(inc_score, ScoreValue.from_parts(log_sum, 0, 1, mult)) > 0):
            return None
        return total, log_sum

    def leaf(state) -> bool:
        nonlocal inc_mask, inc_score, inc_key
        cand = ScoreValue.from_parts(
            log_degree_sum(graph, kept_deg), state[0], denominator, mult)
        cmp = compare_scores(cand, inc_score)
        if cmp >= 0:
            mask = dfs.mask()
            key = mask.lex_key()
            if cmp > 0 or key < inc_key:
                inc_mask, inc_score, inc_key = mask, cand, key
        return False

    root = (bound.total(kept_deg, und_deg, nbr_sum), log_degree_sum(graph, graph.degrees))
    dfs.run(root, child, leaf)
    return inc_mask, score(graph, inc_mask, multiplier=mult), dfs.nodes



def plain_roles(n: int, t: int) -> list[str]:
    """The role tags of an n-variable instance at scale t in vertex order,
    one string per leaf, written out from the construction's text."""
    roles = []
    for i in range(1, n + 1):
        roles += [f"u_{i}", f"v_{i}", f"z_{i}", f"zp_{i}", f"w_{i}_1", f"w_{i}_2", f"w_{i}_3"]
        roles += [f"leaf_u_{i}" for _ in range(3 * t)] + [f"leaf_z_{i}" for _ in range(3 * t)]
        roles += [f"leaf_zp_{i}" for _ in range(3 * t * t)]
        roles += [f"leaf_w_{i}_{slot}" for slot in (1, 2, 3)]
    for j in range(1, n + 1):
        roles += [f"a_{j}", f"ap_{j}"] + [f"leaf_ap_{j}" for _ in range(t * t)]
    return roles


def role(inst, tag: str) -> int:
    """The core id of the vertex with this tag, such as ``"zp_1"``."""
    return inst.tags.index(tag)


class PlainGadget:
    """A compiled instance's gadget structure derived from its role strings
    alone: vertices looked up by tag, leaves and designated vertices found by
    scanning for the ``leaf_`` prefix, and each w vertex's clause read off its
    ``a_`` neighbour in the graph.  ``ReductionInstance``'s tables must give
    the same answers."""

    def __init__(self, inst):
        self.inst = inst
        self.role_index = {role: vid for vid, role in enumerate(inst.roles)
                           if not role.startswith("leaf_")}

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
        roles = self.inst.roles
        (clause,) = [int(roles[x][2:]) for x, _ in self.inst.graph.incidence[self.w(i, slot)]
                     if roles[x].startswith("a_")]
        return clause

    def leaves(self) -> tuple[int, ...]:
        return tuple(vid for vid, role in enumerate(self.inst.roles) if role.startswith("leaf_"))

    def attachment_vertices(self) -> tuple[int, ...]:
        n = self.inst.variable_count
        return (tuple(self.zp(i) for i in range(1, n + 1))
                + tuple(self.ap(j) for j in range(1, n + 1)))

    def designated_vertices(self) -> tuple[int, ...]:
        skip = set(self.attachment_vertices())
        return tuple(vid for vid, role in enumerate(self.inst.roles)
                     if not role.startswith("leaf_") and vid not in skip)

    def gadget_edge_order(self) -> tuple[int, ...]:
        g, n = self.inst.graph, self.inst.variable_count
        order = []
        for i in range(1, n + 1):
            v = self.v(i)
            order.append(g.edge_id(v, self.u(i)))
            order.append(g.edge_id(v, self.z(i)))
            order.append(g.edge_id(self.z(i), self.zp(i)))
            for slot in (1, 2, 3):
                w = self.w(i, slot)
                order.append(g.edge_id(v, w))
                order.append(g.edge_id(w, self.a(self.slot_clause(i, slot))))
        for j in range(1, n + 1):
            order.append(g.edge_id(self.a(j), self.ap(j)))
        return tuple(order)

ACCEPTANCE_LINES: list[str] = []
