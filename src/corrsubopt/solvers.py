"""Solvers for the subgraph score: exact branch and bound, and local search.

Both return a :class:`SolveReport`, a function of the inputs (and seed).
Ties on score always break toward the lexicographically smallest kept-edge
bitstring.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .graph import SubgraphMask, WeightedGraph
from .scoring import ScoreState, ScoreValue, compare_scores, log_degree_sum, log_quotient, score


class SearchSpaceError(ValueError):
    """Exact search refused: too many free edges and no node budget given."""


class SolveReport(NamedTuple):
    best_mask: SubgraphMask
    best_score: ScoreValue
    nodes_explored: int
    optimality: str  # "proven" | "heuristic"


def _beats(cand: ScoreValue, cand_key: bytes, inc: ScoreValue, inc_key: bytes) -> bool:
    cmp = compare_scores(cand, inc)
    return cmp > 0 or (cmp == 0 and cand_key < inc_key)


# Safety margin on the prune test: the bound and the incumbent value are
# floats accumulated in different orders, so an exact >= comparison could
# cut a branch holding an equal-or-better mask.  Real score gaps in play
# are far larger than this.
_PRUNE_EPS = 1e-6

DEFAULT_FREE_EDGE_CAP = 40
MAX_PASSES = 10_000  # local-search steps per start


class FreeEdgeSearch:
    """Depth-first search over the free edges of a graph, keep before drop.

    Forced edges are pre-kept and the free edges in ``order`` are decided
    one per level.  Per vertex the search holds the kept degree, the
    undecided degree and the int sum s of the kept neighbours' scaled
    weights W (``WeightedGraph.scaled_weights``); callers read these lists
    from their hooks.  A branch that leaves a fully decided vertex with no
    kept edge is cut before any hook sees it.  :meth:`key` reads the state
    of the frontier: the vertices with free edges on both sides of a depth.
    """

    def __init__(self, graph: WeightedGraph, order: Sequence[int]):
        self.graph = graph
        self.order = order
        self.kept_deg = graph.forced_degrees()
        self.und_deg = und = [0] * graph.vertex_count
        self.nbr_sum = list(graph.forced_nbr_sums)
        self.kept = kept = [True] * graph.edge_count
        self.nodes = 0
        for eid in graph.free_edge_ids:
            kept[eid] = False
        for eid in order:
            u, v = graph.edges[eid]
            und[u] += 1
            und[v] += 1
        self._frontier_values: list = []
        self._frontiers = self._sweep()

    def _sweep(self):
        """Yield, depth by depth and only as far as :meth:`key` asks, a getter
        of the vertices with a free edge among order[:d] and one among order[d:]."""
        edges = self.graph.edges
        last = {x: pos for pos, eid in enumerate(self.order) for x in edges[eid]}
        active: set[int] = set()
        yield lambda values: ()
        for pos, eid in enumerate(self.order):
            for x in edges[eid]:
                if last[x] == pos:
                    active.discard(x)
                else:
                    active.add(x)
            yield itemgetter(*sorted(active)) if active else lambda values: ()

    def mask(self) -> SubgraphMask:
        """The mask of the current leaf: forced and kept free edges.  Every
        edge in ``order`` is set on the path to a leaf, so no entry is stale."""
        return SubgraphMask.from_parts(self.graph, list(self.kept), list(self.kept_deg))

    def key(self, depth: int) -> tuple:
        """The kept degrees and the kept-neighbour sums of the frontier
        vertices, ``depth`` free edges into the order.  The state a
        completion of order[depth:] meets depends on the decided edges only
        through this key: every other vertex has either all its free edges
        decided or none."""
        while len(self._frontier_values) <= depth:
            self._frontier_values.append(next(self._frontiers))
        values = self._frontier_values[depth]
        return values(self.kept_deg), values(self.nbr_sum)

    def run(self, root, child, leaf, node_limit: int | None = None) -> bool:
        """Search once from the state ``root``.

        ``child(state, depth, u, v, keep)`` is called once the edge (u, v)
        at ``order[depth - 1]`` has been decided, with the lists already
        updated, and returns the child's state or None to cut the branch.
        ``leaf(state)`` is called at each full assignment and returns True
        to stop the search.  Each child counts as one node in
        ``self.nodes``; returns False when the count passes ``node_limit``,
        True otherwise.  ``states[pos]`` and ``tried[pos]`` are level pos's
        state and branches taken (0 to 2); at an abort they hold the open path.
        """
        edges, order, depth = self.graph.edges, self.order, len(self.order)
        _, weights = self.graph.scaled_weights
        kept_deg, und_deg, nbr_sum, kept = self.kept_deg, self.und_deg, self.nbr_sum, self.kept
        if not depth:
            leaf(root)
        states, tried = [root], [0]
        pos = nodes = 0
        while 0 <= pos < depth:
            eid = order[pos]
            u, v = edges[eid]
            branch = tried[pos]
            if branch:
                und_deg[u] += 1
                und_deg[v] += 1
                if branch == 2:  # both taken: the edge is undecided again
                    del states[pos], tried[pos]
                    pos -= 1
                    continue
                kept_deg[u] -= 1  # the drop undoes the keep
                kept_deg[v] -= 1
                nbr_sum[u] -= weights[v]
                nbr_sum[v] -= weights[u]
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                self.nodes = nodes
                return False
            tried[pos] = branch + 1
            keep = kept[eid] = not branch
            if keep:
                kept_deg[u] += 1
                kept_deg[v] += 1
                nbr_sum[u] += weights[v]
                nbr_sum[v] += weights[u]
            und_deg[u] -= 1
            und_deg[v] -= 1
            if (und_deg[u] or kept_deg[u]) and (und_deg[v] or kept_deg[v]):
                sub = child(states[pos], pos + 1, u, v, keep)
                if sub is not None and pos + 1 < depth:
                    states.append(sub)
                    tried.append(0)
                    pos += 1
                elif sub is not None and leaf(sub):
                    break
        self.nodes = nodes
        return True


class CompletionBound(dict):
    """Per vertex, a lower bound on its int share (W_x d - s)^2 c[d] over
    the completions of its undecided edges, for a search in branching
    ``order`` and per-degree weights c (``cofactors``, a dict over every
    final degree).  With c = ``WeightedGraph.discrepancy_scale[1]`` the
    share is the vertex's part of S * D; the check-6 search passes 9 c^2.

    The instance is a memo: ``self[x, k, s, u]`` is :meth:`bound`, computed
    on first lookup, so a search node pays a dict lookup per endpoint.
    """

    def __init__(self, graph: WeightedGraph, order: Sequence[int], cofactors: dict[int, int]):
        super().__init__()
        self.weights = weights = graph.scaled_weights[1]
        self.cofactors = cofactors
        self.core, self.leaf_numerator = graph.core_vertices, graph.leaf_numerator
        self.tails = tails = [[] for _ in range(graph.vertex_count)]
        for eid in order:
            a, b = graph.edges[eid]
            tails[a].append(weights[b])
            tails[b].append(weights[a])

    def __missing__(self, key: tuple[int, int, int, int]) -> int:
        value = self[key] = self.bound(*key)
        return value

    def ends(self, x: int, k: int, s: int, u: int) -> Iterator[tuple[int, int, int]]:
        """Yield (d, above, below) for each final degree d = k + j >= 1, j
        ascending, of a vertex x of kept degree k, kept-neighbour sum s and
        u undecided edges (k + u >= 1): the interval argument of every
        completion bound.  Whichever j undecided neighbours x keeps, their
        W sum lies between low_j and high_j, the sums of the j smallest and
        of the j largest of their weights, so W_x d - s less it lies in
        [above, -below], above = W_x d - s - high_j and below = low_j -
        (W_x d - s), both ends reached.  Its distance from 0 is at least
        max(above, below, 0) and at most max(|above|, |below|).  Edges are
        decided in ``order``, so the undecided neighbours of x are those
        across its last u free edges in that order.
        """
        tail = self.tails[x]
        rest = sorted(tail[len(tail) - u:])  # tail[-0:] would be all of it
        wx = self.weights[x]
        d, target, low, high = k, wx * k - s, 0, 0  # target = W_x d - s
        if d:
            yield d, target, -target
        for small, large in zip(rest, reversed(rest)):
            d, target, low, high = d + 1, target + wx, low + small, high + large
            yield d, target - high, low - target

    def bound(self, x: int, k: int, s: int, u: int) -> int:
        """The bound on x's share: over its final degrees d, the least of
        c[d] times the squared distance from 0 of :meth:`ends`' interval,
        which is at most the share of every completion; exact at u = 0."""
        c = self.cofactors
        return min(max(above, below, 0) ** 2 * c[d] for d, above, below in self.ends(x, k, s, u))

    def total(self, kept_deg, und_deg, nbr_sum) -> int:
        """The bound on S * D, for c = ``discrepancy_scale[1]``: the sum of
        every vertex's bound.  A host leaf keeps its one edge, which is
        forced, so its bound is its exact share; the leaves' shares add up
        to ``WeightedGraph.leaf_numerator``."""
        bound = self.bound
        return self.leaf_numerator + sum(bound(x, kept_deg[x], nbr_sum[x], und_deg[x])
                                         for x in self.core)


def breadth_first_order(graph: WeightedGraph) -> tuple[int, ...]:
    """The free edge ids in breadth-first order over the free edges.

    The walk starts at the lowest vertex with a free edge and takes each
    vertex's free edges in ascending id; an edge is placed when its first
    endpoint is taken.  When a component runs out it restarts at the lowest
    vertex with a free edge not yet reached.  On the paper's gadget graphs
    this keeps the search frontier narrow, so :func:`solve_exact` proves
    their optimum in fewer nodes than it does in a gadget-by-gadget order.
    """
    edges, free_incidence = graph.edges, graph.free_incidence
    order: list[int] = []
    placed: set[int] = set()
    reached: set[int] = set()
    for start in free_incidence:  # ascending
        if start in reached:
            continue
        reached.add(start)
        queue = [start]
        for x in queue:  # the loop also visits what it appends
            for eid in free_incidence[x]:
                if eid not in placed:
                    placed.add(eid)
                    order.append(eid)
                    u, v = edges[eid]
                    y = v if u == x else u
                    if y not in reached:
                        reached.add(y)
                        queue.append(y)
    return tuple(order)


def solve_exact(
    graph: WeightedGraph,
    *,
    node_limit: int | None = None,
    initial_mask: SubgraphMask | None = None,
    multiplier: int | None = None,
    order: Sequence[int] | None = None,
) -> SolveReport:
    """Branch and bound over the non-forced edges.

    Edges incident to degree-1 vertices are pre-kept (every valid mask keeps
    them).  Branching follows the free edges in ``order``, a permutation of
    ``graph.free_edge_ids`` (default: descending weight gap |f(u) - f(v)|),
    trying "keep" before "drop".  A branch is cut when even its most
    optimistic completion cannot beat the incumbent: the bound adds every
    undecided edge to the degree term, and takes S * D as the sum of the
    vertices' :class:`CompletionBound`.  S * D is a sum of per-vertex
    shares, each at least its own vertex's completion minimum, so that sum
    is at most S * D in every completion; both parts only overstate the
    score.  A finalised vertex's bound is its exact share, so a leaf's total
    is exact S * D, and with its log sum over the core vertices it gives the
    leaf's mask the score that ``score`` gives it, bit for bit.

    Scores come from the integer kernel in ``scoring``: neighbour sums are
    ints over the scaled weights W, shares are ints over the denominator D
    of ``WeightedGraph.discrepancy_scale``, and both log-degree sums (the
    bound's and a leaf's) run over the core vertices only.  The search runs
    on :class:`FreeEdgeSearch`, with (S * D bound, bound's log-degree sum)
    as the state of each node; the bound reads S as the float (S * D) / D,
    and only a leaf builds a ``Fraction``.

    A node is also cut when an entered node dominates it (Ibaraki's
    dominance test).  Once order[:depth] is decided, every vertex outside
    the frontier has either all its free edges decided or none, so two
    nodes at one depth with the same :meth:`FreeEdgeSearch.key` have the
    same valid completions, the same bound B0 on their open vertices' share
    (a node's total is F + B0, F being its finalised vertices' exact
    share), and in each completion the same open share R' >= B0, so that
    S * D = F + R'; their log-degree sums differ by exactly the difference
    of their log sums.  Per depth and key the search keeps the (total, log
    sum) pairs of the nodes it has entered, less any that a later pair
    matched or beat on both (those cut nothing the later one does not), and
    cuts a new node (total, log sum) when one of them (pt, pl) has
    pl >= log sum + ``_PRUNE_EPS`` and either pt <= total, or
    pt > total > 0 and pl >= log sum + C ln(pt / total) + ``_PRUNE_EPS``.
    In the first case each completion of the new node has S at most, and a
    log-degree sum strictly below, that of the same completion of the
    earlier node.  In the second, F_A > F_B for the earlier node A and the
    new node B, and F_B + R' >= total > 0, so the ratio
    (F_A + R') / (F_B + R') of their completions' S falls as R' grows and
    is at most pt / total, its value at R' = B0; A's completion then scores
    at least pl - log sum - C ln(pt / total) >= ``_PRUNE_EPS`` above B's,
    both finite.  Either way the new node's completions score strictly
    lower, given C >= 0 (as the bound also assumes; :class:`ScoreState`
    refuses C < 0 with ``ValueError``); the float log sums and logarithms
    are off by far less than the margin.  With total = 0 the ratio is
    unbounded and a completion of the new node may reach S = 0, so only
    the first case applies.  The earlier node's subtree is finished, since the search is
    depth first, and each of its completions was reached or cut as unable
    to beat the incumbent; so the incumbent already beats every completion
    of the new node strictly, and the cut can neither replace it nor settle
    a tie.  Masks, values and S are those of the search without this cut;
    only the node count falls.

    Without ``node_limit`` the search refuses graphs with more than
    ``DEFAULT_FREE_EDGE_CAP`` free edges; with one it runs best effort and
    reports ``optimality="heuristic"`` if the budget runs out.  The budget
    aborts the whole search, leaving open subtrees that neither cut has
    ruled out, so a truncated run is never ``proven``, dominance or not.
    """
    # Incumbent: the full mask is always valid; an initial mask can only help.
    full = ScoreState(graph, SubgraphMask.full(graph), multiplier=multiplier)
    mult, inc_mask, inc_score = full.multiplier, full.mask, full.score()
    free = graph.free_edge_ids
    if node_limit is None and len(free) > DEFAULT_FREE_EDGE_CAP:
        raise SearchSpaceError(
            f"{len(free)} free edges exceed the exact-search cap of {DEFAULT_FREE_EDGE_CAP}; "
            "pass a node limit to search best-effort"
        )
    _, weights = graph.scaled_weights
    denominator, cofactors = graph.discrepancy_scale
    if order is None:
        # W = L * f, so ordering by |W_u - W_v| is ordering by |f(u) - f(v)|.
        order = sorted(
            free,
            key=lambda eid: (
                -abs(weights[graph.edges[eid][0]] - weights[graph.edges[eid][1]]),
                eid,
            ),
        )
    elif sorted(order) != list(free):
        raise ValueError("order must be a permutation of the graph's free edge ids")
    dfs = FreeEdgeSearch(graph, order)
    kept_deg, und_deg, nbr_sum = dfs.kept_deg, dfs.und_deg, dfs.nbr_sum
    logs = {d: math.log(d) for d in cofactors}  # every k + u of a node is a valid degree
    bound = CompletionBound(graph, order, cofactors)

    inc_key = inc_mask.lex_key()
    # At the root every vertex's kept plus undecided degree is its host
    # degree: the full mask's log-degree sum.
    root = (bound.total(kept_deg, und_deg, nbr_sum), inc_score.log_degree_sum)
    if initial_mask is not None:
        cand_score = score(graph, initial_mask, multiplier=mult)
        cand_key = initial_mask.lex_key()
        if _beats(cand_score, cand_key, inc_score, inc_key):
            inc_mask, inc_score, inc_key = initial_mask.copy(), cand_score, cand_key

    frontier_key = dfs.key
    seen: list[dict] = [{} for _ in range(len(order) + 1)]

    def child(state, depth, u, v, keep):
        total, log_sum = state
        ku, su, uu = kept_deg[u], nbr_sum[u], und_deg[u]
        kv, sv, uv = kept_deg[v], nbr_sum[v], und_deg[v]
        # Swap each endpoint's bound before the decision for its bound after.
        if keep:
            total -= (bound[u, ku - 1, su - weights[v], uu + 1]
                      + bound[v, kv - 1, sv - weights[u], uv + 1])
        else:
            total -= bound[u, ku, su, uu + 1] + bound[v, kv, sv, uv + 1]
            # The dropped edge is already out of k + u: ln(k+u) - ln(k+u+1)
            # per endpoint, u before v, in one fixed float order.
            log_sum += logs[ku + uu] - logs[ku + uu + 1] + logs[kv + uv] - logs[kv + uv + 1]
        total += bound[u, ku, su, uu] + bound[v, kv, sv, uv]
        if total:
            if log_sum - mult * log_quotient(total, denominator) < inc_score.value - _PRUNE_EPS:
                return None
        elif (log_sum < inc_score.log_degree_sum - _PRUNE_EPS
              and compare_scores(inc_score, ScoreValue.from_parts(log_sum, 0, 1, mult)) > 0):
            return None  # the incumbent ranks above this branch's +inf bound
        # Frontier dominance: see the docstring.
        front = seen[depth].setdefault(frontier_key(depth), [])
        for prev_total, prev_log_sum in front:
            margin = prev_log_sum - log_sum - _PRUNE_EPS
            if margin < 0:
                continue
            if prev_total <= total:
                return None
            if total and margin >= mult * log_quotient(prev_total, total):
                return None
        front[:] = [prev for prev in front if prev[0] < total or prev[1] > log_sum]
        front.append((total, log_sum))
        return total, log_sum

    def leaf(state) -> bool:
        nonlocal inc_mask, inc_score, inc_key
        cand = ScoreValue.from_parts(
            log_degree_sum(graph, kept_deg), state[0], denominator, mult)
        mask = dfs.mask()
        key = mask.lex_key()
        if _beats(cand, key, inc_score, inc_key):
            inc_mask, inc_score, inc_key = mask, cand, key
        return False

    finished = dfs.run(root, child, leaf, node_limit)
    return SolveReport(
        best_mask=inc_mask,
        best_score=inc_score,
        nodes_explored=dfs.nodes,
        optimality="proven" if finished else "heuristic",
    )


def random_valid_mask(graph: WeightedGraph, rng: random.Random) -> SubgraphMask:
    """Forced edges kept, each free edge kept with probability 1/2, then any
    isolated vertex repaired by re-adding a random incident edge.

    The draws cost only the free edges: one ``rng.random()`` per free edge,
    in ascending id, taken off the host degrees when the edge is dropped.
    Only a vertex with a free edge can be left isolated, so the repair
    visits those in ascending order, one ``rng.choice`` over the incident
    edges of each isolated one, read from ``graph.free_incidence``: an
    isolated vertex has no forced edge, so its entry is its ``incidence``
    list's edges, in the same order.  These are the calls, in the order,
    that drawing every edge and repairing every vertex would make, so the
    same ``rng`` gives the same mask.
    """
    edges = graph.edges
    kept = [True] * graph.edge_count
    degrees = list(graph.degrees)
    draw = rng.random
    for eid in graph.free_edge_ids:
        if draw() >= 0.5:
            kept[eid] = False
            u, v = edges[eid]
            degrees[u] -= 1
            degrees[v] -= 1
    for vtx, incident in graph.free_incidence.items():
        if degrees[vtx] == 0:
            eid = rng.choice(incident)
            kept[eid] = True
            u, v = edges[eid]
            degrees[u] += 1
            degrees[v] += 1
    return SubgraphMask.from_parts(graph, kept, degrees)


def sample_states(
    graph: WeightedGraph, rng: random.Random, count: int, *, multiplier: int | None = None
) -> Iterator[ScoreState]:
    """A :class:`ScoreState` of the full mask, then one of each of ``count``
    masks drawn from ``rng`` by :func:`random_valid_mask`.  This is the one
    sampling path: ``max_sampled_score`` and the :func:`solve_local` starts
    each read it with their own ``rng``."""
    yield ScoreState(graph, SubgraphMask.full(graph), multiplier=multiplier)
    for _ in range(count):
        yield ScoreState(graph, random_valid_mask(graph, rng), multiplier=multiplier)


def solve_local(
    graph: WeightedGraph,
    *,
    restarts: int = 16,
    seed: int = 0,
    multiplier: int | None = None,
) -> SolveReport:
    """Steepest-ascent hill climbing over validity-preserving edge toggles.

    The first start is the full mask (so the result never scores below the
    host graph itself); ``restarts`` further starts are random valid masks
    drawn from ``seed``.  Each step applies the best strictly-improving
    toggle, ties broken toward the smallest edge id, and stops when no
    toggle improves or after ``MAX_PASSES`` steps.  Forced edges are never
    candidates, so each step scans only the free edges, in ascending id.

    Each step screens its candidates first.  A toggle's exact int S * D
    is the current one plus :meth:`ScoreState.delta`, and its C ln S is the
    float of ``ScoreValue.from_parts``; its log-degree sum is estimated as the
    current one plus the two endpoints' ln differences.  A left-to-right
    sum of k floats is off by at most (k-1)u/(1-(k-1)u) times the sum of
    their sizes (u = 2^-53, each term at most ln of the largest degree), the
    current sum as well as the candidate's, so each estimate is within
    ``err`` of the exact score (plus a few ulps of the value).  The winner's
    estimate is then within 2 ``err`` of the best one, and a candidate
    further below is beaten outright, so the first-strict-max scan through
    ``ScoreState.peek`` and :func:`compare_scores`, over the rest in
    ascending id, picks the same edge.  If some candidate has S = 0, only
    those are scanned (+inf beats any finite score), screened by log sum.
    This assumes C >= 0, so that a smaller S never scores lower;
    :class:`ScoreState` refuses C < 0 with ``ValueError``.

    Per start, ``moves`` holds each free edge's toggle (its S * D change,
    its endpoints' ln differences and keep, or None if the drop isolates a
    vertex).  A toggle moves only its two endpoints' degrees and sums, so
    each step recomputes only the moves at those two vertices.
    """
    free, edges, free_incidence = graph.free_edge_ids, graph.edges, graph.free_incidence
    denominator, cofactors = graph.discrepancy_scale
    logs = {d: math.log(d) for d in cofactors}  # the degrees of every valid mask
    # Twice the k-term bound over the k core vertices, plus four roundings.
    k, unit = len(graph.core_vertices), 2.0 ** -53
    err = (2 * k * k + k + 8) * unit * math.log(max(graph.degrees)) / (1 - k * unit)

    best_mask: SubgraphMask | None = None
    best_score: ScoreValue | None = None
    best_key = b""
    evaluations = 0
    for state in sample_states(graph, random.Random(seed), restarts, multiplier=multiplier):
        current, mult = state.score(), state.multiplier
        kept, degrees, delta = state.mask.kept, state.mask.degrees, state.delta
        moves: dict[int, tuple[int, float, bool] | None] = {}
        for _ in range(MAX_PASSES):
            finite, infinite = [], []
            total, log_sum = state.total, current.log_degree_sum
            for eid in free:
                if eid not in moves:
                    u, v = edges[eid]
                    du, dv = degrees[u], degrees[v]
                    step = -1 if kept[eid] else 1
                    moves[eid] = None if step < 0 and (du == 1 or dv == 1) else (
                        delta(eid, step > 0),
                        logs[du + step] - logs[du] + logs[dv + step] - logs[dv], step > 0)
                move = moves[eid]
                if move is None:
                    continue
                change, ln_change, keep = move
                num, est = total + change, log_sum + ln_change
                if num:
                    finite.append((est - mult * log_quotient(num, denominator), eid, keep))
                else:
                    infinite.append((est, eid, keep))
            evaluations += len(finite) + len(infinite)
            pool = infinite or finite
            if not pool:
                break
            top = max(pool)[0]
            cut = top - 2 * err - (0 if infinite else 8 * unit * abs(top))
            best_eid, best_keep, best_cand = -1, False, None
            for key, eid, keep in pool:
                if key >= cut:
                    cand = state.peek(eid, keep)
                    if best_cand is None or compare_scores(cand, best_cand) > 0:
                        best_eid, best_keep, best_cand = eid, keep, cand
            if compare_scores(best_cand, current) <= 0:
                break
            current = state.toggle(best_eid, best_keep)
            for x in edges[best_eid]:
                for eid in free_incidence[x]:
                    moves.pop(eid, None)
        key = state.mask.lex_key()
        if best_score is None or _beats(current, key, best_score, best_key):
            best_mask, best_score, best_key = state.mask, current, key

    assert best_mask is not None and best_score is not None
    return SolveReport(
        best_mask=best_mask,
        best_score=best_score,
        nodes_explored=evaluations,
        optimality="heuristic",
    )
