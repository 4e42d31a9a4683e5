"""Neighbourhood-discrepancy scoring.

For a valid spanning subgraph H of a weighted graph, each vertex v gets the
discrepancy ND(v) = (f(v) - mean of f over its kept neighbours)^2, and the
objective is

    score(H) = sum_v ln d_H(v) - C * ln( sum_v d_H(v) * ND(v) )

with C defaulting to the number of vertices; C < 0 is refused, so a
smaller S never scores lower.  Discrepancies and their weighted total S
are exact rationals; only the two logarithms use 64-bit floats.  S = 0
means every vertex agrees exactly with its neighbourhood mean, and the
score is ``math.inf``.

Every score in the package comes from one kernel, used by
:class:`ScoreState` and by the branch and bound in ``solvers``:

* Discrepancies are integer-scaled.  With L the lcm of the weight
  denominators and W = L * f (integers, ``WeightedGraph.scaled_weights``),
  a vertex of kept degree d whose kept neighbours' W add up to s has
  d * ND = (W d - s)^2 / (L^2 d).
* S is a Python int over one common denominator per graph,
  ``WeightedGraph.discrepancy_scale`` = (D, c).  A valid mask gives a
  vertex between max(1, k) and all of its host edges, k being its forced
  edges; m is the lcm of those degrees over all vertices, D = L^2 m and
  c[d] = m / d, so d * ND = (W d - s)^2 c[d] / D.  :class:`ScoreState`
  and the branch and bound add these int numerators, in any order, and
  build a ``Fraction`` only when a :class:`ScoreValue` is returned; the
  host leaves add the same ``WeightedGraph.leaf_numerator`` to every valid
  mask.  D has 22 bits on a compiled 4-variable formula at t = 4 and 38
  bits at t = 16.
* ln S is taken of the int quotient (S * D) / D.  Python's int true
  division is correctly rounded, and so is ``float(Fraction)``; both round
  the same rational, so the quotient is ``float(S)`` bit for bit.  Outside
  the float range (the quotient overflows or rounds to 0.0),
  :func:`log_quotient` takes ln(S * D) - ln D instead.
* The log-degree sum is added left to right in vertex order over
  ``WeightedGraph.core_vertices`` only.  A host leaf has degree 1 in every
  valid mask and would add ln 1 = 0.0; every partial sum is at least +0.0,
  and x + 0.0 == x bit for bit for such x, so dropping those terms leaves
  the float sum bit-identical to the sum over all vertices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .graph import MaskValidityError, SubgraphMask, WeightedGraph, require_same_graph


class DegenerateVertexError(ValueError):
    """Discrepancy is undefined for a vertex with no kept incident edge."""


def log_quotient(numerator: int, denominator: int) -> float:
    """ln(numerator / denominator) of two positive ints: ln of the correctly
    rounded quotient while that is a positive float, else the difference of
    the two logs."""
    try:
        return math.log(numerator / denominator)
    except (OverflowError, ValueError):  # the quotient overflowed or rounded to 0.0
        return math.log(numerator) - math.log(denominator)


class ScoreValue(NamedTuple):
    """Extended-real objective value: ``value`` is ``math.inf`` exactly when
    ``discrepancy_total`` is zero.  :func:`compare_scores` ranks them."""

    value: float
    log_degree_sum: float
    discrepancy_total: Fraction

    @classmethod
    def from_parts(
        cls, log_degree_sum: float, numerator: int, denominator: int, multiplier: int
    ) -> "ScoreValue":
        """The score with S = numerator / denominator (see the module notes)."""
        total = Fraction(numerator, denominator)
        if not numerator:
            return cls(math.inf, log_degree_sum, total)
        value = log_degree_sum - multiplier * log_quotient(numerator, denominator)
        return cls(value, log_degree_sum, total)


def format_score(score: ScoreValue) -> str:
    return "+inf" if score.value == math.inf else f"{score.value:.12f}"


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def compare_scores(a: ScoreValue, b: ScoreValue) -> int:
    """Three-way comparison: positive when a ranks above b.

    The rule assumes C >= 0, which :class:`ScoreState` enforces: then a
    smaller S never scores lower, so scores with equal log-degree sums are
    compared through the exact discrepancy totals, smaller S ranking
    higher.  Otherwise the float values decide, +inf above every finite
    value, and between two infinities the larger log-degree sum wins.  At
    C = 0 a finite value is its log-degree sum, so exact ties rank by S; no
    optimum moves, since the full mask then has the largest log-degree sum
    and only an S = 0 mask can beat it.  Ties return 0 and are broken
    elsewhere, by mask.
    """
    if a.log_degree_sum == b.log_degree_sum:
        return (b.discrepancy_total > a.discrepancy_total) - (
            b.discrepancy_total < a.discrepancy_total
        )
    av, bv = a.value, b.value
    if av == bv == math.inf:
        return (a.log_degree_sum > b.log_degree_sum) - (a.log_degree_sum < b.log_degree_sum)
    return (av > bv) - (av < bv)


def neighbourhood_discrepancy(
    graph: WeightedGraph, mask: SubgraphMask, vertex: int
) -> Fraction:
    """Exact squared gap between f(vertex) and its kept-neighbourhood mean,
    ((W d - s) / (L d))^2 in the scaled ints of the module notes.

    Walks ``graph.incidence``, so it also serves masks that are not valid;
    on a valid mask :meth:`ScoreState.gap` gives the same ints."""
    require_same_graph(graph, mask)
    d = mask.degrees[vertex]
    if d == 0:
        raise DegenerateVertexError(f"vertex {vertex} has no kept incident edge")
    scale, weights = graph.scaled_weights
    kept = mask.kept
    nbr_sum = sum(k * (scale * w).numerator for hub, k, w in graph.pendants if hub == vertex)
    for nbr, eid in graph.incidence[vertex]:
        if kept[eid]:
            nbr_sum += weights[nbr]
    return gap_discrepancy(graph, d, weights[vertex] * d - nbr_sum)


def gap_discrepancy(graph: WeightedGraph, d: int, gap: int) -> Fraction:
    """ND = (gap / (L d))^2 from the (d, W d - s) of :meth:`ScoreState.gap`."""
    scale, _ = graph.scaled_weights
    return Fraction(gap * gap, (scale * d) ** 2)


def log_degree_sum(graph: WeightedGraph, degrees) -> float:
    """ln d added left to right over the core vertices (see the module notes)."""
    log = math.log
    total = 0.0
    for vtx in graph.core_vertices:
        total += log(degrees[vtx])
    return total


def score(
    graph: WeightedGraph, mask: SubgraphMask, *, multiplier: int | None = None
) -> ScoreValue:
    """Score a valid mask from scratch.

    ``multiplier`` is the count C scaling the log-discrepancy term; it
    defaults to the graph's vertex count, and C < 0 raises ``ValueError``
    (see :class:`ScoreState`).
    """
    return ScoreState(graph, mask, multiplier=multiplier).score()


class ScoreState:
    """Caches for rescoring a mask under single-edge toggles.

    Runs the integer kernel described in the module notes.  The state owns
    the mask it is given, and :meth:`toggle` changes it in place; a caller
    that keeps using its mask passes a copy.  Per vertex it keeps the kept
    degree (in the mask) and the int sum s of the kept neighbours' scaled
    weights; ``total`` is the int S * D.  A toggle touches only its two
    endpoints, and :meth:`delta` is its int change in S * D, unapplied.
    :meth:`gap` reads one vertex's ints, which is all the checks in
    ``verification`` need; :meth:`shares` sums given vertices' part of
    S * D, from which ``total`` starts.  :meth:`score` re-adds ln d
    over the core vertices in vertex order, so every result is
    bit-identical to a from-scratch score of the same mask.

    ``multiplier`` is C, by default the vertex count.  :func:`compare_scores`
    and both solvers' bounds, cuts and screens assume that a smaller S
    never scores lower, so C < 0 is refused with ``ValueError``.
    """

    __slots__ = ("graph", "mask", "multiplier", "nbr_sums", "total", "_weights",
                 "_denominator", "_cofactors")

    def __init__(
        self,
        graph: WeightedGraph,
        mask: SubgraphMask,
        *,
        multiplier: int | None = None,
    ):
        require_same_graph(graph, mask)
        if 0 in mask.degrees:
            raise MaskValidityError(f"vertex {mask.degrees.index(0)} is isolated in the subgraph")
        self.graph = graph
        self.mask = mask
        if multiplier is None:
            multiplier = graph.vertex_count
        elif multiplier < 0:
            raise ValueError(f"multiplier must be non-negative, got {multiplier}")
        self.multiplier = multiplier
        _, weights = graph.scaled_weights
        self._weights = weights
        self._denominator, self._cofactors = graph.discrepancy_scale
        # A valid mask keeps every forced edge, so only free edges and core
        # vertices vary; the host leaves add graph.leaf_numerator.
        edges, kept = graph.edges, self.mask.kept
        sums = list(graph.forced_nbr_sums)
        for eid in graph.free_edge_ids:
            if kept[eid]:
                u, v = edges[eid]
                sums[u] += weights[v]
                sums[v] += weights[u]
        self.nbr_sums = sums
        self.total = graph.leaf_numerator + self.shares(graph.core_vertices)

    def gap(self, vtx: int) -> tuple[int, int]:
        """(d, W d - s): the vertex's kept degree and the int gap whose square
        over (L d)^2 is its discrepancy (see the module notes)."""
        d = self.mask.degrees[vtx]
        return d, self._weights[vtx] * d - self.nbr_sums[vtx]

    def shares(self, vertices: Iterable[int]) -> int:
        """The vertices' int share of S * D: the sum of (W d - s)^2 c[d]."""
        weights, sums, cofactors = self._weights, self.nbr_sums, self._cofactors
        degrees = self.mask.degrees
        total = 0
        for vtx in vertices:
            d = degrees[vtx]
            diff = weights[vtx] * d - sums[vtx]
            total += diff * diff * cofactors[d]
        return total

    def score(self) -> ScoreValue:
        log_sum = log_degree_sum(self.graph, self.mask.degrees)
        return ScoreValue.from_parts(log_sum, self.total, self._denominator, self.multiplier)

    def can_remove(self, eid: int) -> bool:
        """True when dropping the edge keeps both endpoints non-isolated."""
        u, v = self.graph.edges[eid]
        return self.mask.degrees[u] > 1 and self.mask.degrees[v] > 1

    def _check_toggle(self, eid: int, keep: bool) -> None:
        if self.mask.kept[eid] == keep:
            raise ValueError(f"edge {eid} is already {'kept' if keep else 'dropped'}")
        if not keep and not self.can_remove(eid):
            raise MaskValidityError(f"removing edge {eid} would isolate a vertex")

    def delta(self, eid: int, keep: bool) -> int:
        """The change in ``total`` (the int S * D) that toggling the edge to
        ``keep`` would make, without making it.  The caller checks the toggle:
        the edge is not already ``keep``, and dropping it isolates no vertex."""
        u, v = self.graph.edges[eid]
        weights, sums, degrees, cofactors = (
            self._weights, self.nbr_sums, self.mask.degrees, self._cofactors)
        du, dv = degrees[u], degrees[v]
        step = 1 if keep else -1
        old_u, old_v = weights[u] * du - sums[u], weights[v] * dv - sums[v]
        # Each endpoint's W d - s moves by step * (its W - the other's W).
        gap = step * (weights[u] - weights[v])
        new_u, new_v = old_u + gap, old_v - gap
        return (new_u * new_u * cofactors[du + step] - old_u * old_u * cofactors[du]
                + new_v * new_v * cofactors[dv + step] - old_v * old_v * cofactors[dv])

    def _apply(self, eid: int, keep: bool) -> None:
        """Toggle a checked edge in the mask, the neighbour sums and S."""
        u, v = self.graph.edges[eid]
        self.total += self.delta(eid, keep)
        step, weights, sums = (1 if keep else -1), self._weights, self.nbr_sums
        sums[u] += step * weights[v]
        sums[v] += step * weights[u]
        self.mask.set_edge(eid, keep)

    def toggle(self, eid: int, keep: bool) -> ScoreValue:
        """Apply one edge toggle and return the new score."""
        self._check_toggle(eid, keep)
        self._apply(eid, keep)
        return self.score()

    def peek(self, eid: int, keep: bool) -> ScoreValue:
        """Score the toggled mask without committing to it: the inverse
        toggle undoes exact int updates, so the state is restored bit for bit."""
        self._check_toggle(eid, keep)
        self._apply(eid, keep)
        result = self.score()
        self._apply(eid, not keep)
        return result

