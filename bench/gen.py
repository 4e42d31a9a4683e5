"""Seeded inputs for the benchmark: cubic monotone formulas and weighted graphs.

Everything here is independent of the ``corrsubopt`` package: the files are
written in its text formats, and the properties recorded next to each input
(satisfiability, vertex/edge/free-edge counts) are computed from first
principles, so the checks in ``verdicts.py`` do not trust the program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FormulaInput:
    """A monotone cubic formula; clauses hold 1-based variable ids."""

    name: str
    variable_count: int
    clauses: tuple[tuple[int, int, int], ...]
    satisfiable: bool | None  # None: too large for the brute-force oracle

    def text(self) -> str:
        lines = [f"{self.variable_count} {len(self.clauses)}"]
        lines.extend(" ".join(map(str, clause)) for clause in self.clauses)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphInput:
    """A weighted graph in canonical order (edges sorted, u < v)."""

    name: str
    weights: tuple[Fraction, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    @property
    def free_edge_count(self) -> int:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return sum(1 for u, v in self.edges if deg[u] > 1 and deg[v] > 1)

    def text(self) -> str:
        lines = [f"{self.vertex_count} {len(self.edges)}"]
        for vid, w in enumerate(self.weights):
            lines.append(f"{vid} {w.numerator}" if w.denominator == 1 else f"{vid} {w}")
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def compiled_vertices(n: int, t: int) -> int:
    """Closed-form vertex count of the gadget compilation of n variables at scale t."""
    return n * (4 * t * t + 6 * t + 12)


BRUTE_FORCE_LIMIT = 12


def one_in_three_satisfiable(n: int, clauses) -> bool:
    """Brute force over all 2^n assignments: some assignment sets exactly one
    variable true in every clause."""
    for bits in itertools.product((False, True), repeat=n):
        if all(bits[a - 1] + bits[b - 1] + bits[c - 1] == 1 for a, b, c in clauses):
            return True
    return False


def cubic_formula(rng: random.Random, n: int) -> tuple[tuple[int, int, int], ...]:
    """Shuffle the 3n variable incidences into n triples, rejecting any shuffle
    that puts one variable twice into a clause."""
    slots = [var for var in range(1, n + 1) for _ in range(3)]
    while True:
        rng.shuffle(slots)
        clauses = [tuple(sorted(slots[i:i + 3])) for i in range(0, 3 * n, 3)]
        if all(len(set(clause)) == 3 for clause in clauses):
            return tuple(clauses)


def formula_input(
    rng: random.Random, name: str, n: int, satisfiable: bool | None = None
) -> FormulaInput:
    """A random cubic formula; with ``satisfiable`` given, draws until the
    brute-force oracle agrees, so every seed gets the same sat/unsat mix."""
    while True:
        clauses = cubic_formula(rng, n)
        known = one_in_three_satisfiable(n, clauses) if n <= BRUTE_FORCE_LIMIT else None
        if satisfiable is None or known == satisfiable:
            return FormulaInput(name, n, clauses, known)


_NUMERATORS = tuple(range(-9, 10))
_DENOMINATORS = (1, 1, 2, 3, 4, 5)


def connected_graph(
    rng: random.Random, name: str, core: int, chords: int, leaves: int
) -> GraphInput:
    """A random Hamiltonian cycle on ``core`` vertices plus ``chords`` extra
    edges, with ``leaves`` pendant vertices hung on random core vertices.
    Only the leaf edges are forced, so the graph has core + chords free
    edges.  Weights are rationals such as 1/2, 7/3 and -5/4."""
    order = list(range(core + leaves))
    rng.shuffle(order)
    cycle = order[:core]
    edges = {tuple(sorted((cycle[i], cycle[i - 1]))) for i in range(core)}
    while len(edges) < core + chords:
        u, v = rng.sample(cycle, 2)
        edges.add((min(u, v), max(u, v)))
    for leaf in order[core:]:
        hub = rng.choice(cycle)
        edges.add((min(leaf, hub), max(leaf, hub)))
    weights = tuple(
        Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
        for _ in range(core + leaves)
    )
    return GraphInput(name, weights, tuple(sorted(edges)))
