"""Weighted graphs, spanning-subgraph masks, and the instance file format.

Instance files are line oriented.  The first non-comment line holds
``<vertex_count> <edge_count>``, followed by one ``<vertex_id> <weight>``
line per vertex (weights are exact rationals, written as an integer or
``p/q``), followed by one ``<u> <v>`` line per edge.  Lines starting with
``#`` are comments.  Serialisation is canonical: vertices ascending, edges
sorted lexicographically by (smaller endpoint, larger endpoint), weights
reduced, no comments.  The position of an edge in the sorted order is its
edge id, and every mask, solver report, and CLI output uses those ids.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence


class GraphParseError(ValueError):
    """Malformed instance or mask file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class MaskValidityError(ValueError):
    """An operation required a valid spanning subgraph (minimum degree 1)."""


class Immutable:
    """Base of the package's read-only value classes.

    ``__init__`` writes the fields named in ``_fields`` (and any derived
    attributes) straight into ``__dict__``, as ``cached_property`` does;
    equality, hash and repr follow those fields in order, and assigning or
    deleting an attribute raises ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class WeightedGraph(Immutable):
    """Immutable simple graph with exact rational vertex weights.

    ``edges`` must already be in canonical order; use :meth:`build` or
    :func:`load_graph` to construct one from unnormalised data.  Equal
    weights may share one ``Fraction`` object, and per-weight work runs once
    per distinct object.  Each of ``pendants``, (hub, count, weight), folds
    in ``count`` leaves of that weight on ``hub``: every property counts them
    as it counts leaves that are vertices, so under one C (its default,
    ``vertex_count``, leaves them out) a mask scores as with them written out.
    """

    _fields = ("vertex_count", "edges", "weights")
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...]
    pendants: tuple[tuple[int, int, Fraction], ...]
    degrees: tuple[int, ...]  # host degree per vertex, counted while validating

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int], ...],
                 weights: tuple[Fraction, ...], pendants: tuple = ()) -> None:
        n = vertex_count
        if n <= 0:
            raise ValueError("graph needs at least one vertex")
        if len(weights) != n:
            raise ValueError(f"expected {n} weights, got {len(weights)}")
        degrees = [0] * n
        prev = (-1, -1)
        for edge in edges:  # strictly increasing, which also rules out duplicates
            u, v = edge
            if not 0 <= u < v < n:
                raise ValueError(f"self-loop at vertex {u}" if u == v
                                 else f"edge ({u}, {v}) out of range or not ordered")
            if edge <= prev:
                raise ValueError(f"duplicate edge ({u}, {v})" if edge == prev
                                 else "edges not in canonical order")
            prev = edge
            degrees[u] += 1
            degrees[v] += 1
        for hub, count, _ in pendants:
            if not 0 <= hub < n or count < 1:
                raise ValueError(f"pendant ({hub}, {count}) needs a vertex and a positive count")
            degrees[hub] += count
        if 0 in degrees:
            raise ValueError(f"isolated vertex {degrees.index(0)}")
        self.__dict__.update(vertex_count=n, edges=edges, weights=weights, pendants=pendants,
                             degrees=tuple(degrees))
        if pendants:  # a graph without them keeps three fields, in its repr too
            self.__dict__["_fields"] = self._fields + ("pendants",)

    @classmethod
    def build(
        cls,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[Fraction | int | str],
        pendants: Sequence[tuple[int, int, Fraction | int | str]] = (),
    ) -> "WeightedGraph":
        """Normalise (orient u < v, sort) and validate raw edge/weight data;
        equal weights, pendants' too, share one ``Fraction``.  A string weight
        follows the instance files' rule: an exponent raises ``ValueError``."""
        canon = sorted((u, v) if u < v else (v, u) for u, v in edges)
        as_fraction = {w: _rational(w) for w in {*weights, *(w for _, _, w in pendants)}}
        return cls(vertex_count, tuple(canon), tuple(map(as_fraction.__getitem__, weights)),
                   tuple((hub, count, as_fraction[w]) for hub, count, w in pendants))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_id(self, u: int, v: int) -> int:
        """Bisects the sorted ``edges``; ``KeyError`` when (u, v) is not an edge."""
        edge = (u, v) if u < v else (v, u)
        eid = bisect_left(self.edges, edge)
        if self.edges[eid:eid + 1] != (edge,):
            raise KeyError(edge)
        return eid

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: (neighbour, edge id) pairs, ascending by edge id."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append((v, i))
            inc[v].append((u, i))
        return tuple(tuple(pairs) for pairs in inc)

    @cached_property
    def free_edge_ids(self) -> tuple[int, ...]:
        """Edge ids whose endpoints both have host degree at least 2,
        ascending.  Every other edge is forced: it has a leaf endpoint."""
        degs = self.degrees
        return tuple(eid for eid, (u, v) in enumerate(self.edges) if degs[u] > 1 and degs[v] > 1)

    @cached_property
    def free_incidence(self) -> dict[int, tuple[int, ...]]:
        """Per vertex with a free edge, ascending, the ids of its free edges,
        ascending: the free part of its :attr:`incidence` list.  A vertex
        with no forced edge has all its edges here."""
        table: dict[int, list[int]] = {}
        edges = self.edges
        for eid in self.free_edge_ids:
            for vtx in edges[eid]:
                table.setdefault(vtx, []).append(eid)
        return {vtx: tuple(table[vtx]) for vtx in sorted(table)}

    @cached_property
    def core_vertices(self) -> tuple[int, ...]:
        """Vertices of host degree at least 2, ascending.

        Every other vertex is a leaf, which has degree 1 in every valid mask.
        """
        return tuple(vtx for vtx, d in enumerate(self.degrees) if d >= 2)

    @cached_property
    def scaled_weights(self) -> tuple[int, tuple[int, ...]]:
        """(L, W): L is the lcm of the weight denominators, pendants' too, and
        W[v] = L * f(v), an integer for every vertex."""
        distinct = _by_identity(chain(self.weights, (w for _, _, w in self.pendants)))
        scale = math.lcm(*(w.denominator for w in distinct.values()))
        scaled = {key: w.numerator * (scale // w.denominator) for key, w in distinct.items()}
        return scale, tuple(map(scaled.__getitem__, map(id, self.weights)))

    @cached_property
    def forced_nbr_sums(self) -> tuple[int, ...]:
        """Per vertex, the sum of the scaled weights W over its neighbours
        across forced edges (to folded leaves too).  Every valid mask keeps
        these edges, so this is where its neighbour sums start."""
        scale, weights = self.scaled_weights
        sums, edges = [0] * self.vertex_count, self.edges
        for u, v in edges:
            sums[u] += weights[v]
            sums[v] += weights[u]
        for eid in self.free_edge_ids:
            u, v = edges[eid]
            sums[u] -= weights[v]
            sums[v] -= weights[u]
        for hub, count, w in self.pendants:
            sums[hub] += count * (scale * w).numerator
        return tuple(sums)

    def forced_degrees(self) -> list[int]:
        """Per vertex, the number of its forced edges, as a new list."""
        counts = list(self.degrees)
        for eid in self.free_edge_ids:
            u, v = self.edges[eid]
            counts[u] -= 1
            counts[v] -= 1
        return counts

    @cached_property
    def discrepancy_scale(self) -> tuple[int, dict[int, int]]:
        """(D, c): one denominator for every d * ND a valid mask can give.

        A valid mask keeps between max(1, k) and all of a vertex's edges, k
        being its forced edges.  With m the lcm of all those degrees over
        all vertices, folded leaves' 1 too, D = L^2 m and c[d] = m // d, so
        d * ND = (W d - s)^2 / (L^2 d) = (W d - s)^2 c[d] / D.  c holds
        only the degrees some valid mask gives some vertex.
        """
        scale, _ = self.scaled_weights
        reachable: set[int] = {1} if self.pendants else set()
        for forced, host in set(zip(self.forced_degrees(), self.degrees)):
            reachable.update(range(max(1, forced), host + 1))
        m = math.lcm(*reachable)
        return scale * scale * m, {d: m // d for d in reachable}

    @cached_property
    def leaf_numerator(self) -> int:
        """The host leaves' share of S * D, the same in every valid mask: a
        leaf keeps its one edge, so d = 1 and s is its neighbour's W."""
        scale, weights = self.scaled_weights
        _, cofactors = self.discrepancy_scale
        degrees, total = self.degrees, 0
        for u, v in self.edges:
            leaves = (degrees[u] == 1) + (degrees[v] == 1)
            if leaves:
                diff = weights[u] - weights[v]
                total += diff * diff * leaves
        for hub, count, w in self.pendants:
            total += (weights[hub] - (scale * w).numerator) ** 2 * count
        return total * cofactors[1]


def _by_identity(weights: Iterable[Fraction]) -> dict[int, Fraction]:
    """One ``id`` -> weight entry per distinct weight object, so that
    per-weight work runs once per object; a weight's entry is keyed by its id."""
    return {id(w): w for w in weights}


_BITS = bytes.maketrans(b"\x00\x01", b"01")  # False/True bytes to ASCII digits


class SubgraphMask:
    """Kept-edge bitset over a graph's canonical edge list, with cached degrees.

    Mutable: a ``ScoreState`` toggles the mask it is given.  The degree cache
    is kept in sync by :meth:`set_edge`; it always equals the host degrees
    less the edges ``kept`` drops, so a folded leaf counts in its hub's.
    """

    __slots__ = ("graph", "kept", "degrees")

    def __init__(self, graph: WeightedGraph, kept: Iterable[bool]):
        if isinstance(kept, (str, bytes)):  # every item of "010" and b"010" is truthy
            raise ValueError(f"kept must be booleans, not {type(kept).__name__}; "
                             "load_mask reads a bitstring")
        self.graph = graph
        self.kept = list(map(bool, kept))
        if len(self.kept) != graph.edge_count:
            raise ValueError(
                f"mask length {len(self.kept)} != edge count {graph.edge_count}"
            )
        degs = list(graph.degrees)
        for eid, keep in enumerate(self.kept):
            if not keep:
                u, v = graph.edges[eid]
                degs[u] -= 1
                degs[v] -= 1
        self.degrees = degs

    @classmethod
    def full(cls, graph: WeightedGraph) -> "SubgraphMask":
        return cls.from_parts(graph, [True] * graph.edge_count, list(graph.degrees))

    @classmethod
    def from_kept_ids(cls, graph: WeightedGraph, ids: Iterable[int]) -> "SubgraphMask":
        kept = [False] * graph.edge_count
        for eid in ids:
            if not 0 <= eid < graph.edge_count:
                raise ValueError(f"edge id {eid} out of range")
            if kept[eid]:
                raise ValueError(f"edge id {eid} listed twice")
            kept[eid] = True
        return cls(graph, kept)

    @classmethod
    def from_parts(
        cls, graph: WeightedGraph, kept: list[bool], degrees: list[int]
    ) -> "SubgraphMask":
        """A mask holding the lists ``kept`` and ``degrees`` as given, with no
        recount: the caller guarantees that ``degrees`` equals one."""
        mask = cls.__new__(cls)
        mask.graph, mask.kept, mask.degrees = graph, kept, degrees
        return mask

    def copy(self) -> "SubgraphMask":
        return SubgraphMask.from_parts(self.graph, list(self.kept), list(self.degrees))

    def set_edge(self, eid: int, keep: bool) -> None:
        """Toggle one edge, updating the degree cache in place."""
        if self.kept[eid] == keep:
            return
        self.kept[eid] = keep
        u, v = self.graph.edges[eid]
        step = 1 if keep else -1
        self.degrees[u] += step
        self.degrees[v] += step

    def bitstring(self) -> str:
        return self.lex_key().decode("ascii")

    def lex_key(self) -> bytes:
        """Bytes whose natural order is lexicographic order of the bitstring:
        the ASCII bitstring, b"1" per kept edge and b"0" per dropped one."""
        return bytes(self.kept).translate(_BITS)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubgraphMask)
            and self.graph == other.graph
            and self.kept == other.kept
        )

    def __hash__(self) -> int:  # masks are mutable; hash by identity is a trap
        raise TypeError("SubgraphMask is unhashable")

    def __repr__(self) -> str:
        return f"SubgraphMask({self.bitstring()!r})"


def require_same_graph(graph: WeightedGraph, mask: SubgraphMask) -> None:
    """Raise ``ValueError`` unless ``mask`` is over ``graph`` or an equal one;
    identity is tested first, so a mask built on ``graph`` costs no compare."""
    if mask.graph is not graph and mask.graph != graph:
        raise ValueError("mask belongs to a different graph")


def is_valid(graph: WeightedGraph, mask: SubgraphMask) -> bool:
    """True iff every vertex keeps at least one incident edge."""
    require_same_graph(graph, mask)
    return all(d >= 1 for d in mask.degrees)


def forced_edges(graph: WeightedGraph) -> frozenset[int]:
    """Edge ids incident to a degree-1 vertex of the host graph.

    Dropping such an edge isolates its leaf endpoint, so every valid mask
    keeps all of them.  Built on each call: the package itself reads host
    degrees and ``free_edge_ids`` instead.
    """
    return frozenset(range(graph.edge_count)).difference(graph.free_edge_ids)


_CHUNK = 1 << 14  # characters handed to one str.splitlines call


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line) for each line that is not
    blank or a ``#`` comment, as ``text.splitlines()`` splits and numbers
    them, one at a time.  The text is split a chunk at a time; each chunk
    but the last ends just after a "\\n", and a "\\n" always ends a line
    (alone or as the end of "\\r\\n"), so the chunks split as the whole does."""
    lineno, start, end = 0, 0, len(text)
    while start < end:
        stop = text.find("\n", start + _CHUNK) + 1 or end
        for line in text[start:stop].splitlines():
            lineno += 1
            line = line.strip()
            if line and line[0] != "#":
                yield lineno, line
        start = stop


def _rational(weight: Fraction | int | str) -> Fraction:
    """``Fraction(weight)``; an exponent string such as 1e10000000 is refused."""
    if isinstance(weight, str) and ("e" in weight or "E" in weight):
        raise ValueError(f"invalid rational weight {weight!r}")
    return Fraction(weight)


def _parse_weight(token: str, lineno: int) -> Fraction:
    try:
        return _rational(token)
    except (ValueError, ZeroDivisionError):
        raise GraphParseError(f"invalid rational weight {token!r}", lineno) from None


def load_graph(text: str) -> WeightedGraph:
    """Parse an instance file; diagnostics carry 1-based line numbers.

    The lines are counted, then read once; only the weights and edges are
    kept.  A wrong line count is reported before any line's defect, and an
    edge that repeats an earlier one before any defect on a later line: a
    defect rereads the edge lines up to its own to find such a repeat.
    """
    lines = _content_lines(text)
    head, header = next(lines, (0, ""))
    if not head:
        raise GraphParseError("empty instance file")
    parts = header.split()
    if len(parts) != 2:
        raise GraphParseError("header must be '<vertex_count> <edge_count>'", head)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError("header counts must be integers", head) from None
    if n <= 0 or m < 0:
        raise GraphParseError("vertex count must be positive, edge count non-negative", head)
    found = sum(1 for _ in _content_lines(text)) - 1  # before anything sized by n
    if found != n + m:
        raise GraphParseError(f"expected {n} vertex lines and {m} edge lines, found {found}", head)

    weights: list[Fraction | None] = [None] * n
    parsed: dict[str, Fraction] = {}  # one Fraction per distinct weight token
    edges: list[tuple[int, int]] = []
    try:
        for lineno, line in islice(lines, n):
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError("vertex line must be '<vertex_id> <weight>'", lineno)
            try:
                vid = int(parts[0])
            except ValueError:
                raise GraphParseError(f"invalid vertex id {parts[0]!r}", lineno) from None
            if not 0 <= vid < n:
                raise GraphParseError(f"vertex id {vid} out of range 0..{n - 1}", lineno)
            if weights[vid] is not None:
                raise GraphParseError(f"duplicate vertex id {vid}", lineno)
            weight = parsed.get(parts[1])
            if weight is None:
                weight = parsed[parts[1]] = _parse_weight(parts[1], lineno)
            weights[vid] = weight

        for lineno, line in lines:
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError("edge line must be '<u> <v>'", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError("edge endpoints must be integers", lineno) from None
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"edge ({u}, {v}) out of range", lineno)
            edges.append((u, v) if u < v else (v, u))
        edges.sort()
        return WeightedGraph(n, tuple(edges), tuple(weights))  # type: ignore[arg-type]
    except ValueError as exc:  # a repeated edge on an earlier line is reported first
        before = exc.line if isinstance(exc, GraphParseError) else None
        seen: set[tuple[int, ...]] = set()
        for lineno, line in islice(_content_lines(text), 1 + n, None):
            if before is not None and lineno >= before:
                break
            key = tuple(sorted(map(int, line.split())))
            if key in seen:
                raise GraphParseError(f"duplicate edge ({key[0]}, {key[1]})", lineno) from None
            seen.add(key)
        raise (exc if before is not None else GraphParseError(str(exc))) from None


def _format_weight(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def graph_lines(graph: WeightedGraph) -> Iterator[str]:
    """The lines of :func:`dump_graph`, each with its newline, one at a time."""
    if graph.pendants:
        raise ValueError("a graph with folded leaves has no file form; write its explicit graph")
    yield f"{graph.vertex_count} {graph.edge_count}\n"
    text = {key: _format_weight(w) for key, w in _by_identity(graph.weights).items()}
    for vid, key in enumerate(map(id, graph.weights)):
        yield f"{vid} {text[key]}\n"
    for u, v in graph.edges:
        yield f"{u} {v}\n"


def dump_graph(graph: WeightedGraph) -> str:
    """Canonical serialisation; fixed point of load -> dump."""
    return "".join(graph_lines(graph))


def load_mask(text: str, graph: WeightedGraph) -> SubgraphMask:
    """Parse a mask file: one 0/1 line of length edge_count, or kept edge ids.

    A single token of only 0/1 characters whose length equals the edge count
    is read as a bitstring; anything else is read as a whitespace-separated
    list of kept edge ids.
    """
    tokens = ((lineno, tok) for lineno, line in _content_lines(text) for tok in line.split())
    first = list(islice(tokens, 2))
    if not first:
        raise GraphParseError("empty mask file")
    if len(first) == 1:
        _, tok = first[0]
        if set(tok) <= {"0", "1"} and len(tok) == graph.edge_count:
            return SubgraphMask(graph, map("1".__eq__, tok))
    ids = []
    for lineno, tok in chain(first, tokens):
        if len(tok) > 1 and tok[0] == "0":
            # A leading zero is a truncated bitstring, not an edge id.
            raise GraphParseError(
                f"ambiguous token {tok!r}: not a length-{graph.edge_count} "
                "bitstring and not a canonical edge id",
                lineno,
            )
        try:
            ids.append(int(tok))
        except ValueError:
            raise GraphParseError(f"invalid edge id {tok!r}", lineno) from None
    try:
        return SubgraphMask.from_kept_ids(graph, ids)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None


def dump_mask(mask: SubgraphMask) -> str:
    return mask.bitstring() + "\n"
