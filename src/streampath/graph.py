"""Graph value types: edges, matchings, contractions, path covers, tours.

All types here are immutable value objects.  Algorithms never mutate a
Graph; operations like contraction return a fresh Graph plus a mapping
object describing where each original vertex went.  A ``Graph`` holds its
edges as three ``array("q")`` columns, endpoints and weights, 24 bytes per
edge, because dense and complete instances list every pair; a
``Matching`` and a ``PathCover`` hold theirs the same way, so an engine
returns its matching, and a driver its cover, with no ``Edge`` built.
Columns are checked once, when the value is built, by column-wide minima
and maxima and other C-level passes; a matching's disjointness check
sorts its ends and builds no set of them.  An ``Edge`` is built only when
something asks for one (``edges`` builds a fresh tuple on each read), and
keeps its three ints in slots, with no instance dict.

Conventions used throughout the package:

* vertices are ``0 .. n-1``,
* self-loops are never representable (``Edge`` rejects them),
* parallel edges are allowed in a ``Graph`` and are meaningful: the edge
  sequence *is* the arrival order of the stream,
* weights are positive integers; an unweighted graph is one where every
  edge has weight 1,
* ``n``, every endpoint and every weight are below ``WORD_LIMIT`` = 2^63,
  so each fits a signed 64-bit word, the word the semi-streaming model counts.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from itertools import chain, compress, islice, starmap
from typing import Iterable, Iterator, Sequence

# Each place an int of an instance, or k, comes in refuses one past a word.
WORD_LIMIT = 1 << 63


@dataclass(frozen=True, order=True, slots=True)
class Edge:
    """An undirected edge.  Endpoints are unordered; ``pair`` normalizes.

    The endpoints and weight live in slots, with no instance dict, so no
    attribute can be added to an edge.
    """

    u: int
    v: int
    weight: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.u, int) and isinstance(self.v, int)):
            raise ValueError("endpoints must be ints")
        if not (0 <= self.u < WORD_LIMIT and 0 <= self.v < WORD_LIMIT):
            raise ValueError("endpoints must be non-negative and below 2^63")
        if self.u == self.v:
            raise ValueError(f"self-loop at vertex {self.u} is not allowed")
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError("edge weight must be a positive int")
        if self.weight >= WORD_LIMIT:
            raise ValueError("edge weight must be below 2^63")

    @property
    def pair(self) -> tuple[int, int]:
        """Endpoints as a sorted tuple, usable as a dict key."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


def _column(values: Sequence[int]) -> array:
    """``values`` as an ``array("q")``: an ``array("q")`` itself, else a copy."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    return array("q", values)


class _EdgeColumns:
    """Edges held as three int columns ``us``, ``vs``, ``ws``, in order.

    Shared by ``Graph``, ``Matching`` and ``PathCover``; each sets the
    columns once, when it is built, and checks them.
    """

    us: array
    vs: array
    ws: array

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges in column order, built afresh on each access."""
        return tuple(map(Edge, self.us, self.vs, self.ws))

    @property
    def size(self) -> int:
        return len(self.us)

    @property
    def weight(self) -> int:
        return sum(self.ws)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)


@dataclass(frozen=True, init=False)
class Graph(_EdgeColumns):
    """An edge-sequence multigraph held as three int columns.

    Edge ``i`` of the stream is ``(us[i], vs[i], ws[i])``, so replaying the
    columns replays the stream.  Build one from ``Edge`` objects,
    ``Graph(n, edges, weighted)``, or from columns, ``Graph(n, us=...,
    vs=..., ws=..., weighted=...)``; an ``array("q")`` column is held as
    given, not copied, and must not be modified afterwards.  ``edges``
    builds the ``Edge`` objects afresh on each access.
    """

    n: int
    us: array
    vs: array
    ws: array
    weighted: bool = False

    def __init__(
        self,
        n: int,
        edges: Sequence[Edge] = (),
        weighted: bool = False,
        *,
        us: Sequence[int] | None = None,
        vs: Sequence[int] | None = None,
        ws: Sequence[int] | None = None,
    ) -> None:
        us, vs, ws = _edge_columns(edges, us, vs, ws, n, weighted)
        _hold(self, n=n, us=us, vs=vs, ws=ws, weighted=weighted)
        self.__post_init__()

    def __post_init__(self) -> None:
        n, us, vs, ws = self.n, self.us, self.vs, self.ws
        if not isinstance(n, int):
            raise ValueError("vertex count must be an int")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n >= WORD_LIMIT:
            raise ValueError("vertex count must be below 2^63")
        _check_edges(us, vs, ws, n, self.weighted)

    @classmethod
    def _checked(cls, n: int, us: array, vs: array, ws: array, weighted: bool) -> "Graph":
        """A graph of columns that already follow every rule ``__post_init__`` checks."""
        g = object.__new__(cls)
        _hold(g, n=n, us=us, vs=vs, ws=ws, weighted=weighted)
        return g

    @classmethod
    def from_pairs(
        cls,
        n: int,
        pairs: Iterable[tuple[int, ...]],
        weighted: bool = False,
    ) -> "Graph":
        """Build from ``(u, v)`` or ``(u, v, w)`` tuples, preserving order."""
        return cls(n, tuple(starmap(Edge, pairs)), weighted)

    @property
    def m(self) -> int:
        return len(self.us)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u in self.us:
            deg[u] += 1
        for v in self.vs:
            deg[v] += 1
        return deg


def _hold(obj: object, **fields: object) -> None:
    """Set the fields of a frozen value object."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _edge_columns(
    edges: Sequence[Edge],
    us: Sequence[int] | None,
    vs: Sequence[int] | None,
    ws: Sequence[int] | None,
    n: int = WORD_LIMIT,
    weighted: bool = True,
) -> tuple[array, array, array]:
    """The columns of ``edges``, or the given columns as ``array("q")``.

    A value that no column can hold (no int, or past a word) is named by
    the error of its edge, as ``_first_bad_edge`` finds it.
    """
    if us is None and vs is None and ws is None:
        return (
            array("q", [e.u for e in edges]),
            array("q", [e.v for e in edges]),
            array("q", [e.weight for e in edges]),
        )
    if edges or us is None or vs is None or ws is None:
        raise TypeError("give the edges or all three columns")
    try:
        return _column(us), _column(vs), _column(ws)
    except (OverflowError, TypeError):
        _first_bad_edge(n, us, vs, ws, weighted)
        raise


def _check_edges(
    us: array, vs: array, ws: array, n: int = WORD_LIMIT, weighted: bool = True
) -> None:
    """Refuse columns of unequal lengths, or with an edge that breaks a rule.

    Column-wide minima and maxima, and one C-level comparison of the ends,
    find whether an edge breaks one; only then is the first such edge
    looked for, by ``_first_bad_edge``.  With the defaults the rules are
    ``Edge``'s alone.
    """
    m = len(us)
    if len(vs) != m or len(ws) != m:
        raise ValueError("edge columns must have equal lengths")
    if m and (
        min(us) < 0
        or min(vs) < 0
        or max(us) >= n
        or max(vs) >= n
        or min(ws) < 1
        or (not weighted and max(ws) != 1)
        or any(map(operator.eq, us, vs))
    ):
        _first_bad_edge(n, us, vs, ws, weighted)
        raise AssertionError("the columns break a rule that none of their edges breaks")


def _first_bad_edge(
    n: int, us: Sequence[int], vs: Sequence[int], ws: Sequence[int], weighted: bool
) -> None:
    """Raise the error of the first edge that breaks a rule, in stream order.

    The rules are ``Edge``'s, then the range ``[0, n)``, then weight 1 on an
    unweighted graph, so a graph built from columns fails as one built
    from the same edges would.
    """
    for u, v, w in zip(us, vs, ws):
        Edge(u, v, w)
        if u >= n or v >= n:
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if not weighted and w != 1:
            raise ValueError("unweighted graph cannot hold an edge of weight != 1")


@dataclass(frozen=True, init=False)
class Matching(_EdgeColumns):
    """A set of vertex-disjoint edges, kept in the order they were chosen.

    Held as three int columns, as a ``Graph`` is, and built from ``Edge``
    objects, ``Matching(edges)``, or from columns, ``Matching(us=...,
    vs=..., ws=...)``; an ``array("q")`` column is held as given.  The
    columns are checked once, by ``Edge``'s rules, and no two edges may
    share an end; ``edges`` builds the ``Edge`` objects afresh on each
    access.
    """

    us: array
    vs: array
    ws: array

    def __init__(
        self,
        edges: Sequence[Edge] = (),
        *,
        us: Sequence[int] | None = None,
        vs: Sequence[int] | None = None,
        ws: Sequence[int] | None = None,
    ) -> None:
        us, vs, ws = _edge_columns(edges, us, vs, ws)
        _check_edges(us, vs, ws)
        # Sorted, the ends hold a repeat only next to itself: C-level
        # passes, and no set of every end.
        ends = sorted(chain(us, vs))
        if any(map(operator.eq, ends, islice(ends, 1, None))):
            seen: set[int] = set()
            for u, v in zip(us, vs):
                if u in seen or v in seen:
                    raise ValueError(f"edges share vertex: ({u}, {v}) overlaps earlier edge")
                seen.add(u)
                seen.add(v)
        _hold(self, us=us, vs=vs, ws=ws)


@dataclass(frozen=True)
class ContractionMap:
    """Maps original vertices onto the vertices of a contracted graph.

    ``target[v]`` is the contracted id of original vertex ``v``, or -1 when
    ``v`` is banned.  Contracted ids are assigned in increasing order of
    each class's smallest original vertex, so the mapping is a pure
    function of the contracted vertex sets.
    """

    n_new: int
    target: tuple[int, ...]


def components_contraction(
    n: int, pairs: Iterable[tuple[int, int]], banned: Iterable[int] = ()
) -> ContractionMap:
    """Contract each connected component spanned by ``pairs`` into one vertex.

    Each ``banned`` vertex maps to -1.  Banning renumbers nothing: a class
    keeps its id, and counts in ``n_new``, even when members are banned.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            # Keep the smaller root so class representatives are minima.
            if ru > rv:
                ru, rv = rv, ru
            parent[rv] = ru

    # Roots are class minima, so walking v upwards meets each class's root
    # before any other member and numbers classes by their smallest vertex.
    target = [0] * n
    n_new = 0
    for v in range(n):
        r = find(v)
        if r == v:
            target[v] = n_new
            n_new += 1
        else:
            target[v] = target[r]
    for v in banned:
        target[v] = -1
    return ContractionMap(n_new=n_new, target=tuple(target))


def matching_contraction(n: int, matching: Matching) -> ContractionMap:
    """Contraction map that merges the two endpoints of every matching edge."""
    return components_contraction(n, zip(matching.us, matching.vs))


def contract_edges(g: Graph, merge: Iterable[tuple[int, int]]) -> tuple[Graph, ContractionMap]:
    """Contract vertex classes spanned by ``merge`` pairs; drop self-loops.

    Parallel edges that arise are kept, in original arrival order, because
    the contracted graph is itself streamed.
    """
    cmap = components_contraction(g.n, merge)
    at = cmap.target.__getitem__
    tus = array("q", map(at, g.us))
    tvs = array("q", map(at, g.vs))
    kept = bytes(map(operator.ne, tus, tvs))
    us, vs, ws = (array("q", compress(col, kept)) for col in (tus, tvs, g.ws))
    return Graph(cmap.n_new, us=us, vs=vs, ws=ws, weighted=g.weighted), cmap


@dataclass(frozen=True)
class CoverCheck:
    """Outcome of validating an edge set as a path cover."""

    ok: bool
    reason: str | None
    paths: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(p) - 1 for p in self.paths)


def validate_path_cover(
    n: int,
    edges: Sequence[Edge] = (),
    *,
    us: Sequence[int] | None = None,
    vs: Sequence[int] | None = None,
) -> CoverCheck:
    """Check that ``edges`` form vertex-disjoint simple paths in [0, n).

    The edges are ``Edge`` objects, or the columns ``us`` and ``vs`` of
    their ends, in order; columns of unequal lengths, or with a negative
    end or a self-loop, which no ``Edge`` can hold, are not a cover.  On
    success the paths are returned sorted by
    smallest contained vertex, each oriented from its lower-id endpoint.
    Isolated vertices are legal (a path cover may leave vertices uncovered
    by edges; they are trivial zero-length paths) and are not listed.
    """
    if us is None and vs is None:
        us = [e.u for e in edges]
        vs = [e.v for e in edges]
    elif edges or us is None or vs is None:
        raise TypeError("give the edges or both end columns")
    elif len(us) != len(vs):
        return CoverCheck(False, "edge columns must have equal lengths", ())
    elif us and (min(us) < 0 or min(vs) < 0 or any(map(operator.eq, us, vs))):
        for u, v in zip(us, vs):
            if u < 0 or v < 0:
                return CoverCheck(False, f"edge ({u}, {v}) has a negative end", ())
            if u == v:
                return CoverCheck(False, f"self-loop at vertex {u}", ())
    deg = [0] * n
    # Vertex x's first two neighbours, in slots 2x and 2x + 1.
    nbrs = [0] * (2 * n)
    # While no degree passes 2, a repeated pair shows in the slots: both its
    # ends have degree 1 and are each other's only neighbour.  So a cover
    # keeps no set of pairs.  An edge that would lift a degree past 2 ends
    # that; the edges are then read again from the first, each pair checked
    # against a set of the pairs before it, so every message and its
    # precedence are the same either way.
    capped = True
    for u, v in zip(us, vs):
        if u >= n or v >= n:
            return CoverCheck(False, f"edge ({u}, {v}) out of range for n={n}", ())
        du, dv = deg[u], deg[v]
        if du > 1 or dv > 1:
            capped = False
            break
        if du and nbrs[2 * u] == v:
            a, b = (u, v) if u < v else (v, u)
            return CoverCheck(False, f"parallel edges between {a} and {b}", ())
        nbrs[2 * u + du] = v
        nbrs[2 * v + dv] = u
        deg[u] = du + 1
        deg[v] = dv + 1
    if not capped:
        deg = [0] * n
        # Each pair a < b as the int a * n + b.
        seen_pairs: set[int] = set()
        for u, v in zip(us, vs):
            if u >= n or v >= n:
                return CoverCheck(False, f"edge ({u}, {v}) out of range for n={n}", ())
            key = u * n + v if u < v else v * n + u
            if key in seen_pairs:
                a, b = (u, v) if u < v else (v, u)
                return CoverCheck(False, f"parallel edges between {a} and {b}", ())
            seen_pairs.add(key)
            du, dv = deg[u], deg[v]
            if du < 2:
                nbrs[2 * u + du] = v
            if dv < 2:
                nbrs[2 * v + dv] = u
            deg[u] = du + 1
            deg[v] = dv + 1

    # Only the edges' ends are scanned, so a sparse cover of a large n costs
    # O(m) steps past the two allocations above.  The first over-degree
    # vertex is reported in order of first appearance.
    ends: list[int] = []
    for u, v in zip(us, vs):
        du, dv = deg[u], deg[v]
        if du > 2:
            return CoverCheck(False, f"vertex {u} has degree {du}", ())
        if dv > 2:
            return CoverCheck(False, f"vertex {v} has degree {dv}", ())
        if du == 1:
            ends.append(u)
        if dv == 1:
            ends.append(v)

    # Every component is now a path or a cycle; walk from degree-1 vertices
    # in increasing order, zeroing the degree of each vertex walked.  Edges
    # the walks miss lie on cycles, whose vertices keep their degrees.
    paths: list[tuple[int, ...]] = []
    walked = 0
    for start in sorted(ends):
        if deg[start] != 1:  # the far end of a path already walked
            continue
        deg[start] = 0
        walk = [start]
        prev, cur = start, nbrs[2 * start]
        while True:
            walk.append(cur)
            d = deg[cur]
            deg[cur] = 0
            if d == 1:
                break
            nxt = nbrs[2 * cur]
            if nxt == prev:
                nxt = nbrs[2 * cur + 1]
            prev, cur = cur, nxt
        paths.append(tuple(walk))
        walked += len(walk) - 1

    if walked < len(us):
        on_cycle = min(x for x in chain(us, vs) if deg[x])
        return CoverCheck(False, f"cycle through vertex {on_cycle}", ())

    # Each walk began at the first degree-1 vertex met in increasing order,
    # which is its lower-id endpoint, so every path is already oriented.
    paths.sort(key=min)
    return CoverCheck(True, None, tuple(paths))


@dataclass(frozen=True, init=False)
class PathCover(_EdgeColumns):
    """A validated path cover: vertex-disjoint simple paths.

    Held as three int columns and built from ``Edge`` objects or columns,
    as a ``Matching`` is; the columns are checked by ``Edge``'s rules, then
    by ``validate_path_cover``.  ``edges`` builds the ``Edge`` objects
    afresh on each access.
    """

    n: int
    us: array
    vs: array
    ws: array
    paths: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        n: int,
        edges: Sequence[Edge] = (),
        *,
        us: Sequence[int] | None = None,
        vs: Sequence[int] | None = None,
        ws: Sequence[int] | None = None,
    ) -> None:
        us, vs, ws = _edge_columns(edges, us, vs, ws)
        _check_edges(us, vs, ws)
        check = validate_path_cover(n, us=us, vs=vs)
        if not check.ok:
            raise ValueError(f"not a path cover: {check.reason}")
        _hold(self, n=n, us=us, vs=vs, ws=ws, paths=check.paths)

    @property
    def path_lengths(self) -> tuple[int, ...]:
        return tuple(len(p) - 1 for p in self.paths)

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p)


@dataclass(frozen=True)
class Tour:
    """A Hamiltonian cycle given as a vertex order, plus its total cost."""

    order: tuple[int, ...]
    cost: int

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("tour order must be a permutation of 0..n-1")
        if len(self.order) < 3:
            raise ValueError("a tour needs at least 3 vertices")

    @classmethod
    def from_order(cls, order: Sequence[int], legs: Sequence[int]) -> "Tour":
        """The cycle ``order[0] - ... - order[-1] - order[0]``, costing the sum of its legs."""
        return cls(tuple(order), sum(legs))
