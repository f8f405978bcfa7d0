"""Path cover construction on top of the streaming matching engines.

The workhorse is ``two_phase_path_cover``: match once, contract the
matched pairs, match the contraction, and return the union of both
matchings.  The union is always a set of vertex-disjoint paths of one to
three edges, and its edge count is at least (2/3)(1 - epsilon) times the
size of a maximum path cover.

``iterative_path_cover`` repeats the idea: after each round it bans every
interior vertex of the current cover (so new edges can only attach at
path endpoints), contracts each covered path to a single vertex (so no
path is extended at both ends into a cycle and no two ends of the same
path are joined), and matches again until a round comes back empty.  It
is exploratory: it can beat the two-phase bound on some inputs, but no
ratio better than 2/3 is promised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Edge,
    Graph,
    Matching,
    PathCover,
    components_contraction,
    matching_contraction,
    validate_path_cover,
)
from .matching import (
    ApproxParams,
    ContractionView,
    release_matching,
    streaming_max_matching,
    streaming_max_weight_matching,
)
from .stream import EdgeStreamSource, StreamReport, StreamSession, open_session


@dataclass(frozen=True)
class MpcResult:
    """Cover plus the two matchings it was assembled from."""

    cover: PathCover
    first_matching: Matching
    second_matching: Matching
    report: StreamReport


def two_phase_path_cover(
    source: EdgeStreamSource,
    params: ApproxParams,
    session: StreamSession | None = None,
    *,
    words_budget: int | None = None,
    strict: bool = False,
) -> MpcResult:
    """Match, contract the matching, match again; the union is the cover.

    Edge weights are ignored; the cover maximizes edge count.  The first
    matching is maximal, so no surviving edge joins two unmatched
    vertices, and the second matching joins matched pairs end to end;
    that is why the union stays acyclic with paths of at most 3 edges.
    """
    sess = session
    if sess is None:
        sess = open_session(source, k=params.k, words_budget=words_budget, strict=strict)
    first = streaming_max_matching(source, params, sess, label="first-matching")
    sess.charge(source.n)  # the contraction map is retained during phase two
    view = ContractionView(matching_contraction(source.n, first))
    second = streaming_max_matching(source, params, sess, view=view, label="second-matching")
    sess.release(source.n)
    try:
        cover = PathCover(source.n, first.edges + second.edges)
    except ValueError as err:
        raise AssertionError(f"two-phase union is {err}") from None
    lengths = cover.path_lengths
    if any(length not in (1, 2, 3) for length in lengths):
        raise AssertionError(f"two-phase union has a path of length {max(lengths)}")
    release_matching(sess, first)
    release_matching(sess, second)
    return MpcResult(cover, first, second, sess.report())


def cover_interior_vertices(n: int, edges: tuple[Edge, ...]) -> frozenset[int]:
    """Vertices with two incident cover edges (interior points of paths)."""
    check = validate_path_cover(n, edges)
    if not check.ok:
        raise ValueError(f"not a path cover: {check.reason}")
    return frozenset(v for path in check.paths for v in path[1:-1])


def remove_middle_incident_edges(g: Graph, cover_edges: tuple[Edge, ...]) -> Graph:
    """Drop every non-cover edge that touches an interior vertex of the cover.

    Cover pairs themselves survive (all parallel copies of them, too);
    everything else incident to a degree-2 cover vertex is removed.  This
    is the materialized form of what ``iterative_path_cover`` does with a
    banned-vertex stream view.
    """
    interior = cover_interior_vertices(g.n, cover_edges)
    cover_pairs = {e.pair for e in cover_edges}
    kept = tuple(
        e
        for e in g.edges
        if e.pair in cover_pairs or (e.u not in interior and e.v not in interior)
    )
    return Graph(g.n, kept, g.weighted)


@dataclass(frozen=True)
class IterativeCoverResult:
    """Cover built by repeated matching, with the per-round matchings."""

    cover: PathCover
    rounds: tuple[Matching, ...]
    report: StreamReport


def iterative_path_cover(
    source: EdgeStreamSource,
    params: ApproxParams,
    session: StreamSession | None = None,
    *,
    weighted: bool = False,
    words_budget: int | None = None,
    strict: bool = False,
) -> IterativeCoverResult:
    """Match repeatedly, freezing path interiors between rounds.

    Round one is a plain engine run.  Before every later round the current
    cover's paths are contracted to single vertices and their interior
    vertices are banned, so a new edge can only join two different paths
    (or untouched vertices) at endpoints; the union therefore stays a
    valid path cover after every round.  Stops when a round adds nothing.
    """
    engine = streaming_max_weight_matching if weighted else streaming_max_matching
    sess = session
    if sess is None:
        sess = open_session(source, k=params.k, words_budget=words_budget, strict=strict)
    rounds: list[Matching] = []
    union: list[Edge] = []
    while True:
        if not rounds:
            view = None
        else:
            interior = cover_interior_vertices(source.n, tuple(union))
            cmap = components_contraction(source.n, [e.pair for e in union])
            view = ContractionView(cmap, banned=interior)
            sess.charge(source.n + len(interior))
        got = engine(source, params, sess, view=view, label=f"round-{len(rounds) + 1}")
        if view is not None:
            sess.release(source.n + len(view.banned))
        if got.size == 0:
            break
        rounds.append(got)
        union.extend(got.edges)
        if len(rounds) > source.n:
            raise AssertionError("more matching rounds than vertices")
    cover = PathCover(source.n, tuple(union))
    for got in rounds:
        release_matching(sess, got)
    return IterativeCoverResult(cover, tuple(rounds), sess.report())
