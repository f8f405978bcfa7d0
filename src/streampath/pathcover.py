"""Path cover construction on top of the streaming matching engines.

The workhorse is ``two_phase_path_cover``: match once, contract the
matched pairs, match the contraction, and return the union of both
matchings.  The union is always a set of vertex-disjoint paths of one to
three edges.  With the unweighted engine its edge count is at least
(2/3)(1 - epsilon) times the size of a maximum path cover; with the
weighted engine (``weighted=True``) it is the heavy cover that
``tsp.approx_max_tsp`` closes into a tour.

``iterative_path_cover`` repeats the idea: after each round it bans every
interior vertex of the current cover (so new edges can only attach at
path endpoints), contracts each covered path to a single vertex (so no
path is extended at both ends into a cycle and no two ends of the same
path are joined), and matches again until a round comes back empty.  It
is exploratory: it can beat the two-phase bound on some inputs, but no
ratio better than 2/3 is promised.

Both entry points run in a session the caller opens (``open_session``),
which fixes the word budget and whether an overrun is fatal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    Edge,
    Matching,
    PathCover,
    components_contraction,
    matching_contraction,
    validate_path_cover,
)
from .matching import (
    ApproxParams,
    streaming_max_matching,
    streaming_max_weight_matching,
)
from .stream import EdgeStreamSource, StreamReport, StreamSession


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
    session: StreamSession,
    *,
    weighted: bool = False,
) -> MpcResult:
    """Match, contract the matching, match again; the union is the cover.

    The unweighted engine ignores edge weights and maximizes edge count;
    ``weighted=True`` runs the weighted engine in both phases instead.
    The second matching is a matching of the contraction, so each of its
    edges joins two first-phase pairs (or unmatched vertices) end to end
    and no vertex joins two of its edges: the union stays acyclic with
    paths of at most 3 edges, whichever engine ran.  Each run ends holding
    what it began with, so the driver charges what phase two carries, the
    first matching and the contraction map, and releases it after.
    """
    engine = streaming_max_weight_matching if weighted else streaming_max_matching
    first = engine(source, params, session, label="first-matching")
    session.charge(3 * first.size + source.n)
    view = matching_contraction(source.n, first)
    second = engine(source, params, session, view=view, label="second-matching")
    session.release(3 * first.size + source.n)
    try:
        cover = PathCover(source.n, first.edges + second.edges)
    except ValueError as err:
        raise AssertionError(f"two-phase union is {err}") from None
    lengths = cover.path_lengths
    if any(length not in (1, 2, 3) for length in lengths):
        raise AssertionError(f"two-phase union has a path of length {max(lengths)}")
    return MpcResult(cover, first, second, session.report())


def cover_bound_holds(size: int, best: int, epsilon: Fraction) -> bool:
    """The two-phase guarantee: ``size >= (2/3)(1 - epsilon) * best``.

    ``best`` is the size of a maximum path cover of the same graph.
    """
    p, q = epsilon.numerator, epsilon.denominator
    return 3 * size * q >= 2 * (q - p) * best


def cover_interior_vertices(n: int, edges: tuple[Edge, ...]) -> frozenset[int]:
    """Vertices with two incident cover edges (interior points of paths)."""
    check = validate_path_cover(n, edges)
    if not check.ok:
        raise ValueError(f"not a path cover: {check.reason}")
    return frozenset(v for path in check.paths for v in path[1:-1])


@dataclass(frozen=True)
class IterativeCoverResult:
    """Cover built by repeated matching, with the per-round matchings."""

    cover: PathCover
    rounds: tuple[Matching, ...]
    report: StreamReport


def iterative_path_cover(
    source: EdgeStreamSource,
    params: ApproxParams,
    session: StreamSession,
) -> IterativeCoverResult:
    """Match repeatedly, freezing path interiors between rounds.

    Round one is a plain engine run.  Before every later round the current
    cover's paths are contracted to single vertices and their interior
    vertices are banned, so a new edge can only join two different paths
    (or untouched vertices) at endpoints; the union therefore stays a
    valid path cover after every round.  Stops when a round adds nothing.
    Each run ends holding what it began with, so the driver charges each
    round's matching when it keeps it and releases them all at the end.
    """
    rounds: list[Matching] = []
    union: list[Edge] = []
    while True:
        if not rounds:
            view = None
        else:
            interior = cover_interior_vertices(source.n, tuple(union))
            view = components_contraction(source.n, [e.pair for e in union], interior)
            session.charge(source.n + len(interior))
        got = streaming_max_matching(
            source, params, session, view=view, label=f"round-{len(rounds) + 1}"
        )
        if view is not None:
            session.release(source.n + len(interior))
        if got.size == 0:
            break
        session.charge(3 * got.size)
        rounds.append(got)
        union.extend(got.edges)
        if len(rounds) > source.n:
            raise AssertionError("more matching rounds than vertices")
    cover = PathCover(source.n, tuple(union))
    session.release(3 * len(union))
    return IterativeCoverResult(cover, tuple(rounds), session.report())
