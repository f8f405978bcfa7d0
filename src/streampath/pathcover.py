"""Path cover construction on top of the streaming matching engines.

One round loop builds every cover.  Round one matches the stream; every
later round matches it through the cover so far, each path contracted to
one vertex and its interior vertices banned, so a new edge can only join
two paths (or untouched vertices) end to end.  After ``r`` rounds the
union is a set of vertex-disjoint paths of at most ``2**r - 1`` edges.  A
round that matches nothing ends the loop.

``two_phase_path_cover`` stops after two rounds: paths of one to three
edges, with the unweighted engine at least (2/3)(1 - epsilon) times a
maximum path cover, and with ``weighted=True`` the heavy cover that
``tsp.approx_max_tsp`` closes into a tour.  ``iterative_path_cover`` runs
until a round is empty, so it contains the two-phase cover; it can beat
the two-phase bound, but no ratio better than 2/3 is promised.

Both entry points run in a session the caller opens (``open_session``),
which fixes the word budget and whether an overrun is fatal.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from typing import Callable, Iterable

from .graph import ContractionMap, Matching, PathCover, components_contraction
from .matching import (
    ApproxParams,
    streaming_max_matching,
    streaming_max_weight_matching,
)
from .stream import EdgeStreamSource, StreamReport, StreamSession


@dataclass(frozen=True)
class MpcResult:
    """Cover plus the matching each round kept, in round order."""

    cover: PathCover
    rounds: tuple[Matching, ...]
    report: StreamReport

    @property
    def first_matching(self) -> Matching:
        return self.rounds[0] if self.rounds else Matching()

    @property
    def second_matching(self) -> Matching:
        return self.rounds[1] if len(self.rounds) > 1 else Matching()


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
    edges joins two first-phase pairs (or unmatched vertices) end to end:
    the union has paths of at most 3 edges, whichever engine ran.  An
    empty first matching leaves nothing to contract, and no second run.
    """
    engine = streaming_max_weight_matching if weighted else streaming_max_matching
    return _cover_rounds(source, params, session, engine, ("first-matching", "second-matching"))


def cover_bound_holds(size: int, best: int, epsilon: Fraction) -> bool:
    """The two-phase guarantee: ``size >= (2/3)(1 - epsilon) * best``.

    ``best`` is the size of a maximum path cover of the same graph.
    """
    p, q = epsilon.numerator, epsilon.denominator
    return 3 * size * q >= 2 * (q - p) * best


def iterative_path_cover(
    source: EdgeStreamSource,
    params: ApproxParams,
    session: StreamSession,
) -> MpcResult:
    """Match repeatedly through the cover so far until a round adds nothing."""
    labels = (f"round-{r}" for r in count(1))
    return _cover_rounds(source, params, session, streaming_max_matching, labels)


def _cover_rounds(
    source: EdgeStreamSource,
    params: ApproxParams,
    session: StreamSession,
    engine: Callable[..., Matching],
    labels: Iterable[str],
) -> MpcResult:
    """One engine run per label, each through the cover the earlier ones built.

    Each run ends holding what it began with, so the loop charges what the
    later runs carry: every kept matching, 3 words an edge, until the end,
    and the contraction map with its banned vertices around the run that
    reads it.  The union is validated once, at the end; a union that goes
    invalid stays invalid as later rounds only add edges.
    """
    n = source.n
    rounds: list[Matching] = []
    # The union of the kept matchings, as columns of ends and weights.
    us, vs, ws = array("q"), array("q"), array("q")
    for label in labels:
        if not rounds:
            view, words = None, 0
        else:
            view, words = _contract_cover(n, us, vs)
            session.charge(words)
        got = engine(source, params, session, view=view, label=label)
        session.release(words)
        if got.size == 0:
            break
        session.charge(3 * got.size)
        rounds.append(got)
        us += got.us
        vs += got.vs
        ws += got.ws
        if len(rounds) > n:
            raise AssertionError("more matching rounds than vertices")
    session.release(3 * len(us))
    try:
        cover = PathCover(n, us=us, vs=vs, ws=ws)
    except ValueError as err:
        raise AssertionError(f"union of {len(rounds)} rounds is {err}") from None
    longest = max(cover.path_lengths, default=0)
    if longest.bit_length() > len(rounds):
        raise AssertionError(f"{len(rounds)} rounds built a path of length {longest}")
    return MpcResult(cover, tuple(rounds), session.report())


def _contract_cover(n: int, us: array, vs: array) -> tuple[ContractionMap, int]:
    """The cover ``us``-``vs`` with each path one vertex, its interior banned; and its words.

    Nothing else built here outlives the call into the run that reads the map.
    """
    deg = [0] * n
    for x in chain(us, vs):
        deg[x] += 1
    interior = [v for v, d in enumerate(deg) if d > 1]
    return components_contraction(n, zip(us, vs), interior), n + len(interior)
