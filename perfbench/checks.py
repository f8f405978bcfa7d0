"""Oracle-free checks on one instance's output.

Each check returns a list of problems; an empty list means the output
passed.  The checks read the input independently of the library's own
parser, so a reader bug cannot hide behind itself.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from streampath.graph import Edge, validate_path_cover
from streampath.stream import StreamReport


def pass_ceiling(k: int) -> int:
    """Most passes one engine run may use at ``k = ceil(1/eps)``."""
    return k * (2 * k - 1) + 1


def check_cover(n: int, edges: Sequence[Edge]) -> list[str]:
    """The edges form vertex-disjoint simple paths of 1, 2 or 3 edges."""
    got = validate_path_cover(n, edges)
    if not got.ok:
        return [f"cover invalid: {got.reason}"]
    bad = sorted({length for length in got.lengths if length not in (1, 2, 3)})
    return [f"cover has paths of length {bad}"] if bad else []


def check_edges_in_input(edges: Iterable[Edge], inputs: set[tuple[int, int, int]]) -> list[str]:
    """Every edge is an input edge: ``(min, max, weight)`` occurs in ``inputs``."""
    for e in edges:
        if (*e.pair, e.weight) not in inputs:
            return [f"edge ({e.u}, {e.v}, w={e.weight}) is not an input edge"]
    return []


def check_maximal(n: int, pairs: Iterable[tuple[int, int]], matching: Iterable[Edge]) -> list[str]:
    """No input edge joins two vertices the matching leaves free (one scan)."""
    matched = bytearray(n)
    for e in matching:
        matched[e.u] = matched[e.v] = 1
    for u, v in pairs:
        if not (matched[u] or matched[v]):
            return [f"matching is not maximal: ({u}, {v}) has both ends free"]
    return []


def check_tour(
    n: int, order: Sequence[int], reported: int, weight_of: Callable[[int, int], int]
) -> list[str]:
    """The order is a permutation of 0..n-1 and its cost is as reported."""
    if sorted(order) != list(range(n)):
        return ["tour is not a permutation of 0..n-1"]
    cost = sum(weight_of(order[i - 1], order[i]) for i in range(n))
    return [] if cost == reported else [f"tour reports {reported}, input gives {cost}"]


def check_runs(report: StreamReport, k: int) -> list[str]:
    """Every run stays within the pass ceiling, and the budget held."""
    out = [
        f"run {r.label!r} used {r.passes} passes, ceiling {pass_ceiling(k)}"
        for r in report.runs
        if r.passes > pass_ceiling(k)
    ]
    if report.budget_exceeded or report.words_peak > report.words_budget:
        out.append(f"peak {report.words_peak} words over budget {report.words_budget}")
    return out
