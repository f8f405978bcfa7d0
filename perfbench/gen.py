"""Seeded sparse random graphs for the benchmark.

``corpus.gen_random_graph`` draws every one of the n(n-1)/2 pairs, which
stops it near 10^4 vertices.  These generators draw each edge directly,
so their time is O(m) whatever n is.
"""

from __future__ import annotations

from typing import Iterator

from streampath.prng import SplitMix64

_LINES_PER_WRITE = 4096


def gnm_pairs(n: int, m: int, seed: int) -> Iterator[tuple[int, int]]:
    """Yield m uniform random edges of G(n, m) in arrival order.

    Each edge is an independent uniform pair of distinct vertices, so
    parallel edges occur and the arrival order is uniform.  O(1) memory.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    rng = SplitMix64(seed)
    for _ in range(m):
        u = rng.below(n)
        v = rng.below(n - 1)
        yield (u, v + 1 if v >= u else v)


def simple_gnm_pairs(n: int, m: int, seed: int) -> Iterator[tuple[int, int]]:
    """Like ``gnm_pairs`` but skips repeated pairs until m distinct ones.

    Keeps the set of pairs drawn so far, O(m) memory; meant for instances
    that are held in memory anyway.
    """
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError("m must fit in a simple graph on n vertices")
    rng = SplitMix64(seed)
    seen: set[int] = set()
    while len(seen) < m:
        u = rng.below(n)
        v = rng.below(n - 1)
        if v >= u:
            v += 1
        key = u * n + v if u < v else v * n + u
        if key not in seen:
            seen.add(key)
            yield (u, v)


def write_gnm(path: str, n: int, m: int, seed: int) -> None:
    """Write ``gnm_pairs(n, m, seed)`` as an unweighted edge-list file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n} {m}\n")
        lines: list[str] = []
        for u, v in gnm_pairs(n, m, seed):
            lines.append(f"{u} {v}\n")
            if len(lines) == _LINES_PER_WRITE:
                fh.write("".join(lines))
                lines.clear()
        fh.write("".join(lines))
