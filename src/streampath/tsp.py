"""Tours from path covers: the (1,2)-cost and max-weight TSP pipelines.

Both pipelines run the one two-phase cover driver,
``pathcover.two_phase_path_cover``, and then close the cover into a
Hamiltonian cycle deterministically.  For (1,2)-costs the driver runs the
unweighted engine on the cost-1 pairs; every missing edge costs 2, so any
completion works and the tour cost is at most ``2 n - cover_size``.  For
max-weight tours on complete graphs it runs the weighted engine, the
cover is patched so at most one vertex is left uncovered, then the paths
are concatenated.

Each instance class is a ``Graph`` with ``weighted`` fixed, so the
pipelines stream the instance's own columns and its edges are checked
once, when it is built.  An instance is only its columns: a tour is
costed by one sweep of them (``_cost_tour``), and a pair the instance does
not list costs 2.  No solve builds an ``Edge`` of the instance.

The exact oracles (Held-Karp tours, branch-and-bound path cover) are
deliberately small-instance: they exist to certify the streaming results
on test corpora, not to scale.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress, count
from typing import Sequence

from .graph import Edge, Graph, Matching, PathCover, Tour, contract_edges
from .matching import ApproxParams, OracleLimitError, oracle_max_weight_matching
from .pathcover import MpcResult, two_phase_path_cover
from .stream import Column, InMemoryEdgeSource, StreamReport, open_session


@dataclass(frozen=True, init=False)
class Tsp12Instance(Graph):
    """Symmetric TSP where every pair costs 1 or 2.

    The instance is the unweighted graph of its cost-1 pairs, each listed
    once; every absent pair costs 2.  That graph's path cover drives the
    approximation.
    """

    weighted: bool = field(default=False, init=False)

    def __init__(
        self,
        n: int,
        edges: Sequence[Edge] = (),
        *,
        us: Column | None = None,
        vs: Column | None = None,
        ws: Column | None = None,
    ) -> None:
        super().__init__(n, edges, False, us=us, vs=vs, ws=ws)

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_tour_pairs(self)

    @classmethod
    def from_graph(cls, g: Graph) -> "Tsp12Instance":
        """Use ``g``'s distinct pairs as the cost-1 pairs (first copy wins).

        The instance holds ``g``'s first copy of each pair, in stream order,
        so a ``g`` with an edge of weight other than 1 is refused with
        ``Graph``'s unit-weight error rather than reweighted.
        """
        first = _repeats(g).translate(_FLIP)
        us, vs, ws = (array("q", compress(col, first)) for col in (g.us, g.vs, g.ws))
        return cls(g.n, us=us, vs=vs, ws=ws)

    def cheap_graph(self) -> Graph:
        """The cost-1 pairs as an unweighted graph: the instance itself."""
        return self


@dataclass(frozen=True, init=False)
class MaxTspInstance(Graph):
    """Complete graph with positive integer weights, tour weight maximized."""

    weighted: bool = field(default=True, init=False)

    def __init__(
        self,
        n: int,
        edges: Sequence[Edge] = (),
        *,
        us: Column | None = None,
        vs: Column | None = None,
        ws: Column | None = None,
    ) -> None:
        super().__init__(n, edges, True, us=us, vs=vs, ws=ws)

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_tour_pairs(self)
        want = self.n * (self.n - 1) // 2
        if self.m != want:
            raise ValueError(f"instance must be complete: {self.m} of {want} pairs present")

    def graph(self) -> Graph:
        """The weighted complete graph: the instance itself."""
        return self


# Maps a repeat mask to a first-copy mask.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _repeats(g: Graph) -> bytearray:
    """One byte per edge of ``g``: 1 where an earlier edge lists the same pair.

    A counting sort by the smaller endpoint, stable in stream order, puts
    the copies of a pair in one bucket in stream order.  Walking bucket
    ``a`` stamps each larger endpoint with ``a + 1``, so a copy whose end
    is stamped already repeats its pair.  Besides the mask it holds one int
    per edge and a few per vertex, and no set of pairs.
    """
    us, vs = g.us, g.vs
    m = len(us)
    rep = bytearray(m)
    if not m:
        return rep
    # Only the ends in use size the arrays, not n.
    size = max(max(us), max(vs)) + 1
    start = array("q", [0]) * (size + 1)
    for u, v in zip(us, vs):
        start[(u if u < v else v) + 1] += 1
    start = array("q", accumulate(start))
    # Stream positions by bucket; ``fill[a]`` is bucket a's next free slot.
    order = array("q", [0]) * m
    fill = array("q", start)
    for i, u, v in zip(count(), us, vs):
        a = u if u < v else v
        k = fill[a]
        order[k] = i
        fill[a] = k + 1
    del fill
    mark = array("q", [0]) * size
    for a in range(size):
        stamp = a + 1
        for i in order[start[a] : start[stamp]]:
            b = us[i] + vs[i] - a
            if mark[b] == stamp:
                rep[i] = 1
            else:
                mark[b] = stamp
    return rep


def _check_tour_pairs(g: Graph) -> None:
    """A tour instance has at least 3 vertices and lists each pair once."""
    if g.n < 3:
        raise ValueError("need at least 3 vertices for a tour")
    i = _repeats(g).find(1)
    if i >= 0:
        u, v = g.us[i], g.vs[i]
        raise ValueError(f"duplicate pair {(u, v) if u < v else (v, u)}")


def _cost_tour(inst: Tsp12Instance | MaxTspInstance, order: Sequence[int]) -> Tour:
    """The tour through ``order``, costed by one sweep of the instance's columns.

    ``leg[u]`` costs the leg from ``u`` to ``succ[u]``.  A pair the instance
    does not list costs 2; a heavy instance lists every pair.
    """
    n = inst.n
    succ = [0] * n
    for i, v in enumerate(order):
        succ[order[i - 1]] = v
    leg = [2] * n
    for u, v, w in zip(inst.us, inst.vs, inst.ws):
        if succ[u] == v:
            leg[u] = w
        if succ[v] == u:
            leg[v] = w
    return Tour.from_order(order, leg)


def hamiltonian_order(paths: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """Concatenate disjoint paths into one vertex order covering 0..n-1.

    Each path is oriented from its lower-id endpoint, paths are sorted by
    their smallest vertex, and vertices on no path are appended in
    increasing order.  Purely deterministic so tours are reproducible.
    """
    fixed = [tuple(p) if p[0] < p[-1] else tuple(reversed(p)) for p in paths]
    fixed.sort(key=min)
    order: list[int] = []
    for p in fixed:
        order.extend(p)
    covered = set(order)
    if len(covered) != len(order):
        raise ValueError("paths are not vertex-disjoint")
    order.extend(v for v in range(n) if v not in covered)
    return tuple(order)


@dataclass(frozen=True)
class Tsp12Result:
    """Tour for a (1,2) instance plus the cover run that produced it."""

    tour: Tour
    mpc: MpcResult

    @property
    def report(self) -> StreamReport:
        return self.mpc.report


def approx_tsp12(
    inst: Tsp12Instance,
    params: ApproxParams,
    *,
    words_budget: int | None = None,
    strict: bool = False,
) -> Tsp12Result:
    """Cover the cost-1 graph, then close the cover into a tour.

    Every cover edge the tour actually uses costs 1 and everything else
    costs at most 2, so the tour costs at most ``2 n - cover_size``; with
    the cover guarantee that lands within ``4/3 + epsilon + 1/n`` of the
    optimum.
    """
    src = InMemoryEdgeSource(inst, name="tsp12-cost1")
    sess = open_session(src, k=params.k, words_budget=words_budget, strict=strict)
    mpc = two_phase_path_cover(src, params, sess)
    order = hamiltonian_order(mpc.cover.paths, inst.n)
    tour = _cost_tour(inst, order)
    if tour.cost > 2 * inst.n - mpc.cover.size:
        raise AssertionError("tour exceeded the 2n - cover_size ceiling")
    return Tsp12Result(tour, mpc)


def tsp12_bound_holds(cost: int, optimum: int, n: int, epsilon: Fraction) -> bool:
    """The (1,2) guarantee: ``cost <= (4/3 + epsilon + 1/n) * optimum``."""
    return Fraction(cost) <= (Fraction(4, 3) + epsilon + Fraction(1, n)) * optimum


@dataclass(frozen=True)
class MaxTspResult:
    """Heavy tour plus the cover and matchings behind it."""

    tour: Tour
    cover: PathCover
    first_matching: Matching
    second_matching: Matching
    report: StreamReport


def approx_max_tsp(
    inst: MaxTspInstance,
    params: ApproxParams,
    *,
    words_budget: int | None = None,
    strict: bool = False,
) -> MaxTspResult:
    """Two weighted matching phases, then close the heavy cover into a tour.

    The two-phase driver runs the weighted engine: phase one matches the
    whole instance, phase two matches the contraction of phase one
    (parallel copies collapse to their heaviest copy inside the engine),
    and both matchings are released before it returns.  Completeness plus
    engine maximality leave at most one uncovered vertex; if the degree
    cap ever spoils maximality, one extra greedy patch pass over the
    stream restores it, charging its set of free vertices and the edges
    it adds until it ends; the cover it carries is charged around it.
    The leftover vertex, if any, is attached at the cover endpoint with
    the smallest id: the start of the path with the smallest first
    vertex, since each path runs from its lower-id endpoint.
    """
    src = InMemoryEdgeSource(inst, name="max-tsp")
    sess = open_session(src, k=params.k, words_budget=words_budget, strict=strict)
    mpc = two_phase_path_cover(src, params, sess, weighted=True)
    cover, first, second = mpc.cover, mpc.first_matching, mpc.second_matching
    free = sorted(set(range(inst.n)) - cover.covered)
    if len(free) >= 2:
        remaining = set(free)
        # The patch edges' ends and weights.
        pus, pvs, pws = array("q"), array("q"), array("q")

        def patch_visit(pos0: int, us: Column, vs: Column, ws: Column) -> None:
            for u, v, w in zip(us, vs, ws):
                if u in remaining and v in remaining:
                    remaining.discard(u)
                    remaining.discard(v)
                    pus.append(u)
                    pvs.append(v)
                    pws.append(w)
                    sess.charge(3)

        # The pass carries the two-phase cover, 3 words an edge.
        sess.charge(3 * cover.size)
        sess.begin_run("leftover-patch")
        sess.charge(len(free))
        sess.run_pass(patch_visit)
        sess.release(len(free) + 3 * len(pus))
        sess.end_run()
        sess.release(3 * cover.size)
        second = Matching(us=second.us + pus, vs=second.vs + pvs, ws=second.ws + pws)
        cover = PathCover(
            inst.n, us=first.us + second.us, vs=first.vs + second.vs, ws=first.ws + second.ws
        )
        free = sorted(set(range(inst.n)) - cover.covered)
    if len(free) > 1:
        raise AssertionError("complete instance left more than one vertex uncovered")

    paths = [list(p) for p in cover.paths]
    if free:
        if not paths:
            raise AssertionError("empty cover on a complete instance")
        min(paths, key=lambda p: p[0]).insert(0, free[0])

    order = hamiltonian_order(paths, inst.n)
    tour = _cost_tour(inst, order)
    return MaxTspResult(tour, cover, first, second, sess.report())


def max_tsp_bound_holds(weight: int, optimum: int, n: int, epsilon: Fraction) -> bool:
    """The heavy-tour guarantee: ``weight >= (7/12 - 3/(4n))(1 - epsilon) * optimum``."""
    p, q = epsilon.numerator, epsilon.denominator
    return 12 * n * weight * q >= (7 * n - 9) * (q - p) * optimum


def _held_karp(inst: Tsp12Instance | MaxTspInstance, maximize: bool) -> int:
    """Exact tour value by dynamic programming over vertex subsets.

    State: (set of visited vertices including 0, current vertex).  Capped
    at n = 15 which is roughly half a million states; the cap is checked
    before the n x n cost matrix is built.
    """
    n = inst.n
    if n > 15:
        raise OracleLimitError(f"exact tours handle n <= 15, got {n}")
    cost = _cost_matrix(inst)

    def better(a: int | None, b: int) -> bool:
        if a is None:
            return True
        return b > a if maximize else b < a

    size = 1 << n
    dp: list[list[int | None]] = [[None] * n for _ in range(size)]
    for v in range(1, n):
        dp[(1 << v) | 1][v] = cost[0][v]
    for mask in range(size):
        if not mask & 1:
            continue
        row = dp[mask]
        for last in range(1, n):
            cur = row[last]
            if cur is None:
                continue
            for nxt in range(1, n):
                if mask & (1 << nxt):
                    continue
                cand = cur + cost[last][nxt]
                target = dp[mask | (1 << nxt)]
                if better(target[nxt], cand):
                    target[nxt] = cand
    best: int | None = None
    full = size - 1
    for last in range(1, n):
        cur = dp[full][last]
        if cur is None:
            continue
        cand = cur + cost[last][0]
        if better(best, cand):
            best = cand
    assert best is not None
    return best


def _cost_matrix(inst: Tsp12Instance | MaxTspInstance) -> list[list[int]]:
    """The cost of every ordered pair as an n x n matrix, 0 on the diagonal.

    A pair the instance does not list costs 2, as in ``_cost_tour``.
    """
    n = inst.n
    cost = [[2] * n for _ in range(n)]
    for v in range(n):
        cost[v][v] = 0
    for u, v, w in zip(inst.us, inst.vs, inst.ws):
        cost[u][v] = cost[v][u] = w
    return cost


def oracle_tsp12(inst: Tsp12Instance) -> int:
    """Exact optimum cost of a (1,2) instance (n <= 15)."""
    return _held_karp(inst, maximize=False)


def oracle_max_tsp(inst: MaxTspInstance) -> int:
    """Exact maximum tour weight (n <= 15)."""
    return _held_karp(inst, maximize=True)


def _has_all_cheap_tour(inst: Tsp12Instance) -> bool:
    """Is there a Hamiltonian cycle using cost-1 pairs only?  Subset DP."""
    n = inst.n
    adj = [0] * n
    for u, v in zip(inst.us, inst.vs):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    size = 1 << n
    reach: list[int] = [0] * size  # bitmask of possible current vertices
    reach[1] = 1
    for mask in range(1, size):
        if not mask & 1:
            continue
        cur = reach[mask]
        if not cur:
            continue
        for v in range(n):
            if cur & (1 << v):
                ext = adj[v] & ~mask
                while ext:
                    w = ext & -ext
                    reach[mask | w] |= w
                    ext ^= w
    full = size - 1
    closing = reach[full] & adj[0]
    return closing != 0


@dataclass(frozen=True)
class Tsp12Identity:
    """Exact relation between the (1,2) optimum and the best path cover.

    The optimum equals ``2 n - best_cover_size``, minus one exactly when a
    tour of all cost-1 legs exists.  Each quantity is computed by an
    independent exhaustive method so the relation is genuinely checked.
    """

    n: int
    optimum: int
    best_cover_size: int
    has_cheap_tour: bool
    predicted: int = field(init=False)
    holds: bool = field(init=False)

    def __post_init__(self) -> None:
        predicted = 2 * self.n - self.best_cover_size - (1 if self.has_cheap_tour else 0)
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "holds", predicted == self.optimum)


def tsp12_identity_check(inst: Tsp12Instance) -> Tsp12Identity:
    """Compute optimum, best cover and cheap-tour existence independently."""
    return Tsp12Identity(
        n=inst.n,
        optimum=oracle_tsp12(inst),
        best_cover_size=oracle_path_cover(inst).size,
        has_cheap_tour=_has_all_cheap_tour(inst),
    )


def oracle_path_cover(g: Graph) -> PathCover:
    """Exact maximum-size path cover by branch and bound (<= 22 distinct edges).

    Deterministic witness: the first maximum found by include-first search
    in stream order.
    """
    first = _repeats(g).translate(_FLIP)  # 1 at the first copy of each pair
    m = first.count(1)
    if m > 22:
        raise OracleLimitError(f"exact path cover handles <= 22 distinct edges, got {m}")
    items = list(map(Edge, *(compress(col, first) for col in (g.us, g.vs, g.ws))))
    n = g.n

    deg = [0] * n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    # Room left in the degree budget: each vertex may take at most 2 edges,
    # and each edge consumes 2 endpoint slots.
    slack = 2 * len({v for e in items for v in (e.u, e.v)})

    best_edges: list[Edge] = []
    best_size = -1
    chosen: list[Edge] = []

    def rec(i: int, slack_now: int) -> None:
        nonlocal best_size, best_edges
        if i == m:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_edges = list(chosen)
            return
        if len(chosen) + min(m - i, slack_now // 2) <= best_size:
            return
        e = items[i]
        ru, rv = find(e.u), find(e.v)
        if deg[e.u] < 2 and deg[e.v] < 2 and ru != rv:
            deg[e.u] += 1
            deg[e.v] += 1
            parent[ru] = rv
            chosen.append(e)
            rec(i + 1, slack_now - 2)
            chosen.pop()
            parent[ru] = ru
            deg[e.u] -= 1
            deg[e.v] -= 1
        rec(i + 1, slack_now)

    rec(0, slack)
    return PathCover(n, tuple(best_edges))


def extract_matching_from_cycle(edges: Sequence[Edge]) -> Matching:
    """Heaviest of the two near-alternating matchings inside a simple cycle.

    Drops the lightest cycle edge (earliest on ties), splits the remaining
    path into the two parity classes, and returns the heavier class (the
    one containing the first path edge on ties).  For a cycle of k edges
    the result has ceil((k-1)/2) >= (k-1)/2 edges, and its weight is at
    least (k-1)/(2k) of the cycle weight.
    """
    k = len(edges)
    if k < 3:
        raise ValueError("a simple cycle needs at least 3 edges")
    adj = _adjacency(edges)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        raise ValueError("not a cycle: some vertex does not have degree 2")
    # Every vertex has two edges, so the walk takes k of them and returns
    # to its start exactly when they are all different.
    order = _walk(adj, min(adj), k)
    if len(set(order)) != k:
        raise ValueError("edges do not form one single cycle")
    drop_at = min(range(k), key=lambda i: (edges[order[i]].weight, i))
    path = order[drop_at + 1 :] + order[:drop_at]
    return _heavier_parity_class(edges, path)


def extract_matching_from_path_or_cycle(edges: Sequence[Edge]) -> Matching:
    """Matching of at least a third of the structure's weight.

    Accepts a simple path, a simple cycle, or the two-vertex cycle made of
    two parallel edges (a closed tour on two vertices).  Paths keep the
    heavier parity class directly; cycles go through
    ``extract_matching_from_cycle``; the parallel pair keeps its heavier
    copy.  In every case 3 * w(matching) >= w(structure).
    """
    k = len(edges)
    if k == 0:
        return Matching(())
    if k == 1:
        return Matching((edges[0],))
    if k == 2 and edges[0].pair == edges[1].pair:
        return Matching((max(edges, key=lambda e: e.weight),))
    if len({e.pair for e in edges}) != k:
        raise ValueError("parallel edges are only allowed as a two-edge cycle")
    adj = _adjacency(edges)
    ends = [x for x, nbrs in adj.items() if len(nbrs) == 1]
    if not ends:
        return extract_matching_from_cycle(edges)
    # From the lower-id end, a walk with no vertex of degree 3 or more
    # never comes back to a vertex, so it is one simple path exactly when
    # it takes every edge.
    path = _walk(adj, min(ends), k)
    if len(path) != k or any(len(nbrs) > 2 for nbrs in adj.values()):
        raise ValueError("edges form neither a simple path nor a simple cycle")
    return _heavier_parity_class(edges, path)


def _adjacency(edges: Sequence[Edge]) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, e in enumerate(edges):
        adj.setdefault(e.u, []).append((e.v, i))
        adj.setdefault(e.v, []).append((e.u, i))
    return adj


def _walk(adj: dict[int, list[tuple[int, int]]], start: int, steps: int) -> list[int]:
    """Edge indices of a walk from ``start``, in order.

    The walk never leaves a vertex by the edge it came in on.  It stops
    after ``steps`` edges, or earlier at a vertex with no other edge.
    """
    order: list[int] = []
    cur = start
    last_idx = -1
    for _ in range(steps):
        step = next(((x, i) for x, i in adj[cur] if i != last_idx), None)
        if step is None:
            break
        cur, last_idx = step
        order.append(last_idx)
    return order


def _heavier_parity_class(edges: Sequence[Edge], path_order: list[int]) -> Matching:
    evens = [edges[i] for i in path_order[0::2]]
    odds = [edges[i] for i in path_order[1::2]]
    w_even = sum(e.weight for e in evens)
    w_odd = sum(e.weight for e in odds)
    return Matching(tuple(evens if w_even >= w_odd else odds))


@dataclass(frozen=True)
class ContractBound:
    """Inequality tying a matching's contraction to the best tour weight.

    With M a matching of the complete instance and C* its heaviest tour:
    6 n * mu_w(G/M) >= n * (w(C*) - w(M)) - 2 w(C*), where mu_w(G/M) is
    the maximum matching weight of the contraction (parallel copies
    collapsed to their heaviest).  This is what makes the second phase of
    the tour pipeline pull enough extra weight.
    """

    n: int
    matching_weight: int
    contracted_matching_weight: int
    best_tour_weight: int
    lhs: int = field(init=False)
    rhs: int = field(init=False)
    holds: bool = field(init=False)

    def __post_init__(self) -> None:
        lhs = 6 * self.n * self.contracted_matching_weight
        rhs = self.n * (self.best_tour_weight - self.matching_weight) - 2 * self.best_tour_weight
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "holds", lhs >= rhs)


def contract_bound_check(inst: MaxTspInstance, matching: Matching) -> ContractBound:
    """Evaluate the contraction inequality exactly via the oracles."""
    contracted, _ = contract_edges(inst, [e.pair for e in matching])
    mu_w = oracle_max_weight_matching(contracted).weight
    return ContractBound(
        n=inst.n,
        matching_weight=matching.weight,
        contracted_matching_weight=mu_w,
        best_tour_weight=oracle_max_tsp(inst),
    )
