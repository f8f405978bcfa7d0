"""Core graph containers: edges, matchings, contractions, covers, tours."""

from __future__ import annotations

import tracemalloc
from array import array
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampath.graph import (
    ContractionMap,
    CoverCheck,
    Edge,
    Graph,
    Matching,
    PathCover,
    Tour,
    components_contraction,
    contract_edges,
    matching_contraction,
    validate_path_cover,
)
from streampath.prng import SplitMix64
from streampath.stream import save_edge_list
from streampath.tsp import Tsp12Instance


def _g(n, pairs, weighted=False):
    return Graph.from_pairs(n, pairs, weighted=weighted)


# --- Edge -----------------------------------------------------------------


def test_edge_normalizes_nothing_but_validates():
    e = Edge(3, 1)
    assert (e.u, e.v) == (3, 1)
    assert e.pair == (1, 3)


def test_edge_keeps_its_ints_in_slots():
    e = Edge(0, 1)
    assert not hasattr(e, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(e, "label", "x")  # past the frozen check: no slot for it


def test_edge_rejects_loops_and_bad_weights():
    with pytest.raises(ValueError):
        Edge(2, 2)
    with pytest.raises(ValueError):
        Edge(0, 1, weight=0)
    with pytest.raises(ValueError):
        Edge(0, -1)
    # a weight is one signed 64-bit word
    assert Edge(0, 1, 2**63 - 1).weight == 2**63 - 1
    with pytest.raises(ValueError, match=r"edge weight must be below 2\^63"):
        Edge(0, 1, 2**63)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Edge(0, 1, -(10**5000)), "edge weight must be a positive int"),
        (lambda: Edge(-(10**5000), 1), "endpoints must be non-negative and below 2^63"),
        (lambda: Edge(0, 2**63), "endpoints must be non-negative and below 2^63"),
        (lambda: Graph(5, (Edge(10**5000, 1),)), "endpoints must be non-negative and below 2^63"),
    ],
    ids=["weight", "endpoint", "endpoint-2^63", "graph"],
)
def test_refusals_print_no_unbounded_int(each_digit_limit, build, message):
    # a message formats only ints below 2^63, so it is the same whether or
    # not int() could print the value refused
    def refusal():
        with pytest.raises(ValueError) as err:
            build()
        return str(err.value)

    assert each_digit_limit(refusal) == [message] * 2


# --- Graph ----------------------------------------------------------------


def test_graph_from_pairs_both_arities():
    g = _g(4, [(0, 1), (1, 2)])
    assert g.m == 2 and not g.weighted
    gw = Graph.from_pairs(4, [(0, 1, 5), (1, 2, 7)], weighted=True)
    assert [e.weight for e in gw.edges] == [5, 7]
    # a pair is an Edge's arguments, so any other length is refused as a call
    for bad in [(0,), (0, 1, 2, 3)]:
        with pytest.raises(TypeError):
            Graph.from_pairs(4, [bad])


def test_graph_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        _g(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(n=-1, edges=())
    assert Graph(2**63 - 1, ()).n == 2**63 - 1
    with pytest.raises(ValueError, match=r"vertex count must be below 2\^63"):
        Graph(2**63, ())
    # a vertex count that is no int is refused as it is built, not at the
    # first solve
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="vertex count must be an int"):
            Graph(n, [Edge(0, 1)])
        with pytest.raises(ValueError, match="vertex count must be an int"):
            Graph(n, us=[0], vs=[1], ws=[1])
        with pytest.raises(ValueError, match="vertex count must be an int"):
            Tsp12Instance(n, (Edge(0, 1),))


def test_graph_degrees_counts_parallel_copies():
    g = _g(3, [(0, 1), (0, 1), (1, 2)])
    assert g.degrees() == [2, 3, 1]


@pytest.mark.parametrize("weighted", [False, True])
def test_graph_from_edges_and_from_columns_agree(tmp_path, weighted):
    rng = SplitMix64(4)
    triples = [(0, 1, 1), (1, 0, 1), (4, 2, 1)]
    triples += [(u, v, rng.randint(1, 9) if weighted else 1) for u, v in [(3, 1), (2, 3), (0, 4)]]
    edges = tuple(Edge(*t) for t in triples)
    by_edges = Graph(5, edges, weighted)
    us, vs, ws = (list(col) for col in zip(*triples))
    by_columns = Graph(5, us=us, vs=vs, ws=ws, weighted=weighted)
    assert by_edges == by_columns
    assert by_edges.edges == by_columns.edges == edges
    assert by_edges.m == by_columns.m == 6
    assert by_edges.degrees() == by_columns.degrees() == [3, 3, 2, 2, 2]
    paths = [str(tmp_path / name) for name in ("edges.txt", "columns.txt")]
    save_edge_list(paths[0], by_edges)
    save_edge_list(paths[1], by_columns)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_graph_holds_array_columns_as_given_and_builds_edges_on_demand():
    us, vs, ws = array("q", [0, 2]), array("q", [1, 1]), array("q", [3, 4])
    g = Graph(3, us=us, vs=vs, ws=ws, weighted=True)
    assert g.us is us and g.vs is vs and g.ws is ws
    assert g.edges == (Edge(0, 1, 3), Edge(2, 1, 4))
    assert g.edges is not g.edges
    with pytest.raises(TypeError):
        Graph(3, (Edge(0, 1),), us=us, vs=vs, ws=ws)
    with pytest.raises(TypeError):
        Graph(3, us=us, vs=vs)


@pytest.mark.parametrize(
    ("us", "vs", "ws", "weighted", "message"),
    [
        ([0, 1], [1, 3], [1, 1], False, r"edge \(1, 3\) out of range for n=3"),
        ([0, 2], [1, 2], [1, 1], False, "self-loop at vertex 2 is not allowed"),
        ([0, -1], [1, 2], [1, 1], False, r"endpoints must be non-negative and below 2\^63"),
        ([0, 2**63], [1, 2], [1, 1], False, r"endpoints must be non-negative and below 2\^63"),
        ([0, 1], [1, 2], [1, 2], False, "unweighted graph cannot hold an edge of weight != 1"),
        ([0, 1], [1, 2], [1, 0], True, "edge weight must be a positive int"),
        ([0, 1], [1, 2], [1, 2**63], True, r"edge weight must be below 2\^63"),
        ([0, 1], [1, 2], [1], True, "edge columns must have equal lengths"),
    ],
)
def test_graph_columns_are_refused_as_their_first_bad_edge_would_be(us, vs, ws, weighted, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, us=us, vs=vs, ws=ws, weighted=weighted)


# --- Matching --------------------------------------------------------------


def test_matching_accessors():
    m = Matching((Edge(0, 1), Edge(2, 3)))
    assert m.size == 2
    assert frozenset(v for e in m for v in (e.u, e.v)) == frozenset({0, 1, 2, 3})
    assert frozenset(e.pair for e in m) == frozenset({(0, 1), (2, 3)})


def test_matching_rejects_shared_endpoint():
    with pytest.raises(ValueError):
        Matching((Edge(0, 1), Edge(1, 2)))


# --- contractions -----------------------------------------------------------


def test_components_contraction_orders_new_ids_by_min_member():
    cmap = components_contraction(6, [(4, 5), (0, 1)])
    # classes {0,1}, {2}, {3}, {4,5} -> ids 0..3 in that order
    assert cmap.target == (0, 0, 1, 2, 3, 3)
    # an edge 1-2 maps to 0-1; an edge 4-5 falls inside one class
    assert (cmap.target[1], cmap.target[2]) == (0, 1)
    assert cmap.target[4] == cmap.target[5]


def test_matching_contraction_matches_components():
    m = Matching((Edge(1, 3),))
    cmap = matching_contraction(4, m)
    assert cmap.n_new == 3
    assert cmap.target == (0, 1, 2, 1)


def test_contract_edges_keeps_parallels_drops_loops():
    g = _g(4, [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3)])
    contracted, cmap = contract_edges(g, [(0, 1), (2, 3)])
    assert contracted.n == 2
    # (0,2) and (1,3) both become the same pair; (0,1) and (2,3) vanish
    assert [e.pair for e in contracted.edges] == [(0, 1), (0, 1), (0, 1)]
    assert len(cmap.target) == 4 and cmap.n_new == 2


def test_contract_via_matching_preserves_weights():
    g = Graph.from_pairs(4, [(0, 1, 9), (1, 2, 4), (2, 3, 9), (0, 3, 2)], weighted=True)
    contracted, _ = contract_edges(g, [e.pair for e in Matching((Edge(0, 1, 9),))])
    assert contracted.weighted
    assert sorted(e.weight for e in contracted.edges) == [2, 4, 9]


@given(st.integers(2, 9), st.data())
@settings(max_examples=80, deadline=None)
def test_contraction_classes_partition_vertices(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=8,
        )
    )
    cmap = components_contraction(n, pairs)
    assert len(cmap.target) == n
    # every new id names a class, and ids follow each class's smallest member
    firsts = [cmap.target.index(t) for t in range(cmap.n_new)]
    assert sorted(set(cmap.target)) == list(range(cmap.n_new))
    assert firsts == sorted(firsts)
    for u, v in pairs:
        assert cmap.target[u] == cmap.target[v]


# --- path cover validation ---------------------------------------------------


def test_validate_path_cover_accepts_disjoint_paths():
    chk = validate_path_cover(6, [Edge(1, 2), Edge(2, 3), Edge(4, 5)])
    assert chk.ok
    assert chk.paths == ((1, 2, 3), (4, 5))
    assert chk.lengths == (2, 1)


def test_validate_path_cover_rejects_degree_three():
    chk = validate_path_cover(4, [Edge(0, 1), Edge(0, 2), Edge(0, 3)])
    assert not chk.ok
    assert "degree" in chk.reason


def test_validate_path_cover_rejects_cycles():
    chk = validate_path_cover(3, [Edge(0, 1), Edge(1, 2), Edge(0, 2)])
    assert not chk.ok
    assert "cycle" in chk.reason


def test_validate_path_cover_rejects_parallel_pair():
    chk = validate_path_cover(2, [Edge(0, 1), Edge(0, 1)])
    assert not chk.ok


def _reference_validate_path_cover(n, edges):
    """``validate_path_cover`` on an adjacency dict: the reference."""
    adj = {}
    seen_pairs = set()
    for e in edges:
        if e.u >= n or e.v >= n:
            return CoverCheck(False, f"edge ({e.u}, {e.v}) out of range for n={n}", ())
        if e.pair in seen_pairs:
            return CoverCheck(False, f"parallel edges between {e.pair[0]} and {e.pair[1]}", ())
        seen_pairs.add(e.pair)
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    for v, nbrs in adj.items():
        if len(nbrs) > 2:
            return CoverCheck(False, f"vertex {v} has degree {len(nbrs)}", ())
    visited = set()
    paths = []
    for start in sorted(adj):
        if start in visited or len(adj[start]) != 1:
            continue
        walk = [start]
        visited.add(start)
        prev, cur = start, adj[start][0]
        while True:
            walk.append(cur)
            visited.add(cur)
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        paths.append(tuple(walk))
    leftover = sorted(set(adj) - visited)
    if leftover:
        return CoverCheck(False, f"cycle through vertex {leftover[0]}", ())
    paths.sort(key=min)
    return CoverCheck(True, None, tuple(paths))


def _near_cover(rng: SplitMix64) -> tuple[int, list[Edge]]:
    """A shuffled path cover on a few vertices, perhaps with a few extra edges.

    An extra edge may make a parallel pair, an over-degree vertex or a
    cycle, and one in eight may reach one past the last vertex.
    """
    n = rng.randint(2, 9)
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for a, b in zip(order, order[1:]):
        if rng.below(3):
            edges.append(Edge(a, b) if rng.coin() else Edge(b, a))
    for _ in range(rng.below(3)):
        top = n if rng.below(8) else n + 1
        u = rng.below(top)
        v = rng.below(top)
        if u != v:
            edges.insert(rng.below(len(edges) + 1), Edge(u, v))
    rng.shuffle(edges)
    return n, edges


def test_validate_path_cover_matches_the_reference_on_seeded_edge_sets():
    rng = SplitMix64(2024)
    kinds = Counter()
    for _ in range(4000):
        n, edges = _near_cover(rng)
        got = validate_path_cover(n, edges)
        assert got == _reference_validate_path_cover(n, edges), (n, edges)
        kinds[got.reason.split()[0] if got.reason else "ok"] += 1
    # every outcome: range, parallel, degree, cycle, and valid covers
    assert set(kinds) == {"ok", "edge", "parallel", "vertex", "cycle"}, kinds
    assert min(kinds.values()) >= 50, kinds


@pytest.mark.parametrize(
    "n, pairs, reason",
    [
        # edge order decides between a parallel pair and a range error
        (4, [(0, 1), (1, 0), (2, 4)], "parallel edges between 0 and 1"),
        (4, [(2, 4), (0, 1), (1, 0)], "edge (2, 4) out of range for n=4"),
        # the first over-degree vertex to appear, not the smallest
        (9, [(5, 6), (5, 7), (0, 1), (0, 2), (0, 3), (5, 8), (0, 4)], "vertex 5 has degree 3"),
        # a range error anywhere beats a degree found only at the end
        (4, [(0, 1), (0, 2), (0, 3), (3, 4)], "edge (3, 4) out of range for n=4"),
        # the smallest vertex on any cycle, past a path that starts lower
        (9, [(6, 7), (7, 8), (8, 6), (0, 1), (3, 4), (4, 5), (5, 3)], "cycle through vertex 3"),
        # a repeat that arrives when an end already has degree 2
        (4, [(0, 1), (1, 2), (1, 0)], "parallel edges between 0 and 1"),
        # a parallel pair after a vertex of degree 3, and a range error there
        (5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 1)], "parallel edges between 1 and 2"),
        (5, [(0, 1), (0, 2), (0, 3), (1, 5), (2, 1)], "edge (1, 5) out of range for n=5"),
    ],
)
def test_validate_path_cover_reason_precedence(n, pairs, reason):
    edges = [Edge(u, v) for u, v in pairs]
    assert validate_path_cover(n, edges) == CoverCheck(False, reason, ())
    us, vs = (array("q", col) for col in zip(*pairs))
    assert validate_path_cover(n, us=us, vs=vs) == CoverCheck(False, reason, ())
    assert _reference_validate_path_cover(n, edges) == CoverCheck(False, reason, ())


def test_path_cover_orientation_and_lengths():
    cover = PathCover(7, (Edge(5, 6), Edge(2, 1), Edge(2, 3)))
    assert cover.paths == ((1, 2, 3), (5, 6))
    assert sorted(cover.path_lengths) == [1, 2]
    assert cover.covered == frozenset({1, 2, 3, 5, 6})
    assert cover.size == 3


def test_path_cover_rejects_non_cover():
    with pytest.raises(ValueError):
        PathCover(3, (Edge(0, 1), Edge(1, 2), Edge(0, 2)))


# --- matchings and covers as columns ---------------------------------------


def _columns(triples):
    return {name: [t[i] for t in triples] for i, name in enumerate(("us", "vs", "ws"))}


@pytest.mark.parametrize(
    ("make", "triples"),
    [
        (Matching, [(4, 0, 7), (1, 2, 1), (5, 3, 2**63 - 1)]),
        (Matching, []),
        (partial(PathCover, 7), [(5, 6, 3), (2, 1, 1), (2, 3, 9)]),
        (partial(PathCover, 7), []),
    ],
    ids=["matching", "empty-matching", "cover", "empty-cover"],
)
def test_edges_and_columns_build_equal_matchings_and_covers(make, triples):
    from_edges = make([Edge(*t) for t in triples])
    from_columns = make(**_columns(triples))
    assert from_edges == from_columns
    assert from_edges.edges == from_columns.edges == tuple(Edge(*t) for t in triples)
    assert from_edges.size == from_columns.size == len(triples)
    assert from_edges.weight == from_columns.weight == sum(t[2] for t in triples)
    assert list(from_columns) == list(from_columns.edges)
    assert getattr(from_edges, "paths", None) == getattr(from_columns, "paths", None)
    if triples:  # a fresh tuple on each read, as Graph.edges is
        assert from_columns.edges is not from_columns.edges


def test_column_matchings_and_covers_hold_array_columns_as_given():
    us, vs, ws = array("q", [0, 2]), array("q", [1, 3]), array("q", [4, 5])
    for make in (Matching, partial(PathCover, 4)):
        value = make(us=us, vs=vs, ws=ws)
        assert value.us is us and value.vs is vs and value.ws is ws
        with pytest.raises(TypeError):
            make([Edge(0, 1)], us=us, vs=vs, ws=ws)
        with pytest.raises(TypeError):
            make(us=us, vs=vs)


# Edge's own rules, which a matching and a cover break with one message.
_EDGE_RULE_ERRORS = [
    ([(0, 1, 1), (2, 2, 1)], "self-loop at vertex 2 is not allowed"),
    ([(0, 1, 1), (2, 3, 0)], "edge weight must be a positive int"),
    ([(0, 1, 1), (2, 3, 2**63)], "edge weight must be below 2^63"),
    ([(0, 1, 1), (-1, 3, 1)], "endpoints must be non-negative and below 2^63"),
    ([(0, 1, 1), (2, 2**63, 1)], "endpoints must be non-negative and below 2^63"),
]

_MATCHING_ERRORS = _EDGE_RULE_ERRORS + [
    ([(0, 1, 1), (2, 3, 1), (3, 1, 1)], "edges share vertex: (3, 1) overlaps earlier edge"),
    ([(0, 1, 1), (1, 0, 1)], "edges share vertex: (1, 0) overlaps earlier edge"),
    ([(0, 1, 1), (1, 2, 1), (2, 0, 1)], "edges share vertex: (1, 2) overlaps earlier edge"),
]

_COVER_ERRORS = _EDGE_RULE_ERRORS + [
    ([(0, 1, 1), (0, 2, 1), (0, 3, 1)], "not a path cover: vertex 0 has degree 3"),
    ([(0, 1, 1), (2, 4, 1)], "not a path cover: edge (2, 4) out of range for n=4"),
    ([(0, 1, 1), (1, 0, 1)], "not a path cover: parallel edges between 0 and 1"),
    ([(0, 1, 1), (1, 2, 1), (2, 0, 1)], "not a path cover: cycle through vertex 0"),
]


def _error(build):
    with pytest.raises(ValueError) as err:
        build()
    return str(err.value)


@pytest.mark.parametrize(
    ("make", "triples", "message"),
    [(Matching, t, m) for t, m in _MATCHING_ERRORS]
    + [(partial(PathCover, 4), t, m) for t, m in _COVER_ERRORS],
)
def test_edges_and_columns_are_refused_with_one_message(make, triples, message):
    # the Edge form fails where its first bad Edge is built, or as a whole
    by_edges = _error(lambda: make([Edge(*t) for t in triples]))
    by_columns = _error(lambda: make(**_columns(triples)))
    assert by_edges == by_columns == message


@pytest.mark.parametrize("make", [Matching, partial(PathCover, 4)])
def test_columns_of_unequal_lengths_are_refused(make):
    assert _error(lambda: make(us=[0, 2], vs=[1, 3], ws=[1])) == "edge columns must have equal lengths"


@pytest.mark.parametrize(
    ("us", "vs", "reason"),
    [
        ([0, -1], [1, 0], "edge (-1, 0) has a negative end"),
        ([0, 2], [1, -3], "edge (2, -3) has a negative end"),
        ([0, 1], [2, 1], "self-loop at vertex 1"),
        ([1], [1], "self-loop at vertex 1"),
        ([0, 1], [1], "edge columns must have equal lengths"),
    ],
)
def test_validate_path_cover_columns_are_refused_what_no_edge_can_hold(us, vs, reason):
    # no Edge has a negative end or is a loop, so only the column form can
    # carry one; a loop would leave its vertex's walk without an end
    for col in (list, partial(array, "q")):
        got = validate_path_cover(3, us=col(us), vs=col(vs))
        assert got == CoverCheck(False, reason, ())


def test_validate_path_cover_keeps_no_pair_set_for_a_cover():
    # 5,000 shuffled paths of 3 edges over 20,000 vertices, as columns: the
    # check holds its degree and slot lists, the ints in the slots, and the
    # paths it returns, but no set of pairs while every degree is at most
    # 2.  It measures 108-115 bytes per vertex on Python 3.10-3.13, and
    # 155-166 with a set of every pair.
    n = 20_000
    rng = SplitMix64(3)
    order = list(range(n))
    rng.shuffle(order)
    pairs = [pair for i in range(0, n, 4) for pair in zip(order[i:i + 3], order[i + 1:i + 4])]
    rng.shuffle(pairs)
    us, vs = (array("q", col) for col in zip(*pairs))
    tracemalloc.start()
    try:
        got = validate_path_cover(n, us=us, vs=vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.ok and got.lengths == (3,) * (n // 4)
    assert peak <= 130 * n, peak / n


# --- tours -------------------------------------------------------------------


def test_tour_requires_a_permutation():
    with pytest.raises(ValueError):
        Tour(order=(0, 1, 1), cost=3)
    with pytest.raises(ValueError):
        Tour(order=(0, 1), cost=2)


def test_tour_from_order_sums_legs():
    t = Tour.from_order((0, 1, 2), (1, 2, 1))
    assert t.order == (0, 1, 2) and t.cost == 4
