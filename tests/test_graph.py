"""Core graph containers: edges, matchings, contractions, covers, tours."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampath.graph import (
    ContractionMap,
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


def _g(n, pairs, weighted=False):
    return Graph.from_pairs(n, pairs, weighted=weighted)


# --- Edge -----------------------------------------------------------------


def test_edge_normalizes_nothing_but_validates():
    e = Edge(3, 1)
    assert (e.u, e.v) == (3, 1)
    assert e.pair == (1, 3)


def test_edge_rejects_loops_and_bad_weights():
    with pytest.raises(ValueError):
        Edge(2, 2)
    with pytest.raises(ValueError):
        Edge(0, 1, weight=0)
    with pytest.raises(ValueError):
        Edge(0, -1)


# --- Graph ----------------------------------------------------------------


def test_graph_from_pairs_both_arities():
    g = _g(4, [(0, 1), (1, 2)])
    assert g.m == 2 and not g.weighted
    gw = Graph.from_pairs(4, [(0, 1, 5), (1, 2, 7)], weighted=True)
    assert [e.weight for e in gw.edges] == [5, 7]
    assert gw.max_weight == 7


def test_graph_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        _g(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(n=-1, edges=())


def test_graph_degrees_counts_parallel_copies():
    g = _g(3, [(0, 1), (0, 1), (1, 2)])
    assert g.degrees() == [2, 3, 1]


def test_empty_graph_max_weight_defaults_to_one():
    assert Graph(n=3, edges=(), weighted=True).max_weight == 1


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


def test_path_cover_orientation_and_lengths():
    cover = PathCover(7, (Edge(5, 6), Edge(2, 1), Edge(2, 3)))
    assert cover.paths == ((1, 2, 3), (5, 6))
    assert sorted(cover.path_lengths) == [1, 2]
    assert cover.covered == frozenset({1, 2, 3, 5, 6})
    assert cover.size == 3


def test_path_cover_rejects_non_cover():
    with pytest.raises(ValueError):
        PathCover(3, (Edge(0, 1), Edge(1, 2), Edge(0, 2)))


# --- tours -------------------------------------------------------------------


def test_tour_requires_a_permutation():
    with pytest.raises(ValueError):
        Tour(order=(0, 1, 1), cost=3)
    with pytest.raises(ValueError):
        Tour(order=(0, 1), cost=2)


def test_tour_from_order_sums_legs():
    weights = {(0, 1): 1, (1, 2): 2, (0, 2): 1}
    t = Tour.from_order((0, 1, 2), lambda u, v: weights[tuple(sorted((u, v)))])
    assert t.cost == 4
