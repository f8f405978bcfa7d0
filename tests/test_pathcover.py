"""Two-phase and iterative path covers on graphs with known optima."""

from __future__ import annotations

from fractions import Fraction

import pytest

from streampath.corpus import builtin_fixture, gen_random_graph
from streampath.graph import Edge, Graph, validate_path_cover
from streampath.matching import ApproxParams
from streampath.pathcover import (
    cover_interior_vertices,
    iterative_path_cover,
    two_phase_path_cover,
)
from streampath.stream import InMemoryEdgeSource, open_session
from streampath.tsp import oracle_path_cover

_P13 = ApproxParams.parse("1/3")


def _two_phase(g: Graph, eps="1/3"):
    params = ApproxParams.parse(eps)
    src = InMemoryEdgeSource(g)
    return two_phase_path_cover(src, params, open_session(src, k=params.k, strict=True))


def test_tight_fixture_reproduces_the_two_thirds_run():
    fx = builtin_fixture("tight-two-thirds")
    res = _two_phase(fx.graph)
    assert [e.pair for e in res.first_matching.edges] == [(2, 3), (4, 5), (0, 1)]
    assert [e.pair for e in res.second_matching.edges] == [(0, 2)]
    assert res.cover.size == 4
    assert oracle_path_cover(fx.graph).size == 6
    assert str(Fraction(res.cover.size, 6)) == "2/3"


def test_two_phase_on_a_single_edge():
    res = _two_phase(Graph.from_pairs(2, [(0, 1)]))
    assert res.cover.size == 1
    assert res.second_matching.size == 0


def test_two_phase_on_an_empty_graph():
    res = _two_phase(Graph(n=4, edges=()))
    assert res.cover.size == 0
    assert res.cover.paths == ()


def test_two_phase_union_is_disjoint_short_paths():
    for seed in range(60):
        g = gen_random_graph(4 + seed % 7, seed, Fraction(1, 2))
        res = _two_phase(g)
        chk = validate_path_cover(g.n, res.cover.edges)
        assert chk.ok, chk.reason
        assert all(l in (1, 2, 3) for l in chk.lengths)


def test_two_phase_session_releases_everything():
    g = gen_random_graph(9, 5, Fraction(1, 2))
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=3, strict=True)
    two_phase_path_cover(src, _P13, sess)
    assert sess.words_in_use == 0
    labels = [r.label for r in sess.report().runs]
    assert labels == ["first-matching", "second-matching"]


def test_two_phase_accepts_budget_override():
    g = Graph.from_pairs(3, [(0, 1), (1, 2)])
    src = InMemoryEdgeSource(g)
    # words_budget wins over the k-sized default when both are given
    res = two_phase_path_cover(src, _P13, open_session(src, k=3, words_budget=5000))
    assert res.report.words_budget == 5000


# --- interior bookkeeping -------------------------------------------------------


def test_interior_vertices_of_a_cover():
    edges = (Edge(0, 1), Edge(1, 2), Edge(4, 5))
    assert cover_interior_vertices(6, edges) == frozenset({1})


def test_interior_rejects_non_cover():
    with pytest.raises(ValueError):
        cover_interior_vertices(3, (Edge(0, 1), Edge(0, 2), Edge(1, 2)))


# --- iterative variant -------------------------------------------------------------


def test_iterative_fixture_lands_on_three_quarters():
    fx = builtin_fixture("iterative-three-quarters")
    src = InMemoryEdgeSource(fx.graph)
    res = iterative_path_cover(src, _P13, open_session(src, k=3, strict=True))
    assert sorted(e.pair for e in res.cover.edges) == [(0, 2), (1, 3), (2, 3)]
    assert [m.size for m in res.rounds] == [2, 1]
    # the union here is one path on 3 edges
    assert res.cover.paths == ((0, 2, 3, 1),)
    assert oracle_path_cover(fx.graph).size == 4
    assert str(Fraction(res.cover.size, 4)) == "3/4"


def test_iterative_never_loses_to_two_phase():
    for seed in range(40):
        g = gen_random_graph(4 + seed % 6, seed * 31 + 7, Fraction(1, 2))
        base = _two_phase(g).cover.size
        src = InMemoryEdgeSource(g)
        res = iterative_path_cover(src, _P13, open_session(src, k=3, strict=True))
        assert res.cover.size >= base
        chk = validate_path_cover(g.n, res.cover.edges)
        assert chk.ok, chk.reason


def test_iterative_can_beat_two_phase():
    fx = builtin_fixture("tight-two-thirds")
    src = InMemoryEdgeSource(fx.graph)
    res = iterative_path_cover(src, _P13, open_session(src, k=3, strict=True))
    assert res.cover.size == 5 > 4


def test_iterative_round_labels_and_cleanup():
    g = gen_random_graph(8, 3, Fraction(1, 2))
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=3, strict=True)
    res = iterative_path_cover(src, _P13, sess)
    assert sess.words_in_use == 0
    labels = [r.label for r in sess.report().runs]
    assert labels == [f"round-{i}" for i in range(1, len(labels) + 1)]
    assert len(res.rounds) >= 1
