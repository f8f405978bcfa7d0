"""Streaming matching engines against the exact oracles.

The strong guarantee tier applies whenever no vertex hits the kernel
degree cap; every graph in these tests is small enough for that, so the
tier inequalities are asserted as exact integers (unweighted) or exact
fractions (weighted).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampath.corpus import gen_random_graph, gen_random_weighted_graph
from streampath.graph import Edge, Graph, Matching
from streampath.matching import (
    ApproxParams,
    ContractionView,
    OracleLimitError,
    oracle_max_matching,
    oracle_max_weight_matching,
    release_matching,
    streaming_max_matching,
    streaming_max_weight_matching,
)
from streampath.stream import InMemoryEdgeSource, open_session


def _run_unweighted(g: Graph, eps: str) -> tuple[Matching, object]:
    params = ApproxParams.parse(eps)
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k, strict=True)
    m = streaming_max_matching(src, params, sess)
    release_matching(sess, m)
    assert sess.words_in_use == 0, "engine leaked charged words"
    return m, sess.report()


def _run_weighted(g: Graph, eps: str) -> Matching:
    params = ApproxParams.parse(eps)
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k, strict=True)
    m = streaming_max_weight_matching(src, params, sess)
    release_matching(sess, m)
    assert sess.words_in_use == 0, "engine leaked charged words"
    return m


# --- ApproxParams ----------------------------------------------------------------


def test_params_derive_k_as_inverse_ceiling():
    assert ApproxParams.parse("1/3").k == 3
    assert ApproxParams.parse("1/2").k == 2
    assert ApproxParams.parse("2/5").k == 3
    assert ApproxParams.parse("0.25").k == 4
    assert ApproxParams.parse("0.9").k == 2  # k stays >= 2 so the kernel pass exists


def test_params_expose_swap_and_cap_limits():
    p = ApproxParams.parse("1/4")
    assert p.max_swap_edges == 7
    assert p.kernel_degree_cap == 24


@pytest.mark.parametrize("bad", ["0", "1", "7/3", "-1/2", "", "half", "1/0"])
def test_params_reject_out_of_range(bad):
    with pytest.raises(ValueError):
        ApproxParams.parse(bad)


# --- unweighted engine --------------------------------------------------------------


def test_greedy_alone_on_a_path():
    # stream order (0,1),(1,2),(2,3): greedy takes (0,1) and (2,3), optimal
    g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    m, report = _run_unweighted(g, "1/2")
    assert m.size == 2 == oracle_max_matching(g).size
    assert report.passes_used <= 2


def test_augmentation_fixes_a_bad_greedy_choice():
    # greedy grabs the middle edge first and gets stuck at size 1
    g = Graph.from_pairs(4, [(1, 2), (0, 1), (2, 3)])
    m, _ = _run_unweighted(g, "1/3")
    assert m.size == 2


def test_longer_augmenting_paths_are_found():
    # a length-5 augmenting path needs the k >= 3 sweep
    pairs = [(1, 2), (3, 4), (0, 1), (2, 3), (4, 5)]
    g = Graph.from_pairs(6, pairs)
    m, _ = _run_unweighted(g, "1/3")
    assert m.size == 3


def test_unweighted_tier_against_oracle():
    for seed in range(120):
        g = gen_random_graph(3 + seed % 8, seed, Fraction(1, 2))
        mu = oracle_max_matching(g).size
        for eps, k in (("1/2", 2), ("1/3", 3), ("1/4", 4)):
            m, _ = _run_unweighted(g, eps)
            assert (k + 1) * m.size >= k * mu, (seed, eps, m.size, mu)
            assert m.size <= mu


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_unweighted_result_is_a_maximal_matching(seed):
    g = gen_random_graph(9, seed, Fraction(1, 2))
    m, _ = _run_unweighted(g, "1/3")
    covered = m.covered
    for e in g.edges:
        assert e.u in covered or e.v in covered, "an edge could still be added"


def test_contraction_view_banned_and_loops():
    from streampath.graph import components_contraction

    cmap = components_contraction(4, [(0, 1)])
    view = ContractionView(cmap, banned=frozenset({3}))
    assert view.n_viewed == 3
    # 0 and 1 merge (an edge between them is a loop); banned 3 maps to -1
    assert view.target == (0, 0, 1, -1)
    assert ContractionView(cmap).target == cmap.target


def test_engine_respects_view():
    # without the view (1,2) is the only edge the engine may keep
    from streampath.graph import components_contraction

    g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    cmap = components_contraction(4, [])
    view = ContractionView(cmap, banned=frozenset({0, 3}))
    params = ApproxParams.parse("1/3")
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k)
    m = streaming_max_matching(src, params, sess, view=view)
    assert [e.pair for e in m.edges] == [(1, 2)]


# --- weighted engine -----------------------------------------------------------------


def test_weighted_prefers_heavy_pair():
    # light edge arrives first; the table pass plus local search recovers
    g = Graph.from_pairs(4, [(1, 2, 1), (0, 1, 10), (2, 3, 10)], weighted=True)
    m = _run_weighted(g, "1/3")
    assert m.weight == 20


def test_weighted_parallel_copies_use_the_heaviest():
    g = Graph.from_pairs(2, [(0, 1, 3), (0, 1, 9), (0, 1, 5)], weighted=True)
    m = _run_weighted(g, "1/2")
    assert m.weight == 9


def test_weighted_tier_against_oracle():
    for seed in range(90):
        g = gen_random_weighted_graph(3 + seed % 6, seed, Fraction(1, 2), 20)
        opt = oracle_max_weight_matching(g).weight
        for eps_text in ("1/2", "1/3", "1/4"):
            eps = Fraction(eps_text)
            k = ApproxParams(eps).k
            m = _run_weighted(g, eps_text)
            tier = Fraction(k, k + 1) / (1 + eps / 4)
            assert Fraction(m.weight) >= tier * opt, (seed, eps_text, m.weight, opt)
            assert m.weight <= opt


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_weighted_result_is_maximal(seed):
    g = gen_random_weighted_graph(8, seed, Fraction(1, 2), 5)
    m = _run_weighted(g, "1/3")
    covered = m.covered
    for e in g.edges:
        assert e.u in covered or e.v in covered


# --- oracles ------------------------------------------------------------------------


def test_oracle_known_values():
    path5 = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert oracle_max_matching(path5).size == 2
    c5 = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert oracle_max_matching(c5).size == 2
    star = Graph.from_pairs(5, [(0, i) for i in range(1, 5)])
    assert oracle_max_matching(star).size == 1
    k4 = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert oracle_max_matching(k4).size == 2


def test_oracle_weighted_beats_cardinality_when_it_pays():
    # one heavy edge outweighs two light ones
    g = Graph.from_pairs(4, [(0, 1, 1), (1, 2, 9), (2, 3, 1)], weighted=True)
    m = oracle_max_weight_matching(g)
    assert m.weight == 9 and m.size == 1


def test_oracle_dedupes_parallel_copies():
    g = Graph.from_pairs(3, [(0, 1, 2), (0, 1, 8), (1, 2, 5)], weighted=True)
    assert oracle_max_weight_matching(g).weight == 8


def test_oracle_result_is_a_valid_matching():
    g = gen_random_graph(10, 77, Fraction(1, 2))
    m = oracle_max_matching(g)
    Matching(m.edges)  # would raise on shared endpoints
    pairs = {e.pair for e in g.edges}
    assert all(e.pair in pairs for e in m.edges)


def test_oracle_limit_is_enforced():
    big = Graph.from_pairs(40, [(i, i + 1) for i in range(0, 40, 2)]
                           + [(i, i + 2) for i in range(0, 37)])
    with pytest.raises(OracleLimitError):
        oracle_max_matching(big)
