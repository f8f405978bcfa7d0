"""Two-phase and iterative path covers on graphs with known optima."""

from __future__ import annotations

import gc
from fractions import Fraction

import pytest

from streampath.corpus import builtin_fixture, gen_random_graph
from streampath.graph import Graph, Matching, validate_path_cover
from streampath.matching import ApproxParams, streaming_max_matching
from streampath.pathcover import (
    cover_bound_holds,
    iterative_path_cover,
    two_phase_path_cover,
)
from streampath.prng import SplitMix64
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


def test_cover_bound_at_its_edge():
    # size >= (2/3)(1 - eps) * best; best 6 at eps 1/2 needs 2 edges
    eps = Fraction(1, 2)
    for size in (1, 2):
        assert cover_bound_holds(size, 6, eps) == (size >= Fraction(2, 3) * (1 - eps) * 6)
    assert cover_bound_holds(2, 6, eps)
    assert not cover_bound_holds(1, 6, eps)


def test_two_phase_on_a_single_edge():
    res = _two_phase(Graph.from_pairs(2, [(0, 1)]))
    assert res.cover.size == 1
    assert res.second_matching.size == 0


def test_two_phase_on_an_empty_graph():
    res = _two_phase(Graph(n=4, edges=()))
    assert res.cover.size == 0
    assert res.cover.paths == ()
    # an empty first round ends the loop: no second run, empty matchings
    assert res.rounds == ()
    assert [r.label for r in res.report.runs] == ["first-matching"]
    assert res.first_matching == res.second_matching == Matching()


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


@pytest.mark.parametrize(
    "run",
    [
        streaming_max_matching,
        two_phase_path_cover,
        lambda src, p, sess: two_phase_path_cover(src, p, sess, weighted=True),
        iterative_path_cover,
    ],
    ids=["matching", "two-phase", "two-phase-weighted", "iterative"],
)
def test_engine_runs_leave_no_cyclic_garbage(run):
    # garbage that only the cyclic collector frees outlives the run and,
    # through the closures holding them, the engine's kernel rows with it
    src = InMemoryEdgeSource(gen_random_graph(40, 3, Fraction(1, 4)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run(src, _P13, open_session(src, k=_P13.k))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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


@pytest.mark.parametrize("eps", ["1/2", "1/3"])
@pytest.mark.parametrize("density", [Fraction(1, 8), Fraction(1, 2), Fraction(7, 8)])
def test_two_phase_is_the_first_two_iterative_rounds(density, eps):
    # dense graphs put degrees past the 6k cap, so the kernels drop edges
    params = ApproxParams.parse(eps)
    for n in range(4, 44):
        g = gen_random_graph(n, 1000 * n + 17, density)
        src = InMemoryEdgeSource(g)
        base = two_phase_path_cover(src, params, open_session(src, k=params.k, strict=True))
        it = iterative_path_cover(src, params, open_session(src, k=params.k, strict=True))
        assert it.rounds[:2] == base.rounds
        first_runs = [(r.passes, r.words_peak) for r in it.report.runs[:2]]
        assert first_runs == [(r.passes, r.words_peak) for r in base.report.runs]


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


# --- pinned outputs ----------------------------------------------------------------


def _star_then_random(n: int, seed: int) -> Graph:
    """A star at vertex 0, streamed first, then a sparse random graph on the rest."""
    rest = [e.pair for e in gen_random_graph(n, seed, Fraction(1, 8)).edges if 0 not in e.pair]
    return Graph.from_pairs(n, [(0, v) for v in range(1, n)] + rest)


_PIN_GRAPHS = {
    "sparse14": lambda: gen_random_graph(14, 5, Fraction(1, 2)),
    "sparse20": lambda: gen_random_graph(20, 6, Fraction(1, 4)),
    # vertex 0 has 25 neighbours, more than the 6k cap at every eps below
    "star26": lambda: _star_then_random(26, 8),
    # degrees up to 14: at eps = 1/2 (cap 12) the kernel drops 7 edges
    "dense16": lambda: gen_random_graph(16, 22, Fraction(7, 8)),
}

# graph, eps, budget; two-phase cover edges, overall and per-run word peaks;
# iterative cover edges, overall and per-round word peaks.  Augmentations
# flip the greedy first matching in every case, and each run's peak holds
# 3 words per viewed vertex for its offline search.
_PINNED_COVERS = [
    ("sparse14", "1/2", 1792,
     [(0, 5), (6, 7), (9, 10), (2, 11), (8, 12), (1, 13), (3, 4), (1, 11), (0, 3), (8, 9)],
     227, [227, 129],
     [(0, 5), (6, 7), (9, 10), (2, 11), (8, 12), (1, 13), (3, 4), (1, 11), (0, 3), (8, 9), (2, 5),
      (6, 10), (4, 7)],
     227, [227, 129, 87, 74, 69]),
    ("sparse14", "1/3", 2688,
     [(0, 5), (6, 7), (9, 10), (2, 11), (8, 12), (1, 13), (3, 4), (1, 11), (0, 3), (8, 9)],
     227, [227, 129],
     [(0, 5), (6, 7), (9, 10), (2, 11), (8, 12), (1, 13), (3, 4), (1, 11), (0, 3), (8, 9), (2, 5),
      (6, 10), (4, 7)],
     227, [227, 129, 87, 74, 69]),
    ("sparse14", "1/4", 3584,
     [(0, 5), (6, 7), (9, 10), (2, 11), (8, 12), (1, 13), (3, 4), (1, 11), (0, 3), (8, 9)],
     227, [227, 129],
     [(0, 5), (6, 7), (9, 10), (2, 11), (8, 12), (1, 13), (3, 4), (1, 11), (0, 3), (8, 9), (2, 5),
      (6, 10), (4, 7)],
     227, [227, 129, 87, 74, 69]),
    ("sparse20", "1/2", 2560,
     [(4, 8), (1, 19), (12, 14), (3, 15), (11, 17), (5, 6), (10, 16), (2, 13), (0, 9), (7, 18),
      (8, 16), (12, 13), (0, 7), (6, 19), (3, 17)],
     275, [275, 207],
     [(4, 8), (1, 19), (12, 14), (3, 15), (11, 17), (5, 6), (10, 16), (2, 13), (0, 9), (7, 18),
      (8, 16), (12, 13), (0, 7), (6, 19), (3, 17), (2, 10), (1, 18), (4, 15), (5, 11)],
     275, [275, 207, 119, 106, 104, 99]),
    ("sparse20", "1/3", 3840,
     [(4, 8), (1, 19), (12, 14), (3, 15), (11, 17), (5, 6), (10, 16), (2, 13), (0, 9), (7, 18),
      (8, 16), (12, 13), (0, 7), (6, 19), (3, 17)],
     275, [275, 207],
     [(4, 8), (1, 19), (12, 14), (3, 15), (11, 17), (5, 6), (10, 16), (2, 13), (0, 9), (7, 18),
      (8, 16), (12, 13), (0, 7), (6, 19), (3, 17), (2, 10), (1, 18), (4, 15), (5, 11)],
     275, [275, 207, 119, 106, 104, 99]),
    ("sparse20", "1/4", 5120,
     [(4, 8), (1, 19), (12, 14), (3, 15), (11, 17), (5, 6), (10, 16), (2, 13), (0, 9), (7, 18),
      (8, 16), (12, 13), (0, 7), (6, 19), (3, 17)],
     275, [275, 207],
     [(4, 8), (1, 19), (12, 14), (3, 15), (11, 17), (5, 6), (10, 16), (2, 13), (0, 9), (7, 18),
      (8, 16), (12, 13), (0, 7), (6, 19), (3, 17), (2, 10), (1, 18), (4, 15), (5, 11)],
     275, [275, 207, 119, 106, 104, 99]),
    ("star26", "1/2", 3328,
     [(0, 10), (15, 16), (11, 20), (8, 21), (12, 22), (14, 17), (2, 9), (7, 25), (1, 3), (6, 24),
      (4, 23), (5, 13), (18, 19), (0, 1), (15, 23), (21, 24), (22, 25), (2, 18), (5, 17)],
     311, [311, 222],
     [(0, 10), (15, 16), (11, 20), (8, 21), (12, 22), (14, 17), (2, 9), (7, 25), (1, 3), (6, 24),
      (4, 23), (5, 13), (18, 19), (0, 1), (15, 23), (21, 24), (22, 25), (2, 18), (5, 17), (4, 11),
      (7, 14), (9, 10), (12, 16)],
     311, [311, 222, 150, 132, 127]),
    ("star26", "1/3", 4992,
     [(0, 10), (15, 16), (11, 20), (8, 21), (12, 22), (14, 17), (2, 9), (7, 25), (1, 3), (6, 24),
      (4, 23), (5, 13), (18, 19), (0, 1), (15, 23), (21, 24), (22, 25), (2, 18), (5, 17)],
     311, [311, 222],
     [(0, 10), (15, 16), (11, 20), (8, 21), (12, 22), (14, 17), (2, 9), (7, 25), (1, 3), (6, 24),
      (4, 23), (5, 13), (18, 19), (0, 1), (15, 23), (21, 24), (22, 25), (2, 18), (5, 17), (4, 11),
      (7, 14), (9, 10), (12, 16)],
     311, [311, 222, 150, 132, 127]),
    ("star26", "1/4", 6656,
     [(0, 10), (15, 16), (11, 20), (8, 21), (12, 22), (14, 17), (2, 9), (7, 25), (1, 3), (6, 24),
      (4, 23), (5, 13), (18, 19), (0, 1), (15, 23), (21, 24), (22, 25), (2, 18), (5, 17)],
     311, [311, 222],
     [(0, 10), (15, 16), (11, 20), (8, 21), (12, 22), (14, 17), (2, 9), (7, 25), (1, 3), (6, 24),
      (4, 23), (5, 13), (18, 19), (0, 1), (15, 23), (21, 24), (22, 25), (2, 18), (5, 17), (4, 11),
      (7, 14), (9, 10), (12, 16)],
     311, [311, 222, 150, 132, 127]),
    ("dense16", "1/2", 2048,
     [(5, 14), (1, 9), (8, 13), (0, 12), (4, 11), (3, 7), (6, 10), (2, 15), (2, 14), (6, 13),
      (4, 12), (1, 3)],
     376, [376, 168],
     [(5, 14), (1, 9), (8, 13), (0, 12), (4, 11), (3, 7), (6, 10), (2, 15), (2, 14), (6, 13),
      (4, 12), (1, 3), (5, 11), (7, 8), (9, 15)],
     376, [376, 168, 100, 84, 79]),
    ("dense16", "1/3", 3072,
     [(5, 14), (1, 9), (8, 13), (2, 6), (0, 12), (10, 11), (3, 7), (4, 15), (2, 14), (1, 15),
      (7, 8), (10, 12)],
     397, [397, 168],
     [(5, 14), (1, 9), (8, 13), (2, 6), (0, 12), (10, 11), (3, 7), (4, 15), (2, 14), (1, 15),
      (7, 8), (10, 12), (6, 13), (4, 11), (0, 3)],
     397, [397, 168, 100, 84, 79]),
    ("dense16", "1/4", 4096,
     [(5, 14), (1, 9), (8, 13), (2, 6), (0, 12), (10, 11), (3, 7), (4, 15), (2, 14), (1, 15),
      (7, 8), (10, 12)],
     397, [397, 168],
     [(5, 14), (1, 9), (8, 13), (2, 6), (0, 12), (10, 11), (3, 7), (4, 15), (2, 14), (1, 15),
      (7, 8), (10, 12), (6, 13), (4, 11), (0, 3)],
     397, [397, 168, 100, 84, 79]),

]


def _one_pass_per_run_report(g: Graph, budget: int, peak: int, labels, run_peaks) -> dict:
    return {
        "source": "memory", "n": g.n, "m": g.m, "passes_used": len(labels),
        "words_budget": budget, "words_peak": peak, "budget_exceeded": False,
        "runs": [
            {"label": label, "passes": 1, "words_peak": run_peak}
            for label, run_peak in zip(labels, run_peaks, strict=True)
        ],
    }


@pytest.mark.parametrize(
    "name, eps, budget, cover, peak, run_peaks, it_cover, it_peak, it_run_peaks",
    _PINNED_COVERS,
    ids=[f"{t[0]}-eps{t[1].replace('/', '_')}" for t in _PINNED_COVERS],
)
def test_cover_outputs_pinned_with_one_pass_per_matching_run(
    name, eps, budget, cover, peak, run_peaks, it_cover, it_peak, it_run_peaks
):
    # The greedy matching and the kernel grow together in one pass, so the
    # covers and every word peak are those of building them in two passes.
    g = _PIN_GRAPHS[name]()
    params = ApproxParams.parse(eps)
    src = InMemoryEdgeSource(g)
    res = two_phase_path_cover(src, params, open_session(src, k=params.k, strict=True))
    assert [(e.u, e.v) for e in res.cover.edges] == cover
    labels = ["first-matching", "second-matching"]
    assert res.report.as_dict() == _one_pass_per_run_report(g, budget, peak, labels, run_peaks)
    it = iterative_path_cover(src, params, open_session(src, k=params.k, strict=True))
    assert [(e.u, e.v) for e in it.cover.edges] == it_cover
    labels = [f"round-{i}" for i in range(1, len(it_run_peaks) + 1)]
    assert it.report.as_dict() == _one_pass_per_run_report(g, budget, it_peak, labels, it_run_peaks)


def _with_weights(g: Graph, seed: int = 1) -> Graph:
    """``g`` with weights 1-9 drawn in stream order from a seeded generator."""
    rng = SplitMix64(seed)
    return Graph.from_pairs(g.n, [(e.u, e.v, rng.randint(1, 9)) for e in g.edges], weighted=True)


# graph, eps, budget, overall and per-run word peaks; the first and second
# weighted matchings as (u, v, w), whose concatenation is the cover.
_PINNED_WEIGHTED_COVERS = [
    ('sparse14', '1/2', 1792, 350, [350, 175],
     [(6, 7, 9), (0, 9, 7), (5, 12, 8), (8, 10, 7), (2, 11, 5), (1, 13, 7), (3, 4, 9)],
     [(1, 9, 8), (2, 5, 5), (4, 7, 9)]),
    ('sparse14', '1/3', 2688, 350, [350, 168],
     [(1, 11, 6), (0, 5, 7), (8, 10, 7), (9, 12, 8), (2, 6, 8), (7, 13, 9), (3, 4, 9)],
     [(6, 7, 9), (4, 5, 8), (1, 9, 8)]),
    ('sparse14', '1/4', 3584, 350, [350, 168],
     [(1, 11, 6), (0, 9, 7), (5, 12, 8), (8, 10, 7), (2, 6, 8), (7, 13, 9), (3, 4, 9)],
     [(6, 7, 9), (4, 5, 8), (1, 9, 8)]),
    ('sparse20', '1/2', 2560, 385, [385, 278],
     [(8, 16, 7), (1, 19, 9), (0, 13, 8), (7, 12, 8), (4, 14, 5), (3, 10, 7), (2, 17, 8),
      (15, 18, 6), (5, 11, 9)],
     [(12, 16, 7), (0, 9, 7), (1, 2, 9), (5, 18, 8), (3, 6, 3)]),
    ('sparse20', '1/3', 3840, 385, [385, 281],
     [(8, 16, 7), (7, 12, 8), (1, 6, 8), (4, 14, 5), (0, 9, 7), (13, 17, 6), (3, 10, 7),
      (15, 18, 6), (5, 11, 9), (2, 19, 9)],
     [(1, 19, 9), (12, 13, 7), (4, 15, 7), (5, 16, 8), (0, 3, 9)]),
    ('sparse20', '1/4', 5120, 385, [385, 281],
     [(8, 16, 7), (7, 12, 8), (1, 6, 8), (4, 14, 5), (0, 9, 7), (13, 17, 6), (3, 10, 7),
      (15, 18, 6), (5, 11, 9), (2, 19, 9)],
     [(1, 19, 9), (12, 13, 7), (4, 15, 7), (5, 16, 8), (0, 3, 9)]),
    ('star26', '1/2', 3328, 366, [366, 272],
     [(0, 3, 9), (11, 20, 9), (8, 21, 6), (19, 23, 4), (9, 10, 7), (7, 25, 7), (2, 14, 8),
      (6, 24, 8), (12, 16, 9), (5, 17, 9), (1, 15, 9)],
     [(0, 7, 8), (4, 11, 6), (12, 22, 3), (21, 24, 5), (1, 19, 7), (2, 9, 8), (5, 13, 4)]),
    ('star26', '1/3', 4992, 378, [378, 276],
     [(0, 3, 9), (11, 20, 9), (8, 21, 6), (19, 23, 4), (9, 10, 7), (7, 25, 7), (2, 14, 8),
      (6, 24, 8), (12, 16, 9), (5, 17, 9), (1, 15, 9)],
     [(0, 18, 8), (4, 11, 6), (21, 24, 5), (1, 19, 7), (2, 9, 8), (22, 25, 6), (5, 13, 4)]),
    ('star26', '1/4', 6656, 390, [390, 276],
     [(0, 3, 9), (11, 20, 9), (8, 21, 6), (19, 23, 4), (9, 10, 7), (7, 25, 7), (2, 14, 8),
      (6, 24, 8), (12, 16, 9), (5, 17, 9), (1, 15, 9)],
     [(0, 18, 8), (4, 11, 6), (21, 24, 5), (1, 19, 7), (2, 9, 8), (22, 25, 6), (5, 13, 4)]),
    ('dense16', '1/2', 2048, 668, [668, 236],
     [(2, 14, 9), (10, 12, 8), (1, 4, 9), (5, 15, 4), (3, 8, 9), (6, 11, 7), (0, 13, 8),
      (7, 9, 7)],
     [(1, 12, 9), (0, 8, 9), (11, 14, 9), (5, 9, 7)]),
    ('dense16', '1/3', 3072, 721, [721, 236],
     [(5, 14, 6), (10, 12, 8), (1, 4, 9), (0, 8, 9), (3, 6, 9), (2, 15, 8), (7, 9, 7),
      (11, 13, 8)],
     [(1, 12, 9), (3, 8, 9), (11, 14, 9), (2, 7, 8)]),
    ('dense16', '1/4', 4096, 721, [721, 236],
     [(14, 15, 8), (5, 10, 8), (1, 12, 9), (0, 8, 9), (3, 6, 9), (4, 9, 9), (11, 13, 8),
      (2, 7, 8)],
     [(10, 12, 8), (3, 8, 9), (11, 14, 9), (4, 7, 8)]),
]


@pytest.mark.parametrize(
    "name, eps, budget, peak, run_peaks, first, second",
    _PINNED_WEIGHTED_COVERS,
    ids=[f"{t[0]}-eps{t[1].replace('/', '_')}" for t in _PINNED_WEIGHTED_COVERS],
)
def test_weighted_cover_outputs_pinned_through_the_contracted_phase(
    name, eps, budget, peak, run_peaks, first, second
):
    # The second matching runs on the contraction of the first.  star26
    # puts vertex 0 over the 6k cap at every eps; dense16 binds it at 1/2.
    g = _with_weights(_PIN_GRAPHS[name]())
    params = ApproxParams.parse(eps)
    src = InMemoryEdgeSource(g)
    res = two_phase_path_cover(
        src, params, open_session(src, k=params.k, strict=True), weighted=True
    )
    assert [(e.u, e.v, e.weight) for e in res.first_matching.edges] == first
    assert [(e.u, e.v, e.weight) for e in res.second_matching.edges] == second
    assert [(e.u, e.v, e.weight) for e in res.cover.edges] == first + second
    labels = ["first-matching", "second-matching"]
    assert res.report.as_dict() == _one_pass_per_run_report(g, budget, peak, labels, run_peaks)
