"""Tour pipelines, exact tour oracles, and the structural matching extractors."""

from __future__ import annotations

import dataclasses
import tracemalloc
from fractions import Fraction

import pytest

from streampath.corpus import gen_random_max_tsp, gen_random_tsp12
from streampath.graph import Edge, Graph, Matching
from streampath.matching import ApproxParams, OracleLimitError
from streampath.prng import SplitMix64
from streampath.tsp import (
    MaxTspInstance,
    Tsp12Instance,
    _cost_matrix,
    _cost_tour,
    approx_max_tsp,
    approx_tsp12,
    contract_bound_check,
    extract_matching_from_cycle,
    extract_matching_from_path_or_cycle,
    hamiltonian_order,
    max_tsp_bound_holds,
    oracle_max_tsp,
    oracle_path_cover,
    oracle_tsp12,
    tsp12_bound_holds,
    tsp12_identity_check,
)

_P13 = ApproxParams.parse("1/3")
_P14 = ApproxParams.parse("1/4")


# --- instances ------------------------------------------------------------------


def test_tsp12_instance_validates():
    with pytest.raises(ValueError, match="need at least 3 vertices for a tour"):
        Tsp12Instance(2, (Edge(0, 1),))
    with pytest.raises(ValueError, match=r"duplicate pair \(0, 1\)"):
        Tsp12Instance(3, (Edge(0, 1), Edge(1, 0)))
    with pytest.raises(ValueError, match="unweighted graph cannot hold an edge of weight != 1"):
        Tsp12Instance(3, (Edge(0, 1, weight=2),))  # only cost-1 pairs are listed
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for n=3"):
        Tsp12Instance(3, (Edge(0, 3),))
    inst = Tsp12Instance(3, (Edge(0, 1),))
    assert inst.edges == (Edge(0, 1),) and inst.m == 1


def test_tsp12_from_graph_dedupes():
    # the instance holds g's first copy of each pair, in stream order and
    # as g lists it
    g = Graph.from_pairs(4, [(1, 0), (2, 3), (0, 1), (3, 1)])
    inst = Tsp12Instance.from_graph(g)
    assert inst.m == 3
    assert inst.edges == (Edge(1, 0), Edge(2, 3), Edge(3, 1))
    heavy = Graph.from_pairs(3, [(0, 1, 1), (1, 2, 2)], weighted=True)
    with pytest.raises(ValueError, match="unweighted graph cannot hold an edge of weight != 1"):
        Tsp12Instance.from_graph(heavy)


def test_duplicate_pair_is_the_first_repeat_in_stream_order():
    # the repeat at position 2 comes first in the stream, though the
    # repeated pair (0, 1) has the smaller ends
    edges = (Edge(3, 2), Edge(1, 0), Edge(2, 3), Edge(0, 1))
    with pytest.raises(ValueError, match=r"^duplicate pair \(2, 3\)$"):
        Tsp12Instance(4, edges)
    us, vs = [3, 1, 2, 0, 0, 1], [2, 0, 3, 2, 3, 2]
    with pytest.raises(ValueError, match=r"^duplicate pair \(2, 3\)$"):
        MaxTspInstance(4, us=us, vs=vs, ws=[5] * 6)
    g = Graph(4, edges)
    assert Tsp12Instance.from_graph(g).edges == edges[:2]


def test_max_tsp_instance_must_be_complete():
    with pytest.raises(ValueError, match="instance must be complete: 3 of 6 pairs present"):
        MaxTspInstance(4, tuple(Edge(u, v, 1) for u, v in [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(ValueError, match=r"duplicate pair \(0, 1\)"):
        MaxTspInstance(3, (Edge(0, 1, 5), Edge(1, 0, 6), Edge(1, 2, 7)))
    with pytest.raises(ValueError, match="need at least 3 vertices for a tour"):
        MaxTspInstance(2, (Edge(0, 1, 5),))
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    inst = MaxTspInstance(4, tuple(Edge(u, v, u + v + 1) for u, v in pairs))
    assert inst.m == 6
    assert {e.pair: e.weight for e in inst.edges}[(1, 3)] == 5


@pytest.mark.parametrize("seed", range(6))
def test_weight_is_the_listed_pair_in_either_orientation(seed):
    # brute force over a frozenset-keyed dict: a listed pair costs its
    # weight in either orientation and an unlisted pair costs 2, both in a
    # tour through a random vertex order and in the oracles' cost matrix
    rng = SplitMix64(seed)
    n = 3 + 3 * seed

    def flipped(inst):
        # the generators list each pair as (a, b) with a < b; list every
        # other one as (b, a)
        edges = tuple(Edge(e.v, e.u, e.weight) if i % 2 else e for i, e in enumerate(inst.edges))
        assert {e.u < e.v for e in edges} == {True, False}
        return type(inst)(n, edges)

    for inst in (
        flipped(gen_random_tsp12(n, seed, Fraction(2, 3))),
        flipped(gen_random_max_tsp(n, seed, 1000)),
        gen_random_tsp12(n, seed, Fraction(1, 3)),
    ):
        weights = {frozenset((e.u, e.v)): e.weight for e in inst.edges}

        def cost(u, v):
            return 0 if u == v else weights.get(frozenset((u, v)), 2)

        assert _cost_matrix(inst) == [[cost(u, v) for v in range(n)] for u in range(n)]
        for _ in range(10):
            order = list(range(n))
            rng.shuffle(order)
            tour = _cost_tour(inst, order)
            assert tour.order == tuple(order)
            assert tour.cost == sum(cost(order[i - 1], order[i]) for i in range(n))


def test_tour_instances_are_graphs_that_replace_keeps():
    # perfbench copies each input with dataclasses.replace before a solve
    for inst, weighted in ((gen_random_tsp12(8, 3), False), (gen_random_max_tsp(6, 2), True)):
        assert isinstance(inst, Graph) and inst.weighted is weighted
        copy = dataclasses.replace(inst)
        assert type(copy) is type(inst) and copy.weighted is weighted
        assert copy == inst and copy is not inst
        assert copy.us is inst.us and copy.vs is inst.vs and copy.ws is inst.ws


def test_no_tour_instance_is_built_through_from_pairs():
    # Graph.from_pairs passes ``weighted``, which neither class accepts, so
    # an instance is built from its edges or with Tsp12Instance.from_graph.
    for cls in (Tsp12Instance, MaxTspInstance):
        assert "from_pairs" not in vars(cls)
        with pytest.raises(TypeError):
            cls.from_pairs(3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize(
    "make, solve",
    [
        (lambda: gen_random_max_tsp(9, 4), approx_max_tsp),
        (lambda: gen_random_tsp12(12, 5), approx_tsp12),
    ],
    ids=["maxtsp", "tsp12"],
)
def test_a_tour_solve_builds_no_edge_of_the_instance(monkeypatch, make, solve):
    inst = make()
    want = solve(inst, _P13, strict=True)

    def refuse(self):
        raise AssertionError("a solve asked for the instance's edges")

    monkeypatch.setattr(Graph, "edges", property(refuse))
    got = solve(inst, _P13, strict=True)
    assert got.tour == want.tour and got.report == want.report


def test_a_tour_solve_streams_the_instance_it_was_handed(monkeypatch):
    tsp12, maxtsp = gen_random_tsp12(12, 5), gen_random_max_tsp(9, 4)
    assert tsp12.cheap_graph() is tsp12 and maxtsp.graph() is maxtsp
    built = []
    post_init = Graph.__post_init__

    def counting(self):
        built.append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    approx_tsp12(tsp12, _P13, strict=True)
    approx_max_tsp(maxtsp, _P13, strict=True)
    assert built == []


@pytest.mark.parametrize(
    "make, solve",
    [
        (lambda: gen_random_max_tsp(300, 1, 1000), approx_max_tsp),
        (lambda: gen_random_tsp12(300, 1), approx_tsp12),
    ],
    ids=["maxtsp", "tsp12"],
)
def test_a_tour_solve_keeps_at_most_250_bytes_per_charged_word(make, solve):
    # Python 3.10-3.13 read 84.6-85.0 (heavy) and 18.1-18.2 (1,2) bytes per
    # charged word; a list copy of the instance's columns, as the in-memory
    # source once built, read 155 and 115, and a lookup over every pair of
    # the instance, built to cost the n legs of the tour, 340-356 and
    # 380-392
    inst = make()
    tracemalloc.start()
    try:
        res = solve(inst, _P13, strict=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words = res.report.words_peak
    assert peak <= 250 * words, peak / words


def test_hamiltonian_order_appends_leftovers():
    order = hamiltonian_order([(2, 1), (4, 5)], 7)
    assert sorted(order) == list(range(7))
    # paths sorted by their smallest vertex, uncovered vertices last
    assert order == (1, 2, 4, 5, 0, 3, 6)


# --- (1,2) pipeline -----------------------------------------------------------------


def test_tsp12_known_optima():
    triangle = Tsp12Instance(3, (Edge(0, 1), Edge(1, 2), Edge(0, 2)))
    assert oracle_tsp12(triangle) == 3
    square = Tsp12Instance(4, (Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3)))
    assert oracle_tsp12(square) == 4
    empty = Tsp12Instance(4, ())
    assert oracle_tsp12(empty) == 8
    one = Tsp12Instance(4, (Edge(0, 1),))
    assert oracle_tsp12(one) == 7


def test_tsp12_tour_cost_bound_by_cover():
    for seed in range(40):
        inst = gen_random_tsp12(5 + seed % 6, seed, Fraction(1, 2))
        res = approx_tsp12(inst, _P13)
        assert sorted(res.tour.order) == list(range(inst.n))
        assert res.tour.cost <= 2 * inst.n - res.mpc.cover.size
        opt = oracle_tsp12(inst)
        assert opt <= res.tour.cost
        bound = (Fraction(4, 3) + Fraction(1, 3) + Fraction(1, inst.n)) * opt
        assert Fraction(res.tour.cost) <= bound, (seed, res.tour.cost, opt)


def test_tsp12_square_reaches_the_optimum():
    square = Tsp12Instance(4, (Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3)))
    res = approx_tsp12(square, _P13)
    assert res.tour.cost == 4


def test_identity_ties_optimum_cover_and_cheap_tour():
    # C4 has a cheap hamiltonian tour: optimum = 2n - rho - 1 = 8 - 3 - 1
    square = Tsp12Instance(4, (Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(0, 3)))
    ident = tsp12_identity_check(square)
    assert ident.has_cheap_tour and ident.best_cover_size == 3
    assert ident.holds and ident.optimum == 4
    # a single cost-1 edge: no cheap tour, rho = 1, optimum = 8 - 1
    one = Tsp12Instance(4, (Edge(0, 1),))
    ident = tsp12_identity_check(one)
    assert not ident.has_cheap_tour
    assert ident.holds and ident.optimum == 7


def test_identity_on_random_instances():
    for seed in range(50):
        inst = gen_random_tsp12(4 + seed % 5, 1000 + seed, Fraction(1, 2))
        assert tsp12_identity_check(inst).holds


def test_tsp12_bound_at_its_edge():
    # cost <= (4/3 + eps + 1/n) * opt; n 9, opt 9 and eps 1/3 allow cost 16
    eps = Fraction(1, 3)
    allowed = (Fraction(4, 3) + eps + Fraction(1, 9)) * 9
    for cost in (16, 17):
        assert tsp12_bound_holds(cost, 9, 9, eps) == (cost <= allowed)
    assert tsp12_bound_holds(16, 9, 9, eps)
    assert not tsp12_bound_holds(17, 9, 9, eps)


# --- heavy tour pipeline --------------------------------------------------------------


def test_max_tsp_bound_at_its_edge():
    # weight >= (7/12 - 3/(4n))(1 - eps) * opt; n 9, opt 8 and eps 1/4 need weight 3
    eps = Fraction(1, 4)
    need = (Fraction(7, 12) - Fraction(3, 4 * 9)) * (1 - eps) * 8
    for weight in (2, 3):
        assert max_tsp_bound_holds(weight, 8, 9, eps) == (weight >= need)
    assert max_tsp_bound_holds(3, 8, 9, eps)
    assert not max_tsp_bound_holds(2, 8, 9, eps)


def test_max_tsp_tour_is_valid_and_bounded():
    for seed in range(30):
        inst = gen_random_max_tsp(4 + seed % 6, seed, 20)
        res = approx_max_tsp(inst, _P14)
        assert sorted(res.tour.order) == list(range(inst.n))
        opt = oracle_max_tsp(inst)
        assert res.tour.cost <= opt
        # 12 n w q >= (7n - 9)(q - p) opt at epsilon = p/q = 1/4
        assert 12 * inst.n * res.tour.cost * 4 >= (7 * inst.n - 9) * 3 * opt


def test_max_tsp_cover_leaves_at_most_one_vertex():
    for seed in range(30):
        inst = gen_random_max_tsp(5 + seed % 5, 500 + seed, 7)
        res = approx_max_tsp(inst, _P14)
        assert inst.n - len(res.cover.covered) <= 1


def test_max_tsp_patch_pass_charges_only_what_it_keeps():
    # 13 heavy pairs (2i+2, 2i+3) joined by weight 100; vertices 0 and 1 weigh
    # 2 to every pair member but the last pair's (1), and 0-1 weighs 1.  At
    # eps = 1/2 the 12-slot tables drop 0-1 in both phases, so 0 and 1 stay
    # free until the patch pass joins them.
    def weight(u, v):
        if u < 2:
            return 1 if v == 1 or v >= 26 else 2
        return 1000 if u // 2 == v // 2 else 100

    n = 28
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    inst = MaxTspInstance(n, tuple(Edge(u, v, weight(u, v)) for u, v in pairs))
    res = approx_max_tsp(inst, ApproxParams.parse("1/2"))
    runs = res.report.runs
    assert [r.label for r in runs] == ["first-matching", "second-matching", "leftover-patch"]
    # the 19-edge cover it carries, two free vertices and one patch edge
    assert (runs[2].passes, runs[2].words_peak) == (1, 3 * 19 + 2 + 3)
    assert res.second_matching.edges[-1].pair == (0, 1)
    assert res.cover.covered == frozenset(range(n))
    assert res.tour.cost == 14204


def test_max_tsp_patch_pass_on_a_seeded_instance():
    # a seeded complete graph on 25 vertices, nine pairs in ten of weight 1
    # and the rest 50..100, shuffled: at eps = 1/2 both phases leave two
    # vertices free, and the patch pass joins them with a weight-1 edge
    # while it carries the 17-edge cover (51 words)
    rng = SplitMix64(116)
    n = 25
    edges = [
        Edge(u, v, 1 if rng.below(10) < 9 else rng.randint(50, 100))
        for u in range(n)
        for v in range(u + 1, n)
    ]
    rng.shuffle(edges)
    res = approx_max_tsp(MaxTspInstance(n, tuple(edges)), ApproxParams.parse("1/2"), strict=True)
    runs = [(r.label, r.passes, r.words_peak) for r in res.report.runs]
    assert runs == [
        ("first-matching", 1, 1089), ("second-matching", 1, 658), ("leftover-patch", 1, 56)
    ]
    assert res.report.passes_used == 3
    assert (res.first_matching.size, res.second_matching.size) == (11, 7)
    assert res.second_matching.edges[-1] == Edge(1, 11, 1)
    assert (res.cover.size, res.cover.weight, res.tour.cost) == (18, 880, 887)


def _max_tsp_report(n, m, budget, peak, first_peak, second_peak):
    return {
        "source": "max-tsp", "n": n, "m": m, "passes_used": 2, "words_budget": budget,
        "words_peak": peak, "budget_exceeded": False,
        "runs": [
            {"label": "first-matching", "passes": 1, "words_peak": first_peak},
            {"label": "second-matching", "passes": 1, "words_peak": second_peak},
        ],
    }


_PINNED_TOURS = [
    # n, seed, eps, tour order, tour weight, report; every vertex has degree
    # n - 1 > 6k, so the kernel cap binds in every table
    (30, 11, "1/4",
     [12, 10, 0, 14, 23, 15, 1, 26, 5, 2, 16, 24, 3, 6, 20, 9, 4, 7, 28, 22, 8, 11, 21, 25,
      13, 29, 18, 27, 17, 19],
     501, _max_tsp_report(30, 435, 7680, 2580, 2580, 810)),
    (34, 12, "1/3",
     [7, 4, 0, 22, 1, 28, 19, 29, 5, 32, 2, 18, 3, 24, 13, 12, 16, 6, 21, 33, 8, 25, 17, 27,
      9, 31, 23, 10, 20, 30, 15, 11, 14, 26],
     556, _max_tsp_report(34, 561, 6528, 2229, 2229, 1037)),
    (37, 13, "1/4",
     [7, 14, 0, 24, 1, 31, 18, 15, 2, 27, 28, 36, 8, 29, 3, 10, 4, 22, 5, 12, 9, 30, 16, 6,
      34, 21, 11, 13, 35, 25, 26, 20, 17, 32, 19, 23, 33],
     660, _max_tsp_report(37, 666, 9472, 3198, 3198, 1288)),
    (40, 14, "1/3",
     [5, 19, 0, 36, 1, 2, 35, 39, 3, 4, 11, 27, 6, 29, 8, 15, 16, 14, 7, 17, 24, 10, 9, 30,
      12, 37, 26, 33, 13, 21, 34, 28, 20, 23, 18, 31, 32, 25, 22, 38],
     669, _max_tsp_report(40, 780, 7680, 2640, 2640, 1375)),
]


# The heavy tours where the swap search once listed tens of thousands of
# swaps per scan to apply a few.
_PINNED_DEEP_SEARCHES = [
    (60, 1, "1/4",
     [30, 0, 3, 36, 15, 1, 59, 49, 2, 8, 14, 9, 4, 16, 11, 42, 5, 47, 50, 41, 23, 6, 19,
      51, 7, 26, 40, 10, 12, 31, 13, 21, 17, 37, 57, 27, 32, 18, 22, 34, 24, 53, 20, 38,
      46, 25, 44, 55, 45, 52, 28, 56, 29, 54, 39, 35, 43, 33, 48, 58],
     1040, _max_tsp_report(60, 1770, 15360, 5238, 5238, 2727)),
    (60, 1, "1/5",
     [3, 0, 30, 44, 10, 36, 1, 48, 8, 2, 45, 52, 4, 26, 40, 28, 47, 5, 32, 55, 23, 6, 19,
      51, 7, 12, 31, 13, 14, 9, 43, 33, 21, 16, 11, 42, 15, 20, 53, 24, 25, 58, 17, 37, 18,
      22, 56, 34, 38, 57, 27, 46, 41, 50, 29, 54, 39, 35, 49, 59],
     1043, _max_tsp_report(60, 1770, 19200, 6504, 6504, 3195)),
]


@pytest.mark.parametrize(
    "n, seed, eps, order, weight, report",
    _PINNED_TOURS + _PINNED_DEEP_SEARCHES,
    ids=[f"n{t[0]}" for t in _PINNED_TOURS] + ["n60-eps1_4", "n60-eps1_5"],
)
def test_max_tsp_outputs_pinned_when_the_cap_binds(n, seed, eps, order, weight, report):
    res = approx_max_tsp(gen_random_max_tsp(n, seed), ApproxParams.parse(eps))
    assert list(res.tour.order) == order
    assert res.tour.cost == weight
    assert res.report.as_dict() == report


def test_max_tsp_uniform_weights_hits_optimum():
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    inst = MaxTspInstance(5, tuple(Edge(u, v, 3) for u, v in pairs))
    res = approx_max_tsp(inst, _P14)
    assert res.tour.cost == 15 == oracle_max_tsp(inst)


# --- exact tour solvers ----------------------------------------------------------------


def test_held_karp_limit():
    pairs = [(u, v) for u in range(16) for v in range(u + 1, 16)]
    inst = MaxTspInstance(16, tuple(Edge(u, v, 1) for u, v in pairs))
    with pytest.raises(OracleLimitError):
        oracle_max_tsp(inst)


def test_exact_tours_refuse_before_building_a_cost_matrix():
    # an n x n matrix at n = 3,000 holds 9 * 10**6 cells (a 78 MB peak
    # under tracemalloc); the refusal itself allocates about 1 KB
    cases = (
        (oracle_tsp12, Tsp12Instance(3000, tuple(Edge(v, v + 1) for v in range(2999)))),
        (oracle_max_tsp, gen_random_max_tsp(300, 1, 1000)),
    )
    for oracle, inst in cases:
        tracemalloc.start()
        try:
            with pytest.raises(OracleLimitError, match=f"exact tours handle n <= 15, got {inst.n}"):
                oracle(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024, peak


def test_oracle_path_cover_known_values():
    p4 = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert oracle_path_cover(p4).size == 3
    c4 = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert oracle_path_cover(c4).size == 3  # one edge of the cycle must go
    star = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    assert oracle_path_cover(star).size == 2
    k4 = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert oracle_path_cover(k4).size == 3


def test_oracle_path_cover_limit():
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    g = Graph.from_pairs(10, pairs[:30])
    with pytest.raises(OracleLimitError):
        oracle_path_cover(g)


# --- matching extraction from tours and paths ----------------------------------------


def test_cycle_extraction_drops_lightest_then_takes_heavier_class():
    # triangle with weights 5,1,1: dropping a lightest edge leaves 5+1,
    # and the heavier singleton class is the weight-5 edge
    edges = [Edge(0, 1, 5), Edge(1, 2, 1), Edge(0, 2, 1)]
    m = extract_matching_from_cycle(edges)
    assert m.weight == 5
    k, total = 3, 7
    assert 2 * k * m.weight >= (k - 1) * total


def test_cycle_extraction_even_cycle_alternates():
    edges = [Edge(0, 1, 4), Edge(1, 2, 1), Edge(2, 3, 4), Edge(0, 3, 1)]
    m = extract_matching_from_cycle(edges)
    assert m.weight == 8 and m.size == 2


def test_cycle_extraction_needs_a_cycle():
    with pytest.raises(ValueError):
        extract_matching_from_cycle([Edge(0, 1), Edge(1, 2)])


def test_path_extraction_cases():
    assert extract_matching_from_path_or_cycle([]).size == 0
    assert extract_matching_from_path_or_cycle([Edge(4, 7, 9)]).weight == 9
    # two parallel copies: the heavier one
    m = extract_matching_from_path_or_cycle([Edge(0, 1, 2), Edge(0, 1, 6)])
    assert m.weight == 6
    # open path: heavier alternating class
    path = [Edge(0, 1, 1), Edge(1, 2, 7), Edge(2, 3, 1)]
    m = extract_matching_from_path_or_cycle(path)
    assert m.weight == 7
    assert 3 * m.weight >= 9
    # a large vertex id: nothing is sized by it
    m = extract_matching_from_path_or_cycle([Edge(0, 2**40, 3), Edge(2**40, 5, 1)])
    assert m.edges == (Edge(0, 2**40, 3),)
    with pytest.raises(ValueError):
        extract_matching_from_path_or_cycle([Edge(0, 1), Edge(0, 2), Edge(0, 3)])


def test_path_extraction_takes_at_least_half_of_a_path():
    path = [Edge(i, i + 1, w) for i, w in enumerate((3, 1, 4, 1, 5))]
    m = extract_matching_from_path_or_cycle(path)
    assert 2 * m.weight >= sum(e.weight for e in path)
    Matching(m.edges)


# --- contraction bound -----------------------------------------------------------------


def test_contract_bound_on_a_uniform_square():
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    inst = MaxTspInstance(4, tuple(Edge(u, v, 2) for u, v in pairs))
    bound = contract_bound_check(inst, Matching((Edge(0, 1, 2),)))
    assert bound.holds
    assert bound.best_tour_weight == 8
