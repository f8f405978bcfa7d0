"""Fixtures, seeded generators, and the cover/matching alignment rewrite."""

from __future__ import annotations

import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from streampath.corpus import (
    SWEEPS,
    SweepOutcome,
    align_cover_with_matching,
    builtin_fixture,
    fixture_names,
    gen_degree124_graph,
    gen_random_graph,
    gen_random_matching_in,
    gen_random_max_tsp,
    gen_random_tsp12,
    gen_random_weighted_graph,
)
from streampath.graph import Matching, contract_edges, validate_path_cover
from streampath.matching import oracle_max_matching
from streampath.tsp import oracle_path_cover


# --- fixtures ---------------------------------------------------------------


def test_fixture_names_are_stable():
    assert fixture_names() == ("iterative-three-quarters", "tight-two-thirds")
    with pytest.raises(ValueError):
        builtin_fixture("no-such-fixture")


def test_fixture_expected_values_match_the_oracles():
    for name in fixture_names():
        fx = builtin_fixture(name)
        assert oracle_path_cover(fx.graph).size == fx.expected["best_cover"]
        assert oracle_max_matching(fx.graph).size == fx.expected["max_matching"]


# --- generators -----------------------------------------------------------------


def test_random_graph_is_seed_deterministic():
    a = gen_random_graph(10, 42, Fraction(1, 2))
    b = gen_random_graph(10, 42, Fraction(1, 2))
    assert [e.pair for e in a.edges] == [e.pair for e in b.edges]
    c = gen_random_graph(10, 43, Fraction(1, 2))
    assert [e.pair for e in a.edges] != [e.pair for e in c.edges]


def test_random_graph_density_extremes():
    assert gen_random_graph(8, 1, Fraction(0)).m == 0
    full = gen_random_graph(8, 1, Fraction(1))
    assert full.m == 28


def test_random_weighted_graph_weights_in_range():
    g = gen_random_weighted_graph(9, 7, Fraction(3, 4), 13)
    assert g.weighted and g.m > 0
    assert all(1 <= e.weight <= 13 for e in g.edges)


def test_random_tsp12_matches_its_cheap_graph():
    inst = gen_random_tsp12(8, 3, Fraction(1, 2))
    cheap = inst.cheap_graph()
    assert cheap is inst and not inst.weighted
    assert all(e.weight == 1 for e in inst.edges)
    assert len({e.pair for e in inst.edges}) == inst.m > 0


def test_random_max_tsp_is_complete_and_shuffled():
    inst = gen_random_max_tsp(7, 11, 20)
    assert inst.m == 21
    pairs = [e.pair for e in inst.edges]
    assert pairs != sorted(pairs), "stream order should not be the sorted order"


@pytest.mark.parametrize(
    ("n", "seed", "digest"),
    [
        (5, 1, "cfaf6079586f0a7ce76bb273a9b95287dc0230aa39551511a12581893fe50468"),
        (60, 7, "b25c8ee0b02d22b76ede5dc382ebf446fdc9f3e13749f1128375b07fb3b8db4a"),
        (200, 3, "308de38e28508d89b695a4f7a0e7600082d85b451aabaf90e23a456b6d651287"),
    ],
)
def test_random_max_tsp_draws_are_pinned(n, seed, digest):
    # sha256 of the repr of the (u, v, weight) list in stream order
    inst = gen_random_max_tsp(n, seed, 1000)
    triples = [(e.u, e.v, e.weight) for e in inst.edges]
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == digest


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_max_tsp_holds_three_int_columns(seed):
    # Python 3.10-3.13 read 25.4-26.0 bytes per edge held, three array("q")
    # columns, and 34.6-35.3 at the peak, which the duplicate-pair check's
    # counting sort sets with one more int per edge.  One slotted Edge per
    # pair read 85-88 held and 253-260 at the peak with a set of pair keys.
    tracemalloc.start()
    try:
        inst = gen_random_max_tsp(200, seed, 1000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.m == 19_900
    assert held <= 30 * inst.m, held / inst.m
    assert peak <= 40 * inst.m, peak / inst.m


def test_degree124_generator_census():
    for seed in range(25):
        g = gen_degree124_graph(4 + seed % 9, seed)
        census = Counter(g.degrees())
        assert set(census) <= {1, 2, 4}, census


def test_random_matching_is_valid_in_its_graph():
    for seed in range(20):
        g = gen_random_graph(9, seed, Fraction(1, 2))
        m = gen_random_matching_in(g, seed + 1)
        Matching(m.edges)
        pairs = {e.pair for e in g.edges}
        assert all(e.pair in pairs for e in m.edges)


# --- alignment ----------------------------------------------------------------------


def test_alignment_gives_contraction_degrees_in_0124():
    hits = 0
    for seed in range(60):
        # n <= 7 keeps every graph within the exact cover oracle's edge cap
        g = gen_random_graph(4 + seed % 4, 900 + seed, Fraction(1, 2))
        cover = oracle_path_cover(g)
        matching = oracle_max_matching(g)
        pair_set = frozenset(e.pair for e in matching)
        aligned = align_cover_with_matching(cover, matching)
        assert aligned.size == cover.size, "alignment must preserve maximality"
        chk = validate_path_cover(g.n, aligned.edges)
        assert chk.ok, chk.reason
        off_cover = pair_set - {e.pair for e in aligned.edges}
        if off_cover:
            hits += 1
        contracted, _ = contract_edges(g, pair_set)
        del contracted  # alignment is judged through the aligned cover itself
        got, _ = contract_edges(
            g.__class__(n=g.n, edges=aligned.edges), pair_set
        )
        census = Counter(got.degrees())
        assert set(census) <= {0, 1, 2, 4}, census
        assert got.m == aligned.size - sum(
            1 for e in aligned.edges if e.pair in pair_set
        )
        assert census[4] == matching.size - sum(
            1 for e in aligned.edges if e.pair in pair_set
        )
    assert hits > 0, "corpus never exercised an off-cover matching edge"


# --- sweep bookkeeping ----------------------------------------------------------------


def test_sweep_outcome_counts_failures():
    out = SweepOutcome("demo", trials=2)
    out.check("a", True)
    out.check("a", False, "boom")
    out.check("b", True)
    assert out.checks == {"a": 1, "b": 0}
    assert not out.ok
    assert out.details == ["a: boom"]


def test_sweep_registry_names():
    assert set(SWEEPS) == {
        "two-phase",
        "degree-census",
        "matching-contract",
        "tsp12",
        "max-tsp",
        "structure-matching",
        "contract-bound",
        "iterative",
    }


def test_small_sweeps_pass():
    # tiny trial counts keep this a smoke test; the acceptance suite
    # runs the full counts
    for name, fn in SWEEPS.items():
        out = fn(trials=12)
        assert out.ok, (name, out.checks, out.details)
