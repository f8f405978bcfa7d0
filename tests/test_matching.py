"""Streaming matching engines against the exact oracles.

The strong guarantee tier applies whenever no vertex hits the kernel
degree cap; every graph checked against an oracle here is small enough for
that, so the tier inequalities are asserted as exact integers (unweighted)
or exact fractions (weighted).  Where the cap binds, outputs are pinned
instead.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampath.corpus import gen_random_graph, gen_random_weighted_graph
from streampath.graph import (
    Edge,
    Graph,
    Matching,
    components_contraction,
    matching_contraction,
)
from streampath.matching import (
    ApproxParams,
    OracleLimitError,
    _augment_on_kernel,
    _pick_swaps,
    oracle_max_matching,
    oracle_max_weight_matching,
    streaming_max_matching,
    streaming_max_weight_matching,
)
from streampath.pathcover import two_phase_path_cover
from streampath.prng import SplitMix64
from streampath import stream
from streampath.stream import (
    BudgetExceededError,
    EdgeStreamSource,
    FileEdgeSource,
    InMemoryEdgeSource,
    open_session,
)


def _run_unweighted(g: Graph, eps: str) -> tuple[Matching, object]:
    params = ApproxParams.parse(eps)
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k, strict=True)
    m = streaming_max_matching(src, params, sess)
    return m, sess.report()


def _run_weighted(g: Graph, eps: str) -> Matching:
    params = ApproxParams.parse(eps)
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k, strict=True)
    return streaming_max_weight_matching(src, params, sess)


# --- ApproxParams ----------------------------------------------------------------


def test_params_derive_k_as_inverse_ceiling():
    assert ApproxParams.parse("1/3").k == 3
    assert ApproxParams.parse("1/2").k == 2
    assert ApproxParams.parse("2/5").k == 3
    assert ApproxParams.parse("1/4").k == 4
    assert ApproxParams.parse("9/10").k == 2  # eps < 1 keeps k >= 2, so 3-edge paths are searched


def test_params_expose_swap_and_cap_limits():
    p = ApproxParams.parse("1/4")
    assert p.max_swap_edges == 7
    assert p.kernel_degree_cap == 24


@pytest.mark.parametrize("bad", ["0", "1", "7/3", "-1/2", "", "half", "1/0", "0.25", "1e-3"])
def test_params_reject_out_of_range(bad):
    with pytest.raises(ValueError):
        ApproxParams.parse(bad)


def test_params_refuse_an_epsilon_whose_k_is_past_a_word():
    assert ApproxParams(Fraction(1, 2**63 - 1)).k == 2**63 - 1
    for eps in [Fraction(1, 2**63), Fraction("1e-4200"), Fraction("1e-5000")]:
        with pytest.raises(ValueError, match=r"k = ceil\(1/epsilon\) must be below 2\^63"):
            ApproxParams(eps)
    # parse reads P/Q as a file field is read, so 1/2^63 is refused as text
    assert ApproxParams.parse(f"1/{2**63 - 1}").k == 2**63 - 1
    with pytest.raises(ValueError, match=r"must be P or P/Q"):
        ApproxParams.parse(f"1/{2**63}")


def test_params_refusal_prints_no_epsilon(each_digit_limit):
    # an epsilon past int()'s digit limit is refused with a message that
    # holds no digits of it, the same whether or not the limit is on
    def refusal():
        with pytest.raises(ValueError) as err:
            ApproxParams(Fraction(10**5000))
        return str(err.value)

    assert each_digit_limit(refusal) == ["epsilon must be in (0, 1)"] * 2


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


def test_long_augmenting_path_needs_no_recursion():
    # pairs (1,2), (3,4), ... arrive first and are matched greedily; the one
    # augmenting path then runs the whole 2,201-edge path from 0 to n - 1,
    # deeper than Python's default recursion limit
    n = 2202
    pairs = [(v, v + 1) for v in range(1, n - 1, 2)] + [(v, v + 1) for v in range(0, n - 1, 2)]
    m, _ = _run_unweighted(Graph.from_pairs(n, pairs), "1/1200")
    assert m.size == n // 2


def test_searches_start_only_at_vertices_with_kernel_edges(monkeypatch):
    # a header n far above the touched vertices: a vertex with an empty
    # kernel row cannot start an augmenting path, so it is never searched
    from streampath import matching

    calls = []
    search = matching._augmenting_path

    def counted(s, *rest):
        calls.append(s)
        return search(s, *rest)

    monkeypatch.setattr(matching, "_augmenting_path", counted)
    n = 20_000
    g = Graph.from_pairs(n, [(1, 2), (0, 1), (2, 3), (7, 8), (n - 2, n - 1)])
    touched = {v for e in g.edges for v in e.pair}
    params = ApproxParams.parse("1/3")
    m, _ = _run_unweighted(g, "1/3")
    assert m.size == 4
    assert 0 < len(calls) <= len(touched) * params.k
    assert set(calls) <= touched


def test_tiny_epsilon_sweeps_no_length_past_the_longest_simple_path(monkeypatch):
    # k = 10^4 allows augmenting paths of 19,999 edges, but on n vertices
    # no simple path has more than n - 1
    from streampath import matching

    calls = []
    search = matching._augmenting_path

    def counted(s, *rest):
        calls.append(s)
        return search(s, *rest)

    monkeypatch.setattr(matching, "_augmenting_path", counted)
    g = Graph.from_pairs(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    m, _ = _run_unweighted(g, f"1/{10**4}")
    assert m.size == 1
    assert 0 < len(calls) <= g.n * g.n


@pytest.mark.parametrize("engine", [streaming_max_matching, streaming_max_weight_matching])
def test_engine_run_ends_holding_what_it_began_with(engine):
    g = gen_random_weighted_graph(12, 3)
    params = ApproxParams.parse("1/3")
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k, strict=True)
    m = engine(src, params, sess)
    assert m.size > 0 and sess.report().runs[-1].words_peak > 0
    assert sess.words_in_use == 0
    # A caller that keeps the matching charges it; the next run leaves that be.
    sess.charge(3 * m.size)
    engine(src, params, sess, label="again")
    assert sess.words_in_use == 3 * m.size


def test_greedy_match_with_both_rows_full_joins_the_kernel_once():
    # cap 12 at eps = 1/2: hubs 2..13 are matched to 14..25 first, then
    # vertices 0 and 1 fill their kernel rows with hub edges, so (0, 1) is
    # greedily matched with both rows full and joins both rows, each then
    # 13 long; its parallel copy, which arrives later, is not kept again.
    # Peak words: 26 for partners, 3 for each of the 13 greedy matches and
    # 3 for each of the 37 kernel edges, 176; charged only as a match,
    # (0, 1) gave 173.
    triples = [(h, h + 12, 1) for h in range(2, 14)]
    triples += [(0, h, 1) for h in range(2, 14)] + [(1, h, 1) for h in range(2, 14)]
    triples += [(0, 1, 5), (1, 0, 7)]
    g = Graph.from_pairs(26, triples, weighted=True)
    params = ApproxParams.parse("1/2")
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k, strict=True)
    m = streaming_max_matching(src, params, sess)
    assert m.size == 13
    assert m.edges[-1] == Edge(0, 1, 5)
    assert sess.report().runs[-1].words_peak == 176
    assert sess.words_in_use == 0


def test_a_full_rows_match_a_flip_drops_carries_a_later_longer_path():
    # cap 30 at eps = 1/5: hubs 10..39 are matched to 40..69, then x and y
    # fill their rows with hub edges, so (x, y) is greedily matched with
    # both rows full.  f0 is swept first and x heads its row, so the
    # length-3 flip f0-x=y-f1 drops (x, y).  The only augmenting path left,
    # g0-c=d-f0=x-y=f1-e=h-g1, runs through it with 9 edges, and flipping
    # it matches the 10 of them perfectly; a kernel without (x, y) stops at
    # 34 edges.  No shorter path can reach (x, y): its new partners f0 and
    # f1 were free all pass, so no free vertex neighbours them.  Peak
    # words: 70 for partners, 3 for each of the 33 greedy matches and 99
    # kernel edges, and 3 for each of the 2 flips.
    f0, f1, g0, g1, x, y, c, d, e, h = range(10)
    hubs = range(10, 40)
    pairs = [(hub, hub + 30) for hub in hubs] + [(c, d), (e, h)]
    pairs += [(x, hub) for hub in hubs] + [(y, hub) for hub in hubs]
    pairs += [(x, y), (f0, x), (y, f1), (d, f0), (g0, c), (f1, e), (h, g1)]
    m, report = _run_unweighted(Graph.from_pairs(70, pairs), "1/5")
    assert m.size == 35
    flipped = [(x, y), (d, f0), (g0, c), (f1, e), (h, g1)]
    assert [(edge.u, edge.v) for edge in m.edges[30:]] == flipped
    assert report.runs[-1].words_peak == 472


def test_kernel_keeps_a_pair_while_either_row_has_room():
    # cap 12 at eps = 1/2: the centre's row passes 12, since each leaf's
    # row still has room, so all 20 pairs are kept.  Peak words: 21 for
    # partners, 3 for the one greedy match, 3 for each of the 20 kernel
    # edges; rows that stopped at 12 would give 21 + 3 + 36 = 60.
    g = Graph.from_pairs(21, [(0, leaf) for leaf in range(1, 21)])
    m, report = _run_unweighted(g, "1/2")
    assert m.size == 1
    assert report.runs[-1].words_peak == 84


def test_later_lengths_may_run_through_vertices_flipped_earlier():
    # the length-3 flip 0-6=4-1 re-partners 4 and 1, and the length-5 path
    # 5-4=1-2=3-7 then runs through both; a search that bars the vertices
    # of earlier flips stops at 3 edges, below k/(k+1) of the optimum 4
    pairs = [(4, 6), (6, 7), (0, 6), (1, 4), (4, 5), (2, 3), (1, 2), (3, 6), (3, 7), (2, 6)]
    g = Graph.from_pairs(8, pairs)
    assert oracle_max_matching(g).size == 4
    for eps in ("1/3", "1/4", "1/5"):
        m, report = _run_unweighted(g, eps)
        assert [(e.u, e.v) for e in m.edges] == [(0, 6), (4, 5), (1, 2), (3, 7)], eps
        assert report.runs[-1].words_peak == 50


def _searched_lengths(monkeypatch, longest: int | None = None) -> list[int]:
    """The lengths ``_augmenting_path`` is asked for, as it is called; a
    call for more than ``longest`` edges fails fast."""
    from streampath import matching

    lengths = []
    search = matching._augmenting_path

    def guarded(s, length, *rest):
        if longest is not None and length > longest:
            raise AssertionError(f"searched length {length}")
        lengths.append(length)
        return search(s, length, *rest)

    monkeypatch.setattr(matching, "_augmenting_path", guarded)
    return lengths


def test_sweep_stops_once_the_matching_is_maximum_as_the_full_sweep_finds(monkeypatch):
    # A counter of -1 never stops the sweep, so it runs every length: the
    # stop must leave the same matching, with fewer searches.
    from streampath import matching

    lengths = _searched_lengths(monkeypatch)
    count_odd = matching._odd_components
    saved = 0
    for seed, k in product(range(12), range(4, 9)):
        n = 15 + 2 * (seed % 6)
        g = gen_random_graph(n, seed, Fraction(3, n))
        lengths.clear()
        m, _ = _run_unweighted(g, f"1/{k}")
        stopped = len(lengths)
        monkeypatch.setattr(matching, "_odd_components", lambda rows: -1)
        lengths.clear()
        full, _ = _run_unweighted(g, f"1/{k}")
        monkeypatch.setattr(matching, "_odd_components", count_odd)
        assert m == full, (seed, k)
        saved += len(lengths) - stopped
    assert saved > 0


def test_sweep_at_small_epsilon_stops_before_length_9(monkeypatch):
    # gnm_pairs(501, 2,500, 1) in memory: each search past length 7 walks
    # about d^(k-1) alternating walks and finds nothing, so the sweep must
    # stop at 7 once the matching leaves one free vertex per odd component
    from perfbench.gen import gnm_pairs

    _searched_lengths(monkeypatch, longest=7)
    g = Graph.from_pairs(501, gnm_pairs(501, 2500, 1))
    covers = []
    for eps in ("1/6", "1/16"):
        params = ApproxParams.parse(eps)
        src = InMemoryEdgeSource(g)
        res = two_phase_path_cover(src, params, open_session(src, k=params.k, strict=True))
        assert (res.first_matching.size, res.second_matching.size) == (250, 125), eps
        covers.append(res.cover.edges)
    assert covers[0] == covers[1]


def _reference_max_matching(source, params, session, view=None, label="matching", events=None):
    """The unweighted engine with a set of kept pairs: the dedup reference.

    ``events`` counts what the set decided: greedy matches made with both
    rows full, and later copies of kept pairs by how many of their two
    rows were full.  After the pass it checks that the run has charged its
    partners, 3 words per kept pair and 3 more per greedy match.
    """
    n_view = view.n_new if view is not None else source.n
    target = view.target if view is not None else list(range(source.n))
    events = Counter() if events is None else events
    held = session.words_in_use
    session.begin_run(label)
    partner = [None] * n_view
    session.charge(n_view)
    cap = params.kernel_degree_cap
    kept = set()
    greedy = 0
    ku, kv, kw = [], [], []
    rows = [[] for _ in range(n_view)]

    def visit(_pos0, us, vs, ws):
        nonlocal greedy
        words = 0
        for u, v, w in zip(us, vs, ws):
            a = target[u]
            b = target[v]
            if a == b or a < 0 or b < 0:
                continue
            key = a * n_view + b if a < b else b * n_view + a
            if key in kept:
                events[f"copy, {(len(rows[a]) >= cap) + (len(rows[b]) >= cap)} rows full"] += 1
                continue
            row_a = rows[a]
            row_b = rows[b]
            full = len(row_a) >= cap and len(row_b) >= cap
            if partner[a] is None and partner[b] is None:
                partner[a] = b
                partner[b] = a
                greedy += 1
                words += 3
                if full:
                    events["matched with both rows full"] += 1
            elif full:
                continue
            row_a.append(b)
            row_b.append(a)
            words += 3
            kept.add(key)
            ku.append(u)
            kv.append(v)
            kw.append(w)
        if words:
            session.charge(words)

    session.run_pass(visit)
    assert session.words_in_use - held == n_view + 3 * len(kept) + 3 * greedy
    _augment_on_kernel(partner, rows, params.max_swap_edges, session)
    edges = tuple(Edge(u, v, w) for u, v, w in zip(ku, kv, kw) if partner[target[u]] == target[v])
    session.release(3 * (len(kept) + len(edges)) + n_view)
    session.end_run()
    return Matching(edges)


def _dedup_stream(seed: int) -> Graph:
    """A seeded stream whose repeated pairs meet every case of the dedup.

    Two thirds of the non-hubs are matched first, and the three hubs meet
    only those, so a hub may fill its row while free and a hub-hub pair is
    then greedily matched with both rows full; random edges follow, and
    about half as many copies of earlier edges again are placed later in
    the stream, each copy with a weight of its own.
    """
    rng = SplitMix64(seed)
    n = rng.randint(30, 60)
    rest = list(range(3, n))
    rng.shuffle(rest)
    matched = rest[: 2 * len(rest) // 3]
    pairs = list(zip(matched[0::2], matched[1::2]))
    for hub in range(3):
        pairs += [(hub, matched[rng.below(len(matched))]) for _ in range(rng.randint(12, 30))]
    pairs += [(0, 1), (2, 1)]
    for _ in range(2 * n):
        u, v = rng.below(n), rng.below(n)
        if u != v:
            pairs.append((u, v))
    for _ in range(len(pairs) // 2):
        j = rng.below(len(pairs))
        u, v = pairs[j]
        pairs.insert(rng.randint(j + 1, len(pairs)), (v, u) if rng.coin() else (u, v))
    return Graph.from_pairs(n, [(u, v, rng.randint(1, 9)) for u, v in pairs], weighted=True)


def test_dedup_from_the_rows_matches_the_kept_pair_set():
    events = Counter()
    for seed, eps in product(range(40), ("1/2", "1/3")):
        g = _dedup_stream(seed)
        params = ApproxParams.parse(eps)
        src = InMemoryEdgeSource(g)
        first = _reference_max_matching(src, params, open_session(src, k=params.k), events=events)
        contraction = matching_contraction(g.n, first)
        banned = components_contraction(g.n, [e.pair for e in first], banned=range(0, g.n, 7))
        for view in (None, contraction, banned):
            runs = []
            for engine in (streaming_max_matching, _reference_max_matching):
                sess = open_session(src, k=params.k, strict=True)
                runs.append((engine(src, params, sess, view=view), sess.report()))
            assert runs[0] == runs[1], (seed, eps, view)
    # every case the set used to decide, at both caps and through the views
    assert set(events) == {"matched with both rows full", "copy, 0 rows full",
                           "copy, 1 rows full", "copy, 2 rows full"}, events
    assert min(events.values()) >= 10, events


def test_star_sent_twice_stays_linear():
    # every later copy finds the hub's row 10^5 long and the leaf's row
    # short; scanning the hub's row instead would take hours
    leaves = 10**5
    g = Graph.from_pairs(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)] * 2)
    params = ApproxParams.parse("1/3")
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k, strict=True)
    start = time.perf_counter()
    m = streaming_max_matching(src, params, sess)
    assert time.perf_counter() - start < 20
    assert m.edges == (Edge(0, 1),)
    # partners, one greedy match, and each distinct pair once in the kernel
    assert sess.report().runs[-1].words_peak == (leaves + 1) + 3 + 3 * leaves


@pytest.mark.parametrize("top", [None, 1000, 2**63 - 1], ids=["unweighted", "w1000", "w2^63"])
def test_unweighted_pass_keeps_at_most_24_bytes_per_charged_word(tmp_path, top):
    # G(10^4, 5 * 10^4) read from a file, unweighted or with weights in
    # [1, top]: the engine may keep its rows, partners and the kept pairs'
    # original ends and weights as words, but no pair set and no ints the
    # parser made, and it drops its rows before it builds its matching as
    # columns; it measures 19.9-20.5 on Python 3.10-3.13, and 27-28 when
    # the matching is built as Edge objects, checked by a set of its ends,
    # while the rows are still held
    rng = SplitMix64(7)
    n, m = 10**4, 5 * 10**4
    lines = [f"{n} {m}" if top is None else f"{n} {m} weighted"]
    while len(lines) <= m:
        u, v = rng.below(n), rng.below(n)
        if u != v:
            lines.append(f"{u} {v}" if top is None else f"{u} {v} {rng.randint(1, top)}")
    path = tmp_path / "g.txt"
    path.write_text("\n".join(lines) + "\n")
    params = ApproxParams.parse("1/3")
    src = FileEdgeSource(str(path))
    sess = open_session(src, k=params.k)
    tracemalloc.start()
    try:
        streaming_max_matching(src, params, sess)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words = sess.report().runs[-1].words_peak
    assert peak <= 24 * words, peak / words


def test_both_engines_carry_every_weight_a_word_holds():
    # the unweighted engine keeps weights in a 64-bit array, which holds
    # every weight an Edge admits
    with pytest.raises(ValueError):
        Graph.from_pairs(2, [(0, 1, 2**63)], weighted=True)
    w = 2**63 - 1
    g = Graph.from_pairs(4, [(0, 1, w), (1, 2, 5), (2, 3, w)], weighted=True)
    params = ApproxParams.parse("1/3")
    for engine in (streaming_max_matching, streaming_max_weight_matching):
        src = InMemoryEdgeSource(g)
        m = engine(src, params, open_session(src, k=params.k, strict=True))
        assert sorted((e.u, e.v, e.weight) for e in m) == [(0, 1, w), (2, 3, w)], engine
        assert all(type(e.weight) is int for e in m)


def _sparse_simple_graph(seed: int) -> Graph:
    """A simple G(n, m) with n in 8..16 and m in n - 1..2n, in drawn order."""
    rng = SplitMix64(seed)
    n = rng.randint(8, 16)
    m = rng.randint(n - 1, 2 * n)
    seen: set[tuple[int, int]] = set()
    pairs = []
    while len(pairs) < m:
        u, v = rng.below(n), rng.below(n)
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            pairs.append((u, v))
    return Graph.from_pairs(n, pairs)


def _has_short_augmenting_path(g: Graph, m: Matching, max_len: int) -> bool:
    """Brute force: some augmenting path of at most ``max_len`` edges in ``g``."""
    partner: list[int | None] = [None] * g.n
    for e in m.edges:
        partner[e.u], partner[e.v] = e.v, e.u
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for e in g.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)

    def reaches_free(u: int, on: set[int], room: int) -> bool:
        for v in adj[u]:
            if v in on or partner[u] == v:
                continue
            mate = partner[v]
            if mate is None:
                return True
            if room >= 3 and mate not in on and reaches_free(mate, on | {v, mate}, room - 2):
                return True
        return False

    return any(partner[s] is None and reaches_free(s, {s}, max_len) for s in range(g.n))


def test_no_short_augmenting_path_is_left_when_the_kernel_is_the_graph():
    # no oracle: with every degree within the 6k cap the kernel is the whole
    # graph, and the engine promises no augmenting path of <= 2k - 1 edges
    checked = 0
    for seed in range(500):
        g = _sparse_simple_graph(seed)
        max_degree = max(g.degrees())
        for eps in ("1/2", "1/3", "1/4", "1/5"):
            params = ApproxParams.parse(eps)
            if max_degree > params.kernel_degree_cap:
                continue
            m, _ = _run_unweighted(g, eps)
            assert frozenset(e.pair for e in m) <= {e.pair for e in g.edges}
            assert not _has_short_augmenting_path(g, m, params.max_swap_edges), (seed, eps)
            checked += 1
    assert checked > 1900


def test_unweighted_tier_against_oracle():
    graphs = [gen_random_graph(3 + seed % 8, seed, Fraction(1, 2)) for seed in range(120)]
    # sparse graphs with at most 16 active vertices, where degrees stay
    # within the cap and augmenting paths run long
    graphs += [_sparse_simple_graph(seed) for seed in range(1000, 1060)]
    for i, g in enumerate(graphs):
        mu = oracle_max_matching(g).size
        for eps, k in (("1/2", 2), ("1/3", 3), ("1/4", 4)):
            m, _ = _run_unweighted(g, eps)
            assert (k + 1) * m.size >= k * mu, (i, eps, m.size, mu)
            assert m.size <= mu


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_unweighted_result_is_a_maximal_matching(seed):
    g = gen_random_graph(9, seed, Fraction(1, 2))
    m, _ = _run_unweighted(g, "1/3")
    covered = frozenset(v for e in m for v in (e.u, e.v))
    for e in g.edges:
        assert e.u in covered or e.v in covered, "an edge could still be added"


def test_contraction_view_banned_and_loops():
    from streampath.graph import components_contraction

    view = components_contraction(4, [(0, 1)], banned=frozenset({3}))
    assert view.n_new == 3
    # 0 and 1 merge (an edge between them is a loop); banned 3 maps to -1
    assert view.target == (0, 0, 1, -1)
    assert components_contraction(4, [(0, 1)]).target == (0, 0, 1, 2)
    # banning renumbers nothing: class {0, 3} keeps id 0 with its minimum banned
    view = components_contraction(5, [(0, 3)], banned={0})
    assert view.target == (-1, 1, 2, 0, 3)
    assert view.n_new == 4


def test_engine_respects_view():
    # without the view (1,2) is the only edge the engine may keep
    from streampath.graph import components_contraction

    g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    view = components_contraction(4, [], banned=frozenset({0, 3}))
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


def test_long_weighted_swap_needs_no_recursion():
    # pairs (1,2), (3,4), ... arrive first and the greedy sweep takes them;
    # the one improving swap then runs the whole 2,601-edge path from 0 to
    # n - 1, past 1,000 nested drops
    n = 2602
    pairs = [(v, v + 1, 1) for v in range(1, n - 1, 2)] + [(v, v + 1, 1) for v in range(0, n - 1, 2)]
    m = _run_weighted(Graph.from_pairs(n, pairs, weighted=True), "1/1302")
    assert m.size == n // 2 == 1301


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_weighted_result_is_maximal(seed):
    g = gen_random_weighted_graph(8, seed, Fraction(1, 2), 5)
    m = _run_weighted(g, "1/3")
    covered = frozenset(v for e in m for v in (e.u, e.v))
    for e in g.edges:
        assert e.u in covered or e.v in covered


def test_weighted_full_table_upgrade_tie_and_eviction():
    # eps = 1/2: k = 2, so every table holds at most 12 entries.  A and B
    # fill their tables; V1, V2 and V3 first fill theirs with heavier edges
    # to H, so they never keep an edge to A or B, and only A's or B's
    # choices decide whether such an edge reaches the kernel.
    a, b, v1, v2, v3 = 0, 1, 2, 3, 4
    h, p = range(5, 17), range(17, 29)
    leaves, late = range(29, 40), 40
    q, r = range(41, 52), range(52, 63)
    triples = [(x, y, 100) for x, y in zip(h, p)]
    triples += [(x, y, 10) for x in (v1, v2, v3) for y in h]
    # A's table fills with (A, V1) weakest; a parallel copy then upgrades
    # that entry, so the weakest becomes the latest weight-8 leaf.  The late
    # weight-8 edge ties with it and must lose; a stale weakest entry would
    # evict V1 instead.  The equal-weight copy after it must not replace the
    # first weight-9 copy, whose orientation the matching shows.
    triples += [(a, v1, 1)] + [(a, x, 8) for x in leaves]
    triples += [(v1, a, 9), (a, late, 8), (a, v1, 9)]
    # B's table fills with two tied weight-5 entries as its weakest; a
    # heavier arrival must evict the later of them (V3), leaving (B, V2).
    triples += [(x, y, 50) for x, y in zip(q, r)]
    triples += [(b, v2, 5), (b, v3, 5)] + [(b, x, 8) for x in q[:10]] + [(b, q[10], 6)]
    g = Graph.from_pairs(63, triples, weighted=True)

    params = ApproxParams.parse("1/2")
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k, strict=True)
    m = streaming_max_weight_matching(src, params, sess)
    assert sess.words_in_use == 0
    assert [(e.u, e.v, e.weight) for e in m.edges] == (
        [(x, y, 100) for x, y in zip(h, p)]
        + [(v1, a, 9)]
        + [(x, y, 50) for x, y in zip(q, r)]
        + [(b, v2, 5)]
    )
    assert sess.report().as_dict() == {
        "source": "memory", "n": 63, "m": 87, "passes_used": 1, "words_budget": 8064,
        "words_peak": 582, "budget_exceeded": False,
        "runs": [{"label": "weighted-matching", "passes": 1, "words_peak": 582}],
    }


def _capture_kernel(monkeypatch) -> list[list]:
    """A list that records the kernel entries of a weighted run's first scan.

    Clear it before each run: it records only while it is empty.
    """
    from streampath import matching

    seen: list[list] = []
    search = matching._pick_swaps

    def captured(kentries, *rest):
        if not seen:
            seen.append(list(kentries))
        return search(kentries, *rest)

    monkeypatch.setattr(matching, "_pick_swaps", captured)
    return seen


def test_weighted_upgrade_below_the_head_then_evict_the_true_weakest(monkeypatch):
    # eps = 1/2: A's table holds 12 entries.  They arrive lightest-first at
    # the head, so the full table is (2, 3, 6, 4, 5, 7, 7, 8, ...) in heap
    # order.  A parallel copy lifts the weight-3 entry, which is not the
    # weakest, to 9.  The weight-10 arrival then evicts the weight-2 entry,
    # and the weight-5 arrival must evict the weight-4 entry, the true
    # weakest: a table that leaves the lifted entry out of order puts a
    # weight-6 entry at its head and drops the weight-5 arrival instead.
    # N4 first fills its own table with heavier edges, so the pair (A, N4)
    # reaches the kernel only through A's table.
    seen = _capture_kernel(monkeypatch)
    a, x, n4, z1, z2 = 0, 2, 4, 13, 14
    triples = [(n4, p, 50) for p in range(15, 27)]
    triples += [(a, y, w) for y, w in zip(range(1, 13), (2, 3, 6, 4, 5, 7, 7, 8, 8, 8, 8, 8))]
    triples += [(a, x, 9), (a, z1, 10), (a, z2, 5)]
    g = Graph.from_pairs(27, triples, weighted=True)
    params = ApproxParams.parse("1/2")
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k, strict=True)
    streaming_max_weight_matching(src, params, sess)
    assert sess.words_in_use == 0
    pairs = [(u, v, w) for u, v, w, _ in seen[0]]
    assert (a, n4, 4) not in pairs
    assert pairs == [(n4, p, 50) for p in range(15, 27)] + [
        (a, y, w) for y, w in zip((1, 3, 5, 6, 7, 8, 9, 10, 11, 12), (2, 6, 5, 7, 7, 8, 8, 8, 8, 8))
    ] + [(a, x, 9), (a, z1, 10), (a, z2, 5)]
    assert seen[0] == _best_copy_kernel(g, params.kernel_degree_cap)


def _best_copy_kernel(
    g: Graph, cap: int, view=None
) -> list[tuple[int, int, int, tuple[int, int, int]]]:
    """Offline kernel: each viewed vertex's ``cap`` best pairs by best copy, united.

    Edges are read through ``view.target`` when a view is given, dropping
    those with a banned end or both ends in one class.  A viewed pair's
    best copy is its heaviest, the earliest among equal weights; entries
    are ``(a, b, w, original triple)`` with viewed ends a < b, in stream
    order of those copies.
    """
    n_view = view.n_new if view is not None else g.n
    target = view.target if view is not None else range(g.n)
    best: dict[tuple[int, int], tuple[int, int]] = {}
    for pos, e in enumerate(g.edges):
        a, b = target[e.u], target[e.v]
        if a == b or a < 0 or b < 0:
            continue
        pair = (min(a, b), max(a, b))
        cur = best.get(pair)
        if cur is None or e.weight > cur[0]:
            best[pair] = (e.weight, pos)
    ranked: list[list[tuple[int, int, tuple[int, int]]]] = [[] for _ in range(n_view)]
    for pair, (w, pos) in best.items():
        for x in pair:
            ranked[x].append((w, -pos, pair))
    kept = {pair for row in ranked for _, _, pair in sorted(row, reverse=True)[:cap]}
    edges = g.edges
    out = []
    for pair in sorted(kept, key=lambda p: best[p][1]):
        e = edges[best[pair][1]]
        out.append((*pair, e.weight, (e.u, e.v, e.weight)))
    return out


def test_weighted_kernel_is_each_vertexs_best_pairs_by_best_copy(monkeypatch):
    # Multigraphs with parallel copies and weights 1..3, so ties are common,
    # with the cap binding at many vertices: the kernel the local search
    # starts from is the union of each viewed vertex's 6k best pairs by
    # best copy.  Each eps streams every graph directly, through a
    # contraction of random pairs (as phase two reads the first matching's
    # contraction, so viewed pairs arrive as parallel copies and full tables
    # upgrade entries that are not their heads), and through that
    # contraction with a few vertices banned.
    seen = _capture_kernel(monkeypatch)
    for eps, view_kind in product(("1/2", "1/3"), ("none", "contracted", "banned")):
        params = ApproxParams.parse(eps)
        cap = params.kernel_degree_cap
        over_cap = 0
        # Graphs read through a view are larger, so fewer of them suffice.
        for seed in range(300 if view_kind == "none" else 100):
            rng = SplitMix64(seed)
            if view_kind == "none":
                n = rng.randint(8, 30) * cap // 12
            else:
                n = rng.randint(2 * cap, 4 * cap)
            m = rng.randint(n, 8 * n) * cap // 12
            triples = []
            while len(triples) < m:
                u, v = rng.below(n), rng.below(n)
                if u != v:
                    triples.append((u, v, rng.randint(1, 3)))
            g = Graph.from_pairs(n, triples, weighted=True)
            view = None
            if view_kind != "none":
                merge = [(rng.below(n), rng.below(n)) for _ in range(n // 3)]
                banned = [rng.below(n) for _ in range(n // 10)] if view_kind == "banned" else ()
                view = components_contraction(n, merge, banned)
            src = InMemoryEdgeSource(g)
            sess = open_session(src, k=params.k, strict=True)
            seen.clear()
            streaming_max_weight_matching(src, params, sess, view=view)
            assert sess.words_in_use == 0
            assert seen[0] == _best_copy_kernel(g, cap, view), (eps, view_kind, seed)
            target = view.target if view is not None else range(n)
            pairs = {frozenset((target[e.u], target[e.v])) for e in g.edges}
            degrees = Counter(x for pair in pairs if len(pair) == 2 and -1 not in pair for x in pair)
            over_cap += sum(d > cap for d in degrees.values())
        assert over_cap > 300, (eps, view_kind)


def test_final_maximality_sweep_adds_an_edge_too_light_for_the_search():
    # The local search ends with 4 and 7 both free: taking their weight-1
    # kernel edge gains far less than eps^2 w(M) / (4 n), about 4,300 here.
    # Only the closing maximality sweep adds it.
    triples = [(2, 6, 669342), (2, 3, 761219), (4, 7, 1), (0, 2, 761538),
               (3, 7, 2), (3, 4, 3), (0, 5, 481086), (5, 7, 3)]
    params = ApproxParams.parse("1/3")
    src = InMemoryEdgeSource(Graph.from_pairs(8, triples, weighted=True))
    sess = open_session(src, k=params.k, strict=True)
    m = streaming_max_weight_matching(src, params, sess)
    assert sess.words_in_use == 0
    assert [(e.u, e.v, e.weight) for e in m.edges] == [
        (2, 3, 761219), (4, 7, 1), (0, 5, 481086)
    ]
    assert m.weight == 1242306
    assert sess.report().runs[-1].words_peak == 56


def test_scan_cap_takes_its_weight_bits_from_the_kernel(monkeypatch):
    # A search that never converges fails once it has run scan_cap scans.
    # The view merges the ends of the 2**60 edge, so it is no kernel edge:
    # the cap counts the 3 bits of the heaviest kernel weight, 5, not 61.
    from streampath import matching

    scans = []

    def endless(*args):
        scans.append(1)
        return [(1, (), (), ())]

    monkeypatch.setattr(matching, "_pick_swaps", endless)
    g = Graph.from_pairs(4, [(0, 1, 2**60), (1, 2, 3), (2, 3, 5)], weighted=True)
    view = components_contraction(4, [(0, 1)])
    params = ApproxParams.parse("1/3")
    src = InMemoryEdgeSource(g)
    with pytest.raises(AssertionError, match="failed to converge"):
        streaming_max_weight_matching(src, params, open_session(src, k=params.k), view=view)
    n_view, k = view.n_new, params.k
    assert (n_view, k) == (3, 3)
    assert len(scans) == 64 + 8 * n_view * k * k * (3 + n_view.bit_length() + 4) == 2008


class _CountedSource(EdgeStreamSource):
    """Another source's stream, counting the blocks its passes have read."""

    def __init__(self, inner: EdgeStreamSource) -> None:
        self.name, self.n, self.m, self.weighted = inner.name, inner.n, inner.m, inner.weighted
        self.inner = inner
        self.read = 0

    def blocks(self):
        for block in self.inner.blocks():
            self.read += 1
            yield block


def _multi_block_weighted(n: int, seed: int) -> Graph:
    """A seeded weighted multigraph of three in-memory blocks on ``n`` vertices."""
    rng = SplitMix64(seed)
    triples = []
    while len(triples) < 3 * stream._SLICE_EDGES:
        u, v = rng.below(n), rng.below(n)
        if u != v:
            triples.append((u, v, rng.randint(1, 1000)))
    return Graph.from_pairs(n, triples, weighted=True)


def test_weighted_strict_overrun_fires_at_the_end_of_the_first_block():
    # The pass sums a block's growth and charges it once, so a budget the
    # first few edges cross fails when that block is done, before the
    # second is read, and the ledger then holds the block's whole growth:
    # 2 words per table entry and 1 per full table.  After a prefix of the
    # stream, a table holds min(cap, distinct neighbours in it) entries.
    g = _multi_block_weighted(1000, 5)
    assert g.m > 2 * stream._SLICE_EDGES
    params = ApproxParams.parse("1/3")
    cap = params.kernel_degree_cap
    first = stream._SLICE_EDGES
    pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in g.edges[:first]}
    degree = Counter(x for pair in pairs for x in pair)
    grown = sum(2 * min(d, cap) + (d >= cap) for d in degree.values())
    assert any(d >= cap for d in degree.values())
    src = _CountedSource(InMemoryEdgeSource(g))
    sess = open_session(src, words_budget=50, strict=True)
    with pytest.raises(BudgetExceededError) as err:
        streaming_max_weight_matching(src, params, sess)
    assert src.read == 1
    assert str(err.value) == f"retained {grown} words, budget 50"
    assert sess.words_in_use == grown


def test_weighted_engine_refuses_a_stream_longer_than_its_m():
    # a table's heap keys hold a copy's position in the bits the source's m
    # needs, so a stream past m would misorder them
    g = Graph.from_pairs(4, [(0, 1, 5), (1, 2, 6), (2, 3, 7)], weighted=True)
    params = ApproxParams.parse("1/3")
    src = InMemoryEdgeSource(g)
    src.m = 2
    with pytest.raises(ValueError, match="yields more than its 2 edges"):
        streaming_max_weight_matching(src, params, open_session(src, k=params.k))


@pytest.mark.parametrize(
    "n, seed, eps, words_peak, size, weight",
    [
        (300, 1, "1/3", 20016, 150, 147968),
        (300, 2, "1/2", 13494, 150, 147744),
        (3000, 3, "1/3", 164853, 1495, 1314038),
    ],
)
def test_weighted_multi_block_runs_keep_their_peaks(n, seed, eps, words_peak, size, weight):
    # Charging once per block leaves every peak where charging each table
    # entry as it arrived put it; pinned from the per-entry engine.
    g = _multi_block_weighted(n, seed)
    params = ApproxParams.parse(eps)
    src = InMemoryEdgeSource(g)
    sess = open_session(src, k=params.k)
    m = streaming_max_weight_matching(src, params, sess)
    report = sess.report()
    assert report.runs == (stream.RunRecord("weighted-matching", 1, words_peak),)
    assert (report.words_peak, report.budget_exceeded) == (words_peak, False)
    assert (m.size, m.weight) == (size, weight)


# --- the pruned swap search ------------------------------------------------------


def _reference_enumerate_swaps(
    n_view: int,
    kentries: list[tuple[int, int, int, int, tuple[int, int, int]]],
    adj: list[list[int]],
    partner: list[int | None],
    matched: dict[tuple[int, int], int],
    limit: int,
    thr_num: int,
    thr_mul: int,
) -> list[tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """The unpruned swap search, kept as the reference for the pruned one.

    A swap adds kernel edges and drops matched edges so that the result is
    again a matching: walks start either at a free vertex or by dropping a
    matched edge, strictly alternate add/drop, may stop at a free vertex or
    right after a drop, and may close into an even cycle at a start whose
    matched edge was dropped.  "Improving" means ``gain * thr_mul >
    thr_num``.  Every swap is reported once, deduplicated by its sorted
    position signature; vertices visited along a walk are tracked as a
    bitmask.
    """
    out: list[tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]] = []
    seen: set[tuple[int, ...]] = set()

    def weight_of(key: tuple[int, int]) -> int:
        return kentries[matched[key]][2]

    def record(gain: int, adds: list[int], drops: list[tuple[int, int]]) -> None:
        if gain * thr_mul <= thr_num:
            return
        signature = tuple(
            sorted([kentries[i][3] for i in adds] + [kentries[matched[k]][3] for k in drops])
        )
        if signature in seen:
            return
        seen.add(signature)
        out.append((gain, signature, tuple(adds), tuple(drops)))

    def grow(
        cur: int,
        start: int,
        start_matched: bool,
        adds: list[int],
        drops: list[tuple[int, int]],
        visited: int,
        gain: int,
    ) -> None:
        room = limit - len(adds) - len(drops)
        if room < 1:
            return
        for idx in adj[cur]:
            u, v, w, _, _ = kentries[idx]
            nxt = v if u == cur else u
            key = (u, v) if u < v else (v, u)
            if key in matched:
                continue
            if nxt == start and start_matched:
                record(gain + w, adds + [idx], drops)
                continue
            if (visited >> nxt) & 1:
                continue
            mate = partner[nxt]
            if mate is None:
                record(gain + w, adds + [idx], drops)
                continue
            if room < 2 or (visited >> mate) & 1:
                continue
            mkey = (nxt, mate) if nxt < mate else (mate, nxt)
            dropped = gain + w - weight_of(mkey)
            record(dropped, adds + [idx], drops + [mkey])
            grow(
                mate,
                start,
                start_matched,
                adds + [idx],
                drops + [mkey],
                visited | (1 << nxt) | (1 << mate),
                dropped,
            )

    for s in range(n_view):
        mate = partner[s]
        if mate is None:
            grow(s, s, False, [], [], 1 << s, 0)
        else:
            skey = (s, mate) if s < mate else (mate, s)
            grow(mate, s, True, [], [skey], (1 << s) | (1 << mate), -weight_of(skey))
    return out


def _greedy_pick(
    swaps: list[tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]],
    kentries: list[tuple[int, int, int, int, tuple[int, int, int]]],
) -> list[tuple[int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """The swaps a scan applies: best gain first, then smallest signature,
    skipping any swap that shares a vertex with an earlier pick."""
    picks = []
    touched: set[int] = set()
    for swap in sorted(swaps, key=lambda c: (-c[0], c[1])):
        _, _, adds, drops = swap
        verts = {x for i in adds for x in kentries[i][:2]} | {x for key in drops for x in key}
        if verts.isdisjoint(touched):
            picks.append(swap)
            touched |= verts
    return picks


def _swap_kernel(n: int, seed: int, weights: tuple[int, int] = (1, 9)):
    """A seeded kernel in the weighted engine's layout, with an empty, a
    partial and a perfect (one vertex left over when n is odd) matching;
    kernel weights are drawn from the inclusive range ``weights``."""
    rng = SplitMix64(seed)
    order = list(range(n))
    rng.shuffle(order)
    perfect = sorted((min(x, y), max(x, y)) for x, y in zip(order[0::2], order[1::2]))
    chosen = set(perfect)
    triples = [
        (u, v, rng.randint(*weights))
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) in chosen or rng.coin()
    ]
    rng.shuffle(triples)
    kentries = [(u, v, w, pos, (u, v, w)) for pos, (u, v, w) in enumerate(triples)]
    adj: list[list[int]] = [[] for _ in range(n)]
    for idx, (u, v, _, _, _) in enumerate(kentries):
        adj[u].append(idx)
        adj[v].append(idx)
    for lst in adj:
        lst.sort(key=lambda i: (-kentries[i][2], kentries[i][3]))
    index = {(u, v): idx for idx, (u, v, _, _, _) in enumerate(kentries)}
    matchings = [[], [key for key in perfect if rng.coin()], perfect]
    return kentries, adj, [{key: index[key] for key in keys} for keys in matchings]


def _fixed_kernel(n: int, triples: list[tuple[int, int, int]], matched: list[tuple[int, int]]):
    """``_swap_kernel``'s layout for the given edges, with an empty matching
    and the one given."""
    kentries = [(u, v, w, pos, (u, v, w)) for pos, (u, v, w) in enumerate(triples)]
    adj: list[list[int]] = [[] for _ in range(n)]
    for idx, (u, v, _, _, _) in enumerate(kentries):
        adj[u].append(idx)
        adj[v].append(idx)
    for lst in adj:
        lst.sort(key=lambda i: (-kentries[i][2], kentries[i][3]))
    index = {(u, v): idx for idx, (u, v, _, _, _) in enumerate(kentries)}
    return kentries, adj, [{}, {key: index[key] for key in matched}]


def test_pruned_swap_search_matches_the_unpruned_reference():
    free_ends = cycles = tied_picks = long_limits = 0
    # Vertices whose row holds only their matched edge, so ``top`` is 0,
    # and whose matched edge heads a longer row, so ``top`` is row[1].
    top_zero = top_second = 0
    # Random weights, then one weight everywhere: there many swaps tie at
    # the top gain, so levels of several picks and the signature
    # tie-break are exercised.
    kernels = [
        _swap_kernel(6 + seed % 9, seed, weights)
        for weights, seed in product(((1, 9), (5, 5)), range(27))
    ]
    # A star matched at a leaf, and a path whose matched edges are the
    # heaviest at their ends, with one improving augmenting path of 7 edges.
    kernels.append(
        _fixed_kernel(7, [(0, x, w) for x, w in zip(range(1, 7), (3, 5, 2, 5, 4, 1))], [(0, 2)])
    )
    kernels.append(
        _fixed_kernel(
            8,
            [(0, 1, 8), (1, 2, 9), (2, 3, 8), (3, 4, 9), (4, 5, 8), (5, 6, 9), (6, 7, 8)],
            [(1, 2), (3, 4), (5, 6)],
        )
    )
    for kentries, adj, matchings in kernels:
        n = len(adj)
        rows = [
            [(kentries[i][2], kentries[i][1] if kentries[i][0] == x else kentries[i][0], i)
             for i in adj[x]]
            for x in range(n)
        ]
        # The engine's entries carry no position: an entry's index is its
        # position, as it is here.
        entries = [(u, v, w, t) for u, v, w, _, t in kentries]
        for matched in matchings:
            partner: list[int | None] = [None] * n
            medge = [-1] * n
            for (u, v), idx in matched.items():
                partner[u], partner[v] = v, u
                medge[u] = medge[v] = idx
            for x, row in enumerate(rows):
                if row and row[0][2] == medge[x]:
                    top_zero += len(row) == 1
                    top_second += len(row) > 1
            weight = sum(kentries[idx][2] for idx in matched.values())
            for k in (2, 3, 4):
                # No walk has more than 2 * len(matched) + 1 edges, so here
                # the limit is longer than any walk can use.
                long_limits += 2 * len(matched) + 1 < 2 * k - 1
                # threshold 0, the engine's eps^2 w(M) / 4n at eps = 1/k, and
                # a cut of 3 that prunes harder
                for thr_num, thr_mul in ((0, 1), (weight, k * k * 4 * n), (3, 1)):
                    limits = (2 * k - 1, thr_num, thr_mul)
                    every = _reference_enumerate_swaps(n, kentries, adj, partner, matched, *limits)
                    want = _greedy_pick(every, kentries)
                    got = _pick_swaps(entries, rows, medge, *limits)
                    # the engine names a dropped edge by its entry index
                    assert got == [
                        (gain, sig, adds, tuple(matched[key] for key in drops))
                        for gain, sig, adds, drops in want
                    ], (kentries, sorted(matched), k, thr_num)
                    tied_picks += sum(a[0] == b[0] for a, b in zip(want, want[1:]))
                    for _, _, adds, drops in every:
                        ends = {x for i in adds for x in kentries[i][:2]}
                        dropped = {x for key in drops for x in key}
                        free_ends += len(adds) > len(drops)
                        cycles += bool(drops) and ends == dropped
    assert free_ends and cycles and tied_picks and long_limits
    assert top_zero and top_second


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
