"""Edge-list files and the pass/word accounting session."""

from __future__ import annotations

import os
import sys
import tracemalloc
from itertools import count

import pytest

from streampath import stream
from streampath.corpus import gen_random_weighted_graph
from streampath.graph import Edge, Graph
from streampath.matching import ApproxParams
from streampath.pathcover import two_phase_path_cover
from streampath.prng import SplitMix64
from streampath.stream import (
    BudgetExceededError,
    EdgeStreamSource,
    FileEdgeSource,
    InMemoryEdgeSource,
    StreamFormatError,
    StreamSession,
    default_words_budget,
    load_edge_list,
    open_session,
    save_edge_list,
)


def _write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _collect(seen):
    """A block visitor that appends each edge as (position, u, v, w)."""

    def visit(pos0, us, vs, ws):
        seen.extend(zip(count(pos0), us, vs, ws))

    return visit


# --- file format --------------------------------------------------------------


def test_round_trip_unweighted(tmp_path):
    g = Graph.from_pairs(5, [(0, 1), (3, 4), (1, 2)])
    path = str(tmp_path / "out.txt")
    save_edge_list(path, g)
    back = load_edge_list(path)
    assert back.n == 5 and not back.weighted
    assert [e.pair for e in back.edges] == [e.pair for e in g.edges]


def test_round_trip_weighted(tmp_path):
    g = Graph.from_pairs(3, [(0, 1, 7), (1, 2, 3)], weighted=True)
    path = str(tmp_path / "w.txt")
    save_edge_list(path, g)
    back = load_edge_list(path)
    assert back.weighted
    assert [(e.u, e.v, e.weight) for e in back.edges] == [(0, 1, 7), (1, 2, 3)]


def test_file_source_streams_in_file_order(tmp_path):
    path = _write(tmp_path, "3 2\n2 0\n0 1\n")
    src = FileEdgeSource(path)
    assert (src.n, src.m, src.weighted) == (3, 2, False)
    assert [(u, v) for u, v, _ in src.edges()] == [(2, 0), (0, 1)]
    # a second call replays the same order
    assert [(u, v) for u, v, _ in src.edges()] == [(2, 0), (0, 1)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty file"),
        ("3\n", "header"),
        ("3 two\n", "must be ints"),
        ("3 1 heavy\n", "header"),
        ("3 2\n0 1\n", "promises 2 edges"),
        ("3 1\n0 1\n1 2\n", "promises 1 edges"),
        ("3 1\n0 0\n", "self-loop"),
        ("3 1\n0 3\n", "out of range"),
        ("3 1\n0 1 4\n", "expected 2 fields"),
        ("3 1 weighted\n0 1\n", "expected 3 fields"),
        ("3 1 weighted\n0 1 0\n", "weight"),
        ("3 1\n\n0 1\n", "blank"),
        ("-1 0\n", "non-negative"),
        ("1_0 +1\n0 1\n", "plain decimal digits"),
        ("3 +1\n0 1\n", "plain decimal digits"),
        ("3 1\n0 1\u00e9\n", "non-ASCII"),
        ("3 1\n0 +1\n", "plain decimal digits"),
        ("3 1\n0 -1\n", "plain decimal digits"),
        ("12 1\n0 1_0\n", "plain decimal digits"),
        ("3 1\u00a0\n0 1\n", "non-ASCII"),
    ],
)
def test_malformed_files_are_rejected_with_location(tmp_path, text, fragment):
    path = _write(tmp_path, text)
    with pytest.raises(StreamFormatError) as err:
        FileEdgeSource(path)
    assert fragment in str(err.value)
    assert path.split("/")[-1] in str(err.value)
    with pytest.raises(StreamFormatError) as loaded:
        load_edge_list(path)
    assert str(loaded.value) == str(err.value)


_LONG = "7" * 5000
_WIDE = "must be below 2^63"


# Each field past a word: 5,000 digits, which int() refuses by default, and
# 2^63, which it reads.
@pytest.mark.parametrize(
    "text,where",
    [
        (f"{_LONG} 1\n0 1\n", f"1: vertex and edge counts {_WIDE}"),
        (f"{2**63} 1\n0 1\n", f"1: vertex and edge counts {_WIDE}"),
        (f"3 1\n{_LONG} 1\n", f"2: edge fields {_WIDE}"),
        (f"3 1\n1 {2**63}\n", f"2: edge fields {_WIDE}"),
        (f"3 2 weighted\n0 1 4\n1 2 {_LONG}\n", f"3: edge fields {_WIDE}"),
        (f"3 2 weighted\n0 1 4\n1 2 {2**63}\n", f"3: edge fields {_WIDE}"),
    ],
    ids=["header", "header-2^63", "endpoint", "endpoint-2^63", "weight", "weight-2^63"],
)
def test_fields_past_the_int_digit_limit_are_too_long(tmp_path, text, where):
    # past a word, whether or not int() reads the field: one rule, one message
    path = _write(tmp_path, text)
    limit = sys.get_int_max_str_digits()
    got = []
    for digits in (limit, 0):
        sys.set_int_max_str_digits(digits)
        try:
            for read in (FileEdgeSource, load_edge_list):
                with pytest.raises(StreamFormatError) as err:
                    read(path)
                got.append(str(err.value))
        finally:
            sys.set_int_max_str_digits(limit)
    assert got == [f"{path}:{where}"] * 4


def test_zero_padding_past_int_digits_is_still_a_small_field(tmp_path):
    # a field is its value, so leading zeros never make it wide
    pad = "0" * 5000
    path = _write(tmp_path, f"{pad}3 {pad}2 weighted\n{pad}0 1 {pad}9\n2 {pad}1 {2**63 - 1}\n")
    limit = sys.get_int_max_str_digits()
    for digits in (limit, 0):
        sys.set_int_max_str_digits(digits)
        try:
            src = FileEdgeSource(path)
            assert (src.n, src.m, list(src.edges())) == (3, 2, [(0, 1, 9), (2, 1, 2**63 - 1)])
        finally:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "rewrite",
    [f"3 2 weighted\n0 1 4\n{_LONG} 2 5\n", f"3 2 weighted\n0 1 4\n1 2 {_LONG}\n"],
    ids=["endpoint", "weight"],
)
def test_field_rewritten_past_the_int_digit_limit_fails_the_pass(tmp_path, rewrite):
    path = _write(tmp_path, "3 2 weighted\n0 1 4\n1 2 5\n")
    src = FileEdgeSource(path)
    _write(tmp_path, rewrite)
    with pytest.raises(StreamFormatError) as err:
        list(src.edges())
    assert str(err.value) == f"{path}:3: file changed since it was opened: edge fields {_WIDE}"


def test_open_does_not_retain_edges(tmp_path):
    # validation happens up front, but the source re-reads lazily:
    # rewriting the file between passes changes what edges() yields.
    path = _write(tmp_path, "3 1\n0 1\n")
    src = FileEdgeSource(path)
    _write(tmp_path, "3 1\n1 2\n")
    assert [(u, v) for u, v, _ in src.edges()] == [(1, 2)]


def test_crlf_file_streams_like_its_lf_twin(tmp_path):
    lf = "4 3 weighted\n2 0 5\n0 1 1\n3 1 7\n"
    a = FileEdgeSource(_write(tmp_path, lf, "lf.txt"))
    b = FileEdgeSource(_write(tmp_path, lf.replace("\n", "\r\n"), "crlf.txt"))
    assert (b.n, b.m, b.weighted) == (a.n, a.m, a.weighted)
    assert list(b.edges()) == list(a.edges()) == [(2, 0, 5), (0, 1, 1), (3, 1, 7)]


class _HeaderAndPasses(EdgeStreamSource):
    """A source that defines only its header and its passes, in blocks of 7."""

    def __init__(self, g: Graph) -> None:
        self.name, self.n, self.m, self.weighted = "memory", g.n, g.m, g.weighted
        self._triples = [(e.u, e.v, e.weight) for e in g.edges]

    def blocks(self):
        for i in range(0, self.m, 7):
            yield tuple(map(list, zip(*self._triples[i : i + 7])))


def test_a_source_needs_only_its_header_and_its_passes():
    g = gen_random_weighted_graph(30, 3, max_weight=1000)
    params = ApproxParams.parse("1/3")
    got = []
    for src in (_HeaderAndPasses(g), InMemoryEdgeSource(g)):
        res = two_phase_path_cover(src, params, open_session(src, k=params.k), weighted=True)
        got.append(([(e.u, e.v, e.weight) for e in res.cover.edges], res.report.as_dict()))
    assert got[0] == got[1]
    assert got[0][0] and got[0][1]["words_budget"] == 64 * 30 * 3


def test_an_in_memory_source_streams_the_graphs_own_columns():
    # the source and each pass hold a few objects whatever m is: the
    # blocks are read-only windows of the graph's arrays, not copies
    g = gen_random_weighted_graph(300, 2, max_weight=1000)
    assert g.m > 2 * stream._SLICE_EDGES
    tracemalloc.start()
    try:
        src = InMemoryEdgeSource(g)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for us, _, _ in src.blocks():
            assert us.readonly and us.obj is g.us
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert held < 1024 and peak < 4096, (held, peak)
    assert list(src.edges()) == [(e.u, e.v, e.weight) for e in g.edges]


_ORIGINAL = "4 3\n0 1\n1 2\n2 3\n"


@pytest.mark.parametrize(
    "rewrite,fragment",
    [
        ("4 3\n0 1\n1 2\n", "header promises 3 edges, file has 2"),
        ("4 3\n0 1\n1 2\n2", "expected 2 fields on an edge line, got 1"),
        ("4 3\n0 1\n1 2\n2 3\n0 2\n", "header promises 3 edges, file has more"),
        ("4 3\n0 1\n1 9\n2 3\n", "out of range"),
        ("4 3\n0 1\n2 2\n2 3\n", "self-loop"),
        ("4 3\n0 1\n1 x\n2 3\n", "edge fields must be plain decimal digits"),
        ("4 3\n0 1\n1 \u00e9\n2 3\n", "non-ASCII byte in edge line"),
        ("4 3\n0 1\n1 0_2\n2 3\n", "edge fields must be plain decimal digits"),
        ("4 3\n0 1\n+1 2\n2 3\n", "edge fields must be plain decimal digits"),
        ("4 3\n0 1 2\n1\n2 3\n", "expected 2 fields on an edge line, got 3"),
        ("4 3\n0 1 2\n\n3 0 1\n", "expected 2 fields on an edge line, got 3"),
    ],
    ids=["truncated", "cut-mid-line", "appended", "out-of-range", "self-loop",
         "non-integer", "non-ascii", "underscore", "plus", "shifted-fields",
         "blank-line"],
)
def test_file_changed_after_open_fails_with_format_error(tmp_path, rewrite, fragment):
    path = _write(tmp_path, _ORIGINAL)
    src = FileEdgeSource(path)
    _write(tmp_path, rewrite)
    seen = []
    sess = open_session(src, k=2)
    with pytest.raises(StreamFormatError, match="changed since it was opened") as err:
        sess.run_pass(_collect(seen))
    assert fragment in str(err.value)
    # the file is one block, so only a clean cut lets any edge through
    assert all(0 <= u < 4 and 0 <= v < 4 and u != v and w == 1 for _, u, v, w in seen)
    assert seen == ([(0, 0, 1, 1), (1, 1, 2, 1)] if "file has 2" in fragment else [])
    with pytest.raises(StreamFormatError, match="changed since it was opened"):
        two_phase_path_cover(src, ApproxParams.parse("1/3"), open_session(src, k=3))
    # the pass fails with the line and message that open names, counts included
    with pytest.raises(StreamFormatError) as at_open:
        FileEdgeSource(path)
    where, why = str(at_open.value).split(": ", 1)
    assert str(err.value) == f"{where}: file changed since it was opened: {why}"


def test_weight_rewritten_below_one_fails(tmp_path):
    path = _write(tmp_path, "3 2 weighted\n0 1 4\n1 2 5\n")
    src = FileEdgeSource(path)
    _write(tmp_path, "3 2 weighted\n0 1 4\n1 2 0\n")
    with pytest.raises(StreamFormatError, match="weight must be >= 1, got 0"):
        list(src.edges())


def test_weighted_fields_shifted_across_lines_fail(tmp_path):
    path = _write(tmp_path, "4 2 weighted\n0 1 5\n2 3 7\n")
    src = FileEdgeSource(path)
    # the same six tokens, moved across the line break
    _write(tmp_path, "4 2 weighted\n0 1 5 2\n3 7\n")
    seen = []
    with pytest.raises(StreamFormatError) as err:
        open_session(src, k=2).run_pass(_collect(seen))
    assert str(err.value) == (
        f"{path}:2: file changed since it was opened: expected 3 fields on an edge line, got 4"
    )
    assert seen == []


def _multi_block_file(tmp_path, weighted):
    """A seeded edge file of several read blocks, and its triples parsed here."""
    rng = SplitMix64(7 if weighted else 8)
    n, m = 30_000, 20_000
    triples = []
    while len(triples) < m:
        u, v = rng.below(n), rng.below(n)
        if u != v:
            triples.append((u, v, rng.randint(1, 999) if weighted else 1))
    g = Graph.from_pairs(n, triples, weighted)
    path = str(tmp_path / ("w.txt" if weighted else "u.txt"))
    save_edge_list(path, g)
    assert os.path.getsize(path) >= 3 * stream._BLOCK_BYTES
    with open(path) as fh:
        fh.readline()
        parsed = [tuple(map(int, line.split())) for line in fh]
    want = parsed if weighted else [(u, v, 1) for u, v in parsed]
    return path, g, want


@pytest.mark.parametrize("weighted", [False, True])
def test_multi_block_pass_yields_exactly_the_file(tmp_path, weighted):
    path, g, want = _multi_block_file(tmp_path, weighted)
    src = FileEdgeSource(path)
    assert (src.n, src.m, src.weighted) == (g.n, g.m, weighted)
    assert list(src.edges()) == want


@pytest.mark.parametrize("weighted", [False, True])
def test_load_edge_list_parses_each_block_once(tmp_path, weighted, monkeypatch):
    path, g, want = _multi_block_file(tmp_path, weighted)
    blocks = len(list(FileEdgeSource(path).blocks()))
    assert blocks > 1
    parsed = []
    parse = stream._parse_block

    def counted(block, n, weighted):
        parsed.append(len(block))
        return parse(block, n, weighted)

    monkeypatch.setattr(stream, "_parse_block", counted)
    back = load_edge_list(path)
    assert len(parsed) == blocks and sum(parsed) == g.m
    assert (back.n, back.weighted) == (g.n, weighted)
    assert [(e.u, e.v, e.weight) for e in back.edges] == want


@pytest.mark.parametrize("weighted", [False, True])
def test_blocks_are_the_stream_in_contiguous_columns(tmp_path, weighted):
    path, g, want = _multi_block_file(tmp_path, weighted)
    assert g.m > stream._SLICE_EDGES
    for src in (FileEdgeSource(path), InMemoryEdgeSource(g)):
        blocks = list(src.blocks())
        assert len(blocks) > 1
        assert all(len(us) == len(vs) == len(ws) > 0 for us, vs, ws in blocks)
        assert [t for block in blocks for t in zip(*block)] == list(src.edges()) == want
        starts = []
        sess = open_session(src, k=2)
        sess.run_pass(lambda pos0, us, vs, ws: starts.append((pos0, len(us))))
        ends = [pos0 + c for pos0, c in starts]
        assert [pos0 for pos0, _ in starts] == [0] + ends[:-1]
        assert ends[-1] == src.m
        assert [c for _, c in starts] == [len(us) for us, _, _ in blocks]


def test_bad_line_in_a_later_block_is_named_at_open_and_in_a_pass(tmp_path):
    path, g, want = _multi_block_file(tmp_path, False)
    src = FileEdgeSource(path)
    with open(path) as fh:
        lines = fh.readlines()
    x = want[15_000][0]
    lines[15_001] = f"{x} {x}\n"  # edge 15000 is on line 15002
    with open(path, "w") as fh:
        fh.writelines(lines)
    for read in (FileEdgeSource, load_edge_list):
        with pytest.raises(StreamFormatError) as at_open:
            read(path)
        assert str(at_open.value) == f"{path}:15002: self-loop at vertex {x}"
    seen = []
    with pytest.raises(StreamFormatError) as err:
        open_session(src, k=2).run_pass(_collect(seen))
    assert str(err.value) == (
        f"{path}:15002: file changed since it was opened: self-loop at vertex {x}"
    )
    # the blocks before the bad one streamed as they were
    assert 0 < len(seen) <= 15_000
    assert [(u, v, w) for _, u, v, w in seen] == want[: len(seen)]


def test_strict_overrun_fires_inside_the_pass_that_crosses_the_budget(tmp_path, monkeypatch):
    from streampath import matching

    def offline(*args):
        raise AssertionError("the offline phase ran after an overrun")

    monkeypatch.setattr(matching, "_augment_on_kernel", offline)
    path, g, _ = _multi_block_file(tmp_path, False)
    params = ApproxParams.parse("1/3")
    # The partner table costs n words up front; the kernel and the greedy
    # matching then grow by 3 words per kept edge and cross this budget
    # about two thirds of the way through the first pass.
    budget = g.n + 3 * g.m
    for src in (FileEdgeSource(path), InMemoryEdgeSource(g)):
        blocks = list(src.blocks())
        visited = []

        def replay():
            for block in blocks:
                visited.append(block)
                yield block

        monkeypatch.setattr(src, "blocks", replay)
        sess = open_session(src, words_budget=budget, strict=True)
        with pytest.raises(BudgetExceededError) as err:
            two_phase_path_cover(src, params, sess)
        assert any(entry.name == "run_pass" for entry in err.traceback)
        assert sess.passes_used == 1
        assert 1 < len(visited) < len(blocks)
        assert sess.words_in_use > budget


@pytest.mark.parametrize("weighted", [False, True])
def test_path_cover_from_file_matches_memory(tmp_path, weighted):
    path, g, _ = _multi_block_file(tmp_path, weighted)
    params = ApproxParams.parse("1/3")
    results = []
    for src in (FileEdgeSource(path), InMemoryEdgeSource(g)):
        res = two_phase_path_cover(src, params, open_session(src, k=params.k, strict=True))
        report = res.report.as_dict()
        del report["source"]
        results.append((res.cover.edges, res.first_matching, res.second_matching, report))
    assert results[0] == results[1]
    assert results[0][0]


# --- the spill: passes replay the columns open checked ---------------------------


def _count_parses(monkeypatch):
    """A list that gets the line count of each ``_parse_block`` call from now on."""
    parsed = []
    parse = stream._parse_block

    def counted(block, n, weighted):
        parsed.append(len(block))
        return parse(block, n, weighted)

    monkeypatch.setattr(stream, "_parse_block", counted)
    return parsed


@pytest.mark.parametrize("weighted", [False, True])
def test_open_parses_each_block_once_and_a_pass_parses_none(tmp_path, weighted, monkeypatch):
    path, g, want = _multi_block_file(tmp_path, weighted)
    parsed = _count_parses(monkeypatch)
    src = FileEdgeSource(path)
    blocks = len(parsed)
    assert blocks > 1 and sum(parsed) == g.m
    del parsed[:]
    assert list(src.edges()) == want
    assert list(src.edges()) == want
    assert parsed == []


@pytest.mark.parametrize("weighted", [False, True])
def test_a_rewritten_block_alone_is_parsed_again(tmp_path, weighted, monkeypatch):
    path, g, want = _multi_block_file(tmp_path, weighted)
    src = FileEdgeSource(path)
    sizes = [len(us) for us, _, _ in src.blocks()]
    assert len(sizes) >= 3
    middle = len(sizes) // 2
    edge = sum(sizes[:middle]) + sizes[middle] // 2
    with open(path) as fh:
        lines = fh.readlines()
    # swapping the ends keeps the line valid and its length, so the block cuts stay put
    u, v, *w = lines[edge + 1].split()
    lines[edge + 1] = " ".join([v, u, *w]) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    parsed = _count_parses(monkeypatch)
    got = list(src.edges())
    assert parsed == [sizes[middle]]
    assert got[edge] == (want[edge][1], want[edge][0], want[edge][2])
    assert got[:edge] + got[edge + 1 :] == want[:edge] + want[edge + 1 :]
    assert got == list(FileEdgeSource(path).edges())


@pytest.mark.parametrize("weighted", [False, True])
def test_interleaved_passes_yield_equal_blocks(tmp_path, weighted):
    path, g, want = _multi_block_file(tmp_path, weighted)
    src = FileEdgeSource(path)
    pairs = list(zip(src.blocks(), src.blocks()))
    assert len(pairs) > 1
    assert all(list(map(list, a)) == list(map(list, b)) for a, b in pairs)
    assert [t for a, _ in pairs for t in zip(*a)] == want


def test_open_holds_a_few_words_per_block_and_none_per_edge(tmp_path):
    path, g, _ = _multi_block_file(tmp_path, True)
    with open(path) as fh:
        header, *lines = fh.readlines()
    longer = _write(tmp_path, f"{g.n} {4 * g.m} weighted\n" + "".join(lines * 4), "x4.txt")
    held = []
    for p in (path, longer):
        FileEdgeSource(p)  # warm-up, so lazily made module state is not counted
        tracemalloc.start()
        try:
            src = FileEdgeSource(p)
            held.append((tracemalloc.get_traced_memory()[0], len(src._crcs)))
        finally:
            tracemalloc.stop()
    (small, blocks), (large, more_blocks) = held
    assert more_blocks > blocks > 1
    # 3 * g.m more edges would cost 3 * g.m bytes at one byte each
    assert large - small < 48 * (more_blocks - blocks) < 3 * g.m, held
    assert small < 64 * blocks + 8192, held


def test_a_solve_leaves_the_temporary_directory_empty(tmp_path, monkeypatch):
    import tempfile

    path, g, _ = _multi_block_file(tmp_path, False)
    spill_dir = tmp_path / "tmp"
    spill_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    src = FileEdgeSource(path)
    params = ApproxParams.parse("1/3")
    res = two_phase_path_cover(src, params, open_session(src, k=params.k))
    assert res.cover.edges and os.listdir(spill_dir) == []
    del src
    assert os.listdir(spill_dir) == []


def test_dropping_a_source_emits_no_resource_warning(tmp_path):
    import gc
    import warnings

    path, g, want = _multi_block_file(tmp_path, False)
    bad = _write(tmp_path, "3 2\n0 1\n1 1\n", "bad.txt")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        src = FileEdgeSource(path)
        next(src.blocks())  # a pass dropped part way
        assert list(src.edges()) == want
        del src
        with pytest.raises(StreamFormatError):
            FileEdgeSource(bad)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# --- budgets -------------------------------------------------------------------


def test_default_budget_unweighted():
    assert default_words_budget(10, 3) == 64 * 10 * 3


def test_open_session_needs_k_or_budget():
    src = InMemoryEdgeSource(Graph.from_pairs(3, [(0, 1)]))
    with pytest.raises(ValueError):
        open_session(src)
    sess = open_session(src, k=2)
    assert sess.words_budget == 64 * 3 * 2


# --- session accounting ----------------------------------------------------------


def _session(budget=100, strict=False):
    src = InMemoryEdgeSource(Graph.from_pairs(4, [(0, 1), (2, 3), (1, 2)]))
    return StreamSession(src, words_budget=budget, strict=strict)


def test_charge_release_tracks_peak():
    sess = _session()
    sess.charge(30)
    sess.charge(20)
    sess.release(40)
    sess.charge(5)
    rep = sess.report()
    assert rep.words_peak == 50
    assert sess.words_in_use == 15
    assert not rep.budget_exceeded


def test_release_more_than_held_is_an_error():
    sess = _session()
    sess.charge(3)
    with pytest.raises(ValueError):
        sess.release(4)
    with pytest.raises(ValueError):
        sess.charge(-1)


def test_overrun_is_recorded_when_not_strict():
    sess = _session(budget=10)
    sess.charge(11)
    assert sess.report().budget_exceeded


def test_overrun_raises_in_strict_mode():
    sess = _session(budget=10, strict=True)
    with pytest.raises(BudgetExceededError):
        sess.charge(11)


def test_run_pass_counts_and_streams_positions():
    sess = _session()
    seen = []
    sess.run_pass(_collect(seen))
    sess.run_pass(lambda pos0, us, vs, ws: None)
    assert sess.passes_used == 2
    assert [(pos, Edge(u, v, w).pair) for pos, u, v, w in seen] == [
        (0, (0, 1)), (1, (2, 3)), (2, (1, 2))
    ]


def test_runs_attribute_passes_and_peaks():
    sess = _session()
    sess.begin_run("alpha")
    sess.run_pass(lambda pos, u, v, w: None)
    sess.charge(40)
    sess.release(40)
    sess.end_run()
    sess.begin_run("beta")
    sess.charge(7)
    sess.release(7)
    rec = sess.end_run()
    assert rec.label == "beta" and rec.words_peak == 7 and rec.passes == 0
    rep = sess.report()
    assert [r.label for r in rep.runs] == ["alpha", "beta"]
    assert rep.runs[0].passes == 1
    assert rep.runs[0].words_peak == 40


@pytest.mark.parametrize(
    "change,held",
    [(lambda sess: sess.charge(5), "+5"), (lambda sess: sess.release(4), "-4")],
    ids=["more", "fewer"],
)
def test_run_that_ends_unbalanced_raises_with_its_label(change, held):
    sess = _session()
    sess.charge(10)  # carried into the run by its caller
    sess.begin_run("gamma")
    change(sess)
    with pytest.raises(RuntimeError) as err:
        sess.end_run()
    assert str(err.value) == f"run 'gamma' ends with its word ledger at {held}"
    assert sess.report().runs == ()


def test_runs_do_not_nest():
    sess = _session()
    sess.begin_run("outer")
    with pytest.raises(RuntimeError):
        sess.begin_run("inner")
    sess.end_run()
    with pytest.raises(RuntimeError):
        sess.end_run()


def test_report_dict_shape():
    sess = _session(budget=55)
    sess.charge(5)
    d = sess.report().as_dict()
    assert d["words_budget"] == 55
    assert d["words_peak"] == 5
    assert d["passes_used"] == 0
    assert d["runs"] == []
    assert set(d) == {
        "source",
        "n",
        "m",
        "passes_used",
        "words_budget",
        "words_peak",
        "budget_exceeded",
        "runs",
    }


def test_budget_must_be_positive():
    src = InMemoryEdgeSource(Graph.from_pairs(2, [(0, 1)]))
    with pytest.raises(ValueError):
        StreamSession(src, words_budget=0)
