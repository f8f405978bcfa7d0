"""Tests for the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

from fractions import Fraction

from streampath import graph, stream, tsp
from streampath.graph import Edge
from streampath.matching import ApproxParams
from streampath.stream import RunRecord, StreamReport

from perfbench import checks
from perfbench.gen import gnm_pairs, simple_gnm_pairs, write_gnm
from perfbench.trace import Span, Tracer, layer_split, self_times
from perfbench.workloads import WORKLOADS, output_digest


def _bytes(tmp_path, name: str, seed: int) -> bytes:
    path = tmp_path / name
    write_gnm(str(path), 50, 400, seed)
    return path.read_bytes()


def test_writer_is_a_function_of_the_seed(tmp_path):
    first = _bytes(tmp_path, "a", 7)
    assert first == _bytes(tmp_path, "b", 7)
    assert first != _bytes(tmp_path, "c", 8)
    lines = first.decode().splitlines()
    assert lines[0] == "50 400" and len(lines) == 401
    src = stream.FileEdgeSource(str(tmp_path / "a"))
    assert (src.n, src.m) == (50, 400)


def test_pairs_are_uniform_edges_and_the_simple_variant_has_no_repeats():
    pairs = list(gnm_pairs(5, 200, 3))
    assert all(u != v and 0 <= u < 5 and 0 <= v < 5 for u, v in pairs)
    assert len({frozenset(p) for p in pairs}) < len(pairs)  # parallel edges occur
    simple = list(simple_gnm_pairs(5, 10, 3))
    assert len({frozenset(p) for p in simple}) == 10
    assert simple == list(simple_gnm_pairs(5, 10, 3))
    assert simple != list(simple_gnm_pairs(5, 10, 4))


def test_cover_check_rejects_a_cycle_and_a_long_path():
    assert checks.check_cover(4, [Edge(0, 1), Edge(2, 3)]) == []
    assert checks.check_cover(3, [Edge(0, 1), Edge(1, 2), Edge(2, 0)])
    assert checks.check_cover(5, [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 4)])


def test_edge_and_maximality_checks_reject_broken_outputs():
    inputs = {(0, 1, 1), (1, 2, 1), (2, 3, 1)}
    assert checks.check_edges_in_input([Edge(1, 0)], inputs) == []
    assert checks.check_edges_in_input([Edge(0, 3)], inputs)
    assert checks.check_edges_in_input([Edge(0, 1, 2)], inputs)
    pairs = [(0, 1), (1, 2), (2, 3)]
    assert checks.check_maximal(4, pairs, [Edge(1, 2)]) == []
    assert checks.check_maximal(4, pairs, [Edge(0, 1)])


def test_tour_check_rejects_a_wrong_cost_and_a_non_permutation():
    unit = lambda u, v: 1  # noqa: E731
    assert checks.check_tour(4, [0, 2, 1, 3], 4, unit) == []
    assert checks.check_tour(4, [0, 2, 1, 3], 5, unit)
    assert checks.check_tour(4, [0, 2, 2, 3], 4, unit)


def _report(passes: int, peak: int = 10, exceeded: bool = False) -> StreamReport:
    return StreamReport("x", 4, 3, passes, 100, peak, exceeded, (RunRecord("first-matching", passes, peak),))


def test_run_check_rejects_a_run_over_the_pass_ceiling_or_budget():
    k = 3
    ceiling = checks.pass_ceiling(k)
    assert ceiling == 16
    assert checks.check_runs(_report(ceiling), k) == []
    assert checks.check_runs(_report(ceiling + 1), k)
    assert checks.check_runs(_report(2, peak=101), k)
    assert checks.check_runs(_report(2, exceeded=True), k)


def test_self_times_on_a_fake_clock():
    ticks = iter([0, 0.5, 1, 1.5, 2, 3, 3.5, 4.5, 5, 6, 7, 8, 8.5, 9, 9.5, 10])
    tracer = Tracer(clock=lambda: next(ticks))
    run_pass = tracer.wrap("stream.run_pass", lambda: None)
    with tracer.span("instance", instance=4):
        with tracer.span("tsp.approx_tsp12"):
            with tracer.span("pathcover.two_phase"):
                with tracer.span("matching.unweighted"):
                    run_pass()
                    run_pass()
                with tracer.span("graph.validate"):
                    pass
            with tracer.span("tsp.hamiltonian_order"):
                pass
    spans = tracer.spans
    assert [s.name for s in spans][:5] == [
        "instance", "tsp.approx_tsp12", "pathcover.two_phase", "matching.unweighted", "stream.run_pass"
    ]
    assert {s.instance for s in spans} == {4}
    assert self_times(spans) == [1, 1.5, 2.5, 1.5, 1, 1, 1, 0.5]
    got = layer_split(spans, bare_pass_s=0.25)
    assert got["wall_s"] == 10
    assert got["stream.pass_s"] == 2
    assert got["stream.read_share"] == 0.25
    assert got["matching.visit_s"] == 1.5
    assert got["matching.offline_s"] == got["matching.offline_s.unweighted"] == 1.5
    assert got["pathcover.self_s"] == 2.5
    assert got["tsp.self_s"] == 1.5
    assert got["tsp.tour_s"] == 0.5
    assert got["graph.validate_s"] == 1 and got["graph.validate_calls"] == 1
    assert got["trace.unattributed_share"] == 0.1


def test_tracing_leaves_outputs_alone_and_restores_the_library():
    inst = tsp.Tsp12Instance(12, tuple(Edge(u, v) for u, v in simple_gnm_pairs(12, 20, 5)))
    params = ApproxParams(Fraction(1, 3))
    wl = WORKLOADS["tsp12-memory"]
    before = (graph.validate_path_cover, stream.StreamSession.run_pass, graph.Tour.__dict__["from_order"])
    plain = tsp.approx_tsp12(inst, params, strict=True)
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("instance", instance=0):
            traced = tsp.approx_tsp12(tsp.Tsp12Instance(inst.n, inst.edges), params, strict=True)
    assert before == (graph.validate_path_cover, stream.StreamSession.run_pass, graph.Tour.__dict__["from_order"])
    assert output_digest(wl, plain) == output_digest(wl, traced)
    assert wl.verify(inst, traced, params) == []
    names = [s.name for s in tracer.spans]
    assert names.count("stream.run_pass") == plain.report.passes_used
    assert names.count("graph.validate") == 2
    assert {"matching.unweighted", "pathcover.two_phase", "tsp.from_order", "stream.open"} <= set(names)
    assert isinstance(tracer.spans[0], Span) and tracer.spans[0].parent is None
