"""The benchmark's workloads: seeded inputs, the timed call, and checks.

Every workload calls the same public entry points as the CLI commands
``mpc``, ``tsp12`` and ``maxtsp``.  A workload's input is a list of
instances made from the seed, which the runner solves round-robin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from streampath import pathcover, stream, tsp
from streampath.corpus import gen_random_max_tsp
from streampath.graph import Edge
from streampath.matching import ApproxParams
from streampath.prng import SplitMix64

from . import checks
from .gen import simple_gnm_pairs, write_gnm


@dataclass(frozen=True)
class Workload:
    name: str
    epsilon: Fraction
    count: int
    make: Callable[[int, str], Any]
    solve: Callable[[Any, ApproxParams], Any]
    source: Callable[[Any], stream.EdgeStreamSource]
    verify: Callable[[Any, Any, ApproxParams], list[str]]
    canonical: Callable[[Any], dict]
    quality: Callable[[Any, Any], int]

    @property
    def params(self) -> ApproxParams:
        return ApproxParams(self.epsilon)

    def inputs(self, seed: int, workdir: str) -> list:
        """The workload's instances, each made from its own sub-seed."""
        rng = SplitMix64(seed)
        return [self.make(rng.next_u64(), os.path.join(workdir, f"{self.name}-{i}.edges"))
                for i in range(self.count)]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def input_digest(inp) -> str:
    """sha256 of an instance: the file's bytes, or its edge list."""
    if isinstance(inp, str):
        with open(inp, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    return _digest([inp.n, [[e.u, e.v, e.weight] for e in inp.edges]])


def output_digest(workload: Workload, result) -> str:
    return _digest(workload.canonical(result))


def _pairs_and_triples(edges: list[tuple[int, int, int]]) -> tuple[list[tuple[int, int]], set[tuple[int, int, int]]]:
    pairs = [(u, v) for u, v, _ in edges]
    return pairs, {(min(u, v), max(u, v), w) for u, v, w in edges}


def _file_edges(path: str) -> tuple[int, list[tuple[int, int, int]]]:
    """The file's n and edges, parsed here rather than by the library."""
    with open(path, "r", encoding="ascii") as fh:
        n = int(fh.readline().split()[0])
        return n, [(int(a), int(b), 1) for a, b in (line.split() for line in fh)]


def _cover_checks(n, cover_edges, first, triples, pairs, report, k) -> list[str]:
    """Checks shared by every workload; ``pairs`` None skips maximality."""
    out = checks.check_cover(n, cover_edges)
    out += checks.check_edges_in_input(cover_edges, triples)
    if pairs is not None:
        out += checks.check_maximal(n, pairs, first.edges)
    return out + checks.check_runs(report, k)


# --- mpc-file: the path cover read from an edge file --------------------------


def _mpc_make(seed: int, path: str) -> str:
    write_gnm(path, 20_000, 100_000, seed)
    return path


def _mpc_solve(path: str, params: ApproxParams) -> pathcover.MpcResult:
    src = stream.FileEdgeSource(path)
    sess = stream.open_session(src, k=params.k, strict=True)
    return pathcover.two_phase_path_cover(src, params, sess)


def _mpc_verify(path: str, res: pathcover.MpcResult, params: ApproxParams) -> list[str]:
    n, edges = _file_edges(path)
    pairs, triples = _pairs_and_triples(edges)
    return _cover_checks(n, res.cover.edges, res.first_matching, triples, pairs, res.report, params.k)


def _mpc_canonical(res: pathcover.MpcResult) -> dict:
    return {
        "cover": [[e.u, e.v] for e in res.cover.edges],
        "first": res.first_matching.size,
        "second": res.second_matching.size,
        "stream": res.report.as_dict(),
    }


# --- tsp12-memory: the (1,2) tour of an in-memory instance --------------------


def _tsp12_make(seed: int, _path: str) -> tsp.Tsp12Instance:
    n = 40_000
    return tsp.Tsp12Instance(n, tuple(Edge(u, v) for u, v in simple_gnm_pairs(n, 120_000, seed)))


def _tsp12_solve(inst: tsp.Tsp12Instance, params: ApproxParams) -> tsp.Tsp12Result:
    return tsp.approx_tsp12(inst, params, strict=True)


def _tsp12_verify(inst: tsp.Tsp12Instance, res: tsp.Tsp12Result, params: ApproxParams) -> list[str]:
    pairs, triples = _pairs_and_triples([(e.u, e.v, 1) for e in inst.edges])
    cheap = {(u, v) for u, v, _ in triples}
    mpc = res.mpc
    out = _cover_checks(inst.n, mpc.cover.edges, mpc.first_matching, triples, pairs, mpc.report, params.k)
    out += checks.check_tour(
        inst.n, res.tour.order, res.tour.cost, lambda u, v: 1 if (min(u, v), max(u, v)) in cheap else 2
    )
    if res.tour.cost > 2 * inst.n - mpc.cover.size:
        out.append(f"tour cost {res.tour.cost} over 2n - cover = {2 * inst.n - mpc.cover.size}")
    return out


def _tsp12_canonical(res: tsp.Tsp12Result) -> dict:
    return {"tour": list(res.tour.order), "cost": res.tour.cost, **_mpc_canonical(res.mpc)}


# --- maxtsp-*: the heavy tour of a complete weighted graph --------------------


def _maxtsp_maker(n: int) -> Callable[[int, str], tsp.MaxTspInstance]:
    def make(seed: int, _path: str) -> tsp.MaxTspInstance:
        return gen_random_max_tsp(n, seed, 20)

    return make


def _maxtsp_solve(inst: tsp.MaxTspInstance, params: ApproxParams) -> tsp.MaxTspResult:
    return tsp.approx_max_tsp(inst, params, strict=True)


def _maxtsp_verify(inst: tsp.MaxTspInstance, res: tsp.MaxTspResult, params: ApproxParams) -> list[str]:
    # The weighted engine is maximal only within its kernel, so maximality
    # over the whole input is not a property to check here.
    weight = {e.pair: e.weight for e in inst.edges}
    triples = {(*pair, w) for pair, w in weight.items()}
    out = _cover_checks(inst.n, res.cover.edges, res.first_matching, triples, None, res.report, params.k)
    out += checks.check_tour(
        inst.n, res.tour.order, res.tour.cost, lambda u, v: weight[(min(u, v), max(u, v))]
    )
    if res.tour.cost < res.cover.weight:
        out.append(f"tour weight {res.tour.cost} under cover weight {res.cover.weight}")
    return out


def _maxtsp_canonical(res: tsp.MaxTspResult) -> dict:
    return {
        "tour": list(res.tour.order),
        "weight": res.tour.cost,
        "cover": [[e.u, e.v, e.weight] for e in res.cover.edges],
        "first": res.first_matching.size,
        "second": res.second_matching.size,
        "stream": res.report.as_dict(),
    }


def _memory_source(inst) -> stream.EdgeStreamSource:
    graph = inst.cheap_graph() if isinstance(inst, tsp.Tsp12Instance) else inst.graph()
    return stream.InMemoryEdgeSource(graph)


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mpc-file",
            epsilon=Fraction(1, 3),
            count=1,
            make=_mpc_make,
            solve=_mpc_solve,
            source=stream.FileEdgeSource,
            verify=_mpc_verify,
            canonical=_mpc_canonical,
            quality=lambda _path, res: res.cover.size,
        ),
        Workload(
            name="tsp12-memory",
            epsilon=Fraction(1, 4),
            count=1,
            make=_tsp12_make,
            solve=_tsp12_solve,
            source=_memory_source,
            verify=_tsp12_verify,
            canonical=_tsp12_canonical,
            quality=lambda inst, res: 2 * inst.n - res.tour.cost,
        ),
        Workload(
            name="maxtsp-deep",
            epsilon=Fraction(1, 3),
            count=48,
            make=_maxtsp_maker(60),
            solve=_maxtsp_solve,
            source=_memory_source,
            verify=_maxtsp_verify,
            canonical=_maxtsp_canonical,
            quality=lambda _inst, res: res.tour.cost,
        ),
        Workload(
            name="maxtsp-wide",
            epsilon=Fraction(1, 2),
            count=1,
            make=_maxtsp_maker(400),
            solve=_maxtsp_solve,
            source=_memory_source,
            verify=_maxtsp_verify,
            canonical=_maxtsp_canonical,
            quality=lambda _inst, res: res.tour.cost,
        ),
    )
}


def fresh(inp):
    """A copy of an in-memory instance without the caches a solve fills.

    The library caches pair lookups on the instance object; a user who
    loads an instance pays for filling them, so every timed solve gets an
    object that has not been solved before.  Files need no copy.
    """
    return inp if isinstance(inp, str) else dataclasses.replace(inp)
