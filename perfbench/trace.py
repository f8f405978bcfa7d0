"""Spans taken from outside the library, for the per-layer split.

``Tracer.installed()`` swaps the library's layer-boundary functions for
wrappers that record a span per call, and puts the originals back on
exit; no file of the library changes.  Spans stay in memory until the
benchmark writes them out.  A span's self time is its duration minus the
durations of its direct children (calls are single-threaded, so children
never overlap).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

STREAM = ("stream.open", "stream.run_pass", "stream.begin_run", "stream.end_run")
ENGINES = ("matching.unweighted", "matching.weighted")
PIPELINES = ("pathcover.two_phase", "tsp.approx_tsp12", "tsp.approx_max_tsp")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans with an injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._instance = -1

    @contextmanager
    def span(self, name: str, instance: int | None = None) -> Iterator[None]:
        if instance is not None:
            self._instance = instance
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._instance))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every layer boundary of the library for the ``with`` body."""
        undo: list[tuple[object, str, object]] = []
        try:
            for owner, attr, name in _boundaries():
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _boundaries() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every call site to wrap.

    A module-level function is wrapped under every name any library
    module binds it to, so ``pathcover`` and ``tsp`` calling their own
    imported copies are traced too.
    """
    from streampath import graph, matching, pathcover, stream, tsp

    methods = [
        (stream.FileEdgeSource, "__init__", "stream.open"),
        (stream.InMemoryEdgeSource, "__init__", "stream.open"),
        (tsp.Tsp12Instance, "cheap_graph", "stream.open"),
        (tsp.MaxTspInstance, "graph", "stream.open"),
        (stream.StreamSession, "run_pass", "stream.run_pass"),
        (stream.StreamSession, "begin_run", "stream.begin_run"),
        (stream.StreamSession, "end_run", "stream.end_run"),
        (graph.Tour, "from_order", "tsp.from_order"),
    ]
    functions = [
        (matching.streaming_max_matching, "matching.unweighted"),
        (matching.streaming_max_weight_matching, "matching.weighted"),
        (pathcover.two_phase_path_cover, "pathcover.two_phase"),
        (graph.validate_path_cover, "graph.validate"),
        (graph.matching_contraction, "graph.contraction"),
        (tsp.hamiltonian_order, "tsp.hamiltonian_order"),
        (tsp.approx_tsp12, "tsp.approx_tsp12"),
        (tsp.approx_max_tsp, "tsp.approx_max_tsp"),
    ]
    out = list(methods)
    for fn, name in functions:
        for mod in (graph, matching, pathcover, stream, tsp):
            for attr, value in vars(mod).items():
                if value is fn:
                    out.append((mod, attr, name))
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_split(spans: list[Span], bare_pass_s: float) -> dict[str, float]:
    """Per-layer seconds and counts of one traced sample.

    ``bare_pass_s`` is the time of one pass that only reads the source;
    each pass's time beyond it is the engine's per-edge visit work.
    """
    own = self_times(spans)

    def total(names: tuple[str, ...], values: list[float]) -> float:
        return sum(v for s, v in zip(spans, values) if s.name in names)

    dur = [s.duration for s in spans]
    passes = [s for s in spans if s.name == "stream.run_pass"]
    engine_passes = [
        s for s in passes if s.parent is not None and spans[s.parent].name in ENGINES
    ]
    pass_s = sum(s.duration for s in passes)
    wall = total(("instance",), dur)
    out = {
        "wall_s": wall,
        "stream.open_s": total(("stream.open",), dur),
        "stream.pass_s": pass_s,
        "stream.read_share": len(passes) * bare_pass_s / pass_s if pass_s else 0.0,
        "stream.self_s": total(STREAM, own),
        "matching.visit_s": sum(s.duration - bare_pass_s for s in engine_passes),
        "matching.offline_s": total(ENGINES, own),
        "matching.offline_s.unweighted": total(("matching.unweighted",), own),
        "matching.offline_s.weighted": total(("matching.weighted",), own),
        "pathcover.self_s": total(("pathcover.two_phase",), own),
        "graph.validate_s": total(("graph.validate",), dur),
        "graph.validate_calls": sum(s.name == "graph.validate" for s in spans),
        "graph.contraction_s": total(("graph.contraction",), dur),
        "tsp.tour_s": total(("tsp.hamiltonian_order", "tsp.from_order"), dur),
        "tsp.self_s": total(("tsp.approx_tsp12", "tsp.approx_max_tsp"), own),
        "pipeline.self_s": total(PIPELINES, own),
        "trace.unattributed_s": total(("instance",), own),
    }
    out["trace.unattributed_share"] = out["trace.unattributed_s"] / wall if wall else 0.0
    return out
