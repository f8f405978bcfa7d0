"""Seeded benchmark for streampath's path cover, (1,2) tour and heavy tour.

Usage, from the repository root (standard library only)::

    python3 perfbench/run.py --workload mpc-file --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run makes the workload's instances from ``--seed``, several times over;
every copy must be the same, and ``setup_s`` is their median time.  It
then solves the instances round-robin until ``--seconds`` have passed,
and every instance at least once.  One solve is one sample, timed from
the first library call to the returned result.  ``wall_s`` is the mean
over instances of each instance's median solve: the median is robust to
a slow solve, and the mean over instances varies less from seed to seed
than their median does.

On a shared host the speed of one core drifts between fast and slow
phases that last from seconds to minutes, and the same solve can take
twice as long in a slow phase.  So the run also times a fixed
pure-Python integer loop after each set-up and each solve, for about
5% of its time and at least once, and gives every timed end-to-end
metric at a reference speed: the measured time multiplied by
``REFERENCE_S`` over the median reference time of the same phase (the
set-ups, or the solves).  ``wall_s`` and ``setup_s`` are thus in seconds
on a host where the reference loop takes ``REFERENCE_S``, and a change
to the program moves them as it moves the measured times; the raw times
and the reference times are printed above the result line.  On a
two-vCPU host, twelve 45-second runs of ``maxtsp-deep`` on twelve seeds
(32 instances each) spread (quartile distance over median) 0.14 by the
raw median of all solves, 0.07 once scaled, 0.27 by the raw lower
quartile and 0.40 by the median of each instance's fastest solve; the
raw median and the reference median of a run correlated at 0.90.
Eleven 40-second windows on one seed spread 0.10 raw and 0.04 scaled by
this loop, against 0.05 scaled by a loop that builds a dict, whose own
time was the noisier.  Per-layer seconds (``--trace 1``) are not scaled.

Each instance's first output is checked without an oracle, and
every later solve of it must reproduce that output byte for byte (same
sha256); an instance that raises or fails either way counts as failed.

Every workload reports the same end-to-end metrics, so output quality is
one higher-is-better ``quality`` summed over the instances: cover edges
on ``mpc-file``, cost-1 tour legs (``2n - tour_cost``) on
``tsp12-memory`` and tour weight on ``maxtsp-*``.  The raw
``cover_edges``, ``tour_cost`` or ``tour_weight`` and ``fail_rate`` are
printed above the result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced solves with solves during which ``trace.Tracer`` wraps the
library's layer boundaries, and reports per-layer metrics; the spans go
to ``.perfbench/trace-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
``--workload all`` runs every workload in its own process, one after
the other.

``BENCHMARK.json`` gates on ``mpc-file`` (the file reader, the unweighted
engine and the two-phase path cover) and ``maxtsp-deep`` (the weighted
engine, its local search and the tour step), each the control for the
other.  ``tsp12-memory`` and ``maxtsp-wide`` are run by hand: on a shared
two-core host, four gated workloads leave room for 20-second runs only,
and their run-to-run spread reached the 25% bound.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
# Nominal seconds of one ``_reference_s`` loop; timed metrics are scaled to it.
REFERENCE_S = 0.006
# After each set-up or solve the reference loop runs for about this share
# of its time, at least once, so long solves get as steady a probe as short.
REFERENCE_SHARE = 0.05

END_TO_END = {
    "wall_s": "s",
    "edges_per_s": "1/s",
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "quality": "score",
}
PER_LAYER = {
    "stream.open_s": "s",
    "stream.bare_pass_s": "s",
    "stream.pass_s": "s",
    "stream.read_share": "ratio",
    "stream.passes": "count",
    "stream.edges_streamed": "count",
    "stream.words_peak": "words",
    "stream.words_budget": "words",
    "matching.visit_s": "s",
    "matching.offline_s": "s",
    "matching.first-matching.passes": "count",
    "matching.first-matching.words_peak": "words",
    "matching.second-matching.passes": "count",
    "matching.second-matching.words_peak": "words",
    "matching.first_size": "count",
    "matching.second_size": "count",
    "graph.validate_s": "s",
    "graph.validate_calls": "count",
    "graph.contraction_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}
# Layer numbers that not every workload exercises (a workload without
# the layer would report a constant 0), so they are printed, not reported.
TRACE_EXTRA = (
    "stream.self_s",
    "matching.offline_s.unweighted",
    "matching.offline_s.weighted",
    "pathcover.self_s",
    "tsp.tour_s",
    "tsp.self_s",
)


class Run:
    """One workload's instances, solves and failures within a run."""

    def __init__(self, workload, inputs: list) -> None:
        self.wl = workload
        self.params = workload.params
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.first_results: list = []
        self.digests: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.append(why)

    def solve(self, i: int, tracer=None) -> float | None:
        """Solve instance ``i`` once; its seconds, or None if it raised.

        Instances must first be solved in order 0, 1, ...: those results
        are kept for the output checks and their digests for comparison.
        """
        from perfbench.workloads import fresh, output_digest

        inp = fresh(self.inputs[i])
        self.attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                res = self.wl.solve(inp, self.params)
            else:
                with tracer.span("instance", instance=i):
                    res = self.wl.solve(inp, self.params)
            elapsed = time.perf_counter() - start
        except Exception:  # a failed solve is a benchmark result, not a crash
            self.fail(f"instance {i} raised:\n" + traceback.format_exc())
            return None
        digest = output_digest(self.wl, res)
        if i == len(self.first_results):
            self.first_results.append(res)
            self.digests.append(digest)
        elif digest != self.digests[i]:
            self.fail(f"instance {i} gave a different output than its first solve")
        return elapsed

    def verify(self) -> None:
        for i, (inp, res) in enumerate(zip(self.inputs, self.first_results)):
            problems = self.wl.verify(inp, res, self.params)
            if problems:
                self.fail(f"instance {i}: " + "; ".join(problems))

    def reports(self) -> list:
        return [_parts(r).report for r in self.first_results]


def _parts(result):
    """The object holding the matchings, the cover and the stream report."""
    return getattr(result, "mpc", result)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _combined(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _reference_s() -> float:
    """Seconds of a fixed integer loop: a probe of the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return time.perf_counter() - start


def _probe(refs: list[float], after_s: float) -> None:
    """Time the reference loop for about ``REFERENCE_SHARE`` of ``after_s``."""
    for _ in range(1 + int(REFERENCE_SHARE * after_s / REFERENCE_S)):
        refs.append(_reference_s())


def _set_up(workload, seed: int, workdir: str, repeats: int) -> tuple[list, float, bool]:
    """Make the inputs ``repeats`` times.

    Returns the inputs, the median set-up time at reference speed, and
    whether every copy agreed.
    """
    from perfbench.workloads import input_digest

    times: list[float] = []
    refs: list[float] = []
    digests: list[list[str]] = []
    inputs: list = []
    for _ in range(repeats):
        inputs = []  # let the previous copy go before building the next
        start = time.perf_counter()
        inputs = workload.inputs(seed, workdir)
        times.append(time.perf_counter() - start)
        _probe(refs, times[-1])
        digests.append([input_digest(x) for x in inputs])
    setup, ref = statistics.median(times), statistics.median(refs)
    print(f"input_digest {_combined(digests[0])}")
    print(f"raw setup_s {setup:.6g} s over {repeats} set-up(s); reference median {ref:.6g} s of {len(refs)}")
    return inputs, setup * REFERENCE_S / ref, all(d == digests[0] for d in digests)


def end_to_end(run: Run, seconds: float, setup_s: float) -> dict:
    count = len(run.inputs)
    samples: list[list[float]] = [[] for _ in range(count)]
    refs: list[float] = []
    start = time.perf_counter()
    step = 0
    while step < count or time.perf_counter() - start < seconds:
        got = run.solve(step % count)
        if got is None:
            return {}
        samples[step % count].append(got)
        _probe(refs, got)
        step += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.verify()
    ref = statistics.median(refs)
    wall = _mean(statistics.median(times) for times in samples)
    every = [t for times in samples for t in times]
    print(f"samples {step} over {count} instance(s); fastest {min(every):.6g} s, slowest {max(every):.6g} s")
    print(f"raw wall_s {wall:.6g} s; reference median {ref:.6g} s of {len(refs)}"
          f" ({min(refs):.6g} to {max(refs):.6g})")
    _print_outputs(run)
    wall *= REFERENCE_S / ref
    return {
        "wall_s": wall,
        "edges_per_s": _mean(r.m for r in run.reports()) / wall,
        "setup_s": setup_s,
        "rss_peak_mb": rss_mb,
        "quality": sum(run.wl.quality(i, r) for i, r in zip(run.inputs, run.first_results)),
    }


def _print_outputs(run: Run) -> None:
    first = run.first_results[0]
    if hasattr(first, "tour"):
        name, unit = ("tour_cost", "cost") if hasattr(first, "mpc") else ("tour_weight", "weight")
        print(f"{name} {sum(r.tour.cost for r in run.first_results)} {unit}")
    print(f"cover_edges {sum(_parts(r).cover.size for r in run.first_results)} count")
    print(f"output_digest {_combined(run.digests)}")


def _bare_pass_s(source) -> float:
    """Seconds of one pass over ``source`` that only reads it."""
    start = time.perf_counter()
    for _edge in source.edges():
        pass
    return time.perf_counter() - start


def per_layer(run: Run, seed: int, seconds: float) -> dict:
    from perfbench.trace import Tracer, layer_split

    count = len(run.inputs)
    sources = [run.wl.source(x) for x in run.inputs]
    for i in range(count):  # untimed warm-up, which also keeps the outputs to check
        if run.solve(i) is None:
            return {}
    plain: list[float] = []
    traced: list[float] = []
    bares: list[float] = []
    splits: list[dict] = []
    dumps: list[list[dict]] = []
    start = time.perf_counter()
    step = 0
    while not traced or time.perf_counter() - start < seconds:
        i = step % count
        # The bare pass is timed next to the solves it is subtracted from,
        # so a host that speeds up or slows down moves both alike.
        bares.append(_bare_pass_s(sources[i]))
        tracer = Tracer()
        for use_tracer in ((False, True) if step % 2 == 0 else (True, False)):
            with tracer.installed() if use_tracer else contextlib.nullcontext():
                got = run.solve(i, tracer if use_tracer else None)
            if got is None:
                return {}
            (traced if use_tracer else plain).append(got)
        splits.append(layer_split(tracer.spans, bares[-1]))
        dumps.append(tracer.dump())
        step += 1
    run.verify()

    def median_of(key: str) -> float:
        return statistics.median(s[key] for s in splits)

    reports = run.reports()
    runs = [{rec.label: rec for rec in rep.runs} for rep in reports]
    metrics = {
        "stream.open_s": median_of("stream.open_s"),
        "stream.bare_pass_s": statistics.median(bares),
        "stream.pass_s": median_of("stream.pass_s"),
        "stream.read_share": median_of("stream.read_share"),
        "stream.passes": _mean(r.passes_used for r in reports),
        "stream.edges_streamed": _mean(r.passes_used * r.m for r in reports),
        "stream.words_peak": _mean(r.words_peak for r in reports),
        "stream.words_budget": _mean(r.words_budget for r in reports),
        "matching.visit_s": median_of("matching.visit_s"),
        "matching.offline_s": median_of("matching.offline_s"),
    }
    for label in ("first-matching", "second-matching"):
        metrics[f"matching.{label}.passes"] = _mean(r[label].passes for r in runs)
        metrics[f"matching.{label}.words_peak"] = _mean(r[label].words_peak for r in runs)
    parts = [_parts(r) for r in run.first_results]
    metrics.update(
        {
            "matching.first_size": _mean(p.first_matching.size for p in parts),
            "matching.second_size": _mean(p.second_matching.size for p in parts),
            "graph.validate_s": median_of("graph.validate_s"),
            "graph.validate_calls": median_of("graph.validate_calls"),
            "graph.contraction_s": median_of("graph.contraction_s"),
            "pipeline.self_s": median_of("pipeline.self_s"),
            "trace.overhead": statistics.median(traced) / statistics.median(plain),
            "trace.unattributed_share": median_of("trace.unattributed_share"),
        }
    )
    extra = {key: median_of(key) for key in TRACE_EXTRA}
    extra["tsp.patch_passes"] = _mean(r["leftover-patch"].passes if "leftover-patch" in r else 0 for r in runs)
    print(f"samples {len(plain)} untraced, {len(traced)} traced over {count} instance(s);"
          f" wall_s {statistics.median(plain):.6g} untraced, {statistics.median(traced):.6g} traced")
    for key, value in extra.items():
        print(f"{key} {value:.6g}")
    _print_outputs(run)
    with open(OUT_DIR / f"trace-{run.wl.name}-seed{seed}.json", "w", encoding="ascii") as fh:
        json.dump({"workload": run.wl.name, "seed": seed, "metrics": {**metrics, **extra},
                   "samples": [{"bare_pass_s": b, "split": s, "spans": d}
                               for b, s, d in zip(bares, splits, dumps)]}, fh)
    return metrics


def _run_all(args) -> int:
    from perfbench.workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        code = code or done.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "streampath" / "__init__.py").is_file():
        print(f"error: no streampath sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)} or all")

    workload = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        inputs, setup_s, same = _set_up(workload, args.seed, workdir, 1 if args.trace else SETUP_REPEATS)
        run = Run(workload, inputs)
        if not same:
            run.fail("the same seed made different inputs")
        metrics = per_layer(run, args.seed, args.seconds) if args.trace else end_to_end(run, args.seconds, setup_s)
    for note in run.notes:
        print(f"FAILED {note}")
    if not metrics:
        print("error: a solve failed, so nothing was measured", file=sys.stderr)
        return 1
    units = {**END_TO_END, **PER_LAYER}
    print(f"fail_rate {run.failed / run.attempted:.6g} ratio ({run.failed} of {run.attempted} solves)")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
