"""Run the benchmark over many seeds and summarise each metric's spread.

Usage, from the repository root::

    python3 perfbench/baseline.py --seeds 1-10 [--workloads mpc-file,...] [--write]

Each (workload, seed) is one ``run.py --trace 0`` process, run one at a
time.  For every end-to-end metric it prints the median over seeds and
the quartile spread ``(q3 - q1) / median`` as ``statistics.quantiles``
gives them, flagging spreads above a third of the bound in
``BENCHMARK.json``.  ``--write`` also makes one traced run per workload
(the first seed) and records in ``perfbench/baseline.json`` the
environment, each workload's medians, spreads and per-layer numbers, and
which end-to-end metric each layer metric is expected to move; workloads
not measured this time keep their earlier entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"

# Which end-to-end metric a change in each layer metric should move, on
# which workloads.  Written down before measuring; see baseline.json.
LAYER_MAP = {
    "stream.open_s": {"moves": "wall_s", "on": ["mpc-file"]},
    "stream.bare_pass_s": {"moves": "wall_s", "on": ["mpc-file"]},
    "stream.pass_s": {"moves": "wall_s", "on": ["mpc-file", "maxtsp-wide"]},
    "stream.read_share": {"moves": "wall_s", "on": ["mpc-file"]},
    "matching.visit_s": {"moves": "wall_s", "on": ["tsp12-memory", "maxtsp-wide"]},
    "matching.offline_s": {"moves": "wall_s", "on": ["maxtsp-deep", "tsp12-memory"]},
    "matching.offline_s.weighted": {"moves": "wall_s", "on": ["maxtsp-deep"]},
    "matching.offline_s.unweighted": {"moves": "wall_s", "on": ["tsp12-memory", "mpc-file"]},
    "pathcover.self_s": {"moves": "wall_s", "on": ["mpc-file", "tsp12-memory"]},
    "graph.validate_s": {"moves": "wall_s", "on": ["tsp12-memory"]},
    "graph.validate_calls": {"moves": "wall_s", "on": ["tsp12-memory"]},
    "graph.contraction_s": {"moves": "wall_s", "on": ["tsp12-memory"]},
    "tsp.tour_s": {"moves": "wall_s", "on": ["tsp12-memory", "maxtsp-wide"]},
    "stream.words_peak": {"moves": "rss_peak_mb", "on": ["mpc-file", "tsp12-memory"]},
    "matching.first_size": {"moves": "quality", "on": ["mpc-file", "tsp12-memory"]},
    "matching.second_size": {"moves": "quality", "on": ["mpc-file", "tsp12-memory"]},
}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported failures:\n{done.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    summary: dict[str, dict] = {}
    for name in names:
        runs = [run_once(name, seed, bench["run_seconds"], 0) for seed in seeds]
        summary[name] = {"end_to_end": {}}
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            sp = spread(values)
            flag = "  over a third of the bound" if sp > bounds[metric] / 3 else ""
            print(f"{name:14} {metric:12} median {statistics.median(values):<12.6g}"
                  f" spread {sp:.4f} (bound {bounds[metric]}){flag}"
                  f"  values {' '.join(f'{v:.4g}' for v in values)}", flush=True)
            summary[name]["end_to_end"][metric] = {
                "median": statistics.median(values), "spread": sp, "values": values,
            }
        if args.write:
            run_once(name, seeds[0], bench["run_seconds"], 1)
            trace = json.loads((ROOT / ".perfbench" / f"trace-{name}-seed{seeds[0]}.json").read_text())
            summary[name]["per_layer_seed"] = seeds[0]
            summary[name]["per_layer"] = trace["metrics"]
    if args.write:
        path = ROOT / "perfbench" / "baseline.json"
        out = json.loads(path.read_text()) if path.exists() else {"results": {}}
        out["environment"] = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        }
        out["layer_map"] = LAYER_MAP
        for name, result in summary.items():
            out["results"][name] = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, **result}
        path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
