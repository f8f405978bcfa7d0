"""Command line front end.

Subcommands: ``mpc`` (path cover), ``tsp12`` ((1,2)-cost tour), ``maxtsp``
(heavy tour), ``gen`` (instance files), ``verify`` (oracle sweeps).

Exit codes: 0 success, 1 bad input or usage, 2 memory budget exceeded in
strict mode, 3 a guarantee or verification check failed.  Reports printed
with ``--json`` are canonical: keys sorted, no timing fields, so byte
identical across repeated runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial

from .corpus import (
    SWEEPS,
    builtin_fixture,
    fixture_names,
    gen_degree124_graph,
    gen_random_graph,
    gen_random_max_tsp,
    gen_random_tsp12,
    gen_random_weighted_graph,
)
from .matching import ApproxParams
from .pathcover import cover_bound_holds, iterative_path_cover, two_phase_path_cover
from .stream import (
    BudgetExceededError,
    FileEdgeSource,
    StreamReport,
    load_edge_list,
    open_session,
    read_fraction,
    read_word,
    save_edge_list,
)
from .tsp import (
    MaxTspInstance,
    Tsp12Instance,
    approx_max_tsp,
    approx_tsp12,
    max_tsp_bound_holds,
    oracle_max_tsp,
    oracle_path_cover,
    oracle_tsp12,
    tsp12_bound_holds,
)

_OK, _INPUT, _BUDGET, _GUARANTEE = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; code 2 stays reserved for budget overruns."""

    def error(self, message):  # noqa: A002 - argparse API
        self.exit(_INPUT, f"{self.prog}: error: {message}\n")


def _flag(read, text: str):
    """``read(text)`` as an argparse type: the ValueError it raises is a usage error."""
    try:
        return read(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_WORD, _FRACTION = partial(_flag, read_word), partial(_flag, read_fraction)


def _emit(args, report: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _run_flags(sub: argparse.ArgumentParser, iterative_flag: bool = False) -> None:
    sub.add_argument("file", help="edge-list file (see README for the format)")
    sub.add_argument("--epsilon", type=_FRACTION, default="1/3", help="quality knob P/Q in (0,1)")
    sub.add_argument("--budget", type=_WORD, default=None, help="retained-words budget override")
    sub.add_argument("--strict", action="store_true", help="fail fast on budget overrun (exit 2)")
    sub.add_argument("--oracle", action="store_true", help="also solve exactly and check the bound")
    sub.add_argument("--json", action="store_true", help="machine-readable report")
    if iterative_flag:
        sub.add_argument(
            "--iterative",
            action="store_true",
            help="repeat matching rounds until no edge fits (experimental, no ratio guarantee)",
        )


def _finish_run(
    args,
    params: ApproxParams,
    stream: StreamReport,
    report: dict,
    lines: list[str],
    achieved: int,
    check: tuple[str, int, bool | None] | None,
) -> int:
    """Complete and print a run command's report; return its exit code.

    ``report`` and ``lines`` hold what only the command knows.  ``check``
    is None without ``--oracle``; otherwise it is the optimum's report key,
    the optimum, and whether the claimed bound holds against ``achieved``
    (None where no bound is claimed).  A failed bound exits 3.
    """
    report.update({"epsilon": str(params.epsilon), "k": params.k, "stream": stream.as_dict()})
    lines.append(
        f"  stream: {stream.passes_used} passes, peak {stream.words_peak}"
        f" of {stream.words_budget} words"
    )
    holds = None
    if check is not None:
        key, optimum, holds = check
        ratio = None if optimum == 0 else str(Fraction(achieved, optimum))
        report["oracle"] = {key: optimum, "ratio": ratio, "bound_holds": holds}
        line = f"  oracle: {key.replace('_', ' ')} {optimum}, ratio {ratio or 'n/a'}"
        lines.append(line if holds is None else f"{line}, bound {'holds' if holds else 'VIOLATED'}")
    _emit(args, report, lines)
    return _GUARANTEE if holds is False else _OK


def _cmd_mpc(args) -> int:
    params = ApproxParams(args.epsilon)
    src = FileEdgeSource(args.file)
    # The oracle runs first, on the graph read from the open source, so a
    # graph past its limit fails before the streaming run and not after it.
    best = oracle_path_cover(src.graph()).size if args.oracle else None
    sess = open_session(src, k=params.k, words_budget=args.budget, strict=args.strict)
    if args.iterative:
        res = iterative_path_cover(src, params, sess)
        report = {"algorithm": "iterative-path-cover", "rounds": [m.size for m in res.rounds]}
        shape = f"rounds {report['rounds']}"
    else:
        res = two_phase_path_cover(src, params, sess)
        first, second = res.first_matching.size, res.second_matching.size
        report = {
            "algorithm": "two-phase-path-cover",
            "first_matching": first,
            "second_matching": second,
        }
        shape = f"matchings {first} + {second}"
    cover = res.cover
    report.update(
        {
            "input": src.name,
            "n": src.n,
            "m": src.m,
            "cover_size": cover.size,
            "path_lengths": sorted(cover.path_lengths),
            "cover_edges": [[u, v] for u, v in zip(cover.us, cover.vs)],
        }
    )
    lines = [
        f"{report['algorithm']} on {src.name}: n={src.n} m={src.m} epsilon={params.epsilon}",
        f"  cover: {cover.size} edges in {len(cover.paths)} paths, {shape}",
    ]
    check = None
    if best is not None:
        holds = None if args.iterative else cover_bound_holds(cover.size, best, params.epsilon)
        check = ("best_cover", best, holds)
    return _finish_run(args, params, res.report, report, lines, cover.size, check)


def _cmd_tsp12(args) -> int:
    params = ApproxParams(args.epsilon)
    g = load_edge_list(args.file)
    if g.weighted:
        raise ValueError("tsp12 expects an unweighted edge list of the cost-1 pairs")
    inst = Tsp12Instance.from_graph(g)
    opt = oracle_tsp12(inst) if args.oracle else None
    res = approx_tsp12(inst, params, words_budget=args.budget, strict=args.strict)
    name = os.path.basename(args.file)
    cost = res.tour.cost
    report = {
        "algorithm": "tsp12-tour",
        "input": name,
        "n": inst.n,
        "cost1_pairs": inst.m,
        "tour_cost": cost,
        "tour_order": list(res.tour.order),
        "cover_size": res.mpc.cover.size,
    }
    lines = [
        f"tsp12-tour on {name}: n={inst.n}, {inst.m} cost-1 pairs, epsilon={params.epsilon}",
        f"  tour cost {cost} over a {res.mpc.cover.size}-edge cover",
    ]
    check = None
    if opt is not None:
        check = ("optimum", opt, tsp12_bound_holds(cost, opt, inst.n, params.epsilon))
    return _finish_run(args, params, res.report, report, lines, cost, check)


def _cmd_maxtsp(args) -> int:
    params = ApproxParams(args.epsilon)
    g = load_edge_list(args.file)
    if not g.weighted:
        raise ValueError("maxtsp expects a weighted edge list covering every pair once")
    inst = MaxTspInstance(g.n, us=g.us, vs=g.vs, ws=g.ws)
    opt = oracle_max_tsp(inst) if args.oracle else None
    res = approx_max_tsp(inst, params, words_budget=args.budget, strict=args.strict)
    name = os.path.basename(args.file)
    weight = res.tour.cost
    report = {
        "algorithm": "max-tsp-tour",
        "input": name,
        "n": inst.n,
        "m": inst.m,
        "tour_weight": weight,
        "tour_order": list(res.tour.order),
        "cover_weight": res.cover.weight,
        "cover_size": res.cover.size,
    }
    lines = [
        f"max-tsp-tour on {name}: n={inst.n}, epsilon={params.epsilon}",
        f"  tour weight {weight} over a cover of weight {res.cover.weight}",
    ]
    check = None
    if opt is not None:
        check = ("optimum", opt, max_tsp_bound_holds(weight, opt, inst.n, params.epsilon))
    return _finish_run(args, params, res.report, report, lines, weight, check)


def _cmd_gen(args) -> int:
    if args.what == "fixture":
        fx = builtin_fixture(args.name)
        save_edge_list(args.out, fx.graph)
        expected = " ".join(f"{k}={v}" for k, v in sorted(fx.expected.items()))
        print(f"wrote {args.out}: n={fx.graph.n} m={fx.graph.m} ({fx.notes}; {expected})")
        return _OK
    if args.kind == "graph":
        g = gen_random_graph(args.n, args.seed, args.density)
    elif args.kind == "weighted":
        g = gen_random_weighted_graph(args.n, args.seed, args.density, args.max_weight)
    elif args.kind == "degree124":
        g = gen_degree124_graph(args.n, args.seed)
    elif args.kind == "tsp12":
        g = gen_random_tsp12(args.n, args.seed, args.density)
    else:
        g = gen_random_max_tsp(args.n, args.seed, args.max_weight)
    save_edge_list(args.out, g)
    print(f"wrote {args.out}: kind={args.kind} n={g.n} m={g.m} seed={args.seed}")
    return _OK


def _cmd_verify(args) -> int:
    names = list(SWEEPS) if args.suite == "all" else [args.suite]
    if args.trials == 0:
        # zero trials would check nothing and still report every suite passed
        raise ValueError("--trials must be at least 1")
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.seed is not None:
        kwargs["seed"] = args.seed
    suites: dict[str, dict] = {}
    all_ok = True
    lines: list[str] = []
    for name in names:
        outcome = SWEEPS[name](**kwargs)
        suites[name] = {
            "trials": outcome.trials,
            "checks": dict(sorted(outcome.checks.items())),
            "ok": outcome.ok,
        }
        all_ok = all_ok and outcome.ok
        lines.append(f"suite {name}: {outcome.trials} trials")
        for check, failures in sorted(outcome.checks.items()):
            verdict = "ok" if failures == 0 else f"{failures} FAILURES"
            lines.append(f"  {check}: {verdict}")
        for detail in outcome.details:
            lines.append(f"  ! {detail}")
    lines.append("all suites passed" if all_ok else "verification FAILED")
    _emit(args, {"suites": suites, "ok": all_ok}, lines)
    return _OK if all_ok else _GUARANTEE


def _build_parser() -> _Parser:
    parser = _Parser(prog="streampath", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    mpc = subs.add_parser("mpc", help="cover a graph with vertex-disjoint paths")
    _run_flags(mpc, iterative_flag=True)
    mpc.set_defaults(func=_cmd_mpc)

    tsp12 = subs.add_parser("tsp12", help="tour a (1,2)-cost instance")
    _run_flags(tsp12)
    tsp12.set_defaults(func=_cmd_tsp12)

    maxtsp = subs.add_parser("maxtsp", help="heavy tour of a complete weighted instance")
    _run_flags(maxtsp)
    maxtsp.set_defaults(func=_cmd_maxtsp)

    gen = subs.add_parser("gen", help="write instance files")
    gen_subs = gen.add_subparsers(dest="what", required=True)
    fx = gen_subs.add_parser("fixture", help="a named fixture with known expected values")
    fx.add_argument("name", choices=fixture_names())
    fx.add_argument("--out", required=True)
    fx.set_defaults(func=_cmd_gen)
    rnd = gen_subs.add_parser("random", help="a seeded random instance")
    rnd.add_argument("kind", choices=("graph", "weighted", "degree124", "tsp12", "maxtsp"))
    rnd.add_argument("--n", type=_WORD, required=True)
    rnd.add_argument("--density", type=_FRACTION, default="1/2", help="pair probability P/Q")
    rnd.add_argument("--max-weight", type=_WORD, default=20)
    rnd.add_argument("--seed", type=_WORD, default=0)
    rnd.add_argument("--out", required=True)
    rnd.set_defaults(func=_cmd_gen)

    verify = subs.add_parser("verify", help="run oracle sweeps")
    verify.add_argument("--suite", default="all", choices=("all",) + tuple(SWEEPS))
    verify.add_argument("--trials", type=_WORD, default=None, help="override per-suite trial count")
    verify.add_argument("--seed", type=_WORD, default=None, help="override per-suite seed")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"streampath: budget exceeded: {exc}", file=sys.stderr)
        return _BUDGET
    except (ValueError, OSError) as exc:
        # StreamFormatError and OracleLimitError are ValueErrors.
        print(f"streampath: {exc}", file=sys.stderr)
        return _INPUT
    except (OverflowError, MemoryError) as exc:
        # A header can promise far more vertices than the file holds; the
        # per-vertex tables for such an n cannot be allocated.
        print(f"streampath: input too large to process ({type(exc).__name__})", file=sys.stderr)
        return _INPUT


if __name__ == "__main__":
    sys.exit(main())
