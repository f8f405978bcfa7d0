"""Command line behaviors: reports, exit codes, file generation."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from streampath import cli
from streampath.cli import main
from streampath.graph import Graph
from streampath.stream import load_edge_list


def _fixture_file(tmp_path, name="tight-two-thirds"):
    out = str(tmp_path / "fx.txt")
    assert main(["gen", "fixture", name, "--out", out]) == 0
    return out


def test_mpc_human_report(tmp_path, capsys):
    path = _fixture_file(tmp_path)
    assert main(["mpc", path, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "cover: 4 edges" in out
    assert "ratio 2/3" in out
    assert "bound holds" in out


def test_mpc_json_report_is_deterministic(tmp_path, capsys):
    path = _fixture_file(tmp_path)
    capsys.readouterr()  # drop the gen line
    assert main(["mpc", path, "--json", "--oracle"]) == 0
    first = capsys.readouterr().out
    assert main(["mpc", path, "--json", "--oracle"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["algorithm"] == "two-phase-path-cover"
    assert data["cover_size"] == 4
    assert data["oracle"] == {"best_cover": 6, "bound_holds": True, "ratio": "2/3"}
    assert data["stream"]["passes_used"] == 2
    assert data["k"] == 3


def test_readme_example_transcript_is_current(tmp_path, capsys, monkeypatch):
    # The README's example block is a transcript: "$ streampath ..." lines,
    # each followed by what the command prints.  Replay it and compare.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```$", readme, flags=re.S | re.M)
    (block,) = [b for b in blocks if b.startswith("$ streampath gen fixture tight-two-thirds")]
    monkeypatch.chdir(tmp_path)
    replay = []
    for line in block.splitlines():
        if line.startswith("$ streampath "):
            assert main(shlex.split(line)[2:]) == 0, line
            replay.append(line)
            replay.extend(capsys.readouterr().out.splitlines())
    assert replay == block.splitlines()


def test_mpc_oracle_opens_the_file_once(tmp_path, capsys, monkeypatch):
    path = _fixture_file(tmp_path)
    opened = []
    init = cli.FileEdgeSource.__init__

    def counting_init(self, file):
        opened.append(file)
        init(self, file)

    monkeypatch.setattr(cli.FileEdgeSource, "__init__", counting_init)
    assert main(["mpc", path, "--oracle"]) == 0
    assert "bound holds" in capsys.readouterr().out
    assert opened == [path]


def test_mpc_iterative_flag(tmp_path, capsys):
    path = _fixture_file(tmp_path, "iterative-three-quarters")
    capsys.readouterr()  # drop the gen line
    assert main(["mpc", path, "--iterative", "--json", "--oracle"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["algorithm"] == "iterative-path-cover"
    assert data["rounds"] == [2, 1]
    assert data["cover_size"] == 3
    assert data["oracle"]["ratio"] == "3/4"
    assert data["oracle"]["bound_holds"] is None  # experimental: no claimed ratio


def test_missing_file_exits_one(capsys):
    assert main(["mpc", "/nonexistent/g.txt"]) == 1
    assert "streampath:" in capsys.readouterr().err


def _exit_code(argv) -> int:
    """``main``'s exit code, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_bad_epsilon_exits_one(tmp_path, capsys):
    path = _fixture_file(tmp_path)
    assert main(["mpc", path, "--epsilon", "5/3"]) == 1
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_tiny_epsilon_fails_before_opening_the_file(tmp_path, capsys, monkeypatch, json_flag):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    opened = []
    monkeypatch.setattr(cli.FileEdgeSource, "__init__", lambda self, file: opened.append(file))
    # an exponent form is not a fraction P/Q, so argparse refuses it
    with pytest.raises(SystemExit) as exited:
        main(["mpc", str(path), "--epsilon", "1e-5000", *json_flag])
    assert exited.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"streampath mpc: error: argument --epsilon: {_NOT_FRACTION}\n"
    assert opened == []


def test_malformed_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    assert main(["mpc", str(bad)]) == 1
    assert "self-loop" in capsys.readouterr().err


_EDGE_DIGITS = "edge fields must be plain decimal digits"


@pytest.mark.parametrize(
    "text,where",
    [
        ("12 2\n0 1_0\n+1 2\n", f"2: {_EDGE_DIGITS}"),
        ("12 2\n0 1\n+1 2\n", f"3: {_EDGE_DIGITS}"),
        ("3 1 weighted\n0 1 -2\n", f"2: {_EDGE_DIGITS}"),
        ("1_0 +1\n0 1\n", "1: vertex and edge counts must be ints"),
    ],
    ids=["underscore", "plus", "minus", "header"],
)
def test_edge_fields_that_int_would_accept_exit_one(tmp_path, capsys, text, where):
    # int() reads "1_0" as 10 and "+1" as 1; a file allows digits only
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["mpc", str(bad)]) == 1
    captured = capsys.readouterr()
    assert f"bad.txt:{where}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["mpc", "tsp12"])
def test_hostile_header_exits_one(tmp_path, capsys, command):
    # n is past a word, so the header is refused before any table is sized
    huge = tmp_path / "huge.txt"
    huge.write_text("10000000000000000000 1\n0 1\n")
    assert main([command, str(huge)]) == 1
    assert capsys.readouterr().err == (
        f"streampath: {huge}:1: vertex and edge counts must be below 2^63\n"
    )


def test_memory_error_exits_one(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    path = _fixture_file(tmp_path)
    monkeypatch.setattr("streampath.cli.two_phase_path_cover", exhausted)
    assert main(["mpc", path]) == 1
    assert "too large" in capsys.readouterr().err


def test_no_spill_file_exits_one(tmp_path, capsys, monkeypatch):
    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    path = _fixture_file(tmp_path)
    capsys.readouterr()  # drop the gen line
    monkeypatch.setattr("tempfile.TemporaryFile", no_space)
    assert main(["mpc", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"streampath: {path}: cannot make the spill its passes read: "
        "[Errno 28] No space left on device\n"
    )


def test_file_rewritten_between_passes_exits_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.txt"
    path.write_text("6 3\n0 1\n2 3\n4 5\n")
    passes = []
    blocks = cli.FileEdgeSource.blocks

    def rewrite_before_the_second_pass(self):
        passes.append(len(passes) + 1)
        if len(passes) == 2:
            path.write_text("6 3\n1 2\n3 4\n0 5\n")
        return blocks(self)

    monkeypatch.setattr(cli.FileEdgeSource, "blocks", rewrite_before_the_second_pass)
    assert main(["mpc", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"streampath: {path}:2: file changed since it was opened\n"
    assert passes == [1, 2]


def test_mpc_oracle_past_its_limit_fails_before_building_an_edge(tmp_path, capsys, monkeypatch):
    # 23 distinct pairs, each listed many times: the oracle counts pairs
    # from the columns and refuses before any Edge of the graph is built
    pairs = [(i, i + 1) for i in range(23)] * 50
    path = tmp_path / "g.txt"
    path.write_text(f"24 {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs))

    def never(*args, **kwargs):
        raise AssertionError("the graph's edges were built")

    monkeypatch.setattr(Graph, "edges", property(never))
    monkeypatch.setattr("streampath.cli.two_phase_path_cover", never)
    assert main(["mpc", str(path), "--oracle"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "streampath: exact path cover handles <= 22 distinct edges, got 23\n"


def test_strict_budget_exits_two(tmp_path, capsys):
    path = _fixture_file(tmp_path)
    assert main(["mpc", path, "--budget", "10", "--strict"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_one_hostile_weight_inflates_no_default_budget(tmp_path, capsys):
    # a weight is one word, so every default budget is 64 * n * k = 64 * 3 * 3
    # with the widest weight a word holds, and one past it is refused
    path = tmp_path / "heavy.txt"
    argvs = (["mpc"], ["mpc", "--iterative"], ["maxtsp"], ["maxtsp", "--strict"])
    path.write_text(f"3 3 weighted\n0 1 {2**63 - 1}\n0 2 7\n1 2 7\n")
    for argv in argvs:
        assert main([*argv, str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stream"]["words_budget"] == 576
    path.write_text(f"3 3 weighted\n0 1 {2**63}\n0 2 7\n1 2 7\n")
    for argv in argvs:
        assert main([*argv, str(path), "--json"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"streampath: {path}:2: edge fields must be below 2^63\n"


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["mpc"])  # missing the file argument
    assert err.value.code == 1


# Text that is not a fraction P/Q is a usage error; a fraction out of [0, 1]
# is the generator's to refuse.
@pytest.mark.parametrize(
    "kind, density, fragment",
    [("graph", "1/0", "argument --density"), ("weighted", "1/0", "argument --density"),
     ("maxtsp", "1/0", "argument --density"), ("graph", "half", "argument --density"),
     ("weighted", "3", "density must be in [0, 1]"), ("weighted", "-1/2", "argument --density")],
    ids=["graph-1/0", "weighted-1/0", "maxtsp-1/0", "graph-half", "weighted-3", "weighted--1/2"],
)
def test_gen_random_bad_density_exits_one(tmp_path, capsys, kind, density, fragment):
    out = tmp_path / "g.txt"
    argv = ["gen", "random", kind, "--n", "5", f"--density={density}", "--out", str(out)]
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["weighted", "maxtsp"])
@pytest.mark.parametrize(
    "max_weight, fragment",
    [("0", "max_weight must be at least 1"), ("-3", "argument --max-weight")],
    ids=["0", "-3"],
)
def test_gen_random_bad_max_weight_exits_one(tmp_path, capsys, kind, max_weight, fragment):
    out = tmp_path / "g.txt"
    argv = ["gen", "random", kind, "--n", "5", f"--max-weight={max_weight}", "--out", str(out)]
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert not out.exists()


_NOT_DIGITS = "must be ints, non-negative, in plain decimal digits"
_NOT_WORD = "must be below 2^63"
_NOT_FRACTION = "must be P or P/Q: plain decimal digits below 2^63, Q >= 1"
_NINES = "9" * 5000
_WIDEST = str(2**63 - 1)

# Text that int() or Fraction() reads but a file field may not hold.
_NOT_INTS = [
    *[(text, _NOT_DIGITS) for text in ["1_2", "+7", " 7", "\u0663", "-1", "x"]],
    *[(text, _NOT_WORD) for text in [str(2**63), _NINES]],
]
_NOT_FRACTIONS = [
    (text, _NOT_FRACTION)
    for text in ["1_0/33", "0.25", "1e-3", "1/0", f"1/{_NINES}", f"1/{2**63}", "1/2/3", "/2"]
]

# Each flag that takes a number: its subcommand, an argv with "{}" for the
# value, the text it refuses, and a widest value that runs (None for --n
# and --trials, whose widest value would run for ever).
_NUMBER_FLAGS = {
    "--n": ("gen random", "gen random graph --n {} --out {out}", _NOT_INTS, None),
    "--max-weight": ("gen random", "gen random weighted --n 4 --max-weight {} --out {out}",
                     _NOT_INTS, _WIDEST),
    "--seed": ("gen random", "gen random graph --n 4 --seed {} --out {out}", _NOT_INTS, _WIDEST),
    "--budget": ("mpc", "mpc {file} --budget {} --strict", _NOT_INTS, _WIDEST),
    "--trials": ("verify", "verify --suite degree-census --trials {}", _NOT_INTS, None),
    "verify --seed": ("verify", "verify --suite degree-census --trials 1 --seed {}",
                      _NOT_INTS, _WIDEST),
    "--epsilon": ("mpc", "mpc {file} --epsilon {}", _NOT_FRACTIONS, f"1/{_WIDEST}"),
    "--density": ("gen random", "gen random graph --n 4 --density {} --out {out}",
                  _NOT_FRACTIONS, f"{_WIDEST}/{_WIDEST}"),
}


@pytest.mark.parametrize("flag", list(_NUMBER_FLAGS))
def test_number_flags_read_like_file_fields(
    tmp_path, capsys, monkeypatch, each_digit_limit, flag
):
    # a flag takes what a file field takes, on every Python and either
    # int-digit limit, and a refusal comes before any file is opened or written
    command, template, refused, widest = _NUMBER_FLAGS[flag]
    p4, out = tmp_path / "p4.txt", tmp_path / "out.txt"
    p4.write_text("4 3\n0 1\n1 2\n2 3\n")

    def argv(text):
        fill = {"{}": text, "{out}": str(out), "{file}": str(p4)}
        return [fill.get(arg, arg) for arg in template.split()]

    opened = []
    monkeypatch.setattr(cli.FileEdgeSource, "__init__", lambda self, file: opened.append(file))
    for text, why in refused:

        def refusal():
            with pytest.raises(SystemExit) as exited:
                main(argv(text))
            return exited.value.code, *capsys.readouterr()

        message = f"streampath {command}: error: argument {flag.split()[-1]}: {why}\n"
        assert each_digit_limit(refusal) == [(1, "", message)] * 2, text
    assert opened == [] and not out.exists()
    if widest is not None:
        monkeypatch.undo()
        assert main(argv(widest)) == 0


def test_gen_random_then_tsp12(tmp_path, capsys):
    out = str(tmp_path / "t.txt")
    assert main(["gen", "random", "tsp12", "--n", "7", "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    assert main(["tsp12", out, "--oracle", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["algorithm"] == "tsp12-tour"
    assert sorted(data["tour_order"]) == list(range(7))
    assert data["oracle"]["bound_holds"] is True


def test_gen_random_then_maxtsp(tmp_path, capsys):
    out = str(tmp_path / "m.txt")
    assert main(["gen", "random", "maxtsp", "--n", "6", "--seed", "9", "--out", out]) == 0
    capsys.readouterr()
    assert main(["maxtsp", out, "--epsilon", "1/4", "--oracle", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["algorithm"] == "max-tsp-tour"
    assert data["oracle"]["bound_holds"] is True
    assert data["cover_weight"] <= data["tour_weight"]


def test_tsp12_and_maxtsp_human_oracle_lines(tmp_path, capsys):
    t = str(tmp_path / "t.txt")
    m = str(tmp_path / "m.txt")
    assert main(["gen", "random", "tsp12", "--n", "7", "--seed", "3", "--out", t]) == 0
    assert main(["gen", "random", "maxtsp", "--n", "6", "--seed", "9", "--out", m]) == 0
    capsys.readouterr()
    assert main(["tsp12", t, "--oracle"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "  oracle: optimum 8, ratio 1, bound holds"
    assert main(["maxtsp", m, "--epsilon", "1/4", "--oracle"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "  oracle: optimum 87, ratio 25/29, bound holds"


def test_oracle_on_an_edgeless_graph_has_no_ratio(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("5 0\n")
    assert main(["mpc", str(empty), "--oracle"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "  oracle: best cover 0, ratio n/a, bound holds"
    assert main(["mpc", str(empty), "--oracle", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["oracle"] == {"best_cover": 0, "bound_holds": True, "ratio": None}


@pytest.mark.parametrize(
    "command, kind, solver",
    [("tsp12", "tsp12", "approx_tsp12"), ("maxtsp", "maxtsp", "approx_max_tsp")],
)
def test_oracle_past_its_limit_fails_before_the_streaming_run(
    tmp_path, capsys, monkeypatch, command, kind, solver
):
    out = str(tmp_path / "big.txt")
    assert main(["gen", "random", kind, "--n", "16", "--seed", "1", "--out", out]) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("the streaming run started before the oracle")

    monkeypatch.setattr(f"streampath.cli.{solver}", never)
    assert main([command, out, "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exact tours handle n <= 15, got 16" in captured.err


def _unreachable_oracles(monkeypatch):
    """Oracles reporting optima no run can meet, so every claimed bound fails."""
    monkeypatch.setattr("streampath.cli.oracle_path_cover", lambda g: SimpleNamespace(size=100))
    monkeypatch.setattr("streampath.cli.oracle_tsp12", lambda inst: 1)
    monkeypatch.setattr("streampath.cli.oracle_max_tsp", lambda inst: 10**6)


@pytest.mark.parametrize(
    "command, kind",
    [("mpc", "graph"), ("tsp12", "tsp12"), ("maxtsp", "maxtsp")],
)
def test_failed_bound_exits_three(tmp_path, capsys, monkeypatch, command, kind):
    out = str(tmp_path / "g.txt")
    assert main(["gen", "random", kind, "--n", "6", "--seed", "2", "--out", out]) == 0
    capsys.readouterr()
    _unreachable_oracles(monkeypatch)
    assert main([command, out, "--oracle", "--json"]) == 3
    assert '"bound_holds": false' in capsys.readouterr().out
    assert main([command, out, "--oracle"]) == 3
    assert capsys.readouterr().out.rstrip().endswith("bound VIOLATED")


def test_iterative_claims_no_bound_to_fail(tmp_path, capsys, monkeypatch):
    path = _fixture_file(tmp_path)
    capsys.readouterr()
    _unreachable_oracles(monkeypatch)
    assert main(["mpc", path, "--iterative", "--oracle", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["oracle"] == {"best_cover": 100, "bound_holds": None, "ratio": "1/20"}


def test_tsp12_rejects_weighted_input(tmp_path, capsys):
    out = str(tmp_path / "w.txt")
    assert main(["gen", "random", "weighted", "--n", "5", "--seed", "1", "--out", out]) == 0
    capsys.readouterr()
    assert main(["tsp12", out]) == 1
    assert "unweighted" in capsys.readouterr().err


def test_maxtsp_rejects_incomplete_input(tmp_path, capsys):
    out = tmp_path / "inc.txt"
    out.write_text("4 2 weighted\n0 1 3\n2 3 4\n")
    assert main(["maxtsp", str(out)]) == 1
    err = capsys.readouterr().err.lower()
    assert "pair" in err


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "structure-matching", "--trials", "40"]) == 0
    out = capsys.readouterr().out
    assert "suite structure-matching: 40 trials" in out
    assert "all suites passed" in out


def test_verify_json_shape(capsys):
    assert main(["verify", "--suite", "degree-census", "--trials", "25", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["suites"]["degree-census"]["trials"] == 25
    assert data["suites"]["degree-census"]["checks"]["degrees"] == 0


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_fewer_than_one_trial(capsys, trials):
    # zero trials would check nothing and still report every suite passed;
    # "-1" is no word, so argparse refuses it, and the command refuses 0
    assert _exit_code(["verify", "--suite", "two-phase", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "--trials" in captured.err and "passed" not in captured.out


def _degrees_in_124(tmp_path):
    g = load_edge_list(str(tmp_path / "out.txt"))
    assert g.m > 0 and set(g.degrees()) <= {1, 2, 4}


def _nothing_written(tmp_path):
    assert not (tmp_path / "out.txt").exists()


def _readable(tmp_path):
    # a file gen writes is one the reader takes
    assert load_edge_list(str(tmp_path / "out.txt")).m == 6


@pytest.mark.parametrize(
    "command, code, fragment, sweep_calls, then",
    [
        ("maxtsp {graph}", 1, "maxtsp expects a weighted edge list", [], None),
        ("gen random degree124 --n 12 --seed 3 --out {out}",
         0, "kind=degree124 n=12", [], _degrees_in_124),
        ("verify --suite two-phase --trials 3 --seed 9",
         0, "suite two-phase: 3 trials", [{"trials": 3, "seed": 9}], None),
        ("verify --trials x", 1, f"argument --trials: {_NOT_DIGITS}", [], None),
        (f"gen random weighted --n 4 --max-weight {2**63} --out {{out}}",
         1, f"argument --max-weight: {_NOT_WORD}", [], _nothing_written),
        (f"gen random maxtsp --n 4 --max-weight {2**63 - 1} --out {{out}}",
         0, "kind=maxtsp n=4", [], _readable),
    ],
    ids=["maxtsp-unweighted", "gen-degree124", "verify-seed", "verify-trials-x",
         "max-weight-2^63", "max-weight-2^63-1"],
)
def test_cli_paths(tmp_path, capsys, monkeypatch, command, code, fragment, sweep_calls, then):
    graph = str(tmp_path / "g.txt")
    assert main(["gen", "random", "graph", "--n", "6", "--seed", "1", "--out", graph]) == 0
    capsys.readouterr()
    calls = []
    real = cli.SWEEPS["two-phase"]

    def recorded(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setitem(cli.SWEEPS, "two-phase", recorded)
    argv = command.format(graph=graph, out=tmp_path / "out.txt").split()
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        got = exc.code
    assert got == code
    captured = capsys.readouterr()
    assert fragment in (captured.out if code == 0 else captured.err)
    assert "Traceback" not in captured.err
    assert calls == sweep_calls
    if then is not None:
        then(tmp_path)
