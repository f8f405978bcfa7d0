"""Byte-identity corpus: one digest per CLI run over a fixed set of seeded files.

Each case calls ``streampath.cli.main`` in-process, inside a fresh
temporary working directory and with relative file names, so no absolute
path reaches an output.  For each run the corpus keeps the exit code and
the sha256 of stdout and of stderr; ``golden.json`` next to this file is
the committed record and ``test_golden.py`` checks the code against it.

Check the code against the record, printing each moved case::

    PYTHONPATH=src python tests/golden.py

After a change that is meant to move outputs, rewrite the record and list
the moved cases with the change::

    PYTHONPATH=src python tests/golden.py --write
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from streampath.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden.json")

# Edge lists that each break one edge-line rule, on one line only.
_BAD_EDGE_LINE = {
    "blank-line.txt": "4 3\n0 1\n\n2 3\n",
    "three-fields.txt": "4 2\n0 1\n1 2 3\n",
    "weighted-two-fields.txt": "4 2 weighted\n0 1 5\n1 2\n",
    "non-ascii.txt": "4 2\n0 1\n1 2\u00e9\n",
    "out-of-range.txt": "4 2\n0 1\n1 4\n",
    "weight-zero.txt": "4 2 weighted\n0 1 5\n1 2 0\n",
    "plus-sign.txt": "4 2\n0 1\n+1 2\n",
    "underscore.txt": "12 2\n0 1\n1 1_0\n",
    "trailing-letter.txt": "4 2\n0 1\n0 1x\n",
    "endpoint-too-long.txt": "4 2\n0 1\n1 " + "2" * 5000 + "\n",
    "weight-too-long.txt": "4 2 weighted\n0 1 5\n1 2 " + "7" * 5000 + "\n",
}

# Tour inputs that each break one tour-instance rule, or lean on the
# (1,2) reader's dedup of repeated pairs.
_BAD_TOUR = {
    "maxtsp-incomplete.txt": "4 3 weighted\n0 1 5\n0 2 6\n0 3 7\n",
    "maxtsp-repeated.txt": "3 3 weighted\n0 1 5\n1 0 6\n1 2 7\n",
    "tsp12-two.txt": "2 1\n0 1\n",
    "tsp12-repeated.txt": "5 5\n0 1\n1 0\n2 3\n0 1\n3 4\n",
}

# Files the generators cannot produce: hostile or malformed input.
_WRITTEN = {
    "header-underscore.txt": "1_0 +1\n0 1\n",
    "header-too-long.txt": "1" * 5000 + " 1\n0 1\n",
    "header-2-63.txt": f"{2**63} 1\n0 1\n",
    "header-2-63-minus-1.txt": f"{2**63 - 1} 1\n0 1\n",
    "weight-2-63.txt": f"3 3 weighted\n0 1 {2**63}\n0 2 7\n1 2 7\n",
    "weight-2-63-minus-1.txt": f"3 3 weighted\n0 1 {2**63 - 1}\n0 2 7\n1 2 7\n",
    "self-loop.txt": "2 1\n0 0\n",
    "p4.txt": "4 3\n0 1\n1 2\n2 3\n",
    "empty.txt": "5 0\n",
    "empty3.txt": "3 0\n",
    **_BAD_TOUR,
    **_BAD_EDGE_LINE,
}

_GEN = [
    "gen fixture tight-two-thirds --out tight.txt",
    "gen fixture iterative-three-quarters --out iter.txt",
    "gen random graph --n 12 --seed 1 --out g12.txt",
    "gen random graph --n 10 --density 1/3 --seed 2 --out g10.txt",
    "gen random graph --n 60 --density 1/10 --seed 3 --out g60.txt",
    "gen random weighted --n 10 --seed 4 --out w10.txt",
    "gen random weighted --n 40 --density 1/5 --max-weight 1000 --seed 5 --out w40.txt",
    "gen random degree124 --n 12 --seed 6 --out d12.txt",
    "gen random tsp12 --n 9 --seed 7 --out t9.txt",
    "gen random tsp12 --n 40 --density 1/4 --seed 8 --out t40.txt",
    "gen random maxtsp --n 8 --seed 9 --out x8.txt",
    "gen random maxtsp --n 30 --max-weight 1000 --seed 10 --out x30.txt",
    f"gen random weighted --n 4 --max-weight {2**63} --seed 12 --out w-2-63.txt",
    # Flags whose text int() or Fraction() reads but a file field may not hold.
    "gen random graph --n 1_2 --seed 1 --out g-underscore.txt",
    "gen random graph --n \u0663 --seed 1 --out g-arabic-digit.txt",
    f"gen random graph --n 12 --seed {2**64 + 5} --out g-seed-2-64-plus-5.txt",
    "gen random graph --n 12 --density 1_0/30 --seed 1 --out g-density-underscore.txt",
]

_EPSILONS = ("1/3", "1/2", "1/5")


def cases() -> list[str]:
    """Every run of the corpus, in order; the gen runs write the files."""
    runs = list(_GEN)
    for name in ("tight", "iter", "g12", "g10", "g60", "w10", "w40", "d12"):
        for eps in _EPSILONS:
            runs.append(f"mpc {name}.txt --epsilon {eps}")
            runs.append(f"mpc {name}.txt --epsilon {eps} --json")
            runs.append(f"mpc {name}.txt --epsilon {eps} --iterative --json")
    for name in ("tight", "iter", "g10", "d12", "w10"):
        runs.append(f"mpc {name}.txt --oracle")
        runs.append(f"mpc {name}.txt --oracle --json")
        runs.append(f"mpc {name}.txt --oracle --iterative")
    runs += [
        "mpc g60.txt --budget 100",
        "mpc g60.txt --budget 100 --json",
        "mpc g60.txt --budget 100 --strict",
        "mpc g60.txt --budget 100000 --strict --json",
        "mpc g12.txt --oracle",
        "mpc missing.txt",
        "mpc self-loop.txt",
        "mpc header-underscore.txt",
        "mpc header-too-long.txt",
        "mpc header-2-63.txt",
        "mpc header-2-63-minus-1.txt",
        "mpc weight-2-63.txt --json",
        "mpc weight-2-63-minus-1.txt --json",
        "maxtsp weight-2-63.txt --json",
        "maxtsp weight-2-63-minus-1.txt --json",
        "mpc --epsilon 3/2 g12.txt",
        "mpc p4.txt --epsilon 1e-5000",
        "mpc p4.txt --epsilon 1_0/33",
        "mpc p4.txt --epsilon 0.25",
        "mpc p4.txt --budget 1_000",
        "mpc empty.txt --json",
        "mpc empty.txt --iterative --json",
    ]
    runs += [f"mpc {name}" for name in _BAD_EDGE_LINE]
    for name in ("t9", "t40"):
        for eps in _EPSILONS:
            runs.append(f"tsp12 {name}.txt --epsilon {eps}")
            runs.append(f"tsp12 {name}.txt --epsilon {eps} --json")
    runs += ["tsp12 t9.txt --oracle", "tsp12 t9.txt --oracle --json", "tsp12 w10.txt"]
    for name in ("x8", "x30"):
        for eps in _EPSILONS:
            runs.append(f"maxtsp {name}.txt --epsilon {eps}")
            runs.append(f"maxtsp {name}.txt --epsilon {eps} --json")
    runs += [
        "maxtsp x8.txt --oracle",
        "maxtsp x8.txt --oracle --json",
        "maxtsp x30.txt --budget 50 --strict",
        "maxtsp g12.txt",
        "maxtsp maxtsp-incomplete.txt",
        "maxtsp maxtsp-repeated.txt",
        "tsp12 tsp12-two.txt",
        "tsp12 tsp12-repeated.txt --json",
        "tsp12 empty3.txt --json",
        "verify --json --trials 25",
        "verify --trials 2",
        "verify --suite two-phase --trials 6 --seed 11 --json",
        f"verify --suite two-phase --trials 2 --seed {2**64 + 3}",
    ]
    return runs


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def record() -> dict[str, dict]:
    """Run every case in a fresh temporary directory; keyed by command line."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in _WRITTEN.items():
                Path(name).write_text(text, encoding="utf-8")
            return {line: _run(line.split()) for line in cases()}
        finally:
            os.chdir(home)


def moved(want: dict[str, dict], got: dict[str, dict]) -> list[str]:
    """Cases whose record differs, or that only one side has, in case order."""
    return [line for line in {**want, **got} if want.get(line) != got.get(line)]


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    got = record()
    want = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else got
    changed = moved(want, got)
    for line in changed:
        print(f"moved: {line}")
    if args.write:
        GOLDEN.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {len(got)} cases to {GOLDEN.name}")
        return 0
    print(f"{len(got) - len(changed)} of {len(got)} cases unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(_main())
