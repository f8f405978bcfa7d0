"""Edge streams and the pass/memory bookkeeping around them.

The streaming model simulated here: an algorithm may read the edge
sequence front to back as often as it likes (each full read is a *pass*)
but may only retain a working state of O(n) machine words between and
during passes.  A ``StreamSession`` counts both resources.  Counting is
cooperative: engine code calls ``charge``/``release`` as it grows and
shrinks its retained state, with the conversion

* one machine word per stored vertex id or small counter,
* three words per retained edge (two endpoints + weight or stream slot).

The session does not try to measure actual Python object sizes; the point
is to certify the model's asymptotics, not CPython's allocator.

A pass hands the engines blocks of int columns ``(us, vs, ws)``, one
visit per block, so the per-edge work is the engine's own loop; an engine
builds ``Edge`` objects only for the edges it returns.  A graph in memory
is already three ``array("q")`` columns, so its passes yield read-only
windows of them and copy no edge.  Every line of an edge-list file is
validated when the file is opened, each field a word below 2^63, and the
parsed columns are spilled to a nameless temporary file (16 bytes per
edge, 24 if weighted; ``TMPDIR`` must be writable).  A pass parses
nothing: it reads the file's bytes again and yields the spilled columns
of each block whose bytes have the crc32 open recorded, so a file that
changed since it was opened fails the pass with ``StreamFormatError``
instead of mixing two streams.
"""

from __future__ import annotations

import operator
import os
import tempfile
import weakref
import zlib
from array import array
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import BinaryIO, Callable, Iterator, Sequence

from .graph import WORD_LIMIT, Graph


class StreamFormatError(ValueError):
    """An edge-list file does not follow the expected format."""


class BudgetExceededError(RuntimeError):
    """Retained words exceeded the session budget (strict mode only)."""


# One column of a block: a list or array from a file, a window of an array in memory.
Column = Sequence[int]
Block = tuple[Column, Column, Column]


class EdgeStreamSource:
    """Interface for anything that can replay an edge sequence.

    A source is its header, ``name``, ``n``, ``m`` and ``weighted``, and
    its passes, ``blocks()``: an iterator of non-empty blocks of the stream
    as equal-length int columns ``(us, vs, ws)`` (``ws`` is all 1 on an
    unweighted stream), ``m`` edges in all; the weighted engine refuses a
    pass that yields more.  ``blocks()`` must yield the same edge sequence
    every time it is called; where it cuts that sequence into blocks is
    the source's choice.  A caller must not modify a block.  The file
    source enforces this: a pass over a file rewritten since it was opened
    raises ``StreamFormatError`` rather than yield another sequence.
    """

    name: str
    n: int
    m: int
    weighted: bool

    def blocks(self) -> Iterator[Block]:
        raise NotImplementedError

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """The stream as ``(u, v, w)`` int triples: ``blocks()`` flattened."""
        return chain.from_iterable(zip(*block) for block in self.blocks())


# Edges per block of an in-memory pass.  Both engines charge the words
# they retain once per block, so this also sets how far into a pass a
# strict overrun can run before it fires.
_SLICE_EDGES = 8192


class InMemoryEdgeSource(EdgeStreamSource):
    """Streams a Graph held in memory.

    Each pass yields read-only windows of the graph's own ``array("q")``
    columns, at most ``_SLICE_EDGES`` edges each, so a source holds no copy
    of the edges and a pass copies none.  The columns are not charged
    against any session budget: they play the role of the external input.
    """

    def __init__(self, graph: Graph, name: str = "memory") -> None:
        self.name = name
        self.n = graph.n
        self.m = graph.m
        self.weighted = graph.weighted
        self._graph = graph

    def blocks(self) -> Iterator[Block]:
        g = self._graph
        us, vs, ws = (memoryview(col).toreadonly() for col in (g.us, g.vs, g.ws))
        for i in range(0, self.m, _SLICE_EDGES):
            j = i + _SLICE_EDGES
            yield us[i:j], vs[i:j], ws[i:j]


# Bytes per pass read: big enough that the per-block checks are cheap per
# edge, small enough that a pass holds only a sliver of the file.
_BLOCK_BYTES = 1 << 16

_WIDE = "edge fields must be below 2^63"


def _field(token: bytes) -> int:
    """A field of digits as an int; ``WORD_LIMIT`` if over 19 digits are significant."""
    digits = token.lstrip(b"0")
    return int(digits or b"0") if len(digits) <= 19 else WORD_LIMIT


def read_word(text: str | bytes) -> int:
    """``text`` as a word: plain ASCII decimal digits, valued below 2^63.

    Unlike ``int()``: no ``_``, sign, space or non-ASCII digit, and the same on every Python.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError("must be ints, non-negative, in plain decimal digits")
    value = _field(text.encode() if isinstance(text, str) else text)
    if value >= WORD_LIMIT:
        raise ValueError("must be below 2^63")
    return value


def read_fraction(text: str) -> Fraction:
    """``P`` or ``P/Q`` for words ``P`` and ``Q >= 1``; no decimal or exponent form."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(read_word(num), read_word(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError("must be P or P/Q: plain decimal digits below 2^63, Q >= 1") from None


def _parse_header(line: bytes, path: str) -> tuple[int, int, bool]:
    """``n``, ``m`` and ``weighted`` from the first line of an edge-list file."""
    if not line:
        raise StreamFormatError(f"{path}:1: empty file")
    if not line.isascii():
        raise StreamFormatError(f"{path}:1: non-ASCII byte in header")
    tokens = line.split()
    if len(tokens) == 2:
        weighted = False
    elif len(tokens) == 3 and tokens[2] == b"weighted":
        weighted = True
    else:
        raise StreamFormatError(
            f"{path}:1: header must be 'n m' or 'n m weighted', got {line.strip().decode()!r}"
        )
    try:
        return read_word(tokens[0]), read_word(tokens[1]), weighted
    except ValueError as exc:
        raise StreamFormatError(f"{path}:1: vertex and edge counts {exc}") from None


def _parse_block(block: list[bytes], n: int, weighted: bool) -> Block | str:
    """A block of edge lines as int columns, or the first rule it breaks.

    The one home of the edge-line rules, in this order: ASCII only, the
    field count of every line (a blank line has none), plain decimal
    digits (no sign, no ``_``), endpoints below 2^63 and in range, no
    self-loops, weights >= 1 and below 2^63.  Each newline becomes a token
    ``\\xff``, a byte no ASCII line holds, so one ``split`` checks every
    line's field count: the separators must fill every ``(want + 1)``-th
    slot.  The ints are parsed in one go and checked with C-level passes,
    keeping no object per line; a block ``int()`` refuses is read again
    field by field with ``_field``.  The message holds the line's own
    values when the block is one line, as ``_first_bad_line`` runs it.
    """
    want = 3 if weighted else 2
    lines = len(block)
    text = b"".join(block)
    if not text.isascii():
        return "non-ASCII byte in edge line"
    if not text.endswith(b"\n"):
        text += b"\n"
    tokens = text.replace(b"\n", b" \xff ").split()
    if len(tokens) != (want + 1) * lines or tokens[want :: want + 1].count(b"\xff") != lines:
        if len(tokens) == 1:
            return "blank line inside edge list"
        return f"expected {want} fields on an edge line, got {len(tokens) - 1}"
    del tokens[want :: want + 1]
    if b"-" in text or b"+" in text or b"_" in text:
        return "edge fields must be plain decimal digits"
    try:
        nums = list(map(int, tokens))
    except ValueError:
        if not all(map(bytes.isdigit, tokens)):
            return "edge fields must be plain decimal digits"
        nums = list(map(_field, tokens))
    us = nums[0::want]
    vs = nums[1::want]
    top = max(max(us), max(vs))
    if top >= n:
        return _WIDE if top >= WORD_LIMIT else f"endpoint out of range [0, {n})"
    if any(map(operator.eq, us, vs)):
        return f"self-loop at vertex {us[0]}"
    if not weighted:
        return us, vs, [1] * len(us)
    ws = nums[2::3]
    if min(ws) < 1:
        return f"weight must be >= 1, got {min(ws)}"
    if max(ws) >= WORD_LIMIT:
        return _WIDE
    return us, vs, ws


def _first_bad_line(block: list[bytes], first: int, n: int, weighted: bool) -> tuple[int, str]:
    """Number (counting from ``first``) and message of a failed block's first bad line."""
    for lineno, line in enumerate(block, first):
        why = _parse_block([line], n, weighted)
        if isinstance(why, str):
            return lineno, why
    raise AssertionError("a block failed its checks but none of its lines did")


class FileEdgeSource(EdgeStreamSource):
    """Streams an edge-list file.

    Format: first line ``n m`` or ``n m weighted``; then exactly m lines
    ``u v`` (or ``u v w``), 0-indexed, no self-loops, weights >= 1, every
    field plain decimal digits below 2^63, ASCII only.  Line order is the
    stream's arrival order.

    Opening reads the file once with ``_read_blocks``, the reader it shares
    with ``load_edge_list``: blocks of whole lines (about 64 KiB), each
    turned into int columns by ``_parse_block``, the one parser of the
    edge-line rules, and exactly ``m`` edge lines.  Every format error
    names its ``path:line``.  Open keeps, for the header and for each
    block, its byte count, its ``zlib.crc32`` and the line it starts on,
    and appends each block's columns to a spill: a nameless temporary file
    (``tempfile.TemporaryFile``, so ``TMPDIR`` must name a writable
    directory) of 8-byte ints, 16 bytes per edge, or 24 if the file is
    weighted.  It keeps no edge in memory.

    A pass parses nothing.  It reads the file again in open's byte counts
    and yields each block's columns from the spill once the block's bytes
    have open's crc32.  Anything else, a changed header or block, a short
    read or bytes after the last edge line, raises ``StreamFormatError``
    "path:LINE: file changed since it was opened", where LINE starts the
    first piece that differs (1 for the header, m + 2 for bytes after the
    last edge line); the blocks before it stream as open read them.  So
    every pass yields the stream open validated, or fails.  A crc32
    collision could only hide a change, and the pass would still yield
    open's columns.  File timestamps are not consulted: their resolution
    is coarse, so a check on them would depend on timing.  The spill is
    closed when the source is dropped.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.name = os.path.basename(path)
        with open(path, "rb") as fh:
            header = fh.readline()
            self.n, self.m, self.weighted = _parse_header(header, path)
            self._width = 3 if self.weighted else 2  # columns spilled per block
            try:
                spill = tempfile.TemporaryFile()
            except OSError as exc:
                raise OSError(f"{path}: cannot make the spill its passes read: {exc}") from None
            close = weakref.finalize(self, spill.close)
            self._spill = spill
            # Per piece of the file, the header and then each block: its byte
            # count, its crc32 and its first line; ``_lines`` ends with m + 2.
            self._sizes = array("q", [len(header)])
            self._crcs = array("I", [zlib.crc32(header)])
            self._lines = array("q", [1, 2])
            try:
                for lines, cols in _read_blocks(fh, path, self.n, self.m, self.weighted):
                    data = b"".join(lines)
                    self._sizes.append(len(data))
                    self._crcs.append(zlib.crc32(data))
                    self._lines.append(self._lines[-1] + len(lines))
                    for col in cols[: self._width]:
                        array("q", col).tofile(spill)
            except BaseException:
                close()
                raise

    def blocks(self) -> Iterator[Block]:
        lines = self._lines
        with open(self.path, "rb") as fh:
            for piece, (size, crc) in enumerate(zip(self._sizes, self._crcs)):
                data = fh.read(size)
                if len(data) != size or zlib.crc32(data) != crc:
                    break
                if piece:  # piece 0 is the header
                    start, end = lines[piece] - 2, lines[piece + 1] - 2
                    # Passes may interleave, so each block seeks the shared handle.
                    self._spill.seek(start * self._width * 8)
                    cols = [array("q") for _ in range(self._width)]
                    for col in cols:
                        col.fromfile(self._spill, end - start)
                    if not self.weighted:
                        cols.append([1] * (end - start))
                    yield tuple(cols)
            else:
                if not fh.read(1):
                    return
                piece = len(self._sizes)
        raise StreamFormatError(f"{self.path}:{lines[piece]}: file changed since it was opened")

    def graph(self) -> Graph:
        """The stream as a Graph held in memory, gathered by one pass."""
        return _graph(self.n, self.weighted, self.blocks())


def _read_blocks(
    fh: BinaryIO, path: str, n: int, m: int, weighted: bool
) -> Iterator[tuple[list[bytes], Block]]:
    """Each block after the header: its lines and its checked columns."""
    count = 0
    for lines in iter(partial(fh.readlines, _BLOCK_BYTES), []):
        cols = _parse_block(lines, n, weighted)
        if isinstance(cols, str):
            lineno, why = _first_bad_line(lines, count + 2, n, weighted)
            raise StreamFormatError(f"{path}:{lineno}: {why}")
        count += len(lines)
        if count > m:
            raise StreamFormatError(f"{path}:{m + 2}: header promises {m} edges, file has more")
        yield lines, cols
    if count != m:
        raise StreamFormatError(f"{path}:{count + 2}: header promises {m} edges, file has {count}")


def _graph(n: int, weighted: bool, blocks: Iterator[Block]) -> Graph:
    """A Graph of checked blocks, their columns appended in stream order."""
    us, vs, ws = array("q"), array("q"), array("q")
    for bus, bvs, bws in blocks:
        us.extend(bus)
        vs.extend(bvs)
        ws.extend(bws)
    return Graph._checked(n, us, vs, ws, weighted)


def load_edge_list(path: str) -> Graph:
    """Read a whole edge-list file into a Graph (non-streaming convenience).

    The file is read once, with the checks and the error texts of a
    ``FileEdgeSource`` open; no ``Edge`` is built and no edge is checked
    again.
    """
    with open(path, "rb") as fh:
        n, m, weighted = _parse_header(fh.readline(), path)
        return _graph(n, weighted, (cols for _, cols in _read_blocks(fh, path, n, m, weighted)))


def save_edge_list(path: str, g: Graph) -> None:
    """Write ``g`` in the edge-list format, preserving edge order."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.m} weighted\n" if g.weighted else f"{g.n} {g.m}\n")
        if g.weighted:
            fh.writelines(map("{} {} {}\n".format, g.us, g.vs, g.ws))
        else:
            fh.writelines(map("{} {}\n".format, g.us, g.vs))


def default_words_budget(n: int, k: int) -> int:
    """Budget of 64*n*k words, weighted stream or not.

    A weight is below 2^63, one word, as the session charges it, so the
    heaviest weight does not scale the budget.  The constant is loose on
    purpose: the budget exists to catch accidentally-superlinear state, not
    to squeeze the engines.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return 64 * n * k


@dataclass(frozen=True)
class RunRecord:
    """Resources one labeled engine run consumed inside a session."""

    label: str
    passes: int
    words_peak: int


@dataclass(frozen=True)
class StreamReport:
    """Immutable snapshot of a session's accounting."""

    source: str
    n: int
    m: int
    passes_used: int
    words_budget: int
    words_peak: int
    budget_exceeded: bool
    runs: tuple[RunRecord, ...]

    def as_dict(self) -> dict:
        return {**asdict(self), "runs": [asdict(r) for r in self.runs]}


class StreamSession:
    """Counts passes over a source and words of retained state.

    In strict mode the first ``charge`` that pushes retained state past the
    budget raises ``BudgetExceededError``; otherwise the overrun is only
    recorded in the report.  Both engines charge a pass's growth once per
    block, so an overrun fires at the end of the block that crosses the
    budget, inside that pass.  ``begin_run``/``end_run``
    bracket one engine invocation so multi-run pipelines can attribute
    resources per phase.  A run ends holding what it began with, or
    ``end_run`` raises; callers charge what they carry between runs.
    """

    def __init__(self, source: EdgeStreamSource, words_budget: int, strict: bool = False) -> None:
        if words_budget < 1:
            raise ValueError("words budget must be positive")
        self.source = source
        self.words_budget = words_budget
        self.strict = strict
        self.passes_used = 0
        self.words_in_use = 0
        self.words_peak = 0
        self.budget_exceeded = False
        self._runs: list[RunRecord] = []
        self._run_label: str | None = None
        self._run_start = (0, 0)  # passes used and words in use at begin_run
        self._run_peak = 0

    def charge(self, words: int) -> None:
        """Add ``words`` of retained state; in strict mode, fail past the budget.

        The check runs once per call.  Both engines sum a block's growth
        and charge it at the end of the block, so each overruns at the end
        of the block that crosses the budget; their peaks are those of
        charging each entry as it arrives, as their state only grows
        during the pass.
        """
        if words < 0:
            raise ValueError("cannot charge negative words")
        self.words_in_use += words
        if self.words_in_use > self.words_peak:
            self.words_peak = self.words_in_use
        if self._run_label is not None and self.words_in_use > self._run_peak:
            self._run_peak = self.words_in_use
        if self.words_in_use > self.words_budget:
            self.budget_exceeded = True
            if self.strict:
                raise BudgetExceededError(
                    f"retained {self.words_in_use} words, budget {self.words_budget}"
                )

    def release(self, words: int) -> None:
        if words < 0:
            raise ValueError("cannot release negative words")
        if words > self.words_in_use:
            raise ValueError("releasing more words than are in use")
        self.words_in_use -= words

    def run_pass(self, visit: Callable[[int, Column, Column, Column], None]) -> None:
        """Stream the source through ``visit(pos0, us, vs, ws)`` once per block.

        A block is the source's int columns for the edges at stream
        positions ``pos0, pos0 + 1, ...``, already validated by the source
        (a file source checks each block before yielding it), so visits
        build no per-edge objects.  A visitor that charges its growth once
        per block makes a strict overrun fire at the end of the block that
        crosses the budget, inside this call.
        """
        self.passes_used += 1
        pos0 = 0
        for block in self.source.blocks():
            visit(pos0, *block)
            pos0 += len(block[0])

    def begin_run(self, label: str) -> None:
        if self._run_label is not None:
            raise RuntimeError(f"run {self._run_label!r} is still open")
        self._run_label = label
        self._run_start = (self.passes_used, self.words_in_use)
        self._run_peak = self.words_in_use

    def end_run(self) -> RunRecord:
        if self._run_label is None:
            raise RuntimeError("no run is open")
        passes0, words0 = self._run_start
        held = self.words_in_use - words0
        if held:
            raise RuntimeError(f"run {self._run_label!r} ends with its word ledger at {held:+d}")
        record = RunRecord(
            label=self._run_label,
            passes=self.passes_used - passes0,
            words_peak=self._run_peak,
        )
        self._runs.append(record)
        self._run_label = None
        return record

    def report(self) -> StreamReport:
        return StreamReport(
            source=self.source.name,
            n=self.source.n,
            m=self.source.m,
            passes_used=self.passes_used,
            words_budget=self.words_budget,
            words_peak=self.words_peak,
            budget_exceeded=self.budget_exceeded,
            runs=tuple(self._runs),
        )


def open_session(
    source: EdgeStreamSource,
    *,
    k: int | None = None,
    words_budget: int | None = None,
    strict: bool = False,
) -> StreamSession:
    """Make a session for ``source`` with an explicit or default budget.

    ``words_budget`` sets the budget; without it ``k`` sizes the default
    64*n*k budget (see ``default_words_budget``).  When both are given,
    ``words_budget`` wins, so a pipeline can pass its ``k`` and a caller's
    override together.
    """
    if words_budget is None:
        if k is None:
            raise ValueError("need k to size the default budget")
        words_budget = default_words_budget(max(source.n, 1), k)
    return StreamSession(source, words_budget, strict)
