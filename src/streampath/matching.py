"""Streaming matching engines and exact matching oracles.

Two engines live here, one per weight model.  Both follow the same plan:
one pass over the stream retains a degree-capped kernel, kept as one row
of incident kernel edges per vertex, and all further improvement happens
offline on those rows.

* ``streaming_max_matching`` builds the greedy maximal matching in the
  same pass, then eliminates augmenting paths of length 3 to 2k - 1 inside
  the kernel, in increasing length order, flipping each path when found.
  One sweep per length suffices with no vertex barred: after a shortest
  augmenting path is flipped, any that meets it is longer (Hopcroft-Karp).
  The pass keeps no set of pairs, as the rows tell a repeated pair, and
  holds the kept pairs' original ends and weights in 64-bit arrays, so
  what it keeps is the rows, the partners and those columns.
* ``streaming_max_weight_matching`` keeps per-vertex tables of the
  heaviest incident edges, each a heap once full, so an eviction never
  rescans a table and a losing edge costs one comparison against the
  head's weight.  It then runs a local search over alternating
  path/cycle swaps of at most 2k - 1 edges whose gain beats a damping
  threshold: each scan applies the vertex-disjoint swaps a greedy takes
  in order of decreasing gain, found best-first without listing the
  others.  A greedy sweep, heaviest kernel edge first, starts the search
  (it is what the first scan would apply) and makes the result maximal.

Guarantee tiers, stated precisely because the kernel cap matters:

* Whenever the kernel retains every distinct endpoint pair (in particular
  whenever the deduplicated degree is at most the cap of 6k; each engine's
  docstring gives its exact keep rule), the unweighted engine returns at
  least k/(k+1) >= 1 - epsilon of the maximum matching, and the weighted
  engine at least (k/(k+1)) / (1 + epsilon/4) >= 1 - epsilon of the
  maximum weight matching.
* Unconditionally, the unweighted result is a maximal matching (>= 1/2 of
  optimum) and the weighted result is locally optimal within the kernel.

The cap binds whenever some vertex has more than 6k distinct neighbours in
the viewed stream.  The oracle-checked sweeps stay below it, but complete
graphs with n - 1 > 6k fill every table: each heavy tour with n > 6k + 1
(n = 60 at eps = 1/3 has degree 59 against a cap of 18) earns only the
second tier, and the tour bound built on the first is not guaranteed there.

No fixed per-vertex cap can make the strong tier unconditional: pad both
endpoints of every optimum edge with enough earlier junk edges and a
capped kernel drops the optimum entirely.  Degree caps trade that corner
case for a hard O(n k) memory bound, which is the model being simulated.

Matched edges are charged (3 words each) while an engine holds them and
released just before its run ends: a run ends holding what it began with,
which ``StreamSession.end_run`` checks; callers charge what they keep.
Both engines return their matching as int columns, with no ``Edge``
built.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heapreplace
from itertools import compress, count

from .graph import WORD_LIMIT, ContractionMap, Edge, Graph, Matching
from .stream import Column, EdgeStreamSource, StreamSession, read_fraction


class OracleLimitError(ValueError):
    """The instance is too large for an exact oracle."""


@dataclass(frozen=True)
class ApproxParams:
    """Quality knob shared by the engines.

    ``epsilon`` is an exact Fraction in (0, 1); ``k = ceil(1/epsilon)`` is
    derived and below 2^63.  The engines remove augmenting structures of
    up to ``2k - 1`` edges, which is what buys the k/(k+1) fraction of
    optimum.
    """

    epsilon: Fraction
    k: int = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.epsilon, Fraction):
            raise ValueError("epsilon must be a fractions.Fraction")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")
        k = -((-self.epsilon.denominator) // self.epsilon.numerator)
        if k >= WORD_LIMIT:
            raise ValueError("epsilon is too small: k = ceil(1/epsilon) must be below 2^63")
        object.__setattr__(self, "k", k)

    @classmethod
    def parse(cls, text: str) -> "ApproxParams":
        return cls(read_fraction(text))

    @property
    def max_swap_edges(self) -> int:
        return 2 * self.k - 1

    @property
    def kernel_degree_cap(self) -> int:
        return 6 * self.k


def streaming_max_matching(
    source: EdgeStreamSource,
    params: ApproxParams,
    session: StreamSession,
    view: ContractionMap | None = None,
    label: str = "matching",
) -> Matching:
    """Unweighted engine: one pass, then kernel augmentation.

    The pass builds the greedy maximal matching and, alongside it, a kernel
    of distinct viewed pairs: a pair is kept if it is greedily matched or
    either end's row holds fewer than ``6k``, so a row may pass ``6k`` but
    the kernel holds at most ``6k * n_view + n_view // 2`` pairs, and every
    pair is kept unless one arrives unmatched with both rows full.
    Augmenting paths are then eliminated offline on the kernel, shortest
    first, until none of at most ``2k - 1`` edges is left or the matching
    leaves no more free vertices than the kernel has odd components, which
    makes it maximum on the kernel (Tutte-Berge).  A kernel with a Tutte
    obstruction, such as two pendant vertices on one vertex, never meets
    that stop, and its sweep runs every length.  Edge weights are ignored.
    The engine reads the stream through ``view.target`` when a view is
    given: an edge with a banned end, or with both ends in one class, is
    dropped.  The returned edges are original stream edges (pre-view), in
    arrival order; their viewed endpoints are disjoint, and so are their
    original ones, as each original vertex has one viewed id.  The pass
    keeps no set of pairs: a later copy of a kept pair is recognised from
    the rows, and each kept pair's first copy is held in 64-bit columns of
    original ends and weights.  The rows are dropped once the offline
    phase is done, and the matching is returned as the entries of those
    columns whose viewed ends are partners, so no ``Edge`` is built.
    Each kept pair is charged 3 words as a kernel edge, for as long as it
    is held, and 3 more while matched.  The run ends holding what it
    began with; callers charge what they keep.
    """
    n_view = view.n_new if view is not None else source.n
    # A list, not a range: indexing a range makes a new int per lookup, and
    # the kernel would keep those copies next to the stream's own ints.
    target = view.target if view is not None else list(range(source.n))

    session.begin_run(label)
    partner: list[int | None] = [None] * n_view
    session.charge(n_view)
    cap = params.kernel_degree_cap
    # The kernel edges, in stream order.  Their first copies' original ends
    # and weights are held by value in three arrays of signed 64-bit slots,
    # as every int of an instance is below 2^63; ``rows`` lists each viewed
    # vertex's kernel neighbours in arrival order, as ``target``'s own ints.
    ku = array("q")
    kv = array("q")
    kw = array("q")
    rows: list[list[int]] = [[] for _ in range(n_view)]

    # The greedy matching and the kernel only grow during the pass, so each
    # ends as it would alone, and charging a block's growth at its end
    # leaves every word peak as per-edge charging would.  A pair with both
    # ends free has not come before, as a matched vertex stays matched.
    # Any other pair is skipped if the shorter row is full or holds it: a
    # kept pair is in both rows, and a dropped one found both rows full,
    # which they stay.  So only a row below ``6k`` is scanned.
    def visit(_pos0: int, us: Column, vs: Column, ws: Column) -> None:
        words = 0
        for u, v, w in zip(us, vs, ws):
            a = target[u]
            b = target[v]
            if a == b or a < 0 or b < 0:
                continue
            row_a = rows[a]
            row_b = rows[b]
            if partner[a] is None and partner[b] is None:
                partner[a] = b
                partner[b] = a
                words += 6
            else:
                len_a = len(row_a)
                len_b = len(row_b)
                if len_a <= len_b:
                    if len_a >= cap or b in row_a:
                        continue
                elif len_b >= cap or a in row_b:
                    continue
                words += 3
            row_a.append(b)
            row_b.append(a)
            ku.append(u)
            kv.append(v)
            kw.append(w)
        if words:
            session.charge(words)

    session.run_pass(visit)
    _augment_on_kernel(partner, rows, params.max_swap_edges, session)
    # Nothing reads the rows from here on, so they go before the result is
    # built.  Every matched pair is kept, and the columns are in stream
    # order; the indices of the kept pairs whose viewed ends are partners
    # are marked in C, and each column keeps its entries at those indices.
    del rows
    at = target.__getitem__
    chosen = bytes(map(operator.eq, map(partner.__getitem__, map(at, ku)), map(at, kv)))
    us, vs, ws = (array("q", compress(col, chosen)) for col in (ku, kv, kw))
    session.release(3 * (len(ku) + len(us)) + n_view)
    session.end_run()
    return Matching(us=us, vs=vs, ws=ws)


def _augment_on_kernel(
    partner: list[int | None],
    rows: list[list[int]],
    max_len: int,
    session: StreamSession,
) -> None:
    """Flip augmenting paths as they are found, shortest lengths first.

    Each length 3, 5, ..., max_len tries every free vertex once; length 1
    would find nothing, as the pass matched each pair arriving with both
    ends free and unset no partner.  By the lemma of Hopcroft and Karp
    (1973), flipping a shortest augmenting path P makes no path shorter,
    and any that then meets P has >= |P| + 2 edges.  So a length-L path
    left after flips avoids all of them and was there before, and one
    sweep per length, with no vertex barred, leaves no augmenting path of
    length <= max_len among the retained edges, nor one shorter than L
    while length L is swept.  No simple path has more than
    ``len(rows) - 1`` edges, so the sweep stops there; an empty row cannot
    start a path.  A flip re-partners the path's vertex pairs, which drops
    the matched edges it ran along, still kernel edges, and adds one
    matched edge of 3 words.

    The sweep also stops once the matching is provably maximum on the
    kernel: by the Tutte-Berge formula with U empty, a matching that leaves
    no more free vertices than the kernel has components of odd order
    leaves no augmenting path of any length, so every later search would
    fail.  The free vertices with a kernel edge are counted as the sweep
    goes, two fewer per flip; the odd components are counted once, before
    length 7, so a run at epsilon >= 1/3, which sweeps no length past 5,
    never pays for the count.  The stop cannot fire when a Tutte
    obstruction is present: a nonempty vertex set U whose removal leaves
    more than ``|U|`` odd components beyond the kernel's own, as two
    pendant vertices on one vertex do.  Then even a maximum matching leaves
    more free vertices than the count, and the sweep runs every length.
    """
    n_view = len(rows)
    # The free vertices with a kernel edge: every matched vertex has one.
    free = sum(map(bool, rows)) - (n_view - partner.count(None))
    # Below every count of free vertices: no stop until length 7 counts.
    odd = -1
    for length in range(3, min(max_len, n_view - 1) + 1, 2):
        if length == 7:
            odd = _odd_components(rows)
        for s in range(n_view):
            if partner[s] is not None or not rows[s]:
                continue
            if free <= odd:
                return
            path = _augmenting_path(s, length, partner, rows)
            if path is None:
                continue
            ends = iter(path)
            for a, b in zip(ends, ends):
                partner[a] = b
                partner[b] = a
            session.charge(3)
            free -= 2


def _odd_components(rows: list[list[int]]) -> int:
    """How many components of the kernel have an odd number of vertices.

    Only vertices with a kernel edge count: one with an empty row is free
    whatever the matching, and ``_augment_on_kernel`` does not count it
    among the free vertices either.  One depth-first walk over the rows.
    """
    seen = bytearray(len(rows))
    odd = 0
    for s, row in enumerate(rows):
        if seen[s] or not row:
            continue
        seen[s] = 1
        stack = [s]
        size = 0
        while stack:
            size += 1
            for y in rows[stack.pop()]:
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        odd += size & 1
    return odd


def _augmenting_path(
    s: int,
    length: int,
    partner: list[int | None],
    rows: list[list[int]],
) -> list[int] | None:
    """First augmenting path of at most ``length`` edges starting at free ``s``.

    Deterministic: neighbors are tried in arrival order.  Returns the
    path's vertices from ``s`` to a free end, or None; its pairs at
    positions (0, 1), (2, 3), ... are the kernel edges to match, and the
    pairs in between are matched edges.  No vertex is barred, and the path
    has exactly ``length`` edges, as none shorter is left when the sweep
    calls this; see ``_augment_on_kernel``.

    One explicit stack, so the search depth is not bounded by Python's
    recursion limit, and one visited set, grown on descent and shrunk on
    backtrack.  The visited set is the path itself: the free ``s`` and
    matched pairs ``(v, partner[v])``.  So the tip's own partner is
    visited, and the mate of an unvisited ``v`` is not; neither needs a
    test of its own.
    """
    path = [s]
    visited = {s}
    # The rest of the row still to try at s and at each mate on the path.
    frames = [iter(rows[s])]
    remaining = length
    while True:
        for v in frames[-1]:
            if v in visited:
                continue
            mate = partner[v]
            if mate is None:
                path.append(v)
                return path
            if remaining == 1:
                continue
            path.append(v)
            path.append(mate)
            visited.add(v)
            visited.add(mate)
            frames.append(iter(rows[mate]))
            remaining -= 2
            break
        else:
            frames.pop()
            if not frames:
                return None
            visited.discard(path.pop())
            visited.discard(path.pop())
            remaining += 2


# A table entry: (heap key, weight, original end u, original end v).
_TableEntry = tuple[int, int, int, int]


def streaming_max_weight_matching(
    source: EdgeStreamSource,
    params: ApproxParams,
    session: StreamSession,
    view: ContractionMap | None = None,
    label: str = "weighted-matching",
) -> Matching:
    """Weighted engine: one table-building pass, then offline local search.

    The pass keeps, per viewed vertex, a table of pairs, each as its best
    copy (heaviest, earliest on ties).  A full table's weakest entry never
    weakens, so a pair enters a table late only through a copy heavier
    than all its earlier ones: each table ends as its vertex's ``6k`` best
    pairs by best copy, cap binding or not, and two tables holding a pair
    hold the same copy.  The kernel is their union.  The local search then
    applies alternating path/cycle swaps of at most ``2k - 1`` edges whose
    gain exceeds ``eps^2 * w(M) / (4 n)``; the damping term is what keeps
    the loop finite, and it is small enough that the k/(k+1) local-search
    bound only erodes to (k/(k+1)) / (1 + eps/4) >= 1 - eps.  Each scan
    applies the swaps ``_pick_swaps`` returns: of all improving swaps by
    decreasing gain, then by signature, each that shares no vertex with
    one taken before it.  The search starts from the greedy matching over
    the kernel, heaviest edge first, which is what its first scan would
    apply to an empty matching.  A scan that finds none ends the search,
    and the same greedy sweep then makes the matching maximal within the
    kernel.

    A table is a list of int heap keys in arrival order plus a dict from
    the neighbours to their entries, so a copy no heavier than the one
    held is dropped in one lookup.  A key packs an entry's weight, its
    stream position counted down from a bound on the source's ``m``, and
    its neighbour, so keys order as (weight, -position) do and the heap
    compares plain ints.  When the list fills it becomes a heap whose head
    is the entry the cap evicts, so no table is ever rescanned: an
    eviction is one ``heapreplace``, whose key names the neighbour to drop
    from the dict, and a heavier copy of a kept pair replaces its key and
    re-heapifies.  The head's weight is the table's floor, held where the
    pass loop reads it, so an arriving end at or below it is dropped with
    one comparison; that is exact, as a pair a full table keeps has a copy
    at least as heavy as the head.  The pass charges 2 words per table
    entry, its neighbour and weight (the dict holds one reference per
    entry and is not charged again), and 1 word per full table for its
    floor.  Like the unweighted engine, it sums a block's growth and
    charges it once, when it has visited the block, so a strict overrun
    fires at the end of the block that crosses the budget; the tables
    only grow during the pass, so every word peak is what charging each
    entry as it arrives would give.  The floors are released when the
    pass ends.  The matched entries are returned as int columns.  The run
    ends holding what it began with; callers charge what they keep.
    """
    n_view = view.n_new if view is not None else source.n
    # A list for the reason given in streaming_max_matching.
    target = view.target if view is not None else list(range(source.n))

    session.begin_run(label)
    cap = params.kernel_degree_cap
    # A heap key is ((w << p_bits | last - pos) << y_bits) | y for the copy
    # at stream position pos with weight w, in the table of a vertex whose
    # neighbour is y.  Positions are below the source's m, so every field
    # fits its bits, and the keys of a table differ in y: a full table's
    # head is the one entry the cap evicts, the lightest, and the latest
    # among equal weights.
    y_bits = n_view.bit_length()
    p_bits = source.m.bit_length()
    w_shift = p_bits + y_bits
    y_mask = (1 << y_bits) - 1
    last = (1 << p_bits) - 1
    # Per viewed vertex, its table: the keys, a heap from the moment the
    # table fills, and a dict from each entry's neighbour to the entry
    # (key, weight, original end u, original end v).
    tables: list[list[int]] = [[] for _ in range(n_view)]
    nbrs: list[dict[int, _TableEntry]] = [{} for _ in range(n_view)]
    # Per vertex: the head weight of its table once full, else 0, which
    # every weight (>= 1) beats.  A pair a full table keeps holds a copy at
    # least as heavy as the head, so an end at or below it changes nothing.
    floor = [0] * n_view

    # Positions only grow along a pass, so an arriving copy beats a kept
    # entry exactly when it is strictly heavier; the neighbour's entry in
    # ``nbrs`` settles that in one lookup, which files a new pair's entry
    # in the same call, and only a heavier copy looks for that entry's key
    # in the table.  An end at or below its table's floor is dropped first,
    # so a new pair at a full table evicts the head.  A heavier copy moves
    # its key only away from the head.
    def table_visit(pos0: int, us: Column, vs: Column, ws: Column) -> None:
        if pos0 + len(us) > source.m:
            raise ValueError(f"stream {source.name!r} yields more than its {source.m} edges")
        words = 0
        for r, u, v, w in zip(count(last - pos0, -1), us, vs, ws):
            a = target[u]
            b = target[v]
            if a == b or a < 0 or b < 0 or (w <= floor[a] and w <= floor[b]):
                continue
            high = (w << p_bits | r) << y_bits
            for x, y in ((a, b), (b, a)):
                if w <= floor[x]:
                    continue
                key = high | y
                entry = (key, w, u, v)
                held = nbrs[x]
                old = held.setdefault(y, entry)
                tab = tables[x]
                if old is not entry:
                    if w > old[1]:
                        tab[tab.index(old[0])] = key
                        held[y] = entry
                        if floor[x]:
                            heapify(tab)
                            floor[x] = tab[0] >> w_shift
                    continue
                if floor[x]:
                    del held[heapreplace(tab, key) & y_mask]
                    floor[x] = tab[0] >> w_shift
                    continue
                tab.append(key)
                words += 2
                if len(tab) == cap:
                    heapify(tab)
                    floor[x] = tab[0] >> w_shift
                    words += 1
        if words:
            session.charge(words)

    session.run_pass(table_visit)
    session.release(sum(map(bool, floor)))
    # The kernel is read from the dicts, whose entries hold every key.
    del floor, tables

    # Kernel entries (a, b, w, original triple) with a < b, one per pair,
    # taken from its lower end's table or from the only table that holds
    # it (both hold its best copy), in stream order, so an entry's index
    # orders it as its stream position does; from here on a kernel edge is
    # named only by its index.  Each pair is sorted on its position
    # counted down, which is unique.
    picked = [
        (key >> y_bits & last, x, y, w, u, v)
        for x, held in enumerate(nbrs)
        for y, (key, w, u, v) in held.items()
        if x < y or x not in nbrs[y]
    ]
    table_words = 2 * sum(map(len, nbrs))
    del nbrs
    picked.sort(key=operator.itemgetter(0), reverse=True)
    kentries = [
        (x, y, w, (u, v, w)) if x < y else (y, x, w, (u, v, w))
        for _, x, y, w, u, v in picked
    ]
    del picked
    session.charge(3 * len(kentries))
    session.release(table_words)

    # Entry indices heaviest first; the sort is stable, so earliest first
    # on ties.  Per vertex: (weight, other end, entry index) in that order.
    order = sorted(range(len(kentries)), key=[-e[2] for e in kentries].__getitem__)
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n_view)]
    for idx in order:
        u, v, w, _ = kentries[idx]
        rows[u].append((w, v, idx))
        rows[v].append((w, u, idx))

    # Per vertex: the entry index of its matched edge, or -1 when free.
    medge = [-1] * n_view
    session.charge(n_view)
    weight_now = 0

    def match(idx: int) -> None:
        nonlocal weight_now
        u, v, w, _ = kentries[idx]
        if medge[u] >= 0 or medge[v] >= 0:
            raise AssertionError("swap application touched a non-free vertex")
        medge[u] = medge[v] = idx
        weight_now += w
        session.charge(3)

    def unmatch(idx: int) -> None:
        nonlocal weight_now
        u, v, w, _ = kentries[idx]
        medge[u] = medge[v] = -1
        weight_now -= w
        session.release(3)

    # The scan cap is a defensive bound on the damped local search; see the
    # docstring.  Exceeding it would mean the gain threshold failed to force
    # geometric progress, i.e. a bug.  Every matching the search can reach
    # lies in the kernel, so its weight bits are those of the heaviest
    # kernel edge, the first in ``order``.
    w_bits = kentries[order[0]][2].bit_length() if order else 1
    n_bits = max(1, n_view.bit_length())
    scan_cap = 64 + 8 * n_view * params.k * params.k * (w_bits + n_bits + 4)
    # Accept gain > eps^2 * w(M) / (4 n), compared cross-multiplied so the
    # hot path stays in integers.
    eps_sq = params.epsilon * params.epsilon
    thr_mul = eps_sq.denominator * 4 * n_view

    # The greedy over ``order``: each kernel edge whose ends are both free.
    # On the empty matching every swap is one added edge, so this is what
    # the first scan would apply; after the search it makes the matching
    # maximal within the kernel.
    def match_free() -> None:
        for idx in order:
            u, v, _, _ = kentries[idx]
            if medge[u] < 0 and medge[v] < 0:
                match(idx)

    match_free()
    scans = 0
    while True:
        scans += 1
        if scans > scan_cap:
            raise AssertionError("weighted local search failed to converge")
        thr_num = eps_sq.numerator * weight_now
        picks = _pick_swaps(kentries, rows, medge, params.max_swap_edges, thr_num, thr_mul)
        if not picks:
            break
        for _, _, adds, drops in picks:
            for idx in drops:
                unmatch(idx)
            for idx in adds:
                match(idx)
    match_free()

    # The matched entries' original triples, in stream order.
    us, vs, ws = array("q"), array("q"), array("q")
    for idx, (x, _, _, (u, v, w)) in enumerate(kentries):
        if medge[x] == idx:
            us.append(u)
            vs.append(v)
            ws.append(w)
    session.release(3 * (len(kentries) + len(us)) + n_view)
    session.end_run()
    return Matching(us=us, vs=vs, ws=ws)


_Swap = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _pick_swaps(
    kentries: list[tuple[int, int, int, tuple[int, int, int]]],
    rows: list[list[tuple[int, int, int]]],
    medge: list[int],
    limit: int,
    thr_num: int,
    thr_mul: int,
) -> list[_Swap]:
    """The vertex-disjoint improving swaps one scan applies, in order.

    A swap adds kernel edges and drops matched edges so that the result is
    again a matching: walks start either at a free vertex or by dropping a
    matched edge, strictly alternate add/drop, may stop at a free vertex or
    right after a drop, and may close into an even cycle at a start whose
    matched edge was dropped; it has at most ``limit`` edges.  "Improving"
    means ``gain * thr_mul > thr_num``, i.e. ``gain > thr_num // thr_mul``
    for an integer gain.  A swap is ``(gain, signature, adds, drops)``:
    ``adds`` and ``drops`` are kernel entry indices, in the order of the
    first walk a depth-first search from vertices 0, 1, ... over ``rows``
    meets the swap by, and the signature is all of them, sorted.  Entries
    are in stream order, so that is the swap's sorted position signature.
    ``kentries[i]`` is ``(a, b, w, original triple)``; ``rows[x]`` lists
    the kernel edges at ``x`` as ``(weight, other end, entry index)``,
    heaviest first and earliest first on ties; ``medge[x]`` is the entry
    index of ``x``'s matched edge, or -1.

    The result is the greedy pick over all improving swaps sorted by
    ``(-gain, signature)``: a swap is taken unless it shares a vertex with
    an earlier pick.  It is built without listing them all, by repeated
    best-first searches.  Each search keeps only the swaps at the highest
    gain it meets, raising its cut to that gain minus 1 as it goes; the
    greedy then takes that level in signature order and bans the vertices
    of every pick.  Later searches neither start in nor enter a banned
    vertex.  That is exact because whether the greedy takes a swap depends
    only on the swaps ranked above it: after a level, every swap of it
    touches a banned vertex, and a swap below it is skipped exactly when
    it does.  Every search starts from the threshold's cut, and the picks
    end with a search that finds nothing above it.

    Each search is depth first over explicit frames, one per tip the walk
    has left, so a walk's length is not bounded by Python's recursion
    limit.  A frame holds the rest of its tip's row, so backing up resumes
    that row where the walk left it.  One flag per vertex marks the banned
    vertices and the walk's own: a walk sets its vertices' flags as it
    extends and clears them as it backs up, so no per-walk set is built.

    Each search is pruned by a bound, and the pruning is exact.  Let
    ``top[x]`` be the heaviest kernel edge at ``x`` that is not matched,
    read from the head of ``x``'s row: a row is heaviest first and holds
    ``x``'s matched edge at most once, so ``top[x]`` is the weight of
    ``row[0]``, or of ``row[1]`` when ``row[0]`` is the matched edge, or 0
    when the row has nothing else.  Let ``step`` be the largest
    ``top[x] - w(x's matched edge)`` over matched ``x``, or 0 if that is
    larger.  A walk at tip ``t`` with gain ``g`` and ``room`` edges left
    that adds an edge of weight ``w`` next can record no gain above
    ``g + w + ((room - 1) // 2) * step``: after that add,
    each further add first drops the matched edge at its tail ``x`` and
    then adds an unmatched edge at ``x`` (a net of at most ``step``, for
    two units of room), and a final drop only subtracts, because weights
    are at least 1.  Rows are heaviest first, so once an edge fails the
    bound every later edge at ``t`` fails it too and ``t``'s frame ends; a
    walk is extended through ``mate`` only if ``top[mate]`` passes it.
    Each matched vertex's mate, its matched weight, and its mate's ``top``
    less that weight are read once per call into plain lists.  No pruned
    branch could have reached a swap at or above the search's best, and
    the depth-first order is the unpruned one, so each level and each
    swap's first walk are what the unpruned search finds.
    """
    n_view = len(rows)
    cut0 = thr_num // thr_mul
    # Per matched vertex: its mate and its matched edge's weight.
    mates = [-1] * n_view
    mw = [0] * n_view
    for x, i in enumerate(medge):
        if i >= 0:
            a, b, mw[x], _ = kentries[i]
            mates[x] = b if a == x else a
    # ``top`` from each row's first two entries, as the docstring says.
    top = [0] * n_view
    for x, row in enumerate(rows):
        if row:
            if row[0][2] != medge[x]:
                top[x] = row[0][0]
            elif len(row) > 1:
                top[x] = row[1][0]
    step = max([0] + [top[x] - mw[x] for x in range(n_view) if mates[x] >= 0])
    # Per matched vertex x: the mate's ``top`` less x's matched weight, the
    # most a walk that drops x's matched edge gains by its next add.
    lift = [top[y] - w if y >= 0 else 0 for y, w in zip(mates, mw)]
    picks: list[_Swap] = []
    # 1 for a vertex no walk may enter: a banned one or, while a walk is
    # out, one of the walk's own.
    seen = [0] * n_view
    # A frame per tip a walk has left, to resume once the tip's own row is
    # done: the rest of the tip's row, the gain and the room.  Every start
    # leaves it empty.
    frames: list[tuple[Iterator[tuple[int, int, int]], int, int]] = []
    while True:
        # This search: its cut, its best gain, and the swaps at that gain by
        # signature, with their adds and drops.
        cut = best = cut0
        level: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for s in range(n_view):
            if seen[s]:
                continue
            # The walk from ``s``: its adds and drops, and the vertex it may
            # close a cycle at, which is ``s`` if that was matched; then the
            # walk's first drop is the start's own, and its first tip is the
            # start's mate.
            drop = medge[s]
            if drop < 0:
                adds, drops, close = [], [], -1
                first, gain, room = s, 0, limit
            else:
                adds, drops, close = [], [drop], s
                first, gain, room = mates[s], -mw[s], limit - 1
            seen[s] = seen[first] = 1
            row = iter(rows[first])
            while True:
                # The bound's step terms at this tip and at the next one.
                base = gain + (room - 1) // 2 * step
                ahead = (room - 3) // 2 * step
                deeper = False
                for w, nxt, idx in row:
                    if w + base <= cut:
                        break
                    reach = gain + w
                    # The tip's own matched edge leads back to a vertex on the
                    # walk, or, at the first step from a matched start,
                    # closes at the start with gain 0, which no cut (at
                    # least ``cut0 >= 0``) admits.
                    if seen[nxt]:
                        if nxt != close:
                            continue
                        drop = -1
                    else:
                        drop = medge[nxt]
                        if drop >= 0:
                            if room < 2:
                                continue
                            # Every walk and every banned set holds each
                            # matched vertex on it with its mate, so the
                            # mate of an unseen ``nxt`` is unseen too.  A
                            # record here lifts the cut to at most reach - 1,
                            # which top[mate] >= 0 still clears, so deeper
                            # stays as computed.
                            deeper = room >= 3 and reach + lift[nxt] + ahead > cut
                            reach -= mw[nxt]
                            if reach <= cut and not deeper:
                                continue
                    if reach > cut:
                        if reach > best:
                            level = {}
                            best = reach
                            cut = reach - 1
                        swap_adds = (*adds, idx)
                        swap_drops = (*drops, drop) if drop >= 0 else tuple(drops)
                        signature = tuple(sorted(swap_adds + swap_drops))
                        # The first walk of a signature is kept.
                        if signature not in level:
                            level[signature] = (swap_adds, swap_drops)
                    if deeper:
                        adds.append(idx)
                        drops.append(drop)
                        frames.append((row, gain, room))
                        mate = mates[nxt]
                        seen[nxt] = seen[mate] = 1
                        row, gain, room = iter(rows[mate]), reach, room - 2
                        break
                # ``deeper`` ends set only after a push, as an edge that sets
                # it pushes.  Otherwise the tip's row is done, and the walk
                # backs up to the tip before it, leaving the ends of the
                # matched edge it dropped to reach this tip.
                if not deeper:
                    if not frames:
                        break
                    row, gain, room = frames.pop()
                    adds.pop()
                    a, b, _, _ = kentries[drops.pop()]
                    seen[a] = seen[b] = 0
            seen[s] = seen[first] = 0
        if not level:
            break
        # A swap's vertices are the ends of its edges.
        for signature in sorted(level):
            ends = {x for i in signature for x in kentries[i][:2]}
            if not any(seen[x] for x in ends):
                for x in ends:
                    seen[x] = 1
                picks.append((best, signature, *level[signature]))
    return picks


def oracle_max_matching(g: Graph) -> Matching:
    """Exact maximum cardinality matching; see ``_exact_matching`` limits."""
    return _exact_matching(g, weighted=False)


def oracle_max_weight_matching(g: Graph) -> Matching:
    """Exact maximum weight matching; see ``_exact_matching`` limits."""
    return _exact_matching(g, weighted=True)


def _exact_matching(g: Graph, weighted: bool) -> Matching:
    """Exhaustive maximum matching by DP over vertex subsets.

    Handles up to 16 non-isolated vertices; parallel copies count once, at
    their heaviest.  Deterministic witness: among optima, the one found
    first by lowest-vertex DP backtracking.
    """
    best: dict[tuple[int, int], tuple[int, int, Edge]] = {}
    for pos, e in enumerate(g.edges):
        val = e.weight if weighted else 1
        cur = best.get(e.pair)
        if cur is None or val > cur[0]:
            best[e.pair] = (val, pos, e)
    items = sorted(best.values(), key=lambda t: t[1])
    active = sorted({v for _, _, e in items for v in (e.u, e.v)})
    if len(active) > 16:
        raise OracleLimitError(
            f"exact matching handles <= 16 non-isolated vertices, got {len(active)}"
        )
    chosen = _matching_subset_dp(items, active)
    return Matching(tuple(e for _, _, e in sorted(chosen, key=lambda t: t[1])))


def _matching_subset_dp(
    items: list[tuple[int, int, Edge]], active: list[int]
) -> list[tuple[int, int, Edge]]:
    index = {v: i for i, v in enumerate(active)}
    a = len(active)
    cell: list[list[tuple[int, int, Edge] | None]] = [[None] * a for _ in range(a)]
    for val, pos, e in items:
        i, j = index[e.u], index[e.v]
        cell[i][j] = cell[j][i] = (val, pos, e)
    size = 1 << a
    value = [0] * size
    choice = [-1] * size
    for mask in range(1, size):
        i = (mask & -mask).bit_length() - 1
        without_i = mask ^ (1 << i)
        best_val = value[without_i]
        best_j = -1
        rest = without_i
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            c = cell[i][j]
            if c is not None:
                cand = c[0] + value[without_i ^ (1 << j)]
                if cand > best_val:
                    best_val = cand
                    best_j = j
        value[mask] = best_val
        choice[mask] = best_j
    chosen = []
    mask = size - 1
    while mask:
        i = (mask & -mask).bit_length() - 1
        j = choice[mask]
        if j == -1:
            mask ^= 1 << i
        else:
            chosen.append(cell[i][j])
            mask ^= (1 << i) | (1 << j)
    return chosen

