"""Named fixtures, random instance generators, and corpus sweeps.

Everything here is deterministic given a seed (the package PRNG, not
``random``), because the sweeps double as acceptance evidence: a failure
must be reproducible by seed alone.

The sweeps each build a corpus of random instances, run a pipeline, and
verify its guarantees against the exact oracles.  They return a
``SweepOutcome`` with per-check failure counts so one corpus can serve
several independent assertions.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (
    WORD_LIMIT,
    Edge,
    Graph,
    Matching,
    PathCover,
    contract_edges,
    validate_path_cover,
)
from .matching import ApproxParams, oracle_max_matching, oracle_max_weight_matching
from .pathcover import cover_bound_holds, iterative_path_cover, two_phase_path_cover
from .prng import SplitMix64
from .stream import InMemoryEdgeSource, open_session
from .tsp import (
    MaxTspInstance,
    Tsp12Instance,
    approx_max_tsp,
    approx_tsp12,
    contract_bound_check,
    extract_matching_from_cycle,
    extract_matching_from_path_or_cycle,
    max_tsp_bound_holds,
    oracle_max_tsp,
    oracle_path_cover,
    tsp12_bound_holds,
    tsp12_identity_check,
)

# ---------------------------------------------------------------------------
# Named fixtures


@dataclass(frozen=True, eq=False)
class Fixture:
    """A hand-built graph with externally verified expected values."""

    name: str
    graph: Graph
    expected: dict[str, int]
    notes: str


# A star u,v joined to pendant pairs: the two-phase cover finds 4 edges
# while the best cover has 6, meeting the 2/3 ratio exactly.  Vertex 8 is
# isolated so the contracted first phase sees six vertices.
_TIGHT_PAIRS = ((2, 3), (4, 5), (0, 1), (0, 2), (0, 4), (1, 6), (1, 7))

# Two pendant edges hanging off a triangle-ish core: repeated matching
# rounds reach 3 cover edges against an optimum of 4.
_ITERATIVE_PAIRS = ((0, 2), (1, 3), (2, 3), (2, 4), (3, 4))

_FIXTURES: dict[str, tuple[int, tuple[tuple[int, int], ...], dict[str, int], str]] = {
    "tight-two-thirds": (
        9,
        _TIGHT_PAIRS,
        {
            "best_cover": 6,
            "max_matching": 3,
            "two_phase_cover": 4,
        },
        "two-phase ratio lands exactly on 2/3",
    ),
    "iterative-three-quarters": (
        5,
        _ITERATIVE_PAIRS,
        {
            "best_cover": 4,
            "max_matching": 2,
            "two_phase_cover": 3,
            "iterative_cover": 3,
        },
        "iterated matching reaches 3 of the optimal 4 edges",
    ),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def builtin_fixture(name: str) -> Fixture:
    try:
        n, pairs, expected, notes = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; have {', '.join(fixture_names())}") from None
    return Fixture(name, Graph.from_pairs(n, pairs), dict(expected), notes)


# ---------------------------------------------------------------------------
# Random generators


def gen_random_graph(n: int, seed: int, density: Fraction = Fraction(1, 2)) -> Graph:
    """Each pair kept independently with probability ``density``, then the
    arrival order is shuffled."""
    if not (0 <= density <= 1):
        raise ValueError("density must be in [0, 1]")
    rng = SplitMix64(seed)
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.below(density.denominator) < density.numerator
    ]
    rng.shuffle(pairs)
    return Graph.from_pairs(n, pairs)


def gen_random_weighted_graph(
    n: int, seed: int, density: Fraction = Fraction(1, 2), max_weight: int = 20
) -> Graph:
    if not (0 <= density <= 1):
        raise ValueError("density must be in [0, 1]")
    if not 1 <= max_weight < WORD_LIMIT:
        raise ValueError("max_weight must be at least 1 and below 2^63")
    rng = SplitMix64(seed)
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.below(density.denominator) < density.numerator:
                triples.append((u, v, rng.randint(1, max_weight)))
    rng.shuffle(triples)
    return Graph.from_pairs(n, triples, weighted=True)


def gen_random_tsp12(n: int, seed: int, density: Fraction = Fraction(1, 2)) -> Tsp12Instance:
    return Tsp12Instance.from_graph(gen_random_graph(n, seed, density))


def gen_random_max_tsp(n: int, seed: int, max_weight: int = 20) -> MaxTspInstance:
    if not 1 <= max_weight < WORD_LIMIT:
        raise ValueError("max_weight must be at least 1 and below 2^63")
    rng = SplitMix64(seed)
    # Each pair u < v in order with its weight, then the shuffle's swaps
    # applied to all three columns: the draws of ``rng.shuffle`` on a list.
    us = array("q", (u for u in range(n) for _ in range(u + 1, n)))
    vs = array("q", (v for u in range(n) for v in range(u + 1, n)))
    ws = array("q", (rng.randint(1, max_weight) for _ in us))
    below = rng.below
    for i in range(len(us) - 1, 0, -1):
        j = below(i + 1)
        us[i], us[j] = us[j], us[i]
        vs[i], vs[j] = vs[j], vs[i]
        ws[i], ws[j] = ws[j], ws[i]
    return MaxTspInstance(n, us=us, vs=vs, ws=ws)


def gen_degree124_graph(n: int, seed: int) -> Graph:
    """Random simple graph whose degrees all land in {1, 2, 4}.

    Draws a target degree per vertex, pairs up degree stubs at random, and
    resamples whenever the pairing produces a self-loop or parallel edge.
    Degree 4 is only offered when n > 4 (it needs that many neighbors).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = SplitMix64(seed)
    choices = (1, 2, 4) if n > 4 else (1, 2)
    for _ in range(400):
        targets = [choices[rng.below(len(choices))] for _ in range(n)]
        if sum(targets) % 2:
            flip = targets.index(1) if 1 in targets else 0
            targets[flip] = 2 if targets[flip] == 1 else 1
        stubs = [v for v in range(n) for _ in range(targets[v])]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[0::2], stubs[1::2]))
        seen = set()
        good = True
        for u, v in pairs:
            key = (u, v) if u < v else (v, u)
            if u == v or key in seen:
                good = False
                break
            seen.add(key)
        if good:
            return Graph.from_pairs(n, pairs)
    raise RuntimeError(f"failed to realize a degree-(1,2,4) graph on {n} vertices")


def gen_random_matching_in(g: Graph, seed: int) -> Matching:
    """A random (possibly empty, possibly non-maximal) matching of ``g``."""
    rng = SplitMix64(seed)
    order = list(range(g.m))
    rng.shuffle(order)
    edges = g.edges
    used: set[int] = set()
    picked: list[Edge] = []
    for i in order:
        e = edges[i]
        if e.u not in used and e.v not in used and rng.coin():
            used.add(e.u)
            used.add(e.v)
            picked.append(e)
    return Matching(tuple(picked))


# ---------------------------------------------------------------------------
# Cover/matching alignment


def align_cover_with_matching(cover: PathCover, matching: Matching) -> PathCover:
    """Rework a *maximum* cover so every off-cover matching edge joins two
    path interiors, without changing the cover's size.

    Contracting the matching in the reworked cover then yields degrees in
    {0, 1, 2, 4}, exactly ``cover.size - |cover ∩ matching|`` edges, and
    exactly ``|matching \\ cover|`` degree-4 vertices, which is the
    structure the matching-contract sweep counts.

    Each fix swaps one cover edge for the matching edge itself, so the
    matching edge joins the cover and never needs another fix; the swapped
    out edge cannot be a matching edge (its endpoint is already matched).
    Raises ValueError when the cover is demonstrably not maximum (an
    off-cover matching edge could extend it).
    """
    n = cover.n
    edges: list[Edge] = list(cover.edges)

    while True:
        check = validate_path_cover(n, tuple(edges))
        if not check.ok:
            raise AssertionError(f"alignment broke the cover: {check.reason}")
        cover_pairs = {e.pair for e in edges}
        deg: dict[int, int] = {}
        for e in edges:
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        where: dict[int, tuple[int, int]] = {}
        for pi, path in enumerate(check.paths):
            for j, v in enumerate(path):
                where[v] = (pi, j)

        fix: tuple[tuple[int, int], Edge] | None = None
        for me in matching:
            if me.pair in cover_pairs:
                continue
            du, dv = deg.get(me.u, 0), deg.get(me.v, 0)
            if du > dv:
                hi, lo, dhi, dlo = me.u, me.v, du, dv
            else:
                hi, lo, dhi, dlo = me.v, me.u, dv, du
            if (dlo, dhi) == (2, 2):
                continue
            same_path = (
                dlo >= 1 and dhi >= 1 and where[me.u][0] == where[me.v][0]
            )
            if (dlo, dhi) in ((0, 0), (0, 1)) or ((dlo, dhi) == (1, 1) and not same_path):
                raise ValueError(
                    f"cover is not maximum: adding matching edge {me.pair} would enlarge it"
                )
            if (dlo, dhi) == (1, 1):
                # Both ends of the same path: free the lower-id endpoint and
                # close the path with the matching edge instead.
                low = min(me.u, me.v)
                pi, j = where[low]
                path = check.paths[pi]
                partner_on_path = path[1] if j == 0 else path[-2]
                fix = ((min(low, partner_on_path), max(low, partner_on_path)), me)
            elif same_path:
                # Interior plus an endpoint of the same path: cut the interior
                # vertex on the side facing that endpoint, so re-adding the
                # matching edge cannot close a cycle.
                pi, j = where[hi]
                path = check.paths[pi]
                toward = path[j + 1] if where[lo][1] > j else path[j - 1]
                fix = ((min(hi, toward), max(hi, toward)), me)
            else:
                # Interior plus an isolated vertex or another path's endpoint:
                # cut the interior vertex's predecessor side.
                pi, j = where[hi]
                path = check.paths[pi]
                pred = path[j - 1]
                fix = ((min(hi, pred), max(hi, pred)), me)
            break

        if fix is None:
            return PathCover(n, tuple(edges))
        drop_pair, add_edge = fix
        at = next(i for i, e in enumerate(edges) if e.pair == drop_pair)
        edges.pop(at)
        edges.append(add_edge)


# ---------------------------------------------------------------------------
# Sweeps


@dataclass
class SweepOutcome:
    """Per-check failure counts over one corpus, plus engine run records."""

    name: str
    trials: int
    checks: dict[str, int] = field(default_factory=dict)
    details: list[str] = field(default_factory=list)
    runs: list[tuple[int, str, int, int, int]] = field(default_factory=list)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks[label] = self.checks.get(label, 0) + (0 if ok else 1)
        if not ok and len(self.details) < 8:
            self.details.append(f"{label}: {detail}")

    def record_runs(self, k: int, report) -> None:
        for run in report.runs:
            self.runs.append((k, run.label, run.passes, run.words_peak, report.words_budget))

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.checks.values())


_EPSILONS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
_DENSITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _capped_random_graph(rng: SplitMix64, lo: int, hi: int, max_edges: int) -> Graph:
    for _ in range(1000):
        n = rng.randint(lo, hi)
        density = _DENSITIES[rng.below(len(_DENSITIES))]
        g = gen_random_graph(n, rng.next_u64(), density)
        if g.m <= max_edges:
            return g
    raise RuntimeError("graph resampling did not converge")


def _pass_ceiling(k: int) -> int:
    return k * (2 * k - 1) + 1


def _audit_runs(outcome: SweepOutcome) -> None:
    for k, label, passes, peak, budget in outcome.runs:
        outcome.check(
            "run-passes",
            1 <= passes <= _pass_ceiling(k),
            f"{label}: {passes} passes at k={k}",
        )
        outcome.check("run-words", peak <= budget, f"{label}: peak {peak} over {budget}")


def sweep_two_phase(trials: int = 500, seed: int = 1) -> SweepOutcome:
    """Two-phase cover against the exact cover and matching oracles.

    Checks, per graph: the 2/3 (1 - eps) cover ratio at three epsilons,
    the first-phase half bound, path lengths within {1, 2, 3}, the
    matching-vs-cover sandwich, determinism of a repeated run, and the
    resource ceilings of every engine run.
    """
    rng = SplitMix64(seed)
    out = SweepOutcome("two-phase", trials)
    for _ in range(trials):
        g = _capped_random_graph(rng, 2, 10, 22)
        rho = oracle_path_cover(g).size
        mu = oracle_max_matching(g).size
        out.check("sandwich", mu <= rho <= 2 * mu, f"mu={mu} rho={rho} on {g.edges}")
        src = InMemoryEdgeSource(g)
        for eps in _EPSILONS:
            params = ApproxParams(eps)
            sess = open_session(src, k=params.k, strict=True)
            res = two_phase_path_cover(src, params, sess)
            out.record_runs(params.k, res.report)
            out.check(
                "cover-ratio",
                cover_bound_holds(res.cover.size, rho, eps),
                f"size={res.cover.size} rho={rho} eps={eps} on {g.edges}",
            )
            p, q = eps.numerator, eps.denominator
            out.check(
                "first-phase-half",
                2 * res.first_matching.size * q >= (q - p) * rho,
                f"|M1|={res.first_matching.size} rho={rho} eps={eps}",
            )
            out.check(
                "cover-lengths",
                all(l in (1, 2, 3) for l in res.cover.path_lengths),
                f"lengths={res.cover.path_lengths}",
            )
            if eps == Fraction(1, 3):
                again = two_phase_path_cover(
                    src, params, open_session(src, k=params.k, strict=True)
                )
                out.check(
                    "deterministic",
                    again.cover.edges == res.cover.edges,
                    "repeated run differed",
                )
    _audit_runs(out)
    return out


def sweep_degree_census(trials: int = 500, seed: int = 2) -> SweepOutcome:
    """Degree-{1,2,4} graphs: census and the 3 mu >= |E| - |V4| bound."""
    rng = SplitMix64(seed)
    out = SweepOutcome("degree-census", trials)
    for _ in range(trials):
        n = rng.randint(4, 12)
        g = gen_degree124_graph(n, rng.next_u64())
        census = Counter(g.degrees())
        out.check(
            "degrees", set(census) <= {1, 2, 4}, f"census={tuple(sorted(census.items()))}"
        )
        v4 = census[4]
        mu = oracle_max_matching(g).size
        out.check("deg4-matching", 3 * mu >= g.m - v4, f"mu={mu} m={g.m} v4={v4}")
    return out


def sweep_matching_contract(trials: int = 500, seed: int = 3) -> SweepOutcome:
    """Random matchings: the contraction keeps a big matching, and the
    aligned cover contracts to the counted degree-{0,1,2,4} structure."""
    rng = SplitMix64(seed)
    out = SweepOutcome("matching-contract", trials)
    for _ in range(trials):
        g = _capped_random_graph(rng, 3, 10, 22)
        m = gen_random_matching_in(g, rng.next_u64())
        best_cover = oracle_path_cover(g)
        rho = best_cover.size
        pairs = [e.pair for e in m]
        contracted, _ = contract_edges(g, pairs)
        mu_c = oracle_max_matching(contracted).size
        out.check(
            "contract-matching",
            3 * mu_c >= rho - m.size,
            f"mu_c={mu_c} rho={rho} |M|={m.size} on {g.edges}",
        )
        aligned = align_cover_with_matching(best_cover, m)
        out.check("aligned-size", aligned.size == rho, f"{aligned.size} != {rho}")
        merged, _ = contract_edges(Graph(g.n, aligned.edges, g.weighted), pairs)
        census = Counter(merged.degrees())
        out.check(
            "aligned-degrees",
            set(census) <= {0, 1, 2, 4},
            f"census={tuple(sorted(census.items()))}",
        )
        in_cover = sum(1 for e in m if e.pair in {c.pair for c in aligned})
        out.check(
            "aligned-edges",
            merged.m == aligned.size - in_cover,
            f"{merged.m} != {aligned.size} - {in_cover}",
        )
        out.check(
            "aligned-deg4",
            census[4] == m.size - in_cover,
            f"v4={census[4]} off-cover={m.size - in_cover}",
        )
    return out


def sweep_tsp12(trials: int = 300, seed: int = 4) -> SweepOutcome:
    """(1,2) tours against the exact optimum and the cover identity."""
    rng = SplitMix64(seed)
    out = SweepOutcome("tsp12", trials)
    params = ApproxParams(Fraction(1, 3))
    for _ in range(trials):
        g = _capped_random_graph(rng, 3, 10, 22)
        inst = Tsp12Instance.from_graph(g)
        res = approx_tsp12(inst, params, strict=True)
        out.record_runs(params.k, res.report)
        identity = tsp12_identity_check(inst)
        opt = identity.optimum
        n = inst.n
        out.check(
            "tour-bound",
            tsp12_bound_holds(res.tour.cost, opt, n, params.epsilon),
            f"cost={res.tour.cost} opt={opt} n={n}",
        )
        out.check(
            "tour-ceiling",
            res.tour.cost <= 2 * n - res.mpc.cover.size,
            f"cost={res.tour.cost} cover={res.mpc.cover.size}",
        )
        out.check(
            "cover-identity",
            identity.holds,
            f"opt={identity.optimum} predicted={identity.predicted}",
        )
    _audit_runs(out)
    return out


_WEIGHT_SCALES = (5, 20, 10**6)


def sweep_max_tsp(trials: int = 300, seed: int = 5) -> SweepOutcome:
    """Heavy tours on complete instances against the exact optimum."""
    rng = SplitMix64(seed)
    out = SweepOutcome("max-tsp", trials)
    params = ApproxParams(Fraction(1, 4))
    for t in range(trials):
        n = rng.randint(4, 9)
        inst = gen_random_max_tsp(n, rng.next_u64(), _WEIGHT_SCALES[t % 3])
        res = approx_max_tsp(inst, params, strict=True)
        out.record_runs(params.k, res.report)
        opt = oracle_max_tsp(inst)
        out.check(
            "tour-bound",
            max_tsp_bound_holds(res.tour.cost, opt, n, params.epsilon),
            f"w={res.tour.cost} opt={opt} n={n}",
        )
        out.check(
            "leftover",
            len(set(range(n)) - res.cover.covered) <= 1,
            f"cover misses {sorted(set(range(n)) - res.cover.covered)}",
        )
        out.check(
            "tour-carries-cover",
            res.tour.cost >= res.cover.weight,
            f"tour={res.tour.cost} cover={res.cover.weight}",
        )
    _audit_runs(out)
    return out


def sweep_structure_matching(trials: int = 1000, seed: int = 6) -> SweepOutcome:
    """Matchings extracted from cycles, paths and parallel pairs."""
    rng = SplitMix64(seed)
    out = SweepOutcome("structure-matching", trials)
    for t in range(trials):
        max_w = _WEIGHT_SCALES[t % 3]
        kind = t % 3
        if kind == 0:
            k = rng.randint(3, 12)
            perm = list(range(k))
            rng.shuffle(perm)
            edges = [
                Edge(perm[i], perm[(i + 1) % k], rng.randint(1, max_w)) for i in range(k)
            ]
            total = sum(e.weight for e in edges)
            m = extract_matching_from_cycle(edges)
            out.check(
                "cycle-fraction",
                2 * k * m.weight >= (k - 1) * total,
                f"k={k} w(M)={m.weight} w(C)={total}",
            )
            tour_m = extract_matching_from_path_or_cycle(edges)
            out.check("tour-third", 3 * tour_m.weight >= total, f"{tour_m.weight} vs {total}")
        elif kind == 1:
            k = rng.randint(1, 12)
            perm = list(range(k + 1))
            rng.shuffle(perm)
            edges = [Edge(perm[i], perm[i + 1], rng.randint(1, max_w)) for i in range(k)]
            total = sum(e.weight for e in edges)
            m = extract_matching_from_path_or_cycle(edges)
            out.check("path-third", 3 * m.weight >= total, f"{m.weight} vs {total}")
            out.check("path-half", 2 * m.weight >= total, f"{m.weight} vs {total}")
        else:
            edges = [Edge(0, 1, rng.randint(1, max_w)), Edge(0, 1, rng.randint(1, max_w))]
            total = edges[0].weight + edges[1].weight
            m = extract_matching_from_path_or_cycle(edges)
            out.check("pair-third", 3 * m.weight >= total, f"{m.weight} vs {total}")
    return out


def sweep_contract_bound(trials: int = 500, seed: int = 7) -> SweepOutcome:
    """The tour-versus-contracted-matching inequality on random matchings."""
    rng = SplitMix64(seed)
    out = SweepOutcome("contract-bound", trials)
    for t in range(trials):
        n = rng.randint(3, 9)
        inst = gen_random_max_tsp(n, rng.next_u64(), _WEIGHT_SCALES[t % 3])
        m = gen_random_matching_in(inst, rng.next_u64())
        bound = contract_bound_check(inst, m)
        out.check(
            "bound-holds",
            bound.holds,
            f"lhs={bound.lhs} rhs={bound.rhs} n={n} |M|={m.size}",
        )
    return out


def sweep_iterative(trials: int = 200, seed: int = 8) -> SweepOutcome:
    """Iterated matching: valid covers, never below the two-phase result.

    The first two rounds of the iteration are exactly the two-phase
    pipeline (after round one there are no path interiors to ban, and the
    contraction is the same), so the union being at least as large is a
    real invariant, not a heuristic hope.
    """
    rng = SplitMix64(seed)
    out = SweepOutcome("iterative", trials)
    params = ApproxParams(Fraction(1, 3))
    for _ in range(trials):
        g = _capped_random_graph(rng, 2, 10, 22)
        src = InMemoryEdgeSource(g)
        sess = open_session(src, k=params.k, strict=True)
        res = iterative_path_cover(src, params, sess)
        out.record_runs(params.k, res.report)
        rho = oracle_path_cover(g).size
        out.check("cover-size", res.cover.size <= rho, f"{res.cover.size} > rho={rho}")
        base = two_phase_path_cover(src, params, open_session(src, k=params.k, strict=True))
        out.check(
            "at-least-two-phase",
            res.cover.size >= base.cover.size,
            f"iterative={res.cover.size} two-phase={base.cover.size}",
        )
    _audit_runs(out)
    return out


SWEEPS = {
    "two-phase": sweep_two_phase,
    "degree-census": sweep_degree_census,
    "matching-contract": sweep_matching_contract,
    "tsp12": sweep_tsp12,
    "max-tsp": sweep_max_tsp,
    "structure-matching": sweep_structure_matching,
    "contract-bound": sweep_contract_bound,
    "iterative": sweep_iterative,
}
