"""Closed-form loss analysis.

Given a loss set, the expectation of a root-anchored Bell operator on the
post-loss state follows from two counting sets: the root's surviving
neighbors not touched by any lost vertex's closed neighborhood (W) and the
untouched non-neighbors (T).  Everything in this module is exact: counts
come from vertex bitmasks, values are `Quad`s, and the exhaustive sweeps
decide each loss set by an integer comparison.  The statevector oracle is
never consulted here, so the two can cross-check each other.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .bell import (
    classical_bound, quantum_bound, require_root, survivors, survivors_n_max,
)
from .errors import BudgetExceededError, DistributionError
from .graphs import Graph, members
from .quad import Quad

SUBSET_BUDGET = 10**6


def _alive(g: Graph, hypothesis: int, actual: int) -> int:
    """Mask of the vertices whose generator of the subgraph surviving
    ``hypothesis`` keeps expectation 1 on the state that actually lost
    ``actual``: every vertex not in either set and not adjacent to a vertex
    of either set.  Every other surviving generator has expectation 0.  Both
    masks must come from `Graph.loss_mask`.
    """
    adj = g.adjacency_masks
    dead = rest = actual | hypothesis
    while rest:
        low = rest & -rest
        dead |= adj[low.bit_length() - 1]
        rest ^= low
    return ((1 << g.n) - 1) & ~dead


def _counts(g: Graph, r: int, alive: int) -> tuple[int, int, bool]:
    """|W|, |T| and root_hit of the operator anchored at r (not hypothesized
    lost): W and T are r's alive neighbors and alive non-neighbors, and
    root_hit says whether r's own generator is dead.
    """
    if not 0 <= r < g.n:
        raise IndexError(f"vertex {r} out of range for n={g.n}")
    w = (alive & g.adjacency_masks[r]).bit_count()
    root_hit = not alive >> r & 1
    return w, alive.bit_count() - w - (not root_hit), root_hit


def _bell_value(w: int, t: int, root_hit: bool, anchor_weight: int) -> Quad:
    """|T| + sqrt(2)*(|W| + anchor_weight), the anchor term only if it survives."""
    return Quad(t, w + (0 if root_hit else anchor_weight))


def expectation_after_loss(g: Graph, r: int, loss: frozenset[int]) -> Quad:
    """Exact post-loss expectation of the Bell operator anchored at root r.

    The value is sqrt(2)*n_max + sqrt(2)*|W| + |T| when the loss avoids r's
    closed neighborhood and sqrt(2)*|W| + |T| otherwise.  For r not itself
    lost it applies to both the full-graph operator and the operator of the
    surviving subgraph; for r in the loss set it applies to the full-graph
    operator only.
    """
    require_root(g, r)
    alive = _alive(g, 0, g.loss_mask(loss))
    return _bell_value(*_counts(g, r, alive), g.n_max)


def generator_expectation(
    g: Graph, i: int, hypothesis: frozenset[int], actual: frozenset[int]
) -> int:
    """Expectation (exactly 0 or 1) of vertex i's generator of the subgraph
    surviving ``hypothesis``, on the state that actually lost ``actual``.

    Zero iff i was actually lost or neighbors a vertex of either set.  An
    empty hypothesis gives the original graph's generator; ``hypothesis ==
    actual`` gives the surviving subgraph's generator on the post-loss state;
    an empty ``actual`` gives it on the intact state.
    """
    hyp = g.loss_mask(hypothesis)
    alive = _alive(g, hyp, g.loss_mask(actual))
    if not 0 <= i < g.n:
        raise IndexError(f"vertex {i} out of range")
    if hyp >> i & 1:
        raise ValueError(
            f"vertex {i} is in the hypothesized loss set; "
            "the surviving subgraph has no generator for it"
        )
    return alive >> i & 1


# -- violation reports -------------------------------------------------------


def _anchors(
    g: Graph, roots: list[int], lost: int, degrees: dict[int, int], sub_n_max: int
) -> tuple[list[int], int, bool]:
    """The anchors of the records of the loss set ``lost`` (a mask), their
    anchor weight, and whether they count against g's own bound too.

    ``roots`` are g's roots, ascending; ``degrees`` and ``sub_n_max`` are the
    survivors' from `survivors`.  The surviving roots of g are scored with
    g's n_max.  If every root is lost, the survivors' own roots are scored
    with the survivors' n_max, against the survivors' bound alone; there are
    none when no edge survives.
    """
    anchors = [r for r in roots if not lost >> r & 1]
    if anchors:
        return anchors, g.n_max, True
    return [v for v, d in degrees.items() if d == sub_n_max > 0], sub_n_max, False


@dataclass(frozen=True)
class RootRecord:
    root: int
    scope: str  # "both" or "induced-only"
    expectation: Quad
    violates_full: bool | None
    violates_induced: bool
    w_size: int | None
    t_size: int | None
    root_hit: bool | None
    anchor_is_induced_root: bool

    def to_dict(self) -> dict[str, object]:
        return {
            "root": self.root,
            "scope": self.scope,
            "expectation": self.expectation.as_dict(),
            "violates_full": self.violates_full,
            "violates_induced": self.violates_induced,
            "w_size": self.w_size,
            "t_size": self.t_size,
            "root_hit": self.root_hit,
            "anchor_is_induced_root": self.anchor_is_induced_root,
        }


@dataclass(frozen=True)
class LossReport:
    graph_fingerprint: str
    n: int
    n_max: int
    connected: bool
    loss: tuple[int, ...]
    any_root_lost: bool
    full_bound: Quad
    quantum: Quad
    induced_bound: Quad | None
    induced_n: int
    induced_n_max: int
    records: tuple[RootRecord, ...]

    def violates(self, bound: str = "induced") -> bool:
        if bound == "full":
            return any(rec.violates_full for rec in self.records)
        if bound == "induced":
            return any(rec.violates_induced for rec in self.records)
        raise ValueError(f'bound must be "full" or "induced", got {bound!r}')

    def best_expectation(self) -> Quad | None:
        if not self.records:
            return None
        return max((rec.expectation for rec in self.records), default=None)

    def to_dict(self) -> dict[str, object]:
        return {
            "graph": {
                "fingerprint": self.graph_fingerprint,
                "n": self.n,
                "n_max": self.n_max,
                "connected": self.connected,
            },
            "loss": list(self.loss),
            "any_root_lost": self.any_root_lost,
            "bounds": {
                "full": self.full_bound.as_dict(),
                "quantum": self.quantum.as_dict(),
                "induced": None
                if self.induced_bound is None
                else self.induced_bound.as_dict(),
            },
            "induced": {"n": self.induced_n, "n_max": self.induced_n_max},
            "roots": [rec.to_dict() for rec in self.records],
        }


def violation_report(g: Graph, loss: frozenset[int]) -> LossReport:
    """Per-root verdicts for one loss set.

    Each surviving maximum-degree vertex gets the exact expectation plus
    strict comparisons against the original bound and the surviving
    subgraph's own bound (undefined when that subgraph has no edges, which
    counts as no violation).  If every maximum-degree vertex is lost, the
    report instead anchors at the surviving subgraph's own maximum-degree
    vertices; those records carry scope "induced-only".
    """
    lost = g.loss_mask(loss)
    full_bound = classical_bound(g)
    quantum = quantum_bound(g)
    degrees, induced_n_max, induced = survivors(g, lost)
    induced_bound = None if induced is None else Quad(induced)
    roots = sorted(g.roots)
    anchors, weight, full_scope = _anchors(g, roots, lost, degrees, induced_n_max)
    alive = _alive(g, 0, lost)
    records = []
    for r in anchors:
        w, t, root_hit = _counts(g, r, alive)
        value = _bell_value(w, t, root_hit, weight)
        records.append(
            RootRecord(
                root=r,
                scope="both" if full_scope else "induced-only",
                expectation=value,
                violates_full=value > full_bound if full_scope else None,
                violates_induced=induced_bound is not None and value > induced_bound,
                w_size=w if full_scope else None,
                t_size=t if full_scope else None,
                root_hit=root_hit if full_scope else None,
                anchor_is_induced_root=degrees[r] == induced_n_max > 0,
            )
        )
    return LossReport(
        graph_fingerprint=g.fingerprint,
        n=g.n,
        n_max=g.n_max,
        connected=g.is_connected(),
        loss=tuple(members(lost)),
        any_root_lost=any(lost >> r & 1 for r in roots),
        full_bound=full_bound,
        quantum=quantum,
        induced_bound=induced_bound,
        induced_n=len(degrees),
        induced_n_max=induced_n_max,
        records=tuple(records),
    )


@dataclass(frozen=True)
class RootLossEntry:
    root: int
    scope: str
    expectation: Quad
    margin_to_induced: Quad | None  # induced bound minus expectation
    margin_to_full: Quad  # full bound minus expectation
    bound_gap: Quad | None  # full bound minus induced bound
    strict: bool


@dataclass(frozen=True)
class RootLossCheck:
    lost_root: int
    induced_bound_defined: bool
    entries: tuple[RootLossEntry, ...]

    @property
    def all_strict(self) -> bool:
        return all(e.strict for e in self.entries)


def root_loss_check(g: Graph, r_lost: int) -> RootLossCheck:
    """Confirm that losing a maximum-degree vertex forbids violation.

    For every other maximum-degree vertex (or for the lost one itself when
    it is the only one) the chain expectation < surviving-subgraph bound <
    original bound is evaluated in exact arithmetic; the margins are
    returned.  When the surviving subgraph has no edges its bound is
    undefined and only the original-bound margin is checked.
    """
    require_root(g, r_lost)
    loss = frozenset({r_lost})
    full_bound = classical_bound(g)
    _, _, induced = survivors(g, g.loss_mask(loss))
    induced_bound = None if induced is None else Quad(induced)
    others = sorted(g.roots - loss)
    targets = others if others else [r_lost]
    entries = []
    for r in targets:
        value = expectation_after_loss(g, r, loss)
        margin_full = full_bound - value
        if induced_bound is None:
            margin_induced = None
            gap = None
            strict = margin_full.sign() > 0
        else:
            margin_induced = induced_bound - value
            gap = full_bound - induced_bound
            strict = margin_induced.sign() > 0 and gap.sign() > 0
        entries.append(
            RootLossEntry(
                root=r,
                scope="both" if r != r_lost else "full-only",
                expectation=value,
                margin_to_induced=margin_induced,
                margin_to_full=margin_full,
                bound_gap=gap,
                strict=strict,
            )
        )
    return RootLossCheck(
        lost_root=r_lost,
        induced_bound_defined=induced_bound is not None,
        entries=tuple(entries),
    )


# -- exhaustive sweeps ---------------------------------------------------------


def _check_budget(m: int, sizes: list[int], budget: int) -> int:
    total = sum(comb(m, k) for k in sizes)
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate subsets exceed the budget of {budget}"
        )
    return total


@dataclass(frozen=True)
class SubsetOutcome:
    subset: tuple[int, ...]
    expectation: Quad | None
    bound: Quad | None


@dataclass(frozen=True)
class SweepRow:
    size: int
    n_subsets: int
    n_violating: int
    witness: SubsetOutcome | None  # first violating subset, lexicographic
    counterexample: SubsetOutcome | None  # first non-violating subset

    @property
    def any_violates(self) -> bool:
        return self.n_violating > 0

    @property
    def all_violate(self) -> bool:
        return self.n_violating == self.n_subsets


def _subset_outcome(g: Graph, subset: tuple[int, ...], bound: str) -> SubsetOutcome:
    report = violation_report(g, frozenset(subset))
    best = report.best_expectation()
    compared = report.full_bound if bound == "full" else report.induced_bound
    return SubsetOutcome(subset=subset, expectation=best, bound=compared)


def _exceeds(t: int, b: int, bound: int) -> bool:
    """t + sqrt(2)*b > bound, for integers with b >= 0, in integers: if
    bound - t >= 0, both sides of sqrt(2)*b > bound - t are nonnegative and
    may be squared."""
    d = bound - t
    return d < 0 or 2 * b * b > d * d


def _verdict(g: Graph, bound: str) -> Callable[[int], bool]:
    """``violation_report(g, L).violates(bound)`` for a proper loss set L
    given as a mask, decided from integer counts alone: no `Quad`, `Graph`
    or report is built per loss set.  Raises `DegenerateGraphError` for an
    edgeless graph, as every report does."""
    full_score = int(classical_bound(g).a)  # raises for an edgeless graph
    roots = sorted(g.roots)

    def verdict(lost: int) -> bool:
        if bound == "full":
            # fallback anchors never count against this bound
            anchors = [r for r in roots if not lost >> r & 1]
            weight, score = g.n_max, full_score
        else:
            degrees, sub_n_max, score = survivors(g, lost)
            if score is None:  # the survivor bound is undefined
                return False
            anchors, weight, _ = _anchors(g, roots, lost, degrees, sub_n_max)
        alive = _alive(g, 0, lost)
        for r in anchors:
            w, t, root_hit = _counts(g, r, alive)
            if _exceeds(t, w + (0 if root_hit else weight), score):
                return True
        return False

    return verdict


def loss_size_sweep(
    g: Graph,
    candidates: frozenset[int],
    bound: str = "induced",
    max_size: int | None = None,
    budget: int = SUBSET_BUDGET,
) -> list[SweepRow]:
    """Exhaustive per-size tolerance table over subsets of ``candidates``."""
    if bound not in ("full", "induced"):
        raise ValueError(f'bound must be "full" or "induced", got {bound!r}')
    candidates = frozenset(candidates)
    if not candidates <= g.vertices:
        raise ValueError("candidates contain out-of-range vertices")
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be at least 0, got {max_size}")
    cand = sorted(candidates)
    limit = len(cand) if len(cand) < g.n else g.n - 1  # loss must be proper
    if max_size is not None:
        limit = min(limit, max_size)
    sizes = list(range(limit + 1))
    _check_budget(len(cand), sizes, budget)
    verdict = _verdict(g, bound)
    bits = [1 << v for v in cand]
    rows = []
    for k in sizes:
        n_violating = 0
        witness = None
        counterexample = None
        for combo in combinations(bits, k):
            lost = sum(combo)
            if verdict(lost):
                n_violating += 1
                if witness is None:
                    witness = _subset_outcome(g, tuple(members(lost)), bound)
            elif counterexample is None:
                counterexample = _subset_outcome(g, tuple(members(lost)), bound)
        rows.append(
            SweepRow(
                size=k,
                n_subsets=comb(len(cand), k),
                n_violating=n_violating,
                witness=witness,
                counterexample=counterexample,
            )
        )
    return rows


@dataclass(frozen=True)
class MaxLossResult:
    semantics: str
    bound: str
    k: int
    witness: SubsetOutcome | None
    breaking_set: SubsetOutcome | None
    rows: tuple[SweepRow, ...]


def max_tolerable_loss(
    g: Graph,
    candidates: frozenset[int],
    semantics: str = "best-case",
    bound: str = "induced",
) -> MaxLossResult:
    """Largest tolerable loss size under the chosen semantics.

    best-case: the largest k for which SOME size-k candidate subset still
    leaves a violating root.  worst-case: the largest k for which EVERY
    size-k subset does.  All sizes are enumerated (tolerance need not be
    monotone in k), within `SUBSET_BUDGET`.
    """
    if semantics not in ("best-case", "worst-case"):
        raise ValueError(
            f'semantics must be "best-case" or "worst-case", got {semantics!r}'
        )
    rows = loss_size_sweep(g, candidates, bound=bound)
    if semantics == "best-case":
        good = [row.size for row in rows if row.any_violates]
    else:
        good = [row.size for row in rows if row.all_violate]
    k = max(good) if good else -1
    witness = rows[k].witness if k >= 0 else None
    breaking = None
    if k + 1 < len(rows):
        breaking = rows[k + 1].counterexample
    return MaxLossResult(
        semantics=semantics,
        bound=bound,
        k=k,
        witness=witness,
        breaking_set=breaking,
        rows=tuple(rows),
    )


def critical_sets(
    g: Graph,
    max_size: int,
    bound: str = "induced",
) -> list[frozenset[int]]:
    """Inclusion-minimal loss sets of size <= max_size that leave no
    violating root under the chosen bound, by size and then lexicographic,
    within `SUBSET_BUDGET`."""
    if bound not in ("full", "induced"):
        raise ValueError(f'bound must be "full" or "induced", got {bound!r}')
    sizes = list(range(1, min(max_size, g.n - 1) + 1))
    _check_budget(g.n, sizes, SUBSET_BUDGET)
    if not sizes:
        return []
    verdict = _verdict(g, bound)
    minimal: list[int] = []
    for k in sizes:
        for combo in combinations([1 << v for v in range(g.n)], k):
            lost = sum(combo)
            if any(not m & ~lost for m in minimal):
                continue
            if not verdict(lost):
                minimal.append(lost)
    return [frozenset(members(m)) for m in minimal]


# -- mixtures of loss realizations -----------------------------------------------


def _unit_probability(p: Fraction | float) -> Fraction:
    """p as an exact Fraction; a `DistributionError` unless 0 <= p <= 1."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise DistributionError(f"p={p} outside [0, 1]")
    return p


@dataclass(frozen=True)
class LossDistribution:
    """Exact probability distribution over loss realizations."""

    entries: tuple[tuple[Fraction, frozenset[int]], ...]

    def __post_init__(self) -> None:
        total = Fraction(0)
        for prob, _ in self.entries:
            if prob < 0:
                raise DistributionError(f"negative probability {prob}")
            total += prob
        if total != 1:
            raise DistributionError(f"probabilities sum to {total}, not 1")

    @classmethod
    def single_loss_model(
        cls, candidates: tuple[int, ...], p: Fraction
    ) -> LossDistribution:
        """No loss with probability 1-p, else one uniformly chosen candidate."""
        p = _unit_probability(p)
        if not candidates:
            raise DistributionError("no loss candidates given")
        share = p / len(candidates)
        entries = [(1 - p, frozenset())]
        entries += [(share, frozenset({c})) for c in candidates]
        return cls(tuple(entries))


def mixture_expectation(
    g: Graph,
    dist: LossDistribution,
    root: int,
    hypothesis: frozenset[int] | None = None,
) -> Quad:
    """Exact Bell expectation averaged over a distribution of loss sets.

    With ``hypothesis=None`` the full-graph operator anchored at ``root`` is
    evaluated (realizations containing the root use its full-graph-only
    value).  Otherwise the operator belongs to the subgraph surviving the
    hypothesized loss.
    """
    total = Quad(0)
    if hypothesis is None:
        require_root(g, root)
        for prob, realization in dist.entries:
            total = total + expectation_after_loss(g, root, realization) * prob
    else:
        hyp = g.loss_mask(hypothesis)
        if root in hypothesis:
            raise ValueError("anchor vertex is in the hypothesized loss set")
        n_max = survivors_n_max(g, hyp)
        for prob, realization in dist.entries:
            alive = _alive(g, hyp, g.loss_mask(realization))
            total = total + _bell_value(*_counts(g, root, alive), n_max) * prob
    return total


@dataclass(frozen=True)
class MixturePoint:
    p: Fraction
    full_expectation: Quad
    full_margin: Quad
    induced_expectation: Quad
    induced_margin: Quad


@dataclass(frozen=True)
class MixtureCurve:
    root: int
    hypothesis: tuple[int, ...]
    candidates: tuple[int, ...]
    full_bound: Quad
    induced_bound: Quad
    points: tuple[MixturePoint, ...]
    crossover: Quad | None  # p where the two margins meet (margins are linear in p)
    crossover_in_unit_interval: bool

    def to_rows(self) -> list[dict[str, object]]:
        return [
            {
                "p": str(pt.p),
                "full_expectation": pt.full_expectation.as_dict(),
                "full_margin": pt.full_margin.as_dict(),
                "induced_expectation": pt.induced_expectation.as_dict(),
                "induced_margin": pt.induced_margin.as_dict(),
            }
            for pt in self.points
        ]


def single_loss_mixture_curve(
    g: Graph,
    root: int,
    candidates: tuple[int, ...],
    hypothesis: frozenset[int],
    grid: list[Fraction],
) -> MixtureCurve:
    """Margins of the full-graph and hypothesis-subgraph operators across a
    grid of single-loss probabilities, plus their exact crossover."""
    require_root(g, root)
    induced_bound = classical_bound(g, lost=hypothesis)
    full_bound = classical_bound(g)
    # both expectations are affine in p: v0 + (v1 - v0)*p from p = 0 and p = 1
    (full0, full1), (induced0, induced1) = (
        [
            mixture_expectation(
                g, LossDistribution.single_loss_model(candidates, p), root, hyp
            )
            for p in (Fraction(0), Fraction(1))
        ]
        for hyp in (None, hypothesis)
    )
    full_slope, induced_slope = full1 - full0, induced1 - induced0
    points = []
    for p in grid:
        q = _unit_probability(p)
        full, induced = full0 + full_slope * q, induced0 + induced_slope * q
        points.append(
            MixturePoint(p, full, full - full_bound, induced, induced - induced_bound)
        )

    slope_diff = full_slope - induced_slope
    crossover = None
    in_unit = False
    if slope_diff.sign() != 0:
        crossover = ((induced0 - induced_bound) - (full0 - full_bound)) / slope_diff
        in_unit = Quad(0) < crossover < Quad(1)
    return MixtureCurve(
        root=root,
        hypothesis=tuple(sorted(frozenset(hypothesis))),
        candidates=tuple(candidates),
        full_bound=full_bound,
        induced_bound=induced_bound,
        points=tuple(points),
        crossover=crossover,
        crossover_in_unit_interval=in_unit,
    )
