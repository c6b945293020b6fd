"""Closed-form loss analysis.

Given a loss set, the expectation of a root-anchored Bell operator on the
post-loss state follows from two counting sets: the root's surviving
neighbors not touched by any lost vertex's closed neighborhood (W) and the
untouched non-neighbors (T).  Everything in this module is exact `Quad`
arithmetic and set algebra; the statevector oracle is never consulted here,
so the two can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .bell import classical_bound, quantum_bound
from .errors import (
    BudgetExceededError,
    DegenerateGraphError,
    DistributionError,
    NotARootError,
)
from .graphs import Graph
from .quad import Quad

SUBSET_BUDGET = 10**6


def _validate_loss(g: Graph, loss: frozenset[int]) -> frozenset[int]:
    loss = frozenset(loss)
    if not loss <= g.vertices:
        raise ValueError("loss set contains out-of-range vertices")
    if len(loss) >= g.n:
        raise ValueError("losing every qubit is not allowed")
    return loss


def _require_root(g: Graph, r: int) -> None:
    if not 0 <= r < g.n:
        raise IndexError(f"vertex {r} out of range")
    if r not in g.roots:
        raise NotARootError(
            f"vertex {r} has degree {g.degree(r)}, not the maximum {g.n_max}"
        )


@dataclass(frozen=True)
class WTSets:
    w: frozenset[int]
    t: frozenset[int]
    root_hit: bool


def _dead(
    g: Graph, hypothesis: frozenset[int], actual: frozenset[int]
) -> set[int]:
    """Vertices whose generator of the subgraph surviving ``hypothesis`` has
    expectation 0 on the state that actually lost ``actual``: those actually
    lost and every neighbor of a vertex of either set.  Every other
    surviving generator keeps expectation 1.  Both sets must be validated by
    the caller.
    """
    dead = set(actual)
    for v in hypothesis | actual:
        dead |= g.neighborhood(v)
    return dead


def _counting_sets(
    g: Graph, r: int, hypothesis: frozenset[int], actual: frozenset[int]
) -> WTSets:
    """Counting sets of the operator of the subgraph surviving ``hypothesis``,
    anchored at r, on the state that actually lost ``actual``.

    W and T are r's surviving neighbors and non-neighbors whose generators
    are not dead, and root_hit says whether r's own generator is.
    """
    dead = _dead(g, hypothesis, actual)
    alive = g.vertices - hypothesis - dead
    nr = g.neighborhood(r)
    return WTSets(alive & nr, alive - nr - {r}, r in dead)


def _bell_value(sets: WTSets, anchor_weight: int) -> Quad:
    """|T| + sqrt(2)*(|W| + anchor_weight), the anchor term only if it survives."""
    return Quad(len(sets.t), len(sets.w) + (0 if sets.root_hit else anchor_weight))


def wt_sets(g: Graph, r: int, loss: frozenset[int]) -> WTSets:
    """Counting sets for the post-loss expectation at root r.

    W: neighbors of r outside every lost vertex's closed neighborhood.
    T: vertices outside both those closed neighborhoods and r's own.
    root_hit: whether the loss touches r's closed neighborhood.
    """
    _require_root(g, r)
    return _counting_sets(g, r, frozenset(), _validate_loss(g, loss))


def expectation_after_loss(g: Graph, r: int, loss: frozenset[int]) -> Quad:
    """Exact post-loss expectation of the Bell operator anchored at root r.

    The value is sqrt(2)*n_max + sqrt(2)*|W| + |T| when the loss avoids r's
    closed neighborhood and sqrt(2)*|W| + |T| otherwise.  For r not itself
    lost it applies to both the full-graph operator and the operator of the
    surviving subgraph; for r in the loss set it applies to the full-graph
    operator only.
    """
    return _bell_value(wt_sets(g, r, loss), g.n_max)


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
    hypothesis = _validate_loss(g, hypothesis)
    actual = _validate_loss(g, actual)
    if i in hypothesis:
        raise ValueError(
            f"vertex {i} is in the hypothesized loss set; "
            "the surviving subgraph has no generator for it"
        )
    if not 0 <= i < g.n:
        raise IndexError(f"vertex {i} out of range")
    return 0 if i in _dead(g, hypothesis, actual) else 1


def induced_operator_expectation(
    g: Graph, r: int, hypothesis: frozenset[int], actual: frozenset[int]
) -> Quad:
    """Exact expectation of the subgraph Bell operator anchored at r.

    The operator belongs to the subgraph surviving ``hypothesis`` (anchor
    coefficient sqrt(2)*n_max of that subgraph, whether or not r kept root
    status there); the state is the one that actually lost ``actual``.
    """
    hypothesis = _validate_loss(g, hypothesis)
    if r in hypothesis:
        raise ValueError("anchor vertex is in the hypothesized loss set")
    sub, _ = g.induced_subgraph(g.vertices - hypothesis)
    if sub.n_max == 0:
        raise DegenerateGraphError("surviving subgraph has no edges")
    actual = _validate_loss(g, actual)
    return _bell_value(_counting_sets(g, r, hypothesis, actual), sub.n_max)


# -- violation reports -------------------------------------------------------


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
    loss = _validate_loss(g, loss)
    full_bound = classical_bound(g)
    quantum = quantum_bound(g)
    sub, mapping = g.induced_subgraph(g.vertices - loss)
    induced_bound = None if sub.n_max == 0 else classical_bound(sub)
    surviving_roots = sorted(r for r in g.roots if r not in loss)
    records = []
    if surviving_roots:
        for r in surviving_roots:
            sets = wt_sets(g, r, loss)
            value = _bell_value(sets, g.n_max)
            records.append(
                RootRecord(
                    root=r,
                    scope="both",
                    expectation=value,
                    violates_full=value > full_bound,
                    violates_induced=(
                        induced_bound is not None and value > induced_bound
                    ),
                    w_size=len(sets.w),
                    t_size=len(sets.t),
                    root_hit=sets.root_hit,
                    anchor_is_induced_root=mapping[r] in sub.roots
                    and sub.n_max > 0,
                )
            )
    elif induced_bound is not None:
        for r in sorted(old for old, new in mapping.items() if new in sub.roots):
            value = induced_operator_expectation(g, r, loss, loss)
            records.append(
                RootRecord(
                    root=r,
                    scope="induced-only",
                    expectation=value,
                    violates_full=None,
                    violates_induced=value > induced_bound,
                    w_size=None,
                    t_size=None,
                    root_hit=None,
                    anchor_is_induced_root=True,
                )
            )
    return LossReport(
        graph_fingerprint=g.fingerprint,
        n=g.n,
        n_max=g.n_max,
        connected=g.is_connected(),
        loss=tuple(sorted(loss)),
        any_root_lost=any(r in loss for r in g.roots),
        full_bound=full_bound,
        quantum=quantum,
        induced_bound=induced_bound,
        induced_n=sub.n,
        induced_n_max=sub.n_max,
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
    _require_root(g, r_lost)
    loss = frozenset({r_lost})
    full_bound = classical_bound(g)
    sub, _ = g.induced_subgraph(g.vertices - loss)
    induced_bound = None if sub.n_max == 0 else classical_bound(sub)
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
    rows = []
    for k in sizes:
        n_subsets = 0
        n_violating = 0
        witness = None
        counterexample = None
        for combo in combinations(cand, k):
            n_subsets += 1
            report = violation_report(g, frozenset(combo))
            if report.violates(bound):
                n_violating += 1
                if witness is None:
                    witness = _subset_outcome(g, combo, bound)
            elif counterexample is None:
                counterexample = _subset_outcome(g, combo, bound)
        rows.append(
            SweepRow(
                size=k,
                n_subsets=n_subsets,
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
    budget: int = SUBSET_BUDGET,
) -> MaxLossResult:
    """Largest tolerable loss size under the chosen semantics.

    best-case: the largest k for which SOME size-k candidate subset still
    leaves a violating root.  worst-case: the largest k for which EVERY
    size-k subset does.  All sizes are enumerated (tolerance need not be
    monotone in k), within the subset budget.
    """
    if semantics not in ("best-case", "worst-case"):
        raise ValueError(
            f'semantics must be "best-case" or "worst-case", got {semantics!r}'
        )
    rows = loss_size_sweep(g, candidates, bound=bound, budget=budget)
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
    budget: int = SUBSET_BUDGET,
) -> list[frozenset[int]]:
    """Inclusion-minimal loss sets of size <= max_size that leave no
    violating root under the chosen bound."""
    if bound not in ("full", "induced"):
        raise ValueError(f'bound must be "full" or "induced", got {bound!r}')
    sizes = list(range(1, min(max_size, g.n - 1) + 1))
    _check_budget(g.n, sizes, budget)
    minimal: list[frozenset[int]] = []
    for k in sizes:
        for combo in combinations(range(g.n), k):
            subset = frozenset(combo)
            if any(m <= subset for m in minimal):
                continue
            if not violation_report(g, subset).violates(bound):
                minimal.append(subset)
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


# -- mixtures of loss realizations -----------------------------------------------


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
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise DistributionError(f"p={p} outside [0, 1]")
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
        _require_root(g, root)
        for prob, realization in dist.entries:
            total = total + expectation_after_loss(g, root, realization) * prob
    else:
        hypothesis = _validate_loss(g, hypothesis)
        for prob, realization in dist.entries:
            total = (
                total
                + induced_operator_expectation(g, root, hypothesis, realization)
                * prob
            )
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
    _require_root(g, root)
    hypothesis = _validate_loss(g, hypothesis)
    full_bound = classical_bound(g)
    sub, _ = g.induced_subgraph(g.vertices - hypothesis)
    induced_bound = classical_bound(sub)

    def margins(p: Fraction) -> tuple[Quad, Quad, Quad, Quad]:
        dist = LossDistribution.single_loss_model(candidates, p)
        full_value = mixture_expectation(g, dist, root)
        induced_value = mixture_expectation(g, dist, root, hypothesis)
        return (
            full_value,
            full_value - full_bound,
            induced_value,
            induced_value - induced_bound,
        )

    points = tuple(MixturePoint(p, *margins(p)) for p in grid)

    # both margins are affine in p; solve from the endpoints
    _, f0, _, i0 = margins(Fraction(0))
    _, f1, _, i1 = margins(Fraction(1))
    slope_diff = (f1 - f0) - (i1 - i0)
    crossover = None
    in_unit = False
    if slope_diff.sign() != 0:
        crossover = (i0 - f0) / slope_diff
        in_unit = Quad(0) < crossover < Quad(1)
    return MixtureCurve(
        root=root,
        hypothesis=tuple(sorted(hypothesis)),
        candidates=tuple(candidates),
        full_bound=full_bound,
        induced_bound=induced_bound,
        points=points,
        crossover=crossover,
        crossover_in_unit_interval=in_unit,
    )
