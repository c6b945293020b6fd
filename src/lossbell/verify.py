"""Closed forms against the statevector oracle, check by check: the only
module that imports both sides (`loss` never consults the oracle and `oracle`
never calls a closed form)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb

from .bell import bell_weights
from .errors import DegenerateGraphError
from .graphs import Graph
from .loss import expectation_after_loss, generator_expectation
from .oracle import REPLACEMENTS, LossyState
from .pauli import stabilizer

IDENTITIES = ("generator/full", "generator/survivor", "generator/intact",
              "bell/full", "bell/survivor", "replacement")


def loss_sets(n: int, max_loss: int, cap: int) -> Iterator[frozenset[int]]:
    """Loss sets of sizes 0..min(max_loss, n - 1), lexicographic, at most ``cap``."""
    sizes = range(min(max_loss, n - 1) + 1)
    sets = (frozenset(c) for k in sizes for c in combinations(range(n), k))
    return islice(sets, max(cap, 0))


def loss_set_count(n: int, max_loss: int) -> int:
    """How many sets `loss_sets` yields without a cap."""
    return sum(comb(n, k) for k in range(min(max_loss, n - 1) + 1))


@dataclass
class Tally:
    checks: int = 0
    worst: float = 0.0
    # (kind, graph fingerprint, loss set, vertex or root) of the worst, once nonzero
    where: tuple[str, str, tuple[int, ...], int] | None = None


@dataclass
class VerifyResult:
    """One tally per family of identity kinds, plus the loss sets visited."""

    generator: Tally = field(default_factory=Tally)
    bell: Tally = field(default_factory=Tally)
    replacement: Tally = field(default_factory=Tally)
    loss_sets: int = 0


def _weighted_sum(
    weights: tuple[tuple[int, float], ...], values: list[float] | dict[int, float]
) -> float:
    """sum(w * values[v]), accumulated in term order from 0.0."""
    total = 0.0
    for v, w in weights:
        total += w * values[v]
    return total


def check_graph(g: Graph, sets: Iterable[frozenset[int]], identities: tuple[str, ...],
                result: VerifyResult | None = None) -> VerifyResult:
    """Check the selected identity kinds on every loss set L of ``sets``,
    accumulating into ``result`` (a new one if None).  The graph's state is
    built first, so a graph past the oracle's cap is refused before any check.

    generator/full, /survivor, /intact: ``generator_expectation`` with
    hypothesis and actual loss ({}, L) for every vertex, (L, L) and (L, {})
    for every survivor; bell/full, /survivor: ``expectation_after_loss`` at
    each surviving root against the full-graph and (if it has an edge) the
    survivors' operator; replacement: the spread of each root's full-graph
    operator over the replacement conventions.  Intact and replacement skip
    L = {}.

    Per loss set each generator is read from the oracle once per replacement
    convention (the survivors' generators once per state), and every Bell
    value is the weighted sum of those reads in its operator's term order.
    Every loss set's state shares the memo of the intact state, so each
    distinct survivor Pauli is computed from amplitudes once per call.
    """
    on = set(identities)
    if not on <= set(IDENTITIES):
        raise ValueError(f"unknown identity kinds {sorted(on - set(IDENTITIES))}")
    intact = LossyState(g, frozenset())
    result = VerifyResult() if result is None else result
    gens = [stabilizer(g, i) for i in range(g.n)]
    full_weights = {r: bell_weights(g, r) for r in sorted(g.roots)}
    reads_full = bool(on & {"generator/full", "bell/full", "replacement"})
    reads_cut = bool(on & {"generator/survivor", "generator/intact", "bell/survivor"})
    bells = on & {"bell/full", "bell/survivor"}
    for lost in sets:
        result.loss_sets += 1
        lossy = intact.with_loss(lost)

        def record(kind: str, vertex: int, want: float, got: float) -> None:
            tally = getattr(result, kind.partition("/")[0])
            tally.checks += 1
            if abs(want - got) > tally.worst:
                tally.worst = abs(want - got)
                tally.where = (kind, g.fingerprint, tuple(sorted(lost)), vertex)

        if reads_full:
            full = [lossy.pauli_expectation(p) for p in gens]
        if "generator/full" in on:
            for i in range(g.n):
                want = generator_expectation(g, i, frozenset(), lost)
                record("generator/full", i, want, full[i])
        if reads_cut:
            # the survivors' generators on the full register
            cut = {i: stabilizer(g, i, lost=lost) for i in range(g.n) if i not in lost}
            cut_values = {i: lossy.pauli_expectation(p) for i, p in cut.items()}
        if on & {"generator/survivor", "generator/intact"}:
            for i, gen in cut.items():
                if "generator/survivor" in on:
                    want = generator_expectation(g, i, lost, lost)
                    record("generator/survivor", i, want, cut_values[i])
                if "generator/intact" in on and lost:
                    want = generator_expectation(g, i, lost, frozenset())
                    record("generator/intact", i, want, intact.pauli_expectation(gen))
        cut_weights = {}
        if "bell/survivor" in on:
            try:
                cut_weights = {r: bell_weights(g, r, lost=lost)
                               for r in full_weights if r not in lost}
            except DegenerateGraphError:
                pass  # the survivors' graph has no edge, so no operator
        if "replacement" in on and lost:
            by_convention = {x: full if x == "zero" else
                             [lossy.pauli_expectation(p, x) for p in gens]
                             for x in REPLACEMENTS}
        for r, weights in full_weights.items():
            if bells and r not in lost:
                want = float(expectation_after_loss(g, r, lost))
                if "bell/full" in on:
                    record("bell/full", r, want, _weighted_sum(weights, full))
                if r in cut_weights:
                    got = _weighted_sum(cut_weights[r], cut_values)
                    record("bell/survivor", r, want, got)
            if "replacement" in on and lost:
                values = [_weighted_sum(weights, by_convention[x]) for x in REPLACEMENTS]
                record("replacement", r, max(values), min(values))
    return result
